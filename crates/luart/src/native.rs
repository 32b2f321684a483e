//! The native runtime behind `ecall`, written once for every engine.
//!
//! The hot interpreter paths run as generated TRV64 assembly; what a
//! scripting engine implements as C runtime calls — string interning,
//! table hash parts, array growth, allocation, the builtins, `print` —
//! executes here, functionally against simulated memory, and charges a
//! documented [`Cost`] (identical across ISA levels; see
//! `tarch_sim::native`).
//!
//! [`Runtime`] is the one `ecall` host of all three engines. It is generic
//! over a [`Codec`]: how an engine stores a value in a memory slot, and
//! its helper-id table. An engine's runtime module is its codec alone —
//! `luart`'s 16-byte tag-value pair, `jsrt`'s NaN-box, `wasmrt`'s raw word
//! read under its call site's static type code. `Runtime<C>` is
//! monomorphized per engine, like `tarch_sim::Machine<H>`, so an `ecall`
//! pays no dynamic dispatch.
//!
//! The module lives in `luart` rather than `tarch-sim` because it needs
//! `miniscript`'s number formatting, `sub` and floor division, and
//! `tarch-sim` does not depend on `miniscript`; `jsrt` and `wasmrt`
//! already depend on `luart`.
//!
//! ## Cost model (instructions, affine)
//!
//! | service | cost |
//! |---|---|
//! | slow arithmetic, negation | 40 (+25 per string→number coercion) |
//! | concat | 60 + 2/byte of result |
//! | slow comparison | 30 (+2/byte for string ordering) |
//! | `#` of a string | 15 |
//! | table get (hash part) | 50 + 6/byte for string keys, 60 for integers |
//! | table set (hash part) | +20 over get; array growth 50 + 3/element; 8 per key absorbed |
//! | table allocation | 60 + 1/element of initial capacity |
//! | global read/write | 35 |
//! | `print`, `write` | 60 + 3/byte of output + 25/argument |
//! | `floor`, `abs`, `min`, `max`, `len` | 15 |
//! | `clock`, `char`, `byte` | 20 |
//! | `sqrt` | 25 |
//! | `sub` | 40 + 2/byte of result |
//! | `insert` | 30 + the table set |
//! | `tostring` | 60 + 2/byte of result |
//! | numeric-for preparation (`luart` only) | 40 |

use crate::bytecode::Builtin;
use miniscript::{float_floor_mod, format_float, int_floor_div, int_floor_mod, string_sub, BinOp};
use std::collections::HashMap;
use std::fmt;
use tarch_core::Cpu;
use tarch_isa::Reg;
use tarch_sim::{Cost, GuestHost, HostError, HostState, NativeHost};

/// Table header field offsets: the 32-byte header every engine's tables
/// share in the simulated heap. The array part holds one codec slot per
/// element.
pub mod table {
    /// Address of the array part.
    pub const ARR_PTR: i32 = 0;
    /// Array part capacity, in elements.
    pub const ARR_CAP: i32 = 8;
    /// Array part length (`#t` border), in elements.
    pub const ARR_LEN: i32 = 16;
    /// Host-side hash-part id.
    pub const HASH_ID: i32 = 24;
    /// Header size in bytes.
    pub const HEADER_SIZE: u64 = 32;
}

/// Error codes the guest passes in `a0` to its engine's fatal-error
/// helper (see [`fatal`]).
pub mod errcode {
    /// Call-info or value stack overflow.
    pub const STACK_OVERFLOW: u64 = 1;
    /// Division or modulo by integer zero.
    pub const DIV_BY_ZERO: u64 = 2;
}

/// A value as the runtime sees it, decoded from an engine's slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// `nil`.
    Nil,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// An interned string, by id.
    Str(u32),
    /// A table, by header address.
    Table(u64),
}

impl Value {
    /// The value's type name, as error messages print it.
    fn type_name(self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Bool(_) => "boolean",
            Value::Int(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Table(_) => "table",
        }
    }
}

/// A hash-part key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Int(i64),
    Str(u32),
}

/// An engine's value representation and helper-id table.
pub trait Codec: Clone + fmt::Debug {
    /// A raw value slot as stored in simulated memory.
    type Slot: Copy + fmt::Debug + Send;
    /// A slot's size in bytes: the stride of a table's array part.
    const SLOT_BYTES: u64;

    /// Reads the slot at `addr`.
    fn read(cpu: &Cpu, addr: u64) -> Self::Slot;

    /// Writes `slot` at `addr`.
    fn write(cpu: &mut Cpu, addr: u64, slot: Self::Slot);

    /// Encodes a value.
    fn encode(value: Value) -> Self::Slot;

    /// Encodes the result of float arithmetic; a float unless the engine
    /// has its own number rule.
    fn number(f: f64) -> Self::Slot {
        Self::encode(Value::Float(f))
    }

    /// Whether a slot holds `nil`: storing one removes a hash-part key.
    fn is_nil(slot: Self::Slot) -> bool;

    /// Services helper `id`: reads the operands its call site passes,
    /// decodes them and calls the runtime.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown helper ids and runtime errors.
    fn ecall(rt: &mut Runtime<Self>, cpu: &mut Cpu, id: u64) -> Result<Cost, HostError>;
}

/// A runtime error. [`Runtime`]'s `ecall` stamps it with the failing
/// helper's id.
pub fn fail(message: impl Into<String>) -> HostError {
    HostError::new(0, message)
}

/// The fatal error the guest raises with `code` (one of [`errcode`]).
pub fn fatal(code: u64) -> HostError {
    fail(match code {
        errcode::STACK_OVERFLOW => "stack overflow",
        errcode::DIV_BY_ZERO => "integer division by zero",
        _ => "runtime error",
    })
}

/// The native runtime over an engine's [`Codec`]: the [`HostState`] every
/// engine keeps, plus the tables' hash parts and the globals.
#[derive(Debug, Clone)]
pub struct Runtime<C: Codec> {
    state: HostState,
    hash_parts: Vec<HashMap<Key, C::Slot>>,
    globals: HashMap<u32, C::Slot>,
}

impl<C: Codec> GuestHost for Runtime<C> {
    fn new(state: HostState) -> Runtime<C> {
        Runtime { state, hash_parts: Vec::new(), globals: HashMap::new() }
    }

    fn state(&self) -> &HostState {
        &self.state
    }
}

impl<C: Codec> NativeHost for Runtime<C> {
    fn ecall(&mut self, cpu: &mut Cpu) -> Result<(), HostError> {
        let id = cpu.regs().read(Reg::A7).v;
        let cost = C::ecall(self, cpu, id).map_err(|e| HostError::new(id, e.message))?;
        cost.charge(cpu);
        Ok(())
    }
}

impl<C: Codec> Runtime<C> {
    /// Numeric coercion; the flag reports whether a string was parsed.
    ///
    /// # Errors
    ///
    /// For a string that is not a number, and for any other non-number.
    pub fn to_number(&self, v: Value) -> Result<(f64, bool), HostError> {
        match v {
            Value::Int(i) => Ok((i as f64, false)),
            Value::Float(f) => Ok((f, false)),
            Value::Str(id) => {
                let s = self.state.string(id)?;
                s.trim()
                    .parse::<f64>()
                    .map(|f| (f, true))
                    .map_err(|_| fail(format!("cannot convert `{s}` to a number")))
            }
            other => {
                Err(fail(format!("attempt to perform arithmetic on a {} value", other.type_name())))
            }
        }
    }

    fn format(&self, v: Value) -> Result<String, HostError> {
        Ok(match v {
            Value::Nil => "nil".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(f),
            Value::Str(id) => self.state.string(id)?.to_string(),
            Value::Table(_) => "table".to_string(),
        })
    }

    // --- arithmetic, comparison, concatenation, length --------------------

    /// `dst = b op c` for `+ - * / // % ..` off the guest's fast path.
    /// Integer pairs keep integer semantics (except `/`); anything else is
    /// float arithmetic after string coercion, stored by [`Codec::number`].
    ///
    /// # Errors
    ///
    /// Integer `//` or `%` by zero, and operands that are not numbers.
    pub fn arith(
        &mut self,
        op: BinOp,
        b: Value,
        c: Value,
        dst: u64,
        cpu: &mut Cpu,
    ) -> Result<Cost, HostError> {
        if op == BinOp::Concat {
            return self.concat(b, c, dst, cpu);
        }
        if let (Value::Int(x), Value::Int(y)) = (b, c) {
            let r = match op {
                BinOp::Add => Some(x.wrapping_add(y)),
                BinOp::Sub => Some(x.wrapping_sub(y)),
                BinOp::Mul => Some(x.wrapping_mul(y)),
                BinOp::IDiv | BinOp::Mod if y == 0 => return Err(fail("integer division by zero")),
                BinOp::IDiv => Some(int_floor_div(x, y)),
                BinOp::Mod => Some(int_floor_mod(x, y)),
                _ => None,
            };
            if let Some(r) = r {
                C::write(cpu, dst, C::encode(Value::Int(r)));
                return Ok(Cost::fixed(40));
            }
        }
        let (x, cx) = self.to_number(b)?;
        let (y, cy) = self.to_number(c)?;
        let r = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::IDiv => (x / y).floor(),
            BinOp::Mod => float_floor_mod(x, y),
            _ => return Err(fail("bad arith op")),
        };
        C::write(cpu, dst, C::number(r));
        Ok(Cost::fixed(40 + 25 * (cx as u64 + cy as u64)))
    }

    /// `dst = -v` off the guest's fast path, stored by [`Codec::number`].
    ///
    /// # Errors
    ///
    /// For an operand that is not a number.
    pub fn negate(&mut self, v: Value, dst: u64, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let (n, coerced) = self.to_number(v)?;
        C::write(cpu, dst, C::number(-n));
        Ok(Cost::fixed(if coerced { 65 } else { 40 }))
    }

    /// `dst = b .. c`: strings and formatted numbers.
    ///
    /// # Errors
    ///
    /// For an operand that is neither a string nor a number.
    pub fn concat(
        &mut self,
        b: Value,
        c: Value,
        dst: u64,
        cpu: &mut Cpu,
    ) -> Result<Cost, HostError> {
        let part = |v: Value| match v {
            Value::Str(_) | Value::Int(_) | Value::Float(_) => self.format(v),
            other => Err(fail(format!("attempt to concatenate a {} value", other.type_name()))),
        };
        let s = format!("{}{}", part(b)?, part(c)?);
        let id = self.state.intern(&s);
        C::write(cpu, dst, C::encode(Value::Str(id)));
        Ok(Cost::affine(60, 2, s.len() as u64))
    }

    /// `a0 = b op c` for `== ~= < <=` off the guest's fast path: numbers
    /// compare by value, strings order bytewise.
    ///
    /// # Errors
    ///
    /// For an ordering of non-numbers that are not both strings, and for
    /// an ordering with NaN.
    pub fn compare(&self, op: BinOp, b: Value, c: Value, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let mut cost = Cost::fixed(30);
        let result = match op {
            BinOp::Eq | BinOp::Ne => {
                let eq = match (b, c) {
                    (Value::Int(x), Value::Float(y)) => x as f64 == y,
                    (Value::Float(x), Value::Int(y)) => x == y as f64,
                    (x, y) => x == y,
                };
                (op == BinOp::Eq) == eq
            }
            BinOp::Lt | BinOp::Le => {
                let ord = if let (Value::Str(x), Value::Str(y)) = (b, c) {
                    let (sx, sy) = (self.state.string(x)?, self.state.string(y)?);
                    cost = cost.plus(Cost::affine(0, 2, sx.len().min(sy.len()) as u64));
                    sx.cmp(sy)
                } else {
                    let (x, _) = self.to_number(b)?;
                    let (y, _) = self.to_number(c)?;
                    x.partial_cmp(&y).ok_or_else(|| fail("NaN compare"))?
                };
                if op == BinOp::Lt {
                    ord.is_lt()
                } else {
                    ord.is_le()
                }
            }
            _ => return Err(fail("bad compare op")),
        };
        cpu.regs_mut().write_untyped(Reg::A0, result as u64);
        Ok(cost)
    }

    /// `dst = #v` for a string (the guest measures tables inline).
    ///
    /// # Errors
    ///
    /// For anything but a string.
    pub fn len(&self, v: Value, dst: u64, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let Value::Str(id) = v else {
            return Err(fail(format!("attempt to get length of a {} value", v.type_name())));
        };
        let n = self.state.string(id)?.len() as i64;
        C::write(cpu, dst, C::encode(Value::Int(n)));
        Ok(Cost::fixed(15))
    }

    // --- tables and globals ---------------------------------------------

    /// `dst` = a new table whose array part has room for `capacity`
    /// elements.
    ///
    /// # Errors
    ///
    /// When the heap is exhausted.
    pub fn new_table(&mut self, capacity: u64, dst: u64, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let hdr = self.state.alloc(table::HEADER_SIZE + capacity * C::SLOT_BYTES)?;
        cpu.host_store_u64(hdr + table::ARR_PTR as u64, hdr + table::HEADER_SIZE);
        cpu.host_store_u64(hdr + table::ARR_CAP as u64, capacity);
        cpu.host_store_u64(hdr + table::ARR_LEN as u64, 0);
        cpu.host_store_u64(hdr + table::HASH_ID as u64, self.hash_parts.len() as u64);
        self.hash_parts.push(HashMap::new());
        C::write(cpu, dst, C::encode(Value::Table(hdr)));
        Ok(Cost::affine(60, 1, capacity))
    }

    /// `dst = t[k]` for a read the guest's inline path missed.
    ///
    /// # Errors
    ///
    /// When `t` is not a table or `k` is not a valid key.
    pub fn get(&mut self, t: Value, k: Value, dst: u64, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let (hdr, key) = Self::index(t, k)?;
        let cost = match key {
            Key::Str(id) => Cost::affine(50, 6, self.state.string(id)?.len() as u64),
            Key::Int(_) => Cost::fixed(60),
        };
        if let Key::Int(i) = key {
            let len = cpu.mem().read_u64(hdr + table::ARR_LEN as u64) as i64;
            if i >= 1 && i <= len {
                let slot = C::read(cpu, Self::element(cpu, hdr, i as u64 - 1));
                C::write(cpu, dst, slot);
                return Ok(cost);
            }
        }
        let slot = self.hash_part(cpu, hdr)?.get(&key).copied();
        C::write(cpu, dst, slot.unwrap_or(C::encode(Value::Nil)));
        Ok(cost)
    }

    /// `t[k] = value`, storing the slot as read.
    ///
    /// # Errors
    ///
    /// When `t` is not a table or `k` is not a valid key.
    pub fn set(
        &mut self,
        t: Value,
        k: Value,
        value: C::Slot,
        cpu: &mut Cpu,
    ) -> Result<Cost, HostError> {
        let (hdr, key) = Self::index(t, k)?;
        let cost = match key {
            Key::Str(id) => Cost::affine(70, 6, self.state.string(id)?.len() as u64),
            Key::Int(_) => Cost::fixed(80),
        };
        Ok(cost.plus(self.store(cpu, hdr, key, value)?))
    }

    /// `dst` = the global named by string id `name`.
    pub fn get_global(&self, name: u32, dst: u64, cpu: &mut Cpu) -> Cost {
        C::write(cpu, dst, self.globals.get(&name).copied().unwrap_or(C::encode(Value::Nil)));
        Cost::fixed(35)
    }

    /// Sets the global named by string id `name`, storing the slot as read.
    pub fn set_global(&mut self, name: u32, value: C::Slot) -> Cost {
        self.globals.insert(name, value);
        Cost::fixed(35)
    }

    fn index(t: Value, k: Value) -> Result<(u64, Key), HostError> {
        let Value::Table(hdr) = t else {
            return Err(fail(format!("attempt to index a {} value", t.type_name())));
        };
        let key = match k {
            Value::Int(i) => Key::Int(i),
            Value::Float(f) if f == f.trunc() && f.is_finite() => Key::Int(f as i64),
            Value::Str(id) => Key::Str(id),
            other => return Err(fail(format!("invalid table key ({})", other.type_name()))),
        };
        Ok((hdr, key))
    }

    /// The address of array element `i` (0-based).
    fn element(cpu: &Cpu, hdr: u64, i: u64) -> u64 {
        cpu.mem().read_u64(hdr + table::ARR_PTR as u64) + i * C::SLOT_BYTES
    }

    fn hash_part(&mut self, cpu: &Cpu, hdr: u64) -> Result<&mut HashMap<Key, C::Slot>, HostError> {
        let id = cpu.mem().read_u64(hdr + table::HASH_ID as u64) as usize;
        self.hash_parts.get_mut(id).ok_or_else(|| fail("corrupt table header"))
    }

    /// Stores into the array part when `key` is inside it or appends to
    /// it, else into the hash part; returns the growth and absorb costs.
    fn store(
        &mut self,
        cpu: &mut Cpu,
        hdr: u64,
        key: Key,
        value: C::Slot,
    ) -> Result<Cost, HostError> {
        let mut extra = Cost::default();
        if let Key::Int(i) = key {
            let len = cpu.mem().read_u64(hdr + table::ARR_LEN as u64) as i64;
            let cap = cpu.mem().read_u64(hdr + table::ARR_CAP as u64) as i64;
            if i >= 1 && i <= len {
                let addr = Self::element(cpu, hdr, i as u64 - 1);
                C::write(cpu, addr, value);
                return Ok(extra);
            }
            if i == len + 1 {
                if len == cap {
                    extra = extra.plus(self.grow(cpu, hdr)?);
                }
                let addr = Self::element(cpu, hdr, len as u64);
                C::write(cpu, addr, value);
                cpu.host_store_u64(hdr + table::ARR_LEN as u64, len as u64 + 1);
                return Ok(extra.plus(self.absorb(cpu, hdr)?));
            }
        }
        let part = self.hash_part(cpu, hdr)?;
        if C::is_nil(value) {
            part.remove(&key);
        } else {
            part.insert(key, value);
        }
        Ok(extra)
    }

    /// Doubles the array part (growth charged per element moved).
    fn grow(&mut self, cpu: &mut Cpu, hdr: u64) -> Result<Cost, HostError> {
        let cap = cpu.mem().read_u64(hdr + table::ARR_CAP as u64);
        let len = cpu.mem().read_u64(hdr + table::ARR_LEN as u64);
        let new_cap = (cap * 2).max(4);
        let new_arr = self.state.alloc(new_cap * C::SLOT_BYTES)?;
        let old_arr = Self::element(cpu, hdr, 0);
        for i in 0..len {
            let slot = C::read(cpu, old_arr + i * C::SLOT_BYTES);
            C::write(cpu, new_arr + i * C::SLOT_BYTES, slot);
        }
        cpu.host_store_u64(hdr + table::ARR_PTR as u64, new_arr);
        cpu.host_store_u64(hdr + table::ARR_CAP as u64, new_cap);
        Ok(Cost::affine(50, 3, len))
    }

    /// After an append, moves the consecutive integer keys waiting in the
    /// hash part into the array part (the reference `Table`'s `#t` border).
    fn absorb(&mut self, cpu: &mut Cpu, hdr: u64) -> Result<Cost, HostError> {
        let mut moved = 0;
        loop {
            let len = cpu.mem().read_u64(hdr + table::ARR_LEN as u64);
            let Ok(part) = self.hash_part(cpu, hdr) else { break };
            let Some(slot) = part.remove(&Key::Int(len as i64 + 1)) else { break };
            if len == cpu.mem().read_u64(hdr + table::ARR_CAP as u64) {
                self.grow(cpu, hdr)?;
            }
            let addr = Self::element(cpu, hdr, len);
            C::write(cpu, addr, slot);
            cpu.host_store_u64(hdr + table::ARR_LEN as u64, len + 1);
            moved += 1;
        }
        Ok(Cost::affine(0, 8, moved))
    }

    // --- builtins ---------------------------------------------------------

    /// Calls builtin `id` on `args`, decoded from the slots at `base`, and
    /// writes its result to `base`.
    ///
    /// # Errors
    ///
    /// For an unknown builtin and for arguments the builtin rejects.
    pub fn builtin(
        &mut self,
        id: u64,
        args: &[Value],
        base: u64,
        cpu: &mut Cpu,
    ) -> Result<Cost, HostError> {
        let builtin =
            Builtin::from_code(id as u16).ok_or_else(|| fail(format!("bad builtin id {id}")))?;
        let arg = |i: usize| args.get(i).copied().unwrap_or(Value::Nil);
        let as_int = |v: Value| match v {
            Value::Int(i) => Ok(i),
            Value::Float(f) if f == f.trunc() => Ok(f as i64),
            other => Err(fail(format!("expected an integer, got {}", other.type_name()))),
        };
        let bad = |name: &str, v: Value| fail(format!("{name} on {}", v.type_name()));
        let cost;
        let result = match builtin {
            Builtin::Print | Builtin::Write => {
                let mut line = String::new();
                for (i, a) in args.iter().enumerate() {
                    if builtin == Builtin::Print && i > 0 {
                        line.push('\t');
                    }
                    line.push_str(&self.format(*a)?);
                }
                if builtin == Builtin::Print {
                    line.push('\n');
                }
                let bytes = line.len() as u64;
                cost = Cost::affine(60, 3, bytes).plus(Cost::affine(0, 25, args.len() as u64));
                self.state.print(&line);
                Value::Nil
            }
            Builtin::Clock => {
                cost = Cost::fixed(20);
                Value::Float(0.0)
            }
            Builtin::Floor => {
                cost = Cost::fixed(15);
                match arg(0) {
                    Value::Int(i) => Value::Int(i),
                    Value::Float(f) => Value::Int(f.floor() as i64),
                    other => return Err(bad("floor", other)),
                }
            }
            Builtin::Sqrt => {
                cost = Cost::fixed(25);
                Value::Float(self.to_number(arg(0))?.0.sqrt())
            }
            Builtin::Abs => {
                cost = Cost::fixed(15);
                match arg(0) {
                    Value::Int(i) => Value::Int(i.wrapping_abs()),
                    Value::Float(f) => Value::Float(f.abs()),
                    other => return Err(bad("abs", other)),
                }
            }
            Builtin::Min | Builtin::Max => {
                cost = Cost::fixed(15);
                let (a, b) = (arg(0), arg(1));
                let (fa, _) = self.to_number(a)?;
                let (fb, _) = self.to_number(b)?;
                let take_a = if builtin == Builtin::Min { fa <= fb } else { fa >= fb };
                if take_a {
                    a
                } else {
                    b
                }
            }
            Builtin::Sub => {
                let Value::Str(id) = arg(0) else { return Err(fail("sub on a non-string")) };
                let s = self.state.string(id)?.to_string();
                let i = as_int(arg(1))?;
                let j = match arg(2) {
                    Value::Nil => -1,
                    v => as_int(v)?,
                };
                let out = string_sub(&s, i, j);
                cost = Cost::affine(40, 2, out.len() as u64);
                Value::Str(self.state.intern(&out))
            }
            Builtin::Len => {
                cost = Cost::fixed(15);
                match arg(0) {
                    Value::Str(id) => Value::Int(self.state.string(id)?.len() as i64),
                    Value::Table(hdr) => {
                        Value::Int(cpu.mem().read_u64(hdr + table::ARR_LEN as u64) as i64)
                    }
                    other => return Err(bad("len", other)),
                }
            }
            Builtin::Char => {
                cost = Cost::fixed(20);
                let v = as_int(arg(0))?;
                let b = u8::try_from(v).map_err(|_| fail(format!("char: {v} out of range")))?;
                Value::Str(self.state.intern(&(b as char).to_string()))
            }
            Builtin::Byte => {
                cost = Cost::fixed(20);
                let Value::Str(id) = arg(0) else { return Err(fail("byte on a non-string")) };
                let i = match arg(1) {
                    Value::Nil => 1,
                    v => as_int(v)?,
                };
                let s = self.state.string(id)?;
                match s.as_bytes().get((i - 1).max(0) as usize) {
                    Some(b) if i >= 1 => Value::Int(*b as i64),
                    _ => Value::Nil,
                }
            }
            Builtin::Insert => {
                let Value::Table(hdr) = arg(0) else {
                    return Err(fail("insert on a non-table"));
                };
                let len = cpu.mem().read_u64(hdr + table::ARR_LEN as u64) as i64;
                let value = C::read(cpu, base + C::SLOT_BYTES);
                cost = Cost::fixed(30).plus(self.store(cpu, hdr, Key::Int(len + 1), value)?);
                Value::Nil
            }
            Builtin::Tostring => {
                let s = self.format(arg(0))?;
                cost = Cost::affine(60, 2, s.len() as u64);
                Value::Str(self.state.intern(&s))
            }
        };
        C::write(cpu, base, C::encode(result));
        Ok(cost)
    }
}
