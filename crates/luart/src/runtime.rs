//! The `luart` native host: runtime services behind `ecall`.
//!
//! The hot interpreter paths run as generated TRV64 assembly; everything
//! Lua itself implements as C runtime calls — string interning and
//! hashing, table hash parts, array growth, allocation, `print` — executes
//! here, functionally against simulated memory, with documented costs
//! charged through [`Cost`] (identical across ISA levels; see
//! `tarch-sim::native`).
//!
//! ## Cost model (instructions, affine)
//!
//! | service | cost |
//! |---|---|
//! | slow arithmetic | 40 (+25 per string→number coercion) |
//! | concat | 60 + 2/byte of result |
//! | slow comparison | 30 (+2/byte for string ordering) |
//! | table get (hash part) | 50 + 6/byte for string keys, 60 for integers |
//! | table set (hash part) | +20 over get; array growth 50 + 3/element |
//! | table allocation | 60 + 1/element of initial capacity |
//! | global read/write | 35 |
//! | builtins | 15–60 + per-byte terms (see `builtin_cost`) |

use crate::bytecode::{Builtin, Op};
use crate::helpers;
use crate::layout::{table, tag, TAG_OFFSET, TVALUE_SIZE};
use miniscript::{float_floor_mod, format_float, int_floor_div, int_floor_mod, string_sub};
use std::collections::HashMap;
use tarch_core::Cpu;
use tarch_isa::Reg;
use tarch_sim::{Cost, GuestHost, HostError, HostState, NativeHost};

/// A raw tag-value pair as stored in simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawTv {
    /// Value double-word.
    pub v: u64,
    /// Tag byte.
    pub t: u8,
}

impl RawTv {
    const NIL: RawTv = RawTv { v: 0, t: tag::NIL };
}

/// Hash-part key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum HKey {
    Int(i64),
    Str(u32),
}

/// Decoded host view of a value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Hv {
    Nil,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(u32),
    Table(u64),
}

/// The native host for the `luart` engine.
#[derive(Debug, Clone)]
pub struct LuaHost {
    state: HostState,
    hash_parts: Vec<HashMap<HKey, RawTv>>,
    globals: HashMap<u32, RawTv>,
}

impl LuaHost {
    fn read_tv(cpu: &Cpu, addr: u64) -> RawTv {
        RawTv { v: cpu.mem().read_u64(addr), t: cpu.mem().read_u8(addr + TAG_OFFSET as u64) }
    }

    fn write_tv(cpu: &mut Cpu, addr: u64, tv: RawTv) {
        cpu.host_store_u64(addr, tv.v);
        cpu.host_store_u64(addr + TAG_OFFSET as u64, tv.t as u64);
    }

    fn decode(&self, tv: RawTv) -> Result<Hv, HostError> {
        Ok(match tv.t {
            tag::NIL => Hv::Nil,
            tag::BOOL => Hv::Bool(tv.v != 0),
            tag::INT => Hv::Int(tv.v as i64),
            tag::FLOAT => Hv::Float(f64::from_bits(tv.v)),
            tag::STR => Hv::Str(tv.v as u32),
            tag::TABLE => Hv::Table(tv.v),
            other => return Err(HostError::new(0, format!("corrupt tag {other:#x}"))),
        })
    }

    fn encode(hv: Hv) -> RawTv {
        match hv {
            Hv::Nil => RawTv::NIL,
            Hv::Bool(b) => RawTv { v: b as u64, t: tag::BOOL },
            Hv::Int(i) => RawTv { v: i as u64, t: tag::INT },
            Hv::Float(f) => RawTv { v: f.to_bits(), t: tag::FLOAT },
            Hv::Str(id) => RawTv { v: id as u64, t: tag::STR },
            Hv::Table(p) => RawTv { v: p, t: tag::TABLE },
        }
    }

    fn type_name(hv: Hv) -> &'static str {
        match hv {
            Hv::Nil => "nil",
            Hv::Bool(_) => "boolean",
            Hv::Int(_) | Hv::Float(_) => "number",
            Hv::Str(_) => "string",
            Hv::Table(_) => "table",
        }
    }

    fn format(&self, hv: Hv) -> Result<String, HostError> {
        Ok(match hv {
            Hv::Nil => "nil".to_string(),
            Hv::Bool(b) => b.to_string(),
            Hv::Int(i) => i.to_string(),
            Hv::Float(f) => format_float(f),
            Hv::Str(id) => self.state.string(id)?.to_string(),
            Hv::Table(_) => "table".to_string(),
        })
    }

    /// Numeric coercion; the bool reports whether a string was parsed.
    fn to_number(&self, hv: Hv) -> Result<(f64, bool), HostError> {
        match hv {
            Hv::Int(i) => Ok((i as f64, false)),
            Hv::Float(f) => Ok((f, false)),
            Hv::Str(id) => {
                let s = self.state.string(id)?;
                s.trim()
                    .parse::<f64>()
                    .map(|f| (f, true))
                    .map_err(|_| HostError::new(0, format!("cannot convert `{s}` to a number")))
            }
            other => Err(HostError::new(
                0,
                format!("attempt to perform arithmetic on a {} value", Self::type_name(other)),
            )),
        }
    }

    // --- table services ---------------------------------------------------

    fn table_key(&self, key: Hv) -> Result<HKey, HostError> {
        match key {
            Hv::Int(i) => Ok(HKey::Int(i)),
            Hv::Float(f) if f == f.trunc() && f.is_finite() => Ok(HKey::Int(f as i64)),
            Hv::Str(id) => Ok(HKey::Str(id)),
            other => {
                Err(HostError::new(0, format!("invalid table key ({})", Self::type_name(other))))
            }
        }
    }

    fn table_get(&self, cpu: &Cpu, hdr: u64, key: HKey) -> Result<RawTv, HostError> {
        if let HKey::Int(i) = key {
            let len = cpu.mem().read_u64(hdr + table::ARR_LEN as u64) as i64;
            if i >= 1 && i <= len {
                let arr = cpu.mem().read_u64(hdr + table::ARR_PTR as u64);
                return Ok(Self::read_tv(cpu, arr + (i as u64 - 1) * TVALUE_SIZE));
            }
        }
        let hash_id = cpu.mem().read_u64(hdr + table::HASH_ID as u64) as usize;
        let part = self
            .hash_parts
            .get(hash_id)
            .ok_or_else(|| HostError::new(0, "corrupt table header"))?;
        Ok(part.get(&key).copied().unwrap_or(RawTv::NIL))
    }

    fn table_set(
        &mut self,
        cpu: &mut Cpu,
        hdr: u64,
        key: HKey,
        value: RawTv,
    ) -> Result<Cost, HostError> {
        let mut extra = Cost::default();
        if let HKey::Int(i) = key {
            let len = cpu.mem().read_u64(hdr + table::ARR_LEN as u64) as i64;
            let cap = cpu.mem().read_u64(hdr + table::ARR_CAP as u64) as i64;
            if i >= 1 && i <= len {
                let arr = cpu.mem().read_u64(hdr + table::ARR_PTR as u64);
                Self::write_tv(cpu, arr + (i as u64 - 1) * TVALUE_SIZE, value);
                return Ok(extra);
            }
            if i == len + 1 {
                if len == cap {
                    extra = extra.plus(self.grow_array(cpu, hdr)?);
                }
                let arr = cpu.mem().read_u64(hdr + table::ARR_PTR as u64);
                Self::write_tv(cpu, arr + len as u64 * TVALUE_SIZE, value);
                cpu.host_store_u64(hdr + table::ARR_LEN as u64, len as u64 + 1);
                extra = extra.plus(self.absorb_successors(cpu, hdr)?);
                return Ok(extra);
            }
        }
        let hash_id = cpu.mem().read_u64(hdr + table::HASH_ID as u64) as usize;
        let part = self
            .hash_parts
            .get_mut(hash_id)
            .ok_or_else(|| HostError::new(0, "corrupt table header"))?;
        if value.t == tag::NIL {
            part.remove(&key);
        } else {
            part.insert(key, value);
        }
        Ok(extra)
    }

    /// Doubles the array part (growth charged per element moved).
    fn grow_array(&mut self, cpu: &mut Cpu, hdr: u64) -> Result<Cost, HostError> {
        let cap = cpu.mem().read_u64(hdr + table::ARR_CAP as u64);
        let len = cpu.mem().read_u64(hdr + table::ARR_LEN as u64);
        let new_cap = (cap * 2).max(4);
        let new_arr = self.state.alloc(new_cap * TVALUE_SIZE)?;
        let old_arr = cpu.mem().read_u64(hdr + table::ARR_PTR as u64);
        for i in 0..len {
            let tv = Self::read_tv(cpu, old_arr + i * TVALUE_SIZE);
            Self::write_tv(cpu, new_arr + i * TVALUE_SIZE, tv);
        }
        cpu.host_store_u64(hdr + table::ARR_PTR as u64, new_arr);
        cpu.host_store_u64(hdr + table::ARR_CAP as u64, new_cap);
        Ok(Cost::affine(50, 3, len))
    }

    /// After an append, absorbs consecutive integer keys queued in the hash
    /// part (keeps the `#t` border semantics of the reference `Table`).
    fn absorb_successors(&mut self, cpu: &mut Cpu, hdr: u64) -> Result<Cost, HostError> {
        let hash_id = cpu.mem().read_u64(hdr + table::HASH_ID as u64) as usize;
        let mut moved = 0;
        loop {
            let len = cpu.mem().read_u64(hdr + table::ARR_LEN as u64);
            let next = len as i64 + 1;
            let Some(part) = self.hash_parts.get_mut(hash_id) else { break };
            let Some(tv) = part.remove(&HKey::Int(next)) else { break };
            let cap = cpu.mem().read_u64(hdr + table::ARR_CAP as u64);
            if len == cap {
                self.grow_array(cpu, hdr)?;
            }
            let arr = cpu.mem().read_u64(hdr + table::ARR_PTR as u64);
            Self::write_tv(cpu, arr + len * TVALUE_SIZE, tv);
            cpu.host_store_u64(hdr + table::ARR_LEN as u64, len + 1);
            moved += 1;
        }
        Ok(Cost::affine(0, 8, moved))
    }

    fn new_table(&mut self, cpu: &mut Cpu, capacity: u64) -> Result<u64, HostError> {
        let hdr = self.state.alloc(table::HEADER_SIZE + capacity * TVALUE_SIZE)?;
        let arr = hdr + table::HEADER_SIZE;
        cpu.host_store_u64(hdr + table::ARR_PTR as u64, arr);
        cpu.host_store_u64(hdr + table::ARR_CAP as u64, capacity);
        cpu.host_store_u64(hdr + table::ARR_LEN as u64, 0);
        cpu.host_store_u64(hdr + table::HASH_ID as u64, self.hash_parts.len() as u64);
        self.hash_parts.push(HashMap::new());
        Ok(hdr)
    }

    // --- helper services ----------------------------------------------------

    fn arith_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let op_code = cpu.regs().read(Reg::A0).v;
        let ra = cpu.regs().read(Reg::A1).v;
        let rb = cpu.regs().read(Reg::A2).v;
        let rc = cpu.regs().read(Reg::A3).v;
        let op = Op::from_code(op_code as u8)
            .ok_or_else(|| HostError::new(helpers::ARITH_SLOW, "bad op code"))?;
        let b = self.decode(Self::read_tv(cpu, rb))?;
        let c = self.decode(Self::read_tv(cpu, rc))?;

        if op == Op::Concat {
            let part = |host: &LuaHost, v: Hv| -> Result<String, HostError> {
                match v {
                    Hv::Str(_) | Hv::Int(_) | Hv::Float(_) => host.format(v),
                    other => Err(HostError::new(
                        helpers::ARITH_SLOW,
                        format!("attempt to concatenate a {} value", Self::type_name(other)),
                    )),
                }
            };
            let s = format!("{}{}", part(self, b)?, part(self, c)?);
            let bytes = s.len() as u64;
            let id = self.state.intern(&s);
            Self::write_tv(cpu, ra, Self::encode(Hv::Str(id)));
            return Ok(Cost::affine(60, 2, bytes));
        }

        if op == Op::Unm {
            let (n, coerced) = self.to_number(b)?;
            Self::write_tv(cpu, ra, Self::encode(Hv::Float(-n)));
            return Ok(Cost::affine(if coerced { 65 } else { 40 }, 0, 0));
        }

        // Integer pairs reaching the helper (IDiv/Mod by zero trip the
        // handler's error stub before the ecall, so here it is mixed/string
        // arithmetic → float semantics, like Lua's `luaV_tonumber` path).
        if let (Hv::Int(x), Hv::Int(y)) = (b, c) {
            let r = match op {
                Op::Add => Hv::Int(x.wrapping_add(y)),
                Op::Sub => Hv::Int(x.wrapping_sub(y)),
                Op::Mul => Hv::Int(x.wrapping_mul(y)),
                Op::Div => Hv::Float(x as f64 / y as f64),
                Op::IDiv if y != 0 => Hv::Int(int_floor_div(x, y)),
                Op::Mod if y != 0 => Hv::Int(int_floor_mod(x, y)),
                Op::IDiv | Op::Mod => {
                    return Err(HostError::new(helpers::ARITH_SLOW, "integer division by zero"))
                }
                _ => return Err(HostError::new(helpers::ARITH_SLOW, "bad arith op")),
            };
            Self::write_tv(cpu, ra, Self::encode(r));
            return Ok(Cost::fixed(40));
        }

        let (x, cx) = self.to_number(b)?;
        let (y, cy) = self.to_number(c)?;
        let r = match op {
            Op::Add => x + y,
            Op::Sub => x - y,
            Op::Mul => x * y,
            Op::Div => x / y,
            Op::IDiv => (x / y).floor(),
            Op::Mod => float_floor_mod(x, y),
            _ => return Err(HostError::new(helpers::ARITH_SLOW, "bad arith op")),
        };
        Self::write_tv(cpu, ra, Self::encode(Hv::Float(r)));
        Ok(Cost::fixed(40 + 25 * (cx as u64 + cy as u64)))
    }

    fn compare_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let op_code = cpu.regs().read(Reg::A0).v;
        let rb = cpu.regs().read(Reg::A1).v;
        let rc = cpu.regs().read(Reg::A2).v;
        let op = Op::from_code(op_code as u8)
            .ok_or_else(|| HostError::new(helpers::COMPARE_SLOW, "bad op code"))?;
        let b = self.decode(Self::read_tv(cpu, rb))?;
        let c = self.decode(Self::read_tv(cpu, rc))?;
        let mut cost = Cost::fixed(30);
        let result = match op {
            Op::CmpEq | Op::CmpNe => {
                let eq = match (b, c) {
                    (Hv::Int(x), Hv::Float(y)) => x as f64 == y,
                    (Hv::Float(x), Hv::Int(y)) => x == y as f64,
                    (Hv::Float(x), Hv::Float(y)) => x == y,
                    (x, y) => x == y,
                };
                if op == Op::CmpEq {
                    eq
                } else {
                    !eq
                }
            }
            Op::CmpLt | Op::CmpLe => {
                let ord = match (b, c) {
                    (Hv::Str(x), Hv::Str(y)) => {
                        let (sx, sy) = (self.state.string(x)?, self.state.string(y)?);
                        cost = cost.plus(Cost::affine(0, 2, sx.len().min(sy.len()) as u64));
                        sx.cmp(sy)
                    }
                    _ => {
                        let (x, _) = self.to_number(b)?;
                        let (y, _) = self.to_number(c)?;
                        x.partial_cmp(&y)
                            .ok_or_else(|| HostError::new(helpers::COMPARE_SLOW, "NaN compare"))?
                    }
                };
                if op == Op::CmpLt {
                    ord.is_lt()
                } else {
                    ord.is_le()
                }
            }
            _ => return Err(HostError::new(helpers::COMPARE_SLOW, "bad compare op")),
        };
        cpu.regs_mut().write_untyped(Reg::A0, result as u64);
        Ok(cost)
    }

    fn gettable_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let ra = cpu.regs().read(Reg::A1).v;
        let rb = cpu.regs().read(Reg::A2).v;
        let rc = cpu.regs().read(Reg::A3).v;
        let t = self.decode(Self::read_tv(cpu, rb))?;
        let k = self.decode(Self::read_tv(cpu, rc))?;
        let Hv::Table(hdr) = t else {
            return Err(HostError::new(
                helpers::GETTABLE_SLOW,
                format!("attempt to index a {} value", Self::type_name(t)),
            ));
        };
        let key = self.table_key(k)?;
        let cost = match &key {
            HKey::Str(id) => Cost::affine(50, 6, self.state.string(*id)?.len() as u64),
            HKey::Int(_) => Cost::fixed(60),
        };
        let tv = self.table_get(cpu, hdr, key)?;
        Self::write_tv(cpu, ra, tv);
        Ok(cost)
    }

    fn settable_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let ra = cpu.regs().read(Reg::A1).v;
        let rb = cpu.regs().read(Reg::A2).v;
        let rc = cpu.regs().read(Reg::A3).v;
        let t = self.decode(Self::read_tv(cpu, ra))?;
        let k = self.decode(Self::read_tv(cpu, rb))?;
        let Hv::Table(hdr) = t else {
            return Err(HostError::new(
                helpers::SETTABLE_SLOW,
                format!("attempt to index a {} value", Self::type_name(t)),
            ));
        };
        let key = self.table_key(k)?;
        let cost = match &key {
            HKey::Str(id) => Cost::affine(70, 6, self.state.string(*id)?.len() as u64),
            HKey::Int(_) => Cost::fixed(80),
        };
        let value = Self::read_tv(cpu, rc);
        let extra = self.table_set(cpu, hdr, key, value)?;
        Ok(cost.plus(extra))
    }

    fn builtin(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let base = cpu.regs().read(Reg::A1).v;
        let id = cpu.regs().read(Reg::A2).v;
        let nargs = cpu.regs().read(Reg::A3).v;
        let builtin = Builtin::from_code(id as u16)
            .ok_or_else(|| HostError::new(helpers::BUILTIN, format!("bad builtin id {id}")))?;
        let err = |m: String| HostError::new(helpers::BUILTIN, m);
        let mut args = Vec::with_capacity(nargs as usize);
        for i in 0..nargs {
            args.push(self.decode(Self::read_tv(cpu, base + i * TVALUE_SIZE))?);
        }
        let arg = |i: usize| args.get(i).copied().unwrap_or(Hv::Nil);
        let as_int = |hv: Hv| -> Result<i64, HostError> {
            match hv {
                Hv::Int(i) => Ok(i),
                Hv::Float(f) if f == f.trunc() => Ok(f as i64),
                other => Err(err(format!("expected an integer, got {}", Self::type_name(other)))),
            }
        };

        let mut cost;
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
                cost = Cost::affine(60, 3, line.len() as u64)
                    .plus(Cost::affine(0, 25, args.len() as u64));
                self.state.print(&line);
                Hv::Nil
            }
            Builtin::Clock => {
                cost = Cost::fixed(20);
                Hv::Float(0.0)
            }
            Builtin::Floor => {
                cost = Cost::fixed(15);
                match arg(0) {
                    Hv::Int(i) => Hv::Int(i),
                    Hv::Float(f) => Hv::Int(f.floor() as i64),
                    other => return Err(err(format!("floor on {}", Self::type_name(other)))),
                }
            }
            Builtin::Sqrt => {
                cost = Cost::fixed(25);
                Hv::Float(self.to_number(arg(0))?.0.sqrt())
            }
            Builtin::Abs => {
                cost = Cost::fixed(15);
                match arg(0) {
                    Hv::Int(i) => Hv::Int(i.wrapping_abs()),
                    Hv::Float(f) => Hv::Float(f.abs()),
                    other => return Err(err(format!("abs on {}", Self::type_name(other)))),
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
                let Hv::Str(id) = arg(0) else {
                    return Err(err("sub on a non-string".into()));
                };
                let s = self.state.string(id)?.to_string();
                let i = as_int(arg(1))?;
                let j = match arg(2) {
                    Hv::Nil => -1,
                    v => as_int(v)?,
                };
                let out = string_sub(&s, i, j);
                cost = Cost::affine(40, 2, out.len() as u64);
                Hv::Str(self.state.intern(&out))
            }
            Builtin::Len => {
                cost = Cost::fixed(15);
                match arg(0) {
                    Hv::Str(id) => Hv::Int(self.state.string(id)?.len() as i64),
                    Hv::Table(hdr) => {
                        Hv::Int(cpu.mem().read_u64(hdr + table::ARR_LEN as u64) as i64)
                    }
                    other => return Err(err(format!("len on {}", Self::type_name(other)))),
                }
            }
            Builtin::Char => {
                cost = Cost::fixed(20);
                let v = as_int(arg(0))?;
                let b = u8::try_from(v).map_err(|_| err(format!("char: {v} out of range")))?;
                Hv::Str(self.state.intern(&(b as char).to_string()))
            }
            Builtin::Byte => {
                cost = Cost::fixed(20);
                let Hv::Str(id) = arg(0) else {
                    return Err(err("byte on a non-string".into()));
                };
                let i = match arg(1) {
                    Hv::Nil => 1,
                    v => as_int(v)?,
                };
                let s = self.state.string(id)?;
                match s.as_bytes().get((i - 1).max(0) as usize) {
                    Some(b) if i >= 1 => Hv::Int(*b as i64),
                    _ => Hv::Nil,
                }
            }
            Builtin::Insert => {
                cost = Cost::fixed(30);
                let Hv::Table(hdr) = arg(0) else {
                    return Err(err("insert on a non-table".into()));
                };
                let len = cpu.mem().read_u64(hdr + table::ARR_LEN as u64) as i64;
                let value = Self::read_tv(cpu, base + TVALUE_SIZE);
                let extra = self.table_set(cpu, hdr, HKey::Int(len + 1), value)?;
                cost = cost.plus(extra);
                Hv::Nil
            }
            Builtin::Tostring => {
                let s = self.format(arg(0))?;
                cost = Cost::affine(60, 2, s.len() as u64);
                Hv::Str(self.state.intern(&s))
            }
        };
        Self::write_tv(cpu, base, Self::encode(result));
        Ok(cost)
    }

    fn forprep_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let block = cpu.regs().read(Reg::A1).v;
        let idx = self.decode(Self::read_tv(cpu, block))?;
        let limit = self.decode(Self::read_tv(cpu, block + TVALUE_SIZE))?;
        let step = self.decode(Self::read_tv(cpu, block + 2 * TVALUE_SIZE))?;
        let (i, _) = self.to_number(idx)?;
        let (l, _) = self.to_number(limit)?;
        let (s, _) = self.to_number(step)?;
        if s == 0.0 {
            return Err(HostError::new(helpers::FORPREP_SLOW, "'for' step is zero"));
        }
        Self::write_tv(cpu, block, Self::encode(Hv::Float(i - s)));
        Self::write_tv(cpu, block + TVALUE_SIZE, Self::encode(Hv::Float(l)));
        Self::write_tv(cpu, block + 2 * TVALUE_SIZE, Self::encode(Hv::Float(s)));
        Ok(Cost::fixed(40))
    }

    fn len_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let ra = cpu.regs().read(Reg::A1).v;
        let rb = cpu.regs().read(Reg::A2).v;
        let v = self.decode(Self::read_tv(cpu, rb))?;
        match v {
            Hv::Str(id) => {
                let len = self.state.string(id)?.len() as i64;
                Self::write_tv(cpu, ra, Self::encode(Hv::Int(len)));
                Ok(Cost::fixed(15))
            }
            other => Err(HostError::new(
                helpers::LEN_SLOW,
                format!("attempt to get length of a {} value", Self::type_name(other)),
            )),
        }
    }
}

impl GuestHost for LuaHost {
    fn new(state: HostState) -> LuaHost {
        LuaHost {
            state,
            hash_parts: Vec::new(),
            globals: HashMap::new(),
        }
    }

    fn state(&self) -> &HostState {
        &self.state
    }
}

impl NativeHost for LuaHost {
    fn ecall(&mut self, cpu: &mut Cpu) -> Result<(), HostError> {
        let id = cpu.regs().read(Reg::A7).v;
        let cost = match id {
            helpers::ARITH_SLOW => self.arith_slow(cpu)?,
            helpers::COMPARE_SLOW => self.compare_slow(cpu)?,
            helpers::GETTABLE_SLOW => self.gettable_slow(cpu)?,
            helpers::SETTABLE_SLOW => self.settable_slow(cpu)?,
            helpers::NEWTABLE => {
                let ra = cpu.regs().read(Reg::A1).v;
                let hint = cpu.regs().read(Reg::A2).v;
                let hdr = self.new_table(cpu, hint)?;
                Self::write_tv(cpu, ra, Self::encode(Hv::Table(hdr)));
                Cost::affine(60, 1, hint)
            }
            helpers::GETGLOBAL => {
                let ra = cpu.regs().read(Reg::A1).v;
                let name_addr = cpu.regs().read(Reg::A2).v;
                let name = Self::read_tv(cpu, name_addr);
                let tv = self.globals.get(&(name.v as u32)).copied().unwrap_or(RawTv::NIL);
                Self::write_tv(cpu, ra, tv);
                Cost::fixed(35)
            }
            helpers::SETGLOBAL => {
                let va = cpu.regs().read(Reg::A1).v;
                let name_addr = cpu.regs().read(Reg::A2).v;
                let name = Self::read_tv(cpu, name_addr);
                let value = Self::read_tv(cpu, va);
                self.globals.insert(name.v as u32, value);
                Cost::fixed(35)
            }
            helpers::BUILTIN => self.builtin(cpu)?,
            helpers::FORPREP_SLOW => self.forprep_slow(cpu)?,
            helpers::LEN_SLOW => self.len_slow(cpu)?,
            helpers::ERROR => {
                let code = cpu.regs().read(Reg::A0).v;
                let msg = match code {
                    helpers::errcode::STACK_OVERFLOW => "stack overflow",
                    helpers::errcode::DIV_BY_ZERO => "integer division by zero",
                    _ => "runtime error",
                };
                return Err(HostError::new(helpers::ERROR, msg));
            }
            other => return Err(HostError::new(other, "unknown helper id")),
        };
        cost.charge(cpu);
        Ok(())
    }
}
