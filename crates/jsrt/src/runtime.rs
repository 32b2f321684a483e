//! The `jsrt` native host: runtime services behind `ecall`.
//!
//! Same contract and cost philosophy as `luart`'s host (costs identical
//! across ISA levels; see that module's table), over 8-byte NaN-boxed
//! values. Number semantics follow the engine: integers live in the int32
//! fast range and overflow to doubles — printed output still matches the
//! i64-based reference because every benchmark value stays inside the
//! exact-double range.

use crate::bytecode::{Builtin, Op};
use crate::helpers_mod as helpers;
use crate::layout::{self, object, tag};
use miniscript::{float_floor_mod, format_float, int_floor_div, int_floor_mod, string_sub};
use std::collections::HashMap;
use tarch_core::{canonical_f64_bits, Cpu};
use tarch_isa::Reg;
use tarch_sim::{Cost, GuestHost, HostError, HostState, NativeHost};

/// Hash-part key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum HKey {
    Int(i64),
    Str(u32),
}

/// Decoded host view of a NaN-boxed value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Hv {
    Undef,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(u32),
    Object(u64),
}

/// The native host for the `jsrt` engine.
#[derive(Debug, Clone)]
pub struct JsHost {
    state: HostState,
    hash_parts: Vec<HashMap<HKey, u64>>,
    globals: HashMap<u32, u64>,
}

impl JsHost {
    fn decode(value: u64) -> Hv {
        if !layout::is_boxed(value) {
            return Hv::Double(f64::from_bits(value));
        }
        let payload = layout::payload_of(value);
        match layout::tag_of(value) {
            tag::INT => Hv::Int(payload),
            tag::UNDEF => Hv::Undef,
            tag::BOOL => Hv::Bool(payload != 0),
            tag::STR => Hv::Str(payload as u32),
            tag::OBJECT => Hv::Object(payload as u64),
            other => Hv::Object(((other as u64) << 47) | payload as u64), // unreachable in practice
        }
    }

    /// Encodes a number with the engine's int32-or-double rule.
    fn encode_number(v: f64) -> u64 {
        if v == v.trunc() && (i32::MIN as f64..=i32::MAX as f64).contains(&v) && v.is_finite() {
            layout::box_int(v as i32)
        } else {
            canonical_f64_bits(v)
        }
    }

    fn encode_int(v: i64) -> u64 {
        match i32::try_from(v) {
            Ok(v32) => layout::box_int(v32),
            Err(_) => canonical_f64_bits(v as f64),
        }
    }

    fn encode(hv: Hv) -> u64 {
        match hv {
            Hv::Undef => layout::UNDEFINED,
            Hv::Bool(b) => layout::boxed(tag::BOOL, b as u64),
            Hv::Int(i) => Self::encode_int(i),
            Hv::Double(f) => canonical_f64_bits(f),
            Hv::Str(id) => layout::boxed(tag::STR, id as u64),
            Hv::Object(p) => layout::boxed(tag::OBJECT, p),
        }
    }

    fn type_name(hv: Hv) -> &'static str {
        match hv {
            Hv::Undef => "nil",
            Hv::Bool(_) => "boolean",
            Hv::Int(_) | Hv::Double(_) => "number",
            Hv::Str(_) => "string",
            Hv::Object(_) => "table",
        }
    }

    fn format(&self, hv: Hv) -> Result<String, HostError> {
        Ok(match hv {
            Hv::Undef => "nil".to_string(),
            Hv::Bool(b) => b.to_string(),
            Hv::Int(i) => i.to_string(),
            Hv::Double(f) => format_float(f),
            Hv::Str(id) => self.state.string(id)?.to_string(),
            Hv::Object(_) => "table".to_string(),
        })
    }

    fn to_number(&self, hv: Hv) -> Result<(f64, bool), HostError> {
        match hv {
            Hv::Int(i) => Ok((i as f64, false)),
            Hv::Double(f) => Ok((f, false)),
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

    fn read(cpu: &Cpu, addr: u64) -> u64 {
        cpu.mem().read_u64(addr)
    }

    fn write(cpu: &mut Cpu, addr: u64, v: u64) {
        cpu.host_store_u64(addr, v);
    }

    // --- object services -----------------------------------------------

    fn elem_key(&self, key: Hv) -> Result<HKey, HostError> {
        match key {
            Hv::Int(i) => Ok(HKey::Int(i)),
            Hv::Double(f) if f == f.trunc() && f.is_finite() => Ok(HKey::Int(f as i64)),
            Hv::Str(id) => Ok(HKey::Str(id)),
            other => {
                Err(HostError::new(0, format!("invalid table key ({})", Self::type_name(other))))
            }
        }
    }

    fn elem_get(&self, cpu: &Cpu, hdr: u64, key: HKey) -> Result<u64, HostError> {
        if let HKey::Int(i) = key {
            let len = cpu.mem().read_u64(hdr + object::LEN as u64) as i64;
            if i >= 1 && i <= len {
                let elems = cpu.mem().read_u64(hdr + object::ELEMS_PTR as u64);
                return Ok(Self::read(cpu, elems + (i as u64 - 1) * 8));
            }
        }
        let hash_id = cpu.mem().read_u64(hdr + object::HASH_ID as u64) as usize;
        let part = self
            .hash_parts
            .get(hash_id)
            .ok_or_else(|| HostError::new(0, "corrupt object header"))?;
        Ok(part.get(&key).copied().unwrap_or(layout::UNDEFINED))
    }

    fn elem_set(
        &mut self,
        cpu: &mut Cpu,
        hdr: u64,
        key: HKey,
        value: u64,
    ) -> Result<Cost, HostError> {
        let mut extra = Cost::default();
        if let HKey::Int(i) = key {
            let len = cpu.mem().read_u64(hdr + object::LEN as u64) as i64;
            let cap = cpu.mem().read_u64(hdr + object::CAP as u64) as i64;
            if i >= 1 && i <= len {
                let elems = cpu.mem().read_u64(hdr + object::ELEMS_PTR as u64);
                Self::write(cpu, elems + (i as u64 - 1) * 8, value);
                return Ok(extra);
            }
            if i == len + 1 {
                if len == cap {
                    extra = extra.plus(self.grow(cpu, hdr)?);
                }
                let elems = cpu.mem().read_u64(hdr + object::ELEMS_PTR as u64);
                Self::write(cpu, elems + len as u64 * 8, value);
                cpu.host_store_u64(hdr + object::LEN as u64, len as u64 + 1);
                extra = extra.plus(self.absorb(cpu, hdr)?);
                return Ok(extra);
            }
        }
        let hash_id = cpu.mem().read_u64(hdr + object::HASH_ID as u64) as usize;
        let part = self
            .hash_parts
            .get_mut(hash_id)
            .ok_or_else(|| HostError::new(0, "corrupt object header"))?;
        if value == layout::UNDEFINED {
            part.remove(&key);
        } else {
            part.insert(key, value);
        }
        Ok(extra)
    }

    fn grow(&mut self, cpu: &mut Cpu, hdr: u64) -> Result<Cost, HostError> {
        let cap = cpu.mem().read_u64(hdr + object::CAP as u64);
        let len = cpu.mem().read_u64(hdr + object::LEN as u64);
        let new_cap = (cap * 2).max(4);
        let new_elems = self.state.alloc(new_cap * 8)?;
        let old = cpu.mem().read_u64(hdr + object::ELEMS_PTR as u64);
        for i in 0..len {
            let v = Self::read(cpu, old + i * 8);
            Self::write(cpu, new_elems + i * 8, v);
        }
        cpu.host_store_u64(hdr + object::ELEMS_PTR as u64, new_elems);
        cpu.host_store_u64(hdr + object::CAP as u64, new_cap);
        Ok(Cost::affine(50, 3, len))
    }

    fn absorb(&mut self, cpu: &mut Cpu, hdr: u64) -> Result<Cost, HostError> {
        let hash_id = cpu.mem().read_u64(hdr + object::HASH_ID as u64) as usize;
        let mut moved = 0;
        loop {
            let len = cpu.mem().read_u64(hdr + object::LEN as u64);
            let Some(part) = self.hash_parts.get_mut(hash_id) else { break };
            let Some(v) = part.remove(&HKey::Int(len as i64 + 1)) else { break };
            let cap = cpu.mem().read_u64(hdr + object::CAP as u64);
            if len == cap {
                self.grow(cpu, hdr)?;
            }
            let elems = cpu.mem().read_u64(hdr + object::ELEMS_PTR as u64);
            Self::write(cpu, elems + len * 8, v);
            cpu.host_store_u64(hdr + object::LEN as u64, len + 1);
            moved += 1;
        }
        Ok(Cost::affine(0, 8, moved))
    }

    fn new_array(&mut self, cpu: &mut Cpu, capacity: u64) -> Result<u64, HostError> {
        let hdr = self.state.alloc(object::HEADER_SIZE + capacity * 8)?;
        let elems = hdr + object::HEADER_SIZE;
        cpu.host_store_u64(hdr + object::ELEMS_PTR as u64, elems);
        cpu.host_store_u64(hdr + object::CAP as u64, capacity);
        cpu.host_store_u64(hdr + object::LEN as u64, 0);
        cpu.host_store_u64(hdr + object::HASH_ID as u64, self.hash_parts.len() as u64);
        self.hash_parts.push(HashMap::new());
        Ok(hdr)
    }

    // --- services -------------------------------------------------------

    fn arith_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let op_code = cpu.regs().read(Reg::A0).v;
        let dst = cpu.regs().read(Reg::A1).v;
        let lhs = Self::decode(Self::read(cpu, cpu.regs().read(Reg::A2).v));
        let rhs = Self::decode(Self::read(cpu, cpu.regs().read(Reg::A3).v));
        let op = Op::from_code(op_code as u8)
            .ok_or_else(|| HostError::new(helpers::ARITH_SLOW, "bad op code"))?;

        if op == Op::Concat {
            let part = |host: &JsHost, v: Hv| -> Result<String, HostError> {
                match v {
                    Hv::Str(_) | Hv::Int(_) | Hv::Double(_) => host.format(v),
                    other => Err(HostError::new(
                        helpers::ARITH_SLOW,
                        format!("attempt to concatenate a {} value", Self::type_name(other)),
                    )),
                }
            };
            let s = format!("{}{}", part(self, lhs)?, part(self, rhs)?);
            let bytes = s.len() as u64;
            let id = self.state.intern(&s);
            Self::write(cpu, dst, Self::encode(Hv::Str(id)));
            return Ok(Cost::affine(60, 2, bytes));
        }

        // Integer pairs with exact semantics (floor div/mod; // and % by
        // zero are errors, matching the reference).
        if let (Hv::Int(x), Hv::Int(y)) = (lhs, rhs) {
            let r = match op {
                Op::Add => Some(x.wrapping_add(y)),
                Op::Sub => Some(x.wrapping_sub(y)),
                Op::Mul => Some(x.wrapping_mul(y)),
                Op::IDiv if y != 0 => Some(int_floor_div(x, y)),
                Op::Mod if y != 0 => Some(int_floor_mod(x, y)),
                Op::IDiv | Op::Mod => {
                    return Err(HostError::new(helpers::ARITH_SLOW, "integer division by zero"))
                }
                _ => None,
            };
            if let Some(r) = r {
                Self::write(cpu, dst, Self::encode_int(r));
                return Ok(Cost::fixed(40));
            }
        }
        // `//` and `%` on integral doubles keep the zero-divisor error so
        // outputs match the i64-based reference.
        if matches!(op, Op::IDiv | Op::Mod) {
            let (x, _) = self.to_number(lhs)?;
            let (y, _) = self.to_number(rhs)?;
            if y == 0.0 && x == x.trunc() && y == y.trunc() {
                return Err(HostError::new(helpers::ARITH_SLOW, "integer division by zero"));
            }
        }

        let (x, cx) = self.to_number(lhs)?;
        let (y, cy) = self.to_number(rhs)?;
        let r = match op {
            Op::Add => x + y,
            Op::Sub => x - y,
            Op::Mul => x * y,
            Op::Div => x / y,
            Op::IDiv => (x / y).floor(),
            Op::Mod => float_floor_mod(x, y),
            _ => return Err(HostError::new(helpers::ARITH_SLOW, "bad arith op")),
        };
        Self::write(cpu, dst, Self::encode_number(r));
        Ok(Cost::fixed(40 + 25 * (cx as u64 + cy as u64)))
    }

    fn compare_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let op_code = cpu.regs().read(Reg::A0).v;
        let lhs = Self::decode(Self::read(cpu, cpu.regs().read(Reg::A1).v));
        let rhs = Self::decode(Self::read(cpu, cpu.regs().read(Reg::A2).v));
        let op = Op::from_code(op_code as u8)
            .ok_or_else(|| HostError::new(helpers::COMPARE_SLOW, "bad op code"))?;
        let mut cost = Cost::fixed(30);
        let result = match op {
            Op::Eq | Op::Ne => {
                let eq = match (lhs, rhs) {
                    (Hv::Int(x), Hv::Double(y)) => x as f64 == y,
                    (Hv::Double(x), Hv::Int(y)) => x == y as f64,
                    (Hv::Double(x), Hv::Double(y)) => x == y,
                    (x, y) => x == y,
                };
                (op == Op::Eq) == eq
            }
            Op::Lt | Op::Le => {
                let ord = match (lhs, rhs) {
                    (Hv::Str(x), Hv::Str(y)) => {
                        let (sx, sy) = (self.state.string(x)?, self.state.string(y)?);
                        cost = cost.plus(Cost::affine(0, 2, sx.len().min(sy.len()) as u64));
                        sx.cmp(sy)
                    }
                    _ => {
                        let (x, _) = self.to_number(lhs)?;
                        let (y, _) = self.to_number(rhs)?;
                        x.partial_cmp(&y)
                            .ok_or_else(|| HostError::new(helpers::COMPARE_SLOW, "NaN compare"))?
                    }
                };
                if op == Op::Lt {
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

    fn getelem_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let dst = cpu.regs().read(Reg::A1).v;
        let obj = Self::decode(Self::read(cpu, cpu.regs().read(Reg::A2).v));
        let key = Self::decode(Self::read(cpu, cpu.regs().read(Reg::A3).v));
        let Hv::Object(hdr) = obj else {
            return Err(HostError::new(
                helpers::GETELEM_SLOW,
                format!("attempt to index a {} value", Self::type_name(obj)),
            ));
        };
        let key = self.elem_key(key)?;
        let cost = match &key {
            HKey::Str(id) => Cost::affine(50, 6, self.state.string(*id)?.len() as u64),
            HKey::Int(_) => Cost::fixed(60),
        };
        let v = self.elem_get(cpu, hdr, key)?;
        Self::write(cpu, dst, v);
        Ok(cost)
    }

    fn setelem_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let obj = Self::decode(Self::read(cpu, cpu.regs().read(Reg::A1).v));
        let key = Self::decode(Self::read(cpu, cpu.regs().read(Reg::A2).v));
        let value = Self::read(cpu, cpu.regs().read(Reg::A3).v);
        let Hv::Object(hdr) = obj else {
            return Err(HostError::new(
                helpers::SETELEM_SLOW,
                format!("attempt to index a {} value", Self::type_name(obj)),
            ));
        };
        let key = self.elem_key(key)?;
        let cost = match &key {
            HKey::Str(id) => Cost::affine(70, 6, self.state.string(*id)?.len() as u64),
            HKey::Int(_) => Cost::fixed(80),
        };
        let extra = self.elem_set(cpu, hdr, key, value)?;
        Ok(cost.plus(extra))
    }

    fn builtin(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let base = cpu.regs().read(Reg::A1).v;
        let id = cpu.regs().read(Reg::A2).v;
        let nargs = cpu.regs().read(Reg::A3).v;
        let builtin = Builtin::from_code(id as u16)
            .ok_or_else(|| HostError::new(helpers::BUILTIN, format!("bad builtin id {id}")))?;
        let err = |m: String| HostError::new(helpers::BUILTIN, m);
        let args: Vec<Hv> =
            (0..nargs).map(|i| Self::decode(Self::read(cpu, base + i * 8))).collect();
        let arg = |i: usize| args.get(i).copied().unwrap_or(Hv::Undef);
        let as_int = |hv: Hv| -> Result<i64, HostError> {
            match hv {
                Hv::Int(i) => Ok(i),
                Hv::Double(f) if f == f.trunc() => Ok(f as i64),
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
                Hv::Undef
            }
            Builtin::Clock => {
                cost = Cost::fixed(20);
                Hv::Double(0.0)
            }
            Builtin::Floor => {
                cost = Cost::fixed(15);
                match arg(0) {
                    Hv::Int(i) => Hv::Int(i),
                    Hv::Double(f) => Hv::Int(f.floor() as i64),
                    other => return Err(err(format!("floor on {}", Self::type_name(other)))),
                }
            }
            Builtin::Sqrt => {
                cost = Cost::fixed(25);
                Hv::Double(self.to_number(arg(0))?.0.sqrt())
            }
            Builtin::Abs => {
                cost = Cost::fixed(15);
                match arg(0) {
                    Hv::Int(i) => Hv::Int(i.wrapping_abs()),
                    Hv::Double(f) => Hv::Double(f.abs()),
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
                let Hv::Str(id) = arg(0) else { return Err(err("sub on a non-string".into())) };
                let s = self.state.string(id)?.to_string();
                let i = as_int(arg(1))?;
                let j = match arg(2) {
                    Hv::Undef => -1,
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
                    Hv::Object(hdr) => {
                        Hv::Int(cpu.mem().read_u64(hdr + object::LEN as u64) as i64)
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
                let Hv::Str(id) = arg(0) else { return Err(err("byte on a non-string".into())) };
                let i = match arg(1) {
                    Hv::Undef => 1,
                    v => as_int(v)?,
                };
                let s = self.state.string(id)?;
                match s.as_bytes().get((i - 1).max(0) as usize) {
                    Some(b) if i >= 1 => Hv::Int(*b as i64),
                    _ => Hv::Undef,
                }
            }
            Builtin::Insert => {
                cost = Cost::fixed(30);
                let Hv::Object(hdr) = arg(0) else {
                    return Err(err("insert on a non-table".into()));
                };
                let len = cpu.mem().read_u64(hdr + object::LEN as u64) as i64;
                let value = Self::read(cpu, base + 8);
                let extra = self.elem_set(cpu, hdr, HKey::Int(len + 1), value)?;
                cost = cost.plus(extra);
                Hv::Undef
            }
            Builtin::Tostring => {
                let s = self.format(arg(0))?;
                cost = Cost::affine(60, 2, s.len() as u64);
                Hv::Str(self.state.intern(&s))
            }
        };
        Self::write(cpu, base, Self::encode(result));
        Ok(cost)
    }

    fn len_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let dst = cpu.regs().read(Reg::A1).v;
        let v = Self::decode(Self::read(cpu, cpu.regs().read(Reg::A2).v));
        match v {
            Hv::Str(id) => {
                let len = self.state.string(id)?.len() as i64;
                Self::write(cpu, dst, Self::encode(Hv::Int(len)));
                Ok(Cost::fixed(15))
            }
            other => Err(HostError::new(
                helpers::LEN_SLOW,
                format!("attempt to get length of a {} value", Self::type_name(other)),
            )),
        }
    }

    fn neg_slow(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let dst = cpu.regs().read(Reg::A1).v;
        let v = Self::decode(Self::read(cpu, cpu.regs().read(Reg::A2).v));
        let (n, coerced) = self.to_number(v)?;
        Self::write(cpu, dst, Self::encode_number(-n));
        Ok(Cost::fixed(if coerced { 65 } else { 40 }))
    }
}

impl GuestHost for JsHost {
    fn new(state: HostState) -> JsHost {
        JsHost {
            state,
            hash_parts: Vec::new(),
            globals: HashMap::new(),
        }
    }

    fn state(&self) -> &HostState {
        &self.state
    }
}

impl NativeHost for JsHost {
    fn ecall(&mut self, cpu: &mut Cpu) -> Result<(), HostError> {
        let id = cpu.regs().read(Reg::A7).v;
        let cost = match id {
            helpers::ARITH_SLOW => self.arith_slow(cpu)?,
            helpers::COMPARE_SLOW => self.compare_slow(cpu)?,
            helpers::GETELEM_SLOW => self.getelem_slow(cpu)?,
            helpers::SETELEM_SLOW => self.setelem_slow(cpu)?,
            helpers::NEWARR => {
                let dst = cpu.regs().read(Reg::A1).v;
                let hint = cpu.regs().read(Reg::A2).v;
                let hdr = self.new_array(cpu, hint)?;
                Self::write(cpu, dst, Self::encode(Hv::Object(hdr)));
                Cost::affine(60, 1, hint)
            }
            helpers::GETGLOBAL => {
                let dst = cpu.regs().read(Reg::A1).v;
                let name = Self::read(cpu, cpu.regs().read(Reg::A2).v);
                let key = layout::payload_of(name) as u32;
                let v = self.globals.get(&key).copied().unwrap_or(layout::UNDEFINED);
                Self::write(cpu, dst, v);
                Cost::fixed(35)
            }
            helpers::SETGLOBAL => {
                let value = Self::read(cpu, cpu.regs().read(Reg::A1).v);
                let name = Self::read(cpu, cpu.regs().read(Reg::A2).v);
                let key = layout::payload_of(name) as u32;
                self.globals.insert(key, value);
                Cost::fixed(35)
            }
            helpers::BUILTIN => self.builtin(cpu)?,
            helpers::LEN_SLOW => self.len_slow(cpu)?,
            helpers::NEG_SLOW => self.neg_slow(cpu)?,
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
