//! The `wasmrt` native host: runtime services behind `ecall`.
//!
//! Same contract and cost philosophy as the `luart`/`jsrt` hosts (costs are
//! identical across ISA levels), over **raw untagged words**. The host
//! never inspects a value to learn its type — it can't, there are no tags.
//! Every call site instead compiles in the static type information the
//! host needs: element accesses pass the key kind in `a2`, concatenation
//! and builtin calls pass packed per-argument [`TyCode`]s.
//!
//! Strings are interned with content deduplication, so two equal strings —
//! even ones built at run time by `str.concat` — always share an id. The
//! guest compares strings with a raw `i64.eq` on ids; dedup is what makes
//! that sound (k-nucleotide's string-keyed counting relies on it).

use crate::bytecode::{Builtin, TyCode};
use crate::helpers_mod as helpers;
use crate::layout::{object, NIL};
use miniscript::{format_float, string_sub};
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

/// The native host for the `wasmrt` engine.
#[derive(Debug, Clone)]
pub struct WasmHost {
    state: HostState,
    hash_parts: Vec<HashMap<HKey, u64>>,
}

impl WasmHost {
    /// Renders a raw word under its static type code.
    fn format(&self, code: TyCode, raw: u64) -> Result<String, HostError> {
        if raw == NIL && code != TyCode::F64 {
            return Ok("nil".to_string());
        }
        Ok(match code {
            TyCode::Int => (raw as i64).to_string(),
            TyCode::F64 => format_float(f64::from_bits(raw)),
            TyCode::Str => self.state.string(raw as u32)?.to_string(),
            TyCode::Bool => if raw & 1 != 0 { "true" } else { "false" }.to_string(),
            TyCode::Ref => "table".to_string(),
        })
    }

    fn code_at(codes: u64, i: usize) -> Result<TyCode, HostError> {
        TyCode::from_code(((codes >> (4 * i)) & 0xf) as u8)
            .ok_or_else(|| HostError::new(0, "bad type code"))
    }

    fn read(cpu: &Cpu, addr: u64) -> u64 {
        cpu.mem().read_u64(addr)
    }

    fn write(cpu: &mut Cpu, addr: u64, v: u64) {
        cpu.host_store_u64(addr, v);
    }

    // --- table services --------------------------------------------------

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
        Ok(part.get(&key).copied().unwrap_or(NIL))
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
        if value == NIL {
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

    fn hkey(kind: u64, raw: u64) -> Result<HKey, HostError> {
        match kind {
            helpers::keykind::INT => Ok(HKey::Int(raw as i64)),
            helpers::keykind::STR => Ok(HKey::Str(raw as u32)),
            other => Err(HostError::new(0, format!("bad key kind {other}"))),
        }
    }

    // --- services --------------------------------------------------------

    fn helper_elem_get(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let base = cpu.regs().read(Reg::A1).v;
        let kind = cpu.regs().read(Reg::A2).v;
        let hdr = Self::read(cpu, base);
        let key = Self::hkey(kind, Self::read(cpu, base + 8))?;
        let cost = match &key {
            HKey::Str(id) => Cost::affine(50, 6, self.state.string(*id)?.len() as u64),
            HKey::Int(_) => Cost::fixed(60),
        };
        let v = self.elem_get(cpu, hdr, key)?;
        Self::write(cpu, base, v);
        Ok(cost)
    }

    fn helper_elem_set(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let base = cpu.regs().read(Reg::A1).v;
        let kind = cpu.regs().read(Reg::A2).v;
        let hdr = Self::read(cpu, base);
        let key = Self::hkey(kind, Self::read(cpu, base + 8))?;
        let value = Self::read(cpu, base + 16);
        let cost = match &key {
            HKey::Str(id) => Cost::affine(70, 6, self.state.string(*id)?.len() as u64),
            HKey::Int(_) => Cost::fixed(80),
        };
        let extra = self.elem_set(cpu, hdr, key, value)?;
        Ok(cost.plus(extra))
    }

    fn helper_concat(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let base = cpu.regs().read(Reg::A1).v;
        let codes = cpu.regs().read(Reg::A2).v;
        let rhs_code = Self::code_at(codes, 0)?;
        let lhs_code = Self::code_at(codes, 1)?;
        let lhs = self.format(lhs_code, Self::read(cpu, base))?;
        let rhs = self.format(rhs_code, Self::read(cpu, base + 8))?;
        let s = format!("{lhs}{rhs}");
        let bytes = s.len() as u64;
        let id = self.state.intern(&s);
        Self::write(cpu, base, id as u64);
        Ok(Cost::affine(60, 2, bytes))
    }

    fn helper_strlen(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let addr = cpu.regs().read(Reg::A1).v;
        let id = Self::read(cpu, addr) as u32;
        let len = self.state.string(id)?.len() as u64;
        Self::write(cpu, addr, len);
        Ok(Cost::fixed(15))
    }

    fn helper_builtin(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let base = cpu.regs().read(Reg::A1).v;
        let id = cpu.regs().read(Reg::A2).v;
        let nargs = cpu.regs().read(Reg::A3).v as usize;
        let codes = cpu.regs().read(Reg::A4).v;
        let builtin = Builtin::from_code(id as u16)
            .ok_or_else(|| HostError::new(helpers::BUILTIN, format!("bad builtin id {id}")))?;
        let err = |m: String| HostError::new(helpers::BUILTIN, m);

        let args: Vec<u64> = (0..nargs).map(|i| Self::read(cpu, base + i as u64 * 8)).collect();
        let arg = |i: usize| args.get(i).copied().unwrap_or(NIL);
        let code = |i: usize| Self::code_at(codes, i);
        // Numeric view of an argument under its static code.
        let as_f64 = |i: usize| -> Result<f64, HostError> {
            Ok(match code(i)? {
                TyCode::F64 => f64::from_bits(arg(i)),
                _ => arg(i) as i64 as f64,
            })
        };

        let mut cost;
        let result: u64 = match builtin {
            Builtin::Print | Builtin::Write => {
                let mut line = String::new();
                for i in 0..nargs {
                    if builtin == Builtin::Print && i > 0 {
                        line.push('\t');
                    }
                    line.push_str(&self.format(code(i)?, arg(i))?);
                }
                if builtin == Builtin::Print {
                    line.push('\n');
                }
                cost = Cost::affine(60, 3, line.len() as u64)
                    .plus(Cost::affine(0, 25, nargs as u64));
                self.state.print(&line);
                NIL
            }
            Builtin::Clock => {
                cost = Cost::fixed(20);
                0.0f64.to_bits()
            }
            Builtin::Floor => {
                cost = Cost::fixed(15);
                match code(0)? {
                    TyCode::F64 => f64::from_bits(arg(0)).floor() as i64 as u64,
                    _ => arg(0),
                }
            }
            Builtin::Sqrt => {
                cost = Cost::fixed(25);
                canonical_f64_bits(as_f64(0)?.sqrt())
            }
            Builtin::Abs => {
                cost = Cost::fixed(15);
                match code(0)? {
                    TyCode::F64 => canonical_f64_bits(f64::from_bits(arg(0)).abs()),
                    _ => (arg(0) as i64).wrapping_abs() as u64,
                }
            }
            Builtin::Min | Builtin::Max => {
                // Compare as floats, return the original word (reference
                // semantics; the compiler has already unified the classes).
                cost = Cost::fixed(15);
                let (fa, fb) = (as_f64(0)?, as_f64(1)?);
                let take_a = if builtin == Builtin::Min { fa <= fb } else { fa >= fb };
                if take_a {
                    arg(0)
                } else {
                    arg(1)
                }
            }
            Builtin::Sub => {
                let s = self.state.string(arg(0) as u32)?.to_string();
                let i = arg(1) as i64;
                let j = if nargs > 2 { arg(2) as i64 } else { -1 };
                let out = string_sub(&s, i, j);
                cost = Cost::affine(40, 2, out.len() as u64);
                self.state.intern(&out) as u64
            }
            Builtin::Len => {
                cost = Cost::fixed(15);
                match code(0)? {
                    TyCode::Str => self.state.string(arg(0) as u32)?.len() as u64,
                    _ => cpu.mem().read_u64(arg(0) + object::LEN as u64),
                }
            }
            Builtin::Char => {
                cost = Cost::fixed(20);
                let v = arg(0) as i64;
                let b = u8::try_from(v).map_err(|_| err(format!("char: {v} out of range")))?;
                self.state.intern(&(b as char).to_string()) as u64
            }
            Builtin::Byte => {
                cost = Cost::fixed(20);
                let i = if nargs > 1 { arg(1) as i64 } else { 1 };
                let s = self.state.string(arg(0) as u32)?;
                match s.as_bytes().get((i - 1).max(0) as usize) {
                    Some(b) if i >= 1 => *b as u64,
                    _ => NIL,
                }
            }
            Builtin::Insert => {
                cost = Cost::fixed(30);
                let hdr = arg(0);
                let len = cpu.mem().read_u64(hdr + object::LEN as u64) as i64;
                let extra = self.elem_set(cpu, hdr, HKey::Int(len + 1), arg(1))?;
                cost = cost.plus(extra);
                NIL
            }
            Builtin::Tostring => {
                let s = self.format(code(0)?, arg(0))?;
                cost = Cost::affine(60, 2, s.len() as u64);
                self.state.intern(&s) as u64
            }
        };
        Self::write(cpu, base, result);
        Ok(cost)
    }
}

impl GuestHost for WasmHost {
    fn new(state: HostState) -> WasmHost {
        WasmHost { state, hash_parts: Vec::new() }
    }

    fn state(&self) -> &HostState {
        &self.state
    }
}

impl NativeHost for WasmHost {
    fn ecall(&mut self, cpu: &mut Cpu) -> Result<(), HostError> {
        let id = cpu.regs().read(Reg::A7).v;
        let cost = match id {
            helpers::ELEM_GET => self.helper_elem_get(cpu)?,
            helpers::ELEM_SET => self.helper_elem_set(cpu)?,
            helpers::NEWARR => {
                let dst = cpu.regs().read(Reg::A1).v;
                let hint = cpu.regs().read(Reg::A2).v;
                let hdr = self.new_array(cpu, hint)?;
                Self::write(cpu, dst, hdr);
                Cost::affine(60, 1, hint)
            }
            helpers::CONCAT => self.helper_concat(cpu)?,
            helpers::BUILTIN => self.helper_builtin(cpu)?,
            helpers::STRLEN => self.helper_strlen(cpu)?,
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
