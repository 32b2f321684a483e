//! `wasmrt`'s codec for the shared native runtime ([`luart::native`]):
//! **raw untagged words**, and the helper-id table of
//! [`crate::helpers_mod`].
//!
//! A word carries no type, so every call site compiles in what the runtime
//! needs to decode it: element accesses pass the key kind in `a2`, and
//! concatenation and builtin calls pass packed per-operand [`TyCode`]s.
//! A table handle decodes as `Ref` and a string-length operand as `Str`.
//! The [`NIL`] sentinel is `nil` under every code except `F64`.
//!
//! Strings are interned with content deduplication, so two equal strings —
//! even ones built at run time by `str.concat` — always share an id. The
//! guest compares strings with a raw `i64.eq` on ids; dedup is what makes
//! that sound (k-nucleotide's string-keyed counting relies on it).

use crate::bytecode::TyCode;
use crate::helpers_mod::{self as helpers, keykind};
use crate::layout::NIL;
use luart::native::{fail, fatal, Codec, Runtime, Value};
use tarch_core::{canonical_f64_bits, Cpu};
use tarch_isa::Reg;
use tarch_sim::{Cost, HostError};

/// `wasmrt`'s value codec: raw words, decoded under static type codes.
#[derive(Debug, Clone, Copy)]
pub struct WasmCodec;

/// The native host for the `wasmrt` engine.
pub type WasmHost = Runtime<WasmCodec>;

/// Decodes a raw word under its static type code.
fn decode(code: TyCode, raw: u64) -> Value {
    if raw == NIL && code != TyCode::F64 {
        return Value::Nil;
    }
    match code {
        TyCode::Int => Value::Int(raw as i64),
        TyCode::F64 => Value::Float(f64::from_bits(raw)),
        TyCode::Str => Value::Str(raw as u32),
        TyCode::Bool => Value::Bool(raw & 1 != 0),
        TyCode::Ref => Value::Table(raw),
    }
}

/// The `i`th code of a packed set of 4-bit type codes.
fn code_at(codes: u64, i: u64) -> Result<TyCode, HostError> {
    TyCode::from_code(((codes >> (4 * i)) & 0xf) as u8).ok_or_else(|| fail("bad type code"))
}

impl Codec for WasmCodec {
    type Slot = u64;
    const SLOT_BYTES: u64 = 8;

    fn read(cpu: &Cpu, addr: u64) -> u64 {
        cpu.mem().read_u64(addr)
    }

    fn write(cpu: &mut Cpu, addr: u64, raw: u64) {
        cpu.host_store_u64(addr, raw);
    }

    fn encode(value: Value) -> u64 {
        match value {
            Value::Nil => NIL,
            Value::Bool(b) => b as u64,
            Value::Int(i) => i as u64,
            Value::Float(f) => canonical_f64_bits(f),
            Value::Str(id) => id as u64,
            Value::Table(p) => p,
        }
    }

    fn is_nil(raw: u64) -> bool {
        raw == NIL
    }

    fn ecall(rt: &mut WasmHost, cpu: &mut Cpu, id: u64) -> Result<Cost, HostError> {
        let [a0, a1, a2, a3, a4] =
            [Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A4].map(|r| cpu.regs().read(r).v);
        let at = |code, addr| decode(code, Self::read(cpu, addr));
        match id {
            helpers::ELEM_GET | helpers::ELEM_SET => {
                let key = match a2 {
                    keykind::INT => Value::Int(Self::read(cpu, a1 + 8) as i64),
                    keykind::STR => Value::Str(Self::read(cpu, a1 + 8) as u32),
                    other => return Err(fail(format!("bad key kind {other}"))),
                };
                let t = at(TyCode::Ref, a1);
                if id == helpers::ELEM_GET {
                    rt.get(t, key, a1, cpu)
                } else {
                    rt.set(t, key, Self::read(cpu, a1 + 16), cpu)
                }
            }
            helpers::NEWARR => rt.new_table(a2, a1, cpu),
            helpers::CONCAT => {
                rt.concat(at(code_at(a2, 1)?, a1), at(code_at(a2, 0)?, a1 + 8), a1, cpu)
            }
            helpers::BUILTIN => {
                let args: Result<Vec<_>, _> =
                    (0..a3).map(|i| code_at(a4, i).map(|code| at(code, a1 + 8 * i))).collect();
                rt.builtin(a2, &args?, a1, cpu)
            }
            helpers::STRLEN => rt.len(at(TyCode::Str, a1), a1, cpu),
            helpers::ERROR => Err(fatal(a0)),
            _ => Err(fail("unknown helper id")),
        }
    }
}
