//! `jsrt`'s codec for the shared native runtime ([`luart::native`]): the
//! 8-byte NaN-box of [`crate::layout`], its int32-or-double rule for
//! numbers, and the helper-id table of [`crate::helpers_mod`].
//!
//! Two rules are `jsrt`'s own. Negation has its own helper id. And `//`
//! and `%` by an integral zero are errors even when an operand is a
//! double: the NaN-box stores an integral double result as an int32, so
//! it cannot tell `0` from `0.0`, and outputs stay those of the i64-based
//! reference (`print(5 // 0.0)` errors here and prints `inf` there).

use crate::bytecode::Op;
use crate::helpers_mod as helpers;
use crate::layout::{self, tag};
use luart::native::{fail, fatal, Codec, Runtime, Value};
use miniscript::BinOp;
use tarch_core::{canonical_f64_bits, Cpu};
use tarch_isa::Reg;
use tarch_sim::{Cost, HostError};

/// `jsrt`'s value codec: NaN-boxed double-words.
#[derive(Debug, Clone, Copy)]
pub struct JsCodec;

/// The native host for the `jsrt` engine.
pub type JsHost = Runtime<JsCodec>;

fn decode(value: u64) -> Value {
    if !layout::is_boxed(value) {
        return Value::Float(f64::from_bits(value));
    }
    let payload = layout::payload_of(value);
    match layout::tag_of(value) {
        tag::INT => Value::Int(payload),
        tag::UNDEF => Value::Nil,
        tag::BOOL => Value::Bool(payload != 0),
        tag::STR => Value::Str(payload as u32),
        tag::OBJECT => Value::Table(payload as u64),
        other => Value::Table(((other as u64) << 47) | payload as u64), // unreachable in practice
    }
}

/// The operator a slow-path helper passes in `a0`.
fn binop(code: u64) -> Result<BinOp, HostError> {
    Ok(match Op::from_code(code as u8) {
        Some(Op::Add) => BinOp::Add,
        Some(Op::Sub) => BinOp::Sub,
        Some(Op::Mul) => BinOp::Mul,
        Some(Op::Div) => BinOp::Div,
        Some(Op::IDiv) => BinOp::IDiv,
        Some(Op::Mod) => BinOp::Mod,
        Some(Op::Concat) => BinOp::Concat,
        Some(Op::Eq) => BinOp::Eq,
        Some(Op::Ne) => BinOp::Ne,
        Some(Op::Lt) => BinOp::Lt,
        Some(Op::Le) => BinOp::Le,
        _ => return Err(fail("bad op code")),
    })
}

impl Codec for JsCodec {
    type Slot = u64;
    const SLOT_BYTES: u64 = 8;

    fn read(cpu: &Cpu, addr: u64) -> u64 {
        cpu.mem().read_u64(addr)
    }

    fn write(cpu: &mut Cpu, addr: u64, value: u64) {
        cpu.host_store_u64(addr, value);
    }

    fn encode(value: Value) -> u64 {
        match value {
            Value::Nil => layout::UNDEFINED,
            Value::Bool(b) => layout::boxed(tag::BOOL, b as u64),
            Value::Int(i) => i32::try_from(i).map_or(canonical_f64_bits(i as f64), layout::box_int),
            Value::Float(f) => canonical_f64_bits(f),
            Value::Str(id) => layout::boxed(tag::STR, id as u64),
            Value::Table(p) => layout::boxed(tag::OBJECT, p),
        }
    }

    /// Integral results in the int32 range are stored as integers.
    fn number(f: f64) -> u64 {
        if f == f.trunc() && (i32::MIN as f64..=i32::MAX as f64).contains(&f) && f.is_finite() {
            layout::box_int(f as i32)
        } else {
            canonical_f64_bits(f)
        }
    }

    fn is_nil(value: u64) -> bool {
        value == layout::UNDEFINED
    }

    fn ecall(rt: &mut JsHost, cpu: &mut Cpu, id: u64) -> Result<Cost, HostError> {
        let [a0, a1, a2, a3] = [Reg::A0, Reg::A1, Reg::A2, Reg::A3].map(|r| cpu.regs().read(r).v);
        let at = |addr| decode(Self::read(cpu, addr));
        let name = |addr| layout::payload_of(Self::read(cpu, addr)) as u32;
        match id {
            helpers::ARITH_SLOW => {
                let (op, b, c) = (binop(a0)?, at(a2), at(a3));
                if matches!(op, BinOp::IDiv | BinOp::Mod) {
                    let (x, y) = (rt.to_number(b)?.0, rt.to_number(c)?.0);
                    if y == 0.0 && x == x.trunc() {
                        return Err(fail("integer division by zero"));
                    }
                }
                rt.arith(op, b, c, a1, cpu)
            }
            helpers::COMPARE_SLOW => rt.compare(binop(a0)?, at(a1), at(a2), cpu),
            helpers::GETELEM_SLOW => rt.get(at(a2), at(a3), a1, cpu),
            helpers::SETELEM_SLOW => rt.set(at(a1), at(a2), Self::read(cpu, a3), cpu),
            helpers::NEWARR => rt.new_table(a2, a1, cpu),
            helpers::GETGLOBAL => Ok(rt.get_global(name(a2), a1, cpu)),
            helpers::SETGLOBAL => Ok(rt.set_global(name(a2), Self::read(cpu, a1))),
            helpers::BUILTIN => {
                let args: Vec<_> = (0..a3).map(|i| at(a1 + i * 8)).collect();
                rt.builtin(a2, &args, a1, cpu)
            }
            helpers::LEN_SLOW => rt.len(at(a2), a1, cpu),
            helpers::NEG_SLOW => rt.negate(at(a2), a1, cpu),
            helpers::ERROR => Err(fatal(a0)),
            _ => Err(fail("unknown helper id")),
        }
    }
}
