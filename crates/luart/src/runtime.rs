//! `luart`'s codec for the shared native runtime ([`crate::native`]): the
//! 16-byte tag-value pair of [`crate::layout`], and the helper-id table of
//! [`crate::helpers`]. The numeric-for preparation slow path is `luart`'s
//! own.

use crate::bytecode::Op;
use crate::helpers;
use crate::layout::{tag, TAG_OFFSET, TVALUE_SIZE};
use crate::native::{fail, fatal, Codec, Runtime, Value};
use miniscript::BinOp;
use tarch_core::Cpu;
use tarch_isa::Reg;
use tarch_sim::{Cost, HostError};

/// A raw tag-value pair as stored in simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawTv {
    /// Value double-word.
    pub v: u64,
    /// Tag byte.
    pub t: u8,
}

/// `luart`'s value codec: tag-value pairs.
#[derive(Debug, Clone, Copy)]
pub struct LuaCodec;

/// The native host for the `luart` engine.
pub type LuaHost = Runtime<LuaCodec>;

fn decode(tv: RawTv) -> Result<Value, HostError> {
    Ok(match tv.t {
        tag::NIL => Value::Nil,
        tag::BOOL => Value::Bool(tv.v != 0),
        tag::INT => Value::Int(tv.v as i64),
        tag::FLOAT => Value::Float(f64::from_bits(tv.v)),
        tag::STR => Value::Str(tv.v as u32),
        tag::TABLE => Value::Table(tv.v),
        other => return Err(fail(format!("corrupt tag {other:#x}"))),
    })
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
        Some(Op::CmpEq) => BinOp::Eq,
        Some(Op::CmpNe) => BinOp::Ne,
        Some(Op::CmpLt) => BinOp::Lt,
        Some(Op::CmpLe) => BinOp::Le,
        _ => return Err(fail("bad op code")),
    })
}

/// Numeric-for preparation off the integer path (`a1` = control block):
/// the index, limit and step become floats, and the step is subtracted
/// from the index once.
fn forprep(rt: &LuaHost, cpu: &mut Cpu, block: u64) -> Result<Cost, HostError> {
    let addr = |i: u64| block + i * TVALUE_SIZE;
    let num = |i| Ok::<_, HostError>(rt.to_number(decode(LuaCodec::read(cpu, addr(i)))?)?.0);
    let (i, l, s) = (num(0)?, num(1)?, num(2)?);
    if s == 0.0 {
        return Err(fail("'for' step is zero"));
    }
    for (k, v) in [i - s, l, s].into_iter().enumerate() {
        LuaCodec::write(cpu, addr(k as u64), LuaCodec::encode(Value::Float(v)));
    }
    Ok(Cost::fixed(40))
}

impl Codec for LuaCodec {
    type Slot = RawTv;
    const SLOT_BYTES: u64 = TVALUE_SIZE;

    fn read(cpu: &Cpu, addr: u64) -> RawTv {
        RawTv { v: cpu.mem().read_u64(addr), t: cpu.mem().read_u8(addr + TAG_OFFSET as u64) }
    }

    fn write(cpu: &mut Cpu, addr: u64, tv: RawTv) {
        cpu.host_store_u64(addr, tv.v);
        cpu.host_store_u64(addr + TAG_OFFSET as u64, tv.t as u64);
    }

    fn encode(value: Value) -> RawTv {
        match value {
            Value::Nil => RawTv { v: 0, t: tag::NIL },
            Value::Bool(b) => RawTv { v: b as u64, t: tag::BOOL },
            Value::Int(i) => RawTv { v: i as u64, t: tag::INT },
            Value::Float(f) => RawTv { v: f.to_bits(), t: tag::FLOAT },
            Value::Str(id) => RawTv { v: id as u64, t: tag::STR },
            Value::Table(p) => RawTv { v: p, t: tag::TABLE },
        }
    }

    fn is_nil(tv: RawTv) -> bool {
        tv.t == tag::NIL
    }

    fn ecall(rt: &mut LuaHost, cpu: &mut Cpu, id: u64) -> Result<Cost, HostError> {
        let [a0, a1, a2, a3] = [Reg::A0, Reg::A1, Reg::A2, Reg::A3].map(|r| cpu.regs().read(r).v);
        let at = |addr| decode(Self::read(cpu, addr));
        match id {
            helpers::ARITH_SLOW => {
                let (b, c) = (at(a2)?, at(a3)?);
                match Op::from_code(a0 as u8) {
                    Some(Op::Unm) => rt.negate(b, a1, cpu),
                    _ => rt.arith(binop(a0)?, b, c, a1, cpu),
                }
            }
            helpers::COMPARE_SLOW => rt.compare(binop(a0)?, at(a1)?, at(a2)?, cpu),
            helpers::GETTABLE_SLOW => rt.get(at(a2)?, at(a3)?, a1, cpu),
            helpers::SETTABLE_SLOW => rt.set(at(a1)?, at(a2)?, Self::read(cpu, a3), cpu),
            helpers::NEWTABLE => rt.new_table(a2, a1, cpu),
            helpers::GETGLOBAL => Ok(rt.get_global(Self::read(cpu, a2).v as u32, a1, cpu)),
            helpers::SETGLOBAL => {
                Ok(rt.set_global(Self::read(cpu, a2).v as u32, Self::read(cpu, a1)))
            }
            helpers::BUILTIN => {
                let args: Result<Vec<_>, _> = (0..a3).map(|i| at(a1 + i * TVALUE_SIZE)).collect();
                rt.builtin(a2, &args?, a1, cpu)
            }
            helpers::FORPREP_SLOW => forprep(rt, cpu, a1),
            helpers::LEN_SLOW => rt.len(at(a2)?, a1, cpu),
            helpers::ERROR => Err(fatal(a0)),
            _ => Err(fail("unknown helper id")),
        }
    }
}
