//! `wasmrt`'s handlers over the shared interpreter skeleton
//! ([`luart::image`]), which supplies the memory map, the frames, the
//! prologue, the dispatch loop, the data section and the stack-machine
//! code `wasmrt` shares with `jsrt` (operand stack, constants, locals,
//! calls, returns and dense element access). What is `wasmrt`'s own is a
//! handler per opcode over untagged 8-byte words, the opcode field at bit
//! 24, the raw constant encoding and the globals area — and one deliberate
//! difference: **the emitted code is byte-identical at every ISA level**.
//!
//! The bytecode is monomorphic (see [`crate::compiler`]), so there is
//! nothing for the typed hardware to do: no tag extraction (`tld`/`tsd`),
//! no type-rule table to program, no `chklb` guard bytes, no `tchk`, no
//! guarded `xadd`. `i64.add` is a bare `add`, `f64.add` is `fld`/`fadd`/
//! `fsd`, and element access is an untagged bounds-checked load. Running
//! the same image under `--level typed` therefore reports **zero** TRT
//! fills and zero dynamic type checks — the measured baseline the paper's
//! hardware win is relative to, reproduced by construction.
//!
//! Sharing the frame machinery with `jsrt` lets the host-side
//! accelerations — basic blocks, superblock compilation, tiered
//! execution, PGO — apply to this engine unchanged.

use crate::bytecode::{Bc, Const, Module, Op};
use crate::helpers_mod as helpers;
use crate::layout::{object, NIL};
use luart::image::{stack_frame_info, Function, Skeleton, BASE, KB, PC, SP, W};
use std::ops::{Deref, DerefMut};
use tarch_core::IsaLevel;
use tarch_isa::asm::AsmError;
use tarch_isa::{FReg, FpCmpOp, FpuOp, Instruction, Reg};
use tarch_sim::Image;

/// CallInfo stack limit.
const CI_LIM: Reg = Reg::S11;
/// Globals base (static typed global slots in DATA).
const GB: Reg = Reg::S8;

/// A built wasmrt image. Its program is the same at every ISA level (the
/// level is kept for reporting symmetry with the other engines) and
/// contains no typed-hardware instruction.
pub type WasmImage = Image<Op>;

/// Generates the interpreter image.
///
/// # Errors
///
/// Returns [`AsmError`] on assembly failure (codegen bug).
pub fn build_image(module: &Module, level: IsaLevel) -> Result<WasmImage, AsmError> {
    let mut g = Gen(Skeleton::new(level, module.protos.len(), CI_LIM));
    // No SPR/TRT programming at any level: the image contains no typed
    // loads, no checked loads, and no guarded ALU ops.
    g.prologue(None);
    let globals = g.b.new_label("globals_area");
    g.b.la(GB, globals);
    let main = &module.protos[module.main];
    g.frames(module.main, Some(main.nlocals.into()), helpers::ERROR);
    g.dispatch_loop(24);
    for op in Op::ALL {
        g.bind_handler(op);
        g.emit(op);
    }
    let strings = &mut g.strings;
    let funcs: Vec<Function> = module
        .protos
        .iter()
        .map(|p| Function {
            info: stack_frame_info(p.nlocals, p.max_stack),
            code: p.code.iter().map(|bc| bc.encode()).collect(),
            // Raw untagged dwords: full-width i64, IEEE bits, string id.
            consts: p
                .consts
                .iter()
                .map(|k| match k {
                    Const::Int(v) => *v as u64,
                    Const::Float(v) => v.to_bits(),
                    Const::Str(s) => strings.intern(s) as u64,
                })
                .collect(),
        })
        .collect();
    g.tables(&funcs, Bc::new(Op::Halt, 0).encode());
    // Typed global slots, initialized to NIL.
    g.b.bind_data(globals);
    for _ in 0..module.globals.len().max(1) {
        g.b.dword(NIL);
    }
    g.functions(&funcs, 8);
    g.0.finish()
}

/// The handlers, over the skeleton.
struct Gen(Skeleton<Op>);

impl Deref for Gen {
    type Target = Skeleton<Op>;

    fn deref(&self) -> &Skeleton<Op> {
        &self.0
    }
}

impl DerefMut for Gen {
    fn deref_mut(&mut self) -> &mut Skeleton<Op> {
        &mut self.0
    }
}

impl Gen {
    /// `dst = NIL` (the sentinel is `1 << 63`).
    fn li_nil(&mut self, dst: Reg) {
        self.b.li(dst, 1);
        self.b.slli(dst, dst, 63);
    }

    fn emit(&mut self, op: Op) {
        match op {
            Op::ConstK => self.push_slot(KB),
            Op::ConstI => self.h_consti(),
            Op::ConstNil => self.h_constnil(),
            Op::LocalGet => self.push_slot(BASE),
            Op::LocalSet => self.pop_slot(BASE),
            Op::Pop => self.drop_top(),
            Op::IAdd | Op::ISub | Op::IMul => self.h_iarith(op),
            Op::IDiv | Op::IRem => self.h_intdiv(op),
            Op::INeg => self.h_ineg(),
            Op::IEq | Op::INe => self.h_ieq(op),
            Op::ILt | Op::ILe => self.h_iord(op),
            Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => self.h_farith(op),
            Op::FNeg => self.h_fneg(),
            Op::FEq | Op::FNe | Op::FLt | Op::FLe => self.h_fcmp(op),
            Op::I2F => self.h_i2f(),
            Op::TestNil => self.h_testnil(),
            Op::BNot => self.h_bnot(),
            Op::Br => self.jump(),
            Op::BrIf | Op::BrIfNot => self.h_brcond(op),
            Op::ALen => self.h_alen(),
            Op::SLen => self.h_slen(),
            Op::Concat => self.h_concat(),
            Op::NewArr => self.new_table(helpers::NEWARR),
            Op::ArrGet => self.h_arrget(),
            Op::ArrSet => self.h_arrset(),
            Op::MapGet => self.h_mapget(),
            Op::MapSet => self.h_mapset(),
            // Statically resolved slots: two ALU ops + a load or store.
            // jsrt needs a host call and a name lookup here.
            Op::GlobalGet => self.push_slot(GB),
            Op::GlobalSet => self.pop_slot(GB),
            Op::Call => self.call(0x7),
            Op::CallB => self.h_callb(),
            Op::Ret | Op::RetV => self.h_ret(op),
            Op::Halt => self.b.halt(),
        }
    }

    // --- constants ---------------------------------------------------------

    fn h_consti(&mut self) {
        // Raw value: no boxing, unlike jsrt's PushI.
        self.decode_imm(Reg::T1);
        self.push(Reg::T1);
        self.next();
    }

    fn h_constnil(&mut self) {
        self.li_nil(Reg::T1);
        self.push(Reg::T1);
        self.next();
    }

    // --- integer arithmetic ---------------------------------------------
    //
    // This is the paper's Figure 3 sequence with everything the typed
    // hardware would elide *already gone*: no tag extraction, no TRT
    // lookup, no re-tagging — because the compiler proved the types.

    fn h_iarith(&mut self, op: Op) {
        self.b.ld(Reg::T1, -16, SP);
        self.b.ld(Reg::T2, -8, SP);
        match op {
            Op::IAdd => self.b.add(Reg::T1, Reg::T1, Reg::T2),
            Op::ISub => self.b.sub(Reg::T1, Reg::T1, Reg::T2),
            _ => self.b.mul(Reg::T1, Reg::T1, Reg::T2),
        }
        self.b.sd(Reg::T1, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn h_intdiv(&mut self, op: Op) {
        // Floor-corrected division/modulo (Lua semantics), inline.
        let store = self.b.new_label("widiv_store");
        let dz = self.div_zero;
        self.b.ld(Reg::T1, -16, SP);
        self.b.ld(Reg::T2, -8, SP);
        self.b.beqz(Reg::T2, dz);
        if op == Op::IDiv {
            self.b.div(Reg::T5, Reg::T1, Reg::T2);
            self.b.rem(Reg::T6, Reg::T1, Reg::T2);
            self.b.beqz(Reg::T6, store);
            self.b.xor(Reg::T6, Reg::T1, Reg::T2);
            self.b.bge(Reg::T6, Reg::ZERO, store);
            self.b.addi(Reg::T5, Reg::T5, -1);
        } else {
            self.b.rem(Reg::T5, Reg::T1, Reg::T2);
            self.b.beqz(Reg::T5, store);
            self.b.xor(Reg::T6, Reg::T5, Reg::T2);
            self.b.bge(Reg::T6, Reg::ZERO, store);
            self.b.add(Reg::T5, Reg::T5, Reg::T2);
        }
        self.b.bind(store);
        self.b.sd(Reg::T5, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn h_ineg(&mut self) {
        self.b.ld(Reg::T1, -8, SP);
        self.b.neg(Reg::T1, Reg::T1);
        self.b.sd(Reg::T1, -8, SP);
        self.next();
    }

    fn h_ieq(&mut self, op: Op) {
        // Raw word equality: ints, interned string ids, booleans, handles.
        self.b.ld(Reg::T1, -16, SP);
        self.b.ld(Reg::T2, -8, SP);
        self.b.xor(Reg::T1, Reg::T1, Reg::T2);
        if op == Op::IEq {
            self.b.seqz(Reg::T1, Reg::T1);
        } else {
            self.b.snez(Reg::T1, Reg::T1);
        }
        self.b.sd(Reg::T1, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn h_iord(&mut self, op: Op) {
        self.b.ld(Reg::T1, -16, SP);
        self.b.ld(Reg::T2, -8, SP);
        if op == Op::ILt {
            self.b.slt(Reg::T1, Reg::T1, Reg::T2);
        } else {
            self.b.slt(Reg::T1, Reg::T2, Reg::T1);
            self.b.xori(Reg::T1, Reg::T1, 1);
        }
        self.b.sd(Reg::T1, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    // --- float arithmetic -----------------------------------------------

    fn h_farith(&mut self, op: Op) {
        self.b.fld(FReg::F2, -16, SP);
        self.b.fld(FReg::F5, -8, SP);
        let fop = match op {
            Op::FAdd => FpuOp::Fadd,
            Op::FSub => FpuOp::Fsub,
            Op::FMul => FpuOp::Fmul,
            _ => FpuOp::Fdiv,
        };
        self.b.emit(Instruction::Fpu { op: fop, rd: FReg::F5, rs1: FReg::F2, rs2: FReg::F5 });
        self.b.fsd(FReg::F5, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn h_fneg(&mut self) {
        self.b.fld(FReg::F2, -8, SP);
        self.b.emit(Instruction::Fpu {
            op: FpuOp::Fsgnjn,
            rd: FReg::F2,
            rs1: FReg::F2,
            rs2: FReg::F2,
        });
        self.b.fsd(FReg::F2, -8, SP);
        self.next();
    }

    fn h_fcmp(&mut self, op: Op) {
        self.b.fld(FReg::F2, -16, SP);
        self.b.fld(FReg::F5, -8, SP);
        let fop = match op {
            Op::FEq | Op::FNe => FpCmpOp::Feq,
            Op::FLt => FpCmpOp::Flt,
            _ => FpCmpOp::Fle,
        };
        self.b.emit(Instruction::FpCmp { op: fop, rd: Reg::T1, rs1: FReg::F2, rs2: FReg::F5 });
        if op == Op::FNe {
            self.b.xori(Reg::T1, Reg::T1, 1);
        }
        self.b.sd(Reg::T1, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn h_i2f(&mut self) {
        // The *only* representation change in the whole instruction set —
        // and it is an arithmetic conversion, not a tag operation.
        self.b.ld(Reg::T1, -8, SP);
        self.b.emit(Instruction::FcvtDL { rd: FReg::F2, rs1: Reg::T1 });
        self.b.fsd(FReg::F2, -8, SP);
        self.next();
    }

    // --- nil & booleans --------------------------------------------------

    fn h_testnil(&mut self) {
        // TOS = (TOS != NIL) as 0/1.
        self.b.ld(Reg::T1, -8, SP);
        self.li_nil(Reg::T2);
        self.b.xor(Reg::T1, Reg::T1, Reg::T2);
        self.b.snez(Reg::T1, Reg::T1);
        self.b.sd(Reg::T1, -8, SP);
        self.next();
    }

    fn h_bnot(&mut self) {
        // Truthiness lives in bit 0 (NIL and false have it clear).
        self.b.ld(Reg::T1, -8, SP);
        self.b.andi(Reg::T1, Reg::T1, 1);
        self.b.xori(Reg::T1, Reg::T1, 1);
        self.b.sd(Reg::T1, -8, SP);
        self.next();
    }

    // --- control flow ----------------------------------------------------

    fn h_brcond(&mut self, op: Op) {
        // The operand is a compiler-guaranteed 0/1 truth word: a single
        // bit-0 test, no tag dispatch (contrast jsrt's emit_truthiness).
        let skip = self.b.new_label(if op == Op::BrIf { "wbrif_skip" } else { "wbrifn_skip" });
        self.decode_offset(Reg::T1);
        self.pop(Reg::T2);
        self.b.andi(Reg::T2, Reg::T2, 1);
        if op == Op::BrIf {
            self.b.beqz(Reg::T2, skip);
        } else {
            self.b.bnez(Reg::T2, skip);
        }
        self.b.add(PC, PC, Reg::T1);
        self.b.bind(skip);
        self.next();
    }

    // --- strings & tables -------------------------------------------------

    fn h_alen(&mut self) {
        // The handle is a raw header address: one load, no unboxing.
        self.b.ld(Reg::T1, -8, SP);
        self.b.ld(Reg::T2, object::ARR_LEN, Reg::T1);
        self.b.sd(Reg::T2, -8, SP);
        self.next();
    }

    fn h_slen(&mut self) {
        self.b.addi(Reg::A1, SP, -8);
        self.ecall(helpers::STRLEN);
        self.next();
    }

    fn h_concat(&mut self) {
        self.b.addi(Reg::A1, SP, -16);
        self.decode_uimm(Reg::A2);
        self.ecall(helpers::CONCAT);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn h_arrget(&mut self) {
        let slow = self.b.new_label("wag_slow");
        self.b.ld(Reg::T1, -16, SP);
        self.b.ld(Reg::T2, -8, SP);
        self.elem_get(Reg::T1, Reg::T2, slow);
        self.b.bind(slow);
        self.b.addi(Reg::A1, SP, -16);
        self.b.li(Reg::A2, helpers::keykind::INT as i64);
        self.ecall(helpers::ELEM_GET);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn h_arrset(&mut self) {
        // Stack: [tab, key, val] at SP-24, SP-16, SP-8.
        let slow = self.b.new_label("was_slow");
        self.b.ld(Reg::T1, -24, SP);
        self.b.ld(Reg::T2, -16, SP);
        self.elem_set(Reg::T1, Reg::T2, slow, "was");
        self.b.bind(slow);
        self.b.addi(Reg::A1, SP, -24);
        self.b.li(Reg::A2, helpers::keykind::INT as i64);
        self.ecall(helpers::ELEM_SET);
        self.b.addi(SP, SP, -24);
        self.next();
    }

    fn h_mapget(&mut self) {
        // String-keyed reads always go to the host hash part.
        self.b.addi(Reg::A1, SP, -16);
        self.b.li(Reg::A2, helpers::keykind::STR as i64);
        self.ecall(helpers::ELEM_GET);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn h_mapset(&mut self) {
        self.b.addi(Reg::A1, SP, -24);
        self.b.li(Reg::A2, helpers::keykind::STR as i64);
        self.ecall(helpers::ELEM_SET);
        self.b.addi(SP, SP, -24);
        self.next();
    }

    // --- calls ------------------------------------------------------------

    fn h_callb(&mut self) {
        // a1 = args base, a2 = builtin id, a3 = nargs, a4 = per-arg type
        // codes. The static codes replace jsrt's runtime tag inspection.
        self.b.srli(Reg::A3, W, 16);
        self.b.andi(Reg::A3, Reg::A3, 0x7);
        self.b.slli(Reg::T2, Reg::A3, 3);
        self.b.sub(Reg::A1, SP, Reg::T2);
        self.b.srli(Reg::A2, W, 19);
        self.b.andi(Reg::A2, Reg::A2, 0x1f);
        self.b.slli(Reg::A4, W, 48);
        self.b.srli(Reg::A4, Reg::A4, 48);
        self.ecall(helpers::BUILTIN);
        self.b.addi(SP, Reg::A1, 8);
        self.next();
    }

    fn h_ret(&mut self, op: Op) {
        if op == Op::RetV {
            self.b.ld(Reg::T1, -8, SP);
        } else {
            self.li_nil(Reg::T1);
        }
        self.ret_tail();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniscript::parse;

    #[test]
    fn image_is_identical_at_every_isa_level() {
        let chunk = parse("local s = 0 for i = 1, 10 do s = s + i end print(s)").unwrap();
        let module = crate::compiler::compile(&chunk).unwrap();
        let base = build_image(&module, IsaLevel::Baseline).unwrap();
        let chk = build_image(&module, IsaLevel::CheckedLoad).unwrap();
        let typed = build_image(&module, IsaLevel::Typed).unwrap();
        assert_eq!(base.program.text, chk.program.text);
        assert_eq!(base.program.text, typed.program.text);
        assert_eq!(base.program.data, typed.program.data);
    }

    #[test]
    fn no_typed_or_checked_instructions_in_the_image() {
        let chunk = parse("local t = {1, 2} t[1] = t[2] + 1 print(t[1])").unwrap();
        let module = crate::compiler::compile(&chunk).unwrap();
        let image = build_image(&module, IsaLevel::Typed).unwrap();
        for (_, instr) in image.program.disassemble() {
            assert!(
                !matches!(
                    instr,
                    Instruction::Tld { .. }
                        | Instruction::Tsd { .. }
                        | Instruction::Tchk { .. }
                        | Instruction::Chklb { .. }
                        | Instruction::Typed { .. }
                        | Instruction::SetSpr { .. }
                ),
                "typed/checked instruction {instr:?} in a statically typed image"
            );
        }
    }
}
