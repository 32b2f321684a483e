//! `jsrt`'s handlers over the shared interpreter skeleton
//! ([`luart::image`]), which supplies the memory map, the frames, the
//! prologue, the dispatch loop, the data section and the stack-machine
//! code `jsrt` shares with `wasmrt` (operand stack, constants, locals,
//! calls, returns and dense element access). What is `jsrt`'s own is a
//! handler per opcode over 8-byte NaN-boxed values, the opcode field at
//! bit 24 and the NaN-boxed constant encoding. The five hot bytecodes
//! (ADD, SUB, MUL, GETELEM, SETELEM; paper Table 3) come in three
//! variants:
//!
//! * **Baseline** unboxing guards compare the 17-bit box prefix + tag with
//!   shift/compare sequences, sign-extend payloads, and re-box results,
//!   with an explicit int32 overflow check (Section 4.2);
//! * **CheckedLoad** keys `chklb` on byte 6 of the value (`0xf8|tag>>1`)
//!   but still needs a box-prefix backstop per operand, because a single
//!   byte cannot discriminate a NaN-boxed layout — the "specific tag-value
//!   layout" limitation the paper attributes to Checked Load. It is
//!   therefore at best break-even here (see EXPERIMENTS.md);
//! * **Typed** uses the NaN-detecting `tld`/`tsd` datapath: extraction,
//!   type check, ALU binding, overflow detection and re-boxing all happen
//!   in hardware.

use crate::bytecode::{Bc, Const, Module, Op};
use crate::helpers_mod as helpers;
use crate::layout::{self, object, tag};
use luart::image::{stack_frame_info, Function, Skeleton, TypeSetup, BASE, KB, PC, SP, W};
use std::ops::{Deref, DerefMut};
use tarch_core::IsaLevel;
use tarch_isa::asm::{AsmError, Label};
use tarch_isa::{FReg, FpCmpOp, FpuOp, Instruction, Reg};
use tarch_sim::Image;

/// CallInfo stack limit.
const CI_LIM: Reg = Reg::S11;

/// High 17 bits of a boxed value with a given tag: `(0x1fff << 4) | tag`.
fn box_prefix17(t: u8) -> i64 {
    ((0x1fffu64 << 4) | t as u64) as i64
}

/// A built jsrt image.
pub type JsImage = Image<Op>;

/// Generates the interpreter image.
///
/// # Errors
///
/// Returns [`AsmError`] on assembly failure (codegen bug).
pub fn build_image(module: &Module, level: IsaLevel) -> Result<JsImage, AsmError> {
    let mut g = Gen(Skeleton::new(level, module.protos.len(), CI_LIM));
    g.prologue(Some(TypeSetup {
        exptype: layout::chk_byte(tag::INT),
        spr: layout::spr_settings(),
        trt: layout::trt_rules(),
    }));
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
            consts: p
                .consts
                .iter()
                .map(|k| match k {
                    Const::Int(v) => match i32::try_from(*v) {
                        Ok(v32) => layout::box_int(v32),
                        Err(_) => (*v as f64).to_bits(),
                    },
                    Const::Float(v) => v.to_bits(),
                    Const::Str(s) => layout::boxed(tag::STR, strings.intern(s) as u64),
                })
                .collect(),
        })
        .collect();
    g.tables(&funcs, Bc::new(Op::Halt, 0).encode());
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
    /// Sign-extend a boxed payload in place (47-bit).
    fn unbox_signed(&mut self, r: Reg) {
        self.b.slli(r, r, 17);
        self.b.srai(r, r, 17);
    }

    /// Zero the top 17 bits (payload for re-boxing / address payloads).
    fn unbox_unsigned(&mut self, r: Reg) {
        self.b.slli(r, r, 17);
        self.b.srli(r, r, 17);
    }

    /// Re-box `val` (47-bit payload already masked or maskable) with the
    /// prefix17 held in `prefix17_reg`, into `val`.
    fn rebox(&mut self, val: Reg, prefix17_reg: Reg, tmp: Reg) {
        self.unbox_unsigned(val);
        self.b.slli(tmp, prefix17_reg, 47);
        self.b.or(val, val, tmp);
    }

    /// Branch to `slow` unless `val`'s 17-bit prefix equals `prefix17`
    /// (checks boxed-ness and tag at once). Clobbers `t1`, `t2`.
    fn guard_prefix(&mut self, val: Reg, prefix17: i64, t1: Reg, t2: Reg, slow: Label) {
        self.b.srli(t1, val, 47);
        self.b.li(t2, prefix17);
        self.b.bne(t1, t2, slow);
    }

    fn emit(&mut self, op: Op) {
        match op {
            Op::PushK => self.push_slot(KB),
            Op::PushI => self.h_pushi(),
            Op::PushUndef => self.h_pushundef(),
            Op::PushBool => self.h_pushbool(),
            Op::GetLocal => self.push_slot(BASE),
            Op::SetLocal => self.pop_slot(BASE),
            Op::Pop => self.drop_top(),
            Op::Add | Op::Sub | Op::Mul => self.h_arith_hot(op),
            Op::Div => self.h_div(),
            Op::IDiv | Op::Mod => self.h_intdiv(op),
            Op::Concat => self.h_concat(),
            Op::Eq | Op::Ne => self.h_cmp_eq(op),
            Op::Lt | Op::Le => self.h_cmp_ord(op),
            Op::Not => self.h_not(),
            Op::Neg => self.h_neg(),
            Op::Len => self.h_len(),
            Op::Jump => self.jump(),
            Op::JIf | Op::JNot => self.h_jcond(op),
            Op::GetElem => self.h_getelem(),
            Op::SetElem => self.h_setelem(),
            Op::GetGlobal => self.h_getglobal(),
            Op::SetGlobal => self.h_setglobal(),
            Op::NewArr => self.new_table(helpers::NEWARR),
            Op::Call => self.call(0xff),
            Op::CallB => self.h_callb(),
            Op::Ret | Op::RetV => self.h_ret(op),
            Op::Halt => self.b.halt(),
        }
    }

    // --- constants ---------------------------------------------------------

    fn h_pushi(&mut self) {
        self.decode_imm(Reg::T1);
        self.unbox_unsigned(Reg::T1);
        self.b.li(Reg::T2, box_prefix17(tag::INT));
        self.b.slli(Reg::T2, Reg::T2, 47);
        self.b.or(Reg::T1, Reg::T1, Reg::T2);
        self.push(Reg::T1);
        self.next();
    }

    fn h_pushundef(&mut self) {
        self.b.li(Reg::T1, box_prefix17(tag::UNDEF));
        self.b.slli(Reg::T1, Reg::T1, 47);
        self.push(Reg::T1);
        self.next();
    }

    fn h_pushbool(&mut self) {
        self.decode_uimm(Reg::T1);
        self.b.li(Reg::T2, box_prefix17(tag::BOOL));
        self.b.slli(Reg::T2, Reg::T2, 47);
        self.b.or(Reg::T1, Reg::T1, Reg::T2);
        self.push(Reg::T1);
        self.next();
    }

    // --- arithmetic -------------------------------------------------------

    fn h_arith_hot(&mut self, op: Op) {
        let guard_chain = self.b.new_label("js_arith_chain");
        match self.level {
            IsaLevel::Baseline => {}
            IsaLevel::CheckedLoad => {
                // chklb on byte 6 (0xf8 | tag>>1) + box-prefix backstop: a
                // single byte cannot prove boxed-ness under NaN boxing.
                self.b.thdl(guard_chain);
                self.b.chklb(Reg::T1, -10, SP); // byte 6 of St[-2]
                self.b.chklb(Reg::T1, -2, SP); // byte 6 of St[-1]
                self.b.ld(Reg::T1, -16, SP);
                self.b.ld(Reg::T2, -8, SP);
                self.b.li(Reg::T3, 0x1fff);
                self.b.srli(Reg::T4, Reg::T1, 51);
                self.b.bne(Reg::T4, Reg::T3, guard_chain);
                self.b.srli(Reg::T4, Reg::T2, 51);
                self.b.bne(Reg::T4, Reg::T3, guard_chain);
                self.unbox_signed(Reg::T1);
                self.unbox_signed(Reg::T2);
                self.emit_int_op(op, Reg::T1, Reg::T1, Reg::T2);
                self.b.emit(Instruction::Alu {
                    op: tarch_isa::AluOp::Addw,
                    rd: Reg::T2,
                    rs1: Reg::T1,
                    rs2: Reg::ZERO,
                });
                self.b.bne(Reg::T2, Reg::T1, guard_chain); // int32 overflow
                self.b.li(Reg::T2, box_prefix17(tag::INT));
                self.rebox(Reg::T1, Reg::T2, Reg::T3);
                self.b.sd(Reg::T1, -16, SP);
                self.b.addi(SP, SP, -8);
                self.next();
            }
            IsaLevel::Typed => {
                // Figure 3, NaN-boxing edition: extraction, TRT check, ALU
                // binding, overflow detection and re-boxing in hardware.
                self.b.tld(Reg::A2, -16, SP);
                self.b.tld(Reg::A3, -8, SP);
                self.b.thdl(guard_chain);
                match op {
                    Op::Add => self.b.xadd(Reg::A2, Reg::A2, Reg::A3),
                    Op::Sub => self.b.xsub(Reg::A2, Reg::A2, Reg::A3),
                    _ => self.b.xmul(Reg::A2, Reg::A2, Reg::A3),
                }
                self.b.tsd(Reg::A2, -16, SP);
                self.b.addi(SP, SP, -8);
                self.next();
            }
        }
        self.b.bind(guard_chain);
        self.emit_arith_guard_chain(op);
    }

    /// Software unboxing chain: Int×Int (with overflow→double), any
    /// numeric mix via the FP pipe, strings via the helper.
    fn emit_arith_guard_chain(&mut self, op: Op) {
        let not_int = self.b.new_label("jsa_not_int");
        let as_double = self.b.new_label("jsa_as_double");
        let slow = self.b.new_label("jsa_slow");
        let store_f = self.b.new_label("jsa_store_f");

        self.b.ld(Reg::T1, -16, SP);
        self.b.ld(Reg::T2, -8, SP);
        self.guard_prefix(Reg::T1, box_prefix17(tag::INT), Reg::T3, Reg::T4, not_int);
        self.b.srli(Reg::T3, Reg::T2, 47);
        self.b.bne(Reg::T3, Reg::T4, not_int);
        // Int × Int.
        self.unbox_signed(Reg::T1);
        self.unbox_signed(Reg::T2);
        self.emit_int_op(op, Reg::T5, Reg::T1, Reg::T2);
        self.b.emit(Instruction::Alu {
            op: tarch_isa::AluOp::Addw,
            rd: Reg::T6,
            rs1: Reg::T5,
            rs2: Reg::ZERO,
        });
        self.b.bne(Reg::T6, Reg::T5, as_double); // overflow → double result
        self.b.li(Reg::T2, box_prefix17(tag::INT));
        self.rebox(Reg::T5, Reg::T2, Reg::T3);
        self.b.sd(Reg::T5, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();

        // Overflowed Int×Int: redo in FP.
        self.b.bind(as_double);
        self.b.emit(Instruction::FcvtDL { rd: FReg::F2, rs1: Reg::T1 });
        self.b.emit(Instruction::FcvtDL { rd: FReg::F5, rs1: Reg::T2 });
        self.b.j(store_f);

        // Mixed / double operands.
        self.b.bind(not_int);
        self.emit_load_double(Reg::T1, FReg::F2, slow);
        self.emit_load_double(Reg::T2, FReg::F5, slow);

        self.b.bind(store_f);
        let fop = match op {
            Op::Add => FpuOp::Fadd,
            Op::Sub => FpuOp::Fsub,
            _ => FpuOp::Fmul,
        };
        self.b.emit(Instruction::Fpu { op: fop, rd: FReg::F5, rs1: FReg::F2, rs2: FReg::F5 });
        self.b.fsd(FReg::F5, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();

        self.b.bind(slow);
        self.call_arith_slow(op);
    }

    fn call_arith_slow(&mut self, op: Op) {
        self.b.li(Reg::A0, op as i64);
        self.b.addi(Reg::A1, SP, -16);
        self.b.addi(Reg::A2, SP, -16);
        self.b.addi(Reg::A3, SP, -8);
        self.ecall(helpers::ARITH_SLOW);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn emit_int_op(&mut self, op: Op, rd: Reg, rs1: Reg, rs2: Reg) {
        match op {
            Op::Add => self.b.add(rd, rs1, rs2),
            Op::Sub => self.b.sub(rd, rs1, rs2),
            _ => self.b.mul(rd, rs1, rs2),
        }
    }

    /// Loads the numeric value in `src` (raw dword) into an FP register:
    /// boxed Int → convert; unboxed → raw double; boxed non-Int → `slow`.
    fn emit_load_double(&mut self, src: Reg, dst: FReg, slow: Label) {
        let raw = self.b.new_label("jld_raw");
        let done = self.b.new_label("jld_done");
        self.b.srli(Reg::T3, src, 47);
        self.b.li(Reg::T4, box_prefix17(tag::INT));
        self.b.bne(Reg::T3, Reg::T4, raw);
        self.unbox_signed(src);
        self.b.emit(Instruction::FcvtDL { rd: dst, rs1: src });
        self.b.j(done);
        self.b.bind(raw);
        self.b.srli(Reg::T3, src, 51);
        self.b.li(Reg::T4, 0x1fff);
        self.b.beq(Reg::T3, Reg::T4, slow); // boxed non-int
        self.b.emit(Instruction::FmvDX { rd: dst, rs1: src });
        self.b.bind(done);
    }

    fn h_div(&mut self) {
        let slow = self.b.new_label("jsdiv_slow");
        self.b.ld(Reg::T1, -16, SP);
        self.b.ld(Reg::T2, -8, SP);
        self.emit_load_double(Reg::T1, FReg::F2, slow);
        self.emit_load_double(Reg::T2, FReg::F5, slow);
        self.b.emit(Instruction::Fpu {
            op: FpuOp::Fdiv,
            rd: FReg::F5,
            rs1: FReg::F2,
            rs2: FReg::F5,
        });
        self.b.fsd(FReg::F5, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
        self.b.bind(slow);
        self.call_arith_slow(Op::Div);
    }

    fn h_intdiv(&mut self, op: Op) {
        let slow = self.b.new_label("jsidiv_slow");
        let store = self.b.new_label("jsidiv_store");
        let dz = self.div_zero;
        self.b.ld(Reg::T1, -16, SP);
        self.b.ld(Reg::T2, -8, SP);
        self.guard_prefix(Reg::T1, box_prefix17(tag::INT), Reg::T3, Reg::T4, slow);
        self.b.srli(Reg::T3, Reg::T2, 47);
        self.b.bne(Reg::T3, Reg::T4, slow);
        self.unbox_signed(Reg::T1);
        self.unbox_signed(Reg::T2);
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
        // The quotient of two int32s always fits int32 except MIN//-1;
        // check and re-box (overflow falls back to the helper).
        self.b.emit(Instruction::Alu {
            op: tarch_isa::AluOp::Addw,
            rd: Reg::T6,
            rs1: Reg::T5,
            rs2: Reg::ZERO,
        });
        self.b.bne(Reg::T6, Reg::T5, slow);
        self.b.li(Reg::T2, box_prefix17(tag::INT));
        self.rebox(Reg::T5, Reg::T2, Reg::T3);
        self.b.sd(Reg::T5, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
        self.b.bind(slow);
        self.call_arith_slow(op);
    }

    fn h_concat(&mut self) {
        self.call_arith_slow(Op::Concat);
    }

    // --- comparisons ------------------------------------------------------

    fn h_cmp_eq(&mut self, op: Op) {
        let boxed_raw = self.b.new_label("jseq_raw");
        let doubles = self.b.new_label("jseq_dbl");
        let slow = self.b.new_label("jseq_slow");
        let store = self.b.new_label("jseq_store");
        self.b.ld(Reg::T1, -16, SP);
        self.b.ld(Reg::T2, -8, SP);
        self.b.srli(Reg::T3, Reg::T1, 47);
        self.b.srli(Reg::T4, Reg::T2, 47);
        self.b.bne(Reg::T3, Reg::T4, slow); // differing prefixes (incl. int/double mix)
        // Same prefix: boxed → raw compare; unboxed (both doubles) → FP.
        self.b.srli(Reg::T3, Reg::T1, 51);
        self.b.li(Reg::T4, 0x1fff);
        self.b.beq(Reg::T3, Reg::T4, boxed_raw);
        self.b.bind(doubles);
        self.b.emit(Instruction::FmvDX { rd: FReg::F2, rs1: Reg::T1 });
        self.b.emit(Instruction::FmvDX { rd: FReg::F5, rs1: Reg::T2 });
        self.b.emit(Instruction::FpCmp {
            op: FpCmpOp::Feq,
            rd: Reg::T5,
            rs1: FReg::F2,
            rs2: FReg::F5,
        });
        if op == Op::Ne {
            self.b.xori(Reg::T5, Reg::T5, 1);
        }
        self.b.j(store);
        self.b.bind(boxed_raw);
        self.b.xor(Reg::T5, Reg::T1, Reg::T2);
        if op == Op::Eq {
            self.b.seqz(Reg::T5, Reg::T5);
        } else {
            self.b.snez(Reg::T5, Reg::T5);
        }
        self.b.j(store);
        self.b.bind(slow);
        self.b.li(Reg::A0, op as i64);
        self.b.addi(Reg::A1, SP, -16);
        self.b.addi(Reg::A2, SP, -8);
        self.ecall(helpers::COMPARE_SLOW);
        self.b.mv(Reg::T5, Reg::A0);
        self.b.bind(store);
        // Box the boolean result.
        self.b.li(Reg::T2, box_prefix17(tag::BOOL));
        self.b.slli(Reg::T2, Reg::T2, 47);
        self.b.or(Reg::T5, Reg::T5, Reg::T2);
        self.b.sd(Reg::T5, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn h_cmp_ord(&mut self, op: Op) {
        let not_int = self.b.new_label("jsord_not_int");
        let slow = self.b.new_label("jsord_slow");
        let store = self.b.new_label("jsord_store");
        self.b.ld(Reg::T1, -16, SP);
        self.b.ld(Reg::T2, -8, SP);
        self.guard_prefix(Reg::T1, box_prefix17(tag::INT), Reg::T3, Reg::T4, not_int);
        self.b.srli(Reg::T3, Reg::T2, 47);
        self.b.bne(Reg::T3, Reg::T4, slow);
        self.unbox_signed(Reg::T1);
        self.unbox_signed(Reg::T2);
        if op == Op::Lt {
            self.b.slt(Reg::T5, Reg::T1, Reg::T2);
        } else {
            self.b.slt(Reg::T5, Reg::T2, Reg::T1);
            self.b.xori(Reg::T5, Reg::T5, 1);
        }
        self.b.j(store);
        self.b.bind(not_int);
        // Both raw doubles → FP compare; anything else → helper.
        self.b.srli(Reg::T3, Reg::T1, 51);
        self.b.li(Reg::T4, 0x1fff);
        self.b.beq(Reg::T3, Reg::T4, slow);
        self.b.srli(Reg::T3, Reg::T2, 51);
        self.b.beq(Reg::T3, Reg::T4, slow);
        self.b.emit(Instruction::FmvDX { rd: FReg::F2, rs1: Reg::T1 });
        self.b.emit(Instruction::FmvDX { rd: FReg::F5, rs1: Reg::T2 });
        let fop = if op == Op::Lt { FpCmpOp::Flt } else { FpCmpOp::Fle };
        self.b.emit(Instruction::FpCmp { op: fop, rd: Reg::T5, rs1: FReg::F2, rs2: FReg::F5 });
        self.b.j(store);
        self.b.bind(slow);
        self.b.li(Reg::A0, op as i64);
        self.b.addi(Reg::A1, SP, -16);
        self.b.addi(Reg::A2, SP, -8);
        self.ecall(helpers::COMPARE_SLOW);
        self.b.mv(Reg::T5, Reg::A0);
        self.b.bind(store);
        self.b.li(Reg::T2, box_prefix17(tag::BOOL));
        self.b.slli(Reg::T2, Reg::T2, 47);
        self.b.or(Reg::T5, Reg::T5, Reg::T2);
        self.b.sd(Reg::T5, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    // --- unary --------------------------------------------------------------

    /// Truthiness of `val`: branches to `falsy` when undefined or false.
    /// Clobbers `t3`, `t4`.
    fn emit_truthiness(&mut self, val: Reg, falsy: Label, truthy: Label) {
        self.b.srli(Reg::T3, val, 47);
        self.b.li(Reg::T4, box_prefix17(tag::UNDEF));
        self.b.beq(Reg::T3, Reg::T4, falsy);
        self.b.li(Reg::T4, box_prefix17(tag::BOOL));
        self.b.bne(Reg::T3, Reg::T4, truthy);
        self.b.andi(Reg::T4, val, 1);
        self.b.beqz(Reg::T4, falsy);
        self.b.j(truthy);
    }

    fn h_not(&mut self) {
        let falsy = self.b.new_label("jsnot_falsy");
        let truthy = self.b.new_label("jsnot_truthy");
        let store = self.b.new_label("jsnot_store");
        self.b.ld(Reg::T1, -8, SP);
        self.emit_truthiness(Reg::T1, falsy, truthy);
        self.b.bind(truthy);
        self.b.li(Reg::T5, 0);
        self.b.j(store);
        self.b.bind(falsy);
        self.b.li(Reg::T5, 1);
        self.b.bind(store);
        self.b.li(Reg::T2, box_prefix17(tag::BOOL));
        self.b.slli(Reg::T2, Reg::T2, 47);
        self.b.or(Reg::T5, Reg::T5, Reg::T2);
        self.b.sd(Reg::T5, -8, SP);
        self.next();
    }

    fn h_neg(&mut self) {
        let raw = self.b.new_label("jsneg_raw");
        let slow = self.b.new_label("jsneg_slow");
        self.b.ld(Reg::T1, -8, SP);
        self.b.srli(Reg::T3, Reg::T1, 47);
        self.b.li(Reg::T4, box_prefix17(tag::INT));
        self.b.bne(Reg::T3, Reg::T4, raw);
        self.unbox_signed(Reg::T1);
        self.b.neg(Reg::T1, Reg::T1);
        // -INT32_MIN overflows int32.
        self.b.emit(Instruction::Alu {
            op: tarch_isa::AluOp::Addw,
            rd: Reg::T2,
            rs1: Reg::T1,
            rs2: Reg::ZERO,
        });
        self.b.bne(Reg::T2, Reg::T1, slow);
        self.b.li(Reg::T2, box_prefix17(tag::INT));
        self.rebox(Reg::T1, Reg::T2, Reg::T3);
        self.b.sd(Reg::T1, -8, SP);
        self.next();
        self.b.bind(raw);
        self.b.srli(Reg::T3, Reg::T1, 51);
        self.b.li(Reg::T4, 0x1fff);
        self.b.beq(Reg::T3, Reg::T4, slow); // boxed non-int
        self.b.li(Reg::T2, 1);
        self.b.slli(Reg::T2, Reg::T2, 63);
        self.b.xor(Reg::T1, Reg::T1, Reg::T2);
        self.b.sd(Reg::T1, -8, SP);
        self.next();
        self.b.bind(slow);
        self.b.addi(Reg::A1, SP, -8);
        self.b.addi(Reg::A2, SP, -8);
        self.ecall(helpers::NEG_SLOW);
        self.next();
    }

    fn h_len(&mut self) {
        let slow = self.b.new_label("jslen_slow");
        self.b.ld(Reg::T1, -8, SP);
        self.guard_prefix(Reg::T1, box_prefix17(tag::OBJECT), Reg::T3, Reg::T4, slow);
        self.unbox_unsigned(Reg::T1);
        self.b.ld(Reg::T5, object::ARR_LEN, Reg::T1);
        self.b.li(Reg::T2, box_prefix17(tag::INT));
        self.rebox(Reg::T5, Reg::T2, Reg::T3);
        self.b.sd(Reg::T5, -8, SP);
        self.next();
        self.b.bind(slow);
        self.b.addi(Reg::A1, SP, -8);
        self.b.addi(Reg::A2, SP, -8);
        self.ecall(helpers::LEN_SLOW);
        self.next();
    }

    // --- control flow ----------------------------------------------------------

    fn h_jcond(&mut self, op: Op) {
        let falsy = self.b.new_label("jsjc_falsy");
        let truthy = self.b.new_label("jsjc_truthy");
        self.decode_offset(Reg::T1);
        self.pop(Reg::T2);
        self.emit_truthiness(Reg::T2, falsy, truthy);
        let (jump_side, fall_side) = if op == Op::JIf { (truthy, falsy) } else { (falsy, truthy) };
        self.b.bind(jump_side);
        self.b.add(PC, PC, Reg::T1);
        self.next();
        self.b.bind(fall_side);
        self.next();
    }

    // --- elements --------------------------------------------------------------

    fn h_getelem(&mut self) {
        let slow = self.b.new_label("jsge_slow");
        match self.level {
            IsaLevel::Baseline => {
                self.b.ld(Reg::T1, -16, SP); // obj
                self.b.ld(Reg::T2, -8, SP); // key
                self.guard_prefix(Reg::T1, box_prefix17(tag::OBJECT), Reg::T3, Reg::T4, slow);
                self.guard_prefix(Reg::T2, box_prefix17(tag::INT), Reg::T3, Reg::T4, slow);
                self.unbox_unsigned(Reg::T1);
                self.unbox_signed(Reg::T2);
                self.elem_get(Reg::T1, Reg::T2, slow);
            }
            IsaLevel::CheckedLoad => {
                self.b.thdl(slow);
                self.b.li(Reg::T3, layout::chk_byte(tag::OBJECT) as i64);
                self.b.emit(Instruction::SetSpr { spr: tarch_isa::Spr::ExpType, rs1: Reg::T3 });
                self.b.chklb(Reg::T4, -10, SP);
                self.b.li(Reg::T3, layout::chk_byte(tag::INT) as i64);
                self.b.emit(Instruction::SetSpr { spr: tarch_isa::Spr::ExpType, rs1: Reg::T3 });
                self.b.chklb(Reg::T4, -2, SP);
                self.b.ld(Reg::T1, -16, SP);
                self.b.ld(Reg::T2, -8, SP);
                // Box-prefix backstops.
                self.b.li(Reg::T3, 0x1fff);
                self.b.srli(Reg::T4, Reg::T1, 51);
                self.b.bne(Reg::T4, Reg::T3, slow);
                self.b.srli(Reg::T4, Reg::T2, 51);
                self.b.bne(Reg::T4, Reg::T3, slow);
                self.unbox_unsigned(Reg::T1);
                self.unbox_signed(Reg::T2);
                self.elem_get(Reg::T1, Reg::T2, slow);
            }
            IsaLevel::Typed => {
                self.b.tld(Reg::A2, -16, SP); // obj: tag 6, payload = header
                self.b.tld(Reg::A3, -8, SP); // key: tag 1, payload = index
                self.b.thdl(slow);
                self.b.tchk(Reg::A2, Reg::A3);
                self.elem_get(Reg::A2, Reg::A3, slow);
            }
        }
        self.b.bind(slow);
        self.b.addi(Reg::A1, SP, -16);
        self.b.addi(Reg::A2, SP, -16);
        self.b.addi(Reg::A3, SP, -8);
        self.ecall(helpers::GETELEM_SLOW);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn h_setelem(&mut self) {
        // Stack: [obj, key, val] at SP-24, SP-16, SP-8.
        let slow = self.b.new_label("jsse_slow");
        match self.level {
            IsaLevel::Baseline | IsaLevel::CheckedLoad => {
                if self.level == IsaLevel::Baseline {
                    self.b.ld(Reg::T1, -24, SP);
                    self.b.ld(Reg::T2, -16, SP);
                    self.guard_prefix(Reg::T1, box_prefix17(tag::OBJECT), Reg::T3, Reg::T4, slow);
                    self.guard_prefix(Reg::T2, box_prefix17(tag::INT), Reg::T3, Reg::T4, slow);
                } else {
                    self.b.thdl(slow);
                    self.b.li(Reg::T3, layout::chk_byte(tag::OBJECT) as i64);
                    self.b.emit(Instruction::SetSpr { spr: tarch_isa::Spr::ExpType, rs1: Reg::T3 });
                    self.b.chklb(Reg::T4, -18, SP);
                    self.b.li(Reg::T3, layout::chk_byte(tag::INT) as i64);
                    self.b.emit(Instruction::SetSpr { spr: tarch_isa::Spr::ExpType, rs1: Reg::T3 });
                    self.b.chklb(Reg::T4, -10, SP);
                    self.b.ld(Reg::T1, -24, SP);
                    self.b.ld(Reg::T2, -16, SP);
                    self.b.li(Reg::T3, 0x1fff);
                    self.b.srli(Reg::T4, Reg::T1, 51);
                    self.b.bne(Reg::T4, Reg::T3, slow);
                    self.b.srli(Reg::T4, Reg::T2, 51);
                    self.b.bne(Reg::T4, Reg::T3, slow);
                }
                self.unbox_unsigned(Reg::T1);
                self.unbox_signed(Reg::T2);
            }
            IsaLevel::Typed => {
                self.b.tld(Reg::A2, -24, SP);
                self.b.tld(Reg::A3, -16, SP);
                self.b.thdl(slow);
                self.b.tchk(Reg::A2, Reg::A3);
                self.b.mv(Reg::T1, Reg::A2);
                self.b.mv(Reg::T2, Reg::A3);
            }
        }
        self.elem_set(Reg::T1, Reg::T2, slow, "jsse");
        self.b.bind(slow);
        self.b.addi(Reg::A1, SP, -24);
        self.b.addi(Reg::A2, SP, -16);
        self.b.addi(Reg::A3, SP, -8);
        self.ecall(helpers::SETELEM_SLOW);
        self.b.addi(SP, SP, -24);
        self.next();
    }

    // --- globals and builtin calls -----------------------------------------

    fn h_getglobal(&mut self) {
        self.decode_uimm(Reg::A2);
        self.b.slli(Reg::A2, Reg::A2, 3);
        self.b.add(Reg::A2, Reg::A2, KB);
        self.b.mv(Reg::A1, SP);
        self.ecall(helpers::GETGLOBAL);
        self.b.addi(SP, SP, 8);
        self.next();
    }

    fn h_setglobal(&mut self) {
        self.decode_uimm(Reg::A2);
        self.b.slli(Reg::A2, Reg::A2, 3);
        self.b.add(Reg::A2, Reg::A2, KB);
        self.b.addi(Reg::A1, SP, -8);
        self.ecall(helpers::SETGLOBAL);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    fn h_callb(&mut self) {
        // a1 = args base = SP - nargs*8; result written there.
        self.b.srli(Reg::A3, W, 16);
        self.b.andi(Reg::A3, Reg::A3, 0xff);
        self.b.slli(Reg::T2, Reg::A3, 3);
        self.b.sub(Reg::A1, SP, Reg::T2);
        self.b.slli(Reg::A2, W, 48);
        self.b.srli(Reg::A2, Reg::A2, 48);
        self.ecall(helpers::BUILTIN);
        // sp = args base + 1 slot.
        self.b.addi(SP, Reg::A1, 8);
        self.next();
    }

    fn h_ret(&mut self, op: Op) {
        if op == Op::RetV {
            self.b.ld(Reg::T1, -8, SP);
        } else {
            self.b.li(Reg::T1, box_prefix17(tag::UNDEF));
            self.b.slli(Reg::T1, Reg::T1, 47);
        }
        self.ret_tail();
    }
}
