//! TRV64 code generator for the `wasmrt` typed-stack interpreter.
//!
//! Same threaded-dispatch architecture as `luart` and `jsrt` — one handler
//! per opcode, indirect jump through a dispatch table — with one deliberate
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
//! The frame machinery (function table, call-info stack, combined
//! locals+operand stack) mirrors `jsrt` exactly so the host-side
//! accelerations — predecode, superblock compilation, tiered execution,
//! PGO — apply to this engine unchanged.

use crate::bytecode::{Bc, Const, Module, Op};
use crate::helpers_mod as helpers;
use crate::layout::{callinfo, funcinfo, map, object, NIL};
use tarch_core::IsaLevel;
use tarch_isa::asm::{AsmError, Label, ProgramBuilder};
use tarch_isa::{FReg, FpCmpOp, FpuOp, Instruction, Reg};
use tarch_sim::{Image, StringTable};

/// VM pc.
const PC: Reg = Reg::S0;
/// Locals base.
const LOCALS: Reg = Reg::S1;
/// Constants base.
const KB: Reg = Reg::S2;
/// Dispatch table.
const DT: Reg = Reg::S3;
/// CallInfo stack pointer.
const CI: Reg = Reg::S4;
/// Function table.
const FT: Reg = Reg::S5;
/// Operand stack pointer (points one past TOS; grows upward).
const SP: Reg = Reg::S6;
/// Value stack limit.
const STK_LIM: Reg = Reg::S7;
/// Globals base (static typed global slots in DATA).
const GB: Reg = Reg::S8;
/// CallInfo stack limit.
const CI_LIM: Reg = Reg::S11;
/// Current bytecode word.
const W: Reg = Reg::T0;

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
    let mut g = Gen::new(module, level);
    g.emit_entry();
    g.emit_dispatch();
    g.emit_handlers();
    g.emit_data();
    g.finish()
}

struct Gen<'a> {
    b: ProgramBuilder,
    module: &'a Module,
    level: IsaLevel,
    dispatch: Label,
    handler_labels: Vec<(Op, Label)>,
    stack_ov: Label,
    div_zero: Label,
    strings: StringTable,
    func_code: Vec<Label>,
    func_consts: Vec<Label>,
    dispatch_table: Label,
    functable: Label,
    halt_bc: Label,
    globals_area: Label,
}

impl<'a> Gen<'a> {
    fn new(module: &'a Module, level: IsaLevel) -> Gen<'a> {
        let mut b = ProgramBuilder::new(map::TEXT_BASE, map::DATA_BASE);
        let dispatch = b.new_label("dispatch");
        let stack_ov = b.new_label("stack_overflow");
        let div_zero = b.new_label("div_zero");
        let handler_labels =
            Op::ALL.iter().map(|op| (*op, b.new_label(&format!("op_{}", op.name())))).collect();
        let func_code =
            (0..module.protos.len()).map(|i| b.new_label(&format!("code_{i}"))).collect();
        let func_consts =
            (0..module.protos.len()).map(|i| b.new_label(&format!("consts_{i}"))).collect();
        let dispatch_table = b.new_label("dispatch_table");
        let functable = b.new_label("functable");
        let halt_bc = b.new_label("halt_bc");
        let globals_area = b.new_label("globals_area");
        Gen {
            b,
            module,
            level,
            dispatch,
            handler_labels,
            stack_ov,
            div_zero,
            strings: StringTable::default(),
            func_code,
            func_consts,
            dispatch_table,
            functable,
            halt_bc,
            globals_area,
        }
    }

    fn handler(&self, op: Op) -> Label {
        self.handler_labels.iter().find(|(o, _)| *o == op).expect("all ops labelled").1
    }

    fn next(&mut self) {
        let d = self.dispatch;
        self.b.j(d);
    }

    fn ecall(&mut self, id: u64) {
        self.b.li(Reg::A7, id as i64);
        self.b.ecall();
    }

    /// `dst = sign-extended 24-bit operand`.
    fn decode_imm(&mut self, dst: Reg) {
        self.b.slli(dst, W, 40);
        self.b.srai(dst, dst, 40);
    }

    /// `dst = zero-extended 24-bit operand`.
    fn decode_uimm(&mut self, dst: Reg) {
        self.b.slli(dst, W, 40);
        self.b.srli(dst, dst, 40);
    }

    /// `dst = sign-extended operand * 4` (jump offset in bytes).
    fn decode_offset(&mut self, dst: Reg) {
        self.b.slli(dst, W, 40);
        self.b.srai(dst, dst, 38);
    }

    /// Push the value in `src`.
    fn push(&mut self, src: Reg) {
        self.b.sd(src, 0, SP);
        self.b.addi(SP, SP, 8);
    }

    /// Pop into `dst`.
    fn pop(&mut self, dst: Reg) {
        self.b.addi(SP, SP, -8);
        self.b.ld(dst, 0, SP);
    }

    /// `dst = NIL` (the sentinel is `1 << 63`).
    fn li_nil(&mut self, dst: Reg) {
        self.b.li(dst, 1);
        self.b.slli(dst, dst, 63);
    }

    fn emit_entry(&mut self) {
        self.b.set_entry_here();
        // No SPR/TRT programming at any level: the image contains no typed
        // loads, no checked loads, and no guarded ALU ops. This entry (and
        // everything after it) is identical across Baseline / CheckedLoad /
        // Typed.
        let (dt, ft, hb, gb) =
            (self.dispatch_table, self.functable, self.halt_bc, self.globals_area);
        self.b.la(DT, dt);
        self.b.la(FT, ft);
        self.b.la(GB, gb);
        self.b.li(CI, map::CI_BASE as i64);
        self.b.li(CI_LIM, map::CI_LIMIT as i64);
        self.b.li(STK_LIM, map::STACK_LIMIT as i64);
        self.b.li(LOCALS, map::STACK_BASE as i64);
        let main = &self.module.protos[self.module.main];
        self.b.li(SP, (map::STACK_BASE + main.nlocals as u64 * 8) as i64);
        let (mc, mk) = (self.func_code[self.module.main], self.func_consts[self.module.main]);
        self.b.la(KB, mk);
        self.b.la(PC, mc);
        self.b.la(Reg::T1, hb);
        self.b.sd(Reg::T1, callinfo::RET_PC, CI);
        self.b.sd(LOCALS, callinfo::RET_LOCALS, CI);
        self.b.sd(KB, callinfo::RET_CONSTS, CI);
        self.b.addi(CI, CI, callinfo::STRIDE as i32);
        self.next();

        let so = self.stack_ov;
        self.b.bind(so);
        self.b.li(Reg::A0, helpers::errcode::STACK_OVERFLOW as i64);
        self.ecall(helpers::ERROR);
        self.b.halt();
        let dz = self.div_zero;
        self.b.bind(dz);
        self.b.li(Reg::A0, helpers::errcode::DIV_BY_ZERO as i64);
        self.ecall(helpers::ERROR);
        self.b.halt();
    }

    fn emit_dispatch(&mut self) {
        let d = self.dispatch;
        self.b.bind(d);
        self.b.lwu(W, 0, PC);
        self.b.addi(PC, PC, 4);
        self.b.srli(Reg::T1, W, 24);
        self.b.slli(Reg::T1, Reg::T1, 3);
        self.b.add(Reg::T1, Reg::T1, DT);
        self.b.ld(Reg::T1, 0, Reg::T1);
        self.b.jr(Reg::T1);
    }

    fn emit_handlers(&mut self) {
        for op in Op::ALL {
            let label = self.handler(op);
            self.b.bind(label);
            match op {
                Op::ConstK => self.h_constk(),
                Op::ConstI => self.h_consti(),
                Op::ConstNil => self.h_constnil(),
                Op::LocalGet => self.h_localget(),
                Op::LocalSet => self.h_localset(),
                Op::Pop => {
                    self.b.addi(SP, SP, -8);
                    self.next();
                }
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
                Op::Br => self.h_br(),
                Op::BrIf | Op::BrIfNot => self.h_brcond(op),
                Op::ALen => self.h_alen(),
                Op::SLen => self.h_slen(),
                Op::Concat => self.h_concat(),
                Op::NewArr => self.h_newarr(),
                Op::ArrGet => self.h_arrget(),
                Op::ArrSet => self.h_arrset(),
                Op::MapGet => self.h_mapget(),
                Op::MapSet => self.h_mapset(),
                Op::GlobalGet => self.h_globalget(),
                Op::GlobalSet => self.h_globalset(),
                Op::Call => self.h_call(),
                Op::CallB => self.h_callb(),
                Op::Ret | Op::RetV => self.h_ret(op),
                Op::Halt => self.b.halt(),
            }
        }
    }

    // --- stack & constants ---------------------------------------------

    fn h_constk(&mut self) {
        self.decode_uimm(Reg::T1);
        self.b.slli(Reg::T1, Reg::T1, 3);
        self.b.add(Reg::T1, Reg::T1, KB);
        self.b.ld(Reg::T2, 0, Reg::T1);
        self.push(Reg::T2);
        self.next();
    }

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

    fn h_localget(&mut self) {
        self.decode_uimm(Reg::T1);
        self.b.slli(Reg::T1, Reg::T1, 3);
        self.b.add(Reg::T1, Reg::T1, LOCALS);
        self.b.ld(Reg::T2, 0, Reg::T1);
        self.push(Reg::T2);
        self.next();
    }

    fn h_localset(&mut self) {
        self.decode_uimm(Reg::T1);
        self.b.slli(Reg::T1, Reg::T1, 3);
        self.b.add(Reg::T1, Reg::T1, LOCALS);
        self.pop(Reg::T2);
        self.b.sd(Reg::T2, 0, Reg::T1);
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

    fn h_br(&mut self) {
        self.decode_offset(Reg::T1);
        self.b.add(PC, PC, Reg::T1);
        self.next();
    }

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

    fn h_newarr(&mut self) {
        self.decode_uimm(Reg::A2);
        self.b.mv(Reg::A1, SP);
        self.ecall(helpers::NEWARR);
        self.b.addi(SP, SP, 8);
        self.next();
    }

    /// `elem = elems_ptr + (key-1)*8`, bounds-checked. Clobbers T5.
    fn emit_elem_index(&mut self, hdr: Reg, key: Reg, elem: Reg, slow: Label) {
        self.b.ld(Reg::T5, object::ARR_LEN, hdr);
        self.b.addi(elem, key, -1);
        self.b.bgeu(elem, Reg::T5, slow);
        self.b.ld(Reg::T5, object::ARR_PTR, hdr);
        self.b.slli(elem, elem, 3);
        self.b.add(elem, elem, Reg::T5);
    }

    fn h_arrget(&mut self) {
        let slow = self.b.new_label("wag_slow");
        self.b.ld(Reg::T1, -16, SP);
        self.b.ld(Reg::T2, -8, SP);
        self.emit_elem_index(Reg::T1, Reg::T2, Reg::T6, slow);
        self.b.ld(Reg::T3, 0, Reg::T6);
        self.b.sd(Reg::T3, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
        self.b.bind(slow);
        self.b.addi(Reg::A1, SP, -16);
        self.b.li(Reg::A2, helpers::keykind::INT as i64);
        self.ecall(helpers::ELEM_GET);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    /// Dense write with in-place append, like `luart`'s and `jsrt`'s.
    fn emit_setelem_bounds(&mut self, hdr: Reg, key: Reg, elem: Reg, slow: Label, store: Label) {
        let in_range = self.b.new_label("was_in_range");
        self.b.ld(Reg::T5, object::ARR_LEN, hdr);
        self.b.addi(elem, key, -1);
        self.b.bltu(elem, Reg::T5, in_range);
        self.b.bne(elem, Reg::T5, slow);
        self.b.ld(Reg::T4, object::ARR_CAP, hdr);
        self.b.bgeu(Reg::T5, Reg::T4, slow);
        self.b.addi(Reg::T5, Reg::T5, 1);
        self.b.sd(Reg::T5, object::ARR_LEN, hdr);
        self.b.bind(in_range);
        self.b.ld(Reg::T5, object::ARR_PTR, hdr);
        self.b.slli(elem, elem, 3);
        self.b.add(elem, elem, Reg::T5);
        self.b.j(store);
    }

    fn h_arrset(&mut self) {
        // Stack: [tab, key, val] at SP-24, SP-16, SP-8.
        let slow = self.b.new_label("was_slow");
        let store = self.b.new_label("was_store");
        self.b.ld(Reg::T1, -24, SP);
        self.b.ld(Reg::T2, -16, SP);
        self.emit_setelem_bounds(Reg::T1, Reg::T2, Reg::T6, slow, store);
        self.b.bind(store);
        self.b.ld(Reg::T3, -8, SP);
        self.b.sd(Reg::T3, 0, Reg::T6);
        self.b.addi(SP, SP, -24);
        self.next();
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

    // --- globals ----------------------------------------------------------

    fn h_globalget(&mut self) {
        // Statically resolved slot: two ALU ops + a load. jsrt needs a
        // host call and a name lookup here.
        self.decode_uimm(Reg::T1);
        self.b.slli(Reg::T1, Reg::T1, 3);
        self.b.add(Reg::T1, Reg::T1, GB);
        self.b.ld(Reg::T2, 0, Reg::T1);
        self.push(Reg::T2);
        self.next();
    }

    fn h_globalset(&mut self) {
        self.decode_uimm(Reg::T1);
        self.b.slli(Reg::T1, Reg::T1, 3);
        self.b.add(Reg::T1, Reg::T1, GB);
        self.pop(Reg::T2);
        self.b.sd(Reg::T2, 0, Reg::T1);
        self.next();
    }

    // --- calls ------------------------------------------------------------

    fn h_call(&mut self) {
        let ov = self.stack_ov;
        self.b.bgeu(CI, CI_LIM, ov);
        self.b.sd(PC, callinfo::RET_PC, CI);
        self.b.sd(LOCALS, callinfo::RET_LOCALS, CI);
        self.b.sd(KB, callinfo::RET_CONSTS, CI);
        self.b.addi(CI, CI, callinfo::STRIDE as i32);
        // nargs (3 bits at 16) → new locals base.
        self.b.srli(Reg::T2, W, 16);
        self.b.andi(Reg::T2, Reg::T2, 0x7);
        self.b.slli(Reg::T2, Reg::T2, 3);
        self.b.sub(LOCALS, SP, Reg::T2);
        // Callee FuncInfo.
        self.b.slli(Reg::T3, W, 48);
        self.b.srli(Reg::T3, Reg::T3, 48);
        self.b.slli(Reg::T3, Reg::T3, 5);
        self.b.add(Reg::T3, Reg::T3, FT);
        self.b.ld(PC, funcinfo::CODE, Reg::T3);
        self.b.ld(KB, funcinfo::CONSTS, Reg::T3);
        self.b.ld(Reg::T4, funcinfo::NLOCALS, Reg::T3);
        self.b.slli(Reg::T4, Reg::T4, 3);
        self.b.add(SP, LOCALS, Reg::T4);
        self.b.ld(Reg::T4, funcinfo::FRAME, Reg::T3);
        self.b.slli(Reg::T4, Reg::T4, 3);
        self.b.add(Reg::T4, Reg::T4, LOCALS);
        self.b.bgeu(Reg::T4, STK_LIM, ov);
        self.next();
    }

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
        self.b.mv(Reg::T2, LOCALS); // callee locals base = result slot
        self.b.addi(CI, CI, -(callinfo::STRIDE as i32));
        self.b.ld(PC, callinfo::RET_PC, CI);
        self.b.ld(LOCALS, callinfo::RET_LOCALS, CI);
        self.b.ld(KB, callinfo::RET_CONSTS, CI);
        self.b.sd(Reg::T1, 0, Reg::T2);
        self.b.addi(SP, Reg::T2, 8);
        self.next();
    }

    // --- data -------------------------------------------------------------

    fn emit_data(&mut self) {
        self.b.align_data(8);
        let dt = self.dispatch_table;
        self.b.bind_data(dt);
        for op in Op::ALL {
            let h = self.handler(op);
            self.b.dword_label(h);
        }
        let ft = self.functable;
        self.b.bind_data(ft);
        for i in 0..self.module.protos.len() {
            let (c, k) = (self.func_code[i], self.func_consts[i]);
            let p = &self.module.protos[i];
            self.b.dword_label(c);
            self.b.dword_label(k);
            self.b.dword(p.nlocals as u64);
            self.b.dword(p.nlocals as u64 + p.max_stack as u64 + 1);
        }
        let hb = self.halt_bc;
        self.b.bind_data(hb);
        let halt_word = Bc::new(Op::Halt, 0).encode();
        self.b.bytes(&halt_word.to_le_bytes());
        self.b.bytes(&halt_word.to_le_bytes());

        // Typed global slots, initialized to NIL.
        let ga = self.globals_area;
        self.b.bind_data(ga);
        for _ in 0..self.module.globals.len().max(1) {
            self.b.dword(NIL);
        }

        for i in 0..self.module.protos.len() {
            self.b.align_data(8);
            let cl = self.func_code[i];
            self.b.bind_data(cl);
            let words: Vec<u8> = self.module.protos[i]
                .code
                .iter()
                .flat_map(|bc| bc.encode().to_le_bytes())
                .collect();
            self.b.bytes(&words);
            self.b.align_data(8);
            let kl = self.func_consts[i];
            self.b.bind_data(kl);
            let consts = self.module.protos[i].consts.clone();
            for k in &consts {
                // Raw untagged dwords: full-width i64, IEEE bits, string id.
                let dword = match k {
                    Const::Int(v) => *v as u64,
                    Const::Float(v) => v.to_bits(),
                    Const::Str(s) => self.strings.intern(s) as u64,
                };
                self.b.dword(dword);
            }
        }
    }

    fn finish(self) -> Result<WasmImage, AsmError> {
        Image::finish(self.b, self.strings.into_strings(), self.level)
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
