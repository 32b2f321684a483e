//! The interpreter-image skeleton every engine's code generator drives.
//!
//! Porting an interpreter to the Typed Architecture changes only its hot
//! handlers and the SPR and Type Rule Table values it sets at start-up
//! (paper Tables 3–5); the dispatch loop, the call frames and the data
//! tables stay as they were. [`Skeleton`] is that unchanged part, written
//! once for `luart`, `jsrt` and `wasmrt`: the memory map, the function-
//! and call-info records, the pinned registers, the prologue, the error
//! stubs, the dispatch loop and the data section. An engine's
//! `build_image` drives it in order:
//!
//! 1. [`Skeleton::prologue`]: entry point, type configuration, table bases;
//! 2. [`Skeleton::frames`]: stacks, the bottom frame, the error stubs;
//! 3. [`Skeleton::dispatch_loop`], given the opcode field position;
//! 4. per opcode, [`Skeleton::bind_handler`] and the engine's handler;
//! 5. [`Skeleton::tables`] and [`Skeleton::functions`]: the data section,
//!    with the engine's function-info words and constant encoding;
//! 6. [`Skeleton::finish`].
//!
//! `wasmrt` loads its globals base after step 1 and emits its globals
//! area between the two calls of step 5. The two stack engines, `jsrt`
//! and `wasmrt`, also share their operand decode, operand stack,
//! constants, locals, jumps, calls, returns and dense element access, in
//! the last part of this module.
//!
//! The module lives in `luart`, beside [`crate::native`] whose table
//! header and error codes it uses; `jsrt` and `wasmrt` already depend on
//! `luart`.

use crate::native::{errcode, table};
use tarch_core::{IsaLevel, SprState};
use tarch_isa::asm::{AsmError, Label, ProgramBuilder};
use tarch_isa::{Instruction, Reg, Spr, TrtRule};
use tarch_sim::{Image, Opcode, StringTable};

/// Memory map of every engine inside the simulated machine.
pub mod map {
    /// Interpreter text.
    pub const TEXT_BASE: u64 = 0x0001_0000;
    /// Static data: dispatch table, function table, bytecode, constants.
    pub const DATA_BASE: u64 = 0x0040_0000;
    /// Value stack: `luart`'s register frames, the stack engines' locals
    /// and operand stacks.
    pub const STACK_BASE: u64 = 0x0100_0000;
    /// Value-stack overflow limit.
    pub const STACK_LIMIT: u64 = 0x017f_0000;
    /// CallInfo stack.
    pub const CI_BASE: u64 = 0x0180_0000;
    /// CallInfo overflow limit.
    pub const CI_LIMIT: u64 = 0x01a0_0000;
    /// Bump-allocated heap (GC is off, as in the paper's runs), shared by
    /// every engine's host.
    pub use tarch_sim::{HEAP_BASE, HEAP_LIMIT};
}

/// Function-info record offsets (32-byte records in the data section).
pub mod funcinfo {
    /// Address of the function's bytecode.
    pub const CODE: i32 = 0;
    /// Address of the function's constant table.
    pub const CONSTS: i32 = 8;
    /// First engine word: `luart`'s frame size in registers, the stack
    /// engines' local count.
    pub const WORD0: i32 = 16;
    /// Second engine word: reserved in `luart`, the stack engines' frame
    /// size (locals + max operand stack + 1) in slots.
    pub const WORD1: i32 = 24;
    /// Record stride (power of two for cheap indexing).
    pub const STRIDE: u64 = 32;
}

/// Call-info record offsets (32-byte frames on the CallInfo stack).
pub mod callinfo {
    /// Saved VM pc.
    pub const RET_PC: i32 = 0;
    /// Saved frame base.
    pub const RET_BASE: i32 = 8;
    /// Saved constants base.
    pub const RET_CONSTS: i32 = 16;
    /// Frame stride.
    pub const STRIDE: u64 = 32;
}

// Registers every engine pins.
/// VM program counter (byte address of the next bytecode).
pub const PC: Reg = Reg::S0;
/// Frame base: `luart`'s `R(0)`, the stack engines' first local.
pub const BASE: Reg = Reg::S1;
/// Constants base of the current function.
pub const KB: Reg = Reg::S2;
/// Dispatch table base.
pub const DT: Reg = Reg::S3;
/// CallInfo stack pointer.
pub const CI: Reg = Reg::S4;
/// Function table base.
pub const FT: Reg = Reg::S5;
/// Value stack limit.
pub const STK_LIM: Reg = Reg::S7;
/// Current bytecode word (set by the dispatch loop).
pub const W: Reg = Reg::T0;
/// Operand stack pointer of the stack engines (one past the top; grows
/// upward).
pub const SP: Reg = Reg::S6;

/// What a typed engine programs at start-up.
#[derive(Debug)]
pub struct TypeSetup {
    /// The `R_exptype` value the Checked Load build keeps pinned between
    /// checks (its fixed fast-path type); handlers that check other types
    /// restore it afterwards.
    pub exptype: u8,
    /// The SPR settings of the Typed build (paper Table 4).
    pub spr: SprState,
    /// The Type Rule Table contents of the Typed build (paper Table 5).
    pub trt: Vec<TrtRule>,
}

/// One function's entry in the data section, encoded by its engine.
#[derive(Debug)]
pub struct Function {
    /// The two engine words of its function-info record
    /// ([`funcinfo::WORD0`], [`funcinfo::WORD1`]).
    pub info: [u64; 2],
    /// Its bytecode words.
    pub code: Vec<u32>,
    /// Its constant table, in dwords.
    pub consts: Vec<u64>,
}

/// The function-info words of a stack-engine function, as
/// [`Skeleton::call`] reads them: its local count and its frame size in
/// slots (locals + max operand stack + 1).
pub fn stack_frame_info(nlocals: u16, max_stack: u16) -> [u64; 2] {
    let n = u64::from(nlocals);
    [n, n + u64::from(max_stack) + 1]
}

/// The interpreter image under construction: the program builder, the
/// interned strings and the labels every engine's image has.
#[derive(Debug)]
pub struct Skeleton<Op> {
    /// The program builder the handlers emit into.
    pub b: ProgramBuilder,
    /// Strings interned by the constant tables.
    pub strings: StringTable,
    /// The ISA level the image is built for.
    pub level: IsaLevel,
    /// Stack-overflow stub.
    pub stack_ov: Label,
    /// Divide-by-zero stub.
    pub div_zero: Label,
    ci_lim: Reg,
    dispatch: Label,
    handlers: Vec<(Op, Label)>,
    code: Vec<Label>,
    consts: Vec<Label>,
    dispatch_table: Label,
    functable: Label,
    halt_bc: Label,
}

impl<Op: Opcode> Skeleton<Op> {
    /// A skeleton for `nfuncs` functions at `level`, with the CallInfo
    /// stack limit pinned in `ci_lim`.
    pub fn new(level: IsaLevel, nfuncs: usize, ci_lim: Reg) -> Skeleton<Op> {
        let mut b = ProgramBuilder::new(map::TEXT_BASE, map::DATA_BASE);
        let dispatch = b.new_label("dispatch");
        let stack_ov = b.new_label("stack_overflow");
        let div_zero = b.new_label("div_zero");
        let handlers =
            Op::ALL.iter().map(|&op| (op, b.new_label(&format!("op_{}", op.name())))).collect();
        let code = (0..nfuncs).map(|i| b.new_label(&format!("code_{i}"))).collect();
        let consts = (0..nfuncs).map(|i| b.new_label(&format!("consts_{i}"))).collect();
        let dispatch_table = b.new_label("dispatch_table");
        let functable = b.new_label("functable");
        let halt_bc = b.new_label("halt_bc");
        Skeleton {
            b,
            strings: StringTable::default(),
            level,
            stack_ov,
            div_zero,
            ci_lim,
            dispatch,
            handlers,
            code,
            consts,
            dispatch_table,
            functable,
            halt_bc,
        }
    }

    fn handler(&self, op: Op) -> Label {
        self.handlers.iter().find(|(o, _)| *o == op).expect("all ops labelled").1
    }

    /// `j dispatch`.
    pub fn next(&mut self) {
        let d = self.dispatch;
        self.b.j(d);
    }

    /// Emits an `ecall` to a native helper (id in `a7`).
    pub fn ecall(&mut self, id: u64) {
        self.b.li(Reg::A7, id as i64);
        self.b.ecall();
    }

    fn set_spr(&mut self, spr: Spr, value: u64) {
        self.b.li(Reg::T1, value as i64);
        self.b.emit(Instruction::SetSpr { spr, rs1: Reg::T1 });
    }

    /// The entry point: the type configuration of the image's level
    /// (Section 4.1 / Tables 4–5), then the dispatch and function table
    /// bases. An untyped engine passes `None` and programs nothing.
    pub fn prologue(&mut self, types: Option<TypeSetup>) {
        self.b.set_entry_here();
        match (types, self.level) {
            (Some(t), IsaLevel::CheckedLoad) => self.set_spr(Spr::ExpType, t.exptype.into()),
            (Some(t), IsaLevel::Typed) => {
                self.set_spr(Spr::Offset, t.spr.offset.into());
                self.set_spr(Spr::Mask, t.spr.mask.into());
                self.set_spr(Spr::Shift, t.spr.shift.into());
                for rule in t.trt {
                    self.set_spr(Spr::TrtPush, rule.pack());
                }
            }
            _ => {}
        }
        let (dt, ft) = (self.dispatch_table, self.functable);
        self.b.la(DT, dt);
        self.b.la(FT, ft);
    }

    /// The stacks, the bottom CallInfo (it returns into a `HALT`
    /// bytecode), the jump into `main` and the two error stubs, which
    /// call `error_helper`. A stack engine passes `main`'s local count,
    /// and its operand stack starts above them.
    pub fn frames(&mut self, main: usize, main_locals: Option<u64>, error_helper: u64) {
        self.b.li(CI, map::CI_BASE as i64);
        self.b.li(self.ci_lim, map::CI_LIMIT as i64);
        self.b.li(STK_LIM, map::STACK_LIMIT as i64);
        self.b.li(BASE, map::STACK_BASE as i64);
        if let Some(n) = main_locals {
            self.b.li(SP, (map::STACK_BASE + n * 8) as i64);
        }
        let (mc, mk, hb) = (self.code[main], self.consts[main], self.halt_bc);
        self.b.la(KB, mk);
        self.b.la(PC, mc);
        self.b.la(Reg::T1, hb);
        self.b.sd(Reg::T1, callinfo::RET_PC, CI);
        self.b.sd(BASE, callinfo::RET_BASE, CI);
        self.b.sd(KB, callinfo::RET_CONSTS, CI);
        self.b.addi(CI, CI, callinfo::STRIDE as i32);
        self.next();

        for (stub, code) in
            [(self.stack_ov, errcode::STACK_OVERFLOW), (self.div_zero, errcode::DIV_BY_ZERO)]
        {
            self.b.bind(stub);
            self.b.li(Reg::A0, code as i64);
            self.ecall(error_helper);
            self.b.halt();
        }
    }

    /// The threaded dispatch loop: fetch the bytecode word into [`W`],
    /// advance [`PC`], jump through the dispatch table on the opcode in
    /// the bits from `opcode_shift` up.
    pub fn dispatch_loop(&mut self, opcode_shift: i32) {
        let d = self.dispatch;
        self.b.bind(d);
        self.b.lwu(W, 0, PC);
        self.b.addi(PC, PC, 4);
        self.b.srli(Reg::T1, W, opcode_shift);
        self.b.slli(Reg::T1, Reg::T1, 3);
        self.b.add(Reg::T1, Reg::T1, DT);
        self.b.ld(Reg::T1, 0, Reg::T1);
        self.b.jr(Reg::T1);
    }

    /// Binds `op`'s handler label (`op_<name>`) here.
    pub fn bind_handler(&mut self, op: Op) {
        let label = self.handler(op);
        self.b.bind(label);
    }

    /// Saves the caller's frame on the CallInfo stack, branching to the
    /// stack-overflow stub when it is full.
    pub fn save_frame(&mut self) {
        let (ov, ci_lim) = (self.stack_ov, self.ci_lim);
        self.b.bgeu(CI, ci_lim, ov);
        self.b.sd(PC, callinfo::RET_PC, CI);
        self.b.sd(BASE, callinfo::RET_BASE, CI);
        self.b.sd(KB, callinfo::RET_CONSTS, CI);
        self.b.addi(CI, CI, callinfo::STRIDE as i32);
    }

    /// Pops the caller's frame off the CallInfo stack.
    pub fn restore_frame(&mut self) {
        self.b.addi(CI, CI, -(callinfo::STRIDE as i32));
        self.b.ld(PC, callinfo::RET_PC, CI);
        self.b.ld(BASE, callinfo::RET_BASE, CI);
        self.b.ld(KB, callinfo::RET_CONSTS, CI);
    }

    /// The dispatch table (one handler address per opcode), the function
    /// table and the `HALT` sentinel: the word `halt`, twice (the second
    /// pads).
    pub fn tables(&mut self, funcs: &[Function], halt: u32) {
        self.b.align_data(8);
        let dt = self.dispatch_table;
        self.b.bind_data(dt);
        for &op in Op::ALL {
            let h = self.handler(op);
            self.b.dword_label(h);
        }
        let ft = self.functable;
        self.b.bind_data(ft);
        for (i, f) in funcs.iter().enumerate() {
            let (c, k) = (self.code[i], self.consts[i]);
            self.b.dword_label(c);
            self.b.dword_label(k);
            self.b.dword(f.info[0]);
            self.b.dword(f.info[1]);
        }
        let hb = self.halt_bc;
        self.b.bind_data(hb);
        self.b.bytes(&halt.to_le_bytes());
        self.b.bytes(&halt.to_le_bytes());
    }

    /// Each function's bytecode, then its constants aligned to
    /// `const_align` bytes.
    pub fn functions(&mut self, funcs: &[Function], const_align: u64) {
        for (i, f) in funcs.iter().enumerate() {
            self.b.align_data(8);
            let cl = self.code[i];
            self.b.bind_data(cl);
            let words: Vec<u8> = f.code.iter().flat_map(|w| w.to_le_bytes()).collect();
            self.b.bytes(&words);
            self.b.align_data(const_align);
            let kl = self.consts[i];
            self.b.bind_data(kl);
            for &k in &f.consts {
                self.b.dword(k);
            }
        }
    }

    /// Assembles the image.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] if the emitted program fails to assemble (it
    /// only can if a handler outgrows branch range, a codegen bug).
    pub fn finish(self) -> Result<Image<Op>, AsmError> {
        Image::finish(self.b, self.strings.into_strings(), self.level)
    }

    // --- the two stack engines -------------------------------------------
    //
    // A stack-engine bytecode word is an 8-bit opcode over a 24-bit
    // operand; values are 8-byte slots, and [`BASE`] points at the
    // current function's locals, with its operand stack above them.

    /// `dst = sign-extended 24-bit operand`.
    pub fn decode_imm(&mut self, dst: Reg) {
        self.b.slli(dst, W, 40);
        self.b.srai(dst, dst, 40);
    }

    /// `dst = zero-extended 24-bit operand`.
    pub fn decode_uimm(&mut self, dst: Reg) {
        self.b.slli(dst, W, 40);
        self.b.srli(dst, dst, 40);
    }

    /// `dst = sign-extended operand * 4` (jump offset in bytes).
    pub fn decode_offset(&mut self, dst: Reg) {
        self.b.slli(dst, W, 40);
        self.b.srai(dst, dst, 38);
    }

    /// Pushes the value in `src` (clobbers nothing else).
    pub fn push(&mut self, src: Reg) {
        self.b.sd(src, 0, SP);
        self.b.addi(SP, SP, 8);
    }

    /// Pops into `dst`.
    pub fn pop(&mut self, dst: Reg) {
        self.b.addi(SP, SP, -8);
        self.b.ld(dst, 0, SP);
    }

    /// Pushes slot `operand` of the area at `base`: a constant ([`KB`]),
    /// a local ([`BASE`]) or a `wasmrt` global.
    pub fn push_slot(&mut self, base: Reg) {
        self.decode_uimm(Reg::T1);
        self.b.slli(Reg::T1, Reg::T1, 3);
        self.b.add(Reg::T1, Reg::T1, base);
        self.b.ld(Reg::T2, 0, Reg::T1);
        self.push(Reg::T2);
        self.next();
    }

    /// Pops into slot `operand` of the area at `base`: a local or a
    /// `wasmrt` global.
    pub fn pop_slot(&mut self, base: Reg) {
        self.decode_uimm(Reg::T1);
        self.b.slli(Reg::T1, Reg::T1, 3);
        self.b.add(Reg::T1, Reg::T1, base);
        self.pop(Reg::T2);
        self.b.sd(Reg::T2, 0, Reg::T1);
        self.next();
    }

    /// `Pop`: drops the top of the stack.
    pub fn drop_top(&mut self) {
        self.b.addi(SP, SP, -8);
        self.next();
    }

    /// Unconditional jump by the operand.
    pub fn jump(&mut self) {
        self.decode_offset(Reg::T1);
        self.b.add(PC, PC, Reg::T1);
        self.next();
    }

    /// `CALL`: the argument count sits in the bits from 16 up, under
    /// `nargs_mask`, and the callee's index in the low 16 bits. The
    /// arguments on the stack become the callee's first locals.
    pub fn call(&mut self, nargs_mask: i32) {
        let ov = self.stack_ov;
        self.save_frame();
        // nargs → new locals base.
        self.b.srli(Reg::T2, W, 16);
        self.b.andi(Reg::T2, Reg::T2, nargs_mask);
        self.b.slli(Reg::T2, Reg::T2, 3);
        self.b.sub(BASE, SP, Reg::T2);
        // Callee FuncInfo.
        self.b.slli(Reg::T3, W, 48);
        self.b.srli(Reg::T3, Reg::T3, 48);
        self.b.slli(Reg::T3, Reg::T3, 5);
        self.b.add(Reg::T3, Reg::T3, FT);
        self.b.ld(PC, funcinfo::CODE, Reg::T3);
        self.b.ld(KB, funcinfo::CONSTS, Reg::T3);
        self.b.ld(Reg::T4, funcinfo::WORD0, Reg::T3);
        self.b.slli(Reg::T4, Reg::T4, 3);
        self.b.add(SP, BASE, Reg::T4);
        self.b.ld(Reg::T4, funcinfo::WORD1, Reg::T3);
        self.b.slli(Reg::T4, Reg::T4, 3);
        self.b.add(Reg::T4, Reg::T4, BASE);
        self.b.bgeu(Reg::T4, STK_LIM, ov);
        self.next();
    }

    /// The tail of `RET`: the result in `t1` replaces the callee's first
    /// local, which becomes the caller's top of stack.
    pub fn ret_tail(&mut self) {
        self.b.mv(Reg::T2, BASE); // callee locals base = result slot
        self.restore_frame();
        self.b.sd(Reg::T1, 0, Reg::T2);
        self.b.addi(SP, Reg::T2, 8);
        self.next();
    }

    /// A new table through the `helper` `ecall`, with the operand as its
    /// capacity hint; its handle is pushed.
    pub fn new_table(&mut self, helper: u64) {
        self.decode_uimm(Reg::A2);
        self.b.mv(Reg::A1, SP);
        self.ecall(helper);
        self.b.addi(SP, SP, 8);
        self.next();
    }

    /// `elem = elems_ptr + (key-1)*8`, bounds-checked. `hdr` holds the
    /// table header address, `key` the integer key. Clobbers `t5`.
    pub fn elem_index(&mut self, hdr: Reg, key: Reg, elem: Reg, slow: Label) {
        self.b.ld(Reg::T5, table::ARR_LEN, hdr);
        self.b.addi(elem, key, -1);
        self.b.bgeu(elem, Reg::T5, slow);
        self.b.ld(Reg::T5, table::ARR_PTR, hdr);
        self.b.slli(elem, elem, 3);
        self.b.add(elem, elem, Reg::T5);
    }

    /// Reads element `key` of the table at `hdr` over the two stack slots
    /// `[table, key]`, or goes to `slow` outside the dense part.
    pub fn elem_get(&mut self, hdr: Reg, key: Reg, slow: Label) {
        self.elem_index(hdr, key, Reg::T6, slow);
        self.b.ld(Reg::T3, 0, Reg::T6);
        self.b.sd(Reg::T3, -16, SP);
        self.b.addi(SP, SP, -8);
        self.next();
    }

    /// Writes the top of the stack to element `key` of the table at `hdr`
    /// and drops `[table, key, value]`. A key one past the border appends
    /// in place while the capacity lasts; anything else outside the dense
    /// part goes to `slow`. The local labels are named after `prefix`.
    pub fn elem_set(&mut self, hdr: Reg, key: Reg, slow: Label, prefix: &str) {
        let in_range = self.b.new_label(&format!("{prefix}_in_range"));
        let store = self.b.new_label(&format!("{prefix}_store"));
        self.b.ld(Reg::T5, table::ARR_LEN, hdr);
        self.b.addi(Reg::T6, key, -1);
        self.b.bltu(Reg::T6, Reg::T5, in_range);
        // Append? key-1 == len and len < cap.
        self.b.bne(Reg::T6, Reg::T5, slow);
        self.b.ld(Reg::T4, table::ARR_CAP, hdr);
        self.b.bgeu(Reg::T5, Reg::T4, slow);
        self.b.addi(Reg::T5, Reg::T5, 1);
        self.b.sd(Reg::T5, table::ARR_LEN, hdr);
        self.b.bind(in_range);
        self.b.ld(Reg::T5, table::ARR_PTR, hdr);
        self.b.slli(Reg::T6, Reg::T6, 3);
        self.b.add(Reg::T6, Reg::T6, Reg::T5);
        self.b.j(store);
        self.b.bind(store);
        self.b.ld(Reg::T3, -8, SP);
        self.b.sd(Reg::T3, 0, Reg::T6);
        self.b.addi(SP, SP, -24);
        self.next();
    }
}

#[cfg(test)]
mod tests {
    use super::map::*;

    #[test]
    fn memory_regions_do_not_overlap() {
        let regions =
            [(TEXT_BASE, DATA_BASE), (DATA_BASE, STACK_BASE), (STACK_BASE, STACK_LIMIT),
             (CI_BASE, CI_LIMIT), (HEAP_BASE, HEAP_LIMIT)];
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "{w:?}");
        }
    }
}
