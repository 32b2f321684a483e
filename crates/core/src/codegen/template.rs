//! The template backend: compilation of blocks into composed host
//! closures.
//!
//! [`Template::emit`] walks a block's decoded run **once** and builds a
//! per-op template closure for every [`BlockOp`], folding in everything
//! knowable at compile time:
//!
//! * each instruction's pc (`entry + 4k`) and its destructured operand
//!   fields — no `Instruction` match or field extraction at run time;
//! * each fetch's span kind: the block entry does the one dynamic
//!   same-line test (the span batch persists across blocks, so the
//!   entry's line is unknown), while every later fetch is statically a
//!   guaranteed in-line hit ([`Fetch::Hit`]) or a line open
//!   ([`Fetch::Open`]) — the shift/compare is gone from the hot path;
//! * the retired-instruction count at every exit point, and the
//!   instruction-counter and deferred-fetch-hit deltas at every point
//!   where those become observable, so the straight-line path does no
//!   per-op counter or span bookkeeping at all (see *Batched counters*
//!   below);
//! * ALU-class components become an [`AluTmpl`] calling the split
//!   `exec_alu`/`exec_alu_imm`/`exec_lui` cores directly — skipping the
//!   full `Cpu::execute` instruction match the generic single pays.
//!
//! The per-op closures compose by **continuation chaining**: each
//! closure captures its successor as `next` and invokes it directly on
//! fall-through, so the whole block nests into one closure and
//! [`CompiledBlock::enter`] is simply the head of the chain. Compared
//! with a dispatch loop calling `ops[i]` through a single indirect call
//! site, chaining gives every op-template kind its own call site, which
//! the host's indirect-branch predictor tracks independently — the same
//! reason template compilers in the baseline-JIT literature compose
//! closures instead of interpreting op lists.
//!
//! # Batched counters
//!
//! The stepwise core bumps `counters.instructions` once per instruction
//! and charges every fetch as it happens. Neither is observable mid-block
//! except at well-defined points: the instruction counter can be read
//! only by `Cpu::execute` paths (`csrr`, ecalls), and deferred fetch
//! hits only matter when the batch is flushed (trap, stop, line open,
//! or after the block returns). The template therefore accumulates both
//! **at compile time** and materializes the folded constants exactly at
//! those points:
//!
//! * every exit (taken branch, redirect, invalidation deopt, block end)
//!   adds the instructions retired and hits batched since the last
//!   materialization;
//! * every trap path adds the counts up to and including the faulting
//!   component before the batch flush — matching the stepwise core,
//!   which counts an instruction before executing it;
//! * every [`Fetch::Open`] carries the hits batched since the last
//!   materialization and deposits them before flushing;
//! * [`BlockOp::One`] and non-ALU [`BlockOp::OneSafe`] run through
//!   `Cpu::execute` (which can observe the counter via `csrr`/ecall),
//!   so they are *sync points*: they materialize both pending deltas
//!   up front and then count their own instruction and fetch
//!   dynamically.
//!
//! At every observation point the counter and pending values equal the
//! stepwise core's — `tests/predecode_equiv.rs` pins bit-identical
//! counters across the fuse × MRU × trace matrix.
//!
//! Each op template applies its instructions' charges in program order
//! through the same `exec_*` cores `Cpu::execute` delegates to — same
//! trap checkpoints, same `pc` updates (every op leaves `cpu.pc` at the
//! next instruction, the invariant the trap paths' "pc already at the
//! faulting op" reasoning rests on), and a generation re-check after
//! anything that stores.
//!
//! Compiled blocks are only entered with an un-clipped budget
//! (`remaining >= width`, enforced by `Cpu::run_blocks`, which steps a
//! clipped tail instead), so no template carries a budget check.

use super::{BlockExit, CompiledBlock, ExecCtx};
use crate::blocks::BlockOp;
use crate::cpu::{Cpu, StepEvent, Trap};
use std::sync::Arc;
use tarch_isa::{AluImmOp, AluOp, Instruction, Reg};

/// The template compiler: every block the table installs is compiled by
/// [`Template::emit`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Template;

/// A compiled continuation: one op template plus, chained behind it,
/// everything after it in the block.
type Chain = Box<dyn Fn(&mut ExecCtx<'_>) -> BlockExit + Send + Sync>;

/// An instruction fetch's span-batch kind, decided at compile time from
/// the pcs alone (the I-cache line size is config-fixed).
#[derive(Clone, Copy)]
enum Fetch {
    /// The block's first fetch: whether it extends the open cross-block
    /// span is only known at run time, so it keeps the dynamic compare
    /// (with the span index precomputed).
    Entry { addr: u64, span: u64 },
    /// Same line as the previous instruction: a guaranteed hit, counted
    /// statically — nothing happens at run time until the batch next
    /// materializes.
    Hit,
    /// A new line relative to the previous instruction: deposit the
    /// `pend` hits batched since the last materialization, then flush
    /// and charge a real fetch.
    Open { addr: u64, span: u64, pend: u64 },
}

/// Applies a folded fetch charge (straight-line form: `Hit` is free).
#[inline(always)]
fn charge(fetch: Fetch, ctx: &mut ExecCtx<'_>) {
    match fetch {
        Fetch::Entry { addr, span } => ctx.span.charge_at(ctx.cpu, addr, span),
        Fetch::Hit => {}
        Fetch::Open { addr, span, pend } => {
            ctx.span.add_pending(pend);
            ctx.span.open(ctx.cpu, addr, span);
        }
    }
}

/// Dynamic fetch charge for sync ops ([`BlockOp::One`] and non-ALU
/// [`BlockOp::OneSafe`]): their arm materialized all batched state up
/// front, so a same-line hit goes into the span batch immediately.
#[inline(always)]
fn charge_dyn(fetch: Fetch, ctx: &mut ExecCtx<'_>) {
    match fetch {
        Fetch::Entry { addr, span } => ctx.span.charge_at(ctx.cpu, addr, span),
        Fetch::Hit => ctx.span.hit(),
        Fetch::Open { addr, span, pend: _ } => ctx.span.open(ctx.cpu, addr, span),
    }
}

/// Materializes the batched instruction count and fetch hits at an
/// observation point.
#[inline(always)]
fn settle(ctx: &mut ExecCtx<'_>, add_instr: u64, add_hits: u64) {
    ctx.cpu.counters.instructions += add_instr;
    ctx.span.add_pending(add_hits);
}

/// Trap exit from a compiled op: materialize the batched counts up to
/// and including the faulting component, flush the fetch batch, rewind
/// `counters.cycles` to the pre-fetch checkpoint (where the stepwise
/// core left it), and trace the trap.
#[cold]
fn trap_exit(
    ctx: &mut ExecCtx<'_>,
    checkpoint: u64,
    trap: Trap,
    add_instr: u64,
    add_hits: u64,
) -> BlockExit {
    settle(ctx, add_instr, add_hits);
    ctx.span.flush(ctx.cpu);
    ctx.cpu.counters.cycles = checkpoint;
    ctx.cpu.trace_trap(&trap);
    BlockExit::Trap(trap)
}

/// An ALU-class instruction with its fields folded out, dispatching
/// straight to the split execution cores.
#[derive(Clone, Copy)]
enum AluTmpl {
    Reg { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    Imm { op: AluImmOp, rd: Reg, rs1: Reg, imm: i32 },
    Lui { rd: Reg, imm: i32 },
}

impl AluTmpl {
    fn of(instr: Instruction) -> AluTmpl {
        match instr {
            Instruction::Alu { op, rd, rs1, rs2 } => AluTmpl::Reg { op, rd, rs1, rs2 },
            Instruction::AluImm { op, rd, rs1, imm } => AluTmpl::Imm { op, rd, rs1, imm },
            Instruction::Lui { rd, imm } => AluTmpl::Lui { rd, imm },
            _ => unreachable!("non-ALU-class component in an ALU template"),
        }
    }

    #[inline(always)]
    fn run(self, cpu: &mut Cpu) {
        match self {
            AluTmpl::Reg { op, rd, rs1, rs2 } => cpu.exec_alu(op, rd, rs1, rs2),
            AluTmpl::Imm { op, rd, rs1, imm } => cpu.exec_alu_imm(op, rd, rs1, imm),
            AluTmpl::Lui { rd, imm } => cpu.exec_lui(rd, imm),
        }
    }
}

/// Is this op a sync point — can its execution observe the batched
/// instruction counter? Only the generic [`BlockOp::One`] (ecalls and
/// anything else that can stop or redirect) and a `csrr` (which reads
/// the counter CSRs directly) can; every other safe single is a pure
/// register/tag/FPU operation that runs through `Cpu::execute` without
/// reading any counter.
fn is_sync(op: BlockOp) -> bool {
    match op {
        BlockOp::One(_) => true,
        BlockOp::OneSafe(i) => matches!(i, Instruction::Csrr { .. }),
        _ => false,
    }
}

/// One op's compile-time folded constants.
#[derive(Clone, Copy)]
struct Fold {
    op: BlockOp,
    /// First and (for fused pairs) second component pcs.
    apc: u64,
    bpc: u64,
    /// Folded fetch kinds for the two components.
    fa: Fetch,
    fb: Fetch,
    /// Block retired-instruction count once this op completes.
    k: u64,
    /// Instructions batched (un-materialized) before this op.
    i0: u64,
    /// Un-materialized fetch hits before this op (sync arms deposit
    /// this up front).
    h0: u64,
    /// Un-materialized hits at the first / second component's trap
    /// point (the faulting component's own fetch charge included).
    ha: u64,
    hb: u64,
    /// Un-materialized hits once the op completes (carried into the
    /// next op, or deposited by an exit).
    hx: u64,
}

impl Template {
    /// Compiles the block at `entry_pc` whose decoded run is `ops` (the
    /// full [`BlockOp`] vocabulary is supported). `line_shift` is `log2`
    /// of the I-cache line size, used to fold each instruction's
    /// fetch-span kind. A forward pass folds each op's constants and
    /// batch deltas; a backward pass chains the continuations, the
    /// terminal one materializing what the last fall-through left
    /// batched and retiring the whole block.
    pub fn emit(entry_pc: u64, line_shift: u32, ops: &[BlockOp]) -> Arc<CompiledBlock> {
        let mut folded: Vec<Fold> = Vec::with_capacity(ops.len());
        let mut apc = entry_pc;
        // Compile-time span tracker: the line of the previous fetch, or
        // `None` before the block's first (dynamic) one.
        let mut prev_span: Option<u64> = None;
        // Compile-time batch state: instructions and same-line hits
        // accumulated since the last materialization point.
        let mut pend_i = 0u64;
        let mut pend_h = 0u64;
        let mut retired = 0u64;
        // Folds one fetch: classifies it against the previous line and
        // advances the pending-hit count (`sync` ops charge
        // dynamically, so their hits are not statically batched).
        let fold_fetch = |addr: u64, prev: &mut Option<u64>, pend: &mut u64, sync: bool| {
            let span = addr >> line_shift;
            let kind = match *prev {
                None => Fetch::Entry { addr, span },
                Some(p) if p == span => Fetch::Hit,
                Some(_) => Fetch::Open { addr, span, pend: if sync { 0 } else { *pend } },
            };
            *prev = Some(span);
            match kind {
                Fetch::Entry { .. } => {} // dynamic: batch state unchanged
                Fetch::Hit if sync => {}  // dynamic hit in the sync body
                Fetch::Hit => *pend += 1,
                Fetch::Open { .. } => *pend = 0, // deposited + flushed
            }
            kind
        };
        for &op in ops {
            let sync = is_sync(op);
            let (i0, h0) = (pend_i, pend_h);
            let fa = fold_fetch(apc, &mut prev_span, &mut pend_h, sync);
            let ha = pend_h;
            let bpc = apc.wrapping_add(4);
            // Second-component fetch; only advances the trackers when
            // the op really is a fused pair.
            let mut pair_span = prev_span;
            let mut pair_pend = pend_h;
            let fb = fold_fetch(bpc, &mut pair_span, &mut pair_pend, false);
            let (hb, hx);
            if op.width() == 2 {
                prev_span = pair_span;
                pend_h = pair_pend;
                hb = pair_pend;
                hx = pair_pend;
            } else {
                hb = 0;
                hx = ha;
            }
            retired += op.width();
            folded.push(Fold { op, apc, bpc, fa, fb, k: retired, i0, h0, ha, hb, hx });
            if sync {
                // The body counted its own instruction and hit.
                pend_i = 0;
                pend_h = 0;
            } else {
                pend_i = i0 + op.width();
            }
            // Superblock guards redirect the instruction stream: the
            // next op's pc is the guard's (static) target, not the
            // fall-through. The static Hit/Open classification above
            // stays sound because the target never varies at run time.
            apc = match op {
                BlockOp::GuardBranch(_, expected) => expected,
                BlockOp::GuardJal(i) => {
                    let Instruction::Jal { offset, .. } = i else { unreachable!() };
                    apc.wrapping_add(offset as i64 as u64)
                }
                _ => apc.wrapping_add(4 * op.width()),
            };
        }
        let width = retired as u32;
        // Terminal continuation: the last op fell through off the end of
        // the block — materialize what it left batched and retire.
        let (fi, fh) = (pend_i, pend_h);
        let mut next: Chain = Box::new(move |ctx| {
            settle(ctx, fi, fh);
            BlockExit::Done { executed: retired }
        });
        for &f in folded.iter().rev() {
            next = compile_op(f, next);
        }
        Arc::new(CompiledBlock { width, enter: next })
    }
}

/// Builds the template closure for one op, chaining `next` behind it.
fn compile_op(f: Fold, next: Chain) -> Chain {
    let Fold { op, apc, bpc, fa, fb, k, i0, h0, ha, hb, hx } = f;
    // Instruction-counter deltas at the two components' observation
    // points: the stepwise core counts an instruction before executing
    // it.
    let ia = i0 + 1;
    let ib = i0 + 2;
    match op {
        // The generic single: a sync point — materialize the batches,
        // then full stepwise semantics via `execute`.
        BlockOp::One(instr) => Box::new(move |ctx| {
            settle(ctx, i0, h0);
            let checkpoint = ctx.cpu.now;
            charge_dyn(fa, ctx);
            ctx.cpu.counters.instructions += 1;
            let event = match ctx.cpu.execute(apc, instr) {
                Ok(event) => event,
                Err(trap) => return trap_exit(ctx, checkpoint, trap, 0, 0),
            };
            if event != StepEvent::Retired {
                return BlockExit::Stop { executed: k, event };
            }
            if ctx.cpu.pc != apc.wrapping_add(4) || ctx.cpu.blocks.generation() != ctx.entry_gen {
                return BlockExit::Done { executed: k };
            }
            next(ctx)
        }),
        BlockOp::OneSafe(instr) => match instr {
            // ALU-class safe singles get the fully folded form
            // (`execute` would set `pc` itself, so the template does).
            Instruction::Alu { .. } | Instruction::AluImm { .. } | Instruction::Lui { .. } => {
                let t = AluTmpl::of(instr);
                Box::new(move |ctx| {
                    charge(fa, ctx);
                    t.run(ctx.cpu);
                    ctx.cpu.pc = apc.wrapping_add(4);
                    next(ctx)
                })
            }
            // `csrr` reads the counter CSRs, so it is a sync point:
            // materialize the batches, then count dynamically.
            Instruction::Csrr { .. } => Box::new(move |ctx| {
                settle(ctx, i0, h0);
                charge_dyn(fa, ctx);
                ctx.cpu.counters.instructions += 1;
                let result = ctx.cpu.execute(apc, instr);
                debug_assert!(
                    matches!(result, Ok(StepEvent::Retired)),
                    "safe_one misclassification"
                );
                let _ = result;
                next(ctx)
            }),
            // Remaining safe singles (FPU, tag ops, ...) keep the
            // `execute` call for their semantics but observe no
            // counters, so their bookkeeping stays batched.
            _ => Box::new(move |ctx| {
                charge(fa, ctx);
                let result = ctx.cpu.execute(apc, instr);
                debug_assert!(
                    matches!(result, Ok(StepEvent::Retired)),
                    "safe_one misclassification"
                );
                let _ = result;
                next(ctx)
            }),
        },
        BlockOp::OneLoad(instr) => {
            let Instruction::Load { width, signed, rd, rs1, imm } = instr else { unreachable!() };
            Box::new(move |ctx| {
                let checkpoint = ctx.cpu.now;
                charge(fa, ctx);
                if let Err(trap) = ctx.cpu.exec_load(apc, width, signed, rd, rs1, imm) {
                    // pc already at the load
                    return trap_exit(ctx, checkpoint, trap, ia, ha);
                }
                ctx.cpu.pc = apc.wrapping_add(4);
                next(ctx)
            })
        }
        BlockOp::OneStore(instr) => {
            let Instruction::Store { width, rs2, rs1, imm } = instr else { unreachable!() };
            Box::new(move |ctx| {
                let checkpoint = ctx.cpu.now;
                charge(fa, ctx);
                if let Err(trap) = ctx.cpu.exec_store(apc, width, rs2, rs1, imm) {
                    // pc already at the store
                    return trap_exit(ctx, checkpoint, trap, ia, ha);
                }
                ctx.cpu.pc = apc.wrapping_add(4);
                // The store may have hit text (even this block).
                if ctx.cpu.blocks.generation() != ctx.entry_gen {
                    settle(ctx, ia, hx);
                    return BlockExit::Done { executed: k };
                }
                next(ctx)
            })
        }
        BlockOp::OneBranch(instr) => {
            let Instruction::Branch { cond, rs1, rs2, offset } = instr else { unreachable!() };
            Box::new(move |ctx| {
                charge(fa, ctx);
                settle(ctx, ia, hx);
                ctx.cpu.pc = ctx.cpu.exec_branch(apc, cond, rs1, rs2, offset);
                BlockExit::Done { executed: k }
            })
        }
        BlockOp::OneJal(instr) => {
            let Instruction::Jal { rd, offset } = instr else { unreachable!() };
            Box::new(move |ctx| {
                charge(fa, ctx);
                settle(ctx, ia, hx);
                ctx.cpu.pc = ctx.cpu.exec_jal(apc, rd, offset);
                BlockExit::Done { executed: k }
            })
        }
        BlockOp::OneJalr(instr) => {
            let Instruction::Jalr { rd, rs1, imm } = instr else { unreachable!() };
            Box::new(move |ctx| {
                charge(fa, ctx);
                settle(ctx, ia, hx);
                ctx.cpu.pc = ctx.cpu.exec_jalr(apc, rd, rs1, imm);
                BlockExit::Done { executed: k }
            })
        }
        BlockOp::GuardBranch(instr, expected) => {
            let Instruction::Branch { cond, rs1, rs2, offset } = instr else { unreachable!() };
            Box::new(move |ctx| {
                charge(fa, ctx);
                ctx.cpu.pc = ctx.cpu.exec_branch(apc, cond, rs1, rs2, offset);
                if ctx.cpu.pc != expected {
                    // Side-exit: the branch left the straightened path —
                    // materialize what the block batched so far and hand
                    // the next pc back, exactly like a block-ending
                    // branch (and, like one, noted by the edge
                    // recorder: the exit target is the branch's static
                    // off-trace continuation). Never traps; never stores, so no
                    // generation check before continuing.
                    settle(ctx, ia, hx);
                    return BlockExit::SideExit { executed: k };
                }
                next(ctx)
            })
        }
        BlockOp::GuardJal(instr) => {
            let Instruction::Jal { rd, offset } = instr else { unreachable!() };
            Box::new(move |ctx| {
                charge(fa, ctx);
                ctx.cpu.pc = ctx.cpu.exec_jal(apc, rd, offset);
                next(ctx)
            })
        }
        BlockOp::AluPair(a, b) => {
            let ta = AluTmpl::of(a);
            let tb = AluTmpl::of(b);
            Box::new(move |ctx| {
                charge(fa, ctx);
                ta.run(ctx.cpu);
                charge(fb, ctx);
                tb.run(ctx.cpu);
                ctx.cpu.pc = bpc.wrapping_add(4);
                next(ctx)
            })
        }
        BlockOp::AluLoad(a, b) => {
            let ta = AluTmpl::of(a);
            let Instruction::Load { width, signed, rd, rs1, imm } = b else { unreachable!() };
            Box::new(move |ctx| {
                charge(fa, ctx);
                ta.run(ctx.cpu);
                let checkpoint = ctx.cpu.now;
                charge(fb, ctx);
                if let Err(trap) = ctx.cpu.exec_load(bpc, width, signed, rd, rs1, imm) {
                    ctx.cpu.pc = bpc; // stepwise left pc at the faulting load
                    return trap_exit(ctx, checkpoint, trap, ib, hb);
                }
                ctx.cpu.pc = bpc.wrapping_add(4);
                next(ctx)
            })
        }
        BlockOp::LoadAlu(a, b) => {
            let Instruction::Load { width, signed, rd, rs1, imm } = a else { unreachable!() };
            let tb = AluTmpl::of(b);
            Box::new(move |ctx| {
                let checkpoint = ctx.cpu.now;
                charge(fa, ctx);
                if let Err(trap) = ctx.cpu.exec_load(apc, width, signed, rd, rs1, imm) {
                    // pc already at the load
                    return trap_exit(ctx, checkpoint, trap, ia, ha);
                }
                charge(fb, ctx);
                tb.run(ctx.cpu);
                ctx.cpu.pc = bpc.wrapping_add(4);
                next(ctx)
            })
        }
        BlockOp::AluBranch(a, b) => {
            let ta = AluTmpl::of(a);
            let Instruction::Branch { cond, rs1, rs2, offset } = b else { unreachable!() };
            Box::new(move |ctx| {
                charge(fa, ctx);
                ta.run(ctx.cpu);
                charge(fb, ctx);
                settle(ctx, ib, hx);
                ctx.cpu.pc = ctx.cpu.exec_branch(bpc, cond, rs1, rs2, offset);
                BlockExit::Done { executed: k } // always the last op of its block
            })
        }
        BlockOp::AluJal(a, b) => {
            let ta = AluTmpl::of(a);
            let Instruction::Jal { rd, offset } = b else { unreachable!() };
            Box::new(move |ctx| {
                charge(fa, ctx);
                ta.run(ctx.cpu);
                charge(fb, ctx);
                settle(ctx, ib, hx);
                ctx.cpu.pc = ctx.cpu.exec_jal(bpc, rd, offset);
                BlockExit::Done { executed: k }
            })
        }
        BlockOp::LoadJalr(a, b) => {
            let Instruction::Load { width, signed, rd, rs1, imm } = a else { unreachable!() };
            let Instruction::Jalr { rd: jrd, rs1: jrs1, imm: jimm } = b else { unreachable!() };
            Box::new(move |ctx| {
                let checkpoint = ctx.cpu.now;
                charge(fa, ctx);
                if let Err(trap) = ctx.cpu.exec_load(apc, width, signed, rd, rs1, imm) {
                    // pc already at the load
                    return trap_exit(ctx, checkpoint, trap, ia, ha);
                }
                charge(fb, ctx);
                settle(ctx, ib, hx);
                ctx.cpu.pc = ctx.cpu.exec_jalr(bpc, jrd, jrs1, jimm);
                BlockExit::Done { executed: k } // always the last op of its block
            })
        }
        BlockOp::AluStore(a, b) => {
            let ta = AluTmpl::of(a);
            let Instruction::Store { width, rs2, rs1, imm } = b else { unreachable!() };
            Box::new(move |ctx| {
                charge(fa, ctx);
                ta.run(ctx.cpu);
                let checkpoint = ctx.cpu.now;
                charge(fb, ctx);
                if let Err(trap) = ctx.cpu.exec_store(bpc, width, rs2, rs1, imm) {
                    ctx.cpu.pc = bpc; // stepwise left pc at the faulting store
                    return trap_exit(ctx, checkpoint, trap, ib, hb);
                }
                ctx.cpu.pc = bpc.wrapping_add(4);
                if ctx.cpu.blocks.generation() != ctx.entry_gen {
                    settle(ctx, ib, hx);
                    return BlockExit::Done { executed: k };
                }
                next(ctx)
            })
        }
        BlockOp::LoadStore(a, b) => {
            let Instruction::Load { width: lw, signed, rd, rs1: lrs1, imm: limm } = a else {
                unreachable!()
            };
            let Instruction::Store { width: sw, rs2, rs1: srs1, imm: simm } = b else {
                unreachable!()
            };
            Box::new(move |ctx| {
                let checkpoint = ctx.cpu.now;
                charge(fa, ctx);
                if let Err(trap) = ctx.cpu.exec_load(apc, lw, signed, rd, lrs1, limm) {
                    // pc already at the load
                    return trap_exit(ctx, checkpoint, trap, ia, ha);
                }
                let checkpoint = ctx.cpu.now;
                charge(fb, ctx);
                if let Err(trap) = ctx.cpu.exec_store(bpc, sw, rs2, srs1, simm) {
                    ctx.cpu.pc = bpc; // stepwise left pc at the faulting store
                    return trap_exit(ctx, checkpoint, trap, ib, hb);
                }
                ctx.cpu.pc = bpc.wrapping_add(4);
                if ctx.cpu.blocks.generation() != ctx.entry_gen {
                    settle(ctx, ib, hx);
                    return BlockExit::Done { executed: k };
                }
                next(ctx)
            })
        }
        BlockOp::LoadLoad(a, b) => {
            let Instruction::Load { width: aw, signed: asg, rd: ard, rs1: ars1, imm: aimm } = a
            else {
                unreachable!()
            };
            let Instruction::Load { width: bw, signed: bsg, rd: brd, rs1: brs1, imm: bimm } = b
            else {
                unreachable!()
            };
            Box::new(move |ctx| {
                let checkpoint = ctx.cpu.now;
                charge(fa, ctx);
                if let Err(trap) = ctx.cpu.exec_load(apc, aw, asg, ard, ars1, aimm) {
                    // pc already at the load
                    return trap_exit(ctx, checkpoint, trap, ia, ha);
                }
                let checkpoint = ctx.cpu.now;
                charge(fb, ctx);
                if let Err(trap) = ctx.cpu.exec_load(bpc, bw, bsg, brd, brs1, bimm) {
                    ctx.cpu.pc = bpc; // stepwise left pc at the faulting load
                    return trap_exit(ctx, checkpoint, trap, ib, hb);
                }
                ctx.cpu.pc = bpc.wrapping_add(4);
                next(ctx)
            })
        }
        BlockOp::StoreAlu(a, b) => {
            let Instruction::Store { width, rs2, rs1, imm } = a else { unreachable!() };
            let tb = AluTmpl::of(b);
            Box::new(move |ctx| {
                let checkpoint = ctx.cpu.now;
                charge(fa, ctx);
                if let Err(trap) = ctx.cpu.exec_store(apc, width, rs2, rs1, imm) {
                    // pc already at the store
                    return trap_exit(ctx, checkpoint, trap, ia, ha);
                }
                // The leading store may have hit text (even this block):
                // abandon the cached decode before the second component,
                // exactly like a stepwise post-store generation check.
                if ctx.cpu.blocks.generation() != ctx.entry_gen {
                    ctx.cpu.pc = bpc;
                    settle(ctx, ia, ha);
                    return BlockExit::Done { executed: k - 1 };
                }
                charge(fb, ctx);
                tb.run(ctx.cpu);
                ctx.cpu.pc = bpc.wrapping_add(4);
                next(ctx)
            })
        }
        BlockOp::StoreJal(a, b) => {
            let Instruction::Store { width, rs2, rs1, imm } = a else { unreachable!() };
            let Instruction::Jal { rd, offset } = b else { unreachable!() };
            Box::new(move |ctx| {
                let checkpoint = ctx.cpu.now;
                charge(fa, ctx);
                if let Err(trap) = ctx.cpu.exec_store(apc, width, rs2, rs1, imm) {
                    // pc already at the store
                    return trap_exit(ctx, checkpoint, trap, ia, ha);
                }
                if ctx.cpu.blocks.generation() != ctx.entry_gen {
                    ctx.cpu.pc = bpc;
                    settle(ctx, ia, ha);
                    return BlockExit::Done { executed: k - 1 };
                }
                charge(fb, ctx);
                settle(ctx, ib, hx);
                ctx.cpu.pc = ctx.cpu.exec_jal(bpc, rd, offset);
                BlockExit::Done { executed: k } // always the last op of its block
            })
        }
        BlockOp::TldTchk(a, b) => {
            let Instruction::Tld { rd, rs1, imm } = a else { unreachable!() };
            let Instruction::Tchk { rs1: c1, rs2: c2 } = b else { unreachable!() };
            Box::new(move |ctx| {
                let checkpoint = ctx.cpu.now;
                charge(fa, ctx);
                if let Err(trap) = ctx.cpu.exec_tld(apc, rd, rs1, imm) {
                    // pc already at the tld
                    return trap_exit(ctx, checkpoint, trap, ia, ha);
                }
                charge(fb, ctx);
                let next_pc = ctx.cpu.exec_tchk(bpc, c1, c2);
                ctx.cpu.pc = next_pc;
                if next_pc != bpc.wrapping_add(4) {
                    settle(ctx, ib, hx);
                    return BlockExit::Done { executed: k }; // type miss: redirected to R_hdl
                }
                next(ctx)
            })
        }
        BlockOp::TgetBranch(a, b) => {
            let Instruction::Tget { rd, rs1 } = a else { unreachable!() };
            let Instruction::Branch { cond, rs1: brs1, rs2, offset } = b else { unreachable!() };
            Box::new(move |ctx| {
                charge(fa, ctx);
                ctx.cpu.exec_tget(rd, rs1);
                charge(fb, ctx);
                settle(ctx, ib, hx);
                ctx.cpu.pc = ctx.cpu.exec_branch(bpc, cond, brs1, rs2, offset);
                BlockExit::Done { executed: k }
            })
        }
    }
}
