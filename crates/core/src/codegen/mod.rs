//! Block-execution backends behind the [`CodeGenerator`] emitter trait.
//!
//! PR 3–5 made block dispatch cheap (basic blocks and fusion), but
//! every block entry still walked its `[BlockOp]` run
//! through a `match` per op, re-destructuring each instruction's fields
//! on every execution. This module factors the execution of one block
//! behind an emitter trait with two backends:
//!
//! * [`Interp`] — the PR 3/4 fused-block walker, unchanged in behaviour
//!   ([`interp::walk`]). It emits nothing; it *is* the fallback executor
//!   every block starts on and the target every deopt lands on.
//! * [`Template`] — the tier-3 backend: compiles a hot block **once**
//!   into a single host-side closure ([`CompiledBlock`]) built by
//!   composing per-instruction template closures with decode-time
//!   constants folded — immediates, register indices, and each
//!   instruction's same-line fetch-batch kind (entry / guaranteed hit /
//!   line open) are burned into the closures at compile time, so a hot
//!   block re-executes with no `BlockOp` match, no instruction
//!   destructuring, and no span arithmetic.
//!
//! Tier-up is heat-driven: `Cpu::run_blocks` counts block entries and
//! compiles a block when the count crosses `CoreConfig::tier_threshold`.
//! Both backends run over the same [`ExecCtx`] — the core plus the
//! deferred fetch-hit batch ([`SpanBatch`]) that persists across block
//! boundaries — and report the same [`BlockExit`] protocol, so the
//! surrounding loop (budget accounting, edge recording, invalidation
//! watching) is backend-agnostic.
//!
//! **Compiled code never outruns invalidation.** A compiled closure is
//! reached only through a `BlockRun` handed out by the block table, which
//! revalidates the block's words after any generation bump; the closure
//! re-checks the generation after every op that can store, exactly like
//! the walker. A stale compiled block therefore deopts to the interpreter
//! at an instruction boundary and is dropped (or re-verified) by the next
//! lookup — it never executes stale state. See DESIGN.md invariant 8.
//!
//! The trait shape (a named emitter with co-existing interpreter and
//! compiled backends) follows the `aivm` `CodeGenerator` /
//! `CodeGeneratorImpl` pattern referenced in SNIPPETS.md; the closure
//! composition is the classic template-interpreter technique from
//! "Whose baseline compiler is it anyway?" (PAPERS.md).

pub(crate) mod interp;
mod template;

pub use interp::Interp;
pub use template::Template;

use crate::blocks::BlockOp;
use crate::cpu::{Cpu, StepEvent, Trap};
use std::fmt;
use std::sync::Arc;

/// Deferred same-line fetch-hit batch (see `Cpu::run_blocks`): the line
/// the last *real* fetch charge opened, and the guaranteed hits
/// accumulated in it since. Both backends thread one `SpanBatch` through
/// every block so the batch persists across block boundaries; the
/// stepwise fallback [`SpanBatch::reset`]s it (a raw `Cpu::step` makes
/// its own accesses, which can evict the line).
#[derive(Debug)]
pub struct SpanBatch {
    /// Line index (`addr >> line_shift`) of the open span, or `u64::MAX`
    /// when no span is open.
    cur_span: u64,
    /// The address whose real fetch charge opened the span (the batched
    /// hits are applied against it).
    span_addr: u64,
    /// Deferred guaranteed-hit count.
    pending: u64,
    /// `log2` of the I-cache line size.
    line_shift: u32,
}

impl SpanBatch {
    /// A batch with no open span.
    pub(crate) fn new(line_shift: u32) -> SpanBatch {
        SpanBatch { cur_span: u64::MAX, span_addr: 0, pending: 0, line_shift }
    }

    /// Applies the deferred hits (if any) and empties the batch. The
    /// span stays open: subsequent same-line fetches keep batching.
    #[inline]
    pub(crate) fn flush(&mut self, cpu: &mut Cpu) {
        if self.pending > 0 {
            cpu.apply_fetch_hits(self.span_addr, self.pending);
            self.pending = 0;
        }
    }

    /// Closes the span without touching pending hits (callers flush
    /// first). The next charge re-opens a line with a real fetch.
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.cur_span = u64::MAX;
    }

    /// Per-instruction fetch charge with same-line batching: a fetch in
    /// the open span defers a guaranteed hit; anything else flushes and
    /// charges a real fetch.
    #[inline]
    pub(crate) fn charge(&mut self, cpu: &mut Cpu, addr: u64) {
        let span = addr >> self.line_shift;
        if span == self.cur_span {
            self.pending += 1;
        } else {
            self.open(cpu, addr, span);
        }
    }

    /// [`SpanBatch::charge`] with the span index precomputed (template
    /// backend: the shift is folded at compile time).
    #[inline]
    pub(crate) fn charge_at(&mut self, cpu: &mut Cpu, addr: u64, span: u64) {
        if span == self.cur_span {
            self.pending += 1;
        } else {
            self.open(cpu, addr, span);
        }
    }

    /// Defers one guaranteed same-line hit (template backend, for
    /// fetches statically known to stay in the open span).
    #[inline]
    pub(crate) fn hit(&mut self) {
        self.pending += 1;
    }

    /// Defers `n` guaranteed same-line hits at once (template backend:
    /// a compiled block counts its statically-known hits at compile
    /// time and materializes them only at exits, traps, and line
    /// opens — the points where the batch becomes observable).
    #[inline]
    pub(crate) fn add_pending(&mut self, n: u64) {
        self.pending += n;
    }

    /// Flushes the batch, charges a real fetch at `addr`, and opens its
    /// span.
    #[inline]
    pub(crate) fn open(&mut self, cpu: &mut Cpu, addr: u64, span: u64) {
        self.flush(cpu);
        cpu.charge_fetch(addr);
        self.cur_span = span;
        self.span_addr = addr;
    }
}

/// Execution context a block backend runs against: the core, the
/// cross-block fetch-hit batch, and the generation snapshotted at block
/// entry (invalidation watching). Retired-instruction accounting needs
/// no slot here: the template folds each exit's count at compile time.
pub struct ExecCtx<'a> {
    pub(crate) cpu: &'a mut Cpu,
    pub(crate) span: &'a mut SpanBatch,
    pub(crate) entry_gen: u64,
}

impl<'a> ExecCtx<'a> {
    pub(crate) fn new(cpu: &'a mut Cpu, span: &'a mut SpanBatch, entry_gen: u64) -> ExecCtx<'a> {
        ExecCtx { cpu, span, entry_gen }
    }
}

impl fmt::Debug for ExecCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecCtx")
            .field("entry_gen", &self.entry_gen)
            .finish_non_exhaustive()
    }
}

/// How one block execution ended, in the protocol `Cpu::run_blocks`
/// consumes. Architectural state (counters, cycles-on-trap rewind,
/// pending fetch batch) is already settled by the backend; the caller
/// only does budget accounting, edge recording, and deopt detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockExit {
    /// The block exited normally (full run, mid-block redirect, or
    /// self-invalidation) after retiring `executed` instructions.
    Done {
        /// Instructions retired in this block execution.
        executed: u64,
    },
    /// A superblock guard side-exited the straightened path after
    /// retiring `executed` instructions. Identical to [`Done`] for
    /// budget accounting, but the exit is a *direct, statically-
    /// targeted* control transfer (the guard's off-trace continuation),
    /// so the run loop's PGO edge recorder notes it like a block-final
    /// branch even though the run ended short of the block's full
    /// width.
    ///
    /// [`Done`]: BlockExit::Done
    SideExit {
        /// Instructions retired in this block execution.
        executed: u64,
    },
    /// An `ecall`/`halt` stopped the run after `executed` instructions.
    Stop {
        /// Instructions retired in this block execution.
        executed: u64,
        /// The stopping event.
        event: StepEvent,
    },
    /// An architectural trap aborted the block. `counters.cycles` is
    /// already rewound to the pre-fetch checkpoint and the trap is
    /// traced; retired-instruction accounting is irrelevant (the trap
    /// propagates out of the run loop).
    Trap(Trap),
}

/// The compiled form of one basic block: a single host-side closure that
/// executes the whole (possibly fused) run with decode-time constants
/// folded. Shared via `Arc` — a VM clone shares its template's compiled
/// blocks (fleet fork-server warm cache) and an executing core keeps a
/// detached reference, immune to table mutation, exactly like the
/// `Arc<[BlockOp]>` runs.
pub struct CompiledBlock {
    /// Executes the block against `ctx`; behaviourally identical to
    /// [`interp::walk`] over the same ops with an un-clipped budget.
    pub(crate) enter: Box<dyn Fn(&mut ExecCtx<'_>) -> BlockExit + Send + Sync>,
    /// Instructions the block retires when executed in full.
    pub(crate) width: u32,
}

impl fmt::Debug for CompiledBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledBlock").field("width", &self.width).finish_non_exhaustive()
    }
}

/// A block-execution backend: given a decoded (possibly fused) run, it
/// may emit a [`CompiledBlock`] specialized for it.
///
/// Returning `None` means "this backend does not compile" — the block
/// keeps executing through the interpreter walker. The two in-tree
/// backends are [`Interp`] (never emits; the walker is its executor) and
/// [`Template`] (always emits). A future backend (e.g. the ROADMAP's
/// wasmrt experiment) can decline blocks containing ops it does not
/// support and they fall back per block, not per run.
pub trait CodeGenerator {
    /// Short static backend name (diagnostics and reports).
    fn name(&self) -> &'static str;

    /// Compiles the block at `entry_pc` whose decoded run is `ops`, or
    /// declines. `line_shift` is `log2` of the I-cache line size, used
    /// to fold each instruction's fetch-span kind at compile time.
    fn emit(&self, entry_pc: u64, line_shift: u32, ops: &[BlockOp]) -> Option<Arc<CompiledBlock>>;
}

/// The backend for a core configured with `tier` on or off.
pub(crate) fn generator(tier: bool) -> &'static dyn CodeGenerator {
    if tier {
        &Template
    } else {
        &Interp
    }
}
