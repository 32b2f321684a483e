//! The block backend: tier-3 template compilation.
//!
//! PR 3–5 made block dispatch cheap (basic blocks and fusion), but
//! walking a block's `[BlockOp]` run through a `match` per op
//! re-destructured each instruction's fields on every execution. The
//! [`Template`] backend instead compiles a block **once**, when the block
//! table installs it, into a single host-side closure
//! ([`CompiledBlock`]) built by composing per-instruction template
//! closures with decode-time constants folded — immediates, register
//! indices, and each instruction's same-line fetch-batch kind (entry /
//! guaranteed hit / line open) are burned into the closures, so a block
//! executes with no `BlockOp` match, no instruction destructuring, and
//! no span arithmetic. The op run is only the compiler's input; the
//! table keeps the closure.
//!
//! A compiled block carries no per-op budget checks: `Cpu::run_blocks`
//! enters it only when the step budget covers its whole width, and runs
//! a budget-clipped tail on the stepwise core instead. Once a
//! single-pass compiler costs a fraction of a microsecond per block, an
//! interpreter tier below it stops paying (Titzer, "Whose baseline
//! compiler is it anyway?", PAPERS.md); here the stepwise core is the
//! one reference every compiled block must match counter for counter.
//!
//! A compiled block runs over an [`ExecCtx`] — the core plus the
//! deferred fetch-hit batch ([`SpanBatch`]) that persists across block
//! boundaries — and reports how it ended through the [`BlockExit`]
//! protocol, so the surrounding loop does only budget accounting, edge
//! recording, and invalidation watching.
//!
//! **Compiled code never outruns invalidation.** A compiled closure is
//! reached only through a block the table's lookup handed out, and any
//! text change drops every block; the closure re-checks the generation
//! after every op that can store. A block whose execution sees the
//! generation move exits at that op boundary (a tier deopt), and its
//! code is dropped with every other block before any compiled code runs
//! again — it never executes stale state. See DESIGN.md invariant 8.

mod template;

pub use template::Template;

use crate::cpu::{Cpu, StepEvent, Trap};
use std::fmt;

/// Deferred same-line fetch-hit batch (see `Cpu::run_blocks`): the line
/// the last *real* fetch charge opened, and the guaranteed hits
/// accumulated in it since. One `SpanBatch` is threaded through every
/// block so the batch persists across block boundaries; the stepwise
/// fallback [`SpanBatch::reset`]s it (a raw `Cpu::step` makes its own
/// accesses, which can evict the line).
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
}

impl SpanBatch {
    /// A batch with no open span.
    pub(crate) fn new() -> SpanBatch {
        SpanBatch { cur_span: u64::MAX, span_addr: 0, pending: 0 }
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

    /// Per-instruction fetch charge at `addr`, whose line index `span`
    /// the compiler folded: a fetch in the open span defers a guaranteed
    /// hit; anything else flushes and charges a real fetch.
    #[inline]
    pub(crate) fn charge_at(&mut self, cpu: &mut Cpu, addr: u64, span: u64) {
        if span == self.cur_span {
            self.pending += 1;
        } else {
            self.open(cpu, addr, span);
        }
    }

    /// Defers one guaranteed same-line hit (for fetches statically known
    /// to stay in the open span).
    #[inline]
    pub(crate) fn hit(&mut self) {
        self.pending += 1;
    }

    /// Defers `n` guaranteed same-line hits at once (a compiled block
    /// counts its statically-known hits at compile time and materializes
    /// them only at exits, traps, and line opens — the points where the
    /// batch becomes observable).
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

/// Execution context a compiled block runs against: the core, the
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
        f.debug_struct("ExecCtx").field("entry_gen", &self.entry_gen).finish_non_exhaustive()
    }
}

/// How one block execution ended, in the protocol `Cpu::run_blocks`
/// consumes. Architectural state (counters, cycles-on-trap rewind,
/// pending fetch batch) is already settled by the compiled code; the
/// caller only does budget accounting, edge recording, and deopt
/// detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockExit {
    /// The block exited normally (full run, mid-block redirect,
    /// superblock guard side-exit, or self-invalidation) after retiring
    /// `executed` instructions.
    Done {
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
/// folded. Shared via `Arc` so that a VM clone shares its template's
/// compiled blocks (fleet fork-server warm cache); an executing core
/// moves it out of its table slot for each execution and back after it.
pub struct CompiledBlock {
    /// Executes the whole block against `ctx`; behaviourally identical
    /// to stepping its instructions on the stepwise core.
    pub(crate) enter: Box<dyn Fn(&mut ExecCtx<'_>) -> BlockExit + Send + Sync>,
    /// Instructions the block retires when executed in full.
    pub(crate) width: u32,
    /// Whether the final op is a branch or jump (`jal`, `jalr`).
    pub(crate) jump_exit: bool,
}

impl fmt::Debug for CompiledBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledBlock").field("width", &self.width).finish_non_exhaustive()
    }
}
