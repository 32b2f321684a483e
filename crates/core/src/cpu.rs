//! The Typed Architecture core: functional execution + cycle-approximate
//! timing of a single-issue, in-order, 5-stage pipeline (Figure 4).
//!
//! ## Timing model
//!
//! The simulator is *functional-first*: each [`Cpu::step`] executes one
//! instruction architecturally and advances a timing scoreboard that models
//! the paper's pipeline (Table 6):
//!
//! * one instruction issued per cycle, full forwarding;
//! * per-register ready times produce load-use and FP-latency interlocks;
//! * a pipelined multiplier/FPU and blocking integer/FP dividers;
//! * 2-cycle redirect penalty on branch *and type* mispredictions;
//! * I-cache/D-cache/TLB misses charge DRAM/page-walk latencies.
//!
//! This reproduces everything the paper measures — dynamic instruction
//! count, CPI, branch and I-cache MPKI, and type hit rates — without
//! stage-latch RTL simulation (see DESIGN.md for the substitution
//! rationale).

use crate::blocks::{BlockRun, BlockStats, BlockTable, MAX_BLOCK_LEN};
use crate::bpred::BranchPredictor;
use crate::codegen::{BlockExit, ExecCtx, SpanBatch};
use crate::config::CoreConfig;
use crate::counters::PerfCounters;
use crate::observe::{Attribution, HandlerProfile, Observers};
use crate::pgo::EdgeProfile;
use crate::regfile::{RegFile, TaggedValue};
use crate::tagio::{Inserted, SprState};
use crate::trt::TypeRuleTable;
use std::error::Error;
use std::fmt;
use tarch_isa::asm::Program;
use tarch_isa::{
    AluImmOp, AluOp, Csr, FpCmpOp, FpuOp, Instruction, MemWidth, Reg, Spr, TrtClass, TrtRule,
};
use tarch_mem::{Cache, DramModel, MainMemory, Tlb};
use tarch_trace::{Occupancy, TraceEventKind, TraceSummary, Tracer, WindowStats};

/// Outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An ordinary instruction retired.
    Retired,
    /// An `ecall` retired; the host should service it (helper id and
    /// arguments in the argument registers) and may modify machine state.
    Ecall,
    /// A `halt` retired; the core is stopped.
    Halted,
}

/// Architectural trap: the simulated program did something invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Instruction word failed to decode.
    InvalidInstruction {
        /// Faulting pc.
        pc: u64,
        /// The undecodable word.
        word: u32,
    },
    /// A data access was not naturally aligned.
    MisalignedAccess {
        /// Faulting pc.
        pc: u64,
        /// Faulting data address.
        addr: u64,
        /// Required alignment in bytes.
        align: u64,
    },
    /// The pc itself is misaligned.
    MisalignedPc {
        /// The bad pc.
        pc: u64,
    },
    /// `set_trt` was given an invalid packed rule.
    InvalidTrtRule {
        /// Faulting pc.
        pc: u64,
        /// The packed value.
        packed: u64,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::InvalidInstruction { pc, word } => {
                write!(f, "invalid instruction {word:#010x} at pc {pc:#x}")
            }
            Trap::MisalignedAccess { pc, addr, align } => {
                write!(f, "misaligned {align}-byte access to {addr:#x} at pc {pc:#x}")
            }
            Trap::MisalignedPc { pc } => write!(f, "misaligned pc {pc:#x}"),
            Trap::InvalidTrtRule { pc, packed } => {
                write!(f, "invalid TRT rule {packed:#x} at pc {pc:#x}")
            }
        }
    }
}

impl Trap {
    /// The faulting pc (every trap kind carries one).
    pub fn pc(&self) -> u64 {
        match *self {
            Trap::InvalidInstruction { pc, .. }
            | Trap::MisalignedAccess { pc, .. }
            | Trap::MisalignedPc { pc }
            | Trap::InvalidTrtRule { pc, .. } => pc,
        }
    }

    /// Short static mnemonic (used as the trace-event cause).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Trap::InvalidInstruction { .. } => "invalid-instruction",
            Trap::MisalignedAccess { .. } => "misaligned-access",
            Trap::MisalignedPc { .. } => "misaligned-pc",
            Trap::InvalidTrtRule { .. } => "invalid-trt-rule",
        }
    }
}

impl Error for Trap {}

/// The statistics [`Cpu::predecode_stats`] returns: every field is
/// always 0, since the core keeps no predecoded copy of the text. Kept
/// because the benchmark's work counters read it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredecodeStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub fills: u64,
    /// Always 0.
    pub invalidations: u64,
    /// Always 0.
    pub revalidations: u64,
}

/// The simulated core plus its memory system.
///
/// # Examples
///
/// ```
/// use tarch_core::{CoreConfig, Cpu, StepEvent};
/// use tarch_isa::text::assemble;
///
/// let program = assemble("li a0, 6\n li a1, 7\n mul a0, a0, a1\n halt\n", 0x1000, 0x20000)?;
/// let mut cpu = Cpu::new(CoreConfig::paper());
/// cpu.load_program(&program);
/// while cpu.step()? != StepEvent::Halted {}
/// assert_eq!(cpu.regs().read(tarch_isa::Reg::A0).v, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    config: CoreConfig,
    regs: RegFile,
    // `pub(crate)` fields are the execution surface the compiled blocks
    // in `codegen` run against; everything else stays private to this
    // module.
    pub(crate) pc: u64,
    spr: SprState,
    trt: TypeRuleTable,
    bpred: BranchPredictor,
    icache: Cache,
    dcache: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    dram: DramModel,
    mem: MainMemory,
    pub(crate) counters: PerfCounters,
    pub(crate) now: u64,
    ready: [u64; 32],
    ready_f: [u64; 32],
    halted: bool,
    pub(crate) blocks: BlockTable,
    /// Block-entry recorders: the PGO edge recorder
    /// ([`Cpu::enable_edge_profile`]) and per-handler attribution
    /// ([`Cpu::enable_handler_profile`]). `None` costs one predictable
    /// branch per block entry; neither changes anything architectural.
    observers: Option<Box<Observers>>,
    /// Attached observer when `CoreConfig::trace` is set; `None` costs
    /// one predictable branch per hook site and changes nothing
    /// architectural (pinned by `tests/predecode_equiv.rs`).
    tracer: Option<Box<Tracer>>,
}

impl Cpu {
    /// Creates a core with zeroed state.
    pub fn new(config: CoreConfig) -> Cpu {
        let tracer = config.trace.map(|tc| Box::new(Tracer::new(tc)));
        Cpu {
            regs: RegFile::new(),
            pc: 0,
            spr: SprState::default(),
            trt: TypeRuleTable::new(config.trt_entries),
            bpred: BranchPredictor::with_fast_path(config.branch, config.mem_fast_paths),
            icache: Cache::with_fast_path(config.icache, config.mem_fast_paths),
            dcache: Cache::with_fast_path(config.dcache, config.mem_fast_paths),
            itlb: Tlb::with_fast_path(config.itlb_entries, config.mem_fast_paths),
            dtlb: Tlb::with_fast_path(config.dtlb_entries, config.mem_fast_paths),
            dram: DramModel::new(config.dram),
            mem: MainMemory::new(),
            counters: PerfCounters::new(),
            now: 0,
            ready: [0; 32],
            ready_f: [0; 32],
            halted: false,
            blocks: BlockTable::new(),
            observers: None,
            tracer,
            config,
        }
    }

    /// Starts recording observed block-to-block control edges — the raw
    /// material for [`crate::PgoProfile`] superblock formation. The block
    /// engine notes one edge per block exit through the block's final
    /// branch or jump (the whole block executed); the stepwise core notes
    /// none. Profiles are recorded with no PGO profile loaded
    /// (`CoreConfig::pgo` unset): on a guided core, a superblock's guard
    /// side-exits go unnoted and its final exit is keyed by the
    /// superblock's entry pc, not by the base of the segment that exited.
    /// Host-side only: recording changes no simulated counter.
    pub fn enable_edge_profile(&mut self) {
        self.observers.get_or_insert_with(Box::default).edges = Some(EdgeProfile::new());
    }

    /// The recorded edge profile, when edge profiling is enabled.
    pub fn edge_profile(&self) -> Option<&EdgeProfile> {
        self.observers.as_deref()?.edges.as_ref()
    }

    /// Starts per-handler attribution over the handler entry pcs
    /// `entries` (the *split set*; handler `i` enters at `entries[i]`).
    /// From now on [`Cpu::run`] counts each arrival at an entry and
    /// credits the guest instructions retired from one arrival to the
    /// next to the handler arrived at; see [`HandlerProfile`]. The block
    /// builder ends every block before a split pc, so blocks built
    /// without the split set are flushed. Restarts the counts when
    /// called again. Host-side only: attribution changes no simulated
    /// counter.
    ///
    /// # Panics
    ///
    /// If `entries` holds `u16::MAX` pcs or more.
    pub fn enable_handler_profile(&mut self, entries: &[u64]) {
        self.observers.get_or_insert_with(Box::default).handlers = Some(Attribution::new(entries));
        self.blocks.flush();
    }

    /// The per-handler counts so far, when attribution is enabled, with
    /// the instructions since the last arrival credited to the handler
    /// arrived at.
    pub fn handler_profile(&self) -> Option<HandlerProfile> {
        let handlers = self.observers.as_deref()?.handlers.as_ref()?;
        Some(handlers.settled(self.guest_retired()))
    }

    /// Guest instructions retired so far: every retired instruction
    /// except those charged by native helpers.
    #[inline]
    fn guest_retired(&self) -> u64 {
        self.counters.instructions - self.counters.helper_instructions
    }

    /// Notes the start of a block, or of a stepwise instruction, at `pc`
    /// to the attached recorders. Inlined: a profiled run gets here once
    /// per block, and a call there costs it 3–5% of its speed.
    #[inline]
    fn observe_entry(&mut self, pc: u64, from: Option<u64>) {
        let retired = self.guest_retired();
        if let Some(observers) = self.observers.as_deref_mut() {
            observers.enter(pc, from, retired);
        }
    }

    /// Whether the split set holds `pc` (see
    /// [`Cpu::enable_handler_profile`]).
    #[inline]
    fn splits_at(&self, pc: u64) -> bool {
        let handlers = self.observers.as_deref().and_then(|o| o.handlers.as_ref());
        handlers.is_some_and(|h| h.splits_at(pc))
    }

    /// The attached tracer, when [`CoreConfig::trace`](crate::CoreConfig)
    /// is set (for Chrome-trace export and report rendering; see
    /// `tarch_trace::chrome` and `tarch_trace::report`).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// The attached tracer, mutably. Fleet runs use this to relabel a
    /// cloned core's tracer with its tenant id so exported events stay
    /// attributable after per-tenant traces are viewed together.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    /// Flushes the tracer's final partial metric window against the
    /// current counters and returns the serializable [`TraceSummary`];
    /// `None` when tracing is off. Safe to call more than once (the
    /// flush is a no-op when nothing accumulated since the last one).
    pub fn finish_trace(&mut self) -> Option<TraceSummary> {
        self.tracer.as_ref()?;
        let now = self.now;
        let stats = self.window_stats();
        let occ = self.occupancy();
        let t = self.tracer.as_deref_mut().expect("checked above");
        t.finish(now, stats, occ);
        Some(t.summary())
    }

    /// Cumulative counter snapshot in the tracer's vocabulary (the
    /// tracer differences successive snapshots itself).
    fn window_stats(&self) -> WindowStats {
        let c = &self.counters;
        let b = self.bpred.stats();
        WindowStats {
            cycles: self.now,
            instructions: c.instructions,
            icache_accesses: c.icache_accesses,
            icache_misses: c.icache_misses,
            dcache_accesses: c.dcache_accesses,
            dcache_misses: c.dcache_misses,
            itlb_misses: c.itlb_misses,
            dtlb_misses: c.dtlb_misses,
            branches: b.branches + b.jumps,
            mispredicts: b.total_misses(),
        }
    }

    /// Point-in-time structure occupancies for a metric window.
    fn occupancy(&self) -> Occupancy {
        Occupancy {
            icache_lines: self.icache.occupancy(),
            dcache_lines: self.dcache.occupancy(),
            itlb_entries: self.itlb.occupancy(),
            dtlb_entries: self.dtlb.occupancy(),
            trt_rules: self.trt.len() as u64,
            blocks: self.blocks.len() as u64,
            compiled: self.blocks.compiled_len() as u64,
        }
    }

    /// Sampling/window tick at guest `pc`: one branch when tracing is
    /// off, the outlined body otherwise.
    #[inline]
    fn trace_tick(&mut self, pc: u64) {
        if self.tracer.is_some() {
            self.trace_tick_on(pc);
        }
    }

    fn trace_tick_on(&mut self, pc: u64) {
        let now = self.now;
        let due = match self.tracer.as_deref_mut() {
            Some(t) => t.tick(pc, now),
            None => return,
        };
        if due {
            let stats = self.window_stats();
            let occ = self.occupancy();
            if let Some(t) = self.tracer.as_deref_mut() {
                t.close_windows(now, stats, occ);
            }
        }
    }

    /// Records a structured trace event (no-op when tracing is off).
    #[inline]
    pub(crate) fn trace_event(&mut self, kind: TraceEventKind) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.event(self.now, kind);
        }
    }

    /// Records a trap event (no-op when tracing is off).
    #[inline]
    pub(crate) fn trace_trap(&mut self, trap: &Trap) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.event(self.now, TraceEventKind::Trap { cause: trap.mnemonic(), pc: trap.pc() });
        }
    }

    /// Copies a program image into memory and points the pc at its entry.
    pub fn load_program(&mut self, program: &Program) {
        for (i, word) in program.text.iter().enumerate() {
            self.mem.write_u32(program.text_base + 4 * i as u64, *word);
        }
        self.mem.write_bytes(program.data_base, &program.data);
        self.blocks.reset(program.text_base, program.text.len());
        self.pc = program.entry;
        self.halted = false;
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Redirects the pc (used by hosts and tests).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
        self.halted = false;
    }

    /// The register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// The register file, mutably (native helpers write results here).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// Simulated memory.
    pub fn mem(&self) -> &MainMemory {
        &self.mem
    }

    /// Simulated memory, mutably (loaders and tests).
    ///
    /// Handing out raw mutable memory means the caller may write anywhere
    /// — including the text segment — so the basic-block table drops
    /// every block, and each is rebuilt when it is next entered. Runtime
    /// heap writes must therefore go through [`Cpu::host_store_u64`],
    /// which leaves the blocks alone unless the write lands in text.
    pub fn mem_mut(&mut self) -> &mut MainMemory {
        self.blocks.flush();
        &mut self.mem
    }

    /// Freezes simulated memory into an immutable shared base image so
    /// subsequent `clone()`s of this core share pages copy-on-write
    /// instead of deep-copying them (see [`MainMemory::freeze`]).
    ///
    /// The fork-server idiom: construct the VM, compile and load the
    /// guest, call `freeze_memory`, then stamp out clones — each clone is
    /// an independent core whose first write to any shared page copies
    /// just that page. Freezing changes no byte of simulated memory, so
    /// — unlike [`Cpu::mem_mut`] — it does *not* stale-mark the block
    /// table: every cached block stays valid.
    pub fn freeze_memory(&mut self) {
        self.mem.freeze();
    }

    /// Host-side store of one 64-bit word (native runtime helpers
    /// updating guest heap state between simulated instructions).
    ///
    /// Unlike [`Cpu::mem_mut`] — which hands out raw memory and must
    /// therefore assume the caller wrote *anywhere*, dropping every
    /// block — this records the store precisely: the block table is
    /// invalidated only when `addr..addr+8` overlaps the text range,
    /// exactly as a guest `sd` to the same address would. Keeps the
    /// block generation intact across the heap writes the VM runtimes
    /// issue on nearly every native call, so no block is dropped for
    /// them.
    pub fn host_store_u64(&mut self, addr: u64, v: u64) {
        self.mem.write_u64(addr, v);
        self.note_code_store(addr, 8);
    }

    /// Always all zero: the core keeps no predecoded copy of the text.
    /// Kept because the benchmark's work counters read it.
    pub fn predecode_stats(&self) -> PredecodeStats {
        PredecodeStats::default()
    }

    /// Basic-block-engine effectiveness statistics (host-side metric; not
    /// an architectural counter).
    pub fn block_stats(&self) -> BlockStats {
        self.blocks.stats()
    }

    /// Number of installed blocks currently carrying compiled code
    /// (host-side metric; every build compiles, and a clone starts with
    /// its template's count — the compiled cache is shared).
    pub fn compiled_blocks(&self) -> usize {
        self.blocks.compiled_len()
    }

    /// Performance counters.
    #[inline]
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Branch predictor statistics.
    pub fn branch_stats(&self) -> crate::bpred::BranchStats {
        self.bpred.stats()
    }

    /// The special-purpose registers.
    pub fn spr(&self) -> SprState {
        self.spr
    }

    /// The special-purpose registers, mutably (context-switch restore).
    pub fn spr_mut(&mut self) -> &mut SprState {
        &mut self.spr
    }

    /// The Type Rule Table.
    pub fn trt(&self) -> &TypeRuleTable {
        &self.trt
    }

    /// The Type Rule Table, mutably (context-switch restore).
    pub fn trt_mut(&mut self) -> &mut TypeRuleTable {
        &mut self.trt
    }

    /// Whether the core has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Charges `instructions`/`cycles` consumed by a native helper
    /// (`ecall` service). Costs are identical across ISA levels, modelling
    /// runtime/libc work the paper leaves in software.
    pub fn charge(&mut self, instructions: u64, cycles: u64) {
        self.counters.instructions += instructions;
        self.counters.helper_instructions += instructions;
        self.now += cycles;
        self.counters.helper_cycles += cycles;
        self.counters.cycles = self.now;
    }

    fn dmem_access(&mut self, addr: u64, is_write: bool) -> u64 {
        self.counters.dcache_accesses += 1;
        let mut extra = 0;
        if !self.dtlb.access(addr) {
            self.counters.dtlb_misses += 1;
            extra += self.config.latency.tlb_miss;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.dtlb_miss(addr, self.now);
            }
        }
        let res = self.dcache.access(addr, is_write);
        if !res.hit {
            self.counters.dcache_misses += 1;
            extra += self.dram.access(addr);
            if let Some(t) = self.tracer.as_deref_mut() {
                t.dcache_miss(addr, self.now);
            }
        }
        // Dirty writebacks drain through a write buffer: they generate DRAM
        // traffic but do not stall the pipeline.
        if let Some(victim) = res.writeback {
            self.dram.access(victim);
        }
        extra
    }

    fn check_align(&self, pc: u64, addr: u64, align: u64) -> Result<(), Trap> {
        if !addr.is_multiple_of(align) {
            Err(Trap::MisalignedAccess { pc, addr, align })
        } else {
            Ok(())
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on architectural errors (bad instruction,
    /// misaligned access); the core state is left at the faulting
    /// instruction.
    pub fn step(&mut self) -> Result<StepEvent, Trap> {
        let result = self.step_inner();
        if let Err(trap) = &result {
            self.trace_trap(trap);
        }
        result
    }

    fn step_inner(&mut self) -> Result<StepEvent, Trap> {
        if self.halted {
            return Ok(StepEvent::Halted);
        }
        let pc = self.pc;
        if !pc.is_multiple_of(4) {
            return Err(Trap::MisalignedPc { pc });
        }

        self.charge_fetch(pc);
        let word = self.mem.read_u32(pc);
        let instr = Instruction::decode(word).map_err(|_| Trap::InvalidInstruction { pc, word })?;

        self.counters.instructions += 1;
        let event = self.execute(pc, instr)?;
        self.counters.cycles = self.now;
        self.trace_tick(pc);
        Ok(event)
    }

    /// Runs until `halt`, an `ecall`, or `max_steps` instructions.
    ///
    /// Returns the event that stopped execution ([`StepEvent::Retired`]
    /// means the step budget ran out).
    ///
    /// Dispatches to the basic-block engine when
    /// [`CoreConfig::blocks`](crate::CoreConfig) is set; counters,
    /// architectural state, and trap behaviour are bit-identical either
    /// way (the block engine is a host-side fast path only).
    ///
    /// # Errors
    ///
    /// Propagates traps from [`Cpu::step`].
    pub fn run(&mut self, max_steps: u64) -> Result<StepEvent, Trap> {
        if self.config.blocks {
            return self.run_blocks(max_steps);
        }
        for _ in 0..max_steps {
            // Every stepwise instruction starts a "block" of one for the
            // recorders.
            if self.observers.is_some() && !self.halted {
                self.observe_entry(self.pc, None);
            }
            match self.step()? {
                StepEvent::Retired => {}
                other => return Ok(other),
            }
        }
        Ok(StepEvent::Retired)
    }

    /// [`Cpu::run`] through the basic-block engine: straight-line runs of
    /// decoded instructions execute as one compiled host closure, with
    /// the `halted` check, pc-alignment check, block lookup, and
    /// `counters.cycles` sync hoisted to block boundaries. Per-instruction
    /// *architectural* work — fetch charges, branch prediction, counters —
    /// is unchanged.
    ///
    /// Stepwise equivalence notes (checked by `tests/predecode_equiv.rs`):
    ///
    /// * Intra-block pcs are `entry + 4k` with `entry` 4-aligned, so one
    ///   alignment check at block entry covers the block; redirect targets
    ///   are re-checked at their own block entry.
    /// * Nothing observes `counters.cycles` mid-run (`csrr cycle` reads
    ///   the scoreboard directly), so syncing it at block boundaries — and
    ///   restoring the pre-fetch value on a trap, exactly where the
    ///   stepwise path left it — is invisible.
    /// * Straight-line fetches after the first to the same I-cache line
    ///   are guaranteed hits (only fetches touch the I-cache/I-TLB, so
    ///   nothing can evict the line mid-block), and a hit costs zero
    ///   latency and no DRAM traffic. Their access/recency bookkeeping is
    ///   therefore *batched*: deferred while the fetch stream stays in
    ///   one line, then applied in bulk ([`Cache::repeat_hits`],
    ///   [`Tlb::repeat_hits`]) — bit-identical final state, because the
    ///   only mid-batch observables are miss counters (charged eagerly on
    ///   the real access that opened the line) and `now` (hits add zero).
    ///   One line never spans pages (64 B < 4 KB), so the same span check
    ///   covers the I-TLB. The pending batch is flushed before *every*
    ///   exit from the instruction loop.
    /// * A redirect (taken branch, jump, type/`chklb` miss) is detected as
    ///   `pc != fall-through` after execute and ends the block.
    /// * **Per-handler attribution** ([`Cpu::enable_handler_profile`]):
    ///   blocks end before split pcs and the recorder sees every block
    ///   start, so a profiled run retires the same instructions, at most
    ///   through shorter blocks (DESIGN.md invariant 10).
    /// * **Compiled blocks** (`codegen::Template`): every block is
    ///   compiled when it is built, into a host closure that applies each
    ///   instruction's charges through the same `exec_*` cores the
    ///   stepwise `Cpu::execute` arms delegate to, with decode-time
    ///   constants folded. **Fused pairs** (alu+alu and alu+`jal`,
    ///   `CoreConfig::fuse`) apply both components' charges in exact
    ///   program order with no check between them: the first component
    ///   is ALU-class, so it cannot trap, store, redirect, or stop (see
    ///   `fuse_pair` in `blocks.rs` and DESIGN.md invariant 7).
    /// * A block runs only after [`BlockTable::lookup`] or a fresh build
    ///   proved it current (DESIGN.md invariant 6): every entry probes
    ///   the entry table, which a text change empties, so each block is
    ///   rebuilt from current memory.
    /// * A guest store into the text range drops every block and bumps
    ///   the block generation; the compiled code re-checks the generation
    ///   after every op that can store, so a block that invalidates
    ///   *itself* exits at the store (a tier deopt, DESIGN.md invariant
    ///   8), and its code, its slot gone, is dropped. The code is moved
    ///   out of its table slot for the execution and back after it
    ///   (DESIGN.md invariant 2): mid-block the loop makes no table call
    ///   but `generation` and `note_store`, and no block entry touches a
    ///   refcount.
    /// * **Budget-clipped tails**: a compiled block carries no budget
    ///   checks, so when the remaining budget is below a block's width
    ///   the tail runs on [`Cpu::step`] instead (`Cpu::run_tail`). That
    ///   happens once per step budget or fleet slice.
    ///
    /// # Errors
    ///
    /// Propagates traps from [`Cpu::step`].
    pub fn run_blocks(&mut self, max_steps: u64) -> Result<StepEvent, Trap> {
        let mut remaining = max_steps;
        // Entry pc of the block just exited through its final branch or
        // jump: a phase-1 PGO run notes the (from, to) edge at the next
        // entry.
        let mut exited_from: Option<u64> = None;
        // Deferred same-line fetch-hit batch; persists across block
        // boundaries — only fetch charges touch the I-cache/I-TLB inside
        // this loop, so a line stays resident until the next real charge
        // (the stepwise fallbacks reset the span: `step` makes its own
        // accesses, which can evict). See [`SpanBatch`].
        let mut span = SpanBatch::new();
        while remaining > 0 {
            if self.halted {
                span.flush(self);
                return Ok(StepEvent::Halted);
            }
            let pc = self.pc;
            // Sampling/window tick at block-entry granularity: `now` is
            // synced as of the previous block boundary, so the elapsed
            // cycles land on the block about to run (closest attribution
            // available without per-instruction cost).
            self.trace_tick(pc);
            // The recorders, behind one test: phase-1 PGO edge
            // recording (one note per exit through a final branch or
            // jump, keyed by the blocks' entry pcs) and per-handler
            // attribution (every arrival at a split pc starts a block).
            // Host-side only.
            let from = exited_from.take();
            if self.observers.is_some() {
                self.observe_entry(pc, from);
            }
            if !pc.is_multiple_of(4) {
                span.flush(self);
                let trap = Trap::MisalignedPc { pc };
                self.trace_trap(&trap);
                return Err(trap);
            }
            if !self.blocks.covers(pc) {
                // Outside the loaded text image (dynamically placed
                // code): stepwise fallback.
                span.flush(self);
                span.reset();
                match self.step()? {
                    StepEvent::Retired => {
                        remaining -= 1;
                        continue;
                    }
                    other => return Ok(other),
                }
            }
            let run = match self.blocks.lookup(pc) {
                Some(found) => found,
                None => match self.build_block(pc) {
                    Some(built) => built,
                    None => {
                        // The entry word is undecodable: replicate the
                        // stepwise trap — fetch charges applied,
                        // `instructions` not incremented, cycles left at
                        // the previous sync.
                        span.flush(self);
                        self.charge_fetch(pc);
                        let word = self.mem.read_u32(pc);
                        let trap = Trap::InvalidInstruction { pc, word };
                        self.trace_trap(&trap);
                        return Err(trap);
                    }
                },
            };
            if remaining < u64::from(run.width) {
                span.flush(self);
                span.reset();
                match self.run_tail(remaining)? {
                    (executed, StepEvent::Retired) => {
                        remaining -= executed;
                        continue;
                    }
                    // The budget is dead on a stop.
                    (_, event) => return Ok(event),
                }
            }
            // The compiled code leaves its table slot for this one
            // execution and goes back after it.
            let entry_gen = self.blocks.generation();
            let code = self.blocks.take_compiled(run.bid);
            let exit = (code.enter)(&mut ExecCtx::new(self, &mut span, entry_gen));
            self.blocks.put_compiled(run.bid, code);
            match exit {
                // The compiled code already settled trap state (span
                // flushed, cycles rewound to the checkpoint, trap traced).
                BlockExit::Trap(trap) => return Err(trap),
                BlockExit::Stop { executed: _, event } => {
                    // The budget is dead on a stop return, so `remaining`
                    // is deliberately not decremented.
                    self.counters.cycles = self.now;
                    span.flush(self);
                    return Ok(event);
                }
                BlockExit::Done { executed } => {
                    remaining -= executed;
                    self.counters.cycles = self.now;
                    if self.blocks.generation() != entry_gen {
                        // The block's execution saw an invalidation (a
                        // store into text, possibly by the block itself)
                        // and exited at that op boundary. Count the deopt:
                        // the store dropped every block, so the next entry
                        // at this pc rebuilds from current memory before
                        // any compiled code runs again (DESIGN.md
                        // invariant 8).
                        self.blocks.note_deopt();
                        self.trace_event(TraceEventKind::BlockDeopt { pc });
                    }
                    // The edge recorder notes an exit through the block's
                    // final branch or jump (known at build time) when the
                    // whole run executed — early exits (mid-block
                    // redirect, guard side-exit, self-invalidating store,
                    // trap) leave `executed` short of the width, and a
                    // final `ecall`/`halt` is no such exit. Indirect jumps
                    // (`jalr`) count too.
                    if run.jump_exit && executed == u64::from(run.width) {
                        exited_from = Some(pc);
                    }
                }
            }
        }
        span.flush(self);
        Ok(StepEvent::Retired)
    }

    /// Runs a budget-clipped block tail on [`Cpu::step`]: at most
    /// `budget` instructions, fewer than the block's width, so the tail
    /// never reaches the block's final instruction. Returns the
    /// instructions retired and the last event after a stop, a redirect,
    /// or a block-ending instruction (a superblock's guard), so that the
    /// loop's entry hooks (edge recorder, handler attribution, tracer
    /// tick) see every arrival; traps propagate as from `step`. Kept out
    /// of line: written into `run_blocks`, this loop slowed every block
    /// entry.
    #[cold]
    #[inline(never)]
    fn run_tail(&mut self, budget: u64) -> Result<(u64, StepEvent), Trap> {
        let mut executed = 0;
        while executed < budget {
            let pc = self.pc;
            let ends = Instruction::decode(self.mem.read_u32(pc)).is_ok_and(ends_block);
            let event = self.step()?;
            executed += 1;
            if event != StepEvent::Retired || ends || self.pc != pc.wrapping_add(4) {
                return Ok((executed, event));
            }
        }
        Ok((executed, StepEvent::Retired))
    }

    /// Decodes the basic block starting at `pc`, installs it in the block
    /// table and compiles it. Adjacent pairs are fused at install time
    /// when the config asks for it, and a loaded PGO profile straightens
    /// the measured hot path into a superblock. Returns `None` when the
    /// entry word itself does not decode (the caller raises the stepwise
    /// trap); an undecodable word *after* a decodable run simply ends the
    /// block before it.
    fn build_block(&mut self, pc: u64) -> Option<BlockRun> {
        let instrs = self.decode_run(pc, MAX_BLOCK_LEN);
        if instrs.is_empty() {
            return None;
        }
        let fuse = self.config.fuse;
        let line_shift = self.config.icache.line_bytes.trailing_zeros();
        let mut segs = vec![(pc, instrs)];
        // Trace-driven superblock formation: follow the profile's
        // measured dominant successor across the block-ending branch,
        // straightening the hot path into one multi-segment block with
        // guard side-exits.
        if let Some(pgo) = self.config.pgo.clone() {
            self.extend_superblock(&mut segs, &pgo);
        }
        let run = if segs.len() > 1 {
            self.blocks.install_super(segs, fuse, line_shift)
        } else {
            let (pc, instrs) = segs.pop().expect("entry segment always present");
            self.blocks.install(pc, instrs, fuse, line_shift)
        };
        self.trace_event(TraceEventKind::BlockBuild { pc, len: run.width });
        self.trace_event(TraceEventKind::BlockCompile { pc, len: run.width });
        Some(run)
    }

    /// Decodes one straight-line run starting at `pc`: up to `max`
    /// instructions, ending early at a block-ending instruction, the
    /// text-range edge, an undecodable word, or before a split pc
    /// ([`Cpu::enable_handler_profile`]). This is the one place the block
    /// engine decodes a text word.
    fn decode_run(&self, pc: u64, max: usize) -> Vec<Instruction> {
        let mut instrs = Vec::new();
        let mut p = pc;
        while self.blocks.covers(p) && instrs.len() < max {
            if p != pc && self.splits_at(p) {
                break;
            }
            let Ok(instr) = Instruction::decode(self.mem.read_u32(p)) else { break };
            instrs.push(instr);
            if ends_block(instr) {
                break;
            }
            p = p.wrapping_add(4);
        }
        instrs
    }

    /// Grows a decoded run into a superblock along the profile's
    /// dominant edges. Extension is legal only when the last segment
    /// ends in a *direct* branch or jump whose static target (or
    /// fall-through, for a branch) equals the measured dominant
    /// successor — the guard then re-derives the successor at run time
    /// and side-exits on disagreement, so a stale profile costs host
    /// speed but can never change architectural behaviour. Stops at the
    /// segment cap, the block-length cap, any revisited segment base
    /// (loop prevention), a split pc (attribution needs every arrival
    /// there to start a block), or the first edge the profile has no
    /// verdict on.
    fn extend_superblock(
        &mut self,
        segs: &mut Vec<(u64, Vec<Instruction>)>,
        pgo: &crate::pgo::PgoProfile,
    ) {
        const MAX_SUPERBLOCK_SEGS: usize = 4;
        loop {
            if segs.len() >= MAX_SUPERBLOCK_SEGS {
                return;
            }
            let total: usize = segs.iter().map(|(_, i)| i.len()).sum();
            if total >= MAX_BLOCK_LEN {
                return;
            }
            let (last_base, last_len, ender) = {
                let (base, instrs) = segs.last().expect("entry segment always present");
                match instrs.last() {
                    Some(&i) => (*base, instrs.len(), i),
                    None => return,
                }
            };
            let Some(succ) = pgo.successor(last_base) else { return };
            let ender_pc = last_base + 4 * (last_len as u64 - 1);
            let guardable = match ender {
                Instruction::Branch { offset, .. } => {
                    succ == ender_pc.wrapping_add(offset as i64 as u64)
                        || succ == ender_pc.wrapping_add(4)
                }
                Instruction::Jal { offset, .. } => {
                    succ == ender_pc.wrapping_add(offset as i64 as u64)
                }
                _ => false, // never across indirect jumps or stops
            };
            if !guardable
                || !succ.is_multiple_of(4)
                || !self.blocks.covers(succ)
                || self.splits_at(succ)
                || segs.iter().any(|&(base, _)| base == succ)
            {
                return;
            }
            let instrs = self.decode_run(succ, MAX_BLOCK_LEN - total);
            if instrs.is_empty() {
                return;
            }
            segs.push((succ, instrs));
        }
    }

    /// Charges one instruction fetch at `pc`: I-cache access always;
    /// I-TLB miss adds the page-walk latency and the miss counter;
    /// I-cache miss adds the DRAM latency and the miss counter. The
    /// charges are identical whether the instruction is then stepped or
    /// executed from a basic block — only host-side decode work differs
    /// between those paths.
    #[inline]
    pub(crate) fn charge_fetch(&mut self, pc: u64) {
        self.counters.icache_accesses += 1;
        if !self.itlb.access(pc) {
            self.counters.itlb_misses += 1;
            self.now += self.config.latency.tlb_miss;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.itlb_miss(pc, self.now);
            }
        }
        if !self.icache.access(pc, false).hit {
            self.counters.icache_misses += 1;
            self.now += self.dram.access(pc);
            if let Some(t) = self.tracer.as_deref_mut() {
                t.icache_miss(pc, self.now);
            }
        }
    }

    /// Applies `count` deferred same-line fetch hits at `addr` in one
    /// batch: exactly the state `count` calls of [`Cpu::charge_fetch`]
    /// would leave, *given* the block engine's guarantee that each would
    /// hit both the I-TLB and the I-cache (zero latency, no miss
    /// counters, no DRAM). See [`Cpu::run_blocks`].
    #[inline]
    pub(crate) fn apply_fetch_hits(&mut self, addr: u64, count: u64) {
        self.counters.icache_accesses += count;
        self.itlb.repeat_hits(addr, count);
        self.icache.repeat_hits(addr, count);
    }

    /// Records a guest store so the block table observes it.
    #[inline]
    fn note_code_store(&mut self, addr: u64, len: u64) {
        if self.blocks.note_store(addr, len) {
            self.trace_event(TraceEventKind::CodeInvalidate { addr });
        }
    }

    #[inline]
    fn stall2(&self, rs1: Reg, rs2: Reg) -> u64 {
        self.now.max(self.ready[rs1.number() as usize]).max(self.ready[rs2.number() as usize])
    }

    #[inline]
    fn stall1(&self, rs1: Reg) -> u64 {
        self.now.max(self.ready[rs1.number() as usize])
    }

    #[inline]
    fn set_ready(&mut self, rd: Reg, at: u64) {
        if !rd.is_zero() {
            self.ready[rd.number() as usize] = at;
        }
    }

    // --- shared execution cores ---
    //
    // One implementation per instruction class, used by BOTH the
    // stepwise [`Cpu::execute`] arms and the compiled templates in
    // `codegen` — compiled/stepwise equivalence holds by construction,
    // not by keeping two copies in sync. The helpers deliberately do not
    // touch `self.pc`: `execute` folds their result into its `next_pc`,
    // the templates set `pc` once per op.

    /// `alu`/`alu-imm`/`lui`: never traps, redirects, stores, or stops.
    /// Dispatches to the split per-kind cores below (which the template
    /// backend calls directly, with the instruction kind folded at block
    /// compile time).
    #[inline]
    fn exec_alu_class(&mut self, instr: Instruction) {
        match instr {
            Instruction::Alu { op, rd, rs1, rs2 } => self.exec_alu(op, rd, rs1, rs2),
            Instruction::AluImm { op, rd, rs1, imm } => self.exec_alu_imm(op, rd, rs1, imm),
            Instruction::Lui { rd, imm } => self.exec_lui(rd, imm),
            _ => unreachable!("non-ALU-class instruction in exec_alu_class"),
        }
    }

    /// Reg-reg ALU core.
    #[inline]
    pub(crate) fn exec_alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        let lat = self.config.latency;
        let t = self.stall2(rs1, rs2);
        let a = self.regs.read(rs1).v;
        let b = self.regs.read(rs2).v;
        let v = alu_op(op, a, b);
        self.regs.write_untyped(rd, v);
        match op {
            AluOp::Mul | AluOp::Mulh | AluOp::Mulw => {
                self.now = t + 1;
                self.set_ready(rd, t + lat.mul);
            }
            AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu | AluOp::Divw | AluOp::Remw => {
                self.now = t + lat.div;
                self.set_ready(rd, self.now);
            }
            _ => {
                self.now = t + 1;
                self.set_ready(rd, t + 1);
            }
        }
    }

    /// ALU-immediate core.
    #[inline]
    pub(crate) fn exec_alu_imm(&mut self, op: AluImmOp, rd: Reg, rs1: Reg, imm: i32) {
        let t = self.stall1(rs1);
        let a = self.regs.read(rs1).v;
        let v = alu_imm_op(op, a, imm);
        self.regs.write_untyped(rd, v);
        self.now = t + 1;
        self.set_ready(rd, t + 1);
    }

    /// `lui` core.
    #[inline]
    pub(crate) fn exec_lui(&mut self, rd: Reg, imm: i32) {
        let t = self.now;
        self.regs.write_untyped(rd, ((imm as i64) << 12) as u64);
        self.now = t + 1;
        self.set_ready(rd, t + 1);
    }

    /// Integer load; may trap on misalignment, never redirects.
    #[inline]
    pub(crate) fn exec_load(
        &mut self,
        pc: u64,
        width: MemWidth,
        signed: bool,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    ) -> Result<(), Trap> {
        let lat = self.config.latency;
        let t = self.stall1(rs1);
        let addr = self.regs.read(rs1).v.wrapping_add(imm as i64 as u64);
        self.check_align(pc, addr, width.bytes())?;
        let raw = match width {
            MemWidth::Byte => self.mem.read_u8(addr) as u64,
            MemWidth::Half => self.mem.read_u16(addr) as u64,
            MemWidth::Word => self.mem.read_u32(addr) as u64,
            MemWidth::Double => self.mem.read_u64(addr),
        };
        let v = if signed { sign_extend(raw, width) } else { raw };
        self.regs.write_untyped(rd, v);
        self.counters.loads += 1;
        let extra = self.dmem_access(addr, false);
        if extra == 0 {
            self.now = t + 1;
            self.set_ready(rd, t + 1 + lat.load_use);
        } else {
            self.now = t + 1 + extra;
            self.set_ready(rd, self.now);
        }
        Ok(())
    }

    /// Integer store; may trap on misalignment and may invalidate
    /// decoded-code caches (text store).
    #[inline]
    pub(crate) fn exec_store(
        &mut self,
        pc: u64,
        width: MemWidth,
        rs2: Reg,
        rs1: Reg,
        imm: i32,
    ) -> Result<(), Trap> {
        let t = self.stall2(rs1, rs2);
        let addr = self.regs.read(rs1).v.wrapping_add(imm as i64 as u64);
        self.check_align(pc, addr, width.bytes())?;
        let v = self.regs.read(rs2).v;
        match width {
            MemWidth::Byte => self.mem.write_u8(addr, v as u8),
            MemWidth::Half => self.mem.write_u16(addr, v as u16),
            MemWidth::Word => self.mem.write_u32(addr, v as u32),
            MemWidth::Double => self.mem.write_u64(addr, v),
        }
        self.note_code_store(addr, width.bytes());
        self.counters.stores += 1;
        let extra = self.dmem_access(addr, true);
        self.now = t + 1 + extra;
        Ok(())
    }

    /// Conditional branch; returns the next pc. Never traps.
    #[inline]
    pub(crate) fn exec_branch(
        &mut self,
        pc: u64,
        cond: tarch_isa::BranchCond,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    ) -> u64 {
        let t = self.stall2(rs1, rs2);
        let a = self.regs.read(rs1).v;
        let b = self.regs.read(rs2).v;
        let taken = cond.eval(a, b);
        let target = pc.wrapping_add(offset as i64 as u64);
        let correct = self.bpred.predict_branch(pc, taken, target);
        self.now = t + 1 + if correct { 0 } else { self.bpred.miss_penalty() };
        if taken {
            target
        } else {
            pc.wrapping_add(4)
        }
    }

    /// Direct jump-and-link; returns the target. Never traps.
    #[inline]
    pub(crate) fn exec_jal(&mut self, pc: u64, rd: Reg, offset: i32) -> u64 {
        let t = self.now;
        let target = pc.wrapping_add(offset as i64 as u64);
        self.regs.write_untyped(rd, pc + 4);
        self.set_ready(rd, t + 1);
        let correct = self.bpred.predict_jump(pc, target, rd == Reg::RA);
        self.now = t + 1 + if correct { 0 } else { self.bpred.miss_penalty() };
        target
    }

    /// Indirect jump-and-link; returns the target. Never traps.
    #[inline]
    pub(crate) fn exec_jalr(&mut self, pc: u64, rd: Reg, rs1: Reg, imm: i32) -> u64 {
        let t = self.stall1(rs1);
        let target = self.regs.read(rs1).v.wrapping_add(imm as i64 as u64) & !1;
        let is_return = rd.is_zero() && rs1 == Reg::RA;
        let is_call = rd == Reg::RA;
        self.regs.write_untyped(rd, pc + 4);
        self.set_ready(rd, t + 1);
        let correct = self.bpred.predict_indirect(pc, target, is_call, is_return);
        self.now = t + 1 + if correct { 0 } else { self.bpred.miss_penalty() };
        target
    }

    /// Tagged load; may trap on misalignment, never redirects or stores.
    #[inline]
    pub(crate) fn exec_tld(&mut self, pc: u64, rd: Reg, rs1: Reg, imm: i32) -> Result<(), Trap> {
        let lat = self.config.latency;
        let t = self.stall1(rs1);
        let addr = self.regs.read(rs1).v.wrapping_add(imm as i64 as u64);
        self.check_align(pc, addr, 8)?;
        let value_dword = self.mem.read_u64(addr);
        let tag_dword = if self.spr.nan_detect() {
            0
        } else {
            let tag_addr = addr.wrapping_add(self.spr.tag_dword().byte_offset() as u64);
            self.mem.read_u64(tag_addr)
        };
        let entry = self.spr.extract(value_dword, tag_dword);
        self.regs.write(rd, entry);
        self.counters.loads += 1;
        self.counters.tagged_mem += 1;
        let mut extra = self.dmem_access(addr, false);
        extra += self.tag_line_cost(addr, false);
        if extra == 0 {
            self.now = t + 1;
            self.set_ready(rd, t + 1 + lat.load_use);
        } else {
            self.now = t + 1 + extra;
            self.set_ready(rd, self.now);
        }
        Ok(())
    }

    /// Type check; returns the next pc (fall-through on hit, `R_hdl` on
    /// miss). Never traps.
    #[inline]
    pub(crate) fn exec_tchk(&mut self, pc: u64, rs1: Reg, rs2: Reg) -> u64 {
        let lat = self.config.latency;
        let t = self.stall2(rs1, rs2);
        let a = self.regs.read(rs1);
        let b = self.regs.read(rs2);
        self.counters.type_checks += 1;
        if self.trt.lookup(TrtClass::Tchk, a.t, b.t).is_some() {
            self.counters.type_hits += 1;
            self.now = t + 1;
            pc.wrapping_add(4)
        } else {
            self.counters.type_misses += 1;
            self.now = t + 1 + lat.type_miss_penalty;
            self.spr.hdl
        }
    }

    /// Tag read into an integer register. Never traps, redirects, or
    /// stores.
    #[inline]
    pub(crate) fn exec_tget(&mut self, rd: Reg, rs1: Reg) {
        let t = self.stall1(rs1);
        let tag = self.regs.read(rs1).t;
        self.regs.write_untyped(rd, tag as u64);
        self.now = t + 1;
        self.set_ready(rd, t + 1);
    }

    pub(crate) fn execute(&mut self, pc: u64, instr: Instruction) -> Result<StepEvent, Trap> {
        let lat = self.config.latency;
        let mut next_pc = pc.wrapping_add(4);
        let mut event = StepEvent::Retired;

        match instr {
            Instruction::Alu { .. } | Instruction::AluImm { .. } | Instruction::Lui { .. } => {
                self.exec_alu_class(instr);
            }
            Instruction::Load { width, signed, rd, rs1, imm } => {
                self.exec_load(pc, width, signed, rd, rs1, imm)?;
            }
            Instruction::Store { width, rs2, rs1, imm } => {
                self.exec_store(pc, width, rs2, rs1, imm)?;
            }
            Instruction::Branch { cond, rs1, rs2, offset } => {
                next_pc = self.exec_branch(pc, cond, rs1, rs2, offset);
            }
            Instruction::Jal { rd, offset } => {
                next_pc = self.exec_jal(pc, rd, offset);
            }
            Instruction::Jalr { rd, rs1, imm } => {
                next_pc = self.exec_jalr(pc, rd, rs1, imm);
            }
            Instruction::Fpu { op, rd, rs1, rs2 } => {
                let t = self
                    .now
                    .max(self.ready_f[rs1.number() as usize])
                    .max(self.ready_f[rs2.number() as usize]);
                let a = self.regs.read_f64(rs1);
                let b = self.regs.read_f64(rs2);
                let v = fpu_op(op, a, b, self.regs.read_f(rs1), self.regs.read_f(rs2));
                self.regs.write_f(rd, v);
                self.counters.fp_ops += 1;
                match op {
                    FpuOp::Fdiv | FpuOp::Fsqrt => {
                        self.now = t + lat.fp_div;
                        self.ready_f[rd.number() as usize] = self.now;
                    }
                    _ => {
                        self.now = t + 1;
                        self.ready_f[rd.number() as usize] = t + lat.fp;
                    }
                }
            }
            Instruction::FpCmp { op, rd, rs1, rs2 } => {
                let t = self
                    .now
                    .max(self.ready_f[rs1.number() as usize])
                    .max(self.ready_f[rs2.number() as usize]);
                let a = self.regs.read_f64(rs1);
                let b = self.regs.read_f64(rs2);
                let v = match op {
                    FpCmpOp::Feq => a == b,
                    FpCmpOp::Flt => a < b,
                    FpCmpOp::Fle => a <= b,
                } as u64;
                self.regs.write_untyped(rd, v);
                self.counters.fp_ops += 1;
                self.now = t + 1;
                self.set_ready(rd, t + lat.fp_mv);
            }
            Instruction::FpLoad { rd, rs1, imm } => {
                let t = self.stall1(rs1);
                let addr = self.regs.read(rs1).v.wrapping_add(imm as i64 as u64);
                self.check_align(pc, addr, 8)?;
                let v = self.mem.read_u64(addr);
                self.regs.write_f(rd, v);
                self.counters.loads += 1;
                let extra = self.dmem_access(addr, false);
                if extra == 0 {
                    self.now = t + 1;
                    self.ready_f[rd.number() as usize] = t + 1 + lat.load_use;
                } else {
                    self.now = t + 1 + extra;
                    self.ready_f[rd.number() as usize] = self.now;
                }
            }
            Instruction::FpStore { rs2, rs1, imm } => {
                let t = self.stall1(rs1).max(self.ready_f[rs2.number() as usize]);
                let addr = self.regs.read(rs1).v.wrapping_add(imm as i64 as u64);
                self.check_align(pc, addr, 8)?;
                self.mem.write_u64(addr, self.regs.read_f(rs2));
                self.note_code_store(addr, 8);
                self.counters.stores += 1;
                let extra = self.dmem_access(addr, true);
                self.now = t + 1 + extra;
            }
            Instruction::FcvtDL { rd, rs1 } => {
                let t = self.stall1(rs1);
                let v = self.regs.read(rs1).v as i64 as f64;
                self.regs.write_f64(rd, v);
                self.counters.fp_ops += 1;
                self.now = t + 1;
                self.ready_f[rd.number() as usize] = t + lat.fp_mv;
            }
            Instruction::FcvtLD { rd, rs1 } => {
                let t = self.now.max(self.ready_f[rs1.number() as usize]);
                let f = self.regs.read_f64(rs1);
                self.regs.write_untyped(rd, f64_to_i64_rtz(f) as u64);
                self.counters.fp_ops += 1;
                self.now = t + 1;
                self.set_ready(rd, t + lat.fp_mv);
            }
            Instruction::FmvXD { rd, rs1 } => {
                let t = self.now.max(self.ready_f[rs1.number() as usize]);
                self.regs.write_untyped(rd, self.regs.read_f(rs1));
                self.now = t + 1;
                self.set_ready(rd, t + lat.fp_mv);
            }
            Instruction::FmvDX { rd, rs1 } => {
                let t = self.stall1(rs1);
                self.regs.write_f(rd, self.regs.read(rs1).v);
                self.now = t + 1;
                self.ready_f[rd.number() as usize] = t + lat.fp_mv;
            }
            Instruction::Tld { rd, rs1, imm } => {
                self.exec_tld(pc, rd, rs1, imm)?;
            }
            Instruction::Tsd { rs2, rs1, imm } => {
                let t = self.stall2(rs1, rs2);
                let addr = self.regs.read(rs1).v.wrapping_add(imm as i64 as u64);
                self.check_align(pc, addr, 8)?;
                let entry = self.regs.read(rs2);
                let tag_addr = addr.wrapping_add(self.spr.tag_dword().byte_offset() as u64);
                let old_tag_dword =
                    if self.spr.nan_detect() { 0 } else { self.mem.read_u64(tag_addr) };
                match self.spr.insert(entry, old_tag_dword) {
                    Inserted::ValueOnly { value } => self.mem.write_u64(addr, value),
                    Inserted::WithTagDword { value, tag_dword } => {
                        self.mem.write_u64(addr, value);
                        self.mem.write_u64(tag_addr, tag_dword);
                        self.note_code_store(tag_addr, 8);
                    }
                }
                self.note_code_store(addr, 8);
                self.counters.stores += 1;
                self.counters.tagged_mem += 1;
                let mut extra = self.dmem_access(addr, true);
                extra += self.tag_line_cost(addr, true);
                self.now = t + 1 + extra;
            }
            Instruction::Typed { op, rd, rs1, rs2 } => {
                let t = self.stall2(rs1, rs2);
                let a = self.regs.read(rs1);
                let b = self.regs.read(rs2);
                self.counters.typed_alu += 1;
                self.counters.type_checks += 1;
                let rule = self.trt.lookup(op.trt_class(), a.t, b.t);
                match rule {
                    Some(out) if a.f == b.f => {
                        if a.f {
                            // Bound to the FP ALU.
                            let r = match op {
                                tarch_isa::TypedAluOp::Xadd => a.as_f64() + b.as_f64(),
                                tarch_isa::TypedAluOp::Xsub => a.as_f64() - b.as_f64(),
                                tarch_isa::TypedAluOp::Xmul => a.as_f64() * b.as_f64(),
                            };
                            self.counters.type_hits += 1;
                            self.regs.write(
                                rd,
                                TaggedValue { v: canonical_f64_bits(r), t: out, f: true },
                            );
                            self.now = t + 1;
                            self.set_ready(rd, t + lat.fp);
                        } else {
                            // Bound to the integer ALU.
                            let (av, bv) = (a.v as i64, b.v as i64);
                            let r = match op {
                                tarch_isa::TypedAluOp::Xadd => av.wrapping_add(bv),
                                tarch_isa::TypedAluOp::Xsub => av.wrapping_sub(bv),
                                tarch_isa::TypedAluOp::Xmul => av.wrapping_mul(bv),
                            };
                            let overflow = self.spr.overflow_detect()
                                && (r != (r as i32) as i64 || mul_overflows_i64(op, av, bv));
                            if overflow {
                                // Section 7.1: overflow would corrupt a
                                // co-located tag, so redirect to the slow
                                // path. The destination is not written.
                                self.counters.overflow_misses += 1;
                                next_pc = self.spr.hdl;
                                self.now = t + 1 + lat.type_miss_penalty;
                            } else {
                                self.counters.type_hits += 1;
                                self.regs.write(rd, TaggedValue { v: r as u64, t: out, f: false });
                                let is_mul = op == tarch_isa::TypedAluOp::Xmul;
                                self.now = t + 1;
                                self.set_ready(rd, if is_mul { t + lat.mul } else { t + 1 });
                            }
                        }
                    }
                    _ => {
                        // Type misprediction: redirect to R_hdl; no
                        // architectural writeback, no retry (Section 3.2).
                        self.counters.type_misses += 1;
                        next_pc = self.spr.hdl;
                        self.now = t + 1 + lat.type_miss_penalty;
                    }
                }
            }
            Instruction::SetSpr { spr, rs1 } => {
                let t = self.stall1(rs1);
                let v = self.regs.read(rs1).v;
                match spr {
                    Spr::Offset => self.spr.offset = (v & 0xf) as u8,
                    Spr::Mask => self.spr.mask = v as u8,
                    Spr::Shift => self.spr.shift = (v & 0x3f) as u8,
                    Spr::TrtPush => {
                        let rule =
                            TrtRule::unpack(v).ok_or(Trap::InvalidTrtRule { pc, packed: v })?;
                        self.trt.push(rule);
                        let len = self.trt.len() as u32;
                        self.trace_event(TraceEventKind::TrtFill { len });
                    }
                    Spr::ExpType => self.spr.exptype = v as u8,
                }
                self.now = t + 1;
            }
            Instruction::FlushTrt => {
                self.trt.flush();
                self.trace_event(TraceEventKind::TrtFlush);
                self.now += 1;
            }
            Instruction::Thdl { offset } => {
                self.spr.hdl = pc.wrapping_add(4).wrapping_add(offset as i64 as u64);
                self.now += 1;
            }
            Instruction::Tchk { rs1, rs2 } => {
                next_pc = self.exec_tchk(pc, rs1, rs2);
            }
            Instruction::Tget { rd, rs1 } => {
                self.exec_tget(rd, rs1);
            }
            Instruction::Tset { rs1, rd } => {
                let t = self.stall2(rs1, rd);
                let tag = self.regs.read(rs1).v as u8;
                self.regs.write_tag(rd, tag);
                self.now = t + 1;
                self.set_ready(rd, t + 1);
            }
            Instruction::Chklb { rd, rs1, imm } => {
                let t = self.stall1(rs1);
                let addr = self.regs.read(rs1).v.wrapping_add(imm as i64 as u64);
                let byte = self.mem.read_u8(addr);
                self.regs.write_untyped(rd, byte as u64);
                self.counters.loads += 1;
                self.counters.chklb_checks += 1;
                let extra = self.dmem_access(addr, false);
                if byte != self.spr.exptype {
                    self.counters.chklb_misses += 1;
                    next_pc = self.spr.hdl;
                    self.now = t + 1 + extra + lat.type_miss_penalty;
                } else if extra == 0 {
                    self.now = t + 1;
                    self.set_ready(rd, t + 1 + lat.load_use);
                } else {
                    self.now = t + 1 + extra;
                    self.set_ready(rd, self.now);
                }
            }
            Instruction::Csrr { rd, csr } => {
                let t = self.now;
                let v = match csr {
                    Csr::Cycle => self.now,
                    Csr::Instret => self.counters.instructions,
                    Csr::TypeHit => self.counters.type_hits,
                    Csr::TypeMiss => self.counters.type_misses + self.counters.overflow_misses,
                    Csr::BranchMiss => self.bpred.stats().total_misses(),
                    Csr::ICacheMiss => self.counters.icache_misses,
                    Csr::DCacheMiss => self.counters.dcache_misses,
                };
                self.regs.write_untyped(rd, v);
                self.now = t + 1;
                self.set_ready(rd, t + 1);
            }
            Instruction::Ecall => {
                self.counters.ecalls += 1;
                self.now += 1;
                if self.tracer.is_some() {
                    let n = self.regs.read(Reg::A7).v;
                    self.trace_event(TraceEventKind::Ecall { n });
                }
                event = StepEvent::Ecall;
            }
            Instruction::Halt => {
                self.now += 1;
                self.halted = true;
                event = StepEvent::Halted;
            }
        }

        self.pc = next_pc;
        Ok(event)
    }

    /// Charges the extra D-cache access when a tagged access's tag
    /// double-word lives on a different cache line than its value (rare:
    /// only for unaligned tag-value pairs straddling a line).
    fn tag_line_cost(&mut self, addr: u64, is_write: bool) -> u64 {
        if self.spr.nan_detect() {
            return 0;
        }
        let tag_addr = addr.wrapping_add(self.spr.tag_dword().byte_offset() as u64);
        let line = self.config.dcache.line_bytes;
        if tag_addr / line != addr / line {
            1 + self.dmem_access(tag_addr, is_write)
        } else {
            0
        }
    }
}

/// Whether `instr` unconditionally ends a basic block: branches and jumps
/// redirect (or may), `ecall`/`halt` hand control to the host. Conditional
/// redirects (`xadd`&co, `tchk`, `chklb`) need *not* end a block — the
/// block loop detects their taken-handler case as `pc != fall-through`.
fn ends_block(instr: Instruction) -> bool {
    matches!(
        instr,
        Instruction::Branch { .. }
            | Instruction::Jal { .. }
            | Instruction::Jalr { .. }
            | Instruction::Ecall
            | Instruction::Halt
    )
}

fn mul_overflows_i64(op: tarch_isa::TypedAluOp, a: i64, b: i64) -> bool {
    op == tarch_isa::TypedAluOp::Xmul && a.checked_mul(b).is_none()
}

fn sign_extend(raw: u64, width: MemWidth) -> u64 {
    match width {
        MemWidth::Byte => raw as u8 as i8 as i64 as u64,
        MemWidth::Half => raw as u16 as i16 as i64 as u64,
        MemWidth::Word => raw as u32 as i32 as i64 as u64,
        MemWidth::Double => raw,
    }
}

fn f64_to_i64_rtz(f: f64) -> i64 {
    if f.is_nan() || f >= i64::MAX as f64 {
        i64::MAX
    } else if f <= i64::MIN as f64 {
        i64::MIN
    } else {
        f.trunc() as i64
    }
}

fn alu_op(op: AluOp, a: u64, b: u64) -> u64 {
    let (ai, bi) = (a as i64, b as i64);
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => ((ai as i128 * bi as i128) >> 64) as u64,
        AluOp::Div => {
            if bi == 0 {
                u64::MAX
            } else if ai == i64::MIN && bi == -1 {
                ai as u64
            } else {
                (ai / bi) as u64
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
        AluOp::Rem => {
            if bi == 0 {
                a
            } else if ai == i64::MIN && bi == -1 {
                0
            } else {
                (ai % bi) as u64
            }
        }
        AluOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl((b & 63) as u32),
        AluOp::Srl => a.wrapping_shr((b & 63) as u32),
        AluOp::Sra => (ai >> (b & 63)) as u64,
        AluOp::Slt => (ai < bi) as u64,
        AluOp::Sltu => (a < b) as u64,
        AluOp::Addw => ((a as i32).wrapping_add(b as i32)) as i64 as u64,
        AluOp::Subw => ((a as i32).wrapping_sub(b as i32)) as i64 as u64,
        AluOp::Mulw => ((a as i32).wrapping_mul(b as i32)) as i64 as u64,
        AluOp::Divw => {
            let (ai, bi) = (a as i32, b as i32);
            let r = if bi == 0 {
                -1
            } else if ai == i32::MIN && bi == -1 {
                ai
            } else {
                ai / bi
            };
            r as i64 as u64
        }
        AluOp::Remw => {
            let (ai, bi) = (a as i32, b as i32);
            let r = if bi == 0 {
                ai
            } else if ai == i32::MIN && bi == -1 {
                0
            } else {
                ai % bi
            };
            r as i64 as u64
        }
        AluOp::Sllw => ((a as i32).wrapping_shl((b & 31) as u32)) as i64 as u64,
        AluOp::Srlw => (((a as u32).wrapping_shr((b & 31) as u32)) as i32) as i64 as u64,
        AluOp::Sraw => ((a as i32).wrapping_shr((b & 31) as u32)) as i64 as u64,
    }
}

fn alu_imm_op(op: AluImmOp, a: u64, imm: i32) -> u64 {
    let b = imm as i64 as u64;
    match op {
        AluImmOp::Addi => alu_op(AluOp::Add, a, b),
        AluImmOp::Andi => a & b,
        AluImmOp::Ori => a | b,
        AluImmOp::Xori => a ^ b,
        AluImmOp::Slti => alu_op(AluOp::Slt, a, b),
        AluImmOp::Sltiu => alu_op(AluOp::Sltu, a, b),
        AluImmOp::Slli => alu_op(AluOp::Sll, a, b),
        AluImmOp::Srli => alu_op(AluOp::Srl, a, b),
        AluImmOp::Srai => alu_op(AluOp::Sra, a, b),
        AluImmOp::Addiw => alu_op(AluOp::Addw, a, b),
        AluImmOp::Slliw => alu_op(AluOp::Sllw, a, b),
        AluImmOp::Srliw => alu_op(AluOp::Srlw, a, b),
        AluImmOp::Sraiw => alu_op(AluOp::Sraw, a, b),
    }
}

/// Bit pattern of an FP result with RISC-V NaN canonicalization: every
/// generated NaN is the positive quiet NaN `0x7ff8_0000_0000_0000`. This
/// matters on a Typed Architecture — an uncanonicalized negative NaN would
/// alias a NaN-boxed value (Section 4.2).
pub fn canonical_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        0x7ff8_0000_0000_0000
    } else {
        f.to_bits()
    }
}

fn fpu_op(op: FpuOp, a: f64, b: f64, abits: u64, bbits: u64) -> u64 {
    const SIGN: u64 = 1 << 63;
    match op {
        FpuOp::Fadd => canonical_f64_bits(a + b),
        FpuOp::Fsub => canonical_f64_bits(a - b),
        FpuOp::Fmul => canonical_f64_bits(a * b),
        FpuOp::Fdiv => canonical_f64_bits(a / b),
        FpuOp::Fsqrt => canonical_f64_bits(a.sqrt()),
        FpuOp::Fmin => canonical_f64_bits(a.min(b)),
        FpuOp::Fmax => canonical_f64_bits(a.max(b)),
        FpuOp::Fsgnj => (abits & !SIGN) | (bbits & SIGN),
        FpuOp::Fsgnjn => (abits & !SIGN) | (!bbits & SIGN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the counter and timing effects of the shared `charge_fetch`
    /// helper, which both the stepwise and the block execution paths use
    /// for every instruction fetch: cold fetch charges I-TLB walk + DRAM
    /// fill; warm same-line fetch charges only the access counter; a new
    /// line in a resident page charges only the cache fill.
    #[test]
    fn charge_fetch_counter_effects_are_pinned() {
        let config = CoreConfig::paper();
        let line = config.icache.line_bytes;
        let mut cpu = Cpu::new(config.clone());

        cpu.charge_fetch(0x1000);
        let cold = cpu.now;
        assert_eq!(cpu.counters.icache_accesses, 1);
        assert_eq!(cpu.counters.itlb_misses, 1);
        assert_eq!(cpu.counters.icache_misses, 1);
        assert!(
            cold >= config.latency.tlb_miss,
            "cold fetch must charge at least the page walk ({cold})"
        );

        // Same line, same page: pure hit — no misses, no cycles.
        cpu.charge_fetch(0x1004);
        assert_eq!(cpu.counters.icache_accesses, 2);
        assert_eq!(cpu.counters.itlb_misses, 1);
        assert_eq!(cpu.counters.icache_misses, 1);
        assert_eq!(cpu.now, cold, "warm fetch must not advance time");

        // Next line, same 4 KB page: I-cache miss only.
        cpu.charge_fetch(0x1000 + line);
        assert_eq!(cpu.counters.icache_accesses, 3);
        assert_eq!(cpu.counters.itlb_misses, 1);
        assert_eq!(cpu.counters.icache_misses, 2);
        assert!(cpu.now > cold, "line fill must cost DRAM time");

        // Far page: both misses again.
        cpu.charge_fetch(0x80_0000);
        assert_eq!(cpu.counters.icache_accesses, 4);
        assert_eq!(cpu.counters.itlb_misses, 2);
        assert_eq!(cpu.counters.icache_misses, 3);

        // `charge_fetch` must touch nothing else.
        assert_eq!(cpu.counters.instructions, 0);
        assert_eq!(cpu.counters.cycles, 0, "cycles sync stays with the caller");
        assert_eq!(cpu.pc, 0);
    }
}
