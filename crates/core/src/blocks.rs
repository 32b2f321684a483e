//! Basic-block side table: the simulator's dispatch fast path.
//!
//! Every retired instruction on the stepwise path pays the full
//! [`Cpu::step`](crate::Cpu::step) preamble: the `halted` check, the
//! pc-alignment check, the fetch and decode of the text word, and the
//! `counters.cycles` sync. Following Titzer's observation that the next
//! factor lives in amortizing dispatch over straight-line runs, this
//! module groups decoded text words into **basic blocks** — maximal
//! straight-line instruction runs ended by a branch, jump, or system
//! operation — so `Cpu::run_blocks` performs that preamble once per
//! *block* instead of once per *instruction*, and charges straight-line
//! fetch runs through batched cache/TLB hit updates. A word is decoded
//! once, when its block is built. The architectural charges (I-cache,
//! I-TLB, DRAM, branch predictor, every counter) are still applied per
//! instruction, bit-identically to the stepwise path.
//!
//! **Macro-op fusion** ([`fuse_ops`]) is a further host-side fast
//! path, architecturally invisible: at block-build time an ALU-class
//! instruction followed by another, or by a `jal`, is rewritten into a
//! fused [`BlockOp`] whose compiled template applies both components'
//! fetch/cache/TLB/counter charges exactly, in one closure call instead
//! of two. The first component of either pair cannot trap, redirect,
//! store or stop, so there is nothing to check between the components
//! (see the legality rules on [`fuse_pair`]). The two kinds are the ones
//! that measurably pay on compiled blocks; see [`fuse_pair`] and
//! DESIGN.md invariant 7.
//!
//! **Compile at install.** [`BlockTable::install`] and
//! [`BlockTable::install_super`] hand the block's op run to the template
//! compiler ([`crate::codegen::Template`]); the block's slot keeps only
//! the compiled closure, not the op run or the decoded words. Cloned
//! tables share compiled closures, which is what makes a fleet clone of
//! a warmed template start hot.
//!
//! A block is entered only through [`BlockTable::lookup`] or a fresh
//! build, and is handed out as its slot id ([`BlockRun`]): the executor
//! moves the block's compiled closure out of the slot for one execution
//! and back after it ([`BlockTable::take_compiled`]), so it runs with no
//! table borrow held and no reference count changes hands. Mid-block the
//! executor calls only [`BlockTable::generation`] and
//! [`BlockTable::note_store`]. The closures stay behind `Arc`s only so
//! that table clones (fleet tenants) share them.
//!
//! Correctness under mutation: **a text change drops every block**
//! ([`BlockTable::flush`]). A guest store into the text range
//! ([`BlockTable::note_store`]), a host write through `Cpu::mem_mut`, or
//! enabling per-handler attribution empties the entry table and every
//! slot and moves the generation. The executing block re-checks the
//! generation after every instruction that can store, so a store into
//! the *current* block stops it at the store, and with its slot gone its
//! code is dropped too. Each block is rebuilt from current memory when it
//! is next entered, and a lookup checks nothing but the entry table.
//! Nothing is compared word by word: the interpreters run here never
//! write their text, and rebuilding a cell's few dozen blocks after a
//! rare text change costs tens of microseconds.
//!
//! **PGO superblocks** (PR 9): with a profile loaded
//! (`CoreConfig::pgo`), block building straightens the measured hot
//! path across taken branches into one block
//! ([`BlockTable::install_super`]): each straightened branch/`jal`
//! becomes a [`BlockOp::GuardBranch`] / [`BlockOp::GuardJal`] that
//! executes the real control transfer (identical predictor and fetch
//! charges) and either continues into the next segment — the measured
//! outcome — or side-exits the block at the freshly computed pc. A
//! superblock holds no more validity state than a plain block: a text
//! change drops it with every other block; see DESIGN.md invariant 9.
//!
//! Entries outside the text range miss the table and fall back to the
//! stepwise path, so dynamically placed code still runs.

use crate::codegen::{CompiledBlock, Template};
use std::sync::Arc;
use tarch_isa::Instruction;

/// Upper bound on instructions per block. Keeps the budget-clipping
/// arithmetic cheap and bounds the work a single build does.
pub const MAX_BLOCK_LEN: usize = 64;

/// Sentinel in the entry map for "no block starts at this word".
const NO_BLOCK: u32 = u32::MAX;

/// One unit of a block's op run, the template compiler's input: a single
/// instruction, or a fused adjacent pair rewritten by `fuse_ops`. Fused
/// variants name the component classes their templates are specialized
/// for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockOp {
    /// An unfused instruction executed through the generic path with the
    /// full set of inter-instruction checks.
    One(Instruction),
    /// An unfused instruction that provably cannot trap, redirect,
    /// store, or stop (`safe_one`): the executor skips the trap
    /// checkpoint and the event / fall-through / generation checks —
    /// none of them can fire.
    OneSafe(Instruction),
    /// An unfused integer load: may trap, but never redirects, stores,
    /// or stops — the post-instruction checks are statically dead.
    OneLoad(Instruction),
    /// An unfused integer store: may trap and may invalidate blocks —
    /// keeps the post-store generation check, drops the rest.
    OneStore(Instruction),
    /// An unfused conditional branch: never traps; always the final op
    /// of its block, so no post-instruction checks run at all.
    OneBranch(Instruction),
    /// An unfused direct jump (`jal`): never traps; always final.
    OneJal(Instruction),
    /// An unfused indirect jump (`jalr`): never traps; always final.
    OneJalr(Instruction),
    /// Two ALU-class instructions (reg-reg ALU, ALU-immediate, `lui`):
    /// neither component can trap, redirect, store, or stop.
    AluPair(Instruction, Instruction),
    /// ALU-class then direct jump (`jal`): always the last op of its
    /// block.
    AluJal(Instruction, Instruction),
    /// A PGO superblock guard: a conditional branch that a profile run
    /// measured as dominantly going to the carried successor pc. The
    /// handler executes the branch exactly like [`BlockOp::OneBranch`]
    /// (same predictor update, same charges) and then *continues into
    /// the next op* when the outcome matches the expectation — the
    /// straightened hot path — or side-exits the block with the freshly
    /// computed pc when it does not. Never traps; never the final op.
    GuardBranch(Instruction, u64),
    /// A PGO superblock guard over a direct jump (`jal`): the successor
    /// is static, so after the jump (link-register write, predictor
    /// charges) execution always continues into the next op, which the
    /// builder placed at the jump target. Never traps; never final.
    GuardJal(Instruction),
}

impl BlockOp {
    /// Instructions this op retires when fully executed.
    #[inline]
    pub fn width(self) -> u64 {
        match self {
            BlockOp::AluPair(..) | BlockOp::AluJal(..) => 2,
            _ => 1,
        }
    }
}

/// Whether `instr` is in the fusable ALU class: integer ALU (reg-reg or
/// immediate) and `lui`. These never trap, never redirect, never touch
/// memory, and never produce a stop event, so every fused pair starts
/// with one: no check between its components can fire.
#[inline]
fn fuse_alu_class(instr: Instruction) -> bool {
    matches!(instr, Instruction::Alu { .. } | Instruction::AluImm { .. } | Instruction::Lui { .. })
}

/// Fusion legality and the fused pair an adjacent `(a, b)` rewrites to:
/// an ALU-class `a` followed by an ALU-class `b` ([`BlockOp::AluPair`])
/// or by a `jal` ([`BlockOp::AluJal`]); anything else stays unfused.
///
/// Legality rules (DESIGN.md invariant 7 has the full argument):
///
/// 1. The first component is ALU-class, so it never traps, redirects,
///    stores, or stops: the fall-through, generation, trap, and stop
///    checks between the components are statically dead.
/// 2. A `jal` second component ends its block (the builder stops at
///    `ends_block`), so [`BlockOp::AluJal`] is always the block's last
///    op.
/// 3. The fused template applies both components' architectural charges
///    in exact program order, so counters, caches, TLBs, and the branch
///    predictor see the same stream as the unfused engine.
///
/// The set was measured on compiled blocks, where a fused pair saves
/// one closure call: over the 99 test-scale cells, leaving out alu+alu
/// made the simulator 2.5% slower and alu+jal 0.6%, while leaving out
/// any other pair kind cost nothing (EXPERIMENTS.md "Which pairs fuse").
fn fuse_pair(a: Instruction, b: Instruction) -> Option<BlockOp> {
    if !fuse_alu_class(a) {
        return None;
    }
    match b {
        _ if fuse_alu_class(b) => Some(BlockOp::AluPair(a, b)),
        Instruction::Jal { .. } => Some(BlockOp::AluJal(a, b)),
        _ => None,
    }
}

/// Whether `instr` may execute with every inter-instruction check
/// skipped: it never traps, never redirects (including never producing a
/// stop event), and never writes memory, so the fall-through, generation,
/// and event checks after it are statically dead. The classification is
/// conservative — anything not listed takes the generic path.
fn safe_one(instr: Instruction) -> bool {
    matches!(
        instr,
        Instruction::Alu { .. }
            | Instruction::AluImm { .. }
            | Instruction::Lui { .. }
            | Instruction::Fpu { .. }
            | Instruction::FpCmp { .. }
            | Instruction::FcvtDL { .. }
            | Instruction::FcvtLD { .. }
            | Instruction::FmvXD { .. }
            | Instruction::FmvDX { .. }
            | Instruction::Tget { .. }
            | Instruction::Tset { .. }
            | Instruction::Csrr { .. }
            | Instruction::FlushTrt
            | Instruction::Thdl { .. }
    )
}

/// Rewrites a decoded instruction run into block ops, greedily fusing
/// the adjacent pairs [`fuse_pair`] accepts, left to right, when `fuse`
/// is set (a fused instruction is never re-fused with its other
/// neighbour), and classifying the remaining singles into the
/// specialized single-instruction variants ([`BlockOp::OneSafe`],
/// [`BlockOp::OneLoad`], [`BlockOp::OneStore`], and the block-ending
/// branch/jump forms) whose templates skip the inter-instruction checks
/// their class makes statically dead. With `fuse` off every instruction
/// becomes a plain [`BlockOp::One`] — the fully generic form.
fn fuse_ops(instrs: &[Instruction], fuse: bool) -> Vec<BlockOp> {
    let mut ops = Vec::with_capacity(instrs.len());
    let mut i = 0;
    while i < instrs.len() {
        if fuse && i + 1 < instrs.len() {
            if let Some(p) = fuse_pair(instrs[i], instrs[i + 1]) {
                ops.push(p);
                i += 2;
                continue;
            }
        }
        ops.push(if fuse { classify_one(instrs[i]) } else { BlockOp::One(instrs[i]) });
        i += 1;
    }
    ops
}

/// The specialized single-instruction op for `instr`: the most checked
/// class it provably fits, falling back to the fully generic
/// [`BlockOp::One`]. Branches and jumps only appear as a block's final
/// instruction (the builder stops at `ends_block`), which their
/// handlers rely on.
fn classify_one(instr: Instruction) -> BlockOp {
    match instr {
        _ if safe_one(instr) => BlockOp::OneSafe(instr),
        Instruction::Load { .. } => BlockOp::OneLoad(instr),
        Instruction::Store { .. } => BlockOp::OneStore(instr),
        Instruction::Branch { .. } => BlockOp::OneBranch(instr),
        Instruction::Jal { .. } => BlockOp::OneJal(instr),
        Instruction::Jalr { .. } => BlockOp::OneJalr(instr),
        _ => BlockOp::One(instr),
    }
}

/// The op run of a PGO superblock: each segment's body fused like a
/// normal block, and each non-final segment's ender rewritten into a
/// guard (enders are excluded from fusion: a guard must stay an
/// individually executable op). See [`BlockTable::install_super`] for
/// the panics.
fn superblock_ops(segs: &[(u64, Vec<Instruction>)], fuse: bool) -> Vec<BlockOp> {
    let mut ops = Vec::new();
    for (i, (_, instrs)) in segs.iter().enumerate() {
        if i + 1 < segs.len() {
            let (body, ender) = instrs.split_at(instrs.len() - 1);
            ops.extend(fuse_ops(body, fuse));
            ops.push(match ender[0] {
                b @ Instruction::Branch { .. } => BlockOp::GuardBranch(b, segs[i + 1].0),
                j @ Instruction::Jal { .. } => BlockOp::GuardJal(j),
                other => panic!("superblock segment ends in unguardable {other:?}"),
            });
        } else {
            ops.extend(fuse_ops(instrs, fuse));
        }
    }
    ops
}

/// Whether a decoded run ends in a branch or jump (`jal`, `jalr`).
fn jumps_out(instrs: &[Instruction]) -> bool {
    matches!(
        instrs.last(),
        Some(Instruction::Branch { .. } | Instruction::Jal { .. } | Instruction::Jalr { .. })
    )
}

/// A handed-out block: its table slot plus the per-block facts the
/// execution loop needs before it moves the code out of the slot — the
/// total instruction width, and whether the final op is a branch or
/// jump (both fixed when the block is compiled, so the hot loop never
/// re-inspects instructions to classify an exit).
#[derive(Debug, Clone, Copy)]
pub struct BlockRun {
    /// Block id: the table slot that holds the block's compiled code.
    pub bid: u32,
    /// Total instructions the run retires when executed in full.
    pub width: u32,
    /// Whether the final op is a branch or jump (`jal`, `jalr`):
    /// executing the whole run means the block exited through it, an
    /// exit the PGO edge recorder notes.
    pub jump_exit: bool,
}

/// Running effectiveness statistics (host-side only; not architectural).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Block entries served from the table.
    pub hits: u64,
    /// Blocks decoded and installed (first build or rebuild).
    pub builds: u64,
    /// Always 0: no block is re-compared against memory. Kept because
    /// the benchmark's work counters sum it.
    pub revalidations: u64,
    /// Blocks dropped by a text change, a host write through
    /// `Cpu::mem_mut`, or a flush, each of which drops every installed
    /// block.
    pub rebuilds: u64,
    /// Generation bumps from guest stores into the text range.
    pub store_invalidations: u64,
    /// Always 0: the table forms no links between blocks. Kept because
    /// the benchmark's work counters sum it.
    pub links_formed: u64,
    /// Always 0: every block entry is a [`BlockTable::lookup`] hit or a
    /// build. Kept because the benchmark's work counters report it.
    pub chained_transfers: u64,
    /// Blocks compiled into host closures: every build compiles, so
    /// this equals [`BlockStats::builds`]. Kept because the benchmark's
    /// work counters report it.
    pub compiles: u64,
    /// Compiled blocks abandoned: a generation bump observed during a
    /// block's execution (it exits at that op boundary), or a dropped
    /// block (each of [`BlockStats::rebuilds`]).
    pub tier_deopts: u64,
    /// PGO superblocks installed (blocks straightened across at least
    /// one measured hot edge). Zero unless a profile with usable edges
    /// was loaded — the signal the `repro pgo` regression gate uses to
    /// detect a stale or empty profile.
    pub superblocks: u64,
}

/// Lazily filled basic-block cache for the text segment.
///
/// Cloning the table (for VM snapshot/clone) shares the immutable
/// compiled closures but copies the entry index and generation state,
/// so invalidation in one clone never affects another. Clones are taken
/// between blocks, when every slot holds its code.
#[derive(Debug, Default, Clone)]
pub struct BlockTable {
    base: u64,
    limit: u64,
    entry: Vec<u32>,
    /// Each block's compiled code, by block id, shared with table clones
    /// (the fleet's warm-cache inheritance). `None` only while the block
    /// executes ([`BlockTable::take_compiled`]).
    blocks: Vec<Option<Arc<CompiledBlock>>>,
    gen: u64,
    stats: BlockStats,
}

impl BlockTable {
    /// An empty table covering no addresses (every entry misses).
    pub fn new() -> BlockTable {
        BlockTable::default()
    }

    /// Re-targets the table at a freshly loaded text segment of
    /// `text_words` 32-bit words starting at `base`, dropping all blocks.
    pub fn reset(&mut self, base: u64, text_words: usize) {
        self.base = base;
        self.limit = base + 4 * text_words as u64;
        self.entry.clear();
        self.entry.resize(text_words, NO_BLOCK);
        self.blocks.clear();
        self.gen = 0;
    }

    /// Effectiveness statistics.
    pub fn stats(&self) -> BlockStats {
        self.stats
    }

    /// Number of blocks currently installed (structure occupancy).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Number of installed blocks currently carrying compiled code
    /// (trace-layer occupancy sampling): every live block but the one
    /// executing.
    pub fn compiled_len(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }

    /// Whether no blocks are installed.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether `pc` falls inside the covered text range.
    #[inline]
    pub fn covers(&self, pc: u64) -> bool {
        pc >= self.base && pc < self.limit
    }

    /// The current invalidation generation. The block execution loop
    /// snapshots this at block entry and re-checks it after every
    /// instruction that can store; every [`BlockTable::flush`] (a guest
    /// store into text, a host write) changes it.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc - self.base) >> 2) as usize
    }

    /// Looks up the block starting at `pc`. Returns the block, or `None`
    /// when the caller must build one.
    #[inline]
    pub fn lookup(&mut self, pc: u64) -> Option<BlockRun> {
        if !self.covers(pc) {
            return None;
        }
        let bid = self.entry[self.index(pc)];
        if bid == NO_BLOCK {
            return None;
        }
        let code = self.blocks[bid as usize].as_ref().expect("slots hold code between blocks");
        self.stats.hits += 1;
        Some(BlockRun { bid, width: code.width, jump_exit: code.jump_exit })
    }

    /// Installs a freshly decoded block starting at `pc`: fuses adjacent
    /// pairs when `fuse` is set and compiles the op run, folding fetch
    /// spans for an I-cache line of `1 << line_shift` bytes. Returns the
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is outside the covered range or `instrs` is empty
    /// (callers only install non-empty blocks for covered entries).
    pub fn install(
        &mut self,
        pc: u64,
        instrs: Vec<Instruction>,
        fuse: bool,
        line_shift: u32,
    ) -> BlockRun {
        assert!(self.covers(pc) && !instrs.is_empty(), "install of empty or uncovered block");
        self.put(pc, &fuse_ops(&instrs, fuse), jumps_out(&instrs), line_shift)
    }

    /// Installs and compiles a PGO superblock: two or more decoded text
    /// segments straightened along measured hot edges into one block
    /// entered at the first segment's pc. Each non-final segment ends in
    /// a direct branch or `jal` that the builder verified targets (or
    /// falls through to, for branches) the next segment's start; that
    /// ender becomes a [`BlockOp::GuardBranch`] / [`BlockOp::GuardJal`]
    /// whose template continues into the next segment on the measured
    /// outcome and side-exits the block otherwise. Enders are excluded
    /// from fusion (a guard must stay an individually executable op);
    /// each segment's body fuses exactly like a normal block.
    ///
    /// The installed block rides the invalidation contract unchanged:
    /// `note_store` range-checks the whole text range, which covers
    /// every segment, and a text change drops it with every other block.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two segments are given (use
    /// [`BlockTable::install`]), any segment is empty or uncovered, or a
    /// non-final segment does not end in a direct branch/`jal`.
    pub fn install_super(
        &mut self,
        segs: Vec<(u64, Vec<Instruction>)>,
        fuse: bool,
        line_shift: u32,
    ) -> BlockRun {
        assert!(segs.len() >= 2, "a superblock straightens at least one edge");
        assert!(
            segs.iter().all(|(base, i)| !i.is_empty() && self.covers(*base)),
            "install of empty or uncovered superblock segment"
        );
        let jump_exit = jumps_out(&segs[segs.len() - 1].1);
        let run = self.put(segs[0].0, &superblock_ops(&segs, fuse), jump_exit, line_shift);
        self.stats.superblocks += 1;
        run
    }

    /// Compiles `ops`, a block's op run, and puts the block in a new slot
    /// for its entry `pc`.
    fn put(&mut self, pc: u64, ops: &[BlockOp], jump_exit: bool, line_shift: u32) -> BlockRun {
        let code = Template::emit(pc, line_shift, ops, jump_exit);
        let bid = self.blocks.len() as u32;
        let run = BlockRun { bid, width: code.width, jump_exit };
        let idx = self.index(pc);
        debug_assert_eq!(self.entry[idx], NO_BLOCK, "a block is installed only where none starts");
        self.entry[idx] = bid;
        self.blocks.push(Some(code));
        self.stats.builds += 1;
        self.stats.compiles += 1;
        run
    }

    /// Moves block `bid`'s compiled code out of its slot for one
    /// execution; [`BlockTable::put_compiled`] puts it back. `bid` must
    /// come from the lookup or install just before, with no table call in
    /// between but [`BlockTable::generation`] and
    /// [`BlockTable::note_store`] (see the module docs).
    #[inline]
    pub(crate) fn take_compiled(&mut self, bid: u32) -> Arc<CompiledBlock> {
        self.blocks[bid as usize].take().expect("a handed-out block holds its code")
    }

    /// Puts back the code [`BlockTable::take_compiled`] moved out, unless
    /// the block stored into text and so dropped every block: then the
    /// code is dropped too. Later entries (and table clones) run it until
    /// the next text change.
    #[inline]
    pub(crate) fn put_compiled(&mut self, bid: u32, code: Arc<CompiledBlock>) {
        if let Some(slot) = self.blocks.get_mut(bid as usize) {
            *slot = Some(code);
        }
    }

    /// Counts a tier deopt observed by the execution loop (a block saw
    /// the generation move out from under it).
    #[inline]
    pub(crate) fn note_deopt(&mut self) {
        self.stats.tier_deopts += 1;
    }

    /// Records a guest store of `len` bytes at `addr`: if it overlaps
    /// the text range, every block is dropped ([`BlockTable::flush`]), and
    /// the currently executing block (if any) sees the generation move
    /// and stops using its compiled run. One compare in the common case
    /// of a data store. Returns whether the store hit text (i.e. whether
    /// blocks were invalidated) so the trace layer can record the event.
    #[inline]
    pub fn note_store(&mut self, addr: u64, len: u64) -> bool {
        let end = addr.wrapping_add(len - 1);
        if end < self.base || addr >= self.limit {
            return false;
        }
        self.stats.store_invalidations += 1;
        self.flush();
        true
    }

    /// Drops every block, each counted as a rebuild and a tier deopt,
    /// and moves the generation; keeps the covered range and the
    /// statistics. Called on a guest store into text, on a host write
    /// through `Cpu::mem_mut` (which may have written anywhere), and when
    /// attribution needs blocks split at handler entries.
    #[cold]
    pub fn flush(&mut self) {
        let dropped = self.blocks.len() as u64;
        self.stats.rebuilds += dropped;
        self.stats.tier_deopts += dropped;
        self.entry.fill(NO_BLOCK);
        self.blocks.clear();
        self.gen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tarch_isa::{AluImmOp, BranchCond, MemWidth, Reg};

    fn addi(imm: i32) -> Instruction {
        Instruction::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::A0, imm }
    }

    /// `log2` of the paper's 64-byte I-cache line.
    const LINE_SHIFT: u32 = 6;

    fn ld() -> Instruction {
        Instruction::Load {
            width: MemWidth::Double,
            signed: false,
            rd: Reg::A1,
            rs1: Reg::A0,
            imm: 0,
        }
    }

    fn sd() -> Instruction {
        Instruction::Store { width: MemWidth::Double, rs2: Reg::A1, rs1: Reg::A0, imm: 0 }
    }

    fn bne() -> Instruction {
        Instruction::Branch { cond: BranchCond::Ne, rs1: Reg::A0, rs2: Reg::A1, offset: -8 }
    }

    fn jal() -> Instruction {
        Instruction::Jal { rd: Reg::RA, offset: 8 }
    }

    fn table_with_block() -> BlockTable {
        let mut t = BlockTable::new();
        t.reset(0x1000, 8);
        let run = t.install(0x1000, vec![addi(1), addi(2)], false, LINE_SHIFT);
        assert_eq!(run.width, 2);
        assert!(!run.jump_exit, "no final branch or jump");
        t
    }

    #[test]
    fn install_compiles_then_lookup_round_trips() {
        let mut t = table_with_block();
        assert_eq!(t.compiled_len(), 1, "install compiles the block");
        let run = t.lookup(0x1000).expect("installed block");
        assert_eq!((run.bid, run.width), (0, 2));
        assert!(t.lookup(0x1004).is_none(), "no block *starts* mid-run");
        assert_eq!(t.stats().builds, 1);
        assert_eq!(t.stats().compiles, 1, "every build compiles");
        assert_eq!(t.stats().hits, 1);
    }

    #[test]
    fn data_store_is_one_compare_and_no_invalidation() {
        let mut t = table_with_block();
        let gen = t.generation();
        t.note_store(0x2_0000, 8);
        assert_eq!(t.generation(), gen);
        assert!(t.lookup(0x1000).is_some());
        assert_eq!(t.stats().rebuilds, 0);
    }

    #[test]
    fn text_store_outside_every_block_drops_every_block() {
        let mut t = table_with_block();
        let gen = t.generation();
        t.note_store(0x101c, 4); // inside text, outside this block
        assert_ne!(t.generation(), gen, "text store must move the generation");
        assert!(t.is_empty(), "any text change drops every block");
        assert!(t.lookup(0x1000).is_none());
        assert_eq!(t.stats().store_invalidations, 1);
        assert_eq!(t.stats().rebuilds, 1);
        assert_eq!(t.stats().tier_deopts, 1, "dropping compiled code is a deopt");
        assert_eq!(t.stats().revalidations, 0);
    }

    #[test]
    fn store_into_running_block_drops_it_and_detached_code_stays_alive() {
        let mut t = table_with_block();
        let bid = t.lookup(0x1000).expect("installed block").bid;
        // The executor moves the code out of its slot, and the block
        // stores into its own second word.
        let old_code = t.take_compiled(bid);
        assert_eq!(t.compiled_len(), 0, "the slot is empty while its block runs");
        let gen = t.generation();
        t.note_store(0x1004, 4);
        assert_ne!(t.generation(), gen, "the executor sees the store and stops");
        // The code it holds is unaffected. Its slot went with every other
        // block, so putting it back drops it: a deopt.
        assert_eq!(old_code.width, 2);
        t.put_compiled(bid, old_code);
        assert!(t.is_empty(), "the code does not come back");
        assert!(t.lookup(0x1000).is_none(), "a text change must force a rebuild");
        assert_eq!(t.stats().rebuilds, 1);
        assert_eq!(t.stats().tier_deopts, 1, "dropping compiled code is a deopt");
        let run = t.install(0x1000, vec![addi(1), addi(3)], false, LINE_SHIFT);
        assert_eq!((run.bid, t.len()), (0, 1), "the rebuild fills the emptied table");
        assert_eq!(t.stats().compiles, 2, "the rebuilt block is compiled again");
        assert!(t.lookup(0x1000).is_some(), "the rebuilt block is current");
    }

    #[test]
    fn flush_drops_every_block_and_moves_generation() {
        let mut t = table_with_block();
        t.install(0x1008, vec![addi(3)], false, LINE_SHIFT);
        let gen = t.generation();
        t.flush();
        assert_ne!(t.generation(), gen);
        assert!(t.is_empty());
        assert!(t.lookup(0x1008).is_none());
        assert!(t.lookup(0x1000).is_none());
        assert_eq!(t.stats().rebuilds, 2, "both blocks are dropped");
        assert_eq!(t.stats().tier_deopts, 2);
        assert!(t.covers(0x1000));
        assert_eq!(t.stats().builds, 2, "flush keeps the statistics");
    }

    #[test]
    fn reset_retargets_and_drops_everything() {
        let mut t = table_with_block();
        t.reset(0x4000, 2);
        assert!(!t.covers(0x1000));
        assert!(t.covers(0x4004));
        assert!(!t.covers(0x4008));
        assert!(t.lookup(0x4000).is_none());
    }

    #[test]
    fn store_straddling_the_range_edges_still_bumps() {
        let mut t = table_with_block();
        let g0 = t.generation();
        t.note_store(0x0ffe, 4); // straddles the low edge
        assert_eq!(t.generation(), g0 + 1);
        t.note_store(0x101e, 8); // straddles the high edge
        assert_eq!(t.generation(), g0 + 2);
        t.note_store(0x0f00, 8); // entirely outside: no-op
        t.note_store(0x2000, 8);
        assert_eq!(t.generation(), g0 + 2);
    }

    // --- fusion ---

    #[test]
    fn fuse_rewrites_known_pairs_and_disables_cleanly() {
        let a = addi(1);
        let instrs = vec![a, a, ld(), a, jal()];
        let fused = fuse_ops(&instrs, true);
        assert_eq!(
            fused,
            vec![BlockOp::AluPair(a, a), BlockOp::OneLoad(ld()), BlockOp::AluJal(a, jal())]
        );
        assert_eq!(fused.iter().map(|op| op.width()).sum::<u64>(), 5);
        let unfused = fuse_ops(&instrs, false);
        assert_eq!(unfused.len(), 5);
        assert!(unfused.iter().all(|op| matches!(op, BlockOp::One(_))));
    }

    #[test]
    fn fuse_is_greedy_left_to_right_without_overlap() {
        let a = addi(1);
        // [alu, alu, alu]: the first two fuse, the third stays single —
        // the middle instruction is never consumed twice.
        let fused = fuse_ops(&[a, a, a], true);
        assert_eq!(fused, vec![BlockOp::AluPair(a, a), BlockOp::OneSafe(a)]);
        assert_eq!(fused.iter().map(|op| op.width()).sum::<u64>(), 3);
    }

    /// Only alu+alu and alu+jal fuse: every other adjacent pair of
    /// sample forms stays unfused, load- and store-led pairs,
    /// alu+{load,store,branch}, tld+tchk and tget+branch among them.
    #[test]
    fn fuse_pairs_only_alu_then_alu_or_jal() {
        let a = addi(1);
        let lui = Instruction::Lui { rd: Reg::A2, imm: 7 };
        assert_eq!(fuse_pair(a, lui), Some(BlockOp::AluPair(a, lui)));
        assert_eq!(fuse_pair(lui, jal()), Some(BlockOp::AluJal(lui, jal())));
        let tld = Instruction::Tld { rd: Reg::A1, rs1: Reg::A0, imm: 0 };
        let tchk = Instruction::Tchk { rs1: Reg::A1, rs2: Reg::A2 };
        let tget = Instruction::Tget { rd: Reg::A1, rs1: Reg::A0 };
        let jalr = Instruction::Jalr { rd: Reg::ZERO, rs1: Reg::A0, imm: 0 };
        for (x, y) in [
            (a, ld()),
            (a, bne()),
            (a, sd()),
            (ld(), a),
            (ld(), jalr),
            (ld(), sd()),
            (ld(), ld()),
            (sd(), a),
            (sd(), jal()),
            (tld, tchk),
            (tget, bne()),
        ] {
            assert_eq!(fuse_pair(x, y), None, "{x} ; {y} must stay unfused");
        }
        let alu = |i| {
            matches!(
                i,
                Instruction::Alu { .. } | Instruction::AluImm { .. } | Instruction::Lui { .. }
            )
        };
        let forms = tarch_isa::samples::all_forms();
        for &x in &forms {
            for &y in &forms {
                let expected = match y {
                    _ if !alu(x) => None,
                    _ if alu(y) => Some(BlockOp::AluPair(x, y)),
                    Instruction::Jal { .. } => Some(BlockOp::AluJal(x, y)),
                    _ => None,
                };
                assert_eq!(fuse_pair(x, y), expected, "{x} ; {y}");
            }
        }
    }

    // --- PGO superblocks ---

    /// A two-segment superblock: [addi, bne +12] at 0x1000 straightened
    /// into its measured taken target [addi] at 0x1010.
    fn super_table() -> BlockTable {
        let mut t = BlockTable::new();
        t.reset(0x1000, 8);
        let a = addi(1);
        let br =
            Instruction::Branch { cond: BranchCond::Ne, rs1: Reg::A0, rs2: Reg::A1, offset: 12 };
        let segs = vec![(0x1000, vec![a, br]), (0x1010, vec![a])];
        assert_eq!(
            superblock_ops(&segs, true),
            [BlockOp::OneSafe(a), BlockOp::GuardBranch(br, 0x1010), BlockOp::OneSafe(a)],
            "ender excluded from fusion and rewritten into a guard"
        );
        let run = t.install_super(segs, true, LINE_SHIFT);
        assert_eq!(run.width, 3);
        assert!(!run.jump_exit, "final segment ends in a plain alu");
        assert_eq!(t.stats().superblocks, 1);
        t
    }

    #[test]
    fn superblock_drops_with_every_other_block_and_rebuilds_plain() {
        let mut t = super_table();
        // A text store outside both segments still drops the superblock.
        t.note_store(0x101c, 4);
        assert!(t.lookup(0x1000).is_none(), "any text change drops every block");
        assert_eq!((t.stats().rebuilds, t.stats().revalidations), (1, 0));
        // The emptied entry takes a plain block.
        t.install(0x1000, vec![addi(1)], true, LINE_SHIFT);
        assert_eq!(t.lookup(0x1000).map(|r| r.width), Some(1));
        assert_eq!(t.stats().superblocks, 1, "only the first install straightened");
    }
}
