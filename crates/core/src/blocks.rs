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
//! path, architecturally invisible: at block-build time, common adjacent
//! instruction pairs — ALU/ALU address formation, ALU+load, load+ALU,
//! compare-and-branch, load+indirect-jump dispatch, `tld`+`tchk`,
//! `tget`+branch — are rewritten into fused [`BlockOp`] variants whose
//! compiled templates apply both components'
//! fetch/cache/TLB/counter charges exactly, while skipping the
//! inter-instruction bookkeeping the pair provably cannot need (see the
//! legality rules on [`fuse_pair`]). The fusion set was chosen from a
//! measured opcode-pair histogram; see [`fuse_pair`] and DESIGN.md.
//!
//! **Compile at install.** [`BlockTable::install`] and
//! [`BlockTable::install_super`] hand the block's op run to the template
//! compiler ([`crate::codegen::Template`]) and keep only the compiled
//! closure and the raw words; the op run exists only as the compiler's
//! input. Revalidation keeps the closure (words unchanged means its
//! folded constants are still true), and the word-compare drop path
//! discards it with the rest of the block, counted as a tier deopt.
//! Cloned tables share compiled closures, which is what makes a fleet
//! clone of a warmed template start hot.
//!
//! A block is entered only through [`BlockTable::lookup`] or a fresh
//! build: every entry probes the direct-indexed entry table, and the
//! table's generation is the one invalidation contract.
//!
//! A block is handed out as its slot id ([`BlockRun`]), and the
//! executor moves the block's compiled closure out of the slot for one
//! execution and back after it ([`BlockTable::take_compiled`]), so it
//! runs with no table borrow held and no reference count changes hands.
//! The slot stays empty while its block runs, and nobody looks: mid-block
//! the executor calls only [`BlockTable::generation`] and
//! [`BlockTable::note_store`], which read no slot, while
//! [`BlockTable::lookup`], [`BlockTable::flush`], [`BlockTable::reset`]
//! and [`BlockTable::mark_stale`] run only between blocks. A guest store
//! into text during the block bumps the generation; the executor watches
//! it, stops at the next instruction boundary, and puts the code back
//! for the next [`BlockTable::lookup`] to revalidate or drop. The
//! closures stay behind `Arc`s only so that table clones (fleet tenants)
//! share them.
//!
//! Correctness under mutation:
//!
//! * **Guest stores** into the text range bump the table's generation
//!   ([`BlockTable::note_store`]). The executing block loop re-checks the
//!   generation after every instruction that can store, so a store into
//!   the *current* block stops block execution at the store; every block
//!   lazily revalidates its cached raw words against memory on next entry
//!   and is rebuilt if they changed.
//! * **Host writes** through `Cpu::mem_mut` bump the same generation
//!   ([`BlockTable::mark_stale`]): blocks whose words are untouched
//!   revalidate in place (one `u32` compare per word); changed blocks are
//!   rebuilt from current memory.
//! * [`BlockTable::flush`] drops every block outright (and bumps the
//!   generation). Like host writes, it happens between blocks.
//!
//! **PGO superblocks** (PR 9): with a profile loaded
//! (`CoreConfig::pgo`), block building straightens the measured hot
//! path across taken branches into one block
//! ([`BlockTable::install_super`]): each straightened branch/`jal`
//! becomes a [`BlockOp::GuardBranch`] / [`BlockOp::GuardJal`] that
//! executes the real control transfer (identical predictor and fetch
//! charges) and either continues into the next segment — the measured
//! outcome — or side-exits the block at the freshly computed pc.
//! Superblocks revalidate per segment and otherwise ride the exact
//! generation contract above; see DESIGN.md invariant 9.
//!
//! Entries outside the text range miss the table and fall back to the
//! stepwise path, so dynamically placed code still runs.

use crate::codegen::{CompiledBlock, Template};
use std::sync::Arc;
use tarch_isa::Instruction;
use tarch_mem::MainMemory;

/// Upper bound on instructions per block. Keeps the budget-clipping
/// arithmetic cheap and bounds the work a single revalidation does.
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
    /// ALU-class then integer load (address formation + use; the load
    /// may trap on misalignment).
    AluLoad(Instruction, Instruction),
    /// Integer load then ALU-class (load + extract/advance; the load may
    /// trap).
    LoadAlu(Instruction, Instruction),
    /// ALU-class compare/guard then conditional branch (always the last
    /// pair of its block).
    AluBranch(Instruction, Instruction),
    /// ALU-class then direct jump (always last).
    AluJal(Instruction, Instruction),
    /// Integer load then indirect jump: the interpreter dispatch pair
    /// (always last; the load may trap).
    LoadJalr(Instruction, Instruction),
    /// ALU-class then integer store (the store may trap and may
    /// invalidate blocks, checked after the pair).
    AluStore(Instruction, Instruction),
    /// Integer load then integer store (copy idiom; both may trap, the
    /// store may invalidate).
    LoadStore(Instruction, Instruction),
    /// Integer load then integer load (field-chase idiom; both may
    /// trap).
    LoadLoad(Instruction, Instruction),
    /// Integer store then ALU-class (store + pointer/index advance). The
    /// store may trap and may invalidate blocks: the handler re-checks
    /// the generation between the components and abandons the block at
    /// the second component's pc if it moved.
    StoreAlu(Instruction, Instruction),
    /// Integer store then direct jump (always last; same inter-component
    /// generation re-check as [`BlockOp::StoreAlu`]).
    StoreJal(Instruction, Instruction),
    /// `tld` then `tchk`: tagged load + type guard (the load may trap,
    /// the check may redirect to the handler).
    TldTchk(Instruction, Instruction),
    /// `tget` then conditional branch: tag-guarded branch (always last).
    TgetBranch(Instruction, Instruction),
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
            BlockOp::One(_)
            | BlockOp::OneSafe(_)
            | BlockOp::OneLoad(_)
            | BlockOp::OneStore(_)
            | BlockOp::OneBranch(_)
            | BlockOp::OneJal(_)
            | BlockOp::OneJalr(_)
            | BlockOp::GuardBranch(..)
            | BlockOp::GuardJal(_) => 1,
            _ => 2,
        }
    }
}

/// Whether `instr` is in the fusable ALU class: integer ALU (reg-reg or
/// immediate) and `lui`. These never trap, never redirect, never touch
/// memory, and never produce a stop event, so one may legally be the
/// *first* component of any fused pair — the pair can skip the
/// fall-through, generation, and stop checks between its components.
#[inline]
fn fuse_alu_class(instr: Instruction) -> bool {
    matches!(instr, Instruction::Alu { .. } | Instruction::AluImm { .. } | Instruction::Lui { .. })
}

/// Fusion legality and the fused pair an adjacent `(a, b)` rewrites to.
///
/// The set was chosen from a histogram of the adjacent same-block opcode
/// pairs the unfused engine retired over the evaluation matrix: of 554 M
/// retired pairs, alu+alu made 11.5%, shift+shift 8.2%, add+load 7.7%
/// and load+jalr 5.6%.
///
/// Legality rules (DESIGN.md has the full argument):
///
/// 1. The first component must never redirect and never produce a stop
///    event — so skipping the fall-through / event checks between the
///    components is sound. ALU-class instructions, integer loads,
///    integer stores, `tld`, and `tget` qualify; loads, stores, and
///    `tld` may *trap*, which is fine because a trap aborts the pair
///    before its second component runs. A *storing* first component may
///    additionally invalidate blocks, so its handlers keep the one
///    check that is not statically dead: the inter-component generation
///    re-check (abandoning the block at the second component's pc when
///    it moved, exactly like the generic path).
/// 2. The second component may be anything except a block ender that the
///    builder would not have placed mid-block anyway; pairs whose second
///    component is a branch/jump are necessarily the last op of their
///    block (the builder stops at `ends_block`).
/// 3. Both components' architectural charges are applied by the fused
///    handler in exact program order, so counters, caches, TLBs, and the
///    branch predictor see the same stream as the unfused engine.
fn fuse_pair(a: Instruction, b: Instruction) -> Option<BlockOp> {
    if fuse_alu_class(a) {
        return match b {
            _ if fuse_alu_class(b) => Some(BlockOp::AluPair(a, b)),
            Instruction::Load { .. } => Some(BlockOp::AluLoad(a, b)),
            Instruction::Branch { .. } => Some(BlockOp::AluBranch(a, b)),
            Instruction::Jal { .. } => Some(BlockOp::AluJal(a, b)),
            Instruction::Store { .. } => Some(BlockOp::AluStore(a, b)),
            _ => None,
        };
    }
    match (a, b) {
        (Instruction::Load { .. }, _) if fuse_alu_class(b) => Some(BlockOp::LoadAlu(a, b)),
        (Instruction::Load { .. }, Instruction::Jalr { .. }) => Some(BlockOp::LoadJalr(a, b)),
        (Instruction::Load { .. }, Instruction::Store { .. }) => Some(BlockOp::LoadStore(a, b)),
        (Instruction::Load { .. }, Instruction::Load { .. }) => Some(BlockOp::LoadLoad(a, b)),
        (Instruction::Store { .. }, _) if fuse_alu_class(b) => Some(BlockOp::StoreAlu(a, b)),
        (Instruction::Store { .. }, Instruction::Jal { .. }) => Some(BlockOp::StoreJal(a, b)),
        (Instruction::Tld { .. }, Instruction::Tchk { .. }) => Some(BlockOp::TldTchk(a, b)),
        (Instruction::Tget { .. }, Instruction::Branch { .. }) => Some(BlockOp::TgetBranch(a, b)),
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
/// adjacent pairs left to right when `fuse` is set (a fused instruction
/// is never re-fused with its other neighbour), and classifying the
/// remaining singles into the specialized single-instruction variants
/// ([`BlockOp::OneSafe`], [`BlockOp::OneLoad`], [`BlockOp::OneStore`],
/// and the block-ending branch/jump forms) whose templates skip the
/// inter-instruction checks their class makes statically dead.
/// With `fuse` off every instruction becomes a plain [`BlockOp::One`] —
/// the fully generic form.
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
fn superblock_ops(segs: &[(u64, Vec<u32>, Vec<Instruction>)], fuse: bool) -> Vec<BlockOp> {
    let mut ops = Vec::new();
    for (i, (_, _, instrs)) in segs.iter().enumerate() {
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
/// execution loop needs without re-touching the table — the total
/// instruction width, and whether the final op is a branch or jump
/// (computed once at install time, so the hot loop never re-inspects
/// instructions to classify an exit). The block's code stays in the
/// slot until the loop moves it out to run it.
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

/// One cached basic block: the raw words it was decoded from (for
/// revalidation) and its compiled code.
#[derive(Debug, Clone, Default)]
struct Block {
    gen: u64,
    words: Vec<u32>,
    /// Text segments this block's `words` were decoded from, as
    /// `(base, word_count)` in `words` order. Empty for the common
    /// contiguous block (one segment from the entry pc on); a PGO
    /// superblock straightened across taken branches records one entry
    /// per straightened segment so revalidation compares every cached
    /// word against the address it actually came from.
    segs: Vec<(u64, u32)>,
    width: u32,
    jump_exit: bool,
    /// The compiled closure, shared with table clones (the fleet's
    /// warm-cache inheritance). `None` once the block is dropped
    /// (awaiting rebuild), and while it executes
    /// ([`BlockTable::take_compiled`]).
    compiled: Option<Arc<CompiledBlock>>,
}

impl Block {
    fn run(&self, bid: u32) -> BlockRun {
        BlockRun { bid, width: self.width, jump_exit: self.jump_exit }
    }
}

/// Running effectiveness statistics (host-side only; not architectural).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Block entries served from the table.
    pub hits: u64,
    /// Blocks decoded and installed (first build or rebuild).
    pub builds: u64,
    /// Blocks revalidated in place (words unchanged) after a generation
    /// bump.
    pub revalidations: u64,
    /// Blocks dropped because a cached word no longer matched memory.
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
    /// block's execution (it exits at that op boundary), or a
    /// word-compare drop of a block.
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
/// compiled closures but copies the entry index, words, and generation
/// state, so invalidation in one clone never affects another. Clones are
/// taken between blocks, when every slot holds its code.
#[derive(Debug, Default, Clone)]
pub struct BlockTable {
    base: u64,
    limit: u64,
    entry: Vec<u32>,
    blocks: Vec<Block>,
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

    /// Number of blocks currently installed (structure occupancy;
    /// includes blocks awaiting revalidation after a generation bump).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Number of installed blocks currently carrying compiled code
    /// (trace-layer occupancy sampling): every live block but the one
    /// executing.
    pub fn compiled_len(&self) -> usize {
        self.blocks.iter().filter(|b| b.compiled.is_some()).count()
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
    /// instruction that can store; any mutation signal (guest store into
    /// text, host write, flush) changes it, and every block revalidates
    /// at its next [`BlockTable::lookup`].
    #[inline]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc - self.base) >> 2) as usize
    }

    /// Looks up the block starting at `pc`, revalidating its cached
    /// words against `mem` when the generation moved since it was last
    /// used. Returns the block, or `None` when the caller must build (no
    /// block here yet, or the words under it changed).
    #[inline]
    pub fn lookup(&mut self, pc: u64, mem: &MainMemory) -> Option<BlockRun> {
        if !self.covers(pc) {
            return None;
        }
        let bid = self.entry[self.index(pc)];
        if bid == NO_BLOCK {
            return None;
        }
        let block = &mut self.blocks[bid as usize];
        // A block without its code was dropped and awaits a rebuild.
        block.compiled.as_ref()?;
        if block.gen != self.gen {
            // A contiguous block (empty `segs`) compares its words
            // against `pc` onward; a superblock walks its recorded
            // segments so every cached word is compared against the
            // address it was decoded from.
            let stale = if block.segs.is_empty() {
                block.words.iter().enumerate().any(|(i, w)| mem.read_u32(pc + 4 * i as u64) != *w)
            } else {
                let mut words = block.words.iter();
                block.segs.iter().any(|&(base, n)| {
                    (0..u64::from(n)).any(|i| {
                        mem.read_u32(base + 4 * i) != *words.next().expect("segs cover words")
                    })
                })
            };
            if stale {
                // The text under this block changed: drop its compiled
                // code (the entry keeps its block id for reuse), a tier
                // deopt, and make the caller rebuild and recompile from
                // current memory.
                self.stats.tier_deopts += 1;
                *block = Block::default();
                self.stats.rebuilds += 1;
                return None;
            }
            block.gen = self.gen;
            self.stats.revalidations += 1;
        }
        self.stats.hits += 1;
        Some(block.run(bid))
    }

    /// Installs a freshly decoded block starting at `pc`, reusing the
    /// entry's block id if one was allocated before: fuses adjacent pairs
    /// when `fuse` is set and compiles the op run, folding fetch spans
    /// for an I-cache line of `1 << line_shift` bytes. Returns the block.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is outside the covered range or `instrs` is empty
    /// (callers only install non-empty blocks for covered entries).
    pub fn install(
        &mut self,
        pc: u64,
        words: Vec<u32>,
        instrs: Vec<Instruction>,
        fuse: bool,
        line_shift: u32,
    ) -> BlockRun {
        assert!(self.covers(pc) && !instrs.is_empty(), "install of empty or uncovered block");
        let block = Block {
            words,
            width: instrs.len() as u32,
            jump_exit: jumps_out(&instrs),
            ..Block::default()
        };
        self.put(pc, block, &fuse_ops(&instrs, fuse), line_shift)
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
    /// The installed block revalidates per segment (see
    /// [`BlockTable::lookup`]) and otherwise rides the generation
    /// contract unchanged — `note_store` range-checks the whole text
    /// range, which covers every segment.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two segments are given (use
    /// [`BlockTable::install`]), any segment is empty or uncovered, a
    /// non-final segment does not end in a direct branch/`jal`, or a
    /// segment's word and instruction counts disagree.
    pub fn install_super(
        &mut self,
        segs: Vec<(u64, Vec<u32>, Vec<Instruction>)>,
        fuse: bool,
        line_shift: u32,
    ) -> BlockRun {
        assert!(segs.len() >= 2, "a superblock straightens at least one edge");
        assert!(
            segs.iter()
                .all(|(base, w, i)| { !i.is_empty() && w.len() == i.len() && self.covers(*base) }),
            "install of empty, inconsistent, or uncovered superblock segment"
        );
        let block = Block {
            words: segs.iter().flat_map(|(_, w, _)| w.iter().copied()).collect(),
            segs: segs.iter().map(|(base, w, _)| (*base, w.len() as u32)).collect(),
            width: segs.iter().map(|(_, _, i)| i.len() as u32).sum(),
            jump_exit: jumps_out(&segs[segs.len() - 1].2),
            ..Block::default()
        };
        let run = self.put(segs[0].0, block, &superblock_ops(&segs, fuse), line_shift);
        self.stats.superblocks += 1;
        run
    }

    /// Compiles `ops`, `block`'s op run, and puts the block in the slot
    /// of its entry `pc`, reusing the entry's block id if one was
    /// allocated before.
    fn put(&mut self, pc: u64, mut block: Block, ops: &[BlockOp], line_shift: u32) -> BlockRun {
        let idx = self.index(pc);
        let bid = if self.entry[idx] == NO_BLOCK {
            self.blocks.push(Block::default());
            let bid = (self.blocks.len() - 1) as u32;
            self.entry[idx] = bid;
            bid
        } else {
            self.entry[idx]
        };
        block.gen = self.gen;
        block.compiled = Some(Template::emit(pc, line_shift, ops));
        let run = block.run(bid);
        self.blocks[bid as usize] = block;
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
        self.blocks[bid as usize].compiled.take().expect("a handed-out block holds its code")
    }

    /// Puts back the code [`BlockTable::take_compiled`] moved out. Later
    /// entries (and table clones) run it until the block is dropped or
    /// rebuilt.
    #[inline]
    pub(crate) fn put_compiled(&mut self, bid: u32, code: Arc<CompiledBlock>) {
        self.blocks[bid as usize].compiled = Some(code);
    }

    /// Counts a tier deopt observed by the execution loop (a block saw
    /// the generation move out from under it).
    #[inline]
    pub(crate) fn note_deopt(&mut self) {
        self.stats.tier_deopts += 1;
    }

    /// Records a guest store of `len` bytes at `addr`: if it overlaps
    /// the text range, every block must re-check its words before its
    /// next execution, and the currently executing block (if any) must
    /// stop using its cached run. One compare in the common case of a
    /// data store. Returns whether the store hit text (i.e. whether blocks
    /// were invalidated) so the trace layer can record the event.
    #[inline]
    pub fn note_store(&mut self, addr: u64, len: u64) -> bool {
        let end = addr.wrapping_add(len - 1);
        if end < self.base || addr >= self.limit {
            return false;
        }
        self.gen += 1;
        self.stats.store_invalidations += 1;
        true
    }

    /// Marks every block as needing revalidation (a host may have
    /// written arbitrary memory through `Cpu::mem_mut`).
    #[inline]
    pub fn mark_stale(&mut self) {
        self.gen += 1;
    }

    /// Drops every cached block (keeps the covered range and the
    /// statistics) and bumps the generation.
    pub fn flush(&mut self) {
        for e in &mut self.entry {
            *e = NO_BLOCK;
        }
        self.blocks.clear();
        self.gen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tarch_isa::{AluImmOp, BranchCond, MemWidth, Reg};

    fn addi(imm: i32) -> (u32, Instruction) {
        let i = Instruction::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::A0, imm };
        (i.encode().unwrap(), i)
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

    fn table_with_block() -> (BlockTable, MainMemory) {
        let mut t = BlockTable::new();
        t.reset(0x1000, 8);
        let mut mem = MainMemory::new();
        let (w1, i1) = addi(1);
        let (w2, i2) = addi(2);
        mem.write_u32(0x1000, w1);
        mem.write_u32(0x1004, w2);
        let run = t.install(0x1000, vec![w1, w2], vec![i1, i2], false, LINE_SHIFT);
        assert_eq!(run.width, 2);
        assert!(!run.jump_exit, "no final branch or jump");
        (t, mem)
    }

    #[test]
    fn install_compiles_then_lookup_round_trips() {
        let (mut t, mem) = table_with_block();
        assert_eq!(t.compiled_len(), 1, "install compiles the block");
        let run = t.lookup(0x1000, &mem).expect("installed block");
        assert_eq!((run.bid, run.width), (0, 2));
        assert!(t.lookup(0x1004, &mem).is_none(), "no block *starts* mid-run");
        assert_eq!(t.stats().builds, 1);
        assert_eq!(t.stats().compiles, 1, "every build compiles");
        assert_eq!(t.stats().hits, 1);
    }

    #[test]
    fn data_store_is_one_compare_and_no_invalidation() {
        let (mut t, mem) = table_with_block();
        let gen = t.generation();
        t.note_store(0x2_0000, 8);
        assert_eq!(t.generation(), gen);
        assert!(t.lookup(0x1000, &mem).is_some());
        assert_eq!(t.stats().revalidations, 0);
    }

    #[test]
    fn text_store_revalidates_unchanged_block_in_place() {
        let (mut t, mem) = table_with_block();
        let gen = t.generation();
        t.note_store(0x101c, 4); // inside text, outside this block
        assert_ne!(t.generation(), gen, "text store must move the generation");
        assert!(t.lookup(0x1000, &mem).is_some());
        assert_eq!(t.stats().revalidations, 1);
        assert_eq!(t.stats().store_invalidations, 1);
    }

    #[test]
    fn changed_word_drops_block_and_detached_code_stays_alive() {
        let (mut t, mut mem) = table_with_block();
        let bid = t.lookup(0x1000, &mem).expect("installed block").bid;
        // The executor moves the code out of its slot, and the block
        // stores into its own second word.
        let old_code = t.take_compiled(bid);
        assert_eq!(t.compiled_len(), 0, "the slot is empty while its block runs");
        let (w3, i3) = addi(3);
        mem.write_u32(0x1004, w3);
        let gen = t.generation();
        t.note_store(0x1004, 4);
        assert_ne!(t.generation(), gen, "the executor sees the store and stops");
        // The code it holds is unaffected; it goes back into the slot, and
        // the next lookup drops it: a deopt.
        assert_eq!(old_code.width, 2);
        t.put_compiled(bid, old_code);
        assert!(t.lookup(0x1000, &mem).is_none(), "changed word must force a rebuild");
        assert_eq!(t.stats().rebuilds, 1);
        assert_eq!(t.stats().tier_deopts, 1, "dropping compiled code is a deopt");
        let run = t.install(0x1000, vec![addi(1).0, w3], vec![addi(1).1, i3], false, LINE_SHIFT);
        assert_eq!(run.bid, bid);
        assert_eq!(t.blocks.len(), 1, "rebuild reuses the entry's block slot");
        assert_eq!(t.stats().compiles, 2, "the rebuilt block is compiled again");
    }

    #[test]
    fn host_write_epoch_revalidates_or_rebuilds() {
        let (mut t, mut mem) = table_with_block();
        t.mark_stale();
        assert!(t.lookup(0x1000, &mem).is_some(), "untouched block revalidates");
        assert_eq!(t.stats().revalidations, 1);
        let (w9, _) = addi(9);
        mem.write_u32(0x1000, w9);
        t.mark_stale();
        assert!(t.lookup(0x1000, &mem).is_none(), "patched block must rebuild");
    }

    #[test]
    fn flush_drops_blocks_and_moves_generation() {
        let (mut t, mem) = table_with_block();
        let gen = t.generation();
        t.flush();
        assert_ne!(t.generation(), gen);
        assert!(t.lookup(0x1000, &mem).is_none());
        assert!(t.covers(0x1000));
    }

    #[test]
    fn reset_retargets_and_drops_everything() {
        let (mut t, mem) = table_with_block();
        t.reset(0x4000, 2);
        assert!(!t.covers(0x1000));
        assert!(t.covers(0x4004));
        assert!(!t.covers(0x4008));
        assert!(t.lookup(0x4000, &mem).is_none());
    }

    #[test]
    fn store_straddling_the_range_edges_still_bumps() {
        let (mut t, _) = table_with_block();
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
        let (_, a) = addi(1);
        let instrs = vec![a, ld(), a, bne()];
        let fused = fuse_ops(&instrs, true);
        assert_eq!(fused, vec![BlockOp::AluLoad(a, ld()), BlockOp::AluBranch(a, bne())]);
        assert_eq!(fused.iter().map(|op| op.width()).sum::<u64>(), 4);
        let unfused = fuse_ops(&instrs, false);
        assert_eq!(unfused.len(), 4);
        assert!(unfused.iter().all(|op| op.width() == 1));
    }

    #[test]
    fn fuse_is_greedy_left_to_right_without_overlap() {
        let (_, a) = addi(1);
        // [alu, alu, alu]: the first two fuse, the third stays single —
        // the middle instruction is never consumed twice.
        let fused = fuse_ops(&[a, a, a], true);
        assert_eq!(fused, vec![BlockOp::AluPair(a, a), BlockOp::OneSafe(a)]);
        assert_eq!(fused.iter().map(|op| op.width()).sum::<u64>(), 3);
    }

    #[test]
    fn fuse_covers_the_issue_pairs() {
        let (_, a) = addi(1);
        let tld = Instruction::Tld { rd: Reg::A1, rs1: Reg::A0, imm: 0 };
        let tchk = Instruction::Tchk { rs1: Reg::A1, rs2: Reg::A2 };
        let tget = Instruction::Tget { rd: Reg::A1, rs1: Reg::A0 };
        let jalr = Instruction::Jalr { rd: Reg::ZERO, rs1: Reg::A0, imm: 0 };
        assert_eq!(fuse_pair(a, bne()), Some(BlockOp::AluBranch(a, bne())));
        assert_eq!(fuse_pair(a, ld()), Some(BlockOp::AluLoad(a, ld())));
        assert_eq!(fuse_pair(ld(), jalr), Some(BlockOp::LoadJalr(ld(), jalr)));
        assert_eq!(fuse_pair(tld, tchk), Some(BlockOp::TldTchk(tld, tchk)));
        assert_eq!(fuse_pair(tget, bne()), Some(BlockOp::TgetBranch(tget, bne())));
        assert_eq!(fuse_pair(ld(), sd()), Some(BlockOp::LoadStore(ld(), sd())));
        assert_eq!(fuse_pair(a, sd()), Some(BlockOp::AluStore(a, sd())));
        assert_eq!(fuse_pair(ld(), ld()), Some(BlockOp::LoadLoad(ld(), ld())));
        let jal = Instruction::Jal { rd: Reg::RA, offset: 8 };
        // Store-led pairs carry the inter-component generation re-check.
        assert_eq!(fuse_pair(sd(), a), Some(BlockOp::StoreAlu(sd(), a)));
        assert_eq!(fuse_pair(sd(), jal), Some(BlockOp::StoreJal(sd(), jal)));
        assert_eq!(fuse_pair(sd(), ld()), None, "store+load stays unfused");
        // Branches never lead: they end the block.
        assert_eq!(fuse_pair(bne(), a), None);
    }

    // --- PGO superblocks ---

    /// A two-segment superblock: [addi, bne +12] at 0x1000 straightened
    /// into its measured taken target [addi] at 0x1010.
    fn super_table() -> (BlockTable, MainMemory) {
        let mut t = BlockTable::new();
        t.reset(0x1000, 8);
        let mut mem = MainMemory::new();
        let (wa, a) = addi(1);
        let br =
            Instruction::Branch { cond: BranchCond::Ne, rs1: Reg::A0, rs2: Reg::A1, offset: 12 };
        let wb = br.encode().unwrap();
        mem.write_u32(0x1000, wa);
        mem.write_u32(0x1004, wb);
        mem.write_u32(0x1010, wa);
        let segs = vec![(0x1000, vec![wa, wb], vec![a, br]), (0x1010, vec![wa], vec![a])];
        assert_eq!(
            superblock_ops(&segs, true),
            [BlockOp::OneSafe(a), BlockOp::GuardBranch(br, 0x1010), BlockOp::OneSafe(a)],
            "ender excluded from fusion and rewritten into a guard"
        );
        let run = t.install_super(segs, true, LINE_SHIFT);
        assert_eq!(run.width, 3);
        assert!(!run.jump_exit, "final segment ends in a plain alu");
        assert_eq!(t.stats().superblocks, 1);
        (t, mem)
    }

    #[test]
    fn superblock_installs_and_revalidates_per_segment() {
        let (mut t, mem) = super_table();
        assert!(t.lookup(0x1000, &mem).is_some());
        // Generation bump elsewhere in text: both segments' words still
        // match memory, so the superblock revalidates in place.
        t.note_store(0x101c, 4);
        assert!(t.lookup(0x1000, &mem).is_some());
        assert_eq!(t.stats().revalidations, 1);
    }

    #[test]
    fn superblock_drops_when_any_segment_changes() {
        let (mut t, mut mem) = super_table();
        // Patch the *second* segment — an address a contiguous compare
        // from the entry pc would never reach.
        mem.write_u32(0x1010, addi(9).0);
        t.note_store(0x1010, 4);
        assert!(t.lookup(0x1000, &mem).is_none(), "stale segment must drop the block");
        assert_eq!(t.stats().rebuilds, 1);
    }

    #[test]
    fn superblock_reuses_entry_slot_and_plain_rebuild_recovers() {
        let (mut t, mem) = super_table();
        // Rebuilding the same entry as a plain block reuses the id and
        // clears the segment metadata.
        let (wa, a) = addi(1);
        let run = t.install(0x1000, vec![wa], vec![a], true, LINE_SHIFT);
        assert_eq!(run.width, 1);
        assert!(t.lookup(0x1000, &mem).is_some());
        t.mark_stale();
        assert!(t.lookup(0x1000, &mem).is_some(), "contiguous revalidation again");
    }
}
