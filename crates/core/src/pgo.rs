//! Profile-guided optimization: the profile the engine consumes and the
//! edge recorder that produces its raw material.
//!
//! PGO is a two-phase loop. A **profile run** records the block-to-block
//! control edges observed at block exits through a final branch or jump
//! or a guard side-exit ([`EdgeProfile`], recorded by
//! `Cpu::run_blocks`). The runner distills them into a [`PgoProfile`]
//! and threads it back in through `CoreConfig::pgo` for the **optimized
//! run**, where it drives one decision: **superblock formation** — block
//! building follows the measured dominant successor across taken
//! branches, straightening the hot path into one block with guard
//! side-exits.
//!
//! The decision is host-side only: a stale or empty profile can cost
//! host speed but can never change a simulated counter. The profile
//! participates in the runner's job content key (its `Debug` rendering
//! is deterministic — sorted containers only), so cached results from
//! differently-profiled runs never collide.

use std::collections::BTreeMap;

/// A distilled, per-workload optimization profile (phase-2 input): the
/// dominant control edge per block-entry PC. A `BTreeMap` keeps the
/// `Debug` rendering, which the runner keys cached results on,
/// independent of insertion order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PgoProfile {
    /// Dominant control edge per block-entry PC: where execution went
    /// from this block's final branch or jump, when one successor
    /// dominated.
    edges: BTreeMap<u64, u64>,
}

impl PgoProfile {
    /// A profile of the dominant edges `edges` (block-entry PC to its
    /// dominant successor).
    pub fn new(edges: BTreeMap<u64, u64>) -> PgoProfile {
        PgoProfile { edges }
    }

    /// The measured dominant successor of the block entered at `pc`.
    pub fn successor(&self, pc: u64) -> Option<u64> {
        self.edges.get(&pc).copied()
    }

    /// Whether the profile contains no decisions at all (the
    /// deliberately-empty regression fixture looks like this).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The dominant-edge map.
    pub fn edges(&self) -> &BTreeMap<u64, u64> {
        &self.edges
    }
}

/// Raw block-to-block edge counts from a profile run.
///
/// `Cpu::run_blocks` notes one edge per block exit through a final
/// branch or jump, or through a superblock guard's side-exit, keyed by
/// (source block entry PC, successor PC). A `BTreeMap` keeps iteration (and therefore
/// artifact serialization) deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeProfile {
    counts: BTreeMap<(u64, u64), u64>,
    total: u64,
}

impl EdgeProfile {
    /// Fresh, empty recorder.
    pub fn new() -> EdgeProfile {
        EdgeProfile::default()
    }

    /// Notes one observed transfer from the block entered at `from` to
    /// the block entered at `to`.
    pub fn note(&mut self, from: u64, to: u64) {
        self.note_many(from, to, 1);
    }

    /// Notes `count` observations of the same transfer at once (used
    /// when replaying serialized edge rows back into a recorder).
    pub fn note_many(&mut self, from: u64, to: u64, count: u64) {
        *self.counts.entry((from, to)).or_insert(0) += count;
        self.total += count;
    }

    /// Total edges recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// All recorded edges as `(from, to, count)`, in key order.
    pub fn edges(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts.iter().map(|(&(f, t), &c)| (f, t, c))
    }

    /// Folds another recorder's counts into this one.
    pub fn merge(&mut self, other: &EdgeProfile) {
        for (&k, &c) in &other.counts {
            *self.counts.entry(k).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Distills the dominant successor per source PC: the single
    /// successor observed at least `min_count` times that carries at
    /// least `dominance_percent` of its source's outgoing edges.
    /// Sources with contested or rare successors are dropped — a guard
    /// that frequently side-exits costs more than it saves. Shares are
    /// compared in `u128`, so no count can overflow them.
    pub fn dominant(&self, min_count: u64, dominance_percent: u64) -> BTreeMap<u64, u64> {
        let mut out_totals: BTreeMap<u64, u128> = BTreeMap::new();
        for (&(from, _), &c) in &self.counts {
            *out_totals.entry(from).or_insert(0) += u128::from(c);
        }
        let mut best: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (&(from, to), &c) in &self.counts {
            let e = best.entry(from).or_insert((to, 0));
            if c > e.1 {
                *e = (to, c);
            }
        }
        best.into_iter()
            .filter(|&(from, (_, c))| {
                c >= min_count
                    && u128::from(c) * 100 >= u128::from(dominance_percent) * out_totals[&from]
            })
            .map(|(from, (to, _))| (from, to))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_answers_queries() {
        let p = PgoProfile::new(BTreeMap::from([(0x10, 0x40)]));
        assert_eq!(p.successor(0x10), Some(0x40));
        assert_eq!(p.successor(0x40), None);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_profile_decides_nothing() {
        let p = PgoProfile::default();
        assert!(p.is_empty());
        assert_eq!(p.successor(0x10), None);
    }

    #[test]
    fn debug_rendering_is_deterministic() {
        // The job key hashes the Debug rendering; insertion order must
        // not leak through.
        let a = PgoProfile::new(BTreeMap::from_iter([(2, 9), (1, 8)]));
        let b = PgoProfile::new(BTreeMap::from_iter([(1, 8), (2, 9)]));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn edge_recorder_counts_and_merges() {
        let mut e = EdgeProfile::new();
        e.note(0x10, 0x40);
        e.note(0x10, 0x40);
        e.note(0x10, 0x14);
        let mut f = EdgeProfile::new();
        f.note(0x10, 0x40);
        f.note(0x50, 0x60);
        e.merge(&f);
        assert_eq!(e.total(), 5);
        let edges: Vec<_> = e.edges().collect();
        assert_eq!(edges, vec![(0x10, 0x14, 1), (0x10, 0x40, 3), (0x50, 0x60, 1)]);
    }

    #[test]
    fn dominant_applies_count_and_share_thresholds() {
        let mut e = EdgeProfile::new();
        for _ in 0..90 {
            e.note(0x10, 0x40); // 90% dominant, plenty of samples
        }
        for _ in 0..10 {
            e.note(0x10, 0x14);
        }
        for _ in 0..60 {
            e.note(0x20, 0x30); // contested: only 60%
        }
        for _ in 0..40 {
            e.note(0x20, 0x24);
        }
        e.note(0x50, 0x60); // dominant but rare
        let d = e.dominant(8, 75);
        assert_eq!(d, BTreeMap::from([(0x10, 0x40)]));
    }

    #[test]
    fn dominant_shares_do_not_overflow() {
        // `c * 100` alone would overflow `u64` for both counts.
        let mut e = EdgeProfile::new();
        e.note_many(0x10, 0x40, u64::MAX / 2);
        e.note_many(0x10, 0x14, u64::MAX / 200);
        assert_eq!(e.dominant(8, 99), BTreeMap::from([(0x10, 0x40)]));
        assert_eq!(e.dominant(8, 100), BTreeMap::new());
    }
}
