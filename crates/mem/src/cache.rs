//! Set-associative cache timing model.
//!
//! Models hit/miss behaviour and write-back traffic of the paper's L1
//! caches (Table 6: 16 KB, 4-way, 64 B blocks, LRU, 1-cycle hit). The cache
//! carries no data — the simulator is functional-first — only tags and
//! replacement state, which is what determines the measured miss rates.

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// The paper's L1 configuration: 16 KB, 4-way, 64 B lines.
    pub fn paper_l1() -> CacheConfig {
        CacheConfig { size_bytes: 16 * 1024, ways: 4, line_bytes: 64 }
    }

    /// Number of sets.
    ///
    /// Computed with shifts; [`Cache::new`] asserts the power-of-two
    /// geometry this relies on.
    pub fn sets(&self) -> u64 {
        self.size_bytes >> (self.ways.trailing_zeros() + self.line_bytes.trailing_zeros())
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Line-aligned address of a dirty line written back on a miss fill.
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    last_use: u64,
}

/// Running hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty-line writebacks.
    pub writebacks: u64,
}

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement.
///
/// # Examples
///
/// ```
/// use tarch_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::paper_l1());
/// assert!(!c.access(0x1000, false).hit); // cold miss
/// assert!(c.access(0x1000, false).hit);  // now resident
/// assert!(c.access(0x1038, false).hit);  // same 64-byte line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    set_shift: u32,
    set_mask: u64,
    tag_shift: u32,
    fast_path: bool,
    // MRU memo: the line address (addr >> set_shift) and line-array index
    // of the most recently touched line. `MRU_NONE` when unset. The index
    // is re-validated against the stored line on every use, so a stale
    // memo (the line was evicted since) degrades to the scan path instead
    // of producing a false hit.
    mru_line: u64,
    mru_idx: usize,
}

/// Sentinel for "no MRU memo": no real line address reaches this value
/// (line addresses are `addr >> set_shift` with `set_shift >= 1`).
const MRU_NONE: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache with the MRU fast path enabled.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not power-of-two sized.
    pub fn new(config: CacheConfig) -> Cache {
        Cache::with_fast_path(config, true)
    }

    /// Creates an empty cache, choosing whether repeated same-line
    /// accesses take the memoized MRU path or always scan the set. Both
    /// paths produce bit-identical hit/miss/LRU/statistics behaviour; the
    /// toggle exists so equivalence tests can diff them.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not power-of-two sized.
    pub fn with_fast_path(config: CacheConfig, fast_path: bool) -> Cache {
        assert!(
            config.line_bytes.is_power_of_two(),
            "cache line size must be a power of two, got {} bytes",
            config.line_bytes
        );
        assert!(
            config.ways.is_power_of_two(),
            "cache associativity must be a power of two, got {} ways",
            config.ways
        );
        let sets = config.sets();
        assert!(
            sets.is_power_of_two() && sets > 0,
            "cache set count must be a nonzero power of two, got {sets} \
             ({} bytes / {} ways / {} bytes per line)",
            config.size_bytes,
            config.ways,
            config.line_bytes
        );
        let set_shift = config.line_bytes.trailing_zeros();
        Cache {
            config,
            lines: vec![Line::default(); (sets * config.ways as u64) as usize],
            stats: CacheStats::default(),
            tick: 0,
            set_shift,
            set_mask: sets - 1,
            tag_shift: set_shift + sets.trailing_zeros(),
            fast_path,
            mru_line: MRU_NONE,
            mru_idx: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidates all lines (keeps statistics).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            *line = Line::default();
        }
        self.mru_line = MRU_NONE;
    }

    #[inline]
    fn set_range(&self, addr: u64) -> (usize, u64) {
        let set = ((addr >> self.set_shift) & self.set_mask) as usize;
        let tag = addr >> self.tag_shift;
        (set * self.config.ways as usize, tag)
    }

    /// Performs one access; allocates on miss and reports any dirty
    /// eviction.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        // MRU fast path: a repeat access to the most recently touched
        // line (sequential fetch hits the same 64 B line 16 times) skips
        // the way scan. The line address encodes both set and tag, and
        // the stored line is checked to still hold that tag, so the memo
        // can never claim a hit the scan would miss — the state updates
        // below are exactly the scan path's hit updates.
        if self.fast_path && addr >> self.set_shift == self.mru_line {
            let line = &mut self.lines[self.mru_idx];
            if line.valid && line.tag == addr >> self.tag_shift {
                self.tick += 1;
                self.stats.accesses += 1;
                line.last_use = self.tick;
                line.dirty |= is_write;
                return CacheAccess { hit: true, writeback: None };
            }
        }

        self.tick += 1;
        self.stats.accesses += 1;
        let (base, tag) = self.set_range(addr);
        let ways = self.config.ways as usize;

        for i in base..base + ways {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                line.last_use = self.tick;
                line.dirty |= is_write;
                self.mru_line = addr >> self.set_shift;
                self.mru_idx = i;
                return CacheAccess { hit: true, writeback: None };
            }
        }

        self.stats.misses += 1;
        // Choose an invalid way, else the least recently used.
        let victim = (base..base + ways)
            .min_by_key(|&i| {
                let l = &self.lines[i];
                if l.valid { (1, l.last_use) } else { (0, 0) }
            })
            .expect("cache has at least one way");
        let line = &mut self.lines[victim];
        let writeback = if line.valid && line.dirty {
            self.stats.writebacks += 1;
            // Reconstruct the evicted line's address.
            let set = (victim / ways) as u64;
            Some((line.tag << self.tag_shift) | (set << self.set_shift))
        } else {
            None
        };
        *line = Line { valid: true, dirty: is_write, tag, last_use: self.tick };
        self.mru_line = addr >> self.set_shift;
        self.mru_idx = victim;
        CacheAccess { hit: false, writeback }
    }

    /// Applies `count` repeat read hits to the line containing `addr` in
    /// one batch: bit-identical to calling [`Cache::access`]`(addr,
    /// false)` `count` times, *given the caller's guarantee* that `addr`'s
    /// line was the most recent access and nothing touched the cache
    /// since. Each such access would hit and refresh the same line's
    /// recency, so one batched tick/statistics/`last_use` update lands on
    /// exactly the same state. Used by the block execution engine to
    /// charge straight-line fetch runs within one cache line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (the caller's contract was
    /// violated).
    pub fn repeat_hits(&mut self, addr: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.tick += count;
        self.stats.accesses += count;
        let line_addr = addr >> self.set_shift;
        let tag = addr >> self.tag_shift;
        let idx = if self.fast_path
            && line_addr == self.mru_line
            && self.lines[self.mru_idx].valid
            && self.lines[self.mru_idx].tag == tag
        {
            self.mru_idx
        } else {
            let (base, tag) = self.set_range(addr);
            (base..base + self.config.ways as usize)
                .find(|&i| self.lines[i].valid && self.lines[i].tag == tag)
                .expect("repeat_hits caller guarantees the line is resident")
        };
        self.lines[idx].last_use = self.tick;
        if self.fast_path {
            self.mru_line = line_addr;
            self.mru_idx = idx;
        }
    }

    /// Number of currently valid lines (structure occupancy; sampled by
    /// the trace layer's windowed metric snapshots).
    pub fn occupancy(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid).count() as u64
    }

    /// Whether the line containing `addr` is currently resident (no state
    /// change; used by tests).
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.set_range(addr);
        self.lines[base..base + self.config.ways as usize]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tarch_testkit::Rng;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64 })
    }

    #[test]
    fn hit_after_fill_and_line_granularity() {
        let mut c = small();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13f, false).hit); // same line
        assert!(!c.access(0x140, false).hit); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = sets*line = 256).
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // touch A again → B is LRU
        c.access(0x200, false); // evicts B
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn dirty_writeback_reports_evicted_address() {
        let mut c = small();
        c.access(0x000, true); // dirty A
        c.access(0x100, false);
        let res = c.access(0x200, false); // evicts dirty A
        assert_eq!(res.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x100, false);
        assert_eq!(c.access(0x200, false).writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x000, true); // dirty via hit
        c.access(0x100, false);
        let res = c.access(0x200, false);
        assert_eq!(res.writeback, Some(0x000));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.access(0x40, false);
        c.flush();
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40, false).hit);
    }

    #[test]
    fn paper_l1_geometry() {
        let cfg = CacheConfig::paper_l1();
        assert_eq!(cfg.sets(), 64);
        let mut c = Cache::new(cfg);
        // 64 sets * 64B stride: addresses 64KB apart share a set.
        c.access(0, false);
        for i in 1..=4u64 {
            c.access(i * 16 * 1024, false);
        }
        assert!(!c.probe(0), "5 conflicting lines must evict the first");
    }

    /// Reference model: per-set LRU list of tags.
    #[derive(Default)]
    struct RefCache {
        sets: HashMap<u64, Vec<u64>>,
    }

    impl RefCache {
        fn access(&mut self, addr: u64, sets: u64, ways: usize, line: u64) -> bool {
            let line_addr = addr / line;
            let set = line_addr % sets;
            let tag = line_addr / sets;
            let list = self.sets.entry(set).or_default();
            if let Some(pos) = list.iter().position(|t| *t == tag) {
                list.remove(pos);
                list.push(tag);
                true
            } else {
                if list.len() == ways {
                    list.remove(0);
                }
                list.push(tag);
                false
            }
        }
    }

    /// `repeat_hits(addr, n)` must leave the cache in exactly the state
    /// of `n` single read hits — including subsequent LRU decisions.
    #[test]
    fn repeat_hits_equals_n_single_accesses() {
        for fast in [false, true] {
            let cfg = CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64 };
            let mut batched = Cache::with_fast_path(cfg, fast);
            let mut single = Cache::with_fast_path(cfg, fast);
            for c in [&mut batched, &mut single] {
                c.access(0x000, false);
                c.access(0x100, true); // dirty, same set
            }
            batched.repeat_hits(0x120, 5);
            for _ in 0..5 {
                single.access(0x120, false);
            }
            assert_eq!(batched.stats(), single.stats());
            // 0x000 must now be LRU in both: the next conflicting fill
            // evicts it, not the batched-hit line.
            assert_eq!(
                batched.access(0x200, false),
                single.access(0x200, false),
                "fast_path={fast}"
            );
            assert!(!batched.probe(0x000));
            assert!(batched.probe(0x100), "batched hits must have refreshed recency");
        }
    }

    #[test]
    fn randomized_matches_reference_lru() {
        let mut rng = Rng::new(0xcac4e);
        for _ in 0..128 {
            let mut c = small();
            let mut r = RefCache::default();
            for _ in 0..rng.range_usize(1, 200) {
                let addr = rng.range_u64(0, 4096);
                let got = c.access(addr, false).hit;
                let want = r.access(addr, 4, 2, 64);
                assert_eq!(got, want, "divergence at {addr:#x}");
            }
        }
    }

    #[test]
    fn randomized_stats_consistent() {
        let mut rng = Rng::new(0xcac4f);
        for _ in 0..128 {
            let mut c = small();
            let n = rng.range_usize(1, 100);
            let mut misses = 0;
            for _ in 0..n {
                if !c.access(rng.range_u64(0, 8192), false).hit {
                    misses += 1;
                }
            }
            assert_eq!(c.stats().accesses, n as u64);
            assert_eq!(c.stats().misses, misses);
        }
    }
}
