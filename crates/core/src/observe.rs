//! Host-side recorders that watch block entries: the PGO edge recorder
//! and per-handler attribution.
//!
//! Both sit behind one `Option` in `Cpu`, so a run with neither pays one
//! test per block entry. Neither changes a simulated counter.
//!
//! **Per-handler attribution** is what Figures 2(b) and 9 need from an
//! interpreter image: how often each bytecode handler was dispatched to,
//! and how many guest instructions ran on its behalf. The guest VM hands
//! the core its handler entry pcs, the *split set*
//! ([`Cpu::enable_handler_profile`](crate::Cpu::enable_handler_profile)).
//! The block builder then ends every block before a split pc, and a
//! superblock never straightens into one, so an arrival at a handler
//! entry always starts a block and every block lies inside one
//! handler's range. Counting at block entries is therefore exact:
//!
//! * each arrival at a handler's entry pc is one dispatch;
//! * the guest instructions retired from one arrival to the next are
//!   credited to the handler arrived at, so a handler's count includes
//!   the dispatch sequence that leaves it;
//! * instructions before the first arrival (the prologue) are credited
//!   to no handler, and those after the last arrival to the last one;
//! * instructions charged by native helpers (`ecall` service) are not
//!   guest instructions and are never credited.
//!
//! These are exactly the counts a per-instruction observer of the
//! stepwise core gives; `crates/bench/tests/op_profile_golden.rs` pins
//! them on all 33 Typed test-scale cells.

use crate::pgo::EdgeProfile;

/// Per-handler attribution counts, indexed like the entry list given to
/// [`Cpu::enable_handler_profile`](crate::Cpu::enable_handler_profile).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HandlerProfile {
    /// Arrivals at each handler's entry pc.
    pub dispatches: Vec<u64>,
    /// Guest instructions retired from each arrival at the handler to
    /// the next arrival at any handler (or to the end of the run).
    pub instructions: Vec<u64>,
}

/// Handler slot of a pc that is not a handler entry.
const NOT_AN_ENTRY: u16 = u16::MAX;

/// The attribution recorder: the split set as a dense table from
/// entry-word index to handler, and the running counts.
#[derive(Debug, Clone)]
pub(crate) struct Attribution {
    /// The lowest entry pc; the table starts at its word.
    base: u64,
    /// Handler index per text word from `base`, or [`NOT_AN_ENTRY`].
    handler: Vec<u16>,
    counts: HandlerProfile,
    /// The handler arrived at last, credited with everything retired
    /// since `mark`.
    current: Option<usize>,
    /// Guest instructions retired at the last arrival.
    mark: u64,
}

impl Attribution {
    /// A recorder for `entries`; handler `i` enters at `entries[i]`. When
    /// two handlers share an entry pc, the later one is credited. A
    /// misaligned entry is never arrived at (the pc would trap).
    ///
    /// # Panics
    ///
    /// If there are `u16::MAX` entries or more.
    pub(crate) fn new(entries: &[u64]) -> Attribution {
        assert!(
            entries.len() < usize::from(NOT_AN_ENTRY),
            "every handler index fits below the sentinel"
        );
        let base = entries.iter().copied().min().unwrap_or(0) & !3;
        let word = |pc: u64| ((pc - base) / 4) as usize;
        let words = entries.iter().map(|&pc| word(pc) + 1).max().unwrap_or(0);
        let mut handler = vec![NOT_AN_ENTRY; words];
        for (i, &pc) in entries.iter().enumerate() {
            if pc.is_multiple_of(4) {
                handler[word(pc)] = i as u16;
            }
        }
        Attribution {
            base,
            handler,
            counts: HandlerProfile {
                dispatches: vec![0; entries.len()],
                instructions: vec![0; entries.len()],
            },
            current: None,
            mark: 0,
        }
    }

    /// The handler entered at `pc`, if `pc` is a split pc.
    #[inline]
    fn handler_at(&self, pc: u64) -> Option<usize> {
        let offset = pc.wrapping_sub(self.base);
        if !offset.is_multiple_of(4) {
            return None;
        }
        let &h = self.handler.get(usize::try_from(offset / 4).ok()?)?;
        (h != NOT_AN_ENTRY).then_some(usize::from(h))
    }

    /// Whether `pc` is in the split set: a block must not hold it past
    /// its first instruction.
    #[inline]
    pub(crate) fn splits_at(&self, pc: u64) -> bool {
        self.handler_at(pc).is_some()
    }

    /// Notes an arrival at `pc` with `retired` guest instructions
    /// retired so far.
    #[inline]
    fn enter(&mut self, pc: u64, retired: u64) {
        let Some(h) = self.handler_at(pc) else { return };
        if let Some(prev) = self.current {
            self.counts.instructions[prev] += retired - self.mark;
        }
        self.counts.dispatches[h] += 1;
        self.current = Some(h);
        self.mark = retired;
    }

    /// The counts with the tail since the last arrival credited, as of
    /// `retired` guest instructions.
    pub(crate) fn settled(&self, retired: u64) -> HandlerProfile {
        let mut counts = self.counts.clone();
        if let Some(prev) = self.current {
            counts.instructions[prev] += retired - self.mark;
        }
        counts
    }
}

/// The recorders attached to one core.
#[derive(Debug, Clone, Default)]
pub(crate) struct Observers {
    /// Block-to-block control edges for PGO profile runs.
    pub(crate) edges: Option<EdgeProfile>,
    /// Per-handler attribution.
    pub(crate) handlers: Option<Attribution>,
}

impl Observers {
    /// Notes the start of a block (or of a stepwise instruction) at
    /// `pc`. `from` is the entry pc of the block that exited into it
    /// through its final branch or jump or a guard side-exit; `retired`
    /// counts guest instructions.
    #[inline]
    pub(crate) fn enter(&mut self, pc: u64, from: Option<u64>, retired: u64) {
        if let (Some(edges), Some(from)) = (self.edges.as_mut(), from) {
            edges.note(from, pc);
        }
        if let Some(handlers) = self.handlers.as_mut() {
            handlers.enter(pc, retired);
        }
    }
}
