//! Bounded, overwrite-oldest ring of structured trace events.

/// One microarchitectural event, stamped with the simulated cycle at
/// which it occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle count when the event fired.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The event vocabulary of the simulator's interesting edges: decode
/// cache churn, memory-system misses, Type Rule Table traffic, and
/// control transfers out of the guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The block engine built (or rebuilt) a basic block at `pc`.
    BlockBuild {
        /// Guest entry pc of the block.
        pc: u64,
        /// Number of (possibly fused) operations in the block.
        len: u32,
    },
    /// The tier engine template-compiled the hot block at `pc` into a
    /// host-side closure.
    BlockCompile {
        /// Guest entry pc of the block.
        pc: u64,
        /// Instructions the compiled block retires when run in full.
        len: u32,
    },
    /// A compiled block observed an invalidation mid-run and deopted to
    /// the interpreter backend at an instruction boundary.
    BlockDeopt {
        /// Guest entry pc of the deopted block.
        pc: u64,
    },
    /// A guest store, or a precise host store, overlapped the text range
    /// and dropped every cached block.
    CodeInvalidate {
        /// First guest address of the invalidating store.
        addr: u64,
    },
    /// Instruction-cache miss at the given fetch pc.
    ICacheMiss {
        /// Guest pc being fetched.
        pc: u64,
    },
    /// Data-cache miss: `pc` is the attributed guest pc (block-entry
    /// granularity under the block engine), `addr` the data address.
    DCacheMiss {
        /// Attributed guest pc.
        pc: u64,
        /// Faulting data address.
        addr: u64,
    },
    /// Instruction-TLB miss at the given fetch pc.
    ITlbMiss {
        /// Guest pc being fetched.
        pc: u64,
    },
    /// Data-TLB miss, attributed like [`TraceEventKind::DCacheMiss`].
    DTlbMiss {
        /// Attributed guest pc.
        pc: u64,
        /// Faulting data address.
        addr: u64,
    },
    /// A rule was pushed into the Type Rule Table.
    TrtFill {
        /// Table occupancy after the push.
        len: u32,
    },
    /// The Type Rule Table was flushed.
    TrtFlush,
    /// The guest trapped out of the run loop.
    Trap {
        /// Static trap mnemonic (e.g. `"TypeMiss"`).
        cause: &'static str,
        /// Guest pc at the trap.
        pc: u64,
    },
    /// An `ecall` into the VM runtime.
    Ecall {
        /// Helper number in `a7`.
        n: u64,
    },
}

impl TraceEventKind {
    /// Short static name, used as the Chrome-trace event name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::BlockBuild { .. } => "block_build",
            TraceEventKind::BlockCompile { .. } => "block_compile",
            TraceEventKind::BlockDeopt { .. } => "block_deopt",
            TraceEventKind::CodeInvalidate { .. } => "code_invalidate",
            TraceEventKind::ICacheMiss { .. } => "icache_miss",
            TraceEventKind::DCacheMiss { .. } => "dcache_miss",
            TraceEventKind::ITlbMiss { .. } => "itlb_miss",
            TraceEventKind::DTlbMiss { .. } => "dtlb_miss",
            TraceEventKind::TrtFill { .. } => "trt_fill",
            TraceEventKind::TrtFlush => "trt_flush",
            TraceEventKind::Trap { .. } => "trap",
            TraceEventKind::Ecall { .. } => "ecall",
        }
    }
}

/// Fixed-capacity event buffer that overwrites its oldest entry when
/// full. The total number of events ever pushed is tracked separately,
/// so [`EventRing::dropped`] reports exactly how much history was lost
/// to overwriting — totals survive overflow even though payloads don't.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    total: u64,
}

impl EventRing {
    /// Creates an empty ring holding at most `capacity` events
    /// (`capacity == 0` is clamped to 1 so `push` stays total).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing { buf: Vec::new(), capacity, head: 0, total: 0 }
    }

    /// Records an event, overwriting the oldest if the ring is full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of events retained at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of events ever pushed, including overwritten ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of events lost to overwriting: `total() - len()`.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Iterates the retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, start) = self.buf.split_at(self.head);
        start.iter().chain(wrapped.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent { cycle, kind: TraceEventKind::TrtFlush }
    }

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut r = EventRing::new(4);
        assert!(r.is_empty());
        for c in 0..4 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [0, 1, 2, 3]);

        // Two more pushes overwrite cycles 0 and 1; order stays
        // chronological and the drop count is exact.
        r.push(ev(4));
        r.push(ev(5));
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 6);
        assert_eq!(r.dropped(), 2);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [2, 3, 4, 5]);
    }

    #[test]
    fn wraps_many_times_without_losing_count() {
        let mut r = EventRing::new(3);
        for c in 0..1000 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total(), 1000);
        assert_eq!(r.dropped(), 997);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [997, 998, 999]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = EventRing::new(0);
        r.push(ev(7));
        r.push(ev(8));
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().cycle, 8);
        assert_eq!(r.dropped(), 1);
    }
}
