//! Spans recorded around the benchmark's calls into each layer.
//!
//! Nothing here reaches inside the program: a span brackets one call to
//! a public function of a workspace crate. Each span records its name,
//! start, end, parent span and op id. Spans stay in per-thread memory
//! until the thread calls [`flush`], and are analysed when the run ends.
//! With tracing off, [`span`] is one relaxed load and a direct call.

use crate::report::Report;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static BATCHES: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

/// One timed call. `parent` indexes the same thread batch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a new op on this thread: every span it opens from now on
/// carries a fresh op id.
pub fn new_op() {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    if enabled() {
        let op = NEXT.fetch_add(1, Ordering::Relaxed);
        LOCAL.with(|l| l.borrow_mut().op = op);
    }
}

/// Runs `f` inside a span named `name` (a plain call when tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let idx = l.spans.len();
        let parent = l.open.last().copied();
        let op = l.op;
        l.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
        });
        l.open.push(idx);
        idx
    });
    let start = now_ns();
    let r = f();
    let end = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.open.pop();
        let s = &mut l.spans[idx];
        s.start_ns = start;
        s.end_ns = end;
    });
    r
}

/// Hands this thread's finished spans to the run-wide store.
pub fn flush() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if !spans.is_empty() {
        BATCHES
            .lock()
            .expect("span store poisoned by a panicking thread")
            .push(spans);
    }
}

/// Per-name durations and self times (duration minus child spans), in ns.
#[derive(Debug, Default)]
pub struct Summary {
    pub total: BTreeMap<&'static str, Vec<u64>>,
    pub own: BTreeMap<&'static str, Vec<u64>>,
    pub spans: usize,
    /// Distinct op ids the spans carry.
    pub ops: usize,
}

impl Summary {
    /// Drains every flushed span into a summary.
    pub fn take() -> Summary {
        let batches = std::mem::take(
            &mut *BATCHES
                .lock()
                .expect("span store poisoned by a panicking thread"),
        );
        let mut s = Summary::default();
        let mut ops = std::collections::BTreeSet::new();
        for batch in batches {
            ops.extend(batch.iter().map(|sp| sp.op));
            let mut child_ns = vec![0u64; batch.len()];
            for sp in &batch {
                if let Some(p) = sp.parent {
                    child_ns[p] += sp.end_ns - sp.start_ns;
                }
            }
            for (i, sp) in batch.iter().enumerate() {
                let d = sp.end_ns - sp.start_ns;
                s.total.entry(sp.name).or_default().push(d);
                s.own
                    .entry(sp.name)
                    .or_default()
                    .push(d.saturating_sub(child_ns[i]));
            }
            s.spans += batch.len();
        }
        s.ops = ops.len();
        s
    }

    pub fn count(&self, name: &str) -> usize {
        self.total.get(name).map_or(0, Vec::len)
    }

    /// Median duration of `name`, in ns (0 when the layer was not called).
    pub fn median_ns(&self, name: &str) -> f64 {
        self.total
            .get(name)
            .map_or(0.0, |v| crate::stats::median_u64(v))
    }

    /// Median self time of `name`, in ns.
    pub fn median_own_ns(&self, name: &str) -> f64 {
        self.own
            .get(name)
            .map_or(0.0, |v| crate::stats::median_u64(v))
    }

    pub fn sum_ns(&self, name: &str) -> u64 {
        self.total.get(name).map_or(0, |v| v.iter().sum())
    }

    pub fn sum_own_ns(&self, name: &str) -> u64 {
        self.own.get(name).map_or(0, |v| v.iter().sum())
    }

    /// Every per-layer metric that comes from spans; a layer the
    /// workload never called reads 0. `op.*` spans bracket whole ops, so
    /// their self time is the part of op time no layer span covers.
    pub fn report_layers(&self, r: &mut Report) {
        let us = |name: &str| self.median_ns(name) / 1e3;
        let ms = |name: &str| self.median_ns(name) / 1e6;
        r.put("miniscript.parse_us", us("miniscript.parse"), "us");
        for e in ["luart", "jsrt", "wasmrt"] {
            r.put(
                &format!("{e}.compile_us"),
                us(&format!("{e}.compile")),
                "us",
            );
            r.put(&format!("{e}.vm_new_us"), us(&format!("{e}.vm_new")), "us");
        }
        r.put("core.run_ms", self.median_own_ns("core.run") / 1e6, "ms");
        r.put("core.observed_run_ms", ms("core.observed_run"), "ms");
        r.put("fleet.template_build_ms", ms("fleet.template_build"), "ms");
        r.put("fleet.clone_us", us("fleet.clone"), "us");
        r.put("fleet.slices", self.count("fleet.slice") as f64, "count");
        r.put("fleet.slice_us", us("fleet.slice"), "us");
        let switches = self.count("fleet.ctxsw_restore").max(1) as f64;
        let ctxsw_ns = self.sum_ns("fleet.ctxsw_save") + self.sum_ns("fleet.ctxsw_restore");
        r.put("fleet.ctxsw_us", ctxsw_ns as f64 / switches / 1e3, "us");
        r.put("runner.key_us", us("runner.key"), "us");
        r.put("runner.cache_store_us", us("runner.cache_store"), "us");
        r.put(
            "runner.artifact_write_ms",
            ms("runner.artifact_write"),
            "ms",
        );
        r.put("bench.assemble_ms", ms("bench.assemble"), "ms");
        r.put("bench.render_ms", ms("bench.render"), "ms");
        let ops = ["op.cell", "op.script", "op.shard", "op.report"];
        let op_ns: u64 = ops.iter().map(|n| self.sum_ns(n)).sum();
        let uncovered: u64 = ops.iter().map(|n| self.sum_own_ns(n)).sum();
        let run_ns: u64 = ["core.run", "core.observed_run", "fleet.slice"]
            .iter()
            .map(|n| self.sum_own_ns(n))
            .sum();
        let share = |x: u64| {
            if op_ns == 0 {
                0.0
            } else {
                x as f64 / op_ns as f64
            }
        };
        r.put("core.run_share", share(run_ns), "fraction");
        r.put("trace.uncovered_share", share(uncovered), "fraction");
        r.put("trace.spans", self.spans as f64, "count");
        r.note(format!("{} spans over {} op ids", self.spans, self.ops));
    }
}
