//! Snapshot/clone equivalence golden tests for `tarch-fleet`.
//!
//! The fork-server path — construct a guest VM, `freeze_memory()` into a
//! shared copy-on-write base, stamp out clones — is a pure host-side
//! mechanism: a clone resumed from a frozen template must be
//! architecturally indistinguishable from a VM constructed from scratch.
//! These tests diff everything observable (program output, every
//! `PerfCounters` field, branch-predictor statistics) between the two
//! construction paths:
//!
//! * a clone run to completion vs. a fresh VM, for all three engines
//!   (`luart`, `jsrt`, `wasmrt`), both execution engines (stepwise and
//!   basic-block), and all three ISA levels;
//! * a clone driven through many small preemption slices with a
//!   `TypedState` save/restore at every boundary (the fleet scheduler's
//!   switch path) vs. an uninterrupted fresh run;
//! * self-modifying code after cloning: one clone rewriting its own text
//!   must trigger a private page copy and decode-cache invalidation
//!   without perturbing sibling clones or the frozen template.

use tarch_bench::workloads::{self, Scale};
use tarch_core::{BranchStats, CoreConfig, IsaLevel, PerfCounters, TypedState};
use tarch_fleet::{build_guest, Guest, Template};
use tarch_isa::Instruction;
use tarch_runner::EngineKind;

const VM_STEPS: u64 = 2_000_000_000;
/// Deliberately small and odd-sized so slice boundaries land mid-block.
const SLICE_STEPS: u64 = 777;

/// The execution engines: one-instruction-at-a-time stepping, and the
/// paper configuration, whose block engine compiles every block when it
/// builds it.
fn cores() -> [(&'static str, CoreConfig); 2] {
    [
        ("stepwise", CoreConfig { blocks: false, ..CoreConfig::paper() }),
        ("compiled", CoreConfig::paper()),
    ]
}

/// Everything architecturally observable after a run.
#[derive(Debug, PartialEq)]
struct Observed {
    output: String,
    counters: PerfCounters,
    branch: BranchStats,
}

fn observe(guest: &Guest) -> Observed {
    Observed {
        output: guest.output(),
        counters: *guest.cpu().counters(),
        branch: guest.cpu().branch_stats(),
    }
}

fn run_to_halt(guest: &mut Guest, tag: &str) -> Observed {
    guest.run_slice(VM_STEPS).unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert!(guest.is_halted(), "{tag}: did not halt within {VM_STEPS} steps");
    observe(guest)
}

/// Fresh-VM reference: full construction, uninterrupted run.
fn fresh_reference(
    engine: EngineKind,
    src: &str,
    level: IsaLevel,
    core: CoreConfig,
    tag: &str,
) -> Observed {
    let mut fresh = build_guest(engine, src, level, core).unwrap_or_else(|e| panic!("{tag}: {e}"));
    run_to_halt(&mut fresh, tag)
}

#[test]
fn clone_from_snapshot_is_bit_identical_to_fresh_vm() {
    let w = workloads::by_name("fibo").expect("known workload");
    let src = w.source(Scale::Test);
    for engine in EngineKind::ALL {
        for level in IsaLevel::ALL {
            for (core_name, core) in cores() {
                let tag = format!("fibo: {engine:?} {level} [{core_name}]");
                let reference = fresh_reference(engine, &src, level, core.clone(), &tag);
                let template = Template::build(engine, &src, level, core)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                let mut clone = template.spawn(0);
                let observed = run_to_halt(&mut clone, &tag);
                assert_eq!(observed, reference, "{tag}: clone diverged from fresh VM");
            }
        }
    }
}

#[test]
fn preempted_clone_matches_uninterrupted_fresh_run() {
    // Drive a clone exactly the way the fleet scheduler does — short
    // slices with a TypedState save/restore at every boundary (but no
    // context-switch charge, so the cycle counts stay comparable) — and
    // demand bit-identical counters against one uninterrupted fresh run.
    let w = workloads::by_name("fibo").expect("known workload");
    let src = w.source(Scale::Test);
    for engine in EngineKind::ALL {
        for (core_name, core) in cores() {
            let tag = format!("fibo: {engine:?} sliced [{core_name}]");
            let reference = fresh_reference(engine, &src, IsaLevel::Typed, core.clone(), &tag);
            let template = Template::build(engine, &src, IsaLevel::Typed, core)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            let mut clone = template.spawn(0);
            let mut slices = 0u64;
            while !clone.is_halted() {
                let typed = TypedState::save(clone.cpu());
                typed.restore(clone.cpu_mut());
                clone.run_slice(SLICE_STEPS).unwrap_or_else(|e| panic!("{tag}: {e}"));
                slices += 1;
                assert!(slices * SLICE_STEPS <= VM_STEPS, "{tag}: runaway slice loop");
            }
            assert!(slices > 2, "{tag}: workload too small to exercise preemption");
            let observed = observe(&clone);
            assert_eq!(observed, reference, "{tag}: sliced clone diverged");
        }
    }
}

#[test]
fn mid_run_clone_of_tiered_guest_shares_warm_compiled_cache() {
    // A mid-run fork of a guest: run until blocks are compiled, freeze,
    // clone, and let parent and clone finish independently. The clone
    // must start with the parent's compiled cache already warm (the
    // closures are shared, not rebuilt), stay architecturally isolated
    // from the parent (COW), and both must match an uninterrupted fresh
    // run bit-for-bit.
    let w = workloads::by_name("fibo").expect("known workload");
    let src = w.source(Scale::Test);
    let core = CoreConfig::paper();
    for engine in EngineKind::ALL {
        let tag = format!("fibo: {engine:?} mid-run clone [compiled]");
        let reference = fresh_reference(engine, &src, IsaLevel::Typed, core.clone(), &tag);
        let mut parent = build_guest(engine, &src, IsaLevel::Typed, core.clone())
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        let mut slices = 0u64;
        while parent.cpu().compiled_blocks() == 0 {
            assert!(!parent.is_halted(), "{tag}: halted before any block compiled");
            parent.run_slice(SLICE_STEPS).unwrap_or_else(|e| panic!("{tag}: {e}"));
            slices += 1;
            assert!(slices * SLICE_STEPS <= VM_STEPS, "{tag}: runaway warm-up loop");
        }
        let warm = parent.cpu().compiled_blocks();
        // Freeze at the slice boundary (architecturally invisible) so
        // the fork shares pages copy-on-write, exactly like a template.
        parent.cpu_mut().freeze_memory();
        let mut clone = parent.clone();
        assert_eq!(
            clone.cpu().compiled_blocks(),
            warm,
            "{tag}: clone must inherit the warm compiled cache"
        );
        let from_clone = run_to_halt(&mut clone, &tag);
        let from_parent = run_to_halt(&mut parent, &tag);
        assert_eq!(from_parent, reference, "{tag}: parent diverged after the fork");
        assert_eq!(from_clone, reference, "{tag}: clone diverged from fresh VM");
    }
}

#[test]
fn self_modifying_clone_does_not_leak_into_siblings() {
    // One tenant scribbling over its own text segment must copy the
    // affected frozen page privately and invalidate only its own decode
    // caches. Siblings spawned before *and* after the write — and a
    // fresh VM — must all agree bit-for-bit.
    let w = workloads::by_name("fibo").expect("known workload");
    let src = w.source(Scale::Test);
    let halt = u64::from(Instruction::Halt.encode().expect("halt encodes"));
    for engine in EngineKind::ALL {
        for (core_name, core) in cores() {
            let tag = format!("fibo: {engine:?} smc [{core_name}]");
            let reference = fresh_reference(engine, &src, IsaLevel::Typed, core.clone(), &tag);
            let template = Template::build(engine, &src, IsaLevel::Typed, core)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));

            let mut before = template.spawn(0);
            let mut vandal = template.spawn(1);

            // Overwrite the two instructions at the entry point with
            // `halt; halt` through the precise host-store path: COWs the
            // text page and invalidates the vandal's blocks.
            let entry = vandal.cpu().pc();
            vandal.cpu_mut().host_store_u64(entry, halt | (halt << 32));
            let vandalized = run_to_halt(&mut vandal, &tag);
            assert_eq!(vandalized.output, "", "{tag}: patched clone still ran the program");
            assert!(
                vandalized.counters.instructions < 4,
                "{tag}: patched clone retired {} instructions past its halt",
                vandalized.counters.instructions
            );

            // A sibling spawned before the write and one spawned after
            // must both still see the frozen, unmodified text.
            let mut after = template.spawn(2);
            let seen_before = run_to_halt(&mut before, &tag);
            let seen_after = run_to_halt(&mut after, &tag);
            assert_eq!(seen_before, reference, "{tag}: pre-write sibling diverged");
            assert_eq!(seen_after, reference, "{tag}: post-write sibling diverged");
        }
    }
}
