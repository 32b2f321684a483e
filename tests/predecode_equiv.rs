//! Counter-equivalence golden tests for the host-side fast paths.
//!
//! The basic-block engine (compiled blocks, with or without macro-op
//! fusion), the MRU cache/TLB memos, and the tarch-trace observability
//! layer are
//! pure host-side mechanisms: the architectural model — every
//! `PerfCounters` field, the branch-predictor statistics, the final
//! register state, program output — must be bit-identical with any
//! combination of them enabled or disabled. These tests run the *same*
//! program under each fast-path configuration and diff everything
//! observable against the fully-naive reference (decode every fetch,
//! step one instruction at a time, scan every cache way and TLB entry):
//!
//! * every `tarch_isa::samples::all_forms()` instruction, executed as a
//!   tiny standalone program (covering every format's fetch/execute path,
//!   including ones that trap or run into a bounded loop), once as its
//!   block's first instruction and once behind a leading no-op, in one
//!   run and in budget slices of 1–3 instructions (budget-clipped block
//!   tails);
//! * real Lua, JS and WASM workloads through the full simulated engines,
//!   at all three ISA levels, and every workload at the Typed level with
//!   its text rewritten between preemption slices (the block table's
//!   invalidation path).

use std::collections::BTreeMap;
use tarch_bench::workloads::{self, Scale};
use tarch_core::{BranchStats, CoreConfig, Cpu, IsaLevel, PerfCounters, StepEvent, Trap};
use tarch_fleet::build_guest;
use tarch_isa::asm::Program;
use tarch_isa::{samples, AluImmOp, Instruction, Reg};
use tarch_runner::EngineKind;

const TEXT_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x2_0000;
const FORM_STEPS: u64 = 200;
const VM_STEPS: u64 = 2_000_000_000;
/// `addi zero, zero, 0`: the ALU-class no-op that leads each form in the
/// sweep's second program shape.
const NOP: Instruction =
    Instruction::AluImm { op: AluImmOp::Addi, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 };

/// One named fast-path configuration under test.
#[derive(Debug, Clone, Copy)]
struct Variant {
    name: &'static str,
    blocks: bool,
    mem_fast_paths: bool,
    /// Macro-op fusion at block-build time (only meaningful with `blocks`).
    fuse: bool,
    /// The tarch-trace observability layer (sampler + event ring +
    /// metric windows); purely host-side, so it must not perturb any
    /// architectural counter either.
    trace: bool,
}

impl Variant {
    const fn bare(name: &'static str, blocks: bool, mem: bool) -> Variant {
        Variant { name, blocks, mem_fast_paths: mem, fuse: false, trace: false }
    }
}

/// The fully-naive reference: every host-side fast path off.
const REFERENCE: Variant = Variant::bare("naive", false, false);

/// Each fast path alone, compiled blocks with and without fusion,
/// everything together (the shipping default), and the observability
/// layer on both the stepwise and the fully-optimised hot loop.
const VARIANTS: [Variant; 6] = [
    Variant::bare("blocks", true, false),
    Variant::bare("mru", false, true),
    Variant { fuse: true, ..Variant::bare("blocks+fuse", true, false) },
    Variant { fuse: true, ..Variant::bare("all", true, true) },
    Variant { trace: true, ..Variant::bare("naive+trace", false, false) },
    Variant { fuse: true, trace: true, ..Variant::bare("all+trace", true, true) },
];

fn config(v: Variant) -> CoreConfig {
    CoreConfig {
        blocks: v.blocks,
        mem_fast_paths: v.mem_fast_paths,
        fuse: v.fuse,
        // Dense sampling, short windows and a tiny ring, so a traced run
        // exercises every tracer path (including overflow) while the
        // architectural state must stay bit-identical.
        trace: v.trace.then_some(tarch_core::TraceConfig {
            sample_period: 1_000,
            window_cycles: 50_000,
            ring_capacity: 64,
        }),
        ..CoreConfig::paper()
    }
}

/// Everything architecturally observable after a bounded run.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<StepEvent, Trap>,
    counters: PerfCounters,
    branch: BranchStats,
    regs: Vec<u64>,
    pc: u64,
}

/// Runs `body` followed by `halt` as a standalone program with every
/// integer register holding `addr`, an address in writable data, bounded
/// by `FORM_STEPS` (branch forms can loop through zeroed memory; typed
/// forms can redirect to a null handler — both are fine as long as all
/// runs agree). The budget is handed to `Cpu::run` in slices of `slice`
/// instructions, the last one cut to what is left, until the run stops
/// or traps.
fn run_form(body: &[Instruction], variant: Variant, slice: u64, addr: u64) -> Observed {
    let program = Program {
        text_base: TEXT_BASE,
        text: body
            .iter()
            .chain([&Instruction::Halt])
            .map(|i| i.encode().expect("sample form encodes"))
            .collect(),
        data_base: DATA_BASE,
        data: (0..=255u8).collect(),
        entry: TEXT_BASE,
        symbols: BTreeMap::new(),
    };
    let mut cpu = Cpu::new(config(variant));
    cpu.load_program(&program);
    for n in 1..32 {
        let r = Reg::new(n).expect("valid register");
        cpu.regs_mut().write_untyped(r, addr);
    }
    // `run` returns `Retired` only once it has spent its whole budget.
    let mut outcome = Ok(StepEvent::Retired);
    let mut left = FORM_STEPS;
    while left > 0 && outcome == Ok(StepEvent::Retired) {
        let budget = slice.min(left);
        outcome = cpu.run(budget);
        left -= budget;
    }
    Observed {
        outcome,
        counters: *cpu.counters(),
        branch: cpu.branch_stats(),
        regs: (0..32).map(|n| cpu.regs().read(Reg::new(n).unwrap()).v).collect(),
        pc: cpu.pc(),
    }
}

/// Each form runs in two programs: `[instr, halt]`, where it is its
/// block's first op, and `[NOP, instr, halt]`, where it runs after one
/// instruction and one fetch hit the block has batched. In the second
/// shape an ALU-class form runs as the second component of an alu+alu
/// pair, a `jal` as that of an alu+`jal` pair, and any other form as a
/// single op whose exits must settle the batched counts. Each program
/// runs once with the whole budget, then in budget slices of 1, 2 and 3
/// instructions: a block wider than its slice runs its clipped tail on
/// the stepwise core. The registers hold an aligned address, and then a
/// misaligned one, on which every wider-than-byte load and store traps —
/// inside the one-instruction tail of its block when the slice is 1.
/// Every variant must match the naive reference under the same slicing.
#[test]
fn every_sample_form_is_counter_identical() {
    for instr in samples::all_forms() {
        for body in [&[instr][..], &[NOP, instr]] {
            for (slice, addr) in [FORM_STEPS, 1, 2, 3]
                .into_iter()
                .flat_map(|slice| [(slice, DATA_BASE + 64), (slice, DATA_BASE + 65)])
            {
                let reference = run_form(body, REFERENCE, slice, addr);
                for variant in VARIANTS {
                    let observed = run_form(body, variant, slice, addr);
                    assert_eq!(
                        observed,
                        reference,
                        "`{}` diverged from naive reference for `{instr}` after {} \
                         leading no-op(s) in slices of {slice} with registers at {addr:#x}",
                        variant.name,
                        body.len() - 1
                    );
                }
            }
        }
    }
}

fn check_vm_equivalence(workload: &str) {
    let w = workloads::by_name(workload).expect("known workload");
    let src = w.source(Scale::Test);

    for engine in EngineKind::ALL {
        for level in tarch_core::IsaLevel::ALL {
            let run = |variant: Variant| {
                let tag = format!("{workload} {} {level} [{}]", engine.id(), variant.name);
                let mut guest = build_guest(engine, &src, level, config(variant))
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                guest.run(VM_STEPS).unwrap_or_else(|e| panic!("{tag}: {e}"))
            };
            let reference = run(REFERENCE);
            for variant in VARIANTS {
                let observed = run(variant);
                let tag = format!("{workload}: {} {level} [{}]", engine.id(), variant.name);
                assert_eq!(observed.output, reference.output, "{tag} output diverged");
                assert_eq!(observed.counters, reference.counters, "{tag} counters diverged");
                assert_eq!(observed.branch, reference.branch, "{tag} branch stats diverged");
            }
        }
    }
}

#[test]
fn lua_js_and_wasm_workload_counters_identical() {
    check_vm_equivalence("fibo");
}

/// Distills a real [`PgoProfile`] out of a finished profile run's edge
/// recorder — the same shape the runner's artifact pipeline produces,
/// with thresholds low enough that test-scale runs yield decisions.
fn distill_profile(cpu: &Cpu) -> tarch_core::PgoProfile {
    let edges = cpu.edge_profile().expect("edge profiling was enabled");
    tarch_core::PgoProfile::new(edges.dominant(8, 60))
}

/// PGO must be host-side only: with a *real* measured profile loaded,
/// driving superblock formation, every counter, branch statistic and
/// output byte must match the naive reference, with and without fusion,
/// on every engine. A deliberately empty profile (the stale-profile
/// degenerate case) must behave identically too.
#[test]
fn pgo_guided_runs_are_counter_identical() {
    // Profile-run variant: blocks so the edge recorder observes block
    // exits, fuse so the engine is the shipping shape.
    const PROFILER: Variant = Variant { fuse: true, ..Variant::bare("profiler", true, true) };
    // Guided variants: superblocks alone, with fusion, and with every
    // layer.
    const GUIDED: [Variant; 3] = [
        Variant::bare("pgo:blocks", true, false),
        Variant { fuse: true, ..Variant::bare("pgo:blocks+fuse", true, false) },
        Variant { fuse: true, ..Variant::bare("pgo:all", true, true) },
    ];

    let w = workloads::by_name("fibo").expect("known workload");
    let src = w.source(Scale::Test);

    for engine in EngineKind::ALL {
        for level in tarch_core::IsaLevel::ALL {
            let build = |cfg: CoreConfig| {
                build_guest(engine, &src, level, cfg).unwrap_or_else(|e| panic!("builds: {e}"))
            };
            // Profile, then check every guided variant against naive.
            let profile = {
                let mut guest = build(config(PROFILER));
                guest.cpu_mut().enable_edge_profile();
                guest.run(VM_STEPS).expect("profile run completes");
                distill_profile(guest.cpu())
            };
            assert!(!profile.is_empty(), "test-scale fibo must yield a real {engine:?} profile");
            let reference = build(config(REFERENCE)).run(VM_STEPS).expect("runs");
            for (tag, p) in
                [("measured", profile.clone()), ("empty", tarch_core::PgoProfile::default())]
            {
                for variant in GUIDED {
                    let mut cfg = config(variant);
                    cfg.pgo = Some(std::sync::Arc::new(p.clone()));
                    let observed = build(cfg).run(VM_STEPS).expect("guided run completes");
                    let tag = format!("{} {level} [{}] ({tag} profile)", engine.id(), variant.name);
                    assert_eq!(observed.output, reference.output, "{tag} output diverged");
                    assert_eq!(observed.counters, reference.counters, "{tag} counters diverged");
                    assert_eq!(observed.branch, reference.branch, "{tag} branch stats diverged");
                }
            }
        }
    }
}

#[test]
fn helper_heavy_workload_counters_identical() {
    // string/table helpers go through `ecall`, whose native
    // implementations write guest data through `Cpu::host_store_u64`,
    // which leaves the blocks alone; the block table's invalidation path
    // runs in `text_rewrites_between_slices_are_counter_identical`.
    check_vm_equivalence("k-nucleotide");
}

/// Every test-scale workload on every engine at the Typed level, in
/// fleet-sized slices with one text word rewritten between slices with
/// the value already there: alternately through `Cpu::host_store_u64`,
/// which the block table sees as a store into text, and through
/// `Cpu::mem_mut`, which may have written anywhere. Each rewrite drops
/// every block, so the run rebuilds its hot blocks once per slice, and it
/// must still retire, predict and print what one uninterrupted run does.
#[test]
fn text_rewrites_between_slices_are_counter_identical() {
    const SLICE_STEPS: u64 = 10_000;
    for w in workloads::all() {
        let src = w.source(Scale::Test);
        for engine in EngineKind::ALL {
            let tag = format!("{} {}", w.name, engine.id());
            let build = || {
                build_guest(engine, &src, IsaLevel::Typed, CoreConfig::paper())
                    .unwrap_or_else(|e| panic!("{tag}: {e}"))
            };
            let reference = build().run(VM_STEPS).unwrap_or_else(|e| panic!("{tag}: {e}"));
            let mut guest = build();
            let mut rewrites = 0u64;
            loop {
                guest.run_slice(SLICE_STEPS).unwrap_or_else(|e| panic!("{tag}: {e}"));
                if guest.is_halted() {
                    break;
                }
                let pc = guest.cpu().pc();
                if rewrites.is_multiple_of(2) {
                    let word = guest.cpu().mem().read_u64(pc);
                    guest.cpu_mut().host_store_u64(pc, word);
                } else {
                    let word = guest.cpu().mem().read_u32(pc);
                    guest.cpu_mut().mem_mut().write_u32(pc, word);
                }
                rewrites += 1;
                assert!(rewrites * SLICE_STEPS <= VM_STEPS, "{tag}: runaway slice loop");
            }
            let stats = guest.cpu().block_stats();
            assert!(stats.store_invalidations > 0 && stats.rebuilds > 0, "{tag}: {stats:?}");
            assert_eq!(guest.output(), reference.output, "{tag}: output diverged");
            assert_eq!(*guest.cpu().counters(), reference.counters, "{tag}: counters diverged");
            assert_eq!(guest.cpu().branch_stats(), reference.branch, "{tag}: branch diverged");
        }
    }
}
