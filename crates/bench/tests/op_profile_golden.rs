//! Golden per-opcode profiles (Figures 2 and 9): the attribution a
//! profiled run reports must not move when its bookkeeping does. Each
//! digest covers a profile's sorted `(op name, dynamic, instructions)`
//! triples. The values were recorded from the stepwise per-pc observer
//! that `GuestVm::run_profiled` used before attribution moved onto the
//! block engine; they cover all 33 Typed test-scale cells.

use std::collections::{BTreeMap, HashMap};
use tarch_bench::harness::MAX_STEPS;
use tarch_bench::workloads::{self, Scale};
use tarch_core::{CoreConfig, IsaLevel};
use tarch_fleet::build_guest;
use tarch_runner::EngineKind;
use tarch_sim::OpProfile;

/// The recorded digest of every Typed test-scale cell.
const GOLDEN: [(&str, EngineKind, u64); 33] = [
    ("ackermann", EngineKind::Lua, 0xf318_95ee_3332_12fe),
    ("ackermann", EngineKind::Js, 0xb115_6a21_a606_edd5),
    ("ackermann", EngineKind::Wasm, 0xcd63_95aa_525e_691e),
    ("binary-trees", EngineKind::Lua, 0xad70_76c0_6633_54f1),
    ("binary-trees", EngineKind::Js, 0xc987_1406_61b3_fffd),
    ("binary-trees", EngineKind::Wasm, 0x790b_7e20_37d2_479c),
    ("fannkuch-redux", EngineKind::Lua, 0xa48f_ad35_5a57_4bfc),
    ("fannkuch-redux", EngineKind::Js, 0xf363_be2a_e0f4_ccd6),
    ("fannkuch-redux", EngineKind::Wasm, 0x5d87_af13_490b_a76d),
    ("fibo", EngineKind::Lua, 0x32fd_8a55_d840_2a70),
    ("fibo", EngineKind::Js, 0x7008_95c7_ab9a_992d),
    ("fibo", EngineKind::Wasm, 0x70af_8110_61db_f057),
    ("k-nucleotide", EngineKind::Lua, 0x305f_d9ab_95da_0bbb),
    ("k-nucleotide", EngineKind::Js, 0xe7fc_3011_a077_9d25),
    ("k-nucleotide", EngineKind::Wasm, 0xf541_04c1_6260_d0b4),
    ("mandelbrot", EngineKind::Lua, 0x4f0c_8400_be0a_eb9a),
    ("mandelbrot", EngineKind::Js, 0xc7e2_c544_684a_e83c),
    ("mandelbrot", EngineKind::Wasm, 0xa5b7_fc59_768a_9df5),
    ("n-body", EngineKind::Lua, 0x6efb_dd67_60ed_94a2),
    ("n-body", EngineKind::Js, 0x7bb5_0314_4627_a919),
    ("n-body", EngineKind::Wasm, 0x6385_3a46_a93b_a20c),
    ("n-sieve", EngineKind::Lua, 0xf53a_b740_dca9_a665),
    ("n-sieve", EngineKind::Js, 0xbca9_b426_3fbd_7a1e),
    ("n-sieve", EngineKind::Wasm, 0x99b4_a1fc_175b_62bb),
    ("pidigits", EngineKind::Lua, 0xf370_72b7_a99b_afb6),
    ("pidigits", EngineKind::Js, 0x168b_54c2_0929_a627),
    ("pidigits", EngineKind::Wasm, 0x651f_9614_a172_e64d),
    ("random", EngineKind::Lua, 0x0c15_3ffa_d7a1_edef),
    ("random", EngineKind::Js, 0x8dd2_8b33_f105_121b),
    ("random", EngineKind::Wasm, 0x7139_20f3_17fa_0d1c),
    ("spectral-norm", EngineKind::Lua, 0x3d57_94dd_2548_cd81),
    ("spectral-norm", EngineKind::Js, 0xdb7b_3aca_05b7_baba),
    ("spectral-norm", EngineKind::Wasm, 0xe532_245d_73f9_33c3),
];

/// FNV-1a 64 over `name dynamic instructions\n` lines, sorted by name.
fn digest(triples: &BTreeMap<&str, (u64, u64)>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (name, (dynamic, instructions)) in triples {
        for b in format!("{name} {dynamic} {instructions}\n").bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn profile(workload: &str, engine: EngineKind, core: CoreConfig) -> OpProfile<&'static str> {
    let w = workloads::by_name(workload).unwrap();
    let mut guest = build_guest(engine, &w.source(Scale::Test), IsaLevel::Typed, core).unwrap();
    guest.run_profiled(MAX_STEPS).unwrap().profile.expect("profiled run")
}

fn profile_digest(workload: &str, engine: EngineKind, core: CoreConfig) -> u64 {
    let profile = profile(workload, engine, core);
    let label = format!("{workload}/{}", engine.id());
    assert!(
        profile.dynamic.values().chain(profile.instructions.values()).all(|&n| n > 0),
        "{label}: the profile keeps only ops with a nonzero count"
    );
    let mut triples: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (&op, &n) in &profile.dynamic {
        triples.entry(op).or_default().0 = n;
    }
    for (&op, &n) in &profile.instructions {
        triples.entry(op).or_default().1 = n;
    }
    digest(&triples)
}

#[test]
fn typed_profiles_are_unchanged() {
    for (w, e, want) in GOLDEN {
        assert_eq!(
            profile_digest(w, e, CoreConfig::paper()),
            want,
            "{w}/{}: profile moved",
            e.id()
        );
    }
}

/// The observer's stepwise path (`blocks: false`) on the cells the
/// digests were first recorded for.
#[test]
fn stepwise_profiles_are_unchanged() {
    let stepwise = CoreConfig { blocks: false, ..CoreConfig::paper() };
    for (w, e, want) in
        GOLDEN.into_iter().filter(|(w, _, _)| ["fibo", "k-nucleotide", "binary-trees"].contains(w))
    {
        assert_eq!(
            profile_digest(w, e, stepwise.clone()),
            want,
            "{w}/{}: stepwise profile moved",
            e.id()
        );
    }
}

/// Figure 2(a) counts bytecodes on `luart`'s host interpreter. Its counts
/// must equal the simulated interpreter's dispatches on the 11 Lua cells
/// above, less the one `HALT` the simulated image dispatches to stop.
#[test]
fn host_bytecode_counts_equal_the_simulated_dispatches() {
    for (w, _, _) in GOLDEN.into_iter().filter(|(_, e, _)| *e == EngineKind::Lua) {
        let mut simulated = profile(w, EngineKind::Lua, CoreConfig::paper()).dynamic;
        *simulated.get_mut("HALT").expect("the run ends in HALT") -= 1;
        simulated.retain(|_, n| *n > 0);
        let chunk = miniscript::parse(&workloads::by_name(w).unwrap().source(Scale::Test)).unwrap();
        let module = luart::compile(&chunk).unwrap();
        let (_, host) = luart::host_run_counted(&module, MAX_STEPS).unwrap();
        let host: HashMap<&str, u64> = host.into_iter().map(|(op, n)| (op.name(), n)).collect();
        assert_eq!(host, simulated, "{w}: host and simulated bytecode counts differ");
    }
}
