//! Golden per-opcode profiles (Figures 2 and 9): the attribution a
//! profiled run reports must not move when its bookkeeping does. Each
//! digest covers a profile's sorted `(op name, dynamic, instructions)`
//! triples; the values were recorded from the original hash-map
//! bookkeeping in `GuestVm::run_profiled`.

use std::collections::BTreeMap;
use tarch_bench::harness::MAX_STEPS;
use tarch_bench::workloads::{self, Scale};
use tarch_core::{CoreConfig, IsaLevel};
use tarch_fleet::build_guest;
use tarch_runner::EngineKind;

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

fn profile_digest(workload: &str, engine: EngineKind) -> u64 {
    let w = workloads::by_name(workload).unwrap();
    let mut guest =
        build_guest(engine, &w.source(Scale::Test), IsaLevel::Typed, CoreConfig::paper()).unwrap();
    let profile = guest.run_profiled(MAX_STEPS).unwrap().profile.expect("profiled run");
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
    let golden = [
        ("fibo", EngineKind::Lua, 0x32fd_8a55_d840_2a70),
        ("fibo", EngineKind::Js, 0x7008_95c7_ab9a_992d),
        ("fibo", EngineKind::Wasm, 0x70af_8110_61db_f057),
        ("k-nucleotide", EngineKind::Lua, 0x305f_d9ab_95da_0bbb),
        ("k-nucleotide", EngineKind::Js, 0xe7fc_3011_a077_9d25),
        ("k-nucleotide", EngineKind::Wasm, 0xf541_04c1_6260_d0b4),
        ("binary-trees", EngineKind::Lua, 0xad70_76c0_6633_54f1),
        ("binary-trees", EngineKind::Js, 0xc987_1406_61b3_fffd),
        ("binary-trees", EngineKind::Wasm, 0x790b_7e20_37d2_479c),
    ];
    for (w, e, want) in golden {
        assert_eq!(profile_digest(w, e), want, "{w}/{}: profile moved", e.id());
    }
}
