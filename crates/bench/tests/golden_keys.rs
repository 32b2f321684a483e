//! Golden job keys: the content key of a job must not move unless the
//! key schema does. Every cache entry, every `BENCH_*.json` artifact and
//! every benchmark fingerprint embeds these keys, so a key derivation
//! that changes even one bit silently orphans them all.
//!
//! The values below were recorded from the original two-pass key
//! derivation (format the canonical string, then FNV-1a it once per
//! lane) at `KEY_SCHEMA` 5.

use tarch_bench::harness::job_spec;
use tarch_bench::workloads::{self, Scale};
use tarch_core::IsaLevel;
use tarch_runner::job::KEY_SCHEMA;
use tarch_runner::EngineKind;

/// FNV-1a 64 over each key's hex rendering plus a newline, in the order
/// `Matrix::run_with` submits the test-scale job list.
fn digest(hexes: impl Iterator<Item = String>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for hex in hexes {
        for b in hex.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn key_schema_is_unchanged() {
    assert_eq!(KEY_SCHEMA, 5);
}

#[test]
fn fibo_lua_typed_keys_are_unchanged() {
    let fibo = workloads::by_name("fibo").unwrap();
    let key = |profiled| {
        job_spec(&fibo, EngineKind::Lua, IsaLevel::Typed, Scale::Test, profiled).key.hex()
    };
    assert_eq!(key(false), "77bb306b67e36051b3fdac0a3e8c65f0");
    assert_eq!(key(true), "ac9cd3b9d5928e227dfd8535ebc8a8b1");
}

#[test]
fn test_scale_job_list_keys_are_unchanged() {
    let ws = workloads::all();
    let mut hexes = Vec::new();
    for w in &ws {
        for e in EngineKind::ALL {
            for l in IsaLevel::ALL {
                hexes.push(job_spec(w, e, l, Scale::Test, false).key.hex());
            }
        }
    }
    for w in &ws {
        for e in EngineKind::ALL {
            hexes.push(job_spec(w, e, IsaLevel::Typed, Scale::Test, true).key.hex());
        }
    }
    assert_eq!(hexes.len(), 132);
    assert_eq!(format!("{:016x}", digest(hexes.into_iter())), "f8f197b083314d4b");
}
