//! # tarch-fleet — VM snapshot/clone and a sharded multi-tenant scheduler
//!
//! The paper pitches typed architectures as server-side infrastructure
//! for *lightweight scripting*: many small guest programs sharing
//! hardware. This crate reproduces that deployment shape on top of the
//! simulator:
//!
//! * [`build_guest`] / [`Guest`] — the engine registry: the one place
//!   that maps an `EngineKind` to its engine, returning the guest VM
//!   behind one trait object for callers that pick the engine at run
//!   time (this crate's scheduler, the bench harness, `repro`, tests),
//!   and [`level_invariant`], the engine's declaration that its image
//!   is the same at every ISA level;
//! * [`Template`] — the fork-server idiom. Construct a guest VM once
//!   (parse → compile → typed codegen → load), freeze its simulated
//!   memory into a shared copy-on-write base image
//!   (`tarch_core::Cpu::freeze_memory`), then [`Template::spawn`]
//!   tenants as cheap clones that share every frozen page. The template
//!   never runs, so each tenant starts with an empty block table; only a
//!   clone of a guest that has run inherits its compiled blocks;
//! * [`run_fleet`] — a sharded preemptive scheduler. Tenants are dealt
//!   across shards by a seeded shuffle; each shard models one simulated
//!   core multiplexed round-robin, preempting each tenant after a slice
//!   of simulated instructions, saving/restoring the typed architectural
//!   state through `tarch_core::TypedState` (the paper's Section 5
//!   context-switch path), charging a context-switch cost, and evicting
//!   tenants that exhaust their cycle budget;
//! * [`FleetOutcome`] — per-shard throughput and per-tenant completion
//!   latencies in *simulated* cycles, summarized as `p50/p95/p99`
//!   percentiles for the `repro fleet` artifact.
//!
//! Scheduling is deterministic: every simulated quantity is a function
//! of (template, [`FleetConfig`]) alone. Host threads steal whole
//! shards off an atomic counter, so wall-clock scales with cores while
//! the simulated result stays bit-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scheduler;
mod snapshot;

pub use scheduler::{
    run_fleet, FleetConfig, FleetOutcome, ShardReport, TenantOutcome, TenantStatus,
};
pub use snapshot::{build_guest, level_invariant, measure_costs, CloneCosts, Guest, Template};

#[cfg(test)]
mod tests {
    use super::*;
    use tarch_core::{CoreConfig, IsaLevel};
    use tarch_runner::EngineKind;

    const FIB: &str = "
        function fib(n)
            if n < 2 then return n end
            return fib(n - 1) + fib(n - 2)
        end
        print(fib(12))
    ";

    fn config(tenants: u32, shards: u32, budget: u64) -> FleetConfig {
        FleetConfig {
            tenants,
            shards,
            budget_cycles: budget,
            slice_steps: 5_000,
            ctxsw_cycles: 200,
            seed: 42,
            workers: 2,
        }
    }

    fn template(engine: EngineKind) -> Template {
        Template::build(engine, FIB, IsaLevel::Typed, CoreConfig::paper()).unwrap()
    }

    #[test]
    fn tenants_complete_with_correct_output() {
        let t = template(EngineKind::Lua);
        let out = run_fleet(&t, &config(6, 2, u64::MAX)).unwrap();
        assert_eq!(out.completed(), 6);
        assert_eq!(out.evicted(), 0);
        assert_eq!(out.output.as_deref(), Some("144\n"));
        assert_eq!(out.latencies().len(), 6);
        // Each shard's clock is at least its last completion latency.
        for s in &out.shards {
            let max_latency = s
                .tenants
                .iter()
                .filter_map(|t| match t.status {
                    TenantStatus::Completed { latency_cycles } => Some(latency_cycles),
                    TenantStatus::Evicted => None,
                })
                .max()
                .unwrap();
            assert_eq!(s.clock_cycles, max_latency);
        }
    }

    #[test]
    fn same_seed_same_schedule_regardless_of_workers() {
        let t = template(EngineKind::Lua);
        let mut a_cfg = config(10, 3, u64::MAX);
        a_cfg.workers = 1;
        let mut b_cfg = a_cfg;
        b_cfg.workers = 3;
        let a = run_fleet(&t, &a_cfg).unwrap();
        let b = run_fleet(&t, &b_cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_changes_the_deal() {
        let t = template(EngineKind::Lua);
        let a = run_fleet(&t, &config(10, 3, u64::MAX)).unwrap();
        let mut cfg = config(10, 3, u64::MAX);
        cfg.seed = 43;
        let b = run_fleet(&t, &cfg).unwrap();
        // Simulated results must stay valid either way…
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.output, b.output);
        // …but the seed owns the tenant→shard deal.
        let deal = |o: &FleetOutcome| -> Vec<Vec<u32>> {
            o.shards.iter().map(|s| s.tenants.iter().map(|t| t.tenant).collect()).collect()
        };
        assert_ne!(deal(&a), deal(&b));
    }

    #[test]
    fn starved_budget_evicts_everyone() {
        let t = template(EngineKind::Js);
        let out = run_fleet(&t, &config(4, 2, 1)).unwrap();
        assert_eq!(out.completed(), 0);
        assert_eq!(out.evicted(), 4);
        assert_eq!(out.output, None);
        assert_eq!(out.latency_percentiles(), None);
    }

    #[test]
    fn round_robin_shares_the_shard_clock() {
        // One shard, several identical tenants: round-robin means nobody
        // finishes before everybody has had slices, so the first
        // completion lands near the end of the shard's clock, not at
        // 1/n of it.
        let t = template(EngineKind::Lua);
        let mut cfg = config(4, 1, u64::MAX);
        cfg.workers = 1;
        let out = run_fleet(&t, &cfg).unwrap();
        let lats = out.latencies();
        assert_eq!(lats.len(), 4);
        let first = *lats.iter().min().unwrap();
        let clock = out.shards[0].clock_cycles;
        assert!(first * 4 > clock * 3, "first completion at {first} of {clock}: not round-robin");
    }

    /// Why a clone is cheap, checked without a clock: a freshly spawned
    /// tenant owns no page of its own and sees every page of the frozen
    /// template. (`repro fleet` reports the measured speedup.)
    #[test]
    fn a_fresh_clone_shares_every_template_page() {
        for engine in EngineKind::ALL {
            let t = template(engine);
            let template_pages = t.guest().cpu().mem().resident_pages();
            assert!(template_pages > 0, "{engine:?}: the template holds the guest image");
            let tenant = t.spawn(1);
            let mem = tenant.cpu().mem();
            assert_eq!(mem.private_pages(), 0, "{engine:?}: a fresh clone copies no page");
            assert_eq!(mem.resident_pages(), template_pages, "{engine:?}: it sees them all");
        }
    }

    #[test]
    fn nonsense_configs_are_rejected() {
        let t = template(EngineKind::Lua);
        for bad in [
            FleetConfig { tenants: 0, ..config(1, 1, 1) },
            FleetConfig { shards: 0, ..config(1, 1, 1) },
            FleetConfig { budget_cycles: 0, ..config(1, 1, 1) },
            FleetConfig { slice_steps: 0, ..config(1, 1, 1) },
            FleetConfig { workers: 0, ..config(1, 1, 1) },
        ] {
            assert!(run_fleet(&t, &bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn more_shards_than_tenants_leaves_empty_shards_harmless() {
        let t = template(EngineKind::Lua);
        let out = run_fleet(&t, &config(2, 5, u64::MAX)).unwrap();
        assert_eq!(out.shards.len(), 5);
        assert_eq!(out.completed(), 2);
        let empty = out.shards.iter().filter(|s| s.tenants.is_empty()).count();
        assert_eq!(empty, 3);
        for s in out.shards.iter().filter(|s| s.tenants.is_empty()) {
            assert_eq!(s.clock_cycles, 0);
            assert_eq!(s.output, None);
        }
    }
}
