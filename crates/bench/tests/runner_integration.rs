//! End-to-end tests of the parallel runner wired to the real engines:
//! determinism across worker counts, cache round-trips, artifact reload
//! fidelity, plain cells derived from their profiled twins, and the
//! dispatch counts Figure 2(a) reads.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use tarch_bench::harness::{
    dispatch_counts, fig2a_jobs, job_spec, Matrix, MatrixOptions, MAX_STEPS,
};
use tarch_bench::workloads::{self, Scale};
use tarch_core::{CoreConfig, IsaLevel, TraceConfig};
use tarch_runner::{BenchArtifact, EngineKind, JobOutcome, PgoSet};

fn mini_workloads() -> Vec<workloads::Workload> {
    ["fibo", "n-sieve"].iter().map(|n| workloads::by_name(n).unwrap()).collect()
}

fn temp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tarch-bench-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 4-worker run must produce byte-identical results to a serial run:
/// same outcomes in the same order, equal artifact fingerprints.
#[test]
fn parallel_run_matches_serial_byte_for_byte() {
    let ws = mini_workloads();
    let serial = Matrix::run_with(
        &ws,
        Scale::Test,
        &MatrixOptions { workers: 1, profiled: true, ..MatrixOptions::default() },
    )
    .unwrap();
    let parallel = Matrix::run_with(
        &ws,
        Scale::Test,
        &MatrixOptions { workers: 4, profiled: true, ..MatrixOptions::default() },
    )
    .unwrap();

    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
    for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(a.spec.key, b.spec.key, "job order must be deterministic");
        // `sim_nanos` is wall-clock measurement metadata, not simulated
        // state — mask it before demanding byte-identical results.
        let mut b_result = b.result.clone();
        b_result.sim_nanos = a.result.sim_nanos;
        assert_eq!(a.result, b_result, "cell {} differs", a.spec.label());
    }
    assert_eq!(
        serial.artifact().fingerprint(),
        parallel.artifact().fingerprint(),
        "artifacts must be identical modulo timestamps"
    );
    assert_eq!(serial.stats.workers, 1);
    assert_eq!(parallel.stats.workers, 4);
}

/// Second run against a warm cache: every job is a hit and the artifact
/// fingerprint is unchanged.
#[test]
fn warm_cache_serves_every_job_with_identical_results() {
    let ws = mini_workloads();
    let dir = temp_cache("warm");
    let opts = MatrixOptions {
        workers: 2,
        cache_dir: Some(dir.clone()),
        profiled: true,
        ..MatrixOptions::default()
    };

    let cold = Matrix::run_with(&ws, Scale::Test, &opts).unwrap();
    assert_eq!(cold.stats.cache_hits, 0);
    assert_eq!(cold.stats.cache_misses, cold.stats.jobs);

    let warm = Matrix::run_with(&ws, Scale::Test, &opts).unwrap();
    assert_eq!(warm.stats.cache_misses, 0, "second run must be 100% hits");
    assert_eq!(warm.stats.cache_hits, warm.stats.jobs);
    assert_eq!(
        cold.artifact().fingerprint(),
        warm.artifact().fingerprint(),
        "cached results must reproduce the figure-relevant output exactly"
    );
    // Figures rendered from the cached matrix match the simulated ones.
    assert_eq!(
        tarch_bench::figures::fig5(&cold.matrix).unwrap(),
        tarch_bench::figures::fig5(&warm.matrix).unwrap()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Different scales must occupy different cache slots (the key covers
/// the scaled source text).
#[test]
fn cache_keys_distinguish_scales() {
    let ws = vec![workloads::by_name("fibo").unwrap()];
    let dir = temp_cache("scales");
    let opts =
        MatrixOptions { workers: 2, cache_dir: Some(dir.clone()), ..MatrixOptions::default() };
    let t = Matrix::run_with(&ws, Scale::Test, &opts).unwrap();
    assert_eq!(t.stats.cache_misses, t.stats.jobs);
    let d = Matrix::run_with(&ws, Scale::Default, &opts).unwrap();
    assert_eq!(
        d.stats.cache_misses, d.stats.jobs,
        "a different scale must not hit the test-scale cache entries"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write a `BENCH_*.json`, reload it, and verify the figure renderers
/// produce identical text from the reloaded matrix.
#[test]
fn artifact_reload_reproduces_figures() {
    let ws = mini_workloads();
    let run = Matrix::run_with(
        &ws,
        Scale::Test,
        &MatrixOptions { workers: 2, profiled: true, ..MatrixOptions::default() },
    )
    .unwrap();
    let artifact = run.artifact();
    let path =
        std::env::temp_dir().join(format!("tarch-bench-it-{}-artifact.json", std::process::id()));
    artifact.write(&path).unwrap();

    let reloaded = BenchArtifact::read(&path).unwrap();
    assert_eq!(reloaded.outcomes.len(), run.outcomes.len());
    let m2 = Matrix::from_artifact(&reloaded).unwrap();

    for f in [
        tarch_bench::figures::fig5,
        tarch_bench::figures::fig6,
        tarch_bench::figures::fig7,
        tarch_bench::figures::fig8,
        tarch_bench::figures::fig9,
        tarch_bench::figures::table8,
    ] {
        assert_eq!(f(&run.matrix).unwrap(), f(&m2).unwrap());
    }

    let _ = std::fs::remove_file(&path);
}

/// The result identity of one outcome: its spec and simulated cell,
/// without timing.
fn fingerprint(o: &JobOutcome) -> String {
    BenchArtifact::new(Scale::Test, MAX_STEPS, vec![o.clone()]).fingerprint()
}

fn is_plain_typed(o: &JobOutcome) -> bool {
    !o.spec.profiled && o.spec.level == IsaLevel::Typed
}

/// With profiling on, each plain Typed cell, and each plain wasm cell
/// (its image is the same at every level), is its profiled twin's run
/// without the bytecode count: the pool runs 14 jobs for 24 outcomes,
/// and the derived cells are the ones a run without profiling simulates.
/// The derived results go into the cache under the plain keys.
#[test]
fn plain_typed_cells_are_derived_from_their_profiled_twins() {
    let ws = mini_workloads();
    let dir = temp_cache("twins");
    let profiled = MatrixOptions {
        workers: 2,
        cache_dir: Some(dir.clone()),
        profiled: true,
        ..MatrixOptions::default()
    };
    let cold = Matrix::run_with(&ws, Scale::Test, &profiled).unwrap();
    assert_eq!(cold.outcomes.len(), 24);
    assert_eq!(cold.stats.jobs, 14, "the 6 plain Typed and 4 other wasm cells are not simulated");
    assert_eq!(cold.stats.cache_misses, 14);
    for o in cold.outcomes.iter().filter(|o| is_plain_typed(o)) {
        assert!(!o.cached, "{}: carries its twin's cache flag", o.spec.label());
        assert_eq!(o.wall_nanos, 0, "{}: the pool did no work for it", o.spec.label());
        assert_eq!(o.result.bytecodes, None, "{}", o.spec.label());
    }

    let plain = Matrix::run_with(
        &ws,
        Scale::Test,
        &MatrixOptions { workers: 2, ..MatrixOptions::default() },
    )
    .unwrap();
    assert_eq!(plain.outcomes.len(), 18);
    for (derived, simulated) in cold.outcomes.iter().zip(&plain.outcomes) {
        assert_eq!(derived.spec.key, simulated.spec.key);
        assert_eq!(
            fingerprint(derived),
            fingerprint(simulated),
            "{}: derived cell differs from the simulated one",
            derived.spec.label()
        );
    }
    // Every wasm cell but the profiled twin is taken from the twin, and
    // equals the cell a run without profiling simulates.
    let wasm: Vec<&JobOutcome> =
        cold.outcomes.iter().filter(|o| o.spec.engine == EngineKind::Wasm).collect();
    assert_eq!(wasm.len(), 8, "three levels and the profiled twin per workload");
    for o in wasm.iter().filter(|o| !o.spec.profiled) {
        assert_eq!(o.wall_nanos, 0, "{}: the pool did no work for it", o.spec.label());
        let simulated = plain.outcomes.iter().find(|p| p.spec.key == o.spec.key).unwrap();
        assert!(simulated.wall_nanos > 0, "{}: simulated without profiling", o.spec.label());
        assert_eq!(fingerprint(o), fingerprint(simulated), "{}", o.spec.label());
    }

    let warm = Matrix::run_with(&ws, Scale::Test, &profiled).unwrap();
    assert_eq!(warm.stats.cache_hits, 14, "second run must be 100% hits");
    assert!(warm.outcomes.iter().all(|o| o.cached), "every outcome reports cached");
    assert_eq!(cold.artifact().fingerprint(), warm.artifact().fingerprint());

    let plain_warm = Matrix::run_with(
        &ws,
        Scale::Test,
        &MatrixOptions { workers: 2, cache_dir: Some(dir.clone()), ..MatrixOptions::default() },
    )
    .unwrap();
    assert_eq!(plain_warm.stats.jobs, 18);
    assert_eq!(plain_warm.stats.cache_hits, 18, "every plain cell, derived ones too, hits");
    assert_eq!(plain.artifact().fingerprint(), plain_warm.artifact().fingerprint());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A PGO profile changes a Typed cell's config, so the cell is simulated
/// under its own key; a cell without one is still derived. A profile
/// applies only at the scale it was recorded at, so the committed
/// default-scale profile is relabelled as a test-scale one here.
#[test]
fn a_typed_cell_with_a_pgo_profile_is_simulated_not_derived() {
    let dir = temp_cache("pgo-set");
    std::fs::create_dir_all(&dir).unwrap();
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../pgo-artifacts/PGO_fibo.json");
    let text = std::fs::read_to_string(committed).unwrap();
    let relabelled = text.replacen(r#""scale": "default""#, r#""scale": "test""#, 1);
    assert_ne!(relabelled, text, "the committed profile is default-scale");
    std::fs::write(dir.join("PGO_fibo.json"), relabelled).unwrap();
    let pgo = PgoSet::load(&dir).unwrap();
    let run = Matrix::run_with(
        &mini_workloads(),
        Scale::Test,
        &MatrixOptions {
            workers: 2,
            profiled: true,
            pgo: Some(Arc::new(pgo)),
            ..MatrixOptions::default()
        },
    )
    .unwrap();
    assert_eq!(run.outcomes.len(), 24);
    assert_eq!(run.stats.jobs, 19, "only n-sieve's unguided Typed and wasm cells are derived");
    for o in run.outcomes.iter().filter(|o| is_plain_typed(o)) {
        let guided = o.spec.core.pgo.is_some();
        assert_eq!(guided, o.spec.workload == "fibo", "{}", o.spec.label());
        assert_eq!(o.wall_nanos > 0, guided, "{}: simulated exactly when guided", o.spec.label());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tracer samples at block entries, and attribution moves block
/// boundaries, so under tracing every plain Typed cell is simulated.
#[test]
fn traced_plain_typed_cells_are_simulated_not_derived() {
    let run = Matrix::run_with(
        &[workloads::by_name("fibo").unwrap()],
        Scale::Test,
        &MatrixOptions {
            workers: 2,
            profiled: true,
            core: CoreConfig { trace: Some(TraceConfig::new()), ..CoreConfig::paper() },
            ..MatrixOptions::default()
        },
    )
    .unwrap();
    assert_eq!(run.outcomes.len(), 12);
    assert_eq!(run.stats.jobs, 12);
    for o in run.outcomes.iter().filter(|o| is_plain_typed(o)) {
        assert!(o.wall_nanos > 0, "{}: simulated", o.spec.label());
        assert!(o.result.trace.is_some(), "{}: traced", o.spec.label());
    }
}

/// A profiled run keeps the dispatch counts of the profiled jobs it
/// simulates, in the run and beside each cached result; a cache hit
/// brings none. Figure 2(a)'s jobs carry the matrix's keys, and their
/// counts come from the run, else from the cache, else from one
/// simulation, which stores them.
#[test]
fn dispatch_counts_come_from_the_run_then_the_cache_then_a_simulation() {
    let ws = mini_workloads();
    let dir = temp_cache("dispatches");
    let opts = MatrixOptions {
        workers: 2,
        cache_dir: Some(dir.clone()),
        profiled: true,
        ..MatrixOptions::default()
    };
    let cold = Matrix::run_with(&ws, Scale::Test, &opts).unwrap();
    let profiled: Vec<&JobOutcome> = cold.outcomes.iter().filter(|o| o.spec.profiled).collect();
    assert_eq!(cold.dispatches.len(), profiled.len());
    for o in profiled {
        let total: u64 = cold.dispatches[&o.spec.key].values().sum();
        assert_eq!(Some(total), o.result.bytecodes, "{}", o.spec.label());
    }
    let jobs = fig2a_jobs(&ws, Scale::Test, &opts.core);
    for job in &jobs {
        assert_eq!(job.engine, EngineKind::Lua);
        assert!(cold.dispatches.contains_key(&job.key), "{}: not the matrix's key", job.label());
    }
    let (from_run, stats) = dispatch_counts(&jobs, &cold.dispatches, &opts).unwrap();
    assert_eq!(stats.jobs, 0, "the run answers every job");
    assert!(from_run.iter().all(|counts| counts["HALT"] == 1));

    let warm = Matrix::run_with(&ws, Scale::Test, &opts).unwrap();
    assert_eq!(warm.stats.cache_misses, 0);
    assert!(warm.dispatches.is_empty(), "a cache hit brings no counts");
    let (from_cache, stats) = dispatch_counts(&jobs, &warm.dispatches, &opts).unwrap();
    assert_eq!((stats.jobs, stats.cache_hits, stats.cache_misses), (2, 2, 0));
    assert_eq!(from_cache, from_run);

    // Results cached without their counts: the jobs run again, once.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.to_string_lossy().ends_with(".dispatches.json") {
            std::fs::remove_file(path).unwrap();
        }
    }
    let (refilled, stats) = dispatch_counts(&jobs, &BTreeMap::new(), &opts).unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 2));
    assert_eq!(refilled, from_run);
    let (_, stats) = dispatch_counts(&jobs, &BTreeMap::new(), &opts).unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (2, 0));

    let plain = [job_spec(&ws[0], EngineKind::Lua, IsaLevel::Typed, Scale::Test, false)];
    let err = dispatch_counts(&plain, &BTreeMap::new(), &opts).unwrap_err();
    assert!(err.contains("not a profiled job"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
