//! # tarch-bench — workloads and experiment harness
//!
//! Everything needed to regenerate the paper's evaluation:
//!
//! * [`workloads`] — the 11 benchmarks of Table 7, written in MiniScript,
//!   at three input scales;
//! * [`harness`] — the workload × engine × ISA-level experiment matrix
//!   with derived metrics (speedups, instruction reduction, MPKI,
//!   geomeans);
//! * [`figures`] — one renderer per evaluation figure (2a, 2b, 5–9) and
//!   Table 8;
//! * [`paper_tables`] — printable versions of configuration Tables 1–7,
//!   generated from the actual code;
//! * [`ab`] — paired measurement of host speed across core
//!   configurations, behind `repro ab` and `repro pgo`.
//!
//! Matrix execution runs on the [`tarch_runner`] worker pool: cells run
//! in parallel (`repro -j N`), results are cached under
//! `target/tarch-cache/`, and each full run can be serialized to a
//! versioned `BENCH_<timestamp>.json` artifact that the figure renderers
//! reload (`repro --from-json`).
//!
//! The `repro` binary exposes all of it:
//!
//! ```text
//! cargo run -p tarch-bench --release --bin repro -- all
//! cargo run -p tarch-bench --release --bin repro -- fig5 --full -j 8
//! cargo run -p tarch-bench --release --bin repro -- all --from-json BENCH_1700000000.json
//! ```

pub mod ab;
pub mod figures;
pub mod harness;
pub mod paper_tables;
pub mod workloads;

pub use harness::{geomean, CellResult, EngineKind, Matrix, MatrixOptions, MatrixRun};
pub use workloads::{Scale, Workload};
