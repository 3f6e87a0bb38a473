//! # ecnsharp-experiments
//!
//! The evaluation harness: everything needed to regenerate every table and
//! figure of the paper, as library functions (used by the `fig*`/`table*`
//! binaries, the Criterion benches, and the integration tests).
//!
//! See `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured outcomes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod figures;
pub mod perf;
pub mod runner;
pub mod scenario;
pub mod scheme;
pub mod telemetry;

pub use runner::{
    fault_seed_from_env, fault_seed_or_exit, guarded_run, parallel_map, parse_fault_seed,
    report_failures, results_dir, supervised_map, try_parallel_map, PointStatus, Scale,
    SweepConfig, SweepOutcome, SweepReport, DEFAULT_FAULT_SEED,
};
pub use scenario::{
    run_dwrr, run_incast_micro, try_run, Built, DwrrResult, Fabric, Faults, FctRun, FctScenario,
    IncastResult, IncastTimeline, RunOpts,
};
pub use scheme::{Scheme, SchemeParams};
pub use telemetry::{
    jsonl_sink_from_env_or_exit, perf_json_path, perf_json_path_or_exit, telemetry_json_path,
    telemetry_json_path_or_exit,
};
