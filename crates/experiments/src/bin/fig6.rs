//! Regenerates Figure 6: testbed FCT statistics, web-search workload.
//!
//! Run `ECNSHARP_SCALE=quick cargo run --release -p ecnsharp-experiments
//! --bin fig6` for a fast pass; default is full fidelity.

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("fig6")
}
