//! Regenerates Figure 7: testbed FCT statistics, data-mining workload.

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("fig7")
}
