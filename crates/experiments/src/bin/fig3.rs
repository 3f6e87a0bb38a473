//! Regenerates Figure 3: larger RTT variations enlarge the performance gap
//! between avg-RTT and p90-RTT thresholds.

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("fig3")
}
