//! Regenerates Figure 2: instantaneous-threshold sweep under 3x RTT
//! variation — no single K achieves both high throughput and low latency.

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("fig2")
}
