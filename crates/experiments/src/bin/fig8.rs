//! Regenerates Figure 8: ECN# vs DCTCP-RED-Tail as RTT variation grows.

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("fig8")
}
