//! Regenerates Figure 12: ECN# parameter sensitivity.

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("fig12")
}
