//! Regenerates Figure 13: ECN# under DWRR packet scheduling.

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("fig13")
}
