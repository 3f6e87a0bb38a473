//! Regenerates Figure 9: large-scale leaf-spine simulations.

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("fig9")
}
