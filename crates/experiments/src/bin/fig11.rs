//! Regenerates Figure 11: query FCT vs incast fanout.

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("fig11")
}
