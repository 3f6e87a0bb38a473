//! Regenerates Figure 5: the web-search and data-mining flow-size CDFs.

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("fig5")
}
