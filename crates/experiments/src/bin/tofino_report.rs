//! Section-4 report: Tofino pipeline resources and Algorithm-2 fidelity.

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("tofino_report")
}
