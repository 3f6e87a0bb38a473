//! Regenerates Figure 10: queue-occupancy microscope around an incast
//! burst, plus the §5.4 headline numbers (avg queue pkts, drops).

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("fig10")
}
