//! Regenerates Table 1 / Figure 1: RTT statistics per processing-component
//! combination (network stack / SLB / hypervisor / load).

fn main() -> std::process::ExitCode {
    ecnsharp_experiments::figures::main("table1")
}
