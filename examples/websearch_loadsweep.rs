//! Web-search load sweep (a miniature Figure 6): the paper's 8-server
//! testbed with realistic traffic, comparing the four schemes at two loads.
//!
//! Run with:
//! ```text
//! cargo run --release --example websearch_loadsweep
//! ```

use ecn_sharp::experiments::{try_run, FctScenario, RunOpts, Scheme};
use ecn_sharp::workload::dists;

fn main() {
    println!("Mini Figure 6: 7->1 testbed, web-search workload, 3x RTT variation");
    println!("(500 flows per point; run the fig6 binary for full fidelity)\n");
    println!(
        "{:>5}  {:16} {:>14} {:>13} {:>13} {:>13}",
        "load", "scheme", "overall_avg_us", "short_avg_us", "short_p99_us", "large_avg_us"
    );
    for load in [0.3, 0.6] {
        for scheme in Scheme::testbed_set() {
            let sc = FctScenario::testbed(scheme.clone(), dists::web_search(), load, 500, 99);
            let r = try_run(&sc, RunOpts::default()).expect("disarmed run");
            let (fct, stats) = (r.fct, r.bottleneck.expect("star bottleneck"));
            println!(
                "{:>4.0}%  {:16} {:>14.1} {:>13.1} {:>13.1} {:>13.1}   (marks {} drops {})",
                load * 100.0,
                scheme.label(),
                fct.overall.avg * 1e6,
                fct.short.map(|s| s.avg * 1e6).unwrap_or(f64::NAN),
                fct.short.map(|s| s.p99 * 1e6).unwrap_or(f64::NAN),
                fct.large.map(|s| s.avg * 1e6).unwrap_or(f64::NAN),
                stats.total_marks(),
                stats.total_drops(),
            );
        }
        println!();
    }
}
