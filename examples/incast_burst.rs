//! Incast burst tolerance (a miniature Figures 10–11): 16 servers answer a
//! query at once while long-lived background flows hold the bottleneck.
//! Shows why ECN♯ keeps the instantaneous marking component: CoDel-style
//! persistence-only control loses packets under the burst.
//!
//! Run with:
//! ```text
//! cargo run --release --example incast_burst
//! ```

use ecn_sharp::experiments::{run_incast_micro, IncastTimeline, Scheme};
use ecn_sharp::net::NoopSubscriber;

fn main() {
    println!("Incast microscope: 16->1, background flows + query burst (compressed timeline)\n");
    println!(
        "{:16} {:>9} {:>15} {:>7} {:>9} {:>14} {:>14}",
        "scheme", "fanout", "standing_pkts", "drops", "timeouts", "query_avg_ms", "query_p99_ms"
    );
    for fanout in [50usize, 100] {
        for scheme in [
            Scheme::DctcpRedTail,
            Scheme::CoDelDrop,
            Scheme::EcnSharp(None),
        ] {
            let (r, _) = run_incast_micro(
                scheme.clone(),
                fanout,
                5,
                IncastTimeline::Compressed,
                NoopSubscriber,
            );
            println!(
                "{:16} {:>9} {:>15.1} {:>7} {:>9} {:>14.3} {:>14.3}",
                scheme.label(),
                fanout,
                r.standing_pkts,
                r.drops,
                r.query_timeouts,
                r.query_fct.overall.avg * 1e3,
                r.query_fct.overall.p99 * 1e3,
            );
        }
        println!();
    }
    println!("DCTCP-RED-Tail holds a standing queue (latency tax); CoDel in its");
    println!("classic dropping mode loses packets under the burst and strands");
    println!("query flows in retransmission timeouts; ECN# drains the standing");
    println!("queue AND keeps the burst lossless (paper section 5.4).");
}
