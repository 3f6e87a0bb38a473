//! Wheel-batched delayed-ACK bookkeeping is an optimization, not a
//! behaviour change: with `delack_count > 1` the wheel backend keeps one
//! long-lived token per receiver (no cancel per ACK, no re-arm per packet)
//! while the legacy backend runs the un-batched per-packet epoch protocol.
//! Both must produce byte-identical figure CSVs at `ECNSHARP_DELACK=2`.
//!
//! Single test in its own binary: it mutates process environment
//! (`ECNSHARP_DELACK`, `ECNSHARP_TIMER_BACKEND`, `ECNSHARP_RESULTS`),
//! which would race with any concurrently running test in the same
//! process.

use ecnsharp_experiments::{figures, perf, Scale};
use ecnsharp_net::PerfCounters;

/// Run fig2's threshold sweep under `backend` with delayed ACKs enabled
/// and return its rendered CSV plus the engine counters.
fn run_fig2_delack2(backend: &str) -> (String, PerfCounters) {
    std::env::set_var("ECNSHARP_TIMER_BACKEND", backend);
    let t = perf::timed(|| figures::fig2(Scale::Quick));
    (t.result.to_csv(), t.perf.counters)
}

#[test]
fn batched_delack_matches_unbatched_reference() {
    // Keep the figure CSV side effect out of the working tree.
    let dir = std::env::temp_dir().join("ecnsharp_delack_equivalence");
    std::fs::create_dir_all(&dir).expect("temp results dir");
    std::env::set_var("ECNSHARP_RESULTS", &dir);
    std::env::set_var("ECNSHARP_DELACK", "2");

    let (csv_legacy, perf_legacy) = run_fig2_delack2("legacy");
    let (csv_wheel, perf_wheel) = run_fig2_delack2("wheel");
    std::env::remove_var("ECNSHARP_DELACK");

    assert_eq!(
        csv_legacy, csv_wheel,
        "delack batching changed figure output"
    );

    // Identical traffic, identical marking.
    assert_eq!(perf_legacy.packets_forwarded, perf_wheel.packets_forwarded);
    assert_eq!(perf_legacy.ce_marks, perf_wheel.ce_marks);

    // The batched run actually exercised the wheel, and the legacy
    // reference never touched it.
    assert!(perf_wheel.timers_armed > 0);
    assert!(perf_wheel.timers_fired <= perf_wheel.timers_armed);
    assert_eq!(perf_legacy.timers_armed, 0);

    // Batching evidence: the un-batched legacy protocol pushes one queue
    // event per delack arm (stale epochs pop for nothing), so the wheel
    // run must get through the same workload with strictly fewer pops.
    assert!(
        perf_wheel.events_popped < perf_legacy.events_popped,
        "batched wheel must pop strictly fewer events: wheel {} vs legacy {}",
        perf_wheel.events_popped,
        perf_legacy.events_popped
    );
    // One long-lived token per receiver quiet period, not one arm per
    // in-order packet: arms must be far rarer than forwarded packets.
    assert!(
        perf_wheel.timers_armed * 4 < perf_wheel.packets_forwarded,
        "batched delack armed {} timers for {} packets",
        perf_wheel.timers_armed,
        perf_wheel.packets_forwarded
    );
}
