//! The timer wheel is an optimization, not a behaviour change: the wheel
//! and legacy backends must produce byte-identical figure CSVs, and the
//! wheel must do so while popping strictly fewer events (the legacy
//! backend's stale epoch-filtered timers never enter the queue).
//!
//! Single test in its own binary: it mutates process environment
//! (`ECNSHARP_TIMER_BACKEND`, `ECNSHARP_RESULTS`), which would race with
//! any concurrently running test in the same process.

use ecnsharp_experiments::{figures, perf, Scale};
use ecnsharp_net::PerfCounters;

/// Run fig2's threshold sweep under `backend` and return its rendered CSV
/// plus the engine counters the run generated.
fn run_fig2(backend: &str) -> (String, PerfCounters) {
    std::env::set_var("ECNSHARP_TIMER_BACKEND", backend);
    let t = perf::timed(|| figures::fig2(Scale::Quick));
    (t.result.to_csv(), t.perf.counters)
}

#[test]
fn wheel_and_legacy_backends_are_equivalent() {
    // Keep the figure CSV side effect out of the working tree.
    let dir = std::env::temp_dir().join("ecnsharp_timer_equivalence");
    std::fs::create_dir_all(&dir).expect("temp results dir");
    std::env::set_var("ECNSHARP_RESULTS", &dir);

    let (csv_legacy, perf_legacy) = run_fig2("legacy");
    let (csv_wheel, perf_wheel) = run_fig2("wheel");

    assert_eq!(csv_legacy, csv_wheel, "timer backend changed figure output");

    // Same work, fewer queue events: arms are identical (the wheel shares
    // the legacy seq counter), but stale legacy timers pop for nothing.
    assert_eq!(perf_legacy.packets_forwarded, perf_wheel.packets_forwarded);
    assert_eq!(perf_legacy.ce_marks, perf_wheel.ce_marks);
    assert!(
        perf_wheel.events_popped < perf_legacy.events_popped,
        "wheel must pop strictly fewer events: wheel {} vs legacy {}",
        perf_wheel.events_popped,
        perf_legacy.events_popped
    );
    // The wheel actually ran: timers were armed and re-arms suppressed
    // stale deadlines in place.
    assert!(perf_wheel.timers_armed > 0);
    assert!(perf_wheel.timers_stale_suppressed > 0);
    assert!(perf_wheel.timers_fired <= perf_wheel.timers_armed);
    // The legacy run never touched the wheel.
    assert_eq!(perf_legacy.timers_armed, 0);
}
