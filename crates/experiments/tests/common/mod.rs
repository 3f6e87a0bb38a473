//! Test support shared by the experiments suites and the root golden
//! test (which includes this file by path).

use ecnsharp_experiments::FctRun;
use ecnsharp_net::PerfCounters;
use ecnsharp_stats::FctSummary;

/// A run's FCT and fault ledger on one line with bit-exact floats (`{:?}`
/// on f64 is the shortest round-trip form, so equal lines mean equal
/// bits), in the format of the `chaos_point.txt` golden fixture:
/// summaries, then completed, failed, timeouts, CE marks and the four
/// drop counters. Queue counters are left out: they can differ between
/// serial and sharded runs.
pub fn ledger_line<S>(r: &FctRun<S>) -> String {
    let s = |x: &Option<FctSummary>| match x {
        Some(s) => format!("{},{:?},{:?},{:?}", s.count, s.avg, s.p50, s.p99),
        None => "-".to_string(),
    };
    let (f, p) = (&r.fct, &r.perf);
    format!(
        "{},{:?},{:?},{:?}|{}|{}|{}|{},{},{},{},{},{},{},{}",
        f.overall.count,
        f.overall.avg,
        f.overall.p50,
        f.overall.p99,
        s(&f.short),
        s(&f.medium),
        s(&f.large),
        f.overall.count,
        f.failed,
        f.timeouts,
        p.ce_marks,
        p.fault_drops,
        p.corrupt_drops,
        p.burst_drops,
        p.no_route_drops,
    )
}

/// Timer conservation oracle over the counters of idle runs: every armed
/// timer is accounted for exactly once (fired, cancelled, or displaced by
/// a re-arm), and every popped event was either pushed or a fired timer.
/// Both are linear, so they hold for counters summed over many runs.
#[allow(dead_code)] // not every suite that includes this module uses it
pub fn assert_timer_conservation(what: &str, p: &PerfCounters) {
    assert_eq!(
        p.timers_armed,
        p.timers_fired + p.timers_cancelled + p.timers_stale_suppressed,
        "{what}: armed timers not conserved ({p:?})"
    );
    assert_eq!(
        p.events_popped,
        p.events_pushed + p.timers_fired,
        "{what}: popped events are neither pushed events nor fired timers ({p:?})"
    );
}
