//! Test support shared by the experiments suites and the root golden
//! test (which includes this file by path).

use ecnsharp_experiments::FctRun;
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
