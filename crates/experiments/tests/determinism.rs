//! Perf counters must be observers, not participants: reading them (or
//! not) around a run must leave results bit-identical. These tests pin
//! that property at the level the figures consume — FCT summary rows and
//! port mark/drop statistics rendered to CSV text — and pin that each
//! run's counters are its own: no process-global state lets one run see
//! another's events.

use ecnsharp_experiments::perf::{timed, Totals};
use ecnsharp_experiments::{
    parallel_map, run_incast_micro, try_run, FctScenario, IncastTimeline, RunOpts, Scheme,
};
use ecnsharp_net::NoopSubscriber;
use ecnsharp_stats::FctBreakdown;
use ecnsharp_workload::dists;

/// Render a breakdown + port stats to a CSV row with bit-exact floats
/// (`{:?}` on f64 prints the shortest round-trip representation, so two
/// rows match iff the underlying bits match).
fn csv_row(fct: &FctBreakdown, stats: &ecnsharp_net::PortStats) -> String {
    let s = |x: &Option<ecnsharp_stats::FctSummary>| match x {
        Some(s) => format!("{},{:?},{:?},{:?}", s.count, s.avg, s.p50, s.p99),
        None => "-".to_string(),
    };
    format!(
        "{},{},{},{},{:?},{},{},{},{},{},{}",
        fct.overall.count,
        s(&fct.short),
        s(&fct.large),
        s(&fct.medium),
        fct.overall.avg,
        fct.timeouts,
        stats.enq_marks,
        stats.deq_marks,
        stats.tail_drops,
        stats.aqm_enq_drops,
        stats.dequeued,
    )
}

fn scenario() -> FctScenario {
    FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.6, 120, 42)
}

#[test]
fn counters_read_vs_ignored_yield_identical_csv_rows() {
    // Run 1: counters completely ignored.
    let a = try_run(&scenario(), RunOpts::default()).expect("disarmed run");
    let row_a = csv_row(&a.fct, &a.bottleneck.expect("star bottleneck"));

    // Run 2: counters read around the run (via `timed`) and merged, after
    // an unrelated run whose counters are also read.
    let (other, _) = run_incast_micro(
        Scheme::DctcpRedTail,
        4,
        7,
        IncastTimeline::Compressed,
        NoopSubscriber,
    );
    let other = Totals::run(other.perf, other.end);
    let t = timed(|| {
        let r = try_run(&scenario(), RunOpts::default()).expect("disarmed run");
        let perf = Totals::run(r.perf, r.end);
        (r, perf)
    });
    let b = &t.result;
    let row_b = csv_row(&b.fct, &b.bottleneck.expect("star bottleneck"));

    assert_eq!(row_a, row_b, "reading perf counters perturbed results");
    // The counters observed the run, and only this run.
    assert!(t.perf.counters.events_popped > 0);
    assert!(t.perf.counters.packets_forwarded > 0);
    assert_eq!(t.perf, Totals::run(a.perf, a.end));
    assert_ne!(t.perf, other, "another run's counters leaked in");
}

#[test]
fn same_seed_same_counters() {
    // Determinism extends to the counters: identical seeds produce
    // identical event/packet/mark totals, not just identical results.
    let run = || {
        run_incast_micro(
            Scheme::EcnSharp(None),
            8,
            3,
            IncastTimeline::Compressed,
            NoopSubscriber,
        )
        .0
    };
    let (r1, r2) = (run(), run());
    assert_eq!(r1.perf, r2.perf);
    assert_eq!(r1.end, r2.end);
    // Byte-identical figure rows too.
    assert_eq!(
        format!("{:?},{}", r1.standing_pkts, r1.drops),
        format!("{:?},{}", r2.standing_pkts, r2.drops),
    );
}

/// A run's counters are a function of its scenario alone: alone, or on a
/// `parallel_map` worker next to a different scenario, it reports the
/// same `PerfCounters` — the property a process-global accumulator made
/// impossible to state.
#[test]
fn counters_are_per_run_under_parallel_map() {
    let mut other = scenario();
    other.scheme = Scheme::DctcpRedTail;
    other.seed = 7;
    let alone = try_run(&scenario(), RunOpts::default()).expect("disarmed run");
    let side_by_side = parallel_map(vec![other, scenario()], |sc| {
        let r = try_run(sc, RunOpts::default()).expect("disarmed run");
        (r.perf, r.end)
    });
    assert_eq!(side_by_side[1], (alone.perf, alone.end));
    assert_ne!(side_by_side[0], side_by_side[1], "the neighbour differs");
}
