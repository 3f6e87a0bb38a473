//! Telemetry determinism: attaching subscribers must never change
//! simulation results, and identical runs must produce byte-identical
//! telemetry. Together with `tests/determinism.rs` this pins the
//! "observation is free" contract OBSERVABILITY.md promises.

use ecnsharp_experiments::{
    run_incast_micro, try_run, FctScenario, IncastTimeline, RunOpts, Scheme,
};
use ecnsharp_net::NoopSubscriber;
use ecnsharp_sim::Duration;
use ecnsharp_telemetry::{HistogramRecorder, JsonlWriter, MetricsAggregator, TimelineSampler};
use ecnsharp_workload::dists;

fn scenario(seed: u64) -> FctScenario {
    FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.5, 40, seed)
}

/// The full subscriber stack attached to a run must leave every figure
/// number byte-identical to the detached run: subscribers observe the
/// event stream, they never feed back into it.
#[test]
fn attached_subscribers_do_not_change_figures() {
    let detached = try_run(&scenario(11), RunOpts::default()).expect("disarmed run");
    let sub = (
        MetricsAggregator::new(),
        (
            HistogramRecorder::new(),
            (
                TimelineSampler::new(Duration::from_micros(50)),
                JsonlWriter::new(std::io::sink()),
            ),
        ),
    );
    // `RunOpts::serial` takes any subscriber: `TimelineSampler` and
    // `JsonlWriter` are order-sensitive and could not run sharded.
    let attached = try_run(&scenario(11), RunOpts::serial(sub)).expect("disarmed run");
    assert_eq!(
        format!("{:?}", detached.fct),
        format!("{:?}", attached.fct),
        "FCT breakdown must not depend on observation"
    );
    assert_eq!(
        format!("{:?}", detached.bottleneck),
        format!("{:?}", attached.bottleneck),
        "port stats must not depend on observation"
    );
    let sub = attached.subscriber;
    // With telemetry compiled in, the stack must actually have observed
    // the run (guards against emission sites silently rotting away).
    #[cfg(feature = "telemetry")]
    {
        use ecnsharp_telemetry::Metric;
        let (metrics, (hist, (timeline, json))) = sub;
        assert!(metrics.get(Metric::PacketsEnqueued) > 0);
        assert!(metrics.get(Metric::SojournSamples) > 0);
        assert!(metrics.get(Metric::FlowsCompleted) > 0);
        assert!(hist.sojourn_ns.count() > 0);
        assert!(hist.fct.iter().map(|h| h.count()).sum::<u64>() > 0);
        assert!(timeline.rows() > 0);
        assert!(!json.had_error());
    }
    #[cfg(not(feature = "telemetry"))]
    drop(sub);
}

/// The §5.4 incast microscope, attached vs detached: the queue series —
/// the exact rows fig10.csv renders — must be byte-identical.
#[test]
fn incast_series_identical_attached_and_detached() {
    let (detached, _) = run_incast_micro(
        Scheme::EcnSharp(None),
        8,
        5,
        IncastTimeline::Compressed,
        NoopSubscriber,
    );
    let (attached, _) = run_incast_micro(
        Scheme::EcnSharp(None),
        8,
        5,
        IncastTimeline::Compressed,
        (
            MetricsAggregator::new(),
            TimelineSampler::new(Duration::from_micros(100)),
        ),
    );
    assert_eq!(
        format!("{:?}", detached.series),
        format!("{:?}", attached.series)
    );
    assert_eq!(
        format!("{:?}", detached.query_fct),
        format!("{:?}", attached.query_fct)
    );
    assert_eq!(detached.drops, attached.drops);
}

/// Two identical runs must produce identical histograms and timeline CSVs
/// — telemetry is a pure function of the (deterministic) event stream.
#[test]
fn identical_runs_produce_identical_telemetry() {
    let run = || {
        run_incast_micro(
            Scheme::EcnSharp(None),
            8,
            5,
            IncastTimeline::Compressed,
            (
                HistogramRecorder::new(),
                TimelineSampler::new(Duration::from_micros(100)),
            ),
        )
    };
    let (_, (h1, t1)) = run();
    let (_, (h2, t2)) = run();
    assert_eq!(h1, h2, "histograms must be run-to-run identical");
    assert_eq!(t1.ports_csv(), t2.ports_csv());
    assert_eq!(t1.flows_csv(), t2.flows_csv());
}

/// Histogram recorders merged across `parallel_map`-style workers must be
/// identical regardless of merge order (associativity at the recorder
/// level; the bucket-level property lives in the telemetry crate's
/// proptests).
#[test]
fn worker_histograms_merge_order_independent() {
    let per_seed: Vec<HistogramRecorder> = [3u64, 4, 5]
        .iter()
        .map(|&seed| {
            try_run(&scenario(seed), RunOpts::serial(HistogramRecorder::new()))
                .expect("disarmed run")
                .subscriber
        })
        .collect();
    let mut forward = HistogramRecorder::new();
    for h in &per_seed {
        forward.merge(h).unwrap();
    }
    let mut reverse = HistogramRecorder::new();
    for h in per_seed.iter().rev() {
        reverse.merge(h).unwrap();
    }
    assert_eq!(forward, reverse);
}
