//! Shuffled-schedule race harness: the shard-safety contract, tested at
//! runtime.
//!
//! The static side of the contract lives in `cargo xtask lint` (rules
//! R7–R10: no shared statics, no `!Send` cells on the boundary, no
//! order-sensitive unordered iteration) and in the `Send`/`Sync`
//! assertions each sim-facing crate carries. This harness attacks the same
//! contract dynamically: it drives [`try_parallel_map`] under many
//! deliberately perturbed worker interleavings — per-item jitter sleeps
//! reshuffle which thread grabs which item and when results land — and
//! asserts the merged outputs are **byte-identical** across every
//! schedule and equal to a serial reference. Any hidden shared state,
//! order-dependent merge, or cross-worker coupling shows up as a byte
//! diff here long before a sharded engine (ROADMAP item 1) would turn it
//! into a heisenbug.

use ecnsharp_experiments::{try_parallel_map, try_run, FctScenario, RunOpts, Scheme};
use ecnsharp_sim::hash_mix;
use ecnsharp_telemetry::{HistogramRecorder, MetricsAggregator};
use ecnsharp_workload::dists;
use std::time::Duration as HostDuration;

/// Deterministic per-(schedule, item) jitter in microseconds. Sleeping a
/// different pattern each schedule makes the OS hand items to workers in
/// a different order and lets result writes land in a different order —
/// without touching the items' own computation.
fn jitter_us(schedule_seed: u64, item: u64) -> u64 {
    hash_mix(schedule_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ item) % 200
}

/// One synthetic work item: a deterministic function of the item index
/// alone, producing the two mergeable telemetry accumulators the figure
/// sweeps merge across workers.
fn synth_item(item: u64) -> (MetricsAggregator, HistogramRecorder) {
    let mut hist = HistogramRecorder::new();
    let metrics = MetricsAggregator::new();
    let mut x = hash_mix(item);
    for _ in 0..64 {
        x = hash_mix(x);
        hist.sojourn_ns.record(x % 1_000_000);
        hist.queue_depth_bytes.record(x % 4_000_000);
        hist.fct[(x % 3) as usize].record(x % 10_000_000);
    }
    (metrics, hist)
}

/// Merge per-item accumulators **in item order** (never arrival order)
/// and serialize everything to bytes.
fn merge_to_bytes(parts: &[(MetricsAggregator, HistogramRecorder)]) -> String {
    let mut metrics = MetricsAggregator::new();
    let mut hist = HistogramRecorder::new();
    for (m, h) in parts {
        metrics.merge(m);
        hist.merge(h).expect("uniform precision");
    }
    let mut out = metrics.to_csv();
    out.push_str(&hist.sojourn_ns.to_csv());
    out.push_str(&hist.queue_depth_bytes.to_csv());
    for h in &hist.fct {
        out.push_str(&h.to_csv());
    }
    out
}

/// Synthetic leg: 24 items × 12 shuffled schedules. Fast (no simulation),
/// so it can afford many interleavings.
#[test]
fn shuffled_schedules_merge_byte_identical_synthetic() {
    const ITEMS: u64 = 24;
    const SCHEDULES: u64 = 12;

    let serial: Vec<_> = (0..ITEMS).map(synth_item).collect();
    let reference = merge_to_bytes(&serial);

    for schedule in 0..SCHEDULES {
        let out = try_parallel_map((0..ITEMS).collect(), |&item| {
            std::thread::sleep(HostDuration::from_micros(jitter_us(schedule, item)));
            synth_item(item)
        });
        assert!(
            out.panics.is_empty(),
            "schedule {schedule}: {:?}",
            out.panics
        );
        let parts: Vec<_> = out
            .results
            .into_iter()
            .map(|r| r.expect("no panics, so every slot is filled"))
            .collect();
        assert_eq!(
            merge_to_bytes(&parts),
            reference,
            "schedule {schedule} produced different bytes"
        );
    }
}

/// Real-simulation leg: a quick 6-point testbed sweep (2 schemes × 3
/// seeds), each point a full deterministic simulation with a
/// [`HistogramRecorder`] attached, repeated under 3 shuffled schedules.
/// The per-point FCT debug strings and the order-merged histograms must
/// be byte-identical across schedules.
#[test]
fn shuffled_schedules_keep_simulation_sweeps_byte_identical() {
    let points: Vec<(Scheme, u64)> = [Scheme::EcnSharp(None), Scheme::CoDel]
        .into_iter()
        .flat_map(|s| (7u64..10).map(move |seed| (s.clone(), seed)))
        .collect();

    let run_sweep = |schedule: u64| {
        let out = try_parallel_map(points.clone(), |(scheme, seed)| {
            std::thread::sleep(HostDuration::from_micros(jitter_us(schedule, *seed)));
            let sc = FctScenario::testbed(scheme.clone(), dists::web_search(), 0.5, 30, *seed);
            let r = try_run(&sc, RunOpts::serial(HistogramRecorder::new())).expect("disarmed");
            (format!("{:?}|{:?}", r.fct, r.bottleneck), r.subscriber)
        });
        assert!(out.panics.is_empty(), "{:?}", out.panics);
        let parts: Vec<_> = out
            .results
            .into_iter()
            .map(|r| r.expect("no panics, so every slot is filled"))
            .collect();
        let fcts: Vec<String> = parts.iter().map(|(f, _)| f.clone()).collect();
        let mut merged = HistogramRecorder::new();
        for (_, h) in &parts {
            merged.merge(h).expect("uniform precision");
        }
        let mut bytes = merged.sojourn_ns.to_csv();
        bytes.push_str(&merged.queue_depth_bytes.to_csv());
        (fcts, bytes)
    };

    let (fcts0, bytes0) = run_sweep(0);
    for schedule in 1..3u64 {
        let (fcts, bytes) = run_sweep(schedule);
        assert_eq!(
            fcts, fcts0,
            "per-point results diverged (schedule {schedule})"
        );
        assert_eq!(
            bytes, bytes0,
            "merged histograms diverged (schedule {schedule})"
        );
    }
}
