//! `diag` — observability diagnostics for the ECN♯ marker and the
//! telemetry stack (see OBSERVABILITY.md).
//!
//! Three parts:
//!
//! 1. **Algorithm-1 episode timeline.** Replays the persistent-marking
//!    state machine at 1 µs resolution with the paper-testbed config and
//!    writes `episode_timeline.csv` (one row per conservative mark, plus
//!    the episode entry/exit transitions). The first four mark times must
//!    reproduce the pinned sqrt-shrink schedule 201/402/543/658 µs — a
//!    mismatch is a regression in Algorithm 1 and exits 1.
//! 2. **Instrumented incast replay.** Re-runs the compressed §5.4 incast
//!    microscope with the full subscriber stack attached — metrics
//!    aggregator, histogram recorder, timeline sampler, and (when
//!    `ECNSHARP_TELEMETRY_JSON=<path>` is set) the JSON-lines sink — and
//!    writes `diag_metrics.csv`, `diag_ports.csv`, `diag_flows.csv`, and
//!    `diag_sojourn_hist.csv`.
//! 3. **Parallel histogram merge.** Runs the quick testbed star once per
//!    seed across `parallel_map` workers, merges the per-worker histogram
//!    recorders, and prints merged sojourn quantiles — the aggregation
//!    pattern the figure sweeps use.

use ecnsharp_aqm::Aqm;
use ecnsharp_core::{EcnSharp, EcnSharpConfig};
use ecnsharp_experiments::{
    parallel_map, results_dir, run_incast_micro, try_run, FctScenario, IncastTimeline, RunOpts,
    Scheme,
};
use ecnsharp_sim::{Duration, SimTime};
use ecnsharp_telemetry::{HistogramRecorder, MetricsAggregator, TimelineSampler};

/// The §3 sqrt-shrink schedule with `EcnSharpConfig::paper_testbed`
/// (pst_interval = 200 µs, detection from t = 0): marks at 201, 402, 543,
/// 658 µs. Pinned here and in `ecnsharp-core`'s
/// `sqrt_shrink_schedule_exact_times` test.
const PINNED_SCHEDULE_US: [u64; 4] = [201, 402, 543, 658];

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

fn episode_timeline() -> String {
    let mut m = EcnSharp::new(EcnSharpConfig::paper_testbed());
    let mut csv = String::from("event,at_us,gap_us,episode,marks\n");
    let mut marks: Vec<u64> = Vec::new();
    let mut episode = 0u64;
    // High sojourn (100 µs: above the 85 µs persistent target, below the
    // 200 µs instantaneous target) from t = 0, collapsing at t = 700 µs.
    for us in 0..1_000u64 {
        let sojourn = if us < 700 {
            Duration::from_micros(100)
        } else {
            Duration::from_micros(10)
        };
        let marked = m.should_persistent_mark(t(us), sojourn);
        if let Some(tr) = m.take_episode_transition() {
            if tr.entered {
                episode += 1;
            }
            csv.push_str(&format!(
                "{},{},,{episode},{}\n",
                if tr.entered { "enter" } else { "exit" },
                tr.at.as_nanos() / 1_000,
                tr.marks,
            ));
        }
        if marked {
            let gap = us - marks.last().copied().unwrap_or(0);
            marks.push(us);
            csv.push_str(&format!("mark,{us},{gap},{episode},{}\n", marks.len()));
        }
    }
    let first_four: Vec<u64> = marks.iter().take(4).copied().collect();
    if first_four != PINNED_SCHEDULE_US {
        eprintln!(
            "error: Algorithm-1 sqrt schedule drifted: expected {PINNED_SCHEDULE_US:?} µs, \
             got {first_four:?} µs"
        );
        std::process::exit(1);
    }
    println!(
        "episode timeline: {} marks in episode {episode}, sqrt schedule {:?} µs OK",
        marks.len(),
        PINNED_SCHEDULE_US
    );
    csv
}

fn write(path: &str, content: &str) {
    let full = results_dir().join(path);
    if let Err(e) = std::fs::write(&full, content) {
        eprintln!("error: cannot write {}: {e}", full.display());
        std::process::exit(1);
    }
    println!("wrote {}", full.display());
}

fn report_incast(
    metrics: &MetricsAggregator,
    hist: &HistogramRecorder,
    timeline: &TimelineSampler,
) {
    write("diag_metrics.csv", &metrics.to_csv());
    write("diag_ports.csv", &timeline.ports_csv());
    write("diag_flows.csv", &timeline.flows_csv());
    write("diag_sojourn_hist.csv", &hist.sojourn_ns.to_csv());
    println!(
        "incast replay: {} CE marks, {} drops, sojourn p50 {} ns / p99 {} ns \
         (relative error ≤ {:.2}%), {} timeline rows",
        metrics.get(ecnsharp_telemetry::Metric::EnqueueMarks)
            + metrics.get(ecnsharp_telemetry::Metric::DequeueMarks),
        metrics.total_drops(),
        hist.sojourn_ns.quantile(0.5).unwrap_or(0),
        hist.sojourn_ns.quantile(0.99).unwrap_or(0),
        hist.sojourn_ns.relative_error_bound() * 100.0,
        timeline.rows(),
    );
}

fn instrumented_incast() {
    let scheme = Scheme::EcnSharp(None);
    // 5 ms cadence keeps the committed timeline CSVs at figure scale
    // (tens of KB); drop to µs-level when chasing a specific transient.
    let sub = (
        MetricsAggregator::new(),
        (
            HistogramRecorder::new(),
            TimelineSampler::new(Duration::from_millis(5)),
        ),
    );
    match ecnsharp_experiments::jsonl_sink_from_env_or_exit() {
        Some(json) => {
            let (_, (metrics, ((hist, timeline), json))) = run_incast_micro(
                scheme,
                16,
                3,
                IncastTimeline::Compressed,
                (sub.0, ((sub.1 .0, sub.1 .1), json)),
            );
            report_incast(&metrics, &hist, &timeline);
            if json.had_error() {
                eprintln!("error: JSON-lines sink failed mid-run");
                std::process::exit(1);
            }
            drop(json.into_inner());
            println!("event stream written to ECNSHARP_TELEMETRY_JSON sink");
        }
        None => {
            let (_, (metrics, (hist, timeline))) =
                run_incast_micro(scheme, 16, 3, IncastTimeline::Compressed, sub);
            report_incast(&metrics, &hist, &timeline);
        }
    }
}

fn parallel_histogram_merge() {
    let seeds: Vec<u64> = (1..=4).collect();
    let per_worker = parallel_map(seeds, |&seed| {
        let sc = FctScenario::testbed(
            Scheme::EcnSharp(None),
            ecnsharp_workload::dists::web_search(),
            0.5,
            40,
            seed,
        );
        try_run(&sc, RunOpts::serial(HistogramRecorder::new()))
            .expect("disarmed run")
            .subscriber
    });
    let mut merged = HistogramRecorder::new();
    for h in &per_worker {
        merged.merge(h).expect("same precision everywhere");
    }
    println!(
        "parallel merge: {} workers, {} sojourn samples total, merged p99 {} ns",
        per_worker.len(),
        merged.sojourn_ns.count(),
        merged.sojourn_ns.quantile(0.99).unwrap_or(0),
    );
}

fn run() {
    println!("diag — ECN♯ episode timelines and telemetry sinks");
    println!();
    if let Err(e) = std::fs::create_dir_all(results_dir()) {
        eprintln!("error: cannot create {}: {e}", results_dir().display());
        std::process::exit(1);
    }
    let csv = episode_timeline();
    write("episode_timeline.csv", &csv);
    instrumented_incast();
    parallel_histogram_merge();
}

fn main() -> std::process::ExitCode {
    // Supervision exit contract: a panic anywhere above becomes one
    // structured JSONL error line and exit 1 (see `runner::guarded_run`).
    ecnsharp_experiments::guarded_run("diag", run)
}
