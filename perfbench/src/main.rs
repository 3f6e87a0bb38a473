//! End-to-end and per-layer benchmark of the ECN♯ simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats untraced simulations of the workload for
//! `--seconds` and reports the end-to-end metrics (medians over the
//! simulations). `--trace 1` alternates untraced and traced simulations
//! for `--seconds` and reports the per-layer metrics. Every metric is
//! printed by name with its unit; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. A failed
//! correctness check exits 1. See README.md for the workloads and metric
//! definitions.

// Host-side benchmark: the wall clock times the simulator from outside
// and never feeds the simulation.
#![allow(clippy::disallowed_methods)]

mod check;
mod measure;
mod sim;
mod trace;
mod workload;

use crate::measure::{median, ratio, supported_percentile};
use crate::sim::{simulate, Drive, Sim};
use crate::trace::Spans;
use crate::workload::{Config, Workload};
use ecnsharp_telemetry::{Metric as Counter, MetricsAggregator, NoopSubscriber};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: ecnsharp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Untraced simulations per `--trace 0` run at the least, however long
/// they take.
const MIN_SIMS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run exactly one untraced simulation and print its `single` line
    /// (how `--trace 0` runs each simulation in a fresh process).
    single: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut single = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--single" {
            single = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("expected 1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if single {
        return Ok(Args {
            workload,
            seed,
            seconds: 0,
            trace: false,
            single,
        });
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        single,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a whole benchmark run produced.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    digest: u64,
    spans: Option<Spans>,
}

/// Flows attempted and failed over `sims`.
fn tally<'a>(sims: impl IntoIterator<Item = &'a Sim>) -> (u64, u64) {
    sims.into_iter().fold((0, 0), |(a, f), s| {
        (a + s.outcome.scheduled, f + s.outcome.failed)
    })
}

/// Median of `f` over `sims`.
fn med(sims: &[Sim], f: impl Fn(&Sim) -> f64) -> f64 {
    let xs: Vec<f64> = sims.iter().map(f).collect();
    median(&xs).expect("at least one simulation")
}

/// The smallest of `xs`. Run-phase host times use the fastest
/// simulation: on a shared host, neighbours slow the CPU for seconds at a
/// time (by up to ~1.8×), and only the minimum repeats across
/// runs. Nothing makes a simulation faster than the code allows.
fn fastest(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// The one digest every simulation of a run must share.
fn same_digest(what: &str, digests: impl IntoIterator<Item = u64>) -> Result<u64, String> {
    let mut it = digests.into_iter();
    let d = it.next().ok_or("no simulation ran")?;
    match it.find(|&x| x != d) {
        Some(x) => Err(format!(
            "sim_digest differs across {what}: {d:016x} vs {x:016x}"
        )),
        None => Ok(d),
    }
}

/// One untraced simulation as a fresh process reports it.
#[derive(Debug, Clone, Copy)]
struct Single {
    run_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    digest: u64,
    attempted: u64,
    failed: u64,
}

/// `--single`: one untraced serial simulation, printed as one
/// `single key=value ...` line.
fn single(cfg: &Config, args: &Args) -> Result<(), String> {
    let mut spans = Spans::new();
    let (sim, _) = simulate(cfg, args.seed, NoopSubscriber, Drive::Serial, &mut spans, 0)?;
    println!(
        "single run_s={} setup_s={} peak_rss_mb={} sim_digest={:016x} attempted={} failed={}",
        sim.run_s,
        sim.setup_s,
        peak_rss_mb()?,
        sim.digest,
        sim.outcome.scheduled,
        sim.outcome.failed
    );
    Ok(())
}

/// Run one `--single` simulation in a child process and wait for it.
fn spawn_single(args: &Args) -> Result<Single, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--single",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("starting a simulation process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "simulation process exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("single "))
        .ok_or_else(|| "simulation process printed no result".to_string())
        .and_then(parse_single)
}

/// Parse the `key=value` fields of a `single` line.
fn parse_single(line: &str) -> Result<Single, String> {
    fn field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("simulation result lacks a valid {key}: {line}"))
    }
    let digest: String = field(line, "sim_digest")?;
    Ok(Single {
        run_s: field(line, "run_s")?,
        setup_s: field(line, "setup_s")?,
        peak_rss_mb: field(line, "peak_rss_mb")?,
        digest: u64::from_str_radix(&digest, 16)
            .map_err(|_| format!("bad sim_digest in {line}"))?,
        attempted: field(line, "attempted")?,
        failed: field(line, "failed")?,
    })
}

/// `--trace 0`: untraced simulations, each in a fresh process, until
/// `seconds` have passed. A fresh process per simulation pays the first
/// touch of its memory every time, as a figure binary does; reusing one
/// process lets the allocator's state swing set-up time by ~2×.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut sims: Vec<Single> = Vec::new();
    while sims.len() < MIN_SIMS || Instant::now() < deadline {
        let s = spawn_single(args)?;
        println!(
            "simulation {} run_s {} setup_s {} peak_rss_mb {}",
            sims.len(),
            s.run_s,
            s.setup_s,
            s.peak_rss_mb
        );
        sims.push(s);
    }
    let pick = |f: fn(&Single) -> f64| sims.iter().map(f).collect::<Vec<f64>>();
    let attempted = sims.iter().map(|s| s.attempted).sum::<u64>();
    let failed = sims.iter().map(|s| s.failed).sum::<u64>();
    let metrics = vec![
        m("run_s", fastest(pick(|s| s.run_s)), "s"),
        m(
            "setup_s",
            median(&pick(|s| s.setup_s)).expect("simulations ran"),
            "s",
        ),
        m(
            "peak_rss_mb",
            median(&pick(|s| s.peak_rss_mb)).expect("simulations ran"),
            "MB",
        ),
        m(
            "flows_completed_ratio",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
        ),
    ];
    Ok(Report {
        metrics,
        attempted,
        failed,
        digest: same_digest("simulations of this run", sims.iter().map(|s| s.digest))?,
        spans: None,
    })
}

/// `--trace 1`: rounds of an untraced serial simulation, for a workload
/// with a shard plan an untraced sharded one, and a traced one (sliced
/// `run_until` with a `MetricsAggregator` attached), until `seconds` have
/// passed. Every simulation must reach the same `sim_digest`.
fn per_layer(cfg: &Config, args: &Args) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let compare_shards = cfg.workload.shards() > 1;
    let mut spans = Spans::new();
    let (mut serial, mut sharded, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut agg = MetricsAggregator::new();
    let mut run = 0u32;
    let mut next_run = || {
        run += 1;
        run - 1
    };
    while traced.is_empty() || Instant::now() < deadline {
        let (sim, _) = simulate(
            cfg,
            args.seed,
            NoopSubscriber,
            Drive::Serial,
            &mut spans,
            next_run(),
        )?;
        serial.push(sim);
        if compare_shards {
            let (sim, _) = simulate(
                cfg,
                args.seed,
                NoopSubscriber,
                Drive::Sharded,
                &mut spans,
                next_run(),
            )?;
            sharded.push(sim);
        }
        // Slice the traced run over the serial run's simulated duration.
        let end = serial.last().expect("serial simulation ran").end;
        let (sim, sub) = simulate(
            cfg,
            args.seed,
            MetricsAggregator::new(),
            Drive::Sliced(end),
            &mut spans,
            next_run(),
        )?;
        traced.push(sim);
        agg = sub;
    }
    let all: Vec<&Sim> = serial.iter().chain(&sharded).chain(&traced).collect();
    let digest = same_digest(
        "serial, sharded and traced simulations",
        all.iter().map(|s| s.digest),
    )?;
    let (attempted, failed) = tally(all.iter().copied());

    // Counts are identical across the traced simulations (same digest,
    // same seed); take them from the last.
    let t = traced.last().expect("one traced simulation");
    let p = &t.perf;
    let serial_run_s = fastest(serial.iter().map(|s| s.run_s));
    let sharded_run_s = if compare_shards {
        fastest(sharded.iter().map(|s| s.run_s))
    } else {
        serial_run_s
    };
    let ns_per_event = fastest(serial.iter().map(|s| s.sim_s * 1e9 / s.steps as f64));
    let slices = &t.slice_ns_per_event;
    let pct = |q| {
        supported_percentile(slices, q).ok_or_else(|| {
            format!(
                "{} non-empty slices cannot support p{}",
                slices.len(),
                q * 100.0
            )
        })
    };
    let c = |x: Counter| agg.get(x) as f64;
    let metrics = vec![
        m("workload.generate_s", med(&traced, |s| s.generate_s), "s"),
        m("workload.flows", t.flows as f64, "count"),
        m("workload.offered_bytes", t.offered_bytes as f64, "bytes"),
        m("topology.build_s", med(&traced, |s| s.build_s), "s"),
        m("topology.nodes", t.nodes as f64, "count"),
        m("topology.ports", t.ports as f64, "count"),
        m("net.schedule_s", med(&traced, |s| s.schedule_s), "s"),
        m("sim.events_popped", p.events_popped as f64, "count"),
        m("sim.events_pushed", p.events_pushed as f64, "count"),
        m("sim.peak_pending", p.peak_pending as f64, "count"),
        m("sim.heap_spills", p.heap_spills as f64, "count"),
        m("sim.ns_per_event", ns_per_event, "ns"),
        m("sim.events_per_s", 1e9 / ns_per_event, "1/s"),
        m("sim.slice_ns_per_event_p50", pct(0.5)?, "ns"),
        m("sim.slice_ns_per_event_p90", pct(0.9)?, "ns"),
        m("sim.slices", slices.len() as f64, "count"),
        m("timer.armed", p.timers_armed as f64, "count"),
        m("timer.fired", p.timers_fired as f64, "count"),
        m("timer.cancelled", p.timers_cancelled as f64, "count"),
        m(
            "timer.stale_suppressed",
            p.timers_stale_suppressed as f64,
            "count",
        ),
        m(
            "timer.suppress_ratio",
            ratio(p.timers_stale_suppressed as f64, p.timers_armed as f64),
            "ratio",
        ),
        m("net.packets_forwarded", p.packets_forwarded as f64, "count"),
        m(
            "net.events_per_hop",
            ratio(p.events_popped as f64, p.packets_forwarded as f64),
            "ratio",
        ),
        m("net.ce_marks", p.ce_marks as f64, "count"),
        m(
            "net.mark_ratio",
            ratio(p.ce_marks as f64, p.packets_forwarded as f64),
            "ratio",
        ),
        m("net.drops_tail", c(Counter::DropsTail), "count"),
        m(
            "net.drops_aqm",
            c(Counter::DropsAqmEnqueue) + c(Counter::DropsAqmDequeue),
            "count",
        ),
        m(
            "net.max_backlog_bytes",
            agg.max_backlog_bytes() as f64,
            "bytes",
        ),
        m(
            "transport.flows_completed",
            c(Counter::FlowsCompleted),
            "count",
        ),
        m("transport.flows_failed", c(Counter::FlowsFailed), "count"),
        m("transport.timeouts", c(Counter::RtoFirings), "count"),
        m("transport.cwnd_updates", c(Counter::CwndUpdates), "count"),
        m("transport.alpha_updates", c(Counter::AlphaUpdates), "count"),
        m("aqm.marks_enqueue", c(Counter::EnqueueMarks), "count"),
        m("aqm.marks_dequeue", c(Counter::DequeueMarks), "count"),
        m("aqm.episodes_entered", c(Counter::EpisodesEntered), "count"),
        m("stats.collate_s", med(&traced, |s| s.collate_s), "s"),
        m("shard.serial_run_s", serial_run_s, "s"),
        m("shard.speedup", ratio(serial_run_s, sharded_run_s), "ratio"),
        m(
            "telemetry.overhead_ratio",
            ratio(fastest(traced.iter().map(|s| s.run_s)), serial_run_s),
            "ratio",
        ),
    ];
    Ok(Report {
        metrics,
        attempted,
        failed,
        digest,
        spans: Some(spans),
    })
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU model, hardware threads and compiler, as one JSON object.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cpu\":\"{}\",\"nproc\":{},\"rustc\":\"{}\"}}",
        cpu.escape_default(),
        nproc,
        env!("PERFBENCH_RUSTC").escape_default()
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    out.push('}');
    out
}

/// Write the result set (fingerprint, digest, metrics and, when traced,
/// every span) next to the benchmark's sources.
fn write_result(args: &Args, machine: &str, r: &Report) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let mut body = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"machine\": {},\n  \"sim_digest\": \"{:016x}\",\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine,
        r.digest,
        r.attempted,
        r.failed,
        metrics_json(&r.metrics)
    );
    if let Some(spans) = &r.spans {
        let _ = write!(body, ",\n  \"spans\": {}", spans.to_json());
    }
    body.push_str("\n}\n");
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::new(args.workload);
    if args.single {
        return match single(&cfg, &args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(1)
            }
        };
    }
    let machine = fingerprint();
    println!("machine {machine}");
    let result = if args.trace {
        per_layer(&cfg, &args)
    } else {
        end_to_end(&args)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: run failed: {e}", args.workload.name());
            // The run as a whole is the one failed operation.
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::from(1);
        }
    };
    println!("sim_digest {:016x}", report.digest);
    for x in &report.metrics {
        println!("metric {} = {} {}", x.name, x.value, x.unit);
    }
    match write_result(&args, &machine, &report) {
        Ok(path) => println!("result set written to {}", path.display()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_line_round_trips() {
        let s = parse_single(
            "run_s=0.25 setup_s=0.001 peak_rss_mb=6.5 sim_digest=00000000000000ff attempted=120 failed=0",
        )
        .unwrap();
        assert_eq!((s.run_s, s.setup_s, s.peak_rss_mb), (0.25, 0.001, 6.5));
        assert_eq!((s.digest, s.attempted, s.failed), (255, 120, 0));
        assert!(parse_single("run_s=0.25").is_err());
        assert!(
            parse_single("run_s=x setup_s=1 peak_rss_mb=1 sim_digest=0 attempted=1 failed=0")
                .is_err()
        );
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest([0.3, 0.1, 0.2]), 0.1);
    }
}
