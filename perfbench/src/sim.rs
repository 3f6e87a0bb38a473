//! One simulation of a workload, timed from outside each layer call.
//!
//! Spans: `bench.simulation` encloses `topology.build`,
//! `workload.generate`, `net.schedule`, `sim.run` and `stats.collate`.
//! A sliced run splits `sim.run` into `sim.slice` children (fixed
//! simulated-time slices through `Network::run_until`) and a final
//! `sim.drain` (`run_until_idle` once every flow has a record).

use crate::check::{check_records, sim_digest, Outcome};
use crate::trace::{SliceCounts, Spans};
use crate::workload::{offered_bytes, Config};
use ecnsharp_net::{Network, PerfCounters, ShardSubscriber};
use ecnsharp_sim::{Duration, SimTime};
use ecnsharp_stats::FctBreakdown;
use std::hint::black_box;

/// Slices over a sliced run's simulated duration. With a slice's
/// ns/event as one sample, p90 needs 100 non-empty slices to have ten
/// beyond it; 400 leaves room for quiet ones.
const SLICES: u64 = 400;

/// Simulated time past the expected end after which a sliced run stops
/// slicing even if a flow is still open (the record check then fails
/// the run): eight backed-off RTOs at the 1 s ceiling fit well inside.
const SLICE_LIMIT: Duration = Duration::from_secs(60);

/// How `sim.run` drives the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// `Network::run_until_idle`.
    Serial,
    /// `Network::run_sharded_until_idle` on the workload's shard plan.
    Sharded,
    /// `Network::run_until` in `SLICES` equal slices of the given
    /// simulated duration (an earlier run's end time), then
    /// `run_until_idle`.
    Sliced(SimTime),
}

/// What one simulation measured and produced.
#[derive(Debug, Clone)]
pub struct Sim {
    /// Flows scheduled.
    pub flows: u64,
    /// Bytes offered by those flows.
    pub offered_bytes: u64,
    /// Nodes in the topology.
    pub nodes: u64,
    /// Egress ports in the topology.
    pub ports: u64,
    /// `topology.build` seconds.
    pub build_s: f64,
    /// `workload.generate` seconds.
    pub generate_s: f64,
    /// `net.schedule` seconds.
    pub schedule_s: f64,
    /// Build start to schedule end, seconds.
    pub setup_s: f64,
    /// `sim.run` seconds.
    pub sim_s: f64,
    /// `stats.collate` seconds.
    pub collate_s: f64,
    /// First run call to collated FCT breakdown, seconds.
    pub run_s: f64,
    /// Events processed (`Network::steps`).
    pub steps: u64,
    /// Simulated time of the last event.
    pub end: SimTime,
    /// Engine counters after the run.
    pub perf: PerfCounters,
    /// How the flows ended.
    pub outcome: Outcome,
    /// Digest of records and engine-independent counters.
    pub digest: u64,
    /// Host ns per event of every non-empty slice (sliced runs only).
    pub slice_ns_per_event: Vec<f64>,
}

/// Build, schedule, run and collate one simulation of `cfg` at `seed`
/// with `sub` attached, recording spans under run id `run`. Returns the
/// measurements and the subscriber, or the first failed check.
pub fn simulate<S: ShardSubscriber>(
    cfg: &Config,
    seed: u64,
    sub: S,
    drive: Drive,
    spans: &mut Spans,
    run: u32,
) -> Result<(Sim, S), String> {
    let root = spans.open("bench.simulation", None, run);

    let build = spans.open("topology.build", Some(root), run);
    let topo = cfg.topology(seed, sub);
    spans.close(build);
    let nodes = topo.net.node_count() as u64;
    let ports = topo.ports() as u64;
    let (mut net, hosts, plan) = (topo.net, topo.hosts, topo.plan);

    let generate = spans.open("workload.generate", Some(root), run);
    let flows = cfg.generate(seed, &hosts);
    spans.close(generate);

    let schedule = spans.open("net.schedule", Some(root), run);
    for (at, cmd) in &flows {
        net.schedule_flow(*at, cmd.clone());
    }
    spans.close(schedule);

    let sim_run = spans.open("sim.run", Some(root), run);
    match drive {
        Drive::Serial => {
            net.run_until_idle();
        }
        Drive::Sharded => {
            let plan = plan.as_ref().ok_or("workload has no shard plan")?;
            net.run_sharded_until_idle(plan);
        }
        Drive::Sliced(end) => sliced(&mut net, end, flows.len(), spans, sim_run, run),
    }
    spans.close(sim_run);

    let collate = spans.open("stats.collate", Some(root), run);
    let fct = FctBreakdown::from_records(net.records());
    black_box(fct);
    spans.close(collate);
    spans.close(root);

    let outcome = check_records(&flows, net.records())?;
    let perf = net.perf();
    let steps = net.steps();
    let digest = sim_digest(net.records(), steps, &perf);
    let slice_ns_per_event = spans
        .all()
        .iter()
        .filter(|s| s.parent == Some(sim_run) && s.name == "sim.slice")
        .filter_map(|s| {
            let c = s.counts?;
            (c.events > 0).then(|| (s.end - s.start) as f64 / c.events as f64)
        })
        .collect();
    let secs = |id| spans.get(id).secs();
    let sim = Sim {
        flows: flows.len() as u64,
        offered_bytes: offered_bytes(&flows),
        nodes,
        ports,
        build_s: secs(build),
        generate_s: secs(generate),
        schedule_s: secs(schedule),
        setup_s: (spans.get(schedule).end - spans.get(build).start) as f64 * 1e-9,
        sim_s: secs(sim_run),
        collate_s: secs(collate),
        run_s: (spans.get(collate).end - spans.get(sim_run).start) as f64 * 1e-9,
        steps,
        end: net.now(),
        perf,
        outcome,
        digest,
        slice_ns_per_event,
    };
    Ok((sim, net.into_subscriber()))
}

/// Drive `net` in `end / SLICES` steps of simulated time until every one
/// of `n_flows` flows has a record (or [`SLICE_LIMIT`] past `end`), one
/// `sim.slice` span each, then drain the remaining timers under
/// `sim.drain`.
fn sliced<S: ShardSubscriber>(
    net: &mut Network<S>,
    end: SimTime,
    n_flows: usize,
    spans: &mut Spans,
    parent: usize,
    run: u32,
) {
    let width = (end.as_nanos() / SLICES).max(1);
    let limit = end.as_nanos() + SLICE_LIMIT.as_nanos();
    let mut deadline = 0u64;
    while net.records().len() < n_flows && deadline < limit {
        deadline += width;
        let (steps0, p0) = (net.steps(), net.perf());
        let id = spans.open("sim.slice", Some(parent), run);
        net.run_until(SimTime::from_nanos(deadline));
        spans.close(id);
        let p1 = net.perf();
        spans.set_counts(
            id,
            SliceCounts {
                events: net.steps() - steps0,
                hops: p1.packets_forwarded - p0.packets_forwarded,
                timer_fires: p1.timers_fired - p0.timers_fired,
            },
        );
    }
    let id = spans.open("sim.drain", Some(parent), run);
    net.run_until_idle();
    spans.close(id);
}
