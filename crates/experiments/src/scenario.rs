//! Scenario values and runners for the paper's experiment shapes.
//!
//! Every FCT experiment is one [`FctScenario`] value — fabric, traffic,
//! AQM scheme and an optional fault set — run by [`try_run`] under a
//! [`RunOpts`] (shard count, supervision, livelock drill, subscriber).
//! The incast microscope ([`run_incast_micro`]) and the DWRR experiment
//! ([`run_dwrr`]) keep their own runners: they drive the clock in
//! windows and sample queues, which an FCT run does not.

use crate::scheme::{Scheme, SchemeParams};
use ecnsharp_aqm::DropTail;
use ecnsharp_net::topology::{
    fat_tree_with_subscriber, leaf_spine_with_subscriber, star, star_with_subscriber, Star,
};
use ecnsharp_net::{
    FaultPlan, FlowCmd, FlowId, GilbertElliott, Network, NodeId, PerfCounters, PortConfig,
    PortStats, ShardPlan, ShardSubscriber, SimError, Subscriber, Supervision,
};
use ecnsharp_sched::Dwrr;
use ecnsharp_sim::{Duration, Rate, Rng, SimTime};
use ecnsharp_stats::{FctBreakdown, QueueSummary};
use ecnsharp_transport::{TcpConfig, TcpStack};
use ecnsharp_workload::{IncastSpec, Pattern, PiecewiseCdf, RttVariation, TrafficSpec};

/// The switch fabric an FCT scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// The 8-host testbed (§5.2): 7 senders → 1 receiver through one
    /// switch. Always runs serial: the star has no natural shard cut.
    Star,
    /// The §5.3 leaf-spine fabric, every leaf wired to every spine, with
    /// all-to-all traffic over ECMP. Shards cut per leaf.
    LeafSpine {
        /// Spine switches.
        spines: usize,
        /// Leaf switches.
        leaves: usize,
        /// Hosts under each leaf.
        hosts_per_leaf: usize,
    },
    /// A k-ary fat-tree ([`ecnsharp_net::topology::fat_tree`]) with
    /// all-to-all traffic — the datacenter-scale shape the sharded engine
    /// exists for (k=16 is 1024 hosts). Shards cut per pod.
    FatTree {
        /// Ports per switch (even).
        k: usize,
    },
}

/// Faults injected into a chaos-sweep run. Fully deterministic per seed:
/// faults are scheduled through the same event queue as traffic and the
/// burst-loss process draws from each port's seeded dice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Faults {
    /// Mean rate of a Gilbert–Elliott burst-loss process (mean burst 8
    /// packets) on every switch egress; `0.0` injects none.
    pub mean_loss: f64,
    /// When set, the fabric's first switch link — leaf0–spine0, edge0–agg0,
    /// or on the star the switch's link to host 0 — flaps with this period
    /// (50% duty cycle) for the first 20 ms.
    pub flap_period: Option<Duration>,
}

/// One FCT experiment: where it runs, what it carries, which scheme marks.
#[derive(Debug, Clone)]
pub struct FctScenario {
    /// RNG seed (workload + network dice).
    pub seed: u64,
    /// Scheme installed on every switch egress port.
    pub scheme: Scheme,
    /// Link rate (10 Gbps everywhere in the paper).
    pub rate: Rate,
    /// Per-port buffer.
    pub buffer: u64,
    /// RTT-variation model; also determines link propagation delays (the
    /// model's minimum is realized physically).
    pub rtt: RttVariation,
    /// Flow-size distribution.
    pub cdf: PiecewiseCdf,
    /// Target load: of the receiver's link on the star, of every host's
    /// edge link under the all-to-all traffic of the other fabrics.
    pub load: f64,
    /// Flows to run.
    pub n_flows: usize,
    /// The fabric the flows cross.
    pub fabric: Fabric,
    /// Injected faults, if any.
    pub faults: Option<Faults>,
}

impl FctScenario {
    /// The paper's testbed defaults (§5.2): the 8-host star, 10 Gbps, 3×
    /// RTT variation, 1 MB port buffers.
    pub fn testbed(
        scheme: Scheme,
        cdf: PiecewiseCdf,
        load: f64,
        n_flows: usize,
        seed: u64,
    ) -> Self {
        FctScenario {
            seed,
            scheme,
            rate: Rate::from_gbps(10),
            buffer: 1_000_000,
            rtt: RttVariation::paper_3x(),
            cdf,
            load,
            n_flows,
            fabric: Fabric::Star,
            faults: None,
        }
    }

    /// One point of the chaos sweep: the small leaf-spine fabric (2×2×4,
    /// simulation RTT variation) under web-search traffic at 50% load,
    /// with `faults` injected.
    pub fn chaos(scheme: Scheme, faults: Faults, n_flows: usize, seed: u64) -> Self {
        FctScenario {
            rtt: RttVariation::sim_3x(),
            fabric: Fabric::LeafSpine {
                spines: 2,
                leaves: 2,
                hosts_per_leaf: 4,
            },
            faults: Some(faults),
            ..FctScenario::testbed(
                scheme,
                ecnsharp_workload::dists::web_search(),
                0.5,
                n_flows,
                seed,
            )
        }
    }

    fn params(&self) -> SchemeParams {
        SchemeParams::derive(&self.rtt, self.rate)
    }

    /// `(traffic RNG salt, switch-port dice salt)` of each run shape. The
    /// golden fixtures depend on these values, so they are fixed per
    /// shape rather than settable.
    fn salts(&self) -> (u64, u64) {
        match (self.faults, self.fabric) {
            (Some(_), _) => (0xC4A05, 0xC4A0),
            (None, Fabric::Star) => (0x5EED, 0xEC0),
            (None, Fabric::LeafSpine { .. }) => (0x1EAF, 0xEC1),
            (None, Fabric::FatTree { .. }) => (0xFA77, 0xFA7),
        }
    }

    /// Build the scenario's network with `sub` attached: the fabric, its
    /// fault plan and every flow, ready to run. `shards` is clamped to the
    /// fabric's natural ceiling (leaf count, pod count; 1 on the star), so
    /// `ECNSHARP_SHARDS=8` works across a sweep of differently-sized
    /// fabrics; 0/1 means serial. [`try_run`] runs what this builds.
    pub fn build<S: Subscriber>(&self, shards: u32, sub: S) -> Built<S> {
        let (traffic_salt, port_salt) = self.salts();
        let params = self.params();
        let (scheme, buffer, faults) = (self.scheme.clone(), self.buffer, self.faults);
        let switch_port = move || {
            let mut p = params.port(&scheme, buffer, port_salt);
            if let Some(f) = faults.filter(|f| f.mean_loss > 0.0) {
                p = p.with_ge(GilbertElliott::from_mean_loss(f.mean_loss, 8.0));
            }
            p
        };
        let agent = |_| TcpStack::boxed(endpoint_tcp());
        // Propagation legs per RTT: host→switch→host is 4 on the star, 8
        // through a spine, 12 through a fat-tree core.
        let delay = |legs: u64| Duration::from_nanos(self.rtt.min().as_nanos() / legs);
        let clamp = |max: usize| shards.clamp(1, (max as u32).max(1));
        let (mut net, pattern, flap_link, plan, bottleneck) = match self.fabric {
            Fabric::Star => {
                let t = star_with_subscriber(
                    self.seed,
                    8,
                    self.rate,
                    delay(4),
                    agent,
                    nic_port,
                    switch_port,
                    sub,
                );
                let receiver = t.hosts[7];
                let port = t
                    .net
                    .port_towards(t.switch, receiver)
                    .expect("receiver port");
                let senders = t.hosts[..7].to_vec();
                let pattern = Pattern::ManyToOne { senders, receiver };
                (
                    t.net,
                    pattern,
                    (t.switch, t.hosts[0]),
                    None,
                    Some((t.switch, port)),
                )
            }
            Fabric::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            } => {
                let t = leaf_spine_with_subscriber(
                    self.seed,
                    spines,
                    leaves,
                    hosts_per_leaf,
                    self.rate,
                    self.rate,
                    delay(8),
                    agent,
                    nic_port,
                    switch_port,
                    sub,
                );
                let n = clamp(leaves);
                let plan = (n >= 2).then(|| t.shard_plan(n));
                let pattern = Pattern::AllToAll {
                    hosts: t.hosts.clone(),
                };
                (t.net, pattern, (t.leaves[0], t.spines[0]), plan, None)
            }
            Fabric::FatTree { k } => {
                let t = fat_tree_with_subscriber(
                    self.seed,
                    k,
                    self.rate,
                    self.rate,
                    delay(12),
                    agent,
                    nic_port,
                    switch_port,
                    sub,
                );
                let n = clamp(k);
                let plan = (n >= 2).then(|| t.shard_plan(n));
                let pattern = Pattern::AllToAll {
                    hosts: t.hosts.clone(),
                };
                (t.net, pattern, (t.edges[0], t.aggs[0]), plan, None)
            }
        };
        if let Some(period) = self.faults.and_then(|f| f.flap_period) {
            let (a, b) = flap_link;
            net.install_fault_plan(FaultPlan::new().flap(
                a,
                b,
                SimTime::from_micros(50),
                period,
                period / 2,
                SimTime::from_millis(20),
            ));
        }
        let spec = TrafficSpec {
            cdf: self.cdf.clone(),
            load: self.load,
            bottleneck: self.rate,
            pattern,
            rtt: self.rtt,
            class: 0,
            start: SimTime::ZERO,
        };
        let mut rng = Rng::seed_from_u64(self.seed ^ traffic_salt);
        let flows = match &spec.pattern {
            Pattern::AllToAll { hosts } => all_to_all(&spec, hosts.len(), self.n_flows, &mut rng),
            _ => spec.generate(self.n_flows, 1, &mut rng),
        };
        for (at, cmd) in flows {
            net.schedule_flow(at, cmd);
        }
        Built {
            net,
            plan,
            bottleneck,
        }
    }
}

/// All-to-all arrivals: the load is per edge link, and every host sources
/// flows at `load` of its uplink, so the aggregate Poisson process runs at
/// `n_hosts` × the single-link rate. Flow ids are `1..=n_flows`.
fn all_to_all(
    spec: &TrafficSpec,
    n_hosts: usize,
    n_flows: usize,
    rng: &mut Rng,
) -> Vec<(SimTime, FlowCmd)> {
    let mean_gap = spec.mean_interarrival() / n_hosts as u64;
    let mut t = SimTime::ZERO;
    (0..n_flows)
        .map(|k| {
            t += rng.exp_duration(mean_gap);
            let (_, mut cmd) = spec.generate(1, 1 + k as u64, rng).pop().expect("one");
            cmd.flow = FlowId(1 + k as u64);
            (t, cmd)
        })
        .collect()
}

/// A scenario's network, built and loaded with its flows (see
/// [`FctScenario::build`]).
pub struct Built<S: Subscriber> {
    /// The network, flows and faults scheduled.
    pub net: Network<S>,
    /// The shard plan after clamping; `None` runs serial.
    pub plan: Option<ShardPlan>,
    /// Star only: the switch and its port towards the receiver.
    pub bottleneck: Option<(NodeId, usize)>,
}

/// How to run a scenario: shard count, supervision, the livelock drill
/// and the telemetry subscriber.
///
/// [`RunOpts::serial`] accepts any [`Subscriber`]; [`RunOpts::sharded`]
/// forks the subscriber per shard and merges deterministically, so it
/// requires [`ShardSubscriber`] — order-sensitive sinks are rejected at
/// compile time rather than silently reordered.
pub struct RunOpts<S: Subscriber> {
    shards: u32,
    drive: fn(&mut Network<S>, Option<&ShardPlan>) -> Result<SimTime, SimError>,
    sub: S,
    /// Watchdogs and memory guards (disarmed by default). A tripped guard
    /// comes back as a structured [`SimError`] instead of a panic or
    /// hang; armed but untriggered, the run is byte-identical to a
    /// disarmed one (the supervision suite pins this).
    pub supervision: Supervision,
    /// Schedule a self-rescheduling zero-delay drill event early in the
    /// run so the progress guard must trip — the `ECNSHARP_INJECT_LIVELOCK`
    /// drill leg. Only with the guard armed.
    pub inject_livelock: bool,
}

impl<S: Subscriber> RunOpts<S> {
    /// Run on the serial event loop with `sub` attached.
    pub fn serial(sub: S) -> Self {
        RunOpts {
            shards: 1,
            drive: |net, _| net.try_run_until_idle(),
            supervision: Supervision::default(),
            inject_livelock: false,
            sub,
        }
    }
}

impl<S: ShardSubscriber> RunOpts<S> {
    /// Run on the conservative-PDES engine over up to `shards` shards
    /// (clamped per fabric; 0/1 means serial). Byte-identical to the
    /// serial loop — the shard-equivalence suite pins it — so callers
    /// treat the count purely as a wall-clock knob.
    pub fn sharded(sub: S, shards: u32) -> Self {
        RunOpts {
            shards,
            drive: |net, plan| match plan {
                Some(p) => net.try_run_sharded_until_idle(p),
                None => net.try_run_until_idle(),
            },
            ..RunOpts::serial(sub)
        }
    }
}

impl Default for RunOpts<ecnsharp_net::NoopSubscriber> {
    /// Serial, disarmed, no subscriber.
    fn default() -> Self {
        RunOpts::serial(ecnsharp_net::NoopSubscriber)
    }
}

/// What one FCT run produced.
#[derive(Debug)]
pub struct FctRun<S> {
    /// FCT breakdown (failed flows counted, excluded from timings).
    pub fct: FctBreakdown,
    /// Star only: the bottleneck port's drop/mark statistics.
    pub bottleneck: Option<PortStats>,
    /// The run's engine counters (`events_*`, `timers_*` and
    /// `peak_pending` can differ between serial and sharded runs; see
    /// [`Network::perf`]).
    pub perf: PerfCounters,
    /// Simulated time at which the run went idle.
    pub end: SimTime,
    /// The subscriber, handed back after the run.
    pub subscriber: S,
}

/// Run `sc` to completion under `opts` — the one entry point of every FCT
/// experiment (Figs. 2–3 and 6–9, and the chaos sweep).
///
/// A tripped guard returns its [`SimError`]; with supervision disarmed
/// the only possible error is a worker panic on the sharded engine.
pub fn try_run<S: Subscriber>(sc: &FctScenario, opts: RunOpts<S>) -> Result<FctRun<S>, SimError> {
    let Built {
        mut net,
        plan,
        bottleneck,
    } = sc.build(opts.shards, opts.sub);
    net.set_supervision(opts.supervision);
    if opts.inject_livelock {
        net.inject_livelock_at(SimTime::from_micros(10));
    }
    (opts.drive)(&mut net, plan.as_ref())?;
    Ok(FctRun {
        fct: FctBreakdown::from_records(net.records()),
        bottleneck: bottleneck.map(|(node, port)| net.port_stats(node, port)),
        perf: net.perf(),
        end: net.now(),
        subscriber: net.into_subscriber(),
    })
}

/// Host NIC ports: deep FIFO, no AQM (the queueing under study happens at
/// the switch).
fn nic_port() -> PortConfig {
    PortConfig::fifo(4_000_000, Box::new(DropTail::new()))
}

/// Endpoint transport used by every scenario. `ECNSHARP_DELACK` overrides
/// the delayed-ACK count (calibration experiments). The knob is strict
/// (see [`crate::env`]): a set-but-invalid value exits 2 instead of
/// silently running the default configuration.
fn endpoint_tcp() -> TcpConfig {
    let mut cfg = TcpConfig::dctcp();
    if let Some(n) = crate::env::or_exit(crate::env::delack()) {
        cfg.delack_count = n;
    }
    cfg
}

/// Result of the §5.4 incast microscope.
#[derive(Debug, Clone)]
pub struct IncastResult {
    /// Queue occupancy summary over the sampled window.
    pub queue: QueueSummary,
    /// The raw series `(t, bytes, pkts)` for plotting (Fig. 10).
    pub series: Vec<(SimTime, u64, u64)>,
    /// FCT breakdown of the query flows only (Fig. 11).
    pub query_fct: FctBreakdown,
    /// Total drops at the bottleneck during the run.
    pub drops: u64,
    /// Total timeouts suffered by query flows.
    pub query_timeouts: u64,
    /// Average standing queue (packets) in the 5 ms *before* the burst —
    /// the level Fig. 10's flat segments show (paper: ~182 pkts for
    /// RED-Tail vs ~8 for ECN#).
    pub standing_pkts: f64,
    /// The run's engine counters.
    pub perf: PerfCounters,
    /// Simulated time at which the run stopped.
    pub end: SimTime,
}

/// When the microscope's events happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncastTimeline {
    /// The paper's timeline: background from 3.0/3.5 s, burst at 4 s,
    /// horizon 4.6 s (what Figs. 10–11 plot).
    Paper,
    /// Same structure compressed ~5×: background from 0.2/0.25 s, burst at
    /// 0.5 s, horizon 1.0 s. The background flows still converge (hundreds
    /// of RTTs) — used by tests and benches to stay fast.
    Compressed,
}

impl IncastTimeline {
    fn times(self) -> (u64, u64, u64, u64) {
        // (long_start_ms, bg_start_ms, burst_ms, horizon_ms)
        match self {
            IncastTimeline::Paper => (3_000, 3_500, 4_000, 4_600),
            IncastTimeline::Compressed => (200, 250, 500, 1_000),
        }
    }
}

/// The §5.4 microscope: 16 senders → 1 receiver, 2 long-lived small-RTT
/// background flows plus data-mining short flows, and an `fanout`-wide
/// query burst. The queue is sampled for 5 ms before and after the burst.
/// `sub` is attached for the whole run and handed back with the result.
pub fn run_incast_micro<S: Subscriber>(
    scheme: Scheme,
    fanout: usize,
    seed: u64,
    timeline: IncastTimeline,
    sub: S,
) -> (IncastResult, S) {
    let (long_ms, bg_ms, burst_ms, horizon_ms) = timeline.times();
    let rate = Rate::from_gbps(10);
    let rtt = RttVariation::sim_3x();
    let params = SchemeParams::derive(&rtt, rate);
    let buffer = 1_000_000;
    let link_delay = Duration::from_nanos(rtt.min().as_nanos() / 4);
    let mut topo = star_with_subscriber(
        seed,
        17,
        rate,
        link_delay,
        |_| TcpStack::boxed(endpoint_tcp()),
        nic_port,
        || params.port(&scheme, buffer, 0xE5D),
        sub,
    );
    let receiver = topo.hosts[16];
    let senders: Vec<NodeId> = topo.hosts[..16].to_vec();
    let bport = topo
        .net
        .port_towards(topo.switch, receiver)
        .expect("receiver port");

    // Two long-lived background flows with the minimum base RTT — the
    // standing-queue builders the persistent detector must tame.
    for (i, &s) in senders.iter().take(2).enumerate() {
        topo.net.schedule_flow(
            SimTime::from_millis(long_ms),
            FlowCmd {
                flow: FlowId(900_000 + i as u64),
                src: s,
                dst: receiver,
                // Effectively infinite: outlives the run horizon.
                size: 4_000_000_000,
                class: 0,
                extra_delay: Duration::ZERO,
            },
        );
    }
    // Data-mining background at modest load in the surrounding second.
    let spec = TrafficSpec {
        cdf: ecnsharp_workload::dists::data_mining(),
        load: 0.2,
        bottleneck: rate,
        pattern: Pattern::ManyToOne {
            senders: senders.clone(),
            receiver,
        },
        rtt,
        class: 0,
        start: SimTime::from_millis(bg_ms),
    };
    let mut rng = Rng::seed_from_u64(seed ^ 0xBAC6);
    for (at, cmd) in spec.generate(60, 1, &mut rng) {
        topo.net.schedule_flow(at, cmd);
    }
    // The query burst.
    let burst_at = SimTime::from_millis(burst_ms);
    let incast = IncastSpec::paper(senders, receiver, fanout, burst_at);
    let first_query = 1_000_000u64;
    for (at, cmd) in incast.generate(first_query, &mut rng) {
        topo.net.schedule_flow(at, cmd);
    }
    // Fig. 10's 5 ms microscope window, plus a 5 ms pre-roll that shows
    // the standing queue the schemes maintain before the burst.
    topo.net.add_queue_monitor(
        topo.switch,
        bport,
        Duration::from_micros(5),
        burst_at - Duration::from_millis(5),
        burst_at + Duration::from_millis(5),
    );
    topo.net.run_until(SimTime::from_millis(horizon_ms));
    // Stop background cleanly: summarize what completed.
    let records = topo.net.records().to_vec();
    let query: Vec<_> = records
        .iter()
        .filter(|r| r.flow.0 >= first_query)
        .cloned()
        .collect();
    assert!(
        !query.is_empty(),
        "no query flows finished — run window too small"
    );
    let monitor = &topo.net.monitors()[0];
    let pre: Vec<f64> = monitor
        .samples
        .iter()
        .filter(|&&(t, _, _)| t < burst_at)
        .map(|&(_, _, p)| p as f64)
        .collect();
    let standing_pkts = pre.iter().sum::<f64>() / pre.len().max(1) as f64;
    let result = IncastResult {
        standing_pkts,
        queue: QueueSummary::from_monitor(monitor),
        series: monitor.samples.clone(),
        query_fct: FctBreakdown::from_records(&query),
        drops: topo.net.port_stats(topo.switch, bport).total_drops(),
        query_timeouts: query.iter().map(|r| r.timeouts as u64).sum(),
        perf: topo.net.perf(),
        end: topo.net.now(),
    };
    (result, topo.net.into_subscriber())
}

/// Result of the DWRR scheduling experiment (§5.4, Fig. 13).
#[derive(Debug, Clone)]
pub struct DwrrResult {
    /// Goodput (Gbps) per class sampled at `checkpoints` (per window).
    pub goodput: Vec<[f64; 3]>,
    /// Checkpoint times.
    pub checkpoints: Vec<SimTime>,
    /// Short-probe FCT breakdown.
    pub probe_fct: FctBreakdown,
    /// The run's engine counters.
    pub perf: PerfCounters,
    /// Simulated time at which the run stopped.
    pub end: SimTime,
}

/// The Fig. 13 experiment: DWRR with weights 2:1:1 over three service
/// classes; long-lived flows join classes 0/1/2 at 0 s/0.5 s/1.0 s; short
/// probes (3–60 KB) sample latency across classes throughout.
pub fn run_dwrr(scheme: Scheme, seed: u64) -> DwrrResult {
    let rate = Rate::from_gbps(10);
    let rtt = RttVariation::sim_3x();
    let params = SchemeParams::derive(&rtt, rate);
    let link_delay = Duration::from_nanos(rtt.min().as_nanos() / 4);
    // 6 hosts: 3 long-flow senders, 2 probe senders, 1 receiver.
    let scheme2 = scheme.clone();
    let mut topo: Star = star(
        seed,
        6,
        rate,
        link_delay,
        |_| TcpStack::boxed(endpoint_tcp()),
        nic_port,
        move || {
            params
                .port(&scheme2, 1_000_000, 0xD3)
                .with_sched(Box::new(Dwrr::new(&[2, 1, 1], 1_538)))
        },
    );
    let receiver = topo.hosts[5];
    let bport = topo.net.port_towards(topo.switch, receiver).expect("port");

    // Long-lived flows, one per class, staggered.
    for (i, (&s, start_ms)) in topo.hosts[..3].iter().zip([0u64, 500, 1_000]).enumerate() {
        topo.net.schedule_flow(
            SimTime::from_millis(start_ms),
            FlowCmd {
                flow: FlowId(500_000 + i as u64),
                src: s,
                dst: receiver,
                size: 4_000_000_000,
                class: i as u8,
                extra_delay: Duration::ZERO,
            },
        );
    }
    // Short probes: uniform 3-60 KB, random class, Poisson-ish spacing.
    let mut rng = Rng::seed_from_u64(seed ^ 0xD884);
    let first_probe = 700_000u64;
    let mut n_probes = 0;
    let mut t = SimTime::from_millis(100);
    while t < SimTime::from_millis(1_900) {
        t += rng.exp_duration(Duration::from_millis(4));
        let src = topo.hosts[3 + (n_probes % 2) as usize];
        topo.net.schedule_flow(
            t,
            FlowCmd {
                flow: FlowId(first_probe + n_probes),
                src,
                dst: receiver,
                size: rng.range_u64(3_000, 60_001),
                class: (n_probes % 3) as u8,
                extra_delay: rtt.sample(&mut rng).saturating_sub(rtt.min()),
            },
        );
        n_probes += 1;
    }

    // Sample per-class goodput in 100 ms windows over [0, 2 s].
    let mut checkpoints = Vec::new();
    let mut goodput = Vec::new();
    let mut prev = vec![0u64; 3];
    for k in 1..=20u64 {
        let t = SimTime::from_millis(k * 100);
        topo.net.run_until(t);
        let mut tx = topo.net.tx_payload_per_class(topo.switch, bport);
        tx.resize(3, 0);
        let window = 0.1;
        let rates = [
            (tx[0] - prev[0]) as f64 * 8.0 / window / 1e9,
            (tx[1] - prev[1]) as f64 * 8.0 / window / 1e9,
            (tx[2] - prev[2]) as f64 * 8.0 / window / 1e9,
        ];
        prev = tx;
        checkpoints.push(t);
        goodput.push(rates);
    }
    // Let the probes drain (long flows may still be running; stop at 3 s).
    topo.net.run_until(SimTime::from_secs(3));
    let probes: Vec<_> = topo
        .net
        .records()
        .iter()
        .filter(|r| (first_probe..first_probe + n_probes).contains(&r.flow.0))
        .cloned()
        .collect();
    assert!(!probes.is_empty(), "no probes completed");
    DwrrResult {
        goodput,
        checkpoints,
        probe_fct: FctBreakdown::from_records(&probes),
        perf: topo.net.perf(),
        end: topo.net.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnsharp_net::NoopSubscriber;
    use ecnsharp_workload::dists;

    fn run(sc: &FctScenario, shards: u32) -> FctRun<NoopSubscriber> {
        try_run(sc, RunOpts::sharded(NoopSubscriber, shards)).expect("disarmed run")
    }

    #[test]
    fn testbed_star_smoke() {
        let sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.5, 60, 1);
        let r = run(&sc, 1);
        assert_eq!(r.fct.overall.count, 60);
        assert!(r.bottleneck.expect("star bottleneck").enqueued > 0);
        assert!(r.fct.overall.avg > 0.0);
        assert!(r.perf.events_popped > 0);
        assert!(r.end > SimTime::ZERO);
    }

    #[test]
    fn leaf_spine_smoke() {
        let mut sc = FctScenario::testbed(Scheme::DctcpRedTail, dists::web_search(), 0.3, 40, 2);
        sc.fabric = Fabric::LeafSpine {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 4,
        };
        let r = run(&sc, 1);
        assert_eq!(r.fct.overall.count, 40);
        assert!(r.bottleneck.is_none(), "only the star has one bottleneck");
    }

    #[test]
    fn leaf_spine_sharded_matches_serial() {
        let mut sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.3, 30, 5);
        sc.fabric = Fabric::LeafSpine {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 4,
        };
        let serial = run(&sc, 1);
        let sharded = run(&sc, 2);
        assert_eq!(format!("{:?}", serial.fct), format!("{:?}", sharded.fct));
    }

    #[test]
    fn fat_tree_smoke() {
        let mut sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.2, 30, 6);
        sc.fabric = Fabric::FatTree { k: 4 };
        let serial = run(&sc, 1);
        assert_eq!(serial.fct.overall.count, 30);
        let sharded = run(&sc, 4);
        assert_eq!(format!("{:?}", serial.fct), format!("{:?}", sharded.fct));
    }

    #[test]
    fn shard_requests_clamp_to_the_fabric() {
        let mut sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.2, 4, 6);
        assert!(sc.build(8, NoopSubscriber).plan.is_none(), "star is serial");
        sc.fabric = Fabric::LeafSpine {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 2,
        };
        assert!(sc.build(1, NoopSubscriber).plan.is_none());
        let plan = sc.build(8, NoopSubscriber).plan.expect("sharded");
        assert_eq!(plan.shard_count(), 2, "clamped to the leaf count");
    }

    #[test]
    fn chaos_smoke() {
        let faults = Faults {
            mean_loss: 0.01,
            flap_period: Some(Duration::from_micros(200)),
        };
        let sc = FctScenario::chaos(Scheme::EcnSharp(None), faults, 40, 7);
        let r = run(&sc, 1);
        assert_eq!(r.fct.overall.count as u64 + r.fct.failed, 40);
        assert!(r.perf.burst_drops > 0, "1% GE loss must drop something");
    }

    #[test]
    fn faults_apply_to_every_fabric() {
        let faults = Faults {
            mean_loss: 0.02,
            flap_period: Some(Duration::from_micros(200)),
        };
        for fabric in [Fabric::Star, Fabric::FatTree { k: 4 }] {
            let mut sc = FctScenario::chaos(Scheme::EcnSharp(None), faults, 30, 3);
            sc.fabric = fabric;
            let r = run(&sc, 1);
            assert_eq!(r.fct.overall.count as u64 + r.fct.failed, 30, "{fabric:?}");
            assert!(r.perf.burst_drops > 0, "{fabric:?}");
        }
    }

    #[test]
    fn incast_micro_smoke() {
        let (r, _) = run_incast_micro(
            Scheme::EcnSharp(None),
            20,
            3,
            IncastTimeline::Compressed,
            NoopSubscriber,
        );
        assert_eq!(r.query_fct.overall.count, 20);
        assert!(r.queue.samples > 500);
        assert!(r.perf.events_popped > 0);
    }

    #[test]
    fn dwrr_smoke() {
        let r = run_dwrr(Scheme::EcnSharp(None), 4);
        assert_eq!(r.goodput.len(), 20);
        // After 1.2 s all three classes are active: ratios near 2:1:1.
        let late = r.goodput[14];
        assert!(late[0] > late[1] * 1.4, "{late:?}");
        assert!((late[1] / late[2] - 1.0).abs() < 0.4, "{late:?}");
        assert!(r.perf.events_popped > 0 && r.end <= SimTime::from_secs(3));
    }
}
