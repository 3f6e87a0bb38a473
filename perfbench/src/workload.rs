//! The benchmark's two workloads, built only from the layers' public
//! functions: a topology builder from `ecnsharp_net::topology`, flows from
//! `TrafficSpec::generate` / `IncastSpec::generate`, and
//! `Network::schedule_flow`.
//!
//! Every workload runs ECN♯ on every switch egress port, DCTCP endpoints,
//! 10 Gbps links and 3× base-RTT variation (§5.3's 80–240 µs). The seed
//! drives the network's dice and every workload draw; the same seed gives
//! the same flows.

use ecnsharp_aqm::{params::LAMBDA_DCTCP, DropTail};
use ecnsharp_core::{EcnSharp, EcnSharpConfig};
use ecnsharp_net::topology::{leaf_spine_with_subscriber, star_with_subscriber};
use ecnsharp_net::{FlowCmd, Network, NodeId, PortConfig, ShardPlan, ShardSubscriber};
use ecnsharp_sim::{Duration, Rate, Rng, SimTime};
use ecnsharp_transport::{TcpConfig, TcpStack};
use ecnsharp_workload::{dists, IncastSpec, Pattern, RttVariation, TrafficSpec};

/// Link rate of every host and fabric link.
pub const LINK_GBPS: u64 = 10;
/// Host NIC buffer: deep, drop-tail; queueing under study is at switches.
const NIC_BUFFER: u64 = 4_000_000;

/// Offered bytes per `leafspine_websearch` run (~600 web-search flows,
/// mean ≈ 1.6 MB). Enough that nearly every host's NIC queue fills at
/// some point, so peak memory stops depending on which hosts drew the
/// large flows: at 500 MB it swung 57–74 MB across seeds, at 1 GB it
/// stays within 77–81 MB.
const LEAFSPINE_BYTES: u64 = 1_000_000_000;
/// Query bursts per `incast_churn` run.
const INCAST_BURSTS: u64 = 50;
/// Responses per query burst (§5.4's widest fan-in).
const INCAST_FANOUT: usize = 200;
/// Gap between bursts: a mean burst (200 × 31.5 KB) drains in ~5 ms at
/// 10 Gbps, so 8 ms keeps the receiver's mean load near 0.63.
const INCAST_SPACING: Duration = Duration::from_millis(8);
/// Flows generated per `TrafficSpec::generate` call.
const CHUNK: usize = 256;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9's 8×8×16 leaf-spine, all-to-all web-search at load 0.5.
    LeafspineWebsearch,
    /// 33-host star receiving repeated 200-way query bursts.
    IncastChurn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::LeafspineWebsearch, Workload::IncastChurn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LeafspineWebsearch => "leafspine_websearch",
            Workload::IncastChurn => "incast_churn",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shard threads of the traced run's shard-engine comparison (1 = no
    /// comparison). Every end-to-end run is serial; the leaf-spine's
    /// per-leaf cut is where the shard exchange and barrier get measured.
    pub fn shards(self) -> u32 {
        match self {
            Workload::LeafspineWebsearch => 2,
            Workload::IncastChurn => 1,
        }
    }

    /// Buffer of every switch egress port: the testbed's 1 MB, except a
    /// shallow switch's 300 KB per-port share under incast. With 1 MB, ECN♯
    /// absorbs a 200-way burst's initial windows (~900 KB) without a drop,
    /// and no RTO ever fires; 300 KB sits at ECN♯'s instantaneous
    /// threshold (p90 RTT × 10 Gbps ≈ 290 KB), so bursts overflow it.
    fn switch_buffer(self) -> u64 {
        match self {
            Workload::LeafspineWebsearch => 1_000_000,
            Workload::IncastChurn => 300_000,
        }
    }

    /// Propagation legs per minimum RTT (the topology realizes the RTT
    /// model's minimum physically; flows add the rest as netem delay).
    fn legs(self) -> u64 {
        match self {
            Workload::LeafspineWebsearch => 8,
            Workload::IncastChurn => 4,
        }
    }
}

/// Seed-independent configuration of a workload, derived once per process
/// outside every timed phase (an operator derives thresholds once, not per
/// run).
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    rtt: RttVariation,
    ecn: EcnSharpConfig,
    link_delay: Duration,
}

impl Config {
    /// ECN♯ thresholds follow the paper's rule of thumb: `ins_target` and
    /// `pst_interval` at the p90 base RTT, `pst_target` at λ_DCTCP × mean.
    pub fn new(workload: Workload) -> Config {
        let rtt = RttVariation::sim_3x();
        let s = rtt.stats();
        let ecn = EcnSharpConfig::new(s.p90, s.mean.mul_f64(LAMBDA_DCTCP), s.p90);
        let link_delay = Duration::from_nanos(rtt.min().as_nanos() / workload.legs());
        Config {
            workload,
            rtt,
            ecn,
            link_delay,
        }
    }

    /// Build the workload's topology with `sub` attached from the first
    /// event. Routes are computed; no flow is scheduled yet.
    pub fn topology<S: ShardSubscriber>(&self, seed: u64, sub: S) -> Topo<S> {
        let rate = Rate::from_gbps(LINK_GBPS);
        let agent = |_| TcpStack::boxed(TcpConfig::dctcp());
        let nic = || PortConfig::fifo(NIC_BUFFER, Box::new(DropTail::new()));
        let ecn = self.ecn;
        let buffer = self.workload.switch_buffer();
        let switch = move || PortConfig::fifo(buffer, Box::new(EcnSharp::new(ecn)));
        let delay = self.link_delay;
        match self.workload {
            Workload::LeafspineWebsearch => {
                let ls = leaf_spine_with_subscriber(
                    seed, 8, 8, 16, rate, rate, delay, agent, nic, switch, sub,
                );
                let plan = ls.shard_plan(self.workload.shards());
                Topo {
                    net: ls.net,
                    hosts: ls.hosts,
                    plan: Some(plan),
                }
            }
            Workload::IncastChurn => {
                let s = star_with_subscriber(seed, 33, rate, delay, agent, nic, switch, sub);
                Topo {
                    net: s.net,
                    hosts: s.hosts,
                    plan: None,
                }
            }
        }
    }

    /// Generate the workload's flows over `hosts` (as built by
    /// [`Config::topology`]). Flow ids run `1..=n`; arrivals are sorted.
    pub fn generate(&self, seed: u64, hosts: &[NodeId]) -> Vec<(SimTime, FlowCmd)> {
        let mut rng = Rng::seed_from_u64(seed ^ 0xBE4C_4AA7);
        match self.workload {
            Workload::LeafspineWebsearch => self.all_to_all(hosts, &mut rng),
            Workload::IncastChurn => self.incast(hosts, &mut rng),
        }
    }

    /// Poisson arrivals of web-search flows between random distinct hosts
    /// at load 0.5 of every host link, until [`LEAFSPINE_BYTES`] are
    /// offered. A byte budget rather than a flow count keeps the work per
    /// run within about 1% across seeds despite the heavy-tailed sizes.
    fn all_to_all(&self, hosts: &[NodeId], rng: &mut Rng) -> Vec<(SimTime, FlowCmd)> {
        let mut spec = TrafficSpec {
            cdf: dists::web_search(),
            load: 0.5,
            // Load is per edge link: every host sources flows at `load` of
            // its uplink, so the aggregate arrival process runs against
            // the sum of the host links.
            bottleneck: Rate::from_gbps(LINK_GBPS * hosts.len() as u64),
            pattern: Pattern::AllToAll {
                hosts: hosts.to_vec(),
            },
            rtt: self.rtt,
            class: 0,
            start: SimTime::ZERO,
        };
        let mut out: Vec<(SimTime, FlowCmd)> = Vec::new();
        let mut offered = 0u64;
        while offered < LEAFSPINE_BYTES {
            let chunk = spec.generate(CHUNK, 1 + out.len() as u64, rng);
            for (t, cmd) in chunk {
                if offered >= LEAFSPINE_BYTES {
                    break;
                }
                offered += cmd.size;
                spec.start = t;
                out.push((t, cmd));
            }
        }
        out
    }

    /// [`INCAST_BURSTS`] query bursts into the star's last host, each
    /// drawing its 200 responders round-robin from the other 32.
    fn incast(&self, hosts: &[NodeId], rng: &mut Rng) -> Vec<(SimTime, FlowCmd)> {
        let (receiver, senders) = hosts.split_last().expect("star has hosts");
        let mut out = Vec::with_capacity(INCAST_BURSTS as usize * INCAST_FANOUT);
        for b in 0..INCAST_BURSTS {
            let at = SimTime::from_nanos(INCAST_SPACING.as_nanos() * (b + 1));
            let spec = IncastSpec::paper(senders.to_vec(), *receiver, INCAST_FANOUT, at);
            let first = 1 + out.len() as u64;
            for (t, mut cmd) in spec.generate(first, rng) {
                cmd.extra_delay = self.extra_delay(rng);
                out.push((t, cmd));
            }
        }
        out
    }

    /// One flow's extra base RTT over the topology's minimum.
    fn extra_delay(&self, rng: &mut Rng) -> Duration {
        self.rtt.sample(rng).saturating_sub(self.rtt.min())
    }
}

/// A built topology.
pub struct Topo<S: ShardSubscriber> {
    /// The network, routes computed.
    pub net: Network<S>,
    /// Hosts in builder order; for the star the last one is the receiver.
    pub hosts: Vec<NodeId>,
    /// The shard plan for the shard-engine comparison, if the workload
    /// has one.
    pub plan: Option<ShardPlan>,
}

impl<S: ShardSubscriber> Topo<S> {
    /// Egress ports over all nodes.
    pub fn ports(&self) -> usize {
        (0..self.net.node_count())
            .map(|n| self.net.port_count(NodeId(n)))
            .sum()
    }
}

/// Total bytes of `flows`.
pub fn offered_bytes(flows: &[(SimTime, FlowCmd)]) -> u64 {
    flows.iter().map(|(_, c)| c.size).sum()
}
