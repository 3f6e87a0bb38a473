//! Cache-level host-path pressure: the benches that motivated (and now
//! guard) the packed `Packet` layout and the inline per-port FIFO.
//!
//! - `leaf_spine_working_set` is a fig9-shaped 2x2x4 leaf-spine run —
//!   the smallest workload whose live working set (per-port rings, the
//!   two-level calendar, per-flow transport state) outgrows L2, so it is
//!   where scattered per-port allocations actually cost.
//! - `packet_clone_churn` prices raw `Packet` copy/mutate bandwidth: the
//!   engine clones a packet on every hop (enqueue into a ring slot), so
//!   bytes-per-packet is a first-order term of forwarding throughput.
//! - `port_ring_churn_40k_fifo` runs an enqueue/drain schedule through
//!   one port's inline `VecDeque` FIFO of one-cache-line slots — the
//!   queue every switch and host port uses.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ecnsharp_aqm::{DctcpRed, DropTail};
use ecnsharp_experiments::{Scheme, SchemeParams};
use ecnsharp_net::topology::leaf_spine;
use ecnsharp_net::{Ecn, FlowId, Network, NodeId, Packet, PortConfig, SpillMeter};
use ecnsharp_sim::{Duration, Rate, Rng, SimTime};
use ecnsharp_transport::{TcpConfig, TcpStack};
use ecnsharp_workload::{dists, Pattern, RttVariation, TrafficSpec};
use std::hint::black_box;

const FLOWS: u64 = 150;
const SEED: u64 = 53;

/// Fig9's quick-scale leaf-spine (2 spines x 2 leaves x 4 hosts, ECN#
/// fabric, DCTCP endpoints, web-search all-to-all at 60% load), built and
/// scheduled in setup so the timed region is exactly the run phase.
fn leaf_spine_setup() -> Network {
    let rtt = RttVariation::sim_3x();
    let rate = Rate::from_gbps(10);
    let params = SchemeParams::derive(&rtt, rate);
    let scheme = Scheme::EcnSharp(None);
    let delay = Duration::from_nanos(rtt.min().as_nanos() / 12);
    let topo = leaf_spine(
        SEED,
        2,
        2,
        4,
        rate,
        rate,
        delay,
        |_| TcpStack::boxed(TcpConfig::dctcp()),
        || PortConfig::fifo(4_000_000, Box::new(DropTail::new())),
        || params.port(&scheme, 200_000, 0xFA7),
    );
    let spec = TrafficSpec {
        cdf: dists::web_search(),
        load: 0.6,
        bottleneck: rate,
        pattern: Pattern::AllToAll {
            hosts: topo.hosts.clone(),
        },
        rtt,
        class: 0,
        start: SimTime::ZERO,
    };
    let n_hosts = topo.hosts.len();
    let mut rng = Rng::seed_from_u64(SEED ^ 0x1EAF);
    let mean_gap = spec.mean_interarrival() / n_hosts as u64;
    let mut t = SimTime::ZERO;
    let mut net = topo.net;
    for f in 0..FLOWS {
        t += rng.exp_duration(mean_gap);
        let mut cmds = spec.generate(1, 1 + f, &mut rng);
        let (_, mut cmd) = cmds.pop().expect("one command per call");
        cmd.flow = FlowId(1 + f);
        net.schedule_flow(t, cmd);
    }
    net
}

fn bench_leaf_spine_working_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_pressure");
    g.sample_size(10);
    g.bench_function("leaf_spine_working_set", |b| {
        b.iter_batched(
            leaf_spine_setup,
            |mut net| {
                net.run_until_idle();
                black_box(net.steps())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_packet_clone_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_pressure");
    let n = 65_536u64;
    g.throughput(Throughput::Elements(n));
    // Clone + mutate + read back a packet working set several L2s wide:
    // the per-hop copy pattern of the forwarding path, isolated.
    g.bench_function("packet_clone_churn_64k", |b| {
        let pkts: Vec<Packet> = (0..n)
            .map(|i| {
                let mut p = Packet::data(FlowId(i % 512), NodeId(0), NodeId(1), i * 1_460, 1_460);
                p.set_ecn(Ecn::Ect);
                p
            })
            .collect();
        b.iter_batched(
            || pkts.clone(),
            |src| {
                let mut marked = 0u64;
                let mut copies: Vec<Packet> = Vec::with_capacity(src.len());
                for (i, p) in src.iter().enumerate() {
                    let mut q = p.clone();
                    if i % 7 == 0 {
                        q.set_ecn(Ecn::Ce);
                    }
                    q.set_class((i % 8) as u8);
                    marked += u64::from(q.ecn().is_ce());
                    copies.push(q);
                }
                let sum: u64 = copies.iter().map(|p| p.seq() + p.payload()).sum();
                black_box((marked, sum))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Drive one egress port through `n` enqueue/drain cycles (the
/// `telemetry_noop` schedule, minus the subscriber variable).
fn ring_churn(port: &mut ecnsharp_net::EgressPort, meter: &mut SpillMeter, n: u64) -> u64 {
    let (src, dst) = (NodeId(0), NodeId(1));
    let mut now = SimTime::ZERO;
    let mut popped = 0u64;
    let mut sub = ecnsharp_net::NoopSubscriber;
    for i in 0..n {
        port.bench_enqueue(
            now,
            Packet::data(FlowId(1), src, dst, i * 1_500, 1_500),
            meter,
            &mut sub,
        );
        if i % 8 == 7 {
            while let Some((_, tx)) = port.bench_next_tx(now, || 0.5, meter, &mut sub) {
                now += tx;
                popped += 1;
            }
        }
        now += Duration::from_nanos(100);
    }
    while let Some((_, tx)) = port.bench_next_tx(now, || 0.5, meter, &mut sub) {
        now += tx;
        popped += 1;
    }
    popped
}

fn bench_port_ring_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_pressure");
    g.sample_size(40);
    let n = 40_000u64;
    g.throughput(Throughput::Elements(n));
    let cfg = || PortConfig::fifo(1_000_000, Box::new(DctcpRed::with_threshold(65_000)));
    g.bench_function("port_ring_churn_40k_fifo", |b| {
        b.iter_batched(
            || ecnsharp_net::port::bench_port(cfg()),
            |mut port| {
                let mut meter = SpillMeter::new();
                black_box(ring_churn(&mut port, &mut meter, black_box(n)))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_leaf_spine_working_set,
    bench_packet_clone_churn,
    bench_port_ring_churn
);
criterion_main!(benches);
