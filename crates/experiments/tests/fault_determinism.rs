//! The fault-injection acceptance checks: a chaos point (flapping link +
//! 1% Gilbert–Elliott burst loss) replays byte-identically from the same
//! seed, and a permanently-down last hop terminates — flows abort with
//! `Failed` instead of retrying forever.

use ecnsharp_aqm::DropTail;
use ecnsharp_experiments::{try_run, Faults, FctScenario, RunOpts, Scheme};
use ecnsharp_net::topology::dumbbell;
use ecnsharp_net::{FlowCmd, FlowId, FlowOutcome, PortConfig};
use ecnsharp_sim::{Duration, Rate, SimTime};
use ecnsharp_transport::{TcpConfig, TcpStack};

mod common;

#[test]
fn chaos_point_is_replay_identical() {
    let faults = Faults {
        mean_loss: 0.01,
        flap_period: Some(Duration::from_micros(200)),
    };
    let sc = FctScenario::chaos(Scheme::EcnSharp(None), faults, 40, 42);
    let run = || try_run(&sc, RunOpts::default()).expect("disarmed run");
    let a = run();
    let b = run();
    assert_eq!(
        common::ledger_line(&a),
        common::ledger_line(&b),
        "same seed must replay byte-identically under flaps + burst loss"
    );
    assert!(a.perf.burst_drops > 0, "the GE process must actually fire");
    assert_eq!(a.fct.overall.count as u64 + a.fct.failed, 40);
}

#[test]
fn permanently_down_last_hop_fails_flows() {
    let plain = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
    let mut d = dumbbell(
        11,
        Rate::from_gbps(10),
        Rate::from_gbps(10),
        Duration::from_micros(5),
        TcpStack::boxed(TcpConfig::dctcp()),
        TcpStack::boxed(TcpConfig::dctcp()),
        plain,
        plain(),
    );
    // The receiver's last hop goes down before the flow starts and never
    // comes back.
    d.net.set_link_up(d.s2, d.b, false);
    d.net.schedule_flow(
        SimTime::ZERO,
        FlowCmd {
            flow: FlowId(1),
            src: d.a,
            dst: d.b,
            size: 100_000,
            class: 0,
            extra_delay: Duration::ZERO,
        },
    );
    // Terminates: the sender gives up after `max_rto_retries` instead of
    // backing off forever.
    d.net.run_until_idle();
    let recs = d.net.records();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].outcome, FlowOutcome::Failed);
    assert_eq!(recs[0].timeouts, TcpConfig::dctcp().max_rto_retries);
    assert_eq!(d.net.unfinished_flows(), 0);
    let perf = d.net.perf();
    assert_eq!(perf.flows_failed, 1);
    assert!(
        perf.no_route_drops > 0,
        "packets towards the dead hop are counted as no-route discards"
    );
}
