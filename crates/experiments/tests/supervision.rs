//! Run supervision must be an observer, never a participant: with every
//! watchdog and memory guard armed but untriggered, supervised runs are
//! byte-identical to guard-free runs — figure output and fault ledger
//! alike, serial and sharded (the FCT breakdown's `Debug` plus
//! `common::ledger_line`: bit-exact FCT floats plus the `[perf]`
//! mark/drop counters).
//! And each guard must actually fire: a synthetic zero-delay event
//! cycle trips the `ProgressGuard`, a withheld shard window trips the
//! barrier-stall detector, and a 1-event memory budget trips the
//! admission guard. DESIGN.md "Run supervision" carries the contract;
//! these tests pin it.

use ecnsharp_aqm::DropTail;
use ecnsharp_experiments::runner::{supervised_map, PointStatus, SweepConfig};
use ecnsharp_experiments::{try_run, Faults, FctRun, FctScenario, RunOpts, Scheme};
use ecnsharp_net::topology::star;
use ecnsharp_net::{
    FlowCmd, FlowId, MemBreach, MemComponent, Network, NodeId, NoopSubscriber, PortConfig,
    SimError, Supervision,
};
use ecnsharp_sim::{Duration, Rate, SimTime};
use ecnsharp_transport::{TcpConfig, TcpStack};
use std::sync::atomic::{AtomicU32, Ordering};

mod common;

/// A chaos point with `n_flows` flows on `shards` shards under `sup`,
/// optionally with the livelock drill injected.
fn chaos(
    faults: Faults,
    n_flows: usize,
    seed: u64,
    shards: u32,
    sup: Supervision,
    livelock: bool,
) -> Result<FctRun<NoopSubscriber>, SimError> {
    let sc = FctScenario::chaos(Scheme::EcnSharp(None), faults, n_flows, seed);
    let mut opts = RunOpts::sharded(NoopSubscriber, shards);
    opts.supervision = sup;
    opts.inject_livelock = livelock;
    try_run(&sc, opts)
}

/// No injected faults.
const CALM: Faults = Faults {
    mean_loss: 0.0,
    flap_period: None,
};

/// One chaos point under supervision `sup`, rendered to its bit-exact
/// FCT and ledger form (floats print shortest-round-trip, so string
/// equality is bit equality). Queue counters are left out: they are not
/// an output of the run.
fn chaos_row(seed: u64, shards: u32, sup: Supervision) -> Result<String, SimError> {
    let faults = Faults {
        mean_loss: 0.01,
        flap_period: Some(Duration::from_micros(200)),
    };
    chaos(faults, 60, seed, shards, sup, false)
        .map(|r| format!("{:?} {}", r.fct, common::ledger_line(&r)))
}

#[test]
fn armed_untriggered_supervision_is_byte_identical_serial_and_sharded() {
    for shards in [1u32, 2, 4] {
        let bare = chaos_row(0xC0DE, shards, Supervision::default()).expect("unsupervised run");
        let armed = chaos_row(0xC0DE, shards, Supervision::armed()).expect("supervised run");
        assert_eq!(bare, armed, "{shards} shard(s)");
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Arming every guard without tripping any must leave the full
        /// chaos ledger bit-identical across seeds, serial and 2/4-shard
        /// (4 clamps to the chaos topology's 2-leaf ceiling — the
        /// documented sweep behaviour, still a distinct code path).
        #[test]
        fn prop_armed_untriggered_runs_are_byte_identical(
            seed in 0u64..1_000_000,
            shards in 1u32..5,
        ) {
            let bare = chaos_row(seed, shards, Supervision::default())
                .expect("unsupervised run");
            let armed = chaos_row(seed, shards, Supervision::armed())
                .expect("supervised run");
            prop_assert_eq!(bare, armed);
        }
    }
}

#[test]
fn progress_guard_trips_on_zero_delay_event_cycle() {
    let mut sup = Supervision::armed();
    sup.livelock_budget = Some(1_000);
    // `true` schedules the self-rescheduling drill event.
    let err = chaos(CALM, 20, 7, 1, sup, true)
        .expect_err("the zero-delay cycle must trip the progress guard");
    match err {
        SimError::Livelock {
            events_at_instant,
            budget,
            ..
        } => {
            assert_eq!(budget, 1_000);
            assert!(events_at_instant > budget);
        }
        other => panic!("expected Livelock, got {other:?}"),
    }
    assert!(
        !err.retryable(),
        "guard trips reproduce; retrying wastes time"
    );
    assert!(err.to_jsonl().contains("\"type\":\"Livelock\""));
}

#[test]
fn stall_detector_trips_on_withheld_shard_window() {
    let mut sup = Supervision::armed();
    sup.stall_rounds = Some(4);
    sup.inject_stall = true; // every shard skips window processing
    let err = chaos(CALM, 20, 7, 2, sup, false)
        .expect_err("frozen windows must trip the barrier-stall detector");
    match &err {
        SimError::BarrierStall { budget, shards, .. } => {
            assert_eq!(*budget, 4);
            assert_eq!(shards.len(), 2, "one diagnostic per shard");
            assert!(shards[0].shard < shards[1].shard, "diags sorted");
            assert!(shards.iter().any(|d| d.pending > 0));
        }
        other => panic!("expected BarrierStall, got {other:?}"),
    }
    assert!(err.to_jsonl().contains("\"type\":\"BarrierStall\""));
}

#[test]
fn mem_budget_trips_on_one_event_ceiling() {
    let sup = Supervision {
        event_ceiling: Some(1),
        ..Supervision::default()
    };
    let err = chaos_row(7, 1, sup).expect_err("a 1-event budget must trip instantly");
    match err {
        SimError::MemBudgetExceeded { breach, .. } => {
            assert_eq!(breach.component, MemComponent::EventQueue);
            assert_eq!(breach.ceiling, 1);
            assert!(breach.live > 1);
        }
        other => panic!("expected MemBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn mem_budget_trips_sharded_too() {
    let sup = Supervision {
        event_ceiling: Some(1),
        ..Supervision::default()
    };
    let err = chaos_row(7, 2, sup).expect_err("the ceiling is distributed to every shard");
    assert!(
        matches!(err, SimError::MemBudgetExceeded { .. }),
        "got {err:?}"
    );
}

/// A tiny-packet incast at one switch port: 8 DCTCP senders each open 25
/// one-byte flows to host 8 at t = 0. The switch ports are pre-sized for
/// 16 packets (a 20 kB buffer) yet admit 238 minimum-size (84 B) ones, so
/// the port towards host 8 holds far more packets than its slots without
/// a single tail drop. Returns the fallible run's outcome, the network
/// after it and the switch id.
fn tiny_packet_incast(sup: Option<Supervision>) -> (Result<SimTime, SimError>, Network, NodeId) {
    let topo = star(
        3,
        9,
        Rate::from_gbps(10),
        Duration::from_micros(1),
        |_| TcpStack::boxed(TcpConfig::dctcp()),
        || PortConfig::fifo(1_000_000, Box::new(DropTail::new())),
        || PortConfig::fifo(20_000, Box::new(DropTail::new())),
    );
    let mut net = topo.net;
    for f in 0..200u64 {
        net.schedule_flow(
            SimTime::ZERO,
            FlowCmd {
                flow: FlowId(f),
                src: topo.hosts[(f % 8) as usize],
                dst: topo.hosts[8],
                size: 1,
                class: 0,
                extra_delay: Duration::ZERO,
            },
        );
    }
    if let Some(sup) = sup {
        net.set_supervision(sup);
    }
    (net.try_run_until_idle(), net, topo.switch)
}

#[test]
fn ring_overflow_guard_trips_on_tiny_packet_incast() {
    let sup = Supervision {
        ring_overflow_ceiling: Some(8),
        ..Supervision::armed()
    };
    let (end, _, switch) = tiny_packet_incast(Some(sup));
    match end.expect_err("the incast spills far more than 8 packets") {
        SimError::MemBudgetExceeded { breach, .. } => assert_eq!(
            breach,
            MemBreach {
                component: MemComponent::RingOverflow,
                live: 9,
                ceiling: 8,
                node: Some(switch.0 as u32),
            }
        ),
        other => panic!("expected MemBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn disarmed_ring_overflow_guard_leaves_flow_records_unchanged() {
    let (bare_end, bare, _) = tiny_packet_incast(None);
    bare_end.expect("unsupervised run");
    assert_eq!(bare.records().len(), 200);
    assert_eq!(bare.perf().drops, 0);
    let sup = Supervision {
        ring_overflow_ceiling: None,
        ..Supervision::armed()
    };
    let (end, net, _) = tiny_packet_incast(Some(sup));
    end.expect("nothing but the disarmed guard could trip");
    assert_eq!(
        format!("{:?}", net.records()),
        format!("{:?}", bare.records())
    );
}

/// Resume skips exactly the journaled points and recomputes the rest.
#[test]
fn resume_skips_journaled_points() {
    let dir = std::env::temp_dir().join("ecnsharp_supervision_resume");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.join("sweep.journal.jsonl");
    let items: Vec<u32> = vec![10, 20, 30];
    let id_of = |x: &u32| format!("pt-{x}");
    let seed_of = |x: &u32| u64::from(*x);

    // Interrupted first run: only point 20 made it into the journal.
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(
        &journal,
        "{\"point\":\"pt-20\",\"seed\":20,\"status\":\"ok\"}\n",
    )
    .expect("seed journal");

    let cfg = SweepConfig {
        journal: Some(journal.clone()),
        resume: true,
        retries: 0,
    };
    let report = supervised_map(items, &cfg, id_of, seed_of, |x| Ok(*x * 2));
    assert_eq!((report.completed, report.failed, report.skipped), (2, 0, 1));
    assert!(matches!(report.points[0], PointStatus::Done(20)));
    assert!(matches!(report.points[1], PointStatus::SkippedResumed));
    assert!(matches!(report.points[2], PointStatus::Done(60)));
    assert_eq!(
        report.summary_line(),
        "sweep: 2 completed, 0 failed, 1 retried, 1 skipped-resumed"
            .replace("1 retried", "0 retried")
    );

    // The completed points were appended, so a third run skips everything.
    let rerun = supervised_map(vec![10u32, 20, 30], &cfg, id_of, seed_of, |_| {
        Err::<u32, _>(SimError::InvariantViolation {
            msg: "must not re-run a journaled point".into(),
        })
    });
    assert_eq!((rerun.completed, rerun.failed, rerun.skipped), (0, 0, 3));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A retryable failure (worker panic) is re-run with the same seed and
/// can succeed on the second attempt; deterministic guard trips are not
/// retried.
#[test]
fn retry_policy_reruns_retryable_failures_once() {
    let first_attempts = AtomicU32::new(0);
    let cfg = SweepConfig {
        journal: None,
        resume: false,
        retries: 1,
    };
    let report = supervised_map(
        vec![0u32, 1, 2],
        &cfg,
        |x| format!("pt-{x}"),
        |x| u64::from(*x),
        |x| {
            if *x == 1 && first_attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                return Err(SimError::WorkerPanic {
                    msg: "transient".into(),
                });
            }
            Ok(*x)
        },
    );
    assert_eq!((report.completed, report.failed, report.retried), (3, 0, 1));

    // Non-retryable: a guard trip fails on the first attempt despite the
    // retry budget.
    let report = supervised_map(
        vec![0u32],
        &cfg,
        |x| format!("pt-{x}"),
        |x| u64::from(*x),
        |_| {
            Err::<u32, _>(SimError::InvariantViolation {
                msg: "deterministic".into(),
            })
        },
    );
    assert_eq!((report.completed, report.failed, report.retried), (0, 1, 0));
    match &report.points[0] {
        PointStatus::Failed { attempts, .. } => assert_eq!(*attempts, 1),
        other => panic!("expected Failed, got {other:?}"),
    }
}

/// Panics inside a supervised point become identity-carrying
/// `WorkerPanic` errors (point id + seed in the message).
#[test]
fn point_panics_carry_identity() {
    let cfg = SweepConfig {
        journal: None,
        resume: false,
        retries: 0,
    };
    let report = supervised_map(
        vec![5u32],
        &cfg,
        |x| format!("pt-{x}"),
        |x| 0xABC0 + u64::from(*x),
        |_| -> Result<u32, SimError> { panic!("boom") },
    );
    assert_eq!(report.failed, 1);
    match &report.points[0] {
        PointStatus::Failed { error, .. } => {
            let SimError::WorkerPanic { msg } = error else {
                panic!("expected WorkerPanic, got {error:?}");
            };
            assert!(msg.contains("pt-5"), "id in message: {msg}");
            assert!(msg.contains("0xabc5"), "seed in message: {msg}");
            assert!(msg.contains("boom"), "payload in message: {msg}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
}
