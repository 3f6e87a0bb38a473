//! Golden regression pins for the cache-level host-path pass: figure
//! CSVs and a chaos-sweep point are pinned byte-identical to fixtures
//! captured from the engine *before* the packed `Packet` layout, pooled
//! per-switch rings, wheel-batched delayed ACKs, and the second calendar
//! horizon landed. `fig2_quick_delack2.csv` pins fig2 at delayed-ACK
//! count 2; it was captured from the per-packet, epoch-filtered
//! delayed-ACK timers that the batched wheel protocol replaced.
//!
//! The in-build equivalence suite (`shard_equivalence`) compares two
//! modes of the same build, so a behaviour shift that hits *both* modes
//! equally would slip through it. These fixtures close that hole: they
//! are a snapshot of an earlier engine's actual output.
//!
//! The same runs also check the timer wheel's bookkeeping: the timer
//! conservation oracle (`common::assert_timer_conservation`) on the fig2
//! and fig9 counters, and on fig2 that the wheel was exercised at all —
//! re-arms displaced live deadlines, and at delayed-ACK count 2 one token
//! serves a receiver's whole quiet period instead of one arm per packet.
//!
//! Regenerate only after an *intentional* behaviour change:
//! `ECNSHARP_BLESS_GOLDEN=1 cargo test --release -p ecnsharp-experiments
//! --test golden_figures` — then audit the fixture diff like any other
//! code change.
//!
//! Single test in its own binary: it mutates process environment
//! (`ECNSHARP_SHARDS`, `ECNSHARP_DELACK`, `ECNSHARP_RESULTS`), which
//! would race with any concurrently running test in the same process.

use ecnsharp_experiments::{
    figures, try_run, Faults, FctScenario, RunOpts, Scale, Scheme, DEFAULT_FAULT_SEED,
};
use ecnsharp_sim::Duration;
use std::path::PathBuf;

mod common;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

#[test]
fn engine_output_matches_prepass_golden() {
    // Keep the figure CSV side effect out of the working tree.
    let dir = std::env::temp_dir().join("ecnsharp_golden_figures");
    std::fs::create_dir_all(&dir).expect("temp results dir");
    std::env::set_var("ECNSHARP_RESULTS", &dir);
    std::env::remove_var("ECNSHARP_SHARDS");
    std::env::remove_var("ECNSHARP_DELACK");

    // The pinned outputs: fig2 (testbed star threshold sweep) with
    // per-packet and with delayed ACKs, fig9 serial and under the sharded
    // engine (leaf-spine grid — the switch queues' main consumer), and
    // one adversarial chaos point (flapping link + 1% GE burst loss
    // crossing shard cuts).
    let mut outputs: Vec<(&str, String)> = Vec::new();
    let (fig2, perf) = figures::fig2(Scale::Quick);
    let p = &perf.counters;
    common::assert_timer_conservation("fig2", p);
    // The wheel ran: timers were armed and re-arms displaced live
    // deadlines in place.
    assert!(p.timers_armed > 0);
    assert!(p.timers_stale_suppressed > 0);
    assert!(p.timers_fired <= p.timers_armed);
    outputs.push(("fig2_quick.csv", fig2.to_csv()));

    std::env::set_var("ECNSHARP_DELACK", "2");
    let (fig2, perf) = figures::fig2(Scale::Quick);
    std::env::remove_var("ECNSHARP_DELACK");
    let p = &perf.counters;
    common::assert_timer_conservation("fig2 delack 2", p);
    assert!(p.timers_armed > 0);
    assert!(p.timers_fired <= p.timers_armed);
    // One long-lived token per receiver quiet period, not one arm per
    // in-order packet: arms must be far rarer than forwarded packets.
    assert!(
        p.timers_armed * 4 < p.packets_forwarded,
        "batched delack armed {} timers for {} packets",
        p.timers_armed,
        p.packets_forwarded
    );
    outputs.push(("fig2_quick_delack2.csv", fig2.to_csv()));

    for shards in [1u32, 2, 4] {
        std::env::set_var("ECNSHARP_SHARDS", shards.to_string());
        let (fig9, perf) = figures::fig9(Scale::Quick);
        std::env::remove_var("ECNSHARP_SHARDS");
        common::assert_timer_conservation(&format!("fig9 on {shards} shard(s)"), &perf.counters);
        // Sharding is pinned against the *same* serial fixture: one file,
        // three engine configurations.
        outputs.push(("fig9_quick.csv", fig9.to_csv()));
    }
    let faults = Faults {
        mean_loss: 0.01,
        flap_period: Some(Duration::from_micros(200)),
    };
    let sc = FctScenario::chaos(Scheme::EcnSharp(None), faults, 40, DEFAULT_FAULT_SEED);
    let chaos = try_run(&sc, RunOpts::default()).expect("disarmed run");
    outputs.push((
        "chaos_point.txt",
        format!("{}\n", common::ledger_line(&chaos)),
    ));

    if std::env::var("ECNSHARP_BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        for (name, got) in &outputs {
            std::fs::write(golden_dir().join(name), got).expect("write fixture");
        }
        eprintln!(
            "blessed {} fixtures into {}",
            outputs.len(),
            golden_dir().display()
        );
        return;
    }

    for (i, (name, got)) in outputs.iter().enumerate() {
        let path = golden_dir().join(name);
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); run with ECNSHARP_BLESS_GOLDEN=1 \
                 on a known-good engine to capture it",
                path.display()
            )
        });
        assert_eq!(
            got, &want,
            "output #{i} ({name}) drifted from the pre-pass golden fixture; \
             if the change is intentional, re-bless and audit the diff"
        );
    }
}
