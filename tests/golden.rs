//! Tier-1 golden pins: the quick-scale `fig2` CSV and one adversarial
//! chaos point (flapping link + 1% Gilbert–Elliott burst loss), serial
//! and on 2 shards, must match the fixtures under
//! `crates/experiments/tests/golden/` byte for byte. The fixtures are a
//! snapshot of the engine's real output; `golden_figures.rs` in
//! `ecnsharp-experiments` holds the full set and documents how to
//! re-bless them after an intentional behaviour change.

use ecn_sharp::experiments::{
    figures, try_run, Faults, FctScenario, RunOpts, Scale, Scheme, DEFAULT_FAULT_SEED,
};
use ecn_sharp::net::NoopSubscriber;
use ecn_sharp::sim::Duration;
use std::path::PathBuf;

#[path = "../crates/experiments/tests/common/mod.rs"]
mod common;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/experiments/tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()))
}

#[test]
fn quick_fig2_matches_golden_csv() {
    // The figure writes its CSV under ECNSHARP_RESULTS; keep it out of the
    // working tree. No other test in this binary reads that knob.
    let dir = std::env::temp_dir().join("ecnsharp_root_golden");
    std::fs::create_dir_all(&dir).expect("temp results dir");
    std::env::set_var("ECNSHARP_RESULTS", &dir);
    let (table, perf) = figures::fig2(Scale::Quick);
    assert_eq!(table.to_csv(), fixture("fig2_quick.csv"), "fig2 drifted");
    assert_eq!(perf.runs, 5, "one star run per threshold");
}

#[test]
fn chaos_point_matches_golden_serial_and_sharded() {
    let faults = Faults {
        mean_loss: 0.01,
        flap_period: Some(Duration::from_micros(200)),
    };
    let sc = FctScenario::chaos(Scheme::EcnSharp(None), faults, 40, DEFAULT_FAULT_SEED);
    let want = fixture("chaos_point.txt");
    for shards in [1, 2] {
        let r = try_run(&sc, RunOpts::sharded(NoopSubscriber, shards)).expect("disarmed run");
        assert_eq!(
            format!("{}\n", common::ledger_line(&r)),
            want,
            "chaos point drifted on {shards} shard(s)"
        );
    }
}
