//! Golden regression pins for the cache-level host-path pass: figure
//! CSVs and a chaos-sweep point are pinned byte-identical to fixtures
//! captured from the engine *before* the packed `Packet` layout, pooled
//! per-switch rings, wheel-batched delayed ACKs, and the second calendar
//! horizon landed.
//!
//! The in-build equivalence suites (`shard_equivalence`,
//! `timer_equivalence`, `delack_equivalence`) compare two modes of the
//! same build, so a behaviour shift that hits *both* modes equally would
//! slip through them. These fixtures close that hole: they are a
//! snapshot of the pre-pass engine's actual output.
//!
//! Regenerate only after an *intentional* behaviour change:
//! `ECNSHARP_BLESS_GOLDEN=1 cargo test --release -p ecnsharp-experiments
//! --test golden_figures` — then audit the fixture diff like any other
//! code change.
//!
//! Single test in its own binary: it mutates process environment
//! (`ECNSHARP_SHARDS`, `ECNSHARP_RESULTS`), which would race with any
//! concurrently running test in the same process.

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

    // The four pinned outputs: fig2 (testbed star threshold sweep), fig9
    // serial and under the sharded engine (leaf-spine grid — the switch
    // queues' main consumer), and one adversarial chaos point (flapping
    // link + 1% GE burst loss crossing shard cuts).
    let mut outputs: Vec<(&str, String)> = Vec::new();
    outputs.push(("fig2_quick.csv", figures::fig2(Scale::Quick).0.to_csv()));
    outputs.push(("fig9_quick.csv", figures::fig9(Scale::Quick).0.to_csv()));
    for shards in [2u32, 4] {
        std::env::set_var("ECNSHARP_SHARDS", shards.to_string());
        let csv = figures::fig9(Scale::Quick).0.to_csv();
        std::env::remove_var("ECNSHARP_SHARDS");
        // Sharding is pinned against the *same* serial fixture: one file,
        // three engine configurations.
        outputs.push(("fig9_quick.csv", csv));
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
