//! Runs the complete reproduction suite (every table and figure) at the
//! scale selected by ECNSHARP_SCALE, writing CSVs under results/.

// Host-side harness: wall-clock progress timing never feeds the simulation.
#![allow(clippy::disallowed_methods)]

use ecnsharp_experiments::figures::{regenerate, FIGURES};

fn run() {
    let scale = ecnsharp_experiments::Scale::from_env_or_exit();
    let t0 = std::time::Instant::now();
    for fig in &FIGURES {
        println!("================ {} ================", fig.name);
        let wall_secs = regenerate(fig, scale);
        println!("[{} done in {wall_secs:.1}s]\n", fig.name);
    }
    println!("full suite finished in {:.1}s", t0.elapsed().as_secs_f64());
}

fn main() -> std::process::ExitCode {
    // Supervision exit contract: a panic anywhere above becomes one
    // structured JSONL error line and exit 1 (see `runner::guarded_run`).
    ecnsharp_experiments::guarded_run("all", run)
}
