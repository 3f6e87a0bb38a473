//! Scaled-down regenerations of every paper table/figure, so `cargo bench`
//! exercises the complete reproduction matrix end-to-end. Full-fidelity
//! runs live in the `ecnsharp-experiments` binaries (`--bin all`); these
//! benches use `Scale::Quick` workloads to stay in the seconds range while
//! still walking the identical code paths.

use criterion::{criterion_group, criterion_main, Criterion};
use ecnsharp_experiments::figures::FIGURES;
use ecnsharp_experiments::Scale;
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    // Keep CSV side effects out of the repo during benches.
    std::env::set_var(
        "ECNSHARP_RESULTS",
        std::env::temp_dir().join("ecnsharp_bench_results"),
    );
    let mut g = c.benchmark_group("figures_quick");
    g.sample_size(10);
    // One bench per registered figure, named after its binary.
    for fig in &FIGURES {
        g.bench_function(fig.name, |b| b.iter(|| black_box((fig.run)(Scale::Quick))));
    }
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
