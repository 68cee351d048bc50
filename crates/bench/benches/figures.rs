//! Times every paper artefact of [`avx_bench::figures`] — the same
//! function, at the same seeds, that `repro` prints and
//! `tests/figures.rs` checks against the paper.
//!
//! Table I runs at n = 4 trials per row here; `repro` runs `AVX_TRIALS`.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use avx_bench::figures;
use avx_channel::attacks::campaign::CampaignConfig;

fn bench(c: &mut Criterion) {
    let config = CampaignConfig::new(4, 0);
    let mut group = c.benchmark_group("figures");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_secs(1));
    for artefact in &figures::ALL {
        group.bench_function(artefact.name, |b| {
            b.iter(|| black_box((artefact.run)(&config)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
