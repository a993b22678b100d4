//! Table II kernel: standard IS versus IMCIS on the illustrative model —
//! the head-to-head cost comparison behind the table's two method rows.

use criterion::{criterion_group, criterion_main, Criterion};
use imc_models::scenario::illustrative_setup;
use imcis_core::{stage_estimator_for, ImcisSpec, Method, RunContext, SampleSpec};
use rand::SeedableRng;

fn bench_table2(c: &mut Criterion) {
    let setup = illustrative_setup();
    let sample = SampleSpec {
        n_traces: 1000,
        ..SampleSpec::default()
    };
    let is = stage_estimator_for(&Method::StandardIs(sample));
    let imcis = stage_estimator_for(&Method::Imcis(ImcisSpec {
        sample,
        r_undefeated: 100,
        r_max: 5_000,
        ..ImcisSpec::default()
    }));
    let ctx = RunContext::default();
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    group.bench_function("standard_is_n1000", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            is.estimate(&setup, &ctx, &mut rng)
                .expect("IS run succeeds")
        });
    });
    group.bench_function("imcis_n1000_r100", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            imcis
                .estimate(&setup, &ctx, &mut rng)
                .expect("IMCIS run succeeds")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
