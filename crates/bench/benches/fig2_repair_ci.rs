//! Figure 2 kernel: one IS estimation run on the 125-state group repair
//! model under the zero-variance chain — the sampling workload repeated
//! 100× (per method) to draw the figure.

use criterion::{criterion_group, criterion_main, Criterion};
use imc_models::scenario::group_repair_setup;
use imc_models::GroupRepairIs;
use imcis_core::{stage_estimator_for, ImcisSpec, Method, RunContext, SampleSpec};
use rand::SeedableRng;

fn bench_fig2(c: &mut Criterion) {
    let setup = group_repair_setup(GroupRepairIs::ZeroVariance, 1);
    let sample = SampleSpec {
        n_traces: 1000,
        ..SampleSpec::default()
    };
    let is = stage_estimator_for(&Method::StandardIs(sample));
    let imcis = stage_estimator_for(&Method::Imcis(ImcisSpec {
        sample,
        r_undefeated: 50,
        r_max: 2_000,
        ..ImcisSpec::default()
    }));
    let ctx = RunContext::default();
    let mut group = c.benchmark_group("fig2_group_repair");
    group.sample_size(10);
    group.bench_function("is_run_n1000", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            is.estimate(&setup, &ctx, &mut rng)
                .expect("IS run succeeds")
        });
    });
    group.bench_function("imcis_run_n1000_r50", |bench| {
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

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
