//! Table I kernel: one full IMCIS run (sampling + random-search
//! optimisation) on the illustrative model, at reduced scale so
//! `cargo bench` stays fast. The `exp_table1` binary regenerates the
//! actual table rows at paper scale.

use criterion::{criterion_group, criterion_main, Criterion};
use imc_models::scenario::illustrative_setup;
use imcis_core::{stage_estimator_for, ImcisSpec, Method, RunContext, SampleSpec};
use rand::SeedableRng;

fn bench_table1(c: &mut Criterion) {
    let setup = illustrative_setup();
    let imcis = stage_estimator_for(&Method::Imcis(ImcisSpec {
        sample: SampleSpec {
            n_traces: 1000,
            ..SampleSpec::default()
        },
        r_undefeated: 100,
        r_max: 5_000,
        ..ImcisSpec::default()
    }));
    let ctx = RunContext::default();
    c.bench_function("table1/imcis_illustrative_n1000_r100", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            imcis
                .estimate(&setup, &ctx, &mut rng)
                .expect("IMCIS run succeeds")
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table1
}
criterion_main!(benches);
