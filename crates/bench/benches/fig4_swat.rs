//! Figure 4 kernel: the SWaT learning-plus-estimation pipeline pieces —
//! learning an IMC from logs, and one IS estimation run on the learnt
//! 70-state model (cross-entropy construction is benched separately in
//! the pipeline position where the paper pays it once).

use criterion::{criterion_group, criterion_main, Criterion};
use imc_learn::{learn_imc_with_support, CountTable, LearnOptions, Smoothing};
use imc_models::scenario::swat_setup;
use imc_models::swat;
use imc_sim::{random_walk, ChainSampler};
use imcis_core::{stage_estimator_for, Method, RunContext, SampleSpec};
use rand::SeedableRng;

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_swat");
    group.sample_size(10);

    // Learning: 100 logs of 200 steps -> 70-state IMC.
    let truth = swat::truth();
    let sampler = ChainSampler::new(&truth);
    group.bench_function("learn_imc_100x200_logs", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut counts = CountTable::new(truth.num_states());
            for _ in 0..100 {
                counts.record_path(&random_walk(&sampler, truth.initial(), 200, &mut rng));
            }
            learn_imc_with_support(
                &counts,
                &truth,
                &LearnOptions {
                    delta: 1e-3,
                    smoothing: Smoothing::Laplace(0.5),
                    initial: truth.initial(),
                },
            )
            .expect("learning succeeds")
        });
    });

    // Estimation on the learnt model (setup cost paid once outside).
    let setup = swat_setup(200, 200, 3);
    let is = stage_estimator_for(&Method::StandardIs(SampleSpec {
        n_traces: 1000,
        delta: 0.01,
        max_steps: 10_000,
    }));
    let ctx = RunContext::default();
    group.bench_function("is_run_n1000", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            is.estimate(&setup, &ctx, &mut rng)
                .expect("IS run succeeds")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
