//! Figure 3 kernel: the random-search optimisation phase alone (sampling
//! already done), with convergence-trace recording — the cost per
//! optimisation round drives how far the R-undefeated rule can explore.

use criterion::{criterion_group, criterion_main, Criterion};
use imc_models::scenario::group_repair_setup;
use imc_models::GroupRepairIs;
use imc_optim::{random_search, Problem, RandomSearchConfig};
use imc_sampling::{sample_is_run, IsConfig};
use rand::SeedableRng;

fn bench_fig3(c: &mut Criterion) {
    let setup = group_repair_setup(GroupRepairIs::ZeroVariance, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let run = sample_is_run(
        &setup.b,
        &setup.property,
        &IsConfig::new(2000).with_max_steps(100_000),
        &mut rng,
    );
    c.bench_function("fig3/random_search_r100_with_trace", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            let mut problem = Problem::new(&setup.imc, &setup.b, &run).expect("problem compiles");
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            random_search(
                &mut problem,
                &RandomSearchConfig {
                    r_undefeated: 100,
                    r_max: 5_000,
                    record_trace: true,
                },
                &mut rng,
            )
            .expect("search succeeds")
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig3
}
criterion_main!(benches);
