//! Ablation: the parallel deterministic batch engine and the prepared
//! estimator hot path.
//!
//! Two axes, both on the group-repair jump chain (125 states):
//!
//! * `sample_is_run` at 1 worker vs all cores — the batch engine's
//!   scaling (bit-identical results by construction, see
//!   `tests/determinism.rs`);
//! * one candidate-chain evaluation via the naive [`is_estimate`] loop vs
//!   a reused [`PreparedRun`] — the random-search hot path.

use criterion::{criterion_group, criterion_main, Criterion};
use imc_models::scenario::group_repair_setup;
use imc_models::GroupRepairIs;
use imc_sampling::{is_estimate, sample_is_run, IsConfig, PreparedRun};
use imc_sim::parallel::available_threads;
use rand::SeedableRng;

fn bench_parallel(c: &mut Criterion) {
    let setup = group_repair_setup(GroupRepairIs::ZeroVariance, 2018);
    let n_traces = 4_000;

    let mut group = c.benchmark_group("ablation_parallel");
    group.sample_size(10);
    group.bench_function("sample_is_run_1_thread", |bench| {
        bench.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            sample_is_run(
                &setup.b,
                &setup.property,
                &IsConfig::new(n_traces).with_threads(1),
                &mut rng,
            )
        });
    });
    let all = format!("sample_is_run_{}_threads", available_threads());
    group.bench_function(&all, |bench| {
        bench.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            sample_is_run(
                &setup.b,
                &setup.property,
                &IsConfig::new(n_traces).with_threads(0),
                &mut rng,
            )
        });
    });

    // The candidate-evaluation hot path: same run, many reference chains.
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let run = sample_is_run(
        &setup.b,
        &setup.property,
        &IsConfig::new(n_traces),
        &mut rng,
    );
    let prepared = PreparedRun::new(&run, &setup.b);
    group.bench_function("candidate_eval_naive", |bench| {
        bench.iter(|| is_estimate(&setup.center, &setup.b, &run, 0.05));
    });
    group.bench_function("candidate_eval_prepared", |bench| {
        bench.iter(|| prepared.estimate(&setup.center, 0.05));
    });
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
