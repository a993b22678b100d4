//! The full learning-to-verification pipeline of the paper: logs → learnt
//! IMC → IMCIS confidence interval that is honest about the hidden truth.

use imc_learn::{
    learn_dtmc, learn_imc, learn_imc_with_support, CountTable, LearnOptions, Smoothing,
};
use imc_logic::Property;
use imc_markov::{Dtmc, DtmcBuilder, Imc, StateSet};
use imc_models::{swat, Setup};
use imc_numeric::bounded_reach_probs;
use imc_sampling::failure_bias;
use imc_sim::{random_walk, ChainSampler};
use imcis_core::{stage_estimator_for, ImcisOutcome, ImcisSpec, Method, RunContext, SampleSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One IMCIS run of `spec` over `imc` under the IS chain `b`, on the
/// caller's RNG, through the public estimator.
fn run_imcis(
    imc: Imc,
    center: Dtmc,
    b: Dtmc,
    property: Property,
    spec: ImcisSpec,
    rng: &mut StdRng,
) -> ImcisOutcome {
    let setup = Setup {
        name: "learnt".into(),
        imc,
        center,
        b,
        property,
        gamma_center: None,
        gamma_exact: None,
    };
    let outcome = stage_estimator_for(&Method::Imcis(spec))
        .estimate(&setup, &RunContext::default(), rng)
        .expect("IMCIS succeeds");
    outcome
        .imcis
        .expect("the IMCIS estimator yields IMCIS outcomes")
}

#[test]
fn learnt_imc_contains_the_generating_chain() {
    // Sample logs from a known chain; the learnt IMC (Okamoto δ = 1e-3)
    // contains the generator with overwhelming probability.
    let mut builder = DtmcBuilder::new(4);
    builder
        .add_transition(0, 1, 0.2)
        .add_transition(0, 2, 0.5)
        .add_transition(0, 3, 0.3)
        .add_transition(1, 0, 1.0)
        .add_transition(2, 0, 1.0)
        .add_transition(3, 0, 0.9)
        .add_transition(3, 3, 0.1);
    let truth = builder.build().expect("truth chain valid");
    let sampler = ChainSampler::new(&truth);
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut counts = CountTable::new(4);
    for _ in 0..200 {
        counts.record_path(&random_walk(&sampler, 0, 100, &mut rng));
    }
    let imc = learn_imc(&counts, &LearnOptions::default()).expect("learning succeeds");
    assert!(
        imc.contains(&truth),
        "learnt IMC should contain the generating chain"
    );
    // And the point estimate is close to the truth.
    let center = imc.center().expect("centred");
    assert!((center.prob(0, 1) - 0.2).abs() < 0.02);
    assert!((center.prob(3, 3) - 0.1).abs() < 0.02);
}

#[test]
fn learn_dtmc_is_deterministic_in_the_counts() {
    let mut counts = CountTable::new(2);
    for _ in 0..30 {
        counts.record(0, 0);
    }
    for _ in 0..70 {
        counts.record(0, 1);
    }
    counts.record(1, 1);
    let a = learn_dtmc(&counts, &LearnOptions::default()).unwrap();
    let b = learn_dtmc(&counts, &LearnOptions::default()).unwrap();
    assert_eq!(a, b);
    assert!((a.prob(0, 1) - 0.7).abs() < 1e-12);
}

#[test]
fn swat_pipeline_end_to_end_honest_about_hidden_truth() {
    // The headline reproduction: hidden truth -> logs -> learnt IMC ->
    // biased IS chain -> IMCIS interval that covers the hidden γ.
    let truth = swat::truth();
    let sampler = ChainSampler::new(&truth);
    let mut rng = rand::rngs::StdRng::seed_from_u64(71);
    let mut counts = CountTable::new(truth.num_states());
    for i in 0..1500 {
        let start = if i % 4 == 0 {
            truth.initial()
        } else {
            (i * 7) % truth.num_states()
        };
        counts.record_path(&random_walk(&sampler, start, 400, &mut rng));
    }
    let imc = learn_imc_with_support(
        &counts,
        &truth,
        &LearnOptions {
            delta: 1e-3,
            smoothing: Smoothing::Laplace(0.5),
            initial: truth.initial(),
        },
    )
    .expect("learning succeeds");
    let center = imc.center().expect("centred").clone();

    // IS chain: boost upward level moves (structural biasing needs no
    // knowledge beyond the state semantics).
    let b = failure_bias(
        &center,
        |from, to| {
            let (fm, fb) = swat::decode(from);
            let (tm, tb) = swat::decode(to);
            fm == tm && tb == fb + 1
        },
        0.5,
    )
    .expect("biasing succeeds");

    let property = swat::property(&center);
    let gamma_truth = bounded_reach_probs(&truth, truth.labeled_states("high"), swat::STEP_BOUND)
        [truth.initial()];
    let spec = ImcisSpec {
        sample: SampleSpec {
            n_traces: 6000,
            delta: 0.01,
            max_steps: 1000,
        },
        r_undefeated: 300,
        r_max: 20_000,
        ..ImcisSpec::default()
    };
    let out = run_imcis(imc, center, b, property, spec, &mut rng);
    assert!(out.n_success > 500, "biased chain produces successes");
    assert!(
        out.ci.contains(gamma_truth),
        "IMCIS CI {} misses hidden γ = {gamma_truth:e}",
        out.ci
    );
}

#[test]
fn more_data_narrows_the_imcis_interval() {
    // Okamoto widths shrink as 1/sqrt(n): the IMCIS interval must narrow
    // as log volume grows.
    let mut builder = DtmcBuilder::new(3);
    builder
        .add_transition(0, 1, 0.05)
        .add_transition(0, 2, 0.95)
        .add_self_loop(1)
        .add_self_loop(2)
        .add_label(1, "bad");
    let truth = builder.build().expect("truth chain valid");
    let sampler = ChainSampler::new(&truth);
    let property = imc_logic::Property::reach_avoid(
        truth.labeled_states("bad").clone(),
        StateSet::from_states(3, [2]),
    );
    let mut widths = Vec::new();
    for &n_logs in &[50usize, 5000] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut counts = CountTable::new(3);
        for _ in 0..n_logs {
            counts.record_path(&random_walk(&sampler, 0, 3, &mut rng));
        }
        let imc = learn_imc_with_support(
            &counts,
            &truth,
            &LearnOptions {
                delta: 1e-3,
                smoothing: Smoothing::Laplace(0.5),
                initial: 0,
            },
        )
        .expect("learning succeeds");
        let center = imc.center().expect("centred").clone();
        let spec = ImcisSpec {
            sample: SampleSpec {
                n_traces: 3000,
                ..SampleSpec::default()
            },
            r_undefeated: 200,
            r_max: 10_000,
            ..ImcisSpec::default()
        };
        let out = run_imcis(
            imc,
            center.clone(),
            center,
            property.clone(),
            spec,
            &mut rng,
        );
        widths.push(out.gamma_max - out.gamma_min);
    }
    assert!(
        widths[1] < widths[0] / 2.0,
        "bracket did not narrow with data: {widths:?}"
    );
}
