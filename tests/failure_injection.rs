//! Failure injection across the workspace: invalid models are rejected
//! with precise errors, degenerate inputs are handled gracefully, and
//! budgets actually bound work — and the same failure matrix driven
//! through the `RunSpec → Session` and `SuiteSpec → Suite` paths yields
//! typed errors with the same root causes as the model parser and the
//! engines underneath.
//!
//! This binary deliberately never sets `IMCIS_FAULT_INJECTION`: it also
//! pins the refusal of `fault` blocks without the opt-in.

use imc_ctmc::{CtmcBuilder, CtmcError, CtmcModel, ExploreError};
use imc_distr::{ConstrainedRowSampler, DistrError, IntervalSpec};
use imc_learn::{learn_dtmc, CountTable, LearnError, LearnOptions};
use imc_logic::Property;
use imc_markov::{io, Dtmc, DtmcBuilder, Imc, ImcBuilder, ModelError, StateSet};
use imc_models::Setup;
use imc_numeric::{expected_steps_to, imc_reach_bounds, reach_avoid_probs, SolveError};
use imc_optim::{OptimError, Problem};
use imc_sampling::{sample_is_run, IsConfig};
use imcis_core::{
    stage_estimator_for, ImcisError, ImcisSpec, Method, MethodOutcome, RunContext, RunSpec,
    SampleSpec, Session, SessionError, Suite, SuiteSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One IMCIS run of `n_traces` traces and the default search budget over
/// `imc` under the IS chain `b`, on the caller's RNG, through the public
/// estimator.
fn run_imcis(
    imc: Imc,
    b: Dtmc,
    property: Property,
    n_traces: usize,
    rng: &mut StdRng,
) -> Result<MethodOutcome, SessionError> {
    let setup = Setup {
        name: "ad hoc".into(),
        imc,
        center: b.clone(),
        b,
        property,
        gamma_center: None,
        gamma_exact: None,
    };
    let spec = ImcisSpec {
        sample: SampleSpec {
            n_traces,
            ..SampleSpec::default()
        },
        ..ImcisSpec::default()
    };
    stage_estimator_for(&Method::Imcis(spec)).estimate(&setup, &RunContext::default(), rng)
}

#[test]
fn invalid_models_are_rejected_eagerly() {
    // DTMC: non-stochastic row.
    let mut b = DtmcBuilder::new(2);
    b.add_transition(0, 1, 0.7).add_self_loop(1);
    assert!(matches!(
        b.build().unwrap_err(),
        ModelError::NotStochastic { state: 0, .. }
    ));
    // IMC: row that admits no distribution.
    let mut b = ImcBuilder::new(2);
    b.add_interval(0, 0, 0.6, 0.7)
        .add_interval(0, 1, 0.6, 0.7)
        .add_exact(1, 1, 1.0);
    assert!(matches!(
        b.build().unwrap_err(),
        ModelError::InconsistentIntervalRow { state: 0, .. }
    ));
    // CTMC: self loops are meaningless.
    assert!(matches!(
        CtmcBuilder::new(1).rate(0, 0, 1.0).build().unwrap_err(),
        CtmcError::SelfLoop { state: 0 }
    ));
}

#[test]
fn exploration_budget_is_enforced() {
    let unbounded = CtmcModel::new(0u64).command("inc", |_| true, |_| 1.0, |&s| s + 1);
    assert!(matches!(
        unbounded.explore(10).unwrap_err(),
        ExploreError::TooManyStates { cap: 10 }
    ));
}

/// A chain whose iterative solves contract by only 1 − 10⁻⁷ per sweep:
/// after the solvers' 2·10⁶-sweep cap the last update is still about
/// 8·10⁻⁸ for the reach probability and 0.8 steps for the hitting time,
/// far above the 10⁻¹⁴ tolerance (relative, for hitting times).
fn slowly_mixing_chain() -> Dtmc {
    let mut b = DtmcBuilder::new(2);
    b.add_transition(0, 0, 0.9999999)
        .add_transition(0, 1, 0.0000001)
        .add_self_loop(1);
    b.build().unwrap()
}

#[test]
fn solver_reports_non_convergence_not_garbage() {
    let chain = slowly_mixing_chain();
    let result = reach_avoid_probs(&chain, &StateSet::from_states(2, [1]), &StateSet::new(2));
    assert!(matches!(result, Err(SolveError::NotConverged { .. })));
}

#[test]
fn hitting_time_solver_reports_non_convergence() {
    let chain = slowly_mixing_chain();
    let result = expected_steps_to(&chain, &StateSet::from_states(2, [1]));
    assert!(matches!(result, Err(SolveError::NotConverged { .. })));
}

#[test]
fn envelope_solver_reports_non_convergence() {
    // The point IMC of the chain: both envelopes iterate its solve.
    let imc = Imc::from_center(&slowly_mixing_chain(), |_, _| 0.0).unwrap();
    let result = imc_reach_bounds(&imc, &StateSet::from_states(2, [1]), &StateSet::new(2));
    assert!(matches!(result, Err(SolveError::NotConverged { .. })));
}

#[test]
fn optimiser_rejects_support_mismatch() {
    // Traces observed under a chain whose support the IMC does not cover.
    let mut builder = DtmcBuilder::new(3);
    builder
        .add_transition(0, 1, 0.5)
        .add_transition(0, 2, 0.5)
        .add_self_loop(1)
        .add_self_loop(2);
    let b = builder.build().unwrap();
    let property =
        Property::reach_avoid(StateSet::from_states(3, [1]), StateSet::from_states(3, [2]));
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let run = sample_is_run(&b, &property, &IsConfig::new(100), &mut rng);

    // IMC routes 0 -> 2 only: the observed 0 -> 1 has no interval.
    let mut builder = DtmcBuilder::new(3);
    builder
        .add_transition(0, 2, 1.0)
        .add_self_loop(1)
        .add_self_loop(2);
    let narrow_center = builder.build().unwrap();
    let imc = Imc::from_center(&narrow_center, |_, _| 0.01).unwrap();
    assert!(matches!(
        Problem::new(&imc, &b, &run).unwrap_err(),
        OptimError::SupportMismatch { from: 0, to: 1 }
    ));
    // And the error propagates through the full pipeline.
    let err = run_imcis(imc, b, property, 100, &mut rng).unwrap_err();
    assert!(matches!(
        err,
        SessionError::Imcis(ImcisError::Optim(OptimError::SupportMismatch { .. }))
    ));
}

#[test]
fn undecided_traces_are_counted_not_lost() {
    // A property that can never decide within the step budget.
    let mut b = DtmcBuilder::new(2);
    b.add_transition(0, 0, 1.0).add_self_loop(1);
    let chain = b.build().unwrap();
    let property = Property::reach_avoid(StateSet::from_states(2, [1]), StateSet::new(2));
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let run = sample_is_run(
        &chain,
        &property,
        &IsConfig::new(50).with_max_steps(10),
        &mut rng,
    );
    assert_eq!(run.n_undecided, 50);
    assert_eq!(run.n_success, 0);
    assert!(run.tables.is_empty());
}

#[test]
fn row_sampler_budget_errors_instead_of_spinning() {
    // A sliver of feasible space adversarially far from the Dirichlet
    // mean: either the sampler finds it (thanks to λ-inflation) or it
    // reports budget exhaustion — it must never hang.
    let specs = [
        IntervalSpec::new(0.899_999_9, 0.900_000_1, 0.9).unwrap(),
        IntervalSpec::new(0.049_999_9, 0.050_000_1, 0.05).unwrap(),
        IntervalSpec::new(0.049_999_9, 0.050_000_1, 0.05).unwrap(),
    ];
    let mut sampler = ConstrainedRowSampler::new(&specs).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    match sampler.sample(&mut rng) {
        Ok(values) => {
            assert!((values.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        Err(DistrError::RejectionBudgetExhausted { .. }) => {}
        Err(other) => panic!("unexpected error {other}"),
    }
}

/// A row whose free coordinates have tiny centres: pinned `1 − 2c` plus
/// two free `[0, 1e-3] @ c`, whose Gamma shapes `0.01·c` make every draw
/// underflow to 0. An attempt whose whole vector underflowed is a
/// rejection like any other, so it counts, λ-inflation grows the shapes
/// and the draw ends within the attempt budget.
fn underflowing_row(c: f64) -> [IntervalSpec; 3] {
    [
        IntervalSpec::new(1.0 - 2.0 * c, 1.0 - 2.0 * c, 1.0 - 2.0 * c).unwrap(),
        IntervalSpec::new(0.0, 1e-3, c).unwrap(),
        IntervalSpec::new(0.0, 1e-3, c).unwrap(),
    ]
}

#[test]
fn row_sampler_rejects_an_underflowed_gamma_vector() {
    let mut sampler = ConstrainedRowSampler::new(&underflowing_row(1e-8)).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let values = sampler.sample(&mut rng).unwrap().to_vec();
    assert!((values.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    let stats = sampler.stats();
    assert!(stats.rejections > 0 && stats.inflations > 0, "{stats:?}");
    assert_eq!(stats.attempts, stats.rejections + 1);
}

/// End to end: an IMCIS run over a DSL model whose searched row is that
/// underflowing row completes, under both search strategies.
#[test]
fn imcis_over_an_underflowing_row_completes() {
    let source = r#"
        param c = 1e-9
        model {
          state s0 initial {
            -> goal [0, 0.001] @ c
            -> s1 [0, 0.001] @ c
            -> sink 1 - 2 * c
          }
          state s1 { -> goal 1.0 }
          state goal label "goal" { -> goal 1.0 }
          state sink label "sink" { -> sink 1.0 }
        }
        property reach "goal" avoid "sink"
        is zero_variance
    "#;
    for search in [
        r#"{"strategy": "sequential"}"#,
        r#"{"strategy": "batched", "batch_size": 8}"#,
    ] {
        let spec: RunSpec = format!(
            r#"{{"scenario": {{"dsl": {source}}},
                "method": {{"name": "imcis", "n_traces": 100, "r_max": 16,
                            "search": {search}}},
                "seed": 2018}}"#,
            source = serde::json::Value::Str(source.into())
        )
        .parse()
        .unwrap();
        let report = Session::from_spec(spec).unwrap().run().unwrap();
        let run = &report.runs[0];
        assert_eq!((run.n_success, run.rounds), (100, Some(16)), "{search}");
        assert!(
            run.ci.lo() > 0.0 && run.ci.hi() < 1e-8,
            "{search}: {:?}",
            run.ci
        );
    }
}

#[test]
fn learning_from_nothing_fails_cleanly() {
    let counts = CountTable::new(3);
    assert_eq!(
        learn_dtmc(&counts, &LearnOptions::default()).unwrap_err(),
        LearnError::NoObservations
    );
}

/// The spec layer reports the same schema violations whether a run spec
/// travels alone or embedded as a suite member — the member form only
/// adds its index.
#[test]
fn spec_errors_have_parity_between_run_and_suite_paths() {
    let bad_run = r#"{"scenario": {"name": "illustrative"},
                      "method": {"name": "smc", "delta": 2.0}}"#;
    let run_err = bad_run.parse::<RunSpec>().unwrap_err().to_string();
    assert!(
        run_err.contains("`method.delta` must lie in (0, 1)"),
        "{run_err}"
    );

    let suite_err = format!("{{\"runs\": [{bad_run}]}}")
        .parse::<SuiteSpec>()
        .unwrap_err()
        .to_string();
    assert!(suite_err.contains("`suite.runs[0]`"), "{suite_err}");
    assert!(
        suite_err.contains("`method.delta` must lie in (0, 1)"),
        "{suite_err}"
    );
}

/// A broken model file produces the same root-cause message through the
/// legacy parser, the `Session` path and the `Suite` path: the scenario
/// layer wraps, never rewrites.
#[test]
fn model_errors_have_parity_between_legacy_and_session_paths() {
    let malformed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/malformed_model.txt"
    );
    let text = std::fs::read_to_string(malformed).unwrap();
    let legacy = io::parse_imc(&text).unwrap_err().to_string();

    let spec_text = format!(
        r#"{{"scenario": {{"name": "file",
                           "params": {{"path": {path}, "target": "heads"}}}},
            "method": {{"name": "smc", "n_traces": 100}}}}"#,
        path = serde::json::Value::Str(malformed.into())
    );
    let spec: RunSpec = spec_text.parse().unwrap();
    let session_err = match Session::from_spec(spec) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a malformed model file must not build"),
    };
    assert!(
        session_err.contains(&legacy),
        "session error {session_err:?} lost the legacy root cause {legacy:?}"
    );

    let suite_spec: SuiteSpec = format!("{{\"runs\": [{spec_text}]}}").parse().unwrap();
    let suite_err = match Suite::from_spec(suite_spec) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a malformed member model must not build"),
    };
    assert!(
        suite_err.contains(&legacy),
        "suite error {suite_err:?} lost the legacy root cause {legacy:?}"
    );
}

/// The degenerate zero-success estimation `zero_success_imcis_is_well_defined`
/// pins for one engine run is equally well-defined through the Session
/// and Suite paths — and the two paths agree byte-for-byte.
#[test]
fn zero_success_estimation_is_well_defined_through_the_session_path() {
    // The goal needs two steps but the property is bounded at one:
    // structurally reachable (so the scenario builds), yet every trace
    // decides negatively — the zero-success regime.
    let dir = std::env::temp_dir().join("imcis_failure_injection");
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("out_of_reach_goal.imc");
    std::fs::write(
        &model,
        "imc\nstates 3\ninitial 0\n\
         interval 0 1 1.0 1.0\n\
         interval 1 2 1.0 1.0\n\
         interval 2 2 1.0 1.0\n\
         label 2 goal\n",
    )
    .unwrap();
    let spec_text = format!(
        r#"{{"scenario": {{"name": "file",
                           "params": {{"path": {path}, "target": "goal",
                                       "bound": 1}}}},
            "method": {{"name": "smc", "n_traces": 100}}, "seed": 5}}"#,
        path = serde::json::Value::Str(model.to_str().unwrap().into())
    );
    let spec: RunSpec = spec_text.parse().unwrap();
    let report = Session::from_spec(spec).unwrap().run().unwrap();
    assert_eq!(report.estimate, 0.0);

    let suite: SuiteSpec = format!("{{\"runs\": [{spec_text}]}}").parse().unwrap();
    let suite_report = Suite::from_spec(suite).unwrap().run().unwrap();
    assert_eq!(
        suite_report.members[0]
            .report()
            .expect("degenerate but clean")
            .to_json_stable()
            .pretty(),
        report.to_json_stable().pretty(),
        "the suite path drifted from the session path on a degenerate run"
    );
}

/// Without `IMCIS_FAULT_INJECTION=1`, a manifest carrying a `fault`
/// block is refused with a pinned message (this test binary never sets
/// the variable).
#[test]
fn fault_blocks_are_refused_without_the_opt_in() {
    assert!(
        !imcis_core::fault::enabled(),
        "this binary must not enable fault injection"
    );
    let spec: SuiteSpec = r#"{
        "runs": [{"scenario": {"name": "illustrative"},
                  "method": {"name": "smc", "n_traces": 100}}],
        "fault": {"seed": 1, "injections": [{"member": 0, "kind": "panic"}]}
    }"#
    .parse()
    .expect("the block parses; only building is gated");
    let err = Suite::from_spec(spec).unwrap_err().to_string();
    assert!(
        err.contains("fault injection is disabled (set IMCIS_FAULT_INJECTION=1)"),
        "{err}"
    );
}

#[test]
fn zero_success_imcis_is_well_defined() {
    let mut b = DtmcBuilder::new(3);
    b.add_transition(0, 2, 1.0)
        .add_self_loop(1)
        .add_self_loop(2);
    let chain = b.build().unwrap();
    let imc = Imc::from_center(&chain, |_, _| 0.01).unwrap();
    let property =
        Property::reach_avoid(StateSet::from_states(3, [1]), StateSet::from_states(3, [2]));
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let out =
        run_imcis(imc, chain, property, 100, &mut rng).expect("degenerate run still succeeds");
    assert_eq!((out.ci.lo(), out.ci.hi()), (0.0, 0.0));
    assert_eq!(out.n_success, 0);
}
