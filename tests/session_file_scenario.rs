//! Error paths of the `file` scenario through `Session::from_spec`: a
//! missing model file, a malformed model, and a property referencing
//! labels no state carries must all surface as
//! `SessionError::Scenario(..)` — never a panic — while a valid fixture
//! runs end to end, from the library and from `imcis run`.

use imc_models::{ScenarioError, ScenarioParams};
use imcis_core::{
    ImcisSpec, Method, RunSpec, SampleSpec, ScenarioRef, SearchStrategy, Session, SessionError,
};
use serde::json::Value;

const COIN_IMC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/coin.imc");
const MALFORMED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/malformed_model.txt"
);
const TRUNCATED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/truncated.imc");
const OUT_OF_ORDER: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/out_of_order.imc"
);

fn file_spec(params: Vec<(&str, Value)>) -> RunSpec {
    RunSpec::new(
        ScenarioRef {
            name: "file".into(),
            params: ScenarioParams::from_pairs(params.into_iter().map(|(k, v)| (k.to_string(), v))),
        },
        Method::Smc(SampleSpec {
            n_traces: 200,
            delta: 0.05,
            max_steps: 10_000,
        }),
        7,
    )
    .with_threads(1, 1)
}

/// The report `imcis <args>` prints, parsed.
fn cli_report(args: &[&str]) -> Value {
    let args: Vec<String> = args.iter().map(ToString::to_string).collect();
    serde::json::parse(&imcis_cli::run(&args).unwrap()).unwrap()
}

fn scenario_error(spec: RunSpec) -> ScenarioError {
    match Session::from_spec(spec) {
        Err(SessionError::Scenario(e)) => e,
        Err(other) => panic!("expected a scenario error, got {other}"),
        Ok(_) => panic!("expected the session build to fail"),
    }
}

#[test]
fn missing_model_file_is_a_scenario_error() {
    let err = scenario_error(file_spec(vec![
        ("path", Value::Str("/definitely/not/here.imc".into())),
        ("target", Value::Str("heads".into())),
    ]));
    assert!(matches!(err, ScenarioError::Build(_)), "{err}");
    assert!(err.to_string().contains("cannot read"), "{err}");
}

#[test]
fn malformed_model_file_is_a_scenario_error() {
    let err = scenario_error(file_spec(vec![
        ("path", Value::Str(MALFORMED.into())),
        ("target", Value::Str("heads".into())),
    ]));
    assert!(matches!(err, ScenarioError::Build(_)), "{err}");
    assert!(err.to_string().contains("cannot parse"), "{err}");
}

#[test]
fn truncated_model_file_is_a_typed_scenario_error() {
    // The file ends before state 1's row: the streaming loader surfaces
    // `ModelError::NoOutgoingTransitions` through the scenario error.
    let err = scenario_error(file_spec(vec![
        ("path", Value::Str(TRUNCATED.into())),
        ("target", Value::Str("heads".into())),
    ]));
    assert!(matches!(err, ScenarioError::Build(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("cannot parse"), "{msg}");
    assert!(msg.contains("state 1 has no outgoing transitions"), "{msg}");
}

#[test]
fn out_of_order_model_file_is_a_typed_scenario_error() {
    // `interval 0 2` arrives before `interval 0 1`: the lenient in-memory
    // parser would accept this, but the streaming loader used by the
    // `file` scenario requires ascending `(from, to)` order and reports
    // `ModelError::OutOfOrderTransition`.
    let err = scenario_error(file_spec(vec![
        ("path", Value::Str(OUT_OF_ORDER.into())),
        ("target", Value::Str("heads".into())),
    ]));
    assert!(matches!(err, ScenarioError::Build(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("cannot parse"), "{msg}");
    assert!(msg.contains("out of order"), "{msg}");
}

#[test]
fn property_referencing_unknown_states_is_a_scenario_error() {
    // Target label marking no state...
    let err = scenario_error(file_spec(vec![
        ("path", Value::Str(COIN_IMC.into())),
        ("target", Value::Str("jackpot".into())),
    ]));
    assert!(matches!(err, ScenarioError::BadParam { .. }), "{err}");
    assert!(err.to_string().contains("marks no state"), "{err}");
    // ...and likewise for the avoid label.
    let err = scenario_error(file_spec(vec![
        ("path", Value::Str(COIN_IMC.into())),
        ("target", Value::Str("heads".into())),
        ("avoid", Value::Str("dragons".into())),
    ]));
    assert!(matches!(err, ScenarioError::BadParam { .. }), "{err}");
}

#[test]
fn missing_required_target_is_a_scenario_error() {
    let err = scenario_error(file_spec(vec![("path", Value::Str(COIN_IMC.into()))]));
    assert!(matches!(err, ScenarioError::BadParam { .. }), "{err}");
    assert!(
        err.to_string().contains("required parameter is missing"),
        "{err}"
    );
}

#[test]
fn valid_fixture_runs_end_to_end() {
    let spec = file_spec(vec![
        ("path", Value::Str(COIN_IMC.into())),
        ("target", Value::Str("heads".into())),
        ("avoid", Value::Str("tails".into())),
    ]);
    let report = Session::from_spec(spec).unwrap().run().unwrap();
    assert_eq!(report.model, COIN_IMC);
    assert!(report.estimate.is_finite());
    // The file scenario knows no reference γs: coverage stays unset
    // rather than pretending.
    assert_eq!(report.coverage_gamma_hat, None);
    assert_eq!(report.coverage_gamma_true, None);
}

#[test]
fn cli_imcis_run_brackets_the_coin_fixture() {
    // Under the zero-variance `B` every trace succeeds, and the
    // closed-form bracket is the fixture's interval [0.2, 0.3].
    let path = format!("path={COIN_IMC}");
    let report = cli_report(&[
        "run",
        "--scenario",
        "file",
        "--param",
        &path,
        "--param",
        "target=heads",
        "--param",
        "avoid=tails",
        "--method",
        "imcis",
        "--n",
        "500",
        "--r",
        "50",
    ]);
    let run = &report.get("runs").and_then(Value::as_array).unwrap()[0];
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap();
    assert_eq!((num(run, "gamma_min"), num(run, "gamma_max")), (0.2, 0.3));
    let ci = run.get("ci").unwrap();
    assert_eq!((num(ci, "lo"), num(ci, "hi")), (0.2, 0.3));
    assert_eq!(run.get("n_success").and_then(Value::as_u64), Some(500));
}

#[test]
fn cli_batched_file_run_is_search_thread_invariant() {
    // Forced sampling makes the batched search run real rounds on the
    // coin; the stable report, minus the `spec` echo of the budget, is
    // byte-identical at every search-thread count.
    let dir = std::env::temp_dir().join("imcis_file_scenario_search_threads");
    std::fs::create_dir_all(&dir).unwrap();
    let stable_at = |search_threads: usize| {
        let mut spec = file_spec(vec![
            ("path", Value::Str(COIN_IMC.into())),
            ("target", Value::Str("heads".into())),
            ("avoid", Value::Str("tails".into())),
        ])
        .with_threads(1, search_threads);
        spec.method = Method::Imcis(ImcisSpec {
            sample: SampleSpec {
                n_traces: 500,
                ..SampleSpec::default()
            },
            r_undefeated: 50,
            force_sampling: true,
            search: SearchStrategy::Batched { batch_size: 16 },
            ..ImcisSpec::default()
        });
        spec.seed = 2018;
        let manifest = dir.join(format!("coin_{search_threads}.json"));
        std::fs::write(&manifest, spec.to_json_string()).unwrap();
        let mut report = cli_report(&["run", manifest.to_str().unwrap()]);
        report.remove("spec");
        report.remove("timing");
        report
    };
    let reference = stable_at(1);
    let run = &reference.get("runs").and_then(Value::as_array).unwrap()[0];
    assert_eq!(run.get("rounds").and_then(Value::as_u64), Some(96));
    let gamma = |key: &str| run.get(key).and_then(Value::as_f64).unwrap();
    assert!(
        (gamma("gamma_min") - 0.20156).abs() < 1e-5,
        "{}",
        gamma("gamma_min")
    );
    assert!(
        (gamma("gamma_max") - 0.29869).abs() < 1e-5,
        "{}",
        gamma("gamma_max")
    );
    for search_threads in [2, 8] {
        assert_eq!(stable_at(search_threads).pretty(), reference.pretty());
    }
}
