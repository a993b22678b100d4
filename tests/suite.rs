//! The suite-layer contract, end to end:
//!
//! * the checked-in `specs/paper_table1_suite.json` manifest is
//!   canonical (parse → serialize is byte-identical) and reproduces the
//!   Table 1 sweep shape — the illustrative scenario under all five
//!   methods — over a single shared scenario build;
//! * `SuiteReport::to_json_stable` is **byte-identical across suite
//!   thread budgets {1, 2, 8}**, and each member report is bit-identical
//!   to running that member's spec through its own `Session`;
//! * the `SetupCache` builds each unique `(scenario, params)` pair
//!   exactly once, asserted through instrumented scenario builders;
//! * `SuiteReport::from_json` accepts exactly what the writer writes: a
//!   summary column or key order that drifts from it is named by path,
//!   the rules no encoding shows are checked without a panic, and a
//!   `{"file": …}` member in the spec echo is refused before any read;
//! * a manifest that repeats a key in one object is refused, not read
//!   as its first binding;
//! * a campaign's `run` is inline only: a `{"file": …}` reference there is
//!   refused with a pinned message.
//!
//! Re-canonicalise the checked-in manifest deliberately with
//! `IMCIS_BLESS_GOLDEN=1 cargo test --test suite`.

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use imc_models::scenario::illustrative_setup;
use imc_models::{Scenario, ScenarioError, ScenarioParams, ScenarioRegistry, Setup};
use imcis_core::{Report, Session, Suite, SuiteReport, SuiteSpec};
use serde::json::{self, Value};

const TABLE1_SUITE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/paper_table1_suite.json");

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// A cheap three-member suite over two distinct scenario references.
fn small_suite_text() -> &'static str {
    r#"{
        "runs": [
            {"scenario": {"name": "illustrative"},
             "method": {"name": "smc", "n_traces": 200}, "seed": 3, "threads": 1},
            {"scenario": {"name": "illustrative"},
             "method": {"name": "standard-is", "n_traces": 200}, "seed": 4, "threads": 1},
            {"scenario": {"name": "group-repair", "params": {"is": "zero-variance"}},
             "method": {"name": "standard-is", "n_traces": 300}, "seed": 5, "threads": 1}
        ],
        "threads": 1
    }"#
}

#[test]
fn paper_table1_suite_manifest_is_canonical_and_well_formed() {
    let text = read(TABLE1_SUITE);
    let spec = SuiteSpec::from_str(&text).expect("checked-in suite manifest parses");
    if std::env::var_os("IMCIS_BLESS_GOLDEN").is_some() {
        std::fs::write(TABLE1_SUITE, spec.to_json_string())
            .expect("can write the canonical manifest");
        return;
    }
    assert_eq!(
        spec.to_json_string(),
        text,
        "specs/paper_table1_suite.json is not canonical \
         (IMCIS_BLESS_GOLDEN=1 re-canonicalises it deliberately)"
    );
    // The Table 1 sweep: the illustrative scenario under all five methods.
    let methods: Vec<&str> = spec
        .runs
        .iter()
        .map(|r| r.run_spec().method.name())
        .collect();
    assert_eq!(
        methods,
        [
            "smc",
            "standard-is",
            "zero-variance",
            "cross-entropy",
            "imcis"
        ]
    );
    assert!(spec
        .runs
        .iter()
        .all(|r| r.run_spec().scenario.name == "illustrative"));
    // One scenario reference → one shared build behind every session.
    let suite = Suite::from_spec(spec).unwrap();
    assert_eq!(suite.unique_setups(), 1);
    let first = suite.sessions()[0].setup() as *const Setup;
    assert!(suite
        .sessions()
        .iter()
        .all(|s| std::ptr::eq(s.setup(), first)));
}

#[test]
fn suite_is_bit_identical_across_thread_budgets_and_to_individual_sessions() {
    let spec = SuiteSpec::from_str(small_suite_text()).unwrap();
    let suite = Suite::from_spec(spec.clone()).unwrap();

    // Acceptance criterion 1: byte-identical stable JSON at every suite
    // thread budget (the budget steers scheduling only; reports land in
    // member-index slots).
    let reference = suite.run_with_threads(1).unwrap();
    let reference_text = reference.to_json_stable().pretty();
    for threads in [2usize, 8] {
        let report = suite.run_with_threads(threads).unwrap();
        assert_eq!(
            report.to_json_stable().pretty(),
            reference_text,
            "suite output drifted at thread budget {threads}"
        );
    }
    // The manifest's own budget takes the same path.
    assert_eq!(
        suite.run().unwrap().to_json_stable().pretty(),
        reference_text
    );

    // Acceptance criterion 2: report-for-report equality with running
    // each member spec through its own Session (fresh scenario build, no
    // cache) — sharing a Setup changes where the models live, not what
    // they are.
    assert_eq!(reference.members.len(), spec.runs.len());
    for (i, run) in spec.runs.iter().enumerate() {
        let solo = Session::from_spec(run.run_spec().clone())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            reference.members[i]
                .report()
                .expect("clean suite runs have ok members")
                .to_json_stable()
                .pretty(),
            solo.to_json_stable().pretty(),
            "suite member {i} diverged from its standalone session"
        );
    }
}

/// An instrumented scenario: counts builds, returns the illustrative
/// setup.
struct CountingScenario {
    name: &'static str,
    builds: Arc<AtomicUsize>,
}

impl Scenario for CountingScenario {
    fn name(&self) -> &'static str {
        self.name
    }
    fn summary(&self) -> &'static str {
        "instrumented illustrative clone (build counter)"
    }
    fn build(&self, params: &ScenarioParams) -> Result<Setup, ScenarioError> {
        params.check_known(&[])?;
        self.builds.fetch_add(1, Ordering::SeqCst);
        Ok(illustrative_setup())
    }
}

#[test]
fn setup_cache_builds_each_unique_scenario_exactly_once() {
    let builds_a = Arc::new(AtomicUsize::new(0));
    let builds_b = Arc::new(AtomicUsize::new(0));
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(CountingScenario {
        name: "counted-a",
        builds: Arc::clone(&builds_a),
    }));
    registry.register(Box::new(CountingScenario {
        name: "counted-b",
        builds: Arc::clone(&builds_b),
    }));

    // Five members over two unique scenario references, duplicates first.
    let spec = SuiteSpec::from_str(
        r#"{
            "runs": [
                {"scenario": {"name": "counted-a"},
                 "method": {"name": "smc", "n_traces": 100}, "seed": 1, "threads": 1},
                {"scenario": {"name": "counted-a"},
                 "method": {"name": "smc", "n_traces": 100}, "seed": 2, "threads": 1},
                {"scenario": {"name": "counted-a"},
                 "method": {"name": "standard-is", "n_traces": 100}, "seed": 3, "threads": 1},
                {"scenario": {"name": "counted-b"},
                 "method": {"name": "smc", "n_traces": 100}, "seed": 4, "threads": 1},
                {"scenario": {"name": "counted-b"},
                 "method": {"name": "smc", "n_traces": 100}, "seed": 5, "threads": 1}
            ],
            "threads": 1
        }"#,
    )
    .unwrap();
    let suite = Suite::from_spec_with(spec, &registry).unwrap();
    assert_eq!(builds_a.load(Ordering::SeqCst), 1, "counted-a built once");
    assert_eq!(builds_b.load(Ordering::SeqCst), 1, "counted-b built once");
    assert_eq!(suite.unique_setups(), 2);

    // The suite still runs — every member against its shared setup.
    let report = suite.run().unwrap();
    assert_eq!(report.members.len(), 5);
    // Building sessions and running them never re-enters the builders.
    assert_eq!(builds_a.load(Ordering::SeqCst), 1);
    assert_eq!(builds_b.load(Ordering::SeqCst), 1);
}

/// `value` with the JSON text `new` at the dotted `path` of object keys
/// and array indices.
fn edited(value: &Value, path: &str, new: &str) -> Value {
    let mut value = value.clone();
    let slot = path.split('.').fold(&mut value, |value, step| match value {
        Value::Object(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == step).unwrap().1,
        Value::Array(items) => &mut items[step.parse::<usize>().unwrap()],
        other => panic!("no `{step}` in {other}"),
    });
    *slot = json::parse(new).unwrap();
    value
}

#[test]
fn suite_report_decoder_names_the_first_drift_from_the_written_form() {
    let spec = SuiteSpec::from_str(&read(TABLE1_SUITE)).unwrap();
    let report = Suite::from_spec(spec).unwrap().run().unwrap();
    let (full, stable) = (report.to_json(), report.to_json_stable());
    assert_eq!(SuiteReport::from_json(&full).unwrap().to_json(), full);
    assert_eq!(
        SuiteReport::from_json(&stable).unwrap().to_json_stable(),
        stable
    );
    // Summary columns that disagree with the member report they echo.
    for (column, new) in [
        ("sigma", "0.25"),
        ("ci", r#"{"lo": 0.0, "hi": 1.0}"#),
        ("coverage_gamma_hat", "0.5"),
        ("coverage_gamma_true", "0.5"),
    ] {
        let err = SuiteReport::from_json(&edited(&stable, &format!("summary.1.{column}"), new));
        let err = err.unwrap_err();
        assert!(
            err.contains(&format!("first difference at summary[1].{column}")),
            "{err}"
        );
    }
    // Reordered top-level keys.
    let mut swapped = stable.clone();
    if let Value::Object(pairs) = &mut swapped {
        pairs.swap(2, 3);
    }
    assert_eq!(
        SuiteReport::from_json(&swapped).unwrap_err(),
        "suite report is not in the form this version writes (first difference at reports)"
    );
}

#[test]
fn report_decoders_reject_what_no_encoding_shows_without_panicking() {
    // A two-stage CE campaign next to a run member.
    let spec = SuiteSpec::from_str(
        r#"{"runs": [
            {"campaign": {"run": {"scenario": {"name": "illustrative"},
                                  "method": {"name": "ce-campaign", "n_traces": 300,
                                             "training_traces": 300},
                                  "seed": 2, "threads": 1},
                          "stages": 2}},
            {"scenario": {"name": "illustrative"},
             "method": {"name": "smc", "n_traces": 200}, "seed": 3, "threads": 1}
        ], "threads": 1}"#,
    )
    .unwrap();
    let stable = Suite::from_spec(spec)
        .unwrap()
        .run()
        .unwrap()
        .to_json_stable();
    SuiteReport::from_json(&stable).unwrap();
    let member = stable.get("reports").unwrap().as_array().unwrap()[1].get("report");
    let member = member.unwrap();
    Report::from_json(member).unwrap();
    let reversed = edited(member, "ci", r#"{"lo": 0.5, "hi": 0.25}"#);
    let err = Report::from_json(&reversed).unwrap_err();
    assert_eq!(err, "report `ci` needs `lo` <= `hi`");
    let err = Report::from_json(&edited(member, "runs", "[]")).unwrap_err();
    assert_eq!(err, "report needs at least one repetition");
    let campaign = |value: &Value, path: &str, new: &str, rule: &str| {
        let path = format!("reports.0.campaign.{path}");
        let err = SuiteReport::from_json(&edited(value, &path, new)).unwrap_err();
        assert!(err.contains(rule), "{err}");
    };
    let failed = r#"{"stage": 0, "status": "error", "message": "stage failed"}"#;
    campaign(&stable, "stages", "[]", "needs at least one stage");
    campaign(&stable, "stages.0", failed, "only the final stage may fail");
    let converged = edited(&stable, "reports.0.campaign.converged_stage", "1");
    campaign(
        &converged,
        "stages.1",
        failed,
        "`converged_stage` must name",
    );
    let empty_message = edited(
        &stable,
        "reports.1",
        r#"{"status": "panic", "message": ""}"#,
    );
    let err = SuiteReport::from_json(&empty_message).unwrap_err();
    assert_eq!(err, "suite report `reports[1]` needs a non-empty `message`");
}

#[test]
fn a_suite_manifest_that_repeats_a_key_is_refused() {
    let text = r#"{
        "runs": [{"scenario": {"name": "illustrative"}, "method": {"name": "smc"}}],
        "runs": [{"scenario": {"name": "illustrative"}, "method": {"name": "smc"}},
                 {"scenario": {"name": "illustrative"}, "method": {"name": "standard-is"}}]
    }"#;
    let err = SuiteSpec::from_str(text).unwrap_err().to_string();
    let at = text.rfind("\"runs\"").unwrap();
    assert_eq!(
        err,
        format!("spec is not valid JSON: JSON error at byte {at}: duplicate key `runs`")
    );
}

#[test]
fn a_campaign_run_given_as_a_file_reference_is_refused() {
    let text = r#"{"runs": [{"campaign": {
        "run": {"file": "specs/illustrative_smoke.json"}, "stages": 2}}]}"#;
    let err = SuiteSpec::from_str(text).unwrap_err().to_string();
    assert_eq!(
        err,
        "spec does not match the schema: `suite.runs[0]`: `campaign.run`: unknown key `file` \
         in `spec` (allowed: schema, scenario, method, seed, threads, search_threads, repetitions)"
    );
}

#[test]
fn a_file_reference_in_a_report_echo_is_refused_before_it_is_read() {
    let spec = SuiteSpec::from_str(&read(TABLE1_SUITE)).unwrap();
    let stable = Suite::from_spec(spec)
        .unwrap()
        .run()
        .unwrap()
        .to_json_stable();
    let refusal = "suite report `spec.runs[0]` is a `file` reference; \
                   a report's spec echo carries its members inline";
    let absent = std::env::temp_dir().join("imcis-absent-dir-7f3a/secret.json");
    let existing = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/illustrative_smoke.json");
    assert!(std::path::Path::new(existing).is_file());
    for path in [absent.to_str().unwrap(), existing] {
        let file = Value::object([("file".to_string(), Value::Str(path.into()))]);
        let echo = edited(&stable, "spec.runs.0", &file.to_string());
        assert_eq!(
            SuiteReport::from_json(&echo).unwrap_err(),
            refusal,
            "{path}"
        );
    }
}
