//! [`Report`] — the uniform, schema-stable result of a [`Session`] run.
//!
//! Every estimation method (crude Monte Carlo, standard IS, IMCIS,
//! cross-entropy, zero-variance) reports through this one shape:
//! aggregate estimate and confidence interval, per-repetition outcomes
//! with optional optimisation traces, reference values and coverage when
//! the scenario knows its exact `γ`s, and wall-clock timing.
//!
//! [`CoverageSummary`] folds per-repetition intervals into the paper's
//! Table II columns; the session computes a report's `ci` and coverage
//! with it.
//!
//! The JSON form is versioned (`"schema": "imcis.report/2"`) and
//! deterministic: keys are emitted in a fixed order and every value is a
//! pure function of the run outcome, except the `timing` object, which
//! is the *only* volatile part. [`Report::to_json_stable`] omits it, so
//! two runs of the same `RunSpec` — through the library or through
//! `imcis run` — produce byte-identical stable JSON (pinned by the
//! golden-report tests).
//!
//! [`Session`]: crate::Session

use imc_optim::ConvergencePoint;
use imc_stats::{coverage, ConfidenceInterval, Summary};
use serde::json::Value;

use crate::session::MethodOutcome;
use crate::spec::RunSpec;

/// Schema tag emitted in every serialized report.
pub const REPORT_SCHEMA: &str = "imcis.report/2";

/// One repetition's outcome in report form.
#[derive(Debug, Clone, PartialEq)]
pub struct Repetition {
    /// Point estimate (`γ̂`; for IMCIS the bracket midpoint).
    pub estimate: f64,
    /// Empirical standard deviation (for IMCIS the wider extreme's `σ̂`).
    pub sigma: f64,
    /// The `(1−δ)` confidence interval.
    pub ci: ConfidenceInterval,
    /// `γ̂(A_min)` (IMCIS only).
    pub gamma_min: Option<f64>,
    /// `γ̂(A_max)` (IMCIS only).
    pub gamma_max: Option<f64>,
    /// Successful traces.
    pub n_success: u64,
    /// Traces that hit the step budget undecided.
    pub n_undecided: u64,
    /// Optimisation rounds executed (IMCIS only).
    pub rounds: Option<usize>,
    /// Convergence trace in estimate units (recorded on request).
    pub trace: Vec<ConvergencePoint>,
}

impl Repetition {
    /// Builds the report row of one per-repetition outcome.
    pub fn from_outcome(outcome: &MethodOutcome) -> Self {
        Repetition {
            estimate: outcome.estimate,
            sigma: outcome.sigma,
            ci: outcome.ci,
            gamma_min: outcome.gamma_min,
            gamma_max: outcome.gamma_max,
            n_success: outcome.n_success,
            n_undecided: outcome.n_undecided,
            rounds: outcome.rounds,
            trace: outcome.trace.clone(),
        }
    }
}

/// Wall-clock timing of a run — the only non-deterministic report part.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timing {
    /// Total session wall time in milliseconds.
    pub total_ms: f64,
    /// Per-repetition wall time in milliseconds.
    pub per_run_ms: Vec<f64>,
}

impl Timing {
    /// The JSON form — the one volatile object both [`Report::to_json`]
    /// and `SuiteReport::to_json` append to their stable forms.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("total_ms".into(), Value::Float(self.total_ms)),
            (
                "per_run_ms".into(),
                Value::Array(self.per_run_ms.iter().map(|&ms| Value::Float(ms)).collect()),
            ),
        ])
    }
}

/// The uniform result of a [`Session`](crate::Session) run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The manifest that produced this report (canonical echo).
    pub spec: RunSpec,
    /// Human-readable model name from the built setup.
    pub model: String,
    /// Mean point estimate across repetitions.
    pub estimate: f64,
    /// Mean empirical standard deviation across repetitions.
    pub sigma: f64,
    /// Mean confidence interval (mean lower, mean upper) across
    /// repetitions.
    pub ci: ConfidenceInterval,
    /// Exact `γ(Â)` of the scenario, when known.
    pub gamma_center: Option<f64>,
    /// Exact `γ` of the true system, when known.
    pub gamma_exact: Option<f64>,
    /// Fraction of repetitions whose CI covers `γ(Â)` — the exact
    /// probability of the learnt centre chain the estimators target.
    pub coverage_gamma_hat: Option<f64>,
    /// Fraction of repetitions whose CI covers the true system's `γ`.
    /// Reported separately from [`Report::coverage_gamma_hat`] because the
    /// two genuinely diverge: the pinned group-repair mixture-IS run
    /// covers `γ(Â)` at 100% while slightly under-covering the true `γ`
    /// (the paper's §VI-B observation) — one blended number would hide
    /// that discrepancy.
    pub coverage_gamma_true: Option<f64>,
    /// Per-repetition outcomes, repetition order.
    pub runs: Vec<Repetition>,
    /// Wall-clock timing (volatile; excluded from the stable JSON form).
    pub timing: Timing,
}

/// Summary of a coverage experiment for one estimation method — a row of
/// the paper's Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageSummary {
    /// Mean lower CI bound across repetitions.
    pub mean_lo: f64,
    /// Mean upper CI bound across repetitions.
    pub mean_hi: f64,
    /// Mean mid-value across repetitions.
    pub mean_mid: f64,
    /// Fraction of repetitions whose CI contains `γ(Â)` (when supplied).
    pub coverage_gamma_hat: Option<f64>,
    /// Fraction of repetitions whose CI contains the true system's exact
    /// `γ` (when supplied).
    pub coverage_gamma_true: Option<f64>,
    /// Number of repetitions.
    pub reps: usize,
}

impl CoverageSummary {
    /// Builds the summary from per-repetition confidence intervals.
    ///
    /// Coverage is counted with a relative tolerance of `1e-9`: a
    /// zero-variance IS run produces a CI that is *mathematically* the
    /// point `γ(Â)` but differs from it by floating-point ulps, and the
    /// paper counts such intervals as covering (its illustrative IS row
    /// reports 100% coverage of `γ(Â)`).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn from_cis(
        cis: &[ConfidenceInterval],
        gamma_center: Option<f64>,
        gamma_exact: Option<f64>,
    ) -> Self {
        assert!(!cis.is_empty(), "no repetitions to summarise");
        let lo = Summary::from_values(cis.iter().map(ConfidenceInterval::lo));
        let hi = Summary::from_values(cis.iter().map(ConfidenceInterval::hi));
        let mid = Summary::from_values(cis.iter().map(ConfidenceInterval::mid));
        let cover = |g: f64| {
            let tol = 1e-9 * g.abs();
            let widened: Vec<ConfidenceInterval> = cis
                .iter()
                .map(|ci| ConfidenceInterval::new(ci.lo() - tol, ci.hi() + tol))
                .collect();
            coverage(&widened, g)
        };
        CoverageSummary {
            mean_lo: lo.average(),
            mean_hi: hi.average(),
            mean_mid: mid.average(),
            coverage_gamma_hat: gamma_center.map(cover),
            coverage_gamma_true: gamma_exact.map(cover),
            reps: cis.len(),
        }
    }
}

pub(crate) fn opt_float(value: Option<f64>) -> Value {
    match value {
        Some(x) => Value::Float(x),
        None => Value::Null,
    }
}

pub(crate) fn ci_json(ci: &ConfidenceInterval) -> Value {
    Value::object([
        ("lo".into(), Value::Float(ci.lo())),
        ("hi".into(), Value::Float(ci.hi())),
    ])
}

impl Report {
    /// The full JSON form, including the volatile `timing` object.
    pub fn to_json(&self) -> Value {
        let mut value = self.to_json_stable();
        if let Value::Object(pairs) = &mut value {
            pairs.push(("timing".into(), self.timing.to_json()));
        }
        value
    }

    /// The deterministic JSON form: everything except `timing`. Two runs
    /// of the same spec produce byte-identical `to_json_stable().pretty()`
    /// text.
    pub fn to_json_stable(&self) -> Value {
        let runs: Vec<Value> = self
            .runs
            .iter()
            .map(|rep| {
                let trace: Vec<Value> = rep
                    .trace
                    .iter()
                    .map(|p| {
                        Value::object([
                            ("round".into(), Value::UInt(p.round as u64)),
                            ("f_min".into(), Value::Float(p.f_min)),
                            ("f_max".into(), Value::Float(p.f_max)),
                        ])
                    })
                    .collect();
                Value::object([
                    ("estimate".into(), Value::Float(rep.estimate)),
                    ("sigma".into(), Value::Float(rep.sigma)),
                    ("ci".into(), ci_json(&rep.ci)),
                    ("gamma_min".into(), opt_float(rep.gamma_min)),
                    ("gamma_max".into(), opt_float(rep.gamma_max)),
                    ("n_success".into(), Value::UInt(rep.n_success)),
                    ("n_undecided".into(), Value::UInt(rep.n_undecided)),
                    (
                        "rounds".into(),
                        match rep.rounds {
                            Some(r) => Value::UInt(r as u64),
                            None => Value::Null,
                        },
                    ),
                    ("trace".into(), Value::Array(trace)),
                ])
            })
            .collect();
        Value::object([
            ("schema".into(), Value::Str(REPORT_SCHEMA.into())),
            ("spec".into(), self.spec.to_json()),
            ("model".into(), Value::Str(self.model.clone())),
            ("estimate".into(), Value::Float(self.estimate)),
            ("sigma".into(), Value::Float(self.sigma)),
            ("ci".into(), ci_json(&self.ci)),
            (
                "references".into(),
                Value::object([
                    ("gamma_center".into(), opt_float(self.gamma_center)),
                    ("gamma_exact".into(), opt_float(self.gamma_exact)),
                ]),
            ),
            (
                "coverage".into(),
                Value::object([
                    ("gamma_hat".into(), opt_float(self.coverage_gamma_hat)),
                    ("gamma_true".into(), opt_float(self.coverage_gamma_true)),
                ]),
            ),
            ("runs".into(), Value::Array(runs)),
        ])
    }

    /// Pretty-printed [`Report::to_json`] — the `imcis run` output form.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

fn number_or_null(value: Option<&Value>, what: &str) -> Result<(), String> {
    match value {
        Some(Value::Null) => Ok(()),
        Some(v) if v.as_f64().is_some() => Ok(()),
        _ => Err(format!("{what} must be a number or null")),
    }
}

fn ci_checked(value: Option<&Value>, what: &str) -> Result<(), String> {
    let ci = value.ok_or(format!("{what} is missing"))?;
    let lo = ci.get("lo").and_then(Value::as_f64);
    let hi = ci.get("hi").and_then(Value::as_f64);
    match (lo, hi) {
        (Some(lo), Some(hi)) if lo <= hi => Ok(()),
        (Some(_), Some(_)) => Err(format!("{what}: `lo` must not exceed `hi`")),
        _ => Err(format!("{what} must be an object with numeric `lo`/`hi`")),
    }
}

/// Validates a JSON value against the `imcis.report/2` shape using the
/// real spec parser underneath: the `spec` echo must parse as a
/// [`RunSpec`] (so a stale or hand-edited echo fails exactly like a bad
/// manifest would), the aggregate fields must be shaped and ordered
/// correctly, and every repetition row must carry the full column set.
/// Accepts both the stable form and the full form (with the volatile
/// `timing` object).
///
/// This is the validator behind the `imcis submit` client's event checks
/// and the `docs/FORMATS.md` example tests.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_report_json(value: &Value) -> Result<(), String> {
    let pairs = value.as_object().ok_or("report must be a JSON object")?;
    for (key, _) in pairs {
        if !matches!(
            key.as_str(),
            "schema"
                | "spec"
                | "model"
                | "estimate"
                | "sigma"
                | "ci"
                | "references"
                | "coverage"
                | "runs"
                | "timing"
        ) {
            return Err(format!("unknown report key `{key}`"));
        }
    }
    match value.get("schema").and_then(Value::as_str) {
        Some(REPORT_SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema `{other}`")),
        None => return Err("missing `schema` tag".into()),
    }
    let spec = value.get("spec").ok_or("missing `spec` echo")?;
    RunSpec::from_json(spec).map_err(|e| format!("`spec` echo does not validate: {e}"))?;
    if value.get("model").and_then(Value::as_str).is_none() {
        return Err("`model` must be a string".into());
    }
    for key in ["estimate", "sigma"] {
        if value.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("`{key}` must be a number"));
        }
    }
    ci_checked(value.get("ci"), "`ci`")?;
    let references = value.get("references").ok_or("missing `references`")?;
    number_or_null(references.get("gamma_center"), "`references.gamma_center`")?;
    number_or_null(references.get("gamma_exact"), "`references.gamma_exact`")?;
    let coverage = value.get("coverage").ok_or("missing `coverage`")?;
    number_or_null(coverage.get("gamma_hat"), "`coverage.gamma_hat`")?;
    number_or_null(coverage.get("gamma_true"), "`coverage.gamma_true`")?;
    let runs = value
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("`runs` must be an array")?;
    if runs.is_empty() {
        return Err("`runs` must contain at least one repetition".into());
    }
    for (i, run) in runs.iter().enumerate() {
        let context = |msg: String| format!("`runs[{i}]`: {msg}");
        for key in ["estimate", "sigma"] {
            if run.get(key).and_then(Value::as_f64).is_none() {
                return Err(context(format!("`{key}` must be a number")));
            }
        }
        ci_checked(run.get("ci"), "`ci`").map_err(context)?;
        number_or_null(run.get("gamma_min"), "`gamma_min`").map_err(context)?;
        number_or_null(run.get("gamma_max"), "`gamma_max`").map_err(context)?;
        for key in ["n_success", "n_undecided"] {
            if run.get(key).and_then(Value::as_u64).is_none() {
                return Err(context(format!("`{key}` must be an unsigned integer")));
            }
        }
        match run.get("rounds") {
            Some(Value::Null) => {}
            Some(v) if v.as_u64().is_some() => {}
            _ => {
                return Err(context(
                    "`rounds` must be an unsigned integer or null".into(),
                ))
            }
        }
        let trace = run
            .get("trace")
            .and_then(Value::as_array)
            .ok_or_else(|| context("`trace` must be an array".into()))?;
        for point in trace {
            let ok = point.get("round").and_then(Value::as_u64).is_some()
                && point.get("f_min").and_then(Value::as_f64).is_some()
                && point.get("f_max").and_then(Value::as_f64).is_some();
            if !ok {
                return Err(context(
                    "trace points need `round`, `f_min` and `f_max`".into(),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_table2_columns() {
        let cis = vec![
            ConfidenceInterval::new(0.1, 0.3),
            ConfidenceInterval::new(0.15, 0.35),
        ];
        let summary = CoverageSummary::from_cis(&cis, Some(0.2), Some(0.5));
        assert!((summary.mean_lo - 0.125).abs() < 1e-12);
        assert!((summary.mean_hi - 0.325).abs() < 1e-12);
        assert!((summary.mean_mid - 0.225).abs() < 1e-12);
        assert_eq!(summary.coverage_gamma_hat, Some(1.0));
        assert_eq!(summary.coverage_gamma_true, Some(0.0));
        assert_eq!(summary.reps, 2);
    }

    #[test]
    #[should_panic(expected = "no repetitions")]
    fn empty_summary_panics() {
        let _ = CoverageSummary::from_cis(&[], None, None);
    }
}
