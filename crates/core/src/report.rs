//! [`Report`] — the uniform, schema-stable result of a [`Session`] run.
//!
//! Every estimation method (crude Monte Carlo, standard IS, IMCIS,
//! cross-entropy, zero-variance) reports through this one shape:
//! aggregate estimate and confidence interval, per-repetition outcomes
//! with optional optimisation traces, reference values and coverage when
//! the scenario knows its exact `γ`s (the paper's Table II columns), and
//! wall-clock timing.
//!
//! The JSON form is versioned (`"schema": "imcis.report/2"`) and
//! deterministic: keys are emitted in a fixed order and every value is a
//! pure function of the run outcome, except the `timing` object, which
//! is the *only* volatile part. [`Report::to_json_stable`] omits it, so
//! two runs of the same `RunSpec` — through the library or through
//! `imcis run` — produce byte-identical stable JSON (pinned by the
//! golden-report tests). [`Report::from_json`] decodes either form and
//! accepts a value only if re-encoding the decoded report gives it back,
//! so the writer is the one description of the format.
//!
//! [`Session`]: crate::Session

use imc_optim::ConvergencePoint;
use imc_stats::ConfidenceInterval;
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
        let imcis = outcome.imcis.as_ref();
        Repetition {
            estimate: outcome.estimate,
            sigma: outcome.sigma,
            ci: outcome.ci,
            gamma_min: imcis.map(|o| o.gamma_min),
            gamma_max: imcis.map(|o| o.gamma_max),
            n_success: outcome.n_success,
            n_undecided: outcome.n_undecided,
            rounds: imcis.map(|o| o.rounds),
            trace: imcis.map_or_else(Vec::new, |o| o.trace.clone()),
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

/// A number, or `null` for `None`: the written form [`Decoder::or_null`]
/// reads back.
pub(crate) fn opt_float(value: Option<f64>) -> Value {
    value.map_or(Value::Null, Value::Float)
}

/// [`opt_float`] for unsigned integers.
pub(crate) fn opt_uint(value: Option<u64>) -> Value {
    value.map_or(Value::Null, Value::UInt)
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
                    ("rounds".into(), opt_uint(rep.rounds.map(|r| r as u64))),
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

    /// Decodes a report in either form. The value is valid only if it is
    /// exactly what this version writes for the decoded report —
    /// [`Report::to_json`] when the input carries `timing`,
    /// [`Report::to_json_stable`] when it does not — so key order and
    /// every column are checked by re-encoding. The `spec` echo decodes
    /// through [`RunSpec::from_json`]. What no encoding shows is checked
    /// by hand: `runs` is not empty and every interval has `lo <= hi`.
    ///
    /// # Errors
    ///
    /// A description of the first violation; a value that decodes but is
    /// not in the written form names the first differing path.
    pub fn from_json(value: &Value) -> Result<Report, String> {
        let report = Report::decode(&Decoder {
            value,
            context: "report".into(),
        })?;
        same_form("report", value, report.to_json())?;
        Ok(report)
    }

    /// Decodes a report without the re-encoding check, which the
    /// enclosing document's decoder makes once for the whole value.
    pub(crate) fn decode(report: &Decoder) -> Result<Report, String> {
        if report.str("schema")? != REPORT_SCHEMA {
            return Err(format!("{} needs schema `{REPORT_SCHEMA}`", report.context));
        }
        let spec = RunSpec::from_json(report.field("spec", "a", Some)?)
            .map_err(|e| format!("{} `spec` echo does not validate: {e}", report.context))?;
        let runs = report
            .array("runs")?
            .iter()
            .map(Repetition::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if runs.is_empty() {
            return Err(format!("{} needs at least one repetition", report.context));
        }
        let (references, coverage) = (report.object("references")?, report.object("coverage")?);
        Ok(Report {
            spec,
            model: report.str("model")?,
            estimate: report.f64("estimate")?,
            sigma: report.f64("sigma")?,
            ci: report.interval("ci")?,
            gamma_center: references.or_null("gamma_center", "a numeric", Value::as_f64)?,
            gamma_exact: references.or_null("gamma_exact", "a numeric", Value::as_f64)?,
            coverage_gamma_hat: coverage.or_null("gamma_hat", "a numeric", Value::as_f64)?,
            coverage_gamma_true: coverage.or_null("gamma_true", "a numeric", Value::as_f64)?,
            runs,
            timing: Timing::from_json(report)?,
        })
    }
}

impl Repetition {
    fn from_json(run: &Decoder) -> Result<Self, String> {
        let trace = run
            .array("trace")?
            .iter()
            .map(|point| {
                Ok(ConvergencePoint {
                    round: point.usize("round")?,
                    f_min: point.f64("f_min")?,
                    f_max: point.f64("f_max")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Repetition {
            estimate: run.f64("estimate")?,
            sigma: run.f64("sigma")?,
            ci: run.interval("ci")?,
            gamma_min: run.or_null("gamma_min", "a numeric", Value::as_f64)?,
            gamma_max: run.or_null("gamma_max", "a numeric", Value::as_f64)?,
            n_success: run.u64("n_success")?,
            n_undecided: run.u64("n_undecided")?,
            rounds: run.or_null("rounds", "an unsigned", Value::as_usize)?,
            trace,
        })
    }
}

impl Timing {
    /// Decodes the optional `timing` object of a report or suite report
    /// (the stable forms have none).
    pub(crate) fn from_json(report: &Decoder) -> Result<Self, String> {
        if report.value.get("timing").is_none() {
            return Ok(Timing::default());
        }
        let timing = report.object("timing")?;
        Ok(Timing {
            total_ms: timing.f64("total_ms")?,
            per_run_ms: timing.field("per_run_ms", "a numeric array", |v| {
                v.as_array()?.iter().map(Value::as_f64).collect()
            })?,
        })
    }
}

/// Typed field access on one JSON object, for the report and wire
/// decoders; errors name `context`.
pub(crate) struct Decoder<'a> {
    pub(crate) value: &'a Value,
    pub(crate) context: String,
}

impl<'a> Decoder<'a> {
    pub(crate) fn field<T>(
        &self,
        key: &str,
        what: &str,
        view: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.value
            .get(key)
            .and_then(view)
            .ok_or_else(|| format!("{} needs {what} `{key}`", self.context))
    }

    /// [`Decoder::field`], with `null` read as `None`.
    pub(crate) fn or_null<T>(
        &self,
        key: &str,
        what: &str,
        view: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.value.get(key) {
            Some(Value::Null) => Ok(None),
            value => value
                .and_then(view)
                .map(Some)
                .ok_or_else(|| format!("{} needs {what} or null `{key}`", self.context)),
        }
    }

    pub(crate) fn u64(&self, key: &str) -> Result<u64, String> {
        self.field(key, "an unsigned", Value::as_u64)
    }

    pub(crate) fn usize(&self, key: &str) -> Result<usize, String> {
        self.field(key, "an unsigned", Value::as_usize)
    }

    pub(crate) fn f64(&self, key: &str) -> Result<f64, String> {
        self.field(key, "a numeric", Value::as_f64)
    }

    pub(crate) fn bool(&self, key: &str) -> Result<bool, String> {
        self.field(key, "a boolean", Value::as_bool)
    }

    pub(crate) fn str(&self, key: &str) -> Result<String, String> {
        self.field(key, "a string", |v| v.as_str().map(String::from))
    }

    /// The object under `key`.
    pub(crate) fn object(&self, key: &str) -> Result<Decoder<'a>, String> {
        Ok(Decoder {
            value: self.field(key, "an object", |v| v.as_object().map(|_| v))?,
            context: format!("{} `{key}`", self.context),
        })
    }

    /// The elements of the array under `key`.
    pub(crate) fn array(&self, key: &str) -> Result<Vec<Decoder<'a>>, String> {
        let items = self.field(key, "an array", Value::as_array)?;
        let item = |(i, value)| Decoder {
            value,
            context: format!("{} `{key}[{i}]`", self.context),
        };
        Ok(items.iter().enumerate().map(item).collect())
    }

    /// The `{"lo": …, "hi": …}` interval under `key`. The order is checked
    /// here because [`ConfidenceInterval::new`] asserts it.
    pub(crate) fn interval(&self, key: &str) -> Result<ConfidenceInterval, String> {
        let ci = self.object(key)?;
        let (lo, hi) = (ci.f64("lo")?, ci.f64("hi")?);
        if lo <= hi {
            Ok(ConfidenceInterval::new(lo, hi))
        } else {
            Err(format!("{} needs `lo` <= `hi`", ci.context))
        }
    }
}

/// Checks that `input` equals `encoded`, the form this version writes for
/// the value decoded from it: the stable form, without `timing`, when the
/// input has none.
pub(crate) fn same_form(what: &str, input: &Value, mut encoded: Value) -> Result<(), String> {
    if input.get("timing").is_none() {
        encoded.remove("timing");
    }
    match first_difference(input, &encoded) {
        None => Ok(()),
        Some(path) => Err(format!(
            "{what} is not in the form this version writes (first difference at {})",
            path.trim_start_matches('.')
        )),
    }
}

/// The path to the first place where `a` and `b` differ, such as
/// `.summary[1].sigma`; `None` when they are equal.
fn first_difference(a: &Value, b: &Value) -> Option<String> {
    fn first_unequal<T: PartialEq>(x: &[T], y: &[T]) -> usize {
        let common = x.len().min(y.len());
        x.iter().zip(y).position(|(p, q)| p != q).unwrap_or(common)
    }
    if a == b {
        return None;
    }
    let (step, a, b) = match (a, b) {
        (Value::Object(x), Value::Object(y)) => {
            let i = first_unequal(x, y);
            match (x.get(i), y.get(i)) {
                (Some((k, v)), Some((l, w))) if k == l => (format!(".{k}"), v, w),
                (Some((k, _)), _) | (_, Some((k, _))) => return Some(format!(".{k}")),
                (None, None) => return Some(String::new()),
            }
        }
        (Value::Array(x), Value::Array(y)) => {
            let i = first_unequal(x, y);
            match (x.get(i), y.get(i)) {
                (Some(v), Some(w)) => (format!("[{i}]"), v, w),
                _ => return Some(format!("[{i}]")),
            }
        }
        _ => return Some(String::new()),
    };
    Some(step + &first_difference(a, b).unwrap_or_default())
}
