//! [`RunSpec`] — the serializable manifest of one experiment run.
//!
//! A spec pins everything that determines a run's outcome: the scenario
//! (a [`ScenarioRegistry`](imc_models::ScenarioRegistry) name plus
//! parameters), the estimation method with its full typed configuration,
//! the RNG seed, the thread budgets and the repetition count. Because
//! every engine in the workspace is deterministic given its seed and
//! **bit-identical at every thread count**, a `RunSpec` is a complete,
//! reviewable description of a result: two machines running the same
//! manifest produce the same `Report`.
//!
//! Serialization is strict and canonical:
//!
//! * unknown keys are rejected (a typo in a manifest fails loudly);
//! * optional fields may be omitted on input but are always emitted on
//!   output, with a fixed key order — so
//!   `s.parse::<RunSpec>()?.to_json_string()` is a canonical form, and
//!   serializing twice is byte-identical (pinned by the round-trip
//!   tests).

use std::fmt;

use imc_models::{ScenarioError, ScenarioParams};
use imc_optim::SearchStrategy;
use imc_sampling::CrossEntropyConfig;
use serde::json::{self, Value};

use crate::ImcisConfig;

/// Schema tag emitted in every serialized spec.
pub const RUNSPEC_SCHEMA: &str = "imcis.runspec/1";

/// A spec parse/validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The text is not valid JSON.
    Json(String),
    /// The JSON does not match the `RunSpec` schema.
    Schema(String),
    /// A manifest or referenced spec file could not be read (suite
    /// manifests may reference member specs by path).
    File(String),
    /// A `{"dsl": …}` scenario failed to validate; carries the typed,
    /// line/column-spanned diagnostic from the DSL front end.
    Dsl(imc_models::dsl::DslError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(msg) => write!(f, "spec is not valid JSON: {msg}"),
            SpecError::Schema(msg) => write!(f, "spec does not match the schema: {msg}"),
            SpecError::File(msg) => write!(f, "spec file error: {msg}"),
            SpecError::Dsl(e) => write!(f, "scenario dsl error: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

pub(crate) fn schema_err(msg: impl Into<String>) -> SpecError {
    SpecError::Schema(msg.into())
}

/// Reference to a registered scenario: name plus build parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRef {
    /// Registry name (e.g. `"group-repair"`).
    pub name: String,
    /// Scenario parameters (scenario-specific; validated on build).
    pub params: ScenarioParams,
}

impl ScenarioRef {
    /// A scenario reference with no parameters.
    pub fn named(name: impl Into<String>) -> Self {
        ScenarioRef {
            name: name.into(),
            params: ScenarioParams::empty(),
        }
    }

    /// A `"dsl"` scenario reference: DSL source text plus an object of
    /// parameter bindings. `bound` is sorted by key here so equal
    /// workloads share one canonical form — and therefore one
    /// [`SetupCache`](crate::suite::SetupCache) entry and one router
    /// ring placement — regardless of manifest key order.
    pub fn dsl(source: impl Into<String>, mut bound: Vec<(String, Value)>) -> Self {
        bound.sort_by(|a, b| a.0.cmp(&b.0));
        ScenarioRef {
            name: "dsl".into(),
            params: ScenarioParams::from_pairs([
                ("params".to_string(), Value::Object(bound)),
                ("source".to_string(), Value::Str(source.into())),
            ]),
        }
    }

    /// The `(source, bound params)` of a [`ScenarioRef::dsl`] reference,
    /// or `None` for registry-name references. Used by the serializer to
    /// round-trip the `{"dsl": …}` manifest form verbatim.
    pub fn dsl_parts(&self) -> Option<(&str, &[(String, Value)])> {
        if self.name != "dsl" {
            return None;
        }
        self.params.check_known(&["source", "params"]).ok()?;
        let source = self.params.get("source")?.as_str()?;
        let bound = match self.params.get("params") {
            None => &[][..],
            Some(v) => v.as_object()?,
        };
        Some((source, bound))
    }

    /// The canonical `(scenario, params)` cache key this reference
    /// resolves to — the identity under which
    /// [`SetupCache`](crate::suite::SetupCache) shares builds, and the
    /// key a cache-affinity router shards on.
    pub fn cache_key(&self) -> String {
        self.params.cache_key(&self.name)
    }

    /// The stable 64-bit fingerprint of [`ScenarioRef::cache_key`]
    /// (see [`ScenarioParams::cache_fingerprint`]).
    pub fn cache_fingerprint(&self) -> u64 {
        self.params.cache_fingerprint(&self.name)
    }
}

/// Sampling-phase configuration shared by every method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSpec {
    /// Traces per estimation run.
    pub n_traces: usize,
    /// Confidence parameter `δ`.
    pub delta: f64,
    /// Per-trace transition budget.
    pub max_steps: usize,
}

impl Default for SampleSpec {
    fn default() -> Self {
        SampleSpec {
            n_traces: 10_000,
            delta: 0.05,
            max_steps: imc_sim::DEFAULT_MAX_STEPS,
        }
    }
}

/// IMCIS (Algorithm 1) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImcisSpec {
    /// Sampling-phase knobs.
    pub sample: SampleSpec,
    /// Undefeated rounds `R` before the random search stops.
    pub r_undefeated: usize,
    /// Hard cap on optimisation rounds.
    pub r_max: usize,
    /// Disable the §III-C closed-form fast path (paper-verbatim
    /// Algorithm 2).
    pub force_sampling: bool,
    /// Record the optimisation convergence trace in the report.
    pub record_trace: bool,
    /// Candidate-search engine.
    pub search: SearchStrategy,
}

impl Default for ImcisSpec {
    fn default() -> Self {
        ImcisSpec {
            sample: SampleSpec::default(),
            r_undefeated: 1000,
            r_max: 100_000,
            force_sampling: false,
            record_trace: false,
            search: SearchStrategy::Sequential,
        }
    }
}

impl ImcisSpec {
    /// The equivalent [`ImcisConfig`] (thread budgets are supplied by the
    /// enclosing [`RunSpec`]).
    pub fn to_config(&self, threads: usize, search_threads: usize) -> ImcisConfig {
        ImcisConfig {
            n_traces: self.sample.n_traces,
            delta: self.sample.delta,
            r_undefeated: self.r_undefeated,
            r_max: self.r_max,
            max_steps: self.sample.max_steps,
            record_trace: self.record_trace,
            force_sampling: self.force_sampling,
            threads,
            search_threads,
            strategy: self.search,
        }
    }
}

/// Cross-entropy IS configuration: train `B` by CE, then estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossEntropySpec {
    /// Sampling-phase knobs of the final estimation run.
    pub sample: SampleSpec,
    /// CE iterations.
    pub iterations: usize,
    /// Traces sampled per CE iteration.
    pub traces_per_iteration: usize,
}

impl Default for CrossEntropySpec {
    fn default() -> Self {
        CrossEntropySpec {
            sample: SampleSpec::default(),
            iterations: 10,
            traces_per_iteration: 5_000,
        }
    }
}

impl CrossEntropySpec {
    /// The configuration of the CE training phase.
    pub fn to_config(&self) -> CrossEntropyConfig {
        CrossEntropyConfig {
            iterations: self.iterations,
            traces_per_iteration: self.traces_per_iteration,
            max_steps: self.sample.max_steps,
        }
    }
}

/// Configuration shared by the adaptive (campaign-capable) methods:
/// the estimation run's sampling knobs plus the size of the training
/// batch the between-stage update draws.
///
/// Both adaptive methods run as ordinary single-stage members too —
/// stage 0 estimates under the bootstrap change of measure — but their
/// point is the campaign form, where the chain is refined between
/// stages ([`crate::suite::CampaignSpec`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSpec {
    /// Sampling-phase knobs of each stage's estimation run.
    pub sample: SampleSpec,
    /// Traces drawn by each between-stage training batch.
    pub training_traces: usize,
}

impl Default for AdaptiveSpec {
    fn default() -> Self {
        AdaptiveSpec {
            sample: SampleSpec::default(),
            training_traces: 2_000,
        }
    }
}

/// The estimation method of a run, with its full typed configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum Method {
    /// Crude Monte Carlo on the centre chain `Â` (§II-C baseline).
    Smc(SampleSpec),
    /// Standard IS against `Â` under the scenario's chain `B` (§III-A).
    StandardIs(SampleSpec),
    /// Standard IS under a freshly built zero-variance chain for `Â`.
    ZeroVarianceIs(SampleSpec),
    /// Standard IS under a cross-entropy-trained chain (reference \[24\]).
    CrossEntropyIs(CrossEntropySpec),
    /// The paper's Algorithm 1: importance sampling of the IMC.
    Imcis(ImcisSpec),
    /// Standard IS under a chain refined by a cross-entropy outer loop
    /// between campaign stages (single-stage form: the CE bootstrap
    /// chain `B₀`).
    CeCampaign(AdaptiveSpec),
    /// Standard IS under a Dupuis–Wang state-dependent change of
    /// measure, its value function re-trained between campaign stages.
    DupuisWang(AdaptiveSpec),
}

impl Method {
    /// The stable method name used in manifests and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Smc(_) => "smc",
            Method::StandardIs(_) => "standard-is",
            Method::ZeroVarianceIs(_) => "zero-variance",
            Method::CrossEntropyIs(_) => "cross-entropy",
            Method::Imcis(_) => "imcis",
            Method::CeCampaign(_) => "ce-campaign",
            Method::DupuisWang(_) => "dupuis-wang",
        }
    }

    /// The sampling-phase knobs of the method.
    pub fn sample(&self) -> &SampleSpec {
        match self {
            Method::Smc(s) | Method::StandardIs(s) | Method::ZeroVarianceIs(s) => s,
            Method::CrossEntropyIs(ce) => &ce.sample,
            Method::Imcis(i) => &i.sample,
            Method::CeCampaign(a) | Method::DupuisWang(a) => &a.sample,
        }
    }
}

/// The serializable manifest of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The scenario to build.
    pub scenario: ScenarioRef,
    /// The estimation method and its configuration.
    pub method: Method,
    /// Base RNG seed (repetition `k` derives its own stream from it).
    pub seed: u64,
    /// Simulation worker threads (`0` = all cores; results are
    /// bit-identical at every count).
    pub threads: usize,
    /// Candidate-search worker threads (IMCIS batched search only).
    pub search_threads: usize,
    /// Independent repetitions (each with a derived seed).
    pub repetitions: usize,
}

impl RunSpec {
    /// The seed of a manifest that names none (the paper's year).
    pub const DEFAULT_SEED: u64 = 2018;

    /// A single-repetition spec with default thread policy.
    pub fn new(scenario: ScenarioRef, method: Method, seed: u64) -> Self {
        RunSpec {
            scenario,
            method,
            seed,
            threads: 0,
            search_threads: 0,
            repetitions: 1,
        }
    }

    /// Replaces the repetition count.
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        self.repetitions = repetitions;
        self
    }

    /// Replaces the thread budgets.
    pub fn with_threads(mut self, threads: usize, search_threads: usize) -> Self {
        self.threads = threads;
        self.search_threads = search_threads;
        self
    }

    /// Parses an already-decoded JSON value (strict: unknown keys are
    /// rejected).
    ///
    /// # Errors
    ///
    /// [`SpecError::Schema`] as for the [`std::str::FromStr`] parse.
    pub fn from_json(value: &Value) -> Result<Self, SpecError> {
        let fields = Fields::new(value, "spec")?;
        fields.allow(&[
            "schema",
            "scenario",
            "method",
            "seed",
            "threads",
            "search_threads",
            "repetitions",
        ])?;
        if let Some(schema) = fields.opt("schema") {
            let tag = schema
                .as_str()
                .ok_or_else(|| schema_err("`schema` must be a string"))?;
            if tag != RUNSPEC_SCHEMA {
                return Err(schema_err(format!(
                    "unsupported schema `{tag}` (expected `{RUNSPEC_SCHEMA}`)"
                )));
            }
        }
        let scenario = parse_scenario(fields.require("scenario")?)?;
        let method = parse_method(fields.require("method")?)?;
        let defaults = RunSpec::new(scenario, method, RunSpec::DEFAULT_SEED);
        Ok(RunSpec {
            seed: fields.u64_or("seed", defaults.seed)?,
            threads: fields.usize_or("threads", defaults.threads)?,
            search_threads: fields.usize_or("search_threads", defaults.search_threads)?,
            repetitions: fields.positive_usize_or("repetitions", defaults.repetitions)?,
            ..defaults
        })
    }

    /// The canonical JSON form: every field emitted, fixed key order.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("schema".into(), Value::Str(RUNSPEC_SCHEMA.into())),
            ("scenario".into(), scenario_to_json(&self.scenario)),
            ("method".into(), method_to_json(&self.method)),
            ("seed".into(), Value::UInt(self.seed)),
            ("threads".into(), Value::UInt(self.threads as u64)),
            (
                "search_threads".into(),
                Value::UInt(self.search_threads as u64),
            ),
            ("repetitions".into(), Value::UInt(self.repetitions as u64)),
        ])
    }

    /// The canonical pretty-printed JSON text (the on-disk manifest
    /// form). Byte-identical across parse/serialize round trips.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

/// Parses a JSON manifest (`text.parse::<RunSpec>()`).
impl std::str::FromStr for RunSpec {
    type Err = SpecError;

    /// # Errors
    ///
    /// [`SpecError::Json`] on malformed JSON, [`SpecError::Schema`] on
    /// unknown keys, missing required fields or mistyped values.
    fn from_str(text: &str) -> Result<Self, SpecError> {
        let value = json::parse(text).map_err(|e| SpecError::Json(e.to_string()))?;
        Self::from_json(&value)
    }
}

fn parse_scenario(value: &Value) -> Result<ScenarioRef, SpecError> {
    let fields = Fields::new(value, "scenario")?;
    if fields.opt("dsl").is_some() {
        // The DSL form: `{"dsl": "<source>", "params": {…}}`. Validated
        // eagerly (parse, bind, build the model — no numeric solve) so a
        // bad workload is rejected at manifest-parse time with a spanned
        // diagnostic, the same moment a typoed registry name would be.
        fields.allow(&["dsl", "params"])?;
        let source = fields
            .require("dsl")?
            .as_str()
            .ok_or_else(|| schema_err("`scenario.dsl` must be a string of DSL source"))?
            .to_string();
        let bound = parse_dsl_bindings(fields.opt("params"))?;
        imc_models::dsl::validate(&source, &bound).map_err(SpecError::Dsl)?;
        return Ok(ScenarioRef::dsl(source, bound));
    }
    fields.allow(&["name", "params"])?;
    let name = fields
        .require("name")?
        .as_str()
        .ok_or_else(|| schema_err("`scenario.name` must be a string"))?
        .to_string();
    let params = match fields.opt("params") {
        None => ScenarioParams::empty(),
        Some(v) => ScenarioParams::from_json(v).map_err(scenario_to_spec_err)?,
    };
    if name == "dsl" {
        // Name-form spelling of a DSL scenario: canonicalize into the
        // same `ScenarioRef::dsl` shape (sorted bindings, eager
        // validation) so both spellings share one cache key and
        // serialize to the `{"dsl": …}` form.
        params
            .check_known(&["source", "params"])
            .map_err(scenario_to_spec_err)?;
        let source = params
            .get("source")
            .and_then(Value::as_str)
            .ok_or_else(|| schema_err("`scenario.params.source` must be a string of DSL source"))?
            .to_string();
        let bound = parse_dsl_bindings(params.get("params"))?;
        imc_models::dsl::validate(&source, &bound).map_err(SpecError::Dsl)?;
        return Ok(ScenarioRef::dsl(source, bound));
    }
    Ok(ScenarioRef { name, params })
}

/// The `params` object of a DSL scenario: binding names to scalar
/// numbers (the DSL's parameter environment is numeric).
fn parse_dsl_bindings(value: Option<&Value>) -> Result<Vec<(String, Value)>, SpecError> {
    let Some(value) = value else {
        return Ok(Vec::new());
    };
    let pairs = value
        .as_object()
        .ok_or_else(|| schema_err("`scenario.params` must be an object of parameter bindings"))?;
    for (key, v) in pairs {
        if v.as_f64().is_none() {
            return Err(schema_err(format!(
                "`scenario.params.{key}` must be a number"
            )));
        }
    }
    Ok(pairs.to_vec())
}

fn scenario_to_spec_err(e: ScenarioError) -> SpecError {
    schema_err(e.to_string())
}

/// Canonical JSON of a scenario reference: the `{"dsl": …}` form when
/// the reference is a DSL workload (round-tripping the source text
/// verbatim), the `{"name": …}` form otherwise.
fn scenario_to_json(scenario: &ScenarioRef) -> Value {
    if let Some((source, bound)) = scenario.dsl_parts() {
        return Value::object([
            ("dsl".into(), Value::Str(source.into())),
            ("params".into(), Value::Object(bound.to_vec())),
        ]);
    }
    Value::object([
        ("name".into(), Value::Str(scenario.name.clone())),
        ("params".into(), scenario.params.to_json()),
    ])
}

fn parse_method(value: &Value) -> Result<Method, SpecError> {
    let fields = Fields::new(value, "method")?;
    let name = fields
        .require("name")?
        .as_str()
        .ok_or_else(|| schema_err("`method.name` must be a string"))?;
    const SAMPLE_KEYS: [&str; 4] = ["name", "n_traces", "delta", "max_steps"];
    let sample = |fields: &Fields| -> Result<SampleSpec, SpecError> {
        let defaults = SampleSpec::default();
        let delta = fields.f64_or("delta", defaults.delta)?;
        if !(0.0..1.0).contains(&delta) || delta == 0.0 {
            return Err(schema_err("`method.delta` must lie in (0, 1)"));
        }
        Ok(SampleSpec {
            n_traces: fields.positive_usize_or("n_traces", defaults.n_traces)?,
            delta,
            max_steps: fields.positive_usize_or("max_steps", defaults.max_steps)?,
        })
    };
    match name {
        "smc" => {
            fields.allow(&SAMPLE_KEYS)?;
            Ok(Method::Smc(sample(&fields)?))
        }
        "standard-is" => {
            fields.allow(&SAMPLE_KEYS)?;
            Ok(Method::StandardIs(sample(&fields)?))
        }
        "zero-variance" => {
            fields.allow(&SAMPLE_KEYS)?;
            Ok(Method::ZeroVarianceIs(sample(&fields)?))
        }
        "cross-entropy" => {
            fields.allow(&[
                "name",
                "n_traces",
                "delta",
                "max_steps",
                "iterations",
                "traces_per_iteration",
            ])?;
            let defaults = CrossEntropySpec::default();
            Ok(Method::CrossEntropyIs(CrossEntropySpec {
                sample: sample(&fields)?,
                iterations: fields.positive_usize_or("iterations", defaults.iterations)?,
                traces_per_iteration: fields
                    .positive_usize_or("traces_per_iteration", defaults.traces_per_iteration)?,
            }))
        }
        "imcis" => {
            fields.allow(&[
                "name",
                "n_traces",
                "delta",
                "max_steps",
                "r_undefeated",
                "r_max",
                "force_sampling",
                "record_trace",
                "search",
            ])?;
            let defaults = ImcisSpec::default();
            let search = match fields.opt("search") {
                None => defaults.search,
                Some(v) => parse_search(v)?,
            };
            Ok(Method::Imcis(ImcisSpec {
                sample: sample(&fields)?,
                r_undefeated: fields.positive_usize_or("r_undefeated", defaults.r_undefeated)?,
                r_max: fields.positive_usize_or("r_max", defaults.r_max)?,
                force_sampling: fields.bool_or("force_sampling", defaults.force_sampling)?,
                record_trace: fields.bool_or("record_trace", defaults.record_trace)?,
                search,
            }))
        }
        "ce-campaign" | "dupuis-wang" => {
            fields.allow(&["name", "n_traces", "delta", "max_steps", "training_traces"])?;
            let defaults = AdaptiveSpec::default();
            let adaptive = AdaptiveSpec {
                sample: sample(&fields)?,
                training_traces: fields
                    .positive_usize_or("training_traces", defaults.training_traces)?,
            };
            Ok(if name == "ce-campaign" {
                Method::CeCampaign(adaptive)
            } else {
                Method::DupuisWang(adaptive)
            })
        }
        other => Err(schema_err(format!(
            "unknown method `{other}` (smc | standard-is | zero-variance | cross-entropy | \
             imcis | ce-campaign | dupuis-wang)"
        ))),
    }
}

fn parse_search(value: &Value) -> Result<SearchStrategy, SpecError> {
    let fields = Fields::new(value, "method.search")?;
    fields.allow(&["strategy", "batch_size"])?;
    let strategy = fields
        .require("strategy")?
        .as_str()
        .ok_or_else(|| schema_err("`search.strategy` must be a string"))?;
    match strategy {
        "sequential" => {
            if fields.opt("batch_size").is_some() {
                return Err(schema_err(
                    "`search.batch_size` is only valid with the batched strategy",
                ));
            }
            Ok(SearchStrategy::Sequential)
        }
        "batched" => Ok(SearchStrategy::Batched {
            batch_size: fields.usize_or("batch_size", 0)?,
        }),
        other => Err(schema_err(format!(
            "unknown search strategy `{other}` (sequential | batched)"
        ))),
    }
}

fn method_to_json(method: &Method) -> Value {
    let sample_fields = |s: &SampleSpec| {
        vec![
            ("n_traces".to_string(), Value::UInt(s.n_traces as u64)),
            ("delta".to_string(), Value::Float(s.delta)),
            ("max_steps".to_string(), Value::UInt(s.max_steps as u64)),
        ]
    };
    let mut pairs = vec![("name".to_string(), Value::Str(method.name().into()))];
    match method {
        Method::Smc(s) | Method::StandardIs(s) | Method::ZeroVarianceIs(s) => {
            pairs.extend(sample_fields(s));
        }
        Method::CrossEntropyIs(ce) => {
            pairs.extend(sample_fields(&ce.sample));
            pairs.push(("iterations".into(), Value::UInt(ce.iterations as u64)));
            pairs.push((
                "traces_per_iteration".into(),
                Value::UInt(ce.traces_per_iteration as u64),
            ));
        }
        Method::Imcis(i) => {
            pairs.extend(sample_fields(&i.sample));
            pairs.push(("r_undefeated".into(), Value::UInt(i.r_undefeated as u64)));
            pairs.push(("r_max".into(), Value::UInt(i.r_max as u64)));
            pairs.push(("force_sampling".into(), Value::Bool(i.force_sampling)));
            pairs.push(("record_trace".into(), Value::Bool(i.record_trace)));
            let search = match i.search {
                SearchStrategy::Sequential => {
                    Value::object([("strategy".into(), Value::Str("sequential".into()))])
                }
                SearchStrategy::Batched { batch_size } => Value::object([
                    ("strategy".into(), Value::Str("batched".into())),
                    ("batch_size".into(), Value::UInt(batch_size as u64)),
                ]),
            };
            pairs.push(("search".into(), search));
        }
        Method::CeCampaign(a) | Method::DupuisWang(a) => {
            pairs.extend(sample_fields(&a.sample));
            pairs.push((
                "training_traces".into(),
                Value::UInt(a.training_traces as u64),
            ));
        }
    }
    Value::Object(pairs)
}

/// Strict object-field accessor: tracks the allowed key set and reports
/// unknown keys with their JSON path. Shared with the suite manifest
/// parser in [`crate::suite`].
pub(crate) struct Fields<'a> {
    pairs: &'a [(String, Value)],
    context: &'static str,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(value: &'a Value, context: &'static str) -> Result<Self, SpecError> {
        value
            .as_object()
            .map(|pairs| Fields { pairs, context })
            .ok_or_else(|| schema_err(format!("`{context}` must be a JSON object")))
    }

    pub(crate) fn allow(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (key, _) in self.pairs {
            if !allowed.contains(&key.as_str()) {
                return Err(schema_err(format!(
                    "unknown key `{key}` in `{}` (allowed: {})",
                    self.context,
                    allowed.join(", ")
                )));
            }
        }
        Ok(())
    }

    pub(crate) fn opt(&self, key: &str) -> Option<&'a Value> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub(crate) fn require(&self, key: &str) -> Result<&'a Value, SpecError> {
        self.opt(key).ok_or_else(|| {
            schema_err(format!(
                "`{}` is missing required key `{key}`",
                self.context
            ))
        })
    }

    pub(crate) fn u64_or(&self, key: &str, default: u64) -> Result<u64, SpecError> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v.as_u64().ok_or_else(|| {
                schema_err(format!(
                    "`{}.{key}` must be an unsigned integer",
                    self.context
                ))
            }),
        }
    }

    pub(crate) fn usize_or(&self, key: &str, default: usize) -> Result<usize, SpecError> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v.as_usize().ok_or_else(|| {
                schema_err(format!(
                    "`{}.{key}` must be an unsigned integer",
                    self.context
                ))
            }),
        }
    }

    pub(crate) fn positive_usize_or(&self, key: &str, default: usize) -> Result<usize, SpecError> {
        let value = self.usize_or(key, default)?;
        if value == 0 {
            return Err(schema_err(format!(
                "`{}.{key}` must be positive",
                self.context
            )));
        }
        Ok(value)
    }

    /// Non-finite values are rejected outright: JSON has no NaN/∞
    /// literal, but an overflowing literal like `1e999` parses to `+∞`
    /// and a programmatically built `Value::Float(NAN)` would otherwise
    /// flow straight into the estimators.
    pub(crate) fn f64_or(&self, key: &str, default: f64) -> Result<f64, SpecError> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => match v.as_f64() {
                Some(x) if x.is_finite() => Ok(x),
                Some(_) => Err(schema_err(format!(
                    "`{}.{key}` must be a finite number",
                    self.context
                ))),
                None => Err(schema_err(format!(
                    "`{}.{key}` must be a number",
                    self.context
                ))),
            },
        }
    }

    pub(crate) fn bool_or(&self, key: &str, default: bool) -> Result<bool, SpecError> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| schema_err(format!("`{}.{key}` must be a boolean", self.context))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn sample_spec() -> RunSpec {
        RunSpec {
            scenario: ScenarioRef {
                name: "group-repair".into(),
                params: ScenarioParams::from_pairs([
                    ("is".to_string(), Value::Str("mixture".into())),
                    ("w".to_string(), Value::Float(0.9)),
                ]),
            },
            method: Method::Imcis(ImcisSpec {
                sample: SampleSpec {
                    n_traces: 1000,
                    delta: 0.05,
                    max_steps: 100_000,
                },
                r_undefeated: 100,
                r_max: 5000,
                force_sampling: false,
                record_trace: true,
                search: SearchStrategy::Batched { batch_size: 32 },
            }),
            seed: 2018,
            threads: 1,
            search_threads: 2,
            repetitions: 3,
        }
    }

    #[test]
    fn canonical_round_trip_is_byte_identical() {
        let spec = sample_spec();
        let text = spec.to_json_string();
        let reparsed = RunSpec::from_str(&text).unwrap();
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.to_json_string(), text);
    }

    #[test]
    fn omitted_fields_take_defaults() {
        let spec = RunSpec::from_str(
            "{\"scenario\": {\"name\": \"illustrative\"}, \"method\": {\"name\": \"smc\"}}",
        )
        .unwrap();
        assert_eq!(spec.seed, 2018);
        assert_eq!(spec.threads, 0);
        assert_eq!(spec.repetitions, 1);
        assert_eq!(*spec.method.sample(), SampleSpec::default());
        assert!(spec.scenario.params.is_empty());
        // Defaults are still canonical on output.
        let text = spec.to_json_string();
        assert_eq!(RunSpec::from_str(&text).unwrap().to_json_string(), text);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        for text in [
            "{\"scenario\": {\"name\": \"x\"}, \"method\": {\"name\": \"smc\"}, \"wat\": 1}",
            "{\"scenario\": {\"name\": \"x\", \"wat\": 1}, \"method\": {\"name\": \"smc\"}}",
            "{\"scenario\": {\"name\": \"x\"}, \"method\": {\"name\": \"smc\", \"r_max\": 3}}",
        ] {
            assert!(
                matches!(RunSpec::from_str(text), Err(SpecError::Schema(_))),
                "{text}"
            );
        }
    }

    #[test]
    fn bad_values_are_rejected() {
        let base =
            |method: &str| format!("{{\"scenario\": {{\"name\": \"x\"}}, \"method\": {method}}}");
        for method in [
            "{\"name\": \"smc\", \"delta\": 1.5}",
            "{\"name\": \"smc\", \"n_traces\": 0}",
            "{\"name\": \"teleport\"}",
            "{\"name\": \"imcis\", \"search\": {\"strategy\": \"psychic\"}}",
            "{\"name\": \"imcis\", \"search\": {\"strategy\": \"sequential\", \"batch_size\": 4}}",
        ] {
            assert!(
                matches!(RunSpec::from_str(&base(method)), Err(SpecError::Schema(_))),
                "{method}"
            );
        }
        assert!(matches!(
            RunSpec::from_str("{not json"),
            Err(SpecError::Json(_))
        ));
    }

    #[test]
    fn non_finite_and_zero_budget_manifests_are_rejected_with_precise_errors() {
        let schema_msg = |text: &str| match RunSpec::from_str(text) {
            Err(SpecError::Schema(msg)) => msg,
            other => panic!("expected a schema error for {text}, got {other:?}"),
        };
        // An overflowing literal parses to +∞; it must die in validation,
        // not flow into the estimators.
        assert_eq!(
            schema_msg(
                "{\"scenario\": {\"name\": \"x\"}, \
                 \"method\": {\"name\": \"smc\", \"delta\": 1e999}}"
            ),
            "`method.delta` must be a finite number"
        );
        assert_eq!(
            schema_msg(
                "{\"scenario\": {\"name\": \"x\"}, \
                 \"method\": {\"name\": \"smc\", \"delta\": 1.0}}"
            ),
            "`method.delta` must lie in (0, 1)"
        );
        assert_eq!(
            schema_msg(
                "{\"scenario\": {\"name\": \"x\"}, \"method\": {\"name\": \"smc\"}, \
                 \"repetitions\": 0}"
            ),
            "`spec.repetitions` must be positive"
        );
        assert_eq!(
            schema_msg(
                "{\"scenario\": {\"name\": \"x\"}, \
                 \"method\": {\"name\": \"smc\", \"n_traces\": 0}}"
            ),
            "`method.n_traces` must be positive"
        );
        // A programmatically built NaN (no JSON literal spells it) is
        // caught by the same finite check on the value path.
        let nan = Value::object([
            (
                "scenario".into(),
                Value::object([("name".into(), Value::Str("x".into()))]),
            ),
            (
                "method".into(),
                Value::object([
                    ("name".into(), Value::Str("smc".into())),
                    ("delta".into(), Value::Float(f64::NAN)),
                ]),
            ),
        ]);
        assert_eq!(
            match RunSpec::from_json(&nan) {
                Err(SpecError::Schema(msg)) => msg,
                other => panic!("expected a schema error, got {other:?}"),
            },
            "`method.delta` must be a finite number"
        );
    }

    #[test]
    fn adaptive_methods_round_trip_and_validate() {
        for name in ["ce-campaign", "dupuis-wang"] {
            let spec = RunSpec::from_str(&format!(
                "{{\"scenario\": {{\"name\": \"illustrative\"}}, \
                 \"method\": {{\"name\": \"{name}\", \"n_traces\": 500, \
                 \"training_traces\": 250}}}}"
            ))
            .unwrap();
            assert_eq!(spec.method.name(), name);
            assert_eq!(spec.method.sample().n_traces, 500);
            let text = spec.to_json_string();
            let reparsed = RunSpec::from_str(&text).unwrap();
            assert_eq!(reparsed, spec);
            assert_eq!(reparsed.to_json_string(), text);
            // Defaults apply and zero budgets are rejected.
            let defaulted = RunSpec::from_str(&format!(
                "{{\"scenario\": {{\"name\": \"x\"}}, \"method\": {{\"name\": \"{name}\"}}}}"
            ))
            .unwrap();
            match &defaulted.method {
                Method::CeCampaign(a) | Method::DupuisWang(a) => {
                    assert_eq!(a.training_traces, AdaptiveSpec::default().training_traces);
                }
                other => panic!("unexpected method {other:?}"),
            }
            let err = RunSpec::from_str(&format!(
                "{{\"scenario\": {{\"name\": \"x\"}}, \
                 \"method\": {{\"name\": \"{name}\", \"training_traces\": 0}}}}"
            ))
            .unwrap_err();
            assert_eq!(
                err.to_string(),
                "spec does not match the schema: `method.training_traces` must be positive"
            );
        }
    }

    #[test]
    fn schema_tag_is_checked() {
        let spec = RunSpec::from_str(
            "{\"schema\": \"imcis.runspec/1\", \"scenario\": {\"name\": \"x\"}, \
             \"method\": {\"name\": \"smc\"}}",
        );
        assert!(spec.is_ok());
        let wrong = RunSpec::from_str(
            "{\"schema\": \"imcis.runspec/99\", \"scenario\": {\"name\": \"x\"}, \
             \"method\": {\"name\": \"smc\"}}",
        );
        assert!(matches!(wrong, Err(SpecError::Schema(_))));
    }

    #[test]
    fn imcis_spec_config_round_trip() {
        let spec = ImcisSpec {
            sample: SampleSpec {
                n_traces: 123,
                delta: 0.01,
                max_steps: 777,
            },
            r_undefeated: 9,
            r_max: 99,
            force_sampling: true,
            record_trace: true,
            search: SearchStrategy::Batched { batch_size: 8 },
        };
        let config = spec.to_config(3, 4);
        assert_eq!(config.threads, 3);
        assert_eq!(config.search_threads, 4);
        // Every spec field reaches the engine config.
        assert_eq!(
            (config.n_traces, config.delta, config.max_steps),
            (123, 0.01, 777)
        );
        assert_eq!((config.r_undefeated, config.r_max), (9, 99));
        assert!(config.force_sampling && config.record_trace);
        assert_eq!(config.strategy, SearchStrategy::Batched { batch_size: 8 });
    }
}
