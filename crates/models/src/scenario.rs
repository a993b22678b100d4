//! The scenario registry: every benchmark system behind one front door.
//!
//! A [`Scenario`] knows how to build a complete experiment [`Setup`] —
//! interval model `[Â]`, learnt centre `Â`, importance-sampling chain
//! `B`, property `φ` and reference `γ` values — from a set of typed
//! [`ScenarioParams`]. The [`ScenarioRegistry`] maps stable names
//! (`"illustrative"`, `"group-repair"`, `"repair"`, `"swat"`,
//! `"parametric-repair"`, `"file"`) to scenarios, so a serialized
//! `RunSpec` manifest, the CLI, the `exp_*` binaries and the examples all
//! resolve models through the same code path instead of re-wiring
//! IMC/centre/B construction locally.
//!
//! The free functions ([`illustrative_setup`], [`group_repair_setup`],
//! [`repair_setup`], [`swat_setup_with_ce`]) remain available for callers
//! that want a specific setup without going through names and
//! parameters; the registry entries are thin parameter-parsing adapters
//! over them.
//!
//! # Example
//!
//! ```
//! use imc_models::{ScenarioParams, ScenarioRegistry};
//!
//! # fn main() -> Result<(), imc_models::ScenarioError> {
//! let registry = ScenarioRegistry::builtin();
//! // Every named scenario builds a complete Setup: IMC, centre chain,
//! // IS chain, property and reference γ values.
//! let setup = registry.build("illustrative", &ScenarioParams::empty())?;
//! assert_eq!(setup.name, "illustrative");
//! assert!(setup.gamma_center.is_some());
//! // Unknown parameters fail loudly instead of being ignored.
//! let params = ScenarioParams::from_pairs([(
//!     "wat".to_string(),
//!     serde::json::Value::UInt(1),
//! )]);
//! assert!(registry.build("illustrative", &params).is_err());
//! # Ok(())
//! # }
//! ```

use imc_learn::{learn_imc_with_support, CountTable, LearnOptions, Smoothing};
use imc_logic::Property;
use imc_markov::{io, Dtmc, Imc, StateSet};
use imc_numeric::{bounded_reach_probs, reach_before_return};
use imc_sampling::{cross_entropy_is, failure_bias, zero_variance_is, CrossEntropyConfig};
use imc_sim::{random_walk, ChainSampler, DEFAULT_MAX_STEPS};
use rand::SeedableRng;
use serde::json::Value;
use std::fmt;

use crate::{fleet, group_repair, illustrative, parametric_imc, repair, swat};

/// Everything needed to run IS/IMCIS experiments on one model.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Human-readable model name.
    pub name: String,
    /// The interval model `[Â]`.
    pub imc: Imc,
    /// The learnt centre chain `Â`.
    pub center: Dtmc,
    /// The importance-sampling chain `B`.
    pub b: Dtmc,
    /// The property `φ`.
    pub property: Property,
    /// Exact `γ(Â)` (numeric engine), when computable.
    pub gamma_center: Option<f64>,
    /// Exact `γ` of the true system, when known.
    pub gamma_exact: Option<f64>,
}

/// §VI-A: the illustrative model under the perfect IS distribution for
/// `Â` (the paper's exact configuration for Tables I–II).
pub fn illustrative_setup() -> Setup {
    let center = illustrative::dtmc(illustrative::A_HAT, illustrative::C_HAT);
    let imc = illustrative::paper_imc().expect("paper IMC is consistent");
    let b = zero_variance_is(
        &center,
        &StateSet::from_states(4, [illustrative::S2]),
        &StateSet::new(4),
    )
    .expect("target reachable in the illustrative chain");
    Setup {
        name: "illustrative".into(),
        imc,
        center,
        b,
        property: illustrative::property(),
        gamma_center: Some(illustrative::gamma(
            illustrative::A_HAT,
            illustrative::C_HAT,
        )),
        gamma_exact: Some(illustrative::gamma(
            illustrative::A_TRUE,
            illustrative::C_TRUE,
        )),
    }
}

/// How the group-repair IS chain is constructed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupRepairIs {
    /// Cross-entropy optimisation (closest to the paper's reference \[24\];
    /// our empirical per-transition CE is heavier-tailed than Ridder's
    /// structured change of measure, so estimates need larger `N`).
    CrossEntropy,
    /// Zero-variance chain from the numeric engine (deterministic; makes
    /// the IS baseline's CI degenerate).
    ZeroVariance,
    /// `w·ZV + (1−w)·Â` row mixture: a *good but imperfect* IS chain with
    /// bounded per-step likelihood ratios. This reproduces the paper's
    /// observed group-repair behaviour — a tight, slightly under-covering
    /// IS interval — without Ridder's structured CE. Default experiments
    /// use `Mixture(0.9)`.
    Mixture(f64),
}

/// Blends each row of `zv` with the corresponding row of `center`:
/// `b = w·zv + (1−w)·center`. Keeps every transition of `center`
/// samplable, so likelihood ratios stay bounded by `1/(1−w)` per step.
pub(crate) fn mix_chains(zv: &Dtmc, center: &Dtmc, w: f64) -> Dtmc {
    let rows: Vec<(usize, Vec<imc_markov::RowEntry>)> = (0..center.num_states())
        .map(|s| {
            let entries: Vec<imc_markov::RowEntry> = center
                .row(s)
                .expect("state index is in range")
                .iter()
                .map(|e| imc_markov::RowEntry {
                    target: e.target,
                    prob: w * zv.prob(s, e.target) + (1.0 - w) * e.prob,
                })
                .collect();
            (s, entries)
        })
        .collect();
    center
        .with_rows(rows)
        .expect("convex combination of stochastic rows is stochastic")
}

/// §VI-B: the 125-state group repair model.
pub fn group_repair_setup(is_kind: GroupRepairIs, seed: u64) -> Setup {
    let imc = group_repair::paper_imc().expect("paper IMC is consistent");
    group_repair_setup_with_imc(imc, "group repair", is_kind, seed)
}

/// [`group_repair_setup`] with a caller-supplied interval model over the
/// same state space (used by the parametric scenario, which derives the
/// IMC from a confidence interval on the global rate `α` instead of the
/// paper's per-transition intervals).
pub fn group_repair_setup_with_imc(
    imc: Imc,
    name: &str,
    is_kind: GroupRepairIs,
    seed: u64,
) -> Setup {
    let center = group_repair::jump_chain(group_repair::ALPHA_HAT);
    let truth = group_repair::jump_chain(group_repair::ALPHA_TRUE);
    let property = group_repair::property(&center);

    let failure = center.labeled_states("failure");
    let mut avoid = StateSet::new(center.num_states());
    avoid.insert(center.initial());
    let b = match is_kind {
        GroupRepairIs::ZeroVariance => {
            zero_variance_is(&center, failure, &avoid).expect("failure reachable before return")
        }
        GroupRepairIs::Mixture(w) => {
            let zv = zero_variance_is(&center, failure, &avoid)
                .expect("failure reachable before return");
            mix_chains(&zv, &center, w)
        }
        GroupRepairIs::CrossEntropy => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            cross_entropy_is(
                &center,
                &property,
                &CrossEntropyConfig {
                    iterations: 12,
                    traces_per_iteration: 5_000,
                    max_steps: DEFAULT_MAX_STEPS,
                },
                &mut rng,
            )
            .expect("cross-entropy update is well-formed")
            .b
        }
    };
    Setup {
        name: name.into(),
        gamma_center: Some(reach_before_return(&center, failure).expect("solver converges")),
        gamma_exact: Some(
            reach_before_return(&truth, truth.labeled_states("failure")).expect("solver converges"),
        ),
        imc,
        center,
        b,
        property,
    }
}

/// §VI-C: the 40320-state repair model at a given `α` interval.
pub fn repair_setup(alpha_hat: f64, alpha_lo: f64, alpha_hi: f64) -> Setup {
    let center = repair::jump_chain(alpha_hat);
    let truth = repair::jump_chain(repair::ALPHA_TRUE);
    let imc = repair::imc(alpha_hat, alpha_lo, alpha_hi).expect("repair IMC is consistent");
    let property = repair::property(&center);
    let failure = center.labeled_states("failure");
    let mut avoid = StateSet::new(center.num_states());
    avoid.insert(center.initial());
    let b = zero_variance_is(&center, failure, &avoid).expect("failure reachable before return");
    Setup {
        name: "repair (large)".into(),
        gamma_center: Some(reach_before_return(&center, failure).expect("solver converges")),
        gamma_exact: Some(
            reach_before_return(&truth, truth.labeled_states("failure")).expect("solver converges"),
        ),
        imc,
        center,
        b,
        property,
    }
}

/// §VI-D: the synthetic SWaT pipeline — generate logs from the hidden
/// ground truth, learn `Â ± ε`, and build an IS chain by cross-entropy.
///
/// `n_logs` traces of `log_len` steps are sampled as the "testbed logs";
/// the paper's authors had weeks of real logs, we default to enough data
/// for a faithful 70-state abstraction. `ce_iterations` is the
/// cross-entropy budget: fewer iterations give a rougher IS chain with
/// heavier likelihood-ratio tails, reproducing the paper's Fig. 4
/// phenomenon of mutually inconsistent IS intervals.
pub fn swat_setup_with_ce(n_logs: usize, log_len: usize, seed: u64, ce_iterations: usize) -> Setup {
    let truth = swat::truth();
    let sampler = ChainSampler::new(&truth);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    // Logs: random walks from a mix of starting states so the whole
    // abstraction is exercised, as testbed logs would.
    let mut counts = CountTable::new(truth.num_states());
    for i in 0..n_logs {
        let start = if i % 4 == 0 {
            truth.initial()
        } else {
            (i * 7) % truth.num_states()
        };
        counts.record_path(&random_walk(&sampler, start, log_len, &mut rng));
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
    .expect("learning from non-empty logs succeeds");
    let center = imc.center().expect("learnt IMC is centred").clone();
    let property = swat::property(&center);

    // IS chain: cross-entropy against the learnt centre (the ground truth
    // is NOT consulted — exactly the information the paper's tool had).
    let b = cross_entropy_is(
        &center,
        &property,
        &CrossEntropyConfig {
            iterations: ce_iterations,
            traces_per_iteration: 4_000,
            max_steps: DEFAULT_MAX_STEPS,
        },
        &mut rng,
    )
    .expect("cross-entropy update is well-formed")
    .b;

    let gamma_center =
        bounded_reach_probs(&center, center.labeled_states("high"), swat::STEP_BOUND)
            [center.initial()];
    let gamma_exact = bounded_reach_probs(&truth, truth.labeled_states("high"), swat::STEP_BOUND)
        [truth.initial()];
    Setup {
        name: "SWaT".into(),
        imc,
        center,
        b,
        property,
        gamma_center: Some(gamma_center),
        gamma_exact: Some(gamma_exact),
    }
}

/// A scenario build failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The requested name is not registered.
    UnknownScenario(String),
    /// A parameter is unknown, mistyped or out of range.
    BadParam {
        /// The offending key.
        key: String,
        /// What went wrong.
        message: String,
    },
    /// Model construction failed (I/O, parsing, solver).
    Build(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownScenario(name) => {
                write!(f, "unknown scenario `{name}` (try `imcis scenarios`)")
            }
            ScenarioError::BadParam { key, message } => {
                write!(f, "scenario parameter `{key}`: {message}")
            }
            ScenarioError::Build(msg) => write!(f, "cannot build scenario: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// FNV-1a over `bytes`: the deterministic, dependency-free 64-bit hash
/// behind [`ScenarioParams::cache_fingerprint`] (and the router's hash
/// ring, which must place equal cache keys identically across
/// processes — `std`'s `DefaultHasher` is per-process seeded and
/// explicitly unstable, so it cannot serve here).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Typed key/value parameters of a scenario, preserving insertion order
/// (the order is significant for byte-identical manifest round-trips).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioParams(Vec<(String, Value)>);

impl ScenarioParams {
    /// No parameters (every scenario must accept this).
    pub fn empty() -> Self {
        ScenarioParams(Vec::new())
    }

    /// Builds from `(key, value)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (String, Value)>>(pairs: I) -> Self {
        ScenarioParams(pairs.into_iter().collect())
    }

    /// Builds from a JSON object value.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BadParam`] if `value` is not an object.
    pub fn from_json(value: &Value) -> Result<Self, ScenarioError> {
        value
            .as_object()
            .map(|pairs| ScenarioParams(pairs.to_vec()))
            .ok_or_else(|| ScenarioError::BadParam {
                key: "params".into(),
                message: "must be a JSON object".into(),
            })
    }

    /// The JSON object form, preserving insertion order.
    pub fn to_json(&self) -> Value {
        Value::Object(self.0.clone())
    }

    /// `true` when no parameters are set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String parameter with a default.
    pub fn str_or(&self, key: &str, default: &str) -> Result<String, ScenarioError> {
        match self.get(key) {
            None => Ok(default.to_string()),
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| bad(key, "expected a string")),
        }
    }

    /// Float parameter with a default (integers widen). Non-finite values
    /// (NaN, ±∞ — e.g. an overflowing literal like `1e999`) are rejected:
    /// every numeric scenario parameter feeds a model builder or an
    /// estimator, and none of them is meaningful at infinity.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ScenarioError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => match v.as_f64() {
                Some(x) if x.is_finite() => Ok(x),
                Some(_) => Err(bad(key, "expected a finite number")),
                None => Err(bad(key, "expected a number")),
            },
        }
    }

    /// Unsigned-integer parameter with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ScenarioError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| bad(key, "expected an unsigned integer")),
        }
    }

    /// `usize` parameter with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, ScenarioError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_usize()
                .ok_or_else(|| bad(key, "expected an unsigned integer")),
        }
    }

    /// Optional `usize` parameter (no default).
    pub fn usize_opt(&self, key: &str) -> Result<Option<usize>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_usize()
                .map(Some)
                .ok_or_else(|| bad(key, "expected an unsigned integer")),
        }
    }

    /// Required string parameter.
    pub fn str_required(&self, key: &str) -> Result<String, ScenarioError> {
        self.get(key)
            .ok_or_else(|| bad(key, "required parameter is missing"))?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| bad(key, "expected a string"))
    }

    /// Optional string parameter.
    pub fn str_opt(&self, key: &str) -> Result<Option<String>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| bad(key, "expected a string")),
        }
    }

    /// The canonical cache key of this parameter set under scenario
    /// `name`: the canonical JSON text of `{"name": …, "params": …}`
    /// with the parameters sorted by key.
    ///
    /// Scenario builds are pure functions of `(name, params)`, so two
    /// references with equal keys build identical [`Setup`]s — the
    /// invariant that lets a suite share one build across many sessions
    /// (see `imcis_core::suite::SetupCache`). Sorting matters: manifests
    /// preserve insertion order, and two members spelling the same
    /// parameter set in different key order must still share one build.
    pub fn cache_key(&self, name: &str) -> String {
        let mut pairs = self.0.clone();
        pairs.sort_by(|(a, _), (b, _)| a.cmp(b));
        Value::object([
            ("name".to_string(), Value::Str(name.to_string())),
            ("params".to_string(), Value::object(pairs)),
        ])
        .pretty()
    }

    /// A stable 64-bit fingerprint of [`ScenarioParams::cache_key`]
    /// (FNV-1a over the canonical key text): the hash a cache-affinity
    /// router places on its ring, so "same `(scenario, params)`" and
    /// "same shard" are by construction the same predicate. Equal keys
    /// hash equal on every platform and in every process — the
    /// fingerprint is a pure function of the canonical text, with no
    /// per-process seeding.
    pub fn cache_fingerprint(&self, name: &str) -> u64 {
        fnv1a64(self.cache_key(name).as_bytes())
    }

    /// Rejects any key outside `allowed` — manifests are reviewable
    /// artefacts, so a typo must fail loudly instead of being ignored.
    pub fn check_known(&self, allowed: &[&str]) -> Result<(), ScenarioError> {
        for (key, _) in &self.0 {
            if !allowed.contains(&key.as_str()) {
                return Err(bad(
                    key,
                    &format!("unknown parameter (allowed: {})", allowed.join(", ")),
                ));
            }
        }
        Ok(())
    }
}

fn bad(key: &str, message: &str) -> ScenarioError {
    ScenarioError::BadParam {
        key: key.into(),
        message: message.into(),
    }
}

/// Documentation of one scenario parameter, for `imcis scenarios`.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Parameter key.
    pub key: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Default value rendered as text (`"required"` when mandatory).
    pub default: &'static str,
}

/// A named, parameterised experiment setup builder.
pub trait Scenario: Send + Sync {
    /// The stable registry name (used in `RunSpec` manifests).
    fn name(&self) -> &'static str;
    /// One-line description for `imcis scenarios`.
    fn summary(&self) -> &'static str;
    /// The accepted parameters.
    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }
    /// Builds the setup.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] on unknown/mistyped parameters or failed model
    /// construction.
    fn build(&self, params: &ScenarioParams) -> Result<Setup, ScenarioError>;
}

/// The name → [`Scenario`] map resolved by `RunSpec` manifests, the CLI
/// and the experiment binaries.
pub struct ScenarioRegistry {
    entries: Vec<Box<dyn Scenario>>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ScenarioRegistry {
            entries: Vec::new(),
        }
    }

    /// The built-in scenarios of the paper's evaluation plus the generic
    /// file loader.
    pub fn builtin() -> Self {
        let mut registry = ScenarioRegistry::new();
        registry.register(Box::new(Illustrative));
        registry.register(Box::new(GroupRepair));
        registry.register(Box::new(ParametricRepair));
        registry.register(Box::new(Repair));
        registry.register(Box::new(RepairFleet));
        registry.register(Box::new(Swat));
        registry.register(Box::new(FromFile));
        registry.register(Box::new(FromDsl));
        registry
    }

    /// Adds a scenario; a later registration shadows an earlier one with
    /// the same name.
    pub fn register(&mut self, scenario: Box<dyn Scenario>) {
        self.entries.retain(|s| s.name() != scenario.name());
        self.entries.push(scenario);
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Scenario> {
        self.entries
            .iter()
            .find(|s| s.name() == name)
            .map(AsRef::as_ref)
    }

    /// Resolves `name` and builds its setup.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownScenario`] for unregistered names, and any
    /// error of [`Scenario::build`].
    pub fn build(&self, name: &str, params: &ScenarioParams) -> Result<Setup, ScenarioError> {
        self.get(name)
            .ok_or_else(|| ScenarioError::UnknownScenario(name.to_string()))?
            .build(params)
    }

    /// Registered scenarios, registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.entries.iter().map(AsRef::as_ref)
    }

    /// Registered names, registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|s| s.name()).collect()
    }
}

impl Default for ScenarioRegistry {
    fn default() -> Self {
        ScenarioRegistry::builtin()
    }
}

struct Illustrative;

impl Scenario for Illustrative {
    fn name(&self) -> &'static str {
        "illustrative"
    }
    fn summary(&self) -> &'static str {
        "4-state chain of Fig. 1 under the perfect IS distribution for the centre (§VI-A)"
    }
    fn build(&self, params: &ScenarioParams) -> Result<Setup, ScenarioError> {
        params.check_known(&[])?;
        Ok(illustrative_setup())
    }
}

/// Parses the shared `is`/`w`/`seed` parameters of the repair-family
/// scenarios into a [`GroupRepairIs`] kind plus the CE seed.
fn group_repair_is_params(params: &ScenarioParams) -> Result<(GroupRepairIs, u64), ScenarioError> {
    let kind = params.str_or("is", "mixture")?;
    let w = params.f64_or("w", 0.9)?;
    let seed = params.u64_or("seed", 2018)?;
    let is_kind = match kind.as_str() {
        "mixture" => {
            if !(0.0..=1.0).contains(&w) {
                return Err(bad("w", "mixture weight must lie in [0, 1]"));
            }
            GroupRepairIs::Mixture(w)
        }
        "zero-variance" => GroupRepairIs::ZeroVariance,
        "cross-entropy" => GroupRepairIs::CrossEntropy,
        other => {
            return Err(bad(
                "is",
                &format!("unknown IS kind `{other}` (mixture | zero-variance | cross-entropy)"),
            ))
        }
    };
    Ok((is_kind, seed))
}

const GROUP_REPAIR_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "is",
        description: "IS chain: mixture | zero-variance | cross-entropy",
        default: "mixture",
    },
    ParamSpec {
        key: "w",
        description: "zero-variance weight of the mixture chain",
        default: "0.9",
    },
    ParamSpec {
        key: "seed",
        description: "RNG seed of the cross-entropy training run",
        default: "2018",
    },
];

struct GroupRepair;

impl Scenario for GroupRepair {
    fn name(&self) -> &'static str {
        "group-repair"
    }
    fn summary(&self) -> &'static str {
        "125-state group-repair CTMC jump chain, per-transition intervals (§VI-B)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        GROUP_REPAIR_PARAMS
    }
    fn build(&self, params: &ScenarioParams) -> Result<Setup, ScenarioError> {
        params.check_known(&["is", "w", "seed"])?;
        let (is_kind, seed) = group_repair_is_params(params)?;
        Ok(group_repair_setup(is_kind, seed))
    }
}

struct ParametricRepair;

impl Scenario for ParametricRepair {
    fn name(&self) -> &'static str {
        "parametric-repair"
    }
    fn summary(&self) -> &'static str {
        "group-repair IMC derived from a confidence interval on the global rate α (§II-B)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec {
                key: "alpha_lo",
                description: "lower bound of the α confidence interval",
                default: "0.09852",
            },
            ParamSpec {
                key: "alpha_hi",
                description: "upper bound of the α confidence interval",
                default: "0.10048",
            },
            ParamSpec {
                key: "grid",
                description: "α grid points for the interval sweep",
                default: "9",
            },
            ParamSpec {
                key: "is",
                description: "IS chain: mixture | zero-variance | cross-entropy",
                default: "mixture",
            },
            ParamSpec {
                key: "w",
                description: "zero-variance weight of the mixture chain",
                default: "0.9",
            },
            ParamSpec {
                key: "seed",
                description: "RNG seed of the cross-entropy training run",
                default: "2018",
            },
        ];
        PARAMS
    }
    fn build(&self, params: &ScenarioParams) -> Result<Setup, ScenarioError> {
        params.check_known(&["alpha_lo", "alpha_hi", "grid", "is", "w", "seed"])?;
        let alpha_lo = params.f64_or("alpha_lo", group_repair::ALPHA_LO)?;
        let alpha_hi = params.f64_or("alpha_hi", group_repair::ALPHA_HI)?;
        if !(alpha_lo <= group_repair::ALPHA_HAT && group_repair::ALPHA_HAT <= alpha_hi) {
            return Err(bad(
                "alpha_lo",
                &format!(
                    "interval [{alpha_lo}, {alpha_hi}] must contain α̂ = {}",
                    group_repair::ALPHA_HAT
                ),
            ));
        }
        let grid = params.usize_or("grid", 9)?;
        if grid < 2 {
            return Err(bad("grid", "need at least two grid points"));
        }
        let (is_kind, seed) = group_repair_is_params(params)?;
        let imc = parametric_imc(
            group_repair::jump_chain,
            group_repair::ALPHA_HAT,
            alpha_lo,
            alpha_hi,
            grid,
        )
        .map_err(|e| ScenarioError::Build(e.to_string()))?;
        Ok(group_repair_setup_with_imc(
            imc,
            "group repair (parametric)",
            is_kind,
            seed,
        ))
    }
}

struct Repair;

impl Scenario for Repair {
    fn name(&self) -> &'static str {
        "repair"
    }
    fn summary(&self) -> &'static str {
        "40320-state repair model, zero-variance IS (§VI-C; expensive to build)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec {
                key: "alpha_hat",
                description: "learnt failure-rate point estimate",
                default: "1e-3",
            },
            ParamSpec {
                key: "alpha_lo",
                description: "lower bound of the α confidence interval",
                default: "0.8236e-3",
            },
            ParamSpec {
                key: "alpha_hi",
                description: "upper bound of the α confidence interval",
                default: "1.1764e-3",
            },
        ];
        PARAMS
    }
    fn build(&self, params: &ScenarioParams) -> Result<Setup, ScenarioError> {
        params.check_known(&["alpha_hat", "alpha_lo", "alpha_hi"])?;
        let alpha_hat = params.f64_or("alpha_hat", repair::ALPHA_TRUE)?;
        let alpha_lo = params.f64_or("alpha_lo", repair::ALPHA_LO)?;
        let alpha_hi = params.f64_or("alpha_hi", repair::ALPHA_HI)?;
        if !(alpha_lo <= alpha_hat && alpha_hat <= alpha_hi) {
            return Err(bad(
                "alpha_hat",
                &format!("must lie inside [{alpha_lo}, {alpha_hi}]"),
            ));
        }
        Ok(repair_setup(alpha_hat, alpha_lo, alpha_hi))
    }
}

/// Builds the repair-fleet setup at a given scale: streaming-built jump
/// chain, relative-ε IMC, and a balanced failure-biased IS chain (the
/// degrade moves are exactly the transitions with `to > from` under the
/// mixed-radix encoding). No numeric reference γ is computed — the whole
/// point of the scenario is to exceed the numeric engine's comfort zone.
pub fn fleet_setup(
    components: u32,
    levels: usize,
    alpha: f64,
    beta: f64,
    eps_rel: f64,
    bias: f64,
) -> Result<Setup, ScenarioError> {
    let center = fleet::jump_chain(components, levels, alpha, beta)
        .map_err(|e| ScenarioError::Build(e.to_string()))?;
    let imc = fleet::imc(&center, eps_rel).map_err(|e| ScenarioError::Build(e.to_string()))?;
    let b = failure_bias(&center, |from, to| to > from, bias)
        .map_err(|e| ScenarioError::Build(e.to_string()))?;
    let property = fleet::property(&center);
    Ok(Setup {
        name: format!("repair fleet ({components}x{levels})"),
        imc,
        center,
        b,
        property,
        gamma_center: None,
        gamma_exact: None,
    })
}

struct RepairFleet;

impl Scenario for RepairFleet {
    fn name(&self) -> &'static str {
        "repair-fleet"
    }
    fn summary(&self) -> &'static str {
        "parametric repair fleet, levels^components states streamed into the sparse CSR kernel"
    }
    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec {
                key: "components",
                description: "machine groups (state count = levels^components)",
                default: "6",
            },
            ParamSpec {
                key: "levels",
                description: "wear levels per group (levels - 1 = failed)",
                default: "10",
            },
            ParamSpec {
                key: "alpha",
                description: "degradation weight per wear level",
                default: "1e-3",
            },
            ParamSpec {
                key: "beta",
                description: "repair weight of the single crew",
                default: "1.0",
            },
            ParamSpec {
                key: "eps",
                description: "relative interval half-width of the IMC",
                default: "0.05",
            },
            ParamSpec {
                key: "bias",
                description: "failure-biasing weight of the IS chain",
                default: "0.3",
            },
        ];
        PARAMS
    }
    fn build(&self, params: &ScenarioParams) -> Result<Setup, ScenarioError> {
        params.check_known(&["components", "levels", "alpha", "beta", "eps", "bias"])?;
        let components = params.usize_or("components", 6)?;
        let levels = params.usize_or("levels", fleet::LEVELS)?;
        let alpha = params.f64_or("alpha", fleet::ALPHA)?;
        let beta = params.f64_or("beta", fleet::BETA)?;
        let eps_rel = params.f64_or("eps", 0.05)?;
        let bias = params.f64_or("bias", 0.3)?;
        if components == 0 || components > 16 {
            return Err(bad("components", "must lie in 1..=16"));
        }
        if levels < 2 {
            return Err(bad("levels", "need at least two wear levels"));
        }
        if fleet::num_states(components as u32, levels).is_none() {
            return Err(bad(
                "levels",
                &format!(
                    "levels^components exceeds the {}-state cap",
                    fleet::MAX_STATES
                ),
            ));
        }
        if alpha <= 0.0 || beta <= 0.0 {
            return Err(bad("alpha", "rates must be strictly positive"));
        }
        if !(0.0..=1.0).contains(&eps_rel) {
            return Err(bad("eps", "relative half-width must lie in [0, 1]"));
        }
        if !(0.0 < bias && bias < 1.0) {
            return Err(bad("bias", "must lie strictly inside (0, 1)"));
        }
        fleet_setup(components as u32, levels, alpha, beta, eps_rel, bias)
    }
}

struct Swat;

impl Scenario for Swat {
    fn name(&self) -> &'static str {
        "swat"
    }
    fn summary(&self) -> &'static str {
        "synthetic SWaT testbed: learn a 70-state IMC from logs, cross-entropy IS (§VI-D)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec {
                key: "n_logs",
                description: "number of log traces sampled from the hidden truth",
                default: "400",
            },
            ParamSpec {
                key: "log_len",
                description: "steps per log trace",
                default: "300",
            },
            ParamSpec {
                key: "seed",
                description: "RNG seed of log generation and CE training",
                default: "7",
            },
            ParamSpec {
                key: "ce_iterations",
                description: "cross-entropy iteration budget",
                default: "8",
            },
        ];
        PARAMS
    }
    fn build(&self, params: &ScenarioParams) -> Result<Setup, ScenarioError> {
        params.check_known(&["n_logs", "log_len", "seed", "ce_iterations"])?;
        let n_logs = params.usize_or("n_logs", 400)?;
        let log_len = params.usize_or("log_len", 300)?;
        let seed = params.u64_or("seed", 7)?;
        let ce_iterations = params.usize_or("ce_iterations", 8)?;
        if n_logs == 0 || log_len == 0 {
            return Err(bad("n_logs", "need at least one non-empty log"));
        }
        Ok(swat_setup_with_ce(n_logs, log_len, seed, ce_iterations))
    }
}

struct FromFile;

impl Scenario for FromFile {
    fn name(&self) -> &'static str {
        "file"
    }
    fn summary(&self) -> &'static str {
        "an IMC loaded from a model file, zero-variance IS for some member chain"
    }
    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec {
                key: "path",
                description: "model file in the imc_markov::io text format",
                default: "required",
            },
            ParamSpec {
                key: "target",
                description: "label of the goal states",
                default: "required",
            },
            ParamSpec {
                key: "avoid",
                description: "label of the forbidden states",
                default: "none",
            },
            ParamSpec {
                key: "bound",
                description: "step bound (property becomes bounded)",
                default: "none",
            },
        ];
        PARAMS
    }
    fn build(&self, params: &ScenarioParams) -> Result<Setup, ScenarioError> {
        params.check_known(&["path", "target", "avoid", "bound"])?;
        let path = params.str_required("path")?;
        // Stream the model straight into CSR storage: no whole-file buffer
        // and no intermediate triplet maps, so ≥10⁶-state models load in
        // one bounded pass.
        let file = std::fs::File::open(&path)
            .map_err(|e| ScenarioError::Build(format!("cannot read `{path}`: {e}")))?;
        let imc = io::read_imc(std::io::BufReader::new(file))
            .map_err(|e| ScenarioError::Build(format!("cannot parse `{path}` as an IMC: {e}")))?;
        // The centre is a member chain of the IMC and `B` its
        // zero-variance change of measure.
        let target_label = params.str_required("target")?;
        let target = imc.labeled_states(&target_label).clone();
        if target.is_empty() {
            return Err(bad(
                "target",
                &format!("label `{target_label}` marks no state in the model"),
            ));
        }
        let avoid = match params.str_opt("avoid")? {
            Some(label) => {
                let set = imc.labeled_states(&label);
                if set.is_empty() {
                    return Err(bad(
                        "avoid",
                        &format!("label `{label}` marks no state in the model"),
                    ));
                }
                set.clone()
            }
            None => StateSet::new(imc.num_states()),
        };
        let bound = params.usize_opt("bound")?;
        let property = match bound {
            Some(k) => Property::reach_avoid_bounded(target.clone(), avoid.clone(), k),
            None => Property::reach_avoid(target.clone(), avoid.clone()),
        };
        let center = imc
            .some_member()
            .map_err(|e| ScenarioError::Build(e.to_string()))?;
        let b = zero_variance_is(&center, &target, &avoid)
            .map_err(|e| ScenarioError::Build(e.to_string()))?;
        Ok(Setup {
            name: path,
            imc,
            center,
            b,
            property,
            gamma_center: None,
            gamma_exact: None,
        })
    }
}

struct FromDsl;

impl Scenario for FromDsl {
    fn name(&self) -> &'static str {
        "dsl"
    }
    fn summary(&self) -> &'static str {
        "a scenario compiled from DSL source text (model, property, IS chain; see docs/FORMATS.md)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec {
                key: "source",
                description: "DSL source text (states, intervals, property, typed parameters)",
                default: "required",
            },
            ParamSpec {
                key: "params",
                description: "object binding declared DSL parameters to numbers",
                default: "{}",
            },
        ];
        PARAMS
    }
    fn build(&self, params: &ScenarioParams) -> Result<Setup, ScenarioError> {
        params.check_known(&["source", "params"])?;
        let source = params.str_required("source")?;
        let bound: Vec<(String, Value)> = match params.get("params") {
            None => Vec::new(),
            Some(value) => value
                .as_object()
                .ok_or_else(|| bad("params", "expected an object of parameter bindings"))?
                .to_vec(),
        };
        // The spanned diagnostic is flattened into the Build message here;
        // manifest parsers call `dsl::validate` eagerly and surface the
        // typed `DslError` with its span intact.
        crate::dsl::compile(&source, &bound).map_err(|e| ScenarioError::Build(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn illustrative_setup_is_consistent() {
        let s = illustrative_setup();
        assert!(s.imc.contains(&s.center));
        assert!((s.gamma_center.unwrap() - 1.4944e-5).abs() < 5e-9);
    }

    #[test]
    fn group_repair_zv_setup_is_consistent() {
        let s = group_repair_setup(GroupRepairIs::ZeroVariance, 1);
        assert!(s.imc.contains(&s.center));
        // γ(Â) = 1.117e-7, γ = 1.179e-7 (§VI-B).
        assert!((s.gamma_center.unwrap() - 1.117e-7).abs() / 1.117e-7 < 0.01);
        assert!((s.gamma_exact.unwrap() - 1.179e-7).abs() / 1.179e-7 < 0.01);
    }

    #[test]
    fn swat_setup_learns_a_plausible_model() {
        let s = swat_setup_with_ce(400, 300, 7, 8);
        assert_eq!(s.center.num_states(), 70);
        assert!(s.imc.contains(&s.center));
        // γ(Â) in the paper's reported ballpark [5e-3, 2.5e-2].
        let g = s.gamma_center.unwrap();
        assert!((1e-3..=5e-2).contains(&g), "γ(Â) = {g:e}");
    }

    #[test]
    fn registry_builds_illustrative_by_name() {
        let registry = ScenarioRegistry::builtin();
        let s = registry
            .build("illustrative", &ScenarioParams::empty())
            .unwrap();
        assert_eq!(s.name, "illustrative");
        assert!(registry.names().contains(&"group-repair"));
    }

    #[test]
    fn registry_rejects_unknown_names_and_params() {
        let registry = ScenarioRegistry::builtin();
        assert!(matches!(
            registry.build("nope", &ScenarioParams::empty()),
            Err(ScenarioError::UnknownScenario(_))
        ));
        let params = ScenarioParams::from_pairs([("wat".to_string(), Value::UInt(1))]);
        assert!(matches!(
            registry.build("illustrative", &params),
            Err(ScenarioError::BadParam { .. })
        ));
    }

    #[test]
    fn group_repair_params_are_validated() {
        let registry = ScenarioRegistry::builtin();
        let bad_kind = ScenarioParams::from_pairs([("is".to_string(), Value::Str("magic".into()))]);
        assert!(matches!(
            registry.build("group-repair", &bad_kind),
            Err(ScenarioError::BadParam { .. })
        ));
        let bad_w = ScenarioParams::from_pairs([("w".to_string(), Value::Float(1.5))]);
        assert!(matches!(
            registry.build("group-repair", &bad_w),
            Err(ScenarioError::BadParam { .. })
        ));
    }

    #[test]
    fn params_reject_non_finite_numbers() {
        let registry = ScenarioRegistry::builtin();
        for bad_val in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let params = ScenarioParams::from_pairs([("w".to_string(), Value::Float(bad_val))]);
            let err = registry.build("group-repair", &params).unwrap_err();
            assert_eq!(
                err.to_string(),
                "scenario parameter `w`: expected a finite number",
                "{bad_val}"
            );
            // The same guard protects the repair-family α intervals, where
            // +∞ would otherwise satisfy the ordering check.
            let params =
                ScenarioParams::from_pairs([("alpha_hi".to_string(), Value::Float(bad_val))]);
            assert!(matches!(
                registry.build("repair", &params),
                Err(ScenarioError::BadParam { .. })
            ));
        }
    }

    #[test]
    fn cache_key_is_canonical_and_discriminates() {
        let a = ScenarioParams::from_pairs([("w".to_string(), Value::Float(0.9))]);
        let b = ScenarioParams::from_pairs([("w".to_string(), Value::Float(0.8))]);
        assert_eq!(
            a.cache_key("group-repair"),
            a.clone().cache_key("group-repair")
        );
        assert_ne!(a.cache_key("group-repair"), b.cache_key("group-repair"));
        assert_ne!(
            a.cache_key("group-repair"),
            a.cache_key("parametric-repair")
        );
        assert!(a
            .cache_key("group-repair")
            .contains("\"name\": \"group-repair\""));
        // Key order in the manifest must not defeat the exactly-once
        // build guarantee: the key canonicalises by sorting parameters.
        let xy = ScenarioParams::from_pairs([
            ("x".to_string(), Value::Float(0.1)),
            ("y".to_string(), Value::Float(0.2)),
        ]);
        let yx = ScenarioParams::from_pairs([
            ("y".to_string(), Value::Float(0.2)),
            ("x".to_string(), Value::Float(0.1)),
        ]);
        assert_eq!(xy.cache_key("repair"), yx.cache_key("repair"));
    }

    #[test]
    fn cache_fingerprint_follows_the_canonical_key() {
        let xy = ScenarioParams::from_pairs([
            ("x".to_string(), Value::Float(0.1)),
            ("y".to_string(), Value::Float(0.2)),
        ]);
        let yx = ScenarioParams::from_pairs([
            ("y".to_string(), Value::Float(0.2)),
            ("x".to_string(), Value::Float(0.1)),
        ]);
        // Same canonical key → same shard placement, regardless of
        // manifest spelling; different key → (almost surely) different.
        assert_eq!(
            xy.cache_fingerprint("repair"),
            yx.cache_fingerprint("repair")
        );
        assert_eq!(
            xy.cache_fingerprint("repair"),
            fnv1a64(xy.cache_key("repair").as_bytes())
        );
        assert_ne!(
            xy.cache_fingerprint("repair"),
            xy.cache_fingerprint("group-repair")
        );
        // The FNV-1a test vectors pin cross-process stability.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn parametric_repair_brackets_the_centre_chain() {
        let registry = ScenarioRegistry::builtin();
        let params = ScenarioParams::from_pairs([
            ("is".to_string(), Value::Str("zero-variance".into())),
            ("grid".to_string(), Value::UInt(3)),
        ]);
        let s = registry.build("parametric-repair", &params).unwrap();
        assert_eq!(s.name, "group repair (parametric)");
        assert!(s.imc.contains(&s.center));
    }

    #[test]
    fn file_scenario_reports_missing_path() {
        let registry = ScenarioRegistry::builtin();
        let params = ScenarioParams::from_pairs([
            (
                "path".to_string(),
                Value::Str("/definitely/not/here".into()),
            ),
            ("target".to_string(), Value::Str("bad".into())),
        ]);
        assert!(matches!(
            registry.build("file", &params),
            Err(ScenarioError::Build(_))
        ));
    }
}
