//! IMCIS — importance sampling of interval Markov chains.
//!
//! The end-to-end implementation of Algorithm 1 of *Importance Sampling of
//! Interval Markov Chains* (Jegourel, Wang, Sun — DSN 2018), exposed
//! through a four-layer experiment API —
//! `RunSpec → SuiteSpec → Session → Report/SuiteReport`:
//!
//! 1. **Spec** ([`RunSpec`]) — a strict, canonical JSON manifest
//!    (`imcis.runspec/1`) naming a scenario (a
//!    [`ScenarioRegistry`](imc_models::ScenarioRegistry) entry plus
//!    parameters) — or embedding one as scenario-DSL source text via the
//!    `{"dsl": "<source>"}` form, compiled through [`dsl`] with typed,
//!    line/column-spanned diagnostics — an estimation [`Method`] with its
//!    full typed configuration, the RNG seed, thread budgets and
//!    repetition count.
//!    Validation is strict: unknown keys, non-finite numbers and
//!    out-of-domain values (`delta` outside `(0, 1)`, zero budgets or
//!    repetitions) are rejected with a precise [`SpecError`] before any
//!    engine runs. Every engine underneath is deterministic given its
//!    seed and bit-identical at every thread count, so a spec is a
//!    complete, reviewable description of a result.
//! 2. **Suite** ([`SuiteSpec`]) — a manifest of manifests
//!    (`imcis.suitespec/1`): many run specs (embedded or referenced by
//!    file) executed as one deterministic job. A [`Suite`] resolves
//!    members through one [`SetupCache`], so N runs against the same
//!    `(scenario, params)` build the expensive `Setup` exactly once and
//!    share it via `Arc`, then fans whole sessions over worker threads.
//!    This is the paper's own experiment shape — Table/Figure sweeps of
//!    many (scenario, method, seed) cells — and the unit a serving front
//!    end batches: a suite in, a report out, no shared mutable state.
//!    `{"sweep": {"run": …, "param": …, "grid": […]}}` members expand
//!    deterministically into one run member per grid point at parse
//!    time, so a parameter sweep is one manifest entry.
//! 3. **Session** ([`Session`]) — resolves one scenario, derives one
//!    deterministic RNG stream per repetition, fans repetitions over the
//!    available cores, and drives the method's [`Estimator`]. Crude
//!    Monte Carlo, standard IS, IMCIS, cross-entropy and zero-variance
//!    baselines all travel this one path.
//! 4. **Report** ([`Report`] / [`SuiteReport`]) — the uniform results:
//!    estimate, confidence interval, dispersion, per-repetition outcomes
//!    with optional convergence traces, coverage against the scenario's
//!    reference `γ` values split into `coverage_gamma_hat` (the learnt
//!    centre's exact `γ(Â)`) and `coverage_gamma_true` (the true
//!    system's `γ`), and timing — serializable to schema-stable JSON
//!    (`imcis.report/2`, `imcis.suitereport/2`); `timing` is the only
//!    volatile field and the `to_json_stable` forms omit it. Suite
//!    members are supervised: a panicking or erroring member becomes a
//!    typed, manifest-ordered [`MemberOutcome`] entry instead of taking
//!    the suite down ([`fault`] provides the deterministic
//!    fault-injection harness that proves it).
//!
//! # Determinism contract
//!
//! Results are pure functions of manifests. For a suite specifically:
//! [`SuiteReport::to_json_stable`] is byte-identical at every suite
//! thread budget, and each member report is bit-identical to running
//! that member's spec through its own [`Session`] — setup sharing and
//! scheduling affect wall-clock only. The suite scheduler uses the same
//! splitmix64 stream discipline as the batch engines: an optional
//! `seed_base` derives member `i`'s seed as `stream_seed(seed_base, i)`
//! — the golden-ratio step through the full avalanche finaliser, so the
//! linear per-repetition derivation (`seed + k·φ`) cannot alias streams
//! across members — and repetition streams derive from member seeds
//! exactly as before.
//!
//! # The serving layer
//!
//! On top of the suite layer sits [`serve`]: a `std`-only TCP daemon
//! (`imcis serve`) that accepts suite manifests over a newline-delimited
//! JSON protocol (`imcis.wire/2`) and runs each job through the same
//! *supervised* executor as [`Suite::run`], with at most `workers`
//! members running at once across jobs. It shares one process-wide
//! [`SetupCache`] across jobs and clients, and streams `member_report` /
//! `member_error` events as sessions complete — tagged `(job_id,
//! member_index)` so clients reassemble manifest order from completion
//! order — followed by the terminal `suite_report`. Jobs can carry
//! deadlines and be cancelled at member boundaries, and a job whose
//! members do not fit the bounded queue is answered `rejected
//! {retry_after_ms}` before anything is built. The embedded payloads are the stable JSON forms, so a
//! daemon-served suite is byte-identical to `imcis suite` at every
//! worker count; timing travels only in event envelopes. See the
//! [`serve`] module docs for the protocol and `docs/FORMATS.md` for the
//! normative schema reference.
//!
//! The CLI (`imcis run <spec.json>`, `imcis suite <suite.json>`,
//! `imcis serve` / `imcis submit`), the benchmark binaries and the
//! examples are thin adapters over the same `Session`/`Suite`.
//!
//! Under the hood, one IMCIS repetition still follows the paper exactly:
//!
//! 1. sample `N` traces under an importance-sampling chain `B`, recording
//!    per-trace transition count tables (`imc-sampling`);
//! 2. compile the empirical IS objective `f(A)` over the IMC `[Â]`
//!    (`imc-optim`);
//! 3. find `A_min`/`A_max ∈ [Â]` by Monte Carlo random search with
//!    constrained Dirichlet candidates (Algorithm 2);
//! 4. report the `(1−δ)` confidence interval
//!    `[γ̂(A_min) − q·σ̂(A_min)/√N, γ̂(A_max) + q·σ̂(A_max)/√N]`.
//!
//! The legacy free functions ([`imcis`], [`standard_is`],
//! [`experiment::repeat_imcis`], [`experiment::repeat_is`]) remain as
//! deprecated wrappers over the same engines.
//!
//! # Example
//!
//! ```
//! use imcis_core::{RunSpec, Session};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A manifest is the complete description of a run. This one estimates
//! // the paper's illustrative model (§VI-A) with IMCIS at a small scale.
//! let spec: RunSpec = r#"{
//!         "scenario": {"name": "illustrative"},
//!         "method": {"name": "imcis", "n_traces": 500, "r_undefeated": 60,
//!                    "r_max": 4000},
//!         "seed": 7
//!     }"#
//!     .parse()?;
//! let report = Session::from_spec(spec)?.run()?;
//! // The IMCIS interval covers the exact γ(Â) the scenario knows.
//! assert_eq!(report.coverage_gamma_hat, Some(1.0));
//! // ...and the report serializes to schema-stable JSON.
//! assert!(report.to_json_string().contains("\"schema\": \"imcis.report/2\""));
//! # Ok(())
//! # }
//! ```
//!
//! Many runs batch into one job through the suite layer; duplicated
//! scenarios share a single build:
//!
//! ```
//! use imcis_core::{Suite, SuiteSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let suite: SuiteSpec = r#"{
//!         "runs": [
//!             {"scenario": {"name": "illustrative"},
//!              "method": {"name": "smc", "n_traces": 300}},
//!             {"scenario": {"name": "illustrative"},
//!              "method": {"name": "standard-is", "n_traces": 300}}
//!         ],
//!         "threads": 1
//!     }"#
//!     .parse()?;
//! let suite = Suite::from_spec(suite)?;
//! assert_eq!(suite.unique_setups(), 1); // one shared illustrative build
//! let report = suite.run()?;
//! assert_eq!(report.members.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
pub mod dsl;
pub mod experiment;
pub mod fault;
pub mod report;
pub mod router;
pub mod serve;
pub mod session;
pub mod spec;
pub mod suite;

#[allow(deprecated)]
pub use algorithm::{imcis, standard_is};
pub use algorithm::{ImcisConfig, ImcisError, ImcisOutcome, IsOutcome};
pub use fault::{FaultKind, FaultPlan, FaultRule, FAULT_ENV};
pub use report::{validate_report_json, Repetition, Report, Timing, REPORT_SCHEMA};
pub use router::{dominant_cache_fingerprint, HashRing, Router, RouterConfig};
pub use serve::{
    BackendStatus, CampaignProgress, Client, HealthInfo, RouterStatus, ServeConfig, ServeError,
    Server, ServerStatus, StatusSnapshot, SubmitOutcome, WIRE_SCHEMA,
};
pub use session::{
    estimator_for, stage_estimator_for, Estimator, EstimatorState, MethodOutcome, OutcomeDetail,
    RunContext, Session, SessionError, SingleStage, StageEstimator,
};
pub use spec::{
    AdaptiveSpec, CrossEntropySpec, ImcisSpec, Method, RunSpec, SampleSpec, ScenarioRef,
    SearchSpec, SpecError, RUNSPEC_SCHEMA,
};
pub use suite::{
    validate_suite_report_json, CampaignOutcome, CampaignSpec, MemberOutcome, MemberStatus,
    SetupCache, StageOutcome, Suite, SuiteMember, SuiteReport, SuiteSpec, SUITEREPORT_SCHEMA,
    SUITEREPORT_SCHEMA_V3, SUITESPEC_SCHEMA,
};
// Re-exported so pipeline callers can pick a search engine without a
// direct `imc_optim` dependency.
pub use imc_optim::SearchStrategy;
