//! [`Session`] — the execution layer of the `RunSpec → Session → Report`
//! API.
//!
//! A session owns the run policy a spec describes: it resolves the
//! scenario through the registry (or accepts a pre-built
//! [`Setup`]), derives one deterministic RNG stream per repetition from
//! the spec's seed, fans repetitions out over the available cores, and
//! folds the per-repetition [`MethodOutcome`]s into a uniform,
//! serializable [`Report`]. Every estimation method is a
//! [`StageEstimator`] implementation behind the [`Method`] enum, so SMC,
//! standard IS, IMCIS, cross-entropy and zero-variance runs all travel
//! the same path — and new methods plug in without new entry points.
//! One-shot methods keep the trait's stateless defaults; the adaptive
//! methods carry a typed [`EstimatorState`] between campaign stages.
//!
//! Determinism contract: a `Session` result is a pure function of its
//! `RunSpec` (and the scenario it names). Thread budgets affect
//! scheduling only; every engine underneath is bit-identical at every
//! thread count.
//!
//! # Example
//!
//! ```
//! use imcis_core::{RunSpec, Session};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Parse a manifest, resolve its scenario, run, fold the report.
//! let spec: RunSpec = r#"{
//!         "scenario": {"name": "illustrative"},
//!         "method": {"name": "standard-is", "n_traces": 300},
//!         "seed": 11,
//!         "repetitions": 2
//!     }"#
//!     .parse()?;
//! let report = Session::from_spec(spec)?.run()?;
//! assert_eq!(report.runs.len(), 2); // one row per repetition
//! assert!(report.estimate.is_finite());
//! // Rerunning the same manifest reproduces the stable JSON exactly.
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use imc_markov::Dtmc;
use imc_models::{ScenarioError, ScenarioRegistry, Setup};
use imc_sampling::{
    cross_entropy_is, cross_entropy_refine, dupuis_wang_update, initial_chain, initial_value,
    zero_variance_is, DupuisWangConfig,
};
use imc_sim::{monte_carlo, SmcConfig};
use imc_stats::{coverage, ConfidenceInterval, RunningStats};
use rand::{rngs::StdRng, SeedableRng};

use crate::algorithm::{imcis_impl, standard_is_impl};
use crate::report::{Repetition, Report, Timing};
use crate::spec::{
    AdaptiveSpec, CrossEntropySpec, ImcisSpec, Method, RunSpec, SampleSpec, SpecError,
};
use crate::{ImcisError, ImcisOutcome};

/// Errors of the spec → session → report pipeline.
#[derive(Debug)]
pub enum SessionError {
    /// The scenario could not be resolved or built.
    Scenario(ScenarioError),
    /// The manifest is malformed.
    Spec(SpecError),
    /// The IMCIS pipeline failed.
    Imcis(ImcisError),
    /// Auxiliary model construction failed (zero-variance, cross-entropy).
    Analysis(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Scenario(e) => write!(f, "{e}"),
            SessionError::Spec(e) => write!(f, "{e}"),
            SessionError::Imcis(e) => write!(f, "{e}"),
            SessionError::Analysis(msg) => write!(f, "analysis failed: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ScenarioError> for SessionError {
    fn from(e: ScenarioError) -> Self {
        SessionError::Scenario(e)
    }
}

impl From<SpecError> for SessionError {
    fn from(e: SpecError) -> Self {
        SessionError::Spec(e)
    }
}

impl From<ImcisError> for SessionError {
    fn from(e: ImcisError) -> Self {
        SessionError::Imcis(e)
    }
}

/// Per-repetition resources a session grants an estimator. The default
/// grants all cores to both phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunContext {
    /// Simulation worker threads for this repetition (`0` = all cores).
    pub threads: usize,
    /// Candidate-search worker threads (`0` = all cores).
    pub search_threads: usize,
}

/// The uniform per-repetition outcome every [`StageEstimator`] returns.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Point estimate (`γ̂`; for IMCIS the bracket midpoint).
    pub estimate: f64,
    /// Empirical standard deviation (for IMCIS the wider extreme's `σ̂`).
    pub sigma: f64,
    /// The `(1−δ)` confidence interval.
    pub ci: ConfidenceInterval,
    /// Successful traces.
    pub n_success: u64,
    /// Traces that hit the step budget undecided.
    pub n_undecided: u64,
    /// The full outcome of Algorithm 1 (IMCIS only): the bracket
    /// `γ̂(A_min)`, `γ̂(A_max)`, the optimisation rounds, the extremal rows
    /// and the convergence trace (when recorded).
    pub imcis: Option<ImcisOutcome>,
}

/// The typed state an estimator carries from one campaign stage to the
/// next ([`StageEstimator`]).
///
/// One-shot estimators are [`EstimatorState::Stateless`]; the
/// adaptive estimators carry the change of measure they refine between
/// stages. `Arc`-held so cloning a state (the campaign runner snapshots
/// it across supervision boundaries) never copies a model.
#[derive(Debug, Clone)]
pub enum EstimatorState {
    /// Nothing carries over between stages.
    Stateless,
    /// A refined IS chain (the `ce-campaign` estimator).
    Chain(Arc<Dtmc>),
    /// An IS chain plus the value function that generated it (the
    /// `dupuis-wang` estimator).
    ValueChain {
        /// The state-dependent change of measure `b(x, y) ∝ a(x, y)·V(y)`.
        b: Arc<Dtmc>,
        /// The learned per-state value function `V`.
        v: Arc<Vec<f64>>,
    },
}

/// One estimation method, pluggable into a [`Session`].
///
/// A method is stepwise: it estimates under a typed state and advances
/// that state from a finished stage's outcomes. One-shot methods keep
/// the provided [`initial_state`](StageEstimator::initial_state) and
/// [`advance`](StageEstimator::advance), which carry
/// [`EstimatorState::Stateless`], so each campaign stage is an
/// independent run; the adaptive methods override both. A session runs
/// stage 0; a campaign re-seeds each stage from
/// `stream_seed(seed, 2·stage)` (sessions) and
/// `stream_seed(seed, 2·stage + 1)` (state updates), so the whole
/// campaign remains a pure function of its manifest. Implementations
/// must keep both halves deterministic given `rng`'s stream and
/// bit-identical at every thread count in `ctx` — `advance` is
/// typically sequential, which satisfies the contract trivially.
pub trait StageEstimator: Sync {
    /// The state stage 0 estimates under.
    ///
    /// # Errors
    ///
    /// Any [`SessionError`]; the campaign fails its first stage.
    fn initial_state(&self, _setup: &Setup) -> Result<EstimatorState, SessionError> {
        Ok(EstimatorState::Stateless)
    }

    /// Runs one repetition of one stage under `state`.
    ///
    /// # Errors
    ///
    /// Any [`SessionError`]; the stage aborts at the first failure.
    fn estimate_staged(
        &self,
        setup: &Setup,
        state: &EstimatorState,
        ctx: &RunContext,
        rng: &mut StdRng,
    ) -> Result<MethodOutcome, SessionError>;

    /// Refines `state` between stages from the finished stage's
    /// outcomes (repetition order).
    ///
    /// # Errors
    ///
    /// Any [`SessionError`]; the campaign stops with a typed per-stage
    /// failure entry.
    fn advance(
        &self,
        _setup: &Setup,
        _state: EstimatorState,
        _outcomes: &[MethodOutcome],
        _rng: &mut StdRng,
    ) -> Result<EstimatorState, SessionError> {
        Ok(EstimatorState::Stateless)
    }

    /// Runs one repetition on the caller's RNG: stage 0, under
    /// [`initial_state`](StageEstimator::initial_state).
    ///
    /// # Errors
    ///
    /// Any [`SessionError`] of either step.
    fn estimate(
        &self,
        setup: &Setup,
        ctx: &RunContext,
        rng: &mut StdRng,
    ) -> Result<MethodOutcome, SessionError> {
        let state = self.initial_state(setup)?;
        self.estimate_staged(setup, &state, ctx, rng)
    }
}

/// Derives the per-repetition RNG seed: splitmix-style spacing keeps
/// seeds decorrelated while remaining reproducible. Repetition `0` uses
/// the base seed itself, so a one-repetition session is seed-for-seed
/// identical to a direct call of the underlying algorithm.
pub(crate) fn seed_for(base_seed: u64, rep: usize) -> u64 {
    base_seed.wrapping_add((rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A resolved, runnable experiment: a built [`Setup`] plus the manifest
/// describing how to run it.
///
/// The setup is held behind an [`Arc`], so running several methods on
/// one built scenario shares the models instead of cloning them —
/// significant for the large scenarios (`repair` is 40320 states).
pub struct Session {
    setup: Arc<Setup>,
    spec: RunSpec,
}

impl Session {
    /// Resolves `spec.scenario` through the built-in registry.
    ///
    /// # Errors
    ///
    /// [`SessionError::Scenario`] if the scenario is unknown or fails to
    /// build.
    pub fn from_spec(spec: RunSpec) -> Result<Self, SessionError> {
        Self::from_spec_with(spec, &ScenarioRegistry::builtin())
    }

    /// Resolves `spec.scenario` through a caller-supplied registry
    /// (custom scenarios register alongside the built-ins).
    ///
    /// # Errors
    ///
    /// [`SessionError::Scenario`] as for [`Session::from_spec`].
    pub fn from_spec_with(
        spec: RunSpec,
        registry: &ScenarioRegistry,
    ) -> Result<Self, SessionError> {
        let setup = registry.build(&spec.scenario.name, &spec.scenario.params)?;
        Ok(Session {
            setup: Arc::new(setup),
            spec,
        })
    }

    /// Wraps an already-built setup (ad-hoc models, tests, or one
    /// registry build shared by several sessions). The spec's scenario
    /// reference is kept verbatim and only documents provenance. Accepts
    /// an owned [`Setup`] or an [`Arc<Setup>`]; pass an `Arc` clone to run
    /// several methods on one built scenario without copying the models.
    pub fn from_setup(setup: impl Into<Arc<Setup>>, spec: RunSpec) -> Self {
        Session {
            setup: setup.into(),
            spec,
        }
    }

    /// The manifest this session runs.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// The built scenario.
    pub fn setup(&self) -> &Setup {
        &self.setup
    }

    /// The built scenario, shared — the campaign runner clones this to
    /// derive per-stage sessions without rebuilding the models.
    pub fn setup_shared(&self) -> Arc<Setup> {
        Arc::clone(&self.setup)
    }

    /// Runs every repetition and returns the full-fidelity outcomes in
    /// repetition order (deterministic; repetitions fan out over the
    /// available cores).
    ///
    /// # Errors
    ///
    /// The first [`SessionError`] any repetition produces.
    pub fn run_outcomes(&self) -> Result<Vec<MethodOutcome>, SessionError> {
        Ok(self.run_timed(0)?.0)
    }

    /// Runs the session and folds the outcomes into a [`Report`].
    ///
    /// # Errors
    ///
    /// As for [`Session::run_outcomes`].
    pub fn run(&self) -> Result<Report, SessionError> {
        self.run_with_rep_threads(0)
    }

    /// [`Session::run`] with the repetition fan-out bounded to
    /// `rep_threads` workers (`0` = all cores). Scheduling only —
    /// results are bit-identical at every value. The suite scheduler
    /// uses this to divide the machine between concurrently running
    /// sessions instead of letting every session claim all cores.
    ///
    /// # Errors
    ///
    /// As for [`Session::run`].
    pub fn run_with_rep_threads(&self, rep_threads: usize) -> Result<Report, SessionError> {
        let started = Instant::now();
        let (outcomes, per_run_ms) = self.run_timed(rep_threads)?;
        Ok(self.fold_report(started, &outcomes, per_run_ms))
    }

    /// Runs one campaign stage: every repetition estimates under the
    /// caller's `estimator`/`state` pair instead of the spec method's
    /// own initial state, and the raw outcomes ride along so the
    /// campaign runner can [`StageEstimator::advance`] from them. The
    /// folded [`Report`] has exactly the single-run shape — a campaign
    /// stage is a full session.
    ///
    /// # Errors
    ///
    /// As for [`Session::run`].
    pub fn run_stage(
        &self,
        rep_threads: usize,
        estimator: &dyn StageEstimator,
        state: &EstimatorState,
    ) -> Result<(Report, Vec<MethodOutcome>), SessionError> {
        let started = Instant::now();
        let (outcomes, per_run_ms) = self.run_timed_staged(rep_threads, estimator, state)?;
        let report = self.fold_report(started, &outcomes, per_run_ms);
        Ok((report, outcomes))
    }

    /// Folds per-repetition outcomes into the uniform [`Report`]: mean
    /// estimate and `σ̂`, the mean interval (Welford means of the bounds)
    /// and the paper's Table II coverage columns.
    ///
    /// Coverage is counted with a relative tolerance of `1e-9`: a
    /// zero-variance IS run produces a CI that is *mathematically* the
    /// point `γ(Â)` but differs from it by floating-point ulps, and the
    /// paper counts such intervals as covering (its illustrative IS row
    /// reports 100% coverage of `γ(Â)`).
    fn fold_report(
        &self,
        started: Instant,
        outcomes: &[MethodOutcome],
        per_run_ms: Vec<f64>,
    ) -> Report {
        let runs: Vec<Repetition> = outcomes.iter().map(Repetition::from_outcome).collect();
        let mean = |f: fn(&Repetition) -> f64| runs.iter().map(f).sum::<f64>() / runs.len() as f64;
        let welford_mean = |f: fn(&ConfidenceInterval) -> f64| {
            runs.iter()
                .map(|r| f(&r.ci))
                .collect::<RunningStats>()
                .mean()
        };
        let cover = |g: f64| {
            let tol = 1e-9 * g.abs();
            let widened: Vec<ConfidenceInterval> = runs
                .iter()
                .map(|r| ConfidenceInterval::new(r.ci.lo() - tol, r.ci.hi() + tol))
                .collect();
            coverage(&widened, g)
        };
        Report {
            spec: self.spec.clone(),
            model: self.setup.name.clone(),
            estimate: mean(|r| r.estimate),
            sigma: mean(|r| r.sigma),
            ci: ConfidenceInterval::new(
                welford_mean(ConfidenceInterval::lo),
                welford_mean(ConfidenceInterval::hi),
            ),
            gamma_center: self.setup.gamma_center,
            gamma_exact: self.setup.gamma_exact,
            coverage_gamma_hat: self.setup.gamma_center.map(cover),
            coverage_gamma_true: self.setup.gamma_exact.map(cover),
            runs,
            timing: Timing {
                total_ms: started.elapsed().as_secs_f64() * 1e3,
                per_run_ms,
            },
        }
    }

    fn run_timed(
        &self,
        rep_threads: usize,
    ) -> Result<(Vec<MethodOutcome>, Vec<f64>), SessionError> {
        let estimator = stage_estimator_for(&self.spec.method);
        let state = estimator.initial_state(&self.setup)?;
        self.run_timed_staged(rep_threads, estimator.as_ref(), &state)
    }

    fn run_timed_staged(
        &self,
        rep_threads: usize,
        estimator: &dyn StageEstimator,
        state: &EstimatorState,
    ) -> Result<(Vec<MethodOutcome>, Vec<f64>), SessionError> {
        // Manifest parsing already rejects `repetitions: 0`, but a
        // programmatically built spec can still carry it; folding zero
        // outcomes would divide by zero into a NaN-bearing report, so it
        // is a validation error here too.
        if self.spec.repetitions == 0 {
            return Err(SessionError::Spec(SpecError::Schema(
                "`spec.repetitions` must be positive (a session cannot fold zero outcomes into a report)".into(),
            )));
        }
        let reps = self.spec.repetitions;
        // The session owns the core budget at repetition level: nesting an
        // all-cores batch engine inside every repetition would
        // oversubscribe roughly cores². Divide the resolved repetition
        // budget between the fan-out workers and their inner engines, so
        // a bounded budget (e.g. handed down by a suite scheduler running
        // several sessions at once) also bounds the engines instead of
        // each repetition claiming all cores (outcomes are identical
        // either way — the engines are thread-count invariant).
        let budget = imc_sim::parallel::resolve_threads(rep_threads);
        let engine_share = (budget / budget.min(reps)).max(1);
        let capped = |requested: usize| {
            if requested == 0 {
                engine_share
            } else {
                requested.min(engine_share)
            }
        };
        let ctx = RunContext {
            threads: capped(self.spec.threads),
            search_threads: capped(self.spec.search_threads),
        };
        let results: Vec<Result<(MethodOutcome, f64), SessionError>> =
            imc_sim::parallel::parallel_map(reps, rep_threads, |rep| {
                let clock = Instant::now();
                let mut rng = StdRng::seed_from_u64(seed_for(self.spec.seed, rep));
                estimator
                    .estimate_staged(&self.setup, state, &ctx, &mut rng)
                    .map(|outcome| (outcome, clock.elapsed().as_secs_f64() * 1e3))
            });
        let mut outcomes = Vec::with_capacity(reps);
        let mut per_run_ms = Vec::with_capacity(reps);
        for result in results {
            let (outcome, ms) = result?;
            outcomes.push(outcome);
            per_run_ms.push(ms);
        }
        Ok((outcomes, per_run_ms))
    }
}

/// The built-in estimator behind a [`Method`]. A [`Session`] runs it
/// through [`StageEstimator::initial_state`] and
/// [`StageEstimator::estimate_staged`]; one run on the caller's RNG is
/// [`StageEstimator::estimate`].
pub fn stage_estimator_for(method: &Method) -> Box<dyn StageEstimator> {
    match method {
        Method::Smc(s) => Box::new(SmcEstimator(*s)),
        Method::StandardIs(s) => Box::new(StandardIsEstimator(*s)),
        Method::ZeroVarianceIs(s) => Box::new(ZeroVarianceEstimator(*s)),
        Method::CrossEntropyIs(ce) => Box::new(CrossEntropyEstimator(*ce)),
        Method::Imcis(i) => Box::new(ImcisEstimator(*i)),
        Method::CeCampaign(a) => Box::new(CeCampaignEstimator(*a)),
        Method::DupuisWang(a) => Box::new(DupuisWangEstimator(*a)),
    }
}

/// Crude Monte Carlo on the centre chain `Â` (§II-C baseline).
struct SmcEstimator(SampleSpec);

impl StageEstimator for SmcEstimator {
    fn estimate_staged(
        &self,
        setup: &Setup,
        _state: &EstimatorState,
        ctx: &RunContext,
        rng: &mut StdRng,
    ) -> Result<MethodOutcome, SessionError> {
        let result = monte_carlo(
            &setup.center,
            &setup.property,
            &SmcConfig::new(self.0.n_traces, self.0.delta)
                .with_max_steps(self.0.max_steps)
                .with_threads(ctx.threads),
            rng,
        );
        Ok(MethodOutcome {
            estimate: result.estimate,
            // Bernoulli dispersion √(p̂(1−p̂)) — comparable to the IS σ̂.
            sigma: (result.estimate * (1.0 - result.estimate)).max(0.0).sqrt(),
            ci: result.ci,
            n_success: result.hits,
            n_undecided: result.undecided,
            imcis: None,
        })
    }
}

/// Standard IS against `Â` under the scenario's chain `B` (§III-A).
struct StandardIsEstimator(SampleSpec);

impl StageEstimator for StandardIsEstimator {
    fn estimate_staged(
        &self,
        setup: &Setup,
        _state: &EstimatorState,
        ctx: &RunContext,
        rng: &mut StdRng,
    ) -> Result<MethodOutcome, SessionError> {
        Ok(standard_is_impl(
            &setup.center,
            &setup.b,
            &setup.property,
            &self.0,
            ctx.threads,
            rng,
        ))
    }
}

/// Standard IS under a freshly built zero-variance chain for `Â`.
struct ZeroVarianceEstimator(SampleSpec);

impl StageEstimator for ZeroVarianceEstimator {
    fn estimate_staged(
        &self,
        setup: &Setup,
        _state: &EstimatorState,
        ctx: &RunContext,
        rng: &mut StdRng,
    ) -> Result<MethodOutcome, SessionError> {
        let zv = zero_variance_is(
            &setup.center,
            setup.property.target(),
            &setup.property.avoid(),
        )
        .map_err(|e| SessionError::Analysis(format!("zero-variance construction: {e}")))?;
        Ok(standard_is_impl(
            &setup.center,
            &zv,
            &setup.property,
            &self.0,
            ctx.threads,
            rng,
        ))
    }
}

/// Standard IS under a cross-entropy-trained chain (reference \[24\]).
struct CrossEntropyEstimator(CrossEntropySpec);

impl StageEstimator for CrossEntropyEstimator {
    fn estimate_staged(
        &self,
        setup: &Setup,
        _state: &EstimatorState,
        ctx: &RunContext,
        rng: &mut StdRng,
    ) -> Result<MethodOutcome, SessionError> {
        let ce = cross_entropy_is(&setup.center, &setup.property, &self.0.to_config(), rng)
            .map_err(|e| SessionError::Analysis(format!("cross-entropy training: {e}")))?;
        Ok(standard_is_impl(
            &setup.center,
            &ce.b,
            &setup.property,
            &self.0.sample,
            ctx.threads,
            rng,
        ))
    }
}

/// The paper's Algorithm 1: importance sampling of the IMC.
struct ImcisEstimator(ImcisSpec);

impl StageEstimator for ImcisEstimator {
    fn estimate_staged(
        &self,
        setup: &Setup,
        _state: &EstimatorState,
        ctx: &RunContext,
        rng: &mut StdRng,
    ) -> Result<MethodOutcome, SessionError> {
        let config = self.0.to_config(ctx.threads, ctx.search_threads);
        let out = imcis_impl(&setup.imc, &setup.b, &setup.property, &config, rng)?;
        Ok(MethodOutcome {
            estimate: 0.5 * (out.gamma_min + out.gamma_max),
            sigma: out.sigma_min.max(out.sigma_max),
            ci: out.ci,
            n_success: out.n_success,
            n_undecided: out.n_undecided,
            imcis: Some(out),
        })
    }
}

/// Standard IS under a chain refined by a cross-entropy outer loop
/// between campaign stages.
struct CeCampaignEstimator(AdaptiveSpec);

fn state_chain<'a>(state: &'a EstimatorState, method: &str) -> Result<&'a Arc<Dtmc>, SessionError> {
    match state {
        EstimatorState::Chain(b) => Ok(b),
        EstimatorState::ValueChain { b, .. } => Ok(b),
        EstimatorState::Stateless => Err(SessionError::Analysis(format!(
            "{method} needs a chain-bearing estimator state"
        ))),
    }
}

/// Standard IS against `Â` under the chain an adaptive `state` carries.
fn is_under_state(
    method: &str,
    sample: &SampleSpec,
    setup: &Setup,
    state: &EstimatorState,
    ctx: &RunContext,
    rng: &mut StdRng,
) -> Result<MethodOutcome, SessionError> {
    let b = state_chain(state, method)?;
    Ok(standard_is_impl(
        &setup.center,
        b,
        &setup.property,
        sample,
        ctx.threads,
        rng,
    ))
}

impl StageEstimator for CeCampaignEstimator {
    fn initial_state(&self, setup: &Setup) -> Result<EstimatorState, SessionError> {
        let b = initial_chain(&setup.center)
            .map_err(|e| SessionError::Analysis(format!("ce-campaign bootstrap: {e}")))?;
        Ok(EstimatorState::Chain(Arc::new(b)))
    }

    fn estimate_staged(
        &self,
        setup: &Setup,
        state: &EstimatorState,
        ctx: &RunContext,
        rng: &mut StdRng,
    ) -> Result<MethodOutcome, SessionError> {
        is_under_state("ce-campaign", &self.0.sample, setup, state, ctx, rng)
    }

    fn advance(
        &self,
        setup: &Setup,
        state: EstimatorState,
        _outcomes: &[MethodOutcome],
        rng: &mut StdRng,
    ) -> Result<EstimatorState, SessionError> {
        let b = state_chain(&state, "ce-campaign")?;
        let step = cross_entropy_refine(
            &setup.center,
            &setup.property,
            b,
            self.0.training_traces,
            self.0.sample.max_steps,
            rng,
        )
        .map_err(|e| SessionError::Analysis(format!("ce-campaign refinement: {e}")))?;
        Ok(EstimatorState::Chain(Arc::new(step.b)))
    }
}

/// Standard IS under a Dupuis–Wang state-dependent change of measure,
/// its value function re-trained between campaign stages.
struct DupuisWangEstimator(AdaptiveSpec);

impl StageEstimator for DupuisWangEstimator {
    fn initial_state(&self, setup: &Setup) -> Result<EstimatorState, SessionError> {
        let b = initial_chain(&setup.center)
            .map_err(|e| SessionError::Analysis(format!("dupuis-wang bootstrap: {e}")))?;
        let v = initial_value(&setup.center, &setup.property);
        Ok(EstimatorState::ValueChain {
            b: Arc::new(b),
            v: Arc::new(v),
        })
    }

    fn estimate_staged(
        &self,
        setup: &Setup,
        state: &EstimatorState,
        ctx: &RunContext,
        rng: &mut StdRng,
    ) -> Result<MethodOutcome, SessionError> {
        is_under_state("dupuis-wang", &self.0.sample, setup, state, ctx, rng)
    }

    fn advance(
        &self,
        setup: &Setup,
        state: EstimatorState,
        _outcomes: &[MethodOutcome],
        rng: &mut StdRng,
    ) -> Result<EstimatorState, SessionError> {
        let EstimatorState::ValueChain { b, v } = &state else {
            return Err(SessionError::Analysis(
                "dupuis-wang needs a value/chain estimator state".into(),
            ));
        };
        let config = DupuisWangConfig {
            training_traces: self.0.training_traces,
            max_steps: self.0.sample.max_steps,
        };
        let (nb, nv) = dupuis_wang_update(&setup.center, &setup.property, b, v, &config, rng)
            .map_err(|e| SessionError::Analysis(format!("dupuis-wang update: {e}")))?;
        Ok(EstimatorState::ValueChain {
            b: Arc::new(nb),
            v: Arc::new(nv),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioRef;
    use crate::SearchStrategy;
    use imc_logic::Property;
    use imc_markov::{DtmcBuilder, Imc, StateSet};
    use imc_models::illustrative;
    use imc_stats::coverage;

    fn illustrative_spec(method: Method) -> RunSpec {
        RunSpec::new(ScenarioRef::named("illustrative"), method, 41).with_threads(1, 1)
    }

    fn small_imcis() -> Method {
        Method::Imcis(ImcisSpec {
            sample: SampleSpec {
                n_traces: 800,
                delta: 0.05,
                max_steps: 100_000,
            },
            r_undefeated: 80,
            r_max: 5_000,
            force_sampling: false,
            record_trace: true,
            search: SearchStrategy::Sequential,
        })
    }

    #[test]
    fn session_resolves_the_registry_and_reports() {
        let session = Session::from_spec(illustrative_spec(small_imcis())).unwrap();
        let report = session.run().unwrap();
        assert_eq!(report.model, "illustrative");
        assert_eq!(report.runs.len(), 1);
        let gamma_center = illustrative::gamma(illustrative::A_HAT, illustrative::C_HAT);
        assert!(report.ci.contains(gamma_center));
        assert_eq!(report.coverage_gamma_hat, Some(1.0));
        let rep = &report.runs[0];
        assert!(rep.gamma_min.unwrap() < rep.gamma_max.unwrap());
        assert!(!rep.trace.is_empty(), "record_trace was requested");
        assert_eq!(report.timing.per_run_ms.len(), 1);
    }

    #[test]
    fn session_is_deterministic_and_thread_invariant() {
        let run = |threads| {
            let spec = illustrative_spec(small_imcis()).with_threads(threads, threads);
            Session::from_spec(spec).unwrap().run().unwrap()
        };
        let reference = run(1);
        for threads in [2usize, 8] {
            let report = run(threads);
            // Everything but the thread budget echo and timing matches.
            assert_eq!(report.estimate.to_bits(), reference.estimate.to_bits());
            assert_eq!(report.ci.lo().to_bits(), reference.ci.lo().to_bits());
            assert_eq!(report.ci.hi().to_bits(), reference.ci.hi().to_bits());
            assert_eq!(report.runs.len(), reference.runs.len());
        }
        // Same spec twice: byte-identical stable JSON.
        assert_eq!(
            run(1).to_json_stable().pretty(),
            reference.to_json_stable().pretty()
        );
    }

    #[test]
    fn every_method_runs_on_the_illustrative_scenario() {
        let sample = SampleSpec {
            n_traces: 300,
            delta: 0.05,
            max_steps: 10_000,
        };
        for method in [
            Method::Smc(sample),
            Method::StandardIs(sample),
            Method::ZeroVarianceIs(sample),
            Method::CrossEntropyIs(CrossEntropySpec {
                sample,
                iterations: 3,
                traces_per_iteration: 500,
            }),
            Method::CeCampaign(AdaptiveSpec {
                sample,
                training_traces: 400,
            }),
            Method::DupuisWang(AdaptiveSpec {
                sample,
                training_traces: 400,
            }),
        ] {
            let name = method.name();
            let session = Session::from_spec(illustrative_spec(method)).unwrap();
            let report = session.run().unwrap();
            assert_eq!(report.spec.method.name(), name);
            assert!(report.estimate.is_finite(), "{name}");
            assert!(report.ci.lo() <= report.ci.hi(), "{name}");
        }
    }

    #[test]
    fn single_stage_adapter_is_byte_identical_to_the_one_shot_run() {
        // One-shot methods take the trait's single-stage defaults: a
        // staged run under their own initial state reproduces `run()`
        // exactly, and so does `estimate` on repetition 0's stream.
        let spec = illustrative_spec(Method::StandardIs(SampleSpec {
            n_traces: 300,
            delta: 0.05,
            max_steps: 10_000,
        }));
        let session = Session::from_spec(spec).unwrap();
        let baseline = session.run().unwrap();
        let estimator = stage_estimator_for(&session.spec().method);
        let state = estimator.initial_state(session.setup()).unwrap();
        let (staged, outcomes) = session.run_stage(1, estimator.as_ref(), &state).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(
            staged.to_json_stable().pretty(),
            baseline.to_json_stable().pretty()
        );
        let mut rng = StdRng::seed_from_u64(session.spec().seed);
        let one = estimator
            .estimate(session.setup(), &RunContext::default(), &mut rng)
            .unwrap();
        assert_eq!(one.estimate.to_bits(), outcomes[0].estimate.to_bits());
        assert_eq!(one.ci, outcomes[0].ci);
        assert_eq!(one.n_success, outcomes[0].n_success);
    }

    #[test]
    fn adaptive_advance_refines_the_chain_deterministically() {
        let spec = illustrative_spec(Method::CeCampaign(AdaptiveSpec {
            sample: SampleSpec {
                n_traces: 300,
                delta: 0.05,
                max_steps: 10_000,
            },
            training_traces: 500,
        }));
        let session = Session::from_spec(spec).unwrap();
        let estimator = stage_estimator_for(&session.spec().method);
        let advance = || {
            let state = estimator.initial_state(session.setup()).unwrap();
            let (_, outcomes) = session.run_stage(1, estimator.as_ref(), &state).unwrap();
            let mut rng = StdRng::seed_from_u64(99);
            let next = estimator
                .advance(session.setup(), state, &outcomes, &mut rng)
                .unwrap();
            match next {
                EstimatorState::Chain(b) => b,
                other => panic!("expected a chain state, got {other:?}"),
            }
        };
        let (b1, b2) = (advance(), advance());
        // Deterministic: the refined chains are bit-identical.
        for s in 0..b1.num_states() {
            for e in b1.row(s).unwrap().iter() {
                assert_eq!(
                    b1.prob(s, e.target).to_bits(),
                    b2.prob(s, e.target).to_bits()
                );
            }
        }
        // And the refinement actually steered toward the rare event.
        assert!(b1.prob(0, 1) > 0.4, "b(0,1) = {}", b1.prob(0, 1));
    }

    #[test]
    fn repetitions_use_decorrelated_seeds() {
        let spec = illustrative_spec(Method::StandardIs(SampleSpec {
            n_traces: 200,
            delta: 0.05,
            max_steps: 10_000,
        }))
        .with_repetitions(3);
        let outcomes = Session::from_spec(spec).unwrap().run_outcomes().unwrap();
        assert_eq!(outcomes.len(), 3);
        // The illustrative B is *perfect* IS for the centre chain: every
        // repetition produces the same degenerate estimate, so compare
        // success tallies instead (trace lengths differ by seed).
        assert!(outcomes.iter().all(|o| o.estimate.is_finite()));
    }

    #[test]
    fn zero_repetitions_is_a_session_error_not_a_nan_report() {
        let mut spec = illustrative_spec(Method::StandardIs(SampleSpec {
            n_traces: 100,
            delta: 0.05,
            max_steps: 1_000,
        }));
        spec.repetitions = 0;
        let err = Session::from_spec(spec).unwrap().run().unwrap_err();
        assert!(matches!(err, SessionError::Spec(_)), "{err}");
        assert_eq!(
            err.to_string(),
            "spec does not match the schema: `spec.repetitions` must be positive \
             (a session cannot fold zero outcomes into a report)"
        );
    }

    #[test]
    fn summary_reports_table2_columns() {
        // The report's interval is the mean of the bounds; coverage counts
        // the repetitions whose interval holds each reference γ.
        let setup = Setup {
            gamma_center: Some(0.2),
            gamma_exact: Some(0.5),
            ..coin_setup(0.3, 0.05)
        };
        let spec = illustrative_spec(Method::StandardIs(SampleSpec::default()));
        let outcome = |lo: f64, hi: f64| MethodOutcome {
            estimate: 0.5 * (lo + hi),
            sigma: 0.0,
            ci: ConfidenceInterval::new(lo, hi),
            n_success: 0,
            n_undecided: 0,
            imcis: None,
        };
        let outcomes = [outcome(0.1, 0.3), outcome(0.15, 0.35)];
        let report =
            Session::from_setup(setup, spec).fold_report(Instant::now(), &outcomes, vec![0.0; 2]);
        assert!((report.ci.lo() - 0.125).abs() < 1e-12);
        assert!((report.ci.hi() - 0.325).abs() < 1e-12);
        assert_eq!(report.coverage_gamma_hat, Some(1.0));
        assert_eq!(report.coverage_gamma_true, Some(0.0));
        assert_eq!(report.runs.len(), 2);
    }

    #[test]
    fn unknown_scenario_is_reported() {
        let spec = RunSpec::new(ScenarioRef::named("nope"), small_imcis(), 1);
        assert!(matches!(
            Session::from_spec(spec),
            Err(SessionError::Scenario(ScenarioError::UnknownScenario(_)))
        ));
    }

    /// A coin whose centre chain doubles as the IS chain `B`, inside an
    /// IMC that widens every centre probability by `eps`.
    fn coin_setup(p_center: f64, eps: f64) -> Setup {
        let mut cb = DtmcBuilder::new(3);
        cb.add_transition(0, 1, p_center)
            .add_transition(0, 2, 1.0 - p_center)
            .add_self_loop(1)
            .add_self_loop(2);
        let center = cb.build().unwrap();
        let imc = Imc::from_center(&center, |_, _| eps).unwrap();
        let property =
            Property::reach_avoid(StateSet::from_states(3, [1]), StateSet::from_states(3, [2]));
        Setup {
            name: "coin".into(),
            imc,
            b: center.clone(),
            center,
            property,
            gamma_center: None,
            gamma_exact: None,
        }
    }

    fn coin_imcis(n_traces: usize, r_undefeated: usize, r_max: usize) -> Method {
        Method::Imcis(ImcisSpec {
            sample: SampleSpec {
                n_traces,
                ..SampleSpec::default()
            },
            r_undefeated,
            r_max,
            ..ImcisSpec::default()
        })
    }

    fn repeat(setup: &Setup, method: Method, reps: usize, seed: u64) -> Vec<MethodOutcome> {
        let spec = RunSpec::new(ScenarioRef::named("coin"), method, seed).with_repetitions(reps);
        Session::from_setup(setup.clone(), spec)
            .run_outcomes()
            .unwrap()
    }

    #[test]
    fn repetitions_are_deterministic_given_seed() {
        let setup = coin_setup(0.3, 0.05);
        let method = coin_imcis(500, 50, 2000);
        let run1 = repeat(&setup, method.clone(), 4, 99);
        let run2 = repeat(&setup, method, 4, 99);
        for (a, b) in run1.iter().zip(&run2) {
            assert_eq!(a.ci.lo(), b.ci.lo());
            assert_eq!(a.ci.hi(), b.ci.hi());
        }
        // Different repetitions genuinely differ.
        assert_ne!(run1[0].ci.lo(), run1[1].ci.lo());
    }

    #[test]
    fn imcis_coverage_dominates_is_coverage() {
        // True p = 0.27; learnt centre 0.3 ± 0.05. Standard IS targets the
        // centre and should often miss the truth relative to IMCIS.
        let setup = coin_setup(0.3, 0.05);
        let reps = 12;
        let imcis_out = repeat(&setup, coin_imcis(800, 60, 3000), reps, 7);
        let is_sample = SampleSpec {
            n_traces: 800,
            ..SampleSpec::default()
        };
        let is_out = repeat(&setup, Method::StandardIs(is_sample), reps, 7);
        let truth = 0.27;
        let imcis_cis: Vec<_> = imcis_out.iter().map(|o| o.ci).collect();
        let is_cis: Vec<_> = is_out.iter().map(|o| o.ci).collect();
        let imcis_cov = coverage(&imcis_cis, truth);
        let is_cov = coverage(&is_cis, truth);
        assert!(
            imcis_cov >= is_cov,
            "IMCIS coverage {imcis_cov} below IS coverage {is_cov}"
        );
        assert!(imcis_cov > 0.9, "IMCIS coverage too low: {imcis_cov}");
    }
}
