use std::fmt;

use imc_logic::Property;
use imc_markov::{Dtmc, Imc, State};
use imc_optim::{
    search, ConvergencePoint, OptimError, Problem, RandomSearchConfig, SearchStrategy,
};
use imc_sampling::{is_estimate, sample_is_run, IsConfig};
use imc_stats::{normal_quantile, ConfidenceInterval};
use rand::Rng;

use crate::session::MethodOutcome;
use crate::spec::SampleSpec;

/// Configuration of one IMCIS run (inputs of Algorithm 1), as
/// [`ImcisSpec::to_config`](crate::ImcisSpec::to_config) builds it from a
/// manifest's method block and the session's thread budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImcisConfig {
    /// Sample size `N` (the paper uses 10000).
    pub n_traces: usize,
    /// Confidence parameter `δ`.
    pub delta: f64,
    /// Undefeated rounds `R` before the random search stops (paper: 1000).
    pub r_undefeated: usize,
    /// Hard cap on optimisation rounds.
    pub r_max: usize,
    /// Per-trace transition budget.
    pub max_steps: usize,
    /// Record the optimisation convergence trace (Figure 3).
    pub record_trace: bool,
    /// Disable the §III-C closed-form fast path and search every visited
    /// row, reproducing the paper's Algorithm 2 verbatim (Table I).
    pub force_sampling: bool,
    /// Worker threads for the sampling phase (`0` = all cores). For a
    /// fixed seed the outcome is bit-identical at every thread count.
    pub threads: usize,
    /// Worker threads for the candidate-search phase (`0` = all cores).
    /// Only consulted by [`SearchStrategy::Batched`]; like the sampling
    /// phase, the outcome is bit-identical at every thread count.
    pub search_threads: usize,
    /// Candidate-search engine: the paper-exact sequential Algorithm 2
    /// (default) or the batched deterministic engine.
    pub strategy: SearchStrategy,
}

/// Errors of the IMCIS pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ImcisError {
    /// The optimisation phase failed.
    Optim(OptimError),
}

impl fmt::Display for ImcisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImcisError::Optim(e) => write!(f, "optimisation failed: {e}"),
        }
    }
}

impl std::error::Error for ImcisError {}

impl From<OptimError> for ImcisError {
    fn from(e: OptimError) -> Self {
        ImcisError::Optim(e)
    }
}

/// The result of one IMCIS run (outputs of Algorithm 1).
#[derive(Debug, Clone)]
pub struct ImcisOutcome {
    /// The `(1−δ)` confidence interval `[L, U]` with respect to the *whole*
    /// IMC (clamped into `[0, 1]`).
    pub ci: ConfidenceInterval,
    /// `γ̂(A_min)` — the minimised estimate.
    pub gamma_min: f64,
    /// `σ̂(A_min)`.
    pub sigma_min: f64,
    /// `γ̂(A_max)` — the maximised estimate.
    pub gamma_max: f64,
    /// `σ̂(A_max)`.
    pub sigma_max: f64,
    /// Successful traces out of `N`.
    pub n_success: u64,
    /// Traces that hit the step budget undecided.
    pub n_undecided: u64,
    /// Optimisation rounds executed.
    pub rounds: usize,
    /// Round at which the final minimum was found (the `nr` statistic of
    /// Table I).
    pub min_found_at: usize,
    /// Round at which the final maximum was found.
    pub max_found_at: usize,
    /// The minimising rows, per optimised state.
    pub rows_min: Vec<(State, Vec<(State, f64)>)>,
    /// The maximising rows.
    pub rows_max: Vec<(State, Vec<(State, f64)>)>,
    /// Convergence trace in estimate units (γ = f/N), for Figure 3.
    pub trace: Vec<ConvergencePoint>,
}

impl ImcisOutcome {
    /// The probability `A_min` assigns to `from -> to`, if that row was
    /// optimised (Table I reports these per-parameter values).
    pub fn min_prob(&self, from: State, to: State) -> Option<f64> {
        lookup(&self.rows_min, from, to)
    }

    /// The probability `A_max` assigns to `from -> to`.
    pub fn max_prob(&self, from: State, to: State) -> Option<f64> {
        lookup(&self.rows_max, from, to)
    }
}

fn lookup(rows: &[(State, Vec<(State, f64)>)], from: State, to: State) -> Option<f64> {
    rows.iter()
        .find(|&&(s, _)| s == from)
        .and_then(|(_, pairs)| pairs.iter().find(|&&(t, _)| t == to))
        .map(|&(_, v)| v)
}

/// Runs IMCIS (Algorithm 1): samples under `b`, optimises the empirical IS
/// estimator over `imc`, and returns the widened confidence interval.
/// [`crate::Session`] reaches it through the `imcis` [`crate::StageEstimator`].
///
/// # Errors
///
/// Returns [`ImcisError::Optim`] if the observed support mismatches the IMC
/// or candidate generation fails.
pub(crate) fn imcis_impl<R: Rng + ?Sized>(
    imc: &Imc,
    b: &Dtmc,
    property: &Property,
    config: &ImcisConfig,
    rng: &mut R,
) -> Result<ImcisOutcome, ImcisError> {
    // Lines 1–16: sampling phase (batch-parallel, deterministic).
    let run = sample_is_run(
        b,
        property,
        &IsConfig::new(config.n_traces)
            .with_max_steps(config.max_steps)
            .with_threads(config.threads),
        rng,
    );

    // Lines 17–19: compile and optimise f over [Â].
    let mut problem = if config.force_sampling {
        Problem::with_forced_sampling(imc, b, &run)?
    } else {
        Problem::new(imc, b, &run)?
    };
    let search_config = RandomSearchConfig {
        r_undefeated: config.r_undefeated,
        r_max: config.r_max,
        record_trace: config.record_trace,
    };
    let outcome = search(
        &mut problem,
        &search_config,
        config.strategy,
        config.search_threads,
        rng,
    )?;

    // Lines 20–23: estimates at the extremes.
    let n = config.n_traces as f64;
    let (gamma_min, sigma_min) = problem.objective().estimate(outcome.f_min, outcome.g_min);
    let (gamma_max, sigma_max) = problem.objective().estimate(outcome.f_max, outcome.g_max);

    // Output: CI = [γ̂(A_min) − q·σ̂(A_min)/√N, γ̂(A_max) + q·σ̂(A_max)/√N].
    let q = normal_quantile(1.0 - config.delta / 2.0);
    let lower = gamma_min - q * sigma_min / n.sqrt();
    let upper = gamma_max + q * sigma_max / n.sqrt();
    let ci = ConfidenceInterval::new(lower.min(upper), upper.max(lower)).clamped_to_unit();

    // Convergence trace in γ units.
    let trace = outcome
        .trace
        .iter()
        .map(|p| ConvergencePoint {
            round: p.round,
            f_min: p.f_min / n,
            f_max: p.f_max / n,
        })
        .collect();

    Ok(ImcisOutcome {
        ci,
        gamma_min,
        sigma_min,
        gamma_max,
        sigma_max,
        n_success: run.n_success,
        n_undecided: run.n_undecided,
        rounds: outcome.rounds,
        min_found_at: outcome.min_found_at,
        max_found_at: outcome.max_found_at,
        rows_min: outcome.rows_min,
        rows_max: outcome.rows_max,
        trace,
    })
}

/// Standard IS (§III-A): samples under `b` and estimates `γ(a_ref)` with a
/// normal confidence interval clamped into `[0, 1]`, ignoring the
/// intervals — the baseline whose coverage collapses when `a_ref` is only
/// a point estimate of the true system (§III-B).
/// [`crate::Session`] reaches it through the `standard-is`,
/// `zero-variance`, `cross-entropy` and campaign estimators.
pub(crate) fn standard_is_impl<R: Rng + ?Sized>(
    a_ref: &Dtmc,
    b: &Dtmc,
    property: &Property,
    sample: &SampleSpec,
    threads: usize,
    rng: &mut R,
) -> MethodOutcome {
    let run = sample_is_run(
        b,
        property,
        &IsConfig::new(sample.n_traces)
            .with_max_steps(sample.max_steps)
            .with_threads(threads),
        rng,
    );
    let est = is_estimate(a_ref, b, &run, sample.delta);
    MethodOutcome {
        estimate: est.gamma_hat,
        sigma: est.sigma_hat,
        ci: est.ci.clamped_to_unit(),
        n_success: run.n_success,
        n_undecided: run.n_undecided,
        imcis: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ImcisSpec;
    use imc_markov::StateSet;
    use imc_models::illustrative;
    use imc_sampling::zero_variance_is;
    use rand::SeedableRng;

    /// The manifest's IMCIS configuration at `n_traces` traces.
    fn config(n_traces: usize) -> ImcisConfig {
        let sample = SampleSpec {
            n_traces,
            ..SampleSpec::default()
        };
        ImcisSpec {
            sample,
            ..ImcisSpec::default()
        }
        .to_config(0, 0)
    }

    /// The paper's §VI-A setup: perfect IS for the centre chain Â.
    fn paper_setup() -> (Imc, Dtmc, Property) {
        let imc = illustrative::paper_imc().unwrap();
        let center = illustrative::dtmc(illustrative::A_HAT, illustrative::C_HAT);
        let b = zero_variance_is(
            &center,
            &StateSet::from_states(4, [illustrative::S2]),
            &StateSet::new(4),
        )
        .unwrap();
        (imc, b, illustrative::property())
    }

    #[test]
    fn standard_is_is_a_point_that_misses_gamma() {
        // §III-B: under the perfect IS for Â, the CI degenerates to γ(Â)
        // and misses the true γ.
        let (_, b, prop) = paper_setup();
        let center = illustrative::dtmc(illustrative::A_HAT, illustrative::C_HAT);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let sample = SampleSpec {
            n_traces: 2000,
            ..SampleSpec::default()
        };
        let out = standard_is_impl(&center, &b, &prop, &sample, 0, &mut rng);
        let gamma_center = illustrative::gamma(illustrative::A_HAT, illustrative::C_HAT);
        let gamma_true = illustrative::gamma(illustrative::A_TRUE, illustrative::C_TRUE);
        // The estimate is γ(Â) up to log-space rounding ulps and the CI is
        // (numerically) a single point there...
        assert!((out.estimate - gamma_center).abs() / gamma_center < 1e-12);
        assert!(out.ci.width() < 1e-15);
        assert!((out.ci.mid() - gamma_center).abs() / gamma_center < 1e-12);
        // ...which is nowhere near the true γ — coverage of γ is 0%.
        assert!(!out.ci.contains(gamma_true));
    }

    #[test]
    fn imcis_interval_covers_both_gammas() {
        // Table II row 1-2: IMCIS covers γ(Â) *and* γ.
        let (imc, b, prop) = paper_setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let config = ImcisConfig {
            r_undefeated: 300,
            r_max: 30_000,
            ..config(5000)
        };
        let out = imcis_impl(&imc, &b, &prop, &config, &mut rng).unwrap();
        let gamma_center = illustrative::gamma(illustrative::A_HAT, illustrative::C_HAT);
        let gamma_true = illustrative::gamma(illustrative::A_TRUE, illustrative::C_TRUE);
        assert!(out.ci.contains(gamma_center), "CI {} misses γ(Â)", out.ci);
        assert!(out.ci.contains(gamma_true), "CI {} misses γ", out.ci);
        assert!(out.gamma_min < out.gamma_max);
        assert_eq!(out.n_success, 5000); // perfect IS: all traces succeed
    }

    #[test]
    fn imcis_bracket_is_ordered_and_rows_reported() {
        let (imc, b, prop) = paper_setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let config = ImcisConfig {
            r_undefeated: 200,
            r_max: 20_000,
            ..config(2000)
        };
        let out = imcis_impl(&imc, &b, &prop, &config, &mut rng).unwrap();
        // Table I reports the argmin/argmax parameter values: a from row 0,
        // c from row 1.
        let a_min = out.min_prob(0, 1).expect("row 0 optimised");
        let a_max = out.max_prob(0, 1).expect("row 0 optimised");
        assert!(a_min < a_max);
        assert!(a_min >= illustrative::A_HAT - illustrative::EPS_A - 1e-12);
        assert!(a_max <= illustrative::A_HAT + illustrative::EPS_A + 1e-12);
        assert!(out.min_prob(2, 2).is_none(), "absorbing rows not optimised");
    }

    #[test]
    fn convergence_trace_brackets_widen() {
        let (imc, b, prop) = paper_setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let config = ImcisConfig {
            r_undefeated: 200,
            r_max: 10_000,
            record_trace: true,
            ..config(1000)
        };
        let out = imcis_impl(&imc, &b, &prop, &config, &mut rng).unwrap();
        assert!(!out.trace.is_empty());
        for pair in out.trace.windows(2) {
            assert!(pair[1].f_min <= pair[0].f_min + 1e-18);
            assert!(pair[1].f_max >= pair[0].f_max - 1e-18);
        }
        // The trace is in γ units: consistent with the final estimates.
        let last = out.trace.last().unwrap();
        assert!((last.f_min - out.gamma_min).abs() < 1e-15);
        assert!((last.f_max - out.gamma_max).abs() < 1e-15);
    }

    #[test]
    fn batched_strategy_covers_and_is_search_thread_invariant() {
        let (imc, b, prop) = paper_setup();
        let run = |threads: usize| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(36);
            let config = ImcisConfig {
                r_undefeated: 150,
                r_max: 10_000,
                strategy: SearchStrategy::Batched { batch_size: 32 },
                search_threads: threads,
                ..config(1500)
            };
            imcis_impl(&imc, &b, &prop, &config, &mut rng).unwrap()
        };
        let reference = run(1);
        let gamma_center = illustrative::gamma(illustrative::A_HAT, illustrative::C_HAT);
        assert!(reference.ci.contains(gamma_center));
        assert!(reference.gamma_min < reference.gamma_max);
        for threads in [2usize, 8] {
            let out = run(threads);
            assert_eq!(out.ci.lo().to_bits(), reference.ci.lo().to_bits());
            assert_eq!(out.ci.hi().to_bits(), reference.ci.hi().to_bits());
            assert_eq!(out.rounds, reference.rounds);
            assert_eq!(out.min_found_at, reference.min_found_at);
            assert_eq!(out.max_found_at, reference.max_found_at);
        }
    }

    #[test]
    fn zero_success_run_gives_degenerate_interval() {
        // B that never reaches the target: a chain routing everything to
        // the sink. IMCIS reports [0, 0] rather than failing.
        let imc = illustrative::paper_imc().unwrap();
        let mut nb = imc_markov::DtmcBuilder::new(4);
        nb.set_initial(0)
            .add_transition(0, 3, 1.0)
            .add_transition(1, 0, 1.0)
            .add_self_loop(2)
            .add_self_loop(3);
        let never = nb.build().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        let out = imcis_impl(
            &imc,
            &never,
            &illustrative::property(),
            &config(200),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.n_success, 0);
        assert_eq!((out.ci.lo(), out.ci.hi()), (0.0, 0.0));
        assert_eq!(out.rounds, 0);
    }
}
