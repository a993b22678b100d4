use imc_logic::{Property, Verdict};
use imc_markov::Dtmc;
use imc_stats::ConfidenceInterval;
use rand::Rng;

use crate::{simulate_verdict, BatchRunner, ChainSampler, DEFAULT_MAX_STEPS};

/// Configuration of a crude Monte Carlo estimation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmcConfig {
    /// Number of traces `N`.
    pub n_traces: usize,
    /// Confidence parameter `δ` of the reported `(1−δ)` interval.
    pub delta: f64,
    /// Per-trace transition budget; traces still undecided at the budget are
    /// counted as non-satisfying and reported in
    /// [`SmcResult::undecided`].
    pub max_steps: usize,
    /// Worker threads for the batch engine; `0` = all cores. Results are
    /// bit-identical across thread counts for a fixed seed.
    pub threads: usize,
}

impl SmcConfig {
    /// Creates a config with the given trace count and confidence parameter,
    /// the [`DEFAULT_MAX_STEPS`] step budget, and the batch engine on all
    /// cores.
    ///
    /// # Panics
    ///
    /// Panics if `n_traces == 0` or `delta ∉ (0, 1)`.
    pub fn new(n_traces: usize, delta: f64) -> Self {
        assert!(n_traces > 0, "need at least one trace");
        assert!(
            delta > 0.0 && delta < 1.0,
            "confidence parameter must lie in (0, 1)"
        );
        SmcConfig {
            n_traces,
            delta,
            max_steps: DEFAULT_MAX_STEPS,
            threads: 0,
        }
    }

    /// Replaces the per-trace step budget.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Replaces the worker-thread budget (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The outcome of a crude Monte Carlo estimation (eq. (3) of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct SmcResult {
    /// Point estimate `γ̂_N`.
    pub estimate: f64,
    /// `(1−δ)` normal-approximation confidence interval.
    pub ci: ConfidenceInterval,
    /// Number of accepted traces.
    pub hits: u64,
    /// Number of traces sampled.
    pub n: usize,
    /// Traces that hit the step budget without a decision.
    pub undecided: u64,
}

/// Crude Monte Carlo SMC: samples `N` traces of `chain` under its own
/// probability measure and estimates `γ = P(φ)` by the acceptance frequency.
///
/// This is the baseline estimator of §II-C; for rare events its relative
/// error explodes (motivating importance sampling), which the
/// `rare_event_needs_too_many_samples` test below demonstrates.
pub fn monte_carlo<R: Rng + ?Sized>(
    chain: &Dtmc,
    property: &Property,
    config: &SmcConfig,
    rng: &mut R,
) -> SmcResult {
    let sampler = ChainSampler::new(chain);
    // One draw keys the whole batch; per-trace streams derive from it, so
    // the result depends only on this seed, never on thread scheduling.
    let master_seed = rng.next_u64();
    let runner = BatchRunner::new(config.threads);
    let (_, hits, undecided) = runner.run(
        config.n_traces,
        master_seed,
        || (property.monitor(), 0u64, 0u64),
        |(monitor, hits, undecided), _i, trace_rng| {
            // Crude MC needs no count tables — the count-free walk keeps
            // the inner loop free of recording and allocation.
            let (verdict, _, _) = simulate_verdict(
                &sampler,
                chain.initial(),
                monitor,
                trace_rng,
                config.max_steps,
            );
            match verdict {
                Verdict::Accepted => *hits += 1,
                Verdict::Rejected => {}
                Verdict::Undecided => *undecided += 1,
            }
        },
        |acc, other| {
            acc.1 += other.1;
            acc.2 += other.2;
        },
    );
    let estimate = hits as f64 / config.n_traces as f64;
    let ci = ConfidenceInterval::for_bernoulli(estimate, config.n_traces, config.delta)
        .clamped_to_unit();
    SmcResult {
        estimate,
        ci,
        hits,
        n: config.n_traces,
        undecided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_markov::{DtmcBuilder, StateSet};
    use rand::SeedableRng;

    fn biased_coin(p: f64) -> Dtmc {
        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 1, p)
            .add_transition(0, 2, 1.0 - p)
            .add_self_loop(1)
            .add_self_loop(2);
        b.build().unwrap()
    }

    #[test]
    fn estimates_simple_probability() {
        let chain = biased_coin(0.3);
        let prop = Property::bounded_reach(StateSet::from_states(3, [1]), 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let result = monte_carlo(&chain, &prop, &SmcConfig::new(20_000, 0.01), &mut rng);
        assert!(result.ci.contains(0.3), "{:?}", result.ci);
        assert_eq!(result.undecided, 0);
        assert_eq!(result.hits, (result.estimate * 20_000.0).round() as u64);
    }

    #[test]
    fn rare_event_needs_too_many_samples() {
        // γ = 1e-4 with N = 1000 traces: most runs observe zero hits, which
        // is precisely the rare-event problem of §III.
        let chain = biased_coin(1e-4);
        let prop = Property::bounded_reach(StateSet::from_states(3, [1]), 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let result = monte_carlo(&chain, &prop, &SmcConfig::new(1000, 0.05), &mut rng);
        assert!(result.hits <= 2, "unexpectedly many hits: {}", result.hits);
    }

    #[test]
    fn ci_is_clamped_to_unit_interval() {
        let chain = biased_coin(0.999);
        let prop = Property::bounded_reach(StateSet::from_states(3, [1]), 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let result = monte_carlo(&chain, &prop, &SmcConfig::new(100, 0.05), &mut rng);
        assert!(result.ci.hi() <= 1.0);
        assert!(result.ci.lo() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn zero_traces_rejected() {
        SmcConfig::new(0, 0.05);
    }
}
