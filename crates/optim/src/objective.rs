use imc_markov::{Dtmc, State};
use imc_sampling::{IsRun, PreparedRun};

/// The empirical IS objective `f(A)` (and its second moment `g(A)`) of
/// Algorithm 1, compiled for fast repeated evaluation.
///
/// This is a thin optimiser-facing wrapper over
/// [`imc_sampling::PreparedRun`], which owns all the hot-path machinery:
/// dense transition ids, CSR `(id, n)` entry slices per deduplicated
/// table, the baked-in `ln b_ij` values and the cached per-table constant
/// `Σ n_ij ln b_ij`. Evaluating a candidate needs only its `ln a_ij`
/// values (indexed by transition id):
///
/// ```text
/// f(A) = Σ_tables mult · exp( Σ_t n_t ln a_t − Σ_t n_t ln b_t )
/// g(A) = Σ_tables mult · exp( 2 Σ_t n_t (ln a_t − ln b_t) )
/// ```
///
/// [`Objective::eval`] evaluates one candidate. The search itself goes
/// through [`PreparedRun::eval_lanes`], which evaluates a block of
/// candidates under the min and max templates in one pass, with results
/// bit-identical to calling [`Objective::eval`] per candidate and template.
#[derive(Debug, Clone)]
pub struct Objective {
    prepared: PreparedRun,
}

impl Objective {
    /// Compiles the objective from a sampled IS run and the IS chain `b`.
    ///
    /// # Panics
    ///
    /// Panics if a table references a transition with `b_ij = 0` — such a
    /// trace could not have been sampled under `b`, so this indicates the
    /// run and chain are mismatched.
    pub fn new(run: &IsRun, b: &Dtmc) -> Self {
        Objective {
            prepared: PreparedRun::new(run, b),
        }
    }

    /// The compiled run behind this objective.
    pub fn prepared(&self) -> &PreparedRun {
        &self.prepared
    }

    /// The indexed transitions, id order.
    pub fn transitions(&self) -> &[(State, State)] {
        self.prepared.transitions()
    }

    /// Number of distinct observed transitions.
    pub fn num_transitions(&self) -> usize {
        self.prepared.num_transitions()
    }

    /// Number of deduplicated tables.
    pub fn num_tables(&self) -> usize {
        self.prepared.num_tables()
    }

    /// Total trace count `N` behind the run.
    pub fn n_traces(&self) -> usize {
        self.prepared.n_traces()
    }

    /// Evaluates `(f(A), g(A))` for candidate log-probabilities `ln a_ij`
    /// (one per transition id, aligned with [`Objective::transitions`]).
    ///
    /// # Panics
    ///
    /// Panics (debug only) if `log_a` has the wrong length.
    pub fn eval(&self, log_a: &[f64]) -> (f64, f64) {
        self.prepared.eval_log(log_a)
    }

    /// Convenience: evaluates against a concrete chain.
    ///
    /// # Panics
    ///
    /// Panics if the chain assigns probability 0 to an observed transition.
    pub fn eval_chain(&self, a: &Dtmc) -> (f64, f64) {
        let log_a: Vec<f64> = self
            .transitions()
            .iter()
            .map(|&(from, to)| {
                let p = a.prob(from, to);
                assert!(p > 0.0, "candidate has zero probability on {from}->{to}");
                p.ln()
            })
            .collect();
        self.eval(&log_a)
    }

    /// The estimator pair `(γ̂, σ̂)` at the given objective values:
    /// `γ̂ = f/N`, `σ̂ = √(g/N − γ̂²)` (Algorithm 1, lines 20–23).
    pub fn estimate(&self, f: f64, g: f64) -> (f64, f64) {
        self.prepared.moments(f, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_logic::Property;
    use imc_markov::{DtmcBuilder, StateSet};
    use imc_sampling::{is_estimate, sample_is_run, IsConfig};
    use rand::SeedableRng;

    fn chains() -> (Dtmc, Dtmc) {
        let mut ab = DtmcBuilder::new(4);
        ab.add_transition(0, 1, 0.01)
            .add_transition(0, 3, 0.99)
            .add_transition(1, 2, 0.3)
            .add_transition(1, 0, 0.7)
            .add_self_loop(2)
            .add_self_loop(3);
        let a = ab.build().unwrap();
        let mut bb = DtmcBuilder::new(4);
        bb.add_transition(0, 1, 0.5)
            .add_transition(0, 3, 0.5)
            .add_transition(1, 2, 0.6)
            .add_transition(1, 0, 0.4)
            .add_self_loop(2)
            .add_self_loop(3);
        let b = bb.build().unwrap();
        (a, b)
    }

    fn run_for(b: &Dtmc) -> IsRun {
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        sample_is_run(b, &prop, &IsConfig::new(5000), &mut rng)
    }

    #[test]
    fn objective_matches_is_estimate() {
        let (a, b) = chains();
        let run = run_for(&b);
        let objective = Objective::new(&run, &b);
        let (f, g) = objective.eval_chain(&a);
        let (gamma, sigma) = objective.estimate(f, g);
        let reference = is_estimate(&a, &b, &run, 0.05);
        assert!((gamma - reference.gamma_hat).abs() < 1e-15);
        assert!((sigma - reference.sigma_hat).abs() < 1e-15);
    }

    #[test]
    fn evaluating_b_gives_success_rate() {
        // With A = B every likelihood ratio is 1: f = #successes.
        let (_, b) = chains();
        let run = run_for(&b);
        let objective = Objective::new(&run, &b);
        let (f, g) = objective.eval_chain(&b);
        assert!((f - run.n_success as f64).abs() < 1e-9);
        assert!((g - run.n_success as f64).abs() < 1e-9);
    }

    #[test]
    fn monotone_in_observed_transition() {
        // Raising a_01 (used by every successful trace) raises f.
        let (a, b) = chains();
        let run = run_for(&b);
        let objective = Objective::new(&run, &b);
        let ids = objective.transitions().to_vec();
        let base: Vec<f64> = ids.iter().map(|&(f_, t)| a.prob(f_, t).ln()).collect();
        let (f0, _) = objective.eval(&base);
        let mut boosted = base.clone();
        let idx = ids.iter().position(|&t| t == (0, 1)).unwrap();
        boosted[idx] = (a.prob(0, 1) * 2.0).ln();
        let (f1, _) = objective.eval(&boosted);
        assert!(f1 > f0);
    }

    #[test]
    fn empty_run_evaluates_to_zero() {
        let (_, b) = chains();
        let empty = IsRun {
            tables: vec![],
            n_traces: 100,
            n_success: 0,
            n_undecided: 0,
            b_pattern: b.pattern_fingerprint(),
        };
        let objective = Objective::new(&empty, &b);
        let (f, g) = objective.eval(&[]);
        assert_eq!((f, g), (0.0, 0.0));
        assert_eq!(objective.estimate(f, g), (0.0, 0.0));
    }
}
