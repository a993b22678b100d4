use imc_markov::{Dtmc, ModelError, State};

/// Balanced failure biasing: a structural importance-sampling heuristic for
/// reliability models (Lewis–Böhm style), used as a cheap baseline next to
/// the cross-entropy and zero-variance chains.
///
/// In every state that has at least one "failure" transition (as classified
/// by `is_failure`) *and* at least one other transition, the biased chain
/// assigns total probability `bias` to the failure transitions (split
/// proportionally to their original probabilities) and `1 − bias` to the
/// rest. States with only failure or only non-failure transitions keep
/// their original row.
///
/// The biased chain only reweights `chain`'s transitions, so it is built by
/// [`Dtmc::reweighted`]: one pass over the CSR slots fills its
/// probabilities, and it shares `chain`'s sparsity pattern and labels.
///
/// # Errors
///
/// Returns a [`ModelError`] if a biased row fails validation (defensive;
/// cannot occur for `bias ∈ (0, 1)` unless a probability underflows to
/// zero).
///
/// # Panics
///
/// Panics if `bias` is not strictly inside `(0, 1)`.
///
/// # Example
///
/// ```
/// use imc_markov::DtmcBuilder;
/// use imc_sampling::failure_bias;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Failures go "up" (to higher state indices).
/// let mut b = DtmcBuilder::new(3);
/// b.add_transition(0, 1, 0.001)
///     .add_transition(0, 2, 0.999)
///     .add_self_loop(1)
///     .add_self_loop(2);
/// let chain = b.build()?;
/// let biased = failure_bias(&chain, |from, to| to > from && to == 1, 0.5)?;
/// assert!((biased.prob(0, 1) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn failure_bias(
    chain: &Dtmc,
    mut is_failure: impl FnMut(State, State) -> bool,
    bias: f64,
) -> Result<Dtmc, ModelError> {
    assert!(
        bias > 0.0 && bias < 1.0,
        "bias must lie strictly inside (0, 1), got {bias}"
    );
    let offsets = chain.row_offsets();
    let targets = chain.transition_targets();
    let old = chain.transition_probs();
    let mut probs = Vec::with_capacity(old.len());
    for state in 0..chain.num_states() {
        let slots = offsets[state]..offsets[state + 1];
        let failure_mass: f64 = slots
            .clone()
            .filter(|&e| is_failure(state, targets[e] as State))
            .map(|e| old[e])
            .sum();
        let other_mass = 1.0 - failure_mass;
        // The tolerance matters: a row whose transitions are *all*
        // classified as failures can sum to 1 − O(1e-16) in floating
        // point, and rebalancing against that residual would scale the
        // whole row down to `bias`.
        if failure_mass <= 0.0 || other_mass <= 1e-12 {
            probs.extend_from_slice(&old[slots]); // nothing to rebalance
            continue;
        }
        probs.extend(slots.map(|e| {
            if is_failure(state, targets[e] as State) {
                bias * old[e] / failure_mass
            } else {
                (1.0 - bias) * old[e] / other_mass
            }
        }));
    }
    chain.reweighted(probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_estimate, sample_is_run, IsConfig};
    use imc_logic::Property;
    use imc_markov::{DtmcBuilder, StateSet};
    use rand::SeedableRng;

    /// Three-stage failure chain: each "fail" step has probability 1e-2.
    fn cascade() -> Dtmc {
        let mut b = DtmcBuilder::new(4);
        b.add_transition(0, 1, 1e-2)
            .add_transition(0, 3, 1.0 - 1e-2)
            .add_transition(1, 2, 1e-2)
            .add_transition(1, 3, 1.0 - 1e-2)
            .add_self_loop(2)
            .add_self_loop(3);
        b.build().unwrap()
    }

    fn is_fail(from: State, to: State) -> bool {
        (from == 0 && to == 1) || (from == 1 && to == 2)
    }

    #[test]
    fn biased_rows_give_failures_fixed_mass() {
        let biased = failure_bias(&cascade(), is_fail, 0.5).unwrap();
        assert!((biased.prob(0, 1) - 0.5).abs() < 1e-12);
        assert!((biased.prob(0, 3) - 0.5).abs() < 1e-12);
        assert!((biased.prob(1, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn untouched_rows_keep_distribution() {
        let biased = failure_bias(&cascade(), is_fail, 0.5).unwrap();
        assert_eq!(biased.prob(2, 2), 1.0);
        assert_eq!(biased.prob(3, 3), 1.0);
    }

    #[test]
    fn biased_estimator_recovers_gamma() {
        let chain = cascade();
        let gamma = 1e-4; // two independent 1e-2 failures
        let biased = failure_bias(&chain, is_fail, 0.5).unwrap();
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let run = sample_is_run(&biased, &prop, &IsConfig::new(20_000), &mut rng);
        assert!(run.n_success > 3000, "{}", run.n_success);
        let est = is_estimate(&chain, &biased, &run, 0.01);
        assert!(est.ci.contains(gamma), "CI {:?} misses {gamma}", est.ci);
    }

    #[test]
    #[should_panic(expected = "strictly inside")]
    fn rejects_degenerate_bias() {
        let _ = failure_bias(&cascade(), is_fail, 1.0);
    }
}
