use imc_markov::{Dtmc, ModelError, RowEntry, StateSet};
use imc_numeric::{reach_avoid_probs, SolveError};

/// Errors from zero-variance construction: either the underlying solve
/// failed or the produced chain was invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum ZeroVarianceError {
    /// The reachability solve did not converge.
    Solve(SolveError),
    /// The initial state cannot reach the target at all — no change of
    /// measure can make an impossible event likely.
    UnreachableTarget,
    /// The biased chain failed validation (defensive; unreachable for a
    /// valid input chain).
    Model(ModelError),
}

impl std::fmt::Display for ZeroVarianceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZeroVarianceError::Solve(e) => write!(f, "reachability solve failed: {e}"),
            ZeroVarianceError::UnreachableTarget => {
                write!(f, "target unreachable from the initial state")
            }
            ZeroVarianceError::Model(e) => write!(f, "biased chain invalid: {e}"),
        }
    }
}

impl std::error::Error for ZeroVarianceError {}

impl From<SolveError> for ZeroVarianceError {
    fn from(e: SolveError) -> Self {
        ZeroVarianceError::Solve(e)
    }
}

impl From<ModelError> for ZeroVarianceError {
    fn from(e: ModelError) -> Self {
        ZeroVarianceError::Model(e)
    }
}

/// Builds the zero-variance (perfect) importance sampling chain for the
/// reach-avoid probability of `chain`:
/// `b_ij = a_ij · x_j / Σ_k a_ik · x_k`, where `x` is the vector of
/// reach-avoid probabilities (Fig. 1c/1d of the paper).
///
/// Under this measure every sampled trace satisfies the property and
/// carries likelihood ratio exactly `γ`, so the IS estimator has zero
/// variance. Rows whose biased denominator is zero (states that cannot
/// reach the target) keep their original distribution — they are never
/// visited by successful traces.
///
/// For *bounded* properties the static chain returned here is the standard
/// unbounded-reachability approximation: no longer zero-variance, still an
/// excellent IS distribution when the bound is not tight.
///
/// # Errors
///
/// * [`ZeroVarianceError::UnreachableTarget`] if `γ = 0` from the initial
///   state;
/// * [`ZeroVarianceError::Solve`] if the linear solve fails.
pub fn zero_variance_is(
    chain: &Dtmc,
    target: &StateSet,
    avoid: &StateSet,
) -> Result<Dtmc, ZeroVarianceError> {
    let x = reach_avoid_probs(chain, target, avoid)?;
    let init_row = chain
        .row(chain.initial())
        .expect("initial state is validated in range");
    let init_value: f64 = init_row.iter().map(|e| e.prob * x[e.target]).sum();
    if init_value <= 0.0 && !target.contains(chain.initial()) {
        return Err(ZeroVarianceError::UnreachableTarget);
    }

    let mut replacements: Vec<(usize, Vec<RowEntry>)> = Vec::new();
    for (state, row) in chain.rows().enumerate() {
        // Avoid rows are never left by an accepted trace, so they keep the
        // original measure — except the *initial* state, which may be in the
        // avoid set for reach-before-return properties and must be biased.
        if target.contains(state) || (avoid.contains(state) && state != chain.initial()) {
            continue;
        }
        let denom: f64 = row.iter().map(|e| e.prob * x[e.target]).sum();
        if denom <= 0.0 {
            continue; // unreachable-from-here row: keep original measure
        }
        let mut entries: Vec<RowEntry> = row
            .iter()
            .filter(|e| x[e.target] > 0.0)
            .map(|e| RowEntry {
                target: e.target,
                prob: e.prob * x[e.target] / denom,
            })
            .collect();
        // Rounding guard: force exact stochasticity by adjusting the
        // largest entry.
        let sum: f64 = entries.iter().map(|e| e.prob).sum();
        if let Some(largest) = entries.iter_mut().max_by(|a, b| a.prob.total_cmp(&b.prob)) {
            largest.prob += 1.0 - sum;
        }
        replacements.push((state, entries));
    }
    chain
        .with_rows(replacements)
        .map_err(ZeroVarianceError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_estimate, sample_is_run, IsConfig};
    use imc_logic::Property;
    use imc_markov::DtmcBuilder;
    use rand::SeedableRng;

    /// The paper's illustrative chain (Fig. 1a).
    fn illustrative(a: f64, c: f64) -> Dtmc {
        let mut b = DtmcBuilder::new(4);
        b.set_initial(0)
            .add_transition(0, 1, a)
            .add_transition(0, 3, 1.0 - a)
            .add_transition(1, 2, c)
            .add_transition(1, 0, 1.0 - c)
            .add_self_loop(2)
            .add_self_loop(3);
        b.build().unwrap()
    }

    #[test]
    fn matches_figure_1c() {
        // Fig. 1c: b(0→1) = 1, b(1→2) = 1−ad, b(1→0) = ad with d = 1−c.
        let (a, c) = (1e-4, 0.05);
        let d = 1.0 - c;
        let chain = illustrative(a, c);
        let target = StateSet::from_states(4, [2]);
        let b = zero_variance_is(&chain, &target, &StateSet::new(4)).unwrap();
        assert!((b.prob(0, 1) - 1.0).abs() < 1e-12);
        assert_eq!(b.prob(0, 3), 0.0);
        assert!((b.prob(1, 2) - (1.0 - a * d)).abs() < 1e-12);
        assert!((b.prob(1, 0) - a * d).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_estimator_is_a_point() {
        let (a, c) = (1e-4, 0.05);
        let chain = illustrative(a, c);
        let target = StateSet::from_states(4, [2]);
        let prop = Property::reach_avoid(target.clone(), StateSet::from_states(4, [3]));
        let b = zero_variance_is(&chain, &target, &StateSet::new(4)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let run = sample_is_run(&b, &prop, &IsConfig::new(2000), &mut rng);
        assert_eq!(run.n_success, 2000); // every trace succeeds
        let est = is_estimate(&chain, &b, &run, 0.05);
        let gamma = a * c / (1.0 - a * (1.0 - c));
        assert!(
            (est.gamma_hat - gamma).abs() < 1e-18,
            "{} vs {gamma}",
            est.gamma_hat
        );
        assert!(est.sigma_hat < 1e-18);
        assert_eq!(est.ci.width(), 0.0);
    }

    #[test]
    fn unreachable_target_is_an_error() {
        let chain = illustrative(0.5, 0.5);
        // Target state 2 but avoid state 1 blocks the only route.
        let err = zero_variance_is(
            &chain,
            &StateSet::from_states(4, [2]),
            &StateSet::from_states(4, [1]),
        )
        .unwrap_err();
        assert_eq!(err, ZeroVarianceError::UnreachableTarget);
    }

    #[test]
    fn avoid_rows_keep_original_measure() {
        let chain = illustrative(0.3, 0.4);
        let target = StateSet::from_states(4, [2]);
        let avoid = StateSet::from_states(4, [3]);
        let b = zero_variance_is(&chain, &target, &avoid).unwrap();
        // s3 is in avoid: untouched self-loop.
        assert_eq!(b.prob(3, 3), 1.0);
    }

    #[test]
    fn reach_before_return_biasing() {
        // For the repair-style property the avoid set is {init}; the ZV
        // chain must still bias the init row (its value is γ > 0).
        let chain = illustrative(0.3, 0.4);
        let target = StateSet::from_states(4, [2]);
        let mut avoid = StateSet::new(4);
        avoid.insert(chain.initial());
        // x[1] = c = 0.4 (looping back to init is failure).
        let b = zero_variance_is(&chain, &target, &avoid).unwrap();
        assert!((b.prob(0, 1) - 1.0).abs() < 1e-12, "init row biased");
        // From s1, returning to 0 has x=0: the ZV chain drops it.
        assert_eq!(b.prob(1, 0), 0.0);
        assert!((b.prob(1, 2) - 1.0).abs() < 1e-12);
    }
}
