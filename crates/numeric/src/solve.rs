use std::fmt;

use imc_markov::{graph, Dtmc, StateSet};

/// Convergence threshold of the iterative solvers on the maximum
/// per-state update (relative to the largest value for hitting times).
pub(crate) const TOLERANCE: f64 = 1e-14;
/// Sweeps an iterative solver makes before reporting
/// [`SolveError::NotConverged`].
pub(crate) const MAX_ITERATIONS: usize = 2_000_000;

/// Errors raised by the numerical solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The iteration did not reach the tolerance within the cap.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "solver did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// Unbounded reach-avoid probabilities: for every state `s`, the probability
/// `x_s = P_s(¬avoid U target)`.
///
/// Target states have probability 1 (target wins ties with avoid, matching
/// the monitor semantics in `imc-logic`), avoid states 0. States that cannot
/// reach the target while avoiding `avoid` are fixed at 0 by a qualitative
/// graph precomputation; the remaining states are solved by Gauss–Seidel
/// iteration from below, which converges monotonically to the least fixed
/// point of `x = A x` — i.e. the true reachability probabilities.
///
/// # Errors
///
/// Returns [`SolveError::NotConverged`] if the tolerance is not met within
/// the iteration cap.
pub fn reach_avoid_probs(
    chain: &Dtmc,
    target: &StateSet,
    avoid: &StateSet,
) -> Result<Vec<f64>, SolveError> {
    let n = chain.num_states();
    let maybe = graph::backward_reachable_avoiding(chain, target, avoid);

    let mut x = vec![0.0f64; n];
    for s in target.iter() {
        x[s] = 1.0;
    }
    // Unknown states: in `maybe`, not target, not avoid.
    let unknown: Vec<usize> = (0..n)
        .filter(|&s| maybe.contains(s) && !target.contains(s) && !avoid.contains(s))
        .collect();
    if unknown.is_empty() {
        return Ok(x);
    }

    // Gauss–Seidel over the raw CSR arrays: the inner loop reads two offset
    // bounds and walks two contiguous slices per state.
    let (ptr, idx, probs) = (
        chain.row_offsets(),
        chain.transition_targets(),
        chain.transition_probs(),
    );
    let mut residual = f64::INFINITY;
    for _ in 0..MAX_ITERATIONS {
        residual = 0.0;
        for &s in &unknown {
            let mut acc = 0.0;
            let (start, end) = (ptr[s], ptr[s + 1]);
            for (&t, &p) in idx[start..end].iter().zip(&probs[start..end]) {
                acc += p * x[t as usize];
            }
            let delta = (acc - x[s]).abs();
            if delta > residual {
                residual = delta;
            }
            x[s] = acc;
        }
        if residual <= TOLERANCE {
            return Ok(x);
        }
    }
    Err(SolveError::NotConverged {
        iterations: MAX_ITERATIONS,
        residual,
    })
}

/// The repair-benchmark query `P=?[init ∧ X(¬init U target)]`: starting from
/// the chain's initial state, the probability of reaching a target state
/// before *returning* to the initial state.
///
/// Computed as `Σ_t P(s0, t) · x_t` where `x` solves the reach-avoid system
/// with `avoid = {s0}`.
///
/// # Errors
///
/// Propagates [`SolveError::NotConverged`] from the linear solve.
pub fn reach_before_return(chain: &Dtmc, target: &StateSet) -> Result<f64, SolveError> {
    let init = chain.initial();
    let mut avoid = StateSet::new(chain.num_states());
    avoid.insert(init);
    let x = reach_avoid_probs(chain, target, &avoid)?;
    let row = chain
        .row(init)
        .expect("initial state is validated in range");
    Ok(row.iter().map(|e| e.prob * x[e.target]).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_markov::DtmcBuilder;

    /// The paper's illustrative chain with closed-form γ = ac/(1−ad).
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
    fn matches_closed_form_gamma() {
        let (a, c) = (1e-4, 0.05);
        let d = 1.0 - c;
        let chain = illustrative(a, c);
        let probs =
            reach_avoid_probs(&chain, &StateSet::from_states(4, [2]), &StateSet::new(4)).unwrap();
        let expected = a * c / (1.0 - a * d);
        assert!(
            (probs[0] - expected).abs() < 1e-15,
            "{} vs {expected}",
            probs[0]
        );
        // From s1: x1 = c + (1−c)·γ.
        assert!((probs[1] - (c + d * expected)).abs() < 1e-15);
        assert_eq!(probs[2], 1.0);
        assert_eq!(probs[3], 0.0);
    }

    #[test]
    fn paper_margin_of_error_values() {
        // §III-B: a=1e-4, c=0.05 gives γ ≈ 5.005e-6 (really 5.0005e-6);
        // â=3e-4, ĉ=0.0498 gives γ(Â) = 1.4944e-5.
        let chain = illustrative(1e-4, 0.05);
        let gamma = reach_avoid_probs(&chain, &StateSet::from_states(4, [2]), &StateSet::new(4))
            .unwrap()[0];
        assert!((gamma - 5.0005e-6).abs() < 1e-9);

        let learnt = illustrative(3e-4, 0.0498);
        let gamma_hat =
            reach_avoid_probs(&learnt, &StateSet::from_states(4, [2]), &StateSet::new(4)).unwrap()
                [0];
        assert!((gamma_hat - 1.4944e-5).abs() < 5e-9, "{gamma_hat}");
    }

    #[test]
    fn avoid_states_are_zero_and_block_paths() {
        let chain = illustrative(0.3, 0.4);
        // Avoid s1: the only route to s2 is blocked.
        let probs = reach_avoid_probs(
            &chain,
            &StateSet::from_states(4, [2]),
            &StateSet::from_states(4, [1]),
        )
        .unwrap();
        assert_eq!(probs[0], 0.0);
        assert_eq!(probs[1], 0.0);
        assert_eq!(probs[2], 1.0);
    }

    #[test]
    fn target_wins_tie_with_avoid() {
        let chain = illustrative(0.3, 0.4);
        let both = StateSet::from_states(4, [2]);
        let probs = reach_avoid_probs(&chain, &both, &both).unwrap();
        assert_eq!(probs[2], 1.0);
    }

    #[test]
    fn reach_before_return_closed_form() {
        // From s0 avoiding s0: x1 = c (the d-loop back to s0 is forbidden),
        // so the answer is a·c.
        let (a, c) = (0.2, 0.3);
        let chain = illustrative(a, c);
        let p = reach_before_return(&chain, &StateSet::from_states(4, [2])).unwrap();
        assert!((p - a * c).abs() < 1e-14, "{p}");
    }

    #[test]
    fn tight_cap_reports_non_convergence() {
        // Each sweep shrinks the update by 1 − 10⁻⁶ only: after the
        // 2·10⁶-sweep cap it is still about 7·10⁻⁸, far above 10⁻¹⁴.
        let mut b = DtmcBuilder::new(3);
        b.set_initial(0)
            .add_transition(0, 0, 0.999_999)
            .add_transition(0, 1, 0.000_000_5)
            .add_transition(0, 2, 0.000_000_5)
            .add_self_loop(1)
            .add_self_loop(2);
        let chain = b.build().unwrap();
        let result = reach_avoid_probs(&chain, &StateSet::from_states(3, [1]), &StateSet::new(3));
        assert!(matches!(
            result,
            Err(SolveError::NotConverged {
                iterations: MAX_ITERATIONS,
                ..
            })
        ));
    }

    #[test]
    fn larger_birth_death_chain() {
        // Gambler's ruin with p=0.4 on 0..=10, start at 5:
        // P(hit 10 before 0) = (1−(q/p)^5)/(1−(q/p)^10), q/p = 1.5.
        let n = 11;
        let p = 0.4;
        let mut builder = DtmcBuilder::new(n);
        builder.set_initial(5);
        for s in 1..n - 1 {
            builder
                .add_transition(s, s + 1, p)
                .add_transition(s, s - 1, 1.0 - p);
        }
        builder.add_self_loop(0).add_self_loop(n - 1);
        let chain = builder.build().unwrap();
        let probs = reach_avoid_probs(
            &chain,
            &StateSet::from_states(n, [n - 1]),
            &StateSet::new(n),
        )
        .unwrap();
        let r: f64 = 1.5;
        let expected = (1.0 - r.powi(5)) / (1.0 - r.powi(10));
        assert!((probs[5] - expected).abs() < 1e-10, "{}", probs[5]);
    }
}
