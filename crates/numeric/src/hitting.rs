//! Expected hitting times.
//!
//! The paper's introduction motivates dependability analysis through
//! reachability *and mean time to failure* properties; this module
//! provides the second on the jump chain: [`expected_steps_to`], the mean
//! number of transitions to reach a target set (the discrete MTTF when
//! each jump is a repair/failure event).

use imc_markov::{graph, Dtmc, StateSet};

use crate::solve::{MAX_ITERATIONS, TOLERANCE};
use crate::SolveError;

/// Expected number of transitions to reach `target` from every state
/// (`f64::INFINITY` where the target is not reached almost surely).
///
/// Solves `h_s = 1 + Σ_t P(s, t)·h_t` on the states that reach `target`
/// with probability 1, by Gauss–Seidel from below. States in `target` have
/// hitting time 0.
///
/// # Errors
///
/// Returns [`SolveError::NotConverged`] if the iteration fails to settle.
///
/// # Example
///
/// ```
/// use imc_markov::{DtmcBuilder, StateSet};
/// use imc_numeric::expected_steps_to;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Geometric with p = 0.25: mean 4 steps to absorb.
/// let mut b = DtmcBuilder::new(2);
/// b.add_transition(0, 0, 0.75)
///     .add_transition(0, 1, 0.25)
///     .add_self_loop(1);
/// let chain = b.build()?;
/// let h = expected_steps_to(&chain, &StateSet::from_states(2, [1]))?;
/// assert!((h[0] - 4.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn expected_steps_to(chain: &Dtmc, target: &StateSet) -> Result<Vec<f64>, SolveError> {
    let n = chain.num_states();
    let almost_sure = graph::almost_sure_reach(chain, target);
    let mut h = vec![f64::INFINITY; n];
    for s in target.iter() {
        h[s] = 0.0;
    }
    let unknown: Vec<usize> = (0..n)
        .filter(|&s| almost_sure.contains(s) && !target.contains(s))
        .collect();
    for &s in &unknown {
        h[s] = 0.0; // iterate from below
    }
    if unknown.is_empty() {
        return Ok(h);
    }
    let (ptr, idx, probs) = (
        chain.row_offsets(),
        chain.transition_targets(),
        chain.transition_probs(),
    );
    let mut residual = f64::INFINITY;
    for _ in 0..MAX_ITERATIONS {
        residual = 0.0;
        for &s in &unknown {
            let mut acc = 1.0;
            let (start, end) = (ptr[s], ptr[s + 1]);
            for (&t, &p) in idx[start..end].iter().zip(&probs[start..end]) {
                // Successors outside the almost-sure set have h = inf but
                // are unreachable conditioned on hitting: they cannot occur
                // for a state with reach probability 1.
                let ht = h[t as usize];
                acc += p * if ht.is_finite() { ht } else { 0.0 };
            }
            let delta = (acc - h[s]).abs();
            if delta > residual {
                residual = delta;
            }
            h[s] = acc;
        }
        // Hitting times can be large; use a relative residual criterion.
        let scale = unknown.iter().map(|&s| h[s]).fold(1.0f64, f64::max);
        if residual <= TOLERANCE * scale {
            return Ok(h);
        }
    }
    Err(SolveError::NotConverged {
        iterations: MAX_ITERATIONS,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_markov::DtmcBuilder;

    #[test]
    fn geometric_hitting_time() {
        for &p in &[0.5, 0.1, 0.01] {
            let mut b = DtmcBuilder::new(2);
            b.add_transition(0, 0, 1.0 - p)
                .add_transition(0, 1, p)
                .add_self_loop(1);
            let chain = b.build().unwrap();
            let h = expected_steps_to(&chain, &StateSet::from_states(2, [1])).unwrap();
            assert!(
                (h[0] - 1.0 / p).abs() / (1.0 / p) < 1e-9,
                "p = {p}: {}",
                h[0]
            );
            assert_eq!(h[1], 0.0);
        }
    }

    #[test]
    fn unreachable_target_has_infinite_hitting_time() {
        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 1, 0.5)
            .add_transition(0, 2, 0.5)
            .add_self_loop(1)
            .add_self_loop(2);
        let chain = b.build().unwrap();
        let h = expected_steps_to(&chain, &StateSet::from_states(3, [2])).unwrap();
        // From 0 the sink 1 may absorb first: not almost-sure, so infinite.
        assert!(h[0].is_infinite());
        assert!(h[1].is_infinite());
        assert_eq!(h[2], 0.0);
    }

    #[test]
    fn random_walk_hitting_time_closed_form() {
        // Symmetric walk on 0..=4 with absorbing ends: E[T | start k] is
        // k(4-k) for hitting {0, 4}.
        let n = 5;
        let mut builder = DtmcBuilder::new(n);
        for s in 1..n - 1 {
            builder
                .add_transition(s, s - 1, 0.5)
                .add_transition(s, s + 1, 0.5);
        }
        builder.add_self_loop(0).add_self_loop(n - 1);
        let chain = builder.build().unwrap();
        let h = expected_steps_to(&chain, &StateSet::from_states(n, [0, n - 1])).unwrap();
        for (k, &hk) in h.iter().enumerate().take(n - 1).skip(1) {
            let expected = (k * (n - 1 - k)) as f64;
            assert!((hk - expected).abs() < 1e-8, "k={k}: {hk} vs {expected}");
        }
    }
}
