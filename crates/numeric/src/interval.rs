use imc_markov::{Imc, StateSet};

use crate::solve::{MAX_ITERATIONS, TOLERANCE};
use crate::SolveError;

/// Which extremum of an interval optimisation to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Extremum {
    /// Minimise over the member chains.
    Min,
    /// Maximise over the member chains.
    Max,
}

/// Extremal expected value of one interval row against a value vector:
/// optimise `Σ_t a_t x_t` over `lo ≤ a ≤ hi, Σ a = 1` by greedy mass
/// assignment in value order (the standard IMC row optimisation).
///
/// Operates on the IMC's raw CSR row slices (`targets`/`lo`/`hi` aligned).
fn extremal_row_value(
    targets: &[u32],
    lo: &[f64],
    hi: &[f64],
    x: &[f64],
    extremum: Extremum,
) -> f64 {
    let mut order: Vec<usize> = (0..targets.len()).collect();
    match extremum {
        Extremum::Min => {
            order.sort_by(|&i, &j| x[targets[i] as usize].total_cmp(&x[targets[j] as usize]))
        }
        Extremum::Max => {
            order.sort_by(|&i, &j| x[targets[j] as usize].total_cmp(&x[targets[i] as usize]))
        }
    }
    let lo_sum: f64 = lo.iter().sum();
    let mut remaining = (1.0f64 - lo_sum).max(0.0);
    let mut value = 0.0;
    for &i in &order {
        let extra = remaining.min(hi[i] - lo[i]);
        value += (lo[i] + extra) * x[targets[i] as usize];
        remaining -= extra;
    }
    value
}

/// Minimal and maximal unbounded reach-avoid probabilities over all member
/// chains of the IMC: for every state, `inf_{A ∈ [Â]} P_s(¬avoid U target)`
/// and the corresponding `sup`.
///
/// Computed by interval value iteration from below (least fixed point), so
/// both bounds are the exact extremal reachability values of the interval
/// model. These bracket the `γ(A)` of every member and serve as the
/// ground-truth envelope when validating IMCIS confidence intervals.
///
/// # Errors
///
/// Returns [`SolveError::NotConverged`] if either iteration fails to reach
/// the tolerance within the cap.
pub fn imc_reach_bounds(
    imc: &Imc,
    target: &StateSet,
    avoid: &StateSet,
) -> Result<(Vec<f64>, Vec<f64>), SolveError> {
    let min = iterate_unbounded(imc, target, avoid, Extremum::Min)?;
    let max = iterate_unbounded(imc, target, avoid, Extremum::Max)?;
    Ok((min, max))
}

fn iterate_unbounded(
    imc: &Imc,
    target: &StateSet,
    avoid: &StateSet,
    extremum: Extremum,
) -> Result<Vec<f64>, SolveError> {
    let n = imc.num_states();
    let (ptr, idx, lo, hi) = (
        imc.row_offsets(),
        imc.transition_targets(),
        imc.bounds_lo(),
        imc.bounds_hi(),
    );
    let mut x = vec![0.0f64; n];
    for s in target.iter() {
        x[s] = 1.0;
    }
    let mut residual = f64::INFINITY;
    for _ in 0..MAX_ITERATIONS {
        residual = 0.0;
        for s in 0..n {
            if target.contains(s) || avoid.contains(s) {
                continue;
            }
            let r = ptr[s]..ptr[s + 1];
            let v = extremal_row_value(&idx[r.clone()], &lo[r.clone()], &hi[r], &x, extremum);
            let delta = (v - x[s]).abs();
            if delta > residual {
                residual = delta;
            }
            x[s] = v;
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

/// Minimal and maximal *step-bounded* reach-avoid probabilities over all
/// member chains: `(inf, sup)` of `P_s(¬avoid U≤k target)`.
pub fn imc_bounded_reach_bounds(
    imc: &Imc,
    target: &StateSet,
    avoid: &StateSet,
    bound: usize,
) -> (Vec<f64>, Vec<f64>) {
    let min = iterate_bounded(imc, target, avoid, Extremum::Min, bound);
    let max = iterate_bounded(imc, target, avoid, Extremum::Max, bound);
    (min, max)
}

fn iterate_bounded(
    imc: &Imc,
    target: &StateSet,
    avoid: &StateSet,
    extremum: Extremum,
    bound: usize,
) -> Vec<f64> {
    let n = imc.num_states();
    let (ptr, idx, lo, hi) = (
        imc.row_offsets(),
        imc.transition_targets(),
        imc.bounds_lo(),
        imc.bounds_hi(),
    );
    let mut x = vec![0.0f64; n];
    for s in target.iter() {
        x[s] = 1.0;
    }
    let mut next = x.clone();
    for _ in 0..bound {
        #[allow(clippy::needless_range_loop)] // indexing two vectors in lockstep
        for s in 0..n {
            next[s] = if target.contains(s) {
                1.0
            } else if avoid.contains(s) {
                0.0
            } else {
                let r = ptr[s]..ptr[s + 1];
                extremal_row_value(&idx[r.clone()], &lo[r.clone()], &hi[r], &x, extremum)
            };
        }
        std::mem::swap(&mut x, &mut next);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach_avoid_probs;
    use imc_markov::{Dtmc, DtmcBuilder, Imc};

    fn coin(p: f64) -> Dtmc {
        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 1, p)
            .add_transition(0, 2, 1.0 - p)
            .add_self_loop(1)
            .add_self_loop(2);
        b.build().unwrap()
    }

    #[test]
    fn degenerate_imc_matches_point_chain() {
        let chain = coin(0.3);
        let imc = Imc::from_center(&chain, |_, _| 0.0).unwrap();
        let target = StateSet::from_states(3, [1]);
        let avoid = StateSet::new(3);
        let (min, max) = imc_reach_bounds(&imc, &target, &avoid).unwrap();
        assert!((min[0] - 0.3).abs() < 1e-12);
        assert!((max[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn one_step_bounds_are_the_interval_ends() {
        let chain = coin(0.3);
        let imc = Imc::from_center(&chain, |_, _| 0.05).unwrap();
        let target = StateSet::from_states(3, [1]);
        let avoid = StateSet::new(3);
        let (min, max) = imc_reach_bounds(&imc, &target, &avoid).unwrap();
        assert!((min[0] - 0.25).abs() < 1e-12, "{}", min[0]);
        assert!((max[0] - 0.35).abs() < 1e-12, "{}", max[0]);
    }

    #[test]
    fn bounds_bracket_every_member() {
        // Multi-step chain with a loop: check several member chains.
        let mut cb = DtmcBuilder::new(4);
        cb.add_transition(0, 1, 0.5)
            .add_transition(0, 3, 0.5)
            .add_transition(1, 0, 0.4)
            .add_transition(1, 2, 0.6)
            .add_self_loop(2)
            .add_self_loop(3);
        let center = cb.build().unwrap();
        let imc = Imc::from_center(&center, |_, _| 0.08).unwrap();
        let target = StateSet::from_states(4, [2]);
        let avoid = StateSet::new(4);
        let (min, max) = imc_reach_bounds(&imc, &target, &avoid).unwrap();

        for &(d0, d1) in &[(-0.08, -0.08), (0.0, 0.0), (0.08, 0.08), (-0.08, 0.08)] {
            let mut mb = DtmcBuilder::new(4);
            mb.add_transition(0, 1, 0.5 + d0)
                .add_transition(0, 3, 0.5 - d0)
                .add_transition(1, 0, 0.4 + d1)
                .add_transition(1, 2, 0.6 - d1)
                .add_self_loop(2)
                .add_self_loop(3);
            let member = mb.build().unwrap();
            assert!(imc.contains(&member));
            let p = reach_avoid_probs(&member, &target, &avoid).unwrap()[0];
            assert!(
                min[0] - 1e-12 <= p && p <= max[0] + 1e-12,
                "member prob {p} outside [{}, {}]",
                min[0],
                max[0]
            );
        }
    }

    #[test]
    fn bounded_bounds_are_monotone_in_k_and_nested() {
        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 0, 0.6)
            .add_transition(0, 1, 0.3)
            .add_transition(0, 2, 0.1)
            .add_self_loop(1)
            .add_self_loop(2);
        let chain = b.build().unwrap();
        let imc = Imc::from_center(&chain, |_, _| 0.05).unwrap();
        let target = StateSet::from_states(3, [1]);
        let avoid = StateSet::new(3);
        let mut prev_min = 0.0;
        let mut prev_max = 0.0;
        for k in 1..15 {
            let (min, max) = imc_bounded_reach_bounds(&imc, &target, &avoid, k);
            assert!(min[0] <= max[0] + 1e-12);
            assert!(min[0] >= prev_min - 1e-12, "min not monotone at k={k}");
            assert!(max[0] >= prev_max - 1e-12, "max not monotone at k={k}");
            prev_min = min[0];
            prev_max = max[0];
        }
    }

    #[test]
    fn avoid_states_are_pinned_to_zero() {
        let chain = coin(0.5);
        let imc = Imc::from_center(&chain, |_, _| 0.1).unwrap();
        let target = StateSet::from_states(3, [1]);
        let avoid = StateSet::from_states(3, [0]);
        let (min, max) = imc_reach_bounds(&imc, &target, &avoid).unwrap();
        assert_eq!(min[0], 0.0);
        assert_eq!(max[0], 0.0);
        assert_eq!(max[1], 1.0);
    }
}
