//! A parametric repair *fleet* sized for the sparse million-state kernel.
//!
//! `components` identical machine groups each degrade through
//! `levels` wear levels (`0` = fresh, `levels − 1` = failed). The state is
//! the mixed-radix number of the per-group levels, so the chain has
//! `levels^components` states — `10^6` at the default `(6, 10)` — with at
//! most `components + 1` transitions per state. Rows are generated in
//! ascending `(from, to)` order and pushed straight through
//! [`DtmcStreamBuilder`], exercising exactly the streaming CSR path the
//! `file` scenario loader uses, without a model file on disk.
//!
//! Dynamics (embedded jump chain of a CTMC):
//!
//! * group `i` at level `d_i < levels − 1` degrades one level with weight
//!   `α · (d_i + 1)` — wear begets wear, so degradation cascades;
//! * a single repair crew services the most-degraded group (lowest index
//!   on ties) with weight `β`.
//!
//! Labels: `init` marks the all-fresh state `0`; `failure` marks every
//! state with some group at `levels − 1`. The property of interest is the
//! classic regenerative one — failure before return to `init`.

use imc_logic::Property;
use imc_markov::{Dtmc, DtmcStreamBuilder, Imc, ModelError};

/// Default number of machine groups.
pub const COMPONENTS: u32 = 6;
/// Default wear levels per group (`levels − 1` = failed).
pub const LEVELS: usize = 10;
/// Default degradation weight `α`.
pub const ALPHA: f64 = 1e-3;
/// Default repair weight `β`.
pub const BETA: f64 = 1.0;

/// Guard against absurd state spaces: the builder refuses fleets larger
/// than this (64M states ≈ 3 GiB of Setup storage).
pub const MAX_STATES: usize = 64_000_000;

/// The state count `levels^components`, if it is representable and does
/// not exceed [`MAX_STATES`].
pub fn num_states(components: u32, levels: usize) -> Option<usize> {
    levels.checked_pow(components).filter(|&n| n <= MAX_STATES)
}

/// Builds the embedded jump chain of the `(components, levels)` fleet.
///
/// Every row is produced in ascending `(from, to)` order and streamed
/// into CSR storage — no triplet buffer and no sort, which is what keeps
/// the default million-state build in one bounded pass.
///
/// # Errors
///
/// [`ModelError`] if the parameters describe no valid chain
/// (`components == 0`, `levels < 2`, or a state space over
/// [`MAX_STATES`] — reported as [`ModelError::EmptyModel`] via `n = 0`).
///
/// # Panics
///
/// Panics if `alpha` or `beta` is not strictly positive.
pub fn jump_chain(
    components: u32,
    levels: usize,
    alpha: f64,
    beta: f64,
) -> Result<Dtmc, ModelError> {
    assert!(alpha > 0.0, "alpha must be positive, got {alpha}");
    assert!(beta > 0.0, "beta must be positive, got {beta}");
    let n = if components == 0 || levels < 2 {
        0
    } else {
        num_states(components, levels).unwrap_or(0)
    };
    let mut builder = DtmcStreamBuilder::new(n);
    if n == 0 {
        // Let the builder report the canonical empty-model error.
        return builder.finish();
    }
    let k = components as usize;
    let failed = levels - 1;
    // pow[i] = levels^i: degrading group i moves from s to s + pow[i].
    let pow: Vec<usize> = (0..k)
        .scan(1usize, |p, _| {
            let v = *p;
            *p *= levels;
            Some(v)
        })
        .collect();
    builder.set_initial(0);
    builder.add_label(0, "init");
    let mut digits = vec![0usize; k];
    let mut weights: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
    for s in 0..n {
        // Decode the mixed-radix digits of s.
        let mut rest = s;
        let mut most_degraded = None::<usize>;
        let mut any_failed = false;
        for i in 0..k {
            let d = rest % levels;
            rest /= levels;
            digits[i] = d;
            any_failed |= d == failed;
            if d > 0 && most_degraded.is_none_or(|j| d > digits[j]) {
                most_degraded = Some(i);
            }
        }
        if any_failed {
            builder.add_label(s, "failure");
        }
        // Successors in ascending target order: the single repair move
        // (target < s) first, then degradations by group index (pow[i]
        // is increasing, so s + pow[i] is too).
        weights.clear();
        if let Some(j) = most_degraded {
            weights.push((s - pow[j], beta));
        }
        for i in 0..k {
            if digits[i] < failed {
                weights.push((s + pow[i], alpha * (digits[i] + 1) as f64));
            }
        }
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        for &(target, w) in &weights {
            builder.push_transition(s, target, w / total)?;
        }
    }
    builder.finish()
}

/// The IMC around `chain` with relative half-width `eps_rel` on every
/// transition probability (clamped to `[0, 1]`), centred on `chain`.
///
/// # Errors
///
/// Propagates interval-construction errors (impossible for
/// `eps_rel ≥ 0`).
pub fn imc(chain: &Dtmc, eps_rel: f64) -> Result<Imc, ModelError> {
    Imc::from_center(chain, |from, to| eps_rel * chain.prob(from, to))
}

/// The regenerative property: some group fully fails before the fleet
/// returns to the all-fresh state.
pub fn property(chain: &Dtmc) -> Property {
    Property::failure_before_return(chain, "failure")
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_markov::{RowEntry, State};
    use imc_sampling::failure_bias;

    /// The failure-biased chain built the row-list way: one `RowEntry`
    /// vector per rebalanced row, replaced through `Dtmc::with_rows`.
    fn failure_bias_by_rows(
        chain: &Dtmc,
        is_failure: impl Fn(State, State) -> bool,
        bias: f64,
    ) -> Dtmc {
        let mut replacements: Vec<(State, Vec<RowEntry>)> = Vec::new();
        for (state, row) in chain.rows().enumerate() {
            let failure_mass: f64 = row
                .iter()
                .filter(|e| is_failure(state, e.target))
                .map(|e| e.prob)
                .sum();
            let other_mass = 1.0 - failure_mass;
            if failure_mass <= 0.0 || other_mass <= 1e-12 {
                continue;
            }
            let entries = row
                .iter()
                .map(|e| RowEntry {
                    target: e.target,
                    prob: if is_failure(state, e.target) {
                        bias * e.prob / failure_mass
                    } else {
                        (1.0 - bias) * e.prob / other_mass
                    },
                })
                .collect();
            replacements.push((state, entries));
        }
        chain.with_rows(replacements).unwrap()
    }

    fn bits(chain: &Dtmc) -> Vec<u64> {
        chain
            .transition_probs()
            .iter()
            .map(|p| p.to_bits())
            .collect()
    }

    #[test]
    fn failure_bias_matches_the_row_list_reference_bit_for_bit() {
        let degrades = |from: State, to: State| to > from;
        for (components, levels) in [(3, 4), (4, 5)] {
            let chain = jump_chain(components, levels, ALPHA, BETA).unwrap();
            for bias in [0.3, 0.7] {
                let b = failure_bias(&chain, degrades, bias).unwrap();
                let reference = failure_bias_by_rows(&chain, degrades, bias);
                assert!(b.same_pattern(&reference));
                assert_eq!(
                    bits(&b),
                    bits(&reference),
                    "{components}x{levels} at bias {bias}"
                );
                assert_eq!(b, reference);
            }
        }
    }

    #[test]
    fn set_up_models_borrow_the_centre_pattern() {
        let a = jump_chain(3, 4, ALPHA, BETA).unwrap();
        let b = failure_bias(&a, |from, to| to > from, 0.3).unwrap();
        let imc = imc(&a, 0.05).unwrap();
        let center = imc.center().unwrap();
        let clone = a.clone();
        for (name, offsets, targets) in [
            ("B", b.row_offsets(), b.transition_targets()),
            ("[Â]", imc.row_offsets(), imc.transition_targets()),
            (
                "[Â]'s centre",
                center.row_offsets(),
                center.transition_targets(),
            ),
            ("a clone", clone.row_offsets(), clone.transition_targets()),
        ] {
            assert!(std::ptr::eq(offsets, a.row_offsets()), "{name}");
            assert!(std::ptr::eq(targets, a.transition_targets()), "{name}");
        }
        assert!(a.same_pattern(&b) && a.same_pattern(center) && a.same_pattern(&clone));
        assert!(std::ptr::eq(
            center.transition_probs(),
            a.transition_probs()
        ));
        assert!(std::ptr::eq(clone.transition_probs(), a.transition_probs()));
        assert_eq!(b.pattern_fingerprint(), a.pattern_fingerprint());
    }

    #[test]
    fn small_fleet_shape_and_labels() {
        let chain = jump_chain(2, 3, 1e-2, 1.0).unwrap();
        assert_eq!(chain.num_states(), 9);
        assert_eq!(chain.initial(), 0);
        assert!(chain.labeled_states("init").contains(0));
        // failure = some digit equals 2: states 2,5,6,7,8 in base 3.
        let failure = chain.labeled_states("failure");
        for s in [2usize, 5, 6, 7, 8] {
            assert!(failure.contains(s), "state {s}");
        }
        assert_eq!(failure.len(), 5);
        // Rows are stochastic and sparse.
        for s in 0..chain.num_states() {
            let row = chain.row(s).unwrap();
            assert!(row.len() <= 3, "state {s} has {} successors", row.len());
            assert!((row.sum() - 1.0).abs() < 1e-9, "state {s}");
        }
    }

    #[test]
    fn repair_targets_most_degraded_group() {
        let chain = jump_chain(2, 4, 1e-2, 1.0).unwrap();
        // State 9 = digits (1, 2): group 1 is more degraded, so the
        // repair move is 9 -> 9 - 4 = 5, not 9 - 1 = 8.
        let row = chain.row(9).unwrap();
        assert!(row.prob_to(5) > 0.0);
        assert_eq!(row.prob_to(8), 0.0);
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        assert!(jump_chain(0, 10, 1e-3, 1.0).is_err());
        assert!(jump_chain(6, 1, 1e-3, 1.0).is_err());
        assert!(num_states(30, 10).is_none()); // overflow / over cap
    }

    #[test]
    fn imc_contains_its_centre() {
        let chain = jump_chain(3, 3, 1e-2, 1.0).unwrap();
        let imc = imc(&chain, 0.1).unwrap();
        assert!(imc.contains(&chain));
        assert_eq!(imc.num_states(), 27);
    }
}
