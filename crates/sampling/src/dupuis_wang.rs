//! Dupuis–Wang-style dynamic importance sampling: a state-dependent
//! change of measure driven by a learned value function.
//!
//! The idea (Dupuis & Wang, "Dynamic importance sampling for uniformly
//! recurrent Markov chains") is to tilt each row of the original chain
//! `A` toward states from which the rare event is *more likely*: with a
//! value function `V(x) ≈ P_A(success | start in x)`, the biased row is
//!
//! ```text
//! b(x, y) ∝ a(x, y) · V(y)
//! ```
//!
//! which for the exact `V` is the zero-variance change of measure. Here
//! `V` is *learned* from importance-weighted training traces and
//! re-trained between campaign stages ([`dupuis_wang_update`]), so the
//! measure adapts run-over-run while every stage's estimate remains an
//! unbiased standard-IS estimate under the stage's fixed chain
//! (smoothing and floors keep `B` absolutely continuous on the support
//! of `A`).
//!
//! Everything here is sequential and single-stream: given the `rng`
//! seed, the update is deterministic and trivially thread-count
//! invariant.

use imc_logic::{Property, Verdict};
use imc_markov::{Dtmc, Edge, ModelError, RowEntry, State, TransitionCounts};
use imc_sim::{simulate_counts_into, ChainSampler};
use rand::Rng;

use crate::hash::FastMap;

/// Smoothing factor ρ applied to both the value function and the row
/// update: `new ← ρ·fit + (1−ρ)·old`.
const SMOOTHING: f64 = 0.7;
/// Probability floor, relative to the original `a_ij`, applied after each
/// row update so the sampled measure stays absolutely continuous on the
/// support of `A`.
const FLOOR: f64 = 1e-4;

/// Configuration of one Dupuis–Wang value/measure update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DupuisWangConfig {
    /// Training traces sampled per update.
    pub training_traces: usize,
    /// Per-trace transition budget.
    pub max_steps: usize,
}

/// The bootstrap value function: `1` on the target set, `0` on the
/// avoid set, an uninformative `0.5` elsewhere. The first
/// [`dupuis_wang_update`] replaces the uninformative entries with
/// trained estimates.
pub fn initial_value(a: &Dtmc, property: &Property) -> Vec<f64> {
    let target = property.target();
    let avoid = property.avoid();
    (0..a.num_states())
        .map(|s| {
            if target.contains(s) {
                1.0
            } else if avoid.contains(s) {
                0.0
            } else {
                0.5
            }
        })
        .collect()
}

/// One Dupuis–Wang training step: re-fits the value function from
/// `config.training_traces` importance-weighted traces drawn under the
/// current `b`, then rebuilds the chain as `b'(x, y) ∝ a(x, y)·V'(y)`
/// (smoothed against `b`, floored, renormalised).
///
/// The per-state fit is the weighted conditional success frequency
/// `V̂(x) = Σ_k z_k L_k 1[x ∈ ω_k] / Σ_k L_k 1[x ∈ ω_k]` with
/// `L_k = P_A/P_B` — an estimate of `P_A(success | visit x)` — blended
/// into the previous value with ρ = 0.7. States never visited keep their
/// value; target/avoid states stay pinned at `1`/`0`.
///
/// # Errors
///
/// Returns a [`ModelError`] if a rebuilt row is invalid (defensive;
/// floors and renormalisation prevent this for valid inputs).
pub fn dupuis_wang_update<R: Rng + ?Sized>(
    a: &Dtmc,
    property: &Property,
    b: &Dtmc,
    v: &[f64],
    config: &DupuisWangConfig,
    rng: &mut R,
) -> Result<(Dtmc, Vec<f64>), ModelError> {
    let n = a.num_states();
    debug_assert_eq!(v.len(), n);
    let sampler = ChainSampler::new(b);
    let mut monitor = property.monitor();
    // Importance-weighted visit tallies: num[x] over successful traces,
    // den[x] over all traces that visit x.
    let mut num = vec![0.0f64; n];
    let mut den = vec![0.0f64; n];
    let mut visited: Vec<State> = Vec::new();
    let mut counts = TransitionCounts::new();
    let mut frozen: Vec<(Edge, u64)> = Vec::new();
    // Per distinct edge of `b` seen in training: `ln a − ln b` and its
    // endpoints, looked up once.
    let pb_at = b.transition_probs();
    let mut edges: FastMap<Edge, (f64, State, State)> = FastMap::default();

    for _ in 0..config.training_traces {
        let (verdict, _, _) = simulate_counts_into(
            &sampler,
            b.initial(),
            &mut monitor,
            rng,
            config.max_steps,
            &mut counts,
        );
        // Frozen (sorted) order, which is the `(from, to)` order: the
        // log-likelihood sum is order-sensitive in the last ulp, so it runs
        // in one canonical order.
        counts.frozen_into(&mut frozen);
        let mut log_l = 0.0f64;
        visited.clear();
        for &(edge, n_ft) in &frozen {
            let (log_ratio, from, to) = *edges.entry(edge).or_insert_with(|| {
                let (from, to) = b.edge(edge);
                (a.prob(from, to).ln() - pb_at[edge as usize].ln(), from, to)
            });
            log_l += n_ft as f64 * log_ratio;
            visited.push(from);
            visited.push(to);
        }
        if visited.is_empty() {
            // A zero-transition trace still visited its initial state.
            visited.push(b.initial());
        }
        visited.sort_unstable();
        visited.dedup();
        let w = log_l.exp();
        let z = if verdict == Verdict::Accepted {
            1.0
        } else {
            0.0
        };
        for &state in &visited {
            den[state] += w;
            num[state] += z * w;
        }
    }

    let target = property.target();
    let avoid = property.avoid();
    let mut v_new = Vec::with_capacity(n);
    for state in 0..n {
        let value = if target.contains(state) {
            1.0
        } else if avoid.contains(state) {
            0.0
        } else if den[state] > 0.0 {
            let fit = num[state] / den[state];
            SMOOTHING * fit + (1.0 - SMOOTHING) * v[state]
        } else {
            v[state]
        };
        v_new.push(value);
    }

    // Rebuild every row as a(x,·)·V'(·), smoothed against the current b
    // and floored relative to a so the support of A stays samplable. A
    // row whose tilt mass vanishes (all successors have V' = 0) keeps
    // the current b row — there is nothing to steer toward.
    let mut replacements: Vec<(State, Vec<RowEntry>)> = Vec::with_capacity(n);
    for (state, a_row) in a.rows().enumerate() {
        let tilt: Vec<f64> = a_row.iter().map(|e| e.prob * v_new[e.target]).collect();
        let tilt_sum: f64 = tilt.iter().sum();
        if tilt_sum <= 0.0 {
            continue;
        }
        let mut entries: Vec<RowEntry> = a_row
            .iter()
            .zip(&tilt)
            .map(|(e, &t)| {
                let fitted = t / tilt_sum;
                let smoothed = SMOOTHING * fitted + (1.0 - SMOOTHING) * b.prob(state, e.target);
                RowEntry {
                    target: e.target,
                    prob: smoothed.max(FLOOR * e.prob),
                }
            })
            .collect();
        let sum: f64 = entries.iter().map(|e| e.prob).sum();
        for e in &mut entries {
            e.prob /= sum;
        }
        let sum: f64 = entries.iter().map(|e| e.prob).sum();
        if let Some(largest) = entries.iter_mut().max_by(|x, y| x.prob.total_cmp(&y.prob)) {
            largest.prob += 1.0 - sum;
        }
        replacements.push((state, entries));
    }
    Ok((b.with_rows(replacements)?, v_new))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial_chain;
    use imc_markov::{DtmcBuilder, StateSet};
    use imc_sim::DEFAULT_MAX_STEPS;
    use rand::SeedableRng;

    /// The paper's illustrative chain with a rare loop-protected target.
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

    fn prop() -> Property {
        Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]))
    }

    #[test]
    fn initial_value_pins_target_and_avoid() {
        let a = illustrative(1e-3, 0.05);
        let v = initial_value(&a, &prop());
        assert_eq!(v, vec![0.5, 0.5, 1.0, 0.0]);
    }

    #[test]
    fn updates_steer_the_chain_toward_the_target() {
        let a = illustrative(1e-3, 0.05);
        let property = prop();
        let mut b = initial_chain(&a).unwrap();
        let mut v = initial_value(&a, &property);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let config = DupuisWangConfig {
            training_traces: 4_000,
            max_steps: DEFAULT_MAX_STEPS,
        };
        for _ in 0..3 {
            let (nb, nv) = dupuis_wang_update(&a, &property, &b, &v, &config, &mut rng).unwrap();
            b = nb;
            v = nv;
        }
        // The tilt a(0,1)·V(1) vs a(0,3)·V(3)=0 drives the rare first
        // step toward the target, approaching the zero-variance chain.
        assert!(b.prob(0, 1) > 0.9, "b(0,1) = {}", b.prob(0, 1));
        // The learned value of the gateway state approaches the true
        // conditional success probability (≈ c for small a).
        assert!(v[1] > 0.0 && v[1] < 0.3, "v[1] = {}", v[1]);
        // Support of A preserved (floor).
        for (s, row) in a.rows().enumerate() {
            for e in row.iter() {
                assert!(b.prob(s, e.target) > 0.0, "{s} -> {} lost", e.target);
            }
        }
    }

    #[test]
    fn update_is_deterministic_in_the_seed() {
        let a = illustrative(1e-2, 0.1);
        let property = prop();
        let b0 = initial_chain(&a).unwrap();
        let v0 = initial_value(&a, &property);
        let config = DupuisWangConfig {
            training_traces: 500,
            max_steps: DEFAULT_MAX_STEPS,
        };
        let run = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            dupuis_wang_update(&a, &property, &b0, &v0, &config, &mut rng).unwrap()
        };
        let (b1, v1) = run();
        let (b2, v2) = run();
        for s in 0..a.num_states() {
            for e in a.row(s).unwrap().iter() {
                assert_eq!(
                    b1.prob(s, e.target).to_bits(),
                    b2.prob(s, e.target).to_bits()
                );
            }
        }
        assert_eq!(v1.len(), v2.len());
        for (x, y) in v1.iter().zip(&v2) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Two updates on the illustrative chain from a pinned seed reproduce
    /// recorded bits, so a change to the trace loop must keep every operand
    /// and summation order of the weights, the value fit and the row re-fit.
    #[test]
    fn update_reproduces_its_recorded_bits() {
        let a = illustrative(1e-2, 0.1);
        let property = prop();
        let mut b = initial_chain(&a).unwrap();
        let mut v = initial_value(&a, &property);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let config = DupuisWangConfig {
            training_traces: 500,
            max_steps: DEFAULT_MAX_STEPS,
        };
        for _ in 0..2 {
            (b, v) = dupuis_wang_update(&a, &property, &b, &v, &config, &mut rng).unwrap();
        }
        let mut bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        for (s, row) in a.rows().enumerate() {
            bits.extend(row.iter().map(|e| b.prob(s, e.target).to_bits()));
        }
        assert_eq!(
            bits,
            [
                // v
                0x3fa7_8ab5_a19a_e943,
                0x3fc1_84b5_aff8_12e5,
                0x3ff0_0000_0000_0000,
                0x0000_0000_0000_0000,
                // b, row by row
                0x3fed_dab9_f559_b3d0,
                0x3fb1_2a30_5532_617e,
                0x3fd8_e210_d701_584a,
                0x3fe3_8ef7_947f_53db,
                0x3ff0_0000_0000_0000,
                0x3ff0_0000_0000_0000,
            ]
        );
    }
}
