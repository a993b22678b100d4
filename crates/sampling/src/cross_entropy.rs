use imc_logic::{Property, Verdict};
use imc_markov::{Dtmc, Edge, ModelError, RowEntry, State, TransitionCounts};
use imc_sim::{simulate_counts_into, ChainSampler};
use rand::Rng;

use crate::hash::FastMap;

/// Smoothing factor ρ of the CE update, `B ← ρ·B_new + (1−ρ)·B_old`:
/// guards against degenerate updates from few successful traces.
const SMOOTHING: f64 = 0.7;
/// Mixing weight `w` of the uniform distribution in the bootstrap chain
/// `B₀ = (1−w)·A + w·Uniform(support)` — makes rare transitions likely
/// enough to start the iteration.
const INITIAL_UNIFORM_WEIGHT: f64 = 0.5;
/// Probability floor, relative to the original `a_ij`, applied after each
/// update so the sampled measure stays absolutely continuous on the
/// support of `A`.
const FLOOR: f64 = 1e-4;

/// Configuration of the cross-entropy optimisation of an IS distribution
/// (Ridder 2005, the paper's reference \[24\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossEntropyConfig {
    /// Number of CE iterations.
    pub iterations: usize,
    /// Traces sampled per iteration.
    pub traces_per_iteration: usize,
    /// Per-trace transition budget.
    pub max_steps: usize,
}

/// Result of a cross-entropy run: the optimised chain plus per-iteration
/// diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossEntropyResult {
    /// The optimised IS chain.
    pub b: Dtmc,
    /// IS estimate of `γ` produced by each iteration's batch (diagnostic:
    /// should stabilise as `B` converges).
    pub gamma_history: Vec<f64>,
    /// Successful traces per iteration.
    pub success_history: Vec<u64>,
}

/// The outcome of one cross-entropy refinement iteration: the refined
/// chain plus the batch's diagnostics ([`cross_entropy_refine`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CeIteration {
    /// The refined IS chain.
    pub b: Dtmc,
    /// The batch's IS estimate of `γ` (diagnostic).
    pub gamma: f64,
    /// Successful traces in the batch.
    pub n_success: u64,
}

/// One cross-entropy refinement iteration: samples `traces` traces of at
/// most `max_steps` transitions under the current `b`, weights
/// the successful ones by their likelihood ratio `L = P_A/P_B`, and
/// re-fits the biased chain by the closed-form CE update for Markov
/// chains (`b'_ij = Σ_k w_k n_ij(ω_k) / Σ_k w_k n_i(ω_k)` with
/// `w_k = z_k L_k`), smoothed against the current iterate. Rows never
/// visited by a successful trace keep their current distribution; a
/// batch with no successes returns `b` unchanged.
///
/// This is the single step [`cross_entropy_is`] iterates, exposed so an
/// outer loop (the `ce-campaign` estimator) can refine the chain
/// between estimation sessions. Deterministic given `rng`'s stream:
/// traces are drawn sequentially, and the row re-fit is a pure
/// per-state function of the batch.
///
/// # Errors
///
/// Returns a [`ModelError`] if an update produces an invalid row
/// (defensive; floors and renormalisation prevent this for valid
/// inputs).
pub fn cross_entropy_refine<R: Rng + ?Sized>(
    a: &Dtmc,
    property: &Property,
    b: &Dtmc,
    traces: usize,
    max_steps: usize,
    rng: &mut R,
) -> Result<CeIteration, ModelError> {
    let sampler = ChainSampler::new(b);
    let pb_at = b.transition_probs();
    let mut monitor = property.monitor();
    let mut counts = TransitionCounts::new();
    let mut frozen: Vec<(Edge, u64)> = Vec::new();
    // Per distinct edge of `b` on a successful trace: its source state,
    // `ln a − ln b` (taken once) and the weighted count `Σ_k w_k n_k`.
    let mut w_trans: FastMap<Edge, (State, f64, f64)> = FastMap::default();
    let mut w_source: FastMap<State, f64> = FastMap::default();
    let mut gamma_sum = 0.0f64;
    let mut n_success = 0u64;

    for _ in 0..traces {
        let (verdict, _, _) = simulate_counts_into(
            &sampler,
            b.initial(),
            &mut monitor,
            rng,
            max_steps,
            &mut counts,
        );
        if verdict != Verdict::Accepted {
            continue;
        }
        n_success += 1;
        // Accumulate in the frozen (sorted) edge order, which is the
        // `(from, to)` order: float addition is order-sensitive in the last
        // ulp, so every trace's sums run in one canonical order.
        counts.frozen_into(&mut frozen);
        let mut log_l = 0.0f64;
        for &(edge, n) in &frozen {
            let (_, log_ratio, _) = *w_trans.entry(edge).or_insert_with(|| {
                let (from, to) = b.edge(edge);
                (from, a.prob(from, to).ln() - pb_at[edge as usize].ln(), 0.0)
            });
            log_l += n as f64 * log_ratio;
        }
        let w = log_l.exp();
        gamma_sum += w;
        for &(edge, n) in &frozen {
            let (from, _, weight) = w_trans.get_mut(&edge).expect("entered above");
            *weight += w * n as f64;
            *w_source.entry(*from).or_insert(0.0) += w * n as f64;
        }
    }
    let gamma = gamma_sum / traces as f64;
    if n_success == 0 {
        // Nothing to learn from this batch; keep the current B.
        return Ok(CeIteration {
            b: b.clone(),
            gamma,
            n_success,
        });
    }

    // Re-fit visited rows. The map yields them in no particular order, but
    // every row update is an independent pure function of the batch and
    // `with_rows` places rows by state, so the order reaches no float.
    let mut replacements: Vec<(State, Vec<RowEntry>)> = Vec::new();
    for (&state, &total) in &w_source {
        if total <= 0.0 {
            continue;
        }
        let a_row = a.row(state).expect("visited state is in range");
        let mut entries: Vec<RowEntry> = a_row
            .iter()
            .map(|e| {
                let edge = b.edge_id(state, e.target);
                let weight = edge.and_then(|edge| w_trans.get(&edge));
                let ce = weight.map_or(0.0, |&(_, _, w)| w) / total;
                let pb = edge.map_or(0.0, |edge| pb_at[edge as usize]);
                let smoothed = SMOOTHING * ce + (1.0 - SMOOTHING) * pb;
                // Floor keeps every original transition samplable.
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
    Ok(CeIteration {
        b: b.with_rows(replacements)?,
        gamma,
        n_success,
    })
}

/// Optimises an importance-sampling chain for `property` on `a` by the
/// cross-entropy method.
///
/// Iterates [`cross_entropy_refine`] `config.iterations` times from the
/// bootstrap chain [`initial_chain`]`(a)`.
///
/// # Errors
///
/// Returns a [`ModelError`] if an update produces an invalid row
/// (defensive; floors and renormalisation prevent this for valid inputs).
pub fn cross_entropy_is<R: Rng + ?Sized>(
    a: &Dtmc,
    property: &Property,
    config: &CrossEntropyConfig,
    rng: &mut R,
) -> Result<CrossEntropyResult, ModelError> {
    let mut b = initial_chain(a)?;
    let mut gamma_history = Vec::with_capacity(config.iterations);
    let mut success_history = Vec::with_capacity(config.iterations);

    for _ in 0..config.iterations {
        let step = cross_entropy_refine(
            a,
            property,
            &b,
            config.traces_per_iteration,
            config.max_steps,
            rng,
        )?;
        gamma_history.push(step.gamma);
        success_history.push(step.n_success);
        b = step.b;
    }

    Ok(CrossEntropyResult {
        b,
        gamma_history,
        success_history,
    })
}

/// The cross-entropy bootstrap chain
/// `B₀ = (1−w)·A + w·Uniform(support of A)` with `w = 0.5` — mixes enough
/// uniform mass into every row that rare transitions are likely enough to
/// learn from.
pub fn initial_chain(a: &Dtmc) -> Result<Dtmc, ModelError> {
    let mut replacements: Vec<(State, Vec<RowEntry>)> = Vec::new();
    for (state, row) in a.rows().enumerate() {
        let k = row.len() as f64;
        let mut entries: Vec<RowEntry> = row
            .iter()
            .map(|e| RowEntry {
                target: e.target,
                prob: (1.0 - INITIAL_UNIFORM_WEIGHT) * e.prob + INITIAL_UNIFORM_WEIGHT / k,
            })
            .collect();
        let sum: f64 = entries.iter().map(|e| e.prob).sum();
        if let Some(largest) = entries.iter_mut().max_by(|x, y| x.prob.total_cmp(&y.prob)) {
            largest.prob += 1.0 - sum;
        }
        replacements.push((state, entries));
    }
    a.with_rows(replacements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_estimate, sample_is_run, IsConfig};
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

    #[test]
    fn initial_chain_mixes_uniform() {
        let a = illustrative(1e-4, 0.05);
        let b0 = initial_chain(&a).unwrap();
        // 0 -> 1: 0.5·1e-4 + 0.5/2 = 0.25005.
        assert!((b0.prob(0, 1) - 0.250_05).abs() < 1e-9);
        assert!((b0.row(0).unwrap().sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ce_finds_a_low_variance_distribution() {
        let (pa, pc) = (1e-3, 0.05);
        let a = illustrative(pa, pc);
        let gamma = pa * pc / (1.0 - pa * (1.0 - pc));
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let config = CrossEntropyConfig {
            iterations: 8,
            traces_per_iteration: 4000,
            max_steps: DEFAULT_MAX_STEPS,
        };
        let result = cross_entropy_is(&a, &prop, &config, &mut rng).unwrap();

        // The optimised B should drive most traces to success...
        let run = sample_is_run(&result.b, &prop, &IsConfig::new(5000), &mut rng);
        assert!(
            run.n_success > 3000,
            "only {} of 5000 traces succeed under CE chain",
            run.n_success
        );
        // ...and produce a tight, nearly exact estimate. (CI containment is
        // deliberately NOT asserted: with a near-perfect B the empirical σ̂
        // collapses and the normal CI under-covers — the very phenomenon
        // §VI-B of the paper discusses.)
        let est = is_estimate(&a, &result.b, &run, 0.01);
        assert!(
            (est.gamma_hat - gamma).abs() / gamma < 1e-2,
            "γ̂ = {} too far from γ = {gamma}",
            est.gamma_hat
        );
        assert!(
            est.sigma_hat / gamma < 2.0,
            "relative σ̂ too large: {}",
            est.sigma_hat / gamma
        );
        // CE chain should approach the zero-variance one: b(0→1) ≈ 1.
        assert!(result.b.prob(0, 1) > 0.9, "{}", result.b.prob(0, 1));
    }

    #[test]
    fn ce_history_has_configured_length() {
        let a = illustrative(0.01, 0.1);
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let config = CrossEntropyConfig {
            iterations: 3,
            traces_per_iteration: 500,
            max_steps: DEFAULT_MAX_STEPS,
        };
        let result = cross_entropy_is(&a, &prop, &config, &mut rng).unwrap();
        assert_eq!(result.gamma_history.len(), 3);
        assert_eq!(result.success_history.len(), 3);
    }

    #[test]
    fn support_is_preserved() {
        // Every transition of A remains samplable in the CE output (floor).
        let a = illustrative(0.01, 0.1);
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let config = CrossEntropyConfig {
            iterations: 10,
            traces_per_iteration: 5_000,
            max_steps: DEFAULT_MAX_STEPS,
        };
        let result = cross_entropy_is(&a, &prop, &config, &mut rng).unwrap();
        for (s, row) in a.rows().enumerate() {
            for e in row.iter() {
                assert!(
                    result.b.prob(s, e.target) > 0.0,
                    "transition {s} -> {} lost",
                    e.target
                );
            }
        }
    }
}
