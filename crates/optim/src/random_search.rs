use imc_markov::State;
use rand::Rng;

use crate::{OptimError, Problem};

/// Configuration of the Monte Carlo random search (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomSearchConfig {
    /// Consecutive undefeated rounds `R` before stopping (the paper uses
    /// 1000): the probability that the true optimum beats the reported one
    /// is then below `1/R` under the sampling measure.
    pub r_undefeated: usize,
    /// Hard cap on total rounds (termination guarantee, §IV-A).
    pub r_max: usize,
    /// Record the convergence trace (`(round, f_min, f_max)` at every
    /// improvement) for Figure 3-style plots.
    pub record_trace: bool,
}

/// One point of the optimisation convergence trace (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Round at which an extremum improved.
    pub round: usize,
    /// Best (lowest) `f` so far.
    pub f_min: f64,
    /// Best (highest) `f` so far.
    pub f_max: f64,
}

/// The result of optimising `f` over the IMC.
#[derive(Debug, Clone)]
pub struct OptimOutcome {
    /// Minimal objective value found.
    pub f_min: f64,
    /// `g` at the minimiser.
    pub g_min: f64,
    /// Maximal objective value found.
    pub f_max: f64,
    /// `g` at the maximiser.
    pub g_max: f64,
    /// The minimising rows: per optimised state, `(target, probability)`.
    pub rows_min: Vec<(State, Vec<(State, f64)>)>,
    /// The maximising rows.
    pub rows_max: Vec<(State, Vec<(State, f64)>)>,
    /// Rounds executed before stopping. Under the batched strategy this
    /// counts *candidates drawn*, so budgets stay comparable between
    /// strategies.
    pub rounds: usize,
    /// Round at which the final minimum was found (1-based). **`0` means
    /// the centre chain `Â` was never beaten**: the reported minimum is
    /// the round-0 centre evaluation, not a drawn candidate.
    pub min_found_at: usize,
    /// Round at which the final maximum was found (1-based; `0` = the
    /// centre chain, as for [`OptimOutcome::min_found_at`]).
    pub max_found_at: usize,
    /// Convergence trace (empty unless requested). Starts with the round-0
    /// centre evaluation and closes with a point at the stopping round
    /// even when the final rounds brought no improvement, so Figure 3
    /// plots span the whole search.
    pub trace: Vec<ConvergencePoint>,
}

impl OptimOutcome {
    /// Whether two outcomes are the same search result: `f` and `g` of both
    /// extrema by their bits, the round counts, the reported rows and the
    /// convergence trace. This is the equality the batched search's
    /// determinism contract promises.
    pub fn bit_identical(&self, other: &OptimOutcome) -> bool {
        self.f_min.to_bits() == other.f_min.to_bits()
            && self.g_min.to_bits() == other.g_min.to_bits()
            && self.f_max.to_bits() == other.f_max.to_bits()
            && self.g_max.to_bits() == other.g_max.to_bits()
            && self.rounds == other.rounds
            && self.min_found_at == other.min_found_at
            && self.max_found_at == other.max_found_at
            && self.rows_min == other.rows_min
            && self.rows_max == other.rows_max
            && self.trace == other.trace
    }
}

/// Monte Carlo random search over the IMC (Algorithm 2 of the paper).
///
/// Starting from the centre chain `Â`, candidate member chains are drawn
/// from the constrained Dirichlet samplers of §IV; a single candidate
/// stream updates the running minimum and maximum simultaneously. The
/// search stops once no improvement has been seen for
/// [`RandomSearchConfig::r_undefeated`] consecutive rounds (or at the hard
/// cap). Rows with a single observed transition are solved exactly by the
/// §III-C closed form and never sampled.
///
/// # Errors
///
/// Propagates [`OptimError`] from candidate generation.
pub fn random_search<R: Rng + ?Sized>(
    problem: &mut Problem,
    config: &RandomSearchConfig,
    rng: &mut R,
) -> Result<OptimOutcome, OptimError> {
    let ((f_min0, g_min0), (f_max0, g_max0)) = problem.eval_center();
    let mut best_min = (f_min0, g_min0);
    let mut best_max = (f_max0, g_max0);
    let mut draw_min: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut draw_max: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut min_found_at = 0usize;
    let mut max_found_at = 0usize;
    let mut trace = Vec::new();
    if config.record_trace {
        trace.push(ConvergencePoint {
            round: 0,
            f_min: best_min.0,
            f_max: best_max.0,
        });
    }

    // A degenerate problem (no sampled rows, e.g. all rows closed-form or
    // no successful traces) is already solved by the centre evaluation.
    if problem.num_sampled_rows() == 0 || problem.objective().num_tables() == 0 {
        return Ok(OptimOutcome {
            f_min: best_min.0,
            g_min: best_min.1,
            f_max: best_max.0,
            g_max: best_max.1,
            rows_min: problem.rows_for(&draw_min, true),
            rows_max: problem.rows_for(&draw_max, false),
            rounds: 0,
            min_found_at,
            max_found_at,
            trace,
        });
    }

    let mut undefeated = 0usize;
    let mut round = 0usize;
    while undefeated < config.r_undefeated && round < config.r_max {
        round += 1;
        let eval = problem.draw_and_eval(rng)?;
        let mut improved = false;
        if eval.f_min < best_min.0 {
            best_min = (eval.f_min, eval.g_min);
            draw_min = eval.draw.clone();
            min_found_at = round;
            improved = true;
        }
        if eval.f_max > best_max.0 {
            best_max = (eval.f_max, eval.g_max);
            draw_max = eval.draw;
            max_found_at = round;
            improved = true;
        }
        if improved {
            undefeated = 0;
            if config.record_trace {
                trace.push(ConvergencePoint {
                    round,
                    f_min: best_min.0,
                    f_max: best_max.0,
                });
            }
        } else {
            undefeated += 1;
        }
    }

    if config.record_trace && trace.last().is_none_or(|p| p.round != round) {
        // Close the trace at the stopping round even when the tail rounds
        // brought no improvement, so Figure 3 plots span the full search
        // rather than ending at the last improvement.
        trace.push(ConvergencePoint {
            round,
            f_min: best_min.0,
            f_max: best_max.0,
        });
    }

    Ok(OptimOutcome {
        f_min: best_min.0,
        g_min: best_min.1,
        f_max: best_max.0,
        g_max: best_max.1,
        rows_min: problem.rows_for(&draw_min, true),
        rows_max: problem.rows_for(&draw_max, false),
        rounds: round,
        min_found_at,
        max_found_at,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_logic::Property;
    use imc_markov::{Dtmc, DtmcBuilder, Imc, StateSet};
    use imc_sampling::{sample_is_run, zero_variance_is, IsConfig, IsRun};
    use rand::SeedableRng;

    /// Illustrative chain IMC with both rows genuinely searchable.
    fn setup(n_traces: usize) -> (Imc, Dtmc, IsRun) {
        let (a_hat, c_hat) = (3e-2, 0.0498);
        let mut cb = DtmcBuilder::new(4);
        cb.set_initial(0)
            .add_transition(0, 1, a_hat)
            .add_transition(0, 3, 1.0 - a_hat)
            .add_transition(1, 2, c_hat)
            .add_transition(1, 0, 1.0 - c_hat)
            .add_self_loop(2)
            .add_self_loop(3);
        let center = cb.build().unwrap();
        let imc = Imc::from_center(&center, |from, _| match from {
            0 => 2.5e-3,
            1 => 5e-4,
            _ => 0.0,
        })
        .unwrap();
        let b =
            zero_variance_is(&center, &StateSet::from_states(4, [2]), &StateSet::new(4)).unwrap();
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let run = sample_is_run(&b, &prop, &IsConfig::new(n_traces), &mut rng);
        (imc, b, run)
    }

    #[test]
    fn search_widens_the_bracket() {
        let (imc, b, run) = setup(2000);
        let mut problem = Problem::new(&imc, &b, &run).unwrap();
        let ((f_min0, _), (f_max0, _)) = problem.eval_center();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let config = RandomSearchConfig {
            r_undefeated: 200,
            r_max: 20_000,
            record_trace: true,
        };
        let outcome = random_search(&mut problem, &config, &mut rng).unwrap();
        assert!(outcome.f_min <= f_min0);
        assert!(outcome.f_max >= f_max0);
        assert!(outcome.f_min < outcome.f_max);
        assert!(outcome.rounds >= 200);
        // The trace is monotone: f_min non-increasing, f_max non-decreasing.
        for pair in outcome.trace.windows(2) {
            assert!(pair[1].f_min <= pair[0].f_min + 1e-15);
            assert!(pair[1].f_max >= pair[0].f_max - 1e-15);
        }
    }

    #[test]
    fn reported_rows_are_members_of_the_imc() {
        let (imc, b, run) = setup(2000);
        let mut problem = Problem::new(&imc, &b, &run).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let config = RandomSearchConfig {
            r_undefeated: 100,
            r_max: 5_000,
            record_trace: false,
        };
        let outcome = random_search(&mut problem, &config, &mut rng).unwrap();
        for rows in [&outcome.rows_min, &outcome.rows_max] {
            for (state, pairs) in rows {
                let interval_row = imc.row(*state).unwrap();
                let sum: f64 = pairs.iter().map(|&(_, v)| v).sum();
                assert!((sum - 1.0).abs() < 1e-9);
                for &(target, v) in pairs {
                    let e = interval_row.interval_to(target).unwrap();
                    assert!(
                        v >= e.lo - 1e-12 && v <= e.hi + 1e-12,
                        "row {state}, target {target}: {v} outside [{}, {}]",
                        e.lo,
                        e.hi
                    );
                }
            }
        }
    }

    #[test]
    fn no_successful_traces_returns_zero_bracket() {
        let (imc, b, _) = setup(10);
        let empty = IsRun {
            tables: vec![],
            n_traces: 10,
            n_success: 0,
            n_undecided: 0,
            b_pattern: b.pattern_fingerprint(),
        };
        let mut problem = Problem::new(&imc, &b, &empty).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let config = RandomSearchConfig {
            r_undefeated: 1000,
            r_max: 100_000,
            record_trace: false,
        };
        let outcome = random_search(&mut problem, &config, &mut rng).unwrap();
        assert_eq!(outcome.f_min, 0.0);
        assert_eq!(outcome.f_max, 0.0);
        assert_eq!(outcome.rounds, 0);
    }

    #[test]
    fn r_max_caps_the_search() {
        let (imc, b, run) = setup(2000);
        let mut problem = Problem::new(&imc, &b, &run).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let config = RandomSearchConfig {
            r_undefeated: 1_000_000,
            r_max: 50,
            record_trace: false,
        };
        let outcome = random_search(&mut problem, &config, &mut rng).unwrap();
        assert_eq!(outcome.rounds, 50);
    }

    #[test]
    fn trace_closes_at_the_stopping_round() {
        let (imc, b, run) = setup(2000);
        let mut problem = Problem::new(&imc, &b, &run).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let config = RandomSearchConfig {
            r_undefeated: 150,
            r_max: 20_000,
            record_trace: true,
        };
        let outcome = random_search(&mut problem, &config, &mut rng).unwrap();
        // The search always ends on >= r_undefeated improvement-free
        // rounds, so without the closing point the trace would stop at
        // least 150 rounds early.
        let last = outcome.trace.last().unwrap();
        assert_eq!(last.round, outcome.rounds);
        assert_eq!(last.f_min.to_bits(), outcome.f_min.to_bits());
        assert_eq!(last.f_max.to_bits(), outcome.f_max.to_bits());
        let penultimate = outcome.trace[outcome.trace.len() - 2];
        assert!(outcome.rounds >= penultimate.round + config.r_undefeated);
    }

    #[test]
    fn found_at_zero_means_the_centre_chain() {
        // With a zero candidate budget nothing can beat the centre: the
        // outcome must report found_at == 0 and the centre bracket.
        let (imc, b, run) = setup(2000);
        let mut problem = Problem::new(&imc, &b, &run).unwrap();
        let ((f_min0, _), (f_max0, _)) = problem.eval_center();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let config = RandomSearchConfig {
            r_undefeated: 10,
            r_max: 0,
            record_trace: true,
        };
        let outcome = random_search(&mut problem, &config, &mut rng).unwrap();
        assert_eq!((outcome.min_found_at, outcome.max_found_at), (0, 0));
        assert_eq!(outcome.f_min.to_bits(), f_min0.to_bits());
        assert_eq!(outcome.f_max.to_bits(), f_max0.to_bits());
        // The reported rows are the centre fills, and the trace is the
        // single round-0 point (no duplicate closing point).
        assert_eq!(outcome.trace.len(), 1);
        assert_eq!(outcome.trace[0].round, 0);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (imc, b, run) = setup(1000);
        let config = RandomSearchConfig {
            r_undefeated: 100,
            r_max: 2_000,
            record_trace: false,
        };
        let mut out = Vec::new();
        for _ in 0..2 {
            let mut problem = Problem::new(&imc, &b, &run).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            out.push(random_search(&mut problem, &config, &mut rng).unwrap());
        }
        assert_eq!(out[0].f_min, out[1].f_min);
        assert_eq!(out[0].f_max, out[1].f_max);
        assert_eq!(out[0].rounds, out[1].rounds);
    }
}
