//! Batched deterministic candidate search: the parallel counterpart of
//! [`random_search`](crate::random_search) (Algorithm 2).
//!
//! [`BatchSearch`] draws candidates in **rounds of `batch_size`**, fanned
//! across a [`std::thread::scope`] pool with the same counter-based RNG
//! discipline as [`imc_sim::BatchRunner`] — the candidate at global index
//! `i` always draws from `StdRng::seed_from_u64(stream_seed(master_seed,
//! i))`, a pure function of the search seed and the index, never of the
//! worker that evaluates it.
//!
//! # Lane blocks
//!
//! Each worker draws its share of a round in index order straight into the
//! [`LANES`] lanes of its [`CandidateScratch`] and evaluates each block of
//! up to `LANES` candidates in one pass over the count tables
//! ([`PreparedRun::eval_lanes`](imc_sampling::PreparedRun::eval_lanes)),
//! which also shares the min- and max-template terms of every table the
//! two templates agree on. Each lane is bit-identical to evaluating its
//! candidate alone, so the blocking changes the cost of a round, never its
//! values. What remains per candidate is mostly the Dirichlet row draw,
//! whose rejection attempts reuse the row samplers' own buffers: once the
//! scratch is warm, drawing and evaluating a candidate allocates nothing.
//!
//! # The winners' rows
//!
//! A candidate's draw lives only in its lane, and the round extrema keep
//! just `(f, g, index)`. A lane draw is a pure function of its stream
//! ([`Problem::draw_lane`]), so at the end [`BatchSearch::run`] rebuilds
//! the rows of the two winners by drawing their streams
//! `trace_rng(master_seed, index)` once more, for
//! [`OptimOutcome::rows_min`] and [`OptimOutcome::rows_max`].
//!
//! # The determinism merge rule
//!
//! Workers fold their partition of a round into `(value, candidate index)`
//! extrema and the per-worker extrema merge in worker order. An extremum
//! candidate wins by **strictly better objective value, ties broken by the
//! lower candidate index** — a total order on candidates, so the round
//! winner is independent of how candidates were grouped into workers. With
//! candidate draws index-keyed and the merge grouping-independent, a
//! batched search is **bit-identical at every thread count**.
//!
//! Two semantic deltas versus the sequential Algorithm 2 (both inherent to
//! batching, and why [`SearchStrategy::Sequential`] is kept for paper
//! reproduction):
//!
//! * the undefeated-rounds stopping rule is checked once per batch, so
//!   the search can overshoot the sequential stopping point by up to
//!   `2·(batch_size − 1)` candidates (an improvement resets the
//!   undefeated counter for its whole round — up to `batch_size − 1`
//!   already-undefeated candidates — and the stop check itself only
//!   fires at round ends, adding up to `batch_size − 1` more);
//! * the Dirichlet row samplers' λ-inflation (§IV-C1) is reset per
//!   candidate instead of adapting across the candidate stream (see
//!   [`Problem::draw_lane`]).

use std::ops::Range;

use imc_sampling::LaneSums;
use imc_sim::parallel::{partition, resolve_threads};
use imc_sim::trace_rng;
use rand::Rng;

use crate::problem::{CandidateScratch, Draw};
use crate::random_search::{random_search, ConvergencePoint, OptimOutcome, RandomSearchConfig};
use crate::{OptimError, Problem};

/// Which candidate-search engine the IMCIS pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// The paper's Algorithm 2 verbatim: one candidate per round from the
    /// caller's RNG stream, λ-inflation adapting across candidates. Kept
    /// for reproduction figures — results match PR-1 `random_search`
    /// exactly.
    #[default]
    Sequential,
    /// Rounds of `batch_size` candidates evaluated across worker threads
    /// with per-candidate RNG streams; bit-identical at every thread
    /// count.
    Batched {
        /// Candidates per round (`0` = [`DEFAULT_BATCH_SIZE`]).
        batch_size: usize,
    },
}

impl SearchStrategy {
    /// The batched strategy at the default batch size.
    pub fn batched() -> Self {
        SearchStrategy::Batched { batch_size: 0 }
    }
}

/// Candidates per round when [`SearchStrategy::Batched`] leaves
/// `batch_size` at `0`: large enough to amortise the per-round fan-out,
/// small enough that the stopping rule stays within a few percent of the
/// sequential candidate budget at the paper's `R = 1000`.
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// Candidates a [`BatchSearch`] worker draws into its lane buffers and
/// evaluates in one
/// [`PreparedRun::eval_lanes`](imc_sampling::PreparedRun::eval_lanes)
/// call. Any width gives the same bits; this one sets the block's cost.
pub const LANES: usize = 8;

/// The batched deterministic candidate-search engine.
///
/// Draws candidates in rounds of `batch_size` across a scoped thread
/// pool. Candidate `i` always draws from the counter-based RNG stream
/// `stream_seed(master_seed, i)`, and per-worker extrema merge in worker
/// order under the "(strictly better value, ties to the lower candidate
/// index)" total order, so the winner never depends on how candidates
/// were grouped into workers. `threads == 0` means "all available cores";
/// `batch_size == 0` means [`DEFAULT_BATCH_SIZE`]. For a fixed
/// `master_seed` the outcome is bit-identical at every thread count, and
/// independent of the machine's core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSearch {
    threads: usize,
    batch_size: usize,
}

/// One evaluated candidate, keyed for the deterministic merge. Its rows
/// are not kept: the search re-draws its two winners at the end.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    f: f64,
    g: f64,
    /// Global candidate index (0-based); reported as round `index + 1`.
    index: u64,
}

/// Per-worker fold result for one round.
#[derive(Default)]
struct RoundBest {
    best_min: Option<Candidate>,
    best_max: Option<Candidate>,
    /// Lowest-index candidate whose draw failed, if any.
    error: Option<(u64, OptimError)>,
}

impl RoundBest {
    /// Draws and evaluates candidates `indices`, each from its own RNG
    /// stream, and folds them into the running extrema in index order.
    ///
    /// Candidates go through the scratch's lanes [`LANES`] at a time and
    /// each block is evaluated in one kernel call; a partial block's unused
    /// lanes are ignored, and a failed draw skips its lane and records its
    /// error at its own index.
    fn eval_candidates(
        &mut self,
        problem: &Problem,
        scratch: &mut CandidateScratch,
        master_seed: u64,
        indices: Range<u64>,
    ) {
        let mut first = indices.start;
        while first < indices.end {
            let block = first..indices.end.min(first + LANES as u64);
            let mut drawn = [false; LANES];
            for (lane, index) in block.clone().enumerate() {
                let mut rng = trace_rng(master_seed, index);
                match problem.draw_lane(scratch, lane, &mut rng) {
                    Ok(()) => drawn[lane] = true,
                    Err(e) => self.record_error(index, e),
                }
            }
            let sums = problem.eval_block(scratch);
            for (lane, index) in block.clone().enumerate() {
                if drawn[lane] {
                    self.fold(&sums, lane, index);
                }
            }
            first = block.end;
        }
    }

    /// Folds candidate `index`, evaluated in lane `lane`, into the running
    /// extrema.
    fn fold(&mut self, sums: &LaneSums<LANES>, lane: usize, index: u64) {
        let min = Candidate {
            f: sums.f_min[lane],
            g: sums.g_min[lane],
            index,
        };
        let max = Candidate {
            f: sums.f_max[lane],
            g: sums.g_max[lane],
            index,
        };
        fold_extremum(&mut self.best_min, min, beats_min);
        fold_extremum(&mut self.best_max, max, beats_max);
    }

    fn record_error(&mut self, index: u64, e: OptimError) {
        if self.error.as_ref().is_none_or(|&(at, _)| index < at) {
            self.error = Some((index, e));
        }
    }

    /// Merges another worker's result (worker order; `(value, index)`
    /// tie-break keeps the merge grouping-independent).
    fn merge(&mut self, other: RoundBest) {
        if let Some(candidate) = other.best_min {
            fold_extremum(&mut self.best_min, candidate, beats_min);
        }
        if let Some(candidate) = other.best_max {
            fold_extremum(&mut self.best_max, candidate, beats_max);
        }
        if let Some((index, e)) = other.error {
            self.record_error(index, e);
        }
    }
}

/// `a` beats `b` as a *minimum*: strictly smaller `f`, ties to the lower
/// candidate index.
fn beats_min(a: &Candidate, b: &Candidate) -> bool {
    a.f < b.f || (a.f == b.f && a.index < b.index)
}

/// `a` beats `b` as a *maximum*: strictly larger `f`, ties to the lower
/// candidate index.
fn beats_max(a: &Candidate, b: &Candidate) -> bool {
    a.f > b.f || (a.f == b.f && a.index < b.index)
}

/// Folds `candidate` into `slot` under the given ordering.
fn fold_extremum(
    slot: &mut Option<Candidate>,
    candidate: Candidate,
    beats: fn(&Candidate, &Candidate) -> bool,
) {
    match slot {
        Some(best) if !beats(&candidate, best) => {}
        _ => *slot = Some(candidate),
    }
}

impl BatchSearch {
    /// An engine with the given thread budget (`0` = all cores) and batch
    /// size (`0` = [`DEFAULT_BATCH_SIZE`]).
    pub fn new(threads: usize, batch_size: usize) -> Self {
        BatchSearch {
            threads,
            batch_size: if batch_size == 0 {
                DEFAULT_BATCH_SIZE
            } else {
                batch_size
            },
        }
    }

    /// The configured candidates-per-round.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The resolved worker-thread count.
    pub fn threads(&self) -> usize {
        imc_sim::parallel::resolve_threads(self.threads)
    }

    /// Runs the batched search to the same stopping rule as
    /// [`random_search`]: stop once `r_undefeated` consecutive candidates
    /// brought no improvement (checked at round granularity) or at the
    /// `r_max` hard cap. [`OptimOutcome::rounds`] counts *candidates*
    /// drawn, so budgets are directly comparable between strategies, and
    /// `min_found_at`/`max_found_at` follow the same contract (`0` means
    /// the centre chain was never beaten).
    ///
    /// # Errors
    ///
    /// Propagates [`OptimError`] from candidate generation; when several
    /// candidates of a round fail, the lowest-index failure is reported
    /// (deterministically, regardless of thread count).
    pub fn run(
        &self,
        problem: &Problem,
        config: &RandomSearchConfig,
        master_seed: u64,
    ) -> Result<OptimOutcome, OptimError> {
        let ((f_min0, g_min0), (f_max0, g_max0)) = problem.eval_center();
        let mut best_min = Candidate {
            f: f_min0,
            g: g_min0,
            index: 0,
        };
        let mut best_max = Candidate {
            f: f_max0,
            g: g_max0,
            index: 0,
        };
        let mut min_found_at = 0usize;
        let mut max_found_at = 0usize;
        let mut trace = Vec::new();
        if config.record_trace {
            trace.push(ConvergencePoint {
                round: 0,
                f_min: best_min.f,
                f_max: best_max.f,
            });
        }

        if problem.num_sampled_rows() == 0 || problem.objective().num_tables() == 0 {
            return Ok(OptimOutcome {
                f_min: best_min.f,
                g_min: best_min.g,
                f_max: best_max.f,
                g_max: best_max.g,
                rows_min: problem.rows_for(&[], true),
                rows_max: problem.rows_for(&[], false),
                rounds: 0,
                min_found_at,
                max_found_at,
                trace,
            });
        }

        // One scratch per worker, reused across rounds: scratches never
        // influence what a candidate draws (samplers are reset per draw),
        // so reuse is free determinism-wise and saves a sampler-clone per
        // row per round.
        let workers = resolve_threads(self.threads);
        let mut scratches: Vec<CandidateScratch> =
            (0..workers).map(|_| problem.scratch()).collect();

        let mut evaluated = 0usize;
        let mut undefeated = 0usize;
        while undefeated < config.r_undefeated && evaluated < config.r_max {
            // The final round truncates so the candidate budget is capped
            // at exactly `r_max`, matching the sequential engine.
            let count = self.batch_size.min(config.r_max - evaluated);
            let round = eval_round(
                problem,
                master_seed,
                evaluated as u64,
                count,
                &mut scratches,
            )?;
            evaluated += count;

            let mut improved = false;
            if let Some(winner) = round.best_min {
                if winner.f < best_min.f {
                    min_found_at = winner.index as usize + 1;
                    best_min = winner;
                    improved = true;
                }
            }
            if let Some(winner) = round.best_max {
                if winner.f > best_max.f {
                    max_found_at = winner.index as usize + 1;
                    best_max = winner;
                    improved = true;
                }
            }
            if improved {
                undefeated = 0;
                if config.record_trace {
                    trace.push(ConvergencePoint {
                        round: evaluated,
                        f_min: best_min.f,
                        f_max: best_max.f,
                    });
                }
            } else {
                undefeated += count;
            }
        }

        if config.record_trace && trace.last().is_none_or(|p| p.round != evaluated) {
            // Close the trace at the stopping round even when the final
            // rounds brought no improvement, so Figure 3 plots span the
            // full search.
            trace.push(ConvergencePoint {
                round: evaluated,
                f_min: best_min.f,
                f_max: best_max.f,
            });
        }

        // A lane draw is a pure function of its stream, so each winner's
        // rows are rebuilt by drawing its stream once more.
        let scratch = &mut scratches[0];
        let mut winner_draw = |found_at: usize| -> Result<Draw, OptimError> {
            match found_at {
                0 => Ok(Draw::new()),
                round => problem.drawn_rows(scratch, &mut trace_rng(master_seed, round as u64 - 1)),
            }
        };
        let (draw_min, draw_max) = (winner_draw(min_found_at)?, winner_draw(max_found_at)?);
        Ok(OptimOutcome {
            f_min: best_min.f,
            g_min: best_min.g,
            f_max: best_max.f,
            g_max: best_max.g,
            rows_min: problem.rows_for(&draw_min, true),
            rows_max: problem.rows_for(&draw_max, false),
            rounds: evaluated,
            min_found_at,
            max_found_at,
            trace,
        })
    }
}

/// Evaluates candidates `first..first + count` across up to
/// `scratches.len()` workers ([statically partitioned](partition), one
/// persistent scratch per worker) and merges their extrema by the
/// `(value, index)` rule, in worker order.
fn eval_round(
    problem: &Problem,
    master_seed: u64,
    first: u64,
    count: usize,
    scratches: &mut [CandidateScratch],
) -> Result<RoundBest, OptimError> {
    let workers = scratches.len().min(count.max(1));
    let mut merged = RoundBest::default();
    if workers <= 1 {
        merged.eval_candidates(
            problem,
            &mut scratches[0],
            master_seed,
            first..first + count as u64,
        );
    } else {
        let mut slots: Vec<RoundBest> = (0..workers).map(|_| RoundBest::default()).collect();
        std::thread::scope(|scope| {
            for ((w, slot), scratch) in slots.iter_mut().enumerate().zip(scratches.iter_mut()) {
                scope.spawn(move || {
                    let part = partition(count, workers, w);
                    let indices = first + part.start as u64..first + part.end as u64;
                    slot.eval_candidates(problem, scratch, master_seed, indices);
                });
            }
        });
        for slot in slots {
            merged.merge(slot);
        }
    }
    if let Some((_, e)) = merged.error {
        return Err(e);
    }
    Ok(merged)
}

/// Runs the candidate search under the chosen [`SearchStrategy`].
///
/// * [`SearchStrategy::Sequential`] delegates to [`random_search`] on the
///   caller's RNG — bit-for-bit the PR-1 behaviour;
/// * [`SearchStrategy::Batched`] draws **one** `u64` master seed from the
///   caller's RNG and hands it to a [`BatchSearch`] with the given thread
///   budget, so the caller's stream advances by a fixed amount regardless
///   of how many candidates the search ends up evaluating.
///
/// # Errors
///
/// Propagates [`OptimError`] from candidate generation.
pub fn search<R: Rng + ?Sized>(
    problem: &mut Problem,
    config: &RandomSearchConfig,
    strategy: SearchStrategy,
    threads: usize,
    rng: &mut R,
) -> Result<OptimOutcome, OptimError> {
    match strategy {
        SearchStrategy::Sequential => random_search(problem, config, rng),
        SearchStrategy::Batched { batch_size } => {
            let master_seed = rng.gen::<u64>();
            BatchSearch::new(threads, batch_size).run(problem, config, master_seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_logic::Property;
    use imc_markov::{Dtmc, DtmcBuilder, Imc, StateSet};
    use imc_sampling::{sample_is_run, zero_variance_is, IsConfig, IsRun, LaneSums};
    use rand::SeedableRng;

    /// Illustrative chain IMC with both rows genuinely searchable (same
    /// fixture as the sequential search tests).
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
    fn batched_search_is_bit_identical_across_thread_counts() {
        let (imc, b, run) = setup(1500);
        let problem = Problem::new(&imc, &b, &run).unwrap();
        let config = RandomSearchConfig {
            r_undefeated: 200,
            r_max: 5_000,
            record_trace: true,
        };
        // 13 is not a multiple of the lane width: workers end their share
        // of every round on a partial block.
        for batch_size in [32usize, 13] {
            let reference = BatchSearch::new(1, batch_size)
                .run(&problem, &config, 2018)
                .unwrap();
            assert!(reference.f_min < reference.f_max);
            for threads in [2usize, 8] {
                let out = BatchSearch::new(threads, batch_size)
                    .run(&problem, &config, 2018)
                    .unwrap();
                assert!(
                    out.bit_identical(&reference),
                    "batch {batch_size}: batched search differs at {threads} threads"
                );
            }
            // A different master seed genuinely changes the outcome.
            let other = BatchSearch::new(1, batch_size)
                .run(&problem, &config, 2019)
                .unwrap();
            assert!(!other.bit_identical(&reference));
        }
    }

    #[test]
    fn batched_search_widens_the_bracket() {
        let (imc, b, run) = setup(2000);
        let problem = Problem::new(&imc, &b, &run).unwrap();
        let ((f_min0, _), (f_max0, _)) = problem.eval_center();
        let config = RandomSearchConfig {
            r_undefeated: 200,
            r_max: 20_000,
            record_trace: true,
        };
        let out = BatchSearch::new(0, 64).run(&problem, &config, 9).unwrap();
        assert!(out.f_min <= f_min0);
        assert!(out.f_max >= f_max0);
        assert!(out.f_min < out.f_max);
        assert!(out.rounds >= 200);
        for pair in out.trace.windows(2) {
            assert!(pair[1].f_min <= pair[0].f_min + 1e-15);
            assert!(pair[1].f_max >= pair[0].f_max - 1e-15);
            assert!(pair[1].round > pair[0].round);
        }
        // The closing trace point sits at the stopping round.
        assert_eq!(out.trace.last().unwrap().round, out.rounds);
    }

    #[test]
    fn r_max_caps_the_candidate_budget_exactly() {
        let (imc, b, run) = setup(1000);
        let problem = Problem::new(&imc, &b, &run).unwrap();
        let config = RandomSearchConfig {
            r_undefeated: 1_000_000,
            r_max: 50,
            record_trace: false,
        };
        // 50 is not a multiple of the batch size: the last round truncates.
        let out = BatchSearch::new(2, 32).run(&problem, &config, 4).unwrap();
        assert_eq!(out.rounds, 50);
        assert!(out.min_found_at <= 50 && out.max_found_at <= 50);
    }

    #[test]
    fn undefeated_rule_stops_within_one_batch() {
        let (imc, b, run) = setup(1000);
        let problem = Problem::new(&imc, &b, &run).unwrap();
        let config = RandomSearchConfig {
            r_undefeated: 100,
            r_max: 100_000,
            record_trace: false,
        };
        let out = BatchSearch::new(1, 32).run(&problem, &config, 7).unwrap();
        // Stops at most one batch after the last improvement + R.
        let last_found = out.min_found_at.max(out.max_found_at);
        assert!(out.rounds >= last_found + config.r_undefeated);
        assert!(out.rounds < last_found + config.r_undefeated + 2 * 32);
    }

    #[test]
    fn degenerate_problem_returns_centre() {
        let (imc, b, _) = setup(10);
        let empty = IsRun {
            tables: vec![],
            n_traces: 10,
            n_success: 0,
            n_undecided: 0,
            b_pattern: b.pattern_fingerprint(),
        };
        let problem = Problem::new(&imc, &b, &empty).unwrap();
        let config = RandomSearchConfig {
            r_undefeated: 1000,
            r_max: 100_000,
            record_trace: false,
        };
        let out = BatchSearch::new(4, 16).run(&problem, &config, 1).unwrap();
        assert_eq!((out.f_min, out.f_max), (0.0, 0.0));
        assert_eq!(out.rounds, 0);
        assert_eq!((out.min_found_at, out.max_found_at), (0, 0));
    }

    #[test]
    fn winner_rows_are_their_streams_drawn_again() {
        let (imc, b, run) = setup(1500);
        let searched = Problem::new(&imc, &b, &run).unwrap();
        assert!(searched.num_sampled_rows() > 0);
        // Every successful trace runs 0 -> 1 -> 2: each visited row has one
        // observed transition and a closed form.
        let mut cb = DtmcBuilder::new(4);
        cb.set_initial(0)
            .add_transition(0, 1, 3e-2)
            .add_transition(0, 3, 1.0 - 3e-2)
            .add_transition(1, 2, 0.05)
            .add_transition(1, 3, 0.95)
            .add_self_loop(2)
            .add_self_loop(3);
        let center = cb.build().unwrap();
        let imc = Imc::from_center(&center, |from, _| if from < 2 { 1e-3 } else { 0.0 }).unwrap();
        let (target, avoid) = (StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let b = zero_variance_is(&center, &target, &avoid).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let prop = Property::reach_avoid(target, avoid);
        let run = sample_is_run(&b, &prop, &IsConfig::new(100), &mut rng);
        let closed = Problem::new(&imc, &b, &run).unwrap();
        assert_eq!(closed.num_sampled_rows(), 0);
        assert_eq!(closed.row_assignments().len(), 2);

        let config = RandomSearchConfig {
            r_undefeated: 200,
            r_max: 5_000,
            record_trace: false,
        };
        for problem in [&searched, &closed] {
            let out = BatchSearch::new(2, 13).run(problem, &config, 2018).unwrap();
            // A fresh problem's samplers start unadapted, as every lane
            // draw does.
            let fresh_rows = |found_at: usize, minimum: bool| {
                let draw = match found_at {
                    0 => Vec::new(),
                    round => {
                        let mut rng = trace_rng(2018, round as u64 - 1);
                        problem.clone().draw_and_eval(&mut rng).unwrap().draw
                    }
                };
                problem.rows_for(&draw, minimum)
            };
            assert_eq!(out.rows_min, fresh_rows(out.min_found_at, true));
            assert_eq!(out.rows_max, fresh_rows(out.max_found_at, false));
            if problem.num_sampled_rows() > 0 {
                assert!(out.min_found_at > 0 && out.max_found_at > 0);
            }
        }
    }

    #[test]
    fn search_dispatches_sequential_exactly() {
        let (imc, b, run) = setup(1000);
        let config = RandomSearchConfig {
            r_undefeated: 100,
            r_max: 2_000,
            record_trace: false,
        };
        let mut p1 = Problem::new(&imc, &b, &run).unwrap();
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(42);
        let direct = random_search(&mut p1, &config, &mut rng1).unwrap();
        let mut p2 = Problem::new(&imc, &b, &run).unwrap();
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(42);
        let via_dispatch =
            search(&mut p2, &config, SearchStrategy::Sequential, 8, &mut rng2).unwrap();
        assert!(direct.bit_identical(&via_dispatch));
    }

    /// A chain whose searched row (state 0) bounds two transitions far
    /// tighter than the third: the Dirichlet concentration follows the
    /// loose one, so most draws are rejected and λ-inflation adapts.
    fn adapting_setup() -> (Imc, Dtmc, IsRun) {
        let third = 1.0 / 3.0;
        let mut cb = DtmcBuilder::new(4);
        cb.set_initial(0)
            .add_transition(0, 1, third)
            .add_transition(0, 2, third)
            .add_transition(0, 3, third)
            .add_transition(1, 0, 1.0)
            .add_self_loop(2)
            .add_self_loop(3);
        let chain = cb.build().unwrap();
        let imc = Imc::from_center(&chain, |from, to| match (from, to) {
            (0, 3) => 0.05,
            (0, _) => 2e-3,
            _ => 0.0,
        })
        .unwrap();
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let run = sample_is_run(&chain, &prop, &IsConfig::new(200), &mut rng);
        (imc, chain, run)
    }

    #[test]
    fn scratch_draws_match_the_shared_problem_contract() {
        // A candidate drawn into a block lane must not depend on what the
        // scratch drew and evaluated before (pure function of the RNG
        // stream), and its lane must evaluate to the same bits.
        let (imc, b, run) = adapting_setup();
        let mut problem = Problem::new(&imc, &b, &run).unwrap();
        assert_eq!(problem.num_sampled_rows(), 1);
        let mut warm = problem.scratch();
        // Warm every lane on 20 unrelated candidates.
        for i in 0..20u64 {
            let mut rng = trace_rng(77, i);
            problem
                .draw_lane(&mut warm, i as usize % LANES, &mut rng)
                .unwrap();
            problem.eval_block(&warm);
        }
        let mut fresh = problem.scratch();
        let lane = 3;
        for scratch in [&mut warm, &mut fresh] {
            problem
                .draw_lane(scratch, lane, &mut trace_rng(99, 5))
                .unwrap();
        }
        let (warm_sums, fresh_sums) = (problem.eval_block(&warm), problem.eval_block(&fresh));
        let bits = |sums: &LaneSums<LANES>| {
            [sums.f_min, sums.g_min, sums.f_max, sums.g_max].map(|v| v[lane].to_bits())
        };
        assert_eq!(bits(&warm_sums), bits(&fresh_sums));
        let from_warm = problem
            .drawn_rows(&mut warm, &mut trace_rng(99, 5))
            .unwrap();
        let from_fresh = problem
            .drawn_rows(&mut fresh, &mut trace_rng(99, 5))
            .unwrap();
        assert_eq!(from_warm, from_fresh);

        // The fixture does exercise adaptation: the sequential path, which
        // keeps λ across draws, draws differently once warm.
        let first = problem
            .clone()
            .draw_and_eval(&mut trace_rng(99, 5))
            .unwrap();
        assert_eq!(first.draw, from_fresh);
        for i in 0..20u64 {
            problem.draw_and_eval(&mut trace_rng(77, i)).unwrap();
        }
        let adapted = problem.draw_and_eval(&mut trace_rng(99, 5)).unwrap();
        assert_ne!(adapted.draw, from_fresh);
    }
}
