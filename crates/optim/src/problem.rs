use std::collections::HashMap;
use std::fmt;

use imc_distr::{ConstrainedRowSampler, DistrError, IntervalSpec};
use imc_markov::{Dtmc, Imc, State};
use imc_sampling::{IsRun, LaneSums, PreparedRun};
use rand::Rng;

use crate::LANES;

/// Errors raised while compiling or solving an optimisation problem.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimError {
    /// A transition observed under `B` has no interval in the IMC: the run
    /// and the model disagree on the support.
    SupportMismatch {
        /// Source state.
        from: State,
        /// Target state.
        to: State,
    },
    /// The IMC has no centre chain and no member could be derived.
    NoCenter,
    /// A row sampler could not be built or failed to draw.
    Distr(DistrError),
}

impl fmt::Display for OptimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimError::SupportMismatch { from, to } => write!(
                f,
                "transition {from} -> {to} was observed but the IMC has no interval for it"
            ),
            OptimError::NoCenter => write!(f, "IMC has no centre chain and no derivable member"),
            OptimError::Distr(e) => write!(f, "row sampling failed: {e}"),
        }
    }
}

impl std::error::Error for OptimError {}

impl From<DistrError> for OptimError {
    fn from(e: DistrError) -> Self {
        OptimError::Distr(e)
    }
}

/// How one IMC row is handled by the optimiser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowAssignment {
    /// Exactly one transition of the row was observed: its extremal value
    /// has the closed form of §III-C, no search needed.
    ClosedForm,
    /// Several transitions observed: the row is explored by the Dirichlet
    /// sampler of §IV.
    Sampled,
}

/// One optimisable row: the interval constraints of a visited state plus
/// the positions of its observed transitions in the objective's index.
#[derive(Debug, Clone)]
pub(crate) struct ProblemRow {
    pub state: State,
    /// All interval targets of the row, in IMC order.
    pub targets: Vec<State>,
    pub specs: Vec<IntervalSpec>,
    /// `(position in targets, transition id)` of each observed transition.
    pub observed: Vec<(usize, u32)>,
    pub kind: RowKind,
}

#[derive(Debug, Clone)]
pub(crate) enum RowKind {
    ClosedForm {
        /// Full row values attaining the minimum of `f`.
        min_values: Vec<f64>,
        /// Full row values attaining the maximum of `f`.
        max_values: Vec<f64>,
    },
    Sampled(ConstrainedRowSampler),
}

/// The compiled IMCIS optimisation problem (eq. (10) of the paper): the
/// objective over successful-trace count tables, plus per-row constraint
/// handling.
///
/// Only rows of states visited by successful traces are optimised; all
/// other rows of the IMC cannot influence `f` (§III-C's observation that
/// state distributions are independent).
///
/// Every candidate is evaluated under two templates at once: closed-form
/// rows at their minimising (resp. maximising) values, sampled rows at the
/// draw. The templates differ only at closed-form transitions whose min and
/// max values differ, so the problem marks once which tables touch such a
/// transition (the *split* tables); the objective kernel shares one term
/// between both templates on every other table.
#[derive(Debug, Clone)]
pub struct Problem {
    objective: PreparedRun,
    rows: Vec<ProblemRow>,
    /// Template `ln a` vectors: closed-form rows pre-filled, sampled rows
    /// at the centre chain.
    center: Lanes<1>,
    /// The sequential search's candidate: `center` with the sampled rows
    /// overwritten by the latest draw.
    sequential: Lanes<1>,
    /// Ascending indices of the tables on which the templates differ.
    split: Vec<u32>,
}

impl Problem {
    /// Compiles a problem from the IMC, the IS chain and a sampled run.
    ///
    /// Rows with a single observed transition are solved by the §III-C
    /// closed form instead of being searched — an exact improvement over
    /// the paper's Algorithm 2, which samples every visited row. Use
    /// [`Problem::with_forced_sampling`] to reproduce the paper's
    /// behaviour verbatim (Table I reports the search's partial
    /// convergence on such rows).
    ///
    /// # Errors
    ///
    /// * [`OptimError::SupportMismatch`] if an observed transition has no
    ///   interval in the IMC;
    /// * [`OptimError::NoCenter`] if the IMC lacks a centre and no member
    ///   can be derived;
    /// * [`OptimError::Distr`] if a Dirichlet row sampler cannot be built.
    pub fn new(imc: &Imc, b: &Dtmc, run: &IsRun) -> Result<Self, OptimError> {
        Problem::build(imc, b, run, false)
    }

    /// Like [`Problem::new`], but every visited row is explored by the
    /// Dirichlet sampler, exactly as in the paper's Algorithm 2 — no
    /// closed-form fast path.
    ///
    /// # Errors
    ///
    /// As for [`Problem::new`].
    pub fn with_forced_sampling(imc: &Imc, b: &Dtmc, run: &IsRun) -> Result<Self, OptimError> {
        Problem::build(imc, b, run, true)
    }

    fn build(imc: &Imc, b: &Dtmc, run: &IsRun, force_sampling: bool) -> Result<Self, OptimError> {
        let center = match imc.center() {
            Some(c) => c.clone(),
            None => imc.some_member().map_err(|_| OptimError::NoCenter)?,
        };
        let objective = PreparedRun::new(run, b);

        // Group observed transition ids by source state.
        let mut by_state: HashMap<State, Vec<(State, u32)>> = HashMap::new();
        for (id, &(from, to)) in objective.transitions().iter().enumerate() {
            by_state.entry(from).or_default().push((to, id as u32));
        }

        let mut rows = Vec::with_capacity(by_state.len());
        let mut states: Vec<State> = by_state.keys().copied().collect();
        states.sort_unstable();
        for state in states {
            let observed_raw = &by_state[&state];
            let interval_row = imc.row(state).expect("observed state is in range");
            let targets: Vec<State> = interval_row.iter().map(|e| e.target).collect();
            let specs: Vec<IntervalSpec> = interval_row
                .iter()
                .map(|e| {
                    IntervalSpec::new(e.lo, e.hi, center.prob(state, e.target))
                        .map_err(OptimError::from)
                })
                .collect::<Result<_, _>>()?;
            let mut observed = Vec::with_capacity(observed_raw.len());
            for &(to, id) in observed_raw {
                let pos = targets
                    .iter()
                    .position(|&t| t == to)
                    .ok_or(OptimError::SupportMismatch { from: state, to })?;
                observed.push((pos, id));
            }
            observed.sort_unstable_by_key(|&(pos, _)| pos);

            let kind = if observed.len() == 1 && !force_sampling {
                let (pos, _) = observed[0];
                RowKind::ClosedForm {
                    min_values: closed_form_row(&specs, pos, Extreme::Min),
                    max_values: closed_form_row(&specs, pos, Extreme::Max),
                }
            } else {
                RowKind::Sampled(ConstrainedRowSampler::new(&specs)?)
            };
            rows.push(ProblemRow {
                state,
                targets,
                specs,
                observed,
                kind,
            });
        }

        // Build templates: observed positions filled from closed forms (min
        // and max respectively) or the centre chain for sampled rows.
        let mut template_min = vec![0.0f64; objective.num_transitions()];
        let mut template_max = vec![0.0f64; objective.num_transitions()];
        for row in &rows {
            for &(pos, id) in &row.observed {
                let (vmin, vmax) = match &row.kind {
                    RowKind::ClosedForm {
                        min_values,
                        max_values,
                    } => (min_values[pos], max_values[pos]),
                    RowKind::Sampled(_) => {
                        let c = row.specs[pos].center();
                        (c, c)
                    }
                };
                template_min[id as usize] = vmin.max(f64::MIN_POSITIVE).ln();
                template_max[id as usize] = vmax.max(f64::MIN_POSITIVE).ln();
            }
        }
        // Draws overwrite sampled-row transitions in both templates alike,
        // so the tables split by the centre fill stay the split tables of
        // every candidate.
        let split = objective.split_tables(&template_min, &template_max);
        let center = Lanes::broadcast(&template_min, &template_max);

        Ok(Problem {
            objective,
            rows,
            sequential: center.clone(),
            center,
            split,
        })
    }

    /// The compiled objective: the run's IS estimator `f(A)` and its
    /// second moment `g(A)`, ready for repeated evaluation.
    pub fn objective(&self) -> &PreparedRun {
        &self.objective
    }

    /// States whose rows are being optimised, with their handling.
    pub fn row_assignments(&self) -> Vec<(State, RowAssignment)> {
        self.rows
            .iter()
            .map(|r| {
                let kind = match r.kind {
                    RowKind::ClosedForm { .. } => RowAssignment::ClosedForm,
                    RowKind::Sampled(_) => RowAssignment::Sampled,
                };
                (r.state, kind)
            })
            .collect()
    }

    /// Number of rows explored by sampling (the search dimensionality).
    pub fn num_sampled_rows(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.kind, RowKind::Sampled(_)))
            .count()
    }

    /// Evaluates `(f, g)` of the centre chain under min/max closed-form
    /// fills — the starting point `A(0) = Â` of Algorithm 2.
    pub fn eval_center(&self) -> ((f64, f64), (f64, f64)) {
        let sums = self.center.eval(self);
        (
            (sums.f_min[0], sums.g_min[0]),
            (sums.f_max[0], sums.g_max[0]),
        )
    }

    /// Draws one candidate for the sampled rows and evaluates it under both
    /// the min-template and max-template closed-form fills.
    ///
    /// The row samplers are the problem's own, so their λ-inflation adapts
    /// across calls exactly as in the paper's Algorithm 2.
    ///
    /// # Errors
    ///
    /// Propagates [`OptimError::Distr`] if a row sampler exhausts its
    /// rejection budget.
    pub fn draw_and_eval<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<CandidateEval, OptimError> {
        let mut draw: Draw = Vec::new();
        for (row_idx, row) in self.rows.iter_mut().enumerate() {
            if let RowKind::Sampled(sampler) = &mut row.kind {
                let values = sampler.sample(rng)?;
                self.sequential.set_row(0, &row.observed, values);
                draw.push((row_idx, values.to_vec()));
            }
        }
        let sums = self.sequential.eval(self);
        Ok(CandidateEval {
            f_min: sums.f_min[0],
            g_min: sums.g_min[0],
            f_max: sums.f_max[0],
            g_max: sums.g_max[0],
            draw,
        })
    }

    /// Creates the reusable per-worker state of the batched search:
    /// pristine clones of the row samplers plus a block of candidate
    /// buffers at the templates.
    pub(crate) fn scratch(&self) -> CandidateScratch {
        CandidateScratch {
            samplers: self
                .rows
                .iter()
                .enumerate()
                .filter_map(|(idx, row)| match &row.kind {
                    RowKind::Sampled(sampler) => Some((idx, sampler.clone())),
                    RowKind::ClosedForm { .. } => None,
                })
                .collect(),
            block: Lanes::broadcast(
                self.center.log_min.as_flattened(),
                self.center.log_max.as_flattened(),
            ),
        }
    }

    /// Draws one candidate straight into lane `lane` of the scratch's
    /// block; the block is evaluated by [`Problem::eval_block`]. The draw
    /// itself is not kept: [`Problem::drawn_rows`] rebuilds it from the same
    /// stream.
    ///
    /// Unlike [`Problem::draw_and_eval`], each draw is a **pure function of
    /// the RNG stream**: the scratch samplers' λ-inflation is reset before
    /// every draw (see
    /// [`ConstrainedRowSampler::reset_adaptation`](imc_distr::ConstrainedRowSampler::reset_adaptation)),
    /// so the result cannot depend on which other candidates the same
    /// scratch drew earlier. This is what makes the batched search
    /// bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// Propagates [`OptimError::Distr`] if a row sampler exhausts its
    /// rejection budget.
    pub(crate) fn draw_lane<R: Rng + ?Sized>(
        &self,
        scratch: &mut CandidateScratch,
        lane: usize,
        rng: &mut R,
    ) -> Result<(), OptimError> {
        let block = &mut scratch.block;
        reset_and_draw(&mut scratch.samplers, rng, |row_idx, values| {
            block.set_row(lane, &self.rows[row_idx].observed, values);
        })
    }

    /// The candidate [`Problem::draw_lane`] draws from `rng`, as `(row
    /// index, values)` of its sampled rows.
    ///
    /// # Errors
    ///
    /// As for [`Problem::draw_lane`].
    pub(crate) fn drawn_rows<R: Rng + ?Sized>(
        &self,
        scratch: &mut CandidateScratch,
        rng: &mut R,
    ) -> Result<Draw, OptimError> {
        let mut draw: Draw = Vec::with_capacity(scratch.samplers.len());
        reset_and_draw(&mut scratch.samplers, rng, |row_idx, values| {
            draw.push((row_idx, values.to_vec()));
        })?;
        Ok(draw)
    }

    /// Evaluates every lane of the scratch's block in one kernel call.
    pub(crate) fn eval_block(&self, scratch: &CandidateScratch) -> LaneSums<LANES> {
        scratch.block.eval(self)
    }

    /// Materialises the full optimised rows for reporting: the drawn values
    /// for sampled rows plus the closed-form values (min or max according
    /// to `minimum`).
    pub fn rows_for(
        &self,
        draw: &[(usize, Vec<f64>)],
        minimum: bool,
    ) -> Vec<(State, Vec<(State, f64)>)> {
        let drawn: HashMap<usize, &Vec<f64>> =
            draw.iter().map(|(idx, values)| (*idx, values)).collect();
        self.rows
            .iter()
            .enumerate()
            .map(|(idx, row)| {
                let values: Vec<f64> = match (&row.kind, drawn.get(&idx)) {
                    (RowKind::Sampled(_), Some(values)) => (*values).clone(),
                    (RowKind::Sampled(_), None) => row.specs.iter().map(|s| s.center()).collect(),
                    (
                        RowKind::ClosedForm {
                            min_values,
                            max_values,
                        },
                        _,
                    ) => {
                        if minimum {
                            min_values.clone()
                        } else {
                            max_values.clone()
                        }
                    }
                };
                let pairs = row
                    .targets
                    .iter()
                    .copied()
                    .zip(values)
                    .collect::<Vec<(State, f64)>>();
                (row.state, pairs)
            })
            .collect()
    }
}

/// Draws every sampled row of one batched candidate from `rng`, in row
/// order, each sampler's λ-inflation reset first, and hands each row to
/// `visit` as `(row index, values)`.
fn reset_and_draw<R: Rng + ?Sized>(
    samplers: &mut [(usize, ConstrainedRowSampler)],
    rng: &mut R,
    mut visit: impl FnMut(usize, &[f64]),
) -> Result<(), OptimError> {
    for (row_idx, sampler) in samplers {
        sampler.reset_adaptation();
        visit(*row_idx, sampler.sample(rng)?);
    }
    Ok(())
}

/// Reusable worker-local state of the batched search: pristine
/// row-sampler clones and a block of candidate `ln a` buffers under both
/// templates.
///
/// The buffers are lane-major, one `[f64; LANES]` per transition id, and
/// start at the templates in every lane. A draw overwrites its lane at the
/// sampled rows' transitions only; every draw writes all of them, so a lane
/// never needs resetting. A [`BatchSearch`](crate::BatchSearch) worker
/// fills the [`LANES`] lanes with consecutive candidates and evaluates them
/// in one
/// [`PreparedRun::eval_lanes`](imc_sampling::PreparedRun::eval_lanes) call.
///
/// One scratch per worker thread holds every buffer of the candidate hot
/// path, so a warm draw and its evaluation allocate nothing; the scratch
/// never influences *what* is drawn (its samplers are reset before every
/// draw), only where the intermediate values live.
#[derive(Debug, Clone)]
pub(crate) struct CandidateScratch {
    /// `(row index, sampler)` for each sampled row, row order.
    samplers: Vec<(usize, ConstrainedRowSampler)>,
    block: Lanes<LANES>,
}

/// Lane-major `ln a` buffers of `L` candidates under the min and the max
/// template: entry `id` holds transition `id` of every lane.
#[derive(Debug, Clone)]
struct Lanes<const L: usize> {
    log_min: Vec<[f64; L]>,
    log_max: Vec<[f64; L]>,
}

impl<const L: usize> Lanes<L> {
    /// Every lane at the given one-lane templates.
    fn broadcast(template_min: &[f64], template_max: &[f64]) -> Self {
        Lanes {
            log_min: template_min.iter().map(|&v| [v; L]).collect(),
            log_max: template_max.iter().map(|&v| [v; L]).collect(),
        }
    }

    /// Writes one sampled row's drawn `values` into lane `lane`: the same
    /// `ln` value into both templates at each observed transition.
    fn set_row(&mut self, lane: usize, observed: &[(usize, u32)], values: &[f64]) {
        for &(pos, id) in observed {
            let lv = values[pos].max(f64::MIN_POSITIVE).ln();
            self.log_min[id as usize][lane] = lv;
            self.log_max[id as usize][lane] = lv;
        }
    }

    /// `(f, g)` of every lane under both templates.
    fn eval(&self, problem: &Problem) -> LaneSums<L> {
        problem
            .objective
            .eval_lanes(&self.log_min, &self.log_max, &problem.split)
    }
}

/// The drawn values of a candidate's sampled rows, as `(row index,
/// values)`.
pub(crate) type Draw = Vec<(usize, Vec<f64>)>;

/// One candidate draw with its objective values under both closed-form
/// fills.
#[derive(Debug, Clone)]
pub struct CandidateEval {
    /// `f` under the min-template.
    pub f_min: f64,
    /// `g` under the min-template.
    pub g_min: f64,
    /// `f` under the max-template.
    pub f_max: f64,
    /// `g` under the max-template.
    pub g_max: f64,
    /// The drawn values of sampled rows, as `(row index, values)`.
    pub draw: Vec<(usize, Vec<f64>)>,
}

enum Extreme {
    Min,
    Max,
}

/// §III-C closed form for a row with a single observed transition at
/// `pos`: push the observed coordinate to its feasible extreme,
/// `max(lo, 1 − Σ_{j'≠j} hi)` for the minimum (resp.
/// `min(hi, 1 − Σ_{j'≠j} lo)` for the maximum), then waterfill the other
/// coordinates so the row remains a distribution inside its box.
fn closed_form_row(specs: &[IntervalSpec], pos: usize, extreme: Extreme) -> Vec<f64> {
    let others_hi: f64 = specs
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != pos)
        .map(|(_, s)| s.hi())
        .sum();
    let others_lo: f64 = specs
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != pos)
        .map(|(_, s)| s.lo())
        .sum();
    let value = match extreme {
        Extreme::Min => specs[pos].lo().max(1.0 - others_hi),
        Extreme::Max => specs[pos].hi().min(1.0 - others_lo),
    };
    // Waterfill the remaining mass across the other coordinates.
    let mut values: Vec<f64> = specs.iter().map(IntervalSpec::lo).collect();
    values[pos] = value;
    let mut remaining = 1.0 - values.iter().sum::<f64>();
    for (j, spec) in specs.iter().enumerate() {
        if j == pos || remaining <= 0.0 {
            continue;
        }
        let room = spec.hi() - values[j];
        let add = remaining.min(room);
        values[j] += add;
        remaining -= add;
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_logic::Property;
    use imc_markov::{DtmcBuilder, Imc, StateSet};
    use imc_sampling::{sample_is_run, IsConfig};
    use rand::SeedableRng;

    /// The paper's illustrative chain as an IMC around (â, ĉ).
    fn setup() -> (Imc, Dtmc, IsRun) {
        // a_hat is large enough that the ZV chain's residual loop
        // probability b(1→0) = â·d ≈ 2.85e-2 shows up reliably in a
        // 2000-trace run, making row 1 a genuinely sampled row.
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
        // Perfect IS for the centre chain.
        let b = imc_sampling::zero_variance_is(
            &center,
            &StateSet::from_states(4, [2]),
            &StateSet::new(4),
        )
        .unwrap();
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let run = sample_is_run(&b, &prop, &IsConfig::new(2000), &mut rng);
        (imc, b, run)
    }

    #[test]
    fn classifies_rows() {
        let (imc, b, run) = setup();
        let problem = Problem::new(&imc, &b, &run).unwrap();
        let assignments = problem.row_assignments();
        // Row 0: only 0->1 observed (ZV never takes 0->3): closed form.
        // Row 1: both 1->2 and 1->0 observed under the ZV chain: sampled.
        assert!(assignments.contains(&(0, RowAssignment::ClosedForm)));
        assert!(assignments.contains(&(1, RowAssignment::Sampled)));
        assert_eq!(problem.num_sampled_rows(), 1);
    }

    #[test]
    fn closed_form_row_extremes() {
        let specs = vec![
            IntervalSpec::new(0.05, 0.15, 0.1).unwrap(),
            IntervalSpec::new(0.80, 0.95, 0.9).unwrap(),
        ];
        let min = closed_form_row(&specs, 0, Extreme::Min);
        // min a_0 = max(0.05, 1 − 0.95) = 0.05; partner waterfills to 0.95.
        assert!((min[0] - 0.05).abs() < 1e-12);
        assert!((min.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let max = closed_form_row(&specs, 0, Extreme::Max);
        // max a_0 = min(0.15, 1 − 0.80) = 0.15.
        assert!((max[0] - 0.15).abs() < 1e-12);
        assert!((max.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn closed_form_respects_binding_simplex_constraint() {
        // Partner's hi is small: the lower bound is simplex-limited.
        let specs = vec![
            IntervalSpec::new(0.1, 0.9, 0.5).unwrap(),
            IntervalSpec::new(0.3, 0.4, 0.35).unwrap(),
            IntervalSpec::new(0.1, 0.2, 0.15).unwrap(),
        ];
        let min = closed_form_row(&specs, 0, Extreme::Min);
        // 1 − (0.4 + 0.2) = 0.4 > lo = 0.1.
        assert!((min[0] - 0.4).abs() < 1e-12);
        assert!((min.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn draws_evaluate_and_stay_feasible() {
        let (imc, b, run) = setup();
        let mut problem = Problem::new(&imc, &b, &run).unwrap();
        let ((f_min0, _), (f_max0, _)) = problem.eval_center();
        assert!(f_min0 > 0.0 && f_max0 > 0.0);
        assert!(f_min0 <= f_max0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let eval = problem.draw_and_eval(&mut rng).unwrap();
            assert!(eval.f_min.is_finite() && eval.f_max.is_finite());
            assert!(eval.f_min <= eval.f_max * (1.0 + 1e-12));
            for (row_idx, values) in &eval.draw {
                let row = &problem.rows[*row_idx];
                assert!((values.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                for (v, s) in values.iter().zip(&row.specs) {
                    assert!(s.contains(*v));
                }
            }
        }
    }

    #[test]
    fn split_tables_are_those_the_templates_disagree_on() {
        let (imc, b, run) = setup();
        // Every successful trace starts 0 -> 1, the closed-form row's one
        // observed transition, whose min and max values differ.
        let problem = Problem::new(&imc, &b, &run).unwrap();
        assert_eq!(problem.split.len(), problem.objective().num_tables());
        // Forced sampling leaves no closed-form row: nothing is split.
        let forced = Problem::with_forced_sampling(&imc, &b, &run).unwrap();
        assert!(forced.split.is_empty());
        // Either way the centre evaluation equals one-template evaluations.
        for p in [&problem, &forced] {
            let ((f_min, g_min), (f_max, g_max)) = p.eval_center();
            let min = p.objective().eval_log(p.center.log_min.as_flattened());
            let max = p.objective().eval_log(p.center.log_max.as_flattened());
            assert_eq!(
                (f_min.to_bits(), g_min.to_bits()),
                (min.0.to_bits(), min.1.to_bits())
            );
            assert_eq!(
                (f_max.to_bits(), g_max.to_bits()),
                (max.0.to_bits(), max.1.to_bits())
            );
        }
    }

    #[test]
    fn support_mismatch_is_reported() {
        let (_, b, run) = setup();
        // An IMC whose row 0 lacks the observed 0 -> 1 transition.
        let mut bad = DtmcBuilder::new(4);
        bad.set_initial(0)
            .add_transition(0, 3, 1.0)
            .add_transition(1, 2, 0.05)
            .add_transition(1, 0, 0.95)
            .add_self_loop(2)
            .add_self_loop(3);
        let bad_center = bad.build().unwrap();
        let bad_imc = Imc::from_center(&bad_center, |_, _| 1e-3).unwrap();
        let err = Problem::new(&bad_imc, &b, &run).unwrap_err();
        assert!(matches!(
            err,
            OptimError::SupportMismatch { from: 0, to: 1 }
        ));
    }

    #[test]
    fn rows_for_reports_full_distributions() {
        let (imc, b, run) = setup();
        let mut problem = Problem::new(&imc, &b, &run).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let eval = problem.draw_and_eval(&mut rng).unwrap();
        for minimum in [true, false] {
            let rows = problem.rows_for(&eval.draw, minimum);
            assert_eq!(rows.len(), 2);
            for (_, pairs) in rows {
                let sum: f64 = pairs.iter().map(|&(_, v)| v).sum();
                assert!((sum - 1.0).abs() < 1e-9);
            }
        }
    }
}
