//! Interval Markov chains on the sparse CSR kernel.
//!
//! An [`Imc`] stores its interval transition matrix as contiguous
//! `(row_ptr, col_idx, lo, hi)` arrays — the same compressed-sparse-row
//! layout as [`Dtmc`], with two value arrays for the probability bounds.
//! Rows are borrowed as [`IntervalRowView`]s. Construction goes through
//! [`ImcBuilder`] (triplets in any order, sorted once) or
//! [`ImcStreamBuilder`] (pre-sorted triplets appended directly).
//!
//! An IMC built around a centre chain ([`Imc::from_center`]) has the
//! centre's support by construction, so it shares the centre's
//! `row_ptr`/`col_idx` pattern, its label table and the centre itself,
//! and stores only its two bound arrays.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::csr::{CsrAssembler, Pattern, Push};
use crate::labels::add_label;
use crate::{Dtmc, DtmcStreamBuilder, LabelTable, ModelError, State, StateSet, ROW_SUM_TOLERANCE};

/// A single interval transition: target state plus `[lo, hi]` bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalEntry {
    /// Target state of the transition.
    pub target: State,
    /// Lower probability bound `A⁻(s, t)`.
    pub lo: f64,
    /// Upper probability bound `A⁺(s, t)`.
    pub hi: f64,
}

impl IntervalEntry {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// Midpoint of the interval.
    pub fn mid(&self) -> f64 {
        (self.hi + self.lo) / 2.0
    }

    /// Returns `true` if `p` lies within `[lo, hi]` (inclusive).
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lo && p <= self.hi
    }
}

/// A borrowed view of one interval row of an [`Imc`].
///
/// Borrows the model's CSR arrays directly; entries are sorted by target
/// state. The view is `Copy`; iterate with [`IntervalRowView::iter`].
#[derive(Debug, Clone, Copy)]
pub struct IntervalRowView<'a> {
    targets: &'a [u32],
    lo: &'a [f64],
    hi: &'a [f64],
}

impl<'a> IntervalRowView<'a> {
    /// Number of interval transitions.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` if the row has no transitions.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Iterates the entries of the row, sorted by target state.
    pub fn iter(self) -> impl Iterator<Item = IntervalEntry> + 'a {
        self.targets
            .iter()
            .zip(self.lo.iter().zip(self.hi.iter()))
            .map(|(&target, (&lo, &hi))| IntervalEntry {
                target: target as State,
                lo,
                hi,
            })
    }

    /// The target states of the row, as raw CSR column indices.
    pub fn targets(&self) -> &'a [u32] {
        self.targets
    }

    /// The lower bounds of the row, aligned with [`IntervalRowView::targets`].
    pub fn lo(&self) -> &'a [f64] {
        self.lo
    }

    /// The upper bounds of the row, aligned with [`IntervalRowView::targets`].
    pub fn hi(&self) -> &'a [f64] {
        self.hi
    }

    /// The interval towards `target`, or `None` if there is no transition.
    pub fn interval_to(&self, target: State) -> Option<IntervalEntry> {
        if target >= u32::MAX as usize {
            return None;
        }
        self.targets
            .binary_search(&(target as u32))
            .ok()
            .map(|i| IntervalEntry {
                target,
                lo: self.lo[i],
                hi: self.hi[i],
            })
    }

    /// Sum of lower bounds.
    pub fn lo_sum(&self) -> f64 {
        self.lo.iter().sum()
    }

    /// Sum of upper bounds.
    pub fn hi_sum(&self) -> f64 {
        self.hi.iter().sum()
    }
}

/// An interval Markov chain (Definition 2.2), once-and-for-all semantics.
///
/// An IMC `[Â]` denotes the set of all DTMCs `A` with the same support whose
/// transition probabilities satisfy `A⁻(s,t) ≤ A(s,t) ≤ A⁺(s,t)` for every
/// transition. Rows are validated for consistency at construction:
/// `lo ≤ hi` elementwise, `Σ lo ≤ 1` and `Σ hi ≥ 1` per state, which
/// guarantees at least one member DTMC exists.
///
/// # Example
///
/// ```
/// use imc_markov::{DtmcBuilder, Imc};
///
/// # fn main() -> Result<(), imc_markov::ModelError> {
/// let mut b = DtmcBuilder::new(2);
/// b.add_transition(0, 0, 0.3)
///     .add_transition(0, 1, 0.7)
///     .add_self_loop(1);
/// let centre = b.build()?;
/// let imc = Imc::from_center(&centre, |_, _| 0.05)?;
/// assert!(imc.contains(&centre));
/// let widest = imc.row(0)?.interval_to(1).unwrap();
/// assert!((widest.lo - 0.65).abs() < 1e-12 && (widest.hi - 0.75).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Imc {
    /// Row offsets and targets; shared with the centre when built by
    /// [`Imc::from_center`].
    pattern: Arc<Pattern>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    initial: State,
    labels: Arc<LabelTable>,
    /// The centre chain `Â` when this IMC was learnt as `Â ± ε`; used as the
    /// optimiser's starting point and as the IS reference chain.
    center: Option<Dtmc>,
}

impl Imc {
    /// Builds an IMC centred on `center`, with per-transition half-width
    /// `eps(from, to)` (clamped so bounds stay within `[0, 1]`).
    ///
    /// This is the `[Â] = [Â − ε, Â + ε]` construction of §II-B of the paper.
    /// Transitions absent from `center` stay absent (support is fixed by the
    /// learnt chain). So the IMC shares the centre's sparsity pattern (its
    /// [`Imc::row_offsets`] and [`Imc::transition_targets`] are the
    /// centre's), its label table and the centre itself ([`Imc::center`]
    /// is a clone, which copies nothing): the build computes the two bound
    /// arrays in one pass over the centre's slots, calling `eps` once per
    /// transition in `(from, to)` order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInterval`] or
    /// [`ModelError::InconsistentIntervalRow`] as [`ImcStreamBuilder`]
    /// would for the same intervals. Neither can happen, since the
    /// half-width is clamped to `eps ≥ 0`, but both are checked anyway.
    pub fn from_center(
        center: &Dtmc,
        mut eps: impl FnMut(State, State) -> f64,
    ) -> Result<Imc, ModelError> {
        let pattern = center.pattern();
        let probs = center.transition_probs();
        let mut lo = Vec::with_capacity(probs.len());
        let mut hi = Vec::with_capacity(probs.len());
        for from in 0..pattern.num_states() {
            let slots = pattern.slots(from);
            for slot in slots.clone() {
                let to = pattern.col_idx[slot] as State;
                let e = eps(from, to).max(0.0);
                let (l, h) = ((probs[slot] - e).max(0.0), (probs[slot] + e).min(1.0));
                check_interval(from, to, l, h)?;
                lo.push(l);
                hi.push(h);
            }
            let bounds = lo[slots.clone()].iter().zip(&hi[slots]);
            check_bounds_consistent(from, bounds.map(|(&l, &h)| (l, h)))?;
        }
        Ok(Imc {
            pattern: Arc::clone(pattern),
            lo,
            hi,
            initial: center.initial(),
            labels: Arc::clone(center.shared_labels()),
            center: Some(center.clone()),
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.pattern.num_states()
    }

    /// Total number of interval transitions (non-zero support entries).
    pub fn num_transitions(&self) -> usize {
        self.pattern.col_idx.len()
    }

    /// The initial state `s0`.
    pub fn initial(&self) -> State {
        self.initial
    }

    /// The interval row of `state`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StateOutOfRange`] if `state >= num_states()`;
    /// this accessor never panics.
    pub fn row(&self, state: State) -> Result<IntervalRowView<'_>, ModelError> {
        if state >= self.num_states() {
            return Err(ModelError::StateOutOfRange {
                state,
                n: self.num_states(),
            });
        }
        Ok(self.row_view(state))
    }

    #[inline]
    fn row_view(&self, state: State) -> IntervalRowView<'_> {
        let slots = self.pattern.slots(state);
        IntervalRowView {
            targets: &self.pattern.col_idx[slots.clone()],
            lo: &self.lo[slots.clone()],
            hi: &self.hi[slots],
        }
    }

    /// Iterates all interval rows in state order.
    pub fn rows(&self) -> impl Iterator<Item = IntervalRowView<'_>> + '_ {
        (0..self.num_states()).map(move |s| self.row_view(s))
    }

    /// The CSR row-offset array; the centre's when built by
    /// [`Imc::from_center`].
    pub fn row_offsets(&self) -> &[usize] {
        &self.pattern.row_ptr
    }

    /// The CSR column-index array (target state of every slot); the
    /// centre's when built by [`Imc::from_center`].
    pub fn transition_targets(&self) -> &[u32] {
        &self.pattern.col_idx
    }

    /// The CSR lower-bound array, aligned with [`Imc::transition_targets`].
    pub fn bounds_lo(&self) -> &[f64] {
        &self.lo
    }

    /// The CSR upper-bound array, aligned with [`Imc::transition_targets`].
    pub fn bounds_hi(&self) -> &[f64] {
        &self.hi
    }

    /// The centre chain `Â`, if this IMC was built around one.
    pub fn center(&self) -> Option<&Dtmc> {
        self.center.as_ref()
    }

    /// Attaches `center` as the IMC's centre chain after verifying
    /// membership.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CenterNotMember`] if `center ∉ [Â]`.
    pub fn with_center(mut self, center: Dtmc) -> Result<Imc, ModelError> {
        if !self.contains(&center) {
            return Err(ModelError::CenterNotMember);
        }
        self.center = Some(center);
        Ok(self)
    }

    /// The set of states carrying `label`, borrowed from the interned
    /// label table. Unknown labels resolve to a shared empty set.
    pub fn labeled_states(&self, label: &str) -> &StateSet {
        self.labels.get(label)
    }

    /// The interned label table.
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// All label names, sorted.
    pub fn label_names(&self) -> impl Iterator<Item = &str> {
        self.labels.names()
    }

    /// Membership test: is `chain ∈ [Â]`?
    ///
    /// `chain` must have the same number of states; every transition of
    /// `chain` must fall inside the corresponding interval, and `chain` must
    /// not use transitions outside the IMC's support.
    ///
    /// Boundary membership is checked with a `1e-12` absolute tolerance:
    /// chains constructed *at* an interval end frequently differ from the
    /// stored bound by an ulp (e.g. `1−(c+ε)` versus `(1−c)−ε`), and
    /// rejecting them would make every boundary workflow flaky.
    pub fn contains(&self, chain: &Dtmc) -> bool {
        const TOLERANCE: f64 = 1e-12;
        if chain.num_states() != self.num_states() {
            return false;
        }
        for (state, row) in chain.rows().enumerate() {
            let interval_row = self.row_view(state);
            for entry in row.iter() {
                match interval_row.interval_to(entry.target) {
                    Some(interval)
                        if entry.prob >= interval.lo - TOLERANCE
                            && entry.prob <= interval.hi + TOLERANCE => {}
                    _ => return false,
                }
            }
            // Support equality in the other direction: interval transitions
            // with lo > 0 must be present in the chain.
            for interval in interval_row.iter() {
                if interval.lo > 0.0 && row.prob_to(interval.target) == 0.0 {
                    return false;
                }
            }
        }
        true
    }

    /// Returns a member DTMC built by clamping `Â`'s rows to the intervals
    /// and renormalising; when the IMC was produced by [`Imc::from_center`]
    /// this simply returns the centre chain.
    ///
    /// # Errors
    ///
    /// Returns an error if renormalisation cannot produce a member (only
    /// possible for hand-built inconsistent supports, which construction
    /// already rejects).
    pub fn some_member(&self) -> Result<Dtmc, ModelError> {
        if let Some(center) = &self.center {
            return Ok(center.clone());
        }
        // Start from interval midpoints and waterfill the defect onto entries
        // with slack so every coordinate stays inside its interval.
        let mut builder = DtmcStreamBuilder::new(self.num_states());
        builder.set_initial(self.initial);
        for (state, row) in self.rows().enumerate() {
            let mut probs: Vec<f64> = row.iter().map(|e| e.mid()).collect();
            let sum: f64 = probs.iter().sum();
            let mut defect = 1.0 - sum;
            for (p, e) in probs.iter_mut().zip(row.iter()) {
                if defect.abs() <= ROW_SUM_TOLERANCE {
                    break;
                }
                let room = if defect > 0.0 { e.hi - *p } else { e.lo - *p };
                let adjust = if defect > 0.0 {
                    defect.min(room)
                } else {
                    defect.max(room)
                };
                *p += adjust;
                defect -= adjust;
            }
            if defect.abs() > ROW_SUM_TOLERANCE {
                return Err(ModelError::InconsistentIntervalRow {
                    state,
                    lo_sum: row.lo_sum(),
                    hi_sum: row.hi_sum(),
                });
            }
            for (p, e) in probs.iter().zip(row.iter()) {
                builder.push_transition(state, e.target, *p)?;
            }
        }
        for (name, set) in self.labels.iter() {
            for state in set.iter() {
                builder.add_label(state, name);
            }
        }
        builder.finish()
    }
}

/// Builder for [`Imc`] accepting triplets in any order (C-BUILDER).
///
/// Methods take `&mut self` and return `&mut Self` for optional chaining.
/// [`ImcBuilder::build`] sorts the triplets once and streams them
/// through the same CSR kernel as [`ImcStreamBuilder`].
#[derive(Debug, Clone)]
pub struct ImcBuilder {
    n: usize,
    initial: State,
    intervals: Vec<(State, State, f64, f64)>,
    labels: BTreeMap<String, Vec<State>>,
}

impl ImcBuilder {
    /// Starts a builder for an IMC with `n` states and initial state 0.
    pub fn new(n: usize) -> Self {
        ImcBuilder {
            n,
            initial: 0,
            intervals: Vec::new(),
            labels: BTreeMap::new(),
        }
    }

    /// Sets the initial state (default 0).
    pub fn set_initial(&mut self, state: State) -> &mut Self {
        self.initial = state;
        self
    }

    /// Adds the interval transition `from -> to` with bounds `[lo, hi]`.
    pub fn add_interval(&mut self, from: State, to: State, lo: f64, hi: f64) -> &mut Self {
        self.intervals.push((from, to, lo, hi));
        self
    }

    /// Adds a point (degenerate) transition `from -> to` of probability `p`.
    pub fn add_exact(&mut self, from: State, to: State, p: f64) -> &mut Self {
        self.add_interval(from, to, p, p)
    }

    /// Attaches `label` to `state`.
    pub fn add_label(&mut self, state: State, label: &str) -> &mut Self {
        add_label(&mut self.labels, state, label);
        self
    }

    /// Validates and constructs the [`Imc`].
    ///
    /// # Errors
    ///
    /// Rejects empty models, out-of-range states, duplicate transitions,
    /// invalid intervals (`lo > hi` or bounds outside `[0, 1]`), rows with no
    /// transitions, and inconsistent rows (`Σ lo > 1` or `Σ hi < 1`).
    pub fn build(self) -> Result<Imc, ModelError> {
        if self.n == 0 {
            return Err(ModelError::EmptyModel);
        }
        if self.initial >= self.n {
            return Err(ModelError::StateOutOfRange {
                state: self.initial,
                n: self.n,
            });
        }
        let mut triplets = self.intervals;
        triplets.sort_unstable_by_key(|t| (t.0, t.1));
        let mut stream = ImcStreamBuilder::new(self.n);
        stream.set_initial(self.initial);
        stream.labels = self.labels;
        for (from, to, lo, hi) in triplets {
            stream.push_interval(from, to, lo, hi)?;
        }
        stream.finish()
    }
}

/// Streaming builder for [`Imc`]: interval triplets arrive in ascending
/// `(from, to)` order and are appended directly to the CSR arrays.
///
/// The zero-intermediate-state construction path used by the `file`
/// scenario loader and the large generated scenarios. Out-of-order input
/// is a typed [`ModelError::OutOfOrderTransition`].
#[derive(Debug, Clone)]
pub struct ImcStreamBuilder {
    core: CsrAssembler<(f64, f64)>,
    initial: State,
    labels: BTreeMap<String, Vec<State>>,
}

impl ImcStreamBuilder {
    /// Starts a streaming builder for an IMC with `n` states.
    pub fn new(n: usize) -> Self {
        ImcStreamBuilder {
            core: CsrAssembler::new(n),
            initial: 0,
            labels: BTreeMap::new(),
        }
    }

    /// Sets the initial state (default 0); validated at
    /// [`ImcStreamBuilder::finish`].
    pub fn set_initial(&mut self, state: State) -> &mut Self {
        self.initial = state;
        self
    }

    /// Attaches `label` to `state`; validated at
    /// [`ImcStreamBuilder::finish`].
    pub fn add_label(&mut self, state: State, label: &str) -> &mut Self {
        add_label(&mut self.labels, state, label);
        self
    }

    /// Appends the interval transition `from -> to` with bounds `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Range, ordering, duplicate and interval violations are reported
    /// immediately; an inconsistent completed row is reported on the first
    /// transition of the next row.
    pub fn push_interval(
        &mut self,
        from: State,
        to: State,
        lo: f64,
        hi: f64,
    ) -> Result<(), ModelError> {
        if let Push::ClosedRow { state, start, end } = self.core.push(from, to, (lo, hi))? {
            check_bounds_consistent(state, self.core.values()[start..end].iter().copied())?;
        }
        check_interval(from, to, lo, hi)
    }

    /// Validates the final row, the initial state and the labels, and
    /// returns the finished [`Imc`].
    ///
    /// # Errors
    ///
    /// As for [`ImcBuilder::build`].
    pub fn finish(self) -> Result<Imc, ModelError> {
        let n = self.core.num_states();
        if n == 0 {
            return Err(ModelError::EmptyModel);
        }
        if self.initial >= n {
            return Err(ModelError::StateOutOfRange {
                state: self.initial,
                n,
            });
        }
        let (pattern, bounds, last_state, last_row) = self.core.finish()?;
        check_bounds_consistent(last_state, bounds[last_row].iter().copied())?;
        let (lo, hi): (Vec<f64>, Vec<f64>) = bounds.into_iter().unzip();
        let labels = LabelTable::from_map(n, self.labels)?;
        Ok(Imc {
            pattern: Arc::new(pattern),
            lo,
            hi,
            initial: self.initial,
            labels: Arc::new(labels),
            center: None,
        })
    }
}

/// Checks one interval: finite bounds with `0 ≤ lo ≤ hi ≤ 1`.
fn check_interval(from: State, to: State, lo: f64, hi: f64) -> Result<(), ModelError> {
    if !(lo.is_finite() && hi.is_finite()) || lo > hi || lo < 0.0 || hi > 1.0 {
        return Err(ModelError::InvalidInterval { from, to, lo, hi });
    }
    Ok(())
}

/// Checks that the row of `state` admits a distribution: its `(lo, hi)`
/// bounds, summed in slot order, give `Σ lo ≤ 1` and `Σ hi ≥ 1` within
/// [`ROW_SUM_TOLERANCE`].
fn check_bounds_consistent(
    state: State,
    bounds: impl Iterator<Item = (f64, f64)>,
) -> Result<(), ModelError> {
    let mut lo_sum = 0.0;
    let mut hi_sum = 0.0;
    for (lo, hi) in bounds {
        lo_sum += lo;
        hi_sum += hi;
    }
    if lo_sum > 1.0 + ROW_SUM_TOLERANCE || hi_sum < 1.0 - ROW_SUM_TOLERANCE {
        return Err(ModelError::InconsistentIntervalRow {
            state,
            lo_sum,
            hi_sum,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DtmcBuilder;

    fn centre() -> Dtmc {
        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 1, 0.3)
            .add_transition(0, 2, 0.7)
            .add_self_loop(1)
            .add_self_loop(2)
            .add_label(2, "goal");
        b.build().unwrap()
    }

    #[test]
    fn from_center_clamps_to_unit_interval() {
        let imc = Imc::from_center(&centre(), |_, _| 0.5).unwrap();
        let e = imc.row(0).unwrap().interval_to(1).unwrap();
        assert_eq!(e.lo, 0.0);
        assert!((e.hi - 0.8).abs() < 1e-12);
        let loop1 = imc.row(1).unwrap().interval_to(1).unwrap();
        assert_eq!(loop1.hi, 1.0);
    }

    #[test]
    fn center_is_member_and_preserved() {
        let c = centre();
        let imc = Imc::from_center(&c, |_, _| 0.01).unwrap();
        assert!(imc.contains(&c));
        assert_eq!(imc.center(), Some(&c));
        assert!(imc.labeled_states("goal").contains(2));
    }

    #[test]
    fn from_center_matches_the_streaming_builder_and_shares_the_centre() {
        let c = centre();
        let eps = |from: State, to: State| 0.2 * (from + to) as f64;
        let imc = Imc::from_center(&c, eps).unwrap();
        let mut b = ImcStreamBuilder::new(3);
        for (from, row) in c.rows().enumerate() {
            for e in row.iter() {
                let w = eps(from, e.target);
                let (lo, hi) = ((e.prob - w).max(0.0), (e.prob + w).min(1.0));
                b.push_interval(from, e.target, lo, hi).unwrap();
            }
        }
        b.add_label(2, "goal");
        let reference = b.finish().unwrap().with_center(c.clone()).unwrap();
        assert_eq!(imc, reference);
        assert!(std::ptr::eq(imc.row_offsets(), c.row_offsets()));
        assert!(std::ptr::eq(
            imc.transition_targets(),
            c.transition_targets()
        ));
        assert!(std::ptr::eq(imc.labels(), c.labels()));
        let center = imc.center().unwrap();
        assert!(std::ptr::eq(
            center.transition_probs(),
            c.transition_probs()
        ));
    }

    #[test]
    fn row_is_a_checked_accessor() {
        let imc = Imc::from_center(&centre(), |_, _| 0.01).unwrap();
        assert!(imc.row(0).is_ok());
        assert!(matches!(
            imc.row(3),
            Err(ModelError::StateOutOfRange { state: 3, n: 3 })
        ));
    }

    #[test]
    fn membership_rejects_out_of_interval() {
        let imc = Imc::from_center(&centre(), |_, _| 0.01).unwrap();
        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 1, 0.35)
            .add_transition(0, 2, 0.65)
            .add_self_loop(1)
            .add_self_loop(2);
        let outside = b.build().unwrap();
        assert!(!imc.contains(&outside));
    }

    #[test]
    fn membership_rejects_support_mismatch() {
        let imc = Imc::from_center(&centre(), |_, _| 0.01).unwrap();
        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 0, 0.3)
            .add_transition(0, 2, 0.7)
            .add_self_loop(1)
            .add_self_loop(2);
        let different_support = b.build().unwrap();
        assert!(!imc.contains(&different_support));
    }

    #[test]
    fn with_center_validates_membership() {
        let c = centre();
        let imc = Imc::from_center(&c, |_, _| 0.01).unwrap();
        let mut bare = imc.clone();
        bare.center = None;
        let again = bare.clone().with_center(c).unwrap();
        assert!(again.center().is_some());

        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 1, 0.5)
            .add_transition(0, 2, 0.5)
            .add_self_loop(1)
            .add_self_loop(2);
        let outside = b.build().unwrap();
        assert!(matches!(
            bare.with_center(outside),
            Err(ModelError::CenterNotMember)
        ));
    }

    #[test]
    fn builder_rejects_inconsistent_row() {
        // Σ hi = 0.8 < 1: no distribution fits.
        let mut b = ImcBuilder::new(2);
        b.add_interval(0, 0, 0.1, 0.4)
            .add_interval(0, 1, 0.1, 0.4)
            .add_exact(1, 1, 1.0);
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            ModelError::InconsistentIntervalRow { state: 0, .. }
        ));
    }

    #[test]
    fn builder_rejects_reversed_bounds() {
        let mut b = ImcBuilder::new(1);
        b.add_interval(0, 0, 0.9, 0.2);
        let err = b.build().unwrap_err();
        assert!(matches!(err, ModelError::InvalidInterval { .. }));
    }

    #[test]
    fn streaming_builder_rejects_out_of_order() {
        let mut s = ImcStreamBuilder::new(2);
        s.push_interval(0, 1, 0.5, 1.0).unwrap();
        let err = s.push_interval(0, 0, 0.0, 0.5).unwrap_err();
        assert!(matches!(
            err,
            ModelError::OutOfOrderTransition { from: 0, to: 0 }
        ));
    }

    #[test]
    fn some_member_without_center_is_consistent() {
        let mut b = ImcBuilder::new(2);
        b.add_interval(0, 0, 0.1, 0.3)
            .add_interval(0, 1, 0.5, 0.95)
            .add_exact(1, 1, 1.0);
        let imc = b.build().unwrap();
        let member = imc.some_member().unwrap();
        assert!(imc.contains(&member));
    }

    #[test]
    fn some_member_waterfills_when_midpoints_do_not_sum_to_one() {
        // Midpoints: 0.2 and 0.5 => defect 0.3 pushed into the second entry.
        let mut b = ImcBuilder::new(2);
        b.add_interval(0, 0, 0.1, 0.3)
            .add_interval(0, 1, 0.2, 0.9)
            .add_exact(1, 1, 1.0);
        let imc = b.build().unwrap();
        let member = imc.some_member().unwrap();
        assert!(imc.contains(&member));
        assert!((member.row(0).unwrap().sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interval_entry_helpers() {
        let e = IntervalEntry {
            target: 0,
            lo: 0.2,
            hi: 0.6,
        };
        assert!((e.mid() - 0.4).abs() < 1e-15);
        assert!((e.half_width() - 0.2).abs() < 1e-15);
        assert!(e.contains(0.2) && e.contains(0.6) && !e.contains(0.61));
    }
}
