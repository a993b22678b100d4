//! Discrete-time Markov chains on the sparse CSR kernel.
//!
//! A [`Dtmc`] stores its transition matrix as three contiguous arrays —
//! `row_ptr` (row offsets), `col_idx` (target states) and `probs`
//! (probabilities) — the classic compressed-sparse-row layout. Rows are
//! borrowed as [`RowView`]s; no per-row allocations exist anywhere in the
//! model.
//!
//! Construction funnels through one sorted-triplet kernel:
//!
//! * [`DtmcBuilder`] collects `(from, to, prob)` triplets in any order and
//!   sorts them once at [`DtmcBuilder::build`];
//! * [`DtmcStreamBuilder`] accepts triplets already in ascending
//!   `(from, to)` order and appends them straight into the CSR arrays —
//!   the streaming path used by the `file` scenario loader.
//!
//! Both validate eagerly with typed [`ModelError`]s: duplicate transitions,
//! out-of-range states, non-stochastic rows and (for the streaming path)
//! out-of-order triplets are all construction-time errors, never silent
//! last-write-wins.
//!
//! A transition is also addressed by its [`Edge`] id, its slot in the CSR
//! arrays: [`Dtmc::edge`] decodes one to `(from, to)` and
//! [`Dtmc::edge_id`] finds one. The chain's Walker tables
//! ([`Dtmc::alias_table`]) and its [`Dtmc::pattern_fingerprint`] are
//! derived on first use and kept.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::csr::{CsrAssembler, Push};
use crate::{AliasTable, Edge, LabelTable, ModelError, Path, State, StateSet, ROW_SUM_TOLERANCE};

/// A single sparse transition: target state and probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RowEntry {
    /// Target state of the transition.
    pub target: State,
    /// Transition probability, in `(0, 1]`.
    pub prob: f64,
}

/// A borrowed view of one probability row of a [`Dtmc`].
///
/// The view borrows the model's CSR arrays directly: `targets()` and
/// `probs()` are slices of the shared `col_idx` / value storage, sorted by
/// target state. The view is `Copy`; iterate with [`RowView::iter`].
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    targets: &'a [u32],
    probs: &'a [f64],
}

impl<'a> RowView<'a> {
    /// Number of outgoing transitions.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` if the row has no transitions.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Iterates the entries of the row, sorted by target state.
    pub fn iter(self) -> impl Iterator<Item = RowEntry> + 'a {
        self.targets
            .iter()
            .zip(self.probs.iter())
            .map(|(&target, &prob)| RowEntry {
                target: target as State,
                prob,
            })
    }

    /// The target state of the `i`-th entry.
    pub fn target(&self, i: usize) -> State {
        self.targets[i] as State
    }

    /// The probability of the `i`-th entry.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// The target states of the row, as raw CSR column indices.
    pub fn targets(&self) -> &'a [u32] {
        self.targets
    }

    /// The probabilities of the row, aligned with [`RowView::targets`].
    pub fn probs(&self) -> &'a [f64] {
        self.probs
    }

    /// Probability of moving to `target`, or `0.0` if there is no transition.
    pub fn prob_to(&self, target: State) -> f64 {
        if target >= u32::MAX as usize {
            return 0.0;
        }
        self.targets
            .binary_search(&(target as u32))
            .map_or(0.0, |i| self.probs[i])
    }

    /// Sum of the row's probabilities.
    pub fn sum(&self) -> f64 {
        self.probs.iter().sum()
    }
}

/// A discrete-time Markov chain (Definition 2.1 of the paper).
///
/// States are dense indices `0..n`. The transition matrix is stored in
/// compressed-sparse-row form — contiguous `(row_ptr, col_idx, probs)`
/// arrays — so million-state sparse chains fit in memory and the hot
/// sampling loops stream through flat arrays. Rows are validated to be
/// stochastic at construction time, so every `Dtmc` value is well formed.
/// Atomic propositions are interned in a [`LabelTable`].
///
/// Construct via [`DtmcBuilder`] (triplets in any order) or
/// [`DtmcStreamBuilder`] (pre-sorted triplets, zero intermediate state).
///
/// # Example
///
/// ```
/// use imc_markov::DtmcBuilder;
///
/// # fn main() -> Result<(), imc_markov::ModelError> {
/// let mut builder = DtmcBuilder::new(2);
/// builder
///     .add_transition(0, 0, 0.25)
///     .add_transition(0, 1, 0.75)
///     .add_self_loop(1)
///     .add_label(1, "done");
/// let chain = builder.build()?;
/// assert_eq!(chain.row(0)?.prob_to(1), 0.75);
/// assert!(chain.labeled_states("done").contains(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dtmc {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    probs: Vec<f64>,
    initial: State,
    labels: LabelTable,
    derived: Derived,
}

/// What a chain derives from its CSR arrays on first use. A `Dtmc` never
/// changes after construction, so clones share these, and equality
/// ignores them.
#[derive(Debug, Clone, Default)]
struct Derived {
    alias: OnceLock<Arc<AliasTable>>,
    pattern: OnceLock<u64>,
}

impl PartialEq for Derived {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Dtmc {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Total number of transitions (non-zero matrix entries).
    pub fn num_transitions(&self) -> usize {
        self.col_idx.len()
    }

    /// The initial state `s0`.
    pub fn initial(&self) -> State {
        self.initial
    }

    /// The probability row of `state`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StateOutOfRange`] if `state >= num_states()`;
    /// this accessor never panics.
    pub fn row(&self, state: State) -> Result<RowView<'_>, ModelError> {
        if state >= self.num_states() {
            return Err(ModelError::StateOutOfRange {
                state,
                n: self.num_states(),
            });
        }
        Ok(self.row_view(state))
    }

    #[inline]
    fn row_view(&self, state: State) -> RowView<'_> {
        let (start, end) = (self.row_ptr[state], self.row_ptr[state + 1]);
        RowView {
            targets: &self.col_idx[start..end],
            probs: &self.probs[start..end],
        }
    }

    /// Iterates all rows in state order.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> + '_ {
        (0..self.num_states()).map(move |s| self.row_view(s))
    }

    /// The CSR row-offset array: the slot range of state `s` is
    /// `row_offsets()[s]..row_offsets()[s + 1]`.
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The CSR column-index array (target state of every slot).
    pub fn transition_targets(&self) -> &[u32] {
        &self.col_idx
    }

    /// The CSR value array (probability of every slot), aligned with
    /// [`Dtmc::transition_targets`].
    pub fn transition_probs(&self) -> &[f64] {
        &self.probs
    }

    /// One-step transition probability `A(from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range. Out-of-range `to` yields `0.0`.
    pub fn prob(&self, from: State, to: State) -> f64 {
        self.row_view(from).prob_to(to)
    }

    /// The transition `(from, to)` stored in CSR slot `edge`: a binary
    /// search over the row offsets.
    ///
    /// # Panics
    ///
    /// Panics if `edge >= num_transitions()`.
    pub fn edge(&self, edge: Edge) -> (State, State) {
        let edge = edge as usize;
        let to = self.col_idx[edge] as State;
        (self.row_ptr.partition_point(|&p| p <= edge) - 1, to)
    }

    /// The CSR slot of transition `from -> to`, or `None` if the chain has
    /// no such transition: a binary search in row `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn edge_id(&self, from: State, to: State) -> Option<Edge> {
        let to = u32::try_from(to).ok()?;
        let start = self.row_ptr[from];
        let pos = self.col_idx[start..self.row_ptr[from + 1]]
            .binary_search(&to)
            .ok()?;
        Some((start + pos) as Edge)
    }

    /// The Walker alias tables of the chain, built on the first call and
    /// kept for the chain's lifetime (12 bytes per transition). Every
    /// later call, from any thread, borrows the same tables; threads that
    /// first call it at the same time wait for one build. Clones share
    /// the tables; a chain made by [`Dtmc::with_rows`] builds its own.
    ///
    /// # Panics
    ///
    /// Panics if the chain has `u32::MAX` transitions or more.
    pub fn alias_table(&self) -> &AliasTable {
        self.derived
            .alias
            .get_or_init(|| Arc::new(AliasTable::build(self)))
    }

    /// A 64-bit fingerprint of the chain's sparsity pattern (its row
    /// offsets and targets, not its probabilities), computed on the first
    /// call and kept. Count tables key transitions by [`Edge`] id, and an
    /// edge id means the same transition in two chains exactly when their
    /// patterns agree; a sampled run records this value to refuse a chain
    /// with another pattern.
    pub fn pattern_fingerprint(&self) -> u64 {
        *self
            .derived
            .pattern
            .get_or_init(|| fingerprint(&self.row_ptr, &self.col_idx))
    }

    /// Returns `true` if `other` has exactly this chain's sparsity
    /// pattern, so that edge `e` is the same transition in both.
    pub fn same_pattern(&self, other: &Dtmc) -> bool {
        std::ptr::eq(self, other)
            || (self.row_ptr == other.row_ptr && self.col_idx == other.col_idx)
    }

    /// The set of states carrying `label`, borrowed from the interned
    /// label table. Unknown labels resolve to a shared empty set (over the
    /// empty universe), so no allocation or clone happens per call.
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

    /// Returns `true` if `state` carries `label`.
    pub fn has_label(&self, state: State, label: &str) -> bool {
        self.labels.get(label).contains(state)
    }

    /// Natural log of the path probability; `-inf` for impossible paths.
    ///
    /// Long rare-event paths underflow `f64` products quickly (a path of a
    /// thousand `1e-3` steps has probability `1e-3000`), so all
    /// likelihood-ratio computations in this workspace work in log space.
    pub fn path_log_prob(&self, path: &Path) -> f64 {
        path.transitions()
            .map(|(from, to)| self.prob(from, to).ln())
            .sum()
    }

    /// Replaces the probability rows of selected states, revalidating them.
    ///
    /// This is how optimisers materialise a candidate `A ∈ [Â]`: start from
    /// the centre chain and substitute the rows under optimisation. The CSR
    /// arrays are reassembled in one linear pass.
    ///
    /// # Errors
    ///
    /// Returns an error if any new row is not a probability distribution or
    /// mentions an out-of-range state.
    pub fn with_rows(
        &self,
        new_rows: impl IntoIterator<Item = (State, Vec<RowEntry>)>,
    ) -> Result<Dtmc, ModelError> {
        let n = self.num_states();
        let mut repl: BTreeMap<State, Vec<RowEntry>> = BTreeMap::new();
        for (state, entries) in new_rows {
            if state >= n {
                return Err(ModelError::StateOutOfRange { state, n });
            }
            repl.insert(state, validate_entries(state, entries, n)?);
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.col_idx.len());
        let mut probs = Vec::with_capacity(self.probs.len());
        row_ptr.push(0);
        for s in 0..n {
            match repl.get(&s) {
                Some(entries) => {
                    for e in entries {
                        col_idx.push(e.target as u32);
                        probs.push(e.prob);
                    }
                }
                None => {
                    let (start, end) = (self.row_ptr[s], self.row_ptr[s + 1]);
                    col_idx.extend_from_slice(&self.col_idx[start..end]);
                    probs.extend_from_slice(&self.probs[start..end]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Dtmc {
            row_ptr,
            col_idx,
            probs,
            initial: self.initial,
            labels: self.labels.clone(),
            derived: Derived::default(),
        })
    }

    /// The states with a transition *into* `state` (predecessors).
    pub fn predecessors(&self) -> Vec<Vec<State>> {
        let mut preds = vec![Vec::new(); self.num_states()];
        for from in 0..self.num_states() {
            for &to in &self.col_idx[self.row_ptr[from]..self.row_ptr[from + 1]] {
                preds[to as usize].push(from);
            }
        }
        preds
    }
}

/// Builder for [`Dtmc`] accepting triplets in any order (C-BUILDER).
///
/// Collects `(from, to, prob)` triplets, sorts them once at
/// [`DtmcBuilder::build`], and feeds them through the same sorted-triplet
/// CSR kernel as [`DtmcStreamBuilder`]. Methods take `&mut self` and
/// return `&mut Self` for optional chaining.
#[derive(Debug, Clone)]
pub struct DtmcBuilder {
    n: usize,
    initial: State,
    transitions: Vec<(State, State, f64)>,
    labels: BTreeMap<String, Vec<State>>,
}

impl DtmcBuilder {
    /// Starts a builder for a chain with `n` states and initial state 0.
    pub fn new(n: usize) -> Self {
        DtmcBuilder {
            n,
            initial: 0,
            transitions: Vec::new(),
            labels: BTreeMap::new(),
        }
    }

    /// Sets the initial state (default 0).
    pub fn set_initial(&mut self, state: State) -> &mut Self {
        self.initial = state;
        self
    }

    /// Adds transition `from -> to` with probability `prob`.
    ///
    /// Zero-probability transitions are dropped silently, which lets callers
    /// write parameterised models without special-casing vanishing terms.
    pub fn add_transition(&mut self, from: State, to: State, prob: f64) -> &mut Self {
        if prob != 0.0 {
            self.transitions.push((from, to, prob));
        }
        self
    }

    /// Adds a probability-1 self loop on `state` (an absorbing state).
    pub fn add_self_loop(&mut self, state: State) -> &mut Self {
        self.add_transition(state, state, 1.0)
    }

    /// Attaches `label` to `state`. A state may carry many labels.
    pub fn add_label(&mut self, state: State, label: &str) -> &mut Self {
        self.labels.entry(label.to_owned()).or_default().push(state);
        self
    }

    /// Adds an entire probability row at once.
    pub fn add_row(
        &mut self,
        from: State,
        entries: impl IntoIterator<Item = (State, f64)>,
    ) -> &mut Self {
        for (to, prob) in entries {
            self.add_transition(from, to, prob);
        }
        self
    }

    /// Validates and constructs the [`Dtmc`].
    ///
    /// Triplets are sorted by `(from, to)` and streamed through the CSR
    /// kernel; validation is single-pass over the sorted triplets.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyModel`] if `n == 0`;
    /// * [`ModelError::StateOutOfRange`] for any out-of-range state;
    /// * [`ModelError::DuplicateTransition`] if a transition appears twice;
    /// * [`ModelError::ProbabilityOutOfRange`] for probabilities outside `[0, 1]`;
    /// * [`ModelError::NoOutgoingTransitions`] / [`ModelError::NotStochastic`]
    ///   if any row is missing or does not sum to one.
    pub fn build(self) -> Result<Dtmc, ModelError> {
        if self.n == 0 {
            return Err(ModelError::EmptyModel);
        }
        if self.initial >= self.n {
            return Err(ModelError::StateOutOfRange {
                state: self.initial,
                n: self.n,
            });
        }
        let mut triplets = self.transitions;
        triplets.sort_unstable_by_key(|t| (t.0, t.1));
        let mut stream = DtmcStreamBuilder::new(self.n);
        stream.set_initial(self.initial);
        stream.labels = self.labels;
        for (from, to, prob) in triplets {
            stream.push_transition(from, to, prob)?;
        }
        stream.finish()
    }
}

/// Streaming builder for [`Dtmc`]: triplets arrive in ascending
/// `(from, to)` order and are appended directly to the CSR arrays.
///
/// This is the zero-intermediate-state construction path: no triplet
/// buffer, no sort, no per-row maps. Each completed row is validated as
/// soon as the next row starts. Out-of-order input is a typed
/// [`ModelError::OutOfOrderTransition`].
///
/// # Example
///
/// ```
/// use imc_markov::DtmcStreamBuilder;
///
/// # fn main() -> Result<(), imc_markov::ModelError> {
/// let mut b = DtmcStreamBuilder::new(2);
/// b.push_transition(0, 0, 0.25)?;
/// b.push_transition(0, 1, 0.75)?;
/// b.push_transition(1, 1, 1.0)?;
/// b.add_label(1, "done");
/// let chain = b.finish()?;
/// assert_eq!(chain.num_transitions(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DtmcStreamBuilder {
    core: CsrAssembler<f64>,
    initial: State,
    labels: BTreeMap<String, Vec<State>>,
}

impl DtmcStreamBuilder {
    /// Starts a streaming builder for a chain with `n` states.
    pub fn new(n: usize) -> Self {
        DtmcStreamBuilder {
            core: CsrAssembler::new(n),
            initial: 0,
            labels: BTreeMap::new(),
        }
    }

    /// Sets the initial state (default 0); validated at
    /// [`DtmcStreamBuilder::finish`].
    pub fn set_initial(&mut self, state: State) -> &mut Self {
        self.initial = state;
        self
    }

    /// Attaches `label` to `state`; validated at
    /// [`DtmcStreamBuilder::finish`].
    pub fn add_label(&mut self, state: State, label: &str) -> &mut Self {
        self.labels.entry(label.to_owned()).or_default().push(state);
        self
    }

    /// Appends transition `from -> to` with probability `prob`.
    ///
    /// `(from, to)` must be strictly greater (lexicographically) than the
    /// previous transition. Zero-probability transitions are dropped
    /// silently, as in [`DtmcBuilder::add_transition`].
    ///
    /// # Errors
    ///
    /// Range, ordering, duplicate and probability violations are reported
    /// immediately; a completed row that is not stochastic is reported on
    /// the first transition of the next row.
    pub fn push_transition(&mut self, from: State, to: State, prob: f64) -> Result<(), ModelError> {
        if prob == 0.0 {
            return Ok(());
        }
        if let Push::ClosedRow { state, start, end } = self.core.push(from, to, prob)? {
            check_row_stochastic(state, start, end, &self.core)?;
        }
        if !prob.is_finite() || !(0.0..=1.0).contains(&prob) {
            return Err(ModelError::ProbabilityOutOfRange {
                from,
                to,
                value: prob,
            });
        }
        Ok(())
    }

    /// Validates the final row, the initial state and the labels, and
    /// returns the finished [`Dtmc`].
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyModel`] if the builder was created with `n == 0`;
    /// * [`ModelError::StateOutOfRange`] if the initial state or a labelled
    ///   state is out of range;
    /// * [`ModelError::NoOutgoingTransitions`] if any state received no
    ///   transitions;
    /// * [`ModelError::NotStochastic`] if the final row does not sum to one.
    pub fn finish(self) -> Result<Dtmc, ModelError> {
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
        let (row_ptr, col_idx, probs, last_state, start, end) = self.core.finish()?;
        let mut sum = 0.0;
        for &p in &probs[start..end] {
            sum += p;
        }
        if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
            return Err(ModelError::NotStochastic {
                state: last_state,
                sum,
            });
        }
        let labels = LabelTable::from_map(n, self.labels)?;
        Ok(Dtmc {
            row_ptr,
            col_idx,
            probs,
            initial: self.initial,
            labels,
            derived: Derived::default(),
        })
    }
}

/// Folds a sparsity pattern into 64 bits: one multiply-rotate step per
/// word (targets two to a word), finished by the SplitMix64 avalanche.
fn fingerprint(row_ptr: &[usize], col_idx: &[u32]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let mut h = step(row_ptr.len() as u64, col_idx.len() as u64);
    for &offset in row_ptr {
        h = step(h, offset as u64);
    }
    let pairs = col_idx.chunks_exact(2);
    if let [last] = pairs.remainder() {
        h = step(h, u64::from(*last));
    }
    for pair in pairs {
        h = step(h, u64::from(pair[0]) | u64::from(pair[1]) << 32);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Validates the row that just closed in the assembler.
fn check_row_stochastic(
    state: State,
    start: usize,
    end: usize,
    core: &CsrAssembler<f64>,
) -> Result<(), ModelError> {
    let mut sum = 0.0;
    for &p in &core.values()[start..end] {
        sum += p;
    }
    if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
        return Err(ModelError::NotStochastic { state, sum });
    }
    Ok(())
}

/// Sorts, checks ranges/duplicates, and verifies a replacement row is
/// stochastic (the [`Dtmc::with_rows`] path).
fn validate_entries(
    state: State,
    mut entries: Vec<RowEntry>,
    n: usize,
) -> Result<Vec<RowEntry>, ModelError> {
    if entries.is_empty() {
        return Err(ModelError::NoOutgoingTransitions { state });
    }
    entries.retain(|e| e.prob != 0.0);
    if entries.is_empty() {
        return Err(ModelError::NoOutgoingTransitions { state });
    }
    entries.sort_by_key(|e| e.target);
    for pair in entries.windows(2) {
        if pair[0].target == pair[1].target {
            return Err(ModelError::DuplicateTransition {
                from: state,
                to: pair[0].target,
            });
        }
    }
    let mut sum = 0.0;
    for entry in &entries {
        if entry.target >= n {
            return Err(ModelError::StateOutOfRange {
                state: entry.target,
                n,
            });
        }
        if !entry.prob.is_finite() || entry.prob < 0.0 || entry.prob > 1.0 {
            return Err(ModelError::ProbabilityOutOfRange {
                from: state,
                to: entry.target,
                value: entry.prob,
            });
        }
        sum += entry.prob;
    }
    if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
        return Err(ModelError::NotStochastic { state, sum });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Path;

    fn two_state() -> Dtmc {
        let mut b = DtmcBuilder::new(2);
        b.add_transition(0, 0, 0.25)
            .add_transition(0, 1, 0.75)
            .add_self_loop(1)
            .add_label(1, "done");
        b.build().unwrap()
    }

    #[test]
    fn builds_and_queries() {
        let chain = two_state();
        assert_eq!(chain.num_states(), 2);
        assert_eq!(chain.num_transitions(), 3);
        assert_eq!(chain.prob(0, 1), 0.75);
        assert_eq!(chain.prob(1, 0), 0.0);
        assert!(chain.has_label(1, "done"));
        assert!(!chain.has_label(0, "done"));
        assert!(chain.labeled_states("missing").is_empty());
    }

    #[test]
    fn csr_arrays_are_exposed() {
        let chain = two_state();
        assert_eq!(chain.row_offsets(), &[0, 2, 3]);
        assert_eq!(chain.transition_targets(), &[0, 1, 1]);
        assert_eq!(chain.transition_probs(), &[0.25, 0.75, 1.0]);
    }

    #[test]
    fn row_is_a_checked_accessor() {
        let chain = two_state();
        assert_eq!(chain.row(0).unwrap().prob_to(1), 0.75);
        assert!(matches!(
            chain.row(7),
            Err(ModelError::StateOutOfRange { state: 7, n: 2 })
        ));
    }

    #[test]
    fn labeled_states_is_borrowed() {
        let chain = two_state();
        let a: &StateSet = chain.labeled_states("done");
        let b: &StateSet = chain.labeled_states("done");
        assert!(std::ptr::eq(a, b), "lookups must not clone");
        assert_eq!(chain.labeled_states("missing").universe(), 0);
    }

    #[test]
    fn streaming_builder_matches_batch_builder() {
        let mut s = DtmcStreamBuilder::new(2);
        s.push_transition(0, 0, 0.25).unwrap();
        s.push_transition(0, 1, 0.75).unwrap();
        s.push_transition(1, 1, 1.0).unwrap();
        s.add_label(1, "done");
        assert_eq!(s.finish().unwrap(), two_state());
    }

    #[test]
    fn streaming_builder_rejects_out_of_order() {
        let mut s = DtmcStreamBuilder::new(3);
        s.push_transition(0, 2, 0.5).unwrap();
        let err = s.push_transition(0, 1, 0.5).unwrap_err();
        assert!(matches!(
            err,
            ModelError::OutOfOrderTransition { from: 0, to: 1 }
        ));
        let mut s = DtmcStreamBuilder::new(3);
        s.push_transition(0, 0, 1.0).unwrap();
        s.push_transition(1, 1, 1.0).unwrap();
        let err = s.push_transition(0, 0, 1.0).unwrap_err();
        assert!(matches!(
            err,
            ModelError::OutOfOrderTransition { from: 0, to: 0 }
        ));
    }

    #[test]
    fn streaming_builder_reports_skipped_rows() {
        let mut s = DtmcStreamBuilder::new(3);
        s.push_transition(0, 0, 1.0).unwrap();
        let err = s.push_transition(2, 2, 1.0).unwrap_err();
        assert!(matches!(
            err,
            ModelError::NoOutgoingTransitions { state: 1 }
        ));
    }

    #[test]
    fn rejects_non_stochastic_row() {
        let mut b = DtmcBuilder::new(2);
        b.add_transition(0, 1, 0.5).add_self_loop(1);
        let err = b.build().unwrap_err();
        assert!(matches!(err, ModelError::NotStochastic { state: 0, .. }));
    }

    #[test]
    fn rejects_duplicate_transition() {
        let mut b = DtmcBuilder::new(2);
        b.add_transition(0, 1, 0.5)
            .add_transition(0, 1, 0.5)
            .add_self_loop(1);
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            ModelError::DuplicateTransition { from: 0, to: 1 }
        ));
    }

    #[test]
    fn rejects_out_of_range_target() {
        let mut b = DtmcBuilder::new(2);
        b.add_transition(0, 5, 1.0).add_self_loop(1);
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            ModelError::StateOutOfRange { state: 5, n: 2 }
        ));
    }

    #[test]
    fn rejects_negative_probability() {
        let mut b = DtmcBuilder::new(2);
        b.add_transition(0, 0, -0.5)
            .add_transition(0, 1, 1.5)
            .add_self_loop(1);
        let err = b.build().unwrap_err();
        assert!(matches!(err, ModelError::ProbabilityOutOfRange { .. }));
    }

    #[test]
    fn rejects_missing_row() {
        let mut b = DtmcBuilder::new(2);
        b.add_self_loop(1);
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            ModelError::NoOutgoingTransitions { state: 0 }
        ));
    }

    #[test]
    fn rejects_empty_model() {
        assert!(matches!(
            DtmcBuilder::new(0).build().unwrap_err(),
            ModelError::EmptyModel
        ));
    }

    #[test]
    fn path_probability_multiplies_steps() {
        let chain = two_state();
        let path = Path::new(vec![0, 0, 1]);
        assert!((chain.path_log_prob(&path) - (0.25f64.ln() + 0.75f64.ln())).abs() < 1e-12);
    }

    #[test]
    fn impossible_path_has_zero_probability() {
        let chain = two_state();
        let path = Path::new(vec![1, 0]);
        assert_eq!(chain.path_log_prob(&path), f64::NEG_INFINITY);
    }

    #[test]
    fn with_rows_replaces_and_validates() {
        let chain = two_state();
        let swapped = chain
            .with_rows([(
                0,
                vec![
                    RowEntry {
                        target: 0,
                        prob: 0.5,
                    },
                    RowEntry {
                        target: 1,
                        prob: 0.5,
                    },
                ],
            )])
            .unwrap();
        assert_eq!(swapped.prob(0, 0), 0.5);
        // Original untouched.
        assert_eq!(chain.prob(0, 0), 0.25);

        let bad = chain.with_rows([(
            0,
            vec![RowEntry {
                target: 1,
                prob: 0.5,
            }],
        )]);
        assert!(matches!(bad, Err(ModelError::NotStochastic { .. })));
    }

    #[test]
    fn predecessors_inverts_edges() {
        let chain = two_state();
        let preds = chain.predecessors();
        assert_eq!(preds[1], vec![0, 1]);
        assert_eq!(preds[0], vec![0]);
    }

    #[test]
    fn edges_are_csr_slots_in_pair_order() {
        let chain = two_state();
        let pairs: Vec<(State, State)> = (0..3).map(|e| chain.edge(e)).collect();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 1)]);
        for (e, &(from, to)) in pairs.iter().enumerate() {
            assert_eq!(chain.edge_id(from, to), Some(e as Edge));
        }
        assert_eq!(chain.edge_id(1, 0), None);
        assert_eq!(chain.edge_id(0, 7), None);
    }

    #[test]
    fn alias_tables_are_built_once_per_chain() {
        use crate::alias::BUILDS;
        use std::sync::atomic::Ordering;
        // The only test of this crate that builds alias tables.
        let builds = || BUILDS.load(Ordering::SeqCst);
        let chain = two_state();
        let before = builds();
        // Two threads ask for the tables of a new chain at the same time.
        let barrier = std::sync::Barrier::new(2);
        let seen: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        chain.alias_table() as *const AliasTable as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(seen[0], seen[1], "both threads borrow one table");
        assert_eq!(builds(), before + 1, "built once");
        assert!(std::ptr::eq(
            chain.alias_table(),
            chain.clone().alias_table()
        ));
        assert_eq!(builds(), before + 1, "a clone shares the tables");
        let rebuilt = chain.with_rows(std::iter::empty()).unwrap();
        assert_eq!(rebuilt, chain, "equality ignores the tables");
        assert!(!std::ptr::eq(chain.alias_table(), rebuilt.alias_table()));
        assert_eq!(
            builds(),
            before + 2,
            "a chain made by with_rows builds its own"
        );
    }

    #[test]
    fn patterns_ignore_probabilities() {
        let chain = two_state();
        let reweighted = chain
            .with_rows([(
                0,
                vec![
                    RowEntry {
                        target: 0,
                        prob: 0.5,
                    },
                    RowEntry {
                        target: 1,
                        prob: 0.5,
                    },
                ],
            )])
            .unwrap();
        assert!(chain.same_pattern(&reweighted));
        assert_eq!(
            chain.pattern_fingerprint(),
            reweighted.pattern_fingerprint()
        );
        let rewired = chain
            .with_rows([(
                0,
                vec![RowEntry {
                    target: 1,
                    prob: 1.0,
                }],
            )])
            .unwrap();
        assert!(!chain.same_pattern(&rewired));
        assert_ne!(chain.pattern_fingerprint(), rewired.pattern_fingerprint());
    }

    #[test]
    fn zero_probability_transitions_are_dropped() {
        let mut b = DtmcBuilder::new(2);
        b.add_transition(0, 0, 0.0)
            .add_transition(0, 1, 1.0)
            .add_self_loop(1);
        let chain = b.build().unwrap();
        assert_eq!(chain.row(0).unwrap().len(), 1);
    }
}
