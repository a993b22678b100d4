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
//!
//! A chain never changes once built, so its storage is shared rather than
//! copied: clones share all of it, and [`Dtmc::reweighted`] gives new
//! probabilities to the same transitions, sharing the `row_ptr`/`col_idx`
//! pattern and the labels.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::csr::{CsrAssembler, Pattern, Push};
use crate::labels::add_label;
use crate::{AliasTable, Edge, LabelTable, ModelError, Path, State, StateSet, ROW_SUM_TOLERANCE};

/// A single sparse transition: target state and probability.
#[derive(Debug, Clone, Copy, PartialEq)]
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
/// The storage is immutable and shared: cloning a `Dtmc` copies no array,
/// and clones share the alias tables too. Equality compares transitions,
/// probabilities, initial state and labels, not the derived tables.
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
#[derive(Debug, Clone)]
pub struct Dtmc(Arc<Chain>);

/// The storage of a [`Dtmc`], shared by its clones.
#[derive(Debug)]
struct Chain {
    /// Row offsets and targets, shared with the chains reweighted from
    /// this one and the IMCs built around it.
    pattern: Arc<Pattern>,
    /// Probability of every slot, aligned with `pattern.col_idx`.
    probs: Vec<f64>,
    initial: State,
    labels: Arc<LabelTable>,
    /// The Walker tables, built on first sampling.
    alias: OnceLock<AliasTable>,
}

impl PartialEq for Dtmc {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        Arc::ptr_eq(&self.0, &other.0)
            || (self.same_pattern(other)
                && a.probs == b.probs
                && a.initial == b.initial
                && a.labels == b.labels)
    }
}

impl Dtmc {
    fn from_parts(
        pattern: Arc<Pattern>,
        probs: Vec<f64>,
        initial: State,
        labels: Arc<LabelTable>,
    ) -> Dtmc {
        Dtmc(Arc::new(Chain {
            pattern,
            probs,
            initial,
            labels,
            alias: OnceLock::new(),
        }))
    }

    /// The shared sparsity pattern, for the IMCs built around this chain.
    pub(crate) fn pattern(&self) -> &Arc<Pattern> {
        &self.0.pattern
    }

    /// The shared label table, for the IMCs built around this chain.
    pub(crate) fn shared_labels(&self) -> &Arc<LabelTable> {
        &self.0.labels
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.0.pattern.num_states()
    }

    /// Total number of transitions (non-zero matrix entries).
    pub fn num_transitions(&self) -> usize {
        self.0.pattern.col_idx.len()
    }

    /// The initial state `s0`.
    pub fn initial(&self) -> State {
        self.0.initial
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
        let slots = self.0.pattern.slots(state);
        RowView {
            targets: &self.0.pattern.col_idx[slots.clone()],
            probs: &self.0.probs[slots],
        }
    }

    /// Iterates all rows in state order.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> + '_ {
        (0..self.num_states()).map(move |s| self.row_view(s))
    }

    /// The CSR row-offset array: the slot range of state `s` is
    /// `row_offsets()[s]..row_offsets()[s + 1]`. Shared with every chain
    /// reweighted from this one and every IMC built around it.
    pub fn row_offsets(&self) -> &[usize] {
        &self.0.pattern.row_ptr
    }

    /// The CSR column-index array (target state of every slot), shared
    /// like [`Dtmc::row_offsets`].
    pub fn transition_targets(&self) -> &[u32] {
        &self.0.pattern.col_idx
    }

    /// The CSR value array (probability of every slot), aligned with
    /// [`Dtmc::transition_targets`].
    pub fn transition_probs(&self) -> &[f64] {
        &self.0.probs
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
        let pattern = &*self.0.pattern;
        let to = pattern.col_idx[edge] as State;
        (pattern.row_ptr.partition_point(|&p| p <= edge) - 1, to)
    }

    /// The CSR slot of transition `from -> to`, or `None` if the chain has
    /// no such transition: a binary search in row `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn edge_id(&self, from: State, to: State) -> Option<Edge> {
        let to = u32::try_from(to).ok()?;
        let slots = self.0.pattern.slots(from);
        let start = slots.start;
        let pos = self.0.pattern.col_idx[slots].binary_search(&to).ok()?;
        Some((start + pos) as Edge)
    }

    /// The Walker alias tables of the chain, built on the first call and
    /// kept for the chain's lifetime (12 bytes per transition). Every
    /// later call, from any thread, borrows the same tables; threads that
    /// first call it at the same time wait for one build. Clones share
    /// the tables, whenever they were built. The tables belong to the
    /// probabilities, not to the pattern: a chain made by
    /// [`Dtmc::reweighted`] or [`Dtmc::with_rows`] builds its own.
    ///
    /// # Panics
    ///
    /// Panics if the chain has `u32::MAX` transitions or more.
    pub fn alias_table(&self) -> &AliasTable {
        self.0.alias.get_or_init(|| AliasTable::build(self))
    }

    /// A 64-bit fingerprint of the chain's sparsity pattern (its row
    /// offsets and targets, not its probabilities), computed on the first
    /// call and kept with the pattern, so the chains that share a pattern
    /// compute it once. Count tables key transitions by [`Edge`] id, and an
    /// edge id means the same transition in two chains exactly when their
    /// patterns agree; a sampled run records this value to refuse a chain
    /// with another pattern.
    pub fn pattern_fingerprint(&self) -> u64 {
        self.0.pattern.fingerprint()
    }

    /// Returns `true` if `other` has exactly this chain's sparsity
    /// pattern, so that edge `e` is the same transition in both. Chains
    /// that share one pattern (a chain, its clones, the chains
    /// [`Dtmc::reweighted`] from it and the centre of an IMC built around
    /// it) answer by one pointer comparison; others compare the arrays.
    pub fn same_pattern(&self, other: &Dtmc) -> bool {
        Arc::ptr_eq(&self.0.pattern, &other.0.pattern) || self.0.pattern == other.0.pattern
    }

    /// The set of states carrying `label`, borrowed from the interned
    /// label table. Unknown labels resolve to a shared empty set (over the
    /// empty universe), so no allocation or clone happens per call.
    pub fn labeled_states(&self, label: &str) -> &StateSet {
        self.0.labels.get(label)
    }

    /// The interned label table.
    pub fn labels(&self) -> &LabelTable {
        &self.0.labels
    }

    /// All label names, sorted.
    pub fn label_names(&self) -> impl Iterator<Item = &str> {
        self.0.labels.names()
    }

    /// Returns `true` if `state` carries `label`.
    pub fn has_label(&self, state: State, label: &str) -> bool {
        self.0.labels.get(label).contains(state)
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

    /// The chain with this chain's transitions and new probabilities:
    /// `probs[e]` is the probability of edge `e`. The result shares this
    /// chain's sparsity pattern, initial state and labels, and so has the
    /// same [`Edge`] ids; only the probabilities are stored anew.
    ///
    /// Every row is checked as [`Dtmc::with_rows`] checks a replaced row,
    /// with one difference: a zero probability is refused, where
    /// `with_rows` silently drops the transition. A reweighting keeps
    /// every transition; an importance-sampling chain that loses one the
    /// original can take would bias its estimate.
    ///
    /// # Errors
    ///
    /// * [`ModelError::ProbabilityOutOfRange`], naming the transition, for
    ///   a value that is not finite or not in `(0, 1]`;
    /// * [`ModelError::NotStochastic`], naming the state, for a row whose
    ///   sum, taken in slot order, is off one by more than
    ///   [`ROW_SUM_TOLERANCE`].
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != self.num_transitions()`.
    pub fn reweighted(&self, probs: Vec<f64>) -> Result<Dtmc, ModelError> {
        let pattern = &self.0.pattern;
        assert_eq!(
            probs.len(),
            pattern.col_idx.len(),
            "reweighted takes one probability per transition"
        );
        for state in 0..pattern.num_states() {
            let slots = pattern.slots(state);
            for e in slots.clone() {
                let value = probs[e];
                if !(value > 0.0 && value <= 1.0) {
                    return Err(ModelError::ProbabilityOutOfRange {
                        from: state,
                        to: pattern.col_idx[e] as State,
                        value,
                    });
                }
            }
            check_stochastic(state, &probs[slots])?;
        }
        Ok(Dtmc::from_parts(
            Arc::clone(pattern),
            probs,
            self.0.initial,
            Arc::clone(&self.0.labels),
        ))
    }

    /// Replaces the probability rows of selected states, revalidating them.
    ///
    /// This is how a row-wise update materialises a new chain: start from
    /// the current one and substitute the rows it re-fits. A replaced row
    /// may drop or add transitions, so the CSR arrays are reassembled in
    /// one linear pass; the labels are shared. To give new probabilities
    /// to the same transitions, [`Dtmc::reweighted`] shares the pattern
    /// too.
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
        let pattern = &*self.0.pattern;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(pattern.col_idx.len());
        let mut probs = Vec::with_capacity(self.0.probs.len());
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
                    let slots = pattern.slots(s);
                    col_idx.extend_from_slice(&pattern.col_idx[slots.clone()]);
                    probs.extend_from_slice(&self.0.probs[slots]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Dtmc::from_parts(
            Arc::new(Pattern::new(row_ptr, col_idx)),
            probs,
            self.0.initial,
            Arc::clone(&self.0.labels),
        ))
    }

    /// The states with a transition *into* `state` (predecessors).
    pub fn predecessors(&self) -> Vec<Vec<State>> {
        let pattern = &*self.0.pattern;
        let mut preds = vec![Vec::new(); self.num_states()];
        for from in 0..self.num_states() {
            for &to in &pattern.col_idx[pattern.slots(from)] {
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
        add_label(&mut self.labels, state, label);
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
        add_label(&mut self.labels, state, label);
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
            check_stochastic(state, &self.core.values()[start..end])?;
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
        let (pattern, probs, last_state, last_row) = self.core.finish()?;
        check_stochastic(last_state, &probs[last_row])?;
        let labels = LabelTable::from_map(n, self.labels)?;
        Ok(Dtmc::from_parts(
            Arc::new(pattern),
            probs,
            self.initial,
            Arc::new(labels),
        ))
    }
}

/// Checks that the row of `state` sums, in slot order, to one within
/// [`ROW_SUM_TOLERANCE`].
fn check_stochastic(state: State, probs: &[f64]) -> Result<(), ModelError> {
    let mut sum = 0.0;
    for &p in probs {
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
        let early_clone = chain.clone();
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
        assert!(std::ptr::eq(chain.alias_table(), early_clone.alias_table()));
        assert_eq!(
            builds(),
            before + 1,
            "clones share the tables, made before the build or after"
        );
        let rebuilt = chain.with_rows(std::iter::empty()).unwrap();
        assert_eq!(rebuilt, chain, "equality ignores the tables");
        assert!(!std::ptr::eq(chain.alias_table(), rebuilt.alias_table()));
        assert_eq!(
            builds(),
            before + 2,
            "a chain made by with_rows builds its own"
        );
        let reweighted = chain.reweighted(chain.transition_probs().to_vec()).unwrap();
        assert_eq!(reweighted, chain);
        assert!(!std::ptr::eq(chain.alias_table(), reweighted.alias_table()));
        assert_eq!(
            builds(),
            before + 3,
            "a reweighted chain builds its own, though it shares the pattern"
        );
    }

    #[test]
    fn reweighted_shares_the_pattern_and_replaces_the_probabilities() {
        let chain = two_state();
        let b = chain.reweighted(vec![0.5, 0.5, 1.0]).unwrap();
        assert_eq!(b.transition_probs(), &[0.5, 0.5, 1.0]);
        assert_eq!(chain.prob(0, 0), 0.25, "original untouched");
        assert!(std::ptr::eq(b.row_offsets(), chain.row_offsets()));
        assert!(std::ptr::eq(
            b.transition_targets(),
            chain.transition_targets()
        ));
        assert!(b.same_pattern(&chain));
        assert_eq!(b.initial(), chain.initial());
        assert!(b.labeled_states("done").contains(1));
    }

    #[test]
    fn reweighted_refuses_a_value_outside_zero_one_naming_the_transition() {
        let chain = two_state();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.25, 1.5] {
            let err = chain.reweighted(vec![0.25, bad, 1.0]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ModelError::ProbabilityOutOfRange { from: 0, to: 1, value }
                        if value.to_bits() == bad.to_bits()
                ),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn reweighted_refuses_a_row_off_one_naming_the_state() {
        let chain = two_state();
        let err = chain.reweighted(vec![0.25, 0.75, 0.9]).unwrap_err();
        assert!(
            matches!(err, ModelError::NotStochastic { state: 1, sum } if sum == 0.9),
            "{err:?}"
        );
        // Within ROW_SUM_TOLERANCE is accepted, as by `with_rows`.
        assert!(chain.reweighted(vec![0.25, 0.75 + 1e-12, 1.0]).is_ok());
    }

    #[test]
    #[should_panic(expected = "one probability per transition")]
    fn reweighted_panics_on_a_vector_of_the_wrong_length() {
        let _ = two_state().reweighted(vec![0.25, 0.75]);
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
