use crate::{Edge, State};

/// A finite path `ω = ω_0 → ω_1 → … → ω_l` through a chain.
///
/// The *length* `|ω|` is the number of transitions, i.e. one less than the
/// number of visited states.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    states: Vec<State>,
}

impl Path {
    /// Creates a path from its sequence of visited states.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty — a path visits at least its start state.
    pub fn new(states: Vec<State>) -> Self {
        assert!(!states.is_empty(), "a path must visit at least one state");
        Path { states }
    }

    /// The visited states, in order.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The number of transitions `|ω|`.
    pub fn len(&self) -> usize {
        self.states.len() - 1
    }

    /// Returns `true` if the path has no transitions.
    pub fn is_empty(&self) -> bool {
        self.states.len() == 1
    }

    /// First state of the path.
    pub fn first(&self) -> State {
        self.states[0]
    }

    /// Last state of the path.
    pub fn last(&self) -> State {
        *self.states.last().expect("paths are non-empty")
    }

    /// Iterates over the transitions `(ω_{i-1}, ω_i)`.
    pub fn transitions(&self) -> impl Iterator<Item = (State, State)> + '_ {
        self.states.windows(2).map(|w| (w[0], w[1]))
    }

    /// Appends a state to the path.
    pub fn push(&mut self, state: State) {
        self.states.push(state);
    }
}

/// Steps a [`TransitionCounts`] logs before it counts them: the log never
/// holds more than this many words, however long the trace.
const COMPACT_LEN: usize = 4096;

/// Per-path transition count table: `n_ij(ω)` for each observed transition.
///
/// This is the on-the-fly table of Algorithm 1 (lines 6–12): the set of
/// transitions `T_k` with their multiplicities `n_k(s_i, s_j)`. The symbolic
/// likelihood ratio of a path is entirely determined by its table, so traces
/// themselves never need to be stored.
///
/// A table keys each transition by its [`Edge`] id in the chain the trace
/// was sampled under, the CSR slot the sampler picked; the chain decodes an
/// id with [`Dtmc::edge`](crate::Dtmc::edge). A chain's slots are sorted by
/// `(from, to)`, so the ascending edge order of a table is its `(from, to)`
/// order.
///
/// [`record`](TransitionCounts::record) appends each step to a flat log as
/// one `u32` word; the table counts by sorting when it is frozen. Every 4096
/// steps the log is sorted and merged into a sorted run list of distinct
/// edges, so a table's heap is at most that log plus one entry per distinct
/// edge.
///
/// Tables of different traces frequently coincide (rare-event workloads
/// revisit the same few successful path shapes); the canonical sorted
/// [`frozen`](TransitionCounts::frozen) form is the deduplication key, and
/// `Eq` compares tables by it.
///
/// Costs, for a table whose log holds `l` steps and whose run list holds `d`
/// distinct edges: `record` is amortised O(1); `frozen_into` sorts the
/// log, O(l log l + d); `count` is O(l + log d); `total` is O(d);
/// `is_empty` and `clear` are O(1); `frozen`, `iter`, `num_distinct` and
/// `==` freeze a copy, O(l log l + d) plus an allocation; `merge` records
/// `other`'s log and sorts the two run lists together.
#[derive(Debug, Clone, Default)]
pub struct TransitionCounts {
    /// Steps not yet counted, one edge id each, in recording order; never
    /// longer than `COMPACT_LEN`.
    log: Vec<Edge>,
    /// Steps counted so far: distinct edges with their counts, ascending.
    runs: Vec<(Edge, u64)>,
}

/// Appends the run-length encoding of the sorted `edges` to `out`.
fn push_runs(edges: &[Edge], out: &mut Vec<(Edge, u64)>) {
    for run in edges.chunk_by(|a, b| a == b) {
        out.push((run[0], run.len() as u64));
    }
}

/// Sorts `runs` by edge and adds up the counts of equal edges.
fn coalesce(runs: &mut Vec<(Edge, u64)>) {
    // Stable: on two ascending halves this is one linear merge.
    runs.sort_by_key(|&(edge, _)| edge);
    runs.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
}

impl TransitionCounts {
    /// Creates an empty table.
    pub fn new() -> Self {
        TransitionCounts::default()
    }

    /// Records one step along edge `edge`.
    pub fn record(&mut self, edge: Edge) {
        self.log.push(edge);
        if self.log.len() == COMPACT_LEN {
            self.compact();
        }
    }

    /// Counts the log into the run list and empties it.
    fn compact(&mut self) {
        self.log.sort_unstable();
        let counted = self.runs.len();
        push_runs(&self.log, &mut self.runs);
        self.log.clear();
        if counted > 0 {
            coalesce(&mut self.runs);
        }
    }

    /// The multiplicity `n_ij` of edge `edge` (0 if unobserved).
    pub fn count(&self, edge: Edge) -> u64 {
        let counted = self
            .runs
            .binary_search_by_key(&edge, |&(e, _)| e)
            .map_or(0, |i| self.runs[i].1);
        counted + self.log.iter().filter(|&&e| e == edge).count() as u64
    }

    /// Number of *distinct* edges observed.
    pub fn num_distinct(&self) -> usize {
        self.frozen().len()
    }

    /// Total number of recorded steps, `Σ n_ij = |ω|`.
    pub fn total(&self) -> u64 {
        self.runs.iter().map(|&(_, n)| n).sum::<u64>() + self.log.len() as u64
    }

    /// Returns `true` if no step was recorded.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty() && self.runs.is_empty()
    }

    /// Iterates over `(edge, n_ij)`. It walks the frozen form, so the
    /// order is ascending, but callers should not rely on an order.
    pub fn iter(&self) -> impl Iterator<Item = (Edge, u64)> + '_ {
        self.frozen().into_iter()
    }

    /// Removes every recorded step, keeping the allocated capacity — batch
    /// simulation loops reuse one table across traces.
    pub fn clear(&mut self) {
        self.log.clear();
        self.runs.clear();
    }

    /// Freezes the table into a canonical vector of `(edge, n_ij)` sorted
    /// by edge, suitable for use as a deduplication key.
    pub fn frozen(&self) -> Vec<(Edge, u64)> {
        let mut buf = Vec::new();
        self.clone().frozen_into(&mut buf);
        buf
    }

    /// Allocation-free [`TransitionCounts::frozen`]: clears `buf` and fills
    /// it with the canonical sorted form, reusing its capacity. Sorts the
    /// log in place, which changes no count.
    pub fn frozen_into(&mut self, buf: &mut Vec<(Edge, u64)>) {
        buf.clear();
        if self.runs.is_empty() {
            self.log.sort_unstable();
            push_runs(&self.log, buf);
        } else {
            self.compact();
            buf.extend_from_slice(&self.runs);
        }
    }

    /// Merges another table of the same chain into this one (used to build
    /// the union table `T = ∪_k T_k` of Algorithm 1 line 16).
    pub fn merge(&mut self, other: &TransitionCounts) {
        for &edge in &other.log {
            self.record(edge);
        }
        if !other.runs.is_empty() {
            self.runs.extend_from_slice(&other.runs);
            coalesce(&mut self.runs);
        }
    }
}

impl PartialEq for TransitionCounts {
    fn eq(&self, other: &Self) -> bool {
        self.frozen() == other.frozen()
    }
}

impl Eq for TransitionCounts {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dtmc, DtmcBuilder};
    use std::collections::BTreeMap;

    #[test]
    fn path_basics() {
        let path = Path::new(vec![0, 1, 0, 1, 2]);
        assert_eq!(path.len(), 4);
        assert!(!path.is_empty());
        assert_eq!(path.first(), 0);
        assert_eq!(path.last(), 2);
        assert_eq!(
            path.transitions().collect::<Vec<_>>(),
            vec![(0, 1), (1, 0), (0, 1), (1, 2)]
        );
    }

    #[test]
    fn singleton_path_is_empty() {
        let path = Path::new(vec![7]);
        assert!(path.is_empty());
        assert_eq!(path.len(), 0);
        assert_eq!(path.first(), path.last());
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_path_panics() {
        let _ = Path::new(vec![]);
    }

    /// The chain the tests' paths walk: 0 → {1, 2}, 1 → {0, 2}, 2 absorbing.
    fn chain() -> Dtmc {
        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 1, 0.5)
            .add_transition(0, 2, 0.5)
            .add_transition(1, 0, 0.5)
            .add_transition(1, 2, 0.5)
            .add_self_loop(2);
        b.build().unwrap()
    }

    fn table(edges: impl IntoIterator<Item = Edge>) -> TransitionCounts {
        let mut table = TransitionCounts::new();
        for edge in edges {
            table.record(edge);
        }
        table
    }

    #[test]
    fn counts_match_path() {
        let chain = chain();
        let edge = |from, to| chain.edge_id(from, to).expect("the chain has the step");
        let path = Path::new(vec![0, 1, 0, 1, 2]);
        let counts = table(path.transitions().map(|(from, to)| edge(from, to)));
        assert_eq!(counts.count(edge(0, 1)), 2);
        assert_eq!(counts.count(edge(1, 0)), 1);
        assert_eq!(counts.count(edge(1, 2)), 1);
        assert_eq!(counts.count(edge(0, 2)), 0);
        assert_eq!(counts.total(), path.len() as u64);
        assert_eq!(counts.num_distinct(), 3);
        // Decoded through the chain, ascending edges are ascending pairs.
        let decoded: Vec<((State, State), u64)> =
            counts.iter().map(|(e, n)| (chain.edge(e), n)).collect();
        assert_eq!(decoded, vec![((0, 1), 2), ((1, 0), 1), ((1, 2), 1)]);
    }

    #[test]
    fn frozen_is_canonical_and_hashable() {
        let a = table([3, 0, 0]);
        let b = table([0, 3, 0]);
        assert_eq!(a, b);
        assert_eq!(a.frozen(), b.frozen());
        assert_eq!(a.frozen(), vec![(0, 2), (3, 1)]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = table([0]);
        a.merge(&table([0, 4]));
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(4), 1);
    }

    #[test]
    fn push_extends_path() {
        let mut path = Path::new(vec![0]);
        path.push(3);
        path.push(1);
        assert_eq!(path.states(), &[0, 3, 1]);
    }

    /// A seeded walk of `len` steps over 200 edge ids spread across the
    /// whole `u32` range, a handful of successors per step, so that steps
    /// repeat.
    fn walk(seed: u64, len: usize) -> Vec<Edge> {
        const SPREAD: [Edge; 4] = [0, 7, 1 << 31, u32::MAX - 49];
        let mut x = seed;
        let mut next = || {
            // SplitMix64.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut at = next() % 40;
        (0..len)
            .map(|_| {
                let step = next() % 5;
                let i = at * 5 + step;
                at = (at + step) % 40;
                SPREAD[(i % 4) as usize] + (i / 4) as Edge
            })
            .collect()
    }

    fn reference(steps: &[Edge]) -> BTreeMap<Edge, u64> {
        let mut map = BTreeMap::new();
        for &step in steps {
            *map.entry(step).or_insert(0) += 1;
        }
        map
    }

    fn assert_matches(table: &TransitionCounts, steps: &[Edge]) {
        let map = reference(steps);
        let expected: Vec<(Edge, u64)> = map.iter().map(|(&k, &n)| (k, n)).collect();
        assert_eq!(table.frozen(), expected);
        assert_eq!(table.iter().collect::<Vec<_>>(), expected);
        assert_eq!(table.total(), steps.len() as u64);
        assert_eq!(table.num_distinct(), map.len());
        assert_eq!(table.is_empty(), steps.is_empty());
        for (&edge, &n) in &map {
            assert_eq!(table.count(edge), n);
            let next = edge.wrapping_add(1);
            assert_eq!(table.count(next), map.get(&next).copied().unwrap_or(0));
        }
        assert_eq!(table.count(1000), 0);
        let mut copy = table.clone();
        let mut buf = vec![(9, 9)];
        copy.frozen_into(&mut buf);
        assert_eq!(buf, expected);
        assert_eq!(&copy, table, "freezing changes no count");
    }

    #[test]
    fn count_tables_match_a_sorted_map_reference() {
        for (seed, len) in [(1, 0), (2, 1), (3, 2), (4, 57), (5, 3 * COMPACT_LEN + 123)] {
            let steps = walk(seed, len);
            let table_of = |steps: &[Edge]| table(steps.iter().copied());
            let whole = table_of(&steps);
            assert_matches(&whole, &steps);

            // The same steps in another order give an equal table.
            let reversed = table(steps.iter().rev().copied());
            assert_eq!(reversed, whole);
            if !steps.is_empty() {
                assert_ne!(table_of(&steps[1..]), whole);
            }

            // Recording after a freeze keeps counting.
            let mut grown = whole.clone();
            grown.frozen_into(&mut Vec::new());
            let more = walk(seed + 100, 1000);
            for &edge in &more {
                grown.record(edge);
            }
            let all: Vec<Edge> = steps.iter().chain(&more).copied().collect();
            assert_matches(&grown, &all);

            // Merging two parts gives the whole, whichever side holds runs.
            for cut in [0, len / 3, len] {
                let mut head = table_of(&steps[..cut]);
                head.merge(&table_of(&steps[cut..]));
                assert_matches(&head, &steps);
            }
            let mut both = walk(seed + 200, 2 * COMPACT_LEN);
            let mut big = table_of(&both);
            big.merge(&whole);
            both.extend_from_slice(&steps);
            assert_matches(&big, &both);
        }
    }

    #[test]
    fn a_cleared_table_counts_like_a_fresh_one() {
        let long = walk(11, 2 * COMPACT_LEN + 5);
        let short = walk(12, 30);
        let mut reused = table(long);
        reused.clear();
        assert!(reused.is_empty());
        assert_eq!(reused.total(), 0);
        for &edge in &short {
            reused.record(edge);
        }
        let fresh = table(short.iter().copied());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        reused.frozen_into(&mut a);
        fresh.clone().frozen_into(&mut b);
        assert_eq!(a, b);
        assert_eq!(reused, fresh);
        assert_matches(&reused, &short);
    }

    #[test]
    fn a_million_step_self_loop_keeps_the_log_bounded() {
        let mut table = TransitionCounts::new();
        for _ in 0..1_000_000 {
            table.record(3);
            assert!(table.log.len() <= COMPACT_LEN);
        }
        assert!(table.log.capacity() <= COMPACT_LEN);
        assert!(table.runs.capacity() <= 4, "{}", table.runs.capacity());
        assert_eq!(table.count(3), 1_000_000);
        assert_eq!(table.frozen(), vec![(3, 1_000_000)]);
    }

    #[test]
    fn heap_is_bounded_by_the_log_and_the_distinct_transitions() {
        let mut table = TransitionCounts::new();
        for edge in walk(21, 50 * COMPACT_LEN) {
            table.record(edge);
            assert!(table.log.len() <= COMPACT_LEN);
        }
        let distinct = table.num_distinct();
        assert!(distinct > 100, "the walk repeats only {distinct} edges");
        assert!(table.log.capacity() <= COMPACT_LEN);
        assert!(
            table.runs.capacity() <= 4 * distinct,
            "{} run slots for {distinct} edges",
            table.runs.capacity()
        );
    }
}
