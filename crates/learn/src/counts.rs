use std::collections::BTreeMap;

use imc_markov::{Path, State};

/// Aggregated transition counts over a set of observed paths: `n_ij` per
/// transition and `n_i = Σ_j n_ij` per source state.
///
/// This is the sufficient statistic for frequentist Markov chain learning
/// (§II-B): `â_ij = n_ij / n_i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountTable {
    n_states: usize,
    counts: BTreeMap<(State, State), u64>,
    source_totals: Vec<u64>,
    n_paths: u64,
}

impl CountTable {
    /// Creates an empty table over `n_states` states.
    pub fn new(n_states: usize) -> Self {
        CountTable {
            n_states,
            counts: BTreeMap::new(),
            source_totals: vec![0; n_states],
            n_paths: 0,
        }
    }

    /// Number of states of the underlying system.
    pub fn num_states(&self) -> usize {
        self.n_states
    }

    /// Records a single observed transition.
    ///
    /// # Panics
    ///
    /// Panics if either state is out of range.
    pub fn record(&mut self, from: State, to: State) {
        assert!(
            from < self.n_states && to < self.n_states,
            "state out of range"
        );
        *self.counts.entry((from, to)).or_insert(0) += 1;
        self.source_totals[from] += 1;
    }

    /// Records every transition of an observed path.
    pub fn record_path(&mut self, path: &Path) {
        for (from, to) in path.transitions() {
            self.record(from, to);
        }
        self.n_paths += 1;
    }

    /// `n_ij`: occurrences of `from -> to`.
    pub fn count(&self, from: State, to: State) -> u64 {
        self.counts.get(&(from, to)).copied().unwrap_or(0)
    }

    /// `n_i`: total transitions observed out of `from`.
    pub fn source_total(&self, from: State) -> u64 {
        self.source_totals[from]
    }

    /// Number of recorded paths.
    pub fn num_paths(&self) -> u64 {
        self.n_paths
    }

    /// Total transitions recorded.
    pub fn total(&self) -> u64 {
        self.source_totals.iter().sum()
    }

    /// Iterates over `((from, to), n_ij)` in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = ((State, State), u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// The observed successors of `from`, with counts.
    pub fn successors(&self, from: State) -> Vec<(State, u64)> {
        self.counts
            .range((from, 0)..=(from, self.n_states.saturating_sub(1)))
            .map(|(&(_, to), &n)| (to, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_paths_and_totals() {
        let mut table = CountTable::new(3);
        table.record_path(&Path::new(vec![0, 1, 0, 2]));
        table.record_path(&Path::new(vec![0, 1]));
        assert_eq!(table.count(0, 1), 2);
        assert_eq!(table.count(1, 0), 1);
        assert_eq!(table.count(0, 2), 1);
        assert_eq!(table.source_total(0), 3);
        assert_eq!(table.source_total(1), 1);
        assert_eq!(table.source_total(2), 0);
        assert_eq!(table.num_paths(), 2);
        assert_eq!(table.total(), 4);
    }

    #[test]
    fn successors_are_sorted_and_scoped() {
        let mut table = CountTable::new(4);
        table.record(1, 3);
        table.record(1, 0);
        table.record(1, 0);
        table.record(2, 1);
        assert_eq!(table.successors(1), vec![(0, 2), (3, 1)]);
        assert_eq!(table.successors(0), vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_states_rejected() {
        CountTable::new(2).record(0, 5);
    }
}
