/// A compact bit-set over state indices `0..n`.
///
/// Used throughout the workspace for target/avoid sets of reachability
/// properties and for the results of graph analyses.
///
/// # Example
///
/// ```
/// use imc_markov::StateSet;
///
/// let mut set = StateSet::new(10);
/// set.insert(3);
/// set.insert(7);
/// assert!(set.contains(3));
/// assert!(!set.contains(4));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateSet {
    words: Vec<u64>,
    n: usize,
}

/// The canonical empty set over the empty universe.
///
/// Returned by borrowed label lookups ([`crate::Dtmc::labeled_states`]) when
/// the label is unknown: `contains` is `false` for every state and `iter` is
/// empty, so it behaves like an empty set over any universe for read-only
/// use.
pub(crate) static EMPTY_STATE_SET: StateSet = StateSet {
    words: Vec::new(),
    n: 0,
};

impl StateSet {
    /// Creates an empty set over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        StateSet {
            words: vec![0; n.div_ceil(64)],
            n,
        }
    }

    /// Creates a set containing every state of the universe `0..n`.
    pub fn full(n: usize) -> Self {
        let mut set = StateSet::new(n);
        for state in 0..n {
            set.insert(state);
        }
        set
    }

    /// Creates a set from an iterator of states.
    ///
    /// # Panics
    ///
    /// Panics if any state is `>= n`.
    pub fn from_states<I: IntoIterator<Item = usize>>(n: usize, states: I) -> Self {
        let mut set = StateSet::new(n);
        for state in states {
            set.insert(state);
        }
        set
    }

    /// Size of the universe this set ranges over.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Inserts `state`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `state >= universe()`.
    pub fn insert(&mut self, state: usize) -> bool {
        assert!(state < self.n, "state {state} out of range 0..{}", self.n);
        let (word, bit) = (state / 64, state % 64);
        let had = self.words[word] & (1 << bit) != 0;
        self.words[word] |= 1 << bit;
        !had
    }

    /// Removes `state`; returns `true` if it was present.
    pub fn remove(&mut self, state: usize) -> bool {
        if state >= self.n {
            return false;
        }
        let (word, bit) = (state / 64, state % 64);
        let had = self.words[word] & (1 << bit) != 0;
        self.words[word] &= !(1 << bit);
        had
    }

    /// Returns `true` if `state` is in the set.
    pub fn contains(&self, state: usize) -> bool {
        state < self.n && self.words[state / 64] & (1 << (state % 64)) != 0
    }

    /// Number of states in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            (0..64)
                .filter(move |bit| word & (1u64 << bit) != 0)
                .map(move |bit| wi * 64 + bit)
        })
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &StateSet) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Returns the complement of the set within its universe.
    pub fn complement(&self) -> StateSet {
        let mut out = StateSet::new(self.n);
        for state in 0..self.n {
            if !self.contains(state) {
                out.insert(state);
            }
        }
        out
    }
}

impl FromIterator<usize> for StateSet {
    /// Collects states into a set whose universe is one past the largest
    /// state observed (or 0 for an empty iterator).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let states: Vec<usize> = iter.into_iter().collect();
        let n = states.iter().max().map_or(0, |&m| m + 1);
        StateSet::from_states(n, states)
    }
}

impl Extend<usize> for StateSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for state in iter {
            self.insert(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut set = StateSet::new(130);
        assert!(set.insert(0));
        assert!(set.insert(129));
        assert!(!set.insert(129));
        assert!(set.contains(0));
        assert!(set.contains(129));
        assert!(!set.contains(64));
        assert_eq!(set.len(), 2);
        assert!(set.remove(0));
        assert!(!set.remove(0));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn iter_in_order() {
        let set = StateSet::from_states(200, [5, 70, 199, 0]);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 5, 70, 199]);
    }

    #[test]
    fn union_intersection_complement() {
        let a = StateSet::from_states(10, [1, 2, 3]);
        let b = StateSet::from_states(10, [3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let c = a.complement();
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![0, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn full_and_empty() {
        let full = StateSet::full(67);
        assert_eq!(full.len(), 67);
        assert!(!full.is_empty());
        assert!(StateSet::new(5).is_empty());
        assert!(StateSet::new(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        StateSet::new(4).insert(4);
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let set: StateSet = [2usize, 9].into_iter().collect();
        assert_eq!(set.universe(), 10);
        assert!(set.contains(9));
    }
}
