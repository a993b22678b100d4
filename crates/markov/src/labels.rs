//! Interned state labels.
//!
//! Models attach atomic propositions to states as named labels. The
//! [`LabelTable`] interns label names once at construction: names live in a
//! sorted vector (the name↔index map), each name owning one [`StateSet`].
//! Lookups are a binary search over the interned names and return a
//! *borrowed* set — there is no per-call cloning and no per-model
//! `BTreeMap`, so label resolution is cheap enough to sit under property
//! construction in the trace loop.

use std::collections::BTreeMap;

use crate::state_set::EMPTY_STATE_SET;
use crate::{ModelError, State, StateSet};

/// An interned label↔index table mapping label names to state sets.
///
/// Construction sorts and dedups the names once; lookups by name are
/// `O(log #labels)` and return borrowed [`StateSet`]s. An unknown name
/// resolves to a shared static empty set (over the empty universe), which
/// answers `contains(s) == false` for every state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LabelTable {
    /// Sorted, unique label names; the position of a name is its label id.
    names: Vec<String>,
    /// `sets[id]` holds the states carrying label `names[id]`.
    sets: Vec<StateSet>,
}

impl LabelTable {
    /// Interns `labels` (name → states) over the universe `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StateOutOfRange`] if any labelled state is
    /// `>= n`.
    pub fn from_map(n: usize, labels: BTreeMap<String, Vec<State>>) -> Result<Self, ModelError> {
        let mut names = Vec::with_capacity(labels.len());
        let mut sets = Vec::with_capacity(labels.len());
        for (name, states) in labels {
            let mut set = StateSet::new(n);
            for state in states {
                if state >= n {
                    return Err(ModelError::StateOutOfRange { state, n });
                }
                set.insert(state);
            }
            names.push(name);
            sets.push(set);
        }
        Ok(LabelTable { names, sets })
    }

    /// The interned id of `name`, if the label exists.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names
            .binary_search_by(|probe| probe.as_str().cmp(name))
            .ok()
    }

    /// The states carrying `name`; a shared empty set if the label is
    /// unknown.
    pub fn get(&self, name: &str) -> &StateSet {
        match self.index_of(name) {
            Some(id) => &self.sets[id],
            None => &EMPTY_STATE_SET,
        }
    }

    /// The states of label id `id` (as returned by [`LabelTable::index_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&self, id: usize) -> &StateSet {
        &self.sets[id]
    }

    /// All label names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Iterates `(name, states)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StateSet)> {
        self.names.iter().map(String::as_str).zip(self.sets.iter())
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no labels are attached.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Records `label` on `state` in a builder's label map, allocating the
/// name only the first time it is seen.
pub(crate) fn add_label(labels: &mut BTreeMap<String, Vec<State>>, state: State, label: &str) {
    match labels.get_mut(label) {
        Some(states) => states.push(state),
        None => {
            labels.insert(label.to_owned(), vec![state]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LabelTable {
        let mut map = BTreeMap::new();
        map.insert("goal".to_owned(), vec![2, 3]);
        map.insert("init".to_owned(), vec![0]);
        LabelTable::from_map(4, map).unwrap()
    }

    #[test]
    fn lookup_is_borrowed_and_sorted() {
        let t = table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.names().collect::<Vec<_>>(), vec!["goal", "init"]);
        assert!(t.get("goal").contains(3));
        assert_eq!(t.index_of("init"), Some(1));
        assert_eq!(t.index_of("missing"), None);
    }

    #[test]
    fn unknown_label_is_the_shared_empty_set() {
        let t = table();
        let empty = t.get("missing");
        assert!(empty.is_empty());
        assert_eq!(empty.universe(), 0);
        assert!(!empty.contains(0));
        assert_eq!(empty.iter().count(), 0);
    }

    #[test]
    fn out_of_range_state_is_rejected() {
        let mut map = BTreeMap::new();
        map.insert("x".to_owned(), vec![9]);
        let err = LabelTable::from_map(4, map).unwrap_err();
        assert!(matches!(
            err,
            ModelError::StateOutOfRange { state: 9, n: 4 }
        ));
    }
}
