use imc_markov::{Dtmc, Path, StateSet};

use crate::{
    BoundedReachMonitor, Monitor, PropertyMonitor, ReachAvoidMonitor, Verdict, XReachAvoidMonitor,
};

/// Clones a borrowed label set into an owned set over the model's universe.
///
/// Unknown labels resolve to the shared empty set over the empty universe;
/// widening it here keeps set algebra (union, complement) over the model's
/// states well-defined.
fn owned_label_set(set: &StateSet, n: usize) -> StateSet {
    if set.universe() == n {
        set.clone()
    } else {
        StateSet::new(n)
    }
}

/// A declarative bounded temporal property over the states of a chain.
///
/// Properties are plain data (serialisable, comparable) and compile to an
/// online [`PropertyMonitor`] via [`Property::monitor`]. State sets may be
/// built directly or looked up from model labels with
/// [`Property::bounded_reach_label`] and friends.
///
/// # Example
///
/// ```
/// use imc_logic::{Property, Verdict};
/// use imc_markov::{Path, StateSet};
///
/// let prop = Property::reach_avoid(
///     StateSet::from_states(5, [4]),
///     StateSet::from_states(5, [0]),
/// );
/// let accepted = prop.evaluate(&Path::new(vec![1, 2, 4]));
/// assert_eq!(accepted, Verdict::Accepted);
/// let rejected = prop.evaluate(&Path::new(vec![1, 2, 0]));
/// assert_eq!(rejected, Verdict::Rejected);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Property {
    /// `F≤bound target`: reach a target state within `bound` transitions.
    BoundedReach {
        /// States satisfying the goal.
        target: StateSet,
        /// Maximum number of transitions.
        bound: usize,
    },
    /// `¬avoid U target`, optionally bounded.
    ReachAvoid {
        /// States satisfying the goal.
        target: StateSet,
        /// States that must not be visited before the goal.
        avoid: StateSet,
        /// Optional maximum number of transitions.
        bound: Option<usize>,
    },
    /// `X(¬avoid U target)` — the repair-benchmark pattern
    /// `P=?["init" & (X !"init" U "failure")]`, where the starting state is
    /// exempt from the avoid check.
    XReachAvoid {
        /// States satisfying the goal.
        target: StateSet,
        /// States that must not be revisited before the goal.
        avoid: StateSet,
    },
}

impl Property {
    /// `F≤bound target` from an explicit state set.
    pub fn bounded_reach(target: StateSet, bound: usize) -> Self {
        Property::BoundedReach { target, bound }
    }

    /// `F≤bound "label"`, resolving the label against `model`.
    pub fn bounded_reach_label(model: &Dtmc, label: &str, bound: usize) -> Self {
        Property::BoundedReach {
            target: owned_label_set(model.labeled_states(label), model.num_states()),
            bound,
        }
    }

    /// `¬avoid U target` (unbounded).
    pub fn reach_avoid(target: StateSet, avoid: StateSet) -> Self {
        Property::ReachAvoid {
            target,
            avoid,
            bound: None,
        }
    }

    /// `¬avoid U≤bound target`.
    pub fn reach_avoid_bounded(target: StateSet, avoid: StateSet, bound: usize) -> Self {
        Property::ReachAvoid {
            target,
            avoid,
            bound: Some(bound),
        }
    }

    /// `X(¬avoid U target)` from explicit sets.
    pub fn x_reach_avoid(target: StateSet, avoid: StateSet) -> Self {
        Property::XReachAvoid { target, avoid }
    }

    /// The paper's repair property: from the initial state, reach a
    /// `failure_label` state before *returning* to the initial state.
    pub fn failure_before_return(model: &Dtmc, failure_label: &str) -> Self {
        let mut avoid = StateSet::new(model.num_states());
        avoid.insert(model.initial());
        Property::XReachAvoid {
            target: owned_label_set(model.labeled_states(failure_label), model.num_states()),
            avoid,
        }
    }

    /// Compiles the property into a fresh online monitor.
    pub fn monitor(&self) -> PropertyMonitor {
        match self {
            Property::BoundedReach { target, bound } => {
                PropertyMonitor::BoundedReach(BoundedReachMonitor::new(target.clone(), *bound))
            }
            Property::ReachAvoid {
                target,
                avoid,
                bound,
            } => PropertyMonitor::ReachAvoid(ReachAvoidMonitor::new(
                target.clone(),
                avoid.clone(),
                *bound,
            )),
            Property::XReachAvoid { target, avoid } => {
                PropertyMonitor::XReachAvoid(XReachAvoidMonitor::new(target.clone(), avoid.clone()))
            }
        }
    }

    /// Offline evaluation: replays a complete path through a fresh monitor.
    ///
    /// Returns [`Verdict::Undecided`] if the path is too short to decide.
    pub fn evaluate(&self, path: &Path) -> Verdict {
        let mut monitor = self.monitor();
        let mut verdict = monitor.reset(path.first());
        for &state in &path.states()[1..] {
            if verdict.is_decided() {
                return verdict;
            }
            verdict = monitor.observe(state);
        }
        verdict
    }

    /// The goal states of the property.
    pub fn target(&self) -> &StateSet {
        match self {
            Property::BoundedReach { target, .. }
            | Property::ReachAvoid { target, .. }
            | Property::XReachAvoid { target, .. } => target,
        }
    }

    /// The states that must not be visited before the goal, as an owned
    /// set over the property's universe.
    ///
    /// For [`Property::BoundedReach`] this is empty. Used by IS-chain
    /// constructions that need the avoid region without knowing the
    /// property shape.
    pub fn avoid(&self) -> StateSet {
        match self {
            Property::BoundedReach { target, .. } => StateSet::new(target.universe()),
            Property::ReachAvoid { avoid, .. } | Property::XReachAvoid { avoid, .. } => {
                avoid.clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_markov::DtmcBuilder;

    fn labelled_chain() -> Dtmc {
        let mut builder = DtmcBuilder::new(4);
        builder
            .set_initial(0)
            .add_transition(0, 1, 0.5)
            .add_transition(0, 2, 0.5)
            .add_transition(1, 3, 1.0)
            .add_self_loop(2)
            .add_self_loop(3)
            .add_label(3, "goal")
            .add_label(2, "sink");
        builder.build().unwrap()
    }

    #[test]
    fn label_resolution() {
        let chain = labelled_chain();
        let prop = Property::bounded_reach_label(&chain, "goal", 10);
        assert!(prop.target().contains(3));
        assert_eq!(prop.target().len(), 1);
    }

    #[test]
    fn offline_evaluation_matches_online() {
        let prop = Property::bounded_reach(StateSet::from_states(4, [3]), 2);
        assert_eq!(prop.evaluate(&Path::new(vec![0, 1, 3])), Verdict::Accepted);
        assert_eq!(prop.evaluate(&Path::new(vec![0, 1, 2])), Verdict::Rejected);
        assert_eq!(prop.evaluate(&Path::new(vec![0, 1])), Verdict::Undecided);
    }

    #[test]
    fn failure_before_return_uses_initial_state() {
        let chain = labelled_chain();
        let prop = Property::failure_before_return(&chain, "goal");
        // 0 -> 1 -> 3: failure reached without returning to 0.
        assert_eq!(prop.evaluate(&Path::new(vec![0, 1, 3])), Verdict::Accepted);
        match &prop {
            Property::XReachAvoid { avoid, .. } => assert!(avoid.contains(0)),
            other => panic!("unexpected property {other:?}"),
        }
    }

    #[test]
    fn early_decision_is_stable_under_longer_paths() {
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [3]), StateSet::from_states(4, [2]));
        // Decision happens at state 3; the trailing state must not flip it.
        assert_eq!(prop.evaluate(&Path::new(vec![0, 3, 2])), Verdict::Accepted);
    }

    #[test]
    fn debug_output_names_the_variant() {
        let prop = Property::reach_avoid_bounded(
            StateSet::from_states(3, [2]),
            StateSet::from_states(3, [1]),
            7,
        );
        assert!(format!("{prop:?}").contains("ReachAvoid"));
    }
}
