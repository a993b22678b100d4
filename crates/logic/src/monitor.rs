use imc_markov::{State, StateSet};

use crate::Verdict;

/// An online trace monitor: fed the trace one state at a time, returns a
/// [`Verdict`] after each observation.
///
/// Contract: after a decided verdict, further calls are not required to be
/// meaningful; callers must stop at the first decided verdict. `reset` must
/// be called before each trace.
pub trait Monitor {
    /// Starts a new trace at `initial`; may decide immediately (e.g. the
    /// initial state already satisfies the target).
    fn reset(&mut self, initial: State) -> Verdict;

    /// Observes the next state of the trace.
    fn observe(&mut self, state: State) -> Verdict;
}

/// `F≤bound target`: accept when a target state is visited within `bound`
/// transitions (the initial state counts as step 0).
#[derive(Debug, Clone)]
pub struct BoundedReachMonitor {
    target: StateSet,
    bound: usize,
    steps: usize,
}

impl BoundedReachMonitor {
    /// Creates a monitor for `F≤bound target`.
    pub fn new(target: StateSet, bound: usize) -> Self {
        BoundedReachMonitor {
            target,
            bound,
            steps: 0,
        }
    }
}

impl Monitor for BoundedReachMonitor {
    fn reset(&mut self, initial: State) -> Verdict {
        self.steps = 0;
        if self.target.contains(initial) {
            Verdict::Accepted
        } else if self.bound == 0 {
            Verdict::Rejected
        } else {
            Verdict::Undecided
        }
    }

    fn observe(&mut self, state: State) -> Verdict {
        self.steps += 1;
        if self.target.contains(state) {
            Verdict::Accepted
        } else if self.steps >= self.bound {
            Verdict::Rejected
        } else {
            Verdict::Undecided
        }
    }
}

/// `¬avoid U target` (optionally step-bounded): accept on reaching a target
/// state, reject on entering an avoid state or exceeding the bound. Target
/// takes priority when a state is in both sets.
#[derive(Debug, Clone)]
pub struct ReachAvoidMonitor {
    target: StateSet,
    avoid: StateSet,
    bound: Option<usize>,
    steps: usize,
}

impl ReachAvoidMonitor {
    /// Creates a monitor for `¬avoid U target` with an optional step bound.
    pub fn new(target: StateSet, avoid: StateSet, bound: Option<usize>) -> Self {
        ReachAvoidMonitor {
            target,
            avoid,
            bound,
            steps: 0,
        }
    }

    fn classify(&self, state: State) -> Verdict {
        if self.target.contains(state) {
            Verdict::Accepted
        } else if self.avoid.contains(state) || self.bound.is_some_and(|b| self.steps >= b) {
            Verdict::Rejected
        } else {
            Verdict::Undecided
        }
    }
}

impl Monitor for ReachAvoidMonitor {
    fn reset(&mut self, initial: State) -> Verdict {
        self.steps = 0;
        self.classify(initial)
    }

    fn observe(&mut self, state: State) -> Verdict {
        self.steps += 1;
        self.classify(state)
    }
}

/// The PRISM pattern `init ∧ X(¬avoid U target)` used by the paper's repair
/// benchmarks (`P=?["init" & (X !"init" U "failure")]`): the *initial* state
/// is exempt from the avoid check; from the first transition onwards, accept
/// on target, reject on avoid.
#[derive(Debug, Clone)]
pub struct XReachAvoidMonitor {
    target: StateSet,
    avoid: StateSet,
}

impl XReachAvoidMonitor {
    /// Creates a monitor for `X(¬avoid U target)`.
    pub fn new(target: StateSet, avoid: StateSet) -> Self {
        XReachAvoidMonitor { target, avoid }
    }
}

impl Monitor for XReachAvoidMonitor {
    fn reset(&mut self, _initial: State) -> Verdict {
        // The initial state is deliberately not classified: the property
        // looks strictly after the first step (the X operator).
        Verdict::Undecided
    }

    fn observe(&mut self, state: State) -> Verdict {
        if self.target.contains(state) {
            Verdict::Accepted
        } else if self.avoid.contains(state) {
            Verdict::Rejected
        } else {
            Verdict::Undecided
        }
    }
}

/// Enum dispatch over the monitors of this crate, produced by
/// [`Property::monitor`](crate::Property::monitor).
///
/// Using an enum instead of `Box<dyn Monitor>` keeps the per-step call
/// devirtualised in the simulator's hot loop while staying closed over the
/// property language.
#[derive(Debug, Clone)]
pub enum PropertyMonitor {
    /// Bounded reachability.
    BoundedReach(BoundedReachMonitor),
    /// Reach-avoid.
    ReachAvoid(ReachAvoidMonitor),
    /// Next reach-avoid (repair-benchmark pattern).
    XReachAvoid(XReachAvoidMonitor),
}

impl Monitor for PropertyMonitor {
    fn reset(&mut self, initial: State) -> Verdict {
        match self {
            PropertyMonitor::BoundedReach(m) => m.reset(initial),
            PropertyMonitor::ReachAvoid(m) => m.reset(initial),
            PropertyMonitor::XReachAvoid(m) => m.reset(initial),
        }
    }

    fn observe(&mut self, state: State) -> Verdict {
        match self {
            PropertyMonitor::BoundedReach(m) => m.observe(state),
            PropertyMonitor::ReachAvoid(m) => m.observe(state),
            PropertyMonitor::XReachAvoid(m) => m.observe(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(states: &[usize]) -> StateSet {
        StateSet::from_states(10, states.iter().copied())
    }

    #[test]
    fn bounded_reach_accepts_within_bound() {
        let mut m = BoundedReachMonitor::new(set(&[3]), 2);
        assert_eq!(m.reset(0), Verdict::Undecided);
        assert_eq!(m.observe(1), Verdict::Undecided);
        assert_eq!(m.observe(3), Verdict::Accepted);
    }

    #[test]
    fn bounded_reach_rejects_at_bound() {
        let mut m = BoundedReachMonitor::new(set(&[3]), 2);
        m.reset(0);
        assert_eq!(m.observe(1), Verdict::Undecided);
        assert_eq!(m.observe(2), Verdict::Rejected);
    }

    #[test]
    fn bounded_reach_initial_state_counts() {
        let mut m = BoundedReachMonitor::new(set(&[0]), 5);
        assert_eq!(m.reset(0), Verdict::Accepted);
        let mut zero_bound = BoundedReachMonitor::new(set(&[3]), 0);
        assert_eq!(zero_bound.reset(0), Verdict::Rejected);
    }

    #[test]
    fn reach_avoid_semantics() {
        let mut m = ReachAvoidMonitor::new(set(&[3]), set(&[4]), None);
        assert_eq!(m.reset(0), Verdict::Undecided);
        assert_eq!(m.observe(1), Verdict::Undecided);
        assert_eq!(m.observe(4), Verdict::Rejected);

        let mut m2 = ReachAvoidMonitor::new(set(&[3]), set(&[4]), None);
        m2.reset(0);
        assert_eq!(m2.observe(3), Verdict::Accepted);
    }

    #[test]
    fn reach_avoid_target_wins_ties() {
        let mut m = ReachAvoidMonitor::new(set(&[3]), set(&[3]), None);
        m.reset(0);
        assert_eq!(m.observe(3), Verdict::Accepted);
    }

    #[test]
    fn reach_avoid_initial_in_avoid_rejects() {
        let mut m = ReachAvoidMonitor::new(set(&[3]), set(&[0]), None);
        assert_eq!(m.reset(0), Verdict::Rejected);
    }

    #[test]
    fn reach_avoid_bounded_times_out() {
        let mut m = ReachAvoidMonitor::new(set(&[3]), set(&[4]), Some(2));
        m.reset(0);
        assert_eq!(m.observe(1), Verdict::Undecided);
        assert_eq!(m.observe(2), Verdict::Rejected);
    }

    #[test]
    fn x_reach_avoid_skips_initial_state() {
        // Initial state IS the avoid state (the paper's property starts in
        // "init" and asks to reach failure before *returning* to init).
        let mut m = XReachAvoidMonitor::new(set(&[9]), set(&[0]));
        assert_eq!(m.reset(0), Verdict::Undecided);
        assert_eq!(m.observe(1), Verdict::Undecided);
        assert_eq!(m.observe(0), Verdict::Rejected); // returned to init
    }

    #[test]
    fn x_reach_avoid_accepts_failure_first() {
        let mut m = XReachAvoidMonitor::new(set(&[9]), set(&[0]));
        m.reset(0);
        assert_eq!(m.observe(1), Verdict::Undecided);
        assert_eq!(m.observe(9), Verdict::Accepted);
    }

    #[test]
    fn monitors_are_reusable_after_reset() {
        let mut m = BoundedReachMonitor::new(set(&[3]), 2);
        m.reset(0);
        assert_eq!(m.observe(1), Verdict::Undecided);
        assert_eq!(m.observe(2), Verdict::Rejected);
        // Fresh trace: the step counter must restart.
        assert_eq!(m.reset(0), Verdict::Undecided);
        assert_eq!(m.observe(3), Verdict::Accepted);
    }
}
