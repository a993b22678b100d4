//! Bounded temporal properties and online trace monitors.
//!
//! Statistical model checking decides a property `φ` on each simulated trace
//! (§II-C of the paper). This crate provides:
//!
//! * [`Verdict`] — three-valued outcome of observing a trace prefix;
//! * [`Monitor`] — the online interface driven by the simulator, one state
//!   at a time, so traces never need to be stored (Algorithm 1, lines 4–5);
//! * [`Property`] — a declarative, serialisable description of the bounded
//!   properties used in the paper's evaluation, compilable into a monitor:
//!   bounded reachability (`F≤k target`), reach-avoid
//!   (`¬avoid U target`, optionally bounded) and the PRISM-style
//!   `init ∧ X(¬init U failure)` pattern of the repair benchmarks.
//!
//! # Example
//!
//! ```
//! use imc_logic::{Monitor, Property, Verdict};
//! use imc_markov::StateSet;
//!
//! // Reach state 2 within 3 steps.
//! let prop = Property::bounded_reach(StateSet::from_states(4, [2]), 3);
//! let mut monitor = prop.monitor();
//! assert_eq!(monitor.reset(0), Verdict::Undecided);
//! assert_eq!(monitor.observe(1), Verdict::Undecided);
//! assert_eq!(monitor.observe(2), Verdict::Accepted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod monitor;
mod property;
mod verdict;

pub use monitor::{
    BoundedReachMonitor, Monitor, PropertyMonitor, ReachAvoidMonitor, XReachAvoidMonitor,
};
pub use property::Property;
pub use verdict::Verdict;
