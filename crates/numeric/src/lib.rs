//! Numerical probabilistic model checking — the workspace's PRISM
//! substitute.
//!
//! The paper validates its simulation results against exact probabilities
//! computed by PRISM; this crate provides the equivalent machinery:
//!
//! * [`reach_avoid_probs`] — unbounded reach-avoid probabilities
//!   `P(¬avoid U target)` by Gauss–Seidel on the sparse linear system, with
//!   qualitative precomputation of probability-0 states;
//! * [`reach_before_return`] — the repair-benchmark query
//!   `P=?["init" ∧ X(¬init U failure)]`;
//! * [`bounded_reach_probs`] / [`bounded_reach_avoid_probs`] — step-bounded
//!   value iteration;
//! * [`imc_reach_bounds`] / [`imc_bounded_reach_bounds`] — interval value
//!   iteration giving the min/max reachability over *all* members of an IMC;
//! * [`expected_steps_to`] — mean hitting times (discrete MTTF);
//! * [`linspace`] and [`sweep`] — parameter sweeps (Figure 5 of the paper).
//!
//! # Example
//!
//! ```
//! use imc_markov::{DtmcBuilder, StateSet};
//! use imc_numeric::reach_avoid_probs;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Gambler's ruin on {0, 1, 2}: from 1, p=0.3 up, 0.7 down.
//! let mut builder = DtmcBuilder::new(3);
//! builder
//!     .set_initial(1)
//!     .add_transition(1, 2, 0.3)
//!     .add_transition(1, 0, 0.7)
//!     .add_self_loop(0)
//!     .add_self_loop(2);
//! let chain = builder.build()?;
//! let probs = reach_avoid_probs(&chain, &StateSet::from_states(3, [2]), &StateSet::new(3))?;
//! assert!((probs[1] - 0.3).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounded;
mod hitting;
mod interval;
mod parametric;
mod solve;

pub use bounded::{bounded_reach_avoid_probs, bounded_reach_probs};
pub use hitting::expected_steps_to;
pub use interval::{imc_bounded_reach_bounds, imc_reach_bounds, Extremum};
pub use parametric::{linspace, sweep};
pub use solve::{reach_avoid_probs, reach_before_return, SolveError};
