//! Continuous-time Markov chains and guarded-command model exploration.
//!
//! The paper's repair benchmarks (§VI-B, §VI-C) are CTMCs given as PRISM
//! modules; their reach-before-return properties depend only on the *jump
//! chain*, so the workflow is:
//!
//! 1. describe the model as guarded commands ([`CtmcModel`]) — a direct
//!    port of the PRISM code in the paper's appendix;
//! 2. [`CtmcModel::explore`] the reachable state space into a [`Ctmc`];
//! 3. extract the [`Ctmc::embedded_dtmc`] and analyse it with the rest of
//!    the workspace (simulation, importance sampling, numeric solving).
//!
//! # Example
//!
//! ```
//! use imc_ctmc::CtmcModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A single component failing with rate 0.1 and repairing with rate 1.
//! let model = CtmcModel::new(0u8)
//!     .command("fail", |&s| s == 0, |_| 0.1, |_| 1)
//!     .command("repair", |&s| s == 1, |_| 1.0, |_| 0)
//!     .label("failure", |&s| s == 1);
//! let explored = model.explore(100)?;
//! assert_eq!(explored.ctmc.num_states(), 2);
//! let jump = explored.ctmc.embedded_dtmc()?;
//! assert_eq!(jump.prob(0, 1), 1.0); // only one way out of state 0
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctmc;
mod explore;

pub use ctmc::{Ctmc, CtmcBuilder, CtmcError, RateEntry};
pub use explore::{CtmcModel, ExploreError, ExploredCtmc};
