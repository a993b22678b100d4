//! Importance sampling (IS) for discrete-time Markov chains.
//!
//! Implements §III of the paper: sampling under a biased chain `B`,
//! compensating by likelihood ratios `L(ω) = P_A(ω)/P_B(ω)` (computed in log
//! space from per-trace transition count tables), and constructing good IS
//! distributions:
//!
//! * [`sample_is_run`] — draw `N` traces under `B`, keeping only the
//!   deduplicated count tables of successful traces (Algorithm 1, lines
//!   1–16);
//! * [`is_estimate`] — the IS estimator `γ̂`, its empirical standard
//!   deviation and `(1−δ)` confidence interval w.r.t. any reference chain
//!   `A` (eq. (7));
//! * [`zero_variance_is`] — the "perfect" change of measure
//!   `b_ij ∝ a_ij·x_j` built from exact reachability probabilities
//!   (Fig. 1c);
//! * [`cross_entropy_is`] — iterative cross-entropy optimisation of `B`
//!   (Ridder 2005, the paper's reference \[24\]), with the single
//!   iteration exposed as [`cross_entropy_refine`] for stage-wise
//!   campaign estimators;
//! * [`dupuis_wang_update`] — Dupuis–Wang dynamic IS: a state-dependent
//!   change of measure `b(x,y) ∝ a(x,y)·V(y)` whose value function is
//!   re-trained between campaign stages;
//! * [`failure_bias`] — classic balanced failure biasing, a cheap
//!   structural IS baseline.
//!
//! # Example
//!
//! ```
//! use imc_logic::Property;
//! use imc_markov::{DtmcBuilder, StateSet};
//! use imc_sampling::{is_estimate, sample_is_run, zero_variance_is, IsConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Rare event: reach state 1 (p = 1e-4) before state 2.
//! let mut builder = DtmcBuilder::new(3);
//! builder
//!     .add_transition(0, 1, 1e-4)
//!     .add_transition(0, 2, 1.0 - 1e-4)
//!     .add_self_loop(1)
//!     .add_self_loop(2);
//! let chain = builder.build()?;
//! let target = StateSet::from_states(3, [1]);
//! let prop = Property::reach_avoid(target.clone(), StateSet::from_states(3, [2]));
//! let b = zero_variance_is(&chain, &target, &StateSet::from_states(3, [2]))?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let run = sample_is_run(&b, &prop, &IsConfig::new(1000), &mut rng);
//! let est = is_estimate(&chain, &b, &run, 0.05);
//! assert!((est.gamma_hat - 1e-4).abs() < 1e-12); // zero-variance: exact
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cross_entropy;
mod dupuis_wang;
mod estimator;
mod failure_bias;
mod hash;
mod zero_variance;

pub use cross_entropy::{
    cross_entropy_is, cross_entropy_refine, initial_chain, CeIteration, CrossEntropyConfig,
    CrossEntropyResult,
};
pub use dupuis_wang::{dupuis_wang_update, initial_value, DupuisWangConfig};
pub use estimator::{
    is_estimate, sample_is_run, IsConfig, IsEstimate, IsRun, LaneSums, PreparedRun, WeightedTable,
};
pub use failure_bias::failure_bias;
pub use zero_variance::{zero_variance_is, ZeroVarianceError};
