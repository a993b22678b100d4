//! Trace simulation for statistical model checking.
//!
//! Implements the sampling side of Algorithm 1 of the paper (lines 1–15):
//! traces are generated state-by-state under a chain's transition
//! distribution, fed to an online [`Monitor`](imc_logic::Monitor) until the
//! property is decided, and summarised by their transition count table
//! `(T_k, n_k)` — the trace itself is never stored.
//!
//! * [`ChainSampler`] — Walker alias tables in flat CSR arrays, O(1) per
//!   step with no per-row pointer chasing. It borrows the tables a chain
//!   builds once, on its first sampler ([`imc_markov::Dtmc::alias_table`]),
//!   and returns the edge id (CSR slot) of each step it draws;
//! * [`simulate_counts_into`] / [`simulate_verdict`] / [`simulate_path`] —
//!   monitor-driven trace generation into a reused count table of edge
//!   ids, to a bare verdict, or to the full path;
//! * [`BatchRunner`] ([`engine`]) — the parallel deterministic batch
//!   engine: counter-based per-trace RNG streams ([`trace_rng`]) fanned
//!   over a scoped thread pool, bit-identical across thread counts;
//! * [`parallel`] — static-partition fan-out primitives the engine and
//!   the experiment harness share;
//! * [`monte_carlo`] — crude Monte Carlo SMC with normal confidence
//!   intervals (§II-C), batch-parallel via the engine.
//!
//! # Example
//!
//! ```
//! use imc_logic::Property;
//! use imc_markov::{DtmcBuilder, StateSet};
//! use imc_sim::{monte_carlo, SmcConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = DtmcBuilder::new(3);
//! builder
//!     .add_transition(0, 1, 0.3)
//!     .add_transition(0, 2, 0.7)
//!     .add_self_loop(1)
//!     .add_self_loop(2);
//! let chain = builder.build()?;
//! let prop = Property::bounded_reach(StateSet::from_states(3, [1]), 5);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let result = monte_carlo(&chain, &prop, &SmcConfig::new(10_000, 0.05), &mut rng);
//! assert!(result.ci.contains(0.3));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod parallel;
mod sampler;
mod smc;
mod trace;

pub use engine::{splitmix64, stream_seed, trace_rng, BatchRunner};
pub use sampler::ChainSampler;
pub use smc::{monte_carlo, SmcConfig, SmcResult};
pub use trace::{random_walk, simulate_counts_into, simulate_path, simulate_verdict};

/// The default per-trace transition budget: a trace still undecided after
/// this many steps counts as undecided. [`SmcConfig::new`], the IS
/// sampler's `IsConfig::new` and a manifest that names no `max_steps` all
/// start from it.
pub const DEFAULT_MAX_STEPS: usize = 1_000_000;
