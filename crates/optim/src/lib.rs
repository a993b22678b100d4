//! Constrained optimisation of importance-sampling likelihood objectives
//! over interval Markov chains.
//!
//! This crate implements §IV–§V of the paper: given an IMC `[Â]`, an IS
//! chain `B` and the count tables of the successful traces, find the member
//! chains `A_min, A_max ∈ [Â]` minimising/maximising the empirical IS sum
//!
//! ```text
//! f(A) = Σ_k z(ω_k) Π_{(i→j) ∈ T_k} (a_ij / b_ij)^{n_ij(ω_k)}      (eq. 10)
//! ```
//!
//! * [`Problem`] — the compiled optimisation problem: the run's
//!   [`PreparedRun`](imc_sampling::PreparedRun) as the objective over
//!   deduplicated count tables, per-row interval
//!   constraints, closed-form solutions for single-observed-transition rows
//!   (§III-C), and Dirichlet row samplers (§IV-B/C) for the rest;
//! * [`random_search`] — the paper's Algorithm 2 (Monte Carlo random
//!   search with an undefeated-rounds stopping rule), recording the
//!   convergence trace behind Figure 3;
//! * [`BatchSearch`] / [`search`] — the batched deterministic engine:
//!   candidates drawn in rounds across a thread pool with per-candidate
//!   RNG streams and a `(value, index)` merge rule, bit-identical at every
//!   thread count; [`SearchStrategy`] selects between it and the exact
//!   sequential Algorithm 2.
//!
//! The objective is evaluated in log space throughout: rare-event paths
//! have probabilities far below `f64`'s underflow threshold when expressed
//! as plain products.
//!
//! # The objective kernel and its order contract
//!
//! Every evaluation — the centre chain, the sequential search's candidates
//! and the batched search's blocks — goes through one kernel,
//! [`imc_sampling::PreparedRun::eval_lanes`]. It reads the count-table CSR
//! once per call and evaluates `L` candidates side by side, each under the
//! min and the max template (closed-form rows at their minimising resp.
//! maximising values). The sequential paths call it with one lane; a
//! [`BatchSearch`] worker fills [`LANES`] lanes with
//! consecutive candidates of its share of a round.
//!
//! Results are bit-identical to evaluating each candidate and template on
//! its own, because every lane keeps the one-candidate operands and order:
//! the per-table sum `Σ n·ln a` in entry order with a separate multiply and
//! add (no fused multiply-add, no reassociation), its `exp`, then `f` and
//! `g` summed in table order. The two templates differ only at closed-form
//! transitions whose min and max values differ; [`Problem`] marks once the
//! tables touching such a transition, and on every other table the kernel
//! computes one term and adds it to both templates' sums.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch_search;
mod problem;
mod random_search;

pub use batch_search::{search, BatchSearch, SearchStrategy, DEFAULT_BATCH_SIZE, LANES};
pub use problem::{OptimError, Problem, RowAssignment};
pub use random_search::{random_search, ConvergencePoint, OptimOutcome, RandomSearchConfig};
