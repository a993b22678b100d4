//! Random distributions for the IMCIS optimiser.
//!
//! The random-search optimiser of the paper (Algorithm 2) draws candidate
//! DTMC rows from Dirichlet distributions centred on the learnt chain. The
//! offline dependency allow-list does not include `rand_distr`, so this crate
//! implements the required samplers from first principles on top of [`rand`]:
//!
//! * [`standard_normal`] — Marsaglia polar method;
//! * [`Gamma`] — Marsaglia–Tsang squeeze method (with the Johnk boost for
//!   shape < 1);
//! * [`Dirichlet`] — normalised Gamma vector;
//! * [`ConstrainedRowSampler`] — the paper's §IV-B/§IV-C candidate-row
//!   generator: concentration tuning `K_ij = â(1−â)/ε² − 1`, rejection
//!   sampling into the interval box, λ-inflation when rejection persists
//!   (§IV-C1), and the two-step split sampler for heterogeneous `K_ij`
//!   (§IV-C2). A Gamma vector that sums to zero (every coordinate
//!   underflowed) is a rejected attempt like any other. The sampler keeps
//!   each attempt's shapes and draws, and the row it returns, in buffers
//!   it owns, so a warm draw allocates nothing.
//!
//! # Example
//!
//! ```
//! use imc_distr::{ConstrainedRowSampler, IntervalSpec};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), imc_distr::DistrError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // A learnt row (0.3, 0.7) with ±0.05 intervals.
//! let row = [
//!     IntervalSpec::new(0.25, 0.35, 0.30)?,
//!     IntervalSpec::new(0.65, 0.75, 0.70)?,
//! ];
//! let mut sampler = ConstrainedRowSampler::new(&row)?;
//! let probs = sampler.sample(&mut rng)?;
//! assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! assert!(probs[0] >= 0.25 && probs[0] <= 0.35);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dirichlet;
mod error;
mod gamma;
mod normal;
mod row;

pub use dirichlet::Dirichlet;
pub use error::DistrError;
pub use gamma::Gamma;
pub use normal::standard_normal;
pub use row::{ConstrainedRowSampler, IntervalSpec, RejectionStats};
