//! Learning Markov chain models from observed traces (§II-B of the paper).
//!
//! Real systems rarely come with exact transition probabilities; they are
//! estimated from logs. This crate implements the paper's learning pipeline:
//!
//! * [`CountTable`] — aggregated transition counts `n_ij`, `n_i` over a set
//!   of observed paths;
//! * [`learn_dtmc`] — frequentist point estimates `â_ij = n_ij / n_i`,
//!   optionally Laplace-smoothed over a known support;
//! * [`learn_imc`] — the learnt IMC `[Â ± ε]`, with per-state Okamoto
//!   half-widths `ε_i = √(ln(2/δ)/(2 n_i))`.
//!
//! # Example
//!
//! ```
//! use imc_learn::{learn_imc, CountTable, LearnOptions};
//! use imc_markov::Path;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut counts = CountTable::new(2);
//! for _ in 0..60 {
//!     counts.record_path(&Path::new(vec![0, 0]));
//! }
//! for _ in 0..40 {
//!     counts.record_path(&Path::new(vec![0, 1, 1]));
//! }
//! let learned = learn_imc(&counts, &LearnOptions::default())?;
//! let interval = learned.row(0)?.interval_to(1).unwrap();
//! assert!(interval.contains(0.4)); // truth within the learnt interval
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counts;
mod frequentist;

pub use counts::CountTable;
pub use frequentist::{
    learn_dtmc, learn_dtmc_with_support, learn_imc, learn_imc_with_support, LearnError,
    LearnOptions, Smoothing,
};
