//! Statistical machinery for statistical model checking (SMC).
//!
//! Provides the estimation-side toolkit used across the IMCIS reproduction:
//!
//! * [`normal_quantile`] / [`normal_cdf`] — the standard normal distribution
//!   (quantile via Wichura's AS 241, accurate to ~1e-15);
//! * [`ConfidenceInterval`] and constructors for Monte Carlo and importance
//!   sampling estimators (§II-C and §III-A of the paper);
//! * [`okamoto_epsilon`] / [`okamoto_sample_size`] — absolute-error
//!   bounds used both for SMC sample-size planning and for the
//!   learning-phase interval half-widths of §II-B;
//! * [`RunningStats`] — Welford streaming mean, variance, min and max
//!   (the average, min, max and standard deviation rows of Table I);
//! * [`coverage`] — empirical coverage of a family of confidence intervals,
//!   the headline metric of Table II.
//!
//! # Example
//!
//! ```
//! use imc_stats::{normal_quantile, ConfidenceInterval};
//!
//! // 95% two-sided quantile.
//! let q = normal_quantile(0.975);
//! assert!((q - 1.959964).abs() < 1e-5);
//!
//! // CI for a Bernoulli estimate: 3 successes out of 1000 samples.
//! let ci = ConfidenceInterval::for_bernoulli(0.003, 1000, 0.05);
//! assert!(ci.contains(0.003));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod ci;
mod normal;
mod running;

pub use bounds::{okamoto_epsilon, okamoto_sample_size};
pub use ci::{coverage, ConfidenceInterval};
pub use normal::{normal_cdf, normal_quantile};
pub use running::RunningStats;
