//! # imcis-repro — Importance Sampling of Interval Markov Chains
//!
//! A full reproduction of *Importance Sampling of Interval Markov Chains*
//! (Jegourel, Wang, Sun — DSN 2018) as a Rust workspace. This root crate
//! re-exports the workspace's public API and hosts the runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`imc_markov`] | DTMCs, IMCs, paths, transition-count tables, graph analyses |
//! | [`imc_logic`] | bounded temporal properties and online monitors |
//! | [`imc_ctmc`] | CTMCs, guarded-command exploration, embedded chains |
//! | [`imc_distr`] | Gamma/Dirichlet/Beta samplers, constrained row sampler |
//! | [`imc_stats`] | normal quantiles, confidence intervals, Okamoto bounds |
//! | [`imc_learn`] | frequentist model learning, Okamoto IMCs, smoothing |
//! | [`imc_numeric`] | reachability solvers, interval value iteration, sweeps |
//! | [`imc_sim`] | CSR alias samplers, trace simulation, the parallel batch engine, crude Monte Carlo |
//! | [`imc_sampling`] | IS estimator, `PreparedRun` hot-path cache, zero-variance / cross-entropy / failure biasing |
//! | [`imc_optim`] | the IMCIS optimisation problem, random search, projected SGD |
//! | [`imc_models`] | the paper's benchmark systems and the scenario registry |
//! | [`imcis_core`] | the `RunSpec → SuiteSpec → Session → Report/SuiteReport` API over Algorithm 1 end-to-end, plus [`imcis_core::serve`] — the suite-serving daemon |
//!
//! (Two more crates complete the workspace without being library
//! dependencies of this root crate: `imcis_cli` — the `imcis` binary —
//! and `imcis_bench`, the criterion benches and `exp_*` binaries.)
//!
//! ## Experiment API
//!
//! Every estimation run travels one path, with a suite layer batching
//! many runs into one deterministic job:
//!
//! 1. a **[`imcis_core::RunSpec`]** manifest (strict, canonical JSON)
//!    names a scenario from the [`imc_models::ScenarioRegistry`] and a
//!    method with its full typed configuration;
//! 2. a **[`imcis_core::SuiteSpec`]** lists many run specs (embedded or
//!    file-referenced); the [`imcis_core::Suite`] executes them as one
//!    job, building each unique `(scenario, params)` setup exactly once
//!    through an [`imcis_core::SetupCache`] and sharing it across
//!    sessions via `Arc`;
//! 3. a **[`imcis_core::Session`]** resolves one scenario, derives one
//!    deterministic RNG stream per repetition and drives the method's
//!    [`imcis_core::Estimator`];
//! 4. a **[`imcis_core::Report`]** (or, per suite, a
//!    [`imcis_core::SuiteReport`] with a cross-run summary table)
//!    carries the uniform result (estimate, CI, dispersion,
//!    per-repetition traces, coverage against `γ(Â)` and the true `γ`
//!    separately, timing) and serializes to schema-stable JSON.
//!
//! On top sits the **serving layer** ([`imcis_core::serve`]): `imcis
//! serve` is a `std`-only TCP daemon speaking newline-delimited JSON
//! (`imcis.wire/2`). Clients submit suite manifests; each job runs
//! through the same supervised executor as `imcis suite`, with at most
//! `--workers` members running at once, over one process-wide
//! [`imcis_core::SetupCache`] shared across jobs and clients, streaming
//! `member_report` events as sessions complete and a terminal
//! `suite_report` that is byte-identical to the batch `imcis suite`
//! output. The normative schema reference for all five JSON
//! formats is `docs/FORMATS.md`, whose examples are parsed through the
//! real validators by `tests/formats_doc.rs`.
//!
//! The CLI (`imcis run <spec.json>`, `imcis suite <suite.json>`,
//! `imcis serve` / `imcis submit`), the `exp_*` binaries and the
//! examples are thin adapters over this; checked-in manifests live in
//! `specs/`.
//!
//! ## Engine architecture
//!
//! The simulation hot path is built from three pieces:
//!
//! * **Counter-based RNG streams** — a batch keyed by `master_seed`
//!   simulates trace `i` under
//!   `StdRng::seed_from_u64(splitmix64(master_seed + i·φ))`
//!   ([`imc_sim::stream_seed`]). The stream is a pure function of the
//!   seed and the trace index, so [`imc_sim::BatchRunner`] produces
//!   **bit-identical results at every thread count**: threads decide who
//!   runs a trace, never what the trace is. Workers own static
//!   contiguous index ranges and their accumulators merge in worker
//!   order ([`imc_sim::parallel`]).
//! * **CSR alias tables** — [`imc_sim::ChainSampler`] flattens all
//!   per-state Walker tables into single `prob`/`alias`/`targets`
//!   arrays plus row offsets: O(1) per step, no per-row pointer chasing.
//! * **`PreparedRun`** — [`imc_sampling::PreparedRun`] compiles a
//!   sampled run against its fixed IS chain `B` once: dense transition
//!   ids, CSR `(id, n)` table entries, `ln b_ij` per id and the cached
//!   per-table constant `Σ n_ij ln b_ij`. Re-evaluating the estimator
//!   against a candidate chain `A` then costs one probability lookup
//!   and one `ln` per *distinct* transition — and is guaranteed
//!   bit-identical to the naive [`imc_sampling::is_estimate`] loop
//!   (same summation order and operands). The optimiser's
//!   [`imc_optim::Objective`] is a thin wrapper over it.
//!
//! ## Thirty-second tour
//!
//! ```
//! use imcis_repro::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A RunSpec manifest is the complete description of a run: scenario,
//! // method, seed. Engines are deterministic and thread-count invariant,
//! // so this JSON *is* the result, reviewably.
//! let spec: RunSpec = r#"{
//!         "scenario": {"name": "illustrative"},
//!         "method": {"name": "imcis", "n_traces": 600, "r_undefeated": 60,
//!                    "r_max": 4000},
//!         "seed": 7
//!     }"#
//!     .parse()?;
//! let report = Session::from_spec(spec)?.run()?;
//! // IMCIS covers the exact γ(Â) the scenario knows...
//! assert_eq!(report.coverage_gamma_hat, Some(1.0));
//! // ...and the whole result serializes to schema-stable JSON.
//! assert!(report.to_json_string().starts_with("{\n  \"schema\": \"imcis.report/2\""));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use imc_ctmc;
pub use imc_distr;
pub use imc_learn;
pub use imc_logic;
pub use imc_markov;
pub use imc_models;
pub use imc_numeric;
pub use imc_optim;
pub use imc_sampling;
pub use imc_sim;
pub use imc_stats;
pub use imcis_core;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use imc_learn::{learn_dtmc, learn_imc, CountTable, LearnOptions};
    pub use imc_logic::{Monitor, Property, Verdict};
    pub use imc_markov::{Dtmc, DtmcBuilder, Imc, ImcBuilder, Path, StateSet};
    pub use imc_models::{Scenario, ScenarioParams, ScenarioRegistry, Setup};
    pub use imc_numeric::{
        bounded_reach_probs, imc_reach_bounds, reach_avoid_probs, reach_before_return, SolveOptions,
    };
    pub use imc_sampling::{
        cross_entropy_is, failure_bias, is_estimate, sample_is_run, zero_variance_is,
        CrossEntropyConfig, IsConfig,
    };
    pub use imc_sim::{monte_carlo, ChainSampler, SmcConfig};
    pub use imc_stats::{normal_quantile, ConfidenceInterval};
    #[allow(deprecated)]
    pub use imcis_core::{imcis, standard_is};
    pub use imcis_core::{
        Estimator, ImcisConfig, ImcisOutcome, Method, Report, RunSpec, Session, Suite, SuiteReport,
        SuiteSpec,
    };
}
