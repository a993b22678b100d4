//! Experiment harness for the IMCIS reproduction: the scaling knobs, the
//! shared scenario runner and the printing utilities used by the `exp_*`
//! binaries.
//!
//! Each binary regenerates one artefact of the paper's evaluation:
//!
//! | Binary                | Artefact |
//! |-----------------------|----------|
//! | `exp_margin_of_error` | §III-B worked example |
//! | `exp_table1`          | Table I (random-search statistics) |
//! | `exp_table2`          | Table II (IS vs IMCIS comparison) |
//! | `exp_fig2`            | Figure 2 (repair-model CI superposition) |
//! | `exp_fig3`            | Figure 3 (optimisation convergence) |
//! | `exp_fig4`            | Figure 4 (SWaT CIs) |
//! | `exp_fig5`            | Figure 5 (γ(A(α)) sweep) |
//! | `exp_repair_large`    | §VI-C text (40320-state repair model) |
//! | `exp_parallel`        | engine scaling + prepared-estimator perf (`BENCH_parallel.json`) |
//!
//! The estimating binaries build their models through the scenario
//! registry and run every method through a [`Session`]
//! ([`BuiltScenario`]), the same path as `imcis run`.
//!
//! All binaries accept `--paper` (full paper-scale parameters), `--quick`
//! (CI-friendly minimal scale), and individual overrides
//! (`--reps`, `--n`, `--r`, `--seed`). A malformed command line prints
//! the error and the usage line to stderr and exits with status 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

use imc_models::{ScenarioParams, ScenarioRegistry, Setup};
use imcis_core::{
    ImcisSpec, Method, MethodOutcome, Report, RunSpec, SampleSpec, ScenarioRef, Session,
};
use serde::json::Value;

/// The command line every experiment binary accepts.
const USAGE: &str = "usage: [--paper|--quick] [--reps K] [--n N] [--r R] [--seed S]";

/// Scaling knobs shared by every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Independent repetitions (the paper uses 100).
    pub reps: usize,
    /// Traces per estimation run (the paper uses 10000).
    pub n_traces: usize,
    /// Undefeated rounds before the random search stops (paper: 1000).
    pub r_undefeated: usize,
    /// Hard cap on optimisation rounds.
    pub r_max: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's full-scale parameters.
    pub fn paper() -> Self {
        Scale {
            reps: 100,
            n_traces: 10_000,
            r_undefeated: 1000,
            r_max: 100_000,
            seed: 2018,
        }
    }

    /// Default scale: faithful shape at roughly a tenth of the paper's
    /// cost, so every binary finishes in seconds-to-minutes.
    pub fn default_scale() -> Self {
        Scale {
            reps: 20,
            n_traces: 4_000,
            r_undefeated: 400,
            r_max: 40_000,
            seed: 2018,
        }
    }

    /// Minimal smoke-test scale.
    pub fn quick() -> Self {
        Scale {
            reps: 5,
            n_traces: 1_000,
            r_undefeated: 100,
            r_max: 5_000,
            seed: 2018,
        }
    }

    /// Parses experiment arguments, program name excluded: `--paper`,
    /// `--quick`, `--reps K`, `--n N`, `--r R`, `--seed S`, applied left
    /// to right over the default scale.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or non-numeric value, or a zero
    /// `--reps` or `--n`.
    pub fn parse(args: &[String]) -> Result<Scale, String> {
        let mut scale = Scale::default_scale();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--paper" => scale = Scale::paper(),
                "--quick" => scale = Scale::quick(),
                "--reps" => scale.reps = positive(flag, value(flag, args.next())?)?,
                "--n" => scale.n_traces = positive(flag, value(flag, args.next())?)?,
                "--r" => scale.r_undefeated = value(flag, args.next())?,
                "--seed" => scale.seed = value(flag, args.next())?,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(scale)
    }

    /// [`Scale::parse`] over `std::env::args()`. On an error it prints
    /// the error and the usage line to stderr and exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Scale::parse(&args).unwrap_or_else(|err| {
            eprintln!("{err}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Sampling knobs at this scale: `n_traces` traces at confidence
    /// parameter `delta`, with the default step budget.
    pub fn sample(&self, delta: f64) -> SampleSpec {
        SampleSpec {
            n_traces: self.n_traces,
            delta,
            ..SampleSpec::default()
        }
    }

    /// IMCIS over `sample` with this scale's search budget (`R`, `R_max`).
    pub fn imcis(&self, sample: SampleSpec) -> ImcisSpec {
        ImcisSpec {
            sample,
            r_undefeated: self.r_undefeated,
            r_max: self.r_max,
            ..ImcisSpec::default()
        }
    }
}

fn value<T: FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag} needs a non-negative integer, got `{raw}`"))
}

fn positive(flag: &str, value: usize) -> Result<usize, String> {
    if value == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(value)
}

/// A registry scenario built once, so that the sessions of every method
/// share one build.
pub struct BuiltScenario {
    scenario: ScenarioRef,
    setup: Arc<Setup>,
}

impl BuiltScenario {
    /// Builds the registry scenario `name` with `params`.
    ///
    /// # Panics
    ///
    /// Panics if the registry rejects the scenario.
    pub fn new(name: &str, params: &[(&str, Value)]) -> Self {
        let params =
            ScenarioParams::from_pairs(params.iter().map(|(k, v)| (k.to_string(), v.clone())));
        let setup = ScenarioRegistry::builtin()
            .build(name, &params)
            .unwrap_or_else(|e| panic!("scenario `{name}` does not build: {e}"));
        BuiltScenario {
            scenario: ScenarioRef {
                name: name.into(),
                params,
            },
            setup: Arc::new(setup),
        }
    }

    /// The group-repair model (§VI-B) under the mixture IS chain with
    /// zero-variance weight 0.75, the setup of Table II and Figs. 2–3.
    pub fn group_repair(seed: u64) -> Self {
        BuiltScenario::new(
            "group-repair",
            &[
                ("is", Value::Str("mixture".into())),
                ("w", Value::Float(0.75)),
                ("seed", Value::UInt(seed)),
            ],
        )
    }

    /// The built models and reference values.
    pub fn setup(&self) -> &Setup {
        &self.setup
    }

    /// Runs `reps` repetitions of `method` from `seed` through a
    /// [`Session`] and returns the outcomes in repetition order.
    ///
    /// # Panics
    ///
    /// Panics if a repetition fails.
    pub fn run(&self, method: Method, seed: u64, reps: usize) -> Vec<MethodOutcome> {
        self.session(method, seed, reps)
            .run_outcomes()
            .unwrap_or_else(|e| panic!("runs on `{}` fail: {e}", self.scenario.name))
    }

    /// [`BuiltScenario::run`], folded into the session's [`Report`]: the
    /// mean interval and the coverage of the scenario's reference `γ`s.
    ///
    /// # Panics
    ///
    /// Panics if a repetition fails.
    pub fn report(&self, method: Method, seed: u64, reps: usize) -> Report {
        self.session(method, seed, reps)
            .run()
            .unwrap_or_else(|e| panic!("runs on `{}` fail: {e}", self.scenario.name))
    }

    fn session(&self, method: Method, seed: u64, reps: usize) -> Session {
        let spec = RunSpec::new(self.scenario.clone(), method, seed).with_repetitions(reps);
        Session::from_setup(Arc::clone(&self.setup), spec)
    }
}

/// Prints a fixed-width table: a header row followed by data rows.
pub fn print_table<H: Display, C: Display>(headers: &[H], rows: &[Vec<C>]) {
    let headers: Vec<String> = headers.iter().map(ToString::to_string).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(ToString::to_string).collect())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers);
    line(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<String>>(),
    );
    for row in &rows {
        line(row);
    }
}

/// Formats a float in the paper's scientific style.
pub fn sci(x: f64) -> String {
    format!("{x:.4e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Scale, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Scale::parse(&args)
    }

    #[test]
    fn flags_apply_left_to_right() {
        assert_eq!(parse(""), Ok(Scale::default_scale()));
        assert_eq!(parse("--paper"), Ok(Scale::paper()));
        assert_eq!(
            parse("--quick --reps 3 --n 200 --r 7 --seed 9"),
            Ok(Scale {
                reps: 3,
                n_traces: 200,
                r_undefeated: 7,
                seed: 9,
                ..Scale::quick()
            })
        );
        // A preset replaces the overrides before it.
        assert_eq!(parse("--reps 3 --quick"), Ok(Scale::quick()));
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        assert_eq!(parse("--fast"), Err("unknown argument `--fast`".into()));
        assert_eq!(parse("--n"), Err("--n needs a value".into()));
        assert_eq!(
            parse("--seed x"),
            Err("--seed needs a non-negative integer, got `x`".into())
        );
        assert_eq!(
            parse("--reps -1"),
            Err("--reps needs a non-negative integer, got `-1`".into())
        );
        assert_eq!(
            parse("--quick --reps 0"),
            Err("--reps must be at least 1".into())
        );
        assert_eq!(parse("--n 0"), Err("--n must be at least 1".into()));
    }
}
