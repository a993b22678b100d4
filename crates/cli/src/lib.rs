//! Command-line front end for the IMCIS workspace.
//!
//! The primary entry points drive the
//! `RunSpec → SuiteSpec → Session → Report/SuiteReport` API:
//!
//! * `imcis run <spec.json>` — execute a manifest, print the `Report`
//!   JSON (`imcis.report/2`);
//! * `imcis suite <suite.json> [--threads T]` — execute a `SuiteSpec`
//!   manifest as one job over shared scenario builds, print the
//!   `SuiteReport` JSON (`imcis.suitereport/2`), optionally overriding
//!   its session-level thread budget (scheduling only; output is
//!   bit-identical);
//! * `imcis run --scenario NAME --method NAME [options]` — build the
//!   same manifest from flags (add `--dry-run` to print it instead of
//!   running);
//! * `imcis dsl <model.dsl> [--param K=V] [--emit-spec]` — compile a
//!   scenario DSL source (the textual model/property/IS language of
//!   [`imcis_core::dsl`]) and print a model summary, or emit the
//!   canonical `RunSpec` manifest embedding the source;
//! * `imcis serve [--addr --workers --queue]` — run the suite-serving
//!   daemon (`imcis.wire/2`, newline-delimited JSON over TCP; see
//!   [`imcis_core::serve`]);
//! * `imcis submit <suite.json> [--addr --events --deadline-ms]` —
//!   submit a manifest to a daemon, stream its events, print the stable
//!   `SuiteReport` (byte-identical to `imcis suite`);
//!   `--ping`/`--status`/`--shutdown` probe, inspect and stop the
//!   daemon; `--retry-ms` arms capped exponential backoff with seeded
//!   jitter for connection failures and `rejected` backpressure;
//! * `imcis scenarios` — list the scenario registry with parameters;
//! * `imcis help` / `imcis version` (also `--help` / `--version`).
//!
//! The model-file subcommands (`imcis <command> <model-file> [options]`)
//! serve what the `file` scenario cannot: DTMC files and exact analyses.
//!
//! * `info` — structural summary of a model file (either kind);
//! * `solve` — exact reach(-avoid) probability of a DTMC (numeric engine);
//! * `mttf` — expected steps to a target set;
//! * `smc` — crude Monte Carlo estimation on a DTMC;
//! * `envelope` — exact min/max reachability over all members of an IMC.
//!
//! IMCIS on an IMC model file is a run of the `file` scenario:
//! `imcis run --scenario file --param path=M --param target=L --method imcis`.
//!
//! Models use the plain-text format of [`imc_markov::io`]. Every command
//! is a thin adapter over the same library code paths the `exp_*`
//! binaries and examples use — `imcis run` in particular prints exactly
//! what the library `Session` computes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;

use imc_logic::Property;
use imc_markov::{io, Dtmc, Imc, StateSet};
use imc_models::{ScenarioParams, ScenarioRegistry};
use imc_numeric::{
    bounded_reach_avoid_probs, expected_steps_to, imc_bounded_reach_bounds, imc_reach_bounds,
    reach_avoid_probs,
};
use imc_sim::{monte_carlo, SmcConfig};
use imcis_core::router::{Router, RouterConfig};
use imcis_core::serve::{Client, ServeConfig, ServeError, Server, StatusSnapshot};
use imcis_core::{
    AdaptiveSpec, CrossEntropySpec, ImcisSpec, Method, RunSpec, SampleSpec, ScenarioRef,
    SearchStrategy, Session, SessionError, SpecError, Suite, SuiteSpec,
};
use rand::SeedableRng;
use serde::json::Value;

/// Everything that can go wrong while executing a CLI invocation.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// The model/spec file could not be read.
    Io(std::io::Error),
    /// The model file could not be parsed.
    Parse(io::ParseError),
    /// A label named on the command line is empty/unknown in the model.
    UnknownLabel(String),
    /// An analysis failed.
    Analysis(String),
    /// A `RunSpec` manifest or session failed.
    Session(SessionError),
    /// The serve daemon or the submit client failed.
    Serve(ServeError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "cannot read file: {e}"),
            CliError::Parse(e) => write!(f, "cannot parse model: {e}"),
            CliError::UnknownLabel(l) => write!(f, "label `{l}` marks no state in the model"),
            CliError::Analysis(msg) => write!(f, "analysis failed: {msg}"),
            CliError::Session(e) => write!(f, "{e}"),
            CliError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<SessionError> for CliError {
    fn from(e: SessionError) -> Self {
        CliError::Session(e)
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        CliError::Serve(e)
    }
}

/// The usage text shown by `imcis help` and on usage errors.
pub const USAGE: &str = "\
usage: imcis run <spec.json>
       imcis run --scenario NAME --method NAME [options] [--dry-run]
       imcis suite <suite.json> [--threads T]
       imcis dsl <model.dsl> [--param K=V ...] [--emit-spec]
       imcis serve [--addr A] [--workers N] [--queue N] [--rate R]
       imcis router --backend ADDR [--backend ADDR ...] [--addr A]
                    [--queue N] [--heartbeat-ms T]
       imcis submit <suite.json> [--addr A] [--events FILE] [--retry-ms T]
                    [--deadline-ms D]
       imcis submit --ping | --status | --shutdown [--addr A]
       imcis scenarios
       imcis <command> <model-file> [options]
       imcis help | version

spec runner:
  run <spec.json>     execute a RunSpec manifest, print the Report JSON
  suite <suite.json>  execute a SuiteSpec manifest (embedded, file-
                      referenced or campaign members) as one job over
                      shared scenario builds, print the SuiteReport
                      JSON; campaign members run a staged estimator
                      over one cached scenario build; --threads
                      overrides the manifest's session budget
                      (scheduling only — output is bit-identical)
  run --scenario NAME --method NAME
                      build the manifest from flags (same Session path);
                      --dry-run prints the canonical manifest instead
  dsl <model.dsl>     compile a scenario DSL source (grammar in
                      docs/FORMATS.md) and print a model summary;
                      --param K=V binds a declared `param` (repeatable,
                      numeric); --emit-spec prints the canonical RunSpec
                      manifest embedding the source instead — the same
                      `{\"dsl\": ...}` form `run`, `suite` and `submit`
                      accept, with spanned line:col diagnostics
  scenarios           list registered scenarios and their parameters

serving (imcis.wire/2 — newline-delimited JSON over TCP):
  serve               run the suite-serving daemon: a supervised worker
                      pool executes submitted suites over one shared
                      scenario cache and streams member reports as they
                      complete; a panicking member becomes a typed
                      member_error entry, never a dead worker
  router              front a fleet of daemons behind one wire endpoint:
                      jobs are placed by their dominant scenario cache
                      key on a consistent-hash ring (cache affinity),
                      spill to the next backend on rejection, and fail
                      over mid-job if a backend dies — the streamed
                      SuiteReport stays byte-identical throughout
  submit <suite.json> submit a SuiteSpec manifest to a daemon or router,
                      stream its events, print the stable SuiteReport
                      JSON (byte-identical to `imcis suite` on the
                      manifest)

serve options:
  --addr A         listen address                  [default 127.0.0.1:7414]
  --workers N      members running at once; 0 = all cores     [default 0]
  --queue N        bounded member-task queue capacity        [default 64]
  --rate R         per-connection submit rate limit (token bucket,
                   submits/second); over-limit submits are answered
                   `rejected {retry_after_ms}`; 0 disables  [default 0]

router options:
  --backend ADDR   a daemon to front (repeatable, at least one required)
  --addr A         listen address                  [default 127.0.0.1:7400]
  --queue N        maximum concurrently proxied jobs         [default 64]
  --heartbeat-ms T backend health-probe interval            [default 500]

submit options:
  --addr A         daemon address                  [default 127.0.0.1:7414]
  --events FILE    write every received wire event (raw NDJSON) to FILE
  --retry-ms T     retry failed connections and `rejected` submissions
                   with capped exponential backoff: delays start at T ms,
                   double per attempt up to 5000 ms, over at most 8
                   retries, with deterministic seeded jitter (+/-25%).
                   Omit the flag for a single attempt; 0 is an error.
  --deadline-ms D  job deadline: members not started D ms after the
                   daemon accepts the job report typed `timeout` entries
  --ping           liveness probe only (expects a pong)
  --status         print the peer's load snapshot and exit: a daemon
                   answers one line (queue depth, active jobs, workers,
                   cache size, uptime) plus one line per in-flight
                   campaign member (its stage progress); a router
                   answers the aggregated per-backend table
  --shutdown       ask the daemon to drain active jobs and exit

run options:
  --method NAME    smc | standard-is | zero-variance | cross-entropy | imcis
                   | ce-campaign | dupuis-wang
  --param K=V      scenario parameter (repeatable; V parsed as JSON scalar)
  --reps K         independent repetitions            [default 1]
  --n N            traces per estimation run          [default 10000]
  --delta D        confidence parameter               [default 0.05]
  --max-steps K    per-trace transition budget        [default 1000000]
  --seed S         RNG seed                           [default 2018]
  --r R            undefeated rounds for imcis        [default 1000]
  --r-max R        optimisation round cap for imcis   [default 100000]
  --trace          record the imcis convergence trace in the report
  --threads T      simulation worker threads; 0 = all cores [default 0]
  --search-batch B imcis candidate search: draw candidates in parallel
                   rounds of B (0 = sequential Algorithm 2) [default 0]
  --search-threads T
                   worker threads for the batched candidate search
  --dry-run        print the canonical RunSpec JSON, do not run

model-file commands:
  info      summarise a model file (states, transitions, labels, BSCCs)
  solve     exact reach(-avoid) probability of a DTMC
  mttf      expected steps to the target set of a DTMC
  smc       crude Monte Carlo estimation on a DTMC
  envelope  exact min/max reachability over all members of an IMC

  IMCIS (Algorithm 1 of the DSN'18 paper) on an IMC model file runs the
  `file` scenario, which streams rows in ascending (from, to) order:
    imcis run --scenario file --param path=M --param target=L --method imcis

model-file options:
  --target LABEL   goal states (required)
  --avoid LABEL    forbidden states (optional)
  --bound K        step bound (optional; property becomes bounded)
  --n N            traces for smc                  [default 10000]
  --delta D        confidence parameter            [default 0.05]
  --seed S         RNG seed                        [default 2018]
  --threads T      simulation worker threads; 0 = all cores [default 0]
                   (results are bit-identical for any thread count)";

/// `imcis version` output (from the crate metadata).
pub fn version() -> String {
    format!("imcis {}", env!("CARGO_PKG_VERSION"))
}

/// Parsed legacy (model-file) command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Subcommand name.
    pub command: String,
    /// Model file path.
    pub model_path: String,
    /// Goal label.
    pub target: Option<String>,
    /// Avoid label.
    pub avoid: Option<String>,
    /// Step bound.
    pub bound: Option<usize>,
    /// Trace count.
    pub n: usize,
    /// Confidence parameter.
    pub delta: f64,
    /// RNG seed.
    pub seed: u64,
    /// Simulation worker threads (`0` = all cores).
    pub threads: usize,
}

/// Parses the argument vector of a model-file command (without the
/// program name). `help`/`version` are handled before this in [`run`];
/// they need no model argument.
///
/// # Errors
///
/// Returns [`CliError::Usage`] on malformed arguments, and on `--n` or
/// `--delta` values a manifest would reject (`--n 0`, `--delta` outside
/// `(0, 1)`).
pub fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut flags = Flags::new(args);
    let command = flags
        .next_arg()
        .ok_or_else(|| CliError::Usage("missing command".into()))?
        .clone();
    let model_path = flags
        .next_arg()
        .ok_or_else(|| CliError::Usage("missing model file".into()))?
        .clone();
    let sample = SampleSpec::default();
    let mut options = Options {
        command,
        model_path,
        target: None,
        avoid: None,
        bound: None,
        n: sample.n_traces,
        delta: sample.delta,
        seed: RunSpec::DEFAULT_SEED,
        threads: 0,
    };
    while let Some(flag) = flags.next_arg() {
        match flag.as_str() {
            "--target" => options.target = Some(flags.value()?),
            "--avoid" => options.avoid = Some(flags.value()?),
            "--bound" => options.bound = Some(flags.parse()?),
            "--n" => options.n = flags.parse()?,
            "--delta" => options.delta = flags.parse()?,
            "--seed" => options.seed = flags.parse()?,
            "--threads" => options.threads = flags.parse()?,
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
    }
    // `--n`/`--delta` obey the manifest rules (the scenario is only a
    // placeholder), so `--n 0` is a usage error here rather than a panic
    // in the engine.
    let sample = SampleSpec {
        n_traces: options.n,
        delta: options.delta,
        ..sample
    };
    validated(RunSpec::new(
        ScenarioRef::named("file"),
        Method::Smc(sample),
        options.seed,
    ))?;
    Ok(options)
}

/// Reads one command's arguments: each flag is named once, in its match
/// arm, and the reader names it in the messages about its value.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The argument [`Flags::next_arg`] returned last.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The next argument: a flag or a positional.
    fn next_arg(&mut self) -> Option<&'a String> {
        let arg = self.args.next()?;
        self.flag = arg;
        Some(arg)
    }

    /// The value after the current flag.
    fn value(&mut self) -> Result<String, CliError> {
        self.args
            .next()
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("{} requires a value", self.flag)))
    }

    /// The value after the current flag, parsed.
    fn parse<T: FromStr>(&mut self) -> Result<T, CliError> {
        let raw = self.value()?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("{}: cannot parse `{raw}`", self.flag)))
    }

    /// The `K=V` value after a `--param` flag. `V` is a JSON scalar:
    /// unsigned/signed integers, floats and booleans parse as such,
    /// anything else stays a string.
    fn param(&mut self) -> Result<(String, Value), CliError> {
        let raw = self.value()?;
        let (key, val) = raw
            .split_once('=')
            .ok_or_else(|| CliError::Usage(format!("--param expects K=V, got `{raw}`")))?;
        let value = if let Ok(u) = val.parse::<u64>() {
            Value::UInt(u)
        } else if let Ok(i) = val.parse::<i64>() {
            Value::Int(i)
        } else if let Ok(f) = val.parse::<f64>() {
            Value::Float(f)
        } else {
            match val {
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                _ => Value::Str(val.to_string()),
            }
        };
        Ok((key.to_string(), value))
    }
}

/// `imcis scenarios`: the registry listing.
pub fn list_scenarios() -> String {
    let registry = ScenarioRegistry::builtin();
    let mut out = String::from("registered scenarios:\n");
    for scenario in registry.iter() {
        out.push_str(&format!(
            "\n  {:<18}{}\n",
            scenario.name(),
            scenario.summary()
        ));
        for param in scenario.params() {
            out.push_str(&format!(
                "    --param {:<14}{} [default {}]\n",
                param.key, param.description, param.default
            ));
        }
    }
    out.push_str("\nrun one with: imcis run --scenario NAME --method imcis [options]");
    out
}

/// Builds a [`RunSpec`] from `imcis run` flags.
///
/// The built spec is validated through the same schema checks the
/// manifest file form uses, so the flag and file paths accept exactly
/// the same configurations and `--dry-run` output is always runnable.
///
/// # Errors
///
/// [`CliError::Usage`] on malformed flags, out-of-range values, or
/// IMCIS-only flags combined with another method.
pub fn spec_from_flags(args: &[String]) -> Result<RunSpec, CliError> {
    let mut scenario: Option<String> = None;
    let mut params: Vec<(String, Value)> = Vec::new();
    let mut method_name: Option<String> = None;
    let mut sample = SampleSpec::default();
    let mut imcis = ImcisSpec::default();
    let mut search_batch = 0usize;
    // The seed, thread budgets and repetitions; the scenario and the
    // method are filled in once every flag is read.
    let mut spec = RunSpec::new(
        ScenarioRef::named(""),
        Method::Smc(sample),
        RunSpec::DEFAULT_SEED,
    );
    // IMCIS-only flags the user actually passed: rejected loudly with
    // any other method instead of being silently ignored (same contract
    // as the manifest form's unknown-key errors).
    let mut imcis_only: Vec<&'static str> = Vec::new();

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag.as_str() {
            "--scenario" => scenario = Some(flags.value()?),
            "--method" => method_name = Some(flags.value()?),
            "--param" => params.push(flags.param()?),
            "--reps" => spec.repetitions = flags.parse()?,
            "--n" => sample.n_traces = flags.parse()?,
            "--delta" => sample.delta = flags.parse()?,
            "--max-steps" => sample.max_steps = flags.parse()?,
            "--seed" => spec.seed = flags.parse()?,
            "--r" => {
                imcis.r_undefeated = flags.parse()?;
                imcis_only.push("--r");
            }
            "--r-max" => {
                imcis.r_max = flags.parse()?;
                imcis_only.push("--r-max");
            }
            "--trace" => {
                imcis.record_trace = true;
                imcis_only.push("--trace");
            }
            "--threads" => spec.threads = flags.parse()?,
            "--search-batch" => {
                search_batch = flags.parse()?;
                imcis_only.push("--search-batch");
            }
            "--search-threads" => spec.search_threads = flags.parse()?,
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
    }

    let scenario = scenario.ok_or_else(|| CliError::Usage("--scenario is required".into()))?;
    let method_name = method_name.ok_or_else(|| CliError::Usage("--method is required".into()))?;
    if method_name != "imcis" && !imcis_only.is_empty() {
        return Err(CliError::Usage(format!(
            "{} only appl{} to --method imcis, not `{method_name}`",
            imcis_only.join("/"),
            if imcis_only.len() == 1 { "ies" } else { "y" },
        )));
    }
    spec.method = match method_name.as_str() {
        "smc" => Method::Smc(sample),
        "standard-is" => Method::StandardIs(sample),
        "zero-variance" => Method::ZeroVarianceIs(sample),
        "cross-entropy" => Method::CrossEntropyIs(CrossEntropySpec {
            sample,
            ..CrossEntropySpec::default()
        }),
        "ce-campaign" => Method::CeCampaign(AdaptiveSpec {
            sample,
            ..AdaptiveSpec::default()
        }),
        "dupuis-wang" => Method::DupuisWang(AdaptiveSpec {
            sample,
            ..AdaptiveSpec::default()
        }),
        "imcis" => Method::Imcis(ImcisSpec {
            sample,
            search: if search_batch > 0 {
                SearchStrategy::Batched {
                    batch_size: search_batch,
                }
            } else {
                imcis.search
            },
            ..imcis
        }),
        other => {
            return Err(CliError::Usage(format!(
                "unknown method `{other}` \
                 (smc | standard-is | zero-variance | cross-entropy | imcis | \
                 ce-campaign | dupuis-wang)"
            )))
        }
    };
    spec.scenario = ScenarioRef {
        name: scenario,
        params: ScenarioParams::from_pairs(params),
    };
    validated(spec)
}

/// Runs `spec` through the manifest validation layer: out-of-range
/// values (delta ∉ (0,1), n_traces = 0, repetitions = 0, …) become usage
/// errors here instead of panics deeper in the engines, and every
/// `--dry-run` manifest is guaranteed to be runnable.
fn validated(spec: RunSpec) -> Result<RunSpec, CliError> {
    RunSpec::from_json(&spec.to_json()).map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(spec)
}

/// `imcis suite <suite.json> [--threads T]`: a SuiteSpec manifest end to
/// end, optionally overriding the manifest's session-level thread budget
/// for scheduling only (results are bit-identical at every budget).
fn run_suite_command(args: &[String]) -> Result<String, CliError> {
    let mut path: Option<&String> = None;
    let mut threads: Option<usize> = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_arg() {
        match arg.as_str() {
            "--threads" => threads = Some(flags.parse()?),
            other if !other.starts_with("--") && path.is_none() => path = Some(arg),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected suite argument `{other}` \
                     (usage: imcis suite <suite.json> [--threads T])"
                )))
            }
        }
    }
    let Some(path) = path else {
        return Err(CliError::Usage(
            "suite takes exactly one SuiteSpec manifest file".into(),
        ));
    };
    let spec = SuiteSpec::load(path).map_err(SessionError::Spec)?;
    let suite = Suite::from_spec(spec)?;
    let report = match threads {
        Some(t) => suite.run_with_threads(t)?,
        None => suite.run()?,
    };
    Ok(report.to_json_string())
}

/// `imcis dsl <model.dsl> [--param K=V] [--emit-spec]`: compile a
/// scenario DSL source through the same front end the `{"dsl": ...}`
/// manifest form uses and print a model summary, or — with
/// `--emit-spec` — the canonical `RunSpec` manifest embedding the
/// source (ready for `imcis run` / suite membership; the method is the
/// `smc` default, edit it afterwards). Diagnostics surface as the same
/// typed, line/column-spanned errors the manifest layer reports.
fn dsl_command(args: &[String]) -> Result<String, CliError> {
    let mut path: Option<&String> = None;
    let mut emit_spec = false;
    let mut params: Vec<(String, Value)> = Vec::new();
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_arg() {
        match arg.as_str() {
            "--emit-spec" => emit_spec = true,
            "--param" => params.push(flags.param()?),
            other if !other.starts_with("--") && path.is_none() => path = Some(arg),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected dsl argument `{other}` \
                     (usage: imcis dsl <model.dsl> [--param K=V] [--emit-spec])"
                )))
            }
        }
    }
    let Some(path) = path else {
        return Err(CliError::Usage(
            "dsl takes exactly one scenario source file".into(),
        ));
    };
    let source = std::fs::read_to_string(path).map_err(CliError::Io)?;
    // Route through the manifest layer rather than calling the compiler
    // directly: the emitted spec is then canonical by construction
    // (parse → serialize fixpoint), `--param` bindings are checked by
    // the same rules as `scenario.params`, and the cache key matches
    // what a daemon would compute for the same submission.
    let spec_value = Value::object([
        (
            "scenario".into(),
            Value::object([
                ("dsl".into(), Value::Str(source.clone())),
                ("params".into(), Value::Object(params)),
            ]),
        ),
        (
            "method".into(),
            Value::object([("name".into(), Value::Str("smc".into()))]),
        ),
    ]);
    let spec = RunSpec::from_json(&spec_value).map_err(SessionError::Spec)?;
    if emit_spec {
        return Ok(spec.to_json_string());
    }
    let (dsl_source, bound) = spec
        .scenario
        .dsl_parts()
        .expect("a dsl-form spec round-trips its source");
    let bound: Vec<(String, Value)> = bound.to_vec();
    let setup = imcis_core::dsl::compile(dsl_source, &bound)
        .map_err(|e| SessionError::Spec(SpecError::Dsl(e)))?;
    let transitions: usize = (0..setup.center.num_states())
        .map(|s| setup.center.row(s).map_or(0, |r| r.iter().count()))
        .sum();
    let mut out = format!(
        "scenario: {}\nstates: {} (initial s{})\ntransitions: {}\n",
        setup.name,
        setup.center.num_states(),
        setup.center.initial(),
        transitions
    );
    let labels: Vec<String> = setup
        .center
        .labels()
        .iter()
        .map(|(name, states)| format!("{name}({})", states.iter().count()))
        .collect();
    out.push_str(&format!(
        "labels: {}\n",
        if labels.is_empty() {
            "none".to_string()
        } else {
            labels.join(" ")
        }
    ));
    let property = match &setup.property {
        Property::BoundedReach { bound, .. } => format!("bounded reach (within {bound})"),
        Property::ReachAvoid { bound: None, .. } => "reach-avoid".to_string(),
        Property::ReachAvoid { bound: Some(b), .. } => format!("reach-avoid (within {b})"),
        Property::XReachAvoid { .. } => "reach before return".to_string(),
    };
    out.push_str(&format!("property: {property}\n"));
    if let Some(g) = setup.gamma_center {
        out.push_str(&format!("gamma center: {g}\n"));
    }
    if let Some(g) = setup.gamma_exact {
        out.push_str(&format!("gamma exact: {g}\n"));
    }
    out.push_str(&format!(
        "cache key fingerprint: {:016x}",
        spec.scenario.cache_fingerprint()
    ));
    Ok(out)
}

/// `imcis serve [--addr A] [--workers N] [--queue N]`: the suite-serving
/// daemon. Blocks until a client sends `shutdown`; a readiness line goes
/// to stderr so scripts can background the process and wait for it.
fn serve_command(args: &[String]) -> Result<String, CliError> {
    let mut config = ServeConfig::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag.as_str() {
            "--addr" => config.addr = flags.value()?,
            "--workers" => config.workers = flags.parse()?,
            "--queue" => config.queue = flags.parse()?,
            "--rate" => config.rate = flags.parse()?,
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected serve argument `{other}` \
                     (usage: imcis serve [--addr A] [--workers N] [--queue N] [--rate R])"
                )))
            }
        }
    }
    let server = Server::bind(config)?;
    let addr = server.local_addr();
    eprintln!("imcis serve: listening on {addr} (wire protocol imcis.wire/2)");
    server.run()?;
    Ok(format!("imcis serve: {addr} shut down cleanly"))
}

/// `imcis router --backend ADDR [--backend ADDR ...] [--addr A]
/// [--queue N] [--heartbeat-ms T]`: the cache-affinity front-line
/// router. Speaks the same `imcis.wire/2` protocol as the daemon, so
/// `imcis submit` (and any other wire client) works against it
/// unchanged; see `imcis_core::router` for the routing, spill and
/// failover semantics. Blocks until a client sends `shutdown` (which is
/// fanned out to the fleet first).
fn router_command(args: &[String]) -> Result<String, CliError> {
    let mut config = RouterConfig::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag.as_str() {
            "--backend" => config.backends.push(flags.value()?),
            "--addr" => config.addr = flags.value()?,
            "--queue" => config.queue = flags.parse()?,
            "--heartbeat-ms" => config.heartbeat_ms = flags.parse()?,
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected router argument `{other}` \
                     (usage: imcis router --backend ADDR [--backend ADDR ...] \
                     [--addr A] [--queue N] [--heartbeat-ms T])"
                )))
            }
        }
    }
    if config.backends.is_empty() {
        return Err(CliError::Usage(
            "router needs at least one --backend address".into(),
        ));
    }
    if config.heartbeat_ms == 0 {
        return Err(CliError::Usage("--heartbeat-ms must be positive".into()));
    }
    let backends = config.backends.len();
    let router = Router::bind(config)?;
    let addr = router.local_addr();
    eprintln!(
        "imcis router: listening on {addr} (wire protocol imcis.wire/2), \
         fronting {backends} backend(s)"
    );
    router.run()?;
    Ok(format!("imcis router: {addr} shut down cleanly"))
}

/// Renders a `--status` answer for humans — shape-tolerantly: a daemon
/// prints the familiar one-liner, a router prints the aggregated
/// per-backend table (both pinned by `tests/cli_help.rs` /
/// `tests/router.rs`).
fn format_status(addr: &str, snapshot: &StatusSnapshot) -> String {
    match snapshot {
        StatusSnapshot::Daemon(s) => {
            let mut out = format!(
                "daemon at {addr}: queue {}/{}, {} active job(s), {} worker(s), \
                 {} cached setup(s), up {} ms",
                s.queue_depth,
                s.queue_capacity,
                s.active_jobs,
                s.workers,
                s.cache_size,
                s.uptime_ms
            );
            // In-flight campaign members append their stage progress —
            // run-only load keeps the familiar one-liner.
            for c in &s.campaigns {
                out.push_str(&format!(
                    "\n  job {} member {}: stage {}, {} stage(s) done",
                    c.job_id, c.member, c.stage, c.stages_done
                ));
            }
            out
        }
        StatusSnapshot::Router(r) => {
            let healthy = r.backends.iter().filter(|b| b.healthy).count();
            let mut out = format!(
                "router at {addr}: {healthy}/{} backend(s) healthy, {} active job(s), \
                 {} routed, up {} ms",
                r.backends.len(),
                r.active_jobs,
                r.jobs_routed,
                r.uptime_ms
            );
            for backend in &r.backends {
                match &backend.status {
                    Some(s) => out.push_str(&format!(
                        "\n  {}: healthy, queue {}/{}, {} active job(s), {} worker(s), \
                         {} cached setup(s), up {} ms",
                        backend.addr,
                        s.queue_depth,
                        s.queue_capacity,
                        s.active_jobs,
                        s.workers,
                        s.cache_size,
                        s.uptime_ms
                    )),
                    None => out.push_str(&format!("\n  {}: unreachable", backend.addr)),
                }
            }
            out
        }
    }
}

/// Backoff delay ceiling: exponential doubling from the `--retry-ms`
/// base stops growing here.
const BACKOFF_CAP_MS: u64 = 5_000;
/// Retry budget: at most this many *re*tries after the first attempt,
/// for connections and `rejected` submissions alike.
const BACKOFF_MAX_RETRIES: u32 = 8;
/// Seed of the deterministic jitter stream (the paper's year, like every
/// other default seed in the workspace).
const BACKOFF_JITTER_SEED: u64 = 2018;

/// The backoff delay before retry `attempt` (0-based): the `--retry-ms`
/// base doubled per attempt, capped at [`BACKOFF_CAP_MS`], then jittered
/// by ±25% — deterministically, via the same `stream_seed` derivation
/// the engines use, so a given (base, attempt) always waits the same
/// amount and tests can pin the schedule.
fn backoff_delay_ms(base_ms: u64, attempt: u32) -> u64 {
    let doubled = base_ms.saturating_mul(1u64 << attempt.min(32));
    let capped = doubled.clamp(1, BACKOFF_CAP_MS);
    // Map the stream word onto [-25%, +25%] of the capped delay.
    let jitter_word = imc_sim::stream_seed(BACKOFF_JITTER_SEED, u64::from(attempt)) % 501;
    let offset = (capped * jitter_word / 1000) as i64 - (capped / 4) as i64;
    capped.saturating_add_signed(offset).max(1)
}

/// Connects to a daemon. With `retry_base_ms` set (the `--retry-ms`
/// flag), connection failures retry with capped exponential backoff and
/// seeded jitter ([`backoff_delay_ms`]); `None` means a single attempt
/// (daemon startup races in scripts are the use case for retrying).
/// Only the *connection* is retried: a malformed or unresolvable address
/// is permanent and surfaces immediately instead of waiting out the
/// backoff schedule.
fn connect_with_retry(addr: &str, retry_base_ms: Option<u64>) -> Result<Client, CliError> {
    use std::net::ToSocketAddrs;
    let resolved: Vec<std::net::SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| CliError::Serve(ServeError::Io(format!("cannot resolve `{addr}`: {e}"))))?
        .collect();
    let mut attempt = 0u32;
    loop {
        match Client::connect(&resolved[..]) {
            Ok(client) => return Ok(client),
            Err(e) => {
                let Some(base) = retry_base_ms else {
                    return Err(e.into());
                };
                if attempt >= BACKOFF_MAX_RETRIES {
                    return Err(e.into());
                }
                std::thread::sleep(std::time::Duration::from_millis(backoff_delay_ms(
                    base, attempt,
                )));
                attempt += 1;
            }
        }
    }
}

/// `imcis submit <suite.json> [--addr A] [--events FILE] [--retry-ms T]
/// [--deadline-ms D]` (or `--ping` / `--status` / `--shutdown`): the
/// wire-protocol client. The manifest is loaded locally —
/// file-referenced members resolve relative to the manifest, exactly as
/// `imcis suite` resolves them — and submitted embedded, so the daemon
/// needs no access to the client's filesystem. With `--retry-ms`, a
/// `rejected {retry_after_ms}` backpressure answer re-submits on a fresh
/// connection after the larger of the server's hint and the backoff
/// schedule.
fn submit_command(args: &[String]) -> Result<String, CliError> {
    let mut path: Option<&String> = None;
    let mut addr = ServeConfig::default().addr;
    let mut events_path: Option<String> = None;
    let mut retry_ms: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut ping = false;
    let mut status = false;
    let mut shutdown = false;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_arg() {
        match arg.as_str() {
            "--addr" => addr = flags.value()?,
            "--events" => events_path = Some(flags.value()?),
            "--retry-ms" => retry_ms = Some(flags.parse()?),
            "--deadline-ms" => deadline_ms = Some(flags.parse()?),
            "--ping" => ping = true,
            "--status" => status = true,
            "--shutdown" => shutdown = true,
            other if !other.starts_with("--") && path.is_none() => path = Some(arg),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected submit argument `{other}` (usage: imcis submit \
                     <suite.json> [--addr A] [--events FILE] [--retry-ms T] \
                     [--deadline-ms D], or --ping / --status / --shutdown)"
                )))
            }
        }
    }
    if retry_ms == Some(0) {
        // The old fixed-interval loop treated 0 as "one attempt"; under
        // backoff a zero base would be a busy-loop. Pin it as an error.
        return Err(CliError::Usage(
            "--retry-ms 0 would retry without backing off; omit the flag \
             for a single attempt, or pass a positive backoff base"
                .into(),
        ));
    }
    if deadline_ms == Some(0) {
        return Err(CliError::Usage("--deadline-ms must be positive".into()));
    }
    let probes = u32::from(ping) + u32::from(status) + u32::from(shutdown);
    if probes > 1 {
        return Err(CliError::Usage(
            "--ping, --status and --shutdown are mutually exclusive".into(),
        ));
    }
    if probes == 1 && path.is_some() {
        return Err(CliError::Usage(
            "--ping/--status/--shutdown take no manifest argument".into(),
        ));
    }
    if probes == 1 && events_path.is_some() {
        return Err(CliError::Usage(
            "--events only applies to a manifest submission".into(),
        ));
    }
    if probes == 1 && deadline_ms.is_some() {
        return Err(CliError::Usage(
            "--deadline-ms only applies to a manifest submission".into(),
        ));
    }
    if probes == 0 && path.is_none() {
        return Err(CliError::Usage(
            "submit takes exactly one SuiteSpec manifest file".into(),
        ));
    }
    // Load and validate the manifest before touching the network: a bad
    // path or spec is knowable instantly and must not wait out a
    // --retry-ms connection loop.
    let spec = match path {
        Some(path) => Some(SuiteSpec::load(path).map_err(SessionError::Spec)?),
        None => None,
    };
    let mut client = connect_with_retry(&addr, retry_ms)?;
    if ping {
        client.ping()?;
        return Ok(format!("pong from {addr}"));
    }
    if status {
        let snapshot = client.status()?;
        return Ok(format_status(&addr, &snapshot));
    }
    if shutdown {
        client.shutdown()?;
        return Ok(format!("daemon at {addr} is shutting down"));
    }
    let spec = spec.expect("checked above");
    let mut events_file = match &events_path {
        Some(p) => Some(std::fs::File::create(p).map_err(CliError::Io)?),
        None => None,
    };
    let mut on_event = |line: &str, _event: &Value| {
        if let Some(file) = &mut events_file {
            use std::io::Write;
            // Event-log writes are best-effort: losing the side log must
            // not abort a submission that is already streaming results.
            let _ = writeln!(file, "{line}");
        }
    };
    let mut attempt = 0u32;
    let outcome = loop {
        match client.submit_with_deadline(&spec, deadline_ms, &mut on_event) {
            Ok(outcome) => break outcome,
            Err(ServeError::Rejected { retry_after_ms })
                if retry_ms.is_some() && attempt < BACKOFF_MAX_RETRIES =>
            {
                // Backpressure: honour the server's hint, but never back
                // off *less* than the deterministic schedule.
                let base = retry_ms.expect("guarded above");
                let delay = backoff_delay_ms(base, attempt).max(retry_after_ms);
                std::thread::sleep(std::time::Duration::from_millis(delay));
                attempt += 1;
            }
            Err(e) => return Err(e.into()),
        }
    };
    Ok(outcome.suite_report.pretty())
}

/// `imcis run ...`: manifest file or flag form, over the same `Session`.
fn run_spec_command(args: &[String]) -> Result<String, CliError> {
    if args.is_empty() {
        return Err(CliError::Usage(
            "run needs a spec file or --scenario/--method flags".into(),
        ));
    }
    // File form: a single positional argument.
    if !args[0].starts_with("--") {
        if args.len() > 1 {
            return Err(CliError::Usage(
                "run takes either one spec file or flags, not both".into(),
            ));
        }
        let text = std::fs::read_to_string(&args[0]).map_err(CliError::Io)?;
        let spec = RunSpec::from_str(&text).map_err(SessionError::Spec)?;
        let report = Session::from_spec(spec)?.run()?;
        return Ok(report.to_json_string());
    }
    // Flag form.
    let dry_run = args.iter().any(|a| a == "--dry-run");
    let args: Vec<String> = args.iter().filter(|a| *a != "--dry-run").cloned().collect();
    let spec = spec_from_flags(&args)?;
    if dry_run {
        return Ok(spec.to_json_string());
    }
    let report = Session::from_spec(spec)?.run()?;
    Ok(report.to_json_string())
}

/// Executes a parsed legacy invocation against in-memory model text,
/// returning the report to print. Separated from file I/O for
/// testability.
///
/// # Errors
///
/// Returns a [`CliError`] on unknown labels or failed analyses.
pub fn run_on_text(options: &Options, model_text: &str) -> Result<String, CliError> {
    match options.command.as_str() {
        "solve" | "mttf" | "smc" => {
            let chain = io::parse_dtmc(model_text).map_err(CliError::Parse)?;
            run_dtmc_command(options, &chain)
        }
        "envelope" => {
            let imc = io::parse_imc(model_text).map_err(CliError::Parse)?;
            run_envelope(options, &imc)
        }
        "info" => run_info(model_text),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// `info`: structural summary of a model file of either kind.
fn run_info(model_text: &str) -> Result<String, CliError> {
    if let Ok(chain) = io::parse_dtmc(model_text) {
        let bsccs = imc_markov::graph::bsccs(&chain);
        let reachable = imc_markov::graph::forward_reachable(&chain, chain.initial());
        let labels: Vec<String> = chain
            .label_names()
            .map(|l| format!("{l} ({} states)", chain.labeled_states(l).len()))
            .collect();
        return Ok(format!(
            "dtmc: {} states, {} transitions, initial {}\n\
             reachable from initial: {} states\n\
             bottom SCCs: {}\n\
             labels: {}",
            chain.num_states(),
            chain.num_transitions(),
            chain.initial(),
            reachable.len(),
            bsccs.len(),
            if labels.is_empty() {
                "none".into()
            } else {
                labels.join(", ")
            },
        ));
    }
    let imc = io::parse_imc(model_text).map_err(CliError::Parse)?;
    let widths: Vec<f64> = imc
        .rows()
        .flat_map(|row| row.iter().map(|e| e.hi - e.lo))
        .collect();
    let max_width = widths.iter().copied().fold(0.0, f64::max);
    let n_intervals = widths.len();
    let n_exact = widths.iter().filter(|&&w| w == 0.0).count();
    Ok(format!(
        "imc: {} states, {} interval transitions ({} exact), initial {}\n\
         widest interval: {max_width:.6}\n\
         consistent: every row admits a distribution (validated on load)",
        imc.num_states(),
        n_intervals,
        n_exact,
        imc.initial(),
    ))
}

fn labelled_set(states: &StateSet, label: &str) -> Result<StateSet, CliError> {
    if states.is_empty() {
        Err(CliError::UnknownLabel(label.to_owned()))
    } else {
        Ok(states.clone())
    }
}

fn run_dtmc_command(options: &Options, chain: &Dtmc) -> Result<String, CliError> {
    let target_label = options
        .target
        .as_deref()
        .ok_or_else(|| CliError::Usage("--target is required".into()))?;
    let target = labelled_set(chain.labeled_states(target_label), target_label)?;
    let avoid = match &options.avoid {
        Some(label) => labelled_set(chain.labeled_states(label), label)?,
        None => StateSet::new(chain.num_states()),
    };
    match options.command.as_str() {
        "solve" => {
            let probs = match options.bound {
                Some(k) => bounded_reach_avoid_probs(chain, &target, &avoid, k),
                None => reach_avoid_probs(chain, &target, &avoid)
                    .map_err(|e| CliError::Analysis(e.to_string()))?,
            };
            Ok(format!(
                "P({}{} U {}) from state {} = {:.6e}",
                options
                    .bound
                    .map_or(String::new(), |k| format!("<= {k} steps: ")),
                options
                    .avoid
                    .as_deref()
                    .map_or("true".into(), |a| format!("!{a}")),
                target_label,
                chain.initial(),
                probs[chain.initial()]
            ))
        }
        "mttf" => {
            let h =
                expected_steps_to(chain, &target).map_err(|e| CliError::Analysis(e.to_string()))?;
            let value = h[chain.initial()];
            Ok(if value.is_finite() {
                format!("expected steps to {target_label} = {value:.6}")
            } else {
                format!("target {target_label} is not reached almost surely (MTTF = inf)")
            })
        }
        "smc" => {
            let property = build_property(options, target, avoid);
            let mut rng = rand::rngs::StdRng::seed_from_u64(options.seed);
            let result = monte_carlo(
                chain,
                &property,
                &SmcConfig::new(options.n, options.delta).with_threads(options.threads),
                &mut rng,
            );
            Ok(format!(
                "γ̂ = {:.6e}  ({}/{} traces; {:.0}%-CI = {})",
                result.estimate,
                result.hits,
                result.n,
                100.0 * (1.0 - options.delta),
                result.ci
            ))
        }
        _ => unreachable!("dispatched in run_on_text"),
    }
}

/// `envelope`: exact min/max reachability over all members of an IMC.
fn run_envelope(options: &Options, imc: &Imc) -> Result<String, CliError> {
    let target_label = options
        .target
        .as_deref()
        .ok_or_else(|| CliError::Usage("--target is required".into()))?;
    let target = labelled_set(imc.labeled_states(target_label), target_label)?;
    let avoid = match &options.avoid {
        Some(label) => labelled_set(imc.labeled_states(label), label)?,
        None => StateSet::new(imc.num_states()),
    };
    let (min, max) = match options.bound {
        Some(k) => imc_bounded_reach_bounds(imc, &target, &avoid, k),
        None => {
            imc_reach_bounds(imc, &target, &avoid).map_err(|e| CliError::Analysis(e.to_string()))?
        }
    };
    Ok(format!(
        "γ over all members: [{:.6e}, {:.6e}] from state {}",
        min[imc.initial()],
        max[imc.initial()],
        imc.initial()
    ))
}

fn build_property(options: &Options, target: StateSet, avoid: StateSet) -> Property {
    match options.bound {
        Some(k) => Property::reach_avoid_bounded(target, avoid, k),
        None => Property::reach_avoid(target, avoid),
    }
}

/// Prints a command's result to `out` with one trailing newline. JSON
/// reports already end in a newline, which is trimmed, so piping the
/// output to a file yields the canonical byte-identical form. A reader
/// that closed the pipe early (`imcis run … | head`) is success, not an
/// error.
///
/// # Errors
///
/// Any write error other than [`std::io::ErrorKind::BrokenPipe`].
pub fn print_output(out: &mut impl std::io::Write, text: &str) -> std::io::Result<()> {
    match writeln!(out, "{}", text.trim_end_matches('\n')).and_then(|()| out.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        result => result,
    }
}

/// Full entry point: dispatch on the first argument, read files, run.
///
/// # Errors
///
/// Any [`CliError`].
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(first) = args.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    match first.as_str() {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "version" | "--version" | "-V" => Ok(version()),
        "scenarios" => Ok(list_scenarios()),
        "run" => run_spec_command(&args[1..]),
        "suite" => run_suite_command(&args[1..]),
        "dsl" => dsl_command(&args[1..]),
        "serve" => serve_command(&args[1..]),
        "router" => router_command(&args[1..]),
        "submit" => submit_command(&args[1..]),
        _ => {
            let options = parse_args(args)?;
            let text = std::fs::read_to_string(&options.model_path).map_err(CliError::Io)?;
            run_on_text(&options, &text)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    /// A writer that fails every write with `kind`, e.g. stdout after
    /// the reader at the other end of the pipe has exited.
    struct FailingWriter(std::io::ErrorKind);

    impl std::io::Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn printing_into_a_closed_pipe_is_a_clean_exit() {
        let mut out = Vec::new();
        print_output(&mut out, "{\"a\": 1}\n").unwrap();
        assert_eq!(out, b"{\"a\": 1}\n");
        print_output(&mut FailingWriter(std::io::ErrorKind::BrokenPipe), "report").unwrap();
        let other = print_output(
            &mut FailingWriter(std::io::ErrorKind::PermissionDenied),
            "report",
        )
        .unwrap_err();
        assert_eq!(other.kind(), std::io::ErrorKind::PermissionDenied);
    }

    const COIN: &str = "\
dtmc
states 3
initial 0
transition 0 1 0.25
transition 0 2 0.75
transition 1 1 1.0
transition 2 2 1.0
label 1 heads
label 2 tails
";

    const COIN_IMC: &str = "\
imc
states 3
initial 0
interval 0 1 0.2 0.3
interval 0 2 0.7 0.8
interval 1 1 1.0 1.0
interval 2 2 1.0 1.0
label 1 heads
label 2 tails
";

    #[test]
    fn parses_full_option_set() {
        let opts = parse_args(&args(&[
            "smc",
            "m.dtmc",
            "--target",
            "bad",
            "--avoid",
            "ok",
            "--bound",
            "30",
            "--n",
            "5000",
            "--delta",
            "0.01",
            "--seed",
            "7",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(opts.command, "smc");
        assert_eq!(opts.target.as_deref(), Some("bad"));
        assert_eq!(opts.avoid.as_deref(), Some("ok"));
        assert_eq!(opts.bound, Some(30));
        assert_eq!(
            (opts.n, opts.delta, opts.seed, opts.threads),
            (5000, 0.01, 7, 4)
        );
        // An omitted thread flag defaults to 0 (= all cores).
        let defaults = parse_args(&args(&["smc", "m.dtmc", "--target", "bad"])).unwrap();
        assert_eq!(defaults.threads, 0);
    }

    #[test]
    fn model_file_sample_values_are_validated_like_manifests() {
        // `--n 0` and a `--delta` outside (0, 1) would panic in the
        // engine, so they are usage errors under the manifest rules.
        for (flag, raw, rule) in [
            ("--n", "0", "`method.n_traces` must be positive"),
            ("--delta", "1.5", "`method.delta` must lie in (0, 1)"),
            ("--delta", "0", "`method.delta` must lie in (0, 1)"),
        ] {
            let bad = args(&["smc", "coin.dtmc", "--target", "heads", flag, raw]);
            match parse_args(&bad) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(rule), "{flag} {raw}: {msg}"),
                other => panic!("{flag} {raw}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(&args(&["solve"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["solve", "m", "--wat"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["solve", "m", "--n", "abc"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn help_and_version_need_no_model() {
        assert_eq!(run(&args(&["help"])).unwrap(), USAGE);
        assert_eq!(run(&args(&["--help"])).unwrap(), USAGE);
        let v = run(&args(&["version"])).unwrap();
        assert_eq!(v, format!("imcis {}", env!("CARGO_PKG_VERSION")));
        assert_eq!(run(&args(&["--version"])).unwrap(), v);
    }

    #[test]
    fn scenarios_lists_the_registry() {
        let listing = run(&args(&["scenarios"])).unwrap();
        for name in [
            "illustrative",
            "group-repair",
            "parametric-repair",
            "repair",
            "swat",
            "file",
        ] {
            assert!(listing.contains(name), "{listing}");
        }
    }

    #[test]
    fn run_flags_build_a_canonical_spec() {
        let report = run(&args(&[
            "run",
            "--scenario",
            "group-repair",
            "--method",
            "imcis",
            "--param",
            "is=zero-variance",
            "--n",
            "500",
            "--r",
            "50",
            "--seed",
            "7",
            "--dry-run",
        ]))
        .unwrap();
        let spec = RunSpec::from_str(&report).unwrap();
        assert_eq!(spec.scenario.name, "group-repair");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.method.name(), "imcis");
        assert_eq!(spec.method.sample().n_traces, 500);
        // Canonical: reserializing the dry-run output is byte-identical.
        assert_eq!(spec.to_json_string(), report);
    }

    #[test]
    fn flag_and_manifest_forms_share_one_set_of_defaults() {
        // With no tuning flag, a dry run prints the manifest that names
        // only the scenario and the method, every default filled in by
        // the manifest parser.
        let manifest = |scenario: &str, method: &str| {
            RunSpec::from_str(&format!(
                "{{\"scenario\": {{\"name\": \"{scenario}\"}}, \
                 \"method\": {{\"name\": \"{method}\"}}}}"
            ))
            .unwrap()
        };
        for method in [
            "smc",
            "standard-is",
            "zero-variance",
            "cross-entropy",
            "imcis",
            "ce-campaign",
            "dupuis-wang",
        ] {
            let printed = run(&args(&[
                "run",
                "--scenario",
                "illustrative",
                "--method",
                method,
                "--dry-run",
            ]))
            .unwrap();
            let canonical = manifest("illustrative", method).to_json_string();
            assert_eq!(printed, canonical, "{method}");
        }
        // The model-file commands start from the manifest's sample
        // defaults and seed.
        let options = parse_args(&args(&["smc", "m.dtmc"])).unwrap();
        let (sample, seed) = (SampleSpec::default(), manifest("file", "smc").seed);
        assert_eq!(
            (options.n, options.delta, options.seed),
            (sample.n_traces, sample.delta, seed)
        );
    }

    #[test]
    fn run_executes_a_spec_end_to_end() {
        let report = run(&args(&[
            "run",
            "--scenario",
            "illustrative",
            "--method",
            "standard-is",
            "--n",
            "400",
            "--seed",
            "5",
            "--threads",
            "1",
        ]))
        .unwrap();
        let value = serde::json::parse(&report).unwrap();
        assert_eq!(
            value.get("schema").and_then(|v| v.as_str()),
            Some("imcis.report/2")
        );
        assert!(value.get("estimate").and_then(Value::as_f64).is_some());
        assert!(value.get("timing").is_some());
    }

    #[test]
    fn run_flag_values_are_validated_like_manifests() {
        // Out-of-range values go through the manifest schema checks
        // instead of panicking in the engines...
        for bad in [
            vec![
                "run",
                "--scenario",
                "illustrative",
                "--method",
                "smc",
                "--delta",
                "1.5",
            ],
            vec![
                "run",
                "--scenario",
                "illustrative",
                "--method",
                "smc",
                "--n",
                "0",
            ],
            // ...and IMCIS-only flags are rejected with other methods
            // rather than silently ignored.
            vec![
                "run",
                "--scenario",
                "illustrative",
                "--method",
                "smc",
                "--r",
                "50",
            ],
            vec![
                "run",
                "--scenario",
                "illustrative",
                "--method",
                "standard-is",
                "--trace",
                "--search-batch",
                "8",
            ],
        ] {
            assert!(
                matches!(run(&args(&bad)), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn run_reps_zero_is_a_usage_error() {
        // The flag form keeps the manifest rule that rejects
        // `repetitions: 0` instead of running one repetition.
        let err = run(&args(&[
            "run",
            "--scenario",
            "illustrative",
            "--method",
            "smc",
            "--reps",
            "0",
            "--dry-run",
        ]))
        .unwrap_err();
        match err {
            CliError::Usage(msg) => {
                assert!(msg.contains("`spec.repetitions` must be positive"), "{msg}")
            }
            other => panic!("expected a usage error, got {other}"),
        }
    }

    #[test]
    fn run_multi_spec_and_suite_execute_shared_suites() {
        let dir = std::env::temp_dir().join("imcis_cli_suite_forms");
        std::fs::create_dir_all(&dir).unwrap();
        let dry = |method: &str, seed: &str| {
            run(&args(&[
                "run",
                "--scenario",
                "illustrative",
                "--method",
                method,
                "--n",
                "200",
                "--seed",
                seed,
                "--threads",
                "1",
                "--dry-run",
            ]))
            .unwrap()
        };
        let spec_a = dir.join("a.json");
        let spec_b = dir.join("b.json");
        std::fs::write(&spec_a, dry("smc", "3")).unwrap();
        std::fs::write(&spec_b, dry("standard-is", "4")).unwrap();

        // `imcis suite` over a file-referenced manifest (paths relative to
        // the manifest's directory) emits a SuiteReport over both members.
        let manifest = dir.join("suite.json");
        std::fs::write(
            &manifest,
            "{\"runs\": [{\"file\": \"a.json\"}, {\"file\": \"b.json\"}], \"threads\": 1}",
        )
        .unwrap();
        let suite_out = run(&args(&["suite", manifest.to_str().unwrap()])).unwrap();
        let value = serde::json::parse(&suite_out).unwrap();
        assert_eq!(
            value.get("schema").and_then(Value::as_str),
            Some("imcis.suitereport/2")
        );
        let reports = value.get("reports").and_then(Value::as_array).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(
            value
                .get("summary")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );

        // Member 0 of the suite matches the standalone run, timing
        // aside; since suitereport/2 the entry wraps the report in a
        // per-member status envelope.
        let mut single =
            serde::json::parse(&run(&args(&["run", spec_a.to_str().unwrap()])).unwrap()).unwrap();
        single.remove("timing");
        assert_eq!(reports[0].get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(reports[0].get("report"), Some(&single));

        let mut via_suite = value;
        via_suite.remove("timing");

        // `suite --threads T` overrides the manifest budget for
        // scheduling only: the stable report is byte-identical.
        for budget in ["2", "8"] {
            let mut overridden = serde::json::parse(
                &run(&args(&[
                    "suite",
                    manifest.to_str().unwrap(),
                    "--threads",
                    budget,
                ]))
                .unwrap(),
            )
            .unwrap();
            overridden.remove("timing");
            assert_eq!(overridden, via_suite);
        }
    }

    #[test]
    fn suite_usage_errors_are_reported() {
        assert!(matches!(run(&args(&["suite"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["suite", "a.json", "b.json"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["suite", "a.json", "--threads"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["suite", "a.json", "--seed", "1"])),
            Err(CliError::Usage(_))
        ));
        // Several manifests run as a suite, not through `run`.
        assert!(matches!(
            run(&args(&["run", "--spec", "a.json"])),
            Err(CliError::Usage(msg)) if msg.contains("unknown option `--spec`")
        ));
        // A missing suite manifest is a spec file error, not a panic.
        assert!(matches!(
            run(&args(&["suite", "/definitely/not/here.json"])),
            Err(CliError::Session(_))
        ));
    }

    #[test]
    fn submit_usage_errors_are_reported_before_any_network_io() {
        // Flag combinations that can never do useful work fail as usage
        // errors without touching the network.
        for bad in [
            vec!["submit"],
            vec!["submit", "--ping", "--shutdown"],
            vec!["submit", "--ping", "--status"],
            vec!["submit", "a.json", "--ping"],
            vec!["submit", "a.json", "--status"],
            vec!["submit", "--ping", "--events", "x.ndjson"],
            vec!["submit", "--shutdown", "--events", "x.ndjson"],
            vec!["submit", "--status", "--deadline-ms", "100"],
            vec!["submit", "a.json", "--deadline-ms", "0"],
        ] {
            assert!(
                matches!(run(&args(&bad)), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
        // --retry-ms 0 was the old "single attempt" spelling; under
        // capped exponential backoff it would be a busy-loop, so it is a
        // pinned usage error now.
        let err = run(&args(&["submit", "a.json", "--retry-ms", "0"])).unwrap_err();
        match err {
            CliError::Usage(msg) => assert!(
                msg.contains("--retry-ms 0 would retry without backing off"),
                "{msg}"
            ),
            other => panic!("expected a usage error, got {other}"),
        }
        // A missing manifest is knowable instantly — reported before the
        // --retry-ms connection loop could stall on it.
        let started = std::time::Instant::now();
        let err = run(&args(&[
            "submit",
            "/definitely/not/here.json",
            "--retry-ms",
            "30000",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Session(_)), "{err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
        // An unresolvable address is permanent: no retry loop either.
        let started = std::time::Instant::now();
        let err = run(&args(&[
            "submit",
            "--ping",
            "--addr",
            "definitely not an address",
            "--retry-ms",
            "30000",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Serve(_)), "{err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn router_usage_errors_are_reported_before_any_network_io() {
        for bad in [
            vec!["router"],
            vec!["router", "--backend"],
            vec!["router", "--addr", "127.0.0.1:0"],
            vec![
                "router",
                "--backend",
                "127.0.0.1:7501",
                "--heartbeat-ms",
                "0",
            ],
            vec!["router", "--backend", "127.0.0.1:7501", "--wat"],
            vec!["router", "--backend", "127.0.0.1:7501", "--queue", "x"],
        ] {
            assert!(
                matches!(run(&args(&bad)), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
        let err = run(&args(&["router"])).unwrap_err();
        match err {
            CliError::Usage(msg) => {
                assert!(msg.contains("at least one --backend"), "{msg}")
            }
            other => panic!("expected a usage error, got {other}"),
        }
    }

    #[test]
    fn status_printer_handles_both_wire_shapes() {
        use imcis_core::serve::{BackendStatus, CampaignProgress, RouterStatus, ServerStatus};
        let daemon_shape = ServerStatus {
            queue_depth: 3,
            queue_capacity: 64,
            active_jobs: 1,
            workers: 4,
            cache_size: 2,
            uptime_ms: 1234,
            campaigns: Vec::new(),
        };
        // The single-daemon one-liner is unchanged by the router work.
        assert_eq!(
            format_status(
                "127.0.0.1:7414",
                &StatusSnapshot::Daemon(daemon_shape.clone())
            ),
            "daemon at 127.0.0.1:7414: queue 3/64, 1 active job(s), 4 worker(s), \
             2 cached setup(s), up 1234 ms"
        );
        // An in-flight campaign member appends its stage progress.
        let mut with_campaign = daemon_shape.clone();
        with_campaign.campaigns.push(CampaignProgress {
            job_id: 7,
            member: 1,
            stage: 2,
            stages_done: 3,
        });
        assert_eq!(
            format_status("127.0.0.1:7414", &StatusSnapshot::Daemon(with_campaign)),
            "daemon at 127.0.0.1:7414: queue 3/64, 1 active job(s), 4 worker(s), \
             2 cached setup(s), up 1234 ms\n  \
             job 7 member 1: stage 2, 3 stage(s) done"
        );
        // A router answer prints the aggregated per-backend table, one
        // line per backend, unreachable backends included.
        let router_shape = StatusSnapshot::Router(RouterStatus {
            active_jobs: 1,
            jobs_routed: 7,
            uptime_ms: 900,
            backends: vec![
                BackendStatus {
                    addr: "127.0.0.1:7501".into(),
                    healthy: true,
                    status: Some(daemon_shape),
                },
                BackendStatus {
                    addr: "127.0.0.1:7502".into(),
                    healthy: false,
                    status: None,
                },
            ],
        });
        assert_eq!(
            format_status("127.0.0.1:7400", &router_shape),
            "router at 127.0.0.1:7400: 1/2 backend(s) healthy, 1 active job(s), \
             7 routed, up 900 ms\n  \
             127.0.0.1:7501: healthy, queue 3/64, 1 active job(s), 4 worker(s), \
             2 cached setup(s), up 1234 ms\n  \
             127.0.0.1:7502: unreachable"
        );
    }

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_jittered() {
        // Deterministic: the jitter comes from a seeded stream, not a
        // clock, so the schedule is a pure function of (base, attempt).
        for attempt in 0..BACKOFF_MAX_RETRIES {
            assert_eq!(backoff_delay_ms(50, attempt), backoff_delay_ms(50, attempt));
        }
        // Exponential base: the un-jittered delay doubles per attempt
        // until the cap, and jitter stays within +/-25% of that.
        for (attempt, nominal) in [(0u32, 50u64), (1, 100), (2, 200), (3, 400), (4, 800)] {
            let delay = backoff_delay_ms(50, attempt);
            assert!(
                delay >= nominal - nominal / 4 && delay <= nominal + nominal / 4,
                "attempt {attempt}: {delay} outside +/-25% of {nominal}"
            );
        }
        // Capped: far into the schedule the delay never exceeds the cap
        // plus its jitter band, regardless of the base.
        for attempt in 7..10 {
            assert!(backoff_delay_ms(4_000, attempt) <= BACKOFF_CAP_MS + BACKOFF_CAP_MS / 4);
        }
        // A zero base cannot produce a zero (busy-loop) delay even if it
        // slips past the flag validation.
        assert!(backoff_delay_ms(0, 0) >= 1);
    }

    #[test]
    fn run_rejects_bad_invocations() {
        assert!(matches!(run(&args(&["run"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["run", "--scenario", "illustrative"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["run", "/definitely/not/here.json"])),
            Err(CliError::Io(_))
        ));
        assert!(matches!(
            run(&args(&[
                "run",
                "--scenario",
                "nope",
                "--method",
                "smc",
                "--n",
                "10"
            ])),
            Err(CliError::Session(_))
        ));
    }

    #[test]
    fn solve_reports_exact_probability() {
        let opts = parse_args(&args(&["solve", "-", "--target", "heads"])).unwrap();
        let report = run_on_text(&opts, COIN).unwrap();
        assert!(report.contains("2.5"), "{report}");
        assert!(report.contains("e-1"), "{report}");
    }

    #[test]
    fn mttf_reports_infinite_when_not_almost_sure() {
        let opts = parse_args(&args(&["mttf", "-", "--target", "heads"])).unwrap();
        let report = run_on_text(&opts, COIN).unwrap();
        assert!(report.contains("inf"), "{report}");
    }

    #[test]
    fn smc_estimates_the_coin() {
        let opts = parse_args(&args(&[
            "smc", "-", "--target", "heads", "--avoid", "tails", "--n", "4000",
        ]))
        .unwrap();
        let report = run_on_text(&opts, COIN).unwrap();
        assert!(report.contains("γ̂"), "{report}");
    }

    #[test]
    fn envelope_brackets_the_interval() {
        let opts = parse_args(&args(&["envelope", "-", "--target", "heads"])).unwrap();
        let report = run_on_text(&opts, COIN_IMC).unwrap();
        assert!(report.contains("[2"), "{report}"); // lower ≈ 2e-1
        assert!(report.contains("3."), "{report}"); // upper ≈ 3e-1
    }

    #[test]
    fn unknown_label_is_reported() {
        let opts = parse_args(&args(&["solve", "-", "--target", "nope"])).unwrap();
        assert!(matches!(
            run_on_text(&opts, COIN),
            Err(CliError::UnknownLabel(_))
        ));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let result = run(&args(&["solve", "/definitely/not/here", "--target", "x"]));
        assert!(matches!(result, Err(CliError::Io(_))));
    }
}

#[cfg(test)]
mod info_tests {
    use super::*;

    #[test]
    fn info_summarises_a_dtmc() {
        let opts = parse_args(&["info".to_string(), "-".to_string()]).unwrap();
        let report = run_on_text(
            &opts,
            "dtmc\nstates 2\ntransition 0 1 1.0\ntransition 1 1 1.0\nlabel 1 done\n",
        )
        .unwrap();
        assert!(report.contains("2 states"), "{report}");
        assert!(report.contains("bottom SCCs: 1"), "{report}");
        assert!(report.contains("done (1 states)"), "{report}");
    }

    #[test]
    fn info_summarises_an_imc() {
        let opts = parse_args(&["info".to_string(), "-".to_string()]).unwrap();
        let report = run_on_text(
            &opts,
            "imc\nstates 2\ninterval 0 1 0.8 1.0\ninterval 0 0 0.0 0.2\ninterval 1 1 1.0 1.0\n",
        )
        .unwrap();
        assert!(
            report.contains("3 interval transitions (1 exact)"),
            "{report}"
        );
        assert!(report.contains("widest interval: 0.2"), "{report}");
    }

    #[test]
    fn info_rejects_garbage() {
        let opts = parse_args(&["info".to_string(), "-".to_string()]).unwrap();
        assert!(matches!(
            run_on_text(&opts, "garbage\n"),
            Err(CliError::Parse(_))
        ));
    }
}
