//! End-to-end and per-layer benchmark of the imcis workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, through the
//! public library API only: manifest text in, stable report out. The
//! seed changes values in the generated manifests, never the amount of
//! work. Set-up is repeated and reported as a median; the measured part
//! repeats fixed units of work (one `Suite::run`, or one pass of served
//! jobs) for `--seconds` and reports medians.
//!
//! * `--trace 0` prints the end-to-end metrics, measured untraced.
//! * `--trace 1` rebuilds the same pipeline from public calls with a span
//!   around each call into a layer, alternating untraced and traced units
//!   to report the tracing overhead; spans are written at exit to
//!   `$CARGO_TARGET_DIR/perfbench/` (default `.bench_build/perfbench/`).
//!
//! Output checks never abort a run: a failed check is counted in
//! `failed`/`ok_share` and the result reads `correct: false`. The last
//! line of standard output is the JSON result.
//!
//! Workloads (see `BENCHMARK.json` and `perfbench/PREDICTIONS.md`):
//! `imcis-paper`, `ce-campaign`, `fleet-1m` (batch, `batch.rs`) and
//! `served-mix` (router + daemon + two closed-loop clients, `served.rs`).

mod batch;
mod output;
mod served;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must lie in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }

    /// Where the traced run writes its spans.
    pub fn span_path(&self) -> PathBuf {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".bench_build"));
        dir.join("perfbench")
            .join(format!("spans-{}-seed{}.ndjson", self.workload, self.seed))
    }
}

/// Runs `unit` until `seconds` have passed and at least `min_units` units
/// ran; returns each unit's output. A unit times itself.
pub fn repeat_for<T>(seconds: f64, min_units: usize, mut unit: impl FnMut(usize) -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_units || started.elapsed().as_secs_f64() < seconds {
        out.push(unit(out.len()));
    }
    out
}

/// `splitmix64`: derives independent values from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    imc_sim::splitmix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <imcis-paper|ce-campaign|fleet-1m|served-mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        imc_sim::parallel::available_threads()
    );
    let outcome = match args.workload.as_str() {
        "served-mix" => served::run(&args),
        name => match batch::Workload::named(name) {
            Some(workload) => batch::run(workload, &args),
            None => Err(format!("unknown workload `{name}`")),
        },
    };
    match outcome {
        Ok(outcome) => outcome.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
