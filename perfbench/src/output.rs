//! Check accounting, sample statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{attribute, Span, Tracer};
use crate::Args;

/// Outcome checks and attempted/failed work, folded into `ok_share`.
///
/// A failed check never aborts the run: it is counted, its message is
/// printed, and the run reports `correct: false`.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one attempted item (a member, a job or a check).
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(message());
            }
        }
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One reported metric. `samples` is how many measurements it rests on.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Every per-layer metric a traced run reports, in `BENCHMARK.json`
/// order. A metric that does not apply to a workload reads `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.build_s", "s"),
    ("models.jump_chain_s", "s"),
    ("models.imc_s", "s"),
    ("models.failure_bias_s", "s"),
    ("markov.states", "count"),
    ("markov.transitions", "count"),
    ("sim.alias_build_s", "s"),
    ("sim.sample_s", "s"),
    ("sim.calls", "count"),
    ("sim.traces", "count"),
    ("sim.traces_per_s", "1/s"),
    ("sim.success_share", "ratio"),
    ("sampling.estimate_s", "s"),
    ("campaign.stage_s", "s"),
    ("campaign.refit_s", "s"),
    ("optim.compile_s", "s"),
    ("optim.tables", "count"),
    ("optim.table_nnz", "count"),
    ("optim.sampled_rows", "count"),
    ("optim.search_s", "s"),
    ("optim.candidates", "count"),
    ("optim.candidates_per_s", "1/s"),
    ("spec.parse_s", "s"),
    ("report.serialize_s", "s"),
    ("report.bytes", "bytes"),
    ("serve.accept_ms", "ms"),
    ("serve.setups_built", "count"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.job_ms", "ms"),
    ("serve.member_ms", "ms"),
    ("serve.stage_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.events_per_job", "count"),
    ("serve.bytes_per_job", "bytes"),
    ("serve.accept_s", "s"),
    ("serve.stream_s", "s"),
    ("serve.decode_s", "s"),
    ("trace.setup_s", "s"),
    ("trace.run_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// The full [`PER_LAYER`] list from the values a workload measured:
/// `name → (value, samples)`.
pub fn per_layer(values: &BTreeMap<&'static str, (f64, usize)>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "undeclared per-layer metric `{name}`"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = values.get(name).copied().unwrap_or((0.0, 0));
            metric(name, value, unit, samples)
        })
        .collect()
}

/// The per-layer metric of a span name: its self time in seconds.
fn layer_metric(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_suffix("_s") == Some(span))
        .unwrap_or_else(|| panic!("span `{span}` has no per-layer metric"))
}

/// Mean per-unit self times of the spans below `roots`, keyed by their
/// per-layer metric, plus the mean unattributed time and the mean root
/// duration. Checks that each root's self times and unattributed time
/// sum to its duration.
pub fn mean_self_times(
    spans: &[Span],
    roots: &[Span],
    checks: &mut Checks,
) -> (BTreeMap<&'static str, f64>, f64, f64) {
    let units = roots.len().max(1) as f64;
    let (mut self_times, mut unattributed, mut duration) = (BTreeMap::new(), 0.0, 0.0);
    for root in roots {
        let (own, none) = attribute(spans, root);
        let sum = own.values().sum::<f64>() + none;
        checks.check(
            (sum - root.duration()).abs() <= 1e-9 * root.duration().max(1.0),
            || {
                format!(
                    "{}: self times sum to {sum} s, the span took {} s",
                    root.name,
                    root.duration()
                )
            },
        );
        for (name, t) in own {
            *self_times.entry(layer_metric(name)).or_insert(0.0) += t / units;
        }
        unattributed += none / units;
        duration += root.duration() / units;
    }
    (self_times, unattributed, duration)
}

/// Writes the spans at exit and names the file on the `detail` line.
pub fn write_spans(tracer: &Tracer, args: &Args, detail: &mut Vec<(String, String)>) {
    let path = args.span_path();
    match tracer.write(&path) {
        Ok(()) => detail.push(("spans".into(), json_str(&path.to_string_lossy()))),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}

/// What one benchmark invocation measured.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// `(key, JSON value text)` pairs printed on the `detail` line.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// Prints a human-readable table, a `detail` JSON line, and, last,
    /// the one-line JSON result.
    pub fn print(mut self) {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.checks
                    .check(false, || format!("metric {} is not finite", m.name));
            }
        }
        for m in &self.metrics {
            println!(
                "  {:<26} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for message in &self.checks.messages {
            println!("  check failed: {message}");
        }
        let mut detail = String::from("{");
        for (i, (key, value)) in self.detail.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(detail, "{sep}\"{key}\": {value}");
        }
        detail.push('}');
        println!("detail {detail}");

        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed
        );
    }
}

/// A finite float as JSON, with every digit of Rust's shortest
/// round-trip form (`1.0`, `0.0123`, `1e-7` are all valid JSON).
pub fn json_number(x: f64) -> String {
    format!("{x:?}")
}

/// Median of `xs` (`0` when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile by linear interpolation between order statistics.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// How many samples lie strictly above `threshold`.
pub fn count_above(xs: &[f64], threshold: f64) -> usize {
    xs.iter().filter(|&&x| x > threshold).count()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A JSON string literal (the inputs here are plain ASCII names).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
