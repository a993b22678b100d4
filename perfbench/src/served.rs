//! The `served-mix` workload: an in-process router fronting one daemon,
//! and two closed-loop clients, each sending its next job when the
//! previous `suite_report` arrives.
//!
//! Set-up is daemon and router bring-up plus one warm-up job per class,
//! repeated. A unit is one pass of [`JOBS_PER_PASS`] jobs in blocks of
//! ten, the job classes in a fixed order within each block, so the seed
//! changes values but never the work. Every pass uses fresh DSL
//! parameter points, so those jobs always compile on the server.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use imc_sim::parallel::available_threads;
use imcis_core::{Client, Router, RouterConfig, ServeConfig, Server, Suite, SuiteSpec};
use serde::json::Value;

use crate::output::{
    count_above, mean_self_times, median, metric, peak_rss_mb, per_layer, quantile, write_spans,
    Checks, Outcome,
};
use crate::trace::{Span, Tracer};
use crate::{mix, repeat_for, Args};

/// Jobs per pass: enough that more than ten lie beyond p95.
const JOBS_PER_PASS: usize = 200;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Daemon and router bring-ups per run; the median is reported.
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// 1–3 illustrative members; hits the setup cache.
    Illustrative,
    /// A two-point DSL sweep at fresh parameter points; misses the cache.
    DslSweep,
    /// A small group-repair IMCIS run with `record_trace`.
    Imcis,
    /// A two-stage CE campaign; streams `stage_report` events.
    Campaign,
}

const CLASSES: [Class; 4] = [
    Class::Illustrative,
    Class::DslSweep,
    Class::Imcis,
    Class::Campaign,
];

/// The fixed order of job classes within every block of ten.
const BLOCK: [Class; 10] = [
    Class::Illustrative,
    Class::DslSweep,
    Class::Illustrative,
    Class::Imcis,
    Class::Illustrative,
    Class::Campaign,
    Class::Illustrative,
    Class::DslSweep,
    Class::Illustrative,
    Class::Imcis,
];

/// Members of the five illustrative jobs of a block.
const ILLUSTRATIVE_MEMBERS: [usize; 5] = [1, 2, 3, 1, 2];

/// A one-step rare event whose intervals are centred on the parameter
/// `p` (JSON-escaped DSL source).
const DSL_SOURCE: &str = "param p = 0.1\\n\\nmodel {\\n  state s0 initial {\\n    -> goal [p - 0.01, p + 0.01] @ p\\n    -> sink [1 - p - 0.01, 1 - p + 0.01] @ 1 - p\\n  }\\n  state goal label \\\"goal\\\" { -> goal 1.0 }\\n  state sink label \\\"sink\\\" { -> sink 1.0 }\\n}\\n\\nproperty reach \\\"goal\\\" avoid \\\"sink\\\"\\n\\nis zero_variance\\n";

/// One job's manifest text. `serial` numbers jobs uniquely within a run
/// (`0` is the warm-up), which keeps DSL parameter points fresh.
fn job_manifest(seed: u64, class: Class, ordinal: usize, serial: u64) -> String {
    let s = |salt: u64| mix(seed, serial.wrapping_mul(16).wrapping_add(salt)) >> 16;
    match class {
        Class::Illustrative => {
            let methods = ["standard-is", "smc", "zero-variance"];
            let members: Vec<String> = (0..ILLUSTRATIVE_MEMBERS[ordinal % 5])
                .map(|m| {
                    format!(
                        r#"{{"scenario": {{"name": "illustrative"}},
  "method": {{"name": "{}", "n_traces": 2000}}, "seed": {}, "threads": 0}}"#,
                        methods[m],
                        s(m as u64)
                    )
                })
                .collect();
            format!(r#"{{"runs": [{}], "threads": 0}}"#, members.join(", "))
        }
        Class::DslSweep => {
            let p = 0.05 + (mix(seed, 7) % 1000) as f64 * 1e-4 + serial as f64 * 1e-6;
            format!(
                r#"{{"runs": [{{"sweep": {{
  "run": {{"scenario": {{"dsl": "{DSL_SOURCE}", "params": {{}}}},
          "method": {{"name": "smc", "n_traces": 2000}}, "seed": {}, "threads": 0}},
  "param": "p", "grid": [{p}, {}]}}}}], "threads": 0}}"#,
                s(0),
                p + 0.1
            )
        }
        Class::Imcis => format!(
            r#"{{"runs": [{{
  "scenario": {{"name": "group-repair", "params": {{"is": "mixture", "w": 0.9}}}},
  "method": {{"name": "imcis", "n_traces": 1000, "r_undefeated": 192, "r_max": 192,
             "record_trace": true, "search": {{"strategy": "batched", "batch_size": 64}}}},
  "seed": {}, "threads": 0, "search_threads": 0}}], "threads": 0}}"#,
            s(0)
        ),
        Class::Campaign => format!(
            r#"{{"runs": [{{"campaign": {{
  "run": {{"scenario": {{"name": "group-repair", "params": {{"is": "mixture", "w": 0.9}}}},
          "method": {{"name": "ce-campaign", "n_traces": 1000, "training_traces": 2000}},
          "seed": {}, "threads": 0}},
  "stages": 2, "target_rel_width": null}}}}], "threads": 0}}"#,
            s(0)
        ),
    }
}

/// The manifests of pass `pass` (0-based).
fn pass_jobs(seed: u64, pass: usize) -> Vec<String> {
    (0..JOBS_PER_PASS)
        .map(|i| {
            let class = BLOCK[i % BLOCK.len()];
            let ordinal = BLOCK[..i % BLOCK.len()]
                .iter()
                .filter(|&&c| c == class)
                .count();
            let serial = (pass * JOBS_PER_PASS + i + 1) as u64;
            job_manifest(seed, class, ordinal, serial)
        })
        .collect()
}

/// A router fronting one daemon, both on ephemeral ports.
struct Stack {
    router_addr: String,
    server: std::thread::JoinHandle<Result<(), imcis_core::ServeError>>,
    router: std::thread::JoinHandle<Result<(), imcis_core::ServeError>>,
}

impl Stack {
    fn start() -> Result<Stack, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue: 64,
            rate: 0,
        })
        .map_err(|e| format!("daemon: {e}"))?;
        let backend = server.local_addr().to_string();
        let server = server.spawn();
        let router = Router::bind(RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: vec![backend],
            ..RouterConfig::default()
        })
        .map_err(|e| format!("router: {e}"))?;
        let router_addr = router.local_addr().to_string();
        let router = router.spawn();
        Ok(Stack {
            router_addr,
            server,
            router,
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.router_addr).map_err(|e| format!("connect: {e}"))
    }

    /// Shuts the router down (it fans out to the daemon) and joins both.
    fn stop(self) -> Result<(), String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        for (name, handle) in [("router", self.router), ("daemon", self.server)] {
            handle
                .join()
                .map_err(|_| format!("{name} thread panicked"))?
                .map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }
}

/// Brings the stack up and runs one warm-up job per class through it.
fn bring_up(seed: u64, checks: &mut Checks) -> Result<Stack, String> {
    let stack = Stack::start()?;
    let mut client = stack.connect()?;
    for class in CLASSES {
        let spec: SuiteSpec = job_manifest(seed, class, 0, 0)
            .parse()
            .map_err(|e| format!("warm-up manifest: {e}"))?;
        let outcome = client.submit(&spec, |_, _| {});
        checks.check(outcome.is_ok(), || {
            format!("warm-up {class:?} job failed: {outcome:?}")
        });
    }
    Ok(stack)
}

/// What the client saw of one job.
struct JobRecord {
    index: usize,
    parsed_at: f64,
    submitted_at: f64,
    done_at: f64,
    encoded_at: f64,
    /// Every event line as it arrived; traced passes only.
    events: Vec<Event>,
    /// The stable report text, or why the job failed.
    result: Result<String, String>,
    members_ok: bool,
}

struct Event {
    at: f64,
    kind: String,
    elapsed_ms: Option<f64>,
    bytes: usize,
    members: u64,
    setups_built: u64,
}

impl JobRecord {
    fn rtt_ms(&self) -> f64 {
        (self.done_at - self.submitted_at) * 1e3
    }
    fn first(&self, kind: &str) -> Option<&Event> {
        self.events.iter().find(|e| e.kind == kind)
    }
}

/// One pass: both clients drain the job list, closed-loop.
fn run_pass(
    clients: &mut [Client],
    jobs: &[String],
    clock: &Tracer,
    traced: bool,
) -> Vec<JobRecord> {
    let next = AtomicUsize::new(0);
    let mut records: Vec<JobRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut records = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(job) = jobs.get(index) else {
                            break;
                        };
                        records.push(run_job(client, index, job, clock, traced));
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.index);
    records
}

fn run_job(
    client: &mut Client,
    index: usize,
    manifest: &str,
    clock: &Tracer,
    traced: bool,
) -> JobRecord {
    let parsed_at = clock.now();
    let spec: Result<SuiteSpec, _> = manifest.parse();
    let submitted_at = clock.now();
    let mut events = Vec::new();
    let outcome = match &spec {
        Ok(spec) => {
            if traced {
                client.submit(spec, |line, value| {
                    let u = |key| value.get(key).and_then(Value::as_u64).unwrap_or(0);
                    events.push(Event {
                        at: clock.now(),
                        kind: value
                            .get("type")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                        elapsed_ms: value.get("elapsed_ms").and_then(Value::as_f64),
                        bytes: line.len() + 1,
                        members: u("members"),
                        setups_built: u("setups_built"),
                    });
                })
            } else {
                client.submit(spec, |_, _| {})
            }
        }
        Err(e) => {
            return JobRecord {
                index,
                parsed_at,
                submitted_at,
                done_at: submitted_at,
                encoded_at: submitted_at,
                events,
                result: Err(format!("manifest: {e}")),
                members_ok: false,
            }
        }
    };
    let done_at = clock.now();
    let members_ok = outcome.as_ref().is_ok_and(|o| {
        o.members
            .iter()
            .all(|m| m.get("status").and_then(Value::as_str) == Some("ok"))
    });
    let result = outcome
        .map(|o| o.suite_report.pretty())
        .map_err(|e| e.to_string());
    JobRecord {
        index,
        parsed_at,
        submitted_at,
        done_at,
        encoded_at: clock.now(),
        events,
        result,
        members_ok,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = stack.take() {
            Stack::stop(previous)?;
        }
        let clock = Instant::now();
        stack = Some(bring_up(args.seed, &mut checks)?);
        setup_s.push(clock.elapsed().as_secs_f64());
    }
    let stack = stack.expect("at least one bring-up");
    let mut clients = (0..CLIENTS)
        .map(|_| stack.connect())
        .collect::<Result<Vec<_>, _>>()?;

    let tracer = Tracer::new();
    let mut passes: Vec<(bool, Span, Vec<JobRecord>)> = Vec::new();
    let mut identical_checked = Vec::new();
    let _ = repeat_for(args.seconds, if args.trace { 2 } else { 1 }, |pass| {
        let traced = args.trace && pass % 2 == 1;
        let jobs = pass_jobs(args.seed, pass);
        let root = tracer.next_id();
        let start = tracer.now();
        let records = run_pass(&mut clients, &jobs, &tracer, traced);
        let span = Span {
            id: root,
            parent: 0,
            group: pass as u64,
            name: "pass",
            start,
            end: tracer.now(),
        };
        // Outside the timed window: the first block of every pass must be
        // byte-identical to batch `Suite::run` on the same manifests.
        for record in &records[..BLOCK.len()] {
            identical_checked.push((jobs[record.index].clone(), record.result.clone()));
        }
        passes.push((traced, span, records));
    });
    drop(clients);
    Stack::stop(stack)?;

    for (text, served) in &identical_checked {
        let batch = batch_stable_text(text);
        checks.check(served.is_ok() && batch.as_ref().ok() == served.as_ref().ok(), || {
            format!("served report differs from batch Suite::run: served {served:?}, batch {batch:?}")
        });
    }
    let mut per_class: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (_, _, records) in &passes {
        for r in records {
            checks.check(r.result.is_ok() && r.members_ok, || {
                format!("job {}: {:?}", r.index, r.result.as_ref().err())
            });
            per_class
                .entry(format!("{:?}", BLOCK[r.index % BLOCK.len()]))
                .or_default()
                .push(r.rtt_ms());
        }
    }
    let mut detail = vec![
        (
            "available_cores".to_string(),
            available_threads().to_string(),
        ),
        ("seed".to_string(), args.seed.to_string()),
        ("clients".to_string(), CLIENTS.to_string()),
        ("passes".to_string(), passes.len().to_string()),
    ];
    let counts: Vec<String> = per_class
        .iter()
        .map(|(c, rtt)| format!("\"{c}\": {}", rtt.len()))
        .collect();
    detail.push((
        "jobs_per_class".into(),
        format!("{{{}}}", counts.join(", ")),
    ));
    let medians: Vec<String> = per_class
        .iter()
        .map(|(c, rtt)| format!("\"{c}\": {:.3}", median(rtt)))
        .collect();
    detail.push((
        "rtt_p50_ms_per_class".into(),
        format!("{{{}}}", medians.join(", ")),
    ));

    let rtt_ms: Vec<f64> = passes
        .iter()
        .flat_map(|(_, _, records)| records.iter().map(JobRecord::rtt_ms))
        .collect();
    let p95 = quantile(&rtt_ms, 0.95);
    detail.push(("jobs".into(), rtt_ms.len().to_string()));
    detail.push((
        "jobs_beyond_p95".into(),
        count_above(&rtt_ms, p95).to_string(),
    ));
    if args.trace {
        return Ok(traced_outcome(args, &tracer, &passes, checks, detail));
    }
    let run_s: Vec<f64> = passes
        .iter()
        .map(|(_, _, r)| submit_to_report_s(r))
        .collect();
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s", setup_s.len()),
        metric("run_s", median(&run_s), "s", run_s.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
        metric("rtt_p50_ms", median(&rtt_ms), "ms", rtt_ms.len()),
        metric("rtt_p95_ms", p95, "ms", rtt_ms.len()),
        metric(
            "ok_share",
            1.0 - checks.fail_share(),
            "ratio",
            checks.attempted as usize,
        ),
    ];
    Ok(Outcome {
        checks,
        metrics,
        detail,
    })
}

/// A pass's `run_s`: from the first submit to the last `suite_report`.
fn submit_to_report_s(records: &[JobRecord]) -> f64 {
    let first = records
        .iter()
        .map(|r| r.submitted_at)
        .fold(f64::INFINITY, f64::min);
    let last = records
        .iter()
        .map(|r| r.done_at)
        .fold(f64::NEG_INFINITY, f64::max);
    last - first
}

/// The stable text batch `imcis suite` computes for a manifest.
fn batch_stable_text(manifest: &str) -> Result<String, String> {
    let spec: SuiteSpec = manifest.parse().map_err(|e| format!("{e}"))?;
    let suite = Suite::from_spec(spec).map_err(|e| e.to_string())?;
    let report = suite.run().map_err(|e| e.to_string())?;
    Ok(report.to_json_stable().pretty())
}

/// Per-layer metrics of the traced passes, and the tracing overhead
/// against the untraced ones.
fn traced_outcome(
    args: &Args,
    tracer: &Tracer,
    passes: &[(bool, Span, Vec<JobRecord>)],
    mut checks: Checks,
    mut detail: Vec<(String, String)>,
) -> Outcome {
    // Client-side spans of every traced job, parented to its pass.
    for (_, root, records) in passes.iter().filter(|(traced, _, _)| *traced) {
        for r in records {
            let group = (root.group << 32) | r.index as u64;
            let accepted = r.first("accepted").map_or(r.done_at, |e| e.at);
            let report = r.first("suite_report").map_or(r.done_at, |e| e.at);
            for (name, start, end) in [
                ("spec.parse", r.parsed_at, r.submitted_at),
                ("serve.accept", r.submitted_at, accepted),
                ("serve.stream", accepted, report),
                ("serve.decode", report, r.done_at),
                ("report.serialize", r.done_at, r.encoded_at),
            ] {
                tracer.record(Span {
                    id: tracer.next_id(),
                    parent: root.id,
                    group,
                    name,
                    start,
                    end,
                });
            }
        }
    }
    let spans = tracer.spans();
    let traced: Vec<&(bool, Span, Vec<JobRecord>)> = passes.iter().filter(|p| p.0).collect();
    let n = traced.len();
    let roots: Vec<Span> = traced.iter().map(|p| p.1.clone()).collect();
    let (self_times, unattributed, run_s) = mean_self_times(&spans, &roots, &mut checks);
    let mut values: BTreeMap<&'static str, (f64, usize)> = self_times
        .into_iter()
        .map(|(name, t)| (name, (t, n)))
        .collect();
    values.insert("trace.unattributed_s", (unattributed, n));
    let records: Vec<&JobRecord> = traced.iter().flat_map(|(_, _, r)| r.iter()).collect();
    let jobs = records.len().max(1) as f64;
    let mean = |f: &dyn Fn(&JobRecord) -> f64| records.iter().map(|r| f(r)).sum::<f64>() / jobs;
    let job_ms = |r: &JobRecord| {
        r.first("suite_report")
            .and_then(|e| e.elapsed_ms)
            .unwrap_or(0.0)
    };
    let envelope_mean = |kind: &str| {
        let xs: Vec<f64> = records
            .iter()
            .flat_map(|r| r.events.iter())
            .filter(|e| e.kind == kind)
            .filter_map(|e| e.elapsed_ms)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let accepted = |r: &JobRecord, f: fn(&Event) -> u64| r.first("accepted").map_or(0, f) as f64;
    let members: f64 = records.iter().map(|r| accepted(r, |e| e.members)).sum();
    let built: f64 = records
        .iter()
        .map(|r| accepted(r, |e| e.setups_built))
        .sum();
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.0)
        .map(|p| p.1.duration())
        .collect();
    let traced_s: Vec<f64> = traced.iter().map(|p| p.1.duration()).collect();
    let m = records.len();
    values.extend([
        (
            "serve.accept_ms",
            (
                mean(&|r| {
                    r.first("accepted")
                        .map_or(0.0, |e| (e.at - r.submitted_at) * 1e3)
                }),
                m,
            ),
        ),
        ("serve.setups_built", (built / jobs, m)),
        (
            "serve.cache_hit_share",
            ((members - built) / members.max(1.0), m),
        ),
        ("serve.job_ms", (mean(&job_ms), m)),
        ("serve.member_ms", (envelope_mean("member_report"), m)),
        ("serve.stage_ms", (envelope_mean("stage_report"), m)),
        ("serve.wire_ms", (mean(&|r| r.rtt_ms() - job_ms(r)), m)),
        (
            "serve.events_per_job",
            (mean(&|r| r.events.len() as f64), m),
        ),
        (
            "serve.bytes_per_job",
            (
                mean(&|r| r.events.iter().map(|e| e.bytes).sum::<usize>() as f64),
                m,
            ),
        ),
        (
            "report.bytes",
            (
                mean(&|r| r.result.as_ref().map_or(0, String::len) as f64),
                m,
            ),
        ),
        ("trace.run_s", (run_s, n)),
        (
            "trace.overhead_share",
            (median(&traced_s) / median(&untraced) - 1.0, passes.len()),
        ),
    ]);
    write_spans(tracer, args, &mut detail);
    detail.push(("traced_jobs".into(), m.to_string()));
    Outcome {
        checks,
        metrics: per_layer(&values),
        detail,
    }
}
