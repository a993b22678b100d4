//! The batch workloads: `imcis-paper`, `ce-campaign` and `fleet-1m`.
//!
//! Set-up is manifest parse plus `Suite::from_spec_with_cache` on a cold
//! cache, repeated; a unit is `Suite::run` through the stable JSON text.
//! The traced run rebuilds the same pipeline from public calls, with the
//! suite's thread budgets, and must reproduce the untraced estimates
//! bit for bit.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use imc_models::{fleet, ScenarioRegistry, Setup};
use imc_optim::{search, Problem, RandomSearchConfig};
use imc_sampling::{failure_bias, is_estimate, sample_is_run, IsConfig};
use imc_sim::parallel::{available_threads, parallel_map, resolve_threads};
use imc_sim::{stream_seed, ChainSampler};
use imc_stats::{normal_quantile, ConfidenceInterval};
use imcis_core::report::Repetition;
use imcis_core::{
    stage_estimator_for, CampaignSpec, MemberOutcome, Method, RunSpec, Session, SetupCache,
    StageOutcome, Suite, SuiteMember, SuiteReport, SuiteSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::output::{
    count_above, mean_self_times, median, metric, peak_rss_mb, per_layer, quantile, write_spans,
    Checks, Outcome,
};
use crate::trace::{Span, Tracer};
use crate::{mix, repeat_for, Args};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ImcisPaper,
    CeCampaign,
    Fleet,
}

impl Workload {
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "imcis-paper" => Some(Workload::ImcisPaper),
            "ce-campaign" => Some(Workload::CeCampaign),
            "fleet-1m" => Some(Workload::Fleet),
            _ => None,
        }
    }

    /// Set-ups per run; the median is reported. The 10⁶-state fleet takes
    /// about a second each, group-repair a few milliseconds, so it needs
    /// many to be steady.
    fn setup_reps(self) -> usize {
        match self {
            Workload::Fleet => 3,
            _ => 101,
        }
    }

    /// The suite manifest. The seed only picks RNG seeds: budgets,
    /// repetitions and stages are fixed.
    fn manifest(self, seed: u64) -> String {
        let s = |salt| mix(seed, salt) >> 16;
        match self {
            Workload::ImcisPaper => format!(
                r#"{{"runs": [{{
  "scenario": {{"name": "group-repair", "params": {{"is": "mixture", "w": 0.9}}}},
  "method": {{"name": "imcis", "n_traces": 10000, "r_undefeated": 512, "r_max": 512,
             "search": {{"strategy": "batched", "batch_size": 64}}}},
  "seed": {}, "threads": 0, "search_threads": 0, "repetitions": 4}}],
 "threads": 0}}"#,
                s(1)
            ),
            Workload::CeCampaign => format!(
                r#"{{"runs": [
  {{"scenario": {{"name": "group-repair", "params": {{"is": "mixture", "w": 0.9}}}},
    "method": {{"name": "standard-is", "n_traces": 2000}},
    "seed": {}, "threads": 0, "repetitions": 12}},
  {{"campaign": {{
    "run": {{"scenario": {{"name": "group-repair", "params": {{"is": "mixture", "w": 0.9}}}},
             "method": {{"name": "ce-campaign", "n_traces": 2000, "training_traces": 40000}},
             "seed": {}, "threads": 0, "repetitions": 12}},
    "stages": 4, "target_rel_width": null}}}}],
 "threads": 0}}"#,
                s(1),
                s(2)
            ),
            Workload::Fleet => format!(
                r#"{{"runs": [{{
  "scenario": {{"name": "repair-fleet", "params": {{"components": 6, "levels": 10,
               "alpha": 0.001, "beta": 1.0, "eps": 0.05, "bias": 0.7}}}},
  "method": {{"name": "standard-is", "n_traces": 40000, "max_steps": 100000}},
  "seed": {}, "threads": 0, "repetitions": 2}}],
 "threads": 0}}"#,
                s(1)
            ),
        }
    }
}

/// Distinct seeds a run cycles through, one per unit. Adaptive methods
/// do seed-dependent work (a CE-refined chain sets the trace lengths), so
/// each run's median averages over several seeds instead of riding one.
const SEED_VARIANTS: usize = 8;

pub fn run(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let manifests: Vec<String> = (0..SEED_VARIANTS as u64)
        .map(|v| workload.manifest(mix(args.seed, v)))
        .collect();
    let registry = ScenarioRegistry::builtin();
    let mut checks = Checks::default();
    let mut detail = vec![
        (
            "available_cores".to_string(),
            available_threads().to_string(),
        ),
        ("seed".to_string(), args.seed.to_string()),
    ];
    // The traced set-up runs first and is dropped before the untraced
    // one, so the fleet never holds two 10⁶-state setups at once.
    let traced_setup = if args.trace {
        Some(traced_setups(workload, &manifests[0], &registry)?)
    } else {
        None
    };

    // Every set-up starts from a cold cache; the last one fills the cache
    // the other seed variants then share.
    let mut cache = SetupCache::new();
    let mut setup_s = Vec::new();
    let mut first = None;
    for rep in 0..workload.setup_reps() {
        drop(first.take()); // free the previous build first
        let mut cold = SetupCache::new();
        let target = if rep + 1 == workload.setup_reps() {
            &mut cache
        } else {
            &mut cold
        };
        let clock = Instant::now();
        let spec: SuiteSpec = manifests[0].parse().map_err(|e| format!("manifest: {e}"))?;
        let built = Suite::from_spec_with_cache(spec, &registry, target)
            .map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(clock.elapsed().as_secs_f64());
        first = Some(built);
    }
    let mut suites = vec![first.expect("at least one set-up")];
    for manifest in &manifests[1..] {
        let spec: SuiteSpec = manifest.parse().map_err(|e| format!("manifest: {e}"))?;
        suites.push(
            Suite::from_spec_with_cache(spec, &registry, &mut cache)
                .map_err(|e| format!("set-up: {e}"))?,
        );
    }

    if let Some(setup) = traced_setup {
        return traced(args, &suites, setup, checks, detail);
    }
    let units = repeat_for(args.seconds, 3, |k| {
        untraced_unit(&suites[k % SEED_VARIANTS])
    });
    check_units(workload, &suites, &units, &mut checks, &mut detail);
    let run_s: Vec<f64> = units.iter().map(|u| u.secs).collect();
    let rtt_ms: Vec<f64> = run_s.iter().map(|s| s * 1e3).collect();
    let p95 = quantile(&rtt_ms, 0.95);
    let unit_s: Vec<String> = run_s.iter().map(|s| format!("{s:.4}")).collect();
    detail.push(("unit_s".into(), format!("[{}]", unit_s.join(", "))));
    detail.push(("jobs".into(), rtt_ms.len().to_string()));
    detail.push((
        "jobs_beyond_p95".into(),
        count_above(&rtt_ms, p95).to_string(),
    ));
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

/// One untraced unit: `Suite::run` through the stable JSON text.
struct Unit {
    secs: f64,
    report: SuiteReport,
    text: String,
}

fn untraced_unit(suite: &Suite) -> Unit {
    let clock = Instant::now();
    let report = suite
        .run()
        .expect("Suite::run folds member failures into the report");
    let text = black_box(report.to_json_stable().pretty());
    Unit {
        secs: clock.elapsed().as_secs_f64(),
        report,
        text,
    }
}

/// Checks the first report of every seed variant, and that a variant's
/// later units reproduce its first stable text byte for byte.
fn check_units(
    workload: Workload,
    suites: &[Suite],
    units: &[Unit],
    checks: &mut Checks,
    detail: &mut Vec<(String, String)>,
) {
    let mut counts = (0, 0);
    for (k, unit) in units.iter().enumerate() {
        let v = k % SEED_VARIANTS;
        if k < SEED_VARIANTS {
            counts = check_report(workload, &suites[v], &unit.report, checks);
        } else {
            checks.check(unit.text == units[v].text, || {
                format!("unit {k}: stable report differs from unit {v} on the same manifest")
            });
        }
    }
    detail.push(("optim.candidates".into(), counts.0.to_string()));
    detail.push(("sim.traces".into(), counts.1.to_string()));
}

/// Checks one unit's report; returns its `(candidates, traces)` counts.
fn check_report(
    workload: Workload,
    suite: &Suite,
    report: &SuiteReport,
    checks: &mut Checks,
) -> (usize, usize) {
    let mut candidates = 0usize;
    let mut traces = 0usize;
    for (i, member) in report.members.iter().enumerate() {
        let run = suite.spec().runs[i].run_spec();
        let reports: Vec<&imcis_core::Report> = match member {
            MemberOutcome::Ok(report) => vec![report],
            MemberOutcome::Campaign(campaign) => {
                let stages = suite.spec().runs[i].campaign().map_or(0, |c| c.stages);
                checks.check(campaign.stages.len() == stages, || {
                    format!(
                        "member {i}: {} of {stages} stages ran",
                        campaign.stages.len()
                    )
                });
                campaign
                    .stages
                    .iter()
                    .filter_map(StageOutcome::report)
                    .collect()
            }
            MemberOutcome::Failed { .. } => Vec::new(),
        };
        checks.check(member.status() == imcis_core::MemberStatus::Ok, || {
            format!(
                "member {i}: {} ({})",
                member.status(),
                member.message().unwrap_or("")
            )
        });
        for report in reports {
            traces += run.method.sample().n_traces * report.runs.len();
            for (rep, r) in report.runs.iter().enumerate() {
                candidates += r.rounds.unwrap_or(0);
                checks.check(r.ci.lo().is_finite() && r.ci.hi().is_finite(), || {
                    format!("member {i} rep {rep}: CI {} is not finite", r.ci)
                });
                match workload {
                    Workload::ImcisPaper => {
                        let gamma = report.gamma_center.unwrap_or(f64::NAN);
                        checks.check(r.ci.contains(gamma), || {
                            format!(
                                "member {i} rep {rep}: bracket {} misses γ(Â) = {gamma}",
                                r.ci
                            )
                        });
                    }
                    Workload::Fleet => checks.check(r.n_success > 0, || {
                        format!("member {i} rep {rep}: no successful trace")
                    }),
                    Workload::CeCampaign => {}
                }
            }
        }
    }
    (candidates, traces)
}

// ---------------------------------------------------------------- traced

/// Work counted at the layer boundaries of the traced pipeline.
#[derive(Default)]
struct Counts {
    sim_calls: AtomicU64,
    sim_traces: AtomicU64,
    sim_success: AtomicU64,
    /// Traces sampled inside `sim.sample` spans (campaign stages sample
    /// inside `Session::run_stage`).
    spanned_traces: AtomicU64,
    problems: AtomicU64,
    tables: AtomicU64,
    table_nnz: AtomicU64,
    sampled_rows: AtomicU64,
    candidates: AtomicU64,
}

impl Counts {
    fn add(counter: &AtomicU64, n: u64) {
        // Statistics only: no other data is published through them.
        counter.fetch_add(n, Ordering::Relaxed);
    }
    fn get(counter: &AtomicU64) -> f64 {
        counter.load(Ordering::Relaxed) as f64
    }
}

/// One repetition's result, compared bit for bit with the untraced one.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RepResult {
    estimate: u64,
    lo: u64,
    hi: u64,
    n_success: u64,
}

impl RepResult {
    fn new(estimate: f64, ci: ConfidenceInterval, n_success: u64) -> Self {
        RepResult {
            estimate: estimate.to_bits(),
            lo: ci.lo().to_bits(),
            hi: ci.hi().to_bits(),
            n_success,
        }
    }

    fn of(r: &Repetition) -> Self {
        RepResult::new(r.estimate, r.ci, r.n_success)
    }
}

/// The untraced results in the traced pipeline's order.
fn expected_results(report: &SuiteReport) -> Vec<Vec<RepResult>> {
    report
        .members
        .iter()
        .map(|member| match member {
            MemberOutcome::Ok(report) => report.runs.iter().map(RepResult::of).collect(),
            MemberOutcome::Campaign(c) => c
                .stages
                .iter()
                .filter_map(StageOutcome::report)
                .flat_map(|r| r.runs.iter().map(RepResult::of))
                .collect(),
            MemberOutcome::Failed { .. } => Vec::new(),
        })
        .collect()
}

/// Per-set-up results of the traced set-up phase.
struct TracedSetup {
    tracer: Tracer,
    roots: Vec<Span>,
    states: usize,
    transitions: usize,
}

/// Manifest parse and scenario builds under spans, `setup_reps` times.
/// The fleet is built from its public pieces so the three expensive
/// steps get child spans; the others through `ScenarioRegistry::build`.
fn traced_setups(
    workload: Workload,
    manifest: &str,
    registry: &ScenarioRegistry,
) -> Result<TracedSetup, String> {
    let tracer = Tracer::new();
    let mut roots = Vec::new();
    let (mut states, mut transitions) = (0, 0);
    for rep in 0..workload.setup_reps() as u64 {
        let root = tracer.next_id();
        let start = tracer.now();
        let spec: SuiteSpec = tracer
            .span("spec.parse", root, rep, |_| manifest.parse())
            .map_err(|e| format!("manifest: {e}"))?;
        let mut keys: Vec<String> = Vec::new();
        for member in &spec.runs {
            let scenario = &member.run_spec().scenario;
            if keys.contains(&scenario.cache_key()) {
                continue;
            }
            keys.push(scenario.cache_key());
            let setup = tracer.span("models.build", root, rep, |build| {
                if workload == Workload::Fleet {
                    fleet_from_pieces(&tracer, build, rep, &scenario.params)
                } else {
                    registry
                        .build(&scenario.name, &scenario.params)
                        .map_err(|e| e.to_string())
                }
            })?;
            states = setup.center.num_states();
            transitions = setup.center.num_transitions();
            drop(black_box(setup));
        }
        let end = tracer.now();
        roots.push(Span {
            id: root,
            parent: 0,
            group: rep,
            name: "setup",
            start,
            end,
        });
    }
    Ok(TracedSetup {
        tracer,
        roots,
        states,
        transitions,
    })
}

/// The `repair-fleet` build, step by step, as the registry does it.
fn fleet_from_pieces(
    tracer: &Tracer,
    parent: u64,
    group: u64,
    params: &imc_models::ScenarioParams,
) -> Result<Setup, String> {
    let p = |key, default| params.f64_or(key, default).map_err(|e| e.to_string());
    let components = params
        .usize_or("components", 6)
        .map_err(|e| e.to_string())? as u32;
    let levels = params
        .usize_or("levels", fleet::LEVELS)
        .map_err(|e| e.to_string())?;
    let (alpha, beta) = (p("alpha", fleet::ALPHA)?, p("beta", fleet::BETA)?);
    let (eps, bias) = (p("eps", 0.05)?, p("bias", 0.3)?);
    let center = tracer
        .span("models.jump_chain", parent, group, |_| {
            fleet::jump_chain(components, levels, alpha, beta)
        })
        .map_err(|e| e.to_string())?;
    let imc = tracer
        .span("models.imc", parent, group, |_| fleet::imc(&center, eps))
        .map_err(|e| e.to_string())?;
    let b = tracer
        .span("models.failure_bias", parent, group, |_| {
            failure_bias(&center, |from, to| to > from, bias)
        })
        .map_err(|e| e.to_string())?;
    let property = fleet::property(&center);
    Ok(Setup {
        name: format!("repair fleet ({components}x{levels})"),
        imc,
        center,
        b,
        property,
        gamma_center: None,
        gamma_exact: None,
    })
}

/// Alternates untraced and traced units for `--seconds`, then reports the
/// per-layer metrics.
fn traced(
    args: &Args,
    suites: &[Suite],
    setup: TracedSetup,
    mut checks: Checks,
    mut detail: Vec<(String, String)>,
) -> Result<Outcome, String> {
    let tracer = &setup.tracer;
    let counts = Counts::default();
    let mut untraced_s = Vec::new();
    let mut report_bytes = Vec::new();
    let mut roots = Vec::new();
    let mut reference = None;
    // Pairs of units on one seed variant: untraced first (it is also the
    // reference the traced pipeline must reproduce), then traced.
    let _ = repeat_for(args.seconds, 4, |k| {
        let suite = &suites[(k / 2) % SEED_VARIANTS];
        if k % 2 == 0 {
            let unit = untraced_unit(suite);
            untraced_s.push(unit.secs);
            report_bytes.push(unit.text.len() as f64);
            reference = Some(unit.report);
        } else {
            let reference = reference.as_ref().expect("an untraced unit ran first");
            let (root, results) = traced_unit(tracer, suite, reference, k as u64, &counts);
            let expected = expected_results(reference);
            for (i, got) in results.iter().enumerate() {
                checks.check(got.as_ref() == Ok(&expected[i]), || {
                    format!("unit {k} member {i}: traced pipeline differs from Suite::run: {got:?}")
                });
            }
            roots.push(root);
        }
    });
    let spans = tracer.spans();
    let (run_self, unattributed, traced_run_s) = mean_self_times(&spans, &roots, &mut checks);
    let (setup_self, _, traced_setup_s) = mean_self_times(&spans, &setup.roots, &mut checks);
    let units = roots.len().max(1) as f64;
    let setups = setup.roots.len().max(1) as f64;
    // `models.build_s` is the whole build, children included.
    let build_s: f64 = spans
        .iter()
        .filter(|s| s.name == "models.build")
        .map(Span::duration)
        .sum::<f64>()
        / setups;
    let span_total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    };
    let traced_median = median(&roots.iter().map(Span::duration).collect::<Vec<_>>());
    let overhead = traced_median / median(&untraced_s) - 1.0;
    let traces = Counts::get(&counts.sim_traces);
    let problems = Counts::get(&counts.problems).max(1.0);
    let (n, s) = (roots.len(), setup.roots.len());
    let mut values: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    values.extend(run_self.into_iter().map(|(name, t)| (name, (t, n))));
    values.extend(setup_self.into_iter().map(|(name, t)| (name, (t, s))));
    values.extend([
        ("models.build_s", (build_s, s)),
        ("markov.states", (setup.states as f64, s)),
        ("markov.transitions", (setup.transitions as f64, s)),
        ("sim.calls", (Counts::get(&counts.sim_calls) / units, n)),
        ("sim.traces", (traces / units, n)),
        (
            "sim.traces_per_s",
            (
                Counts::get(&counts.spanned_traces) / span_total("sim.sample").max(1e-12),
                n,
            ),
        ),
        (
            "sim.success_share",
            (Counts::get(&counts.sim_success) / traces.max(1.0), n),
        ),
        ("optim.tables", (Counts::get(&counts.tables) / problems, n)),
        (
            "optim.table_nnz",
            (Counts::get(&counts.table_nnz) / problems, n),
        ),
        (
            "optim.sampled_rows",
            (Counts::get(&counts.sampled_rows) / problems, n),
        ),
        (
            "optim.candidates",
            (Counts::get(&counts.candidates) / units, n),
        ),
        (
            "optim.candidates_per_s",
            (
                Counts::get(&counts.candidates) / span_total("optim.search").max(1e-12),
                n,
            ),
        ),
        ("report.bytes", (median(&report_bytes), report_bytes.len())),
        ("trace.setup_s", (traced_setup_s, s)),
        ("trace.run_s", (traced_run_s, n)),
        ("trace.unattributed_s", (unattributed, n)),
        ("trace.overhead_share", (overhead, n + untraced_s.len())),
    ]);
    write_spans(tracer, args, &mut detail);
    let untraced_ms: Vec<f64> = untraced_s.iter().map(|s| s * 1e3).collect();
    let p95 = quantile(&untraced_ms, 0.95);
    detail.push(("jobs".into(), untraced_ms.len().to_string()));
    detail.push((
        "jobs_beyond_p95".into(),
        count_above(&untraced_ms, p95).to_string(),
    ));
    detail.push(("traced_units".into(), n.to_string()));
    Ok(Outcome {
        checks,
        metrics: per_layer(&values),
        detail,
    })
}

/// The session pipeline of one `Suite::run`, rebuilt from public calls
/// with a span around each call into a layer. Members and repetitions fan
/// out exactly as `Suite::run_with_threads` and `Session::run` do.
fn traced_unit(
    tracer: &Tracer,
    suite: &Suite,
    reference: &SuiteReport,
    unit: u64,
    counts: &Counts,
) -> (Span, Vec<Result<Vec<RepResult>, String>>) {
    let spec = suite.spec();
    let members = spec.runs.len();
    let workers = resolve_threads(spec.threads).min(members.max(1));
    let rep_threads = (available_threads() / workers).max(1);
    let root = tracer.next_id();
    let start = tracer.now();
    let results = parallel_map(members, spec.threads, |i| {
        let session = &suite.sessions()[i];
        let group = (unit << 32) | ((i as u64) << 16);
        match &spec.runs[i] {
            SuiteMember::Run(run) => traced_member(
                tracer,
                root,
                group,
                session.setup(),
                run,
                rep_threads,
                counts,
            ),
            SuiteMember::Campaign(campaign) => {
                traced_campaign(tracer, root, group, session, campaign, rep_threads, counts)
            }
        }
    });
    tracer.span("report.serialize", root, unit << 32, |_| {
        black_box(reference.to_json_stable().pretty())
    });
    let end = tracer.now();
    let span = Span {
        id: root,
        parent: 0,
        group: unit << 32,
        name: "run",
        start,
        end,
    };
    tracer.record(span.clone());
    (span, results)
}

/// `Session`'s per-repetition seed: repetition `k` of base seed `s` runs
/// on `s + k·φ` (the bit-for-bit check catches any drift).
fn rep_seed(base: u64, rep: usize) -> u64 {
    base.wrapping_add((rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn traced_member(
    tracer: &Tracer,
    root: u64,
    group: u64,
    setup: &Setup,
    run: &RunSpec,
    rep_threads: usize,
    counts: &Counts,
) -> Result<Vec<RepResult>, String> {
    // The session divides its budget between repetitions and engines.
    let reps = run.repetitions;
    let budget = resolve_threads(rep_threads);
    let engine_share = (budget / budget.min(reps)).max(1);
    let capped = |requested: usize| {
        if requested == 0 {
            engine_share
        } else {
            requested.min(engine_share)
        }
    };
    let (threads, search_threads) = (capped(run.threads), capped(run.search_threads));
    parallel_map(reps, rep_threads, |rep| {
        let group = group | rep as u64;
        let mut rng = StdRng::seed_from_u64(rep_seed(run.seed, rep));
        let sample = |n_traces: usize, max_steps: usize, rng: &mut StdRng| {
            tracer.span("sim.alias_build", root, group, |_| {
                black_box(ChainSampler::new(&setup.b));
            });
            let config = IsConfig::new(n_traces)
                .with_max_steps(max_steps)
                .with_threads(threads);
            let is_run = tracer.span("sim.sample", root, group, |_| {
                sample_is_run(&setup.b, &setup.property, &config, rng)
            });
            Counts::add(&counts.sim_calls, 1);
            Counts::add(&counts.sim_traces, n_traces as u64);
            Counts::add(&counts.spanned_traces, n_traces as u64);
            Counts::add(&counts.sim_success, is_run.n_success);
            is_run
        };
        match &run.method {
            Method::StandardIs(s) => {
                let is_run = sample(s.n_traces, s.max_steps, &mut rng);
                let est = tracer.span("sampling.estimate", root, group, |_| {
                    is_estimate(&setup.center, &setup.b, &is_run, s.delta)
                });
                Ok(RepResult::new(
                    est.gamma_hat,
                    est.ci.clamped_to_unit(),
                    is_run.n_success,
                ))
            }
            Method::Imcis(spec) => {
                let config = spec.to_config(threads, search_threads);
                let is_run = sample(config.n_traces, config.max_steps, &mut rng);
                let mut problem = tracer
                    .span("optim.compile", root, group, |_| {
                        if config.force_sampling {
                            Problem::with_forced_sampling(&setup.imc, &setup.b, &is_run)
                        } else {
                            Problem::new(&setup.imc, &setup.b, &is_run)
                        }
                    })
                    .map_err(|e| e.to_string())?;
                Counts::add(&counts.problems, 1);
                Counts::add(&counts.tables, problem.objective().num_tables() as u64);
                Counts::add(
                    &counts.table_nnz,
                    is_run.tables.iter().map(|t| t.counts.len() as u64).sum(),
                );
                Counts::add(&counts.sampled_rows, problem.num_sampled_rows() as u64);
                let search_config = RandomSearchConfig {
                    r_undefeated: config.r_undefeated,
                    r_max: config.r_max,
                    record_trace: config.record_trace,
                };
                let outcome = tracer
                    .span("optim.search", root, group, |_| {
                        search(
                            &mut problem,
                            &search_config,
                            config.strategy,
                            config.search_threads,
                            &mut rng,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                Counts::add(&counts.candidates, outcome.rounds as u64);
                // Algorithm 1, lines 20–23, as the session computes them.
                let n = config.n_traces as f64;
                let objective = problem.objective();
                let (g_min, s_min) = objective.estimate(outcome.f_min, outcome.g_min);
                let (g_max, s_max) = objective.estimate(outcome.f_max, outcome.g_max);
                let q = normal_quantile(1.0 - config.delta / 2.0);
                let lower = g_min - q * s_min / n.sqrt();
                let upper = g_max + q * s_max / n.sqrt();
                let ci =
                    ConfidenceInterval::new(lower.min(upper), upper.max(lower)).clamped_to_unit();
                Ok(RepResult::new(0.5 * (g_min + g_max), ci, is_run.n_success))
            }
            other => Err(format!("no traced pipeline for method `{}`", other.name())),
        }
    })
    .into_iter()
    .collect()
}

fn traced_campaign(
    tracer: &Tracer,
    root: u64,
    group: u64,
    session: &Arc<Session>,
    campaign: &CampaignSpec,
    rep_threads: usize,
    counts: &Counts,
) -> Result<Vec<RepResult>, String> {
    let base = session.spec();
    let reps = base.repetitions as u64;
    let n_traces = base.method.sample().n_traces as u64;
    let estimator = stage_estimator_for(&base.method);
    let mut state = estimator
        .initial_state(session.setup())
        .map_err(|e| e.to_string())?;
    let mut previous = Vec::new();
    let mut results = Vec::new();
    for stage in 0..campaign.stages {
        let group = group | stage as u64;
        if stage > 0 {
            let mut rng = StdRng::seed_from_u64(stream_seed(base.seed, 2 * stage as u64 - 1));
            state = tracer
                .span("campaign.refit", root, group, |_| {
                    estimator.advance(session.setup(), state.clone(), &previous, &mut rng)
                })
                .map_err(|e| e.to_string())?;
        }
        let mut stage_spec = base.clone();
        stage_spec.seed = stream_seed(base.seed, 2 * stage as u64);
        let stage_session = Session::from_setup(session.setup_shared(), stage_spec);
        let (report, outcomes) = tracer
            .span("campaign.stage", root, group, |_| {
                stage_session.run_stage(rep_threads, estimator.as_ref(), &state)
            })
            .map_err(|e| e.to_string())?;
        Counts::add(&counts.sim_calls, reps);
        Counts::add(&counts.sim_traces, reps * n_traces);
        Counts::add(
            &counts.sim_success,
            report.runs.iter().map(|r| r.n_success).sum(),
        );
        results.extend(report.runs.iter().map(RepResult::of));
        previous = outcomes;
        if campaign.converged(&report) {
            break;
        }
    }
    Ok(results)
}
