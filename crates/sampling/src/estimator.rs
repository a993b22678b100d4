use imc_logic::{Property, PropertyMonitor, Verdict};
use imc_markov::{Dtmc, Edge, State, TransitionCounts};
use imc_sim::{simulate_counts_into, BatchRunner, ChainSampler, DEFAULT_MAX_STEPS};
use imc_stats::ConfidenceInterval;
use rand::Rng;

use crate::hash::FastMap;

/// Configuration of an importance-sampling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsConfig {
    /// Number of traces `N_IS`.
    pub n_traces: usize,
    /// Per-trace transition budget.
    pub max_steps: usize,
    /// Worker threads for the batch engine; `0` = all cores. For a fixed
    /// seed the sampled run is bit-identical at every thread count.
    pub threads: usize,
}

impl IsConfig {
    /// Creates a config with the [`DEFAULT_MAX_STEPS`] step budget and the
    /// batch engine on all cores.
    ///
    /// # Panics
    ///
    /// Panics if `n_traces == 0`.
    pub fn new(n_traces: usize) -> Self {
        assert!(n_traces > 0, "need at least one trace");
        IsConfig {
            n_traces,
            max_steps: DEFAULT_MAX_STEPS,
            threads: 0,
        }
    }

    /// Replaces the per-trace step budget.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Replaces the worker-thread budget (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// A deduplicated successful-trace count table with its multiplicity.
///
/// Rare-event workloads revisit the same few successful path shapes, so
/// storing `(table, multiplicity)` instead of one table per trace shrinks
/// both memory and — crucially — the cost of each objective evaluation in
/// the IMCIS optimiser by orders of magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedTable {
    /// `(edge, n_ij)` pairs of the trace, sorted by edge id: slots of the
    /// IS chain `B`'s CSR arrays, so also sorted by `(from, to)`.
    /// [`Dtmc::edge`] decodes an edge through `B`.
    pub counts: Vec<(Edge, u64)>,
    /// How many sampled traces produced exactly this table.
    pub multiplicity: u64,
}

/// The sampling phase of an IS experiment: everything needed to evaluate
/// the estimator under *any* reference chain `A` (the IMC optimiser
/// re-evaluates the same run against many candidate chains).
///
/// The tables key transitions by edge id in the IS chain `B`, so a run is
/// read together with `B`: [`is_estimate`] and [`PreparedRun::new`] refuse
/// a chain whose sparsity pattern is not `b_pattern`.
#[derive(Debug, Clone, PartialEq)]
pub struct IsRun {
    /// Deduplicated count tables of the successful traces.
    pub tables: Vec<WeightedTable>,
    /// Number of traces sampled.
    pub n_traces: usize,
    /// Number of successful (accepted) traces.
    pub n_success: u64,
    /// Traces that hit the step budget undecided (counted as failures).
    pub n_undecided: u64,
    /// [`Dtmc::pattern_fingerprint`] of the chain `B` the run was sampled
    /// under, whose CSR slots the tables' edge ids are.
    pub b_pattern: u64,
}

impl IsRun {
    /// Refuses a chain the run was not sampled under: the tables' edge ids
    /// would name other transitions there.
    fn check_chain(&self, b: &Dtmc) {
        assert_eq!(
            self.b_pattern,
            b.pattern_fingerprint(),
            "the run was sampled under a chain with another sparsity pattern: \
             its edge ids do not index this chain's transitions"
        );
    }
}

/// Canonical frozen count-table key used for deduplication.
type FrozenCounts = Vec<(Edge, u64)>;

/// Per-worker state of the batch sampling loop: reusable scratch (monitor,
/// count table, frozen buffer) plus the worker's share of the reduction.
struct SampleWorker {
    monitor: PropertyMonitor,
    counts: TransitionCounts,
    scratch: FrozenCounts,
    dedup: FastMap<FrozenCounts, u64>,
    n_success: u64,
    n_undecided: u64,
}

/// Samples `N` traces of `b` and records the deduplicated transition count
/// tables of the traces satisfying `property` (Algorithm 1, lines 1–16).
///
/// Traces that fail the property contribute `z(ω)·L(ω) = 0` to every
/// estimate, so their tables are discarded on the fly — only the verdict
/// tallies remember them.
///
/// Traces are fanned over the batch engine ([`imc_sim::BatchRunner`])
/// according to `config.threads`; trace `i` always simulates under its own
/// counter-based RNG stream keyed by one draw from `rng`, so for a seeded
/// caller the returned [`IsRun`] is **bit-identical at every thread
/// count**. The sampler borrows `b`'s alias tables, which `b` builds on its
/// first sampling and keeps ([`Dtmc::alias_table`]), so repeated runs on
/// one chain share one build. The per-trace path allocates nothing once
/// warm: each worker logs a trace's edge ids in one reused count table,
/// counts them by sorting into a reusable buffer, and looks that frozen
/// table up in its dedup map, cloning it only when a new path shape first
/// appears. The map's hasher is unkeyed and its order never reaches the
/// result: the tables are sorted before they are returned.
pub fn sample_is_run<R: Rng + ?Sized>(
    b: &Dtmc,
    property: &Property,
    config: &IsConfig,
    rng: &mut R,
) -> IsRun {
    let sampler = ChainSampler::new(b);
    let master_seed = rng.next_u64();
    let runner = BatchRunner::new(config.threads);
    let merged = runner.run(
        config.n_traces,
        master_seed,
        || SampleWorker {
            monitor: property.monitor(),
            counts: TransitionCounts::new(),
            scratch: FrozenCounts::new(),
            dedup: FastMap::default(),
            n_success: 0,
            n_undecided: 0,
        },
        |w, _i, trace_rng| {
            let (verdict, _, _) = simulate_counts_into(
                &sampler,
                b.initial(),
                &mut w.monitor,
                trace_rng,
                config.max_steps,
                &mut w.counts,
            );
            match verdict {
                Verdict::Accepted => {
                    w.n_success += 1;
                    w.counts.frozen_into(&mut w.scratch);
                    // Borrow-by-slice lookup: the frozen key is only
                    // cloned the first time this path shape appears.
                    if let Some(mult) = w.dedup.get_mut(w.scratch.as_slice()) {
                        *mult += 1;
                    } else {
                        w.dedup.insert(w.scratch.clone(), 1);
                    }
                }
                Verdict::Rejected => {}
                Verdict::Undecided => w.n_undecided += 1,
            }
        },
        |acc, other| {
            acc.n_success += other.n_success;
            acc.n_undecided += other.n_undecided;
            for (counts, mult) in other.dedup {
                *acc.dedup.entry(counts).or_insert(0) += mult;
            }
        },
    );
    let mut tables: Vec<WeightedTable> = merged
        .dedup
        .into_iter()
        .map(|(counts, multiplicity)| WeightedTable {
            counts,
            multiplicity,
        })
        .collect();
    // Deterministic order regardless of map iteration and merge order.
    tables.sort_by(|a, b| a.counts.cmp(&b.counts));
    IsRun {
        tables,
        n_traces: config.n_traces,
        n_success: merged.n_success,
        n_undecided: merged.n_undecided,
        b_pattern: b.pattern_fingerprint(),
    }
}

/// An importance-sampling estimate with its dispersion and interval.
#[derive(Debug, Clone, PartialEq)]
pub struct IsEstimate {
    /// Point estimate `γ̂_N = (1/N) Σ L(ω_k) z(ω_k)` (eq. (7)).
    pub gamma_hat: f64,
    /// Empirical (population) standard deviation of `L·z`.
    pub sigma_hat: f64,
    /// `(1−δ)` normal confidence interval `γ̂ ± Φ⁻¹(1−δ/2)·σ̂/√N`.
    pub ci: ConfidenceInterval,
    /// Number of traces behind the estimate.
    pub n: usize,
}

/// Evaluates the IS estimator of a sampled run against reference chain `a`.
///
/// Likelihood ratios are computed in log space from the count tables:
/// `ln L = Σ n_ij ln a_ij − Σ n_ij ln b_ij` (eq. (6)); a transition of `a`
/// with zero probability yields `L = 0` for that trace (the path is
/// impossible under `a`).
///
/// Each table entry reads `b_ij` at its edge id. When `a` has `b`'s
/// sparsity pattern (a failure-biased or cross-entropy chain) `a_ij` is
/// read at the same slot; otherwise (a zero-variance `b` drops the
/// transitions of `a` that cannot reach the target) `a_ij` is looked up
/// once per distinct edge of the run.
///
/// This is the one-shot path: every call recomputes every `ln`. When the
/// same run is evaluated against *many* reference chains — exactly what
/// the IMCIS optimiser does with candidate members of the IMC — build a
/// [`PreparedRun`] once instead; [`PreparedRun::estimate_chain`] returns
/// bit-identical values at a fraction of the per-candidate cost.
///
/// # Panics
///
/// Panics if the run was not sampled under a chain with `b`'s pattern.
pub fn is_estimate(a: &Dtmc, b: &Dtmc, run: &IsRun, delta: f64) -> IsEstimate {
    run.check_chain(b);
    let pa_at = ProbsOnEdges::new(a, b, run);
    let pb_at = b.transition_probs();
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for table in &run.tables {
        // Two separate accumulators (ln P_A and ln P_B) rather than a
        // running difference: PreparedRun caches Σ n ln b per table, and
        // keeping the same summation shape here makes the two paths
        // bit-identical, which the determinism tests pin down.
        let mut log_pa = 0.0f64;
        let mut log_pb = 0.0f64;
        for &(edge, n) in &table.counts {
            let pa = pa_at.get(edge);
            // pb > 0: a chain stores only its transitions.
            let pb = pb_at[edge as usize];
            log_pa += n as f64 * pa.ln();
            log_pb += n as f64 * pb.ln();
        }
        let l = (log_pa - log_pb).exp();
        let m = table.multiplicity as f64;
        sum += m * l;
        sum_sq += m * l * l;
    }
    finish_estimate(sum, sum_sq, run.n_traces, delta)
}

/// The reference chain's probability `a_ij` of each edge of `B`.
enum ProbsOnEdges<'a> {
    /// `a` has `b`'s pattern: slot `e` of `a` is edge `e` of `b`.
    Shared(&'a [f64]),
    /// `a(from, to)` of each distinct edge of the run, `0.0` where `a` has
    /// no such transition.
    Mapped(FastMap<Edge, f64>),
}

impl<'a> ProbsOnEdges<'a> {
    fn new(a: &'a Dtmc, b: &Dtmc, run: &IsRun) -> Self {
        if a.same_pattern(b) {
            return ProbsOnEdges::Shared(a.transition_probs());
        }
        let mut map = FastMap::default();
        for table in &run.tables {
            for &(edge, _) in &table.counts {
                map.entry(edge).or_insert_with(|| {
                    let (from, to) = b.edge(edge);
                    a.prob(from, to)
                });
            }
        }
        ProbsOnEdges::Mapped(map)
    }

    #[inline]
    fn get(&self, edge: Edge) -> f64 {
        match self {
            ProbsOnEdges::Shared(probs) => probs[edge as usize],
            ProbsOnEdges::Mapped(map) => map[&edge],
        }
    }
}

fn finish_estimate(sum: f64, sum_sq: f64, n_traces: usize, delta: f64) -> IsEstimate {
    let n = n_traces as f64;
    let gamma_hat = sum / n;
    let variance = (sum_sq / n - gamma_hat * gamma_hat).max(0.0);
    let sigma_hat = variance.sqrt();
    let ci = ConfidenceInterval::for_mean(gamma_hat, sigma_hat, n_traces, delta);
    IsEstimate {
        gamma_hat,
        sigma_hat,
        ci,
        n: n_traces,
    }
}

/// Per-lane objective sums of one [`PreparedRun::eval_lanes`] call: lane
/// `l` holds `(f, g)` of candidate `l` under the min and the max template.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneSums<const L: usize> {
    /// `f` under the min template, per lane.
    pub f_min: [f64; L],
    /// `g` under the min template, per lane.
    pub g_min: [f64; L],
    /// `f` under the max template, per lane.
    pub f_max: [f64; L],
    /// `g` under the max template, per lane.
    pub g_max: [f64; L],
}

/// A sampled run compiled against its (fixed) IS chain `B` for fast
/// repeated estimator evaluation.
///
/// The IMCIS random search evaluates the *same* run against thousands of
/// candidate reference chains. Everything that depends only on the run and
/// on `B` is precomputed here, once:
///
/// * distinct observed edges of `B` get dense ids, in first-appearance
///   order, and are decoded to `(from, to)` once (`transitions`);
/// * each deduplicated table becomes a CSR slice of `(id, n)` pairs;
/// * `ln b_ij` is read at the edge and taken once per distinct transition
///   (`log_b`), and the per-table constant `Σ n_ij ln b_ij` is cached
///   (`table_log_pb`).
///
/// A candidate evaluation then needs one `ln a` per **distinct**
/// transition (not per table entry), read in one forward walk over each
/// touched row of `A` ([`PreparedRun::log_probs_into`]), and zero work for
/// `B`, while producing bit-identical `γ̂`/`σ̂` (same summation order and
/// operands as [`is_estimate`]).
///
/// Every evaluation runs through one kernel, [`PreparedRun::eval_lanes`]:
/// a single pass over the table CSR that evaluates a block of candidates
/// side by side, each under a min and a max `ln a` vector.
/// [`PreparedRun::eval_log`] is its one-lane, one-vector call.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedRun {
    /// Dense id → observed transition, in first-appearance order.
    transitions: Vec<(State, State)>,
    /// Flat `(transition id, multiplicity n_ij)` entries of all tables.
    entries: Vec<(u32, u32)>,
    /// Table `k` owns `entries[table_offsets[k]..table_offsets[k + 1]]`.
    table_offsets: Vec<u32>,
    /// Trace multiplicity of each table, as `f64`.
    table_mult: Vec<f64>,
    /// Cached `Σ n_ij ln b_ij` of each table.
    table_log_pb: Vec<f64>,
    /// `ln b_ij` per transition id.
    log_b: Vec<f64>,
    /// Transition ids sorted by `(from, to)`: lets the candidate
    /// log-prob fill walk each CSR row of `A` exactly once instead of
    /// binary-searching per transition.
    sorted_ids: Vec<u32>,
    /// Total trace count `N` (including failures).
    n_traces: usize,
}

impl PreparedRun {
    /// Compiles `run` against the IS chain `b` it was sampled under.
    ///
    /// # Panics
    ///
    /// Panics if `b`'s sparsity pattern is not the one the run was sampled
    /// under: the run's edge ids would name other transitions of `b`.
    pub fn new(run: &IsRun, b: &Dtmc) -> Self {
        run.check_chain(b);
        let pb_at = b.transition_probs();
        let mut lookup: FastMap<Edge, u32> = FastMap::default();
        let mut edges: Vec<Edge> = Vec::new();
        let mut log_b: Vec<f64> = Vec::new();
        let mut entries = Vec::new();
        let mut table_offsets = Vec::with_capacity(run.tables.len() + 1);
        let mut table_mult = Vec::with_capacity(run.tables.len());
        let mut table_log_pb = Vec::with_capacity(run.tables.len());
        table_offsets.push(0u32);
        for table in &run.tables {
            let mut log_pb = 0.0f64;
            for &(edge, n) in &table.counts {
                let id = *lookup.entry(edge).or_insert_with(|| {
                    edges.push(edge);
                    log_b.push(pb_at[edge as usize].ln());
                    (edges.len() - 1) as u32
                });
                entries.push((id, n as u32));
                log_pb += n as f64 * log_b[id as usize];
            }
            assert!(
                entries.len() < u32::MAX as usize,
                "run too large for u32 entry offsets"
            );
            table_offsets.push(entries.len() as u32);
            table_mult.push(table.multiplicity as f64);
            table_log_pb.push(log_pb);
        }
        // Ascending edge ids are ascending `(from, to)`.
        let mut sorted_ids: Vec<u32> = (0..edges.len() as u32).collect();
        sorted_ids.sort_unstable_by_key(|&id| edges[id as usize]);
        let transitions = edges.into_iter().map(|e| b.edge(e)).collect();
        PreparedRun {
            transitions,
            entries,
            table_offsets,
            table_mult,
            table_log_pb,
            log_b,
            sorted_ids,
            n_traces: run.n_traces,
        }
    }

    /// The indexed transitions, id order.
    pub fn transitions(&self) -> &[(State, State)] {
        &self.transitions
    }

    /// Number of distinct observed transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Number of deduplicated tables.
    pub fn num_tables(&self) -> usize {
        self.table_mult.len()
    }

    /// Total trace count `N` behind the run.
    pub fn n_traces(&self) -> usize {
        self.n_traces
    }

    /// Fills `buf` with `ln a_ij` per transition id (`-inf` where `a`
    /// assigns probability zero).
    ///
    /// Walks the borrowed CSR arrays of `a` directly: transition ids are
    /// visited in `(from, to)` order, so each touched row's
    /// `col_idx`/`probs` slice is scanned once front to back — no
    /// per-transition row lookup or binary search. The filled values are
    /// identical to `a.prob(from, to).ln()` per id.
    ///
    /// # Panics
    ///
    /// Panics if an observed source state is out of range for `a`.
    pub fn log_probs_into(&self, a: &Dtmc, buf: &mut Vec<f64>) {
        buf.clear();
        buf.resize(self.transitions.len(), 0.0);
        let row_ptr = a.row_offsets();
        let col_idx = a.transition_targets();
        let probs = a.transition_probs();
        let mut i = 0;
        while i < self.sorted_ids.len() {
            let from = self.transitions[self.sorted_ids[i] as usize].0;
            let targets = &col_idx[row_ptr[from]..row_ptr[from + 1]];
            let row_probs = &probs[row_ptr[from]..row_ptr[from + 1]];
            let mut j = 0;
            while i < self.sorted_ids.len() {
                let id = self.sorted_ids[i] as usize;
                let (f, to) = self.transitions[id];
                if f != from {
                    break;
                }
                while j < targets.len() && (targets[j] as usize) < to {
                    j += 1;
                }
                let p = if j < targets.len() && targets[j] as usize == to {
                    row_probs[j]
                } else {
                    0.0
                };
                buf[id] = p.ln();
                i += 1;
            }
        }
    }

    /// Evaluates `(f(A), g(A))` — the empirical IS objective and its second
    /// moment — for candidate log-probabilities `ln a_ij` (one per
    /// transition id, aligned with [`PreparedRun::transitions`]):
    ///
    /// ```text
    /// f(A) = Σ_tables mult · exp( Σ_t n_t ln a_t − Σ_t n_t ln b_t )
    /// g(A) = Σ_tables mult · exp( … )²
    /// ```
    ///
    /// The second sum is the cached per-table constant. This is the
    /// one-lane call of [`PreparedRun::eval_lanes`], with `log_a` as both
    /// templates and no split table.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if `log_a` has the wrong length.
    pub fn eval_log(&self, log_a: &[f64]) -> (f64, f64) {
        let (lanes, _) = log_a.as_chunks::<1>();
        let sums = self.eval_lanes(lanes, lanes, &[]);
        (sums.f_min[0], sums.g_min[0])
    }

    /// Evaluates a block of `L` candidates in one pass over the tables.
    ///
    /// `log_min` and `log_max` are lane-major: entry `id` holds `ln a` of
    /// transition `id` for each of the `L` candidates, under the min and the
    /// max template respectively. Lane `l` of the result is bit-identical to
    /// [`PreparedRun::eval_log`] on lane `l` of `log_min` (resp. `log_max`):
    /// every lane keeps that call's operands and order — the per-table dot
    /// product `Σ n·ln a` in entry order with a separate `*` and `+`, its
    /// `exp`, then the running `f`/`g` sums in table order.
    ///
    /// `split` lists, ascending, the tables on which the two templates may
    /// differ ([`PreparedRun::split_tables`]). On every other table the
    /// caller guarantees bit-identical operands, so the kernel computes the
    /// dot product and `exp` once, from `log_min`, and adds the term to both
    /// templates' sums.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if `log_min` or `log_max` has the wrong length.
    pub fn eval_lanes<const L: usize>(
        &self,
        log_min: &[[f64; L]],
        log_max: &[[f64; L]],
        mut split: &[u32],
    ) -> LaneSums<L> {
        debug_assert_eq!(log_min.len(), self.transitions.len());
        debug_assert_eq!(log_max.len(), self.transitions.len());
        let mut sums = LaneSums {
            f_min: [0.0; L],
            g_min: [0.0; L],
            f_max: [0.0; L],
            g_max: [0.0; L],
        };
        for k in 0..self.table_mult.len() {
            let entries =
                &self.entries[self.table_offsets[k] as usize..self.table_offsets[k + 1] as usize];
            let is_split = split.first() == Some(&(k as u32));
            if is_split {
                split = &split[1..];
            }
            let log_pa_min = lane_dot(entries, log_min);
            let log_pa_max = if is_split {
                lane_dot(entries, log_max)
            } else {
                log_pa_min
            };
            let (log_pb, mult) = (self.table_log_pb[k], self.table_mult[k]);
            for l in 0..L {
                let l_min = (log_pa_min[l] - log_pb).exp();
                let l_max = if is_split {
                    (log_pa_max[l] - log_pb).exp()
                } else {
                    l_min
                };
                sums.f_min[l] += mult * l_min;
                sums.g_min[l] += mult * l_min * l_min;
                sums.f_max[l] += mult * l_max;
                sums.g_max[l] += mult * l_max * l_max;
            }
        }
        sums
    }

    /// The tables [`PreparedRun::eval_lanes`] must treat as split for the
    /// one-lane templates `log_min` and `log_max`: ascending indices of the
    /// tables with an entry whose two values differ in bits.
    ///
    /// A block whose lanes differ from these templates only at transitions
    /// where the templates agree, with each lane writing the same value into
    /// both, may pass the result as `split`.
    ///
    /// # Panics
    ///
    /// Panics if `log_min` or `log_max` has the wrong length.
    pub fn split_tables(&self, log_min: &[f64], log_max: &[f64]) -> Vec<u32> {
        assert_eq!(log_min.len(), self.transitions.len());
        assert_eq!(log_max.len(), self.transitions.len());
        let differs: Vec<bool> = log_min
            .iter()
            .zip(log_max)
            .map(|(a, b)| a.to_bits() != b.to_bits())
            .collect();
        if !differs.contains(&true) {
            return Vec::new();
        }
        (0..self.table_mult.len())
            .filter(|&k| {
                self.entries[self.table_offsets[k] as usize..self.table_offsets[k + 1] as usize]
                    .iter()
                    .any(|&(id, _)| differs[id as usize])
            })
            .map(|k| k as u32)
            .collect()
    }

    /// The estimator pair `(γ̂, σ̂)` at given objective values:
    /// `γ̂ = f/N`, `σ̂ = √(g/N − γ̂²)` (Algorithm 1, lines 20–23).
    pub fn estimate(&self, f: f64, g: f64) -> (f64, f64) {
        let n = self.n_traces as f64;
        let gamma = f / n;
        let variance = (g / n - gamma * gamma).max(0.0);
        (gamma, variance.sqrt())
    }

    /// Evaluates the IS estimator against reference chain `a` —
    /// bit-identical to [`is_estimate`]`(a, b, run, delta)` on the run and
    /// chain this value was built from, at a fraction of the cost per
    /// candidate.
    ///
    /// Allocates one scratch vector per call; tight candidate loops should
    /// hold a buffer and use [`PreparedRun::estimate_chain_with`] instead.
    pub fn estimate_chain(&self, a: &Dtmc, delta: f64) -> IsEstimate {
        self.estimate_chain_with(a, delta, &mut Vec::new())
    }

    /// Allocation-free [`PreparedRun::estimate_chain`]: reuses `log_a_buf`
    /// as the per-candidate `ln a` scratch across calls.
    pub fn estimate_chain_with(
        &self,
        a: &Dtmc,
        delta: f64,
        log_a_buf: &mut Vec<f64>,
    ) -> IsEstimate {
        self.log_probs_into(a, log_a_buf);
        let (f, g) = self.eval_log(log_a_buf);
        finish_estimate(f, g, self.n_traces, delta)
    }
}

/// `Σ n·ln a` of one table for every lane: entries in CSR order, each
/// lane its own add chain (a `*` then a `+`, never fused).
#[inline(always)]
fn lane_dot<const L: usize>(entries: &[(u32, u32)], log_a: &[[f64; L]]) -> [f64; L] {
    let mut acc = [0.0f64; L];
    for &(id, n) in entries {
        let n = n as f64;
        for (acc, &a) in acc.iter_mut().zip(&log_a[id as usize]) {
            *acc += n * a;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_markov::{DtmcBuilder, StateSet};
    use rand::SeedableRng;

    /// Rare coin: p(success) = 1e-3; biased to 0.5 under B.
    fn rare_coin() -> (Dtmc, Dtmc, Property) {
        let mut builder = DtmcBuilder::new(3);
        builder
            .add_transition(0, 1, 1e-3)
            .add_transition(0, 2, 1.0 - 1e-3)
            .add_self_loop(1)
            .add_self_loop(2);
        let a = builder.build().unwrap();
        let mut builder = DtmcBuilder::new(3);
        builder
            .add_transition(0, 1, 0.5)
            .add_transition(0, 2, 0.5)
            .add_self_loop(1)
            .add_self_loop(2);
        let b = builder.build().unwrap();
        let prop =
            Property::reach_avoid(StateSet::from_states(3, [1]), StateSet::from_states(3, [2]));
        (a, b, prop)
    }

    #[test]
    fn unbiased_on_rare_coin() {
        let (a, b, prop) = rare_coin();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let run = sample_is_run(&b, &prop, &IsConfig::new(50_000), &mut rng);
        // About half the traces succeed under B.
        assert!(run.n_success > 20_000);
        let est = is_estimate(&a, &b, &run, 0.01);
        assert!(
            est.ci.contains(1e-3),
            "CI {:?} misses 1e-3 (γ̂ = {})",
            est.ci,
            est.gamma_hat
        );
    }

    #[test]
    fn tables_deduplicate_single_step_paths() {
        let (_, b, prop) = rare_coin();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let run = sample_is_run(&b, &prop, &IsConfig::new(10_000), &mut rng);
        // Every successful trace is the single path 0 -> 1.
        assert_eq!(run.tables.len(), 1);
        assert_eq!(run.tables[0].counts, vec![(b.edge_id(0, 1).unwrap(), 1)]);
        assert_eq!(run.tables[0].multiplicity, run.n_success);
    }

    #[test]
    fn is_under_original_measure_matches_monte_carlo() {
        // B = A: likelihood ratios are all 1, estimator reduces to the
        // plain frequency.
        let (a, _, prop) = rare_coin();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let run = sample_is_run(&a, &prop, &IsConfig::new(20_000), &mut rng);
        let est = is_estimate(&a, &a, &run, 0.05);
        assert!((est.gamma_hat - run.n_success as f64 / 20_000.0).abs() < 1e-15);
    }

    #[test]
    fn impossible_transition_under_reference_zeroes_the_trace() {
        let (_, b, prop) = rare_coin();
        // Reference chain where the success transition has probability 0:
        // support mismatch is modelled by a chain routing 0 -> 2 only.
        let mut builder = DtmcBuilder::new(3);
        builder
            .add_transition(0, 2, 1.0)
            .add_self_loop(1)
            .add_self_loop(2);
        let a0 = builder.build().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let run = sample_is_run(&b, &prop, &IsConfig::new(1000), &mut rng);
        let est = is_estimate(&a0, &b, &run, 0.05);
        assert_eq!(est.gamma_hat, 0.0);
        assert_eq!(est.sigma_hat, 0.0);
    }

    #[test]
    #[should_panic(expected = "sampled under a chain with another sparsity pattern")]
    fn a_run_refuses_a_chain_it_was_not_sampled_under() {
        let (_, b, prop) = rare_coin();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let run = sample_is_run(&b, &prop, &IsConfig::new(1000), &mut rng);
        // Same size, other transitions: edge 0 would be 0 -> 0 here.
        let mut builder = DtmcBuilder::new(3);
        builder
            .add_transition(0, 0, 0.5)
            .add_transition(0, 2, 0.5)
            .add_self_loop(1)
            .add_self_loop(2);
        let other = builder.build().unwrap();
        assert_eq!(other.num_transitions(), b.num_transitions());
        let _ = PreparedRun::new(&run, &other);
    }

    #[test]
    fn is_estimate_reads_a_through_the_edges_of_b() {
        // A zero-variance-like B drops 0 -> 2 of A and adds nothing; the
        // estimate must equal the one read pair by pair.
        let (a, b, prop) = rare_coin();
        let mut builder = DtmcBuilder::new(3);
        builder
            .add_transition(0, 1, 1.0)
            .add_self_loop(1)
            .add_self_loop(2);
        let zv = builder.build().unwrap();
        for chain in [&b, &zv] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(8);
            let run = sample_is_run(chain, &prop, &IsConfig::new(2000), &mut rng);
            let est = is_estimate(&a, chain, &run, 0.05);
            let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
            for table in &run.tables {
                let (mut log_pa, mut log_pb) = (0.0f64, 0.0f64);
                for &(edge, n) in &table.counts {
                    let (from, to) = chain.edge(edge);
                    log_pa += n as f64 * a.prob(from, to).ln();
                    log_pb += n as f64 * chain.prob(from, to).ln();
                }
                let l = (log_pa - log_pb).exp();
                sum += table.multiplicity as f64 * l;
                sum_sq += table.multiplicity as f64 * l * l;
            }
            let by_pairs = finish_estimate(sum, sum_sq, run.n_traces, 0.05);
            assert_eq!(est, by_pairs);
            assert_eq!(est, PreparedRun::new(&run, chain).estimate_chain(&a, 0.05));
        }
    }

    /// `A` and the IS chain `B` of a loop `0 → 1 → (0 → 1)* → 2`, and a
    /// run of `B` avoiding the sink 3.
    fn loop_chains_and_run() -> (Dtmc, Dtmc, IsRun) {
        let mut ab = DtmcBuilder::new(4);
        ab.add_transition(0, 1, 0.01)
            .add_transition(0, 3, 0.99)
            .add_transition(1, 2, 0.3)
            .add_transition(1, 0, 0.7)
            .add_self_loop(2)
            .add_self_loop(3);
        let a = ab.build().unwrap();
        let mut bb = DtmcBuilder::new(4);
        bb.add_transition(0, 1, 0.5)
            .add_transition(0, 3, 0.5)
            .add_transition(1, 2, 0.6)
            .add_transition(1, 0, 0.4)
            .add_self_loop(2)
            .add_self_loop(3);
        let b = bb.build().unwrap();
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let run = sample_is_run(&b, &prop, &IsConfig::new(5000), &mut rng);
        (a, b, run)
    }

    /// `(f, g)` of the run against chain `a`.
    fn eval_chain(prepared: &PreparedRun, a: &Dtmc) -> (f64, f64) {
        let mut log_a = Vec::new();
        prepared.log_probs_into(a, &mut log_a);
        prepared.eval_log(&log_a)
    }

    #[test]
    fn objective_matches_is_estimate() {
        let (a, b, run) = loop_chains_and_run();
        let prepared = PreparedRun::new(&run, &b);
        let (f, g) = eval_chain(&prepared, &a);
        let (gamma, sigma) = prepared.estimate(f, g);
        let reference = is_estimate(&a, &b, &run, 0.05);
        assert!((gamma - reference.gamma_hat).abs() < 1e-15);
        assert!((sigma - reference.sigma_hat).abs() < 1e-15);
    }

    #[test]
    fn evaluating_b_gives_success_rate() {
        // With A = B every likelihood ratio is 1: f = #successes.
        let (_, b, run) = loop_chains_and_run();
        let (f, g) = eval_chain(&PreparedRun::new(&run, &b), &b);
        assert!((f - run.n_success as f64).abs() < 1e-9);
        assert!((g - run.n_success as f64).abs() < 1e-9);
    }

    #[test]
    fn monotone_in_observed_transition() {
        // Raising a_01 (used by every successful trace) raises f.
        let (a, b, run) = loop_chains_and_run();
        let prepared = PreparedRun::new(&run, &b);
        let ids = prepared.transitions().to_vec();
        let base: Vec<f64> = ids.iter().map(|&(f_, t)| a.prob(f_, t).ln()).collect();
        let (f0, _) = prepared.eval_log(&base);
        let mut boosted = base.clone();
        let idx = ids.iter().position(|&t| t == (0, 1)).unwrap();
        boosted[idx] = (a.prob(0, 1) * 2.0).ln();
        let (f1, _) = prepared.eval_log(&boosted);
        assert!(f1 > f0);
    }

    #[test]
    fn empty_run_evaluates_to_zero() {
        let (_, b, _) = loop_chains_and_run();
        let empty = IsRun {
            tables: vec![],
            n_traces: 100,
            n_success: 0,
            n_undecided: 0,
            b_pattern: b.pattern_fingerprint(),
        };
        let prepared = PreparedRun::new(&empty, &b);
        let (f, g) = prepared.eval_log(&[]);
        assert_eq!((f, g), (0.0, 0.0));
        assert_eq!(prepared.estimate(f, g), (0.0, 0.0));
    }

    #[test]
    fn lane_kernel_matches_eval_log_on_a_partial_block() {
        // 0 -> 1 -> (0 -> 1)^k -> 2: every successful table holds (0, 1)
        // and (1, 2); only the tables with k >= 1 hold (1, 0).
        let mut builder = DtmcBuilder::new(4);
        builder
            .add_transition(0, 1, 0.5)
            .add_transition(0, 3, 0.5)
            .add_transition(1, 2, 0.3)
            .add_transition(1, 0, 0.7)
            .add_self_loop(2)
            .add_self_loop(3);
        let b = builder.build().unwrap();
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let run = sample_is_run(&b, &prop, &IsConfig::new(5000), &mut rng);
        let prepared = PreparedRun::new(&run, &b);
        let loop_back = prepared
            .transitions()
            .iter()
            .position(|&t| t == (1, 0))
            .expect("some trace loops back");

        // Templates that differ only at 1 -> 0, so some tables split.
        let base: Vec<f64> = prepared
            .transitions()
            .iter()
            .map(|&(from, to)| (0.9 * b.prob(from, to)).ln())
            .collect();
        let mut base_max = base.clone();
        base_max[loop_back] = 0.8f64.ln();
        let split = prepared.split_tables(&base, &base_max);
        assert!(!split.is_empty() && split.len() < prepared.num_tables());

        // Five distinct candidates in a block of eight: each lane writes the
        // same value into both templates away from 1 -> 0.
        let used = 5;
        let lane_value = |v: f64, lane: usize| v + 0.01 * lane as f64;
        let mut log_min = vec![[f64::NAN; 8]; prepared.num_transitions()];
        let mut log_max = log_min.clone();
        for id in 0..prepared.num_transitions() {
            for lane in 0..used {
                log_min[id][lane] = lane_value(base[id], lane);
                log_max[id][lane] = if id == loop_back {
                    base_max[id]
                } else {
                    lane_value(base[id], lane)
                };
            }
        }
        let sums = prepared.eval_lanes(&log_min, &log_max, &split);
        for lane in 0..used {
            let column = |lanes: &[[f64; 8]]| lanes.iter().map(|v| v[lane]).collect::<Vec<f64>>();
            let (f_min, g_min) = prepared.eval_log(&column(&log_min));
            let (f_max, g_max) = prepared.eval_log(&column(&log_max));
            assert_eq!(sums.f_min[lane].to_bits(), f_min.to_bits(), "lane {lane}");
            assert_eq!(sums.g_min[lane].to_bits(), g_min.to_bits(), "lane {lane}");
            assert_eq!(sums.f_max[lane].to_bits(), f_max.to_bits(), "lane {lane}");
            assert_eq!(sums.g_max[lane].to_bits(), g_max.to_bits(), "lane {lane}");
            assert!(f_min < f_max, "the templates differ on a used transition");
        }
    }

    #[test]
    fn multi_step_likelihood_ratio_telescopes() {
        // Two-step chain where LRs must multiply across steps:
        // A: 0 -(0.1)-> 1 -(0.2)-> 2 ; B doubles both.
        let mut builder = DtmcBuilder::new(4);
        builder
            .add_transition(0, 1, 0.1)
            .add_transition(0, 3, 0.9)
            .add_transition(1, 2, 0.2)
            .add_transition(1, 3, 0.8)
            .add_self_loop(2)
            .add_self_loop(3);
        let a = builder.build().unwrap();
        let mut builder = DtmcBuilder::new(4);
        builder
            .add_transition(0, 1, 0.2)
            .add_transition(0, 3, 0.8)
            .add_transition(1, 2, 0.4)
            .add_transition(1, 3, 0.6)
            .add_self_loop(2)
            .add_self_loop(3);
        let b = builder.build().unwrap();
        let prop =
            Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let run = sample_is_run(&b, &prop, &IsConfig::new(200_000), &mut rng);
        let est = is_estimate(&a, &b, &run, 0.01);
        // γ = 0.1 · 0.2 = 0.02; every successful trace has L = 0.5·0.5.
        assert!(est.ci.contains(0.02), "CI {:?}", est.ci);
        let success_rate = run.n_success as f64 / run.n_traces as f64;
        assert!((est.gamma_hat - success_rate * 0.25).abs() < 1e-12);
    }
}
