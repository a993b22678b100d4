//! Engine scaling experiment: traces/sec of the parallel batch sampler at
//! increasing thread counts, candidate-evals/sec of the naive, prepared
//! and lane-blocked estimator hot paths, candidate-rounds/sec of the
//! sequential vs batched random-search engines, and the streaming CSR
//! build throughput of the million-state repair fleet (states/sec + peak
//! RSS) — the perf trajectory artefact behind the parallel-engine,
//! sparse-kernel and lane-kernel changes.
//!
//! The search axis runs on the zero-variance problem, where every table
//! touches a closed-form row: it shows the lane blocking of the batched
//! search without the kernel's min/max term sharing.
//!
//! Emits `BENCH_parallel.json` in the working directory (plus a printed
//! table) so future changes have a baseline to beat. Accepts the usual
//! scale flags (`--quick`, `--paper`, `--n N`, `--seed S`).

use std::time::Instant;

use imc_models::scenario::group_repair_setup;
use imc_models::{group_repair, GroupRepairIs, Setup};
use imc_optim::{random_search, BatchSearch, Problem, RandomSearchConfig, LANES};
use imc_sampling::{is_estimate, sample_is_run, IsConfig, IsRun, PreparedRun};
use imc_sim::parallel::available_threads;
use imcis_bench::{print_table, sci, Scale};
use rand::SeedableRng;

fn sample_at(setup: &Setup, n: usize, threads: usize, seed: u64) -> IsRun {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    sample_is_run(
        &setup.b,
        &setup.property,
        &IsConfig::new(n).with_threads(threads),
        &mut rng,
    )
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

fn main() {
    let scale = Scale::from_args();
    let n_traces = scale.n_traces;
    let setup = group_repair_setup(GroupRepairIs::ZeroVariance, scale.seed);
    let cores = available_threads();

    // --- Axis 1: batch-engine scaling -----------------------------------
    let mut thread_counts = vec![1usize, 2, 4, 8, cores];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let reference = sample_at(&setup, n_traces, 1, scale.seed);
    let mut bit_identical = true;
    let mut rates: Vec<(usize, f64)> = Vec::new();
    for &threads in &thread_counts {
        // Warm-up pass doubles as the bit-identity check.
        let run = sample_at(&setup, n_traces, threads, scale.seed);
        bit_identical &= run == reference;
        let start = Instant::now();
        let reps = 3.max(20_000 / n_traces.max(1));
        for r in 0..reps {
            let run = sample_at(&setup, n_traces, threads, scale.seed.wrapping_add(r as u64));
            std::hint::black_box(run);
        }
        rates.push((
            threads,
            (reps * n_traces) as f64 / start.elapsed().as_secs_f64(),
        ));
    }
    // Normalise against the measured 1-thread rate, so speedup_vs_1 is
    // exactly 1.0 at 1 thread by construction.
    let base_rate = rates
        .iter()
        .find(|&&(t, _)| t == 1)
        .map(|&(_, r)| r)
        .expect("1-thread row present");
    let sampling_rows: Vec<(usize, f64, f64)> = rates
        .into_iter()
        .map(|(t, rate)| (t, rate, rate / base_rate))
        .collect();

    // --- Axis 2: candidate evaluation, prepared vs naive ----------------
    let run = sample_at(&setup, n_traces, 0, scale.seed);
    let prepared = PreparedRun::new(&run, &setup.b);
    // A sweep of genuine candidate chains A(α) around the learnt rate.
    let candidates: Vec<_> = (0..64)
        .map(|i| group_repair::jump_chain(0.09 + 0.0003 * i as f64))
        .collect();
    let mut eval_identical = true;
    for a in &candidates {
        let naive = is_estimate(a, &setup.b, &run, 0.05);
        let fast = prepared.estimate_chain(a, 0.05);
        eval_identical &= naive.gamma_hat.to_bits() == fast.gamma_hat.to_bits()
            && naive.sigma_hat.to_bits() == fast.sigma_hat.to_bits();
    }
    // The lane kernel over the same candidates, LANES chains per call: fill
    // each lane from its chain, evaluate the block, take each lane's
    // estimate. Every lane must equal the one-chain path by bits.
    let blocked_pass = |out: &mut Vec<(f64, f64)>| {
        out.clear();
        let mut log_a = Vec::new();
        let mut lanes = vec![[0.0f64; LANES]; prepared.num_transitions()];
        for block in candidates.chunks(LANES) {
            for (lane, a) in block.iter().enumerate() {
                prepared.log_probs_into(a, &mut log_a);
                for (slot, &v) in lanes.iter_mut().zip(&log_a) {
                    slot[lane] = v;
                }
            }
            let sums = prepared.eval_lanes(&lanes, &lanes, &[]);
            for lane in 0..block.len() {
                out.push(prepared.estimate(sums.f_min[lane], sums.g_min[lane]));
            }
        }
    };
    let mut blocked = Vec::new();
    blocked_pass(&mut blocked);
    let blocked_identical = candidates.iter().zip(&blocked).all(|(a, &(gamma, sigma))| {
        let fast = prepared.estimate_chain(a, 0.05);
        fast.gamma_hat.to_bits() == gamma.to_bits() && fast.sigma_hat.to_bits() == sigma.to_bits()
    });
    // Candidate-evals/sec of repeated passes over all candidates.
    let time_evals = |mut pass: Box<dyn FnMut() + '_>| -> f64 {
        let start = Instant::now();
        let mut evals = 0usize;
        while start.elapsed().as_secs_f64() < 1.0 {
            pass();
            evals += candidates.len();
        }
        evals as f64 / start.elapsed().as_secs_f64()
    };
    let naive_rate = time_evals(Box::new(|| {
        for a in &candidates {
            std::hint::black_box(is_estimate(a, &setup.b, &run, 0.05));
        }
    }));
    let prepared_rate = time_evals(Box::new(|| {
        for a in &candidates {
            std::hint::black_box(prepared.estimate_chain(a, 0.05));
        }
    }));
    let blocked_rate = time_evals(Box::new(|| {
        blocked_pass(&mut blocked);
        std::hint::black_box(&blocked);
    }));

    // --- Axis 3: candidate search, sequential vs batched ----------------
    // A fixed candidate budget (no early stopping) so both strategies do
    // identical amounts of work per search and rounds/sec is comparable.
    let search_budget = scale.r_undefeated.clamp(100, 2_000);
    let search_config = RandomSearchConfig {
        r_undefeated: usize::MAX,
        r_max: search_budget,
        record_trace: false,
    };
    let batch_size = 64usize;

    // Determinism first: the batched engine must give bit-identical
    // brackets at every thread count.
    let problem = Problem::new(&setup.imc, &setup.b, &run).expect("group-repair problem compiles");
    let search_reference = BatchSearch::new(1, batch_size)
        .run(&problem, &search_config, scale.seed)
        .expect("batched search succeeds");
    let mut search_bit_identical = true;
    for threads in [2usize, 8] {
        let out = BatchSearch::new(threads, batch_size)
            .run(&problem, &search_config, scale.seed)
            .expect("batched search succeeds");
        search_bit_identical &= out.bit_identical(&search_reference);
    }

    // Then throughput: candidate-rounds/sec over repeated full searches.
    let time_searches = |mut f: Box<dyn FnMut(u64) + '_>| -> f64 {
        let start = Instant::now();
        let mut searches = 0u64;
        while start.elapsed().as_secs_f64() < 1.0 {
            f(scale.seed.wrapping_add(searches));
            searches += 1;
        }
        (searches * search_budget as u64) as f64 / start.elapsed().as_secs_f64()
    };
    // Problem *compilation* is hoisted out of both timed loops (it is
    // objective construction, not search); each sequential search then
    // starts from a pristine clone so both engines pay the same cold
    // λ-adaptation, exactly as in a real `imcis()` call (one fresh
    // problem per run).
    let pristine = Problem::new(&setup.imc, &setup.b, &run).expect("group-repair problem compiles");
    let sequential_rate = time_searches(Box::new(|seed| {
        let mut problem = pristine.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        std::hint::black_box(
            random_search(&mut problem, &search_config, &mut rng).expect("search succeeds"),
        );
    }));
    let batched_rate = time_searches(Box::new(|seed| {
        std::hint::black_box(
            BatchSearch::new(0, batch_size)
                .run(&problem, &search_config, seed)
                .expect("search succeeds"),
        );
    }));

    // --- Axis 4: sparse million-state build ------------------------------
    // Streaming CSR construction throughput of the 10^6-state repair
    // fleet, the memory-pressure witness of the sparse kernel: the peak
    // RSS recorded below bounds the whole process including this build.
    let build_start = Instant::now();
    let fleet = imc_models::fleet::jump_chain(
        imc_models::fleet::COMPONENTS,
        imc_models::fleet::LEVELS,
        imc_models::fleet::ALPHA,
        imc_models::fleet::BETA,
    )
    .expect("default fleet parameters are valid");
    let build_secs = build_start.elapsed().as_secs_f64();
    let fleet_states = fleet.num_states();
    let fleet_transitions = fleet.num_transitions();
    let states_per_sec = fleet_states as f64 / build_secs;
    drop(fleet);

    // --- Report ---------------------------------------------------------
    println!(
        "engine scaling on {} ({} traces/run, {} cores available):",
        setup.name, n_traces, cores
    );
    let rows: Vec<Vec<String>> = sampling_rows
        .iter()
        .map(|&(t, rate, speedup)| vec![t.to_string(), sci(rate), format!("{speedup:.2}x")])
        .collect();
    print_table(&["threads", "traces/sec", "speedup"], &rows);
    println!(
        "bit-identical IsRun across thread counts: {}",
        if bit_identical { "yes" } else { "NO — BUG" }
    );
    println!();
    println!(
        "candidate evaluation ({} tables, {} distinct transitions):",
        run.tables.len(),
        prepared.num_transitions()
    );
    print_table(
        &["path", "evals/sec"],
        &[
            vec!["naive".to_string(), sci(naive_rate)],
            vec!["prepared".to_string(), sci(prepared_rate)],
            vec![format!("blocked ({LANES} lanes)"), sci(blocked_rate)],
        ],
    );
    println!(
        "prepared speedup: {:.2}x; bit-identical estimates: {}",
        prepared_rate / naive_rate,
        if eval_identical { "yes" } else { "NO — BUG" }
    );
    println!(
        "blocked vs prepared: {:.2}x; bit-identical lanes: {}",
        blocked_rate / prepared_rate,
        if blocked_identical {
            "yes"
        } else {
            "NO — BUG"
        }
    );
    println!();
    println!(
        "candidate search ({} sampled rows, budget {} rounds/search, batch {}):",
        problem.num_sampled_rows(),
        search_budget,
        batch_size
    );
    print_table(
        &["strategy", "rounds/sec"],
        &[
            vec!["sequential".to_string(), sci(sequential_rate)],
            vec!["batched".to_string(), sci(batched_rate)],
        ],
    );
    println!(
        "batched speedup: {:.2}x; bit-identical across search threads: {}",
        batched_rate / sequential_rate,
        if search_bit_identical {
            "yes"
        } else {
            "NO — BUG"
        }
    );

    let peak_rss = peak_rss_bytes();
    println!();
    println!(
        "sparse build: {} states / {} transitions streamed in {:.2}s ({} states/sec); \
         peak RSS {:.1} MiB",
        fleet_states,
        fleet_transitions,
        build_secs,
        sci(states_per_sec),
        peak_rss as f64 / (1024.0 * 1024.0),
    );

    // --- JSON artefact ---------------------------------------------------
    let sampling_json: Vec<String> = sampling_rows
        .iter()
        .map(|&(t, rate, speedup)| {
            format!(
                "    {{\"threads\": {t}, \"traces_per_sec\": {rate:.1}, \"speedup_vs_1\": {speedup:.3}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"model\": \"{}\",\n  \"n_traces\": {},\n  \"available_cores\": {},\n  \
         \"sampling\": [\n{}\n  ],\n  \"bit_identical_across_thread_counts\": {},\n  \
         \"candidate_eval\": {{\n    \"candidates\": {},\n    \"tables\": {},\n    \
         \"distinct_transitions\": {},\n    \"naive_evals_per_sec\": {:.1},\n    \
         \"prepared_evals_per_sec\": {:.1},\n    \"speedup\": {:.3},\n    \
         \"bit_identical\": {},\n    \"blocked_evals_per_sec\": {:.1},\n    \
         \"blocked_speedup\": {:.3},\n    \"blocked_bit_identical\": {}\n  }},\n  \
         \"candidate_search\": {{\n    \"sampled_rows\": {},\n    \"rounds_per_search\": {},\n    \
         \"batch_size\": {},\n    \"sequential_rounds_per_sec\": {:.1},\n    \
         \"batched_rounds_per_sec\": {:.1},\n    \"speedup\": {:.3},\n    \
         \"bit_identical_across_search_threads\": {}\n  }},\n  \
         \"large_model\": {{\n    \"states\": {},\n    \"transitions\": {},\n    \
         \"build_secs\": {:.3},\n    \"states_per_sec\": {:.1}\n  }},\n  \
         \"peak_rss_bytes\": {}\n}}\n",
        setup.name,
        n_traces,
        cores,
        sampling_json.join(",\n"),
        bit_identical,
        candidates.len(),
        run.tables.len(),
        prepared.num_transitions(),
        naive_rate,
        prepared_rate,
        prepared_rate / naive_rate,
        eval_identical,
        blocked_rate,
        blocked_rate / prepared_rate,
        blocked_identical,
        problem.num_sampled_rows(),
        search_budget,
        batch_size,
        sequential_rate,
        batched_rate,
        batched_rate / sequential_rate,
        search_bit_identical,
        fleet_states,
        fleet_transitions,
        build_secs,
        states_per_sec,
        peak_rss,
    );
    std::fs::write("BENCH_parallel.json", &json).expect("can write BENCH_parallel.json");
    println!("\nwrote BENCH_parallel.json");
}
