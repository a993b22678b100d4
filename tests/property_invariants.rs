//! Cross-crate property-based tests: invariants that must hold for *every*
//! chain, not just the paper's benchmarks.
//!
//! The offline build has no `proptest`, so cases are generated by a small
//! seeded strategy of our own: each test loops over a deterministic family
//! of random sparse DTMCs (seeds derived per case), which keeps failures
//! reproducible by construction — rerun the named case seed to shrink by
//! hand.

use imc_logic::{Monitor, Property};
use imc_markov::{graph, Dtmc, DtmcBuilder, Imc, StateSet, TransitionCounts};
use imc_numeric::{bounded_reach_probs, imc_reach_bounds, reach_avoid_probs};
use imc_sampling::{is_estimate, sample_is_run, IsConfig};
use imc_sim::{random_walk, ChainSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// Generates a random sparse DTMC with `n ∈ [2, 6]` states, mirroring the
/// original proptest strategy: up to `n` weighted transitions per row,
/// deduplicated by target and normalised to a distribution.
fn arb_dtmc(rng: &mut StdRng) -> Dtmc {
    let n = rng.gen_range(2..=6usize);
    let mut builder = DtmcBuilder::new(n);
    for state in 0..n {
        let len = rng.gen_range(1..=n);
        let mut entries: Vec<(usize, f64)> = (0..len)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0.05..1.0)))
            .collect();
        // Deduplicate targets, keep the largest weight.
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)));
        entries.dedup_by_key(|e| e.0);
        let total: f64 = entries.iter().map(|e| e.1).sum();
        let k = entries.len();
        let mut acc = 0.0;
        for (i, (target, weight)) in entries.iter().enumerate() {
            let p = if i == k - 1 {
                1.0 - acc
            } else {
                let p = weight / total;
                acc += p;
                p
            };
            builder.add_transition(state, *target, p);
        }
    }
    builder.build().expect("normalised rows are stochastic")
}

/// Runs `check` over the deterministic case family.
fn for_each_case(test_tag: u64, check: impl Fn(u64, &mut StdRng)) {
    for case in 0..CASES {
        let seed = test_tag
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(case);
        let mut rng = StdRng::seed_from_u64(seed);
        check(seed, &mut rng);
    }
}

#[test]
fn graph_invariants() {
    for_each_case(1, |seed, rng| {
        let chain = arb_dtmc(rng);
        let n = chain.num_states();
        // Forward reachability contains the start.
        let fwd = graph::forward_reachable(&chain, 0);
        assert!(fwd.contains(0), "case {seed}");
        // Backward reachability contains the targets.
        let targets = StateSet::from_states(n, [n - 1]);
        let back = graph::backward_reachable(&chain, &targets);
        assert!(back.contains(n - 1), "case {seed}");
        // BSCCs are non-empty, disjoint, and every state reaches one.
        let bsccs = graph::bsccs(&chain);
        assert!(!bsccs.is_empty(), "case {seed}");
        let mut seen = StateSet::new(n);
        let mut bscc_states = StateSet::new(n);
        for comp in &bsccs {
            for &s in comp {
                assert!(seen.insert(s), "case {seed}: BSCCs overlap at {s}");
                bscc_states.insert(s);
            }
        }
        for s in 0..n {
            let reach = graph::forward_reachable(&chain, s);
            let hit = reach.iter().any(|t| bscc_states.contains(t));
            assert!(hit, "case {seed}: state {s} reaches no BSCC");
        }
    });
}

#[test]
fn reachability_probabilities_are_probabilities() {
    for_each_case(2, |seed, rng| {
        let chain = arb_dtmc(rng);
        let n = chain.num_states();
        let targets = StateSet::from_states(n, [n - 1]);
        let avoid = StateSet::new(n);
        let probs = reach_avoid_probs(&chain, &targets, &avoid).unwrap();
        for (s, &p) in probs.iter().enumerate() {
            assert!(
                (0.0..=1.0 + 1e-12).contains(&p),
                "case {seed}: state {s}: {p}"
            );
        }
        assert!((probs[n - 1] - 1.0).abs() < 1e-12, "case {seed}");
        // Fixed-point property: x_s = Σ P(s,t)·x_t on non-target states.
        for s in 0..n {
            if targets.contains(s) {
                continue;
            }
            let rhs: f64 = chain
                .row(s)
                .unwrap()
                .iter()
                .map(|e| e.prob * probs[e.target])
                .sum();
            assert!(
                (probs[s] - rhs).abs() < 1e-9,
                "case {seed}: fixed point at {s}"
            );
        }
    });
}

#[test]
fn bounded_reach_is_monotone_and_bounded_by_unbounded() {
    for_each_case(3, |seed, rng| {
        let chain = arb_dtmc(rng);
        let n = chain.num_states();
        let targets = StateSet::from_states(n, [n - 1]);
        let unbounded = reach_avoid_probs(&chain, &targets, &StateSet::new(n)).unwrap();
        let mut prev = vec![0.0; n];
        for k in [0usize, 1, 2, 5, 10, 50] {
            let bounded = bounded_reach_probs(&chain, &targets, k);
            for s in 0..n {
                assert!(
                    bounded[s] >= prev[s] - 1e-12,
                    "case {seed}: monotone at {s}, k={k}"
                );
                assert!(
                    bounded[s] <= unbounded[s] + 1e-9,
                    "case {seed}: bounded exceeds unbounded at {s}, k={k}"
                );
            }
            prev = bounded;
        }
    });
}

#[test]
fn imc_envelope_contains_point_value() {
    for_each_case(4, |seed, rng| {
        let chain = arb_dtmc(rng);
        let eps = rng.gen_range(0.0..0.2);
        let n = chain.num_states();
        let imc = Imc::from_center(&chain, |_, _| eps).unwrap();
        let targets = StateSet::from_states(n, [n - 1]);
        let avoid = StateSet::new(n);
        let point = reach_avoid_probs(&chain, &targets, &avoid).unwrap();
        let (min, max) = imc_reach_bounds(&imc, &targets, &avoid).unwrap();
        for s in 0..n {
            assert!(
                min[s] - 1e-9 <= point[s] && point[s] <= max[s] + 1e-9,
                "case {seed}: state {s}: {} outside [{}, {}]",
                point[s],
                min[s],
                max[s]
            );
            assert!(min[s] <= max[s] + 1e-12, "case {seed}");
        }
    });
}

#[test]
fn online_monitor_matches_offline_evaluation() {
    for_each_case(5, |seed, rng| {
        let chain = arb_dtmc(rng);
        let walk_len = rng.gen_range(1..40usize);
        let bound = rng.gen_range(0..20usize);
        let n = chain.num_states();
        let sampler = ChainSampler::new(&chain);
        let path = random_walk(&sampler, 0, walk_len, rng);
        let property = Property::bounded_reach(StateSet::from_states(n, [n - 1]), bound);
        // Offline evaluation of the full path...
        let offline = property.evaluate(&path);
        // ...must equal driving the monitor state by state.
        let mut monitor = property.monitor();
        let mut online = monitor.reset(path.first());
        for &state in &path.states()[1..] {
            if online.is_decided() {
                break;
            }
            online = monitor.observe(state);
        }
        assert_eq!(offline, online, "case {seed}");
    });
}

#[test]
fn likelihood_ratio_telescopes() {
    for_each_case(6, |seed, rng| {
        // P_A(ω)/P_B(ω) computed from count tables (log space) equals the
        // direct path-probability ratio.
        let chain = arb_dtmc(rng);
        let n = chain.num_states();
        let sampler = ChainSampler::new(&chain);
        let path = random_walk(&sampler, 0, 15, rng);
        // B: a uniform-mixture distortion of A with identical support.
        let b = {
            let rows: Vec<(usize, Vec<imc_markov::RowEntry>)> = (0..n)
                .map(|s| {
                    let row = chain.row(s).unwrap();
                    let k = row.len() as f64;
                    let mut entries: Vec<imc_markov::RowEntry> = row
                        .iter()
                        .map(|e| imc_markov::RowEntry {
                            target: e.target,
                            prob: 0.5 * e.prob + 0.5 / k,
                        })
                        .collect();
                    let sum: f64 = entries.iter().map(|e| e.prob).sum();
                    for e in &mut entries {
                        e.prob /= sum;
                    }
                    (s, entries)
                })
                .collect();
            chain.with_rows(rows).unwrap()
        };
        // The path's count table keys each step by its edge id in the
        // chain and is decoded through it.
        let mut counts = TransitionCounts::new();
        for (from, to) in path.transitions() {
            counts.record(
                chain
                    .edge_id(from, to)
                    .expect("the walk steps along the chain"),
            );
        }
        let log_l: f64 = counts
            .iter()
            .map(|(edge, cnt)| {
                let (from, to) = chain.edge(edge);
                cnt as f64 * (chain.prob(from, to).ln() - b.prob(from, to).ln())
            })
            .sum();
        let direct = chain.path_log_prob(&path) - b.path_log_prob(&path);
        assert!(
            (log_l - direct).abs() < 1e-9,
            "case {seed}: {log_l} vs {direct}"
        );
    });
}

#[test]
fn is_estimator_brackets_numeric_gamma() {
    for_each_case(7, |seed, rng| {
        // Estimate reach(n-1) avoiding nothing, bounded to keep traces
        // finite, under the chain itself; the 6σ interval must contain
        // the numeric value (deterministic given the seed).
        let chain = arb_dtmc(rng);
        let n = chain.num_states();
        let targets = StateSet::from_states(n, [n - 1]);
        let exact = bounded_reach_probs(&chain, &targets, 25)[0];
        if !(0.01..=0.99).contains(&exact) {
            // Near-certain or near-impossible events can produce all-hit /
            // no-hit batches with σ̂ = 0 at this N; the estimator is fine
            // but the 6σ check is vacuous — skip.
            return;
        }
        let property = Property::bounded_reach(targets, 25);
        let run = sample_is_run(
            &chain,
            &property,
            &IsConfig::new(4000).with_max_steps(30),
            rng,
        );
        let est = is_estimate(&chain, &chain, &run, 0.05);
        let six_sigma = 6.0 * est.sigma_hat / (run.n_traces as f64).sqrt() + 1e-9;
        assert!(
            (est.gamma_hat - exact).abs() <= six_sigma,
            "case {seed}: γ̂ = {} vs exact {exact} (6σ = {six_sigma})",
            est.gamma_hat
        );
    });
}
