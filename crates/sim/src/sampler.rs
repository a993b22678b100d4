use imc_markov::{Dtmc, Edge, State};
use rand::Rng;

/// Walker alias-method sampler: O(1) per draw.
///
/// The standard choice for SMC workloads, where the same rows are sampled
/// millions of times. The slot layout **is** the chain's CSR layout: the
/// sampler borrows the chain's `row_offsets` and `transition_targets`
/// arrays and its alias tables ([`Dtmc::alias_table`]), which the chain
/// builds on first use and keeps. So `new` copies and computes nothing
/// after a chain's first sampler, every sampler of a chain shares one
/// table, and the inner simulation loop touches four flat arrays per step.
///
/// [`ChainSampler::edge`] returns the CSR slot it picked, the transition's
/// [`Edge`] id, which count tables record; [`ChainSampler::step`] returns
/// the successor state.
#[derive(Debug, Clone, Copy)]
pub struct ChainSampler<'a> {
    /// Slot range of state `s` is `offsets[s]..offsets[s + 1]` (borrowed
    /// from the chain's CSR row offsets).
    offsets: &'a [usize],
    /// Target state of each slot (borrowed CSR column indices).
    targets: &'a [u32],
    /// Acceptance probability of each slot (borrowed alias table).
    prob: &'a [f64],
    /// Alternative slot (absolute index) used on rejection.
    alias: &'a [u32],
}

impl<'a> ChainSampler<'a> {
    /// Borrows the chain's CSR arrays and alias tables, building the
    /// tables if this is the chain's first sampler.
    pub fn new(chain: &'a Dtmc) -> Self {
        let table = chain.alias_table();
        ChainSampler {
            offsets: chain.row_offsets(),
            targets: chain.transition_targets(),
            prob: table.acceptance(),
            alias: table.alias(),
        }
    }

    /// Samples a transition out of `state` and returns its edge id.
    ///
    /// A row with one transition draws nothing; otherwise one uniform slot
    /// draw and one acceptance draw.
    #[inline]
    pub fn edge<R: Rng + ?Sized>(&self, state: State, rng: &mut R) -> Edge {
        let start = self.offsets[state];
        let end = self.offsets[state + 1];
        let k = end - start;
        if k == 1 {
            return start as Edge;
        }
        let slot = start + rng.gen_range(0..k);
        if rng.gen::<f64>() < self.prob[slot] {
            slot as Edge
        } else {
            self.alias[slot]
        }
    }

    /// The target state of edge `edge`.
    #[inline]
    pub fn target(&self, edge: Edge) -> State {
        self.targets[edge as usize] as State
    }

    /// Samples a successor of `state`.
    #[inline]
    pub fn step<R: Rng + ?Sized>(&self, state: State, rng: &mut R) -> State {
        self.target(self.edge(state, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_markov::DtmcBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Inversion sampler: binary search over per-state cumulative
    /// distributions, O(log row length) per draw. The reference the alias
    /// tables are checked against.
    #[derive(Debug, Clone)]
    struct CdfSampler {
        /// Slot range of state `s` is `offsets[s]..offsets[s + 1]`.
        offsets: Vec<usize>,
        cumulative: Vec<f64>,
        targets: Vec<u32>,
    }

    impl CdfSampler {
        /// Builds cumulative rows for every state of `chain`.
        ///
        /// Rows are renormalised by their actual sum at build time: a row
        /// is only guaranteed stochastic within
        /// [`imc_markov::ROW_SUM_TOLERANCE`], and clamping just the final
        /// bucket to `1.0` would silently dump all of that rounding drift
        /// onto the last transition. Dividing every cumulative value by the
        /// true row sum spreads the correction proportionally across the
        /// row; the final bucket is then pinned to exactly `1.0` so every
        /// draw of `u ∈ [0, 1)` lands in a bucket.
        fn new(chain: &Dtmc) -> Self {
            let offsets = chain.row_offsets().to_vec();
            let targets = chain.transition_targets().to_vec();
            let mut cumulative = Vec::with_capacity(chain.num_transitions());
            let probs = chain.transition_probs();
            for s in 0..chain.num_states() {
                let (start, end) = (offsets[s], offsets[s + 1]);
                let mut acc = 0.0;
                for &p in &probs[start..end] {
                    acc += p;
                    cumulative.push(acc);
                }
                let total = acc;
                let cum = &mut cumulative[start..];
                for c in cum.iter_mut() {
                    *c /= total;
                }
                if let Some(last) = cum.last_mut() {
                    *last = 1.0;
                }
            }
            CdfSampler {
                offsets,
                cumulative,
                targets,
            }
        }

        fn step<R: Rng + ?Sized>(&self, state: State, rng: &mut R) -> State {
            let (start, end) = (self.offsets[state], self.offsets[state + 1]);
            let cum = &self.cumulative[start..end];
            if cum.len() == 1 {
                return self.targets[start] as State;
            }
            let u: f64 = rng.gen();
            let idx = cum.partition_point(|&c| c < u);
            self.targets[start + idx.min(cum.len() - 1)] as State
        }
    }

    fn test_chain() -> Dtmc {
        let mut b = DtmcBuilder::new(4);
        b.add_transition(0, 1, 0.1)
            .add_transition(0, 2, 0.2)
            .add_transition(0, 3, 0.7)
            .add_self_loop(1)
            .add_self_loop(2)
            .add_self_loop(3);
        b.build().unwrap()
    }

    /// Successor frequencies of `state` over `n` draws of `step`.
    fn empirical_row(
        step: impl Fn(State, &mut StdRng) -> State,
        num_states: usize,
        state: State,
        n: usize,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = vec![0u64; num_states];
        for _ in 0..n {
            counts[step(state, &mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / n as f64).collect()
    }

    #[test]
    fn alias_matches_row_distribution() {
        let chain = test_chain();
        let sampler = ChainSampler::new(&chain);
        let freq = empirical_row(|s, rng| sampler.step(s, rng), 4, 0, 200_000);
        assert!((freq[1] - 0.1).abs() < 0.005, "{freq:?}");
        assert!((freq[2] - 0.2).abs() < 0.005, "{freq:?}");
        assert!((freq[3] - 0.7).abs() < 0.005, "{freq:?}");
    }

    #[test]
    fn alias_tables_borrow_the_chain_csr() {
        let chain = test_chain();
        let sampler = ChainSampler::new(&chain);
        assert!(std::ptr::eq(sampler.offsets, chain.row_offsets()));
        assert!(std::ptr::eq(sampler.targets, chain.transition_targets()));
        assert!(std::ptr::eq(sampler.prob, chain.alias_table().acceptance()));
        assert!(std::ptr::eq(sampler.alias, chain.alias_table().alias()));
        // A second sampler of the chain borrows the same tables.
        let again = ChainSampler::new(&chain);
        assert!(std::ptr::eq(again.prob, sampler.prob));
        assert!(std::ptr::eq(again.alias, sampler.alias));
    }

    #[test]
    fn edges_are_the_slots_of_the_sampled_steps() {
        let chain = test_chain();
        let sampler = ChainSampler::new(&chain);
        let mut by_edge = StdRng::seed_from_u64(5);
        let mut by_step = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let edge = sampler.edge(0, &mut by_edge);
            let (from, to) = chain.edge(edge);
            assert_eq!(from, 0);
            assert_eq!(to, sampler.target(edge));
            assert_eq!(to, sampler.step(0, &mut by_step), "same draws, same step");
        }
        // A one-transition row draws nothing.
        let before = by_edge.clone().gen::<u64>();
        assert_eq!(sampler.edge(2, &mut by_edge), chain.edge_id(2, 2).unwrap());
        assert_eq!(by_edge.gen::<u64>(), before);
    }

    #[test]
    fn cdf_matches_row_distribution() {
        let chain = test_chain();
        let sampler = CdfSampler::new(&chain);
        let freq = empirical_row(|s, rng| sampler.step(s, rng), 4, 0, 200_000);
        assert!((freq[1] - 0.1).abs() < 0.005, "{freq:?}");
        assert!((freq[3] - 0.7).abs() < 0.005, "{freq:?}");
    }

    #[test]
    fn absorbing_state_self_samples() {
        let chain = test_chain();
        let alias = ChainSampler::new(&chain);
        let cdf = CdfSampler::new(&chain);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(alias.step(1, &mut rng), 1);
            assert_eq!(cdf.step(1, &mut rng), 1);
        }
    }

    #[test]
    fn rare_transition_is_sampled_eventually() {
        // A 1e-4 transition: the sampler must produce it at plausible rate.
        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 1, 1e-4)
            .add_transition(0, 2, 1.0 - 1e-4)
            .add_self_loop(1)
            .add_self_loop(2);
        let chain = b.build().unwrap();
        let sampler = ChainSampler::new(&chain);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 2_000_000;
        let hits = (0..n).filter(|_| sampler.step(0, &mut rng) == 1).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 1e-4).abs() < 5e-5, "rate {rate}");
    }

    /// Property test: on randomly generated rows, the alias and CDF
    /// samplers both reproduce the row distribution (they share RNG
    /// *quality*, not streams, so agreement is in frequency, not
    /// draw-by-draw).
    #[test]
    fn random_rows_alias_and_cdf_agree_with_the_distribution() {
        let mut meta_rng = StdRng::seed_from_u64(2018);
        for case in 0..20 {
            let k = meta_rng.gen_range(2..=8usize);
            // Random positive weights, normalised into a row; exercise
            // skewed rows by squaring half the time.
            let mut weights: Vec<f64> = (0..k)
                .map(|_| {
                    let w: f64 = meta_rng.gen_range(0.05..1.0);
                    if case % 2 == 0 {
                        w * w
                    } else {
                        w
                    }
                })
                .collect();
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }
            let mut builder = DtmcBuilder::new(k);
            for (target, &w) in weights.iter().enumerate() {
                builder.add_transition(0, target, w);
            }
            for s in 1..k {
                builder.add_self_loop(s);
            }
            let chain = builder.build().unwrap();
            let alias = ChainSampler::new(&chain);
            let cdf = CdfSampler::new(&chain);
            let n = 40_000;
            let freq_alias = empirical_row(|s, rng| alias.step(s, rng), k, 0, n);
            let freq_cdf = empirical_row(|s, rng| cdf.step(s, rng), k, 0, n);
            // ~4-sigma binomial tolerance at p <= 1, n = 40k.
            let tol = 4.0 * (0.25f64 / n as f64).sqrt();
            for (target, &w) in weights.iter().enumerate() {
                assert!(
                    (freq_alias[target] - w).abs() < tol,
                    "case {case}: alias freq {} vs p {w}",
                    freq_alias[target]
                );
                assert!(
                    (freq_cdf[target] - w).abs() < tol,
                    "case {case}: cdf freq {} vs p {w}",
                    freq_cdf[target]
                );
            }
        }
    }

    /// The renormalisation regression: a row whose probabilities carry
    /// rounding drift must not dump the drift onto its last transition.
    #[test]
    fn cdf_renormalises_interior_rounding_drift() {
        // 10 transitions of nominal 0.1 each; accumulated binary rounding
        // makes the row sum 1 − O(1e-16) without renormalisation.
        let p = 0.1f64;
        let mut builder = DtmcBuilder::new(10);
        for t in 0..10 {
            builder.add_transition(0, t, p);
        }
        for s in 1..10 {
            builder.add_self_loop(s);
        }
        let chain = builder.build().unwrap();
        let cdf = CdfSampler::new(&chain);
        // The renormalised cumulative row must hit exactly 1.0 and be
        // strictly increasing.
        let cum = &cdf.cumulative[cdf.offsets[0]..cdf.offsets[1]];
        assert_eq!(*cum.last().unwrap(), 1.0);
        for pair in cum.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        let freq = empirical_row(|s, rng| cdf.step(s, rng), 10, 0, 100_000);
        for target in 0..10 {
            assert!((freq[target] - p).abs() < 0.01, "{freq:?}");
        }
    }

    #[test]
    fn samplers_agree_on_support() {
        let chain = test_chain();
        let alias = ChainSampler::new(&chain);
        let cdf = CdfSampler::new(&chain);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let a = alias.step(0, &mut rng);
            let c = cdf.step(0, &mut rng);
            assert!(chain.prob(0, a) > 0.0);
            assert!(chain.prob(0, c) > 0.0);
        }
    }
}
