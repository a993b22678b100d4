use imc_logic::{Monitor, Verdict};
use imc_markov::{Path, State, TransitionCounts};
use rand::Rng;

use crate::ChainSampler;

/// Count-free variant of [`simulate_counts_into`] for estimators that only
/// need the verdict (crude Monte Carlo): no table is built, so the inner
/// loop records nothing and allocates nothing per trace.
///
/// Returns `(verdict, transitions taken, stop state)`.
pub fn simulate_verdict<M, R>(
    sampler: &ChainSampler<'_>,
    initial: State,
    monitor: &mut M,
    rng: &mut R,
    max_steps: usize,
) -> (Verdict, usize, State)
where
    M: Monitor,
    R: Rng + ?Sized,
{
    let mut verdict = monitor.reset(initial);
    let mut state = initial;
    let mut len = 0usize;
    while !verdict.is_decided() && len < max_steps {
        let next = sampler.step(state, rng);
        len += 1;
        verdict = monitor.observe(next);
        state = next;
    }
    (verdict, len, state)
}

/// Simulates one trace from `initial`, driving `monitor` until it decides or
/// `max_steps` transitions have been taken, and leaves the trace's
/// transition count table `(T_k, n_k)` of Algorithm 1 in `counts`.
///
/// `counts` is cleared first and then records every step, so a loop reuses
/// one caller-owned table (and its log's capacity) across millions of
/// traces. The monitor is `reset` with the initial state first, so
/// properties that decide immediately (e.g. the initial state is already a
/// target) cost no transitions.
///
/// Returns `(verdict, transitions taken, stop state)`; the verdict is
/// [`Verdict::Undecided`] only if `max_steps` was hit.
pub fn simulate_counts_into<M, R>(
    sampler: &ChainSampler<'_>,
    initial: State,
    monitor: &mut M,
    rng: &mut R,
    max_steps: usize,
    counts: &mut TransitionCounts,
) -> (Verdict, usize, State)
where
    M: Monitor,
    R: Rng + ?Sized,
{
    counts.clear();
    let mut verdict = monitor.reset(initial);
    let mut state = initial;
    let mut len = 0usize;
    while !verdict.is_decided() && len < max_steps {
        let edge = sampler.edge(state, rng);
        counts.record(edge);
        let next = sampler.target(edge);
        len += 1;
        verdict = monitor.observe(next);
        state = next;
    }
    (verdict, len, state)
}

/// Simulates one trace and keeps the full [`Path`] — used by the learning
/// pipeline, which needs raw state sequences rather than count tables.
pub fn simulate_path<M, R>(
    sampler: &ChainSampler<'_>,
    initial: State,
    monitor: &mut M,
    rng: &mut R,
    max_steps: usize,
) -> (Path, Verdict)
where
    M: Monitor,
    R: Rng + ?Sized,
{
    let mut path = Path::new(vec![initial]);
    let mut verdict = monitor.reset(initial);
    let mut state = initial;
    while !verdict.is_decided() && path.len() < max_steps {
        let next = sampler.step(state, rng);
        path.push(next);
        verdict = monitor.observe(next);
        state = next;
    }
    (path, verdict)
}

/// Samples an unconditioned random walk of exactly `len` transitions from
/// `initial` — the "system log" generator used by learning pipelines, where
/// traces are observed wholesale rather than monitored for a property.
pub fn random_walk<R>(sampler: &ChainSampler<'_>, initial: State, len: usize, rng: &mut R) -> Path
where
    R: Rng + ?Sized,
{
    let mut path = Path::new(vec![initial]);
    let mut state = initial;
    for _ in 0..len {
        let next = sampler.step(state, rng);
        path.push(next);
        state = next;
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChainSampler;
    use imc_logic::Property;
    use imc_markov::{Dtmc, DtmcBuilder, StateSet};
    use rand::SeedableRng;

    fn coin_chain() -> Dtmc {
        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 1, 0.5)
            .add_transition(0, 2, 0.5)
            .add_self_loop(1)
            .add_self_loop(2);
        b.build().unwrap()
    }

    #[test]
    fn trace_decides_and_counts() {
        let chain = coin_chain();
        let sampler = ChainSampler::new(&chain);
        let prop =
            Property::reach_avoid(StateSet::from_states(3, [1]), StateSet::from_states(3, [2]));
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut counts = TransitionCounts::new();
        let (verdict, len, last_state) =
            simulate_counts_into(&sampler, 0, &mut prop.monitor(), &mut rng, 100, &mut counts);
        assert!(verdict.is_decided());
        assert_eq!(len, 1);
        assert_eq!(counts.total(), 1);
        assert!(last_state == 1 || last_state == 2);
    }

    #[test]
    fn max_steps_leaves_undecided() {
        // Property whose target is unreachable: the budget must bound work.
        let mut b = DtmcBuilder::new(2);
        b.add_transition(0, 0, 1.0).add_self_loop(1);
        let chain = b.build().unwrap();
        let sampler = ChainSampler::new(&chain);
        let prop = Property::reach_avoid(StateSet::from_states(2, [1]), StateSet::new(2));
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut counts = TransitionCounts::new();
        let (verdict, len, _) =
            simulate_counts_into(&sampler, 0, &mut prop.monitor(), &mut rng, 50, &mut counts);
        assert_eq!(verdict, Verdict::Undecided);
        assert_eq!(len, 50);
        assert_eq!(counts.count(chain.edge_id(0, 0).unwrap()), 50);
    }

    #[test]
    fn immediate_decision_takes_no_steps() {
        let chain = coin_chain();
        let sampler = ChainSampler::new(&chain);
        let prop = Property::bounded_reach(StateSet::from_states(3, [0]), 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        // A table left over from another trace is cleared first.
        let mut counts = TransitionCounts::new();
        counts.record(chain.edge_id(0, 1).unwrap());
        counts.record(chain.edge_id(1, 1).unwrap());
        let (verdict, len, _) =
            simulate_counts_into(&sampler, 0, &mut prop.monitor(), &mut rng, 100, &mut counts);
        assert_eq!(verdict, Verdict::Accepted);
        assert_eq!(len, 0);
        assert!(counts.is_empty());
    }

    #[test]
    fn path_simulation_matches_counts() {
        let chain = coin_chain();
        let sampler = ChainSampler::new(&chain);
        let prop = Property::bounded_reach(StateSet::from_states(3, [1]), 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (path, verdict) = simulate_path(&sampler, 0, &mut prop.monitor(), &mut rng, 100);
        assert!(verdict.is_decided());
        assert_eq!(path.first(), 0);
        // The online table, decoded through the chain, counts the path's
        // steps.
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(11);
        let mut counts = TransitionCounts::new();
        simulate_counts_into(
            &sampler,
            0,
            &mut prop.monitor(),
            &mut rng2,
            100,
            &mut counts,
        );
        let mut steps: Vec<(State, State)> = path.transitions().collect();
        steps.sort_unstable();
        let decoded: Vec<(State, State)> = counts
            .iter()
            .flat_map(|(edge, n)| std::iter::repeat_n(chain.edge(edge), n as usize))
            .collect();
        assert_eq!(decoded, steps);
    }
}

#[cfg(test)]
mod random_walk_tests {
    use super::*;
    use crate::ChainSampler;
    use imc_markov::DtmcBuilder;
    use rand::SeedableRng;

    #[test]
    fn walk_has_exact_length_and_valid_steps() {
        let mut b = DtmcBuilder::new(3);
        b.add_transition(0, 1, 0.5)
            .add_transition(0, 2, 0.5)
            .add_transition(1, 0, 1.0)
            .add_transition(2, 0, 1.0);
        let chain = b.build().unwrap();
        let sampler = ChainSampler::new(&chain);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let path = random_walk(&sampler, 0, 200, &mut rng);
        assert_eq!(path.len(), 200);
        for (from, to) in path.transitions() {
            assert!(chain.prob(from, to) > 0.0, "impossible step {from}->{to}");
        }
    }

    #[test]
    fn zero_length_walk_is_the_initial_state() {
        let mut b = DtmcBuilder::new(1);
        b.add_self_loop(0);
        let chain = b.build().unwrap();
        let sampler = ChainSampler::new(&chain);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let path = random_walk(&sampler, 0, 0, &mut rng);
        assert_eq!(path.states(), &[0]);
    }
}
