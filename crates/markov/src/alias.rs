//! Walker alias tables, slot-aligned with a chain's CSR arrays.

use crate::Dtmc;

/// Alias-table builds so far, for the once-per-chain tests.
#[cfg(test)]
pub(crate) static BUILDS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// The Walker alias tables of a [`Dtmc`]: one acceptance probability and
/// one alias slot per CSR slot of the chain, so a row's tables are the
/// slice `row_offsets()[s]..row_offsets()[s + 1]`, like its targets.
///
/// A draw from row `s` of length `k` picks a local slot `i` uniformly,
/// keeps slot `start + i` with probability `acceptance()[start + i]` and
/// otherwise takes its alias slot (an absolute index), O(1) per draw.
///
/// A chain builds its tables at most once, on the first call of
/// [`Dtmc::alias_table`], and keeps them for its lifetime: 12 bytes per
/// transition.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance probability of each slot.
    acceptance: Vec<f64>,
    /// Alternative slot (absolute index) used on rejection.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Walker's construction over every row of `chain`: O(transitions).
    ///
    /// # Panics
    ///
    /// Panics if the chain has `u32::MAX` transitions or more: slots are
    /// stored as `u32`.
    pub(crate) fn build(chain: &Dtmc) -> Self {
        #[cfg(test)]
        BUILDS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let num_slots = chain.num_transitions();
        assert!(
            num_slots < u32::MAX as usize,
            "chain too large for u32 slot indices"
        );
        let offsets = chain.row_offsets();
        let probs = chain.transition_probs();
        let mut acceptance = Vec::with_capacity(num_slots);
        let mut alias = vec![0u32; num_slots];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for s in 0..chain.num_states() {
            let (start, end) = (offsets[s], offsets[s + 1]);
            let k = end - start;
            acceptance.extend(probs[start..end].iter().map(|&p| p * k as f64));
            // Walker's construction over the local slots of this row.
            let row_prob = &mut acceptance[start..];
            let row_alias = &mut alias[start..end];
            small.clear();
            large.clear();
            for (i, &p) in row_prob.iter().enumerate() {
                if p < 1.0 {
                    small.push(i);
                } else {
                    large.push(i);
                }
            }
            while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
                row_alias[s] = (start + l) as u32;
                row_prob[l] = (row_prob[l] + row_prob[s]) - 1.0;
                if row_prob[l] < 1.0 {
                    small.push(l);
                } else {
                    large.push(l);
                }
            }
            // Numerical leftovers: both stacks drain to probability 1.
            for i in small.drain(..).chain(large.drain(..)) {
                row_prob[i] = 1.0;
            }
        }
        AliasTable { acceptance, alias }
    }

    /// Acceptance probability of each slot, aligned with
    /// [`Dtmc::transition_targets`].
    pub fn acceptance(&self) -> &[f64] {
        &self.acceptance
    }

    /// Alias slot (absolute index) of each slot, aligned with
    /// [`Dtmc::transition_targets`].
    pub fn alias(&self) -> &[u32] {
        &self.alias
    }
}
