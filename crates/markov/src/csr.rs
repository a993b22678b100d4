//! The shared sorted-triplet CSR construction core.
//!
//! Both model builders ([`crate::DtmcBuilder`], [`crate::ImcBuilder`]) and
//! both streaming builders ([`crate::DtmcStreamBuilder`],
//! [`crate::ImcStreamBuilder`]) funnel through this one kernel: entries
//! arrive as `(from, to, value)` triplets in ascending `(from, to)` order
//! and are appended directly to contiguous `(row_ptr, col_idx, values)`
//! arrays. Range, ordering and duplicate violations are typed
//! [`ModelError`]s raised at push time; per-row numeric validation
//! (stochasticity, interval consistency) is performed by the caller on the
//! completed row slice each time a row closes, so construction is a single
//! pass with no intermediate per-row maps.
//!
//! The finished offsets and targets form a [`Pattern`], which models hold
//! behind an `Arc` so a chain, the chains reweighted from it and the IMCs
//! built around it share one copy.

use std::ops::Range;
use std::sync::OnceLock;

use crate::{ModelError, State};

/// A sparsity pattern: the CSR row offsets and target states of a model,
/// with the pattern's 64-bit fingerprint, folded on first use and kept.
/// Immutable once built; models share it behind an `Arc`.
#[derive(Debug)]
pub(crate) struct Pattern {
    /// Slot range of state `s` is `row_ptr[s]..row_ptr[s + 1]`.
    pub(crate) row_ptr: Vec<usize>,
    /// Target state of every slot.
    pub(crate) col_idx: Vec<u32>,
    fingerprint: OnceLock<u64>,
}

impl Pattern {
    pub(crate) fn new(row_ptr: Vec<usize>, col_idx: Vec<u32>) -> Self {
        Pattern {
            row_ptr,
            col_idx,
            fingerprint: OnceLock::new(),
        }
    }

    pub(crate) fn num_states(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// The slot range of `state`.
    #[inline]
    pub(crate) fn slots(&self, state: State) -> Range<usize> {
        self.row_ptr[state]..self.row_ptr[state + 1]
    }

    /// The pattern's fingerprint, folded on the first call.
    pub(crate) fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| fingerprint(&self.row_ptr, &self.col_idx))
    }
}

/// Equality compares the offsets and targets; the fingerprint follows
/// from them.
impl PartialEq for Pattern {
    fn eq(&self, other: &Self) -> bool {
        self.row_ptr == other.row_ptr && self.col_idx == other.col_idx
    }
}

/// Folds a sparsity pattern into 64 bits: one multiply-rotate step per
/// word (targets two to a word), finished by the SplitMix64 avalanche.
fn fingerprint(row_ptr: &[usize], col_idx: &[u32]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let mut h = step(row_ptr.len() as u64, col_idx.len() as u64);
    for &offset in row_ptr {
        h = step(h, offset as u64);
    }
    let pairs = col_idx.chunks_exact(2);
    if let [last] = pairs.remainder() {
        h = step(h, u64::from(*last));
    }
    for pair in pairs {
        h = step(h, u64::from(pair[0]) | u64::from(pair[1]) << 32);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Outcome of pushing one triplet: either the entry joined the row under
/// construction, or it opened a new row and the previous one is complete.
pub(crate) enum Push {
    /// The entry extended the current row.
    SameRow,
    /// The entry opened row `state + 1`'s successor; `start..end` is the
    /// half-open slot range of the just-completed row `state`.
    ClosedRow {
        /// The state whose row just completed.
        state: State,
        /// First slot of the completed row.
        start: usize,
        /// One past the last slot of the completed row.
        end: usize,
    },
}

/// Incremental CSR assembly from ascending `(from, to, value)` triplets.
#[derive(Debug, Clone)]
pub(crate) struct CsrAssembler<V> {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<V>,
    /// The row currently being filled.
    current: State,
    /// First slot index of the current row.
    row_start: usize,
}

impl<V> CsrAssembler<V> {
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            n < u32::MAX as usize,
            "models are limited to fewer than 2^32 - 1 states"
        );
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        CsrAssembler {
            n,
            row_ptr,
            col_idx: Vec::new(),
            values: Vec::new(),
            current: 0,
            row_start: 0,
        }
    }

    pub(crate) fn num_states(&self) -> usize {
        self.n
    }

    /// The values pushed so far; closed-row ranges index into this slice.
    pub(crate) fn values(&self) -> &[V] {
        &self.values
    }

    /// Appends one triplet; `(from, to)` must be strictly ascending.
    ///
    /// # Errors
    ///
    /// * [`ModelError::StateOutOfRange`] if `from` or `to` is `>= n`;
    /// * [`ModelError::DuplicateTransition`] on a repeated `(from, to)`;
    /// * [`ModelError::OutOfOrderTransition`] if the pair sorts before the
    ///   previous one;
    /// * [`ModelError::NoOutgoingTransitions`] if advancing `from` would
    ///   skip a state without any entries.
    pub(crate) fn push(&mut self, from: State, to: State, value: V) -> Result<Push, ModelError> {
        let n = self.n;
        if from >= n {
            return Err(ModelError::StateOutOfRange { state: from, n });
        }
        if to >= n {
            return Err(ModelError::StateOutOfRange { state: to, n });
        }
        if from < self.current {
            return Err(ModelError::OutOfOrderTransition { from, to });
        }
        if from == self.current {
            if self.col_idx.len() > self.row_start {
                let last_to = self.col_idx[self.col_idx.len() - 1] as State;
                if to == last_to {
                    return Err(ModelError::DuplicateTransition { from, to });
                }
                if to < last_to {
                    return Err(ModelError::OutOfOrderTransition { from, to });
                }
            }
            self.col_idx.push(to as u32);
            self.values.push(value);
            return Ok(Push::SameRow);
        }
        // `from > current`: the current row closes. It must be non-empty,
        // and `from` must be the immediate successor (a gap would leave a
        // state with no outgoing transitions).
        if self.col_idx.len() == self.row_start {
            return Err(ModelError::NoOutgoingTransitions {
                state: self.current,
            });
        }
        if from > self.current + 1 {
            return Err(ModelError::NoOutgoingTransitions {
                state: self.current + 1,
            });
        }
        let closed = Push::ClosedRow {
            state: self.current,
            start: self.row_start,
            end: self.col_idx.len(),
        };
        self.row_ptr.push(self.col_idx.len());
        self.current = from;
        self.row_start = self.col_idx.len();
        self.col_idx.push(to as u32);
        self.values.push(value);
        Ok(closed)
    }

    /// Closes the final row and returns the finished pattern and values.
    ///
    /// The returned range is the slot range of the last row, for the
    /// caller's numeric validation.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyModel`] if `n == 0`;
    /// * [`ModelError::NoOutgoingTransitions`] if the last filled row is
    ///   empty or any trailing state received no entries.
    pub(crate) fn finish(mut self) -> Result<(Pattern, Vec<V>, State, Range<usize>), ModelError> {
        if self.n == 0 {
            return Err(ModelError::EmptyModel);
        }
        if self.col_idx.len() == self.row_start {
            return Err(ModelError::NoOutgoingTransitions {
                state: self.current,
            });
        }
        if self.current + 1 < self.n {
            return Err(ModelError::NoOutgoingTransitions {
                state: self.current + 1,
            });
        }
        let last_row = self.row_start..self.col_idx.len();
        self.row_ptr.push(last_row.end);
        Ok((
            Pattern::new(self.row_ptr, self.col_idx),
            self.values,
            self.current,
            last_row,
        ))
    }
}
