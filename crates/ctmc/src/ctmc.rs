use std::collections::BTreeMap;
use std::fmt;

use imc_markov::{Dtmc, DtmcBuilder, ModelError, State, StateSet};

/// One sparse rate entry: target state and transition rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEntry {
    /// Target state.
    pub target: State,
    /// Transition rate (strictly positive).
    pub rate: f64,
}

/// Errors raised when constructing a [`Ctmc`] or deriving chains from it.
#[derive(Debug, Clone, PartialEq)]
pub enum CtmcError {
    /// The model has no states.
    EmptyModel,
    /// A state index was out of range.
    StateOutOfRange {
        /// The offending index.
        state: usize,
        /// Number of states.
        n: usize,
    },
    /// A rate was negative, NaN, or infinite.
    InvalidRate {
        /// Source state.
        from: usize,
        /// Target state.
        to: usize,
        /// The offending rate.
        rate: f64,
    },
    /// A self-loop rate was specified (meaningless in a CTMC).
    SelfLoop {
        /// The state with the self-rate.
        state: usize,
    },
    /// The same transition was specified twice.
    DuplicateTransition {
        /// Source state.
        from: usize,
        /// Target state.
        to: usize,
    },
    /// Deriving a DTMC failed (bubbled up from chain validation).
    Derived(ModelError),
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtmcError::EmptyModel => write!(f, "model has no states"),
            CtmcError::StateOutOfRange { state, n } => {
                write!(f, "state {state} out of range for model with {n} states")
            }
            CtmcError::InvalidRate { from, to, rate } => {
                write!(f, "rate {rate} on transition {from} -> {to} is invalid")
            }
            CtmcError::SelfLoop { state } => {
                write!(
                    f,
                    "self-loop rate on state {state} is not allowed in a CTMC"
                )
            }
            CtmcError::DuplicateTransition { from, to } => {
                write!(f, "transition {from} -> {to} specified more than once")
            }
            CtmcError::Derived(e) => write!(f, "derived chain invalid: {e}"),
        }
    }
}

impl std::error::Error for CtmcError {}

impl From<ModelError> for CtmcError {
    fn from(e: ModelError) -> Self {
        CtmcError::Derived(e)
    }
}

/// A continuous-time Markov chain with labelled states.
///
/// States with no outgoing rate are *absorbing*; derived discrete chains
/// give them a probability-1 self-loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    rows: Vec<Vec<RateEntry>>,
    initial: State,
    labels: BTreeMap<String, StateSet>,
}

impl Ctmc {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.rows.len()
    }

    /// The initial state.
    pub fn initial(&self) -> State {
        self.initial
    }

    /// The outgoing rate entries of `state`, sorted by target.
    pub fn rates(&self, state: State) -> &[RateEntry] {
        &self.rows[state]
    }

    /// Total exit rate `E(s) = Σ_t r(s, t)`.
    pub fn exit_rate(&self, state: State) -> f64 {
        self.rows[state].iter().map(|e| e.rate).sum()
    }

    /// The set of states carrying `label`.
    pub fn labeled_states(&self, label: &str) -> StateSet {
        self.labels
            .get(label)
            .cloned()
            .unwrap_or_else(|| StateSet::new(self.num_states()))
    }

    /// The embedded (jump) DTMC: `P(s, t) = r(s, t) / E(s)`; absorbing
    /// states get a self-loop.
    ///
    /// Reach-avoid probabilities of a CTMC — including the paper's
    /// failure-before-return properties — coincide with those of its jump
    /// chain, which is why the repair benchmarks are analysed through this
    /// derivation.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the derived chain (cannot occur
    /// for a validated CTMC; kept for defence in depth).
    pub fn embedded_dtmc(&self) -> Result<Dtmc, CtmcError> {
        let mut builder = DtmcBuilder::new(self.num_states());
        builder.set_initial(self.initial);
        for (from, row) in self.rows.iter().enumerate() {
            let exit = self.exit_rate(from);
            if exit <= 0.0 {
                builder.add_self_loop(from);
                continue;
            }
            // Rounding guard: make the row sum exactly one by scaling.
            for entry in row {
                builder.add_transition(from, entry.target, entry.rate / exit);
            }
        }
        for (name, set) in &self.labels {
            for state in set.iter() {
                builder.add_label(state, name);
            }
        }
        builder.build().map_err(CtmcError::from)
    }
}

/// Builder for [`Ctmc`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct CtmcBuilder {
    n: usize,
    initial: State,
    rates: Vec<(State, State, f64)>,
    labels: BTreeMap<String, Vec<State>>,
}

impl CtmcBuilder {
    /// Starts a builder for a CTMC with `n` states and initial state 0.
    pub fn new(n: usize) -> Self {
        CtmcBuilder {
            n,
            initial: 0,
            rates: Vec::new(),
            labels: BTreeMap::new(),
        }
    }

    /// Sets the initial state (default 0).
    pub fn initial(mut self, state: State) -> Self {
        self.initial = state;
        self
    }

    /// Adds transition `from -> to` with the given rate. Zero rates are
    /// dropped, mirroring [`DtmcBuilder::add_transition`].
    pub fn rate(mut self, from: State, to: State, rate: f64) -> Self {
        if rate != 0.0 {
            self.rates.push((from, to, rate));
        }
        self
    }

    /// Attaches `label` to `state`.
    pub fn label(mut self, state: State, label: &str) -> Self {
        self.labels.entry(label.to_owned()).or_default().push(state);
        self
    }

    /// Validates and constructs the [`Ctmc`].
    ///
    /// # Errors
    ///
    /// Rejects empty models, out-of-range states, negative/non-finite
    /// rates, self-loops, and duplicate transitions.
    pub fn build(self) -> Result<Ctmc, CtmcError> {
        if self.n == 0 {
            return Err(CtmcError::EmptyModel);
        }
        let n = self.n;
        if self.initial >= n {
            return Err(CtmcError::StateOutOfRange {
                state: self.initial,
                n,
            });
        }
        let mut rows: Vec<Vec<RateEntry>> = vec![Vec::new(); n];
        for (from, to, rate) in self.rates {
            if from >= n {
                return Err(CtmcError::StateOutOfRange { state: from, n });
            }
            if to >= n {
                return Err(CtmcError::StateOutOfRange { state: to, n });
            }
            if from == to {
                return Err(CtmcError::SelfLoop { state: from });
            }
            if !rate.is_finite() || rate < 0.0 {
                return Err(CtmcError::InvalidRate { from, to, rate });
            }
            rows[from].push(RateEntry { target: to, rate });
        }
        for (state, row) in rows.iter_mut().enumerate() {
            row.sort_by_key(|e| e.target);
            for pair in row.windows(2) {
                if pair[0].target == pair[1].target {
                    return Err(CtmcError::DuplicateTransition {
                        from: state,
                        to: pair[0].target,
                    });
                }
            }
        }
        let mut labels = BTreeMap::new();
        for (name, states) in self.labels {
            let mut set = StateSet::new(n);
            for state in states {
                if state >= n {
                    return Err(CtmcError::StateOutOfRange { state, n });
                }
                set.insert(state);
            }
            labels.insert(name, set);
        }
        Ok(Ctmc {
            rows,
            initial: self.initial,
            labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Birth-death chain: 0 -(2)-> 1 -(3)-> 2, 1 -(1)-> 0, 2 absorbing.
    fn birth_death() -> Ctmc {
        CtmcBuilder::new(3)
            .rate(0, 1, 2.0)
            .rate(1, 2, 3.0)
            .rate(1, 0, 1.0)
            .label(2, "done")
            .build()
            .unwrap()
    }

    #[test]
    fn exit_rates() {
        let ctmc = birth_death();
        assert_eq!(ctmc.exit_rate(0), 2.0);
        assert_eq!(ctmc.exit_rate(1), 4.0);
        assert_eq!(ctmc.exit_rate(2), 0.0);
    }

    #[test]
    fn embedded_chain_normalises_rates() {
        let jump = birth_death().embedded_dtmc().unwrap();
        assert_eq!(jump.prob(0, 1), 1.0);
        assert!((jump.prob(1, 2) - 0.75).abs() < 1e-12);
        assert!((jump.prob(1, 0) - 0.25).abs() < 1e-12);
        // Absorbing CTMC state becomes a DTMC self-loop.
        assert_eq!(jump.prob(2, 2), 1.0);
        assert!(jump.has_label(2, "done"));
    }

    #[test]
    fn builder_rejects_self_loop() {
        let err = CtmcBuilder::new(2).rate(0, 0, 1.0).build().unwrap_err();
        assert!(matches!(err, CtmcError::SelfLoop { state: 0 }));
    }

    #[test]
    fn builder_rejects_negative_rate() {
        let err = CtmcBuilder::new(2).rate(0, 1, -3.0).build().unwrap_err();
        assert!(matches!(err, CtmcError::InvalidRate { .. }));
    }

    #[test]
    fn builder_rejects_duplicates_and_out_of_range() {
        let err = CtmcBuilder::new(2)
            .rate(0, 1, 1.0)
            .rate(0, 1, 2.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CtmcError::DuplicateTransition { .. }));
        let err = CtmcBuilder::new(2).rate(0, 5, 1.0).build().unwrap_err();
        assert!(matches!(err, CtmcError::StateOutOfRange { state: 5, .. }));
    }

    #[test]
    fn zero_rates_are_dropped() {
        let ctmc = CtmcBuilder::new(2).rate(0, 1, 0.0).build().unwrap();
        assert_eq!(ctmc.exit_rate(0), 0.0);
        // Both states absorbing -> both self-loop in the jump chain.
        let jump = ctmc.embedded_dtmc().unwrap();
        assert_eq!(jump.prob(0, 0), 1.0);
    }
}
