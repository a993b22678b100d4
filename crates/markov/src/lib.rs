//! Discrete-time Markov chains (DTMCs) and interval Markov chains (IMCs).
//!
//! This crate is the modelling substrate of the IMCIS reproduction
//! (*Importance Sampling of Interval Markov Chains*, DSN 2018). It provides:
//!
//! * [`Dtmc`] — a sparse, validated discrete-time Markov chain with state
//!   labels ([Definition 2.1 of the paper]);
//! * [`Imc`] — an interval Markov chain under *once-and-for-all* semantics,
//!   i.e. the set of all DTMCs whose transition probabilities lie within the
//!   per-transition intervals ([Definition 2.2]);
//! * [`Path`] and [`TransitionCounts`] — finite paths and the per-path
//!   transition count tables `n_ij(ω)` used by the likelihood-ratio
//!   machinery, keyed by [`Edge`] id (a transition's CSR slot);
//! * [`AliasTable`] — a chain's Walker tables for O(1) row draws, built
//!   once per chain by [`Dtmc::alias_table`];
//! * [`StateSet`] — a compact bit-set over state indices, and [`LabelTable`]
//!   — interned label names resolving to borrowed `StateSet`s;
//! * graph analyses ([`graph`]) — forward/backward reachability, strongly
//!   connected components and bottom SCCs;
//! * a plain-text exchange format ([`io`]) with both buffering parsers and
//!   streaming [`io::read_dtmc`] / [`io::read_imc`] loaders.
//!
//! # Storage layout
//!
//! Both model types store their transition structure in compressed sparse
//! row (CSR) form: one `row_ptr` offset array of length `n + 1`, plus
//! contiguous `col_idx` (`u32` target states) and value arrays holding
//! every transition, sorted by `(from, to)`. Row lookups are two offset
//! reads; downstream samplers and solvers borrow the arrays directly via
//! [`Dtmc::row_offsets`], [`Dtmc::transition_targets`] and
//! [`Dtmc::transition_probs`] (and the `bounds_lo`/`bounds_hi` pair on
//! [`Imc`]) instead of re-flattening per row.
//!
//! Storage is immutable once built and shared, never copied:
//!
//! * the sparsity pattern — `row_ptr` and `col_idx` (8 bytes per state
//!   plus 4 per transition), with its fingerprint — is shared by a chain,
//!   its clones, every chain [`Dtmc::reweighted`] from it and every IMC
//!   built around it by [`Imc::from_center`];
//! * a chain's probabilities (8 bytes per transition), labels and alias
//!   tables (12 bytes per transition, once sampled) are shared by its
//!   clones, so cloning a [`Dtmc`] copies no array; an IMC's centre is
//!   such a clone;
//! * an IMC built around a centre stores only its bounds (16 bytes per
//!   transition).
//!
//! So the centre `Â`, the IMC `[Â]` and a reweighted IS chain `B` hold one
//! pattern between them.
//!
//! # Construction
//!
//! Models are built from `(from, to, value)` triplets, validated eagerly:
//!
//! * [`DtmcBuilder`] / [`ImcBuilder`] accept triplets in **any order**
//!   through `&mut self` methods (`add_transition`, `add_interval`, ...),
//!   sort them once at [`DtmcBuilder::build`], and reject duplicates and
//!   malformed rows with typed [`ModelError`]s.
//! * [`DtmcStreamBuilder`] / [`ImcStreamBuilder`] require ascending
//!   `(from, to)` order and append straight to the CSR arrays — the
//!   constant-memory path used by the streaming file loaders and the large
//!   generated scenarios.
//!
//! # Example
//!
//! ```
//! use imc_markov::{DtmcBuilder, Imc};
//!
//! # fn main() -> Result<(), imc_markov::ModelError> {
//! // The paper's illustrative chain: s0 -a-> s1 -c-> s2, s1 -d-> s0, s0 -b-> s3.
//! let (a, c) = (1e-4, 0.05);
//! let mut builder = DtmcBuilder::new(4);
//! builder
//!     .set_initial(0)
//!     .add_transition(0, 1, a)
//!     .add_transition(0, 3, 1.0 - a)
//!     .add_transition(1, 2, c)
//!     .add_transition(1, 0, 1.0 - c)
//!     .add_self_loop(2)
//!     .add_self_loop(3)
//!     .add_label(2, "goal");
//! let dtmc = builder.build()?;
//!
//! // Widen every transition into an interval of half-width 1e-5.
//! let imc = Imc::from_center(&dtmc, |_, _| 1e-5)?;
//! assert!(imc.contains(&dtmc));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod csr;
mod dtmc;
mod error;
mod imc;
mod labels;
mod path;
mod state_set;

pub mod graph;
pub mod io;

pub use alias::AliasTable;
pub use dtmc::{Dtmc, DtmcBuilder, DtmcStreamBuilder, RowEntry, RowView};
pub use error::ModelError;
pub use imc::{Imc, ImcBuilder, ImcStreamBuilder, IntervalEntry, IntervalRowView};
pub use labels::LabelTable;
pub use path::{Path, TransitionCounts};
pub use state_set::StateSet;

/// Index of a state in a chain. States are dense indices `0..n`.
pub type State = usize;

/// Index of a transition in a chain: its slot in the CSR arrays. A chain's
/// transitions are sorted by `(from, to)`, so ascending edge ids are
/// ascending `(from, to)` pairs.
pub type Edge = u32;

/// Tolerance used when validating that probability rows sum to one.
///
/// Learnt and hand-written models routinely carry floating point rounding on
/// the order of a few ulps per entry; `1e-9` is far above accumulated rounding
/// for realistic row widths yet far below any modelling error of interest.
pub const ROW_SUM_TOLERANCE: f64 = 1e-9;
