//! Plain-text model exchange format.
//!
//! A minimal line-oriented format for DTMCs and IMCs, so models can be
//! shipped to the command-line tool without writing Rust:
//!
//! ```text
//! # lines starting with '#' are comments
//! dtmc                     # or: imc
//! states 4
//! initial 0
//! transition 0 1 0.3       # from to probability        (dtmc)
//! interval 0 1 0.25 0.35   # from to lo hi               (imc)
//! label 2 goal
//! ```
//!
//! Probabilities are read with Rust's `f64` parser, so a value written
//! with `{:?}` reads back bit for bit.
//!
//! Two loaders are provided per model kind:
//!
//! * [`parse_dtmc`] / [`parse_imc`] accept a full in-memory string with
//!   directives in **any order**; transitions are buffered and sorted once.
//! * [`read_dtmc`] / [`read_imc`] stream from any [`BufRead`] and build the
//!   CSR arrays **incrementally** — no intermediate maps and no whole-file
//!   buffer, at the price of requiring transitions in ascending
//!   `(from, to)` order. Out-of-order input is a typed
//!   [`ModelError::OutOfOrderTransition`].
//!
//! All four read the grammar through one loader; only the model builder
//! behind it differs.

use std::fmt;
use std::io::BufRead;

use crate::{Dtmc, DtmcBuilder, DtmcStreamBuilder, Imc, ImcBuilder, ImcStreamBuilder, ModelError};

/// Errors raised when parsing the text format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A line had an unknown keyword.
    UnknownDirective {
        /// 1-based line number.
        line: usize,
        /// The offending keyword.
        keyword: String,
    },
    /// A line had the wrong number of fields or a malformed number.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was expected.
        expected: &'static str,
    },
    /// The header (`dtmc` / `imc`) is missing or wrong for the requested
    /// model kind.
    WrongHeader {
        /// What the parser expected.
        expected: &'static str,
    },
    /// `states N` missing before the first transition.
    MissingStates,
    /// The assembled model failed validation.
    Model(ModelError),
    /// The underlying reader failed (streaming loaders only).
    Io(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnknownDirective { line, keyword } => {
                write!(f, "line {line}: unknown directive `{keyword}`")
            }
            ParseError::Malformed { line, expected } => {
                write!(f, "line {line}: expected {expected}")
            }
            ParseError::WrongHeader { expected } => {
                write!(f, "missing or wrong header: expected `{expected}`")
            }
            ParseError::MissingStates => {
                write!(f, "`states N` must precede transitions and labels")
            }
            ParseError::Model(e) => write!(f, "invalid model: {e}"),
            ParseError::Io(msg) => write!(f, "read failed: {msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ModelError> for ParseError {
    fn from(e: ModelError) -> Self {
        ParseError::Model(e)
    }
}

/// What the loader needs of a model builder. The four builders share
/// one grammar; they differ in the model they assemble and in edge order:
/// the batch builders buffer and sort, the stream builders append to the
/// CSR arrays and reject out-of-order edges.
trait Builder: Sized {
    /// The model this builder assembles.
    type Model;
    /// The header line: `dtmc` or `imc`.
    const HEADER: &'static str;
    /// The edge directive's shape, keyword first: `transition FROM TO P`
    /// or `interval FROM TO LO HI`. [`ParseError::Malformed`] quotes it.
    const EDGE: &'static str;

    /// `states N`.
    fn start(n: usize) -> Self;
    /// `initial S`.
    fn initial(&mut self, state: usize);
    /// `label STATE NAME`.
    fn label(&mut self, state: usize, name: &str);
    /// The edge directive; `values` holds `P`, or `LO` and `HI`.
    fn edge(&mut self, from: usize, to: usize, values: [f64; 2]) -> Result<(), ModelError>;
    /// Validates and builds the model at the end of the input.
    fn assemble(self) -> Result<Self::Model, ModelError>;
}

/// Implements [`Builder`] over a builder's inherent `new`, `set_initial`
/// and `add_label`; `$assemble` names its build method, and the closure
/// adds one edge.
macro_rules! builder {
    ($builder:ident => $model:ident, $header:expr, $edge_shape:expr, $assemble:ident,
     |$b:ident, $from:ident, $to:ident, $values:ident| $edge:expr) => {
        impl Builder for $builder {
            type Model = $model;
            const HEADER: &'static str = $header;
            const EDGE: &'static str = $edge_shape;

            fn start(n: usize) -> Self {
                $builder::new(n)
            }
            fn initial(&mut self, state: usize) {
                self.set_initial(state);
            }
            fn label(&mut self, state: usize, name: &str) {
                self.add_label(state, name);
            }
            fn edge(
                &mut self,
                $from: usize,
                $to: usize,
                $values: [f64; 2],
            ) -> Result<(), ModelError> {
                let $b = self;
                $edge
            }
            fn assemble(self) -> Result<$model, ModelError> {
                self.$assemble()
            }
        }
    };
}

builder!(DtmcBuilder => Dtmc, "dtmc", "transition FROM TO P", build, |b, from, to, v| {
    b.add_transition(from, to, v[0]);
    Ok(())
});
builder!(DtmcStreamBuilder => Dtmc, "dtmc", "transition FROM TO P", finish, |b, from, to, v| {
    b.push_transition(from, to, v[0])
});
builder!(ImcBuilder => Imc, "imc", "interval FROM TO LO HI", build, |b, from, to, v| {
    b.add_interval(from, to, v[0], v[1]);
    Ok(())
});
builder!(ImcStreamBuilder => Imc, "imc", "interval FROM TO LO HI", finish, |b, from, to, v| {
    b.push_interval(from, to, v[0], v[1])
});

fn parse_num<T: std::str::FromStr>(
    fields: &[&str],
    idx: usize,
    line: usize,
    expected: &'static str,
) -> Result<T, ParseError> {
    fields
        .get(idx)
        .and_then(|s| s.parse().ok())
        .ok_or(ParseError::Malformed { line, expected })
}

/// The one loader of the text format: checks the header, strips comments
/// and blank lines, and hands each directive to `B`. Reads one line at a
/// time, so a stream builder never holds the whole file.
fn load<B: Builder>(reader: impl BufRead) -> Result<B::Model, ParseError> {
    let mut shape = B::EDGE.split_whitespace();
    let edge = shape.next().unwrap_or_default();
    // The numbers after `FROM TO`.
    let arity = shape.count() - 2;
    let mut saw_header = false;
    let mut builder: Option<B> = None;
    for (i, raw) in reader.lines().enumerate() {
        let raw = raw.map_err(|e| ParseError::Io(e.to_string()))?;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let fields: Vec<&str> = text.split_whitespace().collect();
        if !saw_header {
            if fields != [B::HEADER] {
                return Err(ParseError::WrongHeader {
                    expected: B::HEADER,
                });
            }
            saw_header = true;
            continue;
        }
        let line = i + 1;
        match fields[0] {
            "states" => builder = Some(B::start(parse_num(&fields, 1, line, "states N")?)),
            "initial" => {
                let b = builder.as_mut().ok_or(ParseError::MissingStates)?;
                b.initial(parse_num(&fields, 1, line, "initial S")?);
            }
            "label" => {
                let b = builder.as_mut().ok_or(ParseError::MissingStates)?;
                let s: usize = parse_num(&fields, 1, line, "label STATE NAME")?;
                let name = fields.get(2).ok_or(ParseError::Malformed {
                    line,
                    expected: "label STATE NAME",
                })?;
                b.label(s, name);
            }
            keyword if keyword == edge => {
                let b = builder.as_mut().ok_or(ParseError::MissingStates)?;
                let from: usize = parse_num(&fields, 1, line, B::EDGE)?;
                let to: usize = parse_num(&fields, 2, line, B::EDGE)?;
                let mut values = [0.0; 2];
                for (k, value) in values.iter_mut().take(arity).enumerate() {
                    *value = parse_num(&fields, 3 + k, line, B::EDGE)?;
                }
                b.edge(from, to, values)?;
            }
            other => {
                return Err(ParseError::UnknownDirective {
                    line,
                    keyword: other.to_owned(),
                })
            }
        }
    }
    if !saw_header {
        return Err(ParseError::WrongHeader {
            expected: B::HEADER,
        });
    }
    builder
        .ok_or(ParseError::MissingStates)?
        .assemble()
        .map_err(ParseError::from)
}

/// Parses a DTMC from the text format (directives in any order).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending line, or the
/// model-validation failure.
pub fn parse_dtmc(text: &str) -> Result<Dtmc, ParseError> {
    load::<DtmcBuilder>(text.as_bytes())
}

/// Parses an IMC from the text format (directives in any order).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending line, or the
/// model-validation failure.
pub fn parse_imc(text: &str) -> Result<Imc, ParseError> {
    load::<ImcBuilder>(text.as_bytes())
}

/// Streams a DTMC from `reader`, building the CSR arrays incrementally.
///
/// Unlike [`parse_dtmc`], which buffers and sorts, this loader appends each
/// transition directly to the model's sparse arrays and therefore requires
/// transitions in ascending `(from, to)` order. `initial` and `label`
/// directives may appear anywhere after `states N`.
///
/// # Errors
///
/// All [`parse_dtmc`] errors, plus [`ParseError::Io`] if the reader fails
/// and [`ModelError::OutOfOrderTransition`] (wrapped in
/// [`ParseError::Model`]) on out-of-order transitions.
pub fn read_dtmc<R: BufRead>(reader: R) -> Result<Dtmc, ParseError> {
    load::<DtmcStreamBuilder>(reader)
}

/// Streams an IMC from `reader`, building the CSR arrays incrementally.
///
/// The interval-model counterpart of [`read_dtmc`]: intervals must arrive
/// in ascending `(from, to)` order; `initial` and `label` directives may
/// appear anywhere after `states N`.
///
/// # Errors
///
/// All [`parse_imc`] errors, plus [`ParseError::Io`] if the reader fails
/// and [`ModelError::OutOfOrderTransition`] (wrapped in
/// [`ParseError::Model`]) on out-of-order intervals.
pub fn read_imc<R: BufRead>(reader: R) -> Result<Imc, ParseError> {
    load::<ImcStreamBuilder>(reader)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DTMC_TEXT: &str = "\
# a coin
dtmc
states 3
initial 0
transition 0 1 0.25
transition 0 2 0.75
transition 1 1 1.0
transition 2 2 1.0   # absorbing
label 1 heads
";

    #[test]
    fn parses_dtmc() {
        let chain = parse_dtmc(DTMC_TEXT).unwrap();
        assert_eq!(chain.num_states(), 3);
        assert_eq!(chain.prob(0, 1), 0.25);
        assert!(chain.has_label(1, "heads"));
    }

    #[test]
    fn parses_imc_and_round_trips() {
        let text = "\
imc
states 2
initial 0
interval 0 0 0.1 0.3
interval 0 1 0.7 0.9
interval 1 1 1.0 1.0
label 1 sink
";
        let imc = parse_imc(text).unwrap();
        let e = imc.row(0).unwrap().interval_to(1).unwrap();
        assert_eq!((e.lo, e.hi), (0.7, 0.9));
        assert!(imc.labeled_states("sink").contains(1));
    }

    #[test]
    fn streaming_reader_matches_parser() {
        let chain = parse_dtmc(DTMC_TEXT).unwrap();
        let streamed = read_dtmc(DTMC_TEXT.as_bytes()).unwrap();
        assert_eq!(chain, streamed);

        let imc_text = "\
imc
states 2
initial 0
interval 0 0 0.1 0.3
interval 0 1 0.7 0.9
interval 1 1 1.0 1.0
label 0 init
";
        assert_eq!(
            parse_imc(imc_text).unwrap(),
            read_imc(imc_text.as_bytes()).unwrap()
        );
    }

    #[test]
    fn streaming_reader_rejects_out_of_order() {
        let text = "\
dtmc
states 2
transition 0 1 0.5
transition 0 0 0.5
transition 1 1 1.0
";
        // The lenient parser sorts and accepts...
        assert!(parse_dtmc(text).is_ok());
        // ...the streaming reader reports the violation as a typed error.
        let err = read_dtmc(text.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            ParseError::Model(ModelError::OutOfOrderTransition { from: 0, to: 0 })
        );
    }

    #[test]
    fn streaming_reader_reports_truncated_input() {
        // File ends before state 1's row arrives.
        let truncated = "imc\nstates 2\ninterval 0 1 1.0 1.0\n";
        let err = read_imc(truncated.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            ParseError::Model(ModelError::NoOutgoingTransitions { state: 1 })
        );
        // File ends before any model content at all.
        assert_eq!(
            read_imc("imc\n".as_bytes()).unwrap_err(),
            ParseError::MissingStates
        );
        assert_eq!(
            read_imc("".as_bytes()).unwrap_err(),
            ParseError::WrongHeader { expected: "imc" }
        );
    }

    #[test]
    fn streaming_reader_rejects_unknown_label_state() {
        let text = "\
dtmc
states 2
transition 0 1 1.0
transition 1 1 1.0
label 7 ghost
";
        let err = read_dtmc(text.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            ParseError::Model(ModelError::StateOutOfRange { state: 7, n: 2 })
        );
    }

    #[test]
    fn streaming_reader_surfaces_io_errors() {
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        let err = read_dtmc(std::io::BufReader::new(FailingReader)).unwrap_err();
        assert!(matches!(err, ParseError::Io(ref m) if m.contains("disk gone")));
    }

    #[test]
    fn wrong_header_is_reported() {
        assert_eq!(
            parse_dtmc("imc\nstates 1\n").unwrap_err(),
            ParseError::WrongHeader { expected: "dtmc" }
        );
        assert_eq!(
            parse_imc("dtmc\nstates 1\n").unwrap_err(),
            ParseError::WrongHeader { expected: "imc" }
        );
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let err = parse_dtmc("dtmc\nstates 2\ntransition 0 1\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::Malformed {
                line: 3,
                expected: "transition FROM TO P"
            }
        );
        let err = parse_dtmc("dtmc\nstates 2\nfrobnicate 1 2\n").unwrap_err();
        assert!(matches!(err, ParseError::UnknownDirective { line: 3, .. }));
    }

    #[test]
    fn transitions_before_states_are_rejected() {
        let err = parse_dtmc("dtmc\ntransition 0 1 1.0\n").unwrap_err();
        assert_eq!(err, ParseError::MissingStates);
        let err = read_dtmc("dtmc\ntransition 0 1 1.0\n".as_bytes()).unwrap_err();
        assert_eq!(err, ParseError::MissingStates);
    }

    #[test]
    fn invalid_model_bubbles_up() {
        let err =
            parse_dtmc("dtmc\nstates 2\ntransition 0 1 0.5\ntransition 1 1 1.0\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::Model(ModelError::NotStochastic { .. })
        ));
    }

    #[test]
    fn float_precision_round_trips_exactly() {
        let text = format!(
            "dtmc\nstates 2\ntransition 0 1 {:?}\ntransition 0 0 {:?}\ntransition 1 1 1.0\n",
            1e-4,
            1.0 - 1e-4
        );
        let chain = parse_dtmc(&text).unwrap();
        assert_eq!(chain.prob(0, 1).to_bits(), 1e-4_f64.to_bits());
        assert_eq!(chain.prob(0, 0).to_bits(), (1.0 - 1e-4_f64).to_bits());
    }
}
