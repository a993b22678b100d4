//! A small scenario DSL: IMC models, properties and typed parameters as
//! plain text, compiled into a [`Setup`] at submit time.
//!
//! Every workload used to be a compiled-in registry entry; this module
//! makes scenarios *data*. A source like
//!
//! ```text
//! scenario "coin"
//!
//! param p = 0.5
//! param eps = 0.1
//!
//! model {
//!   state s0 initial {
//!     -> heads [p - eps, p + eps] @ p
//!     -> tails [1 - p - eps, 1 - p + eps] @ 1 - p
//!   }
//!   state heads label "goal" { -> heads 1.0 }
//!   state tails label "sink" { -> tails 1.0 }
//! }
//!
//! property reach "goal" avoid "sink"
//!
//! is zero_variance
//! ```
//!
//! declares typed parameters with defaults (overridable per run), an
//! interval model with explicit centres, a reach/avoid property over
//! label sets, and the IS-chain construction. [`compile`] lowers it into
//! the exact same [`Setup`] shape the registry scenarios build — through
//! the same [`imc_markov`] builders and the same validation, so a DSL
//! model obeys every invariant a compiled-in one does.
//!
//! # Grammar
//!
//! Hand-rolled recursive descent (no parser generator), `#` comments,
//! free-form whitespace. Items may appear in any order:
//!
//! ```text
//! source    := item*
//! item      := "scenario" STRING
//!            | "param" IDENT (":" ("float" | "int"))? "=" expr
//!            | "model" "{" state* "}"
//!            | "property" "reach" labels
//!              ( "before" "return" | ("avoid" labels)? ("within" expr)? )
//!            | "is" is_kind
//!            | "gamma" ("center" | "exact") "=" expr
//! state     := "state" IDENT ("initial" | "label" STRING)* "{" edge* "}"
//! edge      := "->" IDENT prob
//! prob      := expr                                  # point transition
//!            | "[" expr "," expr "]" ("@" expr)?     # interval (+ centre)
//! is_kind   := "center"
//!            | "zero_variance" clauses
//!            | "mixture" "(" expr ")" clauses
//! clauses   := ("target" labels)? ("avoid" ("initial" | labels))?
//! labels    := STRING ("," STRING)*
//! expr      := arithmetic over numbers, parameters, + - * / ( ) unary -
//! ```
//!
//! An interval edge without `@` takes the midpoint as its centre; the
//! centre chain must still be a stochastic member of the interval model
//! (checked by [`Imc::with_center`]). `is` defaults to `zero_variance`
//! with the property's target set and an empty avoid set; `avoid
//! initial` names the initial state (the reach-before-return shape).
//! Expression nesting is capped at [`MAX_EXPR_DEPTH`] so adversarial
//! sources fail with a typed error instead of exhausting the stack.
//!
//! # Diagnostics
//!
//! Every failure is a [`DslError`] carrying a [`DslErrorKind`] and a
//! 1-based line/column span into the source — lexing, parsing (with
//! expected-token sets), parameter binding, interval-bound violations,
//! unknown labels and builder rejections all ride the same type. The
//! golden-diagnostics test pins the exact messages.

use std::collections::BTreeMap;
use std::fmt;

use imc_logic::Property;
use imc_markov::{Dtmc, DtmcBuilder, Imc, ImcBuilder, StateSet};
use imc_sampling::zero_variance_is;
use serde::json::Value;

use crate::scenario::{mix_chains, Setup};

/// Maximum expression nesting depth (parentheses and unary minus). A
/// typed [`DslErrorKind::Parse`] error beyond this — never a stack
/// overflow.
pub const MAX_EXPR_DEPTH: usize = 64;

/// What layer of the pipeline a [`DslError`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DslErrorKind {
    /// The source text could not be tokenised.
    Lex,
    /// The token stream does not match the grammar.
    Parse,
    /// A parameter declaration or binding is invalid.
    Param,
    /// The model is structurally invalid (states, intervals, centres).
    Model,
    /// The property or an `is`/`gamma` clause is invalid.
    Property,
    /// Model or IS-chain construction failed downstream (builders,
    /// zero-variance solve).
    Build,
}

/// A typed, line/column-spanned DSL failure.
#[derive(Debug, Clone, PartialEq)]
pub struct DslError {
    /// The pipeline layer that rejected the source.
    pub kind: DslErrorKind,
    /// What went wrong.
    pub message: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column (bytes) of the offending token.
    pub col: usize,
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for DslError {}

/// 1-based (line, column) of byte `offset` in `source`.
fn position(source: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(source.len());
    let prefix = &source[..offset];
    let line = 1 + prefix.bytes().filter(|&b| b == b'\n').count();
    let col = 1 + offset - prefix.rfind('\n').map_or(0, |i| i + 1);
    (line, col)
}

fn err_at(source: &str, offset: usize, kind: DslErrorKind, message: String) -> DslError {
    let (line, col) = position(source, offset);
    DslError {
        kind,
        message,
        line,
        col,
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum TokKind {
    Ident(String),
    Str(String),
    Num { value: f64, is_int: bool },
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Comma,
    Arrow,
    At,
    Eq,
    Colon,
    Plus,
    Minus,
    Star,
    Slash,
    Eof,
}

impl TokKind {
    /// Human-readable token description for `expected …, found …`.
    fn describe(&self) -> String {
        match self {
            TokKind::Ident(name) => format!("`{name}`"),
            TokKind::Str(s) => format!("string \"{s}\""),
            TokKind::Num { value, .. } => format!("number {value}"),
            TokKind::LBrace => "`{`".into(),
            TokKind::RBrace => "`}`".into(),
            TokKind::LBracket => "`[`".into(),
            TokKind::RBracket => "`]`".into(),
            TokKind::LParen => "`(`".into(),
            TokKind::RParen => "`)`".into(),
            TokKind::Comma => "`,`".into(),
            TokKind::Arrow => "`->`".into(),
            TokKind::At => "`@`".into(),
            TokKind::Eq => "`=`".into(),
            TokKind::Colon => "`:`".into(),
            TokKind::Plus => "`+`".into(),
            TokKind::Minus => "`-`".into(),
            TokKind::Star => "`*`".into(),
            TokKind::Slash => "`/`".into(),
            TokKind::Eof => "end of source".into(),
        }
    }
}

#[derive(Debug, Clone)]
struct Tok {
    kind: TokKind,
    offset: usize,
}

fn lex(source: &str) -> Result<Vec<Tok>, DslError> {
    let bytes = source.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'{' | b'}' | b'[' | b']' | b'(' | b')' | b',' | b'@' | b'=' | b':' | b'+' | b'*'
            | b'/' => {
                let kind = match b {
                    b'{' => TokKind::LBrace,
                    b'}' => TokKind::RBrace,
                    b'[' => TokKind::LBracket,
                    b']' => TokKind::RBracket,
                    b'(' => TokKind::LParen,
                    b')' => TokKind::RParen,
                    b',' => TokKind::Comma,
                    b'@' => TokKind::At,
                    b'=' => TokKind::Eq,
                    b':' => TokKind::Colon,
                    b'+' => TokKind::Plus,
                    b'*' => TokKind::Star,
                    _ => TokKind::Slash,
                };
                toks.push(Tok { kind, offset: i });
                i += 1;
            }
            b'-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    toks.push(Tok {
                        kind: TokKind::Arrow,
                        offset: i,
                    });
                    i += 2;
                } else {
                    toks.push(Tok {
                        kind: TokKind::Minus,
                        offset: i,
                    });
                    i += 1;
                }
            }
            b'"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None | Some(b'\n') => {
                            return Err(err_at(
                                source,
                                start,
                                DslErrorKind::Lex,
                                "unterminated string literal".into(),
                            ));
                        }
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => match bytes.get(i + 1) {
                            Some(b'"') => {
                                s.push('"');
                                i += 2;
                            }
                            Some(b'\\') => {
                                s.push('\\');
                                i += 2;
                            }
                            _ => {
                                return Err(err_at(
                                    source,
                                    i,
                                    DslErrorKind::Lex,
                                    "unsupported escape in string literal (only \\\" and \\\\)"
                                        .into(),
                                ));
                            }
                        },
                        Some(&c) => {
                            s.push(c as char);
                            i += 1;
                        }
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Str(s),
                    offset: start,
                });
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_int = true;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'.' {
                    is_int = false;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    is_int = false;
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &source[start..i];
                let value: f64 = text.parse().map_err(|_| {
                    err_at(
                        source,
                        start,
                        DslErrorKind::Lex,
                        format!("malformed number literal `{text}`"),
                    )
                })?;
                toks.push(Tok {
                    kind: TokKind::Num { value, is_int },
                    offset: start,
                });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident(source[start..i].to_string()),
                    offset: start,
                });
            }
            other => {
                return Err(err_at(
                    source,
                    i,
                    DslErrorKind::Lex,
                    format!("unexpected character `{}`", other as char),
                ));
            }
        }
    }
    toks.push(Tok {
        kind: TokKind::Eof,
        offset: source.len(),
    });
    Ok(toks)
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// The parsed form of a DSL source (opaque; produced by [`parse`],
/// consumed by the compiler).
#[derive(Debug)]
pub struct Ast {
    pub(crate) scenario_name: Option<String>,
    pub(crate) params: Vec<ParamDecl>,
    pub(crate) states: Vec<StateDecl>,
    pub(crate) model_offset: usize,
    pub(crate) property: PropertyDecl,
    pub(crate) is: IsDecl,
    pub(crate) gamma_center: Option<Expr>,
    pub(crate) gamma_exact: Option<Expr>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParamTy {
    Float,
    Int,
}

#[derive(Debug)]
pub(crate) struct ParamDecl {
    pub(crate) name: String,
    pub(crate) ty: ParamTy,
    pub(crate) default: Expr,
    pub(crate) offset: usize,
}

#[derive(Debug)]
pub(crate) struct StateDecl {
    pub(crate) name: String,
    pub(crate) offset: usize,
    pub(crate) initial: bool,
    pub(crate) labels: Vec<String>,
    pub(crate) edges: Vec<EdgeDecl>,
}

#[derive(Debug)]
pub(crate) struct EdgeDecl {
    pub(crate) target: String,
    pub(crate) target_offset: usize,
    pub(crate) prob: ProbDecl,
}

#[derive(Debug)]
pub(crate) enum ProbDecl {
    Point(Expr),
    Interval {
        lo: Expr,
        hi: Expr,
        center: Option<Expr>,
    },
}

/// Label strings paired with the source offset they were written at, so
/// resolution errors can point back into the source.
pub(crate) type LabelList = Vec<(String, usize)>;

#[derive(Debug)]
pub(crate) struct PropertyDecl {
    pub(crate) target: LabelList,
    pub(crate) kind: PropKind,
}

#[derive(Debug)]
pub(crate) enum PropKind {
    ReachAvoid {
        avoid: LabelList,
        within: Option<Expr>,
    },
    BeforeReturn,
}

#[derive(Debug)]
pub(crate) struct IsDecl {
    pub(crate) offset: usize,
    pub(crate) kind: IsKind,
}

#[derive(Debug)]
pub(crate) enum IsKind {
    Center,
    ZeroVariance {
        target: Option<LabelList>,
        avoid: AvoidSpec,
    },
    Mixture {
        w: Expr,
        target: Option<LabelList>,
        avoid: AvoidSpec,
    },
}

#[derive(Debug)]
pub(crate) enum AvoidSpec {
    Empty,
    Initial,
    Labels(LabelList),
}

#[derive(Debug)]
pub(crate) enum Expr {
    Num {
        value: f64,
        offset: usize,
    },
    Param {
        name: String,
        offset: usize,
    },
    Neg(Box<Expr>),
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        offset: usize,
    },
}

impl Expr {
    fn offset(&self) -> usize {
        match self {
            Expr::Num { offset, .. } | Expr::Param { offset, .. } | Expr::Bin { offset, .. } => {
                *offset
            }
            Expr::Neg(inner) => inner.offset(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    source: &'a str,
    toks: Vec<Tok>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn next(&mut self) -> Tok {
        let tok = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn err(&self, offset: usize, kind: DslErrorKind, message: String) -> DslError {
        err_at(self.source, offset, kind, message)
    }

    fn parse_err(&self, expected: &str) -> DslError {
        let tok = self.peek();
        self.err(
            tok.offset,
            DslErrorKind::Parse,
            format!("expected {expected}, found {}", tok.kind.describe()),
        )
    }

    fn expect(&mut self, kind: &TokKind, expected: &str) -> Result<Tok, DslError> {
        if &self.peek().kind == kind {
            Ok(self.next())
        } else {
            Err(self.parse_err(expected))
        }
    }

    /// Consumes the next token if it is the keyword `word`.
    fn eat_keyword(&mut self, word: &str) -> bool {
        if matches!(&self.peek().kind, TokKind::Ident(name) if name == word) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, word: &str) -> Result<Tok, DslError> {
        if matches!(&self.peek().kind, TokKind::Ident(name) if name == word) {
            Ok(self.next())
        } else {
            Err(self.parse_err(&format!("`{word}`")))
        }
    }

    fn expect_ident(&mut self, expected: &str) -> Result<(String, usize), DslError> {
        match &self.peek().kind {
            TokKind::Ident(name) => {
                let name = name.clone();
                let tok = self.next();
                Ok((name, tok.offset))
            }
            _ => Err(self.parse_err(expected)),
        }
    }

    fn expect_str(&mut self, expected: &str) -> Result<(String, usize), DslError> {
        match &self.peek().kind {
            TokKind::Str(s) => {
                let s = s.clone();
                let tok = self.next();
                Ok((s, tok.offset))
            }
            _ => Err(self.parse_err(expected)),
        }
    }

    /// `STRING ("," STRING)*` — a non-empty label list.
    fn parse_labels(&mut self, what: &str) -> Result<LabelList, DslError> {
        let mut labels = vec![self.expect_str(what)?];
        while self.peek().kind == TokKind::Comma {
            self.next();
            labels.push(self.expect_str(what)?);
        }
        Ok(labels)
    }

    fn parse_expr(&mut self, depth: usize) -> Result<Expr, DslError> {
        let mut lhs = self.parse_term(depth)?;
        loop {
            let op = match self.peek().kind {
                TokKind::Plus => BinOp::Add,
                TokKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            let offset = self.next().offset;
            let rhs = self.parse_term(depth)?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                offset,
            };
        }
    }

    fn parse_term(&mut self, depth: usize) -> Result<Expr, DslError> {
        let mut lhs = self.parse_factor(depth)?;
        loop {
            let op = match self.peek().kind {
                TokKind::Star => BinOp::Mul,
                TokKind::Slash => BinOp::Div,
                _ => return Ok(lhs),
            };
            let offset = self.next().offset;
            let rhs = self.parse_factor(depth)?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                offset,
            };
        }
    }

    fn parse_factor(&mut self, depth: usize) -> Result<Expr, DslError> {
        if depth >= MAX_EXPR_DEPTH {
            return Err(self.err(
                self.peek().offset,
                DslErrorKind::Parse,
                format!("expression nesting exceeds the depth limit ({MAX_EXPR_DEPTH})"),
            ));
        }
        match &self.peek().kind {
            TokKind::Minus => {
                self.next();
                Ok(Expr::Neg(Box::new(self.parse_factor(depth + 1)?)))
            }
            TokKind::LParen => {
                self.next();
                let inner = self.parse_expr(depth + 1)?;
                self.expect(&TokKind::RParen, "`)`")?;
                Ok(inner)
            }
            TokKind::Num { value, .. } => {
                let value = *value;
                let tok = self.next();
                Ok(Expr::Num {
                    value,
                    offset: tok.offset,
                })
            }
            TokKind::Ident(name) => {
                let name = name.clone();
                let tok = self.next();
                Ok(Expr::Param {
                    name,
                    offset: tok.offset,
                })
            }
            _ => Err(self.parse_err("a number, parameter or `(`")),
        }
    }

    fn parse_prob(&mut self) -> Result<ProbDecl, DslError> {
        if self.peek().kind == TokKind::LBracket {
            self.next();
            let lo = self.parse_expr(0)?;
            self.expect(&TokKind::Comma, "`,`")?;
            let hi = self.parse_expr(0)?;
            self.expect(&TokKind::RBracket, "`]`")?;
            let center = if self.peek().kind == TokKind::At {
                self.next();
                Some(self.parse_expr(0)?)
            } else {
                None
            };
            Ok(ProbDecl::Interval { lo, hi, center })
        } else {
            Ok(ProbDecl::Point(self.parse_expr(0)?))
        }
    }

    fn parse_state(&mut self) -> Result<StateDecl, DslError> {
        let keyword = self.expect_keyword("state")?;
        let (name, _) = self.expect_ident("a state name")?;
        let mut initial = false;
        let mut labels = Vec::new();
        loop {
            if self.eat_keyword("initial") {
                initial = true;
            } else if self.eat_keyword("label") {
                labels.push(self.expect_str("a label string")?.0);
            } else {
                break;
            }
        }
        self.expect(&TokKind::LBrace, "`{`")?;
        let mut edges = Vec::new();
        while self.peek().kind != TokKind::RBrace {
            self.expect(&TokKind::Arrow, "`->` or `}`")?;
            let (target, target_offset) = self.expect_ident("a target state name")?;
            let prob = self.parse_prob()?;
            edges.push(EdgeDecl {
                target,
                target_offset,
                prob,
            });
        }
        self.next(); // `}`
        Ok(StateDecl {
            name,
            offset: keyword.offset,
            initial,
            labels,
            edges,
        })
    }

    fn parse_is_clauses(&mut self) -> Result<(Option<LabelList>, AvoidSpec), DslError> {
        let target = if self.eat_keyword("target") {
            Some(self.parse_labels("a target label string")?)
        } else {
            None
        };
        let avoid = if self.eat_keyword("avoid") {
            if self.eat_keyword("initial") {
                AvoidSpec::Initial
            } else {
                AvoidSpec::Labels(self.parse_labels("an avoid label string or `initial`")?)
            }
        } else {
            AvoidSpec::Empty
        };
        Ok((target, avoid))
    }
}

/// Parses `source` into its syntax tree without binding parameters or
/// building models — the cheap front half of [`compile`], used for eager
/// manifest validation and by the grammar fuzz tests.
///
/// # Errors
///
/// [`DslError`] with [`DslErrorKind::Lex`] or [`DslErrorKind::Parse`]
/// (plus [`DslErrorKind::Property`] for structurally duplicate or
/// missing top-level items).
pub fn parse(source: &str) -> Result<Ast, DslError> {
    let toks = lex(source)?;
    let mut p = Parser {
        source,
        toks,
        pos: 0,
    };
    let mut scenario_name: Option<String> = None;
    let mut params: Vec<ParamDecl> = Vec::new();
    let mut model: Option<(Vec<StateDecl>, usize)> = None;
    let mut property: Option<PropertyDecl> = None;
    let mut is: Option<IsDecl> = None;
    let mut gamma_center: Option<Expr> = None;
    let mut gamma_exact: Option<Expr> = None;

    while p.peek().kind != TokKind::Eof {
        let tok = p.peek().clone();
        let TokKind::Ident(word) = &tok.kind else {
            return Err(
                p.parse_err("one of `scenario`, `param`, `model`, `property`, `is`, `gamma`")
            );
        };
        match word.as_str() {
            "scenario" => {
                p.next();
                let (name, offset) = p.expect_str("a scenario name string")?;
                if scenario_name.is_some() {
                    return Err(p.err(
                        offset,
                        DslErrorKind::Property,
                        "duplicate `scenario` declaration".into(),
                    ));
                }
                scenario_name = Some(name);
            }
            "param" => {
                let keyword = p.next();
                let (name, name_offset) = p.expect_ident("a parameter name")?;
                if params.iter().any(|d| d.name == name) {
                    return Err(p.err(
                        name_offset,
                        DslErrorKind::Param,
                        format!("duplicate parameter `{name}`"),
                    ));
                }
                let ty = if p.peek().kind == TokKind::Colon {
                    p.next();
                    let (ty_name, ty_offset) = p.expect_ident("`float` or `int`")?;
                    match ty_name.as_str() {
                        "float" => ParamTy::Float,
                        "int" => ParamTy::Int,
                        other => {
                            return Err(p.err(
                                ty_offset,
                                DslErrorKind::Param,
                                format!("unknown parameter type `{other}` (float | int)"),
                            ));
                        }
                    }
                } else {
                    ParamTy::Float
                };
                p.expect(&TokKind::Eq, "`=`")?;
                let default = p.parse_expr(0)?;
                params.push(ParamDecl {
                    name,
                    ty,
                    default,
                    offset: keyword.offset,
                });
            }
            "model" => {
                let keyword = p.next();
                if model.is_some() {
                    return Err(p.err(
                        keyword.offset,
                        DslErrorKind::Property,
                        "duplicate `model` block".into(),
                    ));
                }
                p.expect(&TokKind::LBrace, "`{`")?;
                let mut states = Vec::new();
                while p.peek().kind != TokKind::RBrace {
                    states.push(p.parse_state()?);
                }
                p.next(); // `}`
                model = Some((states, keyword.offset));
            }
            "property" => {
                let keyword = p.next();
                if property.is_some() {
                    return Err(p.err(
                        keyword.offset,
                        DslErrorKind::Property,
                        "duplicate `property` declaration".into(),
                    ));
                }
                p.expect_keyword("reach")?;
                let target = p.parse_labels("a target label string")?;
                let kind = if p.eat_keyword("before") {
                    p.expect_keyword("return")?;
                    PropKind::BeforeReturn
                } else {
                    let avoid = if p.eat_keyword("avoid") {
                        p.parse_labels("an avoid label string")?
                    } else {
                        Vec::new()
                    };
                    let within = if p.eat_keyword("within") {
                        Some(p.parse_expr(0)?)
                    } else {
                        None
                    };
                    PropKind::ReachAvoid { avoid, within }
                };
                property = Some(PropertyDecl { target, kind });
            }
            "is" => {
                let keyword = p.next();
                if is.is_some() {
                    return Err(p.err(
                        keyword.offset,
                        DslErrorKind::Property,
                        "duplicate `is` declaration".into(),
                    ));
                }
                let (kind_name, kind_offset) =
                    p.expect_ident("`center`, `zero_variance` or `mixture`")?;
                let kind = match kind_name.as_str() {
                    "center" => IsKind::Center,
                    "zero_variance" => {
                        let (target, avoid) = p.parse_is_clauses()?;
                        IsKind::ZeroVariance { target, avoid }
                    }
                    "mixture" => {
                        p.expect(&TokKind::LParen, "`(`")?;
                        let w = p.parse_expr(0)?;
                        p.expect(&TokKind::RParen, "`)`")?;
                        let (target, avoid) = p.parse_is_clauses()?;
                        IsKind::Mixture { w, target, avoid }
                    }
                    other => {
                        return Err(p.err(
                            kind_offset,
                            DslErrorKind::Property,
                            format!(
                                "unknown IS construction `{other}` \
                                 (center | zero_variance | mixture)"
                            ),
                        ));
                    }
                };
                is = Some(IsDecl {
                    offset: keyword.offset,
                    kind,
                });
            }
            "gamma" => {
                p.next();
                let (which, which_offset) = p.expect_ident("`center` or `exact`")?;
                p.expect(&TokKind::Eq, "`=`")?;
                let expr = p.parse_expr(0)?;
                let slot = match which.as_str() {
                    "center" => &mut gamma_center,
                    "exact" => &mut gamma_exact,
                    other => {
                        return Err(p.err(
                            which_offset,
                            DslErrorKind::Property,
                            format!("unknown gamma reference `{other}` (center | exact)"),
                        ));
                    }
                };
                if slot.is_some() {
                    return Err(p.err(
                        which_offset,
                        DslErrorKind::Property,
                        format!("duplicate `gamma {which}` declaration"),
                    ));
                }
                *slot = Some(expr);
            }
            _ => {
                return Err(
                    p.parse_err("one of `scenario`, `param`, `model`, `property`, `is`, `gamma`")
                );
            }
        }
    }

    let eof = p.peek().offset;
    let Some((states, model_offset)) = model else {
        return Err(err_at(
            source,
            eof,
            DslErrorKind::Model,
            "source has no `model` block".into(),
        ));
    };
    let Some(property) = property else {
        return Err(err_at(
            source,
            eof,
            DslErrorKind::Property,
            "source has no `property` declaration".into(),
        ));
    };
    let is = is.unwrap_or(IsDecl {
        offset: model_offset,
        kind: IsKind::ZeroVariance {
            target: None,
            avoid: AvoidSpec::Empty,
        },
    });
    Ok(Ast {
        scenario_name,
        params,
        states,
        model_offset,
        property,
        is,
        gamma_center,
        gamma_exact,
    })
}

// ---------------------------------------------------------------------------
// Parameter binding & expression evaluation
// ---------------------------------------------------------------------------

fn eval(source: &str, expr: &Expr, env: &BTreeMap<String, f64>) -> Result<f64, DslError> {
    let value = match expr {
        Expr::Num { value, .. } => *value,
        Expr::Param { name, offset } => *env.get(name).ok_or_else(|| {
            err_at(
                source,
                *offset,
                DslErrorKind::Param,
                format!("unknown parameter `{name}`"),
            )
        })?,
        Expr::Neg(inner) => -eval(source, inner, env)?,
        Expr::Bin { op, lhs, rhs, .. } => {
            let l = eval(source, lhs, env)?;
            let r = eval(source, rhs, env)?;
            match op {
                BinOp::Add => l + r,
                BinOp::Sub => l - r,
                BinOp::Mul => l * r,
                BinOp::Div => l / r,
            }
        }
    };
    if value.is_finite() {
        Ok(value)
    } else {
        Err(err_at(
            source,
            expr.offset(),
            DslErrorKind::Param,
            "expression evaluates to a non-finite number".into(),
        ))
    }
}

/// Binds parameter values: each parameter takes its bound override when
/// present, otherwise its default expression evaluated in the
/// environment of the parameters declared before it (so later defaults
/// may be derived from earlier — possibly overridden — parameters).
fn bind_params(
    source: &str,
    ast: &Ast,
    bound: &[(String, Value)],
) -> Result<BTreeMap<String, f64>, DslError> {
    for (key, _) in bound {
        if !ast.params.iter().any(|d| &d.name == key) {
            let declared: Vec<&str> = ast.params.iter().map(|d| d.name.as_str()).collect();
            return Err(DslError {
                kind: DslErrorKind::Param,
                message: format!(
                    "bound parameter `{key}` is not declared in the source (declared: {})",
                    if declared.is_empty() {
                        "none".to_string()
                    } else {
                        declared.join(", ")
                    }
                ),
                line: 1,
                col: 1,
            });
        }
    }
    let mut env = BTreeMap::new();
    for decl in &ast.params {
        let value = match bound.iter().find(|(k, _)| k == &decl.name) {
            Some((_, v)) => {
                let x = v.as_f64().filter(|x| x.is_finite()).ok_or_else(|| {
                    err_at(
                        source,
                        decl.offset,
                        DslErrorKind::Param,
                        format!("bound value for `{}` must be a finite number", decl.name),
                    )
                })?;
                if decl.ty == ParamTy::Int && x.fract() != 0.0 {
                    return Err(err_at(
                        source,
                        decl.offset,
                        DslErrorKind::Param,
                        format!(
                            "bound value for int parameter `{}` must be an integer",
                            decl.name
                        ),
                    ));
                }
                x
            }
            None => {
                let x = eval(source, &decl.default, &env)?;
                if decl.ty == ParamTy::Int && x.fract() != 0.0 {
                    return Err(err_at(
                        source,
                        decl.offset,
                        DslErrorKind::Param,
                        format!(
                            "default of int parameter `{}` must be an integer",
                            decl.name
                        ),
                    ));
                }
                x
            }
        };
        env.insert(decl.name.clone(), value);
    }
    Ok(env)
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

struct IsResolved {
    kind: IsResolvedKind,
    offset: usize,
}

enum IsResolvedKind {
    Center,
    ZeroVariance {
        target: StateSet,
        avoid: StateSet,
    },
    Mixture {
        w: f64,
        target: StateSet,
        avoid: StateSet,
    },
}

/// Everything [`compile`] produces except the IS chain — the numeric
/// zero-variance solve is the only non-trivial build step, so manifest
/// validation stops here.
struct Lowered {
    name: String,
    center: Dtmc,
    imc: Imc,
    property: Property,
    is: IsResolved,
    gamma_center: Option<f64>,
    gamma_exact: Option<f64>,
}

fn lower(source: &str, bound: &[(String, Value)]) -> Result<Lowered, DslError> {
    let ast = parse(source)?;
    let env = bind_params(source, &ast, bound)?;
    let model_err = |offset: usize, msg: String| err_at(source, offset, DslErrorKind::Model, msg);

    // States: declaration order is index order; names must be unique and
    // exactly one state is initial.
    if ast.states.is_empty() {
        return Err(model_err(
            ast.model_offset,
            "model declares no states".into(),
        ));
    }
    let n = ast.states.len();
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, state) in ast.states.iter().enumerate() {
        if index.insert(state.name.as_str(), i).is_some() {
            return Err(model_err(
                state.offset,
                format!("duplicate state `{}`", state.name),
            ));
        }
    }
    let mut initial: Option<usize> = None;
    for (i, state) in ast.states.iter().enumerate() {
        if state.initial {
            if initial.is_some() {
                return Err(model_err(
                    state.offset,
                    format!("a second state (`{}`) is marked initial", state.name),
                ));
            }
            initial = Some(i);
        }
    }
    let Some(initial) = initial else {
        return Err(model_err(
            ast.model_offset,
            "no state is marked `initial`".into(),
        ));
    };

    // Edges: resolve targets, evaluate probabilities, check interval and
    // centre invariants with per-edge spans before the builders run.
    let mut center_builder = DtmcBuilder::new(n);
    let mut imc_builder = ImcBuilder::new(n);
    center_builder.set_initial(initial);
    imc_builder.set_initial(initial);
    for (i, state) in ast.states.iter().enumerate() {
        for label in &state.labels {
            center_builder.add_label(i, label);
            imc_builder.add_label(i, label);
        }
        let mut seen: Vec<usize> = Vec::new();
        let mut center_sum = 0.0;
        for edge in &state.edges {
            let Some(&target) = index.get(edge.target.as_str()) else {
                return Err(model_err(
                    edge.target_offset,
                    format!("unknown target state `{}`", edge.target),
                ));
            };
            if seen.contains(&target) {
                return Err(model_err(
                    edge.target_offset,
                    format!("duplicate edge `{} -> {}`", state.name, edge.target),
                ));
            }
            seen.push(target);
            let (lo, hi, centre, offset) = match &edge.prob {
                ProbDecl::Point(expr) => {
                    let p = eval(source, expr, &env)?;
                    (p, p, p, expr.offset())
                }
                ProbDecl::Interval { lo, hi, center } => {
                    let offset = lo.offset();
                    let lo_v = eval(source, lo, &env)?;
                    let hi_v = eval(source, hi, &env)?;
                    let centre = match center {
                        Some(c) => eval(source, c, &env)?,
                        None => (lo_v + hi_v) / 2.0,
                    };
                    (lo_v, hi_v, centre, offset)
                }
            };
            if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) {
                return Err(model_err(
                    offset,
                    format!("interval bounds must lie in [0, 1] (got [{lo}, {hi}])"),
                ));
            }
            if lo > hi {
                return Err(model_err(
                    offset,
                    format!("interval lower bound {lo} exceeds upper bound {hi}"),
                ));
            }
            if !(lo..=hi).contains(&centre) {
                return Err(model_err(
                    offset,
                    format!("centre {centre} lies outside the interval [{lo}, {hi}]"),
                ));
            }
            imc_builder.add_interval(i, target, lo, hi);
            if centre > 0.0 {
                center_builder.add_transition(i, target, centre);
            }
            center_sum += centre;
        }
        if (center_sum - 1.0).abs() > 1e-9 {
            return Err(model_err(
                state.offset,
                format!(
                    "centre probabilities of state `{}` sum to {center_sum}, expected 1 \
                     (add explicit `@` centres)",
                    state.name
                ),
            ));
        }
    }

    // The same validation paths as every compiled-in scenario: the
    // builders check row sums, ranges and reachability of the encoding,
    // and `with_center` checks stochastic membership of the centre.
    let center = center_builder
        .build()
        .map_err(|e| model_err(ast.model_offset, format!("centre chain is invalid: {e}")))?;
    let imc = imc_builder
        .build()
        .map_err(|e| model_err(ast.model_offset, format!("interval model is invalid: {e}")))?
        .with_center(center.clone())
        .map_err(|e| {
            model_err(
                ast.model_offset,
                format!("centre is not a member of the interval model: {e}"),
            )
        })?;

    // Property: label sets resolved against the centre's label table.
    let resolve = |labels: &[(String, usize)]| -> Result<StateSet, DslError> {
        let mut set = StateSet::new(n);
        for (label, offset) in labels {
            let states = center.labeled_states(label);
            if states.is_empty() {
                return Err(err_at(
                    source,
                    *offset,
                    DslErrorKind::Property,
                    format!("label \"{label}\" marks no state in the model"),
                ));
            }
            for s in states.iter() {
                set.insert(s);
            }
        }
        Ok(set)
    };
    let target = resolve(&ast.property.target)?;
    let property = match &ast.property.kind {
        PropKind::BeforeReturn => {
            let mut avoid = StateSet::new(n);
            avoid.insert(initial);
            Property::x_reach_avoid(target.clone(), avoid)
        }
        PropKind::ReachAvoid { avoid, within } => {
            let avoid = if avoid.is_empty() {
                StateSet::new(n)
            } else {
                resolve(avoid)?
            };
            match within {
                None => Property::reach_avoid(target.clone(), avoid),
                Some(expr) => {
                    let bound = eval(source, expr, &env)?;
                    if bound.fract() != 0.0 || !(1.0..=1e9).contains(&bound) {
                        return Err(err_at(
                            source,
                            expr.offset(),
                            DslErrorKind::Property,
                            format!("`within` bound must be an integer in [1, 1e9] (got {bound})"),
                        ));
                    }
                    Property::reach_avoid_bounded(target.clone(), avoid, bound as usize)
                }
            }
        }
    };

    // IS directive: resolve its sets now (cheap, spanned); the numeric
    // solve itself is deferred to `compile`.
    let is_target = |labels: &Option<LabelList>| -> Result<StateSet, DslError> {
        match labels {
            Some(labels) => resolve(labels),
            None => Ok(property.target().clone()),
        }
    };
    let is_avoid = |spec: &AvoidSpec| -> Result<StateSet, DslError> {
        match spec {
            AvoidSpec::Empty => Ok(StateSet::new(n)),
            AvoidSpec::Initial => {
                let mut set = StateSet::new(n);
                set.insert(initial);
                Ok(set)
            }
            AvoidSpec::Labels(labels) => resolve(labels),
        }
    };
    let is = IsResolved {
        offset: ast.is.offset,
        kind: match &ast.is.kind {
            IsKind::Center => IsResolvedKind::Center,
            IsKind::ZeroVariance { target, avoid } => IsResolvedKind::ZeroVariance {
                target: is_target(target)?,
                avoid: is_avoid(avoid)?,
            },
            IsKind::Mixture { w, target, avoid } => {
                let w_value = eval(source, w, &env)?;
                if !(0.0..=1.0).contains(&w_value) {
                    return Err(err_at(
                        source,
                        w.offset(),
                        DslErrorKind::Property,
                        format!("mixture weight must lie in [0, 1] (got {w_value})"),
                    ));
                }
                IsResolvedKind::Mixture {
                    w: w_value,
                    target: is_target(target)?,
                    avoid: is_avoid(avoid)?,
                }
            }
        },
    };

    let gamma = |expr: &Option<Expr>| -> Result<Option<f64>, DslError> {
        match expr {
            None => Ok(None),
            Some(expr) => {
                let g = eval(source, expr, &env)?;
                if !(0.0..=1.0).contains(&g) {
                    return Err(err_at(
                        source,
                        expr.offset(),
                        DslErrorKind::Property,
                        format!("gamma reference must lie in [0, 1] (got {g})"),
                    ));
                }
                Ok(Some(g))
            }
        }
    };
    let gamma_center = gamma(&ast.gamma_center)?;
    let gamma_exact = gamma(&ast.gamma_exact)?;

    Ok(Lowered {
        name: ast.scenario_name.unwrap_or_else(|| "dsl".into()),
        center,
        imc,
        property,
        is,
        gamma_center,
        gamma_exact,
    })
}

/// Validates `source` under the bound parameters without running the
/// numeric IS-chain solve: lexing, parsing, parameter binding, model and
/// property construction through the real builders. This is what the
/// manifest parsers call eagerly, so a bad DSL workload is rejected at
/// submit time with a spanned diagnostic instead of at build time deep
/// inside a worker.
///
/// # Errors
///
/// Any [`DslError`] of the front half of [`compile`].
pub fn validate(source: &str, bound: &[(String, Value)]) -> Result<(), DslError> {
    lower(source, bound).map(|_| ())
}

/// Compiles `source` under the bound parameters into a complete
/// [`Setup`] — interval model, centre chain, IS chain, property and
/// optional reference `γ` values — through the same builders and
/// validation as the compiled-in registry scenarios.
///
/// Compilation is a pure function of `(source, bound)`: no RNG, no
/// ambient state. Equal inputs produce bit-identical setups, which is
/// what lets the suite `SetupCache` share one build across members and
/// the router keep DSL placement cache-affine.
///
/// # Errors
///
/// Any [`DslError`]; [`DslErrorKind::Build`] when the zero-variance
/// solve fails (e.g. the target is unreachable from the initial state).
pub fn compile(source: &str, bound: &[(String, Value)]) -> Result<Setup, DslError> {
    let lowered = lower(source, bound)?;
    let b = match &lowered.is.kind {
        IsResolvedKind::Center => lowered.center.clone(),
        IsResolvedKind::ZeroVariance { target, avoid } => {
            zero_variance_is(&lowered.center, target, avoid).map_err(|e| {
                err_at(
                    source,
                    lowered.is.offset,
                    DslErrorKind::Build,
                    format!("zero-variance construction failed: {e}"),
                )
            })?
        }
        IsResolvedKind::Mixture { w, target, avoid } => {
            let zv = zero_variance_is(&lowered.center, target, avoid).map_err(|e| {
                err_at(
                    source,
                    lowered.is.offset,
                    DslErrorKind::Build,
                    format!("zero-variance construction failed: {e}"),
                )
            })?;
            mix_chains(&zv, &lowered.center, *w)
        }
    };
    Ok(Setup {
        name: lowered.name,
        imc: lowered.imc,
        center: lowered.center,
        b,
        property: lowered.property,
        gamma_center: lowered.gamma_center,
        gamma_exact: lowered.gamma_exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const COIN: &str = r#"
scenario "coin"

param p = 0.5
param eps = 0.1

model {
  state s0 initial {
    -> heads [p - eps, p + eps] @ p
    -> tails [1 - p - eps, 1 - p + eps] @ 1 - p
  }
  state heads label "goal" { -> heads 1.0 }
  state tails label "sink" { -> tails 1.0 }
}

property reach "goal" avoid "sink"

is zero_variance
"#;

    #[test]
    fn compiles_a_complete_setup() {
        let setup = compile(COIN, &[]).unwrap();
        assert_eq!(setup.name, "coin");
        assert_eq!(setup.center.num_states(), 3);
        assert!(setup.imc.contains(&setup.center));
        assert_eq!(setup.center.prob(0, 1), 0.5);
        assert_eq!(setup.property.target().len(), 1);
        // The zero-variance chain drives everything to the goal state.
        assert!(setup.b.prob(0, 1) > 0.99);
    }

    #[test]
    fn bound_params_override_defaults_and_derived_defaults_follow() {
        let setup = compile(COIN, &[("p".to_string(), Value::Float(0.25))]).unwrap();
        assert_eq!(setup.center.prob(0, 1), 0.25);
        assert_eq!(setup.center.prob(0, 2), 0.75);
    }

    #[test]
    fn unknown_bound_param_is_rejected() {
        let err = compile(COIN, &[("q".to_string(), Value::Float(0.1))]).unwrap_err();
        assert_eq!(err.kind, DslErrorKind::Param);
        assert!(err.message.contains("`q` is not declared"), "{err}");
    }

    #[test]
    fn spans_are_one_based_line_and_column() {
        // Line 3, column 11 holds the bad upper bound expression start.
        let err = validate(
            "model {\n  state s0 initial {\n    -> s0 [0.6, 0.2]\n  }\n}\nproperty reach \"g\"",
            &[],
        )
        .unwrap_err();
        assert_eq!((err.line, err.col), (3, 12), "{err}");
        assert_eq!(err.kind, DslErrorKind::Model);
        assert!(err.message.contains("exceeds upper bound"), "{err}");
    }

    #[test]
    fn depth_limit_is_a_typed_error() {
        let mut source = String::from("param x = ");
        for _ in 0..(MAX_EXPR_DEPTH + 8) {
            source.push('(');
        }
        source.push('1');
        for _ in 0..(MAX_EXPR_DEPTH + 8) {
            source.push(')');
        }
        let err = parse(&source).unwrap_err();
        assert_eq!(err.kind, DslErrorKind::Parse);
        assert!(err.message.contains("depth limit"), "{err}");
    }

    #[test]
    fn compile_is_deterministic() {
        let a = compile(COIN, &[]).unwrap();
        let b = compile(COIN, &[]).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn before_return_builds_x_reach_avoid() {
        let source = r#"
model {
  state up initial {
    -> up [0.89, 0.91] @ 0.9
    -> down [0.09, 0.11] @ 0.1
  }
  state down label "failure" { -> up 1.0 }
}
property reach "failure" before return
is zero_variance avoid initial
"#;
        let setup = compile(source, &[]).unwrap();
        assert!(matches!(setup.property, Property::XReachAvoid { .. }));
        assert!(setup.property.avoid().contains(0));
    }

    #[test]
    fn midpoint_centre_is_the_default() {
        let source = r#"
model {
  state s0 initial {
    -> s1 [0.2, 0.4]
    -> s0 [0.6, 0.8]
  }
  state s1 label "goal" { -> s1 1.0 }
}
property reach "goal"
"#;
        let setup = compile(source, &[]).unwrap();
        assert!((setup.center.prob(0, 1) - 0.3).abs() < 1e-12);
    }
}
