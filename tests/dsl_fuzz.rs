//! Seeded grammar fuzz sweep over the scenario DSL front end.
//!
//! A splitmix64-driven mutator corrupts valid DSL sources — byte
//! substitutions, insertions, deletions, truncations and line swaps —
//! and every mutant must come back from the validator as either a clean
//! parse or a **typed** error with a span inside the source: never a
//! panic, never a hang (every pass over the source is linear and the
//! expression parser is depth-capped), never an unspanned failure. The
//! same contract is pinned at the manifest layer: a mutant that fails
//! `dsl::validate` fails `RunSpec` parsing with `SpecError::Dsl`
//! carrying the identical diagnostic.
//!
//! The sweep is deterministic (fixed seed, fixed case count) so CI runs
//! are reproducible; deep-nesting and pathological-length inputs are
//! pinned explicitly alongside the random sweep.
//!
//! The same mutator style fuzzes whole `imcis.wire/2` request lines
//! against a live daemon: every mutant gets its answer on a connection
//! that stays open.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::panic::{self, AssertUnwindSafe};
use std::time::Duration;

use imcis_core::dsl::{self, DslError, MAX_EXPR_DEPTH};
use imcis_core::serve::{Client, Event, Request, ServeConfig, Server};
use imcis_core::{RunSpec, SpecError};
use serde::json::{self, Value};

/// The same splitmix64 the simulation engine uses for stream seeds —
/// deterministic, statistically solid, dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const COIN: &str = r#"scenario "coin"

param p = 0.5
param eps : float = 0.1
param horizon : int = 50

model {
  state s0 initial {
    -> heads [p - eps, p + eps] @ p
    -> tails [1 - p - eps, 1 - p + eps] @ 1 - p
  }
  state heads label "goal" { -> heads 1.0 }
  state tails label "sink" { -> tails 1.0 }
}

property reach "goal" avoid "sink" within horizon

is zero_variance
gamma center = 0.5
"#;

const PUMP: &str = r#"# two-state pump with a rare failure path
param fail = 0.001

model {
  state up initial label "init" {
    -> up [0.99, 0.999] @ 1 - fail
    -> down [fail / 2, fail * 2] @ fail
  }
  state down label "failure" {
    -> up 1.0
  }
}

property reach "failure" before return

is mixture(0.9) avoid initial
"#;

/// Bytes the mutator substitutes/inserts: grammar punctuation, digits,
/// quotes and whitespace — the characters most likely to knock the
/// source into an interesting invalid shape.
const POOL: &[u8] = b"{}[]()<>@=:,.+-*/\\\"#_ \t\nxq019ea";

fn mutate(source: &str, rng: &mut u64) -> String {
    let mut bytes = source.as_bytes().to_vec();
    let edits = 1 + (splitmix64(rng) % 4) as usize;
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        let pos = (splitmix64(rng) % bytes.len() as u64) as usize;
        match splitmix64(rng) % 5 {
            0 => bytes[pos] = POOL[(splitmix64(rng) % POOL.len() as u64) as usize],
            1 => bytes.insert(pos, POOL[(splitmix64(rng) % POOL.len() as u64) as usize]),
            2 => {
                bytes.remove(pos);
            }
            3 => bytes.truncate(pos),
            _ => {
                // Swap two whole lines — structurally valid tokens in a
                // structurally surprising order.
                let text = String::from_utf8(bytes).expect("ASCII pool keeps UTF-8");
                let mut lines: Vec<&str> = text.lines().collect();
                if lines.len() >= 2 {
                    let a = (splitmix64(rng) % lines.len() as u64) as usize;
                    let b = (splitmix64(rng) % lines.len() as u64) as usize;
                    lines.swap(a, b);
                }
                bytes = lines.join("\n").into_bytes();
            }
        }
    }
    String::from_utf8(bytes).expect("ASCII pool keeps UTF-8")
}

/// A span is valid when it points into the source (or just past its last
/// line, for end-of-source diagnostics).
fn assert_valid_span(err: &DslError, source: &str, case: usize) {
    let lines = source.lines().count().max(1);
    assert!(
        err.line >= 1 && err.line <= lines + 1,
        "case {case}: line {} outside 1..={} for: {err}",
        err.line,
        lines + 1
    );
    assert!(err.col >= 1, "case {case}: column 0 in: {err}");
}

fn fuzz_one(source: &str, case: usize) -> Option<DslError> {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| dsl::validate(source, &[])));
    match outcome {
        Err(_) => panic!("case {case}: validator panicked on mutant:\n---\n{source}\n---"),
        Ok(Ok(())) => None,
        Ok(Err(err)) => {
            assert_valid_span(&err, source, case);
            Some(err)
        }
    }
}

#[test]
fn mutated_sources_never_panic_and_errors_carry_valid_spans() {
    let mut rng = 0x1A1C_D501_u64;
    let mut rejected = 0usize;
    let mut accepted = 0usize;
    const CASES: usize = 3000;
    for case in 0..CASES {
        let base = if case % 2 == 0 { COIN } else { PUMP };
        let mutant = mutate(base, &mut rng);
        match fuzz_one(&mutant, case) {
            Some(_) => rejected += 1,
            None => accepted += 1,
        }
    }
    // Sanity on the mutator itself: it must actually break sources most
    // of the time, or the sweep is exercising nothing.
    assert!(
        rejected > CASES / 2,
        "mutator too tame: {rejected} rejects, {accepted} accepts"
    );
}

/// Every DSL failure surfaces at the manifest layer as the *same* typed,
/// spanned diagnostic (`SpecError::Dsl`), not a flattened string.
#[test]
fn manifest_layer_preserves_the_typed_spanned_error() {
    let mut rng = 0xD51_5EEDu64;
    let mut checked = 0usize;
    for case in 0..400 {
        let mutant = mutate(COIN, &mut rng);
        let Some(dsl_err) = fuzz_one(&mutant, case) else {
            continue;
        };
        let spec = Value::object([
            (
                "scenario".into(),
                Value::object([("dsl".into(), Value::Str(mutant.clone()))]),
            ),
            (
                "method".into(),
                Value::object([("name".into(), Value::Str("smc".into()))]),
            ),
        ]);
        match RunSpec::from_json(&spec) {
            Err(SpecError::Dsl(e)) => {
                assert_eq!(e, dsl_err, "case {case}: manifest diagnostic drifted");
                checked += 1;
            }
            other => panic!("case {case}: expected SpecError::Dsl, got {other:?}"),
        }
    }
    assert!(
        checked > 50,
        "too few rejected mutants reached the manifest check"
    );
}

#[test]
fn deep_expression_nesting_is_a_typed_depth_error_not_a_stack_overflow() {
    for extra in [0usize, 1, 1000, 20_000] {
        let depth = MAX_EXPR_DEPTH + extra;
        let source = format!(
            "param x = {}1{}\nmodel {{ state s0 initial {{ -> s0 1.0 }} }}\nproperty reach \"g\"",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let err = dsl::parse(&source).expect_err("over-deep nesting is rejected");
        assert!(
            err.message.contains("depth limit"),
            "depth {depth}: unexpected diagnostic: {err}"
        );
        assert_eq!(err.line, 1);
    }
    // At the limit itself, nesting is accepted.
    let ok_depth = MAX_EXPR_DEPTH - 1;
    let source = format!(
        "param x = {}1{}\nmodel {{ state s0 initial {{ -> s0 1.0 }} }}\nproperty reach \"g\"",
        "(".repeat(ok_depth),
        ")".repeat(ok_depth)
    );
    assert!(dsl::parse(&source).is_ok(), "nesting at the limit parses");
}

#[test]
fn pathological_inputs_stay_linear_and_typed() {
    // Unterminated constructs, repeated tokens, and a long single line:
    // all must fail fast with a span (never hang or panic).
    let cases = [
        "model {".to_string(),
        "model { state s0 initial {".to_string(),
        "\"".to_string(),
        "# only a comment".to_string(),
        "scenario \"x".to_string(),
        "-> ".repeat(10_000),
        "param ".repeat(5_000),
        "9".repeat(100_000),
        format!(
            "model {{ state s0 initial {{ -> s0 {} }} }}",
            "1.0 ".repeat(2_000)
        ),
    ];
    for (i, source) in cases.iter().enumerate() {
        let err = fuzz_one(source, i).expect("pathological input is rejected");
        assert_valid_span(&err, source, i);
    }
}

/// The request lines the wire fuzz mutates. A mutant that still decodes
/// as a submit runs one small illustrative `smc` job.
const WIRE_LINES: [&str; 3] = [
    r#"{"wire":"imcis.wire/2","type":"submit","suite":{"runs":[{"scenario":{"name":"illustrative"},"method":{"name":"smc","n_traces":300},"seed":7,"threads":1}],"threads":1}}"#,
    r#"{"wire":"imcis.wire/2","type":"ping"}"#,
    r#"{"wire":"imcis.wire/2","type":"status"}"#,
];

/// Bytes the wire mutator substitutes: JSON punctuation, digits, the
/// letters of `true`/`false`/`null` and whitespace other than a newline.
const WIRE_POOL: &[u8] = b"{}[]:,\"\\-+.eE0179truefalsn \t";

/// Duplicates or swaps keys of the request object or of its `suite`;
/// `None` when `bytes` is not a JSON object.
fn edit_keys(bytes: &[u8], rng: &mut u64) -> Option<Vec<u8>> {
    let mut value = json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
    let Value::Object(top) = &mut value else {
        return None;
    };
    let suite = top.iter().position(|(k, _)| k == "suite");
    let pairs = match (suite, splitmix64(rng) % 2) {
        (Some(i), 0) => match &mut top[i].1 {
            Value::Object(suite) => suite,
            _ => return None,
        },
        _ => top,
    };
    if pairs.is_empty() {
        return None;
    }
    let i = (splitmix64(rng) % pairs.len() as u64) as usize;
    let j = (splitmix64(rng) % pairs.len() as u64) as usize;
    if splitmix64(rng).is_multiple_of(2) {
        pairs.swap(i, j);
    } else {
        let duplicate = pairs[i].clone();
        pairs.insert(j, duplicate);
    }
    Some(value.to_string().into_bytes())
}

/// One to three edits: truncations, byte flips, duplicated or swapped
/// keys, runs of `[` up to 100,000 deep, and bytes that are not UTF-8.
/// No edit writes a newline, so a mutant stays one request line.
fn mutate_line(line: &str, rng: &mut u64) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..1 + splitmix64(rng) % 3 {
        let pos = (splitmix64(rng) % bytes.len() as u64) as usize;
        match splitmix64(rng) % 5 {
            0 => bytes.truncate(pos.max(1)),
            1 => bytes[pos] = WIRE_POOL[(splitmix64(rng) % WIRE_POOL.len() as u64) as usize],
            2 => bytes = edit_keys(&bytes, rng).unwrap_or(bytes),
            3 => {
                let depth = match splitmix64(rng) % 3 {
                    0 => 100_000,
                    1 => 120 + splitmix64(rng) % 16,
                    _ => 1 + splitmix64(rng) % 100_000,
                };
                bytes.splice(pos..pos, std::iter::repeat_n(b'[', depth as usize));
            }
            _ => bytes.insert(pos, 0x80 | splitmix64(rng) as u8),
        }
    }
    bytes
}

#[test]
fn mutated_wire_lines_each_get_an_answer_on_a_live_connection() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue: 64,
        rate: 0,
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut writer = TcpStream::connect(addr).unwrap();
    writer
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut read_event = |case: usize| {
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "case {case}: the daemon closed the connection");
        let value = json::parse(line.trim_end()).unwrap();
        Event::from_json(&value).unwrap_or_else(|e| panic!("case {case}: bad event {line}: {e}"))
    };

    let mut rng = 0x31AE_F022_u64;
    let (mut errors, mut jobs) = (0usize, 0usize);
    const CASES: usize = 600;
    for case in 0..CASES {
        let mut mutant = mutate_line(WIRE_LINES[case % WIRE_LINES.len()], &mut rng);
        let text = String::from_utf8_lossy(&mutant).into_owned();
        if text.trim().is_empty() {
            continue;
        }
        // The daemon's own reading of the line decides the answer.
        let request = json::parse(text.trim_end())
            .map_err(drop)
            .and_then(|v| Request::from_json(&v).map_err(drop));
        if matches!(request, Ok(Request::Shutdown | Request::Cancel { .. })) {
            continue;
        }
        mutant.push(b'\n');
        writer.write_all(&mutant).unwrap();
        let answer = read_event(case);
        let answered = match (&request, &answer) {
            (Ok(Request::Submit { .. }), Event::Accepted { .. }) => {
                while !matches!(read_event(case), Event::SuiteReport { .. }) {}
                jobs += 1;
                true
            }
            // A scenario that fails to build is a `session` error.
            (Ok(Request::Submit { .. }) | Err(()), Event::Error { .. }) => true,
            (Ok(Request::Ping), Event::Pong) | (Ok(Request::Status), Event::Status(_)) => true,
            (Ok(Request::Health), Event::Health(_)) => true,
            _ => false,
        };
        assert!(answered, "case {case}: answered {answer:?} to {text}");
        errors += usize::from(matches!(answer, Event::Error { .. }));
    }
    // The sweep must reach both the error paths and running jobs.
    assert!(errors > CASES / 2, "mutator too tame: {errors} errors");
    assert!(jobs > 0, "no mutant ran a job");

    writer.write_all(b"{\"type\": \"ping\"}\n").unwrap();
    assert!(matches!(read_event(CASES), Event::Pong));
    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap().unwrap();
}
