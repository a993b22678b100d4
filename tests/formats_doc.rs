//! `docs/FORMATS.md` is normative and must not rot: every ```json code
//! block in it is parsed through the *real* validators — manifests
//! through the strict `RunSpec`/`SuiteSpec` parsers, reports through
//! `Report::from_json`/`SuiteReport::from_json`, wire messages
//! through `Request::from_json`/`Event::from_json` — and every ```dsl block
//! through the real scenario-DSL compiler. A documented example that
//! the implementation would reject fails this test.

use imcis_core::serve::{Event, Request};
use imcis_core::{
    Report, RunSpec, SuiteReport, SuiteSpec, REPORT_SCHEMA, RUNSPEC_SCHEMA, SUITEREPORT_SCHEMA,
    SUITEREPORT_SCHEMA_V3, SUITESPEC_SCHEMA,
};
use serde::json::{self, Value};

const FORMATS_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/FORMATS.md");

/// Extracts the contents of every fenced block with the given info tag.
fn fenced_blocks(markdown: &str, tag: &str) -> Vec<String> {
    let fence = format!("```{tag}");
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in markdown.lines() {
        match &mut current {
            None if line.trim() == fence => current = Some(String::new()),
            None => {}
            Some(block) => {
                if line.trim() == "```" {
                    blocks.push(current.take().expect("block in progress"));
                } else {
                    block.push_str(line);
                    block.push('\n');
                }
            }
        }
    }
    assert!(current.is_none(), "unterminated ```{tag} block");
    blocks
}

fn json_blocks(markdown: &str) -> Vec<String> {
    fenced_blocks(markdown, "json")
}

/// A suitespec whose `runs` still carry a `sweep` member is *input*
/// sugar: it parses, but its canonical output is the expanded member
/// list, so the byte-identity assertion does not apply to it.
fn has_sweep_member(value: &Value) -> bool {
    value
        .get("runs")
        .and_then(Value::as_array)
        .is_some_and(|runs| runs.iter().any(|m| m.get("sweep").is_some()))
}

#[test]
fn every_documented_example_passes_the_real_validators() {
    let markdown = std::fs::read_to_string(FORMATS_MD).expect("docs/FORMATS.md exists");
    let blocks = json_blocks(&markdown);

    // Tallies per category: a refactor that silently drops examples (or
    // the extractor breaking) fails the floor assertions below.
    let (mut runspecs, mut suitespecs, mut reports, mut suitereports) = (0, 0, 0, 0);
    let (mut requests, mut events) = (0, 0);

    for (i, block) in blocks.iter().enumerate() {
        let value = json::parse(block)
            .unwrap_or_else(|e| panic!("docs/FORMATS.md json block #{i} is not valid JSON: {e}"));
        let context = |what: &str, e: String| {
            panic!("docs/FORMATS.md json block #{i} fails the {what} validator: {e}")
        };
        if value.get("wire").is_some() {
            // Wire messages: requests go through the server's own parser,
            // events through the client's validator. `status` and
            // `health` each name both a request and an event — the event
            // carries the payload fields (load data, identity), so
            // whichever validator accepts it decides.
            let kind = value.get("type").and_then(Value::as_str).unwrap_or("");
            let is_request_kind = matches!(
                kind,
                "submit" | "cancel" | "status" | "health" | "ping" | "shutdown"
            );
            let dual_role = matches!(kind, "status" | "health");
            if !is_request_kind || (dual_role && Event::from_json(&value).is_ok()) {
                Event::from_json(&value)
                    .map(drop)
                    .unwrap_or_else(|e| context("wire event", e));
                // The typed codec round-trips every documented event:
                // decoding and encoding again gives back the same value,
                // key order included.
                let decoded = Event::from_json(&value).expect("validated above");
                assert_eq!(
                    decoded.to_json(),
                    value,
                    "docs/FORMATS.md json block #{i} does not survive an Event round trip"
                );
                events += 1;
                // Embedded payloads were already validated transitively;
                // tally the deep ones so the floors below stay honest.
                if kind == "member_report" || kind == "stage_report" {
                    reports += 1;
                }
            } else {
                match Request::from_json(&value) {
                    Ok(
                        Request::Submit { .. }
                        | Request::Cancel { .. }
                        | Request::Status
                        | Request::Health
                        | Request::Ping
                        | Request::Shutdown,
                    ) => {}
                    Err((class, message)) => {
                        context("wire request", format!("[{class}] {message}"))
                    }
                }
                requests += 1;
            }
            continue;
        }
        match value.get("schema").and_then(Value::as_str) {
            Some(RUNSPEC_SCHEMA) => {
                if let Err(e) = RunSpec::from_json(&value) {
                    context("RunSpec", e.to_string());
                }
                runspecs += 1;
            }
            Some(SUITESPEC_SCHEMA) => {
                if let Err(e) = SuiteSpec::from_json_with_base(&value, None) {
                    context("SuiteSpec", e.to_string());
                }
                suitespecs += 1;
            }
            Some(REPORT_SCHEMA) => {
                Report::from_json(&value)
                    .map(drop)
                    .unwrap_or_else(|e| context("Report", e));
                reports += 1;
            }
            Some(SUITEREPORT_SCHEMA | SUITEREPORT_SCHEMA_V3) => {
                SuiteReport::from_json(&value)
                    .map(drop)
                    .unwrap_or_else(|e| context("SuiteReport", e));
                suitereports += 1;
            }
            other => panic!("docs/FORMATS.md json block #{i} has no known schema tag: {other:?}"),
        }
    }

    // One complete example per schema is the documented contract; the
    // wire/2 floors cover the robustness surface (cancel, status,
    // deadline_ms, rejected, member_error, stage_report,
    // shutting_down).
    assert!(runspecs >= 1, "no imcis.runspec/1 example found");
    assert!(
        suitespecs >= 3,
        "imcis.suitespec/1 examples missing (plain + fault + campaign)"
    );
    assert!(reports >= 2, "imcis.report/2 examples missing");
    assert!(
        suitereports >= 2,
        "imcis.suitereport/2 + /3 examples missing"
    );
    assert!(requests >= 6, "wire request examples missing");
    assert!(events >= 12, "wire event examples missing");
}

/// The documented round-trip claim: canonical examples reserialize
/// byte-identically.
#[test]
fn documented_manifest_examples_are_canonical() {
    let markdown = std::fs::read_to_string(FORMATS_MD).expect("docs/FORMATS.md exists");
    for block in json_blocks(&markdown) {
        let value = json::parse(&block).unwrap();
        match value.get("schema").and_then(Value::as_str) {
            Some(RUNSPEC_SCHEMA) => {
                let spec = RunSpec::from_json(&value).unwrap();
                assert_eq!(
                    spec.to_json_string(),
                    block,
                    "the runspec example is not in canonical form"
                );
            }
            Some(SUITESPEC_SCHEMA) => {
                let spec = SuiteSpec::from_json_with_base(&value, None).unwrap();
                if has_sweep_member(&value) {
                    // Sweep members expand at parse time, so the input
                    // is not its own canonical form — but the expanded
                    // output must be a parse → serialize fixpoint.
                    let expanded = spec.to_json_string();
                    assert!(
                        !expanded.contains("\"sweep\""),
                        "serialized suitespec must not carry sweeps"
                    );
                    let reparsed: SuiteSpec = expanded.parse().unwrap();
                    assert_eq!(reparsed.to_json_string(), expanded);
                } else {
                    assert_eq!(
                        spec.to_json_string(),
                        block,
                        "the suitespec example is not in canonical form"
                    );
                }
            }
            _ => {}
        }
    }
}

/// Every ```dsl block compiles through the real scenario-DSL front end
/// with no external bindings.
#[test]
fn every_documented_dsl_example_compiles() {
    let markdown = std::fs::read_to_string(FORMATS_MD).expect("docs/FORMATS.md exists");
    let blocks = fenced_blocks(&markdown, "dsl");
    assert!(
        blocks.len() >= 2,
        "expected at least two documented DSL sources, found {}",
        blocks.len()
    );
    for (i, source) in blocks.iter().enumerate() {
        imcis_core::dsl::validate(source, &[])
            .unwrap_or_else(|e| panic!("docs/FORMATS.md dsl block #{i} does not compile: {e}"));
    }
    // The embedded sources inside the documented `{"dsl": ...}` manifests
    // are exercised transitively by the json-block tests above (manifest
    // parsing validates DSL scenarios eagerly).
}
