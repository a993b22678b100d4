//! The serving-layer contract, end to end:
//!
//! * a suite executed through `imcis serve` + the wire client yields a
//!   `SuiteReport` **byte-identical** to the direct `imcis suite` path,
//!   at worker counts {1, 2, 8} (the acceptance criterion — the daemon
//!   adds scheduling, never semantics);
//! * the process-wide `SetupCache` persists across jobs, clients and
//!   even client disconnects;
//! * failure paths are typed and pinned: malformed wire JSON and invalid
//!   `SuiteSpec`s produce `error` events (with the same `SpecError`
//!   messages the batch path prints) and leave the connection usable;
//! * a client disconnecting mid-stream never wedges the server;
//! * concurrent clients each get reports bit-identical to standalone
//!   runs;
//! * the `imcis.wire/2` robustness surface is pinned at the wire level:
//!   `cancel` stops a job at its next member boundary, `deadline_ms`
//!   turns not-yet-started members into typed `timeout` entries, a full
//!   queue answers `rejected {retry_after_ms}` instead of blocking, an
//!   idle client cannot delay a drain, and `shutting_down` reports
//!   in-flight job dispositions.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use imcis_core::serve::{
    Client, ServeConfig, ServeError, Server, MAX_REQUEST_LINE, RETRY_AFTER_MS,
};
use imcis_core::{Suite, SuiteSpec};
use serde::json::{self, Value};

const TABLE1_SUITE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/paper_table1_suite.json");

fn spawn_server(workers: usize) -> (SocketAddr, std::thread::JoinHandle<Result<(), ServeError>>) {
    spawn_server_with_queue(workers, 8)
}

fn spawn_server_with_queue(
    workers: usize,
    queue: usize,
) -> (SocketAddr, std::thread::JoinHandle<Result<(), ServeError>>) {
    spawn_server_with_config(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue,
        rate: 0,
    })
}

fn spawn_server_with_config(
    config: ServeConfig,
) -> (SocketAddr, std::thread::JoinHandle<Result<(), ServeError>>) {
    let server = Server::bind(config).expect("ephemeral bind");
    let addr = server.local_addr();
    (addr, server.spawn())
}

fn shut_down(addr: SocketAddr, handle: std::thread::JoinHandle<Result<(), ServeError>>) {
    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A raw wire connection for tests that need to send invalid bytes or
/// hang up at a precise point in the stream.
struct RawWire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawWire {
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        RawWire { reader, writer }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    fn read_event(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed the connection unexpectedly");
        json::parse(line.trim_end()).expect("events are valid JSON")
    }
}

fn event_type(event: &Value) -> &str {
    event
        .get("type")
        .and_then(Value::as_str)
        .unwrap_or("<none>")
}

fn tiny_suite(seed: u64) -> SuiteSpec {
    format!(
        r#"{{
            "runs": [
                {{"scenario": {{"name": "illustrative"}},
                 "method": {{"name": "smc", "n_traces": 200}},
                 "seed": {seed}, "threads": 1}},
                {{"scenario": {{"name": "illustrative"}},
                 "method": {{"name": "standard-is", "n_traces": 200}},
                 "seed": {seed}, "threads": 1}}
            ],
            "threads": 1
        }}"#
    )
    .parse()
    .unwrap()
}

/// Acceptance criterion: the daemon-served Table 1 suite is
/// byte-identical to `imcis suite specs/paper_table1_suite.json`, at
/// worker counts 1, 2 and 8 — and the member reports reassembled from
/// completion-order events match the direct run member-for-member.
#[test]
fn daemon_table1_suite_is_byte_identical_at_worker_counts_1_2_8() {
    let text = std::fs::read_to_string(TABLE1_SUITE).unwrap();
    let spec: SuiteSpec = text.parse().unwrap();
    let direct = Suite::from_spec(spec.clone()).unwrap().run().unwrap();
    let direct_stable = direct.to_json_stable().pretty();

    for workers in [1usize, 2, 8] {
        let (addr, handle) = spawn_server(workers);
        let mut client = Client::connect(addr).unwrap();
        let outcome = client.submit(&spec, |_, _| {}).unwrap();
        assert_eq!(
            outcome.suite_report.pretty(),
            direct_stable,
            "daemon output drifted from `imcis suite` at {workers} workers"
        );
        for (i, member) in outcome.members.iter().enumerate() {
            assert_eq!(
                member.pretty(),
                direct.members[i].to_json_stable().pretty(),
                "member {i} drifted at {workers} workers"
            );
        }
        shut_down(addr, handle);
    }
}

#[test]
fn malformed_wire_json_is_an_error_event_and_the_connection_survives() {
    let (addr, handle) = spawn_server(1);
    let mut wire = RawWire::connect(addr);

    // Not JSON at all: framing is line-based, so the server reports the
    // parse failure and keeps reading.
    wire.send("this is not json");
    let event = wire.read_event();
    assert_eq!(event_type(&event), "error");
    assert_eq!(event.get("error").and_then(Value::as_str), Some("wire"));
    let message = event.get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("not valid JSON"), "{message}");

    // Valid JSON, wrong shape.
    wire.send("{\"type\": \"teleport\"}");
    let event = wire.read_event();
    assert_eq!(event_type(&event), "error");
    assert_eq!(
        event.get("message").and_then(Value::as_str),
        Some(
            "unknown request type `teleport` (submit | cancel | status | health | ping | shutdown)"
        )
    );

    // A wrong wire schema tag is refused by name.
    wire.send("{\"wire\": \"imcis.wire/9\", \"type\": \"ping\"}");
    let event = wire.read_event();
    assert_eq!(
        event.get("message").and_then(Value::as_str),
        Some("unsupported wire schema `imcis.wire/9` (expected `imcis.wire/2`)")
    );

    // The same connection still serves real requests afterwards —
    // including a server-side file-referenced submit.
    wire.send("{\"type\": \"ping\"}");
    assert_eq!(event_type(&wire.read_event()), "pong");
    wire.send(&format!(
        "{{\"type\": \"submit\", \"file\": {}}}",
        Value::Str(TABLE1_SUITE.into())
    ));
    let event = wire.read_event();
    assert_eq!(event_type(&event), "accepted");
    assert_eq!(event.get("members").and_then(Value::as_u64), Some(5));
    let mut seen_members = 0;
    loop {
        let event = wire.read_event();
        match event_type(&event) {
            "member_report" => seen_members += 1,
            "suite_report" => break,
            other => panic!("unexpected event `{other}`"),
        }
    }
    assert_eq!(seen_members, 5);

    shut_down(addr, handle);
}

#[test]
fn invalid_suite_specs_reuse_the_pinned_spec_errors() {
    let (addr, handle) = spawn_server(1);
    let mut wire = RawWire::connect(addr);

    // An empty suite: the exact message the batch path pins.
    wire.send("{\"type\": \"submit\", \"suite\": {\"runs\": []}}");
    let event = wire.read_event();
    assert_eq!(event.get("error").and_then(Value::as_str), Some("spec"));
    assert_eq!(
        event.get("message").and_then(Value::as_str),
        Some(
            "spec does not match the schema: `suite.runs` must contain at least one run \
             (an empty suite has no report)"
        )
    );

    // A broken member carries its index, exactly as `imcis suite` would
    // report it.
    wire.send(
        "{\"type\": \"submit\", \"suite\": {\"runs\": [\
         {\"scenario\": {\"name\": \"illustrative\"}, \"method\": {\"name\": \"teleport\"}}]}}",
    );
    let event = wire.read_event();
    assert_eq!(event.get("error").and_then(Value::as_str), Some("spec"));
    let message = event.get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("`suite.runs[0]`"), "{message}");

    // An unknown scenario passes spec validation but fails the build —
    // reported as a `session` error, connection still usable.
    wire.send(
        "{\"type\": \"submit\", \"suite\": {\"runs\": [\
         {\"scenario\": {\"name\": \"atlantis\"}, \"method\": {\"name\": \"smc\"}}]}}",
    );
    let event = wire.read_event();
    assert_eq!(event.get("error").and_then(Value::as_str), Some("session"));

    // The typed client surfaces the same failure as `ServeError::Remote`
    // — and the error event still reaches the on_event hook first, so an
    // `--events` file always contains the line that explains the failure.
    drop(wire);
    let empty: Result<SuiteSpec, _> = "{\"runs\": []}".parse();
    assert!(empty.is_err(), "client-side parse already rejects it");
    let unknown_scenario: SuiteSpec = r#"{
        "runs": [{"scenario": {"name": "atlantis"}, "method": {"name": "smc"}}]
    }"#
    .parse()
    .expect("spec validation does not know scenario names");
    let mut client = Client::connect(addr).unwrap();
    let mut events = Vec::new();
    let err = client
        .submit(&unknown_scenario, |line, _| events.push(line.to_string()))
        .unwrap_err();
    match err {
        ServeError::Remote { error, .. } => assert_eq!(error, "session"),
        other => panic!("expected a remote session error, got {other}"),
    }
    assert!(
        events.iter().any(|l| l.contains("\"error\":\"session\"")),
        "the error event must reach on_event before being converted: {events:?}"
    );
    client.ping().unwrap();

    shut_down(addr, handle);
}

#[test]
fn disconnecting_mid_stream_leaves_the_server_serving_and_the_cache_warm() {
    let (addr, handle) = spawn_server(1);

    // Client A submits and hangs up right after `accepted` — member
    // reports have nowhere to go.
    let spec = tiny_suite(41);
    {
        let mut wire = RawWire::connect(addr);
        wire.send(&format!(
            "{{\"type\": \"submit\", \"suite\": {}}}",
            spec.to_json()
        ));
        let event = wire.read_event();
        assert_eq!(event_type(&event), "accepted");
        assert_eq!(event.get("setups_built").and_then(Value::as_u64), Some(1));
        // Hang up without reading another byte.
    }

    // Client B gets full service from the same daemon; the scenario A's
    // aborted job built is already cached (setups_built == 0).
    let direct = Suite::from_spec(spec.clone())
        .unwrap()
        .run()
        .unwrap()
        .to_json_stable()
        .pretty();
    let mut client = Client::connect(addr).unwrap();
    let outcome = client.submit(&spec, |_, _| {}).unwrap();
    assert_eq!(outcome.setups_built, 0, "cache survived the disconnect");
    assert_eq!(outcome.suite_report.pretty(), direct);

    shut_down(addr, handle);
}

/// A 3-member suite whose member 0 sleeps `delay_ms` before running —
/// the knob the cancellation/deadline/backpressure tests turn to hold a
/// worker busy at a known member boundary. Requires
/// `IMCIS_FAULT_INJECTION=1`.
fn delayed_suite(seed: u64, delay_ms: u64) -> SuiteSpec {
    format!(
        r#"{{
            "runs": [
                {{"scenario": {{"name": "illustrative"}},
                 "method": {{"name": "smc", "n_traces": 200}},
                 "seed": {seed}, "threads": 1}},
                {{"scenario": {{"name": "illustrative"}},
                 "method": {{"name": "smc", "n_traces": 200}},
                 "seed": {}, "threads": 1}},
                {{"scenario": {{"name": "illustrative"}},
                 "method": {{"name": "smc", "n_traces": 200}},
                 "seed": {}, "threads": 1}}
            ],
            "threads": 1,
            "fault": {{"seed": 1, "injections": [
                {{"member": 0, "kind": "delay", "delay_ms": {delay_ms}}}
            ]}}
        }}"#,
        seed + 1,
        seed + 2,
    )
    .parse()
    .unwrap()
}

/// Drains one job's event stream on a raw wire, returning the
/// manifest-ordered member statuses and the terminal report.
fn drain_job(wire: &mut RawWire, members: usize) -> (Vec<String>, Value) {
    let mut statuses = vec![String::new(); members];
    loop {
        let event = wire.read_event();
        match event_type(&event) {
            "member_report" => {
                let i = event.get("member_index").and_then(Value::as_usize).unwrap();
                statuses[i] = "ok".into();
            }
            "member_error" => {
                let i = event.get("member_index").and_then(Value::as_usize).unwrap();
                statuses[i] = event
                    .get("status")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string();
            }
            "suite_report" => {
                return (statuses, event.get("suite_report").unwrap().clone());
            }
            other => panic!("unexpected event `{other}`"),
        }
    }
}

#[test]
fn cancel_stops_a_job_at_the_next_member_boundary() {
    std::env::set_var(imcis_core::FAULT_ENV, "1");
    let (addr, handle) = spawn_server(1);

    // Member 0 sleeps for a second: with one worker, members 1 and 2
    // cannot start until it finishes — a wide-open cancellation window.
    let spec = delayed_suite(50, 1_000);
    let mut wire = RawWire::connect(addr);
    wire.send(&format!(
        "{{\"type\": \"submit\", \"suite\": {}}}",
        spec.to_json()
    ));
    let accepted = wire.read_event();
    assert_eq!(event_type(&accepted), "accepted");
    let job_id = accepted.get("job_id").and_then(Value::as_u64).unwrap();

    // Cancel from a second connection while member 0 is still sleeping
    // (the short sleep guarantees the worker has dequeued member 0, so
    // exactly the trailing members are cancelled).
    std::thread::sleep(std::time::Duration::from_millis(150));
    let mut client = Client::connect(addr).unwrap();
    client.cancel(job_id).unwrap();

    // The running member finishes (cancellation is honoured at member
    // boundaries, never mid-session); the rest become typed `cancelled`
    // entries with the pinned message.
    let (statuses, report) = drain_job(&mut wire, 3);
    assert_eq!(statuses, ["ok", "cancelled", "cancelled"]);
    let entries = report.get("reports").and_then(Value::as_array).unwrap();
    assert_eq!(
        entries[1].get("message").and_then(Value::as_str),
        Some("job cancelled by request")
    );

    // Cancelling a finished job is a typed queue error.
    let err = client.cancel(job_id).unwrap_err();
    match err {
        ServeError::Remote { error, message } => {
            assert_eq!(error, "queue");
            assert_eq!(message, format!("job {job_id} is not active"));
        }
        other => panic!("expected a remote queue error, got {other}"),
    }

    shut_down(addr, handle);
}

#[test]
fn deadlines_turn_unstarted_members_into_typed_timeouts() {
    std::env::set_var(imcis_core::FAULT_ENV, "1");
    let (addr, handle) = spawn_server(1);

    // Member 0 starts inside the 100 ms deadline but sleeps 400 ms, so
    // the deadline has passed by the time members 1 and 2 would start.
    // Deadlines are checked at member start only: the running member
    // still completes.
    let spec = delayed_suite(60, 400);
    let mut wire = RawWire::connect(addr);
    wire.send(&format!(
        "{{\"type\": \"submit\", \"deadline_ms\": 100, \"suite\": {}}}",
        spec.to_json()
    ));
    assert_eq!(event_type(&wire.read_event()), "accepted");
    let (statuses, report) = drain_job(&mut wire, 3);
    assert_eq!(statuses, ["ok", "timeout", "timeout"]);
    let entries = report.get("reports").and_then(Value::as_array).unwrap();
    assert_eq!(
        entries[2].get("message").and_then(Value::as_str),
        Some("job deadline of 100 ms exceeded")
    );
    // The summary rows carry the same statuses.
    let summary = report.get("summary").and_then(Value::as_array).unwrap();
    let row_statuses: Vec<&str> = summary
        .iter()
        .map(|row| row.get("status").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(row_statuses, ["ok", "timeout", "timeout"]);

    // A non-positive deadline is a pinned wire error.
    wire.send(&format!(
        "{{\"type\": \"submit\", \"deadline_ms\": 0, \"suite\": {}}}",
        spec.to_json()
    ));
    let event = wire.read_event();
    assert_eq!(event.get("error").and_then(Value::as_str), Some("wire"));
    assert_eq!(
        event.get("message").and_then(Value::as_str),
        Some("`deadline_ms` must be positive")
    );

    shut_down(addr, handle);
}

#[test]
fn a_full_queue_answers_rejected_instead_of_blocking() {
    std::env::set_var(imcis_core::FAULT_ENV, "1");
    // Queue capacity 2: the delayed 3-member suite can never fit, and a
    // 2-member suite fills the queue completely while it runs.
    let (addr, handle) = spawn_server_with_queue(1, 2);

    // Oversized: a typed queue error, not a hang.
    let mut wire = RawWire::connect(addr);
    wire.send(&format!(
        "{{\"type\": \"submit\", \"suite\": {}}}",
        delayed_suite(70, 10).to_json()
    ));
    let event = wire.read_event();
    assert_eq!(event.get("error").and_then(Value::as_str), Some("queue"));
    assert_eq!(
        event.get("message").and_then(Value::as_str),
        Some("suite has 3 members but the queue capacity is 2")
    );

    // Fill the queue with a slow 2-member job...
    let slow: SuiteSpec = r#"{
        "runs": [
            {"scenario": {"name": "illustrative"},
             "method": {"name": "smc", "n_traces": 200}, "seed": 71,
             "threads": 1},
            {"scenario": {"name": "illustrative"},
             "method": {"name": "smc", "n_traces": 200}, "seed": 72,
             "threads": 1}
        ],
        "threads": 1,
        "fault": {"seed": 1, "injections": [
            {"member": 0, "kind": "delay", "delay_ms": 800}
        ]}
    }"#
    .parse()
    .unwrap();
    wire.send(&format!(
        "{{\"type\": \"submit\", \"suite\": {}}}",
        slow.to_json()
    ));
    assert_eq!(event_type(&wire.read_event()), "accepted");

    // ...and watch a concurrent submission bounce with the retry hint.
    let spec = tiny_suite(73);
    let mut client = Client::connect(addr).unwrap();
    let err = client.submit(&spec, |_, _| {}).unwrap_err();
    match err {
        ServeError::Rejected { retry_after_ms } => assert_eq!(retry_after_ms, RETRY_AFTER_MS),
        other => panic!("expected a rejection, got {other}"),
    }

    // Once the slow job drains, the same connection resubmits cleanly
    // and the report is byte-identical to the batch path.
    let (statuses, _) = drain_job(&mut wire, 2);
    assert_eq!(statuses, ["ok", "ok"]);
    let direct = Suite::from_spec(spec.clone())
        .unwrap()
        .run()
        .unwrap()
        .to_json_stable()
        .pretty();
    let outcome = client.submit(&spec, |_, _| {}).unwrap();
    assert_eq!(outcome.suite_report.pretty(), direct);

    shut_down(addr, handle);
}

#[test]
fn an_idle_client_cannot_delay_the_shutdown_drain() {
    std::env::set_var(imcis_core::FAULT_ENV, "1");
    let (addr, handle) = spawn_server(1);

    // A client that connects and never sends a line: without read
    // deadlines its handler thread would block in read_line forever and
    // the drain would wait on it.
    let idle = TcpStream::connect(addr).unwrap();

    // Shutdown arrives while a delayed job is still in flight, so the
    // `shutting_down` event reports its disposition.
    let spec = delayed_suite(80, 400);
    let mut wire = RawWire::connect(addr);
    wire.send(&format!(
        "{{\"type\": \"submit\", \"suite\": {}}}",
        spec.to_json()
    ));
    let accepted = wire.read_event();
    assert_eq!(event_type(&accepted), "accepted");
    let job_id = accepted.get("job_id").and_then(Value::as_u64).unwrap();

    let mut shutdown_wire = RawWire::connect(addr);
    shutdown_wire.send("{\"type\": \"shutdown\"}");
    let event = shutdown_wire.read_event();
    assert_eq!(event_type(&event), "shutting_down");
    let jobs = event.get("jobs").and_then(Value::as_array).unwrap();
    assert_eq!(jobs.len(), 1, "the in-flight job must be reported");
    assert_eq!(jobs[0].get("job_id").and_then(Value::as_u64), Some(job_id));
    assert_eq!(jobs[0].get("members").and_then(Value::as_u64), Some(3));

    // The in-flight job still drains to completion for its client...
    let (statuses, _) = drain_job(&mut wire, 3);
    assert_eq!(statuses, ["ok", "ok", "ok"]);

    // ...and the server exits promptly despite the idle connection.
    let started = std::time::Instant::now();
    handle.join().unwrap().unwrap();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "an idle client delayed the drain: {:?}",
        started.elapsed()
    );
    drop(idle);
}

/// Satellite pin: the `health` request/response pair, at the wire
/// level. The response carries exactly the documented envelope —
/// `wire`, `type`, `version`, `workers`, `uptime_ms` — and answering it
/// must not require the job queue (pinned here by probing *while* a
/// 1-worker daemon is busy with a delayed member).
#[test]
fn health_request_answers_identity_without_touching_the_queue() {
    std::env::set_var(imcis_core::FAULT_ENV, "1");
    let (addr, handle) = spawn_server(1);

    let mut wire = RawWire::connect(addr);
    wire.send("{\"wire\": \"imcis.wire/2\", \"type\": \"health\"}");
    let event = wire.read_event();
    assert_eq!(event_type(&event), "health");
    assert_eq!(
        event.get("wire").and_then(Value::as_str),
        Some("imcis.wire/2")
    );
    let version = event.get("version").and_then(Value::as_str).unwrap();
    assert!(!version.is_empty());
    assert_eq!(event.get("workers").and_then(Value::as_u64), Some(1));
    assert!(event.get("uptime_ms").and_then(Value::as_u64).is_some());
    let keys: Vec<&str> = event
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["wire", "type", "version", "workers", "uptime_ms"],
        "the health answer shape is pinned field-for-field"
    );

    // Hold the only worker busy, then probe from a second connection:
    // health answers immediately because it never touches the queue.
    let mut busy = RawWire::connect(addr);
    busy.send(&format!(
        "{{\"type\": \"submit\", \"suite\": {}}}",
        delayed_suite(90, 1_500).to_json()
    ));
    assert_eq!(event_type(&busy.read_event()), "accepted");
    let started = std::time::Instant::now();
    let mut probe = Client::connect(addr).unwrap();
    let health = probe.health().unwrap();
    assert!(
        started.elapsed() < std::time::Duration::from_millis(500),
        "health blocked behind a busy worker: {:?}",
        started.elapsed()
    );
    assert_eq!(health.workers, 1);
    let (statuses, _) = drain_job(&mut busy, 3);
    assert_eq!(statuses, ["ok", "ok", "ok"]);

    shut_down(addr, handle);
}

/// Satellite pin: per-connection token-bucket rate limiting. With
/// `--rate 1`, the first submit on a connection passes, an immediate
/// second submit is answered with the existing `rejected
/// {retry_after_ms}` shape, a *different* connection is unaffected
/// (the bucket is per connection), probes are never limited, and after
/// honouring the hint the same connection submits successfully again.
#[test]
fn rate_limited_submits_answer_rejected_with_a_retry_hint() {
    let (addr, handle) = spawn_server_with_config(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue: 8,
        rate: 1,
    });
    let spec = tiny_suite(95);
    let direct = Suite::from_spec(spec.clone())
        .unwrap()
        .run()
        .unwrap()
        .to_json_stable()
        .pretty();

    let mut client = Client::connect(addr).unwrap();
    let outcome = client.submit(&spec, |_, _| {}).unwrap();
    assert_eq!(outcome.suite_report.pretty(), direct);

    // The bucket is empty now: the next submit on this connection
    // bounces with the same `rejected` shape a full queue produces.
    let retry_after_ms = match client.submit(&spec, |_, _| {}).unwrap_err() {
        ServeError::Rejected { retry_after_ms } => retry_after_ms,
        other => panic!("expected a rate-limit rejection, got {other}"),
    };
    assert!(
        (1..=1_000).contains(&retry_after_ms),
        "the hint must be the time until the bucket refills, got {retry_after_ms}"
    );

    // Per connection, not per server: a fresh connection has its own
    // full bucket, and probes on the limited connection still answer.
    let mut other = Client::connect(addr).unwrap();
    assert_eq!(
        other
            .submit(&spec, |_, _| {})
            .unwrap()
            .suite_report
            .pretty(),
        direct
    );
    client.ping().unwrap();
    client.health().unwrap();

    // Honouring the hint makes the original connection usable again.
    std::thread::sleep(std::time::Duration::from_millis(retry_after_ms + 100));
    let outcome = client.submit(&spec, |_, _| {}).unwrap();
    assert_eq!(outcome.suite_report.pretty(), direct);

    shut_down(addr, handle);
}

#[test]
fn concurrent_clients_get_reports_bit_identical_to_standalone_runs() {
    let (addr, handle) = spawn_server(2);

    let specs = [tiny_suite(7), tiny_suite(8)];
    let outcomes: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client
                        .submit(spec, |_, _| {})
                        .unwrap()
                        .suite_report
                        .pretty()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (spec, served) in specs.iter().zip(&outcomes) {
        let standalone = Suite::from_spec(spec.clone())
            .unwrap()
            .run()
            .unwrap()
            .to_json_stable()
            .pretty();
        assert_eq!(
            served, &standalone,
            "a concurrently served suite drifted from its standalone run"
        );
    }

    shut_down(addr, handle);
}

/// Pin: admission comes before the build. A suite that can
/// never fit the queue is refused with the pinned `queue` message
/// before any of its scenarios is built, and a job whose build fails
/// hands its reserved queue slots back.
#[test]
fn a_refused_job_builds_nothing_and_a_failed_build_frees_its_slots() {
    let (addr, handle) = spawn_server_with_queue(1, 2);
    let three_members: SuiteSpec = r#"{
        "runs": [
            {"scenario": {"name": "illustrative"},
             "method": {"name": "smc", "n_traces": 200}, "seed": 1, "threads": 1},
            {"scenario": {"name": "illustrative"},
             "method": {"name": "smc", "n_traces": 200}, "seed": 2, "threads": 1},
            {"scenario": {"name": "illustrative"},
             "method": {"name": "smc", "n_traces": 200}, "seed": 3, "threads": 1}
        ],
        "threads": 1
    }"#
    .parse()
    .unwrap();
    let mut client = Client::connect(addr).unwrap();
    match client.submit(&three_members, |_, _| {}).unwrap_err() {
        ServeError::Remote { error, message } => {
            assert_eq!(error, "queue");
            assert_eq!(message, "suite has 3 members but the queue capacity is 2");
        }
        other => panic!("expected a remote queue error, got {other}"),
    }
    assert_eq!(
        client.daemon_status().unwrap().cache_size,
        0,
        "a refused job must not build its scenarios"
    );

    // Two members fit, but the scenario does not build: the reserved
    // slots come back with the `session` error.
    let unbuildable: SuiteSpec = r#"{
        "runs": [
            {"scenario": {"name": "atlantis"}, "method": {"name": "smc"}},
            {"scenario": {"name": "atlantis"}, "method": {"name": "smc"}}
        ]
    }"#
    .parse()
    .unwrap();
    match client.submit(&unbuildable, |_, _| {}).unwrap_err() {
        ServeError::Remote { error, .. } => assert_eq!(error, "session"),
        other => panic!("expected a remote session error, got {other}"),
    }
    assert_eq!(client.daemon_status().unwrap().queue_depth, 0);

    shut_down(addr, handle);
}

/// A `ping` request padded to exactly `len` bytes (a ping ignores keys
/// it does not know).
fn padded_ping(len: usize) -> String {
    let (head, tail) = ("{\"type\": \"ping\", \"pad\": \"", "\"}");
    format!("{head}{}{tail}", "x".repeat(len - head.len() - tail.len()))
}

/// Pin: request lines are capped at `MAX_REQUEST_LINE` bytes.
/// A line exactly at the cap is served; one byte more is discarded up
/// to its newline and answered with one pinned `wire` error, and the
/// connection stays usable.
#[test]
fn an_oversized_request_line_is_a_wire_error_and_the_connection_survives() {
    let (addr, handle) = spawn_server(1);
    let mut wire = RawWire::connect(addr);

    wire.send(&padded_ping(MAX_REQUEST_LINE));
    assert_eq!(event_type(&wire.read_event()), "pong");

    wire.send(&padded_ping(MAX_REQUEST_LINE + 1));
    let event = wire.read_event();
    assert_eq!(event.get("error").and_then(Value::as_str), Some("wire"));
    assert_eq!(
        event.get("message").and_then(Value::as_str),
        Some("request line is longer than 16777216 bytes")
    );

    wire.send("{\"type\": \"ping\"}");
    assert_eq!(event_type(&wire.read_event()), "pong");

    shut_down(addr, handle);
}
