//! The campaign execution contract, end to end:
//!
//! * the checked-in CE campaign suite produces **bit-identical**
//!   `SuiteReport`s at suite thread budgets {1, 2, 8}, and its
//!   final-stage γ_true coverage beats the fixed-mixture baseline — the
//!   acceptance criterion of the campaign layer (adaptation across
//!   stages on one warm setup, still a pure function of the manifest);
//! * the same suite served through the daemon **and** through the
//!   router is byte-identical to the batch artefact, with `stage_report`
//!   events streaming each finished stage's report verbatim;
//! * fault injection at stage boundaries produces typed per-stage
//!   entries — earlier stages keep their reports, the failing stage
//!   carries the pinned deterministic message, and the suite survives;
//! * cancelling a job between stages ends the campaign with a typed
//!   `cancelled` stage entry, and the daemon's `status` reports the
//!   in-flight campaign's stage progress while it runs.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use imcis_core::serve::{Client, ServeConfig, ServeError, Server, StatusSnapshot};
use imcis_core::{MemberStatus, Router, RouterConfig, Suite, SuiteSpec};
use serde::json::{self, Value};

const CE_CAMPAIGN_SUITE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/specs/group_repair_ce_campaign.json"
);

fn load_ce_campaign_suite() -> SuiteSpec {
    std::fs::read_to_string(CE_CAMPAIGN_SUITE)
        .expect("checked-in campaign manifest")
        .parse()
        .expect("checked-in campaign manifest parses")
}

fn spawn_daemon(workers: usize) -> (SocketAddr, std::thread::JoinHandle<Result<(), ServeError>>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue: 16,
        rate: 0,
    })
    .expect("ephemeral daemon bind");
    let addr = server.local_addr();
    (addr, server.spawn())
}

fn spawn_router(
    backends: Vec<String>,
) -> (SocketAddr, std::thread::JoinHandle<Result<(), ServeError>>) {
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends,
        queue: 64,
        heartbeat_ms: 100,
    })
    .expect("ephemeral router bind");
    let addr = router.local_addr();
    (addr, router.spawn())
}

fn shut_down(addr: SocketAddr, handle: std::thread::JoinHandle<Result<(), ServeError>>) {
    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A raw wire connection for tests that need to act at a precise point
/// in the event stream (here: between campaign stages).
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

/// The campaign determinism acceptance criterion: the checked-in CE
/// campaign suite — a fixed-mixture baseline plus a four-stage
/// cross-entropy campaign over the same cached group-repair setup — is
/// bit-identical at suite thread budgets 1, 2 and 8, and at every
/// budget the campaign's final stage covers the true γ at least as well
/// as the baseline (here: full coverage against the baseline's
/// under-coverage).
#[test]
fn ce_campaign_suite_is_bit_identical_at_thread_counts_1_2_8() {
    let spec = load_ce_campaign_suite();
    let suite = Suite::from_spec(spec).unwrap();
    assert_eq!(
        suite.unique_setups(),
        1,
        "baseline and campaign share one group-repair build"
    );

    let baseline_stable = suite.run_with_threads(1).unwrap().to_json_stable().pretty();
    for threads in [2usize, 8] {
        let stable = suite
            .run_with_threads(threads)
            .unwrap()
            .to_json_stable()
            .pretty();
        assert_eq!(
            stable, baseline_stable,
            "campaign suite report drifted at {threads} suite threads"
        );
    }

    // The stable form is a valid `/3` suite report whose coverage
    // ordering holds: CE campaign final stage ≥ fixed mixture.
    let value = json::parse(&baseline_stable).unwrap();
    imcis_core::SuiteReport::from_json(&value).expect("report validates");
    assert_eq!(
        value.get("schema").and_then(Value::as_str),
        Some("imcis.suitereport/3")
    );
    let reports = value.get("reports").and_then(Value::as_array).unwrap();
    let coverage = |report: &Value| {
        report
            .get("coverage")
            .and_then(|c| c.get("gamma_true"))
            .and_then(Value::as_f64)
            .expect("group repair knows its true γ")
    };
    let baseline_coverage = coverage(reports[0].get("report").unwrap());
    let stages = reports[1]
        .get("campaign")
        .and_then(|c| c.get("stages"))
        .and_then(Value::as_array)
        .unwrap();
    let final_coverage = coverage(stages.last().unwrap().get("report").unwrap());
    assert!(final_coverage >= baseline_coverage);
    assert_eq!(final_coverage, 1.0);
    assert!(baseline_coverage < 1.0);
}

/// Served campaigns add transport, never semantics: through the daemon
/// and through a router-fronted fleet, the CE campaign suite report is
/// byte-identical to the batch artefact, the campaign member's wire
/// entry is the verbatim `reports[]` entry, and one `stage_report`
/// event streams each finished stage's report verbatim, in stage order.
#[test]
fn served_campaign_suite_is_byte_identical_through_daemon_and_router() {
    let spec = load_ce_campaign_suite();
    let direct = Suite::from_spec(spec.clone()).unwrap().run().unwrap();
    let direct_stable = direct.to_json_stable().pretty();
    let direct_entry = direct.members[1].to_json_stable();
    let direct_stage_reports: Vec<String> = direct.members[1]
        .campaign()
        .unwrap()
        .stages
        .iter()
        .map(|s| s.report().unwrap().to_json_stable().pretty())
        .collect();
    assert_eq!(direct_stage_reports.len(), 4);

    let check_stage_events = |events: &[Value]| {
        let stage_events: Vec<&Value> = events
            .iter()
            .filter(|e| event_type(e) == "stage_report")
            .collect();
        assert_eq!(
            stage_events.len(),
            direct_stage_reports.len(),
            "one stage_report per finished stage"
        );
        for (stage, event) in stage_events.iter().enumerate() {
            assert_eq!(event.get("member_index").and_then(Value::as_u64), Some(1));
            assert_eq!(
                event.get("stage").and_then(Value::as_usize),
                Some(stage),
                "stage reports arrive in stage order"
            );
            assert_eq!(
                event.get("stages_done").and_then(Value::as_usize),
                Some(stage + 1)
            );
            assert_eq!(
                event.get("report").unwrap().pretty(),
                direct_stage_reports[stage],
                "stage {stage} report drifted on the wire"
            );
        }
    };

    // Through the daemon.
    let (addr, handle) = spawn_daemon(2);
    let mut events = Vec::new();
    let mut client = Client::connect(addr).unwrap();
    let outcome = client
        .submit(&spec, |_, event| events.push(event.clone()))
        .unwrap();
    assert_eq!(
        outcome.suite_report.pretty(),
        direct_stable,
        "daemon-served campaign suite drifted from the batch artefact"
    );
    assert_eq!(
        outcome.members[1].pretty(),
        direct_entry.pretty(),
        "the wire member entry is the verbatim reports[] entry"
    );
    check_stage_events(&events);
    shut_down(addr, handle);

    // Through a router-fronted fleet: same bytes, stage reports
    // forwarded.
    let fleet: Vec<_> = (0..2).map(|_| spawn_daemon(2)).collect();
    let addrs: Vec<String> = fleet.iter().map(|(a, _)| a.to_string()).collect();
    let (router_addr, router_handle) = spawn_router(addrs);
    let mut events = Vec::new();
    let mut client = Client::connect(router_addr).unwrap();
    let outcome = client
        .submit(&spec, |_, event| events.push(event.clone()))
        .unwrap();
    assert_eq!(
        outcome.suite_report.pretty(),
        direct_stable,
        "router-served campaign suite drifted from the batch artefact"
    );
    check_stage_events(&events);
    // Router shutdown fans out to every live backend — just join them.
    shut_down(router_addr, router_handle);
    for (_, handle) in fleet {
        handle.join().unwrap().unwrap();
    }
}

/// A cheap two-campaign suite over the illustrative scenario with
/// stage-targeted fault injections: a panic at stage 1 of member 0 and
/// a (stage-0) transient I/O error on member 1.
fn faulted_campaign_suite() -> SuiteSpec {
    r#"{
        "runs": [
            {"campaign": {
                "run": {"scenario": {"name": "illustrative"},
                        "method": {"name": "ce-campaign", "n_traces": 200,
                                   "training_traces": 200},
                        "seed": 11, "threads": 1},
                "stages": 3}},
            {"campaign": {
                "run": {"scenario": {"name": "illustrative"},
                        "method": {"name": "ce-campaign", "n_traces": 200,
                                   "training_traces": 200},
                        "seed": 12, "threads": 1},
                "stages": 2}}
        ],
        "threads": 1,
        "fault": {"seed": 5, "injections": [
            {"member": 0, "kind": "panic", "stage": 1},
            {"member": 1, "kind": "io-error"}
        ]}
    }"#
    .parse()
    .unwrap()
}

/// Stage-boundary fault injection: the failing stage becomes a typed
/// per-stage entry with the pinned deterministic message, earlier
/// stages keep their reports, the member-level status is the final
/// stage's, and the suite (and its other members) survive.
#[test]
fn stage_faults_produce_typed_per_stage_entries() {
    std::env::set_var(imcis_core::FAULT_ENV, "1");
    let spec = faulted_campaign_suite();
    let plan = spec.fault.clone().expect("the suite carries a fault plan");
    let report = Suite::from_spec(spec).unwrap().run().unwrap();

    // Member 0: stage 0 completed and keeps its report; stage 1 is the
    // injected panic, ending the campaign before stage 2.
    let campaign = report.members[0].campaign().unwrap();
    assert_eq!(campaign.stages.len(), 2, "the campaign stops at the fault");
    assert!(campaign.stages[0].report().is_some());
    assert_eq!(campaign.stages[1].status(), MemberStatus::Panic);
    assert_eq!(
        campaign.stages[1].message(),
        Some(plan.stage_panic_message(0, 1).as_str())
    );
    assert_eq!(report.members[0].status(), MemberStatus::Panic);

    // Member 1: a rule without a `stage` fires at stage 0 — the
    // campaign fails before producing any report, with the pinned
    // stage-0 message.
    let campaign = report.members[1].campaign().unwrap();
    assert_eq!(campaign.stages.len(), 1);
    assert_eq!(campaign.stages[0].status(), MemberStatus::Error);
    assert_eq!(
        campaign.stages[0].message(),
        Some(plan.stage_io_error_message(1, 0).as_str())
    );
    assert!(campaign.final_report().is_none());

    // The failure summary names both members, and the stable JSON still
    // validates as a `/3` suite report.
    let failures: Vec<usize> = report.failures().map(|(i, _, _)| i).collect();
    assert_eq!(failures, [0, 1]);
    imcis_core::SuiteReport::from_json(&report.to_json_stable())
        .expect("a faulted campaign report still validates");
}

/// Cancellation between stages: a delay injected before stage 1 holds
/// the campaign at a stage boundary; cancelling there lets the running
/// stage finish and turns the next stage into a typed `cancelled`
/// entry. While the campaign is in flight, the daemon's `status`
/// reports its per-member stage progress.
#[test]
fn cancel_stops_a_campaign_between_stages() {
    std::env::set_var(imcis_core::FAULT_ENV, "1");
    let (addr, handle) = spawn_daemon(1);

    let spec: SuiteSpec = r#"{
        "runs": [
            {"campaign": {
                "run": {"scenario": {"name": "illustrative"},
                        "method": {"name": "ce-campaign", "n_traces": 200,
                                   "training_traces": 200},
                        "seed": 21, "threads": 1},
                "stages": 3}}
        ],
        "threads": 1,
        "fault": {"seed": 6, "injections": [
            {"member": 0, "kind": "delay", "delay_ms": 1500, "stage": 1}
        ]}
    }"#
    .parse()
    .unwrap();

    let mut wire = RawWire::connect(addr);
    wire.send(&format!(
        "{{\"type\": \"submit\", \"suite\": {}}}",
        spec.to_json()
    ));
    let accepted = wire.read_event();
    assert_eq!(event_type(&accepted), "accepted");
    let job_id = accepted.get("job_id").and_then(Value::as_u64).unwrap();

    // Stage 0 completes; the injected delay now holds the worker at the
    // stage 0 → 1 boundary for 1.5 s — a wide-open window to observe
    // progress and cancel.
    let event = wire.read_event();
    assert_eq!(event_type(&event), "stage_report");
    assert_eq!(event.get("stage").and_then(Value::as_u64), Some(0));
    // Let the worker get past stage 1's skip check and into the
    // injected delay: a cancel racing into the instants before the
    // check would skip stage 1 instead of letting it finish.
    std::thread::sleep(std::time::Duration::from_millis(400));

    // `status` reports the in-flight campaign's progress.
    let mut probe = Client::connect(addr).unwrap();
    let StatusSnapshot::Daemon(status) = probe.status().unwrap() else {
        panic!("a daemon answers with a daemon snapshot");
    };
    let progress = status
        .campaigns
        .iter()
        .find(|c| c.job_id == job_id)
        .expect("the in-flight campaign is reported");
    assert_eq!(progress.member, 0);
    assert_eq!(progress.stage, 0);
    assert_eq!(progress.stages_done, 1);

    probe.cancel(job_id).unwrap();

    // The delayed stage was already past its skip check, so it still
    // runs to completion; stage 2 then becomes the typed `cancelled`
    // entry with the pinned message.
    let event = wire.read_event();
    assert_eq!(event_type(&event), "stage_report");
    assert_eq!(event.get("stage").and_then(Value::as_u64), Some(1));

    let event = wire.read_event();
    assert_eq!(event_type(&event), "member_report");
    let entry = event.get("entry").expect("campaign members report entries");
    let stages = entry
        .get("campaign")
        .and_then(|c| c.get("stages"))
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(stages.len(), 3);
    assert_eq!(stages[0].get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(stages[1].get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(
        stages[2].get("status").and_then(Value::as_str),
        Some("cancelled")
    );
    assert_eq!(
        stages[2].get("message").and_then(Value::as_str),
        Some("job cancelled by request")
    );
    assert_eq!(
        entry.get("status").and_then(Value::as_str),
        Some("cancelled"),
        "the member-level status is the final stage's"
    );

    let event = wire.read_event();
    assert_eq!(event_type(&event), "suite_report");
    let entries = event
        .get("suite_report")
        .and_then(|r| r.get("reports"))
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(
        entries[0].pretty(),
        entry.pretty(),
        "the terminal report embeds the same entry the stream delivered"
    );

    shut_down(addr, handle);
}
