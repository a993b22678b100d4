//! The fault-injection acceptance criteria, end to end:
//!
//! * **Supervision**: a suite containing a panicking member completes —
//!   the daemon survives (subsequent `ping`/`submit` succeed), the
//!   `SuiteReport` reports the failure as a typed, manifest-ordered
//!   member error, and all unaffected members' stable reports are
//!   byte-identical to a fault-free run — at worker counts {1, 2, 8}.
//! * **Determinism**: the same `FaultPlan` + seeds yields bit-identical
//!   `SuiteReport` JSON across repeated runs, across worker counts, and
//!   across the batch (`Suite::run`) and served paths.
//! * **Gating**: a manifest carrying a `fault` block is refused unless
//!   the process opted in with `IMCIS_FAULT_INJECTION=1`.
//!
//! Every test here sets the gate itself; injection points are
//! `stream_seed(fault_seed, member_index)`, so the failure messages
//! asserted below are pure functions of the manifest.

use imcis_core::serve::{Client, ServeConfig, ServeError, Server};
use imcis_core::{MemberStatus, Suite, SuiteReport, SuiteSpec, FAULT_ENV};
use serde::json::Value;

fn spawn_server(
    workers: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<Result<(), ServeError>>,
) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue: 16,
        rate: 0,
    })
    .expect("ephemeral bind");
    let addr = server.local_addr();
    (addr, server.spawn())
}

/// Four cheap members over two scenarios; the faulty variant panics
/// member 1 and injects a transient I/O error into member 3.
fn suite_text(fault: bool) -> String {
    let fault_block = if fault {
        r#",
            "fault": {"seed": 9, "injections": [
                {"member": 1, "kind": "panic"},
                {"member": 3, "kind": "io-error"}
            ]}"#
    } else {
        ""
    };
    format!(
        r#"{{
            "runs": [
                {{"scenario": {{"name": "illustrative"}},
                 "method": {{"name": "smc", "n_traces": 300}},
                 "seed": 11, "threads": 1}},
                {{"scenario": {{"name": "illustrative"}},
                 "method": {{"name": "standard-is", "n_traces": 300}},
                 "seed": 12, "threads": 1}},
                {{"scenario": {{"name": "group-repair"}},
                 "method": {{"name": "smc", "n_traces": 300}},
                 "seed": 13, "threads": 1}},
                {{"scenario": {{"name": "illustrative"}},
                 "method": {{"name": "smc", "n_traces": 300}},
                 "seed": 14, "threads": 1}}
            ],
            "threads": 2{fault_block}
        }}"#
    )
}

fn run_suite(text: &str, threads: usize) -> String {
    let spec: SuiteSpec = text.parse().unwrap();
    Suite::from_spec(spec)
        .unwrap()
        .run_with_threads(threads)
        .unwrap()
        .to_json_stable()
        .pretty()
}

#[test]
fn injected_faults_become_typed_manifest_ordered_member_errors() {
    std::env::set_var(FAULT_ENV, "1");
    let spec: SuiteSpec = suite_text(true).parse().unwrap();
    let plan = spec.fault.clone().expect("manifest carries the plan");
    let report = Suite::from_spec(spec).unwrap().run().unwrap();

    let statuses: Vec<MemberStatus> = report.members.iter().map(|m| m.status()).collect();
    assert_eq!(
        statuses,
        [
            MemberStatus::Ok,
            MemberStatus::Panic,
            MemberStatus::Ok,
            MemberStatus::Error
        ]
    );
    // The failure messages embed the seeded fault points — deterministic
    // down to the byte.
    assert_eq!(
        report.members[1].message(),
        Some(plan.panic_message(1).as_str())
    );
    assert_eq!(
        report.members[3].message(),
        Some(plan.io_error_message(3).as_str())
    );
    // The stable JSON passes the suitereport/2 validator, failures and
    // all.
    SuiteReport::from_json(&report.to_json_stable()).unwrap();
}

#[test]
fn unaffected_members_are_byte_identical_to_a_fault_free_run() {
    std::env::set_var(FAULT_ENV, "1");
    let clean: Value = serde::json::parse(&run_suite(&suite_text(false), 2)).unwrap();
    let faulty: Value = serde::json::parse(&run_suite(&suite_text(true), 2)).unwrap();
    let clean_members = clean.get("reports").and_then(Value::as_array).unwrap();
    let faulty_members = faulty.get("reports").and_then(Value::as_array).unwrap();
    for i in [0usize, 2] {
        assert_eq!(
            clean_members[i].pretty(),
            faulty_members[i].pretty(),
            "unaffected member {i} drifted under fault injection"
        );
    }
}

#[test]
fn failure_reports_are_bit_identical_across_runs_and_thread_counts() {
    std::env::set_var(FAULT_ENV, "1");
    let text = suite_text(true);
    let reference = run_suite(&text, 1);
    for threads in [1usize, 2, 8] {
        for _ in 0..2 {
            assert_eq!(
                run_suite(&text, threads),
                reference,
                "failure-path report drifted at {threads} threads"
            );
        }
    }
}

#[test]
fn served_panics_are_supervised_at_worker_counts_1_2_8() {
    std::env::set_var(FAULT_ENV, "1");
    let spec: SuiteSpec = suite_text(true).parse().unwrap();
    let clean: SuiteSpec = suite_text(false).parse().unwrap();
    let direct = Suite::from_spec(spec.clone())
        .unwrap()
        .run()
        .unwrap()
        .to_json_stable()
        .pretty();
    let clean_direct = Suite::from_spec(clean.clone())
        .unwrap()
        .run()
        .unwrap()
        .to_json_stable()
        .pretty();

    for workers in [1usize, 2, 8] {
        let (addr, handle) = spawn_server(workers);
        let mut client = Client::connect(addr).unwrap();

        // The panicking suite completes with typed member entries,
        // byte-identical to the batch path.
        let outcome = client.submit(&spec, |_, _| {}).unwrap();
        assert_eq!(
            outcome.suite_report.pretty(),
            direct,
            "served failure report drifted at {workers} workers"
        );

        // The daemon survived: ping answers, and a follow-up clean
        // submission over the SAME worker pool (and the cache the faulty
        // job warmed — no new setups) matches the batch path.
        client.ping().unwrap();
        let outcome = client.submit(&clean, |_, _| {}).unwrap();
        assert_eq!(outcome.setups_built, 0, "the panic cost the cache");
        assert_eq!(
            outcome.suite_report.pretty(),
            clean_direct,
            "post-panic clean report drifted at {workers} workers"
        );

        Client::connect(addr).unwrap().shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}
