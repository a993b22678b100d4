//! The router contract, end to end:
//!
//! * a suite submitted through `imcis router` yields a `SuiteReport`
//!   **byte-identical** to the direct `imcis suite` path, at backend
//!   counts {1, 2, 3} (the acceptance criterion — routing adds
//!   placement, never semantics);
//! * placement has **cache affinity**: identical-scenario jobs land on
//!   one backend (observed via `accepted.setups_built` and the
//!   aggregated per-backend `cache_size`), and the backend is exactly
//!   the one the public [`HashRing`] predicts;
//! * a full primary queue makes the job **spill** to the next distinct
//!   ring backend, still byte-identical; when every backend is full the
//!   client sees the ordinary `rejected {retry_after_ms}` shape;
//! * a backend dying **mid-job** (here: a mock that accepts and then
//!   drops the stream) triggers transparent failover — the resubmitted
//!   job's report is still byte-identical to the batch artefact, with
//!   every member delivered exactly once;
//! * `cancel` is forwarded to the owning backend with the router-side
//!   job id relabelled both ways;
//! * router `status` aggregates per-backend health and load, and a
//!   backend's death flips its entry to unreachable while routing
//!   continues on the survivors.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use imcis_core::serve::{
    Client, ServeConfig, ServeError, Server, StatusSnapshot, MAX_REQUEST_LINE,
};
use imcis_core::{dominant_cache_fingerprint, HashRing, Router, RouterConfig, Suite, SuiteSpec};
use serde::json::{self, Value};

const TABLE1_SUITE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/paper_table1_suite.json");

fn spawn_daemon(
    workers: usize,
    queue: usize,
) -> (SocketAddr, std::thread::JoinHandle<Result<(), ServeError>>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue,
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

fn batch_stable(spec: &SuiteSpec) -> String {
    Suite::from_spec(spec.clone())
        .unwrap()
        .run()
        .unwrap()
        .to_json_stable()
        .pretty()
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

/// [`tiny_suite`] over `group-repair` with mixture weight `w`.
fn group_repair_suite(w: f64) -> SuiteSpec {
    format!(
        r#"{{
            "runs": [
                {{"scenario": {{"name": "group-repair", "params": {{"w": {w}}}}},
                 "method": {{"name": "smc", "n_traces": 200}},
                 "seed": 41, "threads": 1}},
                {{"scenario": {{"name": "group-repair", "params": {{"w": {w}}}}},
                 "method": {{"name": "standard-is", "n_traces": 200}},
                 "seed": 41, "threads": 1}}
            ],
            "threads": 1
        }}"#
    )
    .parse()
    .unwrap()
}

/// Acceptance criterion: a routed suite is `cmp`-identical to the
/// `imcis suite` batch artefact regardless of which backend ran it —
/// at backend counts 1, 2 and 3, with member reports reassembling
/// identically as well.
#[test]
fn routed_table1_suite_is_byte_identical_at_backend_counts_1_2_3() {
    let text = std::fs::read_to_string(TABLE1_SUITE).unwrap();
    let spec: SuiteSpec = text.parse().unwrap();
    let direct = Suite::from_spec(spec.clone()).unwrap().run().unwrap();
    let direct_stable = direct.to_json_stable().pretty();

    for backends in [1usize, 2, 3] {
        let fleet: Vec<_> = (0..backends).map(|_| spawn_daemon(2, 16)).collect();
        let addrs: Vec<String> = fleet.iter().map(|(a, _)| a.to_string()).collect();
        let (router_addr, router_handle) = spawn_router(addrs);

        // The router fronts the fleet as one `imcis.wire/2` endpoint:
        // the stock client works unchanged.
        let mut client = Client::connect(router_addr).unwrap();
        let health = client.health().unwrap();
        assert_eq!(
            health.workers, backends as u64,
            "router health counts live backends"
        );
        let outcome = client.submit(&spec, |_, _| {}).unwrap();
        assert_eq!(
            outcome.suite_report.pretty(),
            direct_stable,
            "routed output drifted from `imcis suite` at {backends} backend(s)"
        );
        for (i, member) in outcome.members.iter().enumerate() {
            assert_eq!(
                member.pretty(),
                direct.members[i].to_json_stable().pretty(),
                "member {i} drifted at {backends} backend(s)"
            );
        }

        // Shutdown fans out: the router acknowledges, and every daemon
        // in the fleet drains too.
        Client::connect(router_addr).unwrap().shutdown().unwrap();
        router_handle.join().unwrap().unwrap();
        for (_, handle) in fleet {
            handle.join().unwrap().unwrap();
        }
    }
}

/// Satellite pin: cache affinity. Identical-scenario jobs all land on
/// the one backend the public ring predicts — the first builds the
/// setup, every later one finds it warm (`setups_built == 0`), and the
/// aggregated status shows exactly one backend with a non-empty cache.
#[test]
fn identical_workloads_land_on_the_ring_predicted_backend() {
    let fleet: Vec<_> = (0..3).map(|_| spawn_daemon(1, 16)).collect();
    let addrs: Vec<String> = fleet.iter().map(|(a, _)| a.to_string()).collect();
    let (router_addr, router_handle) = spawn_router(addrs.clone());

    // Different seeds, same `(scenario, params)` — one cache key.
    let specs = [tiny_suite(21), tiny_suite(22), tiny_suite(23)];
    let predicted = HashRing::new(&addrs).preference(dominant_cache_fingerprint(&specs[0]))[0];

    let mut client = Client::connect(router_addr).unwrap();
    for (i, spec) in specs.iter().enumerate() {
        let outcome = client.submit(spec, |_, _| {}).unwrap();
        assert_eq!(outcome.suite_report.pretty(), batch_stable(spec));
        let expected_builds = if i == 0 { 1 } else { 0 };
        assert_eq!(
            outcome.setups_built,
            expected_builds,
            "job {i} should find the affinity backend's cache {}",
            if i == 0 { "cold" } else { "warm" }
        );
    }

    // The aggregated status agrees: the predicted backend (and only
    // it) holds the setup.
    let snapshot = client.status().unwrap();
    let StatusSnapshot::Router(status) = snapshot else {
        panic!("a router must answer the router status shape");
    };
    assert_eq!(status.jobs_routed, 3);
    for (index, backend) in status.backends.iter().enumerate() {
        assert!(backend.healthy, "backend {index} should be healthy");
        let cache = backend.status.as_ref().unwrap().cache_size;
        if index == predicted {
            assert_eq!(cache, 1, "the affinity backend holds the one setup");
        } else {
            assert_eq!(cache, 0, "backend {index} should never have seen the job");
        }
    }

    Client::connect(router_addr).unwrap().shutdown().unwrap();
    router_handle.join().unwrap().unwrap();
    for (_, handle) in fleet {
        handle.join().unwrap().unwrap();
    }
}

/// A 2-member suite whose member 0 sleeps `delay_ms` — submitted
/// directly to a queue-capacity-2 daemon it fills that queue for the
/// duration. Requires `IMCIS_FAULT_INJECTION=1`.
fn slow_suite(seed: u64, delay_ms: u64) -> SuiteSpec {
    format!(
        r#"{{
            "runs": [
                {{"scenario": {{"name": "illustrative"}},
                 "method": {{"name": "smc", "n_traces": 200}},
                 "seed": {seed}, "threads": 1}},
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
    )
    .parse()
    .unwrap()
}

/// Satellite pin: spill. With the ring-preferred backend's queue full,
/// the router walks to the next distinct ring node and the client sees
/// a normal accepted stream, byte-identical to batch. With *every*
/// backend full, the client sees the ordinary `rejected` shape.
#[test]
fn a_full_primary_queue_spills_to_the_next_ring_backend() {
    std::env::set_var(imcis_core::FAULT_ENV, "1");
    // Queue capacity 2: one in-flight slow 2-member suite fills it.
    let fleet: Vec<_> = (0..2).map(|_| spawn_daemon(1, 2)).collect();
    let addrs: Vec<String> = fleet.iter().map(|(a, _)| a.to_string()).collect();
    let (router_addr, router_handle) = spawn_router(addrs.clone());

    let spec = tiny_suite(31);
    let order = HashRing::new(&addrs).preference(dominant_cache_fingerprint(&spec));
    let (primary, secondary) = (order[0], order[1]);

    // Fill the PRIMARY directly (bypassing the router, so the router's
    // own queue accounting is untouched) with a slow job.
    let mut hold_primary = Client::connect(fleet[primary].0).unwrap();
    let holder = std::thread::spawn({
        let addr = fleet[primary].0;
        let slow = slow_suite(32, 1_500);
        move || {
            Client::connect(addr)
                .unwrap()
                .submit(&slow, |_, _| {})
                .unwrap()
        }
    });
    // Wait until the primary actually reports a full queue, so the
    // routed submit below deterministically gets `rejected` there.
    loop {
        let status = hold_primary.daemon_status().unwrap();
        if status.queue_depth >= status.queue_capacity {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // The routed job spills: accepted (not rejected), byte-identical,
    // and the SECONDARY — previously cold — now holds the setup.
    let mut client = Client::connect(router_addr).unwrap();
    let outcome = client.submit(&spec, |_, _| {}).unwrap();
    assert_eq!(outcome.suite_report.pretty(), batch_stable(&spec));
    let mut probe = Client::connect(fleet[secondary].0).unwrap();
    assert_eq!(
        probe.daemon_status().unwrap().cache_size,
        1,
        "the spill target must have run the job"
    );

    // Fill the secondary too: now every live backend rejects, and the
    // router forwards the largest retry hint as a plain `rejected`.
    let blocker = std::thread::spawn({
        let addr = fleet[secondary].0;
        let slow = slow_suite(34, 1_500);
        move || {
            Client::connect(addr)
                .unwrap()
                .submit(&slow, |_, _| {})
                .unwrap()
        }
    });
    loop {
        let status = probe.daemon_status().unwrap();
        if status.queue_depth >= status.queue_capacity {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    match client.submit(&tiny_suite(35), |_, _| {}).unwrap_err() {
        ServeError::Rejected { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("expected every-backend-full to reject, got {other}"),
    }

    holder.join().unwrap();
    blocker.join().unwrap();
    Client::connect(router_addr).unwrap().shutdown().unwrap();
    router_handle.join().unwrap().unwrap();
    for (_, handle) in fleet {
        handle.join().unwrap().unwrap();
    }
}

/// A mock backend that answers `health` probes, accepts exactly one
/// `submit` with a well-formed `accepted` event, then drops the stream
/// and plays dead — the in-process stand-in for `kill -9` on a daemon
/// mid-job (the CI smoke step kills a real process).
struct MockBackend {
    addr: SocketAddr,
    dead: Arc<AtomicBool>,
}

impl MockBackend {
    fn spawn() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dead = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&dead);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                if flag.load(Ordering::SeqCst) {
                    // Dead: hang up without a byte, so health probes
                    // fail and the heartbeat evicts us.
                    drop(stream);
                    continue;
                }
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                while {
                    line.clear();
                    matches!(reader.read_line(&mut line), Ok(n) if n > 0)
                } {
                    let Ok(request) = json::parse(line.trim_end()) else {
                        break;
                    };
                    match request.get("type").and_then(Value::as_str) {
                        Some("health") => {
                            let _ = writer.write_all(
                                b"{\"wire\": \"imcis.wire/2\", \"type\": \"health\", \
                                  \"version\": \"0.0.0\", \"workers\": 1, \"uptime_ms\": 1}\n",
                            );
                        }
                        Some("submit") => {
                            // Accept with the true member count (the
                            // router sizes its dedup table from it),
                            // then die mid-job.
                            let members = request
                                .get("suite")
                                .and_then(|s| s.get("runs"))
                                .and_then(Value::as_array)
                                .map_or(0, |runs| runs.len());
                            let _ = writer.write_all(
                                format!(
                                    "{{\"wire\": \"imcis.wire/2\", \"type\": \"accepted\", \
                                     \"job_id\": 1, \"members\": {members}, \
                                     \"setups_built\": 0, \"cache_size\": 0}}\n"
                                )
                                .as_bytes(),
                            );
                            flag.store(true, Ordering::SeqCst);
                            break;
                        }
                        _ => break,
                    }
                }
            }
        });
        MockBackend { addr, dead }
    }
}

/// Satellite pin: failover. The ring-preferred backend accepts the job
/// and then dies mid-stream; the router evicts it, resubmits the whole
/// manifest to the next live backend, swallows the duplicate
/// `accepted`, and the client's report is STILL byte-identical to the
/// batch artefact, every member delivered exactly once.
#[test]
fn a_backend_dying_mid_job_fails_over_byte_identically() {
    let (daemon_addr, daemon_handle) = spawn_daemon(2, 16);
    let mock = MockBackend::spawn();
    let addrs = vec![mock.addr.to_string(), daemon_addr.to_string()];

    // Ephemeral ports randomise ring placement; pick the first job whose
    // key puts the mock FIRST, so the kill is guaranteed to hit the
    // stream the client is being served from. Each mixture weight is a
    // distinct scenario cache key, so each lands at its own ring point.
    let ring = HashRing::new(&addrs);
    let spec = (0..64)
        .map(|k| group_repair_suite(0.5 + k as f64 / 128.0))
        .find(|spec| ring.preference(dominant_cache_fingerprint(spec))[0] == 0)
        .expect("64 distinct cache keys never hashed to the mock first");
    let (router_addr, router_handle) = spawn_router(addrs);

    let mut client = Client::connect(router_addr).unwrap();
    let outcome = client.submit(&spec, |_, _| {}).unwrap();
    assert!(
        mock.dead.load(Ordering::SeqCst),
        "the mock must have accepted the job before dying"
    );
    assert_eq!(
        outcome.suite_report.pretty(),
        batch_stable(&spec),
        "the failed-over report drifted from the batch artefact"
    );
    assert_eq!(
        outcome.members.len(),
        spec.runs.len(),
        "every member must be delivered exactly once across the failover"
    );

    // The dead backend is evicted: the router now counts one live
    // backend and its status entry is unreachable.
    let health = client.health().unwrap();
    assert_eq!(health.workers, 1, "the dead mock must not count as live");
    let StatusSnapshot::Router(status) = client.status().unwrap() else {
        panic!("a router must answer the router status shape");
    };
    assert!(!status.backends[0].healthy, "the mock plays dead");
    assert!(status.backends[0].status.is_none());
    assert!(status.backends[1].healthy, "the real daemon survived");

    Client::connect(router_addr).unwrap().shutdown().unwrap();
    router_handle.join().unwrap().unwrap();
    daemon_handle.join().unwrap().unwrap();
}

/// `cancel` through the router: mapped to the owning backend, the
/// acknowledgement relabelled back to the router's job id, and an
/// unknown id answered with the daemon's own pinned queue error.
#[test]
fn cancel_is_forwarded_to_the_owning_backend_and_relabelled() {
    std::env::set_var(imcis_core::FAULT_ENV, "1");
    let (daemon_addr, daemon_handle) = spawn_daemon(1, 16);
    let (router_addr, router_handle) = spawn_router(vec![daemon_addr.to_string()]);

    // A slow job through the router, on a raw wire so the stream stays
    // open while a second connection cancels.
    let spec = slow_suite(51, 1_000);
    let stream = TcpStream::connect(router_addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer
        .write_all(format!("{{\"type\": \"submit\", \"suite\": {}}}\n", spec.to_json()).as_bytes())
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let accepted = json::parse(line.trim_end()).unwrap();
    assert_eq!(
        accepted.get("type").and_then(Value::as_str),
        Some("accepted")
    );
    let job_id = accepted.get("job_id").and_then(Value::as_u64).unwrap();

    std::thread::sleep(std::time::Duration::from_millis(150));
    let mut canceller = Client::connect(router_addr).unwrap();
    canceller.cancel(job_id).unwrap();

    // The running member completes, the trailing member is cancelled,
    // and every event still carries the ROUTER's job id.
    let mut statuses = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let event = json::parse(line.trim_end()).unwrap();
        assert_eq!(
            event.get("job_id").and_then(Value::as_u64),
            Some(job_id),
            "proxied events must carry the router-side job id"
        );
        match event.get("type").and_then(Value::as_str) {
            Some("member_report") => statuses.push("ok"),
            Some("member_error") => {
                assert_eq!(
                    event.get("status").and_then(Value::as_str),
                    Some("cancelled")
                );
                statuses.push("cancelled");
            }
            Some("suite_report") => break,
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(statuses, ["ok", "cancelled"]);

    // A finished (or never-issued) router job id is a typed queue
    // error, same shape as the daemon's own.
    match canceller.cancel(job_id).unwrap_err() {
        ServeError::Remote { error, message } => {
            assert_eq!(error, "queue");
            assert_eq!(message, format!("job {job_id} is not active"));
        }
        other => panic!("expected a remote queue error, got {other}"),
    }

    Client::connect(router_addr).unwrap().shutdown().unwrap();
    router_handle.join().unwrap().unwrap();
    daemon_handle.join().unwrap().unwrap();
}

/// Satellite pin: status aggregation tracks a backend's death — its
/// entry flips to unreachable, routing continues on the survivors, and
/// the recovered view is purely additive (no client-side changes).
#[test]
fn status_aggregation_survives_a_backend_death() {
    let fleet: Vec<_> = (0..2).map(|_| spawn_daemon(1, 16)).collect();
    let addrs: Vec<String> = fleet.iter().map(|(a, _)| a.to_string()).collect();
    let (router_addr, router_handle) = spawn_router(addrs);

    let mut client = Client::connect(router_addr).unwrap();
    let StatusSnapshot::Router(status) = client.status().unwrap() else {
        panic!("a router must answer the router status shape");
    };
    assert_eq!(status.backends.len(), 2);
    assert!(status.backends.iter().all(|b| b.healthy));
    assert_eq!(status.jobs_routed, 0);
    for backend in &status.backends {
        let load = backend.status.as_ref().unwrap();
        assert_eq!(load.workers, 1);
        assert_eq!(load.queue_capacity, 16);
    }

    // Kill backend 1 for real (daemon shutdown = drain + exit).
    let mut fleet = fleet;
    let (dead_addr, dead_handle) = fleet.remove(1);
    Client::connect(dead_addr).unwrap().shutdown().unwrap();
    dead_handle.join().unwrap().unwrap();

    // The aggregation polls freshly: the dead entry flips immediately,
    // no heartbeat wait needed.
    let StatusSnapshot::Router(status) = client.status().unwrap() else {
        panic!("a router must answer the router status shape");
    };
    assert!(status.backends[0].healthy);
    assert!(
        !status.backends[1].healthy,
        "the killed daemon must show dead"
    );
    assert!(status.backends[1].status.is_none());

    // Routing continues on the survivor, byte-identical as ever.
    let spec = tiny_suite(61);
    let outcome = client.submit(&spec, |_, _| {}).unwrap();
    assert_eq!(outcome.suite_report.pretty(), batch_stable(&spec));

    Client::connect(router_addr).unwrap().shutdown().unwrap();
    router_handle.join().unwrap().unwrap();
    for (_, handle) in fleet {
        handle.join().unwrap().unwrap();
    }
}

/// Pin: the router reads requests through the daemon's capped
/// line reader. A line exactly at `MAX_REQUEST_LINE` bytes is served;
/// one byte more is discarded up to its newline and answered with one
/// pinned `wire` error, and the connection stays usable.
#[test]
fn an_oversized_request_line_is_a_wire_error_and_the_connection_survives() {
    let (daemon_addr, daemon_handle) = spawn_daemon(1, 16);
    let (router_addr, router_handle) = spawn_router(vec![daemon_addr.to_string()]);
    let padded_ping = |len: usize| {
        let (head, tail) = ("{\"type\": \"ping\", \"pad\": \"", "\"}\n");
        format!(
            "{head}{}{tail}",
            "x".repeat(len + 1 - head.len() - tail.len())
        )
    };
    let stream = TcpStream::connect(router_addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut read_event = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        json::parse(line.trim_end()).unwrap()
    };

    writer
        .write_all(padded_ping(MAX_REQUEST_LINE).as_bytes())
        .unwrap();
    let event = read_event();
    assert_eq!(event.get("type").and_then(Value::as_str), Some("pong"));

    writer
        .write_all(padded_ping(MAX_REQUEST_LINE + 1).as_bytes())
        .unwrap();
    let event = read_event();
    assert_eq!(event.get("error").and_then(Value::as_str), Some("wire"));
    assert_eq!(
        event.get("message").and_then(Value::as_str),
        Some("request line is longer than 16777216 bytes")
    );

    writer.write_all(b"{\"type\": \"ping\"}\n").unwrap();
    let event = read_event();
    assert_eq!(event.get("type").and_then(Value::as_str), Some("pong"));

    Client::connect(router_addr).unwrap().shutdown().unwrap();
    router_handle.join().unwrap().unwrap();
    daemon_handle.join().unwrap().unwrap();
}
