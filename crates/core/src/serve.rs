//! The serving layer: a long-running daemon that executes [`SuiteSpec`]s
//! over a shared scenario cache and streams results over TCP.
//!
//! [`Server`] turns the batch suite layer into a front end: clients
//! connect over plain TCP, `submit` a suite manifest, and receive the
//! member outcomes as newline-delimited JSON events while the suite is
//! still running, followed by the complete [`SuiteReport`]. Every job
//! runs through the same **supervised** executor as [`Suite::run`]. The
//! daemon adds two limits on top: at most [`ServeConfig::workers`]
//! members run at once across all jobs (a campaign member holds its
//! worker slot stage by stage), and a job is admitted only when its
//! members fit the [`ServeConfig::queue`] capacity. Every job
//! resolves scenarios through one process-wide [`SetupCache`] — so
//! repeated scenarios never rebuild their `Setup`, even across clients
//! and jobs (the expensive step for the 40320-state `repair` model and
//! the learned `swat` models).
//!
//! [`SuiteReport`]: crate::suite::SuiteReport
//!
//! DSL workloads travel the same path: a submitted member whose
//! scenario is the `{"dsl": "<source>"}` form (see
//! [`crate::dsl`]) is compiled **server-side** through the scenario
//! registry's `dsl` entry, and the built `Setup` lands in the same
//! shared cache under the canonical `(source, params)` key — so a
//! sweep grid over one source compiles the model once per parameter
//! point and every resubmission (from any client) hits the cache. A
//! source that fails to compile is rejected at `submit` validation
//! with its spanned diagnostic, before the job is admitted.
//!
//! Everything here is `std`-only ([`std::net`] + [`std::thread`]),
//! consistent with the workspace's vendored-shim policy: no async
//! runtime, no registry access.
//!
//! # The wire protocol (`imcis.wire/2`)
//!
//! Both directions speak **newline-delimited JSON**: every message is one
//! compact JSON object on one line, tagged `"wire": "imcis.wire/2"` and
//! `"type": ...`. [`Request`] and [`Event`] are the typed codec: every
//! line the daemon, the [router](crate::router) and [`Client`] write is
//! encoded by them, and every line they read is decoded by them. A
//! request line longer than [`MAX_REQUEST_LINE`] (16 MiB) is discarded
//! up to its newline and answered with a `wire` error. The full
//! field-by-field reference lives in `docs/FORMATS.md`; in short:
//!
//! **Requests** (client → server):
//!
//! * `{"wire": "imcis.wire/2", "type": "submit", "suite": {...}}` —
//!   execute an embedded `imcis.suitespec/1` manifest. A server-side
//!   path may be used instead of an embedded object:
//!   `{"type": "submit", "file": "specs/suite.json"}`. An optional
//!   positive `deadline_ms` bounds the job: members not yet started
//!   when the deadline passes are reported as typed `timeout` member
//!   errors (running members always finish — deadlines are enforced at
//!   member boundaries).
//! * `{"type": "cancel", "job_id": N}` — cancel an active job at the
//!   next member boundary (usually sent on a second connection while
//!   the first streams). Acknowledged with `cancelled`; members not yet
//!   started become typed `cancelled` member errors.
//! * `{"type": "status"}` — load snapshot, answered with a `status`
//!   event (queue depth/capacity, active jobs, workers, cache size,
//!   uptime).
//! * `{"type": "health"}` — lightweight liveness/identity probe,
//!   answered with a `health` event (`version`, `workers`,
//!   `uptime_ms`) without touching the job queue or any lock — the
//!   heartbeat primitive of the [router](crate::router) tier.
//! * `{"type": "ping"}` — liveness probe, answered with `pong`.
//! * `{"type": "shutdown"}` — stop accepting connections, drain active
//!   jobs, exit.
//!
//! **Events** (server → client), per submitted job:
//!
//! * `accepted` — the manifest validated and the job was admitted:
//!   carries `job_id`, the `members` count, and the shared-cache
//!   observables `setups_built` (scenario builds this job caused) and
//!   `cache_size`.
//! * `member_report` — one member finished: `(job_id, member_index)`
//!   plus the member's **stable** payload. A plain run member carries
//!   its `report` (`imcis.report/2`, no `timing`); a campaign member
//!   carries the complete member `entry` (`{"status": …, ["message":
//!   …,] "campaign": {…}}`) exactly as the suite report embeds it.
//!   Events arrive in *completion* order; the index lets the client
//!   reassemble manifest order.
//! * `stage_report` — one campaign **stage** finished (streamed between
//!   `member_report`s): `(job_id, member_index, stage, stages_done,
//!   converged)` plus that stage's stable report JSON. Purely
//!   observational — the terminal member entry repeats every stage.
//! * `member_error` — one *run* member failed: `(job_id, member_index)`
//!   plus the typed `status` (`error` | `panic` | `timeout` |
//!   `cancelled`) and its deterministic `message`. The job keeps going —
//!   a failing member never takes its suite (or the daemon) down. A
//!   failing campaign member instead reports the typed failure inside
//!   its `member_report` entry (stage sequence included).
//! * `suite_report` — terminal: the assembled stable suite report JSON
//!   (`imcis.suitereport/2` for run-only manifests, `/3` when a
//!   campaign member is present; member outcomes embedded, failures
//!   included), byte-identical to what `imcis suite` computes for the
//!   same manifest.
//! * `rejected` — the queue cannot admit the job's members, **or** the
//!   connection is over its per-client rate limit
//!   ([`ServeConfig::rate`]): carries `retry_after_ms`. The job was
//!   **not** admitted; back off and resubmit (the `imcis submit` client
//!   does capped exponential backoff automatically).
//! * `cancelled` — acknowledges a `cancel` request for an active job.
//! * `status` — answers a `status` request. Two shapes share the tag:
//!   a daemon answers the flat load snapshot (plus a `campaigns` array
//!   — `{job_id, member, stage, stages_done}` per in-flight campaign
//!   member — present exactly when non-empty); a router
//!   (`"role": "router"`) answers the aggregated per-backend view —
//!   [`StatusSnapshot`] decodes both.
//! * `health` — answers a `health` request (`version`, `workers`,
//!   `uptime_ms`).
//! * `error` — a wire/spec/session/queue failure (`error` names the
//!   class, `message` carries the pinned human-readable text). Spec
//!   errors keep the connection open; the client may submit again.
//! * `pong` / `shutting_down` — answers to `ping` / `shutdown`;
//!   `shutting_down` lists in-flight job dispositions (`jobs`: id,
//!   member count, members done so far, and — when the job has campaign
//!   members mid-flight — a `campaigns` array with their per-member
//!   `{stage, stages_done}` progress; those jobs still drain to
//!   completion).
//!
//! Timing is the only volatile data and travels **in event envelopes
//! only** (`elapsed_ms`): the embedded report payloads are the stable
//! forms, so the determinism contract survives the network hop.
//!
//! # Supervision and degradation
//!
//! Member sessions run under `catch_unwind` (the suite executor's
//! supervision): a panicking member becomes a typed `member_error` event
//! and a `status: "panic"` entry in the suite report — the daemon
//! survives and the [`SetupCache`] stays warm. Transient `accept()` and
//! write failures are survived; reads carry a poll deadline so a
//! stalled client can never pin the shutdown drain, and members write
//! their own events only after giving their worker slot back, so a
//! client that stops reading stalls only its own job. The deterministic
//! fault-injection harness ([`crate::fault`], gated behind
//! `IMCIS_FAULT_INJECTION=1`) exists to prove all of this reproducibly
//! — see `tests/fault.rs`.
//!
//! # Determinism contract
//!
//! The daemon adds scheduling, not semantics: a job runs through the
//! executor [`Suite::run`] uses, every session is seed-deterministic and
//! thread-count invariant, and the worker count only steers wall-clock.
//! The `suite_report` payload is therefore **byte-identical to `imcis
//! suite <manifest>`'s stable output at every worker count** (pinned by
//! `tests/serve.rs` at {1, 2, 8}) — including suites with injected
//! faults (pinned by `tests/fault.rs`).
//!
//! # Example
//!
//! ```
//! use imcis_core::serve::{Client, ServeConfig, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Bind on an ephemeral port and serve in the background.
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 2,
//!     queue: 16,
//!     rate: 0,
//! })?;
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! // Submit a tiny two-member suite and collect the streamed reports.
//! let suite = r#"{
//!         "runs": [
//!             {"scenario": {"name": "illustrative"},
//!              "method": {"name": "smc", "n_traces": 200}, "threads": 1},
//!             {"scenario": {"name": "illustrative"},
//!              "method": {"name": "standard-is", "n_traces": 200}, "threads": 1}
//!         ],
//!         "threads": 1
//!     }"#
//!     .parse()?;
//! let mut client = Client::connect(addr)?;
//! let outcome = client.submit(&suite, |_line, _event| {})?;
//! assert_eq!(outcome.members.len(), 2);
//! // One illustrative build serves both members.
//! assert_eq!(outcome.setups_built, 1);
//!
//! // Shut the daemon down cleanly.
//! client.shutdown()?;
//! handle.join().expect("server thread")?;
//! # Ok(())
//! # }
//! ```

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use imc_models::ScenarioRegistry;
use serde::json::{self, Value};

use crate::report::{same_form, Decoder, Report};
use crate::suite::{
    MemberOutcome, MemberStatus, Observer, SetupCache, StageOutcome, Suite, SuiteReport, SuiteSpec,
};

/// Schema tag carried by every wire message, both directions.
pub const WIRE_SCHEMA: &str = "imcis.wire/2";

/// The backoff hint a `rejected` event carries when the queue is full.
pub const RETRY_AFTER_MS: u64 = 100;

/// The longest request line a daemon or router stores, newline
/// excluded: 16 MiB. The rest of a longer line is read and discarded up
/// to its newline, the line is answered with one `wire` error, and the
/// connection stays usable.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// Poll interval for connection reads: a handler blocked on a silent
/// client re-checks the shutdown flag this often, so a stalled client
/// can never pin the drain.
const READ_POLL_MS: u64 = 200;

/// Everything that can go wrong while serving or talking to a server.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io(String),
    /// The peer violated the wire protocol (bad JSON, missing fields,
    /// out-of-order events).
    Protocol(String),
    /// The server reported an error event (`error` carries the class,
    /// `message` the pinned text).
    Remote {
        /// Error class (`wire` | `spec` | `session` | `queue`).
        error: String,
        /// Human-readable message (pinned by the failure-path tests).
        message: String,
    },
    /// The server's queue was full and the job was not admitted;
    /// resubmit after the hinted backoff.
    Rejected {
        /// Server-suggested minimum backoff before resubmitting.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "serve i/o error: {msg}"),
            ServeError::Protocol(msg) => write!(f, "wire protocol violation: {msg}"),
            ServeError::Remote { error, message } => {
                write!(f, "server reported {error} error: {message}")
            }
            ServeError::Rejected { retry_after_ms } => {
                write!(f, "server queue is full (retry after {retry_after_ms} ms)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

/// Daemon configuration: where to listen and how much to run at once.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` binds an ephemeral port).
    pub addr: String,
    /// The most members that run at once across all jobs (`0` = all
    /// cores); a campaign member holds its slot stage by stage. Each
    /// running member's repetitions get cores ÷ workers threads.
    /// Scheduling only — results are byte-identical at every count.
    pub workers: usize,
    /// Admission capacity in members: a job reserves one slot per
    /// member when it is admitted and frees each as that member
    /// finishes. A submit whose members do not fit the remaining
    /// capacity is answered with `rejected {retry_after_ms}` —
    /// backpressure is explicit, never a blocked connection.
    pub queue: usize,
    /// Per-connection submit rate limit in submits/second (token
    /// bucket, burst capacity = the rate). Over-limit submits are
    /// answered with the same `rejected {retry_after_ms}` shape a full
    /// queue produces. `0` disables rate limiting (the default).
    /// Probes (`ping` / `status` / `health`) are never limited.
    pub rate: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7414".into(),
            workers: 0,
            queue: 64,
            rate: 0,
        }
    }
}

/// Cancellation/deadline state shared between one job's executor and
/// the `cancel`/`status`/`shutdown` handlers on other connections.
struct JobControl {
    job_id: u64,
    cancelled: AtomicBool,
    /// Absolute member-start cutoff, measured from when the daemon
    /// started handling the submit (so the setup build counts).
    deadline: Option<Instant>,
    /// The requested bound, kept for the deterministic timeout message.
    deadline_ms: Option<u64>,
    members_total: usize,
    members_done: AtomicUsize,
    /// Per-member campaign stage progress: `(member_index, last finished
    /// stage)`. Run members never appear; a campaign member appears once
    /// its first stage completes and is dropped with the job.
    campaign_stages: Mutex<Vec<(usize, usize)>>,
}

impl JobControl {
    /// The typed disposition a member gets *instead of running* when its
    /// job was cancelled or its deadline has passed — `None` means run
    /// it. Checked at member start only for runs, and at every stage
    /// boundary for campaigns: running members/stages always finish.
    fn skip_disposition(&self) -> Option<(MemberStatus, String)> {
        if self.cancelled.load(Ordering::SeqCst) {
            return Some((
                MemberStatus::Cancelled,
                "job cancelled by request".to_string(),
            ));
        }
        if let (Some(deadline), Some(ms)) = (self.deadline, self.deadline_ms) {
            if Instant::now() >= deadline {
                return Some((
                    MemberStatus::Timeout,
                    format!("job deadline of {ms} ms exceeded"),
                ));
            }
        }
        None
    }

    /// Records a campaign member's latest finished stage (for `status`
    /// and `shutting_down` progress reporting).
    fn note_stage(&self, member: usize, stage: usize) {
        let mut stages = self
            .campaign_stages
            .lock()
            .expect("stage progress poisoned");
        match stages.iter_mut().find(|(m, _)| *m == member) {
            Some(entry) => entry.1 = stage,
            None => stages.push((member, stage)),
        }
    }

    /// The job's campaign progress, member order.
    fn progress(&self) -> Vec<CampaignProgress> {
        let mut stages = self
            .campaign_stages
            .lock()
            .expect("stage progress poisoned")
            .clone();
        stages.sort_unstable();
        stages
            .into_iter()
            .map(|(member, stage)| CampaignProgress {
                job_id: self.job_id,
                member: member as u64,
                stage: stage as u64,
                stages_done: stage as u64 + 1,
            })
            .collect()
    }
}

/// The daemon-wide limit on running members: `capacity` slots, granted
/// in request order so a waiting member is never overtaken by a later
/// one.
struct Slots {
    capacity: u64,
    /// `(tickets issued, slots released)`: ticket `t` may run once
    /// `t < released + capacity`.
    counts: Mutex<(u64, u64)>,
    freed: Condvar,
}

impl Slots {
    fn acquire(&self) {
        let mut counts = self.counts.lock().expect("slot counts poisoned");
        let ticket = counts.0;
        counts.0 += 1;
        while ticket >= counts.1 + self.capacity {
            counts = self.freed.wait(counts).expect("slot counts poisoned");
        }
    }

    fn release(&self) {
        self.counts.lock().expect("slot counts poisoned").1 += 1;
        self.freed.notify_all();
    }
}

/// State shared by the connection handlers of one daemon.
struct ServerState {
    conns: Connections,
    registry: ScenarioRegistry,
    /// The process-wide scenario cache: every job on every connection
    /// resolves setups here, so repeated scenarios build exactly once
    /// for the server's whole lifetime.
    cache: Mutex<SetupCache>,
    next_job: AtomicU64,
    workers: usize,
    /// Repetition-fanout budget handed to each member session so the
    /// running members divide the machine instead of oversubscribing it.
    rep_threads: usize,
    slots: Slots,
    /// Per-connection submit rate limit ([`ServeConfig::rate`]); `0`
    /// disables.
    rate: u64,
    started: Instant,
    /// Admitted-but-unfinished members across all jobs. Submits reserve
    /// their member count up front (or get `rejected`); each finished
    /// member releases one reservation.
    queue_depth: AtomicUsize,
    queue_capacity: usize,
    /// Active jobs, registration order — the `cancel`/`status`/
    /// `shutdown` handlers' view of in-flight work.
    jobs: Mutex<Vec<Arc<JobControl>>>,
}

impl ServerState {
    /// Answers one request on a daemon connection; `false` closes it.
    fn handle(&self, request: Request, out: &mut TcpStream, rate: &mut RateBucket) -> bool {
        let answer = match request {
            Request::Ping => Event::Pong,
            Request::Health => health(self.workers, self.started),
            Request::Status => Event::Status(StatusSnapshot::Daemon(self.status())),
            Request::Cancel { job_id } => {
                let jobs = self.jobs.lock().expect("job list poisoned");
                match jobs.iter().find(|job| job.job_id == job_id) {
                    Some(job) => {
                        job.cancelled.store(true, Ordering::SeqCst);
                        Event::Cancelled { job_id }
                    }
                    None => Event::error("queue", format!("job {job_id} is not active")),
                }
            }
            Request::Shutdown => Event::ShuttingDown {
                jobs: self
                    .jobs
                    .lock()
                    .expect("job list poisoned")
                    .iter()
                    .map(|job| JobDisposition {
                        job_id: job.job_id,
                        members: job.members_total as u64,
                        members_done: job.members_done.load(Ordering::SeqCst) as u64,
                        campaigns: job.progress(),
                    })
                    .collect(),
            },
            Request::Submit { spec, deadline_ms } => match rate.take() {
                Some(retry_after_ms) => Event::Rejected { retry_after_ms },
                None => return self.run_job(&spec, deadline_ms, out),
            },
        };
        send(out, &answer)
    }

    fn status(&self) -> ServerStatus {
        let cache_size = self.cache.lock().expect("setup cache poisoned").len();
        let jobs = self.jobs.lock().expect("job list poisoned");
        ServerStatus {
            queue_depth: self.queue_depth.load(Ordering::SeqCst) as u64,
            queue_capacity: self.queue_capacity as u64,
            active_jobs: jobs.len() as u64,
            workers: self.workers as u64,
            cache_size: cache_size as u64,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            campaigns: jobs.iter().flat_map(|job| job.progress()).collect(),
        }
    }

    fn deregister_job(&self, job_id: u64) {
        self.jobs
            .lock()
            .expect("job list poisoned")
            .retain(|job| job.job_id != job_id);
    }

    /// Runs one submitted suite: admit its members, build its setups
    /// through the shared cache, stream the executor's events, then
    /// answer the terminal report. Returns `false` when the client
    /// vanished and the connection should be dropped.
    fn run_job(&self, spec: &SuiteSpec, deadline_ms: Option<u64>, out: &mut TcpStream) -> bool {
        // The deadline clock starts here, so the setup build counts.
        let started = Instant::now();
        let members = spec.runs.len();
        // Admission comes before the build, so a refused job builds
        // nothing. An oversized suite can never fit (a typed `queue`
        // error); otherwise every member's slot is reserved up front or
        // the submit is answered `rejected` instead of blocking.
        if members > self.queue_capacity {
            let message = format!(
                "suite has {members} members but the queue capacity is {}",
                self.queue_capacity
            );
            return send(out, &Event::error("queue", message));
        }
        if self
            .queue_depth
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |depth| {
                (depth + members <= self.queue_capacity).then_some(depth + members)
            })
            .is_err()
        {
            let rejected = Event::Rejected {
                retry_after_ms: RETRY_AFTER_MS,
            };
            return send(out, &rejected);
        }
        // The lock is held across builds so concurrent jobs never build
        // the same scenario twice; builds are deterministic, so
        // serializing them changes wall-clock only.
        let built = {
            let mut cache = self.cache.lock().expect("setup cache poisoned");
            Suite::from_spec_with_cache(spec.clone(), &self.registry, &mut cache)
                .map(|suite| (suite, cache.len()))
        };
        let (suite, cache_size) = match built {
            Ok(built) => built,
            Err(e) => {
                self.queue_depth.fetch_sub(members, Ordering::SeqCst);
                return send(out, &Event::error("session", e.to_string()));
            }
        };
        let job_id = self.next_job.fetch_add(1, Ordering::SeqCst);
        let control = Arc::new(JobControl {
            job_id,
            cancelled: AtomicBool::new(false),
            deadline: deadline_ms.map(|ms| started + Duration::from_millis(ms)),
            deadline_ms,
            members_total: members,
            members_done: AtomicUsize::new(0),
            campaign_stages: Mutex::new(Vec::new()),
        });
        self.jobs
            .lock()
            .expect("job list poisoned")
            .push(Arc::clone(&control));
        let accepted = Event::Accepted {
            job_id,
            members,
            setups_built: suite.unique_setups() as u64,
            cache_size: cache_size as u64,
        };
        if !send(out, &accepted) {
            // Nothing ran: hand the reservations back.
            self.queue_depth.fetch_sub(members, Ordering::SeqCst);
            self.deregister_job(job_id);
            return false;
        }
        // Each member writes its own event lines, one write per line,
        // after giving its worker slot back, so no member holds a slot
        // while it writes and a client that stops reading stalls only
        // its own job.
        let observer = JobObserver {
            state: self,
            control: &control,
            out: Mutex::new((out, true)),
        };
        let mut report = suite.execute(self.workers, self.rep_threads, &observer);
        let (out, alive) = observer.out.into_inner().expect("job stream poisoned");
        self.deregister_job(job_id);
        report.timing.total_ms = started.elapsed().as_secs_f64() * 1e3;
        let terminal = Event::SuiteReport {
            job_id,
            elapsed_ms: report.timing.total_ms,
            suite_report: report.to_json_stable(),
        };
        alive && send(out, &terminal)
    }
}

/// The daemon's view of one job's execution: each run member and each
/// campaign stage holds a daemon-wide worker slot from its entry (before
/// its skip check) to its end, the job's cancel/deadline decides the
/// skips, and the stage and member events go to the job's connection.
struct JobObserver<'a> {
    state: &'a ServerState,
    control: &'a JobControl,
    /// The job's connection and whether its client is still there.
    out: Mutex<(&'a mut TcpStream, bool)>,
}

impl JobObserver<'_> {
    fn send(&self, event: &Event) {
        let mut out = self.out.lock().expect("job stream poisoned");
        let (stream, alive) = &mut *out;
        *alive = *alive && send(stream, event);
    }
}

impl Observer for JobObserver<'_> {
    fn enter(&self) -> Option<(MemberStatus, String)> {
        self.state.slots.acquire();
        self.control.skip_disposition()
    }

    fn leave(&self) {
        self.state.slots.release();
    }

    fn stage_done(
        &self,
        member: usize,
        stage: usize,
        outcome: &StageOutcome,
        converged: bool,
        elapsed_ms: f64,
    ) {
        self.control.note_stage(member, stage);
        if let StageOutcome::Ok(report) = outcome {
            self.send(&Event::StageReport {
                job_id: self.control.job_id,
                member_index: member,
                stage,
                converged,
                elapsed_ms,
                report: report.to_json_stable(),
            });
        }
    }

    fn member_done(&self, member: usize, outcome: &MemberOutcome, elapsed_ms: f64) {
        self.control.members_done.fetch_add(1, Ordering::SeqCst);
        self.state.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let job_id = self.control.job_id;
        self.send(&match outcome {
            MemberOutcome::Failed { status, message } => Event::MemberError {
                job_id,
                member_index: member,
                elapsed_ms,
                status: *status,
                message: message.clone(),
            },
            // A campaign member's event carries its whole entry — stage
            // sequence included, failed or not.
            _ => Event::MemberReport {
                job_id,
                member_index: member,
                elapsed_ms,
                entry: outcome.to_json_stable(),
            },
        });
    }
}

/// A per-connection submit token bucket: capacity = refill rate =
/// submits per second, starting full, so bursts up to the rate go
/// through. `rate == 0` disables it.
struct RateBucket {
    rate: u64,
    tokens: f64,
    refilled: Instant,
}

impl RateBucket {
    fn new(rate: u64) -> Self {
        RateBucket {
            rate,
            tokens: rate as f64,
            refilled: Instant::now(),
        }
    }

    /// Takes one token. `None` means the submit may proceed;
    /// `Some(retry_after_ms)` is the backoff hint to answer with.
    fn take(&mut self) -> Option<u64> {
        if self.rate == 0 {
            return None;
        }
        let rate = self.rate as f64;
        let now = Instant::now();
        self.tokens =
            (self.tokens + now.duration_since(self.refilled).as_secs_f64() * rate).min(rate);
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return None;
        }
        // Time until the bucket holds one full token again, rounded up so
        // a client honouring the hint is never rejected twice in a row.
        let deficit_ms = ((1.0 - self.tokens) / rate * 1e3).ceil() as u64;
        Some(deficit_ms.max(1))
    }
}

/// The `health` answer, shared by the daemon and the router (whose
/// "workers" are its live backends).
pub(crate) fn health(workers: usize, started: Instant) -> Event {
    Event::Health(HealthInfo {
        version: env!("CARGO_PKG_VERSION").into(),
        workers: workers as u64,
        uptime_ms: started.elapsed().as_millis() as u64,
    })
}

/// The suite-serving daemon. See the [module docs](self) for the wire
/// protocol and determinism contract.
pub struct Server {
    state: ServerState,
}

impl Server {
    /// Binds the listen socket. The server does not accept connections
    /// until [`Server::run`] (or [`Server::spawn`]) is called.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Self, ServeError> {
        let workers = imc_sim::parallel::resolve_threads(config.workers);
        let state = ServerState {
            conns: Connections::bind(&config.addr)?,
            registry: ScenarioRegistry::builtin(),
            cache: Mutex::new(SetupCache::new()),
            next_job: AtomicU64::new(1),
            workers,
            rep_threads: (imc_sim::parallel::available_threads() / workers).max(1),
            slots: Slots {
                capacity: workers as u64,
                counts: Mutex::new((0, 0)),
                freed: Condvar::new(),
            },
            rate: config.rate,
            started: Instant::now(),
            queue_depth: AtomicUsize::new(0),
            queue_capacity: config.queue.max(1),
            jobs: Mutex::new(Vec::new()),
        };
        Ok(Server { state })
    }

    /// The bound listen address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.conns.local_addr
    }

    /// Accepts and serves connections until a client sends `shutdown`,
    /// then drains active jobs.
    ///
    /// Transient accept failures (a queued connection reset before it
    /// was accepted, momentary fd exhaustion) never kill the daemon —
    /// in-flight jobs must stream to completion. Only a persistently
    /// failing listener gives up, and even then the drain runs first.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the accept loop fails irrecoverably.
    pub fn run(self) -> Result<(), ServeError> {
        let state = &self.state;
        state.conns.serve(|| {
            let mut rate = RateBucket::new(state.rate);
            move |request, out: &mut TcpStream| state.handle(request, out, &mut rate)
        })
    }

    /// Runs the server on a background thread (tests, in-process use).
    /// Join the handle after a client sends `shutdown`.
    pub fn spawn(self) -> std::thread::JoinHandle<Result<(), ServeError>> {
        std::thread::spawn(move || self.run())
    }
}

/// The connection registry shared by the daemon and the router: the
/// shutdown flag plus a read handle per open connection, so the drain
/// can unblock idle readers while handlers mid-job keep streaming
/// (their write halves are untouched).
pub(crate) struct Connections {
    listener: TcpListener,
    shutdown: AtomicBool,
    pub(crate) local_addr: SocketAddr,
    next_id: AtomicU64,
    open: Mutex<Vec<(u64, TcpStream)>>,
}

impl Connections {
    /// Binds the listen socket; nothing is accepted before
    /// [`Connections::serve`].
    pub(crate) fn bind(addr: &str) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::Io(format!("cannot bind `{addr}`: {e}")))?;
        Ok(Connections {
            local_addr: listener.local_addr()?,
            listener,
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            open: Mutex::new(Vec::new()),
        })
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Wakes the blocking accept loop so it observes the shutdown flag:
    /// connects to the bound address, with a wildcard IP (`0.0.0.0` /
    /// `::`) replaced by the matching loopback — a wildcard is a
    /// *listen* address, not a connectable destination everywhere.
    fn wake(&self) {
        let mut addr = self.local_addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(addr);
    }

    /// The accept loop shared by the daemon and the router. Each
    /// connection is served on its own thread by a request handler from
    /// `new_handler` (one per connection, so it may carry
    /// per-connection state) until a client sends `shutdown`. Then the
    /// loop drains: every read half is closed so idle handlers return,
    /// and handlers mid-job stream to completion before this returns.
    ///
    /// Transient accept failures are survived; a listener failing 100
    /// times in a row gives up, after the same drain.
    pub(crate) fn serve<N, H>(&self, new_handler: N) -> Result<(), ServeError>
    where
        N: Fn() -> H + Sync,
        H: FnMut(Request, &mut TcpStream) -> bool,
    {
        std::thread::scope(|scope| {
            let mut result = Ok(());
            let mut consecutive_errors = 0u32;
            loop {
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => {
                        consecutive_errors = 0;
                        stream
                    }
                    Err(e) => {
                        if self.shutting_down() {
                            break;
                        }
                        consecutive_errors += 1;
                        if consecutive_errors >= 100 {
                            result = Err(ServeError::Io(format!(
                                "accept failed {consecutive_errors} times in a row: {e}"
                            )));
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                };
                if self.shutting_down() {
                    break;
                }
                // A connection the drain could not unblock (no handle to
                // clone under fd pressure) would hang shutdown: refuse it.
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                let id = self.next_id.fetch_add(1, Ordering::SeqCst);
                self.open
                    .lock()
                    .expect("connection list poisoned")
                    .push((id, handle));
                let new_handler = &new_handler;
                scope.spawn(move || {
                    serve_connection(stream, self, new_handler());
                    self.open
                        .lock()
                        .expect("connection list poisoned")
                        .retain(|(conn, _)| *conn != id);
                });
            }
            self.shutdown.store(true, Ordering::SeqCst);
            for (_, stream) in self.open.lock().expect("connection list poisoned").iter() {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
            result
        })
    }
}

/// Serves one connection: reads requests under the poll deadline,
/// answers malformed ones with `wire` errors and hands the rest to
/// `handle` until the peer leaves, the drain begins or `handle` returns
/// `false`. A `shutdown` request raises the flag before `handle`
/// answers it and wakes the accept loop after.
fn serve_connection(
    stream: TcpStream,
    conns: &Connections,
    mut handle: impl FnMut(Request, &mut TcpStream) -> bool,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // A finite read timeout turns a blocked reader into a poll: a client
    // that connects and never sends a line cannot delay the shutdown
    // drain (the drain's read-shutdown sweep is the fast path; this is
    // the backstop for connections the sweep misses).
    let _ = read_half.set_read_timeout(Some(Duration::from_millis(READ_POLL_MS)));
    let mut reader = BufReader::new(read_half);
    let mut out = stream;
    let mut line = Vec::new();
    let wire_error = |message: String| ("wire".to_string(), message);
    while let Some(fits) = read_request_line(&mut reader, conns, &mut line) {
        let request = if fits {
            let text = String::from_utf8_lossy(&line);
            if text.trim().is_empty() {
                continue;
            }
            json::parse(text.trim_end())
                .map_err(|e| wire_error(format!("request is not valid JSON: {e}")))
                .and_then(|value| Request::from_json(&value))
        } else {
            Err(wire_error(format!(
                "request line is longer than {MAX_REQUEST_LINE} bytes"
            )))
        };
        let keep_going = match request {
            Err((class, message)) => send(&mut out, &Event::Error { class, message }),
            Ok(Request::Shutdown) => {
                conns.shutdown.store(true, Ordering::SeqCst);
                handle(Request::Shutdown, &mut out);
                conns.wake();
                false
            }
            Ok(request) => handle(request, &mut out),
        };
        if !keep_going {
            return;
        }
    }
}

/// Reads one request line into `line` (newline stripped) under the
/// connection's poll deadline, storing at most [`MAX_REQUEST_LINE`]
/// bytes: the rest of a longer line is consumed and dropped. Timeouts
/// re-check the shutdown flag and keep the partial line. Returns
/// whether the line fit, or `None` when the connection should close
/// (EOF, hard error, or shutdown).
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    conns: &Connections,
    line: &mut Vec<u8>,
) -> Option<bool> {
    line.clear();
    let mut fits = true;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if conns.shutting_down() {
                    return None;
                }
                continue;
            }
            Err(_) => return None,
        };
        if buf.is_empty() {
            // EOF: a final unterminated line still counts.
            return (!line.is_empty() || !fits).then_some(fits);
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let content = &buf[..newline.unwrap_or(buf.len())];
        fits = fits && line.len() + content.len() <= MAX_REQUEST_LINE;
        if fits {
            line.extend_from_slice(content);
        } else {
            *line = Vec::new();
        }
        let consumed = newline.map_or(buf.len(), |i| i + 1);
        reader.consume(consumed);
        if newline.is_some() {
            return Some(fits);
        }
    }
}

/// Writes one wire message as a compact JSON line in a single write, so
/// a line never leaves in pieces.
fn write_line(out: &mut TcpStream, message: &Value) -> io::Result<()> {
    out.write_all(format!("{message}\n").as_bytes())
}

/// Writes one event; `false` means the peer is gone.
pub(crate) fn send(out: &mut TcpStream, event: &Event) -> bool {
    write_line(out, &event.to_json()).is_ok()
}

/// Builds one wire message: the `wire` tag, the `type`, then `fields`
/// in order.
fn envelope(kind: &str, fields: Vec<(&str, Value)>) -> Value {
    let tags = [
        ("wire", Value::Str(WIRE_SCHEMA.into())),
        ("type", Value::Str(kind.into())),
    ];
    object(tags.into_iter().chain(fields).collect())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// A wire request (client → server), decoded by [`Request::from_json`]
/// and encoded by [`Request::to_json`].
#[derive(Debug)]
pub enum Request {
    /// Execute a suite manifest, optionally bounded by a deadline.
    Submit {
        /// The validated manifest.
        spec: SuiteSpec,
        /// Optional member-start cutoff in milliseconds from receipt.
        deadline_ms: Option<u64>,
    },
    /// Cancel an active job at its next member boundary.
    Cancel {
        /// The job to cancel (from its `accepted` event).
        job_id: u64,
    },
    /// Load snapshot request.
    Status,
    /// Lightweight liveness/identity probe: answered without touching
    /// the job queue or any lock (the router heartbeat primitive).
    Health,
    /// Liveness probe.
    Ping,
    /// Stop the server after draining active jobs.
    Shutdown,
}

impl Request {
    /// Parses and validates one request line's JSON value: the entry
    /// point of the daemon and the router.
    ///
    /// # Errors
    ///
    /// A `(class, message)` pair matching the `error` event the server
    /// would emit: class `wire` for malformed envelopes, `spec` for
    /// submit bodies that fail [`SuiteSpec`] validation.
    pub fn from_json(value: &Value) -> Result<Request, (String, String)> {
        let wire_err = |msg: String| ("wire".to_string(), msg);
        let Some(pairs) = value.as_object() else {
            return Err(wire_err("request must be a JSON object".into()));
        };
        if let Some(tag) = value.get("wire") {
            let tag = tag
                .as_str()
                .ok_or_else(|| wire_err("`wire` must be a string".into()))?;
            if tag != WIRE_SCHEMA {
                return Err(wire_err(format!(
                    "unsupported wire schema `{tag}` (expected `{WIRE_SCHEMA}`)"
                )));
            }
        }
        let kind = value
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| wire_err("request needs a string `type`".into()))?;
        match kind {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "status" => Ok(Request::Status),
            "health" => Ok(Request::Health),
            "cancel" => {
                if let Some((key, _)) = pairs
                    .iter()
                    .find(|(k, _)| !matches!(k.as_str(), "wire" | "type" | "job_id"))
                {
                    return Err(wire_err(format!("unknown cancel key `{key}`")));
                }
                let job_id = value
                    .get("job_id")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| wire_err("cancel needs an unsigned `job_id`".into()))?;
                Ok(Request::Cancel { job_id })
            }
            "submit" => {
                if let Some((key, _)) = pairs.iter().find(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "wire" | "type" | "suite" | "file" | "deadline_ms"
                    )
                }) {
                    return Err(wire_err(format!("unknown submit key `{key}`")));
                }
                let deadline_ms = match value.get("deadline_ms") {
                    None | Some(Value::Null) => None,
                    Some(v) => {
                        let ms = v.as_u64().ok_or_else(|| {
                            wire_err("`deadline_ms` must be an unsigned integer".into())
                        })?;
                        if ms == 0 {
                            return Err(wire_err("`deadline_ms` must be positive".into()));
                        }
                        Some(ms)
                    }
                };
                let spec = match (value.get("suite"), value.get("file")) {
                    (Some(suite), None) => SuiteSpec::from_json_with_base(suite, None)
                        .map_err(|e| ("spec".to_string(), e.to_string()))?,
                    (None, Some(path)) => {
                        let path = path
                            .as_str()
                            .ok_or_else(|| wire_err("`file` must be a string path".into()))?;
                        SuiteSpec::load(path).map_err(|e| ("spec".to_string(), e.to_string()))?
                    }
                    _ => {
                        return Err(wire_err(
                            "submit needs exactly one of `suite` (embedded manifest) \
                             or `file` (server-side path)"
                                .into(),
                        ))
                    }
                };
                Ok(Request::Submit { spec, deadline_ms })
            }
            other => Err(wire_err(format!(
                "unknown request type `{other}` \
                 (submit | cancel | status | health | ping | shutdown)"
            ))),
        }
    }

    /// The wire form. A `submit` always embeds its manifest as `suite`
    /// (a router forwards a `file` submit as an embedded manifest —
    /// backends need no shared filesystem).
    pub fn to_json(&self) -> Value {
        let (kind, fields) = match self {
            Request::Submit { spec, deadline_ms } => {
                let mut fields = vec![("suite", spec.to_json())];
                fields.extend(deadline_ms.map(|ms| ("deadline_ms", Value::UInt(ms))));
                ("submit", fields)
            }
            Request::Cancel { job_id } => ("cancel", vec![("job_id", Value::UInt(*job_id))]),
            Request::Status => ("status", Vec::new()),
            Request::Health => ("health", Vec::new()),
            Request::Ping => ("ping", Vec::new()),
            Request::Shutdown => ("shutdown", Vec::new()),
        };
        envelope(kind, fields)
    }
}

/// A snapshot of daemon load, answered to a `status` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStatus {
    /// Admitted-but-unfinished members across all jobs.
    pub queue_depth: u64,
    /// The admission capacity ([`ServeConfig::queue`]).
    pub queue_capacity: u64,
    /// Jobs accepted and not yet terminal.
    pub active_jobs: u64,
    /// The most members that run at once ([`ServeConfig::workers`]).
    pub workers: u64,
    /// Distinct `(scenario, params)` setups in the shared cache.
    pub cache_size: u64,
    /// Milliseconds since the server was bound.
    pub uptime_ms: u64,
    /// In-flight campaign members' stage progress, `(job, member)`
    /// order; empty when nothing campaign-shaped is running (the wire
    /// form omits the array entirely then).
    pub campaigns: Vec<CampaignProgress>,
}

/// One in-flight campaign member's stage progress inside a daemon
/// `status` answer (echoed verbatim through router aggregations) or a
/// `shutting_down` job disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignProgress {
    /// The job the campaign member belongs to.
    pub job_id: u64,
    /// The member's manifest index.
    pub member: u64,
    /// The last finished stage (0-based).
    pub stage: u64,
    /// Stages finished so far (`stage + 1`).
    pub stages_done: u64,
}

/// One in-flight job in a `shutting_down` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDisposition {
    /// The job's id.
    pub job_id: u64,
    /// Its member count.
    pub members: u64,
    /// Members already finished at the acknowledgement.
    pub members_done: u64,
    /// Its campaign members' stage progress, member order (the wire
    /// form omits each entry's `job_id` — the job names it).
    pub campaigns: Vec<CampaignProgress>,
}

/// The answer to a `health` request: identity and liveness, no load
/// data (and, server-side, no lock acquisition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthInfo {
    /// The serving process's crate version.
    pub version: String,
    /// Worker slots (daemon) or live backends (router).
    pub workers: u64,
    /// Milliseconds since the process started serving.
    pub uptime_ms: u64,
}

/// One backend's entry in a router `status` aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendStatus {
    /// The backend's configured address.
    pub addr: String,
    /// Whether the router's heartbeat currently considers the backend
    /// alive (dead backends are evicted from the hash ring).
    pub healthy: bool,
    /// The backend's own load snapshot, freshly polled for the
    /// aggregation; `None` when the backend is unreachable.
    pub status: Option<ServerStatus>,
}

/// The aggregated `status` answer of a router (`"role": "router"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStatus {
    /// Jobs currently proxied through the router.
    pub active_jobs: u64,
    /// Jobs routed since the router started.
    pub jobs_routed: u64,
    /// Milliseconds since the router started.
    pub uptime_ms: u64,
    /// Per-backend health + load, in configured backend order.
    pub backends: Vec<BackendStatus>,
}

/// A decoded `status` answer: daemons and routers share the event tag
/// but not the shape — this is the single type clients branch on (the
/// `imcis submit --status` printer is shape-tolerant through it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatusSnapshot {
    /// A single daemon's flat load snapshot.
    Daemon(ServerStatus),
    /// A router's aggregated per-backend view.
    Router(RouterStatus),
}

/// One `imcis.wire/2` server event, the typed codec of every event
/// line: the daemon and the router encode with [`Event::to_json`], and
/// [`Client`] and the router's backend streams decode with
/// [`Event::from_json`]. Decoding an event the daemon sends and encoding
/// it again gives back the same value, key order included.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The manifest validated and the job was admitted.
    Accepted {
        /// Server-assigned job id.
        job_id: u64,
        /// The job's member count.
        members: usize,
        /// Scenario builds this job caused on the shared cache.
        setups_built: u64,
        /// The shared cache's total entry count.
        cache_size: u64,
    },
    /// One member finished with a stable outcome.
    MemberReport {
        /// The job.
        job_id: u64,
        /// The member's manifest index.
        member_index: usize,
        /// The member's wall time (volatile).
        elapsed_ms: f64,
        /// The member's `reports[]` entry, exactly as the suite report
        /// embeds it. On the wire a run member's entry travels as its
        /// `report` payload, a campaign member's (the entry with a
        /// `campaign` key) as the whole `entry`.
        entry: Value,
    },
    /// One campaign stage finished.
    StageReport {
        /// The job.
        job_id: u64,
        /// The campaign member's manifest index.
        member_index: usize,
        /// The finished stage, 0-based (the wire form adds
        /// `stages_done = stage + 1`).
        stage: usize,
        /// Whether the campaign's stopping rule fired at this stage.
        converged: bool,
        /// The stage's wall time (volatile).
        elapsed_ms: f64,
        /// The stage's stable `imcis.report/2`.
        report: Value,
    },
    /// One run member finished without a report.
    MemberError {
        /// The job.
        job_id: u64,
        /// The member's manifest index.
        member_index: usize,
        /// The member's wall time (volatile).
        elapsed_ms: f64,
        /// The failure class (never [`MemberStatus::Ok`]).
        status: MemberStatus,
        /// The deterministic, non-empty failure message.
        message: String,
    },
    /// Terminal: the assembled stable suite report.
    SuiteReport {
        /// The job.
        job_id: u64,
        /// The job's wall time (volatile).
        elapsed_ms: f64,
        /// The stable `imcis.suitereport/2` (or `/3`).
        suite_report: Value,
    },
    /// A wire/spec/session/queue failure.
    Error {
        /// The class: `wire` | `spec` | `session` | `queue`.
        class: String,
        /// The pinned human-readable message.
        message: String,
    },
    /// Backpressure: the job was not admitted.
    Rejected {
        /// The minimum backoff before resubmitting.
        retry_after_ms: u64,
    },
    /// A `cancel` acknowledgement.
    Cancelled {
        /// The job that will stop at its next member boundary.
        job_id: u64,
    },
    /// A `status` answer.
    Status(StatusSnapshot),
    /// A `health` answer.
    Health(HealthInfo),
    /// A `ping` answer.
    Pong,
    /// A `shutdown` acknowledgement.
    ShuttingDown {
        /// The in-flight jobs, which still drain to completion.
        jobs: Vec<JobDisposition>,
    },
}

impl Event {
    /// An `error` event of `class`.
    pub fn error(class: &str, message: impl Into<String>) -> Self {
        Event::Error {
            class: class.into(),
            message: message.into(),
        }
    }

    /// The job a job-scoped event belongs to (the router relabels
    /// through it).
    pub(crate) fn job_id_mut(&mut self) -> Option<&mut u64> {
        match self {
            Event::Accepted { job_id, .. }
            | Event::MemberReport { job_id, .. }
            | Event::StageReport { job_id, .. }
            | Event::MemberError { job_id, .. }
            | Event::SuiteReport { job_id, .. }
            | Event::Cancelled { job_id } => Some(job_id),
            _ => None,
        }
    }

    /// The wire form: `wire` and `type` first, then the event's fields
    /// in their documented order.
    pub fn to_json(&self) -> Value {
        let int = |n: usize| Value::UInt(n as u64);
        let (kind, fields) = match self {
            Event::Accepted {
                job_id,
                members,
                setups_built,
                cache_size,
            } => (
                "accepted",
                vec![
                    ("job_id", Value::UInt(*job_id)),
                    ("members", int(*members)),
                    ("setups_built", Value::UInt(*setups_built)),
                    ("cache_size", Value::UInt(*cache_size)),
                ],
            ),
            Event::MemberReport {
                job_id,
                member_index,
                elapsed_ms,
                entry,
            } => {
                let payload = match entry.get("campaign") {
                    Some(_) => ("entry", entry.clone()),
                    None => (
                        "report",
                        entry.get("report").cloned().unwrap_or(Value::Null),
                    ),
                };
                let fields = vec![
                    ("job_id", Value::UInt(*job_id)),
                    ("member_index", int(*member_index)),
                    ("elapsed_ms", Value::Float(*elapsed_ms)),
                    payload,
                ];
                ("member_report", fields)
            }
            Event::StageReport {
                job_id,
                member_index,
                stage,
                converged,
                elapsed_ms,
                report,
            } => (
                "stage_report",
                vec![
                    ("job_id", Value::UInt(*job_id)),
                    ("member_index", int(*member_index)),
                    ("stage", int(*stage)),
                    ("stages_done", int(stage + 1)),
                    ("converged", Value::Bool(*converged)),
                    ("elapsed_ms", Value::Float(*elapsed_ms)),
                    ("report", report.clone()),
                ],
            ),
            Event::MemberError {
                job_id,
                member_index,
                elapsed_ms,
                status,
                message,
            } => (
                "member_error",
                vec![
                    ("job_id", Value::UInt(*job_id)),
                    ("member_index", int(*member_index)),
                    ("elapsed_ms", Value::Float(*elapsed_ms)),
                    ("status", Value::Str(status.as_str().into())),
                    ("message", Value::Str(message.clone())),
                ],
            ),
            Event::SuiteReport {
                job_id,
                elapsed_ms,
                suite_report,
            } => (
                "suite_report",
                vec![
                    ("job_id", Value::UInt(*job_id)),
                    ("elapsed_ms", Value::Float(*elapsed_ms)),
                    ("suite_report", suite_report.clone()),
                ],
            ),
            Event::Error { class, message } => (
                "error",
                vec![
                    ("error", Value::Str(class.clone())),
                    ("message", Value::Str(message.clone())),
                ],
            ),
            Event::Rejected { retry_after_ms } => (
                "rejected",
                vec![("retry_after_ms", Value::UInt(*retry_after_ms))],
            ),
            Event::Cancelled { job_id } => ("cancelled", vec![("job_id", Value::UInt(*job_id))]),
            Event::Status(StatusSnapshot::Daemon(status)) => ("status", status_fields(status)),
            Event::Status(StatusSnapshot::Router(status)) => {
                let backends = status.backends.iter().map(|backend| {
                    let mut fields = vec![
                        ("addr", Value::Str(backend.addr.clone())),
                        ("healthy", Value::Bool(backend.healthy)),
                    ];
                    fields.extend(backend.status.iter().flat_map(status_fields));
                    object(fields)
                });
                (
                    "status",
                    vec![
                        ("role", Value::Str("router".into())),
                        ("active_jobs", Value::UInt(status.active_jobs)),
                        ("jobs_routed", Value::UInt(status.jobs_routed)),
                        ("uptime_ms", Value::UInt(status.uptime_ms)),
                        ("backends", Value::Array(backends.collect())),
                    ],
                )
            }
            Event::Health(info) => (
                "health",
                vec![
                    ("version", Value::Str(info.version.clone())),
                    ("workers", Value::UInt(info.workers)),
                    ("uptime_ms", Value::UInt(info.uptime_ms)),
                ],
            ),
            Event::Pong => ("pong", Vec::new()),
            Event::ShuttingDown { jobs } => {
                let jobs = jobs.iter().map(|job| {
                    let mut fields = vec![
                        ("job_id", Value::UInt(job.job_id)),
                        ("members", Value::UInt(job.members)),
                        ("members_done", Value::UInt(job.members_done)),
                    ];
                    fields.extend(progress_field(&job.campaigns, false));
                    object(fields)
                });
                (
                    "shutting_down",
                    vec![("jobs", Value::Array(jobs.collect()))],
                )
            }
        };
        envelope(kind, fields)
    }

    /// Decodes and validates one event value against the
    /// `imcis.wire/2` shape; embedded reports, suite reports and campaign
    /// entries go through their own decoders ([`Report::from_json`],
    /// [`SuiteReport::from_json`]).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn from_json(value: &Value) -> Result<Event, String> {
        if value.as_object().is_none() {
            return Err("event must be a JSON object".into());
        }
        match value.get("wire").and_then(Value::as_str) {
            Some(WIRE_SCHEMA) => {}
            Some(other) => return Err(format!("unexpected wire schema `{other}`")),
            None => return Err("event is missing the `wire` schema tag".into()),
        }
        let kind = value
            .get("type")
            .and_then(Value::as_str)
            .ok_or("event needs a string `type`")?;
        let event = Decoder {
            value,
            context: format!("`{kind}` event"),
        };
        Ok(match kind {
            "accepted" => Event::Accepted {
                job_id: event.u64("job_id")?,
                members: event.usize("members")?,
                setups_built: event.u64("setups_built")?,
                cache_size: event.u64("cache_size")?,
            },
            "member_report" => Event::MemberReport {
                job_id: event.u64("job_id")?,
                member_index: event.usize("member_index")?,
                elapsed_ms: event.f64("elapsed_ms")?,
                entry: match (value.get("report"), value.get("entry")) {
                    (Some(_), None) => Value::object([
                        ("status".into(), Value::Str("ok".into())),
                        ("report".into(), event.payload("report", Report::from_json)?),
                    ]),
                    (None, Some(_)) => event.payload("entry", |value| {
                        let context = "campaign entry".to_string();
                        let outcome = MemberOutcome::from_json(&Decoder { value, context }, true)?;
                        same_form("campaign entry", value, outcome.to_json_stable())
                    })?,
                    _ => {
                        return Err("`member_report` event needs exactly one of `report` \
                             (run member) or `entry` (campaign member)"
                            .into())
                    }
                },
            },
            "stage_report" => {
                let (job_id, member_index) = (event.u64("job_id")?, event.usize("member_index")?);
                let stage = event.usize("stage")?;
                let stages_done = event.usize("stages_done")?;
                if stages_done != stage + 1 {
                    return Err(format!(
                        "`stage_report` stages_done must be stage + 1, got stage {stage} with \
                         stages_done {stages_done}"
                    ));
                }
                Event::StageReport {
                    job_id,
                    member_index,
                    stage,
                    converged: event.bool("converged")?,
                    elapsed_ms: event.f64("elapsed_ms")?,
                    report: event.payload("report", Report::from_json)?,
                }
            }
            "member_error" => {
                let (job_id, member_index) = (event.u64("job_id")?, event.usize("member_index")?);
                let elapsed_ms = event.f64("elapsed_ms")?;
                let tag = event.str("status")?;
                let status = MemberStatus::from_tag(&tag)
                    .filter(|s| *s != MemberStatus::Ok)
                    .ok_or(format!(
                        "`member_error` status must be one of error | panic | timeout | \
                         cancelled, got `{tag}`"
                    ))?;
                let message = event.str("message")?;
                if message.is_empty() {
                    return Err("`member_error` event needs a non-empty `message`".into());
                }
                Event::MemberError {
                    job_id,
                    member_index,
                    elapsed_ms,
                    status,
                    message,
                }
            }
            "suite_report" => Event::SuiteReport {
                job_id: event.u64("job_id")?,
                elapsed_ms: event.f64("elapsed_ms")?,
                suite_report: event.payload("suite_report", SuiteReport::from_json)?,
            },
            "error" => Event::Error {
                class: event.str("error")?,
                message: event.str("message")?,
            },
            "rejected" => Event::Rejected {
                retry_after_ms: event.u64("retry_after_ms")?,
            },
            "cancelled" => Event::Cancelled {
                job_id: event.u64("job_id")?,
            },
            "status" => Event::Status(match value.get("role").and_then(Value::as_str) {
                None => StatusSnapshot::Daemon(event.server_status()?),
                Some("router") => {
                    let backends = event
                        .array("backends")?
                        .iter()
                        .map(|entry| {
                            Ok(BackendStatus {
                                addr: entry.str("addr")?,
                                healthy: entry.bool("healthy")?,
                                status: match entry.value.get("queue_depth") {
                                    Some(_) => Some(entry.server_status()?),
                                    None => None,
                                },
                            })
                        })
                        .collect::<Result<_, String>>()?;
                    StatusSnapshot::Router(RouterStatus {
                        active_jobs: event.u64("active_jobs")?,
                        jobs_routed: event.u64("jobs_routed")?,
                        uptime_ms: event.u64("uptime_ms")?,
                        backends,
                    })
                }
                Some(other) => {
                    return Err(format!(
                        "`status` role must be absent (daemon) or `router`, got `{other}`"
                    ))
                }
            }),
            "health" => {
                let version = event.str("version")?;
                if version.is_empty() {
                    return Err("`health` event needs a non-empty `version`".into());
                }
                Event::Health(HealthInfo {
                    version,
                    workers: event.u64("workers")?,
                    uptime_ms: event.u64("uptime_ms")?,
                })
            }
            "pong" => Event::Pong,
            "shutting_down" => {
                let jobs = event
                    .array("jobs")?
                    .iter()
                    .map(|job| {
                        let job_id = job.u64("job_id")?;
                        Ok(JobDisposition {
                            job_id,
                            members: job.u64("members")?,
                            members_done: job.u64("members_done")?,
                            campaigns: job.progress(Some(job_id))?,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                Event::ShuttingDown { jobs }
            }
            other => return Err(format!("unknown event type `{other}`")),
        })
    }
}

/// A daemon load snapshot's fields, in wire order; `campaigns` only
/// when non-empty, so run-only traffic keeps its pre-campaign shape.
fn status_fields(status: &ServerStatus) -> Vec<(&'static str, Value)> {
    let mut fields = vec![
        ("queue_depth", Value::UInt(status.queue_depth)),
        ("queue_capacity", Value::UInt(status.queue_capacity)),
        ("active_jobs", Value::UInt(status.active_jobs)),
        ("workers", Value::UInt(status.workers)),
        ("cache_size", Value::UInt(status.cache_size)),
        ("uptime_ms", Value::UInt(status.uptime_ms)),
    ];
    fields.extend(progress_field(&status.campaigns, true));
    fields
}

/// The optional `campaigns` progress array; entries name their job
/// only where no enclosing object does.
fn progress_field(campaigns: &[CampaignProgress], with_job: bool) -> Option<(&'static str, Value)> {
    let entries = campaigns.iter().map(|c| {
        let job = with_job.then_some(("job_id", Value::UInt(c.job_id)));
        object(
            job.into_iter()
                .chain([
                    ("member", Value::UInt(c.member)),
                    ("stage", Value::UInt(c.stage)),
                    ("stages_done", Value::UInt(c.stages_done)),
                ])
                .collect(),
        )
    });
    (!campaigns.is_empty()).then(|| ("campaigns", Value::Array(entries.collect())))
}

impl Decoder<'_> {
    /// An embedded payload, kept as JSON once `decode` accepts it.
    fn payload<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&Value) -> Result<T, String>,
    ) -> Result<Value, String> {
        let payload = self.field(key, "a", Some)?;
        decode(payload).map_err(|e| format!("{} `{key}`: {e}", self.context))?;
        Ok(payload.clone())
    }

    /// A daemon load snapshot: the flat `status` event or a router
    /// aggregation's backend entry.
    fn server_status(&self) -> Result<ServerStatus, String> {
        Ok(ServerStatus {
            queue_depth: self.u64("queue_depth")?,
            queue_capacity: self.u64("queue_capacity")?,
            active_jobs: self.u64("active_jobs")?,
            workers: self.u64("workers")?,
            cache_size: self.u64("cache_size")?,
            uptime_ms: self.u64("uptime_ms")?,
            campaigns: self.progress(None)?,
        })
    }

    /// The optional `campaigns` progress array (absent = empty). Inside
    /// a `shutting_down` job the entries omit `job_id`, which `job`
    /// then supplies.
    fn progress(&self, job: Option<u64>) -> Result<Vec<CampaignProgress>, String> {
        if self.value.get("campaigns").is_none() {
            return Ok(Vec::new());
        }
        self.array("campaigns")?
            .iter()
            .map(|entry| {
                let stage = entry.u64("stage")?;
                if entry.u64("stages_done")? != stage + 1 {
                    return Err(format!("{} stages_done must be stage + 1", entry.context));
                }
                Ok(CampaignProgress {
                    job_id: match job {
                        Some(job_id) => job_id,
                        None => entry.u64("job_id")?,
                    },
                    member: entry.u64("member")?,
                    stage,
                    stages_done: stage + 1,
                })
            })
            .collect()
    }
}

/// The result of one [`Client::submit`]: the terminal suite report plus
/// the per-member outcome entries in manifest order, reassembled from
/// the streamed events.
#[derive(Debug)]
pub struct SubmitOutcome {
    /// Server-assigned job id.
    pub job_id: u64,
    /// Scenario builds this job caused on the server (0 = everything was
    /// already cached from earlier jobs).
    pub setups_built: u64,
    /// The stable suite report JSON (`imcis.suitereport/2` for run-only
    /// manifests, `/3` with campaign members) — byte-identical to the
    /// stable output of `imcis suite` on the same manifest.
    pub suite_report: Value,
    /// Stable member outcome entries (`{"status": "ok", "report": …}` /
    /// `{"status": …, "message": …}` / campaign entries with their
    /// `campaign` stage sequence) in manifest order, reassembled from
    /// the completion-order `member_report`/`member_error` events.
    pub members: Vec<Value>,
}

/// A wire-protocol client over one TCP connection — also the router's
/// connection to each backend.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        Self::over(TcpStream::connect(addr)?)
    }

    /// A client over an already-connected stream (the router connects
    /// its backends with its own timeouts).
    pub(crate) fn over(stream: TcpStream) -> Result<Self, ServeError> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    pub(crate) fn send(&mut self, request: &Request) -> Result<(), ServeError> {
        write_line(&mut self.writer, &request.to_json())?;
        Ok(())
    }

    /// Reads and decodes one event line, returning the raw line and
    /// value alongside the typed event. `error` events are returned as
    /// values, not yet converted to [`ServeError::Remote`] — callers log
    /// them first (the `--events` file must contain every received
    /// line, errors included).
    pub(crate) fn read_event(&mut self) -> Result<(String, Value, Event), ServeError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ServeError::Protocol(
                "server closed the connection mid-stream".into(),
            ));
        }
        let value = json::parse(line.trim_end())
            .map_err(|e| ServeError::Protocol(format!("event is not valid JSON: {e}")))?;
        let event = Event::from_json(&value).map_err(ServeError::Protocol)?;
        Ok((line.trim_end().to_string(), value, event))
    }

    /// Sends `request` and reads its one answer: `pick` returns the
    /// expected answer or hands the event back for [`unexpected`].
    fn call<T>(
        &mut self,
        request: Request,
        expected: &str,
        pick: impl FnOnce(Event) -> Result<T, Event>,
    ) -> Result<T, ServeError> {
        self.send(&request)?;
        pick(self.read_event()?.2).map_err(|event| unexpected(event, expected))
    }

    /// Liveness probe: sends `ping`, waits for `pong`.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on socket or protocol failures.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.call(Request::Ping, "`pong`", |event| match event {
            Event::Pong => Ok(()),
            other => Err(other),
        })
    }

    /// Requests a load snapshot: sends `status`, waits for the typed
    /// answer. A daemon answers [`StatusSnapshot::Daemon`]; a router
    /// answers [`StatusSnapshot::Router`] — callers that only ever talk
    /// to daemons can use [`Client::daemon_status`] instead.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on socket or protocol failures.
    pub fn status(&mut self) -> Result<StatusSnapshot, ServeError> {
        self.call(Request::Status, "`status`", |event| match event {
            Event::Status(status) => Ok(status),
            other => Err(other),
        })
    }

    /// [`Client::status`] against a known daemon: unwraps the flat
    /// snapshot, treating a router answer as a protocol violation.
    ///
    /// # Errors
    ///
    /// As for [`Client::status`], plus [`ServeError::Protocol`] when
    /// the peer turns out to be a router.
    pub fn daemon_status(&mut self) -> Result<ServerStatus, ServeError> {
        match self.status()? {
            StatusSnapshot::Daemon(status) => Ok(status),
            StatusSnapshot::Router(_) => Err(ServeError::Protocol(
                "expected a daemon status, got a router aggregation".into(),
            )),
        }
    }

    /// Lightweight liveness/identity probe: sends `health`, waits for
    /// the typed answer. The daemon answers without touching the job
    /// queue, so this is safe to poll at heartbeat frequency.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on socket or protocol failures.
    pub fn health(&mut self) -> Result<HealthInfo, ServeError> {
        self.call(Request::Health, "`health`", |event| match event {
            Event::Health(info) => Ok(info),
            other => Err(other),
        })
    }

    /// Cancels an active job at its next member boundary (typically
    /// from a second connection while the first streams the job).
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] (class `queue`) when no such job is
    /// active; [`ServeError`] on socket or protocol failures.
    pub fn cancel(&mut self, job_id: u64) -> Result<(), ServeError> {
        self.call(
            Request::Cancel { job_id },
            "`cancelled`",
            |event| match event {
                Event::Cancelled { .. } => Ok(()),
                other => Err(other),
            },
        )
    }

    /// Asks the server to drain and exit; waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on socket or protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.call(Request::Shutdown, "`shutting_down`", |event| match event {
            Event::ShuttingDown { .. } => Ok(()),
            other => Err(other),
        })
    }

    /// Submits a suite and blocks until the terminal `suite_report`
    /// event, reassembling the member outcome entries into manifest
    /// order along the way. `on_event` sees every raw event line (for
    /// logging or `--events` files) before it is interpreted.
    ///
    /// The reassembled entries are cross-checked against the terminal
    /// report's embedded members, so a [`SubmitOutcome`] is proof the
    /// stream arrived complete and consistent regardless of completion
    /// order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] when the server reports a
    /// spec/session/queue failure, [`ServeError::Rejected`] when the
    /// queue was full (back off and resubmit),
    /// [`ServeError::Protocol`] on wire violations.
    pub fn submit(
        &mut self,
        spec: &SuiteSpec,
        on_event: impl FnMut(&str, &Value),
    ) -> Result<SubmitOutcome, ServeError> {
        self.submit_with_deadline(spec, None, on_event)
    }

    /// [`Client::submit`] with an optional job deadline: members not yet
    /// started `deadline_ms` after the server starts handling the job
    /// are reported as typed `timeout` member errors.
    ///
    /// # Errors
    ///
    /// As for [`Client::submit`].
    pub fn submit_with_deadline(
        &mut self,
        spec: &SuiteSpec,
        deadline_ms: Option<u64>,
        mut on_event: impl FnMut(&str, &Value),
    ) -> Result<SubmitOutcome, ServeError> {
        self.send(&Request::Submit {
            spec: spec.clone(),
            deadline_ms,
        })?;
        let mut next = || -> Result<Event, ServeError> {
            let (line, value, event) = self.read_event()?;
            on_event(&line, &value);
            Ok(event)
        };
        let (job_id, members, setups_built) = match next()? {
            Event::Accepted {
                job_id,
                members,
                setups_built,
                ..
            } => (job_id, members, setups_built),
            other => return Err(unexpected(other, "`accepted`")),
        };
        let mut slots: Vec<Option<Value>> = vec![None; members];
        loop {
            let mut event = next()?;
            if event.job_id_mut().is_some_and(|id| *id != job_id) {
                return Err(ServeError::Protocol("event for a different job".into()));
            }
            let (index, entry) = match event {
                Event::MemberReport {
                    member_index,
                    entry,
                    ..
                } => (member_index, entry),
                Event::MemberError {
                    member_index,
                    status,
                    message,
                    ..
                } => (
                    member_index,
                    MemberOutcome::Failed { status, message }.to_json_stable(),
                ),
                // Stage reports are progress, not outcomes: the terminal
                // campaign entry repeats every stage.
                Event::StageReport { .. } => continue,
                Event::SuiteReport { suite_report, .. } => {
                    let member_entries: Vec<Value> = slots
                        .into_iter()
                        .enumerate()
                        .map(|(i, slot)| {
                            slot.ok_or_else(|| {
                                ServeError::Protocol(format!(
                                    "terminal report arrived before member {i}"
                                ))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    // The reassembly is the point of the (job_id, index)
                    // tagging: manifest order from completion order.
                    let embedded = suite_report
                        .get("reports")
                        .and_then(Value::as_array)
                        .expect("validated");
                    if embedded != member_entries.as_slice() {
                        return Err(ServeError::Protocol(
                            "reassembled member outcomes disagree with the terminal suite report"
                                .into(),
                        ));
                    }
                    return Ok(SubmitOutcome {
                        job_id,
                        setups_built,
                        suite_report,
                        members: member_entries,
                    });
                }
                other => return Err(unexpected(other, "a member or suite report")),
            };
            let slot = slots.get_mut(index).ok_or_else(|| {
                ServeError::Protocol(format!(
                    "member index {index} out of range (members = {members})"
                ))
            })?;
            if slot.is_some() {
                return Err(ServeError::Protocol(format!(
                    "duplicate outcome for member {index}"
                )));
            }
            *slot = Some(entry);
        }
    }
}

/// What an unexpected answer to a client stands for: the server's
/// `error` ([`ServeError::Remote`]) or backpressure
/// ([`ServeError::Rejected`]), else a protocol violation.
fn unexpected(event: Event, expected: &str) -> ServeError {
    match event {
        Event::Error { class, message } => ServeError::Remote {
            error: class,
            message,
        },
        Event::Rejected { retry_after_ms } => ServeError::Rejected { retry_after_ms },
        other => ServeError::Protocol(format!("expected {expected}, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn tiny_suite() -> SuiteSpec {
        SuiteSpec::from_str(
            r#"{
                "runs": [
                    {"scenario": {"name": "illustrative"},
                     "method": {"name": "smc", "n_traces": 150}, "seed": 9, "threads": 1}
                ],
                "threads": 1
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn request_parser_accepts_the_five_kinds_and_rejects_garbage() {
        let submit = json::parse(&format!(
            "{{\"wire\": \"imcis.wire/2\", \"type\": \"submit\", \"suite\": {}}}",
            tiny_suite().to_json()
        ))
        .unwrap();
        assert!(matches!(
            Request::from_json(&submit),
            Ok(Request::Submit {
                deadline_ms: None,
                ..
            })
        ));
        let bounded = json::parse(&format!(
            "{{\"type\": \"submit\", \"deadline_ms\": 250, \"suite\": {}}}",
            tiny_suite().to_json()
        ))
        .unwrap();
        assert!(matches!(
            Request::from_json(&bounded),
            Ok(Request::Submit {
                deadline_ms: Some(250),
                ..
            })
        ));
        let ping = json::parse("{\"type\": \"ping\"}").unwrap();
        assert!(matches!(Request::from_json(&ping), Ok(Request::Ping)));
        let health = json::parse("{\"type\": \"health\"}").unwrap();
        assert!(matches!(Request::from_json(&health), Ok(Request::Health)));
        let down = json::parse("{\"type\": \"shutdown\"}").unwrap();
        assert!(matches!(Request::from_json(&down), Ok(Request::Shutdown)));
        let status = json::parse("{\"type\": \"status\"}").unwrap();
        assert!(matches!(Request::from_json(&status), Ok(Request::Status)));
        let cancel = json::parse("{\"type\": \"cancel\", \"job_id\": 3}").unwrap();
        assert!(matches!(
            Request::from_json(&cancel),
            Ok(Request::Cancel { job_id: 3 })
        ));

        for (text, class) in [
            ("{\"type\": \"teleport\"}", "wire"),
            ("{\"wire\": \"imcis.wire/9\", \"type\": \"ping\"}", "wire"),
            ("{\"type\": \"submit\"}", "wire"),
            ("{\"type\": \"submit\", \"suite\": {\"runs\": []}}", "spec"),
            ("{\"type\": \"cancel\"}", "wire"),
            ("{\"type\": \"cancel\", \"job_id\": 1, \"wat\": 2}", "wire"),
            ("[1, 2]", "wire"),
        ] {
            let value = json::parse(text).unwrap();
            let (got, _) = Request::from_json(&value).unwrap_err();
            assert_eq!(got, class, "{text}");
        }
        // `deadline_ms: 0` is a pinned usage error, not an instant
        // timeout for every member.
        let zero = json::parse(&format!(
            "{{\"type\": \"submit\", \"deadline_ms\": 0, \"suite\": {}}}",
            tiny_suite().to_json()
        ))
        .unwrap();
        let (class, message) = Request::from_json(&zero).unwrap_err();
        assert_eq!(class, "wire");
        assert_eq!(message, "`deadline_ms` must be positive");
    }

    #[test]
    fn end_to_end_submit_matches_the_direct_suite_run() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue: 4,
            rate: 0,
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();

        let spec = tiny_suite();
        let direct = crate::suite::Suite::from_spec(spec.clone())
            .unwrap()
            .run()
            .unwrap()
            .to_json_stable()
            .pretty();

        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        let health = client.health().unwrap();
        assert_eq!(health.version, env!("CARGO_PKG_VERSION"));
        assert_eq!(health.workers, 2);
        let status = client.daemon_status().unwrap();
        assert_eq!(status.queue_capacity, 4);
        assert_eq!(status.workers, 2);
        assert_eq!(status.active_jobs, 0);
        assert_eq!(status.cache_size, 0);
        let mut events = Vec::new();
        let outcome = client
            .submit(&spec, |line, _| events.push(line.to_string()))
            .unwrap();
        assert_eq!(outcome.suite_report.pretty(), direct);
        assert_eq!(outcome.members.len(), 1);
        assert!(events.iter().any(|l| l.contains("\"member_report\"")));

        // Second job over the same scenario: served from the shared cache.
        let again = client.submit(&spec, |_, _| {}).unwrap();
        assert_eq!(again.setups_built, 0);
        assert_eq!(again.suite_report.pretty(), direct);
        assert!(again.job_id > outcome.job_id);
        assert_eq!(client.daemon_status().unwrap().cache_size, 1);

        // Cancelling a finished job is a typed `queue` error.
        let err = client.cancel(outcome.job_id).unwrap_err();
        match err {
            ServeError::Remote { error, message } => {
                assert_eq!(error, "queue");
                assert_eq!(message, format!("job {} is not active", outcome.job_id));
            }
            other => panic!("expected a remote queue error, got {other}"),
        }

        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}
