//! The front-line router: one `imcis.wire/2` endpoint fanning jobs out
//! over a fleet of [`Server`](crate::serve::Server) daemons with
//! **cache affinity**.
//!
//! The daemon's expensive asset is its process-wide
//! [`SetupCache`](crate::suite::SetupCache): a scenario built once is
//! free for every later job. A generic load balancer destroys that —
//! spreading identical `(scenario, params)` jobs round-robin rebuilds
//! the same `Setup` on every backend. [`Router`] instead places each
//! job by the **dominant cache key of its manifest** (the most frequent
//! [`ScenarioRef::cache_key`](crate::spec::ScenarioRef::cache_key)
//! among its members, ties broken by the lexicographically smallest
//! key) on a consistent-hash ring of backends: identical workloads land
//! on the same daemon and find its cache warm, and adding or removing a
//! backend only moves the keys adjacent to its ring points.
//!
//! DSL members need no special casing here: a `{"dsl": "<source>"}`
//! scenario's cache key is the canonical JSON of its source plus bound
//! parameters ([`crate::dsl`]), so resubmitted sources — and sweep
//! grids expanded from one manifest, whose members usually share a
//! dominant source — route to the backend that already compiled them.
//!
//! Clients need no new protocol: the router speaks `imcis.wire/2` on
//! both sides, so `imcis submit` works against a router unchanged.
//! Per request:
//!
//! * `submit` — validated router-side (a `file` path resolves on the
//!   router's filesystem), then proxied to the job's preferred live
//!   backend. A backend answering `rejected {retry_after_ms}` makes the
//!   job **spill** to the next distinct backend on the ring walk; only
//!   when every live backend rejects does the client see `rejected`
//!   (with the largest hint). The backend's event stream —
//!   `accepted`, `member_report` / `member_error` in completion order,
//!   terminal `suite_report` — is proxied back verbatim except for the
//!   `job_id`, which is relabelled to the router's own id space.
//! * `cancel` — mapped from the router job id to the owning backend and
//!   forwarded there; the acknowledgement is relabelled back.
//! * `status` — answered as the **aggregated** router shape
//!   (`"role": "router"`): per-backend health + freshly polled load
//!   snapshots ([`StatusSnapshot::Router`](crate::serve::StatusSnapshot)
//!   decodes it).
//! * `health` — answered by the router itself; `workers` counts live
//!   backends.
//! * `shutdown` — fanned out to every live backend, then the router
//!   drains its own connections and exits.
//!
//! # Failover
//!
//! A heartbeat thread probes every backend with the lightweight
//! `health` request. A backend that stops answering is marked dead and
//! thereby evicted from routing (ring *walks* simply skip it); when it
//! answers again it rejoins — with a cold cache, which costs wall-clock
//! only, never bytes. If a backend dies **mid-job**, the router
//! resubmits the whole manifest to the next live backend on the ring
//! walk, swallows the duplicate `accepted`, and suppresses member
//! events for indices the client already received. Because every member
//! session is a pure function of the manifest, the re-run members are
//! byte-identical to what the dead backend would have sent — the
//! determinism contract is exactly what makes transparent re-routing
//! sound, and the terminal `suite_report` stays `cmp`-identical to the
//! batch artefact (pinned by `tests/router.rs` and the CI router smoke
//! step).

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use imc_models::fnv1a64;

use crate::serve::{
    health, send, BackendStatus, Client, Connections, Event, JobDisposition, Request, RouterStatus,
    ServeError, StatusSnapshot, RETRY_AFTER_MS,
};
use crate::suite::SuiteSpec;

/// Virtual ring points per backend: enough to spread keys evenly at
/// small fleet sizes without making ring construction noticeable.
const VNODES: usize = 64;

/// Connect timeout for every router→backend connection (probes and
/// proxies alike): a dead host must fail fast, not hang a heartbeat.
const CONNECT_TIMEOUT_MS: u64 = 1_000;

/// Read timeout for *probe* connections (health polls, status
/// aggregation). Proxy streams deliberately read without a deadline —
/// a long member session is progress, and a killed backend surfaces as
/// EOF, not silence.
const PROBE_TIMEOUT_MS: u64 = 2_000;

/// Router configuration: where to listen and which fleet to front.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`host:port`; port `0` binds an ephemeral port).
    pub addr: String,
    /// Backend daemon addresses, in the order `status` reports them.
    pub backends: Vec<String>,
    /// Maximum concurrently proxied jobs; a submit beyond it is
    /// answered `rejected {retry_after_ms}` without contacting any
    /// backend.
    pub queue: usize,
    /// Heartbeat interval: every backend is `health`-probed this often.
    pub heartbeat_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7400".into(),
            backends: Vec::new(),
            queue: 64,
            heartbeat_ms: 500,
        }
    }
}

/// A consistent-hash ring over backend indices. Public so tests can
/// predict placements (e.g. arrange for a particular backend to be a
/// key's first choice).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring point, backend index)`, sorted by point.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl HashRing {
    /// Builds the ring: `VNODES` (64) points per backend, each at
    /// `splitmix64(fnv1a64("{addr}#{vnode}"))`. The splitmix finaliser
    /// matters: raw FNV of near-identical short strings (adjacent
    /// ports, consecutive vnode suffixes) clusters on the ring and
    /// starves backends. Deterministic in the address list, so every
    /// router process fronting the same fleet places every key
    /// identically.
    pub fn new(backends: &[String]) -> Self {
        let mut points = Vec::with_capacity(backends.len() * VNODES);
        for (index, addr) in backends.iter().enumerate() {
            for vnode in 0..VNODES {
                let point = imc_sim::splitmix64(fnv1a64(format!("{addr}#{vnode}").as_bytes()));
                points.push((point, index));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            backends: backends.len(),
        }
    }

    /// The full preference order for `key`: every distinct backend
    /// index, in the order a clockwise ring walk from `key`'s point
    /// first meets them. The head is the affinity target; the tail is
    /// the spill/failover order.
    pub fn preference(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.backends);
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|(point, _)| *point < key);
        for offset in 0..self.points.len() {
            let (_, index) = self.points[(start + offset) % self.points.len()];
            if !order.contains(&index) {
                order.push(index);
                if order.len() == self.backends {
                    break;
                }
            }
        }
        order
    }
}

/// The dominant cache key of a manifest: the most frequent member
/// cache key, ties broken by the lexicographically smallest key — a
/// pure function of the manifest, so every router places a given suite
/// identically. Returns the key's stable fingerprint for the ring.
pub fn dominant_cache_fingerprint(spec: &SuiteSpec) -> u64 {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for member in &spec.runs {
        let key = member.run_spec().scenario.cache_key();
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => counts.push((key, 1)),
        }
    }
    counts
        .into_iter()
        .max_by(|(ka, na), (kb, nb)| na.cmp(nb).then_with(|| kb.cmp(ka)))
        .map(|(key, _)| fnv1a64(key.as_bytes()))
        .unwrap_or(0)
}

/// One backend's routing state.
struct Backend {
    addr: String,
    /// The heartbeat's verdict; dead backends are skipped by every ring
    /// walk (the "eviction") and rejoin as soon as they answer again.
    alive: AtomicBool,
}

/// One job currently proxied through the router.
struct RouterJob {
    /// Router-side id (what the client sees and cancels with).
    job_id: u64,
    /// The owning backend's address — updated on failover so a late
    /// `cancel` reaches the backend actually running the job.
    backend: String,
    /// The backend-side job id to forward in `cancel`.
    backend_job: u64,
    members_total: usize,
    members_done: Arc<AtomicUsize>,
}

/// State shared by the connection handlers and the heartbeat thread.
struct RouterState {
    conns: Connections,
    backends: Vec<Backend>,
    ring: HashRing,
    started: Instant,
    next_job: AtomicU64,
    jobs_routed: AtomicU64,
    active_jobs: AtomicUsize,
    queue_capacity: usize,
    jobs: Mutex<Vec<RouterJob>>,
}

/// Connects to one backend with the router's connect timeout; `probe`
/// additionally bounds reads (heartbeats must never hang on a wedged
/// backend).
fn connect(addr: &str, probe: bool) -> Result<Client, ServeError> {
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| ServeError::Io(format!("cannot resolve `{addr}`: {e}")))?
        .next()
        .ok_or_else(|| ServeError::Io(format!("`{addr}` resolves to no address")))?;
    let stream = TcpStream::connect_timeout(&resolved, Duration::from_millis(CONNECT_TIMEOUT_MS))
        .map_err(|e| ServeError::Io(format!("cannot connect to `{addr}`: {e}")))?;
    if probe {
        stream.set_read_timeout(Some(Duration::from_millis(PROBE_TIMEOUT_MS)))?;
    }
    Client::over(stream)
}

impl Backend {
    /// Probes the backend with `health` (the heartbeat and the initial
    /// aliveness sweep). The verdict is stored before the probe
    /// connection closes, so it cannot land after a later connection to
    /// a backend that serves one connection at a time has seen the
    /// backend die.
    fn probe(&self) {
        let mut conn = connect(&self.addr, true);
        let healthy = conn.as_mut().is_ok_and(|conn| conn.health().is_ok());
        self.alive.store(healthy, Ordering::SeqCst);
    }
}

/// The cache-affinity front-line router. See the [module docs](self)
/// for the routing, spill and failover semantics.
pub struct Router {
    state: RouterState,
    heartbeat_ms: u64,
}

impl Router {
    /// Binds the listen socket and sweeps the fleet once so routing
    /// starts from real liveness, not optimism. The heartbeat thread
    /// starts with [`Router::run`] / [`Router::spawn`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when no backend is configured or the address
    /// cannot be bound.
    pub fn bind(config: RouterConfig) -> Result<Self, ServeError> {
        if config.backends.is_empty() {
            return Err(ServeError::Io(
                "router needs at least one --backend address".into(),
            ));
        }
        let state = RouterState {
            conns: Connections::bind(&config.addr)?,
            backends: config
                .backends
                .iter()
                .map(|addr| {
                    let backend = Backend {
                        addr: addr.clone(),
                        alive: AtomicBool::new(false),
                    };
                    backend.probe();
                    backend
                })
                .collect(),
            ring: HashRing::new(&config.backends),
            started: Instant::now(),
            next_job: AtomicU64::new(1),
            jobs_routed: AtomicU64::new(0),
            active_jobs: AtomicUsize::new(0),
            queue_capacity: config.queue.max(1),
            jobs: Mutex::new(Vec::new()),
        };
        Ok(Router {
            state,
            heartbeat_ms: config.heartbeat_ms.max(1),
        })
    }

    /// The bound listen address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.conns.local_addr
    }

    /// Accepts and serves connections until a client sends `shutdown`
    /// (which is fanned out to the fleet first), then drains.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the accept loop fails irrecoverably.
    pub fn run(self) -> Result<(), ServeError> {
        let state = &self.state;
        let interval = Duration::from_millis(self.heartbeat_ms);
        std::thread::scope(|scope| {
            // The heartbeat: probe every backend, flip its aliveness,
            // sleep in short slices so shutdown is prompt. A dead
            // backend is evicted from routing on the next walk; a
            // recovered one rejoins (cold cache — wall-clock, never
            // bytes).
            scope.spawn(move || {
                while !state.conns.shutting_down() {
                    for backend in &state.backends {
                        backend.probe();
                        if state.conns.shutting_down() {
                            return;
                        }
                    }
                    let mut slept = Duration::ZERO;
                    while slept < interval && !state.conns.shutting_down() {
                        let slice = (interval - slept).min(Duration::from_millis(50));
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                }
            });
            state
                .conns
                .serve(|| |request, out: &mut TcpStream| state.handle(request, out))
        })
    }

    /// Runs the router on a background thread (tests, in-process use).
    pub fn spawn(self) -> std::thread::JoinHandle<Result<(), ServeError>> {
        std::thread::spawn(move || self.run())
    }
}

impl RouterState {
    /// Answers one request on a router connection; `false` closes it.
    fn handle(&self, request: Request, out: &mut TcpStream) -> bool {
        let answer = match request {
            Request::Ping => Event::Pong,
            Request::Health => {
                let live = self
                    .backends
                    .iter()
                    .filter(|b| b.alive.load(Ordering::SeqCst));
                health(live.count(), self.started)
            }
            Request::Status => self.aggregate_status(),
            Request::Cancel { job_id } => self.forward_cancel(job_id),
            Request::Shutdown => {
                // Fan the shutdown out to every live backend before
                // acknowledging: the fleet drains as one unit.
                for backend in &self.backends {
                    if backend.alive.load(Ordering::SeqCst) {
                        let _ = connect(&backend.addr, true).and_then(|mut conn| conn.shutdown());
                    }
                }
                let jobs = self.jobs.lock().expect("job list poisoned");
                Event::ShuttingDown {
                    jobs: jobs
                        .iter()
                        .map(|job| JobDisposition {
                            job_id: job.job_id,
                            members: job.members_total as u64,
                            members_done: job.members_done.load(Ordering::SeqCst) as u64,
                            campaigns: Vec::new(),
                        })
                        .collect(),
                }
            }
            Request::Submit { spec, deadline_ms } => {
                if self
                    .active_jobs
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |active| {
                        (active < self.queue_capacity).then_some(active + 1)
                    })
                    .is_err()
                {
                    Event::Rejected {
                        retry_after_ms: RETRY_AFTER_MS,
                    }
                } else {
                    let alive = self.proxy_job(spec, deadline_ms, out);
                    self.active_jobs.fetch_sub(1, Ordering::SeqCst);
                    return alive;
                }
            }
        };
        send(out, &answer)
    }

    /// The aggregated `status` answer: per-backend health (the
    /// heartbeat verdict, refreshed by this very poll) plus each
    /// reachable backend's own load snapshot.
    fn aggregate_status(&self) -> Event {
        let backends = self
            .backends
            .iter()
            .map(|backend| {
                let polled = connect(&backend.addr, true).and_then(|mut conn| conn.status());
                backend.alive.store(polled.is_ok(), Ordering::SeqCst);
                BackendStatus {
                    addr: backend.addr.clone(),
                    healthy: polled.is_ok(),
                    status: match polled {
                        Ok(StatusSnapshot::Daemon(status)) => Some(status),
                        _ => None,
                    },
                }
            })
            .collect();
        Event::Status(StatusSnapshot::Router(RouterStatus {
            active_jobs: self.active_jobs.load(Ordering::SeqCst) as u64,
            jobs_routed: self.jobs_routed.load(Ordering::SeqCst),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            backends,
        }))
    }

    /// Forwards a `cancel` to the backend owning the router job: the
    /// acknowledgement comes back under the router's id, a backend
    /// error verbatim, and an unknown id is the pinned `queue` error.
    fn forward_cancel(&self, job_id: u64) -> Event {
        let target = {
            let jobs = self.jobs.lock().expect("job list poisoned");
            jobs.iter()
                .find(|job| job.job_id == job_id)
                .map(|job| (job.backend.clone(), job.backend_job))
        };
        let Some((backend, backend_job)) = target else {
            return Event::error("queue", format!("job {job_id} is not active"));
        };
        match connect(&backend, true).and_then(|mut conn| conn.cancel(backend_job)) {
            Ok(()) => Event::Cancelled { job_id },
            Err(ServeError::Remote { error, message }) => Event::Error {
                class: error,
                message,
            },
            Err(_) => Event::error(
                "queue",
                format!("backend `{backend}` did not acknowledge the cancel"),
            ),
        }
    }

    /// Opens the job on the first backend that accepts: walks the ring
    /// preference for `fingerprint`, spills past `rejected`, marks
    /// connect/read failures dead. `Ok` carries the open stream, its
    /// backend index and the backend's `accepted`; `Err` the answer for
    /// the client (a deterministic refusal verbatim, the largest
    /// `rejected` hint when every live backend is full, or a `queue`
    /// error when none is live).
    fn open_stream(
        &self,
        submit: &Request,
        fingerprint: u64,
        exclude: &[usize],
    ) -> Result<(Client, usize, Event), Event> {
        let mut rejected_hint: Option<u64> = None;
        for index in self.ring.preference(fingerprint) {
            let backend = &self.backends[index];
            if exclude.contains(&index) || !backend.alive.load(Ordering::SeqCst) {
                continue;
            }
            let opened = connect(&backend.addr, false).and_then(|mut conn| {
                conn.send(submit)?;
                let (_, _, event) = conn.read_event()?;
                Ok((conn, event))
            });
            match opened {
                Ok((conn, accepted @ Event::Accepted { .. })) => {
                    return Ok((conn, index, accepted))
                }
                // Spill: the next distinct ring node gets the job. Keep
                // the largest hint in case everybody rejects.
                Ok((_, Event::Rejected { retry_after_ms })) => {
                    rejected_hint = rejected_hint.max(Some(retry_after_ms));
                }
                // Deterministic refusals (bad spec, oversized suite)
                // fail identically on every backend: never spill.
                Ok((_, error @ Event::Error { .. })) => return Err(error),
                _ => backend.alive.store(false, Ordering::SeqCst),
            }
        }
        Err(match rejected_hint {
            Some(retry_after_ms) => Event::Rejected { retry_after_ms },
            None => Event::error("queue", "no live backend can take the job"),
        })
    }

    /// Proxies one job: forward the backend's stream under the router's
    /// job id, deliver each member once across failovers, resubmit on
    /// backend death. Returns `false` when the client vanished.
    fn proxy_job(&self, spec: SuiteSpec, deadline_ms: Option<u64>, out: &mut TcpStream) -> bool {
        let fingerprint = dominant_cache_fingerprint(&spec);
        let submit = Request::Submit { spec, deadline_ms };
        let (mut conn, mut backend, mut accepted) =
            match self.open_stream(&submit, fingerprint, &[]) {
                Ok(opened) => opened,
                Err(refusal) => return send(out, &refusal),
            };
        let Event::Accepted {
            job_id: backend_job,
            members,
            ..
        } = accepted
        else {
            unreachable!("open_stream returns an `accepted` event");
        };
        let job_id = self.next_job.fetch_add(1, Ordering::SeqCst);
        self.jobs_routed.fetch_add(1, Ordering::SeqCst);
        let members_done = Arc::new(AtomicUsize::new(0));
        self.jobs
            .lock()
            .expect("job list poisoned")
            .push(RouterJob {
                job_id,
                backend: self.backends[backend].addr.clone(),
                backend_job,
                members_total: members,
                members_done: Arc::clone(&members_done),
            });
        let relabel = |mut event: Event| {
            if let Some(id) = event.job_id_mut() {
                *id = job_id;
            }
            event
        };
        accepted = relabel(accepted);
        let mut client_alive = send(out, &accepted);
        let mut delivered = vec![false; members];
        let mut dead_backends: Vec<usize> = Vec::new();
        loop {
            let event = match conn.read_event() {
                Ok((_, _, event)) => event,
                Err(_) => {
                    // The backend died mid-job. Evict it, resubmit the
                    // whole manifest to the next live preference, and
                    // keep the client's stream seamless: the duplicate
                    // `accepted` is swallowed, already-delivered members
                    // are suppressed below.
                    self.backends[backend].alive.store(false, Ordering::SeqCst);
                    dead_backends.push(backend);
                    let Ok((
                        next,
                        index,
                        Event::Accepted {
                            job_id: next_job, ..
                        },
                    )) = self.open_stream(&submit, fingerprint, &dead_backends)
                    else {
                        let error = Event::error(
                            "queue",
                            "backend died mid-job and no live backend can take the re-route",
                        );
                        client_alive = client_alive && send(out, &error);
                        break;
                    };
                    (conn, backend) = (next, index);
                    let mut jobs = self.jobs.lock().expect("job list poisoned");
                    if let Some(job) = jobs.iter_mut().find(|job| job.job_id == job_id) {
                        job.backend = self.backends[backend].addr.clone();
                        job.backend_job = next_job;
                    }
                    continue;
                }
            };
            // After a failover the replacement backend re-runs every
            // member; indices the client already has are suppressed
            // (determinism makes the re-run byte-identical, so dropping
            // duplicates is exact). Campaign stage progress rides along
            // for members the client is still waiting on. Unsolicited
            // event kinds are dropped rather than poison the client's
            // reassembly.
            let pending = |index: usize| index < members && !delivered[index];
            let (forward, terminal) = match event {
                Event::MemberReport { member_index, .. }
                | Event::MemberError { member_index, .. }
                    if pending(member_index) =>
                {
                    delivered[member_index] = true;
                    members_done.fetch_add(1, Ordering::SeqCst);
                    (true, false)
                }
                Event::StageReport { member_index, .. } => (pending(member_index), false),
                Event::SuiteReport { .. } | Event::Error { .. } => (true, true),
                _ => (false, false),
            };
            if forward && client_alive {
                client_alive = send(out, &relabel(event));
            }
            if terminal {
                break;
            }
        }
        self.jobs
            .lock()
            .expect("job list poisoned")
            .retain(|job| job.job_id != job_id);
        client_alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::WIRE_SCHEMA;
    use serde::json::{self, Value};

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7500 + i)).collect()
    }

    #[test]
    fn ring_walks_are_deterministic_and_cover_every_backend() {
        let backends = addrs(3);
        let ring = HashRing::new(&backends);
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            let order = ring.preference(key);
            assert_eq!(order.len(), 3, "every distinct backend appears");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            assert_eq!(order, ring.preference(key), "walks are pure");
        }
        // The ring is a function of the address list, not of process
        // state: a rebuilt ring places keys identically.
        assert_eq!(HashRing::new(&backends).preference(42), ring.preference(42));
    }

    #[test]
    fn ring_spreads_keys_across_backends() {
        let ring = HashRing::new(&addrs(3));
        let mut first_choice = [0usize; 3];
        for key in 0..300u64 {
            first_choice[ring.preference(fnv1a64(&key.to_le_bytes()))[0]] += 1;
        }
        for (index, count) in first_choice.iter().enumerate() {
            assert!(
                *count > 30,
                "backend {index} got only {count}/300 keys — ring badly unbalanced"
            );
        }
    }

    #[test]
    fn dominant_fingerprint_prefers_frequency_then_smallest_key() {
        let spec: SuiteSpec = r#"{
            "runs": [
                {"scenario": {"name": "illustrative"},
                 "method": {"name": "smc", "n_traces": 100}, "threads": 1},
                {"scenario": {"name": "repair"},
                 "method": {"name": "smc", "n_traces": 100}, "threads": 1},
                {"scenario": {"name": "repair"},
                 "method": {"name": "standard-is", "n_traces": 100}, "threads": 1}
            ],
            "threads": 1
        }"#
        .parse()
        .unwrap();
        let repair_key = spec.runs[1].run_spec().scenario.cache_key();
        assert_eq!(
            dominant_cache_fingerprint(&spec),
            fnv1a64(repair_key.as_bytes()),
            "`repair` appears twice and must dominate"
        );
        // A frequency tie resolves to the lexicographically smallest
        // key — a pure manifest property, identical on every router.
        let tied: SuiteSpec = r#"{
            "runs": [
                {"scenario": {"name": "repair"},
                 "method": {"name": "smc", "n_traces": 100}, "threads": 1},
                {"scenario": {"name": "illustrative"},
                 "method": {"name": "smc", "n_traces": 100}, "threads": 1}
            ],
            "threads": 1
        }"#
        .parse()
        .unwrap();
        let keys = [
            tied.runs[0].run_spec().scenario.cache_key(),
            tied.runs[1].run_spec().scenario.cache_key(),
        ];
        let smallest = keys.iter().min().unwrap();
        assert_eq!(
            dominant_cache_fingerprint(&tied),
            fnv1a64(smallest.as_bytes())
        );
    }

    #[test]
    fn relabelling_rewrites_only_the_job_id() {
        let value = json::parse(
            r#"{"wire": "imcis.wire/2", "type": "accepted", "job_id": 7,
                "members": 3, "setups_built": 1, "cache_size": 1}"#,
        )
        .unwrap();
        let mut event = Event::from_json(&value).unwrap();
        *event.job_id_mut().unwrap() = 42;
        let relabelled = event.to_json();
        assert_eq!(relabelled.get("job_id").and_then(Value::as_u64), Some(42));
        assert_eq!(relabelled.get("members").and_then(Value::as_u64), Some(3));
        assert_eq!(
            relabelled.get("wire").and_then(Value::as_str),
            Some(WIRE_SCHEMA)
        );
        // Everything but the id survives the round trip, in order.
        let keys = |v: &Value| -> Vec<String> {
            v.as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(keys(&relabelled), keys(&value));
    }

    #[test]
    fn binding_without_backends_is_refused() {
        let err = match Router::bind(RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            queue: 4,
            heartbeat_ms: 100,
        }) {
            Err(err) => err,
            Ok(_) => panic!("binding with no backends must fail"),
        };
        assert!(err.to_string().contains("at least one --backend"));
    }
}
