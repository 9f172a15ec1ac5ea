//! The nonblocking, event-driven HTTP front end — the one server
//! `snn serve` runs, at every replica count.
//!
//! One thread, one [`Epoll`] instance, no per-connection threads: the
//! readiness loop multiplexes every connection through nonblocking
//! accept/read/write state machines and hands parsed `/infer` bodies
//! to the [`ReplicaPool`] router. In-flight replies come back through
//! [`snn_serve::Ticket::try_wait`], polled when the pool's doorbell
//! rings: every replica's batch worker writes one byte to a socket pair
//! after sending a batch's replies, and the loop watches the other end
//! with the connections. Between events the loop sleeps in `epoll_wait`
//! until the nearest deadline — an engine give-up, a quarantine probe,
//! the idle sweep, a drain's grace or deadline — capped at
//! `IDLE_TICK` so a `SIGTERM` is noticed. No reply waits on a timer.
//!
//! The protocol pieces — head parser, body framing limits, response
//! builders and status mapping — are `snn-serve`'s pure functions
//! (`snn_serve::{parse_head, infer_success_body, format_response, …}`);
//! this module owns the sockets, the route table and the per-request
//! trace and SLO bookkeeping. The integration tests pin every route
//! against fixed reference bodies.
//!
//! Connection lifecycle:
//!
//! ```text
//!          accept (nonblocking, level-triggered)
//!            │
//!            ▼
//!   ┌─> [Head] ──head complete──> [Body] ──body complete──┐
//!   │     │  > MAX_HEAD → 400, close                      │
//!   │     │  bad head   → 400, close                      ▼
//!   │     │  > MAX_BODY → 413, close (body never read) dispatch
//!   │     │                                               │
//!   │     │                            GET/POST non-infer │ /infer
//!   │     │                               (immediate)     │ (queued)
//!   │     ▼                                   │           ▼
//!   │   idle > IDLE_TIMEOUT → close           │      [InFlight]
//!   │                                         │   ticket.try_wait()
//!   │                                         │   on a doorbell ring;
//!   │                                         │   engine timeout → 503
//!   │                                         ▼           │
//!   └───────────keep-alive────────────── [respond] <──────┘
//!                                 (write, EPOLLOUT if blocked)
//! ```
//!
//! A slow or hostile peer (byte-at-a-time headers, mid-body
//! disconnect, thousands of idle keep-alives) costs one map entry and
//! one fd — never a thread, and never a wedged loop: all socket I/O
//! is nonblocking and bounded by `MAX_HEAD`/`MAX_BODY`.
//!
//! Request tracing: every request is minted a [`TraceContext`] at
//! dispatch; its 32-hex id comes back in the `x-snn-trace-id` response
//! header and travels by value through the replica queue into the
//! batch worker. `POST` routes also record a five-stage timeline
//! (`parse`, `queue_wait`, `batch_form`, `forward`, `respond`) into
//! the tail-sampled [`TraceRing`] behind `/debug/traces`; the stages
//! sum to the request's wall time up to microsecond truncation. The
//! `forward` stage runs from the batch's start to the loop picking the
//! reply up, so it holds the forward pass plus the doorbell's wake-up.

use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use serde::{Serialize, Value};
use snn_obs::{tracectx, Gauge, SloConfig, StageTiming, TraceContext, TraceRecord, TraceRing};
use snn_serve::{
    apply_reload, content_type_error, error_body, find_head_end, format_response, healthz_body,
    infer_success_body, parse_head, parse_infer_body, rejection_status, trace_get_response,
    traces_list_response, BatcherConfig, Metrics, ModelRegistry, Rejection, RequestHead,
    ServeError, Ticket, ENGINE_GRACE, IDLE_TIMEOUT, MAX_BODY, MAX_HEAD,
};

use crate::epoll::{Epoll, Event, Interest};
use crate::pool::ReplicaPool;

const LISTENER_TOKEN: u64 = 0;
/// The pool's doorbell; connection tokens count up from 1.
const DOORBELL_TOKEN: u64 = u64::MAX;
/// Longest `epoll_wait` sleep: bounds how late the loop notices a
/// `SIGTERM`, the one event that cannot ring the doorbell.
const IDLE_TICK: Duration = Duration::from_millis(250);
/// How often idle keep-alive connections are swept.
const SWEEP_INTERVAL: Duration = Duration::from_secs(1);
/// How long a drain lets an apparently-idle connection live before
/// dropping it — covers a request whose bytes were written by the peer
/// but not yet surfaced by the kernel when the drain began.
const DRAIN_IDLE_GRACE: Duration = Duration::from_millis(100);

/// Pool server tuning knobs.
#[derive(Debug, Clone)]
pub struct PoolServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of engine replicas behind the router (≥ 1).
    pub replicas: usize,
    /// Per-replica batching queue configuration.
    pub batcher: BatcherConfig,
    /// Deadline applied to `/infer` requests without `timeout_ms`.
    /// `None` means such requests wait indefinitely.
    pub default_timeout: Option<Duration>,
    /// Completed-request trace ring behind `/debug/traces`; `None`
    /// disables per-request stage timelines (ids and the
    /// `x-snn-trace-id` header are minted regardless). The default
    /// honors `SNN_TRACE_RING` / `SNN_TRACE_SLOW_MS` /
    /// `SNN_TRACE_SAMPLE`.
    pub trace_ring: Option<Arc<TraceRing>>,
    /// SLO objectives for burn-rate tracking, one tracker for the
    /// whole server; `None` disables it. The default honors `SNN_SLO`
    /// (e.g. `p99=25ms,avail=99.9`).
    pub slo: Option<SloConfig>,
    /// Breaker trips before the supervisor quarantines a replica.
    pub quarantine_trips: u32,
    /// How long a graceful drain waits for in-flight requests before
    /// the loop exits anyway.
    pub drain_timeout: Duration,
    /// Install the process `SIGTERM` handler so `kill -TERM` triggers
    /// a graceful drain instead of immediate termination. Off by
    /// default (tests drive drain via [`PoolServer::begin_drain`];
    /// only one component per process should own signal disposition).
    pub handle_sigterm: bool,
}

impl Default for PoolServerConfig {
    fn default() -> Self {
        PoolServerConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 2,
            batcher: BatcherConfig::default(),
            default_timeout: Some(Duration::from_millis(2000)),
            trace_ring: TraceRing::from_env(),
            slo: SloConfig::from_env(),
            quarantine_trips: 3,
            drain_timeout: Duration::from_secs(5),
            handle_sigterm: false,
        }
    }
}

/// The running pool server: N engine replicas behind the epoll front
/// end.
pub struct PoolServer {
    addr: SocketAddr,
    pool: Arc<ReplicaPool>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    open_connections: Arc<Gauge>,
    event_loop: Option<thread::JoinHandle<()>>,
}

impl PoolServer {
    /// Binds the listener, starts `cfg.replicas` batch workers and the
    /// readiness loop, and returns immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError`] if the address cannot be bound or an engine
    /// cannot be built.
    pub fn start(registry: Arc<ModelRegistry>, cfg: PoolServerConfig) -> Result<Self, ServeError> {
        let metrics = Arc::new(Metrics::with_slo(cfg.slo));
        let pool = Arc::new(ReplicaPool::start(Arc::clone(&registry), &cfg, Arc::clone(&metrics))?);
        let listener = TcpListener::bind(&cfg.addr).map_err(ServeError::Io)?;
        listener.set_nonblocking(true).map_err(ServeError::Io)?;
        let addr = listener.local_addr().map_err(ServeError::Io)?;
        let epoll = Epoll::new().map_err(ServeError::Io)?;
        epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ).map_err(ServeError::Io)?;
        epoll.add(pool.doorbell_fd(), DOORBELL_TOKEN, Interest::READ).map_err(ServeError::Io)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(AtomicBool::new(false));
        if cfg.handle_sigterm {
            crate::epoll::install_term_handler();
        }
        let open_connections = metrics.registry().gauge(
            "snn_pool_open_connections",
            "Connections currently registered with the readiness loop",
        );
        snn_obs::log_info!(
            "pool server listening",
            addr = addr.to_string(),
            replicas = pool.len() as u64,
            tracing = cfg.trace_ring.is_some(),
        );
        let event_loop = {
            let ev = EventLoop {
                epoll,
                listener: Some(listener),
                pool: Arc::clone(&pool),
                metrics: Arc::clone(&metrics),
                default_timeout: cfg.default_timeout,
                trace_ring: cfg.trace_ring,
                shutdown: Arc::clone(&shutdown),
                drain: Arc::clone(&drain),
                drain_timeout: cfg.drain_timeout,
                handle_sigterm: cfg.handle_sigterm,
                open_connections: Arc::clone(&open_connections),
                conns: HashMap::new(),
                inflight: HashSet::new(),
                next_token: 1,
            };
            thread::Builder::new()
                .name("snn-pool-loop".into())
                .spawn(move || ev.run())
                .expect("spawning pool event loop")
        };
        Ok(PoolServer {
            addr,
            pool,
            metrics,
            shutdown,
            drain,
            open_connections,
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's shared metrics handle.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// The replica pool (for tests and capacity reporting).
    pub fn pool(&self) -> &Arc<ReplicaPool> {
        &self.pool
    }

    /// Connections currently registered with the readiness loop — the
    /// torture tests assert this returns to zero after mass
    /// disconnects (no leaked registrations).
    pub fn open_connections(&self) -> usize {
        self.open_connections.get() as usize
    }

    /// Blocks until the event loop exits.
    pub fn join(&mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }

    /// Starts a graceful drain: the listener closes (no new
    /// connections), idle keep-alive connections drop, in-flight and
    /// partially-received requests complete (their responses close the
    /// connection), and the event loop exits once every connection is
    /// gone or [`PoolServerConfig::drain_timeout`] lapses. `SIGTERM`
    /// triggers the same path when
    /// [`PoolServerConfig::handle_sigterm`] is set.
    pub fn begin_drain(&self) {
        self.drain.store(true, Ordering::Release);
        self.pool.ring();
    }

    /// Whether a drain has been requested (by [`Self::begin_drain`] or
    /// `SIGTERM`).
    pub fn draining(&self) -> bool {
        self.drain.load(Ordering::Acquire)
    }

    /// Stops the readiness loop, drops every connection, and drains
    /// the replica queues with [`Rejection::ShuttingDown`]. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.pool.request_shutdown();
        self.pool.ring();
        self.join();
    }
}

impl Drop for PoolServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection read/parse/write state.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Accumulated unread input (may hold pipelined requests).
    buf: Vec<u8>,
    /// Pending response bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// First byte of the *current* request — start of `parse` timing.
    /// `None` while idle between requests.
    received: Option<Instant>,
    /// When this connection last went idle (created or finished a
    /// request); drives the keep-alive timeout.
    idle_since: Instant,
    /// Close once `out` fully flushes.
    close_after: bool,
    /// Whether the epoll registration currently includes EPOLLOUT.
    want_write: bool,
    /// Marked for teardown at the end of the pass.
    dead: bool,
}

enum ConnState {
    /// Accumulating the request head.
    Head,
    /// Head parsed; accumulating `content_length` body bytes.
    Body { head: RequestHead, body_start: usize },
    /// An `/infer` request submitted to a replica; polling its ticket.
    InFlight(Box<InFlightReq>),
}

/// Everything needed to finish an `/infer` once its ticket resolves.
struct InFlightReq {
    ticket: Ticket,
    replica: usize,
    ctx: TraceContext,
    received: Instant,
    submitted: Instant,
    /// Absolute instant to abandon the engine (`budget + grace`);
    /// `None` waits indefinitely (no deadline configured).
    give_up: Option<Instant>,
    /// The budget+grace span, for the timeout error message.
    give_up_after: Duration,
    close: bool,
}

/// Outcome details captured for the trace record of a finished
/// request.
#[derive(Default)]
struct Finish {
    outcome: &'static str,
    engine: String,
    batch_size: u64,
    model_version: u64,
    queue_us: u64,
    batch_form_us: u64,
    submitted: Option<Instant>,
    replied: Option<Instant>,
}

struct EventLoop {
    epoll: Epoll,
    /// `None` once a drain closed it (new connects are refused).
    listener: Option<TcpListener>,
    pool: Arc<ReplicaPool>,
    metrics: Arc<Metrics>,
    default_timeout: Option<Duration>,
    trace_ring: Option<Arc<TraceRing>>,
    shutdown: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    drain_timeout: Duration,
    handle_sigterm: bool,
    open_connections: Arc<Gauge>,
    conns: HashMap<u64, Conn>,
    /// Tokens whose connection is in [`ConnState::InFlight`].
    inflight: HashSet<u64>,
    next_token: u64,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut next_sweep = Instant::now() + SWEEP_INTERVAL;
        let mut drain_deadline: Option<Instant> = None;
        // Deadlines the previous pass left pending: the nearest engine
        // give-up and the next quarantine probe.
        let mut give_up: Option<Instant> = None;
        let mut probe: Option<Instant> = None;
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            if drain_deadline.is_none()
                && (self.drain.load(Ordering::Acquire)
                    || (self.handle_sigterm && crate::epoll::term_requested()))
            {
                self.drain.store(true, Ordering::Release);
                drain_deadline = Some(Instant::now() + self.drain_timeout);
                self.enter_drain();
            }
            let mut due = earliest(give_up, probe).map_or(next_sweep, |t| t.min(next_sweep));
            if let Some(deadline) = drain_deadline {
                let grace = self.drain_sweep();
                self.reap_dead();
                if self.conns.is_empty() || Instant::now() >= deadline {
                    break;
                }
                due = grace.map_or(deadline, |g| g.min(deadline)).min(due);
            }
            let timeout = due.saturating_duration_since(Instant::now()).min(IDLE_TICK);
            if let Err(e) = self.epoll.wait(&mut events, Some(timeout)) {
                snn_obs::log_warn!("epoll_wait failed", error = e.to_string());
                break;
            }
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            for ev in std::mem::take(&mut events) {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    DOORBELL_TOKEN => self.pool.drain_doorbell(),
                    _ => self.drive(ev),
                }
            }
            give_up = self.poll_inflight();
            probe = self.pool.supervise();
            if Instant::now() >= next_sweep {
                self.sweep_idle();
                next_sweep = Instant::now() + SWEEP_INTERVAL;
            }
            self.reap_dead();
        }
        // Teardown: deregister and drop every connection, then drain
        // the replica queues.
        for (_, conn) in self.conns.drain() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
        }
        self.open_connections.set(0.0);
        self.pool.request_shutdown();
        if drain_deadline.is_some() {
            // `inflight` still holds tokens of requests that never
            // resolved before the deadline — the drain's casualty count.
            snn_obs::log_info!("drain complete", abandoned = self.inflight.len() as u64);
        }
    }

    /// Flips the loop into drain mode: the listener closes (connects
    /// are refused from here on) and every connection is marked
    /// close-after-response, so in-flight and partially-received
    /// requests finish exactly once and then go away. Idle keep-alive
    /// connections are dropped by [`Self::drain_sweep`] after a short
    /// grace (a request's bytes may still be in the kernel buffer).
    fn enter_drain(&mut self) {
        // Accept whatever already completed its handshake: those
        // clients connected before the drain and deserve an answer.
        // Closing the listener would RST them out of the backlog.
        self.accept_ready();
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
            // Dropping closes the fd; the kernel refuses new connects.
        }
        for conn in self.conns.values_mut() {
            conn.close_after = true;
        }
        snn_obs::log_info!(
            "drain started",
            connections = self.conns.len() as u64,
            in_flight = self.inflight.len() as u64,
            timeout_ms = self.drain_timeout.as_millis() as u64,
        );
    }

    /// One drain-mode pass: drops connections that are idle (no
    /// partial frame, no pending output, nothing in flight) and have
    /// stayed so past [`DRAIN_IDLE_GRACE`]. Returns when the next idle
    /// connection's grace ends.
    fn drain_sweep(&mut self) -> Option<Instant> {
        let mut next = None;
        for conn in self.conns.values_mut() {
            if matches!(conn.state, ConnState::Head)
                && conn.buf.is_empty()
                && conn.out.is_empty()
                && conn.received.is_none()
            {
                let ends = conn.idle_since + DRAIN_IDLE_GRACE;
                if Instant::now() >= ends {
                    conn.dead = true;
                } else {
                    next = earliest(next, Some(ends));
                }
            }
        }
        next
    }

    fn accept_ready(&mut self) {
        let Some(listener) = &self.listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.epoll.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            token,
                            buf: Vec::new(),
                            out: Vec::new(),
                            out_pos: 0,
                            state: ConnState::Head,
                            received: None,
                            idle_since: Instant::now(),
                            close_after: false,
                            want_write: false,
                            dead: false,
                        },
                    );
                    self.open_connections.set(self.conns.len() as f64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Handles one readiness event for a connection. The connection is
    /// taken out of the map for the duration so handler methods can
    /// borrow `self` freely.
    fn drive(&mut self, ev: Event) {
        let Some(mut conn) = self.conns.remove(&ev.token) else { return };
        if ev.readable || ev.hangup {
            self.on_readable(&mut conn);
        }
        if ev.writable && !conn.dead {
            self.flush_out(&mut conn);
            // A flushed response may unblock parsing of pipelined
            // requests.
            if !conn.dead && conn.out.is_empty() && !matches!(conn.state, ConnState::InFlight(_))
            {
                self.process_buf(&mut conn);
            }
        }
        self.park(conn);
    }

    /// Puts a connection back in the map (keeping the inflight index
    /// coherent) — or marks it reaped if dead.
    fn park(&mut self, conn: Conn) {
        if matches!(conn.state, ConnState::InFlight(_)) && !conn.dead {
            self.inflight.insert(conn.token);
        } else {
            self.inflight.remove(&conn.token);
        }
        self.conns.insert(conn.token, conn);
    }

    fn on_readable(&mut self, conn: &mut Conn) {
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed. Mid-request (partial frame or a
                    // reply still owed) there is nobody to answer;
                    // between requests it is a clean keep-alive close.
                    conn.dead = true;
                    return;
                }
                Ok(n) => {
                    if conn.received.is_none() {
                        conn.received = Some(Instant::now());
                    }
                    conn.buf.extend_from_slice(&chunk[..n]);
                    // Cap unprocessed input while a request is in
                    // flight or a response is draining: pipelined
                    // bytes park in `buf`, but a peer blasting more
                    // than one full frame ahead of MAX_HEAD+MAX_BODY
                    // is out of contract.
                    if conn.buf.len() > MAX_HEAD + MAX_BODY + 4 {
                        conn.dead = true;
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if !matches!(conn.state, ConnState::InFlight(_)) {
            self.process_buf(conn);
        }
    }

    /// Advances the parse state machine as far as the buffered bytes
    /// allow, dispatching every complete request (stopping if one goes
    /// in flight).
    fn process_buf(&mut self, conn: &mut Conn) {
        loop {
            if conn.dead || matches!(conn.state, ConnState::InFlight(_)) {
                return;
            }
            match &conn.state {
                ConnState::Head => {
                    if conn.received.is_none() && !conn.buf.is_empty() {
                        // Pipelined leftovers count as "already
                        // arrived" for the next request's clock.
                        conn.received = Some(Instant::now());
                    }
                    let Some(pos) = find_head_end(&conn.buf) else {
                        if conn.buf.len() > MAX_HEAD {
                            self.metrics.bad_requests.inc();
                            self.respond_error(conn, 400, "malformed HTTP request");
                        }
                        return;
                    };
                    let head = match parse_head(&conn.buf[..pos]) {
                        Ok(h) => h,
                        Err(_) => {
                            self.metrics.bad_requests.inc();
                            self.respond_error(conn, 400, "malformed HTTP request");
                            return;
                        }
                    };
                    if head.content_length > MAX_BODY {
                        // Refuse before reading a byte of the payload.
                        self.metrics.bad_requests.inc();
                        self.respond_error(
                            conn,
                            413,
                            &format!("request body too large (limit {MAX_BODY} bytes)"),
                        );
                        return;
                    }
                    conn.state = ConnState::Body { head, body_start: pos + 4 };
                }
                ConnState::Body { head, body_start } => {
                    let (body_start, need) = (*body_start, body_start + head.content_length);
                    if conn.buf.len() < need {
                        return;
                    }
                    let head = match std::mem::replace(&mut conn.state, ConnState::Head) {
                        ConnState::Body { head, .. } => head,
                        _ => unreachable!("matched Body above"),
                    };
                    let body: Vec<u8> = conn.buf[body_start..need].to_vec();
                    conn.buf.drain(..need);
                    self.dispatch(conn, head, body);
                }
                ConnState::InFlight(_) => return,
            }
        }
    }

    /// Routes one complete request. Non-`/infer` routes answer
    /// immediately; `/infer` submits to the replica pool and parks the
    /// connection in flight.
    fn dispatch(&mut self, conn: &mut Conn, head: RequestHead, body: Vec<u8>) {
        let received = conn.received.take().unwrap_or_else(Instant::now);
        let ctx = TraceContext::new_root();
        let _scope = tracectx::set_scope(ctx);
        let close = head.close;
        if head.method == "POST" && head.path == "/infer" {
            self.dispatch_infer(conn, &head, &body, received, ctx, close);
            return;
        }
        let mut content_type = "application/json";
        let (status, response_body) = match (head.method.as_str(), head.path.as_str()) {
            ("GET", "/healthz") => healthz_body(
                self.pool.registry().info(),
                &self.pool.circuit_states(),
                self.metrics.slo_fast_burn(),
                self.metrics.brownout_active(),
            ),
            ("GET", "/metrics") => {
                content_type = "text/plain; version=0.0.4";
                self.pool.refresh_gauges();
                (200, self.metrics.render_prometheus())
            }
            ("GET", "/metrics.json") => {
                self.pool.refresh_gauges();
                let body = Value::Object(vec![
                    ("model".into(), self.pool.registry().info().to_value()),
                    ("instruments".into(), self.metrics.snapshot_instruments()),
                ]);
                (200, serde_json::to_string(&body).expect("Value serializes infallibly"))
            }
            ("GET", "/debug/traces") => traces_list_response(self.trace_ring.as_deref()),
            ("GET", path) if path.starts_with("/debug/traces/") => {
                trace_get_response(&path["/debug/traces/".len()..], self.trace_ring.as_deref())
            }
            ("POST", "/reload") => {
                if let Some(msg) = content_type_error(head.content_type.as_deref()) {
                    self.metrics.bad_requests.inc();
                    (400, error_body(&msg))
                } else {
                    let (status, body) = apply_reload(self.pool.registry(), &body);
                    if status == 400 {
                        self.metrics.bad_requests.inc();
                    }
                    (status, body)
                }
            }
            ("GET" | "POST", _) => (404, error_body("no such route")),
            _ => (405, error_body("method not allowed")),
        };
        self.respond(conn, status, content_type, &response_body, close, Some(&ctx.trace_hex()));
        if head.method == "POST" && head.path == "/reload" {
            self.finish(&head.path, &ctx, status, received, &Finish::default());
        }
        conn.idle_since = Instant::now();
    }

    fn dispatch_infer(
        &mut self,
        conn: &mut Conn,
        head: &RequestHead,
        body: &[u8],
        received: Instant,
        ctx: TraceContext,
        close: bool,
    ) {
        let trace_hex = ctx.trace_hex();
        let bad_input = |this: &mut Self, conn: &mut Conn, msg: &str| {
            this.metrics.bad_requests.inc();
            this.respond(conn, 400, "application/json", &error_body(msg), close, Some(&trace_hex));
            let fin = Finish { outcome: "bad_input", ..Finish::default() };
            this.finish("/infer", &ctx, 400, received, &fin);
            conn.idle_since = Instant::now();
        };
        if let Some(msg) = content_type_error(head.content_type.as_deref()) {
            bad_input(self, conn, &msg);
            return;
        }
        let parsed = std::str::from_utf8(body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(|text| parse_infer_body(text, self.pool.input_len()));
        let (input, timeout) = match parsed {
            Ok(p) => p,
            Err(msg) => {
                bad_input(self, conn, &msg);
                return;
            }
        };
        let budget = timeout.or(self.default_timeout);
        let submitted = Instant::now();
        let deadline = budget.map(|d| submitted + d);
        let (replica, routed) = self.pool.route(&input, deadline, Some(ctx));
        match routed {
            Ok(ticket) => {
                conn.state = ConnState::InFlight(Box::new(InFlightReq {
                    ticket,
                    replica,
                    ctx,
                    received,
                    submitted,
                    give_up: budget.map(|d| submitted + d + ENGINE_GRACE),
                    give_up_after: budget.unwrap_or_default() + ENGINE_GRACE,
                    close,
                }));
            }
            Err(rejection) => {
                if matches!(rejection, Rejection::BadInput { .. }) {
                    self.metrics.bad_requests.inc();
                }
                let (status, outcome) = rejection_status(&rejection);
                self.respond(
                    conn,
                    status,
                    "application/json",
                    &error_body(&rejection.to_string()),
                    close,
                    Some(&trace_hex),
                );
                let fin = Finish {
                    outcome,
                    submitted: Some(submitted),
                    replied: Some(Instant::now()),
                    ..Finish::default()
                };
                self.finish("/infer", &ctx, status, received, &fin);
                conn.idle_since = Instant::now();
            }
        }
    }

    /// Polls every in-flight ticket; finished or timed-out requests
    /// get their response queued and the connection returns to
    /// request parsing. Returns the nearest give-up instant of the
    /// requests still in flight.
    fn poll_inflight(&mut self) -> Option<Instant> {
        let mut next_give_up = None;
        let tokens: Vec<u64> = self.inflight.iter().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                self.inflight.remove(&token);
                continue;
            };
            if let ConnState::InFlight(req) = &mut conn.state {
                let waited = match req.ticket.try_wait() {
                    Some(w) => Some(w),
                    None => match req.give_up {
                        Some(t) if Instant::now() >= t => None,
                        // Still in flight (and within budget): leave
                        // parked.
                        t => {
                            next_give_up = earliest(next_give_up, t);
                            self.park(conn);
                            continue;
                        }
                    },
                };
                let req = match std::mem::replace(&mut conn.state, ConnState::Head) {
                    ConnState::InFlight(r) => r,
                    _ => unreachable!("matched InFlight above"),
                };
                self.complete_infer(&mut conn, *req, waited);
                if !conn.dead && conn.out.is_empty() {
                    // Response flushed synchronously; pipelined bytes
                    // may already hold the next request.
                    self.process_buf(&mut conn);
                    if let ConnState::InFlight(next) = &conn.state {
                        next_give_up = earliest(next_give_up, next.give_up);
                    }
                }
            }
            self.park(conn);
        }
        next_give_up
    }

    /// Builds and queues the `/infer` response once its ticket
    /// resolved (`None` = engine timeout): status mapping, SLO
    /// accounting, and trace stages.
    fn complete_infer(
        &mut self,
        conn: &mut Conn,
        req: InFlightReq,
        waited: Option<Result<snn_serve::InferReply, Rejection>>,
    ) {
        let replied = Instant::now();
        let mut fin = Finish {
            submitted: Some(req.submitted),
            replied: Some(replied),
            ..Finish::default()
        };
        let (status, body) = match waited {
            Some(Ok(reply)) => {
                fin.outcome = "ok";
                fin.engine = reply.output.engine.clone();
                fin.batch_size = reply.batch_size as u64;
                fin.model_version = reply.model_version;
                fin.queue_us = reply.queue_us;
                fin.batch_form_us = reply.batch_form_us;
                self.pool.record_reply(req.replica, &reply);
                (200, infer_success_body(&reply))
            }
            Some(Err(rejection)) => {
                if matches!(rejection, Rejection::BadInput { .. }) {
                    self.metrics.bad_requests.inc();
                }
                let (status, outcome) = rejection_status(&rejection);
                fin.outcome = outcome;
                (status, error_body(&rejection.to_string()))
            }
            None => {
                fin.outcome = "engine_timeout";
                (
                    503,
                    error_body(&format!(
                        "engine timed out after {}ms; request abandoned",
                        req.give_up_after.as_millis()
                    )),
                )
            }
        };
        self.respond(
            conn,
            status,
            "application/json",
            &body,
            req.close,
            Some(&req.ctx.trace_hex()),
        );
        self.finish("/infer", &req.ctx, status, req.received, &fin);
        conn.idle_since = Instant::now();
    }

    /// Books a finished request: SLO accounting (availability excludes
    /// client errors), the HTTP-side stage histograms, and the
    /// tail-sampled trace record. Runs *after* the response bytes are
    /// queued, so the `respond` stage is real. The five stages
    /// partition `[received, finished]` exactly: `forward` is the
    /// in-flight remainder between submit and reply minus the
    /// worker-attributed queue/batch_form time.
    fn finish(
        &self,
        path: &str,
        ctx: &TraceContext,
        status: u16,
        received: Instant,
        fin: &Finish,
    ) {
        let finished = Instant::now();
        let total_us = (finished - received).as_micros() as u64;
        if path == "/infer" {
            if status != 400 {
                self.metrics.slo_record(!matches!(status, 429 | 503 | 504), total_us);
            }
            if status >= 500 || status == 429 {
                snn_obs::log_warn!(
                    "infer failed",
                    status = status,
                    outcome = fin.outcome,
                    total_us = total_us,
                );
            }
        }
        let submitted = fin.submitted.unwrap_or(finished);
        let replied = fin.replied.unwrap_or(submitted);
        let parse_us = (submitted - received).as_micros() as u64;
        let in_flight_us = (replied - submitted).as_micros() as u64;
        let forward_us = in_flight_us.saturating_sub(fin.queue_us + fin.batch_form_us);
        let respond_us = (finished - replied).as_micros() as u64;
        if path == "/infer" {
            self.metrics.stage_parse.record(parse_us as f64 * 1e-6);
            self.metrics.stage_respond.record(respond_us as f64 * 1e-6);
        }
        let Some(ring) = &self.trace_ring else { return };
        let outcome = if fin.outcome.is_empty() {
            match status {
                200 => "ok",
                400 | 413 => "bad_input",
                409 => "incompatible",
                429 => "queue_full",
                504 => "deadline",
                _ => "error",
            }
        } else {
            fin.outcome
        };
        let stages = vec![
            StageTiming { stage: "parse".into(), micros: parse_us },
            StageTiming { stage: "queue_wait".into(), micros: fin.queue_us },
            StageTiming { stage: "batch_form".into(), micros: fin.batch_form_us },
            StageTiming { stage: "forward".into(), micros: forward_us },
            StageTiming { stage: "respond".into(), micros: respond_us },
        ];
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        ring.offer(TraceRecord {
            trace_id: ctx.trace_hex(),
            span_id: ctx.span_hex(),
            unix_ms,
            route: path.to_string(),
            engine: fin.engine.clone(),
            status,
            outcome: outcome.to_string(),
            batch_size: fin.batch_size,
            model_version: fin.model_version,
            total_us,
            stages,
        });
    }

    /// Queues a response and flushes as much as the socket accepts.
    fn respond(
        &mut self,
        conn: &mut Conn,
        status: u16,
        content_type: &str,
        body: &str,
        close: bool,
        trace_id: Option<&str>,
    ) {
        let response = format_response(status, content_type, body, close, trace_id);
        conn.out.extend_from_slice(response.as_bytes());
        conn.close_after |= close;
        self.flush_out(conn);
    }

    /// An error response that always closes the connection (framing is
    /// unrecoverable).
    fn respond_error(&mut self, conn: &mut Conn, status: u16, message: &str) {
        snn_obs::log_debug!("unframeable request", status = status, error = message.to_string());
        self.respond(conn, status, "application/json", &error_body(message), true, None);
    }

    fn flush_out(&mut self, conn: &mut Conn) {
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self.epoll.modify(
                            conn.stream.as_raw_fd(),
                            conn.token,
                            Interest::READ_WRITE,
                        );
                    }
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.want_write {
            conn.want_write = false;
            let _ =
                self.epoll.modify(conn.stream.as_raw_fd(), conn.token, Interest::READ);
        }
        if conn.close_after {
            conn.dead = true;
        }
    }

    /// Closes keep-alive connections idle past [`IDLE_TIMEOUT`]. A
    /// connection mid-request (partial head/body, in-flight ticket, or
    /// a draining response) is exempt: only time between requests
    /// counts as idle.
    fn sweep_idle(&mut self) {
        for conn in self.conns.values_mut() {
            if matches!(conn.state, ConnState::Head)
                && conn.buf.is_empty()
                && conn.out.is_empty()
                && conn.idle_since.elapsed() > IDLE_TIMEOUT
            {
                conn.dead = true;
            }
        }
    }

    /// Deregisters and drops every connection marked dead this pass.
    fn reap_dead(&mut self) {
        let dead: Vec<u64> =
            self.conns.iter().filter(|(_, c)| c.dead).map(|(t, _)| *t).collect();
        if dead.is_empty() {
            return;
        }
        for token in dead {
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.epoll.delete(conn.stream.as_raw_fd());
            }
            self.inflight.remove(&token);
        }
        self.open_connections.set(self.conns.len() as f64);
    }
}

/// The earlier of two optional instants; `None` is "never".
fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}
