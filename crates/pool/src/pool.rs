//! The replicated engine pool: N independent [`Batcher`] replicas
//! behind a power-of-two-choices router.
//!
//! Each replica is a full serve-side worker — its own bounded
//! micro-batch queue, its own `InferenceEngine` built from the shared
//! [`ModelRegistry`], and its own circuit breaker — so one wedged or
//! panicking replica sheds its load onto the others instead of taking
//! the whole server down. All replicas poll the *same* registry
//! version at every batch boundary, so a single `/reload` swap
//! retargets every replica atomically per batch: no replica ever
//! serves a half-old, half-new model, and two replicas can disagree
//! only for the remainder of an already-formed batch.
//!
//! Routing sends each request to the shallower of two uniformly
//! sampled replica queues ([`crate::router::choose`]), skipping
//! replicas whose breaker is open; when a chosen replica still answers
//! `CircuitOpen` (race with a just-tripped breaker) the request is
//! re-routed once over the remaining closed replicas before the typed
//! rejection is surfaced.
//!
//! Every replica's batch worker rings the pool's one [`Doorbell`] after
//! sending a batch's replies; the front end's event loop watches the
//! other end of that socket pair and polls its tickets when it rings.
//!
//! On top of routing sits a self-healing supervisor
//! ([`ReplicaPool::supervise`], driven once per event-loop pass): a
//! replica whose breaker keeps tripping is *quarantined* — removed
//! from routing, its batcher torn down and rebuilt from the shared
//! registry — then *probed* with a synthetic inference and re-admitted
//! only once the probe succeeds. Probe failures back off
//! exponentially ([`snn_fault::Backoff`]) and rebuild again, so a
//! persistently broken replica converges to cheap periodic probes
//! instead of serving errors. The last serving replica is never
//! quarantined: degraded capacity beats none.

use std::io::Read;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use snn_obs::{Counter, Gauge, TraceContext};
use snn_serve::{
    Batcher, BatcherConfig, CircuitState, Doorbell, InferReply, Metrics, ModelRegistry, Rejection,
    ServeError, Ticket,
};

use crate::server::PoolServerConfig;

/// Per-replica labeled instruments (`replica="<i>"`), registered in
/// the server's one registry ([`Metrics::registry`]).
struct ReplicaInstruments {
    queue_depth: Arc<Gauge>,
    circuit_state: Arc<Gauge>,
    routed: Arc<Counter>,
    infer_seconds: Arc<snn_obs::Histogram>,
    queue_seconds: Arc<snn_obs::Histogram>,
    quarantine_state: Arc<Gauge>,
}

/// Supervisor-side health record for one replica, touched only under
/// its mutex (single supervisor thread; the lock guards against a
/// future second caller, not contention).
struct ReplicaHealth {
    /// Closed→open breaker transitions observed since the last
    /// readmission.
    trips: u32,
    /// Whether the breaker was open at the previous supervise pass
    /// (edge detection for trip counting).
    was_open: bool,
    /// An in-flight synthetic probe, polled nonblockingly each pass.
    probe: Option<Ticket>,
    /// Consecutive failed probes since quarantine began.
    probe_failures: usize,
    /// Next instant a probe may be launched (backoff on failures).
    probe_not_before: Instant,
}

impl ReplicaHealth {
    fn new() -> ReplicaHealth {
        ReplicaHealth {
            trips: 0,
            was_open: false,
            probe: None,
            probe_failures: 0,
            probe_not_before: Instant::now(),
        }
    }
}

/// One engine replica plus its pool-side accounting.
struct Replica {
    /// The live batcher; swapped wholesale when the supervisor
    /// rebuilds a quarantined replica.
    batcher: RwLock<Arc<Batcher>>,
    /// Routing eligibility, readable lock-free on the request path.
    quarantined: AtomicBool,
    instruments: ReplicaInstruments,
    health: Mutex<ReplicaHealth>,
}

impl Replica {
    fn batcher(&self) -> Arc<Batcher> {
        Arc::clone(&self.batcher.read().unwrap_or_else(|p| p.into_inner()))
    }

    fn health(&self) -> std::sync::MutexGuard<'_, ReplicaHealth> {
        self.health.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }
}

/// The replica set, router state, and supervisor.
pub struct ReplicaPool {
    replicas: Vec<Replica>,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    /// Per-replica batcher configuration, kept for supervisor
    /// rebuilds.
    batcher_cfg: BatcherConfig,
    quarantine_trips: u32,
    quarantine_total: Arc<Counter>,
    quarantine_readmitted: Arc<Counter>,
    router_p2c: Arc<Counter>,
    router_fallback: Arc<Counter>,
    router_rerouted: Arc<Counter>,
    rr: AtomicUsize,
    /// xorshift state for candidate sampling; contention is irrelevant
    /// (any interleaving still yields uniform-enough samples for p2c).
    rng: AtomicU64,
    /// Handed to every batcher this pool starts, rebuilds included.
    doorbell: Doorbell,
    /// The doorbell's read end. Declared last so it outlives every
    /// batcher (and its worker) that could still ring.
    bell_rx: UnixStream,
}

impl ReplicaPool {
    /// Starts `cfg.replicas` batch workers against the shared
    /// registry. All replicas report into the one shared `metrics`
    /// (additive counters aggregate correctly; the non-additive
    /// gauges are re-derived at scrape time by
    /// [`ReplicaPool::refresh_gauges`]), and the pool registers its
    /// own series in that same [`Metrics::registry`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the doorbell's socket pair cannot be
    /// made, [`ServeError::Snapshot`] if an engine cannot be built
    /// from the registry's current snapshot.
    pub fn start(
        registry: Arc<ModelRegistry>,
        cfg: &PoolServerConfig,
        metrics: Arc<Metrics>,
    ) -> Result<ReplicaPool, ServeError> {
        let n = cfg.replicas.max(1);
        let reg = metrics.registry();
        let seconds = snn_obs::span_bounds();
        let batcher_cfg = cfg.batcher.clone();
        let (doorbell, bell_rx) = Doorbell::pair().map_err(ServeError::Io)?;
        let mut replicas = Vec::with_capacity(n);
        for i in 0..n {
            let batcher = Arc::new(
                Batcher::start(
                    Arc::clone(&registry),
                    batcher_cfg.clone(),
                    Arc::clone(&metrics),
                    Some(doorbell.clone()),
                )
                .map_err(ServeError::Snapshot)?,
            );
            let instruments = ReplicaInstruments {
                queue_depth: reg.gauge(
                    &format!("snn_pool_replica_queue_depth{{replica=\"{i}\"}}"),
                    "Queued requests per engine replica (sampled at scrape)",
                ),
                circuit_state: reg.gauge(
                    &format!("snn_pool_replica_circuit_state{{replica=\"{i}\"}}"),
                    "Per-replica breaker state (0=closed,1=half-open,2=open)",
                ),
                routed: reg.counter(
                    &format!("snn_pool_replica_routed_total{{replica=\"{i}\"}}"),
                    "Requests the router sent to this replica",
                ),
                infer_seconds: reg.histogram(
                    &format!("snn_pool_replica_infer_seconds{{replica=\"{i}\"}}"),
                    "Per-replica engine forward time per served request: the batch's \
                     forward time divided by its realized batch size",
                    seconds,
                ),
                queue_seconds: reg.histogram(
                    &format!("snn_pool_replica_queue_seconds{{replica=\"{i}\"}}"),
                    "Per-replica queue wait per served request",
                    seconds,
                ),
                quarantine_state: reg.gauge(
                    &format!("snn_pool_quarantine_state{{replica=\"{i}\"}}"),
                    "Supervisor state per replica (0=serving,1=quarantined,2=probing)",
                ),
            };
            replicas.push(Replica {
                batcher: RwLock::new(batcher),
                quarantined: AtomicBool::new(false),
                instruments,
                health: Mutex::new(ReplicaHealth::new()),
            });
        }
        let quarantine_total = reg.counter(
            "snn_pool_quarantine_total",
            "Replicas quarantined by the self-healing supervisor",
        );
        let quarantine_readmitted = reg.counter(
            "snn_pool_quarantine_readmitted_total",
            "Quarantined replicas probed healthy and readmitted to routing",
        );
        let router_p2c = reg.counter(
            "snn_pool_router_p2c_total",
            "Routing decisions made by two-choice depth comparison",
        );
        let router_fallback = reg.counter(
            "snn_pool_router_fallback_total",
            "Routing decisions that fell back to round-robin (both samples unavailable)",
        );
        let router_rerouted = reg.counter(
            "snn_pool_router_rerouted_total",
            "Requests re-routed to another replica after a CircuitOpen rejection",
        );
        Ok(ReplicaPool {
            replicas,
            registry,
            metrics,
            batcher_cfg,
            quarantine_trips: cfg.quarantine_trips.max(1),
            quarantine_total,
            quarantine_readmitted,
            router_p2c,
            router_fallback,
            router_rerouted,
            rr: AtomicUsize::new(0),
            rng: AtomicU64::new(0x9e3779b97f4a7c15),
            doorbell,
            bell_rx,
        })
    }

    /// Rings the doorbell: wakes the front end's event loop when there
    /// is no reply to deliver (shutdown, drain).
    pub(crate) fn ring(&self) {
        self.doorbell.ring();
    }

    /// The doorbell's read end, for the event loop's readiness set.
    pub(crate) fn doorbell_fd(&self) -> RawFd {
        self.bell_rx.as_raw_fd()
    }

    /// Reads the doorbell until it would block. The registration is
    /// level-triggered, so any ring left unread wakes the loop again.
    pub(crate) fn drain_doorbell(&self) {
        let mut buf = [0u8; 64];
        while let Ok(1..) = (&self.bell_rx).read(&mut buf) {}
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the pool has no replicas (never true — construction
    /// clamps to ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The shared model registry.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Flattened input length the served model requires (identical
    /// across replicas — they share one registry, and hot-swaps
    /// preserve the interface).
    pub fn input_len(&self) -> usize {
        self.replicas[0].batcher().input_len()
    }

    /// Every replica's breaker state, in replica order. Feeds
    /// `/healthz`: `ok` only when all are closed.
    pub fn circuit_states(&self) -> Vec<CircuitState> {
        self.replicas.iter().map(|r| r.batcher().circuit_state()).collect()
    }

    /// Which replicas are currently quarantined, in replica order.
    pub fn quarantined_flags(&self) -> Vec<bool> {
        self.replicas.iter().map(|r| r.is_quarantined()).collect()
    }

    /// Supervisor counters `(quarantined_total, readmitted_total)`.
    pub fn quarantine_counts(&self) -> (u64, u64) {
        (self.quarantine_total.get(), self.quarantine_readmitted.get())
    }

    fn sample(&self) -> u64 {
        // xorshift64* step over an atomic seed; races just mix harder.
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.store(x, Ordering::Relaxed);
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Routes one request: picks a replica by power-of-two-choices on
    /// queue depth (skipping open breakers), submits, and on a
    /// `CircuitOpen` race re-routes across the remaining closed
    /// replicas. Returns the replica index that accepted (or the last
    /// one tried) alongside the submission result.
    ///
    /// # Errors
    ///
    /// The final [`Rejection`] if every eligible replica refused.
    pub fn route(
        &self,
        input: &[f32],
        deadline: Option<Instant>,
        trace: Option<TraceContext>,
    ) -> (usize, Result<Ticket, Rejection>) {
        let n = self.replicas.len();
        // `pool.route` fault site: an injected io error marks every
        // replica unavailable for this sampling pass, forcing the
        // fallback scan (and, downstream, the re-route path) without
        // real breaker trips.
        let injected_unavailable = snn_fault::inject_io_error("pool.route").is_some();
        let batchers: Vec<Arc<Batcher>> = self.replicas.iter().map(|r| r.batcher()).collect();
        let depths: Vec<usize> = batchers.iter().map(|b| b.queue_len()).collect();
        let available: Vec<bool> = self
            .replicas
            .iter()
            .zip(&batchers)
            .map(|(r, b)| {
                !injected_unavailable
                    && !r.is_quarantined()
                    && b.circuit_state() != CircuitState::Open
            })
            .collect();
        let s = self.sample();
        let (a, b) = ((s >> 32) as usize, s as usize);
        let rr = self.rr.fetch_add(1, Ordering::Relaxed);
        let (first, decision) = crate::router::choose(&depths, &available, a, b, rr);
        match decision {
            crate::router::Decision::P2c => self.router_p2c.inc(),
            crate::router::Decision::Fallback => self.router_fallback.inc(),
        }
        let mut idx = first;
        let mut tried = 0usize;
        loop {
            match batchers[idx].submit_traced_ref(input, deadline, trace) {
                Ok(ticket) => {
                    self.replicas[idx].instruments.routed.inc();
                    return (idx, Ok(ticket));
                }
                // A breaker that tripped between sampling and submit:
                // drain onto the next closed replica instead of
                // bouncing the request back to the client.
                Err(Rejection::CircuitOpen) => {
                    tried += 1;
                    if tried >= n {
                        return (idx, Err(Rejection::CircuitOpen));
                    }
                    let next = (idx + 1..idx + n).map(|k| k % n).find(|&j| {
                        !self.replicas[j].is_quarantined()
                            && batchers[j].circuit_state() != CircuitState::Open
                    });
                    match next {
                        Some(j) => {
                            self.router_rerouted.inc();
                            idx = j;
                        }
                        None => return (idx, Err(Rejection::CircuitOpen)),
                    }
                }
                Err(e) => return (idx, Err(e)),
            }
        }
    }

    /// Records a served reply's per-replica stage timings. Every rider
    /// of a batch reports the batch's forward time, so each records its
    /// share of it: the sum over a batch's riders is one forward pass,
    /// and `Δ infer_seconds_sum / wall` is the engine's busy fraction.
    pub fn record_reply(&self, replica: usize, reply: &InferReply) {
        let r = &self.replicas[replica];
        let riders = reply.batch_size.max(1) as f64;
        r.instruments.infer_seconds.record(reply.infer_us as f64 * 1e-6 / riders);
        r.instruments.queue_seconds.record(reply.queue_us as f64 * 1e-6);
    }

    /// Re-derives every scrape-time gauge: per-replica queue depth and
    /// breaker state, plus the shared front gauges that individual
    /// replicas would clobber racily — total depth, worst breaker, and
    /// the admission limit summed over replicas.
    pub fn refresh_gauges(&self) {
        let mut total_depth = 0usize;
        let mut admit_limit = 0.0;
        let mut worst = CircuitState::Closed;
        for r in &self.replicas {
            let batcher = r.batcher();
            let depth = batcher.queue_len();
            let state = batcher.circuit_state();
            total_depth += depth;
            admit_limit += batcher.admission_limit();
            if state.as_gauge() > worst.as_gauge() {
                worst = state;
            }
            r.instruments.queue_depth.set(depth as f64);
            r.instruments.circuit_state.set(state.as_gauge());
        }
        self.metrics.queue_depth.set(total_depth as f64);
        self.metrics.admit_limit.set(admit_limit);
        self.metrics.circuit_state.set(worst.as_gauge());
    }

    /// Per-replica routed-request counts, in replica order.
    pub fn routed_counts(&self) -> Vec<u64> {
        self.replicas.iter().map(|r| r.instruments.routed.get()).collect()
    }

    /// Requests shutdown on every replica (new submissions rejected,
    /// queues drained with [`Rejection::ShuttingDown`]).
    pub fn request_shutdown(&self) {
        for r in &self.replicas {
            r.batcher().request_shutdown();
        }
    }

    /// One pass of the self-healing supervisor; cheap when nothing is
    /// wrong (per replica: one atomic read, one mutex, one breaker
    /// peek). Called from the front end's event loop after every
    /// wake-up. Returns the earliest instant a quarantined replica may
    /// launch its next probe, the one step here that waits on a clock
    /// rather than on a ring; `None` when nothing is waiting to probe.
    ///
    /// State machine per replica:
    ///
    /// * **serving** — count closed→open breaker transitions; at
    ///   [`PoolServerConfig::quarantine_trips`] the replica is quarantined
    ///   (pulled from routing, batcher rebuilt from the registry),
    ///   unless it is the last one still serving.
    /// * **quarantined** — launch a synthetic probe inference through
    ///   the rebuilt batcher once `probe_not_before` passes.
    /// * **probing** — poll the probe ticket. Success readmits the
    ///   replica (trip count reset); failure rebuilds again and backs
    ///   off exponentially before the next probe.
    pub fn supervise(&self) -> Option<Instant> {
        // Live check (atomics, no second health lock): when several
        // replicas trip in the same pass, each quarantine must see the
        // ones already taken this pass, or the guard would let the
        // whole pool quarantine at once.
        let serving_elsewhere = |i: usize| {
            self.replicas.iter().enumerate().any(|(j, r)| j != i && !r.is_quarantined())
        };
        let mut next_probe: Option<Instant> = None;
        for (i, r) in self.replicas.iter().enumerate() {
            let mut h = r.health();
            if !r.is_quarantined() {
                let open = r.batcher().circuit_state() == CircuitState::Open;
                if open && !h.was_open {
                    h.trips += 1;
                    snn_obs::log_warn!(
                        "replica breaker tripped",
                        replica = i as u64,
                        trips = u64::from(h.trips),
                    );
                }
                h.was_open = open;
                if h.trips >= self.quarantine_trips && serving_elsewhere(i) {
                    self.quarantine(i, r, &mut h);
                }
            } else if let Some(probe) = h.probe.as_mut() {
                match probe.try_wait() {
                    None => {} // still in flight; its reply rings the doorbell
                    Some(Ok(_)) => self.readmit(i, r, &mut h),
                    Some(Err(e)) => self.probe_failed(i, r, &mut h, &e.to_string()),
                }
            } else if Instant::now() >= h.probe_not_before {
                let batcher = r.batcher();
                let input = vec![0.0f32; batcher.input_len()];
                let deadline = Instant::now() + PROBE_DEADLINE;
                match batcher.submit(input, Some(deadline)) {
                    Ok(ticket) => {
                        h.probe = Some(ticket);
                        r.instruments.quarantine_state.set(2.0);
                    }
                    Err(e) => self.probe_failed(i, r, &mut h, &e.to_string()),
                }
            }
            if r.is_quarantined() && h.probe.is_none() {
                let at = h.probe_not_before;
                next_probe = Some(next_probe.map_or(at, |t| t.min(at)));
            }
        }
        next_probe
    }

    /// Pulls replica `i` out of routing and rebuilds its batcher.
    fn quarantine(&self, i: usize, r: &Replica, h: &mut ReplicaHealth) {
        r.quarantined.store(true, Ordering::Release);
        r.instruments.quarantine_state.set(1.0);
        self.quarantine_total.inc();
        h.probe = None;
        h.probe_failures = 0;
        h.probe_not_before = Instant::now();
        snn_obs::log_warn!("replica quarantined", replica = i as u64, trips = u64::from(h.trips));
        self.rebuild(i, r);
    }

    /// Swaps in a fresh batcher built from the shared registry and
    /// shuts the old one down (in-flight jobs drain as
    /// [`Rejection::ShuttingDown`]; routing already excludes the
    /// replica). A failed rebuild keeps the old batcher — the next
    /// probe will fail against it and retry the rebuild after backoff.
    fn rebuild(&self, i: usize, r: &Replica) {
        match Batcher::start(
            Arc::clone(&self.registry),
            self.batcher_cfg.clone(),
            Arc::clone(&self.metrics),
            Some(self.doorbell.clone()),
        ) {
            Ok(fresh) => {
                let mut slot = r.batcher.write().unwrap_or_else(|p| p.into_inner());
                let old = std::mem::replace(&mut *slot, Arc::new(fresh));
                drop(slot);
                old.request_shutdown();
                snn_obs::log_info!("replica engine rebuilt", replica = i as u64);
            }
            Err(e) => {
                snn_obs::log_error!(
                    "replica rebuild failed",
                    replica = i as u64,
                    error = e.to_string(),
                );
            }
        }
    }

    /// A probe came back healthy: return the replica to routing.
    fn readmit(&self, i: usize, r: &Replica, h: &mut ReplicaHealth) {
        h.probe = None;
        h.probe_failures = 0;
        h.trips = 0;
        h.was_open = false;
        r.quarantined.store(false, Ordering::Release);
        r.instruments.quarantine_state.set(0.0);
        self.quarantine_readmitted.inc();
        snn_fault::record_recovery();
        snn_obs::log_info!("replica readmitted", replica = i as u64);
    }

    /// A probe failed (or could not even be submitted): rebuild the
    /// engine again and back off before the next attempt.
    fn probe_failed(&self, i: usize, r: &Replica, h: &mut ReplicaHealth, why: &str) {
        h.probe = None;
        h.probe_failures += 1;
        let backoff = snn_fault::Backoff::new(
            self.batcher_cfg.breaker_cooldown,
            self.batcher_cfg.breaker_cooldown * 32,
        );
        h.probe_not_before = Instant::now() + backoff.delay(h.probe_failures);
        r.instruments.quarantine_state.set(1.0);
        snn_obs::log_warn!(
            "replica probe failed",
            replica = i as u64,
            failures = h.probe_failures as u64,
            error = why,
        );
        self.rebuild(i, r);
    }
}

/// Deadline a synthetic quarantine probe gets to complete before it
/// counts as failed.
const PROBE_DEADLINE: Duration = Duration::from_secs(1);

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
    use snn_serve::Metrics;
    use snn_tensor::Shape;

    fn snapshot(seed: u64) -> NetworkSnapshot {
        let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
        let net = SpikingNetwork::builder(Shape::d1(16), seed)
            .dense(8, lif)
            .unwrap()
            .dense(4, lif)
            .unwrap()
            .build()
            .unwrap();
        NetworkSnapshot::from_network(&net)
    }

    fn pool_with_quarantine(quarantine_trips: u32) -> ReplicaPool {
        let registry = Arc::new(ModelRegistry::new(snapshot(3), "demo").unwrap());
        let metrics = Arc::new(Metrics::with_slo(None));
        let cfg = PoolServerConfig {
            replicas: 2,
            batcher: BatcherConfig {
                max_batch: 1,
                max_wait: Duration::from_micros(100),
                timesteps: 2,
                breaker_threshold: 1,
                breaker_cooldown: Duration::from_millis(20),
                ..BatcherConfig::default()
            },
            quarantine_trips,
            ..PoolServerConfig::default()
        };
        ReplicaPool::start(registry, &cfg, metrics).unwrap()
    }

    /// The full self-healing arc: a replica whose worker panics trips
    /// its breaker, the supervisor quarantines and rebuilds it, the
    /// synthetic probe succeeds against the fresh engine, and the
    /// replica is readmitted with its trip count reset — all while the
    /// surviving replica keeps serving.
    #[test]
    fn tripped_replica_is_quarantined_rebuilt_and_readmitted() {
        let plan = snn_fault::FaultPlan::parse("panic@serve.worker:1", 7).unwrap();
        let _guard = snn_fault::install(Arc::new(plan));
        let pool = pool_with_quarantine(1);
        let input = vec![0.1f32; pool.input_len()];

        // The first batch anywhere panics: this request's replica trips
        // its (threshold-1) breaker.
        let (victim, result) = pool.route(&input, None, None);
        assert_eq!(
            result.unwrap().wait(),
            Err(Rejection::WorkerPanic),
            "the fault plan's panic must surface on the first request"
        );
        assert_eq!(pool.circuit_states()[victim], CircuitState::Open);

        // Supervisor passes: quarantine + rebuild, probe, readmit.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.quarantine_counts().0 == 0 {
            assert!(Instant::now() < deadline, "replica never quarantined");
            pool.supervise();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(pool.quarantined_flags()[victim], "victim pulled from routing");
        assert!(
            !pool.quarantined_flags()[1 - victim],
            "the healthy replica must keep serving"
        );

        // While quarantined, every request lands on the survivor.
        let (idx, result) = pool.route(&input, None, None);
        assert_eq!(idx, 1 - victim);
        result.unwrap().wait().expect("survivor serves during quarantine");

        while pool.quarantine_counts().1 == 0 {
            assert!(Instant::now() < deadline, "replica never readmitted");
            pool.supervise();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!pool.quarantined_flags()[victim], "readmitted to routing");
        assert_eq!(pool.circuit_states()[victim], CircuitState::Closed);
        assert_eq!(pool.quarantine_counts(), (1, 1));

        // The rebuilt replica actually serves again.
        let mut served = [false, false];
        let check = Instant::now() + Duration::from_secs(5);
        while !(served[0] && served[1]) {
            assert!(Instant::now() < check, "rebuilt replica never served: {served:?}");
            let (idx, result) = pool.route(&input, None, None);
            if result.and_then(|t| t.wait()).is_ok() {
                served[idx] = true;
            }
        }
        pool.request_shutdown();
    }

    /// The last serving replica is never quarantined, no matter how
    /// many times its breaker trips: degraded capacity beats none.
    #[test]
    fn last_serving_replica_is_never_quarantined() {
        // Both replicas' first batches panic; with threshold 1 both
        // breakers open.
        let plan = snn_fault::FaultPlan::parse("panic@serve.worker:1,panic@serve.worker:2", 7)
            .unwrap();
        let _guard = snn_fault::install(Arc::new(plan));
        let pool = pool_with_quarantine(1);
        let input = vec![0.1f32; pool.input_len()];
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.circuit_states().iter().any(|s| *s != CircuitState::Open) {
            assert!(Instant::now() < deadline, "breakers never both opened");
            let (_, result) = pool.route(&input, None, None);
            if let Ok(t) = result {
                let _ = t.wait();
            }
        }
        // One supervise pass quarantines one replica; the survivor is
        // exempt no matter how many more passes run.
        for _ in 0..10 {
            pool.supervise();
        }
        let quarantined = pool.quarantined_flags().iter().filter(|&&q| q).count();
        assert_eq!(quarantined, 1, "exactly one of two tripped replicas quarantined");
        pool.request_shutdown();
    }
}
