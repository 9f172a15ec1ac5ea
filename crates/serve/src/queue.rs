//! Dynamic micro-batching of inference requests.
//!
//! On a single-core host the throughput lever is batching, not
//! threads: one batched forward pass amortizes per-pass overhead
//! (frame setup, im2col, GEMM dispatch) across every request in the
//! batch. The [`Batcher`] owns one worker thread and one
//! [`crate::InferenceEngine`]; callers [`Batcher::submit`] a flattened
//! input and block on the returned [`Ticket`].
//!
//! Dispatch policy, in order:
//!
//! 1. A submission is rejected immediately — **before** entering the
//!    queue — if the input length is wrong, the queue is at
//!    `capacity`, or the batcher is shutting down. The queue is
//!    bounded; overload turns into typed [`Rejection`]s, never
//!    unbounded memory growth or deadlock.
//! 2. The worker wakes on the first queued request, then lingers until
//!    either `max_batch` requests are waiting or the oldest has waited
//!    `max_wait`, and drains up to `max_batch` into one batch.
//! 3. Requests whose deadline lapsed while queued are shed with
//!    [`Rejection::DeadlineExceeded`] at dispatch, before the forward
//!    pass — a request that can no longer meet its deadline must not
//!    consume compute that others could.
//! 4. If the [`crate::ModelRegistry`] version changed, the worker
//!    rebuilds its engine first, so a batch never mixes models.
//!
//! An event loop that keeps many [`Ticket`]s learns when they resolve
//! through a [`Doorbell`]: the worker writes one byte to it after it
//! has sent each batch's replies — served, shed at the deadline,
//! failed by a caught panic, or drained at shutdown — so a readiness
//! wake-up on the other end never arrives before its reply.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crate::admission::{AdmissionConfig, AimdController};
use crate::breaker::{CircuitBreaker, CircuitState};
use crate::engine::{InferenceEngine, RequestOutput};
use crate::metrics::Metrics;
use crate::registry::ModelRegistry;
use snn_core::SnapshotError;
use snn_obs::TraceContext;

/// Tuning knobs for the batching queue.
#[derive(Debug, Clone, PartialEq)]
pub struct BatcherConfig {
    /// Largest batch one forward pass may serve.
    pub max_batch: usize,
    /// Longest the oldest queued request may wait for the batch to
    /// fill before dispatch.
    pub max_wait: Duration,
    /// Bound on queued (not yet dispatched) requests; submissions
    /// beyond it are rejected with [`Rejection::QueueFull`].
    pub capacity: usize,
    /// Timesteps each input is presented for.
    pub timesteps: usize,
    /// Consecutive worker failures (panicked batches) before the
    /// circuit opens and submissions are shed with
    /// [`Rejection::CircuitOpen`].
    pub breaker_threshold: u32,
    /// How long an open circuit sheds before admitting one half-open
    /// probe request (doubling per consecutive failed probe, capped at
    /// 32×).
    pub breaker_cooldown: Duration,
    /// AIMD admission-control tuning; enabled by default with the
    /// limit starting at `capacity` (no behavior change until
    /// congestion evidence arrives).
    pub admission: AdmissionConfig,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(2000),
            capacity: 64,
            timesteps: 4,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            admission: AdmissionConfig::default(),
        }
    }
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded queue was at capacity when the request arrived.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The request's deadline lapsed while it sat in the queue.
    DeadlineExceeded {
        /// How long it waited before being shed, microseconds.
        waited_us: u64,
    },
    /// The input length does not match the model.
    BadInput {
        /// Flattened input length the model requires.
        expected: usize,
        /// Length the request supplied.
        actual: usize,
    },
    /// The batcher is shutting down.
    ShuttingDown,
    /// The worker panicked while serving this request's batch. The
    /// worker survives (the panic is caught and the engine rebuilt),
    /// but this batch's results are lost.
    WorkerPanic,
    /// The circuit breaker is open after repeated worker failures;
    /// the request was shed without queueing.
    CircuitOpen,
    /// The AIMD admission controller's queue-depth limit was reached;
    /// the request was shed at admission (429 + `Retry-After`) before
    /// costing anyone queue time.
    AdmissionShed {
        /// The controller's limit at shed time.
        limit: usize,
    },
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            Rejection::DeadlineExceeded { waited_us } => {
                write!(f, "deadline exceeded after waiting {waited_us}us in queue")
            }
            Rejection::BadInput { expected, actual } => {
                write!(f, "bad input: expected {expected} values, got {actual}")
            }
            Rejection::ShuttingDown => write!(f, "server shutting down"),
            Rejection::WorkerPanic => {
                write!(f, "batch worker panicked while serving this request; worker restarted")
            }
            Rejection::CircuitOpen => {
                write!(f, "circuit open: shedding requests after repeated worker failures")
            }
            Rejection::AdmissionShed { limit } => {
                write!(f, "shed at admission: adaptive queue-depth limit {limit} reached")
            }
        }
    }
}

impl std::error::Error for Rejection {}

/// A served inference plus its scheduling telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct InferReply {
    /// The model's answer, with per-layer firing rates.
    pub output: RequestOutput,
    /// How many requests shared this forward pass.
    pub batch_size: usize,
    /// Time the request spent queued before the worker drained it,
    /// microseconds (the `queue_wait` trace stage).
    pub queue_us: u64,
    /// Time between the drain and the forward pass starting —
    /// deadline shedding, input assembly, any engine rebuild —
    /// microseconds (the `batch_form` trace stage).
    pub batch_form_us: u64,
    /// Duration of the shared forward pass, microseconds.
    pub infer_us: u64,
    /// Registry version of the model that answered.
    pub model_version: u64,
}

/// Handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<InferReply, Rejection>>,
}

impl Ticket {
    /// Blocks until the request is served or rejected.
    ///
    /// # Errors
    ///
    /// Returns the [`Rejection`] if the request was shed; a vanished
    /// worker reads as [`Rejection::ShuttingDown`].
    pub fn wait(self) -> Result<InferReply, Rejection> {
        self.rx.recv().unwrap_or(Err(Rejection::ShuttingDown))
    }

    /// Nonblocking poll: `None` while the request is still in flight,
    /// `Some` once it resolved. Unlike [`Ticket::wait`] this takes
    /// `&mut self`, so an event loop can keep the ticket and poll it
    /// whenever its [`Doorbell`] rings. A vanished worker reads as
    /// [`Rejection::ShuttingDown`].
    pub fn try_wait(&mut self) -> Option<Result<InferReply, Rejection>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(Rejection::ShuttingDown)),
        }
    }
}

/// The write end of an event loop's wake-up socket. A batch worker
/// rings it once after sending a batch's replies; the loop registers
/// the read end (from [`Doorbell::pair`]) with its readiness set and
/// polls its tickets when it becomes readable. Clones share one
/// socket, so every replica of a pool rings the same loop.
#[derive(Debug, Clone)]
pub struct Doorbell(Arc<UnixStream>);

impl Doorbell {
    /// A connected doorbell and the read end to watch, both
    /// nonblocking.
    ///
    /// # Errors
    ///
    /// The `socketpair` or `fcntl` error.
    pub fn pair() -> io::Result<(Doorbell, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Doorbell(Arc::new(tx)), rx))
    }

    /// Writes one byte. A full socket buffer (`WouldBlock`) already
    /// holds an unread wake-up, and a closed read end has nobody left
    /// to wake, so every error is ignored.
    pub fn ring(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

/// One queued request.
struct Job {
    input: Vec<f32>,
    deadline: Option<Instant>,
    enqueued: Instant,
    /// The owning request's identity, carried by value into the
    /// worker so spans and log records there attach to it.
    trace: Option<TraceContext>,
    tx: mpsc::Sender<Result<InferReply, Rejection>>,
}

/// State under the queue mutex.
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    wake: Condvar,
}

impl Shared {
    /// Locks the queue, recovering from poisoning: every critical
    /// section leaves `QueueState` consistent (single push/drain/flag
    /// writes), so a panic elsewhere must not wedge the whole server
    /// behind a poisoned mutex.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The dynamic micro-batching queue: accepts requests from any
/// thread, serves them from one worker-owned engine.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Option<thread::JoinHandle<()>>,
    cfg: BatcherConfig,
    input_len: usize,
    metrics: Arc<Metrics>,
    breaker: Arc<CircuitBreaker>,
    admission: Arc<AimdController>,
}

impl Batcher {
    /// Builds the engine from the registry's current model and starts
    /// the worker thread. With a `doorbell`, the worker rings it after
    /// sending every batch's replies; callers that block on
    /// [`Ticket::wait`] pass `None`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if the engine cannot be built (e.g.
    /// `cfg.timesteps == 0`).
    pub fn start(
        registry: Arc<ModelRegistry>,
        cfg: BatcherConfig,
        metrics: Arc<Metrics>,
        doorbell: Option<Doorbell>,
    ) -> Result<Self, SnapshotError> {
        let engine_version = registry.version();
        let engine = InferenceEngine::new(&registry.current().model, cfg.timesteps)?;
        let input_len = engine.input_len();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            wake: Condvar::new(),
        });
        let breaker =
            Arc::new(CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown));
        let admission = Arc::new(AimdController::new(cfg.admission.clone(), cfg.capacity));
        let worker = {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            let metrics = Arc::clone(&metrics);
            let breaker = Arc::clone(&breaker);
            let admission = Arc::clone(&admission);
            // The fault plan is thread-local; carry the submitter's
            // plan into the worker so `serve.worker` rules fire there.
            let plan = snn_fault::current();
            thread::Builder::new()
                .name("snn-serve-batcher".into())
                .spawn(move || {
                    let _fault_guard = plan.map(snn_fault::install);
                    run_worker(
                        shared,
                        registry,
                        cfg,
                        metrics,
                        breaker,
                        admission,
                        engine,
                        engine_version,
                        doorbell,
                    )
                })
                .expect("spawning batch worker")
        };
        Ok(Batcher { shared, worker: Some(worker), cfg, input_len, metrics, breaker, admission })
    }

    /// Flattened input length the served model requires. Hot-swaps
    /// preserve the model interface, so this never changes over the
    /// batcher's lifetime.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// The active configuration.
    pub fn config(&self) -> &BatcherConfig {
        &self.cfg
    }

    /// The circuit breaker's current state. `/healthz` reports
    /// `degraded` whenever this is not [`CircuitState::Closed`].
    pub fn circuit_state(&self) -> CircuitState {
        self.breaker.state()
    }

    /// The AIMD admission controller's current queue-depth limit.
    pub fn admission_limit(&self) -> f64 {
        self.admission.limit()
    }

    /// Number of requests queued (accepted, not yet drained) right
    /// now. The pool router samples this for power-of-two-choices
    /// shard selection; it is a snapshot, racy by nature, and that is
    /// fine — p2c only needs "shallower of two", not an exact count.
    pub fn queue_len(&self) -> usize {
        self.shared.lock().jobs.len()
    }

    /// Enqueues one request.
    ///
    /// # Errors
    ///
    /// Rejects immediately (without queueing) on wrong input length,
    /// an open circuit, a full queue, or shutdown.
    pub fn submit(
        &self,
        input: Vec<f32>,
        deadline: Option<Instant>,
    ) -> Result<Ticket, Rejection> {
        self.submit_inner(input.len(), move || input, deadline, None)
    }

    /// [`Batcher::submit`] over a borrowed input, with the owning
    /// request's [`TraceContext`] attached; the worker installs it
    /// around the batch it rides in. The slice is cloned only once
    /// admission succeeds (at enqueue), so the pool router can retry
    /// the same request against another replica after a rejection
    /// without re-allocating per attempt.
    ///
    /// # Errors
    ///
    /// Same rejections as [`Batcher::submit`].
    pub fn submit_traced_ref(
        &self,
        input: &[f32],
        deadline: Option<Instant>,
        trace: Option<TraceContext>,
    ) -> Result<Ticket, Rejection> {
        self.submit_inner(input.len(), || input.to_vec(), deadline, trace)
    }

    /// Shared admission path. `take` materializes the owned input and
    /// runs only after every rejection check has passed, under the
    /// queue lock.
    fn submit_inner(
        &self,
        input_len: usize,
        take: impl FnOnce() -> Vec<f32>,
        deadline: Option<Instant>,
        trace: Option<TraceContext>,
    ) -> Result<Ticket, Rejection> {
        if input_len != self.input_len {
            return Err(Rejection::BadInput { expected: self.input_len, actual: input_len });
        }
        if !self.breaker.admit() {
            self.metrics.circuit_state.set(self.breaker.state().as_gauge());
            return Err(Rejection::CircuitOpen);
        }
        self.metrics.circuit_state.set(self.breaker.state().as_gauge());
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.shared.lock();
            if st.shutdown {
                return Err(Rejection::ShuttingDown);
            }
            if st.jobs.len() >= self.cfg.capacity {
                self.metrics.rejected_full.inc();
                return Err(Rejection::QueueFull { capacity: self.cfg.capacity });
            }
            // AIMD admission runs after the fixed bound: it only sheds
            // once congestion evidence has pulled the limit below
            // capacity, so an uncongested server never sees it.
            if !self.admission.admit(st.jobs.len()) {
                self.metrics.admit_shed.inc();
                return Err(Rejection::AdmissionShed {
                    limit: self.admission.limit().floor().max(1.0) as usize,
                });
            }
            st.jobs.push_back(Job { input: take(), deadline, enqueued: Instant::now(), trace, tx });
            // Sampled under the queue lock at every enqueue/dequeue,
            // never derived, so the gauge cannot report a stale depth
            // after a drain or `/reload`.
            self.metrics.queue_depth.set(st.jobs.len() as f64);
        }
        self.metrics.received.inc();
        self.shared.wake.notify_one();
        Ok(Ticket { rx })
    }

    /// Flips the shutdown flag without joining: new submissions are
    /// rejected and the worker drains the queue with
    /// [`Rejection::ShuttingDown`], then exits. Usable through a
    /// shared reference (e.g. from `Arc<Batcher>`); the eventual
    /// [`Drop`] joins the worker.
    pub fn request_shutdown(&self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.wake.notify_all();
    }

    /// Stops accepting work, rejects everything still queued with
    /// [`Rejection::ShuttingDown`], and joins the worker. Idempotent.
    pub fn shutdown(&mut self) {
        self.request_shutdown();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The worker loop. Owns the engine; everything it shares with
/// submitters goes through `shared`.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    shared: Arc<Shared>,
    registry: Arc<ModelRegistry>,
    cfg: BatcherConfig,
    metrics: Arc<Metrics>,
    breaker: Arc<CircuitBreaker>,
    admission: Arc<AimdController>,
    engine: InferenceEngine,
    mut engine_version: u64,
    doorbell: Option<Doorbell>,
) {
    // Called at each exit from a pass, after that pass's replies are
    // sent: a wake-up must never reach the loop before its reply.
    let ring = || {
        if let Some(bell) = &doorbell {
            bell.ring();
        }
    };
    // `None` after a caught panic: the engine's scratch state may be
    // torn mid-forward-pass, so the next batch rebuilds from the
    // registry instead of trusting it.
    let mut engine = Some(engine);
    // Whether `engine` was built from the registry's brownout (INT8)
    // artifact rather than the primary slot, and which brownout
    // version it reflects.
    let mut engine_brownout = false;
    let mut engine_brownout_version = 0u64;
    loop {
        // Phase 1: sleep until there is work (or shutdown).
        let mut st = shared.lock();
        while st.jobs.is_empty() && !st.shutdown {
            st = shared.wake.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.shutdown {
            let drained: Vec<Job> = st.jobs.drain(..).collect();
            metrics.queue_depth.set(st.jobs.len() as f64);
            drop(st);
            metrics.rejected_shutdown.add(drained.len() as u64);
            if !drained.is_empty() {
                snn_obs::log_info!("shutdown drain", rejected = drained.len());
                for job in drained {
                    let _ = job.tx.send(Err(Rejection::ShuttingDown));
                }
                ring();
            }
            return;
        }

        // Phase 2: linger — give the batch a chance to fill, bounded
        // by the oldest request's patience.
        let batch_deadline = st.jobs.front().expect("non-empty").enqueued + cfg.max_wait;
        loop {
            if st.jobs.len() >= cfg.max_batch || st.shutdown {
                break;
            }
            let now = Instant::now();
            if now >= batch_deadline {
                break;
            }
            let (guard, _timeout) = shared
                .wake
                .wait_timeout(st, batch_deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }

        // Phase 3: drain up to max_batch and release the lock so
        // submitters keep flowing while we compute. `drained_at` ends
        // every drained request's `queue_wait` stage; what follows
        // until the forward pass starts is its `batch_form` stage.
        let n = st.jobs.len().min(cfg.max_batch);
        let taken: Vec<Job> = st.jobs.drain(..n).collect();
        metrics.queue_depth.set(st.jobs.len() as f64);
        drop(st);
        let drained_at = Instant::now();

        // Phase 4: shed requests whose deadline lapsed in queue. One
        // instant — the drain time — judges the whole scan: re-reading
        // the clock per job would let a large batch straddle the
        // deadline mid-scan, shedding a later job that an earlier,
        // identical deadline survived.
        let mut batch: Vec<Job> = Vec::with_capacity(taken.len());
        let mut shed_wait = Duration::ZERO;
        for job in taken {
            match job.deadline {
                Some(d) if drained_at >= d => {
                    metrics.rejected_deadline.inc();
                    let waited = drained_at - job.enqueued;
                    shed_wait = shed_wait.max(waited);
                    let waited_us = waited.as_micros() as u64;
                    let _scope = job.trace.map(snn_obs::tracectx::set_scope);
                    snn_obs::log_warn!("request shed", reason = "deadline", waited_us = waited_us);
                    let _ = job.tx.send(Err(Rejection::DeadlineExceeded { waited_us }));
                }
                _ => batch.push(job),
            }
        }
        if shed_wait > Duration::ZERO {
            // A deadline shed is queue wait with nothing to show for
            // it — the strongest congestion evidence there is.
            if admission.observe(shed_wait, Duration::ZERO) {
                metrics.admit_decreases.inc();
            }
        }
        if batch.is_empty() {
            ring();
            continue;
        }

        // The batch runs under the oldest rider's trace context:
        // spans the engines open (`infer_batch` down into
        // `snn_tensor` kernels) and any log records attach to it.
        let _batch_scope = batch
            .first()
            .and_then(|j| j.trace)
            .map(|ctx| snn_obs::tracectx::set_scope(ctx.child()));

        // Phases 5+6 run under `catch_unwind`: a panic anywhere in
        // rebuild or inference (including an injected
        // `panic@serve.worker` fault) must cost one batch, not the
        // worker thread — a dead worker would hang every future ticket.
        // The inputs move out of the jobs: afterwards a job needs only
        // its reply channel, enqueue time and trace context.
        let inputs: Vec<Vec<f32>> =
            batch.iter_mut().map(|j| std::mem::take(&mut j.input)).collect();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            snn_fault::inject_panic("serve.worker");

            // Phase 5: if the model was hot-swapped (or the engine was
            // discarded after a panic), rebuild so a batch never mixes
            // models — this is also where a dtype change (f32 → int8
            // promotion via /reload) takes effect. The registry only
            // admits validated models with an unchanged interface, so
            // this cannot fail. Brownout is decided here too, at the
            // batch boundary: while the SLO fast-burn holds and the
            // registry has a published INT8 brownout artifact, batches
            // run on the quantized engine instead.
            let current_version = registry.version();
            let current_bv = registry.brownout_version();
            // Short-circuit order matters: without a published
            // artifact the hysteresis never engages, so
            // `Metrics::brownout_active` means "mitigation actually
            // serving INT8", which is what `/healthz` keys 200-vs-503
            // off under a fast burn.
            let want_brownout = current_bv > 0 && metrics.brownout_observe();
            if engine.is_none()
                || current_version != engine_version
                || engine_brownout != want_brownout
                || (want_brownout && engine_brownout_version != current_bv)
            {
                let loaded = if want_brownout {
                    registry.brownout_artifact().expect("brownout_version > 0")
                } else {
                    registry.current()
                };
                engine = Some(
                    InferenceEngine::new(&loaded.model, cfg.timesteps)
                        .expect("registry admits only validated models"),
                );
                snn_obs::log_info!(
                    "engine rebuilt",
                    version = current_version,
                    brownout = want_brownout,
                );
                engine_version = current_version;
                engine_brownout = want_brownout;
                engine_brownout_version = if want_brownout { current_bv } else { 0 };
            }

            // Phase 6: one forward pass for the whole batch.
            let started = Instant::now();
            let outputs =
                engine.as_mut().expect("engine rebuilt above").infer_batch(&inputs);
            (outputs, started)
        }));
        let (outputs, started) = match attempt {
            Ok(ok) => ok,
            Err(_) => {
                // The worker survives; the batch does not. Shed every
                // job with a typed rejection (no ticket may hang),
                // count the recovery, and let the breaker decide
                // whether to keep admitting.
                engine = None;
                metrics.worker_panics.inc();
                breaker.on_failure();
                metrics.circuit_state.set(breaker.state().as_gauge());
                snn_fault::record_recovery();
                snn_obs::log_error!(
                    "worker panic absorbed",
                    site = "serve.worker",
                    batch = batch.len(),
                    circuit = breaker.state().as_gauge(),
                );
                for job in batch {
                    let _ = job.tx.send(Err(Rejection::WorkerPanic));
                }
                ring();
                continue;
            }
        };
        let infer_us = started.elapsed().as_micros() as u64;
        breaker.on_success();
        metrics.circuit_state.set(breaker.state().as_gauge());

        // Feed the batch's stage timeline to the admission controller:
        // the oldest rider's queue wait against the forward pass that
        // then served it.
        let oldest_wait = batch
            .iter()
            .map(|j| drained_at - j.enqueued)
            .max()
            .unwrap_or(Duration::ZERO);
        if admission.observe(oldest_wait, Duration::from_micros(infer_us)) {
            metrics.admit_decreases.inc();
        }

        metrics.batches.inc();
        metrics.batched_items.add(batch.len() as u64);
        if let Some(first) = outputs.first() {
            metrics.record_engine_requests(&first.engine, batch.len() as u64);
        }
        metrics.record_batch_outputs(&outputs);

        let batch_size = batch.len();
        let batch_form_us = (started - drained_at).as_micros() as u64;
        metrics.stage_batch_form.record(batch_form_us as f64 * 1e-6);
        metrics.stage_forward.record(infer_us as f64 * 1e-6);
        for (job, output) in batch.into_iter().zip(outputs) {
            let queue_us = (drained_at - job.enqueued).as_micros() as u64;
            metrics.stage_queue_wait.record(queue_us as f64 * 1e-6);
            metrics.completed.inc();
            metrics.record_latency(job.enqueued.elapsed().as_micros() as u64);
            let _ = job.tx.send(Ok(InferReply {
                output,
                batch_size,
                queue_us,
                batch_form_us,
                infer_us,
                model_version: engine_version,
            }));
        }
        ring();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
    use snn_tensor::Shape;

    fn snapshot(seed: u64) -> NetworkSnapshot {
        let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
        let net = SpikingNetwork::builder(Shape::d3(1, 8, 8), seed)
            .conv(4, 3, 1, 1, lif)
            .unwrap()
            .maxpool(2)
            .unwrap()
            .flatten()
            .unwrap()
            .dense(4, lif)
            .unwrap()
            .build()
            .unwrap();
        NetworkSnapshot::from_network(&net)
    }

    fn setup(cfg: BatcherConfig) -> (Arc<ModelRegistry>, Arc<Metrics>, Batcher) {
        let registry = Arc::new(ModelRegistry::new(snapshot(11), "test").unwrap());
        let metrics = Arc::new(Metrics::default());
        let batcher =
            Batcher::start(Arc::clone(&registry), cfg, Arc::clone(&metrics), None).unwrap();
        (registry, metrics, batcher)
    }

    fn input(seed: u64) -> Vec<f32> {
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..64)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) as f32) / (u32::MAX as f32)
            })
            .collect()
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let (_registry, metrics, batcher) = setup(BatcherConfig::default());
        let reply = batcher.submit(input(1), None).unwrap().wait().unwrap();
        assert_eq!(reply.output.counts.len(), 4);
        assert!(!reply.output.layers.is_empty());
        assert_eq!(reply.model_version, 1);
        assert_eq!(metrics.completed.get(), 1);
        assert_eq!(metrics.batches.get(), 1);
    }

    #[test]
    fn rejects_wrong_input_length_without_queueing() {
        let (_r, metrics, batcher) = setup(BatcherConfig::default());
        let err = batcher.submit(vec![0.0; 3], None).unwrap_err();
        assert_eq!(err, Rejection::BadInput { expected: 64, actual: 3 });
        assert_eq!(metrics.received.get(), 0);
    }

    #[test]
    fn expired_deadline_is_shed_not_served() {
        // A long linger window guarantees the 5ms deadline lapses
        // while the request is still queued.
        let cfg = BatcherConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(150),
            capacity: 8,
            timesteps: 2,
            ..BatcherConfig::default()
        };
        let (_r, metrics, batcher) = setup(cfg);
        let doomed = batcher
            .submit(input(1), Some(Instant::now() + Duration::from_millis(5)))
            .unwrap();
        let healthy = batcher.submit(input(2), None).unwrap();
        match doomed.wait() {
            Err(Rejection::DeadlineExceeded { waited_us }) => {
                assert!(waited_us >= 5_000, "waited only {waited_us}us");
            }
            other => panic!("expected deadline rejection, got {other:?}"),
        }
        let reply = healthy.wait().unwrap();
        assert_eq!(reply.output.counts.len(), 4);
        assert_eq!(metrics.rejected_deadline.get(), 1);
        assert_eq!(metrics.completed.get(), 1);
    }

    #[test]
    fn over_capacity_submissions_are_rejected_immediately() {
        // The worker lingers (max_wait) before draining, so the first
        // `capacity` submissions fill the queue and the next one must
        // bounce instead of blocking.
        let cfg = BatcherConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(250),
            capacity: 4,
            timesteps: 2,
            ..BatcherConfig::default()
        };
        let (_r, metrics, batcher) = setup(cfg);
        let tickets: Vec<Ticket> =
            (0..4).map(|i| batcher.submit(input(i), None).unwrap()).collect();
        let err = batcher.submit(input(99), None).unwrap_err();
        assert_eq!(err, Rejection::QueueFull { capacity: 4 });
        // The queued four still complete (shed policy never starves
        // accepted work), and they share one forward pass.
        for t in tickets {
            let reply = t.wait().unwrap();
            assert_eq!(reply.batch_size, 4);
        }
        assert_eq!(metrics.rejected_full.get(), 1);
        assert_eq!(metrics.completed.get(), 4);
    }

    #[test]
    fn batched_replies_are_bitwise_equal_to_serial_inference() {
        let cfg = BatcherConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(150),
            capacity: 8,
            timesteps: 4,
            ..BatcherConfig::default()
        };
        let (_r, _m, batcher) = setup(cfg);
        let items: Vec<Vec<f32>> = (0..4).map(input).collect();
        let tickets: Vec<Ticket> =
            items.iter().map(|x| batcher.submit(x.clone(), None).unwrap()).collect();
        let replies: Vec<InferReply> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert!(
            replies.iter().all(|r| r.batch_size == 4),
            "linger window should have coalesced all four requests"
        );
        let mut engine = InferenceEngine::new(snapshot(11), 4).unwrap();
        for (item, reply) in items.iter().zip(&replies) {
            let solo = engine.infer_one(item.clone());
            assert_eq!(reply.output, solo);
            for (a, b) in reply.output.counts.iter().zip(&solo.counts) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn hot_swap_takes_effect_at_batch_boundary() {
        let (registry, _m, batcher) = setup(BatcherConfig {
            max_batch: 1,
            max_wait: Duration::from_micros(100),
            capacity: 8,
            timesteps: 2,
            ..BatcherConfig::default()
        });
        let before = batcher.submit(input(3), None).unwrap().wait().unwrap();
        assert_eq!(before.model_version, 1);
        registry.swap(snapshot(77), "v2").unwrap();
        let after = batcher.submit(input(3), None).unwrap().wait().unwrap();
        assert_eq!(after.model_version, 2);
        assert_ne!(
            before.output.counts, after.output.counts,
            "different weights should change the rate-coded logits"
        );
    }

    #[test]
    fn hot_swap_to_int8_switches_the_serving_engine() {
        let (registry, metrics, batcher) = setup(BatcherConfig {
            max_batch: 1,
            max_wait: Duration::from_micros(100),
            capacity: 8,
            timesteps: 2,
            ..BatcherConfig::default()
        });
        let before = batcher.submit(input(3), None).unwrap().wait().unwrap();
        assert_eq!(before.output.engine, "f32");
        // Quantize the very model being served and promote it.
        let snap = snapshot(11);
        let split: Vec<Vec<f32>> = (0..4).map(|i| input(i + 1)).collect();
        let cal = snn_quant::calibrate(&snap, &split, 2).unwrap();
        let artifact = snn_quant::quantize_snapshot(&snap, &cal, 8).unwrap();
        let receipt = registry.swap(artifact, "int8").unwrap();
        assert_eq!(receipt.info.dtype, "int8");
        let after = batcher.submit(input(3), None).unwrap().wait().unwrap();
        assert_eq!(after.output.engine, "int8");
        assert_eq!(after.model_version, 2);
        assert_eq!(after.output.counts.len(), 4);
        assert!(!after.output.layers.is_empty(), "int8 path reports firing rates too");
        assert_eq!(metrics.engine_f32_requests.get(), 1);
        assert_eq!(metrics.engine_int8_requests.get(), 1);
    }

    #[test]
    fn worker_panic_fails_batch_typed_and_worker_survives() {
        // One injected panic: the batch it hits is lost (typed, not
        // hung), the worker catches it, rebuilds the engine, and the
        // next request is served normally.
        let plan =
            Arc::new(snn_fault::FaultPlan::parse("panic@serve.worker:1", 0).unwrap());
        let _guard = snn_fault::install(plan);
        let (_r, metrics, batcher) =
            setup(BatcherConfig { timesteps: 2, ..BatcherConfig::default() });
        let err = batcher.submit(input(1), None).unwrap().wait().unwrap_err();
        assert_eq!(err, Rejection::WorkerPanic);
        assert_eq!(metrics.worker_panics.get(), 1);
        // Default threshold is 3: one failure keeps the circuit closed.
        assert_eq!(batcher.circuit_state(), CircuitState::Closed);
        let reply = batcher.submit(input(2), None).unwrap().wait().unwrap();
        assert_eq!(reply.output.counts.len(), 4);
        assert_eq!(metrics.completed.get(), 1);
    }

    #[test]
    fn panicked_batch_matches_clean_engine_after_rebuild() {
        // The rebuilt engine must serve bitwise-identical answers: a
        // panic discards scratch state, not the model.
        let plan =
            Arc::new(snn_fault::FaultPlan::parse("panic@serve.worker:1", 0).unwrap());
        let _guard = snn_fault::install(plan);
        let (_r, _m, batcher) =
            setup(BatcherConfig { timesteps: 4, ..BatcherConfig::default() });
        let _ = batcher.submit(input(1), None).unwrap().wait().unwrap_err();
        let reply = batcher.submit(input(5), None).unwrap().wait().unwrap();
        let mut engine = InferenceEngine::new(snapshot(11), 4).unwrap();
        let solo = engine.infer_one(input(5));
        assert_eq!(reply.output, solo);
    }

    #[test]
    fn circuit_opens_after_threshold_and_probe_recloses() {
        let plan =
            Arc::new(snn_fault::FaultPlan::parse("panic@serve.worker:1", 0).unwrap());
        let _guard = snn_fault::install(plan);
        let cfg = BatcherConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(50),
            timesteps: 2,
            ..BatcherConfig::default()
        };
        let (_r, metrics, batcher) = setup(cfg);
        let err = batcher.submit(input(1), None).unwrap().wait().unwrap_err();
        assert_eq!(err, Rejection::WorkerPanic);
        assert_eq!(batcher.circuit_state(), CircuitState::Open);
        assert_eq!(metrics.circuit_state.get(), CircuitState::Open.as_gauge());
        // While open, submissions shed before queueing.
        assert_eq!(batcher.submit(input(2), None).unwrap_err(), Rejection::CircuitOpen);
        std::thread::sleep(Duration::from_millis(60));
        // First submit after cooldown is the half-open probe; the
        // occurrence rule already fired, so the probe succeeds and the
        // circuit closes.
        let reply = batcher.submit(input(3), None).unwrap().wait().unwrap();
        assert_eq!(reply.output.counts.len(), 4);
        assert_eq!(batcher.circuit_state(), CircuitState::Closed);
        assert_eq!(metrics.circuit_state.get(), CircuitState::Closed.as_gauge());
    }

    #[test]
    fn queue_len_tracks_accepted_work() {
        // A long linger window keeps submissions queued long enough
        // to observe them; after the batch drains, the queue is empty.
        let cfg = BatcherConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(200),
            capacity: 8,
            timesteps: 2,
            ..BatcherConfig::default()
        };
        let (_r, _m, batcher) = setup(cfg);
        assert_eq!(batcher.queue_len(), 0);
        let tickets: Vec<Ticket> =
            (0..3).map(|i| batcher.submit(input(i), None).unwrap()).collect();
        assert!(batcher.queue_len() <= 3, "never exceeds accepted submissions");
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(batcher.queue_len(), 0, "drained batch leaves an empty queue");
    }

    #[test]
    fn congestion_drives_admission_sheds_below_capacity() {
        // Two rounds of deadline-doomed work (queue wait with nothing
        // to show for it) pull the AIMD limit from 16 to 16·0.25² = 1;
        // the fixed capacity bound never fires, the adaptive one does.
        let cfg = BatcherConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(40),
            capacity: 16,
            timesteps: 2,
            admission: AdmissionConfig {
                decrease: 0.25,
                queue_floor: Duration::from_millis(1),
                ..AdmissionConfig::default()
            },
            ..BatcherConfig::default()
        };
        let (_r, metrics, batcher) = setup(cfg);
        assert_eq!(batcher.admission_limit(), 16.0);
        for _round in 0..2 {
            let doomed: Vec<Ticket> = (0..4)
                .map(|i| {
                    batcher
                        .submit(input(i), Some(Instant::now() + Duration::from_millis(1)))
                        .unwrap()
                })
                .collect();
            for t in doomed {
                assert!(matches!(t.wait(), Err(Rejection::DeadlineExceeded { .. })));
            }
        }
        assert_eq!(batcher.admission_limit(), 1.0);
        assert!(metrics.admit_decreases.get() >= 2);
        // One request is always admissible; the second in the same
        // linger window sheds at admission, not at capacity.
        let admitted = batcher.submit(input(1), None).unwrap();
        let err = batcher.submit(input(2), None).unwrap_err();
        assert_eq!(err, Rejection::AdmissionShed { limit: 1 });
        assert_eq!(metrics.admit_shed.get(), 1);
        assert_eq!(metrics.rejected_full.get(), 0, "capacity bound never fired");
        // The admitted request still completes — shedding never
        // starves accepted work. (Additive recovery is pinned by the
        // admission module's own tests; this config's long linger
        // reads as congestion by design.)
        admitted.wait().unwrap();
    }

    #[test]
    fn fast_burn_flips_batches_to_the_brownout_engine() {
        use crate::admission::Brownout;
        use snn_obs::SloConfig;

        let registry = Arc::new(ModelRegistry::new(snapshot(11), "test").unwrap());
        // Real SLO tracker, instant-exit brownout hold: ten failed
        // requests saturate the 5-minute error budget and flip the
        // fast-burn flag.
        let metrics = Arc::new(Metrics::with_overload(
            Some(SloConfig::parse("avail=99.9").unwrap()),
            Brownout::new(Duration::ZERO),
        ));
        let batcher = Batcher::start(
            Arc::clone(&registry),
            BatcherConfig {
                max_batch: 1,
                max_wait: Duration::from_micros(100),
                capacity: 8,
                timesteps: 2,
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
            None,
        )
        .unwrap();

        // Publish the quantized twin of the serving model as the
        // brownout artifact; the primary slot stays f32 at version 1.
        let snap = snapshot(11);
        let split: Vec<Vec<f32>> = (0..4).map(|i| input(i + 1)).collect();
        let cal = snn_quant::calibrate(&snap, &split, 2).unwrap();
        let artifact = snn_quant::quantize_snapshot(&snap, &cal, 8).unwrap();
        registry.publish_brownout(artifact, "int8-brownout").unwrap();

        let before = batcher.submit(input(3), None).unwrap().wait().unwrap();
        assert_eq!(before.output.engine, "f32");
        assert!(!metrics.brownout_active());

        for _ in 0..MIN_EVENTS_FOR_BURN_TEST {
            metrics.slo_record(false, 1_000);
        }
        assert!(metrics.slo_fast_burn(), "ten hard failures saturate the budget");
        let during = batcher.submit(input(3), None).unwrap().wait().unwrap();
        assert_eq!(during.output.engine, "int8", "brownout routes batches to INT8");
        assert_eq!(during.model_version, 1, "replies still name the primary version");
        assert!(metrics.brownout_active());
        assert_eq!(during.output.counts.len(), 4);
    }

    const MIN_EVENTS_FOR_BURN_TEST: usize = 10;

    #[test]
    fn shutdown_rejects_queued_and_new_work() {
        let cfg = BatcherConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(500),
            capacity: 16,
            timesteps: 2,
            ..BatcherConfig::default()
        };
        let (_r, metrics, mut batcher) = setup(cfg);
        let queued = batcher.submit(input(1), None).unwrap();
        batcher.shutdown();
        // Whether the worker dispatched the job before seeing the
        // flag, the ticket must resolve — shutdown never deadlocks.
        match queued.wait() {
            Ok(reply) => assert_eq!(reply.output.counts.len(), 4),
            Err(Rejection::ShuttingDown) => {
                assert_eq!(metrics.rejected_shutdown.get(), 1);
            }
            Err(other) => panic!("unexpected rejection {other:?}"),
        }
        assert_eq!(batcher.submit(input(2), None).unwrap_err(), Rejection::ShuttingDown);
    }

    /// Riders per batch in the doorbell tests: enough that the worker
    /// spends a measurable time sending, so a ring written before the
    /// sends is read while the tail of the batch is still unsent.
    const RIDERS: usize = 1024;

    /// A batcher that rings a real socket pair, with the read end made
    /// blocking (bounded) so a test can wait for the ring.
    fn setup_with_bell(cfg: BatcherConfig) -> (Arc<Metrics>, Batcher, UnixStream) {
        let registry = Arc::new(ModelRegistry::new(snapshot(11), "test").unwrap());
        let metrics = Arc::new(Metrics::default());
        let (bell, rx) = Doorbell::pair().unwrap();
        rx.set_nonblocking(false).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let batcher = Batcher::start(registry, cfg, Arc::clone(&metrics), Some(bell)).unwrap();
        (metrics, batcher, rx)
    }

    fn submit_riders(batcher: &Batcher, deadline: Option<Instant>) -> Vec<Ticket> {
        (0..RIDERS as u64).map(|i| batcher.submit(input(i), deadline).unwrap()).collect()
    }

    /// Blocks for one ring, then requires every ticket to have resolved
    /// already: the no-lost-wake-up guarantee an event loop relies on.
    /// Tickets are checked last-sent first.
    fn resolved_at_ring(
        mut rx: &UnixStream,
        tickets: &mut [Ticket],
    ) -> Vec<Result<InferReply, Rejection>> {
        use std::io::Read;
        let mut byte = [0u8; 1];
        rx.read_exact(&mut byte).expect("the worker rings the doorbell");
        let mut out: Vec<Result<InferReply, Rejection>> = tickets
            .iter_mut()
            .enumerate()
            .rev()
            .map(|(i, t)| {
                t.try_wait().unwrap_or_else(|| panic!("ticket {i} unresolved at the ring"))
            })
            .collect();
        out.reverse();
        out
    }

    #[test]
    fn doorbell_rings_after_a_served_batch() {
        let (_m, batcher, rx) = setup_with_bell(BatcherConfig {
            max_batch: RIDERS,
            max_wait: Duration::from_secs(5),
            capacity: RIDERS,
            timesteps: 2,
            ..BatcherConfig::default()
        });
        let mut tickets = submit_riders(&batcher, None);
        for r in resolved_at_ring(&rx, &mut tickets) {
            assert_eq!(r.unwrap().batch_size, RIDERS);
        }
    }

    #[test]
    fn doorbell_rings_after_a_deadline_shed() {
        // The batch never fills, so it lingers past every deadline and
        // the worker sheds all of it without a forward pass.
        let (metrics, batcher, rx) = setup_with_bell(BatcherConfig {
            max_batch: RIDERS + 1,
            max_wait: Duration::from_millis(50),
            capacity: RIDERS + 1,
            timesteps: 2,
            ..BatcherConfig::default()
        });
        let mut tickets = submit_riders(&batcher, Some(Instant::now() + Duration::from_millis(1)));
        for r in resolved_at_ring(&rx, &mut tickets) {
            assert!(matches!(r, Err(Rejection::DeadlineExceeded { .. })), "{r:?}");
        }
        assert_eq!(metrics.rejected_deadline.get(), RIDERS as u64);
    }

    #[test]
    fn doorbell_rings_after_a_caught_worker_panic() {
        let plan =
            Arc::new(snn_fault::FaultPlan::parse("panic@serve.worker:1", 0).unwrap());
        let _guard = snn_fault::install(plan);
        let (_m, batcher, rx) = setup_with_bell(BatcherConfig {
            max_batch: RIDERS,
            max_wait: Duration::from_secs(5),
            capacity: RIDERS,
            timesteps: 2,
            ..BatcherConfig::default()
        });
        let mut tickets = submit_riders(&batcher, None);
        for r in resolved_at_ring(&rx, &mut tickets) {
            assert_eq!(r.unwrap_err(), Rejection::WorkerPanic);
        }
    }

    #[test]
    fn doorbell_rings_after_the_shutdown_drain() {
        let (metrics, batcher, rx) = setup_with_bell(BatcherConfig {
            capacity: RIDERS,
            timesteps: 2,
            ..BatcherConfig::default()
        });
        // Queue the jobs and raise the flag in one critical section, so
        // the worker next sees them with shutdown already set: it must
        // drain them, not serve them.
        let mut tickets: Vec<Ticket> = Vec::with_capacity(RIDERS);
        {
            let mut st = batcher.shared.lock();
            for i in 0..RIDERS as u64 {
                let (tx, rx) = mpsc::channel();
                st.jobs.push_back(Job {
                    input: input(i),
                    deadline: None,
                    enqueued: Instant::now(),
                    trace: None,
                    tx,
                });
                tickets.push(Ticket { rx });
            }
            st.shutdown = true;
        }
        batcher.shared.wake.notify_all();
        for r in resolved_at_ring(&rx, &mut tickets) {
            assert_eq!(r.unwrap_err(), Rejection::ShuttingDown);
        }
        assert_eq!(metrics.rejected_shutdown.get(), RIDERS as u64);
    }
}
