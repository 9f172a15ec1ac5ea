//! Serving metrics on the `snn-obs` instrument spine.
//!
//! Each server instance owns a local [`snn_obs::Registry`] — tests
//! spawn several servers per process, so instance isolation matters —
//! and the exposition endpoints merge it with the process-wide
//! [`snn_obs::global`] registry (kernel spans, training instruments).
//!
//! Hot-path counters are lock-free obs handles; only the per-layer
//! firing aggregate sits behind a short mutex touched once per batch.

use std::sync::{Arc, Mutex};

use serde::Serialize;
use snn_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, SloConfig, SloTracker};

use crate::admission::Brownout;
use crate::engine::RequestOutput;
use crate::registry::ModelInfo;

/// Bucket bounds for the end-to-end request latency histogram,
/// seconds: powers of two from 10µs to ~5s.
fn latency_bounds() -> Vec<f64> {
    let mut b = Vec::with_capacity(20);
    let mut v = 1e-5;
    for _ in 0..20 {
        b.push(v);
        v *= 2.0;
    }
    b
}

/// Percentiles of the end-to-end request latency, microseconds,
/// derived from `snn_serve_request_latency_seconds`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LatencyStats {
    /// Requests recorded.
    pub samples: usize,
    /// Median end-to-end latency (submit → reply), microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst latency recorded, microseconds.
    pub max_us: u64,
}

/// Cumulative per-layer firing aggregate across all served requests.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LayerRateAgg {
    /// Layer name.
    pub layer: String,
    /// Total output spikes.
    pub spikes: f64,
    /// Total spike opportunities.
    pub neuron_steps: f64,
    /// `spikes / neuron_steps`.
    pub rate: f64,
}

/// Shared serving instruments, backed by a per-instance registry.
pub struct Metrics {
    registry: Registry,
    /// Requests accepted into the queue.
    pub received: Arc<Counter>,
    /// Requests answered with an inference result.
    pub completed: Arc<Counter>,
    /// Submissions rejected because the queue was at capacity.
    pub rejected_full: Arc<Counter>,
    /// Requests shed at dispatch because their deadline had lapsed.
    pub rejected_deadline: Arc<Counter>,
    /// Requests drained during shutdown.
    pub rejected_shutdown: Arc<Counter>,
    /// HTTP requests that failed parsing/validation.
    pub bad_requests: Arc<Counter>,
    /// Batch-worker panics caught and recovered (each one fails its
    /// batch with [`crate::Rejection::WorkerPanic`] and discards the
    /// engine for rebuild).
    pub worker_panics: Arc<Counter>,
    /// Circuit-breaker state: 0 closed, 1 half-open, 2 open.
    pub circuit_state: Arc<Gauge>,
    /// Batched forward passes executed.
    pub batches: Arc<Counter>,
    /// Requests served across those batches.
    pub batched_items: Arc<Counter>,
    /// Requests served by the f32 engine.
    pub engine_f32_requests: Arc<Counter>,
    /// Requests served by the quantized INT8 engine.
    pub engine_int8_requests: Arc<Counter>,
    /// Jobs currently queued, sampled at enqueue/dequeue — never
    /// derived from other counters, so it cannot go stale across
    /// `/reload` or shutdown drains.
    pub queue_depth: Arc<Gauge>,
    /// Current AIMD admission queue-depth limit.
    pub admit_limit: Arc<Gauge>,
    /// Submissions shed at admission by the AIMD limit (429 +
    /// `Retry-After`).
    pub admit_shed: Arc<Counter>,
    /// Multiplicative decreases the AIMD controller took on
    /// congestion evidence.
    pub admit_decreases: Arc<Counter>,
    /// 1 while brownout degradation (INT8 engine substitution) is
    /// active.
    pub brownout_gauge: Arc<Gauge>,
    /// `parse` stage: request read + JSON validation, seconds.
    pub stage_parse: Arc<Histogram>,
    /// `queue_wait` stage: enqueue → worker drain, seconds.
    pub stage_queue_wait: Arc<Histogram>,
    /// `batch_form` stage: drain → forward start (shedding, input
    /// assembly, engine rebuild), seconds, recorded once per batch.
    pub stage_batch_form: Arc<Histogram>,
    /// `forward` stage: the shared forward pass, seconds, recorded
    /// once per batch.
    pub stage_forward: Arc<Histogram>,
    /// `respond` stage: reply serialization + socket write, seconds.
    pub stage_respond: Arc<Histogram>,
    latency: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    firing_rate: Arc<Histogram>,
    layers: Mutex<Vec<LayerRateAgg>>,
    /// SLO accounting; `None` when no objectives are configured.
    slo: Option<SloTracker>,
    slo_latency_5m: Arc<Gauge>,
    slo_latency_1h: Arc<Gauge>,
    slo_availability_5m: Arc<Gauge>,
    slo_availability_1h: Arc<Gauge>,
    slo_fast_burn: Arc<Gauge>,
    /// Brownout hysteresis shared by every worker on this instance
    /// (pool replicas share one `Metrics`, so they brown out — and
    /// recover — together).
    brownout: Brownout,
}

impl Default for Metrics {
    /// Builds with the SLO objectives `SNN_SLO` asks for (none when
    /// unset). Tests wanting explicit objectives use
    /// [`Metrics::with_slo`].
    fn default() -> Self {
        Metrics::with_slo(SloConfig::from_env())
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("received", &self.received.get())
            .field("completed", &self.completed.get())
            .field("queue_depth", &self.queue_depth.get())
            .finish_non_exhaustive()
    }
}

impl Metrics {
    /// Builds the instrument set, tracking the given SLO objectives
    /// (pass `None` for no SLO accounting; the `snn_slo_*` gauges are
    /// registered either way and read 0 when untracked). Brownout
    /// hysteresis comes from `SNN_BROWNOUT_HOLD_MS`.
    pub fn with_slo(slo_cfg: Option<SloConfig>) -> Self {
        Metrics::with_overload(slo_cfg, Brownout::from_env())
    }

    /// [`Metrics::with_slo`] with an explicit [`Brownout`] switch —
    /// tests and benches pick short hold periods this way.
    pub fn with_overload(slo_cfg: Option<SloConfig>, brownout: Brownout) -> Self {
        // Touch the process-wide fault/recovery counters so
        // `snn_fault_injected_total` / `snn_recovery_total` exist in
        // the global registry (and thus every scrape) from the first
        // request, not only after the first fault.
        let _ = snn_fault::injected_total();
        let registry = Registry::new();
        let received =
            registry.counter("snn_serve_requests_received_total", "requests accepted into the queue");
        let completed = registry
            .counter("snn_serve_requests_completed_total", "requests answered with a result");
        let rejected_full = registry
            .counter("snn_serve_rejected_full_total", "submissions rejected at queue capacity");
        let rejected_deadline = registry.counter(
            "snn_serve_rejected_deadline_total",
            "requests shed because their deadline lapsed in queue",
        );
        let rejected_shutdown = registry
            .counter("snn_serve_rejected_shutdown_total", "requests drained during shutdown");
        let bad_requests = registry
            .counter("snn_serve_bad_requests_total", "HTTP requests that failed parsing/validation");
        let worker_panics = registry.counter(
            "snn_serve_worker_panics_total",
            "batch-worker panics caught; each failed one batch and restarted the engine",
        );
        let circuit_state = registry.gauge(
            "snn_serve_circuit_state",
            "circuit-breaker state: 0 closed, 1 half-open, 2 open",
        );
        let batches =
            registry.counter("snn_serve_batches_total", "batched forward passes executed");
        let batched_items =
            registry.counter("snn_serve_batched_items_total", "requests served across batches");
        let engine_f32_requests = registry
            .counter("snn_serve_engine_f32_requests_total", "requests served by the f32 engine");
        let engine_int8_requests = registry.counter(
            "snn_serve_engine_int8_requests_total",
            "requests served by the quantized INT8 engine",
        );
        let queue_depth =
            registry.gauge("snn_serve_queue_depth", "jobs currently waiting in the batch queue");
        let admit_limit = registry.gauge(
            "snn_serve_admit_limit",
            "current AIMD admission queue-depth limit (capacity when uncongested)",
        );
        let admit_shed = registry.counter(
            "snn_serve_admit_shed_total",
            "submissions shed at admission by the AIMD limit (429 + Retry-After)",
        );
        let admit_decreases = registry.counter(
            "snn_serve_admit_decreases_total",
            "multiplicative decreases the AIMD admission controller took on congestion",
        );
        let brownout_gauge = registry.gauge(
            "snn_serve_brownout_active",
            "1 while brownout degradation routes batches to the INT8 engine",
        );
        let stage_bounds = snn_obs::span_bounds();
        let stage_parse = registry.histogram(
            "snn_serve_stage_parse_seconds",
            "parse stage: request read and JSON validation, seconds",
            stage_bounds,
        );
        let stage_queue_wait = registry.histogram(
            "snn_serve_stage_queue_wait_seconds",
            "queue_wait stage: enqueue to worker drain, seconds",
            stage_bounds,
        );
        let stage_batch_form = registry.histogram(
            "snn_serve_stage_batch_form_seconds",
            "batch_form stage: drain to forward start, seconds (per batch)",
            stage_bounds,
        );
        let stage_forward = registry.histogram(
            "snn_serve_stage_forward_seconds",
            "forward stage: the shared forward pass, seconds (per batch)",
            stage_bounds,
        );
        let stage_respond = registry.histogram(
            "snn_serve_stage_respond_seconds",
            "respond stage: reply serialization and socket write, seconds",
            stage_bounds,
        );
        let slo_latency_5m = registry.gauge(
            "snn_slo_burn_rate_latency_5m",
            "latency error-budget burn rate over the trailing 5 minutes",
        );
        let slo_latency_1h = registry.gauge(
            "snn_slo_burn_rate_latency_1h",
            "latency error-budget burn rate over the trailing hour",
        );
        let slo_availability_5m = registry.gauge(
            "snn_slo_burn_rate_availability_5m",
            "availability error-budget burn rate over the trailing 5 minutes",
        );
        let slo_availability_1h = registry.gauge(
            "snn_slo_burn_rate_availability_1h",
            "availability error-budget burn rate over the trailing hour",
        );
        let slo_fast_burn = registry.gauge(
            "snn_slo_fast_burn",
            "1 while a 5-minute burn rate exceeds the paging threshold (healthz degrades)",
        );
        let latency = registry.histogram(
            "snn_serve_request_latency_seconds",
            "end-to-end request latency (submit to reply), seconds",
            &latency_bounds(),
        );
        let batch_size = registry.histogram(
            "snn_serve_batch_size",
            "requests per executed batch",
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
        );
        let firing_rate = registry.histogram(
            "snn_serve_layer_firing_rate_ratio",
            "per-layer firing rate of served requests",
            &(1..=20).map(|i| i as f64 * 0.05).collect::<Vec<_>>(),
        );
        Metrics {
            registry,
            received,
            completed,
            rejected_full,
            rejected_deadline,
            rejected_shutdown,
            bad_requests,
            worker_panics,
            circuit_state,
            batches,
            batched_items,
            engine_f32_requests,
            engine_int8_requests,
            queue_depth,
            admit_limit,
            admit_shed,
            admit_decreases,
            brownout_gauge,
            stage_parse,
            stage_queue_wait,
            stage_batch_form,
            stage_forward,
            stage_respond,
            latency,
            batch_size,
            firing_rate,
            layers: Mutex::new(Vec::new()),
            slo: slo_cfg.map(SloTracker::new),
            slo_latency_5m,
            slo_latency_1h,
            slo_availability_5m,
            slo_availability_1h,
            slo_fast_burn,
            brownout,
        }
    }

    /// Feeds the current fast-burn reading through the brownout
    /// hysteresis (workers call this at every batch boundary) and
    /// returns whether brownout is active. Keeps the
    /// `snn_serve_brownout_active` gauge in step.
    pub fn brownout_observe(&self) -> bool {
        let active = self.brownout.observe(self.slo_fast_burn());
        self.brownout_gauge.set(if active { 1.0 } else { 0.0 });
        active
    }

    /// Whether brownout degradation is active right now (no state
    /// transition; `/healthz` reads this).
    pub fn brownout_active(&self) -> bool {
        self.brownout.active()
    }

    /// Records one request's end-to-end latency.
    pub fn record_latency(&self, us: u64) {
        self.latency.record(us as f64 / 1e6);
    }

    /// Feeds one finished request into SLO accounting. `ok` means "did
    /// not fail for a server-side reason" — shed (429), deadline
    /// (504), panic/circuit/shutdown (503) count against
    /// availability; client errors (4xx validation) do not reach this
    /// path. No-op without configured objectives.
    pub fn slo_record(&self, ok: bool, latency_us: u64) {
        if let Some(slo) = &self.slo {
            slo.record(ok, std::time::Duration::from_micros(latency_us));
        }
    }

    /// Whether a 5-minute burn rate is past the paging threshold
    /// (`/healthz` reports `degraded` while true). Always false
    /// without configured objectives.
    pub fn slo_fast_burn(&self) -> bool {
        self.slo.as_ref().is_some_and(|slo| slo.burn_rates().fast_burn)
    }

    /// The configured SLO objectives, if any.
    pub fn slo_config(&self) -> Option<&SloConfig> {
        self.slo.as_ref().map(|s| s.config())
    }

    /// Refreshes the `snn_slo_*` gauges from the tracker. Called at
    /// scrape time by both expositions, so the hot path never pays
    /// for burn-rate math.
    fn update_slo_gauges(&self) {
        let Some(slo) = &self.slo else { return };
        let rates = slo.burn_rates();
        self.slo_latency_5m.set(rates.latency_5m);
        self.slo_latency_1h.set(rates.latency_1h);
        self.slo_availability_5m.set(rates.availability_5m);
        self.slo_availability_1h.set(rates.availability_1h);
        self.slo_fast_burn.set(if rates.fast_burn { 1.0 } else { 0.0 });
    }

    /// Counts `items` requests against the engine kind that served
    /// them (`"f32"` or `"int8"`; anything else is ignored rather
    /// than inventing a series).
    pub fn record_engine_requests(&self, kind: &str, items: u64) {
        match kind {
            "f32" => self.engine_f32_requests.add(items),
            "int8" => self.engine_int8_requests.add(items),
            _ => {}
        }
    }

    /// Folds a completed batch's per-request firing statistics into
    /// the cumulative per-layer aggregate, and records the realized
    /// batch size and every layer's firing rate into their
    /// histograms.
    pub fn record_batch_outputs(&self, outputs: &[RequestOutput]) {
        if outputs.is_empty() {
            return;
        }
        self.batch_size.record(outputs.len() as f64);
        // Recover from poisoning: the aggregate stays consistent per
        // entry, and metrics must never wedge the serving path.
        let mut agg = self.layers.lock().unwrap_or_else(|p| p.into_inner());
        for out in outputs {
            if agg.is_empty() {
                agg.extend(out.layers.iter().map(|l| LayerRateAgg {
                    layer: l.layer.clone(),
                    spikes: 0.0,
                    neuron_steps: 0.0,
                    rate: 0.0,
                }));
            }
            for (a, l) in agg.iter_mut().zip(&out.layers) {
                a.spikes += l.spikes;
                a.neuron_steps += l.neuron_steps;
                if l.neuron_steps > 0.0 {
                    self.firing_rate.record(l.rate);
                }
            }
        }
        for a in agg.iter_mut() {
            a.rate = if a.neuron_steps > 0.0 { a.spikes / a.neuron_steps } else { 0.0 };
        }
    }

    /// Derives the classic microsecond percentile report from the
    /// latency histogram.
    fn latency_stats(&self) -> LatencyStats {
        let to_us = |s: f64| (s * 1e6).round() as u64;
        LatencyStats {
            samples: self.latency.count() as usize,
            p50_us: to_us(self.latency.quantile(0.50)),
            p95_us: to_us(self.latency.quantile(0.95)),
            p99_us: to_us(self.latency.quantile(0.99)),
            max_us: to_us(self.latency.max()),
        }
    }

    /// Snapshots every instrument into a serializable report.
    pub fn snapshot(&self, model: ModelInfo) -> MetricsSnapshot {
        let batches = self.batches.get();
        let batched_items = self.batched_items.get();
        MetricsSnapshot {
            model,
            received: self.received.get(),
            completed: self.completed.get(),
            rejected_full: self.rejected_full.get(),
            rejected_deadline: self.rejected_deadline.get(),
            rejected_shutdown: self.rejected_shutdown.get(),
            bad_requests: self.bad_requests.get(),
            worker_panics: self.worker_panics.get(),
            circuit_state: self.circuit_state.get(),
            batches,
            batched_items,
            engine_f32_requests: self.engine_f32_requests.get(),
            engine_int8_requests: self.engine_int8_requests.get(),
            mean_batch_size: if batches > 0 {
                batched_items as f64 / batches as f64
            } else {
                0.0
            },
            queue_depth: self.queue_depth.get(),
            admit_limit: self.admit_limit.get(),
            admit_shed: self.admit_shed.get(),
            brownout_active: self.brownout.active(),
            latency_us: self.latency_stats(),
            layers: self.layers.lock().unwrap_or_else(|p| p.into_inner()).clone(),
            histograms: self.registry.histogram_snapshots(),
        }
    }

    /// Prometheus text exposition, with `# HELP`/`# TYPE` per family
    /// and a trailing newline: this instance's instruments, then a
    /// second, caller-owned registry, then the process-wide global
    /// registry. The pool front end keeps its per-replica labeled
    /// series (`replica="<i>"`) and router counters in `extra`, so both
    /// expositions show them without the shared instance registry
    /// learning about replication. The process-wide
    /// `snn_fault_injected_total` / `snn_recovery_total` counters ride
    /// in with the global registry — snn-fault registers them there.
    ///
    /// The pre-PR-3 bare-name alias series (`received`, `completed`,
    /// …) are gone as of this release — scrape the `snn_serve_*`
    /// families (see CHANGELOG.md).
    pub fn render_prometheus_with(&self, extra: &Registry) -> String {
        self.update_slo_gauges();
        let mut out = self.registry.render_prometheus();
        out.push_str(&extra.render_prometheus());
        out.push_str(&snn_obs::global().render_prometheus());
        out
    }

    /// Structured JSON form of [`Metrics::render_prometheus_with`]'s
    /// exposition, as a [`serde::Value`] array: this instance's
    /// instruments, then `extra`'s, then the global registry's — so
    /// the text and JSON expositions always agree on the instrument
    /// set.
    pub fn snapshot_instruments_with(&self, extra: &Registry) -> serde::Value {
        self.update_slo_gauges();
        let mut items = match self.registry.snapshot_value() {
            serde::Value::Array(items) => items,
            other => vec![other],
        };
        if let serde::Value::Array(extra_items) = extra.snapshot_value() {
            items.extend(extra_items);
        }
        if let serde::Value::Array(global_items) = snn_obs::global().snapshot_value() {
            items.extend(global_items);
        }
        serde::Value::Array(items)
    }
}

/// Point-in-time copy of all serving counters (the `/metrics.json`
/// summary body).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// The model the counters describe.
    pub model: ModelInfo,
    /// Requests accepted into the queue.
    pub received: u64,
    /// Requests answered with an inference result.
    pub completed: u64,
    /// Submissions rejected at capacity.
    pub rejected_full: u64,
    /// Requests shed after their deadline lapsed in queue.
    pub rejected_deadline: u64,
    /// Requests drained during shutdown.
    pub rejected_shutdown: u64,
    /// Malformed HTTP requests.
    pub bad_requests: u64,
    /// Batch-worker panics caught and recovered.
    pub worker_panics: u64,
    /// Circuit-breaker state at snapshot time (0 closed, 1 half-open,
    /// 2 open).
    pub circuit_state: f64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Requests served across those batches.
    pub batched_items: u64,
    /// Requests served by the f32 engine.
    pub engine_f32_requests: u64,
    /// Requests served by the quantized INT8 engine.
    pub engine_int8_requests: u64,
    /// `batched_items / batches` — the realized batching factor.
    pub mean_batch_size: f64,
    /// Jobs waiting in the batch queue right now.
    pub queue_depth: f64,
    /// AIMD admission limit at snapshot time.
    pub admit_limit: f64,
    /// Submissions shed at admission by the AIMD limit.
    pub admit_shed: u64,
    /// Whether brownout degradation was active at snapshot time.
    pub brownout_active: bool,
    /// Latency percentiles derived from the latency histogram.
    pub latency_us: LatencyStats,
    /// Cumulative per-layer firing rates.
    pub layers: Vec<LayerRateAgg>,
    /// Full bucket snapshots of every instance histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelInfo {
        ModelInfo {
            name: "m".into(),
            version: 1,
            dtype: "f32".into(),
            input_len: 4,
            classes: 2,
            params: 10,
            hash: "0123456789abcdef".into(),
            quant: None,
        }
    }

    #[test]
    fn latency_percentiles_from_histogram() {
        let m = Metrics::default();
        for us in 1..=100 {
            m.record_latency(us);
        }
        let s = m.snapshot(model());
        assert_eq!(s.latency_us.samples, 100);
        // Bucketed estimates: the true p50 is ~50µs; the enclosing
        // bucket is (40µs, 80µs], so the estimate must land there.
        assert!(
            (40..=80).contains(&s.latency_us.p50_us),
            "p50 {}us outside its bucket",
            s.latency_us.p50_us
        );
        assert!(s.latency_us.p95_us >= s.latency_us.p50_us);
        assert!(s.latency_us.p99_us >= s.latency_us.p95_us);
        assert_eq!(s.latency_us.max_us, 100);
    }

    #[test]
    fn layer_aggregation() {
        use crate::engine::{LayerFiring, RequestOutput};
        let m = Metrics::default();
        let out = RequestOutput {
            class: 0,
            counts: vec![1.0, 0.0],
            timesteps: 2,
            layers: vec![LayerFiring {
                layer: "conv1".into(),
                spikes: 3.0,
                neuron_steps: 10.0,
                rate: 0.3,
            }],
            mean_rate: 0.3,
            input_density: 0.5,
            engine: "int8".into(),
        };
        m.record_batch_outputs(&[out.clone(), out]);
        let s = m.snapshot(model());
        assert_eq!(s.layers.len(), 1);
        assert_eq!(s.layers[0].spikes, 6.0);
        assert_eq!(s.layers[0].neuron_steps, 20.0);
        assert!((s.layers[0].rate - 0.3).abs() < 1e-12);
        // Both requests' firing rates landed in the histogram, and the
        // batch-size histogram saw one batch of 2.
        let rate_snap = s
            .histograms
            .iter()
            .find(|h| h.name == "snn_serve_layer_firing_rate_ratio")
            .expect("firing-rate histogram present");
        assert_eq!(rate_snap.count, 2);
        let batch_snap = s
            .histograms
            .iter()
            .find(|h| h.name == "snn_serve_batch_size")
            .expect("batch-size histogram present");
        assert_eq!(batch_snap.count, 1);
        assert_eq!(batch_snap.max, 2.0);
    }

    #[test]
    fn engine_request_counters_split_by_kind() {
        let m = Metrics::default();
        m.record_engine_requests("f32", 3);
        m.record_engine_requests("int8", 2);
        m.record_engine_requests("weird", 9);
        assert_eq!(m.engine_f32_requests.get(), 3);
        assert_eq!(m.engine_int8_requests.get(), 2);
        let text = m.render_prometheus_with(&Registry::new());
        assert!(text.contains("snn_serve_engine_f32_requests_total 3"), "{text}");
        assert!(text.contains("snn_serve_engine_int8_requests_total 2"), "{text}");
        let s = m.snapshot(model());
        assert_eq!(s.engine_f32_requests, 3);
        assert_eq!(s.engine_int8_requests, 2);
    }

    #[test]
    fn instances_are_isolated() {
        let a = Metrics::default();
        let b = Metrics::default();
        a.received.add(5);
        assert_eq!(a.received.get(), 5);
        assert_eq!(b.received.get(), 0);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = Metrics::default();
        m.received.add(3);
        m.record_latency(1500);
        let text = m.render_prometheus_with(&Registry::new());
        assert!(text.ends_with('\n'));
        for needle in [
            "# TYPE snn_serve_requests_received_total counter\n",
            "snn_serve_requests_received_total 3\n",
            "# TYPE snn_serve_request_latency_seconds histogram\n",
            "snn_serve_request_latency_seconds_count 1\n",
            "# TYPE snn_serve_queue_depth gauge\n",
            "# TYPE snn_serve_admit_limit gauge\n",
            "# TYPE snn_serve_admit_shed_total counter\n",
            "# TYPE snn_serve_admit_decreases_total counter\n",
            "# TYPE snn_serve_brownout_active gauge\n",
            "# TYPE snn_serve_stage_queue_wait_seconds histogram\n",
            "# TYPE snn_slo_burn_rate_latency_5m gauge\n",
            "# TYPE snn_slo_burn_rate_availability_1h gauge\n",
            "# TYPE snn_slo_fast_burn gauge\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // The pre-PR-3 bare-name alias series were removed; only the
        // namespaced families may remain.
        for gone in ["\n# TYPE received counter\n", "\nreceived 3\n", "\ncompleted 0\n"] {
            assert!(!text.contains(gone), "stale alias {gone:?} back in:\n{text}");
        }
    }

    #[test]
    fn slo_gauges_follow_burn_rates() {
        let cfg = SloConfig::parse("p99=25ms,avail=99.9").unwrap();
        let m = Metrics::with_slo(Some(cfg));
        assert!(m.slo_config().is_some());
        // 20 requests, half failing: availability burn = 500 ≫ 14.4.
        for i in 0..20u64 {
            m.slo_record(i % 2 == 0, 1_000);
        }
        assert!(m.slo_fast_burn());
        let text = m.render_prometheus_with(&Registry::new());
        assert!(text.contains("snn_slo_fast_burn 1\n"), "{text}");
        // render refreshed the gauges; the budget (1 - 0.999) is not
        // an exact float, so compare numerically rather than textually.
        assert!(
            (m.slo_availability_5m.get() - 500.0).abs() < 1e-9,
            "availability burn: {}",
            m.slo_availability_5m.get()
        );
        // Untracked metrics instances keep the gauges at rest.
        let idle = Metrics::with_slo(None);
        assert!(!idle.slo_fast_burn());
        assert!(idle.render_prometheus_with(&Registry::new()).contains("snn_slo_fast_burn 0\n"));
    }

    #[test]
    fn required_histograms_are_exposed() {
        let m = Metrics::default();
        let names: Vec<String> =
            m.snapshot(model()).histograms.into_iter().map(|h| h.name).collect();
        for required in [
            "snn_serve_request_latency_seconds",
            "snn_serve_batch_size",
            "snn_serve_layer_firing_rate_ratio",
        ] {
            assert!(names.iter().any(|n| n == required), "missing {required} in {names:?}");
        }
    }
}
