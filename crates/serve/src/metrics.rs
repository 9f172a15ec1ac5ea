//! Serving metrics on the `snn-obs` instrument spine.
//!
//! Each server instance owns one local [`snn_obs::Registry`] — tests
//! spawn several servers per process, so instance isolation matters.
//! Everything the server measures lives there: these serve-side
//! instruments and, registered by the `snn-pool` front end, its
//! per-replica, router, quarantine and connection series. Both
//! expositions render that one registry followed by the process-wide
//! [`snn_obs::global`] registry (kernel spans, training instruments).
//!
//! Hot-path counters are lock-free obs handles; only the per-layer
//! counter cache sits behind a short mutex touched once per batch.

use std::sync::{Arc, Mutex};

use snn_obs::{Counter, Gauge, Histogram, Registry, SloConfig, SloTracker};

use crate::admission::Brownout;
use crate::engine::RequestOutput;

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
    /// AIMD admission queue-depth limit, summed over replicas; set at
    /// scrape time by the pool front end.
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
    /// `snn_serve_layer_{spikes,neuron_steps}_total{layer=…}` handles,
    /// registered on first sight of each layer name (a `/reload` may
    /// bring new layers).
    layers: Mutex<Vec<(String, [Arc<Counter>; 2])>>,
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
            "AIMD admission queue-depth limit summed over replicas (capacity when uncongested)",
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
        let seconds = snn_obs::span_bounds();
        let stage_parse = registry.histogram(
            "snn_serve_stage_parse_seconds",
            "parse stage: request read and JSON validation, seconds",
            seconds,
        );
        let stage_queue_wait = registry.histogram(
            "snn_serve_stage_queue_wait_seconds",
            "queue_wait stage: enqueue to worker drain, seconds",
            seconds,
        );
        let stage_batch_form = registry.histogram(
            "snn_serve_stage_batch_form_seconds",
            "batch_form stage: drain to forward start, seconds (per batch)",
            seconds,
        );
        let stage_forward = registry.histogram(
            "snn_serve_stage_forward_seconds",
            "forward stage: the shared forward pass, seconds (per batch)",
            seconds,
        );
        let stage_respond = registry.histogram(
            "snn_serve_stage_respond_seconds",
            "respond stage: reply serialization and socket write, seconds",
            seconds,
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
            seconds,
        );
        let batch_size = registry.histogram(
            "snn_serve_batch_size",
            "requests per executed batch",
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
        );
        let firing_rate = registry.histogram(
            "snn_serve_layer_firing_rate_ratio",
            "per-layer firing rate of served requests",
            snn_obs::firing_rate_bounds(),
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

    /// Records a completed batch: its realized size, every request's
    /// per-layer firing rate, and each layer's spikes and neuron-steps
    /// into the `snn_serve_layer_{spikes,neuron_steps}_total{layer=…}`
    /// counters (both exact integers).
    pub fn record_batch_outputs(&self, outputs: &[RequestOutput]) {
        let Some(first) = outputs.first() else { return };
        self.batch_size.record(outputs.len() as f64);
        for l in outputs.iter().flat_map(|out| &out.layers) {
            if l.neuron_steps > 0.0 {
                self.firing_rate.record(l.rate);
            }
        }
        // Recover from poisoning: the cache only ever grows, and
        // metrics must never wedge the serving path.
        let mut cache = self.layers.lock().unwrap_or_else(|p| p.into_inner());
        for (i, layer) in first.layers.iter().enumerate() {
            let name = &layer.layer;
            let k = cache.iter().position(|(n, _)| n == name).unwrap_or_else(|| {
                let counter = |family: &str, help: &str| {
                    self.registry.counter(&format!("{family}{{layer=\"{name}\"}}"), help)
                };
                let spikes = counter("snn_serve_layer_spikes_total", "output spikes per layer");
                let steps = counter("snn_serve_layer_neuron_steps_total", "neuron-steps per layer");
                cache.push((name.clone(), [spikes, steps]));
                cache.len() - 1
            });
            let [spikes, steps] = &cache[k].1;
            for l in outputs.iter().filter_map(|out| out.layers.get(i)) {
                spikes.add(l.spikes as u64);
                steps.add(l.neuron_steps as u64);
            }
        }
    }

    /// This server's instrument registry. The pool front end registers
    /// its per-replica, router and connection series here, so one
    /// registry holds everything the server exports.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Prometheus text exposition, with `# HELP`/`# TYPE` per family
    /// and a trailing newline: this server's registry, then the
    /// process-wide global registry. The process-wide
    /// `snn_fault_injected_total` / `snn_recovery_total` counters ride
    /// in with the global registry — snn-fault registers them there.
    pub fn render_prometheus(&self) -> String {
        self.update_slo_gauges();
        let mut out = self.registry.render_prometheus();
        out.push_str(&snn_obs::global().render_prometheus());
        out
    }

    /// The same instruments as [`Metrics::render_prometheus`], as a
    /// [`serde::Value`] array in the same order — so the text and JSON
    /// expositions always agree on the instrument set.
    pub fn snapshot_instruments(&self) -> serde::Value {
        self.update_slo_gauges();
        let mut items = self.registry.snapshot_values();
        items.extend(snn_obs::global().snapshot_values());
        serde::Value::Array(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LayerFiring;

    fn output(layers: &[(&str, f64, f64)]) -> RequestOutput {
        RequestOutput {
            class: 0,
            counts: vec![1.0, 0.0],
            timesteps: 2,
            layers: layers
                .iter()
                .map(|&(layer, spikes, neuron_steps)| LayerFiring {
                    layer: layer.into(),
                    spikes,
                    neuron_steps,
                    rate: spikes / neuron_steps,
                })
                .collect(),
            mean_rate: 0.3,
            input_density: 0.5,
            engine: "int8".into(),
        }
    }

    #[test]
    fn latency_percentiles_from_histogram() {
        let m = Metrics::default();
        for us in 1..=100 {
            m.record_latency(us);
        }
        let h = m.latency.snapshot("latency");
        assert_eq!(h.count, 100);
        // Bucketed estimates: the true p50 is ~50µs; the enclosing
        // bucket of the 1µs·2^k ladder is (32µs, 64µs].
        assert!((32e-6..=64e-6).contains(&h.p50), "p50 {}s outside its bucket", h.p50);
        assert!(h.p95 >= h.p50);
        assert!(h.p99 >= h.p95);
        assert!((h.max - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn layer_counters_accumulate_per_layer_name() {
        let m = Metrics::default();
        let out = output(&[("conv1", 3.0, 10.0)]);
        m.record_batch_outputs(&[out.clone(), out]);
        // Both requests' firing rates landed in the histogram, and the
        // batch-size histogram saw one batch of 2.
        assert_eq!((m.firing_rate.count(), m.batch_size.count(), m.batch_size.max()), (2, 1, 2.0));
        // A reloaded model with a different layer list gets its own
        // series in the same family; the old layer keeps adding up.
        m.record_batch_outputs(&[output(&[("fc1", 1.0, 4.0), ("conv1", 2.0, 10.0)])]);
        let text = m.render_prometheus();
        for needle in [
            "# TYPE snn_serve_layer_spikes_total counter\n\
             snn_serve_layer_spikes_total{layer=\"conv1\"} 8\n\
             snn_serve_layer_spikes_total{layer=\"fc1\"} 1\n",
            "snn_serve_layer_neuron_steps_total{layer=\"conv1\"} 30\n",
            "snn_serve_layer_neuron_steps_total{layer=\"fc1\"} 4\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn engine_request_counters_split_by_kind() {
        let m = Metrics::default();
        m.record_engine_requests("f32", 3);
        m.record_engine_requests("int8", 2);
        m.record_engine_requests("weird", 9);
        assert_eq!(m.engine_f32_requests.get(), 3);
        assert_eq!(m.engine_int8_requests.get(), 2);
        let text = m.render_prometheus();
        assert!(text.contains("snn_serve_engine_f32_requests_total 3"), "{text}");
        assert!(text.contains("snn_serve_engine_int8_requests_total 2"), "{text}");
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
        let text = m.render_prometheus();
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
        // 20 requests, half failing: availability burn = 500 ≫ 14.4.
        for i in 0..20u64 {
            m.slo_record(i % 2 == 0, 1_000);
        }
        assert!(m.slo_fast_burn());
        let text = m.render_prometheus();
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
        assert!(idle.render_prometheus().contains("snn_slo_fast_burn 0\n"));
    }

    #[test]
    fn required_histograms_are_exposed() {
        let m = Metrics::default();
        let names: Vec<String> =
            m.registry().histogram_snapshots().into_iter().map(|h| h.name).collect();
        for required in [
            "snn_serve_request_latency_seconds",
            "snn_serve_batch_size",
            "snn_serve_layer_firing_rate_ratio",
        ] {
            assert!(names.iter().any(|n| n == required), "missing {required} in {names:?}");
        }
    }
}
