//! End-to-end serving benchmark for the `snn-serve` stack.
//!
//! ```text
//! cargo run --release -p snn-bench --bin bench_serve \
//!     [-- --requests N --clients N --out FILE --json-pretty]
//! ```
//!
//! Starts the HTTP server (`snn_pool::PoolServer` with one engine
//! replica, as `snn serve` runs by default) in-process and drives it
//! over real loopback TCP with closed-loop client threads, in phases:
//!
//! 1. `unbatched` — `max_batch = 1`: every request is its own forward
//!    pass. The baseline.
//! 2. `batched` — `max_batch = 8` at the *same offered load*: the
//!    dynamic queue coalesces concurrent requests into shared forward
//!    passes. On a single-core host this is the whole throughput
//!    story: the speedup comes from amortizing per-pass work across
//!    the batch, not from parallelism.
//! 3. `batched-int8` — the batched configuration serving the INT8
//!    quantized twin of the same model: the full integer datapath
//!    (u8 activations, i8 weights, fixed-point membranes) behind the
//!    same HTTP front end, so the f32-vs-int8 comparison includes
//!    every serving overhead, not just kernel time.
//! 4. `overload` — a deliberately tiny queue (capacity 4) with short
//!    request deadlines under the same client pressure: shows the
//!    server shedding load with typed `429`/`504` rejections instead
//!    of queueing without bound.
//! 5. `brownout-off` / `brownout` — the brownout drill (schema v7): a
//!    dense-heavy model under a seeded SLO fast burn, run twice —
//!    without and with a published INT8 brownout artifact. With the
//!    artifact the batch worker degrades new batches to the quantized
//!    engine while the burn holds, so the pair shows the goodput the
//!    degradation buys under the identical overload signal
//!    (`brownout_goodput_gain` in the report).
//!
//! After the phases, a **capacity sweep**: the same model
//! behind the same front end scaled to 2 replicas (power-of-two-choices
//! routing), driven open-loop at Poisson rates
//! bracketing the batched phase's closed-loop throughput. Open-loop
//! arrival is the honest load model — clients do not slow down when
//! the server does — so the sweep reports the maximum sustained rps
//! that still meets the SLO (p99 bound + error budget), per-replica
//! routed counts and engine utilization, and router decision counters.
//!
//! Writes `BENCH_serve.json`: per-phase p50/p95/p99 latency,
//! throughput, realized batch size, rejection counts, cumulative
//! per-layer firing rates (the paper's sparsity story as observed by
//! the serving path), and the `capacity` section.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use serde::Serialize;
use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
use snn_obs::SloConfig;
use snn_pool::{PoolServer, PoolServerConfig};
use snn_quant::{calibrate, quantize_snapshot, QuantizedSnapshot};
use snn_serve::{BatcherConfig, ModelRegistry, ServedModel};
use snn_tensor::Shape;

const USAGE: &str =
    "usage: bench_serve [--requests N] [--clients N] [--reps N] [--out FILE] [--json-pretty]";

fn main() {
    let mut requests: usize = 400;
    let mut clients: usize = 8;
    let mut reps: usize = 3;
    let mut out = String::from("BENCH_serve.json");
    let mut pretty = false;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("error: {} requires a value\n{USAGE}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--requests" => {
                requests = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("error: bad --requests\n{USAGE}");
                    std::process::exit(2);
                })
            }
            "--clients" => {
                clients = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("error: bad --clients\n{USAGE}");
                    std::process::exit(2);
                })
            }
            "--reps" => {
                reps = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("error: bad --reps\n{USAGE}");
                    std::process::exit(2);
                })
            }
            "--out" => out = value(i),
            "--json-pretty" => {
                pretty = true;
                i += 1;
                continue;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    let clients = clients.max(1);
    let requests = requests.max(clients);
    let reps = reps.max(1);

    println!("=== bench_serve ===");
    println!(
        "{clients} closed-loop clients, {requests} requests per phase, \
         median of {reps} reps, host parallelism {}",
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );

    let snapshot = demo_snapshot();
    let f32_model = ServedModel::from(snapshot.clone());
    let int8_model = ServedModel::from(quantized_artifact(&snapshot));
    let input_len = 8 * 8;
    let timesteps = 8;

    // Each phase is repeated and the median-throughput rep is kept:
    // on a single-core host, scheduler noise between closed-loop
    // client threads is the dominant source of variance, and one rep
    // can swing either way.
    let median_rep = |run: &dyn Fn() -> Phase| {
        let mut runs: Vec<Phase> = (0..reps).map(|_| run()).collect();
        runs.sort_by(|a, b| {
            a.throughput_rps.partial_cmp(&b.throughput_rps).expect("finite throughput")
        });
        runs.swap_remove(runs.len() / 2)
    };
    let serve_phase = |name: &str,
                       model: &ServedModel,
                       batcher: &BatcherConfig,
                       timeout_ms: Option<u64>| {
        median_rep(&|| {
            let registry = Arc::new(
                ModelRegistry::new(model.clone(), "bench").expect("demo model is valid"),
            );
            let server = start_server(registry, 1, batcher, SloConfig::from_env());
            run_phase(name, model.dtype(), &server, batcher, input_len, requests, clients, timeout_ms)
        })
    };

    let batched_cfg = BatcherConfig {
        max_batch: 8,
        max_wait: Duration::from_micros(2000),
        capacity: 256,
        timesteps,
        ..BatcherConfig::default()
    };
    let unbatched = serve_phase(
        "unbatched",
        &f32_model,
        &BatcherConfig {
            max_batch: 1,
            max_wait: Duration::from_micros(100),
            ..batched_cfg.clone()
        },
        None,
    );
    let batched = serve_phase("batched", &f32_model, &batched_cfg, None);
    let batched_int8 = serve_phase("batched-int8", &int8_model, &batched_cfg, None);
    let overload = serve_phase(
        "overload",
        &f32_model,
        &BatcherConfig { max_batch: 4, capacity: 4, ..batched_cfg.clone() },
        Some(1),
    );

    // Brownout drill (schema v7): the same seeded fast burn with and
    // without a published INT8 artifact. The model is dense-heavy —
    // the regime where the quantized GEMM actually outruns f32 — so
    // the drill answers the operational question directly: when the
    // error budget is burning, does degrading to INT8 buy goodput?
    println!();
    println!("brownout drill: seeded SLO fast burn, dense model, with vs without INT8 artifact");
    let dense_snap = dense_snapshot();
    let dense_f32 = ServedModel::from(dense_snap.clone());
    let dense_int8 = ServedModel::from(dense_artifact(&dense_snap));
    let dense_input_len = 16 * 16;
    let brownout_phase = |name: &str, publish: bool| {
        median_rep(&|| {
            let registry = Arc::new(
                ModelRegistry::new(dense_f32.clone(), "bench").expect("dense model is valid"),
            );
            if publish {
                registry
                    .publish_brownout(dense_int8.clone(), "bench-int8")
                    .expect("int8 artifact publishes");
            }
            let slo = SloConfig::parse("avail=99").expect("valid SLO");
            let server = start_server(registry, 1, &batched_cfg, Some(slo));
            // Seed the availability budget with hard failures so the
            // fast-burn signal is already firing when traffic arrives;
            // brownout hysteresis (default 10s hold) keeps the
            // degradation engaged through the run.
            for _ in 0..20 {
                server.metrics().slo_record(false, 1_000);
            }
            let dtype = if publish { "int8" } else { "f32" };
            run_phase(name, dtype, &server, &batched_cfg, dense_input_len, requests, clients, None)
        })
    };
    let brownout_off = brownout_phase("brownout-off", false);
    let brownout_on = brownout_phase("brownout", true);
    let brownout_goodput_gain = brownout_on.throughput_rps / brownout_off.throughput_rps;
    println!(
        "goodput under burn: {:.1} req/s f32, {:.1} req/s browned-out int8 ({:.2}x)",
        brownout_off.throughput_rps, brownout_on.throughput_rps, brownout_goodput_gain
    );

    // Capacity sweep: the pooled front end under open-loop
    // load. The batched phase's closed-loop throughput anchors the
    // swept rates — below it the pool should sustain the SLO, around
    // and above it the sweep shows where latency or the error budget
    // gives out.
    println!();
    println!("capacity sweep: 2 replicas behind the epoll front end, open-loop arrival");
    let capacity = {
        let registry = Arc::new(
            ModelRegistry::new(f32_model.clone(), "bench").expect("demo model is valid"),
        );
        let pool = start_server(registry, 2, &batched_cfg, SloConfig::from_env());
        let anchor = batched.throughput_rps.max(50.0);
        // The lowest rung sits well below any plausible knee so the
        // sweep brackets capacity from both sides — a ladder that
        // starts above the knee reports a meaningless 0.0 sustained.
        let rates: Vec<f64> = [0.15, 0.3, 0.6, 0.9, 1.2].iter().map(|m| anchor * m).collect();
        let lg = snn_pool::LoadgenConfig {
            addr: pool.addr().to_string(),
            rps: rates[0],
            warmup: Duration::from_millis(400),
            duration: Duration::from_millis(1500),
            connections: clients.clamp(1, 8),
            input_len,
            bad_fraction: 0.0,
            timeout_ms: None,
            retries: 2,
            seed: 42,
        };
        snn_pool::capacity_sweep(&lg, &rates, snn_pool::SloSpec::default())
    };
    for p in &capacity.points {
        println!(
            "offered {:>8.1} rps: achieved {:>8.1}  p99 {:>8.2}ms  error_rate {:.4}  {}",
            p.rps,
            p.achieved_rps,
            p.p99_ms,
            p.error_rate,
            if p.met_slo { "meets SLO" } else { "breaks SLO" }
        );
    }
    for r in &capacity.per_replica {
        println!(
            "replica {}: {} routed, {:.1}% engine-utilized",
            r.replica,
            r.routed,
            r.utilization * 100.0
        );
    }
    println!(
        "max sustained rps meeting SLO (p99<{}ms, err<{}): {:.1}",
        capacity.slo.p99_ms, capacity.slo.max_error_rate, capacity.max_sustained_rps
    );

    let report = Report {
        schema_version: snn_bench::BENCH_SERVE_SCHEMA_VERSION,
        git_commit: snn_bench::git_commit(),
        requests_per_phase: requests,
        clients,
        timesteps,
        input_len,
        host_parallelism: thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        batched_speedup: batched.throughput_rps / unbatched.throughput_rps,
        int8_vs_f32_batched: batched_int8.throughput_rps / batched.throughput_rps,
        brownout_goodput_gain,
        phases: vec![unbatched, batched, batched_int8, overload, brownout_off, brownout_on],
        capacity: capacity.to_value(),
    };
    for p in &report.phases {
        println!(
            "{:<12} [{:<4}] max_batch {:>2}  {:>7.1} req/s  p50 {:>6}us  p95 {:>6}us  p99 {:>6}us  \
             mean batch {:>4.1}  429s {:>3}  504s {:>3}",
            p.name,
            p.dtype,
            p.max_batch,
            p.throughput_rps,
            p.latency_us.p50,
            p.latency_us.p95,
            p.latency_us.p99,
            p.mean_batch_size,
            p.rejected_429,
            p.rejected_504,
        );
    }
    for p in &report.phases {
        let stages: Vec<String> =
            p.stages_us.iter().map(|s| format!("{} {:.0}us", s.stage, s.p50_us)).collect();
        println!("{:<12} stage p50: {}", p.name, stages.join("  "));
    }
    println!("batched speedup over unbatched: {:.2}x", report.batched_speedup);
    println!("int8 vs f32 batched throughput: {:.2}x", report.int8_vs_f32_batched);
    println!("brownout goodput gain under seeded burn: {:.2}x", report.brownout_goodput_gain);

    let json = if pretty {
        serde_json::to_string_pretty(&report).expect("report serializes")
    } else {
        serde_json::to_string(&report).expect("report serializes")
    };
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("error: cannot write `{out}`: {e}");
        std::process::exit(1);
    });
    println!("wrote {out}");
}

/// Starts the front end on an ephemeral port with `replicas` engines.
/// Tracing comes from the environment (`SNN_TRACE_RING=0` is how the
/// tracing-overhead comparison is run against the same binary).
fn start_server(
    registry: Arc<ModelRegistry>,
    replicas: usize,
    batcher: &BatcherConfig,
    slo: Option<SloConfig>,
) -> PoolServer {
    let cfg = PoolServerConfig {
        addr: "127.0.0.1:0".into(),
        replicas,
        batcher: batcher.clone(),
        default_timeout: Some(Duration::from_secs(30)),
        slo,
        ..PoolServerConfig::default()
    };
    PoolServer::start(registry, cfg).expect("server starts")
}

/// The model under load: paper-shaped (conv → pool → conv → pool →
/// fc) at interactive-serving scale (1×8×8 input). Small per-item
/// compute is the regime where dynamic batching matters: per-pass
/// fixed costs (worker wakeup, frame setup, layer dispatch) rival the
/// per-item math, and sharing a pass across requests amortizes them.
fn demo_snapshot() -> NetworkSnapshot {
    let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
    let net = SpikingNetwork::builder(Shape::d3(1, 8, 8), 42)
        .conv(4, 3, 1, 1, lif)
        .expect("conv geometry")
        .maxpool(2)
        .expect("pool geometry")
        .conv(4, 3, 1, 1, lif)
        .expect("conv geometry")
        .maxpool(2)
        .expect("pool geometry")
        .flatten()
        .expect("flatten")
        .dense(10, lif)
        .expect("dense")
        .build()
        .expect("demo network builds");
    NetworkSnapshot::from_network(&net)
}

/// The brownout-drill model: all-dense (256 → 128 → 64 → 10), the
/// shape regime where the INT8 quantized GEMM beats the f32 path —
/// exactly the kind of model for which publishing a brownout artifact
/// pays off. (On the tiny conv model above, INT8 is *slower*, which
/// is why the drill gets its own model rather than reusing
/// [`demo_snapshot`].)
fn dense_snapshot() -> NetworkSnapshot {
    let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
    let net = SpikingNetwork::builder(Shape::d1(16 * 16), 42)
        .dense(128, lif)
        .expect("dense geometry")
        .dense(64, lif)
        .expect("dense geometry")
        .dense(10, lif)
        .expect("dense geometry")
        .build()
        .expect("dense network builds");
    NetworkSnapshot::from_network(&net)
}

/// The INT8 twin of [`dense_snapshot`], calibrated the same way as
/// [`quantized_artifact`].
fn dense_artifact(snap: &NetworkSnapshot) -> QuantizedSnapshot {
    let input_len = 16 * 16;
    let items: Vec<Vec<f32>> = (0..8u64)
        .map(|s| {
            let mut x = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (0..input_len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((x >> 33) as f32) / (u32::MAX as f32)
                })
                .collect()
        })
        .collect();
    let cal = calibrate(snap, &items, 8).expect("calibration on the dense model succeeds");
    quantize_snapshot(snap, &cal, 8).expect("8-bit quantization of the dense model succeeds")
}

/// The INT8 twin of [`demo_snapshot`]: calibrated on a deterministic
/// spread of synthetic frames covering the input range, then quantized
/// to 8-bit weights. Serving this artifact exercises the full integer
/// datapath end to end.
fn quantized_artifact(snap: &NetworkSnapshot) -> QuantizedSnapshot {
    let input_len = 8 * 8;
    let items: Vec<Vec<f32>> = (0..8u64)
        .map(|s| {
            let mut x = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (0..input_len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((x >> 33) as f32) / (u32::MAX as f32)
                })
                .collect()
        })
        .collect();
    let cal = calibrate(snap, &items, 8).expect("calibration on the demo model succeeds");
    quantize_snapshot(snap, &cal, 8).expect("8-bit quantization of the demo model succeeds")
}

#[derive(Serialize)]
struct Report {
    /// Report layout version
    /// ([`snn_bench::BENCH_SERVE_SCHEMA_VERSION`]).
    schema_version: u32,
    /// Commit the binary ran from, or `unknown`.
    git_commit: String,
    requests_per_phase: usize,
    clients: usize,
    timesteps: usize,
    input_len: usize,
    host_parallelism: usize,
    /// `batched.throughput_rps / unbatched.throughput_rps` at the same
    /// offered load — the headline number.
    batched_speedup: f64,
    /// `batched-int8.throughput_rps / batched.throughput_rps`: the
    /// quantized engine's end-to-end serving throughput relative to
    /// f32 at the identical batcher configuration (schema v4).
    int8_vs_f32_batched: f64,
    /// `brownout.throughput_rps / brownout-off.throughput_rps`
    /// (schema v7): the goodput the INT8 degradation buys under the
    /// identical seeded fast burn. Above 1.0 means browning out is a
    /// net win for this model, not just a latency trade.
    brownout_goodput_gain: f64,
    phases: Vec<Phase>,
    /// Open-loop capacity of the 2-replica pooled front end (schema
    /// v6): the SLO, max sustained rps meeting it, per-rate sweep
    /// points, per-replica utilization, and router decision counters —
    /// as built by `snn_pool::CapacityReport::to_value`.
    capacity: serde::Value,
}

#[derive(Serialize)]
struct Phase {
    name: String,
    /// Engine the phase ran on: `f32` or `int8`.
    dtype: String,
    max_batch: usize,
    queue_capacity: usize,
    offered: usize,
    completed: u64,
    rejected_429: u64,
    rejected_504: u64,
    other_errors: u64,
    wall_secs: f64,
    /// Completed requests per second of wall clock.
    throughput_rps: f64,
    /// Requests per batched forward pass actually realized.
    mean_batch_size: f64,
    latency_us: Percentiles,
    /// Per-stage latency percentiles (schema v5): where inside the
    /// serve pipeline the end-to-end latency above was spent, lifted
    /// from the server's `snn_serve_stage_*` histograms. `parse` and
    /// `respond` are per request; `queue_wait` per dequeued request;
    /// `batch_form` and `forward` per batched forward pass.
    stages_us: Vec<StageBreakdown>,
    /// Cumulative per-layer firing rates observed while serving.
    per_layer_rates: Vec<LayerRate>,
    /// Snapshots of every histogram in this server's registry (request
    /// latency, stages, realized batch size, per-layer firing rate,
    /// per-replica forward and queue time) — the full distributions
    /// behind the columns above.
    histograms: Vec<snn_obs::HistogramSnapshot>,
}

#[derive(Serialize)]
struct Percentiles {
    p50: u64,
    p95: u64,
    p99: u64,
    max: u64,
}

#[derive(Serialize)]
struct LayerRate {
    layer: String,
    rate: f64,
}

/// One serve-pipeline stage's latency distribution, in microseconds.
#[derive(Serialize)]
struct StageBreakdown {
    stage: String,
    count: u64,
    mean_us: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    max_us: f64,
}

/// Lifts the five stage histograms (seconds) out of a metrics
/// snapshot into microsecond breakdown rows, in pipeline order.
fn stage_breakdowns(histograms: &[snn_obs::HistogramSnapshot]) -> Vec<StageBreakdown> {
    ["parse", "queue_wait", "batch_form", "forward", "respond"]
        .iter()
        .map(|stage| {
            let name = format!("snn_serve_stage_{stage}_seconds");
            let h = histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("`{name}` missing from the metrics snapshot"));
            let us = 1e6;
            StageBreakdown {
                stage: (*stage).into(),
                count: h.count,
                mean_us: if h.count > 0 { h.sum / h.count as f64 * us } else { 0.0 },
                p50_us: h.p50 * us,
                p95_us: h.p95 * us,
                p99_us: h.p99 * us,
                max_us: h.max * us,
            }
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    name: &str,
    dtype: &str,
    server: &PoolServer,
    cfg: &BatcherConfig,
    input_len: usize,
    requests: usize,
    clients: usize,
    timeout_ms: Option<u64>,
) -> Phase {
    let addr = server.addr();
    let per_client = requests / clients;
    let offered = per_client * clients;
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            thread::spawn(move || client_loop(addr, c as u64, input_len, per_client, timeout_ms))
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(offered);
    let mut statuses: Vec<u16> = Vec::with_capacity(offered);
    for h in handles {
        let (lat, st) = h.join().expect("client thread");
        latencies.extend(lat);
        statuses.extend(st);
    }
    let wall_secs = started.elapsed().as_secs_f64();

    let completed = statuses.iter().filter(|&&s| s == 200).count() as u64;
    let rejected_429 = statuses.iter().filter(|&&s| s == 429).count() as u64;
    let rejected_504 = statuses.iter().filter(|&&s| s == 504).count() as u64;
    let other_errors = statuses.len() as u64 - completed - rejected_429 - rejected_504;

    let metrics = server.metrics();
    let batches = metrics.batches.get();
    let batched_items = metrics.batched_items.get();
    let histograms = metrics.registry().histogram_snapshots();
    Phase {
        name: name.into(),
        dtype: dtype.into(),
        max_batch: cfg.max_batch,
        queue_capacity: cfg.capacity,
        offered,
        completed,
        rejected_429,
        rejected_504,
        other_errors,
        wall_secs,
        throughput_rps: completed as f64 / wall_secs,
        mean_batch_size: if batches > 0 { batched_items as f64 / batches as f64 } else { 0.0 },
        latency_us: percentiles(&mut latencies),
        stages_us: stage_breakdowns(&histograms),
        per_layer_rates: layer_rates(metrics.registry()),
        histograms,
    }
}

/// Cumulative per-layer firing rates, from the server's
/// `snn_serve_layer_{spikes,neuron_steps}_total{layer=…}` counters.
fn layer_rates(registry: &snn_obs::Registry) -> Vec<LayerRate> {
    let counters = registry.counter_values();
    // `(layer, value)` of one family, in layer-name order.
    let family = |prefix: &str| -> Vec<(String, f64)> {
        let of = |name: &str| Some(name.strip_prefix(prefix)?.strip_suffix("\"}")?.to_string());
        counters.iter().filter_map(|(name, v)| Some((of(name)?, *v as f64))).collect()
    };
    let steps = family("snn_serve_layer_neuron_steps_total{layer=\"");
    family("snn_serve_layer_spikes_total{layer=\"")
        .into_iter()
        .zip(steps)
        .map(|((layer, spikes), (_, steps))| LayerRate {
            layer,
            rate: if steps > 0.0 { spikes / steps } else { 0.0 },
        })
        .collect()
}

fn percentiles(samples: &mut [u64]) -> Percentiles {
    if samples.is_empty() {
        return Percentiles { p50: 0, p95: 0, p99: 0, max: 0 };
    }
    samples.sort_unstable();
    let pick = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    Percentiles {
        p50: pick(0.50),
        p95: pick(0.95),
        p99: pick(0.99),
        max: *samples.last().expect("non-empty"),
    }
}

/// One closed-loop client: a single keep-alive connection issuing
/// requests back-to-back, recording per-request latency and status.
fn client_loop(
    addr: SocketAddr,
    seed: u64,
    input_len: usize,
    count: usize,
    timeout_ms: Option<u64>,
) -> (Vec<u64>, Vec<u16>) {
    let mut stream = TcpStream::connect(addr).expect("connecting to bench server");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut latencies = Vec::with_capacity(count);
    let mut statuses = Vec::with_capacity(count);
    for r in 0..count {
        let body = infer_body(seed.wrapping_add(r as u64), input_len, timeout_ms);
        let request = format!(
            "POST /infer HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let t0 = Instant::now();
        stream.write_all(request.as_bytes()).expect("request write");
        let status = read_response(&mut stream);
        latencies.push(t0.elapsed().as_micros() as u64);
        statuses.push(status);
    }
    (latencies, statuses)
}

fn infer_body(seed: u64, input_len: usize, timeout_ms: Option<u64>) -> String {
    let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let values: Vec<String> = (0..input_len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            format!("{:.4}", ((x >> 33) as f64) / (u32::MAX as f64))
        })
        .collect();
    match timeout_ms {
        Some(t) => format!("{{\"input\":[{}],\"timeout_ms\":{t}}}", values.join(",")),
        None => format!("{{\"input\":[{}]}}", values.join(",")),
    }
}

/// Reads one keep-alive HTTP response and returns its status code.
fn read_response(stream: &mut TcpStream) -> u16 {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("response read");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).expect("ASCII head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .expect("content-length header");
    let total = head_end + 4 + content_length;
    while buf.len() < total {
        let n = stream.read(&mut chunk).expect("body read");
        assert!(n > 0, "server closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    status
}
