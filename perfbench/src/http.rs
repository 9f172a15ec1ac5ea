//! The `http-small` workload: open-loop Poisson load over HTTP against
//! an in-process `snn_pool::PoolServer` serving the 1×8×8 demo model.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snn_pool::{PoolServer, PoolServerConfig};
use snn_serve::{
    find_head_end, format_response, infer_success_body, parse_head, parse_infer_body,
    AdmissionConfig, BatcherConfig, InferReply, InferenceEngine, ModelRegistry,
};

use crate::client;
use crate::fixtures::{self, Loaded, Manifest};
use crate::layers;
use crate::stats::{median, quantile, ratio, rss_peak_mb, window_median};
use crate::trace::Recorder;
use crate::{conv_routes, Args, Report, Setups, SETUP_REPS};

/// Offered load, requests per second: about half the knee of this
/// configuration on a 2-core x86-64 host (the knee is where tail
/// latency starts to climb steeply; see README.md for the sweep, made
/// by editing this constant).
pub const RATE: f64 = 350.0;
/// Distinct request bodies per run.
const POOL: usize = 512;
/// Unrecorded load before the measured window.
const WARMUP_S: f64 = 1.0;
/// How long replies may trail the last send before they count as lost.
const DRAIN: Duration = Duration::from_secs(5);
/// A trace id of the length the server attaches to responses.
const TRACE_ID: &str = "0123456789abcdef0123456789abcdef";

/// One replica, batches of up to 8 with a 2 ms linger. AIMD admission
/// is off: the offered load sits well below the knee, and on a host
/// whose scheduler stalls for several milliseconds now and then, AIMD
/// reads a stall as congestion and sheds requests with 429. This
/// workload measures the serving path, not overload control.
fn server_config(timesteps: usize) -> PoolServerConfig {
    PoolServerConfig {
        addr: "127.0.0.1:0".into(),
        replicas: 1,
        batcher: BatcherConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            timesteps,
            admission: AdmissionConfig {
                enabled: false,
                ..AdmissionConfig::default()
            },
            ..BatcherConfig::default()
        },
        ..PoolServerConfig::default()
    }
}

/// The `/infer` JSON body for one input.
fn infer_body(item: &[f32]) -> String {
    let values: Vec<String> = item.iter().map(|v| v.to_string()).collect();
    format!("{{\"input\":[{}]}}", values.join(","))
}

/// Sends `requests` pipelined on one connection and returns each
/// reply's class and spike counts (class `usize::MAX` for a failed
/// reply).
fn blocking_outputs(
    addr: SocketAddr,
    requests: &[Vec<u8>],
) -> std::io::Result<Vec<(usize, Vec<f32>)>> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    s.write_all(&requests.concat())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut outputs = Vec::with_capacity(requests.len());
    while outputs.len() < requests.len() {
        if let Some(reply) = client::parse_reply(&buf) {
            buf.drain(..reply.len);
            let ok = reply.status == 200;
            outputs.push(
                reply
                    .output
                    .filter(|_| ok)
                    .unwrap_or((usize::MAX, Vec::new())),
            );
            continue;
        }
        let n = s.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok(outputs)
}

/// Sums and counts of the server's stage histograms.
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    /// `(sum seconds, count)` for parse, queue_wait, batch_form,
    /// forward, respond.
    stages: [(f64, u64); 5],
    batches: u64,
    items: u64,
}

impl Stages {
    fn read(server: &PoolServer) -> Stages {
        let m = server.metrics();
        let hs = [
            &m.stage_parse,
            &m.stage_queue_wait,
            &m.stage_batch_form,
            &m.stage_forward,
            &m.stage_respond,
        ];
        Stages {
            stages: hs.map(|h| (h.sum(), h.count())),
            batches: m.batches.get(),
            items: m.batched_items.get(),
        }
    }

    /// Mean of stage `i` between `before` and `self`, microseconds.
    fn mean_us(&self, before: &Stages, i: usize) -> f64 {
        let (s1, c1) = self.stages[i];
        let (s0, c0) = before.stages[i];
        ratio(s1 - s0, (c1 - c0) as f64) * 1e6
    }
}

/// Runs the `http-small` workload.
pub fn run(args: &Args, manifest: &Manifest) -> Result<Report, String> {
    let entry = manifest.model("demo_f32")?;
    let t = entry.timesteps;
    let mut report = Report::default();
    let check: Vec<Vec<u8>> = fixtures::check_items(manifest, entry)
        .iter()
        .map(|it| client::request_bytes(&infer_body(it)))
        .collect();

    // One setup: load + hash check, start the server, verify the check
    // set over HTTP (the first inference).
    let mut setups = Setups::default();
    let mut setup = |report: &mut Report| -> Result<(Loaded, PoolServer), String> {
        let t0 = Instant::now();
        let loaded = fixtures::load(manifest, entry)?;
        let registry =
            ModelRegistry::new(loaded.served.clone(), "perfbench").map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let server =
            PoolServer::start(Arc::new(registry), server_config(t)).map_err(|e| e.to_string())?;
        setups.server_start_s.push(t1.elapsed().as_secs_f64());
        let outputs = blocking_outputs(server.addr(), &check).map_err(|e| e.to_string())?;
        setups.total_s.push(t0.elapsed().as_secs_f64());
        setups.load_s.push(loaded.load_s);
        let (classes, counts): (Vec<usize>, Vec<Vec<f32>>) = outputs.into_iter().unzip();
        report.attempted += classes.len() as u64;
        report.failed += fixtures::check_mismatches(entry, &classes, &counts) as u64;
        Ok((loaded, server))
    };
    // One server at a time: each setup drops the one before.
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        kept = Some(setup(&mut report)?);
    }
    let (loaded, server) = kept.expect("at least one setup");
    report.models = format!("demo_f32={}", fixtures::served_hash(&loaded.served));

    // Inputs: bodies as sent, values as the server parses them, and
    // the reference class and spike counts of each.
    let items = fixtures::items(&entry.input, POOL, args.seed);
    let bodies: Vec<String> = items.iter().map(|it| infer_body(it)).collect();
    let parsed: Vec<Vec<f32>> = bodies
        .iter()
        .map(|b| parse_infer_body(b, items[0].len()).map(|(v, _)| v))
        .collect::<Result<_, _>>()?;
    let expected: Vec<(usize, Vec<f32>)> = fixtures::reference(&loaded, t, &parsed)
        .into_iter()
        .map(|e| (e.class, e.counts))
        .collect();
    let requests: Vec<Vec<u8>> = bodies.iter().map(|b| client::request_bytes(b)).collect();
    let plan = |seconds: f64, stream: &str| {
        let seed = snn_tensor::derive_seed(args.seed, stream);
        client::poisson_schedule(RATE, seconds, POOL, seed)
    };
    report.inputs = format!(
        "{}-{}",
        fixtures::digest(&items),
        client::plan_digest(&plan(args.seconds, "measure"))
    );
    let addr = server.addr();
    let go = |p: &[client::Planned], rec: Option<&mut Recorder>| {
        client::run(addr, p, &requests, &expected, DRAIN, rec).map_err(|e| e.to_string())
    };
    go(&plan(WARMUP_S, "warmup"), None)?;

    if !args.trace {
        let run = go(&plan(args.seconds, "measure"), None)?;
        let lat: Vec<f64> = run
            .outcomes
            .iter()
            .map(|o| (o.done - o.due).as_secs_f64())
            .collect();
        let due: Vec<f64> = run
            .outcomes
            .iter()
            .map(|o| (o.due - run.start).as_secs_f64())
            .collect();
        let ok = run.outcomes.iter().filter(|o| o.ok).count();
        report.attempted += run.outcomes.len() as u64;
        report.failed += (run.outcomes.len() - ok) as u64;
        report.put("rss_peak_mb", rss_peak_mb());
        drop(server);
        for _ in 0..SETUP_REPS {
            setup(&mut report)?;
        }
        let ms = |q: f64| window_median(&due, |r| quantile(&lat[r], q)) * 1e3;
        let (p50, p90) = (ms(0.5), ms(0.9));
        let lag: Vec<f64> = run
            .outcomes
            .iter()
            .map(|o| (o.sent - o.due).as_secs_f64())
            .collect();
        report.put("setup_s", median(&setups.total_s));
        report.put("throughput_per_s", ok as f64 / run.wall_s());
        report.put("latency_p50_ms", p50);
        report.put("latency_p90_ms", p90);
        println!(
            "http-small: {} requests at {RATE} rps offered, p50 {p50:.3} ms, p90 {p90:.3} ms, \
             generator lag p99 {:.3} ms",
            run.outcomes.len(),
            quantile(&lag, 0.99) * 1e3
        );
        return Ok(report);
    }

    // Traced run: an untraced half, then a half whose requests become
    // spans as their replies arrive, bracketed by reads of the server's
    // stage histograms.
    let mut rec = Recorder::new();
    let untraced = go(&plan(args.seconds / 2.0, "measure-a"), None)?;
    let before = Stages::read(&server);
    let routes_before = conv_routes();
    let traced = go(&plan(args.seconds / 2.0, "measure-b"), Some(&mut rec))?;
    let after = Stages::read(&server);
    let routes = conv_routes().since(routes_before);
    for run in [&untraced, &traced] {
        report.attempted += run.outcomes.len() as u64;
        report.failed += run.outcomes.iter().filter(|o| !o.ok).count() as u64;
    }
    drop(server);
    for _ in 0..SETUP_REPS {
        setup(&mut report)?;
    }
    let exchange_us = rec.totals_of("http.exchange");
    let lag: Vec<f64> = traced
        .outcomes
        .iter()
        .map(|o| (o.sent - o.due).as_secs_f64())
        .collect();
    let mean_latency = |r: &client::Run| {
        let total: f64 = r
            .outcomes
            .iter()
            .map(|o| (o.done - o.due).as_secs_f64())
            .sum();
        ratio(total, r.outcomes.len() as f64)
    };

    // The serve helpers, timed on the exact request bytes sent and on
    // replies built from the engine's outputs for the same inputs.
    let mut engine = InferenceEngine::new(loaded.snapshot.clone(), t).map_err(|e| e.to_string())?;
    // The scheduling fields are typical values; they only change a
    // few digits of the body.
    let replies: Vec<InferReply> = parsed
        .iter()
        .map(|v| InferReply {
            output: engine.infer_one(v.clone()),
            batch_size: 2,
            queue_us: 2000,
            batch_form_us: 10,
            infer_us: 300,
            model_version: 1,
        })
        .collect();
    for rep in 0..4 {
        for (i, req) in requests.iter().enumerate() {
            let t0 = Instant::now();
            let end = find_head_end(req).expect("complete head");
            let head = parse_head(&req[..end]).map_err(|e| e.to_string())?;
            let body = std::str::from_utf8(&req[end + 4..end + 4 + head.content_length])
                .map_err(|e| e.to_string())?;
            black_box(parse_infer_body(body, items[0].len())?);
            let t1 = Instant::now();
            let out = infer_success_body(&replies[i]);
            black_box(format_response(
                200,
                "application/json",
                &out,
                false,
                Some(TRACE_ID),
            ));
            let t2 = Instant::now();
            let id = (rep * POOL + i) as u64;
            rec.record("serve.parse", t0, t1, None, id);
            rec.record("serve.respond", t1, t2, None, id);
        }
    }

    let stage_sum: f64 = (0..5).map(|i| after.mean_us(&before, i)).sum();
    let batch_mean = ratio(
        (after.items - before.items) as f64,
        (after.batches - before.batches) as f64,
    );
    let engine_us = ratio(
        after.stages[3].0 - before.stages[3].0,
        (after.items - before.items) as f64,
    ) * 1e6;
    let batch = (batch_mean.round() as usize).max(1);
    let pass = layers::f32_pass(&mut rec, &loaded.snapshot, &parsed, batch, t);
    let totals = rec.totals();
    let per_call = |name: &str| {
        let n = &totals[name];
        ratio(n.total_s, n.count as f64) * 1e6
    };
    report.put("serve.parse_us", per_call("serve.parse"));
    report.put("serve.respond_us", per_call("serve.respond"));
    report.put("serve.queue_wait_us", after.mean_us(&before, 1));
    report.put("serve.batch_form_us", after.mean_us(&before, 2));
    report.put("serve.forward_us", after.mean_us(&before, 3));
    report.put("serve.batch_size_mean", batch_mean);
    report.put(
        "pool.residual_us",
        ratio(exchange_us.total_s, exchange_us.count as f64) * 1e6 - stage_sum,
    );
    report.put("loadgen.lag_p99_ms", quantile(&lag, 0.99) * 1e3);
    let untraced_lat: Vec<f64> = untraced
        .outcomes
        .iter()
        .map(|o| (o.done - o.due).as_secs_f64())
        .collect();
    report.put("run.latency_p99_ms", quantile(&untraced_lat, 0.99) * 1e3);
    report.put("engine.us_per_item", engine_us);
    let layer_s = crate::put_layer_metrics(&mut report, "f32", &pass, &totals);
    let layer_us = layer_s.iter().sum::<f64>() / pass.items as f64 * 1e6;
    report.put(
        "engine.unattributed_ratio",
        1.0 - ratio(layer_us, engine_us),
    );
    report.put("tensor.conv_event_share", routes.event_share());
    report.put("setup.load_s", median(&setups.load_s));
    report.put("setup.server_start_s", median(&setups.server_start_s));
    // Under open-loop load both halves complete the offered rate, so
    // the cost of tracing shows in latency, not throughput.
    report.put(
        "trace.overhead_ratio",
        ratio(mean_latency(&untraced), mean_latency(&traced)),
    );
    // The demo model ends at fc1, and nothing runs int8 or quantizes.
    report.put_absent(&["f32.fc2.", "int8.", "setup.quantize_s"]);
    crate::print_accel_table(&loaded.snapshot, &pass, &layer_s);
    crate::write_trace(&rec, args);
    Ok(report)
}
