//! End-to-end tests for the HTTP front end: every route against fixed
//! reference bodies, request hardening (malformed bodies, content type,
//! oversized and truncated requests), worker faults, per-replica
//! health, atomic multi-replica and int8 reload, request tracing,
//! SLO-driven health, and the metric expositions.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use serde::Value;
use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
use snn_obs::{SloConfig, TailPolicy, TraceRing};
use snn_pool::{PoolServer, PoolServerConfig};
use snn_serve::{
    infer_success_body, parse_infer_body, BatcherConfig, InferReply, InferenceEngine, ModelRegistry,
};
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

/// `replicas` engines serving `snapshot(11)` at two timesteps; trace
/// ring and SLO objectives from the environment.
fn config(replicas: usize) -> PoolServerConfig {
    PoolServerConfig {
        replicas,
        batcher: BatcherConfig { timesteps: 2, ..BatcherConfig::default() },
        ..PoolServerConfig::default()
    }
}

fn start(cfg: PoolServerConfig) -> PoolServer {
    let registry = Arc::new(ModelRegistry::new(snapshot(11), "demo").unwrap());
    PoolServer::start(registry, cfg).unwrap()
}

fn start_pool(replicas: usize) -> PoolServer {
    start(config(replicas))
}

/// A pool of one recording every trace that `policy` keeps.
fn traced_pool(policy: TailPolicy) -> PoolServer {
    start(PoolServerConfig { trace_ring: Some(Arc::new(TraceRing::new(64, policy))), ..config(1) })
}

/// Sends raw bytes and returns (status, full response text). Makes no
/// attempt to be a well-formed client — that is the point.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(raw).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8_lossy(&response).to_string();
    let status = text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    (status, text)
}

/// One-shot well-formed client: returns (status, head, body).
fn request_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let (status, text) = raw_request(addr, req.as_bytes());
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response");
    (status, head.to_string(), body.to_string())
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = request_full(addr, method, path, body);
    (status, body)
}

/// The `x-snn-trace-id` value from a response head.
fn trace_id_of(head: &str) -> String {
    head.lines()
        .find_map(|l| l.strip_prefix("x-snn-trace-id: "))
        .unwrap_or_else(|| panic!("no x-snn-trace-id header in {head}"))
        .trim()
        .to_string()
}

fn infer_body() -> String {
    let input: Vec<String> = (0..64).map(|i| format!("{}", (i % 7) as f32 / 7.0)).collect();
    format!("{{\"input\":[{}]}}", input.join(","))
}

/// Serializes a JSON object with the per-request volatile fields
/// (batching accidents and stage timings) removed, preserving field
/// order otherwise.
fn stable_fields(body: &str) -> String {
    const VOLATILE: [&str; 4] = ["batch_size", "queue_us", "batch_form_us", "infer_us"];
    let Value::Object(entries) = serde_json::parse(body).expect("JSON object body") else {
        panic!("expected object body: {body}");
    };
    let kept: Vec<(String, Value)> =
        entries.into_iter().filter(|(k, _)| !VOLATILE.contains(&k.as_str())).collect();
    serde_json::to_string(&Value::Object(kept)).unwrap()
}

fn get<'a>(v: &'a Value, k: &str) -> Option<&'a Value> {
    v.as_object()?.iter().find(|(n, _)| n == k).map(|(_, x)| x)
}

fn get_str<'a>(v: &'a Value, k: &str) -> Option<&'a str> {
    match get(v, k)? {
        Value::String(s) => Some(s),
        _ => None,
    }
}

fn get_num(v: &Value, k: &str) -> Option<f64> {
    match get(v, k)? {
        Value::Number(n) => Some(*n),
        Value::BigInt(i) => Some(*i as f64),
        _ => None,
    }
}

#[test]
fn infer_matches_the_in_process_engine() {
    let pool = start_pool(2);
    let body = infer_body();
    let (status, reply) = request(pool.addr(), "POST", "/infer", &body);
    assert_eq!(status, 200, "reply: {reply}");
    for field in ["\"class\":", "\"counts\":", "\"layers\":", "\"rate\":", "\"batch_size\":"] {
        assert!(reply.contains(field), "missing {field} in {reply}");
    }
    // The reference: the same snapshot and input through a standalone
    // engine, rendered by the same body builder. Prediction, counts,
    // per-layer rates, engine and model_version must agree exactly;
    // only batching accidents and stage timings may differ.
    let (input, _) = parse_infer_body(&body, 64).unwrap();
    let output = InferenceEngine::new(snapshot(11), 2).unwrap().infer_one(input);
    let reference = infer_success_body(&InferReply {
        output,
        batch_size: 1,
        queue_us: 0,
        batch_form_us: 0,
        infer_us: 0,
        model_version: 1,
    });
    assert_eq!(stable_fields(&reply), stable_fields(&reference));
}

/// Malformed requests get fixed `(status, body)` answers, and every
/// `400` counts as a bad request.
#[test]
fn error_responses_match_fixed_references() {
    let pool = start_pool(2);
    #[rustfmt::skip]
    let cases = [
        ("POST", "/infer", "not json at all", 400, r#"{"error":"invalid JSON: invalid literal at byte 0 of JSON input"}"#),
        ("POST", "/infer", "[1,2,3]", 400, r#"{"error":"request body must be a JSON object"}"#),
        ("POST", "/infer", r#"{"input":"nope"}"#, 400, r#"{"error":"`input` must be an array of numbers"}"#),
        ("POST", "/infer", r#"{"input":[1,2]}"#, 400, r#"{"error":"bad input: expected 64 values, got 2"}"#),
        ("POST", "/infer", r#"{"input":[1e999]}"#, 400, r#"{"error":"`input` values must be finite"}"#),
        ("POST", "/infer", "{}", 400, r#"{"error":"missing required field `input`"}"#),
        ("GET", "/nope", "", 404, r#"{"error":"no such route"}"#),
        ("PUT", "/infer", "", 405, r#"{"error":"method not allowed"}"#),
        ("POST", "/reload", r#"{"bad":1}"#, 400, r#"{"error":"rejected snapshot: malformed snapshot JSON: missing field `input_item_dims` while decoding NetworkSnapshot"}"#),
    ];
    for (method, path, body, want_status, want_body) in cases {
        let got = request(pool.addr(), method, path, body);
        assert_eq!(got, (want_status, want_body.to_string()), "{method} {path} {body}");
    }
    let bad = cases.iter().filter(|c| c.3 == 400).count() as u64;
    assert_eq!(pool.metrics().bad_requests.get(), bad);
}

#[test]
fn healthz_reports_every_replica() {
    let pool = start_pool(3);
    let (status, body) = request(pool.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    for field in ["\"status\":\"ok\"", "\"degraded_mode\":\"none\"", "\"model\":\"demo\""] {
        assert!(body.contains(field), "missing {field} in {body}");
    }
    for i in 0..3 {
        assert!(
            body.contains(&format!("{{\"replica\":{i},\"circuit\":\"closed\"}}")),
            "missing replica {i} in {body}"
        );
    }
}

#[test]
fn reload_swaps_every_replica_atomically() {
    let pool = start_pool(2);
    let body = infer_body();
    let (_, before) = request(pool.addr(), "POST", "/infer", &body);
    assert!(before.contains("\"model_version\":1"), "before: {before}");

    let good = serde_json::to_string(&snapshot(77)).unwrap();
    let (status, receipt) = request(pool.addr(), "POST", "/reload", &good);
    assert_eq!(status, 200, "receipt: {receipt}");
    // Structured receipt: old/new version, the model's content hash,
    // and the full info object.
    for field in ["\"ok\":true", "\"old_version\":1", "\"new_version\":2", "\"version\":2"] {
        assert!(receipt.contains(field), "missing {field} in {receipt}");
    }
    let receipt = serde_json::parse(&receipt).expect("reload receipt parses");
    let hash = get_str(&receipt, "model_hash").expect("model_hash string");
    assert_eq!(hash.len(), 16, "fnv64 hex is 16 digits, got {hash}");

    // Every replica polls the same registry version at its next batch
    // boundary: all subsequent responses (across many routed requests,
    // hence both replicas) carry the new version — never a torn batch.
    for _ in 0..12 {
        let (status, reply) = request(pool.addr(), "POST", "/infer", &body);
        assert_eq!(status, 200, "reply: {reply}");
        assert!(reply.contains("\"model_version\":2"), "stale replica reply: {reply}");
    }
    // With >12 routed requests, p2c has touched both replicas with
    // overwhelming probability.
    let routed = pool.pool().routed_counts();
    assert!(routed.iter().all(|&c| c > 0), "router starved a replica: {routed:?}");

    // Incompatible interface: a model with a different class count.
    let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
    let other = SpikingNetwork::builder(Shape::d3(1, 8, 8), 5)
        .flatten()
        .unwrap()
        .dense(9, lif)
        .unwrap()
        .build()
        .unwrap();
    let other = serde_json::to_string(&NetworkSnapshot::from_network(&other)).unwrap();
    let (status, body) = request(pool.addr(), "POST", "/reload", &other);
    assert_eq!(status, 409, "reply: {body}");
    // /healthz reflects the surviving version-2 model.
    let (_, health) = request(pool.addr(), "GET", "/healthz", "");
    assert!(health.contains("\"version\":2"), "health: {health}");
}

#[test]
fn reload_with_quantized_artifact_serves_int8_end_to_end() {
    let pool = start_pool(1);
    let infer = infer_body();
    let (status, reply) = request(pool.addr(), "POST", "/infer", &infer);
    assert_eq!(status, 200, "reply: {reply}");
    assert!(reply.contains("\"engine\":\"f32\""), "reply: {reply}");

    // Quantize the served model and promote it through /reload.
    let snap = snapshot(11);
    let split: Vec<Vec<f32>> =
        (0..4).map(|s| (0..64).map(|j| ((s + j) % 7) as f32 / 7.0).collect()).collect();
    let cal = snn_quant::calibrate(&snap, &split, 2).unwrap();
    let artifact = snn_quant::quantize_snapshot(&snap, &cal, 8).unwrap();
    let body = serde_json::to_string(&artifact).unwrap();
    let (status, receipt) = request(pool.addr(), "POST", "/reload", &body);
    assert_eq!(status, 200, "receipt: {receipt}");
    for field in ["\"dtype\":\"int8\"", "\"quant\":", "\"bits\":8"] {
        assert!(receipt.contains(field), "missing {field} in {receipt}");
    }

    // /healthz reflects the dtype, /infer runs the integer engine,
    // /metrics counts the route.
    let (_, health) = request(pool.addr(), "GET", "/healthz", "");
    assert!(health.contains("\"dtype\":\"int8\""), "health: {health}");
    let (status, reply) = request(pool.addr(), "POST", "/infer", &infer);
    assert_eq!(status, 200, "reply: {reply}");
    for field in ["\"engine\":\"int8\"", "\"class\":", "\"counts\":", "\"layers\":", "\"rate\":"] {
        assert!(reply.contains(field), "missing {field} in {reply}");
    }
    let (_, metrics) = request(pool.addr(), "GET", "/metrics", "");
    for series in
        ["snn_serve_engine_int8_requests_total 1", "snn_serve_engine_f32_requests_total 1"]
    {
        assert!(metrics.contains(series), "missing {series} in {metrics}");
    }

    // A quantized artifact with a mismatched interface still 409s.
    let other_q = {
        let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
        let small = SpikingNetwork::builder(Shape::d3(1, 6, 6), 5)
            .flatten()
            .unwrap()
            .dense(4, lif)
            .unwrap()
            .build()
            .unwrap();
        let ssnap = NetworkSnapshot::from_network(&small);
        let split: Vec<Vec<f32>> = (0..3).map(|_| vec![0.5f32; 36]).collect();
        let cal = snn_quant::calibrate(&ssnap, &split, 2).unwrap();
        snn_quant::quantize_snapshot(&ssnap, &cal, 8).unwrap()
    };
    let other_q = serde_json::to_string(&other_q).unwrap();
    let (status, body) = request(pool.addr(), "POST", "/reload", &other_q);
    assert_eq!(status, 409, "reply: {body}");
}

#[test]
fn metrics_expose_per_replica_labeled_series() {
    let pool = start_pool(2);
    let body = infer_body();
    for _ in 0..4 {
        let (status, _) = request(pool.addr(), "POST", "/infer", &body);
        assert_eq!(status, 200);
    }
    let (status, text) = request(pool.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    for series in [
        "snn_pool_replica_queue_depth{replica=\"0\"}",
        "snn_pool_replica_queue_depth{replica=\"1\"}",
        "snn_pool_replica_circuit_state{replica=\"0\"}",
        "snn_pool_replica_routed_total{replica=\"1\"}",
        "snn_pool_replica_infer_seconds_bucket{replica=\"0\",le=",
        "snn_pool_router_p2c_total",
        "snn_pool_router_fallback_total",
        "snn_pool_router_rerouted_total",
        "snn_pool_open_connections",
        // The shared serve-side instruments still render.
        "snn_serve_requests_received_total",
    ] {
        assert!(text.contains(series), "missing {series} in exposition");
    }
    // HELP/TYPE are declared once per family, not once per labeled
    // series.
    let declarations = text.matches("# TYPE snn_pool_replica_queue_depth gauge").count();
    assert_eq!(declarations, 1, "family declared {declarations} times");

    // The JSON exposition carries the same labeled instruments.
    let (status, json) = request(pool.addr(), "GET", "/metrics.json", "");
    assert_eq!(status, 200);
    assert!(
        json.contains("snn_pool_replica_routed_total{replica=\\\"0\\\"}")
            || json.contains("snn_pool_replica_routed_total{replica=\"0\"}"),
        "labeled series missing from metrics.json"
    );
}

#[test]
fn metrics_families_and_unknown_routes() {
    let pool = start_pool(1);
    let (status, body) = request(pool.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.ends_with('\n'), "exposition must end with a newline");
    for needle in [
        "# TYPE snn_serve_requests_completed_total counter\n",
        "# HELP snn_serve_request_latency_seconds ",
        "# TYPE snn_serve_batch_size histogram\n",
        "# TYPE snn_serve_queue_depth gauge\n",
        "# TYPE snn_serve_stage_queue_wait_seconds histogram\n",
        "# TYPE snn_slo_fast_burn gauge\n",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in {body}");
    }
    // The bare-name alias series are gone.
    for gone in ["\ncompleted 0\n", "\nreceived 0\n", "\nrejected_full 0\n"] {
        assert!(!body.contains(gone), "legacy alias {gone:?} still present in {body}");
    }
    let (status, json) = request(pool.addr(), "GET", "/metrics.json", "");
    assert_eq!(status, 200);
    let parsed = serde_json::parse(&json).expect("metrics.json body parses");
    let keys: Vec<&str> =
        parsed.as_object().expect("object body").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["model", "instruments"], "top-level keys of {json}");
    assert_eq!(get_str(get(&parsed, "model").unwrap(), "name"), Some("demo"));
    // Each instrument appears once: no second copy of the histograms.
    let Some(Value::Array(instruments)) = get(&parsed, "instruments") else {
        panic!("no instruments array in {json}")
    };
    let names: BTreeSet<&str> = instruments.iter().map(|i| get_str(i, "name").unwrap()).collect();
    assert_eq!(names.len(), instruments.len(), "an instrument is listed twice in {json}");
    for name in ["snn_serve_request_latency_seconds", "snn_serve_queue_depth"] {
        assert!(names.contains(&name), "missing {name} in {json}");
    }
    assert_eq!(request(pool.addr(), "GET", "/nope", "").0, 404);
    assert_eq!(request(pool.addr(), "DELETE", "/infer", "").0, 405);
}

#[test]
fn keep_alive_pipelines_requests_in_order() {
    let pool = start_pool(2);
    let body = infer_body();
    // Two /infer requests and a /healthz, written back-to-back before
    // reading anything.
    let mut batch = String::new();
    for _ in 0..2 {
        batch.push_str(&format!(
            "POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    batch.push_str("GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let (_, text) = raw_request(pool.addr(), batch.as_bytes());
    let statuses: Vec<&str> = text.matches("HTTP/1.1 200 OK").collect();
    assert_eq!(statuses.len(), 3, "three pipelined responses: {text}");
    let healthz_pos = text.find("\"status\":\"ok\"").expect("healthz body last");
    let infer_pos = text.rfind("\"model_version\"").expect("infer bodies first");
    assert!(infer_pos < healthz_pos, "responses out of order");
}

#[test]
fn single_replica_pool_still_serves() {
    let pool = start_pool(1);
    let (status, reply) = request(pool.addr(), "POST", "/infer", &infer_body());
    assert_eq!(status, 200, "reply: {reply}");
    let (status, body) = request(pool.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"replicas\":[{\"replica\":0,\"circuit\":\"closed\"}]"));
}

#[test]
fn oversized_declared_body_rejected_without_reading() {
    let pool = start_pool(2);
    // Declare 9 MiB but send none of it: the 413 must come back from
    // the headers alone instead of buffering toward OOM.
    let (status, text) = raw_request(
        pool.addr(),
        b"POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: 9437184\r\n\r\n",
    );
    assert_eq!(status, 413, "got: {text}");
    assert!(text.contains("request body too large"), "got: {text}");
    // The instance is still healthy afterwards.
    assert_eq!(request(pool.addr(), "GET", "/healthz", "").0, 200);
    assert_eq!(pool.metrics().bad_requests.get(), 1);
}

#[test]
fn truncated_body_and_mid_body_drop_do_not_wedge_the_server() {
    let pool = start_pool(1);
    // Declares 50 bytes, sends 10, then drops the connection.
    {
        let mut stream = TcpStream::connect(pool.addr()).unwrap();
        stream
            .write_all(b"POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\n{\"input\":[")
            .unwrap();
    }
    // Truncated *JSON* with an honest Content-Length parses as a body
    // and earns a typed 400.
    let (status, reply) = request(pool.addr(), "POST", "/infer", "{\"input\":[1,2,");
    assert_eq!(status, 400, "reply: {reply}");
    assert!(reply.contains("invalid JSON"), "reply: {reply}");
    // Both abuses left the server serving.
    let (status, body) = request(pool.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "body: {body}");
}

#[test]
fn wrong_content_type_is_rejected_with_400() {
    let pool = start_pool(1);
    let post = |path: &str, content_type: &str| {
        let body = "{\"input\":[]}";
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        raw_request(pool.addr(), raw.as_bytes())
    };
    for path in ["/infer", "/reload"] {
        let (status, text) = post(path, "text/plain");
        assert_eq!(status, 400, "{path} response: {text}");
        assert!(text.contains("unsupported content-type"), "{path} response: {text}");
    }
    // A correct declaration (with parameters) is accepted — the request
    // then fails validation for its own reasons, not the header.
    let (status, text) = post("/infer", "application/json; charset=utf-8");
    assert_eq!(status, 400, "response: {text}");
    assert!(text.contains("expected 64 values"), "response: {text}");
}

#[test]
fn worker_panic_on_a_pool_of_one_surfaces_as_503_and_healthz_degrades_then_recovers() {
    // Threshold 1 so the single injected panic opens the circuit.
    let plan = snn_fault::FaultPlan::parse("panic@serve.worker:1", 0).unwrap();
    let _guard = snn_fault::install(Arc::new(plan));
    let pool = start(PoolServerConfig {
        batcher: BatcherConfig {
            timesteps: 2,
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(50),
            ..BatcherConfig::default()
        },
        ..config(1)
    });
    let body = infer_body();
    let (status, reply) = request(pool.addr(), "POST", "/infer", &body);
    assert_eq!(status, 503, "reply: {reply}");
    assert!(reply.contains("panicked"), "reply: {reply}");

    // The only breaker is open: nothing can be served, so the health
    // check must tell load balancers to back off.
    let (status, health) = request(pool.addr(), "GET", "/healthz", "");
    assert_eq!(status, 503, "all breakers open answers 503");
    for field in ["\"status\":\"degraded\"", "\"degraded_mode\":\"none\"", "\"circuit\":\"open\""] {
        assert!(health.contains(field), "missing {field} in {health}");
    }

    // After the cooldown the half-open probe succeeds (the occurrence
    // rule already fired) and service self-heals; the last serving
    // replica is never quarantined.
    std::thread::sleep(Duration::from_millis(60));
    let (status, reply) = request(pool.addr(), "POST", "/infer", &body);
    assert_eq!(status, 200, "probe reply: {reply}");
    let (status, health) = request(pool.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "healed instance answers 200 again");
    assert!(health.contains("\"status\":\"ok\""), "health: {health}");
    assert_eq!(pool.metrics().worker_panics.get(), 1);
    assert_eq!(pool.pool().quarantine_counts(), (0, 0));
}

/// `serve.worker` is the one worker fault site: a plan aimed at it
/// fires inside a multi-replica pool too.
#[test]
fn serve_worker_fault_fires_in_a_two_replica_pool() {
    let plan = snn_fault::FaultPlan::parse("panic@serve.worker:1", 0).unwrap();
    let _guard = snn_fault::install(Arc::new(plan));
    let pool = start_pool(2);
    let body = infer_body();
    let statuses: Vec<u16> =
        (0..6).map(|_| request(pool.addr(), "POST", "/infer", &body).0).collect();
    assert_eq!(statuses.iter().filter(|&&s| s == 503).count(), 1, "statuses: {statuses:?}");
    assert_eq!(statuses.iter().filter(|&&s| s == 200).count(), 5, "statuses: {statuses:?}");
    assert_eq!(pool.metrics().worker_panics.get(), 1);
}

#[test]
fn shutdown_is_clean_and_idempotent() {
    let mut pool = start_pool(1);
    let addr = pool.addr();
    assert_eq!(request(addr, "GET", "/healthz", "").0, 200);
    pool.shutdown();
    pool.shutdown();
    // After shutdown the listener is gone: either the connection is
    // refused or it resets without a response.
    let gone = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut s) => {
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut out = Vec::new();
            matches!(s.read_to_end(&mut out), Ok(0) | Err(_)) && out.is_empty()
        }
    };
    assert!(gone, "server still answering after shutdown");
}

#[test]
fn infer_trace_is_locatable_by_header_id_with_five_stages_summing_to_wall() {
    let pool = traced_pool(TailPolicy::default());
    let (status, head, reply) = request_full(pool.addr(), "POST", "/infer", &infer_body());
    assert_eq!(status, 200, "reply: {reply}");
    assert!(reply.contains("\"batch_form_us\":"), "reply: {reply}");
    let id = trace_id_of(&head);
    assert!(snn_obs::tracectx::is_trace_hex(&id), "malformed id {id}");

    // Non-traced routes still carry the header.
    let (_, head, _) = request_full(pool.addr(), "GET", "/healthz", "");
    assert_ne!(trace_id_of(&head), id, "each request gets its own id");

    let (status, listing) = request(pool.addr(), "GET", "/debug/traces", "");
    assert_eq!(status, 200, "listing: {listing}");
    let parsed = serde_json::parse(&listing).unwrap();
    assert_eq!(get_num(&parsed, "capacity"), Some(64.0));
    assert!(get_num(&parsed, "kept").unwrap() >= 1.0, "listing: {listing}");

    let (status, rec) = request(pool.addr(), "GET", &format!("/debug/traces/{id}"), "");
    assert_eq!(status, 200, "record: {rec}");
    let rec = serde_json::parse(&rec).unwrap();
    assert_eq!(get_str(&rec, "trace_id"), Some(id.as_str()));
    assert_eq!(get_str(&rec, "route"), Some("/infer"));
    assert_eq!(get_str(&rec, "outcome"), Some("ok"));
    assert_eq!(get_str(&rec, "engine"), Some("f32"));
    assert!(get_num(&rec, "batch_size").unwrap() >= 1.0);
    let total = get_num(&rec, "total_us").unwrap();
    let Some(Value::Array(stages)) = get(&rec, "stages") else { panic!("stages missing") };
    let names: Vec<&str> = stages.iter().map(|s| get_str(s, "stage").unwrap()).collect();
    assert_eq!(names, ["parse", "queue_wait", "batch_form", "forward", "respond"]);
    let sum: f64 = stages.iter().map(|s| get_num(s, "micros").unwrap()).sum();
    assert!((sum - total).abs() <= 0.05 * total + 5.0, "stages sum {sum}us vs wall {total}us");
    assert!(
        stages.iter().any(|s| get_num(s, "micros").unwrap() > 0.0),
        "all stages zero: {stages:?}"
    );

    // Chrome export: meta event + one X event per stage.
    let (status, chrome) = request(pool.addr(), "GET", &format!("/debug/traces/{id}/chrome"), "");
    assert_eq!(status, 200, "chrome: {chrome}");
    let Value::Array(events) = serde_json::parse(&chrome).unwrap() else {
        panic!("chrome export must be an array")
    };
    assert_eq!(events.len(), 1 + 5, "chrome: {chrome}");

    // Unknown and malformed ids answer typed errors.
    let unknown = format!("/debug/traces/{}", "0".repeat(32));
    assert_eq!(request(pool.addr(), "GET", &unknown, "").0, 404);
    assert_eq!(request(pool.addr(), "GET", "/debug/traces/nope", "").0, 400);
}

#[test]
fn tail_sampling_drops_fast_successes_but_keeps_client_errors() {
    // sample=0, slow threshold unreachable: only failures survive.
    let pool = traced_pool(TailPolicy { slow_us: u64::MAX, sample: 0.0 });
    let (status, head, _) = request_full(pool.addr(), "POST", "/infer", &infer_body());
    assert_eq!(status, 200);
    let ok_id = trace_id_of(&head);
    let (status, head, _) = request_full(pool.addr(), "POST", "/infer", "{\"input\":[1]}");
    assert_eq!(status, 400);
    let bad_id = trace_id_of(&head);

    let (_, rec) = request(pool.addr(), "GET", &format!("/debug/traces/{ok_id}"), "");
    assert!(rec.contains("no such trace"), "fast success must be sampled out: {rec}");
    let (status, rec) = request(pool.addr(), "GET", &format!("/debug/traces/{bad_id}"), "");
    assert_eq!(status, 200, "error outcome must always be kept: {rec}");
    assert!(rec.contains("\"outcome\":\"bad_input\""), "record: {rec}");
}

#[test]
fn debug_traces_404_when_tracing_disabled() {
    let pool = start(PoolServerConfig { trace_ring: None, ..config(1) });
    let (status, body) = request(pool.addr(), "GET", "/debug/traces", "");
    assert_eq!(status, 404, "body: {body}");
    assert!(body.contains("tracing disabled"), "body: {body}");
}

#[test]
fn healthz_degrades_on_fast_slo_burn() {
    let pool =
        start(PoolServerConfig { slo: Some(SloConfig::parse("avail=99.9").unwrap()), ..config(1) });
    let (_, health) = request(pool.addr(), "GET", "/healthz", "");
    assert!(health.contains("\"status\":\"ok\""), "health: {health}");
    assert!(health.contains("\"slo_fast_burn\":false"), "health: {health}");
    // Burn the error budget far past the fast threshold.
    for _ in 0..50 {
        pool.metrics().slo_record(false, 1_000);
    }
    // Fast burn with no brownout artifact published means there is no
    // mitigation: the health check flips hard to 503.
    let (status, health) = request(pool.addr(), "GET", "/healthz", "");
    assert_eq!(status, 503, "unmitigated fast burn answers 503");
    for field in [
        "\"status\":\"degraded\"",
        "\"degraded_mode\":\"none\"",
        "\"slo_fast_burn\":true",
        // Degradation is SLO-driven, not a breaker.
        "\"circuit\":\"closed\"",
    ] {
        assert!(health.contains(field), "missing {field} in {health}");
    }
    let (_, metrics) = request(pool.addr(), "GET", "/metrics", "");
    assert!(metrics.contains("\nsnn_slo_fast_burn 1\n"), "metrics: {metrics}");
}

/// The text and JSON expositions must not drift. Every sample in
/// `/metrics` must appear in `/metrics.json` — with the same value for
/// this instance's serve and SLO families (globals are shared with
/// concurrently running tests, so only presence is asserted there) —
/// and histogram sums/counts must be consistent with their buckets.
#[test]
fn metrics_text_and_json_expositions_agree() {
    let pool = start_pool(1);
    let body = infer_body();
    for _ in 0..3 {
        assert_eq!(request(pool.addr(), "POST", "/infer", &body).0, 200);
    }
    let (_, text) = request(pool.addr(), "GET", "/metrics", "");
    let (_, json) = request(pool.addr(), "GET", "/metrics.json", "");
    let parsed = serde_json::parse(&json).unwrap();
    let Some(Value::Array(instruments)) = get(&parsed, "instruments") else {
        panic!("no instruments array in {json}")
    };

    // Reconstruct the expected sample set from the JSON dump. Labeled
    // histograms (`family{replica="0"}`) interleave their labels with
    // `le` in the text form.
    let mut expected: BTreeMap<String, f64> = BTreeMap::new();
    for inst in instruments {
        let name = get_str(inst, "name").unwrap().to_string();
        if get_str(inst, "kind") != Some("histogram") {
            expected.insert(name, get_num(inst, "value").unwrap());
            continue;
        }
        let (family, labels) = match name.split_once('{') {
            Some((f, l)) => (f.to_string(), l.trim_end_matches('}').to_string()),
            None => (name.clone(), String::new()),
        };
        let (le_prefix, plain) = if labels.is_empty() {
            (String::new(), String::new())
        } else {
            (format!("{labels},"), format!("{{{labels}}}"))
        };
        let nums = |key: &str| -> Vec<f64> {
            let Some(Value::Array(xs)) = get(inst, key) else { panic!("{name}: no {key}") };
            xs.iter()
                .map(|x| match x {
                    Value::Number(n) => *n,
                    Value::BigInt(i) => *i as f64,
                    other => panic!("non-numeric {other:?}"),
                })
                .collect()
        };
        let (bounds, counts) = (nums("bounds"), nums("counts"));
        assert_eq!(counts.len(), bounds.len() + 1, "{name}: overflow bucket");
        let sum = get_num(inst, "sum").unwrap();
        let count = get_num(inst, "count").unwrap();
        let max = get_num(inst, "max").unwrap();
        // Bucket consistency: totals match, mean <= max.
        assert_eq!(counts.iter().sum::<f64>(), count, "{name}: bucket counts vs count");
        if count > 0.0 {
            assert!(sum / count <= max + 1e-9, "{name}: mean above max");
        }
        let mut cum = 0.0;
        for (b, c) in bounds.iter().zip(&counts) {
            cum += c;
            expected.insert(format!("{family}_bucket{{{le_prefix}le=\"{b}\"}}"), cum);
        }
        expected.insert(format!("{family}_bucket{{{le_prefix}le=\"+Inf\"}}"), count);
        expected.insert(format!("{family}_sum{plain}"), sum);
        expected.insert(format!("{family}_count{plain}"), count);
    }

    let mut samples = 0usize;
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        samples += 1;
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line}"));
        let got = expected
            .get(name)
            .unwrap_or_else(|| panic!("`{name}` in /metrics but not /metrics.json"));
        if name.starts_with("snn_serve_") || name.starts_with("snn_slo_") {
            let value: f64 = value.parse().unwrap_or_else(|_| panic!("bad value {line}"));
            assert!(
                (got - value).abs() <= 1e-9 * value.abs().max(1.0),
                "`{name}`: text {value} vs json {got}"
            );
        }
    }
    assert!(samples > 40, "suspiciously small exposition ({samples} samples):\n{text}");
    assert!(
        text.contains("\nsnn_serve_stage_queue_wait_seconds_count 3\n"),
        "stage histogram missed the 3 requests: {text}"
    );
    // The per-layer counters (matched to JSON by the loop above) are
    // exact: 3 requests × 2 timesteps × 256 conv1 (4×8×8) or 4 fc1
    // outputs.
    for series in [
        "\nsnn_serve_layer_spikes_total{layer=\"conv1\"} ",
        "\nsnn_serve_layer_spikes_total{layer=\"fc1\"} ",
        "\nsnn_serve_layer_neuron_steps_total{layer=\"conv1\"} 1536\n",
        "\nsnn_serve_layer_neuron_steps_total{layer=\"fc1\"} 24\n",
    ] {
        assert!(text.contains(series), "{series:?} missing from {text}");
    }
}

/// Every `*_seconds` histogram a server exports — request latency,
/// serve stages, per-replica timings, spans — shares one bucket
/// ladder, so their quantiles have one resolution.
#[test]
fn every_seconds_family_has_one_bucket_ladder() {
    let pool = start_pool(2);
    for _ in 0..4 {
        assert_eq!(request(pool.addr(), "POST", "/infer", &infer_body()).0, 200);
    }
    let (_, text) = request(pool.addr(), "GET", "/metrics", "");
    // Series (family plus every label but `le`) → its `le` values.
    let mut ladders: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    for line in text.lines() {
        let Some((family, rest)) = line.split_once("_seconds_bucket{") else { continue };
        let (labels, le) = rest.split_once("le=").expect("bucket has an le label");
        let le = le.split('}').next().unwrap();
        ladders.entry(format!("{family}{{{labels}")).or_default().push(le);
    }
    for series in ["snn_serve_request_latency{", "snn_pool_replica_infer{replica=\"1\","] {
        assert!(ladders.contains_key(series), "no {series} ladder in {text}");
    }
    let first = ladders.values().next().unwrap();
    assert_eq!(first.len(), 27, "26 bounds plus +Inf");
    for (series, ladder) in &ladders {
        assert_eq!(ladder, first, "{series} has its own ladder");
    }
}

/// Each replica has its own AIMD limit; the exported gauge is their
/// sum, not whichever replica wrote last.
#[test]
fn admit_limit_sums_over_replicas() {
    let pool = start(PoolServerConfig {
        batcher: BatcherConfig { timesteps: 2, capacity: 32, ..BatcherConfig::default() },
        ..config(2)
    });
    let (_, text) = request(pool.addr(), "GET", "/metrics", "");
    assert!(text.contains("\nsnn_serve_admit_limit 64\n"), "2 × capacity 32 in {text}");
}

/// Requests that ride one batch split its forward time: together they
/// add one forward pass to `snn_pool_replica_infer_seconds_sum`, so
/// the sum over wall time is the engine's busy fraction.
#[test]
fn batch_riders_add_one_forward_time_to_replica_infer_seconds() {
    let pool = start(PoolServerConfig {
        batcher: BatcherConfig {
            timesteps: 2,
            max_batch: 2,
            max_wait: Duration::from_millis(500),
            ..BatcherConfig::default()
        },
        ..config(1)
    });
    let addr = pool.addr();
    let riders: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(move || request(addr, "POST", "/infer", &infer_body())))
        .collect();
    let replies: Vec<Value> =
        riders.into_iter().map(|t| serde_json::parse(&t.join().unwrap().1).unwrap()).collect();
    let infer_us = get_num(&replies[0], "infer_us").unwrap();
    for reply in &replies {
        assert_eq!(get_num(reply, "batch_size"), Some(2.0), "both ride one batch");
        assert_eq!(get_num(reply, "infer_us"), Some(infer_us), "one shared forward pass");
    }
    // Halving and doubling are exact, so the sum is bit-identical.
    let (_, text) = request(addr, "GET", "/metrics", "");
    let sum = "snn_pool_replica_infer_seconds_sum";
    let one = format!("\n{sum}{{replica=\"0\"}} {}\n", infer_us * 1e-6);
    assert!(text.contains(&one), "expected {one:?} in {text}");
}

/// A request the engine never answers in time is abandoned at its
/// give-up instant (budget + the 2 s engine grace) with a 503, not at
/// the next timer tick after it: the loop sleeps exactly until the
/// nearest deadline.
#[test]
fn engine_timeout_answers_503_at_the_give_up_instant() {
    // A lone request lingers the full 3 s max_wait, so the engine is
    // still holding it when its 10 ms budget + grace runs out.
    let pool = start(PoolServerConfig {
        batcher: BatcherConfig {
            timesteps: 2,
            max_wait: Duration::from_secs(3),
            ..BatcherConfig::default()
        },
        ..config(1)
    });
    let input: Vec<String> = (0..64).map(|i| format!("{}", (i % 7) as f32 / 7.0)).collect();
    let body = format!("{{\"input\":[{}],\"timeout_ms\":10}}", input.join(","));
    let sent = std::time::Instant::now();
    let (status, reply) = request(pool.addr(), "POST", "/infer", &body);
    let took = sent.elapsed();
    assert_eq!(status, 503, "reply: {reply}");
    assert!(reply.contains("engine timed out after 2010ms"), "reply: {reply}");
    assert!(
        took >= Duration::from_millis(2000) && took <= Duration::from_millis(2400),
        "503 arrived after {took:?}, want 2.0–2.4 s"
    );
}
