//! The HTTP/1.1 protocol surface of the model server, as pure
//! functions: request-head framing, `/infer` body decoding, response
//! formatting, and the body builders behind every route.
//!
//! No async runtime and no HTTP crate: the workspace is offline, and
//! the surface a model server needs — fixed routes, JSON bodies,
//! `Content-Length` framing, keep-alive — fits in a few hundred lines
//! of `std`. The one front end that drives these functions is the
//! epoll readiness loop in `snn-pool` (`snn_pool::PoolServer`), which
//! `snn serve` starts at every replica count; the bounded
//! [`crate::Batcher`] behind it turns overload into typed rejections
//! instead of unbounded queues.
//!
//! Routes:
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/infer` | POST | `{"input": [...], "timeout_ms": n?}` → prediction + per-layer firing rates |
//! | `/healthz` | GET | liveness + served model name/version |
//! | `/metrics` | GET | Prometheus text exposition (instance + global instruments) |
//! | `/metrics.json` | GET | `{"model": ModelInfo, "instruments": [...]}`: the same instruments as JSON |
//! | `/reload` | POST | snapshot JSON → validated atomic hot-swap |
//! | `/debug/traces` | GET | tail-sampled recent request traces |
//! | `/debug/traces/<id>` | GET | one trace by its 32-hex id |
//! | `/debug/traces/<id>/chrome` | GET | same trace as a chrome://tracing event array |
//!
//! Rejections map onto status codes ([`rejection_status`]): full queue
//! or admission shed → `429`, lapsed deadline → `504`, malformed input
//! → `400`, shutdown, worker panic or open circuit → `503`,
//! incompatible reload → `409`.

use std::fmt;
use std::io::{self, ErrorKind};
use std::time::Duration;

use serde::{Serialize, Value};

use crate::breaker::CircuitState;
use crate::queue::Rejection;
use crate::registry::{ModelInfo, ModelRegistry, ServedModel, SwapError};
use snn_core::SnapshotError;
use snn_obs::{tracectx, TraceRing};

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body; a larger declared `Content-Length`
/// is answered `413` without reading the payload.
pub const MAX_BODY: usize = 8 * 1024 * 1024;
/// Idle keep-alive connections are closed after this long.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Slack added on top of an `/infer` request's queue deadline before
/// the front end gives up on the engine entirely and answers `503`.
/// The deadline bounds *queue* wait; this grace bounds the forward
/// pass behind it, so a wedged worker can never hang a request
/// forever.
pub const ENGINE_GRACE: Duration = Duration::from_secs(2);

/// Failure starting the server.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listener failed.
    Io(io::Error),
    /// The engine could not be built from the registry's snapshot.
    Snapshot(SnapshotError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "cannot bind server: {e}"),
            ServeError::Snapshot(e) => write!(f, "cannot build engine: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// `Some(reason)` if a declared `Content-Type` is not JSON (`None`
/// when the header is absent or correct). POSTs without the header
/// are accepted (curl-without-`-H` ergonomics); a *wrong* declaration
/// is a client bug worth a typed `400`.
pub fn content_type_error(content_type: Option<&str>) -> Option<String> {
    let ct = content_type?;
    let essence = ct.split(';').next().unwrap_or(ct).trim();
    if essence.eq_ignore_ascii_case("application/json") {
        None
    } else {
        Some(format!("unsupported content-type `{essence}`; use application/json"))
    }
}

/// Byte offset of the `\r\n\r\n` terminating a request head, if it
/// has fully arrived.
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The parts of a parsed request head the server acts on.
#[derive(Debug, Clone)]
pub struct RequestHead {
    /// HTTP method verbatim (`GET`, `POST`, …).
    pub method: String,
    /// Request path (starts with `/`).
    pub path: String,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
    /// Whether the client asked for `Connection: close`.
    pub close: bool,
    /// Declared `Content-Type`, verbatim.
    pub content_type: Option<String>,
}

/// Parses a request head (`buf` up to, not including, the blank
/// line).
///
/// # Errors
///
/// `InvalidData` on a non-UTF-8 head, a bad request line, or an
/// unparseable `Content-Length`.
pub fn parse_head(head: &[u8]) -> io::Result<RequestHead> {
    let head = std::str::from_utf8(head)
        .map_err(|_| io::Error::new(ErrorKind::InvalidData, "non-UTF-8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || !path.starts_with('/') {
        return Err(io::Error::new(ErrorKind::InvalidData, "bad request line"));
    }
    let mut content_length = 0usize;
    let mut close = false;
    let mut content_type = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(ErrorKind::InvalidData, "bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("content-type") {
            content_type = Some(value.to_string());
        }
    }
    Ok(RequestHead { method, path, content_length, close, content_type })
}

/// The `/healthz` status and JSON body. `circuits` carries one breaker
/// state per engine replica (a pool of one passes a one-element
/// slice): `status` is `ok` only when **every** replica's
/// circuit is closed and no SLO budget is fast-burning; the top-level
/// `circuit` reports the worst replica state, and a `replicas` array
/// spells out each one.
///
/// The HTTP status distinguishes "degraded but serving" from "not
/// serving": when every replica's circuit is open, or an SLO budget is
/// fast-burning with no brownout mitigation engaged, the endpoint
/// answers `503` so load balancers stop routing here. An active
/// brownout (`degraded_mode: "brownout"`) keeps `200` — the instance
/// is degraded by choice and still has capacity.
pub fn healthz_body(
    info: ModelInfo,
    circuits: &[CircuitState],
    fast_burn: bool,
    brownout: bool,
) -> (u16, String) {
    let circuit_name = |c: CircuitState| match c {
        CircuitState::Closed => "closed",
        CircuitState::HalfOpen => "half-open",
        CircuitState::Open => "open",
    };
    let all_closed = circuits.iter().all(|c| *c == CircuitState::Closed);
    let all_open =
        !circuits.is_empty() && circuits.iter().all(|c| *c == CircuitState::Open);
    // `degraded` whenever any replica's circuit is not closed, an SLO
    // error budget is burning fast enough to page, or brownout
    // degradation is serving INT8 in place of the primary model.
    let status = if all_closed && !fast_burn && !brownout { "ok" } else { "degraded" };
    let http_status = if all_open || (fast_burn && !brownout) { 503 } else { 200 };
    let worst = circuits.iter().copied().max_by_key(|c| c.as_gauge() as i64);
    let replicas = circuits
        .iter()
        .enumerate()
        .map(|(i, c)| {
            Value::Object(vec![
                ("replica".into(), Value::Number(i as f64)),
                ("circuit".into(), Value::String(circuit_name(*c).into())),
            ])
        })
        .collect();
    let body = Value::Object(vec![
        ("status".into(), Value::String(status.into())),
        (
            "degraded_mode".into(),
            Value::String(if brownout { "brownout" } else { "none" }.into()),
        ),
        (
            "circuit".into(),
            Value::String(circuit_name(worst.unwrap_or(CircuitState::Closed)).into()),
        ),
        ("replicas".into(), Value::Array(replicas)),
        ("slo_fast_burn".into(), Value::Bool(fast_burn)),
        ("model".into(), Value::String(info.name)),
        ("version".into(), Value::Number(info.version as f64)),
        ("dtype".into(), Value::String(info.dtype)),
    ]);
    (http_status, render(&body))
}

/// The `GET /debug/traces` response against any trace ring (`None`
/// when tracing is disabled): ring stats plus every kept trace,
/// newest first.
pub fn traces_list_response(ring: Option<&TraceRing>) -> (u16, String) {
    let Some(ring) = ring else {
        return (404, error_body("request tracing disabled (SNN_TRACE_RING=0)"));
    };
    let (kept, sampled_out) = ring.stats();
    let traces = ring.recent().iter().map(|r| r.to_value()).collect();
    let body = Value::Object(vec![
        ("capacity".into(), Value::Number(ring.capacity() as f64)),
        ("kept".into(), Value::Number(kept as f64)),
        ("sampled_out".into(), Value::Number(sampled_out as f64)),
        ("traces".into(), Value::Array(traces)),
    ]);
    (200, render(&body))
}

/// The `GET /debug/traces/<id>[/chrome]` response against any trace
/// ring.
pub fn trace_get_response(rest: &str, ring: Option<&TraceRing>) -> (u16, String) {
    let Some(ring) = ring else {
        return (404, error_body("request tracing disabled (SNN_TRACE_RING=0)"));
    };
    let (id, chrome) = match rest.strip_suffix("/chrome") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    if !tracectx::is_trace_hex(id) {
        return (400, error_body("trace id must be 32 lowercase hex chars"));
    }
    match ring.find(id) {
        Some(rec) if chrome => (200, render(&rec.chrome_value())),
        Some(rec) => (200, render(&rec.to_value())),
        None => (404, error_body("no such trace (evicted, sampled out, or never seen)")),
    }
}

/// Maps a queue [`Rejection`] to its HTTP status and trace outcome
/// label.
pub fn rejection_status(rejection: &Rejection) -> (u16, &'static str) {
    match rejection {
        Rejection::QueueFull { .. } => (429, "queue_full"),
        Rejection::DeadlineExceeded { .. } => (504, "deadline"),
        Rejection::BadInput { .. } => (400, "bad_input"),
        Rejection::ShuttingDown => (503, "shutdown"),
        Rejection::WorkerPanic => (503, "worker_panic"),
        Rejection::CircuitOpen => (503, "circuit_open"),
        Rejection::AdmissionShed { .. } => (429, "admission_shed"),
    }
}

/// The `200` body for a served `/infer` request. Field order is part
/// of the wire contract.
pub fn infer_success_body(reply: &crate::queue::InferReply) -> String {
    let mut entries = match reply.output.to_value() {
        Value::Object(entries) => entries,
        other => vec![("output".into(), other)],
    };
    entries.push(("batch_size".into(), Value::Number(reply.batch_size as f64)));
    entries.push(("queue_us".into(), Value::Number(reply.queue_us as f64)));
    entries.push(("batch_form_us".into(), Value::Number(reply.batch_form_us as f64)));
    entries.push(("infer_us".into(), Value::Number(reply.infer_us as f64)));
    entries.push(("model_version".into(), Value::Number(reply.model_version as f64)));
    render(&Value::Object(entries))
}

/// Decodes `{"input": [...], "timeout_ms": n?}` by hand over the
/// `Value` tree — the vendored serde derive has no optional fields, so
/// a typed struct would reject bodies omitting `timeout_ms`.
///
/// # Errors
///
/// Returns the `400` error message for a malformed body.
pub fn parse_infer_body(
    text: &str,
    expected_len: usize,
) -> Result<(Vec<f32>, Option<Duration>), String> {
    let value = serde_json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let Value::Object(entries) = value else {
        return Err("request body must be a JSON object".into());
    };
    let mut input: Option<Vec<f32>> = None;
    let mut timeout: Option<Duration> = None;
    for (key, val) in entries {
        match key.as_str() {
            "input" => {
                let Value::Array(items) = val else {
                    return Err("`input` must be an array of numbers".into());
                };
                let mut xs = Vec::with_capacity(items.len());
                for item in items {
                    let Value::Number(n) = item else {
                        return Err("`input` must be an array of numbers".into());
                    };
                    let v = n as f32;
                    if !v.is_finite() {
                        return Err("`input` values must be finite".into());
                    }
                    xs.push(v);
                }
                input = Some(xs);
            }
            "timeout_ms" => {
                let Value::Number(n) = val else {
                    return Err("`timeout_ms` must be a number".into());
                };
                if !(n.is_finite() && n >= 0.0) {
                    return Err("`timeout_ms` must be a non-negative number".into());
                }
                timeout = Some(Duration::from_micros((n * 1000.0) as u64));
            }
            other => return Err(format!("unknown field `{other}`")),
        }
    }
    let input = input.ok_or_else(|| "missing required field `input`".to_string())?;
    if input.len() != expected_len {
        return Err(format!(
            "bad input: expected {expected_len} values, got {}",
            input.len()
        ));
    }
    Ok((input, timeout))
}

/// Parses a `/reload` body and swaps it into the registry, returning
/// the HTTP status and structured receipt. Every engine replica polls
/// the same registry version and rebuilds at its next batch boundary,
/// so one swap retargets all replicas atomically per batch.
pub fn apply_reload(registry: &ModelRegistry, body: &[u8]) -> (u16, String) {
    // `ServedModel::from_json` sniffs the artifact flavor: f32
    // snapshots (`layers`) and quantized artifacts (`format`/`stages`)
    // both reload through the same endpoint; the batch worker rebuilds
    // the matching engine at the next batch boundary.
    let parsed = std::str::from_utf8(body)
        .map_err(|_| SnapshotError::Malformed("body is not UTF-8".into()))
        .and_then(ServedModel::from_json);
    let model = match parsed {
        Ok(s) => s,
        Err(e) => {
            return (400, error_body(&format!("rejected snapshot: {e}")));
        }
    };
    match registry.swap(model, "reload") {
        Ok(receipt) => {
            // Structured swap receipt: what was replaced (captured
            // inside the swap's critical section, so racing reloads
            // each report their own predecessor), what now serves, and
            // the new model's content hash (matching the artifact
            // registry's identity).
            let info = &receipt.info;
            snn_obs::log_info!(
                "model reloaded",
                old_version = receipt.replaced,
                new_version = info.version,
                dtype = info.dtype.clone(),
                hash = info.hash.clone(),
            );
            let body = Value::Object(vec![
                ("ok".into(), Value::Bool(true)),
                ("old_version".into(), Value::Number(receipt.replaced as f64)),
                ("new_version".into(), Value::Number(info.version as f64)),
                ("dtype".into(), Value::String(info.dtype.clone())),
                ("model_hash".into(), Value::String(info.hash.clone())),
                (
                    "model".into(),
                    serde_json::parse(&serde_json::to_string(info).expect("info serialize"))
                        .expect("info JSON reparses"),
                ),
            ]);
            (200, render(&body))
        }
        Err(e @ SwapError::Invalid(_)) => (400, error_body(&e.to_string())),
        Err(e @ SwapError::Incompatible { .. }) => (409, error_body(&e.to_string())),
    }
}

/// Renders `{"error": message}` — the uniform error payload.
pub fn error_body(message: &str) -> String {
    render(&Value::Object(vec![(
        "error".into(),
        Value::String(message.into()),
    )]))
}

/// Serializes a JSON [`Value`] body.
pub fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("Value serializes infallibly")
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// Formats a complete HTTP/1.1 response (head + body) as one buffer,
/// so it goes out in one write: head and body in separate segments
/// trip Nagle + delayed-ACK on loopback (~40ms stalls).
pub fn format_response(
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
    trace_id: Option<&str>,
) -> String {
    let mut response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        status_text(status),
        content_type,
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    // Overload statuses invite the client back: admission sheds (429)
    // and circuit/shutdown sheds (503) clear on the order of the
    // breaker cooldown, so a one-second backoff hint is honest.
    if status == 429 || status == 503 {
        response.push_str("Retry-After: 1\r\n");
    }
    if let Some(id) = trace_id {
        response.push_str("x-snn-trace-id: ");
        response.push_str(id);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    response
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

    #[test]
    fn healthz_status_matrix_separates_degraded_from_unserving() {
        let info = || ModelRegistry::new(snapshot(11), "demo").unwrap().info();
        use CircuitState::{Closed, Open};
        // (circuits, fast_burn, brownout) → (http, status, mode)
        type Case = (&'static [CircuitState], bool, bool, u16, &'static str, &'static str);
        let cases: [Case; 6] = [
            (&[Closed, Closed], false, false, 200, "ok", "none"),
            // One of two replicas down: degraded but still serving.
            (&[Open, Closed], false, false, 200, "degraded", "none"),
            // Every replica's breaker open: nothing can be served.
            (&[Open, Open], false, false, 503, "degraded", "none"),
            // Unmitigated fast burn: erroring fast, stop routing here.
            (&[Closed, Closed], true, false, 503, "degraded", "none"),
            // Brownout engaged: degraded by choice, still has capacity.
            (&[Closed, Closed], true, true, 200, "degraded", "brownout"),
            // Burn cleared but the hysteresis hold keeps brownout on.
            (&[Closed, Closed], false, true, 200, "degraded", "brownout"),
        ];
        for (circuits, burn, brownout, want_http, want_status, want_mode) in cases {
            let (http, body) = healthz_body(info(), circuits, burn, brownout);
            assert_eq!(http, want_http, "case {circuits:?}/{burn}/{brownout}: {body}");
            assert!(
                body.contains(&format!("\"status\":\"{want_status}\"")),
                "case {circuits:?}/{burn}/{brownout}: {body}"
            );
            assert!(
                body.contains(&format!("\"degraded_mode\":\"{want_mode}\"")),
                "case {circuits:?}/{burn}/{brownout}: {body}"
            );
        }
    }}
