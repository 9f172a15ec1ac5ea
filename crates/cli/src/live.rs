//! `snn tail` and `snn top`: live views over a running server's
//! observability surfaces.
//!
//! * `tail` follows either the structured event log (`--log FILE`,
//!   the file `SNN_LOG=level:FILE` writes) or a server's recent
//!   request traces (`--addr`, polling `GET /debug/traces`), with
//!   `--min-ms` / `--route` / `--engine` filters.
//! * `top` polls `GET /metrics.json` and prints a per-stage latency
//!   table (p50/p95/p99 for `parse`..`respond`) plus the headline
//!   counters — a terminal answer to "where is the time going right
//!   now?".
//!
//! Both are plain std: one blocking HTTP GET per poll, no TUI. They
//! loop until interrupted; `--once` takes a single sample and exits
//! (what the CLI tests and ci.sh use).

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use serde::Value;

use crate::args::Args;

/// The five serve stages, in execution order.
const STAGES: [&str; 5] = ["parse", "queue_wait", "batch_form", "forward", "respond"];

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

fn parse_addr(args: &Args) -> Result<SocketAddr, String> {
    let addr = args.require("addr")?;
    addr.parse().map_err(|_| format!("flag --addr: cannot parse `{addr}` as host:port"))
}

/// One-shot HTTP request (`Connection: close`) with a hard 10s client
/// timeout, so a wedged server turns into an error instead of a hang.
/// Returns the status and body.
pub fn http_once(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: snn\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).map_err(|e| e.to_string())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).map_err(|e| format!("no reply within 10s: {e}"))?;
    let text = String::from_utf8_lossy(&response).to_string();
    let (head, rest) = text.split_once("\r\n\r\n").ok_or("truncated response")?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    Ok((status, rest.to_string()))
}

/// `snn tail`: follow the event log or a server's recent traces.
pub fn cmd_tail(args: &Args) -> Result<(), String> {
    match (args.opt("log"), args.has("addr")) {
        (Some(path), false) => tail_log(path, args),
        (None, true) => tail_traces(args),
        (Some(_), true) => Err("pass either --log FILE or --addr HOST:PORT, not both".into()),
        (None, false) => Err("tail needs --log FILE or --addr HOST:PORT".into()),
    }
}

/// Follows a structured JSONL event log (the `SNN_LOG=level:FILE`
/// sink), printing records as they land. Malformed lines are
/// surfaced, not skipped — a corrupt log is a bug worth seeing.
fn tail_log(path: &str, args: &Args) -> Result<(), String> {
    let once = args.has("once");
    let mut offset = 0usize;
    loop {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read `{path}`: {e}"))?;
        for line in text[offset..].lines() {
            if line.is_empty() {
                continue;
            }
            match serde_json::parse(line) {
                Ok(rec) => {
                    let level = get_str(&rec, "level").unwrap_or("?");
                    let msg = get_str(&rec, "msg").unwrap_or("?");
                    let ts = get_num(&rec, "ts").unwrap_or(0.0);
                    let trace = get_str(&rec, "trace").map(|t| format!(" trace={t}")).unwrap_or_default();
                    let extras: Vec<String> = rec
                        .as_object()
                        .map(|fields| {
                            fields
                                .iter()
                                .filter(|(k, _)| !matches!(k.as_str(), "ts" | "level" | "msg" | "trace"))
                                .map(|(k, v)| format!("{k}={}", serde_json::to_string(v).unwrap_or_default()))
                                .collect()
                        })
                        .unwrap_or_default();
                    println!("{ts:.3} {level:<5} {msg}{trace} {}", extras.join(" "));
                }
                Err(e) => println!("?????  unparseable line ({e:?}): {line}"),
            }
        }
        offset = text.len();
        if once {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(250));
    }
}

/// Polls `GET /debug/traces` and prints traces not seen before,
/// oldest first, applying the filters.
fn tail_traces(args: &Args) -> Result<(), String> {
    let addr = parse_addr(args)?;
    let once = args.has("once");
    let min_ms: f64 = args.get_parsed("min-ms", 0.0)?;
    let route = args.opt("route");
    let engine = args.opt("engine");
    let limit: usize = args.get_parsed("n", 32)?;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut first_poll = true;
    loop {
        let body = match http_once(addr, "GET", "/debug/traces", "")? {
            (200, body) => body,
            (status, body) => return Err(format!("GET /debug/traces answered {status}: {body}")),
        };
        let parsed = serde_json::parse(&body).map_err(|e| format!("bad /debug/traces JSON: {e:?}"))?;
        let Some(Value::Array(traces)) = get(&parsed, "traces") else {
            return Err(format!("no `traces` array in /debug/traces body: {body}"));
        };
        if first_poll {
            let kept = get_num(&parsed, "kept").unwrap_or(0.0);
            let sampled_out = get_num(&parsed, "sampled_out").unwrap_or(0.0);
            let capacity = get_num(&parsed, "capacity").unwrap_or(0.0);
            println!(
                "ring: capacity {capacity}, {kept} kept, {sampled_out} sampled out (tail policy)"
            );
            first_poll = false;
        }
        // The listing is newest-first; print chronologically.
        let mut fresh: Vec<&Value> = traces
            .iter()
            .filter(|t| {
                let id = get_str(t, "trace_id").unwrap_or("");
                !seen.contains(id)
                    && get_num(t, "total_us").unwrap_or(0.0) >= min_ms * 1000.0
                    && route.is_none_or(|r| get_str(t, "route") == Some(r))
                    && engine.is_none_or(|e| get_str(t, "engine") == Some(e))
            })
            .take(limit)
            .collect();
        fresh.reverse();
        for t in fresh {
            seen.insert(get_str(t, "trace_id").unwrap_or("").to_string());
            println!("{}", format_trace_line(t));
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(500));
    }
}

/// One trace as a single aligned line:
/// `<unix_ms> <id> <status> <outcome> <route> <engine> <total> <stages…>`.
fn format_trace_line(t: &Value) -> String {
    let stages = match get(t, "stages") {
        Some(Value::Array(stages)) => stages
            .iter()
            .map(|s| {
                format!(
                    "{}={:.1}ms",
                    get_str(s, "stage").unwrap_or("?"),
                    get_num(s, "micros").unwrap_or(0.0) / 1000.0
                )
            })
            .collect::<Vec<_>>()
            .join(" "),
        _ => String::new(),
    };
    format!(
        "{:>13} {} {:>3} {:<12} {:<7} {:<4} {:>9.1}ms  {}",
        get_num(t, "unix_ms").unwrap_or(0.0),
        get_str(t, "trace_id").unwrap_or("?"),
        get_num(t, "status").unwrap_or(0.0),
        get_str(t, "outcome").unwrap_or("?"),
        get_str(t, "route").unwrap_or("?"),
        get_str(t, "engine").unwrap_or("-"),
        get_num(t, "total_us").unwrap_or(0.0) / 1000.0,
        stages
    )
}

/// `snn top`: live per-stage latency percentiles from `/metrics.json`.
pub fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = parse_addr(args)?;
    let once = args.has("once");
    let interval_ms: u64 = args.get_parsed("interval-ms", 1000)?;
    loop {
        let body = match http_once(addr, "GET", "/metrics.json", "")? {
            (200, body) => body,
            (status, body) => return Err(format!("GET /metrics.json answered {status}: {body}")),
        };
        let parsed =
            serde_json::parse(&body).map_err(|e| format!("bad /metrics.json JSON: {e:?}"))?;
        print!("{}", render_top(&parsed)?);
        if once {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
        println!();
    }
}

/// Renders one `top` frame from a parsed `/metrics.json` body.
fn render_top(parsed: &Value) -> Result<String, String> {
    use std::fmt::Write;
    let model = get(parsed, "model").ok_or("no `model` in /metrics.json")?;
    let Some(Value::Array(instruments)) = get(parsed, "instruments") else {
        return Err("no `instruments` array in /metrics.json".into());
    };
    let value = |name: &str| {
        instruments
            .iter()
            .find(|i| get_str(i, "name") == Some(name))
            .and_then(|i| get_num(i, "value"))
            .unwrap_or(0.0)
    };
    let batches = value("snn_serve_batches_total");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model {} v{}  received {}  completed {}  queue depth {}  mean batch {:.2}",
        get_str(model, "name").unwrap_or("?"),
        get_num(model, "version").unwrap_or(0.0),
        value("snn_serve_requests_received_total"),
        value("snn_serve_requests_completed_total"),
        value("snn_serve_queue_depth"),
        if batches > 0.0 { value("snn_serve_batched_items_total") / batches } else { 0.0 },
    );
    let _ = writeln!(out, "{:<12} {:>9} {:>9} {:>9} {:>9} {:>8}", "stage", "p50", "p95", "p99", "max", "count");
    for stage in STAGES {
        let name = format!("snn_serve_stage_{stage}_seconds");
        let inst = instruments
            .iter()
            .find(|i| get_str(i, "name") == Some(name.as_str()))
            .ok_or_else(|| format!("`{name}` missing from /metrics.json instruments"))?;
        let ms = |k: &str| get_num(inst, k).unwrap_or(0.0) * 1000.0;
        let _ = writeln!(
            out,
            "{:<12} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>8}",
            stage,
            ms("p50"),
            ms("p95"),
            ms("p99"),
            ms("max"),
            get_num(inst, "count").unwrap_or(0.0),
        );
    }
    // End-to-end for context under the stage rows.
    if let Some(lat) = instruments
        .iter()
        .find(|i| get_str(i, "name") == Some("snn_serve_request_latency_seconds"))
    {
        let ms = |k: &str| get_num(lat, k).unwrap_or(0.0) * 1000.0;
        let _ = writeln!(
            out,
            "{:<12} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>8}",
            "end-to-end",
            ms("p50"),
            ms("p95"),
            ms("p99"),
            ms("max"),
            get_num(lat, "count").unwrap_or(0.0),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_line_formats_stages() {
        let t = serde_json::parse(
            r#"{"trace_id":"00000000000000000000000000000009","span_id":"0000000000000009",
                "unix_ms":1700000000000,"route":"/infer","engine":"f32","status":200,
                "outcome":"ok","batch_size":2,"model_version":1,"total_us":12345,
                "stages":[{"stage":"parse","micros":100},{"stage":"forward","micros":12245}]}"#,
        )
        .unwrap();
        let line = format_trace_line(&t);
        assert!(line.contains("00000000000000000000000000000009"), "{line}");
        assert!(line.contains("ok"), "{line}");
        assert!(line.contains("parse=0.1ms"), "{line}");
        assert!(line.contains("12.3ms"), "{line}");
    }

    #[test]
    fn top_renders_all_stages_or_reports_what_is_missing() {
        // A minimal but complete instruments dump: all five stages
        // plus the end-to-end histogram.
        let mk = |name: &str| {
            format!(
                r#"{{"name":"{name}","kind":"histogram","help":"h","bounds":[0.001],"counts":[1,0],
                     "count":1,"sum":0.0005,"max":0.0005,"p50":0.0005,"p95":0.0005,"p99":0.0005}}"#
            )
        };
        let counter = |name: &str, value: u64| {
            format!(r#"{{"name":"{name}","kind":"counter","help":"c","value":{value}}}"#)
        };
        let instruments: Vec<String> = STAGES
            .iter()
            .map(|s| mk(&format!("snn_serve_stage_{s}_seconds")))
            .chain([mk("snn_serve_request_latency_seconds")])
            .chain([
                counter("snn_serve_requests_received_total", 3),
                counter("snn_serve_requests_completed_total", 3),
                counter("snn_serve_batches_total", 2),
                counter("snn_serve_batched_items_total", 3),
            ])
            .collect();
        let body = format!(
            r#"{{"model":{{"name":"demo","version":1}},"instruments":[{}]}}"#,
            instruments.join(",")
        );
        let parsed = serde_json::parse(&body).unwrap();
        let frame = render_top(&parsed).unwrap();
        for needle in [
            "stage", "parse", "queue_wait", "batch_form", "forward", "respond", "end-to-end",
            "model demo v1", "received 3", "completed 3", "mean batch 1.50",
        ] {
            assert!(frame.contains(needle), "missing {needle} in:\n{frame}");
        }

        // A dump with a stage histogram missing names the gap.
        let body = r#"{"model":{"name":"demo"},"instruments":[]}"#;
        let err = render_top(&serde_json::parse(body).unwrap()).unwrap_err();
        assert!(err.contains("snn_serve_stage_parse_seconds"), "{err}");
    }
}
