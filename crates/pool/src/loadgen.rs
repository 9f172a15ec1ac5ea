//! Open-loop (Poisson) load generation and SLO capacity measurement.
//!
//! Closed-loop clients (like `bench_serve`'s) hide overload: when the
//! server slows down, a closed loop offers less. The capacity question
//! the paper's deployment story asks — *what sustained request rate
//! meets the latency SLO?* — needs an **open loop**: arrivals are a
//! Poisson process at a configured rate, scheduled independently of
//! the server's responses, and latency is measured from the scheduled
//! arrival instant (so client-side queueing when the server falls
//! behind counts against it, per the coordinated-omission playbook).
//!
//! Determinism: arrival gaps and traffic-mix draws come from a seeded
//! xorshift generator, so two runs against the same server offer the
//! identical request schedule.
//!
//! [`capacity_sweep`] steps the offered rate over a grid, evaluates
//! each window against an [`SloSpec`], and reports the highest rate
//! that met the objective plus per-replica utilization and router
//! decision counters scraped from the target's `/metrics.json`.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use serde::Value;

/// Traffic shape and window configuration for one loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target `host:port`.
    pub addr: String,
    /// Offered arrival rate, requests per second.
    pub rps: f64,
    /// Warmup window; requests sent but not measured.
    pub warmup: Duration,
    /// Measurement window.
    pub duration: Duration,
    /// Concurrent keep-alive client connections (caps in-flight
    /// requests; arrivals falling behind are charged the wait).
    pub connections: usize,
    /// Flattened input length the served model expects.
    pub input_len: usize,
    /// Fraction of requests sent intentionally malformed (expect
    /// `400`), exercising the bad-input path under load.
    pub bad_fraction: f64,
    /// `timeout_ms` attached to each request body (`None` omits it,
    /// leaving the server's default deadline).
    pub timeout_ms: Option<u64>,
    /// Client-side retry budget per request: transport errors and
    /// `5xx` responses are retried up to this many times with jittered
    /// exponential backoff ([`snn_fault::Backoff`]). `429` sheds are
    /// *not* retried — hammering an admission-controlled server
    /// amplifies the overload it is shedding. Latency is always
    /// charged from the first scheduled arrival, so retries make the
    /// request slower, never invisible (no coordinated omission).
    pub retries: u32,
    /// Seed for the arrival/mix generator.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            rps: 50.0,
            warmup: Duration::from_millis(500),
            duration: Duration::from_secs(2),
            connections: 4,
            input_len: 64,
            bad_fraction: 0.0,
            timeout_ms: Some(1000),
            retries: 2,
            seed: 42,
        }
    }
}

/// Latency percentiles over the measurement window, milliseconds,
/// measured from each request's *scheduled* arrival.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
}

/// Counts and latencies from one measurement window.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests scheduled (and attempted) inside the window.
    pub offered: u64,
    /// `200` responses.
    pub completed: u64,
    /// `400` responses (the intentional bad-request mix lands here).
    pub status_400: u64,
    /// `429` queue-full rejections.
    pub status_429: u64,
    /// `5xx` responses (breaker, shutdown, deadline-grace, panic).
    pub status_5xx: u64,
    /// Other statuses (404/405/409/413…).
    pub status_other: u64,
    /// Requests that failed at the transport layer (connect/read
    /// errors, timeouts) after exhausting the retry budget.
    pub transport_errors: u64,
    /// Retry attempts spent inside the measurement window (attempts
    /// beyond each request's first). The status tallies above count
    /// each request once, by its *final* attempt's outcome.
    pub retries_total: u64,
    /// Measurement wall-clock, seconds.
    pub wall_secs: f64,
    /// Completed-response rate actually achieved.
    pub achieved_rps: f64,
    /// Latency percentiles (successful responses only).
    pub latency: LatencySummary,
}

impl LoadgenReport {
    /// Server-side failure fraction: 5xx + 429 + transport errors over
    /// all offered requests. Intentional `400`s are excluded — they
    /// neither succeed nor count against the error budget (matching
    /// the server's own SLO accounting).
    pub fn error_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.status_429 + self.status_5xx + self.transport_errors) as f64 / self.offered as f64
    }
}

/// The SLO a capacity point must meet.
#[derive(Debug, Clone, Copy)]
pub struct SloSpec {
    /// p99 latency bound, milliseconds.
    pub p99_ms: f64,
    /// Maximum tolerated server-side error fraction.
    pub max_error_rate: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec { p99_ms: 25.0, max_error_rate: 0.001 }
    }
}

/// One offered rate's outcome in a capacity sweep.
#[derive(Debug, Clone)]
pub struct CapacityPoint {
    /// Offered rate.
    pub rps: f64,
    /// Completed-response rate achieved.
    pub achieved_rps: f64,
    /// p99 latency, ms.
    pub p99_ms: f64,
    /// Server-side error fraction.
    pub error_rate: f64,
    /// Whether this point met the SLO.
    pub met_slo: bool,
    /// Retry attempts spent at this rate (schema v7) — goodput above
    /// is by final outcome, so retries show up here, not as extra
    /// completions.
    pub retries_total: u64,
}

/// Per-replica work attribution over a sweep, scraped from the
/// target's pool metrics.
#[derive(Debug, Clone)]
pub struct ReplicaUtilization {
    /// Replica index.
    pub replica: usize,
    /// Requests the router sent to it during the sweep.
    pub routed: u64,
    /// Fraction of the sweep's wall-clock spent in its engine forward
    /// passes.
    pub utilization: f64,
}

/// Router decision counters over a sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterCounts {
    /// Two-choice depth decisions.
    pub p2c: u64,
    /// Round-robin fallbacks (both samples unavailable).
    pub fallback: u64,
    /// CircuitOpen re-routes.
    pub rerouted: u64,
}

/// A full capacity sweep: the SLO, every measured point, and the
/// verdict.
#[derive(Debug, Clone)]
pub struct CapacityReport {
    /// The objective evaluated.
    pub slo: SloSpec,
    /// Highest offered rps whose point met the SLO (0 when none did).
    pub max_sustained_rps: f64,
    /// One entry per offered rate, in sweep order.
    pub points: Vec<CapacityPoint>,
    /// Per-replica attribution (empty when the target exposes no pool
    /// metrics).
    pub per_replica: Vec<ReplicaUtilization>,
    /// Router decision counters (zero when not a pool target).
    pub router: RouterCounts,
}

impl CapacityReport {
    /// The BENCH_serve schema-v7 `capacity` section.
    pub fn to_value(&self) -> Value {
        let points = self
            .points
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("rps".into(), Value::Number(p.rps)),
                    ("achieved_rps".into(), Value::Number(p.achieved_rps)),
                    ("p99_ms".into(), Value::Number(p.p99_ms)),
                    ("error_rate".into(), Value::Number(p.error_rate)),
                    ("met_slo".into(), Value::Bool(p.met_slo)),
                    ("retries_total".into(), Value::Number(p.retries_total as f64)),
                ])
            })
            .collect();
        let per_replica = self
            .per_replica
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("replica".into(), Value::Number(r.replica as f64)),
                    ("routed".into(), Value::Number(r.routed as f64)),
                    ("utilization".into(), Value::Number(r.utilization)),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "slo".into(),
                Value::Object(vec![
                    ("p99_ms".into(), Value::Number(self.slo.p99_ms)),
                    ("max_error_rate".into(), Value::Number(self.slo.max_error_rate)),
                ]),
            ),
            ("max_sustained_rps".into(), Value::Number(self.max_sustained_rps)),
            ("points".into(), Value::Array(points)),
            ("per_replica".into(), Value::Array(per_replica)),
            (
                "router".into(),
                Value::Object(vec![
                    ("p2c".into(), Value::Number(self.router.p2c as f64)),
                    ("fallback".into(), Value::Number(self.router.fallback as f64)),
                    ("rerouted".into(), Value::Number(self.router.rerouted as f64)),
                ]),
            ),
        ])
    }
}

/// xorshift64* — deterministic, dependency-free uniform generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Uniform in (0, 1].
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// The shared open-loop arrival schedule: workers pull the next
/// scheduled instant under a lock, so the global arrival process is
/// Poisson regardless of worker count.
struct Schedule {
    rng: Rng,
    next_at: Instant,
    mean_gap_secs: f64,
    end: Instant,
    bad_fraction: f64,
}

/// One pulled arrival: when it was scheduled, and whether it is a
/// deliberate bad request.
struct Arrival {
    at: Instant,
    bad: bool,
}

impl Schedule {
    fn pull(schedule: &Mutex<Schedule>) -> Option<Arrival> {
        let mut s = schedule.lock().expect("schedule lock poisoned");
        if s.next_at >= s.end {
            return None;
        }
        let at = s.next_at;
        // Exponential inter-arrival gap: -ln(U) * mean.
        let gap = -s.rng.next_unit().ln() * s.mean_gap_secs;
        s.next_at += Duration::from_secs_f64(gap.max(1e-6));
        let bad = s.rng.next_unit() < s.bad_fraction;
        Some(Arrival { at, bad })
    }
}

/// Per-worker tallies merged after the run.
#[derive(Default)]
struct WorkerTally {
    offered: u64,
    completed: u64,
    status_400: u64,
    status_429: u64,
    status_5xx: u64,
    status_other: u64,
    transport_errors: u64,
    retries: u64,
    latencies_us: Vec<u64>,
}

/// Runs one open-loop window against `cfg.addr`.
///
/// Workers share the arrival schedule; each holds one keep-alive
/// connection (re-established after transport errors). Only arrivals
/// scheduled after the warmup boundary are tallied.
pub fn run(cfg: &LoadgenConfig) -> LoadgenReport {
    let start = Instant::now();
    let measure_from = start + cfg.warmup;
    let end = start + cfg.warmup + cfg.duration;
    let schedule = Arc::new(Mutex::new(Schedule {
        rng: Rng::new(cfg.seed),
        next_at: start,
        mean_gap_secs: 1.0 / cfg.rps.max(0.001),
        end,
        bad_fraction: cfg.bad_fraction,
    }));
    let good_body = {
        let values: Vec<String> = (0..cfg.input_len).map(|i| format!("{}", (i % 3) as f64)).collect();
        match cfg.timeout_ms {
            Some(ms) => format!("{{\"input\": [{}], \"timeout_ms\": {ms}}}", values.join(", ")),
            None => format!("{{\"input\": [{}]}}", values.join(", ")),
        }
    };
    // Wrong type for `input`: parses as JSON, fails validation → 400.
    let bad_body = "{\"input\": \"not an array\"}".to_string();

    let workers: Vec<thread::JoinHandle<WorkerTally>> = (0..cfg.connections.max(1))
        .map(|worker| {
            let schedule = Arc::clone(&schedule);
            let addr = cfg.addr.clone();
            let good = good_body.clone();
            let bad = bad_body.clone();
            let retries = cfg.retries;
            // Jittered exponential backoff between retry attempts;
            // per-worker seed so workers never back off in lockstep.
            let backoff = snn_fault::Backoff::new(
                Duration::from_millis(2),
                Duration::from_millis(50),
            )
            .with_jitter(cfg.seed ^ (worker as u64).wrapping_mul(0x9e3779b97f4a7c15), 0.5);
            thread::spawn(move || {
                let mut tally = WorkerTally::default();
                let mut conn: Option<TcpStream> = None;
                while let Some(arrival) = Schedule::pull(&schedule) {
                    let now = Instant::now();
                    if arrival.at > now {
                        thread::sleep(arrival.at - now);
                    }
                    let measured = arrival.at >= measure_from;
                    if measured {
                        tally.offered += 1;
                    }
                    let body = if arrival.bad { &bad } else { &good };
                    let mut attempt = 0u32;
                    let status = loop {
                        let status = request(&mut conn, &addr, body);
                        let retryable = matches!(status, None | Some(500..));
                        if !retryable || attempt >= retries {
                            break status;
                        }
                        thread::sleep(backoff.delay(attempt as usize));
                        attempt += 1;
                        if measured {
                            tally.retries += 1;
                        }
                    };
                    if !measured {
                        continue;
                    }
                    match status {
                        Some(200) => {
                            tally.completed += 1;
                            // Charged from the *scheduled* arrival: a
                            // request that only succeeded on attempt
                            // three is slow, not absent.
                            tally.latencies_us
                                .push(arrival.at.elapsed().as_micros() as u64);
                        }
                        Some(400) => tally.status_400 += 1,
                        Some(429) => tally.status_429 += 1,
                        Some(s) if s >= 500 => tally.status_5xx += 1,
                        Some(_) => tally.status_other += 1,
                        None => tally.transport_errors += 1,
                    }
                }
                tally
            })
        })
        .collect();

    let mut merged = WorkerTally::default();
    for w in workers {
        if let Ok(t) = w.join() {
            merged.offered += t.offered;
            merged.completed += t.completed;
            merged.status_400 += t.status_400;
            merged.status_429 += t.status_429;
            merged.status_5xx += t.status_5xx;
            merged.status_other += t.status_other;
            merged.transport_errors += t.transport_errors;
            merged.retries += t.retries;
            merged.latencies_us.extend(t.latencies_us);
        }
    }
    let wall_secs = cfg.duration.as_secs_f64();
    merged.latencies_us.sort_unstable();
    let pct = |q: f64| -> f64 {
        if merged.latencies_us.is_empty() {
            return 0.0;
        }
        let idx = ((merged.latencies_us.len() as f64 - 1.0) * q).round() as usize;
        merged.latencies_us[idx] as f64 / 1000.0
    };
    LoadgenReport {
        offered: merged.offered,
        completed: merged.completed,
        status_400: merged.status_400,
        status_429: merged.status_429,
        status_5xx: merged.status_5xx,
        status_other: merged.status_other,
        transport_errors: merged.transport_errors,
        retries_total: merged.retries,
        wall_secs,
        achieved_rps: merged.completed as f64 / wall_secs.max(1e-9),
        latency: LatencySummary {
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            max_ms: merged.latencies_us.last().map_or(0.0, |&v| v as f64 / 1000.0),
        },
    }
}

/// Sends one keep-alive POST `/infer` and returns the status code
/// (`None` on any transport failure; the connection is dropped and
/// re-established next call).
fn request(conn: &mut Option<TcpStream>, addr: &str, body: &str) -> Option<u16> {
    for _retry in 0..2 {
        if conn.is_none() {
            let stream = TcpStream::connect(addr).ok()?;
            stream.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
            let _ = stream.set_nodelay(true);
            *conn = Some(stream);
        }
        let stream = conn.as_mut().expect("connection just ensured");
        let request = format!(
            "POST /infer HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if stream.write_all(request.as_bytes()).is_err() {
            // Stale keep-alive (server idled it out): reconnect once.
            *conn = None;
            continue;
        }
        match read_response(stream) {
            Some((status, close)) => {
                if close {
                    *conn = None;
                }
                return Some(status);
            }
            None => {
                *conn = None;
                // A dead read after a successful write usually means a
                // stale keep-alive; one reconnect attempt.
                continue;
            }
        }
    }
    None
}

/// Reads one HTTP/1.1 response, returning `(status,
/// connection_closed)`.
fn read_response(stream: &mut TcpStream) -> Option<(u16, bool)> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    };
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in head.split("\r\n").skip(1) {
        let Some((name, value)) = line.split_once(':') else { continue };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().ok()?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
    Some((status, close))
}

/// Fetches and parses `/metrics.json` from the target, returning the
/// `instruments` array (`None` on any failure — the sweep degrades to
/// an empty per-replica section).
fn scrape_instruments(addr: &str) -> Option<Value> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    let request =
        format!("GET /metrics.json HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).ok()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    let pos = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let body = std::str::from_utf8(&raw[pos + 4..]).ok()?;
    let value = serde_json::parse(body).ok()?;
    let Value::Object(entries) = value else { return None };
    entries.into_iter().find(|(k, _)| k == "instruments").map(|(_, v)| v)
}

/// Pool-side counters extracted from an `instruments` snapshot.
#[derive(Debug, Clone, Default)]
struct PoolStats {
    routed: Vec<(usize, u64)>,
    infer_sum: Vec<(usize, f64)>,
    router: RouterCounts,
}

fn pool_stats(instruments: &Value) -> PoolStats {
    let mut stats = PoolStats::default();
    let Value::Array(items) = instruments else { return stats };
    for item in items {
        let Value::Object(fields) = item else { continue };
        let name = fields.iter().find(|(k, _)| k == "name").and_then(|(_, v)| match v {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        });
        let Some(name) = name else { continue };
        let number = |key: &str| -> Option<f64> {
            fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
                Value::Number(n) => Some(*n),
                _ => None,
            })
        };
        let replica_of = |prefix: &str| -> Option<usize> {
            name.strip_prefix(prefix)?.strip_suffix("\"}")?.parse().ok()
        };
        if let Some(i) = replica_of("snn_pool_replica_routed_total{replica=\"") {
            if let Some(v) = number("value") {
                stats.routed.push((i, v as u64));
            }
        } else if let Some(i) = replica_of("snn_pool_replica_infer_seconds{replica=\"") {
            if let Some(v) = number("sum") {
                stats.infer_sum.push((i, v));
            }
        } else if name == "snn_pool_router_p2c_total" {
            stats.router.p2c = number("value").unwrap_or(0.0) as u64;
        } else if name == "snn_pool_router_fallback_total" {
            stats.router.fallback = number("value").unwrap_or(0.0) as u64;
        } else if name == "snn_pool_router_rerouted_total" {
            stats.router.rerouted = number("value").unwrap_or(0.0) as u64;
        }
    }
    stats
}

/// Runs `cfg` at each offered rate in `rates` and scores the points
/// against `slo`. Per-replica utilization and router counters are the
/// delta between `/metrics.json` scrapes bracketing the sweep.
pub fn capacity_sweep(cfg: &LoadgenConfig, rates: &[f64], slo: SloSpec) -> CapacityReport {
    let before = scrape_instruments(&cfg.addr).map(|v| pool_stats(&v));
    let sweep_start = Instant::now();
    let mut points = Vec::with_capacity(rates.len());
    for &rps in rates {
        let run_cfg = LoadgenConfig { rps, ..cfg.clone() };
        let report = run(&run_cfg);
        let error_rate = report.error_rate();
        points.push(CapacityPoint {
            rps,
            achieved_rps: report.achieved_rps,
            p99_ms: report.latency.p99_ms,
            error_rate,
            met_slo: report.latency.p99_ms <= slo.p99_ms && error_rate <= slo.max_error_rate,
            retries_total: report.retries_total,
        });
    }
    let sweep_secs = sweep_start.elapsed().as_secs_f64();
    let after = scrape_instruments(&cfg.addr).map(|v| pool_stats(&v));
    let (per_replica, router) = match (before, after) {
        (Some(b), Some(a)) => {
            let delta = |xs: &[(usize, u64)], i: usize| -> u64 {
                xs.iter().find(|(j, _)| *j == i).map_or(0, |(_, v)| *v)
            };
            let delta_f = |xs: &[(usize, f64)], i: usize| -> f64 {
                xs.iter().find(|(j, _)| *j == i).map_or(0.0, |(_, v)| *v)
            };
            let per_replica = a
                .routed
                .iter()
                .map(|&(i, routed_after)| ReplicaUtilization {
                    replica: i,
                    routed: routed_after.saturating_sub(delta(&b.routed, i)),
                    utilization: ((delta_f(&a.infer_sum, i) - delta_f(&b.infer_sum, i))
                        / sweep_secs.max(1e-9))
                    .max(0.0),
                })
                .collect();
            let router = RouterCounts {
                p2c: a.router.p2c.saturating_sub(b.router.p2c),
                fallback: a.router.fallback.saturating_sub(b.router.fallback),
                rerouted: a.router.rerouted.saturating_sub(b.router.rerouted),
            };
            (per_replica, router)
        }
        _ => (Vec::new(), RouterCounts::default()),
    };
    let max_sustained_rps = points
        .iter()
        .filter(|p| p.met_slo)
        .map(|p| p.rps)
        .fold(0.0, f64::max);
    CapacityReport { slo, max_sustained_rps, points, per_replica, router }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_hits_configured_rate() {
        let start = Instant::now();
        let schedule = Mutex::new(Schedule {
            rng: Rng::new(7),
            next_at: start,
            mean_gap_secs: 1.0 / 1000.0,
            end: start + Duration::from_secs(1),
            bad_fraction: 0.25,
        });
        let mut count = 0u64;
        let mut bad = 0u64;
        while let Some(a) = Schedule::pull(&schedule) {
            count += 1;
            if a.bad {
                bad += 1;
            }
        }
        // 1000 rps over 1s of schedule: Poisson(1000) stays well
        // within ±20% at this seed.
        assert!((800..1200).contains(&count), "got {count} arrivals");
        let frac = bad as f64 / count as f64;
        assert!((0.15..0.35).contains(&frac), "bad fraction {frac}");
    }

    #[test]
    fn capacity_section_shape() {
        let report = CapacityReport {
            slo: SloSpec::default(),
            max_sustained_rps: 120.0,
            points: vec![CapacityPoint {
                rps: 100.0,
                achieved_rps: 99.0,
                p99_ms: 10.0,
                error_rate: 0.0,
                met_slo: true,
                retries_total: 3,
            }],
            per_replica: vec![ReplicaUtilization { replica: 0, routed: 99, utilization: 0.4 }],
            router: RouterCounts { p2c: 99, fallback: 0, rerouted: 0 },
        };
        let text = serde_json::to_string(&report.to_value()).unwrap();
        for key in
            ["\"slo\"", "\"max_sustained_rps\"", "\"points\"", "\"per_replica\"", "\"router\"",
             "\"met_slo\"", "\"utilization\"", "\"rerouted\"", "\"retries_total\""]
        {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }

    #[test]
    fn error_rate_excludes_intentional_400s() {
        let report = LoadgenReport {
            offered: 100,
            completed: 90,
            status_400: 8,
            status_429: 1,
            status_5xx: 1,
            ..LoadgenReport::default()
        };
        assert!((report.error_rate() - 0.02).abs() < 1e-12);
    }
}
