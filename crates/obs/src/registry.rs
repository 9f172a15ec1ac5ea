//! Named instrument registries and text/JSON exposition.
//!
//! A [`Registry`] maps instrument names to shared handles. The map
//! itself sits behind a mutex, but that lock is only taken at
//! registration and exposition time: callers register once (usually
//! into a `OnceLock` or a struct field) and then record through the
//! returned `Arc` handle with no locking at all.
//!
//! There is one process-wide [`global`] registry — where the kernel
//! spans and training-loop instruments live — and components that
//! need isolation (each `snn-serve` server instance, tests) create
//! their own local `Registry` and merge its exposition with the
//! global one.
//!
//! # Naming convention
//!
//! `snn_<crate>_<name>_<unit>`, e.g. `snn_serve_request_latency_seconds`,
//! `snn_tensor_conv2d_input_density_ratio`,
//! `snn_serve_requests_received_total` (counters end in `_total`).
//! Span histograms are automatically named `snn_span_<span>_seconds`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use serde::Value;

use crate::instrument::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A shared handle to any instrument kind.
#[derive(Debug, Clone)]
pub enum Instrument {
    /// A monotonic counter.
    Counter(Arc<Counter>),
    /// An up/down gauge.
    Gauge(Arc<Gauge>),
    /// A fixed-bucket histogram.
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    help: String,
    instrument: Instrument,
}

/// A named collection of instruments.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter named `name`, registering it with `help`
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different
    /// instrument kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        match self.get_or_insert(name, help, || Instrument::Counter(Arc::new(Counter::new())))
        {
            Instrument::Counter(c) => c,
            other => panic!("instrument `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge named `name`, registering it with `help` on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different
    /// instrument kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, help, || Instrument::Gauge(Arc::new(Gauge::new()))) {
            Instrument::Gauge(g) => g,
            other => panic!("instrument `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram named `name`, registering it with `help`
    /// and `bounds` on first use (later calls reuse the original
    /// bounds).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different
    /// instrument kind, or if `bounds` are invalid (see
    /// [`Histogram::new`]).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        match self
            .get_or_insert(name, help, || Instrument::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Instrument::Histogram(h) => h,
            other => panic!("instrument `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut entries = self.entries.lock().expect("registry lock poisoned");
        entries
            .entry(name.to_string())
            .or_insert_with(|| Entry { help: help.to_string(), instrument: make() })
            .instrument
            .clone()
    }

    /// Looks up an already-registered instrument by name.
    pub fn get(&self, name: &str) -> Option<Instrument> {
        let entries = self.entries.lock().expect("registry lock poisoned");
        entries.get(name).map(|e| e.instrument.clone())
    }

    /// Snapshots every histogram, in name order.
    pub fn histogram_snapshots(&self) -> Vec<HistogramSnapshot> {
        let entries = self.entries.lock().expect("registry lock poisoned");
        entries
            .iter()
            .filter_map(|(name, e)| match &e.instrument {
                Instrument::Histogram(h) => Some(h.snapshot(name)),
                _ => None,
            })
            .collect()
    }

    /// Every counter's current value, in name order (labeled series
    /// under their full `family{label="…"}` name).
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let entries = self.entries.lock().expect("registry lock poisoned");
        entries
            .iter()
            .filter_map(|(name, e)| match &e.instrument {
                Instrument::Counter(c) => Some((name.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Renders every instrument in Prometheus text exposition format:
    /// `# HELP`/`# TYPE` per family, `_bucket{le="…"}`/`_sum`/`_count`
    /// series for histograms, and a trailing newline.
    ///
    /// An instrument registered with a label block in its name
    /// (`snn_pool_replica_queue_depth{replica="0"}`) renders as one
    /// labeled *series* of the brace-less *family*: `# HELP`/`# TYPE`
    /// are emitted once per family (the `BTreeMap` keeps same-family
    /// series adjacent, and a seen-set guards re-declaration either
    /// way), and histogram series carry the labels alongside `le`
    /// (`family_bucket{replica="0",le="…"}`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut declared: Vec<String> = Vec::new();
        let entries = self.entries.lock().expect("registry lock poisoned");
        for (name, e) in entries.iter() {
            render_one(&mut out, name, &e.help, &e.instrument, &mut declared);
        }
        out
    }

    /// Structured JSON snapshot of every instrument, one
    /// [`serde::Value`] object each, in name order.
    pub fn snapshot_values(&self) -> Vec<Value> {
        let entries = self.entries.lock().expect("registry lock poisoned");
        entries
            .iter()
            .map(|(name, e)| {
                let mut fields = vec![
                    ("name".to_string(), Value::String(name.clone())),
                    ("kind".to_string(), Value::String(e.instrument.kind().into())),
                    ("help".to_string(), Value::String(e.help.clone())),
                ];
                match &e.instrument {
                    Instrument::Counter(c) => {
                        fields.push(("value".into(), Value::Number(c.get() as f64)));
                    }
                    Instrument::Gauge(g) => {
                        fields.push(("value".into(), Value::Number(g.get())));
                    }
                    Instrument::Histogram(h) => {
                        use serde::Serialize;
                        let snap = h.snapshot(name);
                        if let Value::Object(snap_fields) = snap.to_value() {
                            // Skip the duplicate `name` field.
                            fields.extend(snap_fields.into_iter().filter(|(k, _)| k != "name"));
                        }
                    }
                }
                Value::Object(fields)
            })
            .collect()
    }
}

/// Splits a registered name into its brace-less family and an
/// optional `key="value",…` label payload (the text between the
/// braces). Names without a `{` are a family with no labels.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((family, rest)) => (family, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

/// Writes one instrument series in Prometheus text format, declaring
/// its family's `# HELP`/`# TYPE` on first encounter.
fn render_one(
    out: &mut String,
    name: &str,
    help: &str,
    instrument: &Instrument,
    declared: &mut Vec<String>,
) {
    use std::fmt::Write;
    let (family, labels) = split_labels(name);
    if !declared.iter().any(|f| f == family) {
        let _ = writeln!(out, "# HELP {family} {help}");
        let _ = writeln!(out, "# TYPE {family} {}", instrument.kind());
        declared.push(family.to_string());
    }
    match instrument {
        Instrument::Counter(c) => {
            let _ = writeln!(out, "{name} {}", c.get());
        }
        Instrument::Gauge(g) => {
            let _ = writeln!(out, "{name} {}", fmt_f64(g.get()));
        }
        Instrument::Histogram(h) => {
            let snap = h.snapshot(name);
            // Histogram series interleave `le` with any series labels:
            // `family_bucket{replica="0",le="0.1"}`.
            let le_prefix = match labels {
                Some(l) => format!("{l},"),
                None => String::new(),
            };
            let plain = match labels {
                Some(l) => format!("{{{l}}}"),
                None => String::new(),
            };
            let mut cum = 0u64;
            for (bound, count) in snap.bounds.iter().zip(&snap.counts) {
                cum += count;
                let _ = writeln!(
                    out,
                    "{family}_bucket{{{le_prefix}le=\"{}\"}} {cum}",
                    fmt_f64(*bound)
                );
            }
            cum += snap.counts.last().copied().unwrap_or(0);
            let _ = writeln!(out, "{family}_bucket{{{le_prefix}le=\"+Inf\"}} {cum}");
            let _ = writeln!(out, "{family}_sum{plain} {}", fmt_f64(snap.sum));
            let _ = writeln!(out, "{family}_count{plain} {}", snap.count);
        }
    }
}

/// Shortest-roundtrip float formatting (Rust's default `Display`
/// already is; this exists to keep the exposition call sites tidy and
/// to pin NaN/Inf spellings to the Prometheus ones).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// The process-wide registry: kernel spans, training-loop
/// instruments, and anything else not tied to a single component
/// instance.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_instrument() {
        let r = Registry::new();
        let a = r.counter("snn_test_events_total", "events");
        let b = r.counter("snn_test_events_total", "events");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(matches!(r.get("snn_test_events_total"), Some(Instrument::Counter(_))));
        assert!(r.get("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("snn_test_x_total", "x");
        r.gauge("snn_test_x_total", "x");
    }

    #[test]
    fn prometheus_rendering_is_parseable() {
        let r = Registry::new();
        r.counter("snn_test_requests_total", "requests served").add(7);
        r.gauge("snn_test_depth", "queue depth").set(3.0);
        let h = r.histogram("snn_test_latency_seconds", "latency", &[0.1, 1.0]);
        h.record(0.05);
        h.record(0.5);
        h.record(99.0);
        let text = r.render_prometheus();
        assert!(text.ends_with('\n'), "exposition must end with a newline");
        for needle in [
            "# HELP snn_test_requests_total requests served\n",
            "# TYPE snn_test_requests_total counter\n",
            "snn_test_requests_total 7\n",
            "# TYPE snn_test_depth gauge\n",
            "snn_test_depth 3\n",
            "# TYPE snn_test_latency_seconds histogram\n",
            "snn_test_latency_seconds_bucket{le=\"0.1\"} 1\n",
            "snn_test_latency_seconds_bucket{le=\"1\"} 2\n",
            "snn_test_latency_seconds_bucket{le=\"+Inf\"} 3\n",
            "snn_test_latency_seconds_count 3\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Every non-comment line is `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (name, value) = (parts.next().unwrap(), parts.next().unwrap());
            assert!(parts.next().is_none(), "extra token on {line:?}");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value on {line:?}");
        }
    }

    #[test]
    fn labeled_series_share_one_family_declaration() {
        let r = Registry::new();
        r.gauge("snn_test_replica_depth{replica=\"0\"}", "per-replica depth").set(2.0);
        r.gauge("snn_test_replica_depth{replica=\"1\"}", "per-replica depth").set(5.0);
        let h = r.histogram("snn_test_replica_wait_seconds{replica=\"0\"}", "wait", &[0.1]);
        h.record(0.05);
        let text = r.render_prometheus();
        assert_eq!(
            text.matches("# TYPE snn_test_replica_depth gauge").count(),
            1,
            "one TYPE line per family, not per series:\n{text}"
        );
        for needle in [
            "snn_test_replica_depth{replica=\"0\"} 2\n",
            "snn_test_replica_depth{replica=\"1\"} 5\n",
            "# TYPE snn_test_replica_wait_seconds histogram\n",
            "snn_test_replica_wait_seconds_bucket{replica=\"0\",le=\"0.1\"} 1\n",
            "snn_test_replica_wait_seconds_bucket{replica=\"0\",le=\"+Inf\"} 1\n",
            "snn_test_replica_wait_seconds_count{replica=\"0\"} 1\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn json_snapshot_has_histogram_quantiles() {
        let r = Registry::new();
        let h = r.histogram("snn_test_h_seconds", "h", &[1.0, 2.0]);
        h.record(0.5);
        let items = r.snapshot_values();
        assert_eq!(items.len(), 1);
        let fields = items[0].as_object().expect("object");
        let get = |k: &str| {
            fields
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing field {k}"))
        };
        assert_eq!(get("kind"), Value::String("histogram".into()));
        assert_eq!(get("count"), Value::Number(1.0));
        // The bucket interpolation (1.0) is clamped to the one sample.
        assert_eq!(get("p50"), Value::Number(0.5));
    }
}
