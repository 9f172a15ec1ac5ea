//! In-memory span recording for the traced run.
//!
//! A span is a named interval with an optional parent and the id of
//! the request (or batch) it belongs to. Spans are appended to a plain
//! vector while the run executes and written out once it ends, so the
//! recording cost on the measured path is two clock reads and a push.
//! A span's self time is its duration minus the time its children
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, e.g. `engine.infer_batch` or `f32.conv1`.
    pub name: String,
    /// Start, seconds since the recorder's epoch.
    pub start: f64,
    /// End, seconds since the recorder's epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request or batch id shared by every span of one operation.
    pub request: u64,
}

/// Self-time totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Sum of self times (duration minus children), seconds.
    pub self_s: f64,
}

/// Append-only span store.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Opens a span at `start`; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let start = self.secs(start);
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Sets the end of span `id`.
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end = self.secs(end);
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let id = self.open(name, start, parent, request);
        self.close(id, end);
        id
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let t = out.entry(s.name.clone()).or_default();
            let dur = s.end - s.start;
            t.count += 1;
            t.total_s += dur;
            t.self_s += dur - children;
        }
        out
    }

    /// Totals of one span name (zeros when none was recorded).
    pub fn totals_of(&self, name: &str) -> NameTotals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Writes the spans as a Chrome `trace_event` JSON document
    /// (load it in `chrome://tracing` or Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut json = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                json,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.request
            );
        }
        json.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut r = Recorder {
            epoch: t0,
            spans: Vec::new(),
        };
        let root = r.open("root", at(0), None, 7);
        r.record("child", at(10), at(40), Some(root), 7);
        r.record("child", at(50), at(60), Some(root), 7);
        r.close(root, at(100));
        let root_t = r.totals_of("root");
        assert!((root_t.total_s - 100e-6).abs() < 1e-12);
        assert!((root_t.self_s - 60e-6).abs() < 1e-12);
        let child = r.totals_of("child");
        assert_eq!(child.count, 2);
        assert!((child.self_s - 40e-6).abs() < 1e-12);
    }
}
