//! RAII wall-time spans and the profiling span-tree aggregate.
//!
//! A span measures one region of code. On drop it always records its
//! duration into a histogram in the [`crate::global`] registry
//! (`snn_span_<name>_seconds`), and additionally:
//!
//! * emits a Chrome trace event when `SNN_TRACE` is set
//!   ([`crate::trace`]);
//! * folds into the process-wide span tree when profiling is enabled
//!   ([`enable_profiling`]) — the data behind `snn profile`.
//!
//! Spans nest through a thread-local stack, so the aggregate is keyed
//! by call *path* (`fit/epoch/forward_seq/conv2d_fwd`), not just span
//! name. Use the [`crate::span!`] macro rather than constructing
//! guards by hand; it caches the histogram handle per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::instrument::Histogram;
use crate::registry::global;
use crate::trace;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

static PROFILING: AtomicBool = AtomicBool::new(false);

fn profile_map() -> &'static Mutex<BTreeMap<String, NodeStats>> {
    static MAP: OnceLock<Mutex<BTreeMap<String, NodeStats>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStats {
    /// Times the span closed on this path.
    pub calls: u64,
    /// Total wall time spent, nanoseconds.
    pub total_ns: u128,
}

/// Turns span-tree aggregation on or off process-wide. Enabling
/// clears any previously collected tree.
pub fn enable_profiling(on: bool) {
    if on {
        profile_map().lock().expect("profile lock poisoned").clear();
    }
    PROFILING.store(on, Ordering::Relaxed);
}

/// Whether span-tree aggregation is active.
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// The collected span tree as `(path, stats)` rows in path order.
/// Paths are `/`-joined span names from the outermost enclosing span
/// down.
pub fn profile_rows() -> Vec<(String, NodeStats)> {
    let map = profile_map().lock().expect("profile lock poisoned");
    map.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Renders the span tree as an indented text table: wall time, call
/// count, and the share of the parent's time not covered by child
/// spans (`self`).
pub fn render_profile() -> String {
    use std::fmt::Write;
    let rows = profile_rows();
    if rows.is_empty() {
        return "no spans recorded (is the workload instrumented?)\n".to_string();
    }
    // Direct-children sums for self-time.
    let mut child_ns: BTreeMap<&str, u128> = BTreeMap::new();
    for (path, stats) in &rows {
        if let Some(pos) = path.rfind('/') {
            *child_ns.entry(&path[..pos]).or_default() += stats.total_ns;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{:<48} {:>12} {:>9} {:>7}", "span", "total", "calls", "self%");
    for (path, stats) in &rows {
        let depth = path.matches('/').count();
        let name = path.rsplit('/').next().unwrap_or(path);
        let label = format!("{}{}", "  ".repeat(depth), name);
        let children = child_ns.get(path.as_str()).copied().unwrap_or(0);
        let self_pct = if stats.total_ns > 0 {
            100.0 * (stats.total_ns.saturating_sub(children)) as f64 / stats.total_ns as f64
        } else {
            100.0
        };
        let _ = writeln!(
            out,
            "{label:<48} {:>12} {:>9} {:>6.1}%",
            fmt_ns(stats.total_ns),
            stats.calls,
            self_pct
        );
    }
    out
}

fn fmt_ns(ns: u128) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// An open span; closes (and records) on drop. Created by
/// [`crate::span!`].
pub struct SpanGuard {
    name: &'static str,
    args: Option<String>,
    hist: Arc<Histogram>,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span. `hist` receives the duration in seconds at
    /// close; `args` is attached to the trace event (if tracing).
    pub fn enter(name: &'static str, hist: Arc<Histogram>, args: Option<String>) -> SpanGuard {
        STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard { name, args, hist, start: Instant::now() }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.hist.record(elapsed.as_secs_f64());
        let profiling = profiling_enabled();
        let tracing = trace::trace_enabled();
        if profiling || tracing {
            if profiling {
                let path = STACK.with(|s| s.borrow().join("/"));
                let mut map = profile_map().lock().expect("profile lock poisoned");
                let node = map.entry(path).or_default();
                node.calls += 1;
                node.total_ns += elapsed.as_nanos();
            }
            if tracing {
                trace::emit_complete(
                    self.name,
                    self.start,
                    elapsed.as_secs_f64() * 1e6,
                    self.args.as_deref(),
                );
            }
        }
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.name), "span stack out of order");
        });
    }
}

/// Registers (once) and returns the global histogram backing the span
/// named `name`: `snn_span_<name>_seconds`, on the shared
/// [`crate::span_bounds`] ladder. The [`crate::span!`] macro caches
/// the returned handle in a per-call-site static.
pub fn span_histogram(name: &str) -> Arc<Histogram> {
    let hist_name = format!("snn_span_{name}_seconds");
    match global().get(&hist_name) {
        Some(crate::registry::Instrument::Histogram(h)) => h,
        _ => global().histogram(
            &hist_name,
            "wall time of one span, seconds",
            crate::span_bounds(),
        ),
    }
}

/// Opens a wall-time span for the enclosing scope; bind the result
/// (`let _span = span!("conv2d_fwd");`) so it drops at scope end.
///
/// The one-argument form takes a `&'static str` span name. The
/// two-argument form adds a runtime `String` detail (e.g. the design
/// point a sweep worker is running) that lands in the trace event's
/// `args`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        let hist = SITE.get_or_init(|| $crate::span_histogram($name));
        $crate::SpanGuard::enter($name, ::std::sync::Arc::clone(hist), ::std::option::Option::None)
    }};
    ($name:expr, $args:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        let hist = SITE.get_or_init(|| $crate::span_histogram($name));
        $crate::SpanGuard::enter(
            $name,
            ::std::sync::Arc::clone(hist),
            ::std::option::Option::Some($args),
        )
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_global_histogram() {
        {
            let _s = crate::span!("obs_test_outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let h = span_histogram("obs_test_outer");
        assert!(h.count() >= 1);
        assert!(h.sum() >= 1e-3, "recorded {}s", h.sum());
    }

    #[test]
    fn profiling_builds_nested_paths() {
        enable_profiling(true);
        {
            let _a = crate::span!("obs_test_parent");
            {
                let _b = crate::span!("obs_test_child");
            }
            {
                let _b = crate::span!("obs_test_child");
            }
        }
        enable_profiling(false);
        let rows = profile_rows();
        let find = |p: &str| {
            rows.iter()
                .find(|(path, _)| path == p)
                .map(|(_, s)| *s)
                .unwrap_or_else(|| panic!("missing path {p} in {rows:?}"))
        };
        assert_eq!(find("obs_test_parent").calls, 1);
        assert_eq!(find("obs_test_parent/obs_test_child").calls, 2);
        let text = render_profile();
        assert!(text.contains("obs_test_parent"), "{text}");
        assert!(text.contains("  obs_test_child"), "{text}");
    }

    #[test]
    fn span_args_form_compiles_and_records() {
        let before = span_histogram("obs_test_args").count();
        {
            let _s = crate::span!("obs_test_args", format!("point={}", 3));
        }
        assert_eq!(span_histogram("obs_test_args").count(), before + 1);
    }
}
