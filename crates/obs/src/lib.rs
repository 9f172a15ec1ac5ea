//! `snn-obs` — the workspace-wide observability spine.
//!
//! One small, dependency-free (vendored `serde` only) crate that every
//! other `snn-*` crate can lean on for measurement:
//!
//! * **Instruments** ([`Counter`], [`Gauge`], [`Histogram`]) — typed,
//!   lock-free handles. Histograms have fixed bucket bounds and derive
//!   p50/p95/p99 from the bucket counts ([`Histogram::quantile`]).
//! * **Registries** ([`Registry`], [`global`]) — name → instrument
//!   maps with Prometheus text exposition
//!   ([`Registry::render_prometheus`]) and structured JSON snapshots
//!   ([`Registry::snapshot_values`]). The map lock is touched only at
//!   registration/exposition; recording is on the shared handles.
//! * **Spans** ([`span!`], [`SpanGuard`]) — RAII wall-time guards.
//!   Every span records into a `snn_span_<name>_seconds` histogram in
//!   the global registry; with `SNN_TRACE=path` set it also appends a
//!   Chrome `trace_event` line loadable in `chrome://tracing`, and
//!   with profiling enabled ([`enable_profiling`]) it folds into the
//!   call-path tree that `snn profile` prints ([`render_profile`]).
//! * **Request identity** ([`tracectx`], [`ring`]) — a per-request
//!   [`TraceContext`] propagated by value through queues and threads;
//!   completed requests land in a [`TraceRing`] with tail-based
//!   sampling, the store behind serve's `GET /debug/traces`. Spans
//!   and log records on a thread with an installed context attach
//!   its trace id automatically.
//! * **Structured logging** ([`log`], [`log_info!`] and friends) —
//!   leveled JSONL event records, `SNN_LOG=level[:path]`,
//!   rate-limited, off by default.
//! * **SLOs** ([`slo`]) — `SNN_SLO="p99=25ms,avail=99.9"` objectives
//!   with 5m/1h burn-rate windows and a fast-burn flag.
//!
//! # Naming convention
//!
//! Instruments are named `snn_<crate>_<name>_<unit>` — e.g.
//! `snn_serve_request_latency_seconds`,
//! `snn_core_train_loss` — and counters end in `_total`. See
//! [`crate::registry`] for details.
//!
//! Cross-cutting reliability counters drop the crate segment because
//! they aggregate events from every layer: `snn_fault_injected_total`
//! and `snn_recovery_total` (maintained by the `snn-fault` crate)
//! count injected faults and completed self-healing recoveries
//! process-wide, wherever they happen — store writes, the training
//! supervisor, sweep quarantine, or the serve worker.
//!
//! # Cost model
//!
//! With tracing and profiling off, a span costs two `Instant::now()`
//! calls, one histogram record (an atomic add plus two CAS loops), a
//! thread-local push/pop, and two relaxed atomic loads. That keeps
//! spans cheap enough to sit at kernel entry points (per conv/GEMM
//! call, never per element).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod instrument;
pub mod log;
mod registry;
pub mod ring;
pub mod slo;
mod span;
mod trace;
pub mod tracectx;

pub use instrument::{firing_rate_bounds, span_bounds, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{global, Instrument, Registry};
pub use ring::{StageTiming, TailPolicy, TraceRecord, TraceRing};
pub use slo::{BurnRates, SloConfig, SloTracker};
pub use span::{
    enable_profiling, profile_rows, profiling_enabled, render_profile, span_histogram, NodeStats,
    SpanGuard,
};
pub use trace::trace_enabled;
pub use tracectx::TraceContext;
