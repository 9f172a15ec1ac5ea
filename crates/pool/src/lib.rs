//! # snn-pool
//!
//! Scale-out serving: N replicated inference engines behind a
//! nonblocking, event-driven HTTP front end, plus the open-loop load
//! generator that measures what the arrangement is worth.
//!
//! The paper's deployment argument — hardware-aware SNN tuning pays
//! off at serving time — runs through sustained-load behavior. This
//! crate is the one HTTP server `snn serve` runs, at every replica
//! count: no thread per connection (one readiness loop multiplexes
//! every socket) and no single-engine ceiling (N replicas, one by
//! default):
//!
//! * [`epoll`] — hand-rolled, hermetic epoll bindings (the only
//!   `unsafe` in the workspace, confined to four FFI declarations
//!   against the C library `std` already links).
//! * [`server`] — [`PoolServer`]: a single-threaded readiness loop
//!   multiplexing every connection through nonblocking accept/read/
//!   write state machines. The protocol itself is `snn-serve`'s pure
//!   parsers and response builders (`snn_serve::http`).
//! * [`pool`] — [`ReplicaPool`]: N [`snn_serve::Batcher`] replicas
//!   (each its own engine, bounded queue, and circuit breaker) behind
//!   a power-of-two-choices router with breaker-aware fallback and
//!   re-route. All replicas share one [`snn_serve::ModelRegistry`], so
//!   `/reload` retargets every replica atomically at its next batch
//!   boundary. A supervisor closes the self-healing loop: repeated
//!   breaker trips quarantine a replica (never the last serving one),
//!   rebuild its engine from the registry, probe it with a synthetic
//!   inference, and re-admit it
//!   (`snn_pool_quarantine_{state,total,readmitted_total}`).
//! * [`router`] — the routing decision as a pure, proptested function.
//! * [`loadgen`] — open-loop (Poisson) load generation with traffic
//!   mixes, warmup/measure windows, a bounded client retry budget
//!   (transport/5xx only — never `429` sheds), and SLO capacity
//!   sweeps feeding the BENCH_serve schema-v7 `capacity` section.
//!
//! Under overload the front end sheds at admission (AIMD queue-depth
//! limit, `429` + `Retry-After`), and on SIGTERM it drains gracefully:
//! stop accepting, finish in-flight requests within the drain
//! deadline, exit 0.
//!
//! Observability: each server keeps one instrument registry (the
//! shared [`snn_serve::Metrics::registry`]). The pool registers its
//! per-replica queue depth, breaker state, routed counts and stage
//! histograms there as `snn_pool_*{replica="i"}` labeled series, next
//! to its router, quarantine and connection series and the serve-side
//! instruments, so `/metrics` and `/metrics.json` render one set.

#![warn(missing_docs)]

pub mod epoll;
pub mod loadgen;
pub mod pool;
pub mod router;
pub mod server;

pub use loadgen::{
    capacity_sweep, CapacityPoint, CapacityReport, LatencySummary, LoadgenConfig, LoadgenReport,
    ReplicaUtilization, RouterCounts, SloSpec,
};
pub use pool::ReplicaPool;
pub use router::{choose, Decision};
pub use server::{PoolServer, PoolServerConfig};
