//! # snn-serve
//!
//! The deployment half of the workspace: everything downstream of a
//! trained [`snn_core::NetworkSnapshot`]. The DATE'24 paper's claim
//! is that sparsity bought at training time (via `beta`/`theta` and
//! the surrogate) pays off at *inference* time; this crate is where
//! that payoff becomes end-to-end request latency and throughput.
//!
//! The layers, composed bottom-up:
//!
//! * [`engine`] — [`InferenceEngine`]: forward-only execution of a
//!   served model, an f32 snapshot or an INT8 artifact. No BPTT
//!   caches, per-engine scratch reuse, and per-request spike counters
//!   so every response reports its own sparsity. The registry's
//!   artifact dtype decides which network the engine runs; every
//!   `/infer` response names the dtype that answered.
//! * [`queue`] — [`Batcher`]: a dynamic micro-batching queue.
//!   Requests accumulate up to `max_batch` or `max_wait` and run as
//!   one batched forward pass (on a single-core host the throughput
//!   win comes from batching, not threads). The queue is bounded:
//!   over-capacity submissions are rejected immediately with a typed
//!   [`Rejection`], and requests whose deadline lapses while queued
//!   are shed at dispatch instead of wasting a forward pass.
//! * [`registry`] — [`ModelRegistry`]: the serving snapshot behind an
//!   `Arc` swap, so `/reload` replaces the model atomically while
//!   requests are in flight.
//! * [`breaker`] — [`CircuitBreaker`]: worker panics are caught and
//!   the worker restarts (pending requests get a typed rejection,
//!   never a hang); repeated failures open the circuit, shedding load
//!   until a half-open probe succeeds. `/healthz` reports `degraded`
//!   while the circuit is not closed.
//! * [`http`] — the HTTP/1.1 protocol surface as pure functions:
//!   head framing ([`http::parse_head`]), `/infer` body decoding
//!   ([`http::parse_infer_body`]), the route body builders
//!   ([`http::infer_success_body`], [`http::healthz_body`],
//!   [`http::apply_reload`], …) and [`http::format_response`]. The
//!   one server that speaks it is `snn-pool`'s epoll front end
//!   (`snn_pool::PoolServer`), which `snn serve` runs at every
//!   replica count, one replica included.
//!
//! ## Observability
//!
//! Every request is minted a [`snn_obs::TraceContext`] at accept and
//! answers with an `x-snn-trace-id` header; the context travels by
//! value through the [`Batcher`] into the worker, so spans and
//! structured log records down to kernel dispatch attach to the
//! owning request. `POST` routes record five-stage timelines
//! (`parse`/`queue_wait`/`batch_form`/`forward`/`respond`) into a
//! tail-sampled [`snn_obs::TraceRing`] served from `/debug/traces`,
//! and `SNN_SLO` objectives turn request outcomes into multi-window
//! burn-rate gauges (`snn_slo_*`) that flip `/healthz` to `degraded`
//! on a fast burn. See `DESIGN.md` §14.
//!
//! ## Example: in-process serving
//!
//! ```
//! use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
//! use snn_serve::{Batcher, BatcherConfig, Metrics, ModelRegistry};
//! use snn_tensor::Shape;
//! use std::sync::Arc;
//!
//! let net = SpikingNetwork::builder(Shape::d3(1, 8, 8), 7)
//!     .conv(4, 3, 1, 1, LifConfig { theta: 0.5, ..LifConfig::paper_default() })?
//!     .maxpool(2)?
//!     .flatten()?
//!     .dense(4, LifConfig { theta: 0.5, ..LifConfig::paper_default() })?
//!     .build()?;
//! let registry =
//!     Arc::new(ModelRegistry::new(NetworkSnapshot::from_network(&net), "demo").unwrap());
//! let metrics = Arc::new(Metrics::default());
//! let batcher =
//!     Batcher::start(registry, BatcherConfig::default(), metrics, None).unwrap();
//! let ticket = batcher.submit(vec![1.0; 64], None).unwrap();
//! let reply = ticket.wait().unwrap();
//! assert_eq!(reply.output.counts.len(), 4);
//! assert!(!reply.output.layers.is_empty(), "response carries per-layer rates");
//! # Ok::<(), snn_core::BuildNetworkError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod breaker;
pub mod engine;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod registry;

pub use admission::{AdmissionConfig, AimdController, Brownout};
pub use breaker::{CircuitBreaker, CircuitState};
pub use engine::{AnyEngine, InferenceEngine, LayerFiring, RequestOutput};
pub use http::{
    apply_reload, content_type_error, error_body, find_head_end, format_response, healthz_body,
    infer_success_body, parse_head, parse_infer_body, rejection_status, trace_get_response,
    traces_list_response, RequestHead, ServeError, ENGINE_GRACE, IDLE_TIMEOUT, MAX_BODY,
    MAX_HEAD,
};
pub use metrics::Metrics;
pub use queue::{Batcher, BatcherConfig, Doorbell, InferReply, Rejection, Ticket};
pub use registry::{ModelInfo, ModelRegistry, QuantInfo, ServedModel, SwapError, SwapReceipt};
