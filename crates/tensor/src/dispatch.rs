//! Sparsity-adaptive kernel dispatch.
//!
//! The event-driven kernels ([`crate::conv`]) beat their dense
//! counterparts only below a crossover input density; above it the
//! dense kernels' contiguous sweeps win. This module owns that
//! crossover: a single density threshold, resolved once, that the
//! convolution forward pass compares against the *measured*
//! per-timestep density from its [`crate::spike::SpikeTensor`] scan.
//! The decision depends only on the data and the configured
//! threshold — never on the thread count — so routing is
//! deterministic, and both routes agree bitwise anyway (see the
//! exactness notes in [`crate::linalg`] and [`crate::conv`]).
//!
//! # Threshold
//!
//! The threshold comes from, in priority order:
//! 1. [`set_event_density_threshold`] (explicit in-process
//!    configuration),
//! 2. the `SNN_EVENT_DENSITY` environment variable (read once, at the
//!    first dispatch),
//! 3. [`EVENT_DENSITY_DEFAULT`], picked from the `bench_kernels`
//!    density sweep: on the benchmark shapes the event-driven conv2d
//!    still wins at 25% density and loses by 50%.
//!
//! A negative threshold disables the event route entirely; a
//! threshold ≥ 1.0 takes it whenever the input is binary.
//!
//! # Observability
//!
//! Every routed forward publishes into the global `snn-obs` registry:
//! which route fired (`snn_tensor_conv2d_route_dense_total` /
//! `snn_tensor_conv2d_route_event_total` — the registry has no label
//! support, so the route lives in the metric name) and the active
//! threshold (`snn_tensor_dispatch_event_density_threshold_ratio`),
//! so the crossover behaviour is visible in `/metrics` next to the
//! input-density gauges.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default crossover density for the event-driven convolution route.
///
/// Measured with the `bench_kernels` density sweep on the reference
/// shapes: the event kernel is ~1.6–2× at 25% density and reaches
/// parity with the dense route near 50%.
pub const EVENT_DENSITY_DEFAULT: f32 = 0.25;

/// Sentinel bit pattern meaning "not yet resolved" (a NaN, so no
/// caller-supplied finite threshold collides with it).
const UNSET: u32 = u32::MAX;

/// Configured threshold bits; [`UNSET`] means "resolve from the
/// environment on first use".
static THRESHOLD_BITS: AtomicU32 = AtomicU32::new(UNSET);

/// Which implementation a routed convolution forward used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvRoute {
    /// im2col + one dense GEMM per batch item.
    Dense,
    /// Event-driven scatter over the compressed
    /// [`crate::spike::SpikeTensor`]; no im2col is materialized.
    Event,
}

fn resolve_from_env() -> f32 {
    std::env::var("SNN_EVENT_DENSITY")
        .ok()
        .and_then(|s| s.trim().parse::<f32>().ok())
        .filter(|t| t.is_finite())
        .unwrap_or(EVENT_DENSITY_DEFAULT)
}

/// Returns the density threshold at or below which binary inputs take
/// the event-driven route.
pub fn event_density_threshold() -> f32 {
    match THRESHOLD_BITS.load(Ordering::Relaxed) {
        UNSET => {
            let t = resolve_from_env();
            THRESHOLD_BITS.store(t.to_bits(), Ordering::Relaxed);
            t
        }
        bits => f32::from_bits(bits),
    }
}

/// Overrides the event-route density threshold process-wide. Passing
/// a non-finite value resets to automatic resolution (environment,
/// then [`EVENT_DENSITY_DEFAULT`]) on the next
/// [`event_density_threshold`] call.
///
/// Kernel results do not depend on this value — both routes are
/// bitwise identical — only wall-clock time does.
pub fn set_event_density_threshold(t: f32) {
    let bits = if t.is_finite() { t.to_bits() } else { UNSET };
    THRESHOLD_BITS.store(bits, Ordering::Relaxed);
}

/// Runs `f` with the threshold forced to `t`, restoring the previous
/// setting afterwards. Calls are serialized process-wide, so
/// concurrent tests pinning opposite routes don't interleave their
/// overrides.
pub fn with_event_density_threshold<R>(t: f32, f: impl FnOnce() -> R) -> R {
    static GUARD: Mutex<()> = Mutex::new(());
    let _guard = GUARD.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let previous = THRESHOLD_BITS.swap(
        if t.is_finite() { t.to_bits() } else { UNSET },
        Ordering::Relaxed,
    );
    let result = f();
    THRESHOLD_BITS.store(previous, Ordering::Relaxed);
    result
}

/// Publishes one routed-forward decision into the global registry:
/// a counter increment on the route taken and the active threshold
/// gauge. Costs one relaxed atomic add per *forward call*, never per
/// element.
pub(crate) fn record_conv_route(route: ConvRoute) {
    struct RouteObs {
        dense: Arc<snn_obs::Counter>,
        event: Arc<snn_obs::Counter>,
        threshold: Arc<snn_obs::Gauge>,
    }
    static OBS: OnceLock<RouteObs> = OnceLock::new();
    let o = OBS.get_or_init(|| RouteObs {
        dense: snn_obs::global().counter(
            "snn_tensor_conv2d_route_dense_total",
            "conv2d forwards that took the dense im2col route",
        ),
        event: snn_obs::global().counter(
            "snn_tensor_conv2d_route_event_total",
            "conv2d forwards that took the event-driven scatter route",
        ),
        threshold: snn_obs::global().gauge(
            "snn_tensor_dispatch_event_density_threshold_ratio",
            "input density at or below which binary inputs take the event route",
        ),
    });
    o.threshold.set(event_density_threshold() as f64);
    match route {
        ConvRoute::Dense => o.dense.inc(),
        ConvRoute::Event => o.event.inc(),
    }
}

/// [`record_conv_route`] for the quantized (int8) convolution: same
/// threshold gauge, separate `snn_tensor_qconv2d_route_*` counters so
/// `/metrics` distinguishes the f32 and integer datapaths.
pub(crate) fn record_qconv_route(route: ConvRoute) {
    struct RouteObs {
        dense: Arc<snn_obs::Counter>,
        event: Arc<snn_obs::Counter>,
        threshold: Arc<snn_obs::Gauge>,
    }
    static OBS: OnceLock<RouteObs> = OnceLock::new();
    let o = OBS.get_or_init(|| RouteObs {
        dense: snn_obs::global().counter(
            "snn_tensor_qconv2d_route_dense_total",
            "quantized conv2d forwards that took the dense im2col route",
        ),
        event: snn_obs::global().counter(
            "snn_tensor_qconv2d_route_event_total",
            "quantized conv2d forwards that took the event-driven scatter route",
        ),
        threshold: snn_obs::global().gauge(
            "snn_tensor_dispatch_event_density_threshold_ratio",
            "input density at or below which binary inputs take the event route",
        ),
    });
    o.threshold.set(event_density_threshold() as f64);
    match route {
        ConvRoute::Dense => o.dense.inc(),
        ConvRoute::Event => o.event.inc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the overrides below act on process-wide
    // state, and splitting them into concurrently-running #[test] fns
    // would race on the ambient readback.
    #[test]
    fn threshold_resolves_and_overrides() {
        with_event_density_threshold(0.75, || {
            assert_eq!(event_density_threshold(), 0.75);
        });
        with_event_density_threshold(-1.0, || {
            assert!(event_density_threshold() < 0.0, "negative disables the route");
        });
        with_event_density_threshold(f32::NAN, || {
            let t = event_density_threshold();
            assert!(t.is_finite(), "NaN must reset to automatic resolution, got {t}");
        });
        // No ambient readback outside the guarded scopes: other tests
        // may hold their own overrides concurrently.
    }
}
