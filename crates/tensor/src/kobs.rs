//! Crate-private kernel observability helpers.
//!
//! The hot kernels ([`crate::conv`], [`crate::linalg`]) publish
//! spike-sparsity gauges into the global `snn-obs` registry. Density
//! is a last-value gauge and input density drifts slowly across a
//! run, so the nonzero count (linear in the operand, and the only
//! part that rivals the kernels' own arithmetic — measurably so on
//! the sparse GEMM path, whose whole point is to skip most of that
//! arithmetic) is *sampled*: one in [`SAMPLE_EVERY`] calls scans, the
//! rest pay one relaxed fetch-add.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use snn_obs::Gauge;

/// Every `SAMPLE_EVERY`-th call scans its operand; the first call
/// always does, so the gauge is live from the first kernel invocation.
const SAMPLE_EVERY: u64 = 16;

/// A lazily-registered density gauge: records the fraction of nonzero
/// elements in a slice, the crate's operational definition of spike
/// density.
pub(crate) struct DensityGauge {
    name: &'static str,
    help: &'static str,
    calls: AtomicU64,
    cell: OnceLock<Arc<Gauge>>,
}

impl DensityGauge {
    pub(crate) const fn new(name: &'static str, help: &'static str) -> Self {
        DensityGauge { name, help, calls: AtomicU64::new(0), cell: OnceLock::new() }
    }

    /// Sets the gauge to an already-measured density ratio, with no
    /// scan and no sampling. Used by kernels whose dispatch logic
    /// scans the operand anyway (the routed conv2d), where the exact
    /// reading is free.
    pub(crate) fn set_ratio(&self, ratio: f64) {
        let g = self.cell.get_or_init(|| snn_obs::global().gauge(self.name, self.help));
        g.set(ratio);
    }

    /// Sets the gauge to `nnz(data) / len(data)` on sampled calls.
    /// Empty slices leave the gauge untouched.
    pub(crate) fn record(&self, data: &[f32]) {
        if data.is_empty()
            || !self.calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(SAMPLE_EVERY)
        {
            return;
        }
        let g = self.cell.get_or_init(|| snn_obs::global().gauge(self.name, self.help));
        let nnz = crate::spike::count_nonzero(data);
        g.set(nnz as f64 / data.len() as f64);
    }
}
