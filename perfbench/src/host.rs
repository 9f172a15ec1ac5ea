//! Host speed, measured by a fixed calibration kernel.
//!
//! The benchmark host is a VM on a shared machine. Other tenants slow
//! its vCPUs by up to about 1.5x for stretches of seconds to minutes,
//! and a slowed stretch can cover a whole run. The batch workloads
//! therefore time this kernel between engine calls and report their
//! times at one reference host speed: a call that ran while the probe
//! took 1.2x [`REF_PROBE_S`] counts as 1/1.2 of its wall time. The
//! kernel is the benchmark's own code and touches nothing of the
//! program under test, so only the host moves it.
//!
//! The kernel is a 128×128 f32 matrix product (192 KiB of operands).
//! Of the kernels tried on a 2-vCPU x86-64 host, it followed the
//! slowdown of both batch workloads most closely: over 1 s windows of
//! runs whose call latency moved by up to 1.6x, call latency divided
//! by probe time varied by 3 to 7% (coefficient of variation).

use std::hint::black_box;
use std::time::Instant;

/// Probe time that defines the reference speed: the probe's median
/// on an unloaded 2-vCPU x86-64 host. Only ratios to it are used, so
/// on other hardware the reported figures shift by a constant factor.
pub const REF_PROBE_S: f64 = 250e-6;

/// Matrix side of the probe.
const N: usize = 128;

/// The calibration kernel's operands, allocated once.
pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            a: (0..N * N).map(|i| (i % 7) as f32).collect(),
            b: (0..N * N).map(|i| (i % 5) as f32).collect(),
            c: vec![0.0; N * N],
        }
    }
}

impl Probe {
    /// Runs the kernel once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        self.c.fill(0.0);
        for i in 0..N {
            for k in 0..N {
                let x = self.a[i * N + k];
                let b = &self.b[k * N..][..N];
                let c = &mut self.c[i * N..][..N];
                for j in 0..N {
                    c[j] += x * b[j];
                }
            }
        }
        black_box(&self.c);
        t0.elapsed().as_secs_f64()
    }

    /// The host's slowdown now: the median of three probe times over
    /// [`REF_PROBE_S`] (above 1 on a slowed host).
    pub fn slowdown(&mut self) -> f64 {
        let mut t = [self.time(), self.time(), self.time()];
        t.sort_by(f64::total_cmp);
        t[1] / REF_PROBE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_computes_the_product() {
        let mut p = Probe::default();
        assert!(p.time() > 0.0);
        let want: f32 = (0..N).map(|k| p.a[k] * p.b[k * N]).sum();
        assert_eq!(p.c[0], want);
    }
}
