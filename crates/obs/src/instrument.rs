//! The three instrument types: monotonic counters, gauges, and
//! fixed-bucket histograms.
//!
//! Every instrument is a small bundle of atomics — recording never
//! takes a lock, so instruments can sit directly on request and
//! kernel hot paths. Reads (snapshots, quantiles) are `Relaxed` loads
//! and therefore approximate under concurrent writes, which is the
//! usual contract for telemetry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use serde::Serialize;

/// A monotonically increasing event count.
///
/// By convention counter names end in `_total`
/// (`snn_serve_requests_received_total`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depth, spike density).
///
/// Stored as `f64` bits in one atomic; `add` uses a CAS loop, `set`
/// a plain store.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge starting at `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The one bucket ladder for every `*_seconds` histogram — spans,
/// serve stages, request latency, per-replica timings: 26 powers of
/// two from 1µs (to ~33s).
pub fn span_bounds() -> &'static [f64] {
    static BOUNDS: OnceLock<Vec<f64>> = OnceLock::new();
    BOUNDS.get_or_init(|| (0..26).map(|k| 1e-6 * f64::from(1u32 << k)).collect())
}

/// The one bucket ladder for every firing-rate (`*_ratio`) histogram:
/// 20 linear buckets of width 0.05 covering `[0, 1]`.
pub fn firing_rate_bounds() -> &'static [f64] {
    static BOUNDS: OnceLock<Vec<f64>> = OnceLock::new();
    BOUNDS.get_or_init(|| (1..=20).map(|i| i as f64 * 0.05).collect())
}

/// A fixed-bucket latency/size/ratio histogram with derivable
/// quantiles.
///
/// Buckets are cumulative-upper-bound style (Prometheus `le`
/// semantics): a sample `v` lands in the first bucket whose bound is
/// `>= v`; anything above the last bound lands in the saturating
/// `+Inf` overflow bucket. Designed for non-negative measurements —
/// negative samples count into the first bucket and quantile
/// interpolation treats the first bucket's lower edge as `0`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` slots; the last is the overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    /// Sum of samples, as `f64` bits (CAS-accumulated).
    sum_bits: AtomicU64,
    /// Largest sample seen, as `f64` bits (valid because the IEEE bit
    /// patterns of non-negative floats order like integers).
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given finite, strictly ascending upper
    /// bounds (the `+Inf` overflow bucket is implicit).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly
    /// ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| v > b);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        let clamped = v.max(0.0);
        self.max_bits.fetch_max(clamped.to_bits(), Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Largest sample recorded (`0.0` when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (`0 < q <= 1`) by linear interpolation
    /// within the owning bucket, Prometheus `histogram_quantile`
    /// style, never above the largest observed sample.
    ///
    /// Exact semantics, pinned by tests:
    /// * an empty histogram returns `0.0`;
    /// * the rank is `ceil(q * count)` (1-based), clamped to at
    ///   least 1;
    /// * within a bucket `(lower, upper]` holding `c` samples of
    ///   which the rank is the `r`-th, the estimate is
    ///   `lower + (upper - lower) * r / c`, clamped to [`max`] — so a
    ///   quantile that lands exactly on a bucket's last sample
    ///   returns that bucket's upper bound, unless no sample reached
    ///   it, in which case it returns the observed max;
    /// * quantiles falling in the overflow bucket saturate to the
    ///   largest observed sample.
    ///
    /// The clamp keeps every quantile `<= max()`: interpolation alone
    /// assumes samples spread across the whole bucket, which
    /// overstates a tail that stops short of the bucket's bound.
    ///
    /// [`max`]: Histogram::max
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut before = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if before + c >= rank {
                if i == self.bounds.len() {
                    return self.max();
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let r = (rank - before) as f64;
                return (lower + (upper - lower) * r / c as f64).min(self.max());
            }
            before += c;
        }
        self.max()
    }

    /// Point-in-time copy of every bucket plus derived quantiles.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            bounds: self.bounds.clone(),
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Serializable point-in-time copy of a [`Histogram`], embedded in
/// `BENCH_*.json` reports and the `/metrics.json` endpoint.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Finite bucket upper bounds (the overflow bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts; one longer than `bounds` (the last
    /// entry is the overflow bucket).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Largest sample.
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let g = Gauge::new();
        g.set(3.5);
        g.add(-1.25);
        assert_eq!(g.get(), 2.25);
    }

    #[test]
    fn bucket_edges_are_le_inclusive() {
        // Bounds 1, 2, 4: a sample exactly at a bound belongs to that
        // bound's bucket, epsilon above spills into the next.
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.record(1.0);
        h.record(2.0);
        h.record(2.0000001);
        h.record(4.0);
        let s = h.snapshot("edges");
        assert_eq!(s.counts, vec![1, 1, 2, 0]);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn quantiles_interpolate_exactly() {
        let h = Histogram::new(&[10.0, 20.0, 40.0]);
        for _ in 0..2 {
            h.record(5.0); // bucket (0, 10]
        }
        for _ in 0..2 {
            h.record(15.0); // bucket (10, 20]
        }
        // n=4. p50 → rank 2 → 2nd of 2 samples in (0,10] → exactly 10.
        assert_eq!(h.quantile(0.50), 10.0);
        // p75 → rank 3 → 1st of 2 samples in (10,20] → 10 + 10*(1/2).
        assert_eq!(h.quantile(0.75), 15.0);
        // p100 → rank 4 → 2nd of 2 in (10,20] → upper bound 20,
        // clamped to the observed max 15.
        assert_eq!(h.quantile(1.0), 15.0);
        // A bucket's upper bound is reported when a sample reached it.
        h.record(20.0);
        assert_eq!(h.quantile(1.0), 20.0);
        // A single-sample histogram reports that sample, not its
        // bucket's upper bound.
        let one = Histogram::new(&[10.0, 20.0]);
        one.record(12.0);
        assert_eq!(one.quantile(0.5), 12.0);
    }

    proptest::proptest! {
        /// No quantile exceeds the largest observed sample, for
        /// samples below, inside and beyond the finite buckets.
        #[test]
        fn quantile_never_exceeds_max(
            len in 0usize..64, seed in 0u64..u64::MAX, top in 0.5f64..1e4, q in 0.0f64..=1.0,
        ) {
            let bounds: Vec<f64> = (0..12).map(|k| f64::from(1u32 << k)).collect();
            let h = Histogram::new(&bounds);
            let mut rng = proptest::TestRng::from_label(&seed.to_string());
            let samples: Vec<f64> =
                (0..len).map(|_| rng.unit_f64() * (top + 10.0) - 10.0).collect();
            for &v in &samples {
                h.record(v);
            }
            proptest::prop_assert!(h.quantile(q) <= h.max(), "q {} of {:?}", q, samples);
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        let s = h.snapshot("empty");
        assert_eq!(s.counts, vec![0, 0]);
    }

    #[test]
    fn overflow_bucket_saturates_to_observed_max() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.record(100.0);
        h.record(250.0);
        let s = h.snapshot("overflow");
        assert_eq!(s.counts, vec![0, 0, 2]);
        // Quantiles in the overflow bucket report the observed max,
        // not an invented bound.
        assert_eq!(h.quantile(0.5), 250.0);
        assert_eq!(h.quantile(0.99), 250.0);
        assert_eq!(h.max(), 250.0);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let h = Histogram::new(&[1.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn negative_samples_count_into_first_bucket() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.record(-5.0);
        let s = h.snapshot("neg");
        assert_eq!(s.counts, vec![1, 0, 0]);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn shared_ladders_cover_their_ranges() {
        let secs = span_bounds();
        assert_eq!((secs.len(), secs[0]), (26, 1e-6));
        assert!(secs.windows(2).all(|w| w[1] == 2.0 * w[0]), "factor-2 ladder");
        let rates = firing_rate_bounds();
        assert_eq!((rates.len(), rates[0], rates[19]), (20, 0.05, 1.0));
    }

    #[test]
    fn concurrent_hammer_is_exact() {
        // Correctness, not scaling: this host is single-core, so the
        // scoped threads mostly interleave — the assertion is that no
        // increment is ever lost, whatever the schedule.
        let c = Counter::new();
        let h = Histogram::new(&[0.5, 1.5]);
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = &c;
                let h = &h;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record(((t + i) % 2) as f64);
                    }
                });
            }
        });
        assert_eq!(c.get(), (THREADS * PER_THREAD) as u64);
        assert_eq!(h.count(), (THREADS * PER_THREAD) as u64);
        let s = h.snapshot("hammer");
        assert_eq!(s.counts.iter().sum::<u64>(), (THREADS * PER_THREAD) as u64);
        assert_eq!(s.counts, vec![(THREADS * PER_THREAD / 2) as u64; 2]
            .into_iter()
            .chain([0])
            .collect::<Vec<u64>>());
    }
}
