//! Kernel-scaling and density-sweep benchmark for the
//! thread-parallel, sparsity-aware compute backend.
//!
//! ```text
//! cargo run --release -p snn-bench --bin bench_kernels \
//!     [-- --reps N --out FILE --json-pretty --smoke]
//! ```
//!
//! Three sections:
//!
//! * **Thread scaling** — times the three hot-path kernels
//!   (`conv2d_forward`, the `x · Wᵀ` GEMM as `matmul_nt` and as the
//!   dense layers run it, `matmul` over a pre-transposed `Wᵀ`, and
//!   the elementwise LIF step) at 1/2/4/8 threads, on dense real-valued
//!   operands and on 90%-sparse binary spike operands. Thread counts
//!   are forced with [`par::set_num_threads`], overriding
//!   `SNN_NUM_THREADS`; rows where the requested worker count exceeds
//!   the host's hardware threads are flagged `host_limited` — those
//!   timings show scheduling overhead, not speedup.
//! * **int8 LIF row** — the fixed-point LIF row step at conv1's row
//!   shape, serial: certified rows on the wrapping lanes, rows that
//!   fail the certificate through the checked fallback, and the f32
//!   in-place LIF step over the same neuron count.
//! * **Max pool** — the paper's 2×2 / stride-2 pool at pool1's and
//!   pool2's input shapes, serial, on 5%-dense binary spikes: `u8`
//!   (the integer runtime) against `f32` (the f32 engine), both
//!   through `maxpool_into` without an argmax.
//! * **Spike count** — the per-item nonzero counter every f32 layer
//!   step runs on its output, serial, at conv1's output shape and
//!   2/5/20/50% spike density, next to the per-item `filter().count()`
//!   it replaced and the f32 in-place LIF step over the same neurons.
//! * **Density sweep** — times the event-driven datapath against the
//!   dense route at input sparsities 50/75/90/95/99%, serially, for
//!   conv2d (dispatcher-forced routes, f32 and int8), `matmul_nt`'s
//!   spike-gather GEMM, the masked LIF step, and two end-to-end
//!   network forward passes (adaptive dispatch vs pinned dense): a
//!   small conv net on frames that change every timestep, and the
//!   paper topology on one frame presented at every timestep (direct
//!   coding, the serving case, where the first conv's current is
//!   computed once per sequence). This is the figure backing the
//!   "inference cost scales with firing rate" claim.
//!
//! `--smoke` shrinks every shape and the default rep count so the
//! whole run finishes in seconds; CI uses it to regression-gate the
//! event route's speedup without paying for the full sweep.
//!
//! Results land in `BENCH_kernels.json` (workspace root when run via
//! cargo), stamped with the schema version and git commit.

use std::time::Instant;

use serde::Serialize;
use snn_core::neuron::{lif_step_in_place, lif_step_masked, LifState};
use snn_core::{LifConfig, SpikingNetwork, Surrogate};
use snn_quant::{magnitude_bound, FixedLif};
use snn_tensor::conv::{conv2d_forward_routed, conv2d_forward_with, Conv2dGeometry, ConvScratch};
use snn_tensor::dispatch::{set_event_density_threshold, ConvRoute};
use snn_tensor::pool::{maxpool_into, Pool2dGeometry};
use snn_tensor::qmat::{qconv2d_forward_routed, qgemm_into, transpose_i8, QConvScratch};
use snn_tensor::spike::{count_nonzero_rows, TouchMask};
use snn_tensor::{linalg, par, Shape, Tensor};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Input sides of the paper topology's two pools (pool1, pool2).
const POOL_SIDES: [usize; 2] = [16, 8];

/// Spike density (%) of the max-pool section's inputs.
const POOL_DENSITY_PCT: u64 = 5;

/// Spike densities (%) of the spike-count section's inputs.
const SPIKE_COUNT_DENSITIES_PCT: [u64; 4] = [2, 5, 20, 50];

/// Input sparsities (zero fraction, %) swept by the density section.
const SWEEP_SPARSITIES: [u64; 5] = [50, 75, 90, 95, 99];

fn lcg_tensor(shape: Shape, seed: u64, scale: f32) -> Tensor {
    let mut rng = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    Tensor::from_fn(shape, |_| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (((rng >> 33) as f32 / u32::MAX as f32) - 0.5) * 2.0 * scale
    })
}

/// Binary spike tensor with ~`density_pct`% ones.
fn spike_tensor(shape: Shape, seed: u64, density_pct: u64) -> Tensor {
    let mut rng = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    Tensor::from_fn(shape, |_| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        f32::from(((rng >> 33) % 100) < density_pct)
    })
}

fn measured_density(t: &Tensor) -> f64 {
    t.count_nonzero() as f64 / t.len() as f64
}

/// Pseudorandom symmetric `i8` weights in `[-109, 109]` — the shape a
/// per-channel 8-bit quantizer emits (occasional exact zeros included).
fn lcg_i8(len: usize, seed: u64) -> Vec<i8> {
    let mut rng = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    (0..len)
        .map(|_| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (((rng >> 33) % 219) as i64 - 109) as i8
        })
        .collect()
}

/// Dense level-coded `u8` activations in `1..=255` (first-layer
/// regime: every lane occupied, no sparsity shortcut available).
fn level_u8(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    (0..len)
        .map(|_| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (((rng >> 33) % 255) + 1) as u8
        })
        .collect()
}

/// Pseudorandom `i32`s uniform over `[-2^(bits-1), 2^(bits-1))`; 32
/// bits spans the whole range.
fn lcg_i32(len: usize, seed: u64, bits: u32) -> Vec<i32> {
    let mut rng = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    (0..len)
        .map(|_| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 32) as i32) >> (32 - bits)
        })
        .collect()
}

/// Best (minimum) wall-clock seconds over `reps` runs, one warmup
/// discarded. Interference — scheduler preemption, page-fault storms
/// from allocator state left by earlier sections — only ever *adds*
/// time, so the minimum is the most repeatable estimator of a
/// kernel's intrinsic cost on a shared host.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Best serial seconds: pins one worker for the duration of `f`.
fn time_serial(reps: usize, f: impl FnMut()) -> f64 {
    par::set_num_threads(1);
    let s = time_best(reps, f);
    par::set_num_threads(0);
    s
}

#[derive(Serialize)]
struct ScalingResult {
    threads: Vec<usize>,
    seconds: Vec<f64>,
    /// Per-row: the requested worker count exceeds the host's
    /// hardware threads, so the timing measures scheduling overhead
    /// rather than parallel speedup.
    host_limited: Vec<bool>,
    /// Serial time divided by 4-thread time.
    speedup_4_threads: f64,
}

fn scale_over_threads(reps: usize, host: usize, mut f: impl FnMut()) -> ScalingResult {
    let seconds: Vec<f64> = THREADS
        .iter()
        .map(|&t| {
            par::set_num_threads(t);
            time_best(reps, &mut f)
        })
        .collect();
    par::set_num_threads(0); // restore auto detection
    ScalingResult {
        threads: THREADS.to_vec(),
        seconds: seconds.clone(),
        host_limited: THREADS.iter().map(|&t| t > host).collect(),
        speedup_4_threads: seconds[0] / seconds[2],
    }
}

/// One density-sweep row: dense route vs event route, both serial.
#[derive(Serialize)]
struct SweepPoint {
    /// Nominal zero fraction of the input, %.
    sparsity_pct: u64,
    /// Measured nonzero fraction of the generated input.
    input_density: f64,
    /// Dense-route best-of-reps seconds (serial).
    dense_seconds: f64,
    /// Event-route best-of-reps seconds (serial).
    event_seconds: f64,
    /// `dense_seconds / event_seconds`.
    event_speedup: f64,
}

#[derive(Serialize)]
struct ConvDensitySweep {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    image: usize,
    batch: usize,
    /// `dense_seconds` forces the im2col + GEMM route and
    /// `event_seconds` the event-driven scatter route, on the same
    /// binary input.
    points: Vec<SweepPoint>,
}

#[derive(Serialize)]
struct GemmDensitySweep {
    m: usize,
    k: usize,
    n: usize,
    /// `event_seconds` here is the spike-gather GEMM on binary input;
    /// `dense_seconds` is the same shape on dense analog input.
    points: Vec<SweepPoint>,
}

#[derive(Serialize)]
struct LifDensitySweep {
    items: usize,
    channels: usize,
    plane: usize,
    /// `event_seconds` is `lif_step_masked` under a touch mask
    /// matching the input's spatial support; `dense_seconds` is the
    /// unmasked in-place step (`lif_step_in_place`) on the same input.
    /// Each is the step a conv layer runs on that route.
    points: Vec<SweepPoint>,
}

#[derive(Serialize)]
struct ForwardDensitySweep {
    batch: usize,
    timesteps: usize,
    topology: String,
    /// `dense_seconds` pins the dispatcher to the dense route;
    /// `event_seconds` lets it adapt per layer per timestep (the
    /// production configuration).
    points: Vec<SweepPoint>,
}

/// One int8 conv sweep row: the integer dense and event routes on a
/// binary input, with the f32 dense route on the same pattern as
/// baseline. All serial.
#[derive(Serialize)]
struct Int8ConvSweepPoint {
    /// Nominal zero fraction of the input, %.
    sparsity_pct: u64,
    /// Measured nonzero fraction of the binary input.
    input_density: f64,
    /// f32 im2col + dense GEMM on the same input (density-blind
    /// baseline).
    f32_dense_seconds: f64,
    /// int8 dense route: u8 im2col + integer GEMM, forced.
    dense_seconds: f64,
    /// int8 event route: per-active-pixel scatter, forced.
    event_seconds: f64,
    /// `dense_seconds / event_seconds` within the integer datapath.
    event_speedup: f64,
    /// `f32_dense_seconds / dense_seconds` — what 8-bit arithmetic
    /// alone buys on the dense route.
    int8_dense_vs_f32: f64,
    /// `f32_dense_seconds / event_seconds` — the full quantized
    /// event-route gain over the f32 baseline.
    int8_event_vs_f32: f64,
}

#[derive(Serialize)]
struct Int8ConvDensitySweep {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    image: usize,
    batch: usize,
    points: Vec<Int8ConvSweepPoint>,
}

/// Dense integer GEMM against the f32 dense GEMM at the same
/// `m`/`k`/`n` (identical multiply count), both serial, dense
/// operands on both sides — the pure arithmetic/bandwidth comparison
/// the `--min-int8-speedup` gate runs on.
#[derive(Serialize)]
struct Int8GemmBench {
    m: usize,
    k: usize,
    n: usize,
    /// The f32 kernel `f32_seconds` times.
    f32_kernel: &'static str,
    /// f32 `matmul_nt` on dense analog operands, serial best-of-reps.
    f32_seconds: f64,
    /// `qgemm_into` (i8 weights × dense level-coded u8), serial.
    int8_seconds: f64,
    /// `f32_seconds / int8_seconds`.
    int8_speedup: f64,
    /// The same product on the path the f32 dense layers run:
    /// `matmul(x, Wᵀ)` with `Wᵀ` transposed once, outside the timing.
    f32_layer_seconds: f64,
    /// `f32_layer_seconds / int8_seconds`.
    int8_speedup_vs_layer: f64,
}

#[derive(Serialize)]
struct DensitySweep {
    sparsities_pct: Vec<u64>,
    conv2d: ConvDensitySweep,
    conv2d_int8: Int8ConvDensitySweep,
    gemm_nt: GemmDensitySweep,
    lif_step: LifDensitySweep,
    forward: ForwardDensitySweep,
    forward_direct: ForwardDensitySweep,
}

#[derive(Serialize)]
struct ConvBench {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    image: usize,
    batch: usize,
    dense: ScalingResult,
    sparse90: ScalingResult,
    /// Dense-input serial time over 90%-sparse serial time: the gain
    /// from the sparsity-aware routing alone.
    sparse_path_speedup_serial: f64,
}

#[derive(Serialize)]
struct GemmBench {
    m: usize,
    k: usize,
    n: usize,
    dense: ScalingResult,
    sparse90: ScalingResult,
    /// Serial dense time over serial 90%-sparse time; must exceed 1
    /// for the sparse path to pay off at this sparsity.
    sparse_path_speedup_serial: f64,
    /// The dense layers' forward path on the same operands:
    /// `matmul(x, Wᵀ)` with `Wᵀ` transposed once, outside the timing.
    pretransposed_dense: ScalingResult,
    pretransposed_sparse90: ScalingResult,
    /// Serial `matmul_nt` time over serial pre-transposed time, dense
    /// and 90%-sparse inputs: what the layout buys.
    pretransposed_speedup_serial_dense: f64,
    pretransposed_speedup_serial_sparse90: f64,
}

#[derive(Serialize)]
struct LifBench {
    elements: usize,
    scaling: ScalingResult,
}

/// The int8 LIF row step at conv1's row shape: `items × channels`
/// rows of `row` neurons, one bias per row, serial.
#[derive(Serialize)]
struct Int8LifRowBench {
    items: usize,
    channels: usize,
    row: usize,
    elements: usize,
    /// `FixedLif::step_row_certified` on rows inside the certificate
    /// (the runtime's path while its stage bound holds).
    certified_ns_per_neuron: f64,
    /// `FixedLif::step_row` on rows whose currents span the whole
    /// `i32` range: each row's scan fails and every neuron runs the
    /// reference `FixedLif::step`.
    fallback_ns_per_neuron: f64,
    /// f32 `lif_step_in_place` over `elements` neurons.
    f32_ns_per_neuron: f64,
    /// `fallback_ns_per_neuron / certified_ns_per_neuron`.
    fallback_vs_certified: f64,
    /// `f32_ns_per_neuron / certified_ns_per_neuron`.
    certified_vs_f32: f64,
}

/// The 2×2 / stride-2 max pool, `items × channels × side × side`
/// inputs per point, serial.
#[derive(Serialize)]
struct MaxpoolBench {
    items: usize,
    channels: usize,
    spike_density_pct: u64,
    /// One point per entry of [`POOL_SIDES`].
    points: Vec<MaxpoolPoint>,
}

#[derive(Serialize)]
struct MaxpoolPoint {
    side: usize,
    input_density: f64,
    u8_ns_per_input: f64,
    f32_ns_per_input: f64,
    /// `f32_ns_per_input / u8_ns_per_input`.
    u8_vs_f32: f64,
}

/// Per-item spike counting over `items × channels × side × side`
/// binary maps, serial.
#[derive(Serialize)]
struct SpikeCountBench {
    items: usize,
    channels: usize,
    side: usize,
    elements: usize,
    /// f32 `lif_step_in_place` over `elements` neurons, for scale.
    lif_ns_per_element: f64,
    /// One point per entry of [`SPIKE_COUNT_DENSITIES_PCT`].
    points: Vec<SpikeCountPoint>,
}

#[derive(Serialize)]
struct SpikeCountPoint {
    density_pct: u64,
    input_density: f64,
    /// `spike::count_nonzero_rows`, one count per item.
    ns_per_element: f64,
    /// `filter(|&&v| v != 0.0).count()` per item: the scan the lane
    /// counter replaced.
    naive_ns_per_element: f64,
    /// `naive_ns_per_element / ns_per_element`.
    lanes_vs_naive: f64,
}

#[derive(Serialize)]
struct KernelReport {
    /// Report layout version ([`snn_bench::BENCH_SCHEMA_VERSION`]).
    schema_version: u32,
    /// Commit the binary ran from, or `unknown`.
    git_commit: String,
    host_parallelism: usize,
    reps: usize,
    /// True when the run used `--smoke` shapes; smoke numbers are for
    /// regression gating, not for quoting.
    smoke: bool,
    conv2d_forward: ConvBench,
    gemm_nt: GemmBench,
    /// Quantized GEMM against the f32 dense GEMM — the row the
    /// `--min-int8-speedup` obs-check gate reads.
    int8_gemm: Int8GemmBench,
    lif_step: LifBench,
    int8_lif_row: Int8LifRowBench,
    maxpool: MaxpoolBench,
    spike_count: SpikeCountBench,
    density_sweep: DensitySweep,
    /// Snapshots of the global `snn_span_*` histograms the kernels
    /// recorded into while being timed — per-call latency
    /// distributions (p50/p95/p99) to set against the timings above.
    span_histograms: Vec<snn_obs::HistogramSnapshot>,
}

/// Shape set for one run; `--smoke` swaps in the small variant.
struct Sizes {
    conv: (usize, usize, usize, usize), // cin, cout, img, batch
    gemm: (usize, usize, usize),        // m, k, n
    lif: (usize, usize, usize),         // items, channels, plane-side
    lif_row: (usize, usize, usize),     // items, channels, row length
    pool: (usize, usize),               // items, channels
    count: (usize, usize, usize),       // items, channels, side
    fwd: (usize, usize, usize, usize),  // in_ch, img, filters, timesteps
    fwd_batch: usize,
    direct: (usize, usize, usize),      // img, batch, timesteps
}

const FULL: Sizes = Sizes {
    conv: (16, 32, 16, 16),
    gemm: (256, 512, 256),
    lif: (64, 32, 16),
    lif_row: (16, 32, 256),
    pool: (16, 32),
    count: (16, 32, 16),
    fwd: (2, 16, 16, 8),
    fwd_batch: 8,
    direct: (16, 16, 3),
};

const SMOKE: Sizes = Sizes {
    conv: (8, 16, 12, 4),
    gemm: (64, 128, 64),
    lif: (8, 16, 8),
    lif_row: (4, 8, 64),
    pool: (4, 8),
    count: (4, 8, 8),
    fwd: (2, 8, 8, 4),
    fwd_batch: 2,
    direct: (8, 2, 3),
};

fn bench_conv(reps: usize, host: usize, sz: &Sizes) -> ConvBench {
    let (cin, cout, img, batch) = sz.conv;
    let g = Conv2dGeometry::new(cin, cout, 3, 1, 1, img, img).expect("valid geometry");
    let w = lcg_tensor(g.weight_shape(), 11, 0.3);
    let b = lcg_tensor(Shape::d1(cout), 13, 0.1);
    let x_dense = lcg_tensor(Shape::d4(batch, cin, img, img), 17, 1.0);
    let x_sparse = spike_tensor(Shape::d4(batch, cin, img, img), 19, 10);
    let mut scratch = ConvScratch::new();
    let dense = scale_over_threads(reps, host, || {
        let _ = conv2d_forward_with(&g, &x_dense, &w, &b, &mut scratch).expect("valid shapes");
    });
    let sparse90 = scale_over_threads(reps, host, || {
        let _ = conv2d_forward_with(&g, &x_sparse, &w, &b, &mut scratch).expect("valid shapes");
    });
    let sparse_path_speedup_serial = dense.seconds[0] / sparse90.seconds[0];
    ConvBench {
        in_channels: cin,
        out_channels: cout,
        kernel: 3,
        image: img,
        batch,
        dense,
        sparse90,
        sparse_path_speedup_serial,
    }
}

fn bench_gemm(reps: usize, host: usize, sz: &Sizes) -> GemmBench {
    // Dense-layer forward shape: [batch·something, in] × [out, in]ᵀ.
    let (m, k, n) = sz.gemm;
    let a_dense = lcg_tensor(Shape::d2(m, k), 23, 1.0);
    let a_sparse = spike_tensor(Shape::d2(m, k), 29, 10);
    let b = lcg_tensor(Shape::d2(n, k), 31, 0.3);
    let dense = scale_over_threads(reps, host, || {
        let _ = linalg::matmul_nt(&a_dense, &b).expect("valid shapes");
    });
    let sparse90 = scale_over_threads(reps, host, || {
        let _ = linalg::matmul_nt(&a_sparse, &b).expect("valid shapes");
    });
    let bt = linalg::transpose(&b).expect("rank 2");
    let pretransposed_dense = scale_over_threads(reps, host, || {
        let _ = linalg::matmul(&a_dense, &bt).expect("valid shapes");
    });
    let pretransposed_sparse90 = scale_over_threads(reps, host, || {
        let _ = linalg::matmul(&a_sparse, &bt).expect("valid shapes");
    });
    GemmBench {
        m,
        k,
        n,
        sparse_path_speedup_serial: dense.seconds[0] / sparse90.seconds[0],
        pretransposed_speedup_serial_dense: dense.seconds[0] / pretransposed_dense.seconds[0],
        pretransposed_speedup_serial_sparse90: sparse90.seconds[0]
            / pretransposed_sparse90.seconds[0],
        dense,
        sparse90,
        pretransposed_dense,
        pretransposed_sparse90,
    }
}

fn lif_config() -> LifConfig {
    LifConfig {
        beta: 0.9,
        theta: 0.5,
        surrogate: Surrogate::FastSigmoid { k: 2.0 },
        ..LifConfig::paper_default()
    }
}

fn bench_lif(reps: usize, host: usize, sz: &Sizes) -> LifBench {
    let (items, channels, side) = sz.lif;
    let cfg = lif_config();
    let shape = Shape::d2(items, channels * side * side);
    let input = lcg_tensor(shape, 37, 1.0);
    let state = LifState {
        membrane: lcg_tensor(shape, 41, 0.6),
        prev_spikes: lcg_tensor(shape, 43, 1.0).map(|v| f32::from(v > 0.0)),
    };
    // The production kernel: after the first call the state is owned
    // alone, so every timed step updates it in place.
    let mut stepped = state.clone();
    let scaling = scale_over_threads(reps, host, || {
        let _ = lif_step_in_place(&cfg, &mut stepped, &input);
    });
    LifBench { elements: input.len(), scaling }
}

fn bench_int8_lif_row(reps: usize, sz: &Sizes) -> Int8LifRowBench {
    let (items, channels, row) = sz.lif_row;
    let elements = items * channels * row;
    // The tuned configuration at a Q-format whose currents, like a
    // calibrated conv1's, leave the certificate ample headroom.
    let cfg = LifConfig { beta: 0.5, theta: 1.5, ..LifConfig::paper_default() };
    let lif = FixedLif::from_config(&cfg, 24).expect("theta fits Q24");
    let bias = lcg_i32(channels, 47, 21);
    let certified = lcg_i32(elements, 53, 27);
    let full_range = lcg_i32(elements, 59, 32);
    let mut mem = lcg_i32(elements, 61, 28);
    let mut spikes = vec![0u8; elements];
    let bounds = (magnitude_bound(&mem), magnitude_bound(&certified), magnitude_bound(&bias));
    assert!(lif.certify(bounds.0, bounds.1, bounds.2).is_some(), "rows inside the certificate");
    let mut time_rows = |current: &[i32], checked: bool| {
        let seconds = time_serial(reps, || {
            let rows = mem.chunks_exact_mut(row).zip(spikes.chunks_exact_mut(row));
            for (r, ((m, s), c)) in rows.zip(current.chunks_exact(row)).enumerate() {
                let b = &bias[r % channels..][..1];
                if checked {
                    lif.step_row(c, b, m, s);
                } else {
                    lif.step_row_certified(c, b, m, s);
                }
            }
        });
        seconds / elements as f64 * 1e9
    };
    // With beta = 1/2 the membranes stay within twice the sum of the
    // current, bias and theta bounds, so every rep stays certified.
    let certified_ns_per_neuron = time_rows(&certified, false);
    let fallback_ns_per_neuron = time_rows(&full_range, true);
    let shape = Shape::d2(items, channels * row);
    let input = lcg_tensor(shape, 67, 1.0);
    let mut state =
        LifState { membrane: lcg_tensor(shape, 71, 0.6), prev_spikes: Tensor::zeros(shape) };
    let f32_seconds = time_serial(reps, || {
        let _ = lif_step_in_place(&cfg, &mut state, &input);
    });
    let f32_ns_per_neuron = f32_seconds / elements as f64 * 1e9;
    Int8LifRowBench {
        items,
        channels,
        row,
        elements,
        certified_ns_per_neuron,
        fallback_ns_per_neuron,
        f32_ns_per_neuron,
        fallback_vs_certified: fallback_ns_per_neuron / certified_ns_per_neuron,
        certified_vs_f32: f32_ns_per_neuron / certified_ns_per_neuron,
    }
}

fn bench_maxpool(reps: usize, sz: &Sizes) -> MaxpoolBench {
    let (items, channels) = sz.pool;
    let points = POOL_SIDES
        .iter()
        .map(|&side| {
            let g = Pool2dGeometry::new(channels, 2, 2, side, side).expect("valid geometry");
            let x = spike_tensor(Shape::d4(items, channels, side, side), 79, POOL_DENSITY_PCT);
            let xq: Vec<u8> = x.as_slice().iter().map(|&v| u8::from(v != 0.0)).collect();
            let mut out = Tensor::zeros(Shape::d4(items, channels, g.out_h(), g.out_w()));
            let mut outq = vec![0u8; out.len()];
            let ns_per_input = |seconds: f64| seconds / x.len() as f64 * 1e9;
            let u8_ns_per_input =
                ns_per_input(time_serial(reps, || maxpool_into(&g, &xq, &mut outq, &mut [])));
            let f32_ns_per_input = ns_per_input(time_serial(reps, || {
                maxpool_into(&g, x.as_slice(), out.as_mut_slice(), &mut []);
            }));
            MaxpoolPoint {
                side,
                input_density: measured_density(&x),
                u8_ns_per_input,
                f32_ns_per_input,
                u8_vs_f32: f32_ns_per_input / u8_ns_per_input,
            }
        })
        .collect();
    MaxpoolBench { items, channels, spike_density_pct: POOL_DENSITY_PCT, points }
}

fn bench_spike_count(reps: usize, sz: &Sizes) -> SpikeCountBench {
    let (items, channels, side) = sz.count;
    let shape = Shape::d4(items, channels, side, side);
    let elements = shape.len();
    let row = elements / items;
    let ns_per_element = |seconds: f64| seconds / elements as f64 * 1e9;
    let mut counts = Vec::with_capacity(items);
    let points = SPIKE_COUNT_DENSITIES_PCT
        .iter()
        .map(|&pct| {
            let x = spike_tensor(shape, 83 + pct, pct);
            let lanes = ns_per_element(time_serial(reps, || {
                count_nonzero_rows(x.as_slice(), items, &mut counts);
                std::hint::black_box(&counts);
            }));
            let naive = ns_per_element(time_serial(reps, || {
                counts.clear();
                let rows = x.as_slice().chunks_exact(row);
                counts.extend(rows.map(|r| r.iter().filter(|&&v| v != 0.0).count() as u32));
                std::hint::black_box(&counts);
            }));
            SpikeCountPoint {
                density_pct: pct,
                input_density: measured_density(&x),
                ns_per_element: lanes,
                naive_ns_per_element: naive,
                lanes_vs_naive: naive / lanes,
            }
        })
        .collect();
    let cfg = lif_config();
    let lif_shape = Shape::d2(items, row);
    let input = lcg_tensor(lif_shape, 89, 1.0);
    let membrane = lcg_tensor(lif_shape, 97, 0.6);
    let mut state = LifState { membrane, prev_spikes: Tensor::zeros(lif_shape) };
    let lif_ns_per_element = ns_per_element(time_serial(reps, || {
        let _ = lif_step_in_place(&cfg, &mut state, &input);
    }));
    SpikeCountBench { items, channels, side, elements, lif_ns_per_element, points }
}

/// Conv density sweep: dispatcher-forced dense and event routes,
/// serial.
fn sweep_conv(reps: usize, sz: &Sizes) -> ConvDensitySweep {
    let (cin, cout, img, batch) = sz.conv;
    let g = Conv2dGeometry::new(cin, cout, 3, 1, 1, img, img).expect("valid geometry");
    let w = lcg_tensor(g.weight_shape(), 11, 0.3);
    let b = lcg_tensor(Shape::d1(cout), 13, 0.1);
    let mut scratch = ConvScratch::new();
    let points = SWEEP_SPARSITIES
        .iter()
        .map(|&sp| {
            let x = spike_tensor(Shape::d4(batch, cin, img, img), 19 + sp, 100 - sp);
            set_event_density_threshold(-1.0);
            let dense_seconds = time_serial(reps, || {
                let (_, r) = conv2d_forward_routed(&g, &x, &w, &b, &mut scratch).expect("shapes");
                assert_eq!(r, ConvRoute::Dense);
            });
            set_event_density_threshold(1.0);
            let event_seconds = time_serial(reps, || {
                let (_, r) = conv2d_forward_routed(&g, &x, &w, &b, &mut scratch).expect("shapes");
                assert_eq!(r, ConvRoute::Event);
            });
            set_event_density_threshold(f32::NAN); // back to env/default
            SweepPoint {
                sparsity_pct: sp,
                input_density: measured_density(&x),
                dense_seconds,
                event_seconds,
                event_speedup: dense_seconds / event_seconds,
            }
        })
        .collect();
    ConvDensitySweep {
        in_channels: cin,
        out_channels: cout,
        kernel: 3,
        image: img,
        batch,
        points,
    }
}

/// Int8 conv density sweep: the quantized datapath's dense and event
/// routes (dispatcher-forced) on binary `u8` inputs, with the f32
/// dense route on the same sparsity pattern as the baseline.
fn sweep_conv_int8(reps: usize, sz: &Sizes) -> Int8ConvDensitySweep {
    let (cin, cout, img, batch) = sz.conv;
    let g = Conv2dGeometry::new(cin, cout, 3, 1, 1, img, img).expect("valid geometry");
    let rows = g.col_rows();
    let plane = g.out_h() * g.out_w();
    let w_f32 = lcg_tensor(g.weight_shape(), 11, 0.3);
    let b_f32 = lcg_tensor(Shape::d1(cout), 13, 0.1);
    let w = lcg_i8(cout * rows, 67);
    let wt = transpose_i8(&w, cout, rows);
    let mut scratch = ConvScratch::new();
    let mut qscratch = QConvScratch::new();
    let mut acc = vec![0i32; batch * cout * plane];
    let points = SWEEP_SPARSITIES
        .iter()
        .map(|&sp| {
            let x = spike_tensor(Shape::d4(batch, cin, img, img), 19 + sp, 100 - sp);
            let xq: Vec<u8> = x.as_slice().iter().map(|&v| u8::from(v != 0.0)).collect();
            set_event_density_threshold(-1.0);
            let f32_dense_seconds = time_serial(reps, || {
                let (_, r) =
                    conv2d_forward_routed(&g, &x, &w_f32, &b_f32, &mut scratch).expect("shapes");
                assert_eq!(r, ConvRoute::Dense);
            });
            let dense_seconds = time_serial(reps, || {
                let r = qconv2d_forward_routed(&g, &xq, batch, &w, &wt, &mut acc, &mut qscratch);
                assert_eq!(r, ConvRoute::Dense);
            });
            set_event_density_threshold(1.0);
            let event_seconds = time_serial(reps, || {
                let r = qconv2d_forward_routed(&g, &xq, batch, &w, &wt, &mut acc, &mut qscratch);
                assert_eq!(r, ConvRoute::Event);
            });
            set_event_density_threshold(f32::NAN); // back to env/default
            Int8ConvSweepPoint {
                sparsity_pct: sp,
                input_density: measured_density(&x),
                f32_dense_seconds,
                dense_seconds,
                event_seconds,
                event_speedup: dense_seconds / event_seconds,
                int8_dense_vs_f32: f32_dense_seconds / dense_seconds,
                int8_event_vs_f32: f32_dense_seconds / event_seconds,
            }
        })
        .collect();
    Int8ConvDensitySweep {
        in_channels: cin,
        out_channels: cout,
        kernel: 3,
        image: img,
        batch,
        points,
    }
}

/// Dense int8 GEMM vs dense f32 GEMM, same multiply count, serial:
/// against `matmul_nt` (the gated `int8_speedup`) and against the
/// dense layers' pre-transposed `matmul`.
fn bench_int8_gemm(reps: usize, sz: &Sizes) -> Int8GemmBench {
    let (m, k, n) = sz.gemm;
    let a_dense = lcg_tensor(Shape::d2(m, k), 23, 1.0);
    let b = lcg_tensor(Shape::d2(n, k), 31, 0.3);
    let f32_seconds = time_serial(reps, || {
        let _ = linalg::matmul_nt(&a_dense, &b).expect("valid shapes");
    });
    let bt = linalg::transpose(&b).expect("rank 2");
    let f32_layer_seconds = time_serial(reps, || {
        let _ = linalg::matmul(&a_dense, &bt).expect("valid shapes");
    });
    let w = lcg_i8(m * k, 71);
    let x = level_u8(k * n, 73);
    let mut acc = vec![0i32; m * n];
    let int8_seconds = time_serial(reps, || {
        acc.fill(0);
        qgemm_into(&w, &x, &mut acc, m, k, n);
    });
    Int8GemmBench {
        m,
        k,
        n,
        f32_kernel: "matmul_nt",
        f32_seconds,
        int8_seconds,
        int8_speedup: f32_seconds / int8_seconds,
        f32_layer_seconds,
        int8_speedup_vs_layer: f32_layer_seconds / int8_seconds,
    }
}

/// GEMM density sweep: binary LHS at each density (spike-gather path)
/// against a dense analog LHS of the same shape, serial.
fn sweep_gemm(reps: usize, sz: &Sizes) -> GemmDensitySweep {
    let (m, k, n) = sz.gemm;
    let a_dense = lcg_tensor(Shape::d2(m, k), 23, 1.0);
    let b = lcg_tensor(Shape::d2(n, k), 31, 0.3);
    let dense_seconds = time_serial(reps, || {
        let _ = linalg::matmul_nt(&a_dense, &b).expect("valid shapes");
    });
    let points = SWEEP_SPARSITIES
        .iter()
        .map(|&sp| {
            let a = spike_tensor(Shape::d2(m, k), 29 + sp, 100 - sp);
            let event_seconds = time_serial(reps, || {
                let _ = linalg::matmul_nt(&a, &b).expect("valid shapes");
            });
            SweepPoint {
                sparsity_pct: sp,
                input_density: measured_density(&a),
                dense_seconds,
                event_seconds,
                event_speedup: dense_seconds / event_seconds,
            }
        })
        .collect();
    GemmDensitySweep { m, k, n, points }
}

/// LIF density sweep: the masked step under a touch mask matching the
/// input's spatial support vs the unmasked step on the same input.
fn sweep_lif(reps: usize, sz: &Sizes) -> LifDensitySweep {
    let (items, channels, side) = sz.lif;
    let plane = side * side;
    let cfg = lif_config();
    let shape = Shape::d2(items, channels * plane);
    let state = LifState {
        membrane: lcg_tensor(shape, 41, 0.6),
        prev_spikes: lcg_tensor(shape, 43, 1.0).map(|v| f32::from(v > 0.0)),
    };
    let bias = Tensor::zeros(Shape::d1(channels));
    let points = SWEEP_SPARSITIES
        .iter()
        .map(|&sp| {
            // Spatial support at the target density, shared by every
            // channel — the shape of an event-route conv output.
            let marked = spike_tensor(Shape::d2(items, plane), 53 + sp, 100 - sp);
            let raw = lcg_tensor(shape, 59, 1.0);
            let input = Tensor::from_fn(shape, |i| {
                let f = i % (channels * plane);
                let pos = f % plane;
                let item = i / (channels * plane);
                raw.as_slice()[i] * marked.as_slice()[item * plane + pos]
            });
            let mut touch = TouchMask::new();
            touch.build_from_nonzero(input.as_slice(), items, channels, plane);
            let mut stepped = state.clone();
            let dense_seconds = time_serial(reps, || {
                let _ = lif_step_in_place(&cfg, &mut stepped, &input);
            });
            let event_seconds = time_serial(reps, || {
                let _ = lif_step_masked(&cfg, &state, &input, &touch, &bias);
            });
            SweepPoint {
                sparsity_pct: sp,
                input_density: measured_density(&input),
                dense_seconds,
                event_seconds,
                event_speedup: dense_seconds / event_seconds,
            }
        })
        .collect();
    LifDensitySweep { items, channels, plane, points }
}

/// Times `net` over each sparsity's frames, pinned to the dense route
/// and with adaptive dispatch (the production default), serially.
fn sweep_network(
    reps: usize,
    net: &mut SpikingNetwork,
    frames_at: impl Fn(u64) -> Vec<Tensor>,
) -> Vec<SweepPoint> {
    SWEEP_SPARSITIES
        .iter()
        .map(|&sp| {
            let frames = frames_at(sp);
            let density = frames.iter().map(measured_density).sum::<f64>() / frames.len() as f64;
            set_event_density_threshold(-1.0);
            let dense_seconds = time_serial(reps, || {
                let _ = net.run_inference(&frames);
            });
            set_event_density_threshold(f32::NAN); // adaptive default
            let event_seconds = time_serial(reps, || {
                let _ = net.run_inference(&frames);
            });
            SweepPoint {
                sparsity_pct: sp,
                input_density: density,
                dense_seconds,
                event_seconds,
                event_speedup: dense_seconds / event_seconds,
            }
        })
        .collect()
}

/// End-to-end forward sweep: a small conv network over `timesteps`
/// frames that differ per step, adaptive dispatch vs pinned dense.
fn sweep_forward(reps: usize, sz: &Sizes) -> ForwardDensitySweep {
    let (in_ch, img, filters, timesteps) = sz.fwd;
    let batch = sz.fwd_batch;
    let lif = lif_config();
    let mut net = SpikingNetwork::builder(Shape::d3(in_ch, img, img), 17)
        .conv(filters, 3, 1, 1, lif)
        .expect("valid conv")
        .conv(filters, 3, 1, 1, lif)
        .expect("valid conv")
        .flatten()
        .expect("flatten")
        .dense(10, lif)
        .expect("valid dense")
        .build()
        .expect("valid network");
    let topology = format!("{in_ch}x{img}x{img} -> {filters}C3 -> {filters}C3 -> fc10");
    let points = sweep_network(reps, &mut net, |sp| {
        (0..timesteps)
            .map(|t| spike_tensor(Shape::d4(batch, in_ch, img, img), 61 + sp + t as u64, 100 - sp))
            .collect()
    });
    ForwardDensitySweep { batch, timesteps, topology, points }
}

/// The serving case: the paper topology (3-channel input, 10
/// classes) under direct coding — one frame presented at every
/// timestep, as clones that share its storage, so conv1 computes its
/// current once per sequence.
fn sweep_forward_direct(reps: usize, sz: &Sizes) -> ForwardDensitySweep {
    let (img, batch, timesteps) = sz.direct;
    let mut net = SpikingNetwork::paper_topology(Shape::d3(3, img, img), 10, lif_config(), 19)
        .expect("valid paper topology");
    let topology = format!("3x{img}x{img} -> 32C3-P2-32C3-MP2-256-10, direct coding");
    let points = sweep_network(reps, &mut net, |sp| {
        vec![spike_tensor(Shape::d4(batch, 3, img, img), 67 + sp, 100 - sp); timesteps]
    });
    ForwardDensitySweep { batch, timesteps, topology, points }
}

fn print_scaling(label: &str, r: &ScalingResult) {
    for ((t, s), limited) in r.threads.iter().zip(&r.seconds).zip(&r.host_limited) {
        let mark = if *limited { "  (host-limited)" } else { "" };
        println!("  {label} {t} thread(s): {:>9.3} ms{mark}", s * 1e3);
    }
}

fn print_sweep(title: &str, points: &[SweepPoint]) {
    println!("{title}:");
    println!("  sparsity   density   dense ms   event ms   speedup");
    for p in points {
        println!(
            "  {:>7}%   {:>6.3}   {:>8.3}   {:>8.3}   {:>6.2}x",
            p.sparsity_pct,
            p.input_density,
            p.dense_seconds * 1e3,
            p.event_seconds * 1e3,
            p.event_speedup
        );
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut reps: Option<usize> = None;
    let mut out = String::from("BENCH_kernels.json");
    let mut pretty = false;
    let mut smoke = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json-pretty" => {
                pretty = true;
                i += 1;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--reps" => {
                reps = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .filter(|&r| r > 0)
                        .unwrap_or_else(|| {
                            eprintln!("error: --reps requires a positive integer");
                            std::process::exit(2);
                        }),
                );
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: bench_kernels [--reps N] [--out FILE] [--json-pretty] [--smoke]");
                std::process::exit(2);
            }
        }
    }
    let reps = reps.unwrap_or(if smoke { 5 } else { 30 });
    let sizes = if smoke { SMOKE } else { FULL };

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("=== kernel scaling: serial vs 2/4/8 threads, dense vs 90% sparse ===");
    println!(
        "host parallelism: {host} hardware threads, {reps} reps per point{}\n",
        if smoke { " (smoke shapes)" } else { "" }
    );

    let conv = bench_conv(reps, host, &sizes);
    println!(
        "conv2d_forward {}x{}x{}x{} (batch {}):",
        conv.in_channels, conv.image, conv.image, conv.out_channels, conv.batch
    );
    print_scaling("dense   ", &conv.dense);
    print_scaling("sparse90", &conv.sparse90);
    println!(
        "  4-thread speedup: dense {:.2}x, sparse {:.2}x; sparse-path gain (serial): {:.2}x\n",
        conv.dense.speedup_4_threads,
        conv.sparse90.speedup_4_threads,
        conv.sparse_path_speedup_serial
    );

    let gemm = bench_gemm(reps, host, &sizes);
    println!("matmul_nt {}x{} * ({}x{})T:", gemm.m, gemm.k, gemm.n, gemm.k);
    print_scaling("dense   ", &gemm.dense);
    print_scaling("sparse90", &gemm.sparse90);
    println!(
        "  4-thread speedup: dense {:.2}x, sparse {:.2}x; sparse-path gain (serial): {:.2}x",
        gemm.dense.speedup_4_threads,
        gemm.sparse90.speedup_4_threads,
        gemm.sparse_path_speedup_serial
    );
    println!(
        "matmul {}x{} * {}x{} (W^T pre-transposed, the dense layers' path):",
        gemm.m, gemm.k, gemm.k, gemm.n
    );
    print_scaling("dense   ", &gemm.pretransposed_dense);
    print_scaling("sparse90", &gemm.pretransposed_sparse90);
    println!(
        "  serial speedup over matmul_nt: dense {:.2}x, sparse {:.2}x\n",
        gemm.pretransposed_speedup_serial_dense, gemm.pretransposed_speedup_serial_sparse90
    );

    let int8_gemm = bench_int8_gemm(reps, &sizes);
    println!(
        "int8 gemm {}x{} * {}x{} (dense operands, serial):",
        int8_gemm.m, int8_gemm.k, int8_gemm.k, int8_gemm.n
    );
    println!(
        "  f32 {} {:>9.3} ms   int8 {:>9.3} ms   int8 speedup {:.2}x",
        int8_gemm.f32_kernel,
        int8_gemm.f32_seconds * 1e3,
        int8_gemm.int8_seconds * 1e3,
        int8_gemm.int8_speedup
    );
    println!(
        "  f32 layer path {:>9.3} ms   int8 speedup over it {:.2}x\n",
        int8_gemm.f32_layer_seconds * 1e3,
        int8_gemm.int8_speedup_vs_layer
    );

    let lif = bench_lif(reps, host, &sizes);
    println!("lif_step over {} elements:", lif.elements);
    print_scaling("", &lif.scaling);
    println!("  4-thread speedup: {:.2}x\n", lif.scaling.speedup_4_threads);

    let lif_row = bench_int8_lif_row(reps, &sizes);
    println!(
        "int8 lif row {}x{} rows of {} (serial, ns per neuron):",
        lif_row.items, lif_row.channels, lif_row.row
    );
    println!(
        "  certified {:.3}   fallback {:.3} ({:.1}x)   f32 lif_step {:.3} ({:.2}x of certified)\n",
        lif_row.certified_ns_per_neuron,
        lif_row.fallback_ns_per_neuron,
        lif_row.fallback_vs_certified,
        lif_row.f32_ns_per_neuron,
        lif_row.certified_vs_f32
    );

    let maxpool = bench_maxpool(reps, &sizes);
    println!(
        "max pool 2x2/2, {} items x {} channels, {}% spikes (serial, ns per input):",
        maxpool.items, maxpool.channels, maxpool.spike_density_pct
    );
    for p in &maxpool.points {
        println!(
            "  {:>2}x{:<2}  u8 {:.4}   f32 {:.4}   u8 vs f32 {:.2}x",
            p.side, p.side, p.u8_ns_per_input, p.f32_ns_per_input, p.u8_vs_f32
        );
    }
    println!();

    let spike_count = bench_spike_count(reps, &sizes);
    println!(
        "spike count per item, {}x{}x{}x{} (serial, ns per element; f32 lif_step {:.4}):",
        spike_count.items,
        spike_count.channels,
        spike_count.side,
        spike_count.side,
        spike_count.lif_ns_per_element
    );
    for p in &spike_count.points {
        println!(
            "  {:>2}%  lanes {:.4}   naive {:.4}   lanes vs naive {:.2}x",
            p.density_pct, p.ns_per_element, p.naive_ns_per_element, p.lanes_vs_naive
        );
    }
    println!();

    println!("=== density sweep: event-driven vs dense routes, serial ===\n");
    let conv_sweep = sweep_conv(reps, &sizes);
    print_sweep("conv2d (event-driven vs im2col + dense GEMM routes)", &conv_sweep.points);
    let int8_conv_sweep = sweep_conv_int8(reps, &sizes);
    println!("conv2d int8 (integer dense vs event routes, f32 dense baseline):");
    println!("  sparsity   density   f32 ms   int8 ms   event ms   event gain   vs f32");
    for p in &int8_conv_sweep.points {
        println!(
            "  {:>7}%   {:>6.3}   {:>6.3}   {:>7.3}   {:>8.3}   {:>9.2}x   {:>5.2}x",
            p.sparsity_pct,
            p.input_density,
            p.f32_dense_seconds * 1e3,
            p.dense_seconds * 1e3,
            p.event_seconds * 1e3,
            p.event_speedup,
            p.int8_event_vs_f32
        );
    }
    println!();
    let gemm_sweep = sweep_gemm(reps, &sizes);
    print_sweep("gemm_nt (spike-gather vs dense analog LHS)", &gemm_sweep.points);
    let lif_sweep = sweep_lif(reps, &sizes);
    print_sweep("lif_step (masked vs unmasked)", &lif_sweep.points);
    let fwd_sweep = sweep_forward(reps, &sizes);
    println!("forward topology: {} (T={})", fwd_sweep.topology, fwd_sweep.timesteps);
    print_sweep("network forward (adaptive dispatch vs pinned dense)", &fwd_sweep.points);
    let direct_sweep = sweep_forward_direct(reps, &sizes);
    println!("forward_direct topology: {} (T={})", direct_sweep.topology, direct_sweep.timesteps);
    print_sweep("direct-coded forward (adaptive dispatch vs pinned dense)", &direct_sweep.points);

    let report = KernelReport {
        schema_version: snn_bench::BENCH_SCHEMA_VERSION,
        git_commit: snn_bench::git_commit(),
        host_parallelism: host,
        reps,
        smoke,
        conv2d_forward: conv,
        gemm_nt: gemm,
        int8_gemm,
        lif_step: lif,
        int8_lif_row: lif_row,
        maxpool,
        spike_count,
        density_sweep: DensitySweep {
            sparsities_pct: SWEEP_SPARSITIES.to_vec(),
            conv2d: conv_sweep,
            conv2d_int8: int8_conv_sweep,
            gemm_nt: gemm_sweep,
            lif_step: lif_sweep,
            forward: fwd_sweep,
            forward_direct: direct_sweep,
        },
        span_histograms: snn_obs::global().histogram_snapshots(),
    };
    let json = if pretty {
        serde_json::to_string_pretty(&report).expect("report serializes")
    } else {
        serde_json::to_string(&report).expect("report serializes")
    };
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("error: could not write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}
