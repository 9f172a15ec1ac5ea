//! 2-D convolution kernels with hand-written backward passes.
//!
//! Weights are stored as rank-2 `[out_channels, in_channels*kh*kw]`
//! matrices. The forward pass has two routes, chosen per call by the
//! sparsity-adaptive dispatcher ([`crate::dispatch`]) from the
//! *measured* input density:
//!
//! * **Dense** — im2col then one GEMM per batch item:
//!   `Y_n = W · im2col(X_n)`.
//! * **Event** — no im2col at all: the input's active positions (a
//!   compressed [`crate::spike::SpikeTensor`]) each scatter their
//!   kernel taps into the output, so the work scales with the firing
//!   rate instead of the tensor volume.
//!
//! Both routes are bitwise identical: for every output element the
//! event route delivers exactly the nonzero terms of the dense GEMM's
//! ascending-`p` accumulation, in the same order (active positions
//! are scanned in item memory order, which for any fixed output
//! element is ascending im2col-row order), and the skipped terms are
//! exact zeros that cannot move a `+0.0`-seeded IEEE-754 accumulator
//! (see [`crate::linalg`] on exactness).
//!
//! The backward pass uses the transposed products from
//! [`crate::linalg`] plus `col2im` scatter; its dW product gathers
//! over a [`linalg::SpikeIndex`] of the im2col matrix when the cached
//! forward input is sparse and binary (there is no event route
//! backward).

use serde::{Deserialize, Serialize};

use crate::dispatch::{self, ConvRoute};
use crate::error::{Result, TensorError};
use crate::kobs::DensityGauge;
use crate::linalg::{self, gemm_into};
use crate::par;
use crate::shape::Shape;
use crate::spike::{SpikeScan, SpikeTensor, TouchMask};
use crate::tensor::Tensor;

static CONV_INPUT_DENSITY: DensityGauge = DensityGauge::new(
    "snn_tensor_conv2d_input_density_ratio",
    "fraction of nonzero elements in the most recent conv2d forward input batch",
);

/// Static geometry of a 2-D convolution.
///
/// # Examples
///
/// ```
/// use snn_tensor::conv::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 32, 3, 1, 1, 32, 32)?;
/// assert_eq!((g.out_h(), g.out_w()), (32, 32));
/// assert_eq!(g.weight_shape().dims(), &[32, 3 * 3 * 3]);
/// # Ok::<(), snn_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count (number of filters).
    pub out_channels: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
    /// Input spatial height.
    pub in_h: usize,
    /// Input spatial width.
    pub in_w: usize,
}

impl Conv2dGeometry {
    /// Creates and validates a convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadGeometry`] if any dimension is zero,
    /// the kernel exceeds the padded input, or the stride is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        in_h: usize,
        in_w: usize,
    ) -> Result<Self> {
        let g = Conv2dGeometry { in_channels, out_channels, kernel, stride, padding, in_h, in_w };
        if in_channels == 0 || out_channels == 0 || kernel == 0 || in_h == 0 || in_w == 0 {
            return Err(TensorError::BadGeometry(format!("zero-sized convolution: {g:?}")));
        }
        if stride == 0 {
            return Err(TensorError::BadGeometry("stride must be nonzero".into()));
        }
        if kernel > in_h + 2 * padding || kernel > in_w + 2 * padding {
            return Err(TensorError::BadGeometry(format!(
                "kernel {kernel} exceeds padded input {}x{}",
                in_h + 2 * padding,
                in_w + 2 * padding
            )));
        }
        Ok(g)
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Rows of the im2col matrix: `in_channels * kernel²`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Columns of the im2col matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Shape of the weight matrix: `[out_channels, col_rows]`.
    pub fn weight_shape(&self) -> Shape {
        Shape::d2(self.out_channels, self.col_rows())
    }

    /// Shape of one input item `[in_channels, in_h, in_w]`.
    pub fn input_item_shape(&self) -> Shape {
        Shape::d3(self.in_channels, self.in_h, self.in_w)
    }

    /// Shape of one output item `[out_channels, out_h, out_w]`.
    pub fn output_item_shape(&self) -> Shape {
        Shape::d3(self.out_channels, self.out_h(), self.out_w())
    }

    /// Multiply–accumulate count for a dense forward pass of one item.
    ///
    /// Used by the accelerator workload model as the dense-work upper
    /// bound.
    pub fn dense_macs(&self) -> u64 {
        (self.out_channels * self.col_rows() * self.col_cols()) as u64
    }

    /// Per-spike synaptic fan-out: how many output accumulations one
    /// input spike triggers in an event-driven dataflow
    /// (`out_channels * kernel² / stride²`, the average number of
    /// output positions covered by one input pixel).
    pub fn spike_fanout(&self) -> f64 {
        let per_pixel = (self.kernel as f64 / self.stride as f64).powi(2);
        self.out_channels as f64 * per_pixel
    }
}

/// Expands one input item `[C, H, W]` into the im2col matrix
/// `[C*k*k, out_h*out_w]`, writing into `cols`.
///
/// Out-of-bounds (padding) taps contribute zeros.
///
/// # Panics
///
/// Debug-asserts that the buffer lengths match the geometry.
pub fn im2col(g: &Conv2dGeometry, input: &[f32], cols: &mut [f32]) {
    debug_assert_eq!(input.len(), g.in_channels * g.in_h * g.in_w);
    debug_assert_eq!(cols.len(), g.col_rows() * g.col_cols());
    let (oh, ow) = (g.out_h(), g.out_w());
    let n_cols = oh * ow;
    cols.fill(0.0);
    for c in 0..g.in_channels {
        let chan = &input[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                let row = (c * g.kernel + ky) * g.kernel + kx;
                let out_row = &mut cols[row * n_cols..(row + 1) * n_cols];
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                    if iy < 0 || iy >= g.in_h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                        if ix < 0 || ix >= g.in_w as isize {
                            continue;
                        }
                        out_row[oy * ow + ox] = chan[iy * g.in_w + ix as usize];
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters a `[C*k*k, out_h*out_w]` gradient
/// matrix back onto a `[C, H, W]` input-gradient buffer (accumulating).
///
/// # Panics
///
/// Debug-asserts that the buffer lengths match the geometry.
pub fn col2im(g: &Conv2dGeometry, cols: &[f32], grad_input: &mut [f32]) {
    debug_assert_eq!(grad_input.len(), g.in_channels * g.in_h * g.in_w);
    debug_assert_eq!(cols.len(), g.col_rows() * g.col_cols());
    let (oh, ow) = (g.out_h(), g.out_w());
    let n_cols = oh * ow;
    for c in 0..g.in_channels {
        let chan = &mut grad_input[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                let row = (c * g.kernel + ky) * g.kernel + kx;
                let col_row = &cols[row * n_cols..(row + 1) * n_cols];
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                    if iy < 0 || iy >= g.in_h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                        if ix < 0 || ix >= g.in_w as isize {
                            continue;
                        }
                        chan[iy * g.in_w + ix as usize] += col_row[oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Reusable workspace for [`conv2d_forward_with`] and
/// [`conv2d_backward_with`]: per-worker im2col buffers, column
/// gradients, the spike index of the backward dW gather, and the
/// event route's weight tiles.
///
/// A layer that owns one of these allocates its buffers on the first
/// timestep and reuses them for the rest of the sequence (and for
/// every following batch with the same geometry).
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    /// One buffer set per worker thread, grown on demand.
    bufs: Vec<ConvBufs>,
    /// Compressed index of the whole input batch; the build scan is
    /// also the dispatcher's density measurement.
    input_spikes: SpikeTensor,
    /// Output positions the most recent event-route forward wrote;
    /// valid only when [`conv2d_forward_routed`] returned
    /// [`ConvRoute::Event`].
    touch: TouchMask,
    /// Event-route weight tiles, rebuilt on every event-route call
    /// and read by all workers (see [`build_event_tiles`]).
    wt_tiles: Vec<f32>,
}

impl ConvScratch {
    /// Empty scratch; buffers are allocated lazily per worker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Touch mask of the most recent [`conv2d_forward_routed`] call.
    ///
    /// Meaningful only when that call returned [`ConvRoute::Event`]:
    /// every output spatial position receiving any synaptic input is
    /// marked, per batch item, so a following masked LIF step can
    /// skip the rest. After a [`ConvRoute::Dense`] forward the mask
    /// is stale.
    pub fn touch(&self) -> &TouchMask {
        &self.touch
    }
}

#[derive(Debug, Clone, Default)]
struct ConvBufs {
    cols: Vec<f32>,
    col_grad: Vec<f32>,
    /// Backward-only: row index of a binary im2col matrix for the
    /// dW gather.
    spikes: linalg::SpikeIndex,
    /// Event-route tap list: `(im2col_row, out_position)` pairs for
    /// one item's active pixels, shared across all output channels.
    taps: Vec<(u32, u32)>,
    /// CSR starts into `pos_rows`, length `plane + 1`: the event
    /// route's taps regrouped by output position.
    pos_ptr: Vec<u32>,
    /// Weight rows feeding each output position, in original (i.e.
    /// ascending-row) tap order.
    pos_rows: Vec<u32>,
}

/// Density bound for the backward pass's dW product to gather over a
/// [`linalg::SpikeIndex`] of the im2col matrix instead of running the
/// dense dot (backward only: the forward pass's sparse inputs take
/// the event route). The scalar row-gather only beats the dense
/// kernel's vectorized contiguous sweeps once most of the arithmetic
/// is skippable; the crossover sits near 1/8 nonzero. The bound is
/// applied to the *measured* batch density of the cached forward
/// input (not a per-item guess), so path choice depends only on the
/// data, never on the thread count, and the two paths agree bitwise
/// regardless (see [`crate::linalg`] on exactness).
fn im2col_sparse_wins(scan: &SpikeScan) -> bool {
    scan.binary && 8 * scan.nnz <= scan.len
}

/// Forward convolution on a `[N, C, H, W]` batch.
///
/// `weight` must have shape [`Conv2dGeometry::weight_shape`]; `bias`
/// is a rank-1 tensor of length `out_channels`.
///
/// Allocates fresh scratch per call; layers evaluating a sequence
/// should hold a [`ConvScratch`] and call [`conv2d_forward_with`].
///
/// # Errors
///
/// Returns a [`TensorError`] if input/weight/bias shapes disagree with
/// the geometry.
pub fn conv2d_forward(
    g: &Conv2dGeometry,
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
) -> Result<Tensor> {
    conv2d_forward_with(g, input, weight, bias, &mut ConvScratch::new())
}

/// [`conv2d_forward`] with caller-owned scratch buffers.
///
/// Delegates to [`conv2d_forward_routed`] and discards the route
/// taken; callers that feed a masked LIF step should use the routed
/// entry point directly.
///
/// # Errors
///
/// Returns a [`TensorError`] if input/weight/bias shapes disagree with
/// the geometry.
pub fn conv2d_forward_with(
    g: &Conv2dGeometry,
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    scratch: &mut ConvScratch,
) -> Result<Tensor> {
    conv2d_forward_routed(g, input, weight, bias, scratch).map(|(out, _)| out)
}

/// Forward convolution with sparsity-adaptive routing.
///
/// One linear scan of the input batch measures its exact density and
/// (when binary and at most the dispatcher threshold nonzero) builds
/// the compressed [`SpikeTensor`] in `scratch`. Dense inputs, or
/// binary inputs above the threshold, take the im2col + GEMM route;
/// sparse binary inputs take the event-driven scatter route, which
/// never materializes im2col and whose work scales with the spike
/// count. Batch items are independent and split across the worker
/// pool on both routes; route choice depends only on the data and
/// the configured threshold, never on the thread count, and both
/// routes agree bitwise (module docs).
///
/// On [`ConvRoute::Event`], [`ConvScratch::touch`] holds the output
/// positions that received any synaptic input.
///
/// # Errors
///
/// Returns a [`TensorError`] if input/weight/bias shapes disagree with
/// the geometry.
pub fn conv2d_forward_routed(
    g: &Conv2dGeometry,
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    scratch: &mut ConvScratch,
) -> Result<(Tensor, ConvRoute)> {
    check_batch_input(g, input)?;
    check_params(g, weight, bias)?;
    let _span = snn_obs::span!("conv2d_fwd");
    let n = input.shape().dim(0);
    let (oh, ow) = (g.out_h(), g.out_w());
    let item_in = g.in_channels * g.in_h * g.in_w;
    let item_out = g.out_channels * oh * ow;
    let col_elems = g.col_rows() * g.col_cols();
    let mut out = Tensor::zeros(Shape::d4(n, g.out_channels, oh, ow));
    if n == 0 || item_out == 0 {
        return Ok((out, ConvRoute::Dense));
    }
    let (iv, wv, bv) = (input.as_slice(), weight.as_slice(), bias.as_slice());
    // Copy bias to a local so the borrow checker lets us write `out`.
    let bias_local: Vec<f32> = bv.to_vec();

    // Dispatch: one scan measures the exact batch density and builds
    // the compressed index when the event route is in play.
    let threshold = dispatch::event_density_threshold();
    let event_enabled = threshold >= 0.0;
    let event_bound = if event_enabled {
        (threshold as f64 * (n * item_in) as f64) as usize
    } else {
        0
    };
    let scan = scratch.input_spikes.build(iv, n, item_in, event_bound);
    CONV_INPUT_DENSITY.set_ratio(scan.density());
    let route = if event_enabled && scan.compressed { ConvRoute::Event } else { ConvRoute::Dense };
    dispatch::record_conv_route(route);

    let ov = out.as_mut_slice();
    if route == ConvRoute::Event {
        // Per-item event work: each spike fans out to at most
        // `spike_fanout` output accumulations.
        let event_macs = (scan.nnz as f64 / n as f64 * g.spike_fanout()) as usize;
        let min_items = par::min_granules_for(2 * event_macs);
        let plane = oh * ow;
        build_event_tiles(g, wv, &mut scratch.wt_tiles);
        let tiles = &scratch.wt_tiles;
        let spikes = &scratch.input_spikes;
        let touched = scratch.touch.reset_bytes(n, plane);
        par::for_each_block2_with(
            ov,
            item_out,
            touched,
            plane,
            min_items,
            &mut scratch.bufs,
            ConvBufs::default,
            |bufs, item0, block, tblock| {
                for (i, out_item) in block.chunks_exact_mut(item_out).enumerate() {
                    conv_event_item(
                        g,
                        spikes.item(item0 + i),
                        wv,
                        tiles,
                        out_item,
                        &mut bufs.taps,
                        &mut bufs.pos_ptr,
                        &mut bufs.pos_rows,
                        &mut tblock[i * plane..(i + 1) * plane],
                    );
                    add_item_bias(&bias_local, out_item, plane);
                }
            },
        );
        return Ok((out, ConvRoute::Event));
    }

    let min_items = par::min_granules_for(2 * g.dense_macs() as usize);
    par::for_each_block_with(
        ov,
        item_out,
        min_items,
        &mut scratch.bufs,
        ConvBufs::default,
        |bufs, item0, block| {
            bufs.cols.resize(col_elems, 0.0);
            for (i, out_item) in block.chunks_exact_mut(item_out).enumerate() {
                let item = item0 + i;
                im2col(g, &iv[item * item_in..(item + 1) * item_in], &mut bufs.cols);
                gemm_into(wv, &bufs.cols, out_item, g.out_channels, g.col_rows(), g.col_cols());
                add_item_bias(&bias_local, out_item, plane_of(g));
            }
        },
    );
    Ok((out, ConvRoute::Dense))
}

fn plane_of(g: &Conv2dGeometry) -> usize {
    g.out_h() * g.out_w()
}

/// Adds the per-channel bias to one output item, exactly as the
/// serial reference does: after all synaptic contributions, skipping
/// exact-zero biases (adding `±0.0` to any value is bitwise inert on
/// the `+0.0`-seeded accumulators both routes produce).
fn add_item_bias(bias: &[f32], out_item: &mut [f32], plane: usize) {
    for (oc, &b) in bias.iter().enumerate() {
        if b != 0.0 {
            for v in &mut out_item[oc * plane..(oc + 1) * plane] {
                *v += b;
            }
        }
    }
}

/// Output channels per event-route gather sweep.
const LANES: usize = 8;

/// Lays `wv`'s full `LANES`-channel groups out for the event route:
/// group `q`'s rows interleaved `[row][lane]` at
/// `tiles[q·LANES·col_rows..]`, so a weight row of the group is one
/// contiguous `LANES`-wide load. Channels past the last full group
/// are left out (the gather reads their `wv` rows directly). The
/// values are copies, so the event route's sums do not change.
fn build_event_tiles(g: &Conv2dGeometry, wv: &[f32], tiles: &mut Vec<f32>) {
    let col_rows = g.col_rows();
    let full = g.out_channels / LANES * LANES;
    tiles.clear();
    tiles.resize(full * col_rows, 0.0);
    for (tile, wgroup) in
        tiles.chunks_exact_mut(LANES * col_rows).zip(wv.chunks_exact(LANES * col_rows))
    {
        for (lane, w) in wgroup.chunks_exact(col_rows).enumerate() {
            for (row, &val) in w.iter().enumerate() {
                tile[row * LANES + lane] = val;
            }
        }
    }
}

/// Event-driven convolution of one batch item.
///
/// Phase 1 walks the item's active positions in memory order and
/// materializes the tap list: for each active pixel `(c, iy, ix)`,
/// every kernel offset `(ky, kx)` that lands on a valid output
/// position contributes the pair `(row, out_pos)` with
/// `row = (c·k + ky)·k + kx` (the im2col row whose weight multiplies
/// this pixel) and `out_pos = oy·ow + ox`. The taps are then
/// counting-sorted into per-position row lists (CSR over `out_pos`),
/// and phase 2 gathers: for each touched output position, the active
/// rows' weights are summed into registers and stored once (the
/// `× 1.0` spike factor is elided, exactly). Output channels are
/// processed eight at a time against their group's tile in `tiles`
/// (built once per call by [`build_event_tiles`]), so every weight
/// row costs one contiguous 8-lane load and the eight accumulation
/// chains stay independent; the leftover channels read `wv` rows.
///
/// **Ordering:** for any fixed output element, ascending pixel order
/// maps to ascending `row` order (for fixed `oy`, `ky = iy + pad −
/// oy·stride` grows with `iy`; likewise `kx` with `ix`; the channel
/// is the major key of both orders) — and a `(row, out_pos)` pair is
/// unique, since `row` and `out_pos` together determine the input
/// pixel. The stable counting sort by `out_pos` therefore hands each
/// output element its nonzero terms in exactly the dense GEMM's
/// ascending-`p` accumulation order — the same sequence of f32
/// additions from the same `+0.0` start — and the result is bitwise
/// identical (register vs in-memory accumulation rounds identically).
///
/// `touched` (one byte per output spatial position, zeroed by the
/// caller) is marked at every written position — identical for all
/// output channels, since taps are channel-independent.
#[allow(clippy::too_many_arguments)]
fn conv_event_item(
    g: &Conv2dGeometry,
    active: &[u32],
    wv: &[f32],
    tiles: &[f32],
    out_item: &mut [f32],
    taps: &mut Vec<(u32, u32)>,
    pos_ptr: &mut Vec<u32>,
    pos_rows: &mut Vec<u32>,
    touched: &mut [u8],
) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let plane = oh * ow;
    let k = g.kernel;
    let plane_in = g.in_h * g.in_w;
    let col_rows = g.col_rows();
    taps.clear();
    for &p in active {
        let p = p as usize;
        let c = p / plane_in;
        let rem = p % plane_in;
        let iy = rem / g.in_w;
        let ix = rem % g.in_w;
        // oy·stride + ky = iy + padding (and likewise for x), so a
        // kernel offset is valid iff the difference is a non-negative
        // multiple of the stride landing inside the output.
        for ky in 0..k {
            if iy + g.padding < ky {
                break; // larger ky only grows the deficit
            }
            let oy_off = iy + g.padding - ky;
            if !oy_off.is_multiple_of(g.stride) {
                continue;
            }
            let oy = oy_off / g.stride;
            if oy >= oh {
                continue; // too close to the top for this small ky
            }
            for kx in 0..k {
                if ix + g.padding < kx {
                    break;
                }
                let ox_off = ix + g.padding - kx;
                if !ox_off.is_multiple_of(g.stride) {
                    continue;
                }
                let ox = ox_off / g.stride;
                if ox >= ow {
                    continue;
                }
                let row = (c * k + ky) * k + kx;
                let opos = oy * ow + ox;
                taps.push((row as u32, opos as u32));
                touched[opos] = 1;
            }
        }
    }
    // Phase 1.5: counting-sort the taps by output position. The sort
    // is stable, so each position's row list stays in original — i.e.
    // ascending-row — order. After the cursor fill, `pos_ptr[p]` has
    // advanced to the end of position `p`; one backward shift
    // restores the starts.
    pos_ptr.clear();
    pos_ptr.resize(plane + 1, 0);
    for &(_, opos) in taps.iter() {
        pos_ptr[opos as usize + 1] += 1;
    }
    for p in 0..plane {
        pos_ptr[p + 1] += pos_ptr[p];
    }
    pos_rows.clear();
    pos_rows.resize(taps.len(), 0);
    for &(row, opos) in taps.iter() {
        let cursor = &mut pos_ptr[opos as usize];
        pos_rows[*cursor as usize] = row;
        *cursor += 1;
    }
    for p in (1..=plane).rev() {
        pos_ptr[p] = pos_ptr[p - 1];
    }
    pos_ptr[0] = 0;

    // Phase 2: per-position gather, `LANES` output channels per
    // sweep. The group's weight rows are interleaved `[row][lane]` so
    // each active row is one contiguous load, and the accumulators
    // live in registers until the single store. Each lane's sum is a
    // serial dependency chain (the add order is the bitwise
    // contract), so wide groups are what buy instruction-level
    // parallelism: eight independent chains keep the FP adders busy
    // where one would stall on latency.
    let mut groups = out_item.chunks_exact_mut(LANES * plane);
    for (group, tile) in groups.by_ref().zip(tiles.chunks_exact(LANES * col_rows)) {
        for p in 0..plane {
            let (s, e) = (pos_ptr[p] as usize, pos_ptr[p + 1] as usize);
            if s == e {
                continue;
            }
            let mut acc = [0.0f32; LANES];
            for &row in &pos_rows[s..e] {
                let w = &tile[row as usize * LANES..row as usize * LANES + LANES];
                for (a, &wl) in acc.iter_mut().zip(w) {
                    *a += wl;
                }
            }
            for (lane, &a) in acc.iter().enumerate() {
                group[lane * plane + p] = a;
            }
        }
    }
    let mut oc = tiles.len() / col_rows;
    for oplane in groups.into_remainder().chunks_exact_mut(plane) {
        let w0 = &wv[oc * col_rows..(oc + 1) * col_rows];
        for (p, slot) in oplane.iter_mut().enumerate() {
            let (s, e) = (pos_ptr[p] as usize, pos_ptr[p + 1] as usize);
            if s == e {
                continue;
            }
            let mut acc = 0.0f32;
            for &row in &pos_rows[s..e] {
                acc += w0[row as usize];
            }
            *slot = acc;
        }
        oc += 1;
    }
}

/// Gradients of a 2-D convolution.
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input batch, same shape as the input.
    pub grad_input: Tensor,
    /// Gradient w.r.t. the weight matrix.
    pub grad_weight: Tensor,
    /// Gradient w.r.t. the bias vector.
    pub grad_bias: Tensor,
}

/// Backward convolution: given upstream `grad_output` `[N, OC, OH,
/// OW]` and the original `input`, produces all three gradients.
///
/// Allocates fresh scratch per call; layers backpropagating a
/// sequence should hold a [`ConvScratch`] and call
/// [`conv2d_backward_with`].
///
/// # Errors
///
/// Returns a [`TensorError`] if any shape disagrees with the geometry.
pub fn conv2d_backward(
    g: &Conv2dGeometry,
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
) -> Result<Conv2dGrads> {
    conv2d_backward_with(g, input, weight, grad_output, &mut ConvScratch::new())
}

/// [`conv2d_backward`] with caller-owned scratch buffers.
///
/// The input gradient is written per item into disjoint slices; the
/// weight and bias gradients are computed as per-item partials in
/// parallel, then folded sequentially in ascending item order —
/// which is exactly the order the serial loop adds them, so the
/// result is bitwise identical for any thread count.
///
/// # Errors
///
/// Returns a [`TensorError`] if any shape disagrees with the geometry.
pub fn conv2d_backward_with(
    g: &Conv2dGeometry,
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    scratch: &mut ConvScratch,
) -> Result<Conv2dGrads> {
    check_batch_input(g, input)?;
    if grad_output.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: grad_output.shape().rank(),
            op: "conv2d_backward grad_output",
        });
    }
    let n = input.shape().dim(0);
    let expect = Shape::d4(n, g.out_channels, g.out_h(), g.out_w());
    if grad_output.shape() != expect {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_output.shape(),
            rhs: expect,
            op: "conv2d_backward grad_output",
        });
    }
    let _span = snn_obs::span!("conv2d_bwd");
    let (oh, ow) = (g.out_h(), g.out_w());
    let n_cols = oh * ow;
    let item_in = g.in_channels * g.in_h * g.in_w;
    let item_out = g.out_channels * n_cols;
    let col_rows = g.col_rows();
    let col_elems = col_rows * n_cols;
    let wlen = g.out_channels * col_rows;

    let mut grad_input = Tensor::zeros(input.shape());
    let mut grad_weight = Tensor::zeros(g.weight_shape());
    let mut grad_bias = Tensor::zeros(Shape::d1(g.out_channels));
    if n == 0 || item_in == 0 {
        return Ok(Conv2dGrads { grad_input, grad_weight, grad_bias });
    }

    let (iv, wv, gov) = (input.as_slice(), weight.as_slice(), grad_output.as_slice());
    // Measured dW-gather decision: one scan of the cached forward
    // input (max_nnz = 0: only the measurement is needed, not the
    // index).
    let scan = scratch.input_spikes.build(iv, n, item_in, 0);
    let sparse_gemm = im2col_sparse_wins(&scan);
    // Per-item partials for dW and db: [wlen | out_channels] per
    // item. The serial kernel already computes each item's
    // contribution as a standalone dot product before adding it, so
    // materializing the partials and folding them below in item
    // order reproduces the serial sums bit-for-bit.
    let part_len = wlen + g.out_channels;
    let mut partials = vec![0.0f32; n * part_len];
    let gi = grad_input.as_mut_slice();
    // Three passes per item at roughly `dense_macs` each.
    let min_items = par::min_granules_for(6 * g.dense_macs() as usize);
    par::for_each_block2_with(
        gi,
        item_in,
        &mut partials,
        part_len,
        min_items,
        &mut scratch.bufs,
        ConvBufs::default,
        |bufs, item0, gi_block, part_block| {
            bufs.cols.resize(col_elems, 0.0);
            bufs.col_grad.resize(col_elems, 0.0);
            let items = gi_block.len() / item_in;
            for i in 0..items {
                let item = item0 + i;
                let x = &iv[item * item_in..(item + 1) * item_in];
                let dy = &gov[item * item_out..(item + 1) * item_out];
                im2col(g, x, &mut bufs.cols);
                let sparse = sparse_gemm
                    && bufs.spikes.build(&bufs.cols, col_rows, n_cols, col_elems);
                let (dw_part, db_part) =
                    part_block[i * part_len..(i + 1) * part_len].split_at_mut(wlen);

                // dW[oc, r] = sum_col dy[oc, col] * cols[r, col]
                // (A · Bᵀ). For a binary im2col matrix the products
                // are a gather-sum over the row's spike positions —
                // bitwise identical (see `linalg` on exactness).
                for oc in 0..g.out_channels {
                    let dyrow = &dy[oc * n_cols..(oc + 1) * n_cols];
                    let dwrow = &mut dw_part[oc * col_rows..(oc + 1) * col_rows];
                    for (r, dwval) in dwrow.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        if sparse {
                            for &col in bufs.spikes.row(r) {
                                acc += dyrow[col as usize];
                            }
                        } else {
                            let crow = &bufs.cols[r * n_cols..(r + 1) * n_cols];
                            for (&a, &b) in dyrow.iter().zip(crow) {
                                acc += a * b;
                            }
                        }
                        *dwval = acc;
                    }
                }

                // db[oc] = sum over spatial of dy
                for (oc, dbval) in db_part.iter_mut().enumerate() {
                    let dyrow = &dy[oc * n_cols..(oc + 1) * n_cols];
                    *dbval = dyrow.iter().sum::<f32>();
                }

                // col_grad = Wᵀ · dy : [col_rows, n_cols]
                bufs.col_grad.fill(0.0);
                for oc in 0..g.out_channels {
                    let wrow = &wv[oc * col_rows..(oc + 1) * col_rows];
                    let dyrow = &dy[oc * n_cols..(oc + 1) * n_cols];
                    for (r, &wval) in wrow.iter().enumerate() {
                        if wval == 0.0 {
                            continue;
                        }
                        let cg = &mut bufs.col_grad[r * n_cols..(r + 1) * n_cols];
                        for (cgv, &dyv) in cg.iter_mut().zip(dyrow) {
                            *cgv += wval * dyv;
                        }
                    }
                }
                col2im(g, &bufs.col_grad, &mut gi_block[i * item_in..(i + 1) * item_in]);
            }
        },
    );

    // Sequential fold in ascending item order — the same order the
    // serial loop accumulates, hence bitwise identical.
    let gw = grad_weight.as_mut_slice();
    let gb = grad_bias.as_mut_slice();
    for part in partials.chunks_exact(part_len) {
        for (gwval, &p) in gw.iter_mut().zip(&part[..wlen]) {
            *gwval += p;
        }
        for (gbval, &p) in gb.iter_mut().zip(&part[wlen..]) {
            *gbval += p;
        }
    }
    Ok(Conv2dGrads { grad_input, grad_weight, grad_bias })
}

fn check_batch_input(g: &Conv2dGeometry, input: &Tensor) -> Result<()> {
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.shape().rank(),
            op: "conv2d input",
        });
    }
    let expect = Shape::d4(input.shape().dim(0), g.in_channels, g.in_h, g.in_w);
    if input.shape() != expect {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape(),
            rhs: expect,
            op: "conv2d input",
        });
    }
    Ok(())
}

fn check_params(g: &Conv2dGeometry, weight: &Tensor, bias: &Tensor) -> Result<()> {
    if weight.shape() != g.weight_shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: weight.shape(),
            rhs: g.weight_shape(),
            op: "conv2d weight",
        });
    }
    if bias.shape().rank() != 1 || bias.len() != g.out_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: bias.shape(),
            rhs: Shape::d1(g.out_channels),
            op: "conv2d bias",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, oc: usize, k: usize, s: usize, p: usize, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(c, oc, k, s, p, h, w).unwrap()
    }

    /// Direct (reference) convolution for cross-checking im2col+GEMM.
    fn conv_reference(g: &Conv2dGeometry, x: &Tensor, wt: &Tensor, b: &Tensor) -> Tensor {
        let n = x.shape().dim(0);
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = Tensor::zeros(Shape::d4(n, g.out_channels, oh, ow));
        for item in 0..n {
            for oc in 0..g.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b.as_slice()[oc];
                        for c in 0..g.in_channels {
                            for ky in 0..g.kernel {
                                for kx in 0..g.kernel {
                                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                                    let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                                    if iy < 0
                                        || ix < 0
                                        || iy >= g.in_h as isize
                                        || ix >= g.in_w as isize
                                    {
                                        continue;
                                    }
                                    let wv = wt.at2(oc, (c * g.kernel + ky) * g.kernel + kx);
                                    acc += wv * x.at4(item, c, iy as usize, ix as usize);
                                }
                            }
                        }
                        out.set4(item, oc, oy, ox, acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn geometry_output_dims() {
        let g = geom(3, 32, 3, 1, 1, 32, 32);
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g = geom(3, 8, 3, 1, 0, 16, 16);
        assert_eq!((g.out_h(), g.out_w()), (14, 14));
        let g = geom(1, 1, 2, 2, 0, 8, 8);
        assert_eq!((g.out_h(), g.out_w()), (4, 4));
    }

    #[test]
    fn geometry_rejects_bad() {
        assert!(Conv2dGeometry::new(0, 1, 3, 1, 0, 8, 8).is_err());
        assert!(Conv2dGeometry::new(1, 1, 9, 1, 0, 8, 8).is_err());
        assert!(Conv2dGeometry::new(1, 1, 3, 0, 0, 8, 8).is_err());
        assert!(Conv2dGeometry::new(1, 1, 9, 1, 1, 8, 8).is_ok()); // padded 10 >= 9
    }

    #[test]
    fn forward_matches_reference() {
        let g = geom(2, 3, 3, 1, 1, 5, 6);
        let x = Tensor::from_fn(Shape::d4(2, 2, 5, 6), |i| ((i * 37 % 11) as f32 - 5.0) * 0.1);
        let w = Tensor::from_fn(g.weight_shape(), |i| ((i * 17 % 7) as f32 - 3.0) * 0.05);
        let b = Tensor::from_vec(Shape::d1(3), vec![0.1, -0.2, 0.3]).unwrap();
        let got = conv2d_forward(&g, &x, &w, &b).unwrap();
        let want = conv_reference(&g, &x, &w, &b);
        for (a, e) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - e).abs() < 1e-4, "{a} vs {e}");
        }
    }

    #[test]
    fn forward_strided_matches_reference() {
        let g = geom(1, 2, 2, 2, 0, 6, 6);
        let x = Tensor::from_fn(Shape::d4(1, 1, 6, 6), |i| i as f32 * 0.1);
        let w = Tensor::from_fn(g.weight_shape(), |i| (i as f32 - 4.0) * 0.2);
        let b = Tensor::zeros(Shape::d1(2));
        let got = conv2d_forward(&g, &x, &w, &b).unwrap();
        let want = conv_reference(&g, &x, &w, &b);
        for (a, e) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - e).abs() < 1e-4);
        }
    }

    #[test]
    fn backward_weight_grad_matches_numeric() {
        let g = geom(1, 2, 2, 1, 0, 4, 4);
        let x = Tensor::from_fn(Shape::d4(1, 1, 4, 4), |i| (i as f32 * 0.13).sin());
        let mut w = Tensor::from_fn(g.weight_shape(), |i| (i as f32 * 0.3).cos() * 0.2);
        let b = Tensor::zeros(Shape::d1(2));
        // Loss = sum(Y); then dL/dY = 1.
        let y = conv2d_forward(&g, &x, &w, &b).unwrap();
        let dy = Tensor::ones(y.shape());
        let grads = conv2d_backward(&g, &x, &w, &dy).unwrap();

        let eps = 1e-3f32;
        for idx in 0..w.len() {
            let orig = w.as_slice()[idx];
            w.as_mut_slice()[idx] = orig + eps;
            let lp = conv2d_forward(&g, &x, &w, &b).unwrap().sum();
            w.as_mut_slice()[idx] = orig - eps;
            let lm = conv2d_forward(&g, &x, &w, &b).unwrap().sum();
            w.as_mut_slice()[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = grads.grad_weight.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn backward_input_grad_matches_numeric() {
        let g = geom(2, 2, 3, 1, 1, 4, 4);
        let mut x = Tensor::from_fn(Shape::d4(1, 2, 4, 4), |i| (i as f32 * 0.07).cos());
        let w = Tensor::from_fn(g.weight_shape(), |i| ((i % 5) as f32 - 2.0) * 0.1);
        let b = Tensor::zeros(Shape::d1(2));
        let y = conv2d_forward(&g, &x, &w, &b).unwrap();
        let dy = Tensor::from_fn(y.shape(), |i| (i % 3) as f32 - 1.0);
        let grads = conv2d_backward(&g, &x, &w, &dy).unwrap();

        let loss = |x: &Tensor| -> f64 {
            let y = conv2d_forward(&g, x, &w, &b).unwrap();
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(&yv, &dv)| (yv * dv) as f64)
                .sum()
        };
        let eps = 1e-3f32;
        for idx in (0..x.len()).step_by(3) {
            let orig = x.as_slice()[idx];
            x.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&x);
            x.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&x);
            x.as_mut_slice()[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = grads.grad_input.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn backward_bias_is_spatial_sum() {
        let g = geom(1, 3, 3, 1, 1, 4, 4);
        let x = Tensor::ones(Shape::d4(2, 1, 4, 4));
        let w = Tensor::zeros(g.weight_shape());
        let dy = Tensor::ones(Shape::d4(2, 3, 4, 4));
        let grads = conv2d_backward(&g, &x, &w, &dy).unwrap();
        // 2 batch items × 16 spatial positions each.
        assert_eq!(grads.grad_bias.as_slice(), &[32.0, 32.0, 32.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), c> == <x, col2im(c)> for all x, c — the defining
        // property of an adjoint pair, checked on pseudo-random data.
        let g = geom(2, 1, 3, 2, 1, 5, 5);
        let x: Vec<f32> = (0..g.in_channels * g.in_h * g.in_w)
            .map(|i| ((i * 31 % 13) as f32) - 6.0)
            .collect();
        let c: Vec<f32> =
            (0..g.col_rows() * g.col_cols()).map(|i| ((i * 7 % 9) as f32) - 4.0).collect();
        let mut cols = vec![0.0; c.len()];
        im2col(&g, &x, &mut cols);
        let lhs: f64 = cols.iter().zip(&c).map(|(&a, &b)| (a * b) as f64).sum();
        let mut gx = vec![0.0; x.len()];
        col2im(&g, &c, &mut gx);
        let rhs: f64 = x.iter().zip(&gx).map(|(&a, &b)| (a * b) as f64).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn shape_validation_errors() {
        let g = geom(3, 4, 3, 1, 1, 8, 8);
        let bad_x = Tensor::zeros(Shape::d4(1, 2, 8, 8));
        let w = Tensor::zeros(g.weight_shape());
        let b = Tensor::zeros(Shape::d1(4));
        assert!(conv2d_forward(&g, &bad_x, &w, &b).is_err());
        let x = Tensor::zeros(Shape::d4(1, 3, 8, 8));
        let bad_w = Tensor::zeros(Shape::d2(4, 5));
        assert!(conv2d_forward(&g, &x, &bad_w, &b).is_err());
        let bad_b = Tensor::zeros(Shape::d1(3));
        assert!(conv2d_forward(&g, &x, &w, &bad_b).is_err());
        let bad_dy = Tensor::zeros(Shape::d4(1, 4, 7, 7));
        assert!(conv2d_backward(&g, &x, &w, &bad_dy).is_err());
    }

    #[test]
    fn fanout_and_macs() {
        let g = geom(3, 32, 3, 1, 1, 32, 32);
        assert_eq!(g.dense_macs(), (32 * 27 * 32 * 32) as u64);
        assert!((g.spike_fanout() - 32.0 * 9.0).abs() < 1e-9);
    }
}
