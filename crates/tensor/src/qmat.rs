//! Integer (quantized) convolution and GEMM kernels.
//!
//! The quantized datapath keeps activations as `u8` (binary spikes,
//! or `0..=255` level-coded inputs on the first layer), weights as
//! symmetric `i8`, and accumulators as `i32`. Every sum is computed
//! with **wrapping** i32 arithmetic: wrapping addition is associative
//! and commutative, so the event route's tap order, the dense route's
//! k-order, and any thread split over batch items produce
//! bit-identical accumulators — exactness holds *unconditionally*,
//! not only in the no-overflow case (quantized artifacts additionally
//! guarantee the exact sums fit, see `snn-quant`). Saturation happens
//! exactly once, downstream, when the consumer narrows the rescaled
//! accumulator — never inside these kernels.
//!
//! Routing mirrors the f32 convolution: the batch is scanned once for
//! density, and binary inputs at or below
//! [`crate::dispatch::event_density_threshold`] take the event route
//! (per-active-pixel scatter of transposed weight columns into i32
//! lanes, no im2col); everything else takes the dense route (u8
//! im2col + the j-blocked GEMM skeleton from [`crate::linalg`]).
//! Every routed forward publishes `snn_tensor_qconv2d_route_*_total`
//! counters.

use crate::conv::Conv2dGeometry;
use crate::dispatch::{self, ConvRoute};
use crate::par;

/// Output columns per register tile of the dense kernel: each output
/// row of a block keeps one `[i32; TILE]` accumulator.
const TILE: usize = 8;

/// Output rows per register block of the dense kernel: one loaded
/// activation tile feeds this many rows' multiply-adds.
const ROWS: usize = 4;

/// One k pair of one column tile of the activation matrix, as `i16`
/// lanes: row `2p` of the tile's `TILE` columns, then row `2p + 1`.
/// Columns past `n` and the partner of an odd `k`'s last row are
/// zero.
///
/// Every product of a `u8` activation and an `i8` weight fits `i16`
/// exactly (`|x·w| <= 255·128 = 32 640`) and a pair of them fits
/// `i32`, so the dense kernel multiplies 16-bit lanes and sums each
/// column's two products into one `i32` lane (`pmaddwd` on the x86-64
/// SSE2 baseline). The two rows sit in separate halves: with the pair
/// interleaved lane by lane, the optimizer priced the even/odd
/// shuffles too dear under this workspace's release profile (thin
/// LTO) and emitted scalar multiplies.
type PairTile = [i16; 2 * TILE];

/// Packs a row-major `[m, k]` i8 weight matrix for [`qgemm_packed`]:
/// k pair `p` of row `i` becomes the [`PairTile`] holding `w[i][2p]`
/// in its first half and `w[i][2p+1]` in its second (zero past an odd
/// `k`), so the kernel multiplies two whole tiles; with a weight
/// broadcast from scalars instead, the optimizer again falls back to
/// scalar code. Rows go in blocks of [`ROWS`], each block pair-major
/// (`[pair][row]`); the `m % ROWS` tail rows follow one by one.
fn pack_weight_pairs(w: &[i8], m: usize, k: usize, out: &mut Vec<PairTile>) {
    let tile = |w0: i8, w1: i8| std::array::from_fn(|l| if l < TILE { w0 } else { w1 } as i16);
    let full = m / ROWS * ROWS;
    let blocks = (0..full).step_by(ROWS).map(|i| i..i + ROWS).chain((full..m).map(|i| i..i + 1));
    out.clear();
    for rows in blocks {
        for kk in (0..k).step_by(2) {
            for i in rows.clone() {
                let w1 = if kk + 1 < k { w[i * k + kk + 1] } else { 0 };
                out.push(tile(w[i * k + kk], w1));
            }
        }
    }
}

/// Where activation `(kk, j)` of a `[k, n]` matrix lives in the
/// packed layout: tile-major panels of `pairs` [`PairTile`]s each.
#[inline(always)]
fn pair_slot(pairs: usize, kk: usize, j: usize) -> (usize, usize) {
    ((j / TILE) * pairs + kk / 2, kk % 2 * TILE + j % TILE)
}

/// `acc[i][j] += Σ_p wp[i][p] · xp[j][p]` over the packed operands:
/// `wp` from [`pack_weight_pairs`], `xp` the tile-major panels of
/// [`pair_slot`]. Blocks of [`ROWS`] output rows walk the column
/// tiles; the sums wrap, so the result does not depend on the
/// blocking.
///
/// Never inlined, so it is compiled once, on its own: whether the
/// optimizer vectorizes it depends on no caller. Other block shapes
/// (2, 3 or 6 rows; 4- or 16-column tiles) measured 1.3–5× slower,
/// most of them left scalar.
#[inline(never)]
fn qgemm_packed(wp: &[PairTile], xp: &[PairTile], acc: &mut [i32], pairs: usize, n: usize) {
    debug_assert_eq!(xp.len(), n.div_ceil(TILE) * pairs);
    if pairs == 0 || n == 0 {
        return;
    }
    let full = acc.len() / (ROWS * n) * ROWS;
    let (acc_full, acc_tail) = acc.split_at_mut(full * n);
    let (w_full, w_tail) = wp.split_at(full * pairs);
    for (out, w) in acc_full.chunks_exact_mut(ROWS * n).zip(w_full.chunks_exact(ROWS * pairs)) {
        qgemm_block::<ROWS>(w, xp, out, pairs, n);
    }
    for (out, w) in acc_tail.chunks_exact_mut(n).zip(w_tail.chunks_exact(pairs)) {
        qgemm_block::<1>(w, xp, out, pairs, n);
    }
}

/// `R` output rows of [`qgemm_packed`] (`w` pair-major): per column
/// tile, `R` register accumulators, each k pair's activation tile
/// loaded once for all `R` rows.
#[inline(always)]
fn qgemm_block<const R: usize>(
    w: &[PairTile],
    xp: &[PairTile],
    out: &mut [i32],
    pairs: usize,
    n: usize,
) {
    for (t, panel) in xp.chunks_exact(pairs).enumerate() {
        let mut sums = [[0i32; TILE]; R];
        for (x, wrows) in panel.iter().zip(w.chunks_exact(R)) {
            for (s, wv) in sums.iter_mut().zip(wrows) {
                for l in 0..TILE {
                    let pair =
                        x[l] as i32 * wv[l] as i32 + x[TILE + l] as i32 * wv[TILE + l] as i32;
                    s[l] = s[l].wrapping_add(pair);
                }
            }
        }
        // A full tile adds through a fixed-size array: the optimizer
        // vectorizes the whole block from those `TILE` adjacent
        // stores, and leaves it scalar if their count is not fixed.
        for (s, row) in sums.iter().zip(out.chunks_exact_mut(n)) {
            let dst = &mut row[t * TILE..];
            match dst.first_chunk_mut::<TILE>() {
                Some(full) => {
                    for l in 0..TILE {
                        full[l] = full[l].wrapping_add(s[l]);
                    }
                }
                None => {
                    for (d, &v) in dst.iter_mut().zip(s) {
                        *d = d.wrapping_add(v);
                    }
                }
            }
        }
    }
}

/// Integer GEMM: `acc += W · X` with `W: [m, k]` i8, `X: [k, n]` u8,
/// `acc: [m, n]` i32.
///
/// Accumulating (callers zero `acc` for a plain product). Packs both
/// operands into `i16` k pairs and runs the register-blocked
/// multiply-add kernel the dense convolution route uses; all adds
/// wrap, so the result is independent of blocking and evaluation
/// order.
///
/// # Panics
///
/// Panics if any buffer length disagrees with `m`/`k`/`n`.
pub fn qgemm_into(w: &[i8], x: &[u8], acc: &mut [i32], m: usize, k: usize, n: usize) {
    assert_eq!(w.len(), m * k, "weight length");
    assert_eq!(x.len(), k * n, "activation length");
    assert_eq!(acc.len(), m * n, "accumulator length");
    let pairs = k.div_ceil(2);
    let mut wp = Vec::with_capacity(m * pairs);
    pack_weight_pairs(w, m, k, &mut wp);
    let mut xp = vec![[0i16; 2 * TILE]; n.div_ceil(TILE) * pairs];
    for kk in 0..k {
        for j in 0..n {
            let (tile, lane) = pair_slot(pairs, kk, j);
            xp[tile][lane] = x[kk * n + j] as i16;
        }
    }
    qgemm_packed(&wp, &xp, acc, pairs, n);
}

/// Expands one `u8` input item `[C, H, W]` into the im2col matrix
/// `[C·k², out_h·out_w]`, written straight into the packed k-pair
/// layout of [`pair_slot`]; padding taps contribute zeros.
///
/// Element-for-element the integer twin of [`crate::conv::im2col`].
fn qim2col(g: &Conv2dGeometry, input: &[u8], cols: &mut [PairTile]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let pairs = g.col_rows().div_ceil(2);
    debug_assert_eq!(input.len(), g.in_channels * g.in_h * g.in_w);
    debug_assert_eq!(cols.len(), (oh * ow).div_ceil(TILE) * pairs);
    cols.fill([0; 2 * TILE]);
    for (c, chan) in input.chunks_exact(g.in_h * g.in_w).enumerate() {
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                let row = (c * g.kernel + ky) * g.kernel + kx;
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                    if iy < 0 || iy >= g.in_h as isize {
                        continue;
                    }
                    let src = &chan[iy as usize * g.in_w..(iy as usize + 1) * g.in_w];
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                        if ix < 0 || ix >= g.in_w as isize {
                            continue;
                        }
                        let (tile, lane) = pair_slot(pairs, row, oy * ow + ox);
                        cols[tile][lane] = src[ix as usize] as i16;
                    }
                }
            }
        }
    }
}

/// Per-layer state for [`qconv2d_forward_routed`]: per-worker buffers
/// grown lazily and reused across timesteps, the dense route's packed
/// weights, and the event route's tap tables for the last geometry.
#[derive(Debug, Clone, Default)]
pub struct QConvScratch {
    bufs: Vec<QConvBufs>,
    /// Dense route: the weights as `i16` k pairs, packed per call.
    wpairs: Vec<PairTile>,
    /// Event route: built on the first event forward of a geometry.
    taps: Option<Box<EventTaps>>,
}

impl QConvScratch {
    /// Empty scratch; buffers allocate on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[derive(Debug, Clone, Default)]
struct QConvBufs {
    /// Dense route: im2col matrix for one item, packed.
    cols: Vec<PairTile>,
    /// Event route: position-major accumulator `[plane, oc]` (each
    /// output row's positions reversed, see [`EventTaps`]) so each
    /// tap adds one contiguous i32 lane group.
    acc_t: Vec<i32>,
}

/// The event route's taps, one table per spatial axis: for each input
/// row (column), the kernel offsets it feeds and their output
/// coordinates, as offsets into the transposed weights and the
/// position-major accumulator. Building them is the only place the
/// route divides.
///
/// The accumulator stores each output row's positions in reverse
/// (`ox` descending), so for stride 1 the column taps of one input
/// pixel, which walk the kernel forward and the output backward, read
/// consecutive weight rows into consecutive accumulator positions:
/// they merge into one run.
#[derive(Debug, Clone)]
struct EventTaps {
    /// The geometry the tables were built for.
    geom: Conv2dGeometry,
    rows: AxisTaps,
    cols: AxisTaps,
}

/// `lanes` consecutive weights from offset `w` added to as many
/// consecutive accumulators from offset `acc`.
#[derive(Debug, Clone, Copy)]
struct Run {
    w: usize,
    acc: usize,
    lanes: usize,
}

/// One axis of [`EventTaps`]: the runs of input coordinate `i` are
/// `runs[start[i]..start[i + 1]]`.
#[derive(Debug, Clone)]
struct AxisTaps {
    start: Vec<usize>,
    runs: Vec<Run>,
}

impl AxisTaps {
    /// Input coordinate `i` (of `len`) feeds output `o = (i + pad −
    /// kk) / stride` through kernel offset `kk` when the division is
    /// exact and `o < out`. That tap is `oc` lanes from weight offset
    /// `kk · w_step` to accumulator offset `acc_at(o)`; a tap that
    /// continues the previous one in both merges into it.
    fn new(
        g: &Conv2dGeometry,
        len: usize,
        out: usize,
        w_step: usize,
        acc_at: impl Fn(usize) -> usize,
    ) -> Self {
        let oc = g.out_channels;
        let mut start = vec![0];
        let mut runs: Vec<Run> = Vec::new();
        for i in 0..len {
            for kk in 0..g.kernel.min(i + g.padding + 1) {
                let off = i + g.padding - kk;
                if !off.is_multiple_of(g.stride) || off / g.stride >= out {
                    continue;
                }
                let tap = Run { w: kk * w_step, acc: acc_at(off / g.stride), lanes: oc };
                match runs[start[i]..].last_mut() {
                    Some(r) if r.w + r.lanes == tap.w && r.acc + r.lanes == tap.acc => {
                        r.lanes += oc
                    }
                    _ => runs.push(tap),
                }
            }
            start.push(runs.len());
        }
        AxisTaps { start, runs }
    }

    fn at(&self, i: usize) -> &[Run] {
        &self.runs[self.start[i]..self.start[i + 1]]
    }
}

impl EventTaps {
    /// Row taps never merge (their accumulator offset falls as the
    /// kernel offset rises), so the event loop reads only the column
    /// runs' `lanes`.
    fn new(g: &Conv2dGeometry) -> Self {
        let (oc, ow) = (g.out_channels, g.out_w());
        EventTaps {
            geom: *g,
            rows: AxisTaps::new(g, g.in_h, g.out_h(), g.kernel * oc, |oy| oy * ow * oc),
            cols: AxisTaps::new(g, g.in_w, ow, oc, |ox| (ow - 1 - ox) * oc),
        }
    }
}

/// Measured properties of a `u8` activation batch: nonzero count and
/// whether every value is 0/1.
///
/// Counted in `u8` lanes over chunks short enough that a lane cannot
/// overflow, so the loop vectorizes at byte width; a `usize` count per
/// byte would be widened to 64-bit lanes.
fn scan_u8(x: &[u8]) -> (usize, bool) {
    let mut nnz = 0usize;
    let mut max = 0u8;
    for chunk in x.chunks(128) {
        let mut n = 0u8;
        for &v in chunk {
            n += (v != 0) as u8;
            max = max.max(v);
        }
        nnz += n as usize;
    }
    (nnz, max <= 1)
}

/// Density-routed quantized convolution forward over a `[N, C, H, W]`
/// `u8` batch.
///
/// Writes raw i32 accumulator sums (no bias, no rescale) into `acc`
/// laid out `[N, out_channels, out_h·out_w]`, overwriting its
/// contents, and returns the route taken. `w` is the row-major
/// weight matrix `[oc, C·k²]`; `wt` is its transpose `[C·k², oc]`
/// (precomputed once per layer — the event route gathers whole
/// `oc`-lane groups from it).
///
/// Both routes produce bit-identical `acc` for the same input, and
/// results are independent of the worker count: items never share an
/// accumulator.
///
/// # Panics
///
/// Panics if any buffer length disagrees with the geometry.
pub fn qconv2d_forward_routed(
    g: &Conv2dGeometry,
    input: &[u8],
    n: usize,
    w: &[i8],
    wt: &[i8],
    acc: &mut [i32],
    scratch: &mut QConvScratch,
) -> ConvRoute {
    let item_in = g.in_channels * g.in_h * g.in_w;
    let plane = g.out_h() * g.out_w();
    let oc = g.out_channels;
    let rows = g.col_rows();
    let item_out = oc * plane;
    assert_eq!(input.len(), n * item_in, "input length");
    assert_eq!(w.len(), oc * rows, "weight length");
    assert_eq!(wt.len(), rows * oc, "transposed weight length");
    assert_eq!(acc.len(), n * item_out, "accumulator length");
    if n == 0 {
        return ConvRoute::Dense;
    }
    let threshold = dispatch::event_density_threshold();
    let (nnz, binary) = scan_u8(input);
    let density = nnz as f32 / input.len() as f32;
    let event = binary && threshold >= 0.0 && density <= threshold;
    let route = if event { ConvRoute::Event } else { ConvRoute::Dense };
    dispatch::record_qconv_route(route);
    let g = *g;
    let QConvScratch { bufs, wpairs, taps } = scratch;
    // Neither route prepares anything per item: the tap tables are
    // built once per geometry, the packed weights once per call.
    let taps = if event {
        if taps.as_ref().is_none_or(|t| t.geom != g) {
            *taps = Some(Box::new(EventTaps::new(&g)));
        }
        taps.as_deref()
    } else {
        pack_weight_pairs(w, oc, rows, wpairs);
        None
    };
    let pairs = rows.div_ceil(2);
    par::for_each_block_with(acc, item_out, 1, bufs, QConvBufs::default, |bufs, item0, block| {
        for (slot, out_item) in block.chunks_exact_mut(item_out).enumerate() {
            let item = item0 + slot;
            let x = &input[item * item_in..(item + 1) * item_in];
            match taps {
                Some(taps) => qconv_event_item(&g, taps, x, wt, out_item, &mut bufs.acc_t),
                None => {
                    bufs.cols.resize(plane.div_ceil(TILE) * pairs, [0; 2 * TILE]);
                    qim2col(&g, x, &mut bufs.cols);
                    out_item.fill(0);
                    qgemm_packed(wpairs, &bufs.cols, out_item, pairs, plane);
                }
            }
        }
    });
    route
}

/// Event-route convolution for one binary item: walking the input
/// plane by plane and row by row, every active pixel adds, for each
/// run of its row's and column's tables, the transposed weight rows
/// (`oc` contiguous i8 lanes each) into the position-major i32
/// accumulator; then the accumulator is transposed to the
/// channel-major output layout, putting each output row's positions
/// back in order.
fn qconv_event_item(
    g: &Conv2dGeometry,
    taps: &EventTaps,
    x: &[u8],
    wt: &[i8],
    out_item: &mut [i32],
    acc_t: &mut Vec<i32>,
) {
    let (ow, oc) = (g.out_w(), g.out_channels);
    let kk_oc = g.kernel * g.kernel * oc;
    acc_t.resize(g.out_h() * ow * oc, 0);
    acc_t.fill(0);
    for (c, chan) in x.chunks_exact(g.in_h * g.in_w).enumerate() {
        let wchan = &wt[c * kk_oc..(c + 1) * kk_oc];
        for (iy, xrow) in chan.chunks_exact(g.in_w).enumerate() {
            let row_runs = taps.rows.at(iy);
            for (ix, _) in xrow.iter().enumerate().filter(|&(_, &v)| v != 0) {
                for ry in row_runs {
                    for rx in taps.cols.at(ix) {
                        let (w, acc) = (ry.w + rx.w, ry.acc + rx.acc);
                        let lanes = &wchan[w..w + rx.lanes];
                        let dst = &mut acc_t[acc..acc + rx.lanes];
                        for (d, &wv) in dst.iter_mut().zip(lanes) {
                            *d = d.wrapping_add(wv as i32);
                        }
                    }
                }
            }
        }
    }
    let plane_t = acc_t.chunks_exact(ow * oc);
    for (o, out_plane) in out_item.chunks_exact_mut(g.out_h() * ow).enumerate() {
        for (out_row, acc_row) in out_plane.chunks_exact_mut(ow).zip(plane_t.clone()) {
            for (slot, lanes) in out_row.iter_mut().zip(acc_row.chunks_exact(oc).rev()) {
                *slot = lanes[o];
            }
        }
    }
}

/// Event-driven quantized linear layer: `acc[i][o] = Σ_j x[i][j] ·
/// wt[j][o]` with `x: [items, k]` u8 and `wt: [k, out]` i8
/// (transposed weights, so each active input adds one contiguous
/// lane group).
///
/// Overwrites `acc` (`[items, out]`). Inputs are visited in ascending
/// `j` per item and items never share accumulators, so results are
/// exact integer sums independent of thread count. Binary activations
/// (the common case: spikes) skip the multiply entirely.
///
/// # Panics
///
/// Panics if any buffer length disagrees with `items`/`k`/`out`.
pub fn qlinear_into(x: &[u8], wt: &[i8], acc: &mut [i32], items: usize, k: usize, out: usize) {
    assert_eq!(x.len(), items * k, "activation length");
    assert_eq!(wt.len(), k * out, "transposed weight length");
    assert_eq!(acc.len(), items * out, "accumulator length");
    if items == 0 {
        return;
    }
    par::for_each_block(acc, out, 1, |item0, block| {
        for (slot, arow) in block.chunks_exact_mut(out).enumerate() {
            let item = item0 + slot;
            let xrow = &x[item * k..(item + 1) * k];
            arow.fill(0);
            for (j, &xv) in xrow.iter().enumerate() {
                if xv == 0 {
                    continue;
                }
                let lanes = &wt[j * out..(j + 1) * out];
                if xv == 1 {
                    for (a, &wv) in arow.iter_mut().zip(lanes) {
                        *a = a.wrapping_add(wv as i32);
                    }
                } else {
                    let xi = xv as i32;
                    for (a, &wv) in arow.iter_mut().zip(lanes) {
                        *a = a.wrapping_add(xi.wrapping_mul(wv as i32));
                    }
                }
            }
        }
    });
}

/// Transposes a row-major `[m, k]` i8 matrix into `[k, m]` (layer
/// setup helper for the event-route weight layout).
pub fn transpose_i8(w: &[i8], m: usize, k: usize) -> Vec<i8> {
    assert_eq!(w.len(), m * k, "matrix length");
    let mut wt = vec![0i8; k * m];
    for i in 0..m {
        for j in 0..k {
            wt[j * m + i] = w[i * k + j];
        }
    }
    wt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::with_event_density_threshold;

    fn geom() -> Conv2dGeometry {
        Conv2dGeometry::new(2, 3, 3, 1, 1, 5, 5).unwrap()
    }

    fn ref_conv(g: &Conv2dGeometry, x: &[u8], w: &[i8]) -> Vec<i32> {
        // Independent O(everything) reference: direct tap enumeration
        // from the output side.
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = vec![0i32; g.out_channels * oh * ow];
        for o in 0..g.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut s = 0i64;
                    for c in 0..g.in_channels {
                        for ky in 0..g.kernel {
                            for kx in 0..g.kernel {
                                let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                                let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                                if iy < 0 || ix < 0 || iy >= g.in_h as isize || ix >= g.in_w as isize
                                {
                                    continue;
                                }
                                let xv =
                                    x[(c * g.in_h + iy as usize) * g.in_w + ix as usize] as i64;
                                let wv =
                                    w[(o * g.in_channels + c) * g.kernel * g.kernel
                                        + ky * g.kernel
                                        + kx] as i64;
                                s += xv * wv;
                            }
                        }
                    }
                    out[(o * oh + oy) * ow + ox] = s as i32;
                }
            }
        }
        out
    }

    #[test]
    fn dense_and_event_routes_match_reference() {
        let g = geom();
        let item_in = g.in_channels * g.in_h * g.in_w;
        let n = 3;
        let x: Vec<u8> = (0..n * item_in).map(|i| ((i * 7) % 5 == 0) as u8).collect();
        let w: Vec<i8> = (0..g.out_channels * g.col_rows())
            .map(|i| ((i * 13 % 11) as i32 - 5) as i8)
            .collect();
        let wt = transpose_i8(&w, g.out_channels, g.col_rows());
        let item_out = g.out_channels * g.out_h() * g.out_w();
        let mut want = Vec::new();
        for item in 0..n {
            want.extend(ref_conv(&g, &x[item * item_in..(item + 1) * item_in], &w));
        }
        let mut dense = vec![1i32; n * item_out];
        let mut event = vec![2i32; n * item_out];
        let r1 = with_event_density_threshold(-1.0, || {
            qconv2d_forward_routed(&g, &x, n, &w, &wt, &mut dense, &mut QConvScratch::new())
        });
        let r2 = with_event_density_threshold(1.0, || {
            qconv2d_forward_routed(&g, &x, n, &w, &wt, &mut event, &mut QConvScratch::new())
        });
        assert_eq!(r1, ConvRoute::Dense);
        assert_eq!(r2, ConvRoute::Event);
        assert_eq!(dense, want);
        assert_eq!(event, want);
    }

    #[test]
    fn nonbinary_input_pins_dense_route() {
        let g = geom();
        let item_in = g.in_channels * g.in_h * g.in_w;
        let x: Vec<u8> = (0..item_in).map(|i| (i % 4) as u8 * 80).collect();
        let w = vec![1i8; g.out_channels * g.col_rows()];
        let wt = transpose_i8(&w, g.out_channels, g.col_rows());
        let mut acc = vec![0i32; g.out_channels * g.out_h() * g.out_w()];
        let route = with_event_density_threshold(1.0, || {
            qconv2d_forward_routed(&g, &x, 1, &w, &wt, &mut acc, &mut QConvScratch::new())
        });
        assert_eq!(route, ConvRoute::Dense, "level-coded input must not take the event route");
        assert_eq!(acc, ref_conv(&g, &x, &w));
    }

    #[test]
    fn qgemm_matches_naive_and_wraps() {
        let (m, k, n) = (3, 4, 5);
        let w: Vec<i8> = (0..m * k).map(|i| (i as i32 - 6) as i8).collect();
        let x: Vec<u8> = (0..k * n).map(|i| (i * 29 % 256) as u8).collect();
        let mut acc = vec![0i32; m * n];
        qgemm_into(&w, &x, &mut acc, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0i32;
                for kk in 0..k {
                    s = s.wrapping_add(w[i * k + kk] as i32 * x[kk * n + j] as i32);
                }
                assert_eq!(acc[i * n + j], s);
            }
        }
    }

    #[test]
    fn qlinear_matches_qgemm() {
        let (items, k, out) = (4, 10, 6);
        let x: Vec<u8> = (0..items * k).map(|i| ((i % 3 == 0) as u8) * (1 + (i % 2) as u8)).collect();
        let w: Vec<i8> = (0..out * k).map(|i| ((i * 17 % 9) as i32 - 4) as i8).collect();
        let wt = transpose_i8(&w, out, k);
        let mut got = vec![0i32; items * out];
        qlinear_into(&x, &wt, &mut got, items, k, out);
        // Reference via qgemm on the transposed problem: out[i][o] =
        // (W · X^T)[o][i].
        let xt: Vec<u8> = {
            let mut t = vec![0u8; k * items];
            for i in 0..items {
                for j in 0..k {
                    t[j * items + i] = x[i * k + j];
                }
            }
            t
        };
        let mut byg = vec![0i32; out * items];
        qgemm_into(&w, &xt, &mut byg, out, k, items);
        for i in 0..items {
            for o in 0..out {
                assert_eq!(got[i * out + o], byg[o * items + i]);
            }
        }
    }
}
