//! 2-D max pooling with argmax-routed backward pass.
//!
//! One forward, [`maxpool_into`], serves both dtypes: `f32` (training
//! and the f32 engine) and `u8` (the integer runtime's level-coded
//! input and binary spikes). The paper's 2×2 / stride-2 pool without
//! an argmax, the inference case, runs one row pair at a time
//! ([`PoolElem::pool_row_pair`]): output row `oy` from input rows
//! `2·oy` and `2·oy + 1` in one pass. For `f32` that pass keeps each
//! window's `(ky, kx)` strict-`>` chain, because the order decides
//! which of `-0.0`/`+0.0` wins a tie and that NaN never does. For
//! `u8` the order decides nothing (`>` is a total order and equal
//! values have equal bits), so it takes the vertical max and then the
//! horizontal pair max in fixed blocks that fill SIMD lanes. Every
//! other geometry, and any call that records the argmax, runs the
//! window loop.

use serde::{Deserialize, Serialize};

use crate::error::{Result, TensorError};
use crate::par;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Static geometry of a 2-D max-pooling operation.
///
/// The paper's network uses `P2`/`MP2`, i.e. kernel = stride = 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pool2dGeometry {
    /// Channel count (pooling is per-channel).
    pub channels: usize,
    /// Square pooling window side.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Input spatial height.
    pub in_h: usize,
    /// Input spatial width.
    pub in_w: usize,
}

impl Pool2dGeometry {
    /// Creates and validates a pooling geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadGeometry`] on zero dimensions or a
    /// window larger than the input.
    pub fn new(channels: usize, kernel: usize, stride: usize, in_h: usize, in_w: usize) -> Result<Self> {
        let g = Pool2dGeometry { channels, kernel, stride, in_h, in_w };
        if channels == 0 || kernel == 0 || in_h == 0 || in_w == 0 {
            return Err(TensorError::BadGeometry(format!("zero-sized pool: {g:?}")));
        }
        if stride == 0 {
            return Err(TensorError::BadGeometry("pool stride must be nonzero".into()));
        }
        if kernel > in_h || kernel > in_w {
            return Err(TensorError::BadGeometry(format!(
                "pool window {kernel} exceeds input {in_h}x{in_w}"
            )));
        }
        Ok(g)
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w - self.kernel) / self.stride + 1
    }

    /// Shape of one output item `[C, out_h, out_w]`.
    pub fn output_item_shape(&self) -> Shape {
        Shape::d3(self.channels, self.out_h(), self.out_w())
    }
}

/// Result of a max-pool forward pass: pooled values plus the linear
/// input offsets of each selected maximum (for gradient routing).
#[derive(Debug, Clone)]
pub struct PoolForward {
    /// Pooled output `[N, C, out_h, out_w]`.
    pub output: Tensor,
    /// For every output element, the linear index into the input
    /// tensor of the element that won the max. Empty unless the
    /// forward pass was asked to record it.
    pub argmax: Vec<u32>,
}

/// An activation type max pooling compares: `f32` in training and
/// the f32 engine, `u8` (level-coded input or binary spikes) in the
/// integer runtime.
///
/// Both pool to each window's first strict-`>` maximum in `(ky, kx)`
/// order. For `f32` the order is part of the result (`-0.0` and
/// `+0.0` tie but differ in bits; NaN must never win), so its kernels
/// compare in that order. For `u8` no order can show in the result,
/// so its 2×2 kernel is free to reorder the taps.
pub trait PoolElem: Copy + PartialOrd + Send + Sync {
    /// The value every window starts from. A window whose elements
    /// never compare greater (NaN or `-inf` for `f32`, all zeros for
    /// `u8`) pools to it.
    const FLOOR: Self;

    /// Pools one output row of a 2×2 window at stride 2: `out[ox]` is
    /// the max of `a[2·ox]`, `a[2·ox + 1]`, `b[2·ox]` and `b[2·ox + 1]`,
    /// where `a` and `b` are the window's two input rows.
    ///
    /// The default body compares the chain `FLOOR → a0 → a1 → b0 → b1`
    /// with strict `>`, the window's `(ky, kx)` order, so it returns
    /// exactly what the window loop does, signed-zero ties and NaN
    /// included. `f32` needs that order: `-0.0` and `+0.0` compare
    /// equal but differ in bits, so the first one wins, and a NaN
    /// never wins from any position.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is shorter than `2 · out.len()`.
    #[inline]
    fn pool_row_pair(a: &[Self], b: &[Self], out: &mut [Self]) {
        let (a, b) = (&a[..2 * out.len()], &b[..2 * out.len()]);
        let taps = a.chunks_exact(2).zip(b.chunks_exact(2));
        for (o, (a, b)) in out.iter_mut().zip(taps) {
            *o = [a[0], a[1], b[0], b[1]]
                .into_iter()
                .fold(Self::FLOOR, |best, v| if v > best { v } else { best });
        }
    }
}

impl PoolElem for f32 {
    const FLOOR: f32 = f32::NEG_INFINITY;
}

impl PoolElem for u8 {
    const FLOOR: u8 = 0;

    /// The order-free form: `>` on `u8` is a total order and equal
    /// values have equal bits, so a window's max is the same whatever
    /// order its taps are compared in, and `max(v, 0) = v` makes the
    /// floor a no-op. The row runs in blocks of 8 outputs, then one of
    /// 4 (pool2's 8-wide rows), then single outputs; see
    /// [`u8_pair_block`].
    #[inline]
    fn pool_row_pair(a: &[u8], b: &[u8], out: &mut [u8]) {
        let ow = out.len();
        let mut ox = 0;
        while ox + 8 <= ow {
            u8_pair_block::<8>(&a[2 * ox..], &b[2 * ox..], &mut out[ox..]);
            ox += 8;
        }
        if ox + 4 <= ow {
            u8_pair_block::<4>(&a[2 * ox..], &b[2 * ox..], &mut out[ox..]);
            ox += 4;
        }
        for ox in ox..ow {
            u8_pair_block::<1>(&a[2 * ox..], &b[2 * ox..], &mut out[ox..]);
        }
    }
}

/// `N` outputs of [`PoolElem::pool_row_pair`] for `u8`: the vertical
/// max of `2·N` input bytes, read as `N` little-endian `u16` lanes
/// (`w & 0xff` is a window's left column, `w >> 8` its right), then
/// each lane's larger byte, narrowed back to `u8`. At a fixed `N` the
/// compiler keeps the whole block in one vector register; on SSE2 it
/// is two loads, a byte max, a mask and a shift, two narrowing packs,
/// a byte max and one store.
#[inline(always)]
fn u8_pair_block<const N: usize>(a: &[u8], b: &[u8], out: &mut [u8]) {
    let (a, b, out) = (&a[..2 * N], &b[..2 * N], &mut out[..N]);
    for (i, o) in out.iter_mut().enumerate() {
        let w = u16::from_le_bytes([a[2 * i].max(b[2 * i]), a[2 * i + 1].max(b[2 * i + 1])]);
        *o = (w & 0xff).max(w >> 8) as u8;
    }
}

/// Max-pools a `[N, C, H, W]` batch.
///
/// Ties are broken toward the first (row-major earliest) element of
/// the window, matching the usual framework behaviour. With
/// `record_argmax` the winners' input offsets are kept for
/// [`maxpool2d_backward`]; inference passes `false` and skips that
/// buffer.
///
/// # Errors
///
/// Returns a [`TensorError`] if the input shape disagrees with the
/// geometry.
pub fn maxpool2d_forward(
    g: &Pool2dGeometry,
    input: &Tensor,
    record_argmax: bool,
) -> Result<PoolForward> {
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.shape().rank(),
            op: "maxpool2d input",
        });
    }
    let n = input.shape().dim(0);
    let expect = Shape::d4(n, g.channels, g.in_h, g.in_w);
    if input.shape() != expect {
        return Err(TensorError::ShapeMismatch { lhs: input.shape(), rhs: expect, op: "maxpool2d" });
    }
    let _span = snn_obs::span!("maxpool");
    let mut output = Tensor::zeros(Shape::d4(n, g.channels, g.out_h(), g.out_w()));
    let mut argmax = if record_argmax { vec![0u32; output.len()] } else { Vec::new() };
    maxpool_into(g, input.as_slice(), output.as_mut_slice(), &mut argmax);
    Ok(PoolForward { output, argmax })
}

/// Max-pools `[n, C, H, W]` values `x` into `out` (`[n, C, out_h,
/// out_w]`), split across workers by item.
///
/// Each output is the largest element of its window, compared in
/// `(ky, kx)` order with strict `>` from [`PoolElem::FLOOR`]: the
/// first of tied maxima wins (`-0.0` before a later `+0.0` and vice
/// versa), and NaN never does. A non-empty `argmax` (one slot per
/// output) receives each winner's linear offset in `x`; a window
/// nothing beats points at its channel's first element. The pooled
/// values are the same whether or not `argmax` is recorded.
///
/// A 2×2 window at stride 2 with an empty `argmax` runs one
/// [`PoolElem::pool_row_pair`] per output row: `f32` on the ordered
/// chain above, `u8` in order-free lane blocks, whose result is the
/// same because equal `u8` maxima are indistinguishable. Everything
/// else runs the window loop.
///
/// # Panics
///
/// Panics if `x` and `out` hold different item counts for `g`, or
/// `argmax` is neither empty nor `out`'s length.
pub fn maxpool_into<T: PoolElem>(g: &Pool2dGeometry, x: &[T], out: &mut [T], argmax: &mut [u32]) {
    let item_in = g.channels * g.in_h * g.in_w;
    let item_out = g.channels * g.out_h() * g.out_w();
    let n = out.len().checked_div(item_out).unwrap_or(0);
    assert_eq!(out.len(), n * item_out, "pool output length");
    assert_eq!(x.len(), n * item_in, "pool input length");
    assert!(argmax.is_empty() || argmax.len() == out.len(), "pool argmax length");
    if n == 0 {
        return;
    }
    let min_items = par::min_granules_for(item_out * g.kernel * g.kernel);
    // A zero granule hands every worker an empty argmax block.
    let argmax_granule = if argmax.is_empty() { 0 } else { item_out };
    par::for_each_block2(out, item_out, argmax, argmax_granule, min_items, |item0, oblock, ablock| {
        let xblock = &x[item0 * item_in..][..oblock.len() / item_out * item_in];
        let base = item0 * item_in;
        // The paper's pools are 2×2 windows at stride 2: inference takes
        // them a row pair at a time, and training's argmax pass names
        // the shape so the compiler unrolls the window. Every other
        // shape runs the same loop with its sizes read at run time.
        match (g.kernel, g.stride) {
            (2, 2) if ablock.is_empty() => pair_rows(g, xblock, oblock),
            (2, 2) => window_rows(2, 2, g, xblock, oblock, ablock, base),
            (k, s) => window_rows(k, s, g, xblock, oblock, ablock, base),
        }
    });
}

/// The 2×2, stride-2 forward of [`maxpool_into`] without an argmax,
/// over whole channel planes: output row `oy` of each plane from input
/// rows `2·oy` and `2·oy + 1`. An odd last input row or column belongs
/// to no window and is never read.
fn pair_rows<T: PoolElem>(g: &Pool2dGeometry, x: &[T], out: &mut [T]) {
    let (in_w, ow) = (g.in_w, g.out_w());
    let planes = x.chunks_exact(g.in_h * in_w).zip(out.chunks_exact_mut(g.out_h() * ow));
    for (xp, op) in planes {
        for (rows, orow) in xp.chunks_exact(2 * in_w).zip(op.chunks_exact_mut(ow)) {
            let (a, b) = rows.split_at(in_w);
            T::pool_row_pair(a, b, orow);
        }
    }
}

/// The window loop of [`maxpool_into`] for a `k × k` window at stride
/// `s`, over whole channel planes: `x` holds planes of `in_h × in_w`,
/// `out` the matching planes of `out_h × out_w`, and `base` is
/// `x[0]`'s offset in the pooled tensor (for `argmax`).
///
/// It walks one output row at a time, and the output row once per
/// window row `ky`: each output compares its `k` taps of input row
/// `oy·s + ky` against the best so far, held in the output slot. So
/// each output still sees its taps in `(ky, kx)` order.
#[inline(always)]
fn window_rows<T: PoolElem>(
    k: usize,
    s: usize,
    g: &Pool2dGeometry,
    x: &[T],
    out: &mut [T],
    argmax: &mut [u32],
    base: usize,
) {
    let (in_w, ow) = (g.in_w, g.out_w());
    let (plane_in, plane_out) = (g.in_h * in_w, g.out_h() * ow);
    let planes = x.chunks_exact(plane_in).zip(out.chunks_exact_mut(plane_out));
    for (p, (xp, op)) in planes.enumerate() {
        let plane_base = base + p * plane_in;
        for (oy, orow) in op.chunks_exact_mut(ow).enumerate() {
            orow.fill(T::FLOOR);
            let mut arow = if argmax.is_empty() {
                None
            } else {
                let a = &mut argmax[p * plane_out + oy * ow..][..ow];
                a.fill(plane_base as u32);
                Some(a)
            };
            for ky in 0..k {
                let row_off = (oy * s + ky) * in_w;
                let row = &xp[row_off..row_off + in_w];
                match arow.as_deref_mut() {
                    None => {
                        for (ox, o) in orow.iter_mut().enumerate() {
                            for &v in &row[ox * s..ox * s + k] {
                                *o = if v > *o { v } else { *o };
                            }
                        }
                    }
                    Some(arow) => {
                        for (ox, (o, a)) in orow.iter_mut().zip(arow.iter_mut()).enumerate() {
                            let off0 = plane_base + row_off + ox * s;
                            for (kx, &v) in row[ox * s..ox * s + k].iter().enumerate() {
                                if v > *o {
                                    *o = v;
                                    *a = (off0 + kx) as u32;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Backward max pool: routes each upstream gradient to the input
/// position that won the forward max.
///
/// # Errors
///
/// Returns a [`TensorError`] if `grad_output` length disagrees with
/// `argmax`.
pub fn maxpool2d_backward(
    g: &Pool2dGeometry,
    batch: usize,
    argmax: &[u32],
    grad_output: &Tensor,
) -> Result<Tensor> {
    if grad_output.len() != argmax.len() {
        return Err(TensorError::DataLength {
            expected: argmax.len(),
            actual: grad_output.len(),
        });
    }
    let mut grad_input = Tensor::zeros(Shape::d4(batch, g.channels, g.in_h, g.in_w));
    let item_in = g.channels * g.in_h * g.in_w;
    let item_out = g.channels * g.out_h() * g.out_w();
    if batch == 0 || item_in == 0 || item_out == 0 {
        return Ok(grad_input);
    }
    let go = grad_output.as_slice();
    let gi = grad_input.as_mut_slice();
    if argmax.len() != batch * item_out {
        for (&off, &gv) in argmax.iter().zip(go) {
            gi[off as usize] += gv;
        }
        return Ok(grad_input);
    }
    // Every argmax offset for output item `i` points inside input item
    // `i`, so partitioning by item keeps the scatter worker-local and
    // preserves the serial per-element accumulation order exactly.
    par::for_each_block(gi, item_in, par::min_granules_for(2 * item_out), |item0, block| {
        let base = item0 * item_in;
        let items = block.len() / item_in;
        let lo = item0 * item_out;
        let hi = lo + items * item_out;
        for (&off, &gv) in argmax[lo..hi].iter().zip(&go[lo..hi]) {
            block[off as usize - base] += gv;
        }
    });
    Ok(grad_input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_dims() {
        let g = Pool2dGeometry::new(3, 2, 2, 8, 8).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (4, 4));
        let g = Pool2dGeometry::new(1, 3, 1, 5, 7).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (3, 5));
    }

    #[test]
    fn geometry_rejects_bad() {
        assert!(Pool2dGeometry::new(0, 2, 2, 4, 4).is_err());
        assert!(Pool2dGeometry::new(1, 5, 2, 4, 4).is_err());
        assert!(Pool2dGeometry::new(1, 2, 0, 4, 4).is_err());
    }

    #[test]
    fn forward_picks_maxima() {
        let g = Pool2dGeometry::new(1, 2, 2, 2, 4).unwrap();
        let x = Tensor::from_vec(
            Shape::d4(1, 1, 2, 4),
            vec![1., 5., 2., 0., 3., 4., 8., 7.],
        )
        .unwrap();
        let f = maxpool2d_forward(&g, &x, true).unwrap();
        assert_eq!(f.output.as_slice(), &[5.0, 8.0]);
        assert_eq!(f.argmax, vec![1, 6]);
        let plain = maxpool2d_forward(&g, &x, false).unwrap();
        assert_eq!(plain.output, f.output);
        assert!(plain.argmax.is_empty());
    }

    #[test]
    fn backward_routes_to_argmax() {
        let g = Pool2dGeometry::new(1, 2, 2, 2, 4).unwrap();
        let x = Tensor::from_vec(
            Shape::d4(1, 1, 2, 4),
            vec![1., 5., 2., 0., 3., 4., 8., 7.],
        )
        .unwrap();
        let f = maxpool2d_forward(&g, &x, true).unwrap();
        let dy = Tensor::from_vec(Shape::d4(1, 1, 1, 2), vec![10.0, 20.0]).unwrap();
        let dx = maxpool2d_backward(&g, 1, &f.argmax, &dy).unwrap();
        assert_eq!(dx.as_slice(), &[0., 10., 0., 0., 0., 0., 20., 0.]);
    }

    #[test]
    fn tie_breaks_to_first() {
        let g = Pool2dGeometry::new(1, 2, 2, 2, 2).unwrap();
        let x = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![3., 3., 3., 3.]).unwrap();
        let f = maxpool2d_forward(&g, &x, true).unwrap();
        assert_eq!(f.argmax, vec![0]);
    }

    #[test]
    fn spikes_survive_pooling_as_binary() {
        // Pooling a {0,1} spike map yields a {0,1} map (logical OR over
        // the window) — the property that makes MaxPool SNN-friendly.
        let g = Pool2dGeometry::new(1, 2, 2, 4, 4).unwrap();
        let x = Tensor::from_fn(Shape::d4(1, 1, 4, 4), |i| if i % 3 == 0 { 1.0 } else { 0.0 });
        let f = maxpool2d_forward(&g, &x, true).unwrap();
        for &v in f.output.as_slice() {
            assert!(v == 0.0 || v == 1.0);
        }
    }

    #[test]
    fn numeric_gradient_check() {
        let g = Pool2dGeometry::new(2, 2, 2, 4, 4).unwrap();
        let mut x = Tensor::from_fn(Shape::d4(1, 2, 4, 4), |i| ((i * 13 % 17) as f32) * 0.1);
        let f = maxpool2d_forward(&g, &x, true).unwrap();
        let dy = Tensor::from_fn(f.output.shape(), |i| 1.0 + i as f32 * 0.01);
        let dx = maxpool2d_backward(&g, 1, &f.argmax, &dy).unwrap();
        let loss = |x: &Tensor| -> f64 {
            let f = maxpool2d_forward(&g, x, true).unwrap();
            f.output
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(&a, &b)| (a * b) as f64)
                .sum()
        };
        let eps = 1e-3f32;
        for idx in 0..x.len() {
            let orig = x.as_slice()[idx];
            x.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&x);
            x.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&x);
            x.as_mut_slice()[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = dx.as_slice()[idx];
            // Perturbation can flip an argmax near ties; allow a loose
            // tolerance but require agreement at clear maxima.
            assert!(
                (numeric - analytic).abs() < 0.15,
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let g = Pool2dGeometry::new(2, 2, 2, 4, 4).unwrap();
        let x = Tensor::zeros(Shape::d4(1, 3, 4, 4));
        assert!(maxpool2d_forward(&g, &x, true).is_err());
        let dy = Tensor::zeros(Shape::d1(3));
        assert!(maxpool2d_backward(&g, 1, &[0, 1], &dy).is_err());
    }
}
