//! 2-D max pooling with argmax-routed backward pass.

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
pub trait PoolElem: Copy + PartialOrd + Send + Sync {
    /// The value every window starts from. A window whose elements
    /// never compare greater (NaN or `-inf` for `f32`, all zeros for
    /// `u8`) pools to it.
    const FLOOR: Self;
}

impl PoolElem for f32 {
    const FLOOR: f32 = f32::NEG_INFINITY;
}

impl PoolElem for u8 {
    const FLOOR: u8 = 0;
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
        // The paper's pools are 2×2 windows at stride 2. Naming that
        // shape lets the compiler unroll the window; every other shape
        // runs the same loop with its sizes read at run time.
        match (g.kernel, g.stride) {
            (2, 2) => window_rows(2, 2, g, xblock, oblock, ablock, base),
            (k, s) => window_rows(k, s, g, xblock, oblock, ablock, base),
        }
    });
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
