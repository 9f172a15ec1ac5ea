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
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut output = Tensor::zeros(Shape::d4(n, g.channels, oh, ow));
    let mut argmax = if record_argmax { vec![0u32; output.len()] } else { Vec::new() };
    let item_out = g.channels * oh * ow;
    if n == 0 || item_out == 0 {
        return Ok(PoolForward { output, argmax });
    }
    let iv = input.as_slice();
    let ov = output.as_mut_slice();
    let min_items = par::min_granules_for(item_out * g.kernel * g.kernel);
    // A zero granule hands every worker an empty argmax block.
    let argmax_granule = if record_argmax { item_out } else { 0 };
    par::for_each_block2(
        ov,
        item_out,
        &mut argmax,
        argmax_granule,
        min_items,
        |item0, ovblock, amblock| {
            let mut oidx = 0usize;
            for i in 0..ovblock.len() / item_out {
                let item = item0 + i;
                for c in 0..g.channels {
                    let chan_base = (item * g.channels + c) * g.in_h * g.in_w;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_off = chan_base;
                            for ky in 0..g.kernel {
                                let iy = oy * g.stride + ky;
                                for kx in 0..g.kernel {
                                    let ix = ox * g.stride + kx;
                                    let off = chan_base + iy * g.in_w + ix;
                                    let v = iv[off];
                                    if v > best {
                                        best = v;
                                        best_off = off;
                                    }
                                }
                            }
                            ovblock[oidx] = best;
                            if record_argmax {
                                amblock[oidx] = best_off as u32;
                            }
                            oidx += 1;
                        }
                    }
                }
            }
        },
    );
    Ok(PoolForward { output, argmax })
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
