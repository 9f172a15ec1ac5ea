//! Property-based tests for the tensor kernels.

use proptest::prelude::*;

use snn_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dGeometry};
use snn_tensor::pool::{maxpool2d_backward, maxpool2d_forward, Pool2dGeometry};
use snn_tensor::spike::{count_nonzero, count_nonzero_rows};
use snn_tensor::{linalg, Shape, Tensor};

fn lcg_tensor(shape: Shape, seed: u64, scale: f32) -> Tensor {
    let mut rng = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    Tensor::from_fn(shape, |_| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (((rng >> 33) as f32 / u32::MAX as f32) - 0.5) * 2.0 * scale
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reshape round-trips preserve data for any compatible target.
    #[test]
    fn reshape_roundtrip(n in 1usize..6, c in 1usize..6, h in 1usize..6, w in 1usize..6) {
        let t = lcg_tensor(Shape::d4(n, c, h, w), (n * c * h * w) as u64, 1.0);
        let flat = t.reshape(Shape::d1(t.len())).unwrap();
        let back = flat.reshape(t.shape()).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Matrix multiplication is associative (within float tolerance):
    /// (A·B)·C == A·(B·C).
    #[test]
    fn matmul_associative(m in 1usize..4, k in 1usize..4, n in 1usize..4, p in 1usize..4, seed in 0u64..500) {
        let a = lcg_tensor(Shape::d2(m, k), seed, 1.0);
        let b = lcg_tensor(Shape::d2(k, n), seed + 1, 1.0);
        let c = lcg_tensor(Shape::d2(n, p), seed + 2, 1.0);
        let left = linalg::matmul(&linalg::matmul(&a, &b).unwrap(), &c).unwrap();
        let right = linalg::matmul(&a, &linalg::matmul(&b, &c).unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// The transposed-product kernels agree with explicit transpose.
    #[test]
    fn transposed_products_agree(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..500) {
        let a = lcg_tensor(Shape::d2(k, m), seed, 1.0);
        let b = lcg_tensor(Shape::d2(k, n), seed + 9, 1.0);
        let want = linalg::matmul(&linalg::transpose(&a).unwrap(), &b).unwrap();
        let got = linalg::matmul_tn(&a, &b).unwrap();
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        let a2 = lcg_tensor(Shape::d2(m, k), seed + 17, 1.0);
        let b2 = lcg_tensor(Shape::d2(n, k), seed + 23, 1.0);
        let want2 = linalg::matmul(&a2, &linalg::transpose(&b2).unwrap()).unwrap();
        let got2 = linalg::matmul_nt(&a2, &b2).unwrap();
        for (x, y) in got2.as_slice().iter().zip(want2.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Convolution is linear in its input:
    /// conv(x1 + x2) == conv(x1) + conv(x2) (zero bias).
    #[test]
    fn conv_linear_in_input(
        cin in 1usize..3, cout in 1usize..3, hw in 4usize..8,
        pad in 0usize..2, seed in 0u64..500,
    ) {
        let g = Conv2dGeometry::new(cin, cout, 3, 1, pad, hw, hw).unwrap();
        let x1 = lcg_tensor(Shape::d4(1, cin, hw, hw), seed, 1.0);
        let x2 = lcg_tensor(Shape::d4(1, cin, hw, hw), seed + 7, 1.0);
        let w = lcg_tensor(g.weight_shape(), seed + 13, 0.3);
        let b = Tensor::zeros(Shape::d1(cout));
        let sum = x1.zip(&x2, |a, c| a + c).unwrap();
        let y_sum = conv2d_forward(&g, &sum, &w, &b).unwrap();
        let y1 = conv2d_forward(&g, &x1, &w, &b).unwrap();
        let y2 = conv2d_forward(&g, &x2, &w, &b).unwrap();
        let y_sep = y1.zip(&y2, |a, c| a + c).unwrap();
        for (x, y) in y_sum.as_slice().iter().zip(y_sep.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// The conv backward input-gradient is the adjoint of the
    /// forward: <conv(x), dy> == <x, conv_backward(dy)>.
    #[test]
    fn conv_backward_is_adjoint(
        cin in 1usize..3, cout in 1usize..3, hw in 4usize..7,
        stride in 1usize..3, seed in 0u64..500,
    ) {
        let g = match Conv2dGeometry::new(cin, cout, 3, stride, 1, hw, hw) {
            Ok(g) => g,
            Err(_) => return Ok(()),
        };
        let x = lcg_tensor(Shape::d4(1, cin, hw, hw), seed, 1.0);
        let w = lcg_tensor(g.weight_shape(), seed + 3, 0.3);
        let b = Tensor::zeros(Shape::d1(cout));
        let y = conv2d_forward(&g, &x, &w, &b).unwrap();
        let dy = lcg_tensor(y.shape(), seed + 5, 1.0);
        let grads = conv2d_backward(&g, &x, &w, &dy).unwrap();
        let lhs: f64 = y.as_slice().iter().zip(dy.as_slice()).map(|(&a, &c)| (a * c) as f64).sum();
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(grads.grad_input.as_slice())
            .map(|(&a, &c)| (a * c) as f64)
            .sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// Max-pooling a binary map yields a binary map and never
    /// increases the spike count.
    #[test]
    fn pool_binary_and_contractive(c in 1usize..3, hw in 4usize..9, seed in 0u64..500) {
        let g = Pool2dGeometry::new(c, 2, 2, hw, hw).unwrap();
        let x = lcg_tensor(Shape::d4(1, c, hw, hw), seed, 1.0).map(|v| f32::from(v > 0.0));
        let f = maxpool2d_forward(&g, &x, true).unwrap();
        for &v in f.output.as_slice() {
            prop_assert!(v == 0.0 || v == 1.0);
        }
        prop_assert!(f.output.sum() <= x.sum());
    }

    /// Pool backward scatters exactly the upstream gradient mass.
    #[test]
    fn pool_backward_conserves_mass(c in 1usize..3, hw in 4usize..9, seed in 0u64..500) {
        let g = Pool2dGeometry::new(c, 2, 2, hw, hw).unwrap();
        let x = lcg_tensor(Shape::d4(1, c, hw, hw), seed, 1.0);
        let f = maxpool2d_forward(&g, &x, true).unwrap();
        let dy = lcg_tensor(f.output.shape(), seed + 1, 1.0);
        let dx = maxpool2d_backward(&g, 1, &f.argmax, &dy).unwrap();
        prop_assert!((dx.sum() - dy.sum()).abs() < 1e-3);
    }

    /// Sparsity + density always sums to one.
    #[test]
    fn sparsity_complement(len in 1usize..200, seed in 0u64..500) {
        let t = lcg_tensor(Shape::d1(len), seed, 1.0).map(|v| f32::from(v > 0.2));
        let density = t.count_nonzero() as f64 / t.len() as f64;
        prop_assert!((t.sparsity() + density - 1.0).abs() < 1e-12);
    }

    /// The lane counter equals `filter(|&&v| v != 0.0).count()` on every
    /// value class (`±0.0`, NaN, `±inf`, subnormals, spikes and analog
    /// values) at every length, and its per-row form equals that scan
    /// on each row, odd row lengths included.
    #[test]
    fn count_nonzero_matches_naive_scan(
        len in 0usize..=300,
        rows in 1usize..8,
        seed in any::<u64>(),
    ) {
        let sub = f32::from_bits(1);
        let palette = [
            0.0, -0.0, 1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, sub, -sub, -0.75,
            f32::MIN_POSITIVE,
        ];
        let mut rng = seed | 1;
        let x: Vec<f32> = (0..len)
            .map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                palette[(rng >> 33) as usize % palette.len()]
            })
            .collect();
        let naive = |v: &[f32]| v.iter().filter(|&&v| v != 0.0).count();
        prop_assert_eq!(count_nonzero(&x), naive(&x));
        let t = Tensor::from_vec(Shape::d1(x.len()), x.clone()).unwrap();
        prop_assert_eq!(t.count_nonzero(), naive(&x));
        // Round the length down to whole rows; any row length results.
        let whole = &x[..x.len() / rows * rows];
        let mut counts = vec![7; 3];
        count_nonzero_rows(whole, rows, &mut counts);
        prop_assert_eq!(counts.len(), rows);
        let row_len = whole.len() / rows;
        for (i, &c) in counts.iter().enumerate() {
            prop_assert_eq!(c as usize, naive(&whole[i * row_len..(i + 1) * row_len]));
        }
    }
}
