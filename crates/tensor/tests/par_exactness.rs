//! Bitwise-exactness properties of the parallel / sparsity-aware
//! compute backend.
//!
//! The contract (see `linalg` module docs): for every kernel, the
//! result is **bit-for-bit identical** regardless of
//!
//! * the configured thread count (1–8 here),
//! * whether the sparse spike path or the dense path was taken,
//! * whether scratch buffers are fresh or reused.
//!
//! Each property compares full `f32::to_bits` vectors, not approximate
//! values.

use proptest::prelude::*;

use snn_tensor::conv::{
    conv2d_backward_with, conv2d_forward_with, Conv2dGeometry, ConvScratch,
};
use snn_tensor::pool::{maxpool2d_backward, maxpool2d_forward, Pool2dGeometry};
use snn_tensor::{linalg, par, Shape, Tensor};

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 5, 8];

fn lcg_tensor(shape: Shape, seed: u64, scale: f32) -> Tensor {
    let mut rng = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    Tensor::from_fn(shape, |_| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (((rng >> 33) as f32 / u32::MAX as f32) - 0.5) * 2.0 * scale
    })
}

/// Binary {0, 1} tensor with roughly `density_pct`% ones. `0` and
/// `100` produce exactly all-zero / all-one tensors.
fn spike_tensor(shape: Shape, seed: u64, density_pct: u32) -> Tensor {
    let mut rng = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    Tensor::from_fn(shape, |_| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        f32::from(((rng >> 33) % 100) < density_pct as u64)
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Naive triple-loop GEMM in the canonical accumulation order
/// (ascending `p` per output element) — the serial reference that
/// every optimized path must reproduce bit-for-bit.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    let (av, bv) = (a.as_slice(), b.as_slice());
    Tensor::from_fn(Shape::d2(m, n), |idx| {
        let (i, j) = (idx / n, idx % n);
        let mut acc = 0.0f32;
        for p in 0..k {
            acc += av[i * k + p] * bv[p * n + j];
        }
        acc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `matmul` equals the naive reference bitwise, at every thread
    /// count.
    #[test]
    fn matmul_bitwise_invariant(m in 1usize..20, k in 1usize..24, n in 1usize..20, seed in 0u64..500) {
        let a = lcg_tensor(Shape::d2(m, k), seed, 1.0);
        let b = lcg_tensor(Shape::d2(k, n), seed + 1, 1.0);
        let want = bits(&naive_matmul(&a, &b));
        for t in THREAD_COUNTS {
            let got = par::with_num_threads(t, || linalg::matmul(&a, &b).unwrap());
            prop_assert_eq!(&bits(&got), &want, "threads={}", t);
        }
    }

    /// `matmul_nt` (the reference the dense-layer forward is tested
    /// against) is bitwise invariant across thread counts and across
    /// the sparse/dense path switch: binary spike operands at any
    /// density — including all-zero and all-one — give the same bits
    /// as the naive reference.
    #[test]
    fn matmul_nt_sparse_and_threads_invariant(
        m in 1usize..16, k in 1usize..24, n in 1usize..16,
        density_idx in 0usize..5,
        seed in 0u64..500,
    ) {
        let density = [0u32, 10, 50, 90, 100][density_idx];
        let a = spike_tensor(Shape::d2(m, k), seed, density);
        let b = lcg_tensor(Shape::d2(n, k), seed + 3, 1.0);
        let bt = linalg::transpose(&b).unwrap();
        let want = bits(&naive_matmul(&a, &bt));
        for t in THREAD_COUNTS {
            let got = par::with_num_threads(t, || linalg::matmul_nt(&a, &b).unwrap());
            prop_assert_eq!(&bits(&got), &want, "threads={} density={}", t, density);
        }
    }

    /// `matmul_tn` (the dense-layer dW kernel) is bitwise invariant
    /// across thread counts.
    #[test]
    fn matmul_tn_thread_invariant(m in 1usize..16, k in 1usize..24, n in 1usize..16, seed in 0u64..500) {
        let a = lcg_tensor(Shape::d2(k, m), seed, 1.0);
        let b = lcg_tensor(Shape::d2(k, n), seed + 5, 1.0);
        let want = par::with_num_threads(1, || linalg::matmul_tn(&a, &b).unwrap());
        let want = bits(&want);
        for t in &THREAD_COUNTS[1..] {
            let got = par::with_num_threads(*t, || linalg::matmul_tn(&a, &b).unwrap());
            prop_assert_eq!(&bits(&got), &want, "threads={}", t);
        }
    }

    /// Conv forward: binary spike inputs at any density (sparse path)
    /// and real-valued inputs (dense path) give identical bits at
    /// every thread count, with fresh or reused scratch.
    #[test]
    fn conv_forward_bitwise_invariant(
        batch in 1usize..5, cin in 1usize..3, cout in 1usize..4,
        hw in 3usize..7, pad in 0usize..2,
        density_idx in 0usize..6,
        seed in 0u64..500,
    ) {
        let density = [0u32, 10, 50, 90, 100, 255][density_idx];
        let g = Conv2dGeometry::new(cin, cout, 3, 1, pad, hw, hw).unwrap();
        // density 255 = non-binary input, forcing the dense GEMM path.
        let x = if density == 255 {
            lcg_tensor(Shape::d4(batch, cin, hw, hw), seed, 1.0)
        } else {
            spike_tensor(Shape::d4(batch, cin, hw, hw), seed, density)
        };
        let w = lcg_tensor(g.weight_shape(), seed + 13, 0.3);
        let b = lcg_tensor(Shape::d1(cout), seed + 17, 0.1);
        let mut fresh = ConvScratch::new();
        let want = par::with_num_threads(1, || {
            conv2d_forward_with(&g, &x, &w, &b, &mut fresh).unwrap()
        });
        let want = bits(&want);
        let mut reused = ConvScratch::new();
        for t in THREAD_COUNTS {
            let got = par::with_num_threads(t, || {
                conv2d_forward_with(&g, &x, &w, &b, &mut reused).unwrap()
            });
            prop_assert_eq!(&bits(&got), &want, "threads={} density={}", t, density);
        }
    }

    /// Conv backward: all three gradients (input, weight, bias) are
    /// bitwise invariant across thread counts and scratch reuse.
    #[test]
    fn conv_backward_bitwise_invariant(
        batch in 1usize..5, cin in 1usize..3, cout in 1usize..4,
        hw in 3usize..7,
        density_idx in 0usize..4,
        seed in 0u64..500,
    ) {
        let density = [0u32, 50, 100, 255][density_idx];
        let g = Conv2dGeometry::new(cin, cout, 3, 1, 1, hw, hw).unwrap();
        let x = if density == 255 {
            lcg_tensor(Shape::d4(batch, cin, hw, hw), seed, 1.0)
        } else {
            spike_tensor(Shape::d4(batch, cin, hw, hw), seed, density)
        };
        let w = lcg_tensor(g.weight_shape(), seed + 13, 0.3);
        let dy = lcg_tensor(Shape::d4(batch, cout, g.out_h(), g.out_w()), seed + 19, 1.0);
        let mut fresh = ConvScratch::new();
        let want = par::with_num_threads(1, || {
            conv2d_backward_with(&g, &x, &w, &dy, &mut fresh).unwrap()
        });
        let (wi, ww, wb) = (bits(&want.grad_input), bits(&want.grad_weight), bits(&want.grad_bias));
        let mut reused = ConvScratch::new();
        for t in THREAD_COUNTS {
            let got = par::with_num_threads(t, || {
                conv2d_backward_with(&g, &x, &w, &dy, &mut reused).unwrap()
            });
            prop_assert_eq!(&bits(&got.grad_input), &wi, "grad_input threads={}", t);
            prop_assert_eq!(&bits(&got.grad_weight), &ww, "grad_weight threads={}", t);
            prop_assert_eq!(&bits(&got.grad_bias), &wb, "grad_bias threads={}", t);
        }
    }

    /// Max-pool forward (values + argmax) and backward are bitwise
    /// invariant across thread counts.
    #[test]
    fn pool_bitwise_invariant(
        batch in 1usize..5, c in 1usize..4, hw in 4usize..10, seed in 0u64..500,
    ) {
        let g = Pool2dGeometry::new(c, 2, 2, hw, hw).unwrap();
        let x = lcg_tensor(Shape::d4(batch, c, hw, hw), seed, 1.0);
        let fwd_ref = par::with_num_threads(1, || maxpool2d_forward(&g, &x, true).unwrap());
        let dy = lcg_tensor(fwd_ref.output.shape(), seed + 1, 1.0);
        let bwd_ref = par::with_num_threads(1, || {
            maxpool2d_backward(&g, batch, &fwd_ref.argmax, &dy).unwrap()
        });
        let (wo, wb) = (bits(&fwd_ref.output), bits(&bwd_ref));
        for t in &THREAD_COUNTS[1..] {
            let (fwd, bwd) = par::with_num_threads(*t, || {
                let f = maxpool2d_forward(&g, &x, true).unwrap();
                let b = maxpool2d_backward(&g, batch, &f.argmax, &dy).unwrap();
                (f, b)
            });
            prop_assert_eq!(&fwd.argmax, &fwd_ref.argmax, "argmax threads={}", t);
            prop_assert_eq!(&bits(&fwd.output), &wo, "pool fwd threads={}", t);
            let plain = par::with_num_threads(*t, || maxpool2d_forward(&g, &x, false).unwrap());
            prop_assert_eq!(&bits(&plain.output), &wo, "argmax-free pool fwd threads={}", t);
            prop_assert_eq!(&bits(&bwd), &wb, "pool bwd threads={}", t);
        }
    }
}
