//! Bitwise-exactness of the shared max pool: the window loop and the
//! 2×2 / stride-2 row-pair kernel.
//!
//! `maxpool2d_forward` (f32) and `maxpool_into` (f32 and u8) must
//! equal a naive window scan exactly: each output is the first element
//! of its window, in `(ky, kx)` order, that compares strictly greater
//! than everything before it, starting from `PoolElem::FLOOR`. That
//! fixes which of `-0.0` and `+0.0` wins a tie (the earlier one), that
//! NaN never wins, and that a window of only NaN and `-inf` pools to
//! `-inf` with its argmax on the channel's first element. The suites
//! compare values by bit pattern, with the argmax on and off, on one
//! and four workers, with strides below, at and above the kernel, and
//! at the 2×2 / stride-2 shape over rows wide enough for the row-pair
//! kernel's 8- and 4-output `u8` blocks and its single-output tail.

use proptest::prelude::*;

use snn_tensor::par;
use snn_tensor::pool::{maxpool2d_forward, maxpool_into, Pool2dGeometry, PoolElem};
use snn_tensor::{Shape, Tensor};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

/// f32 values that stress the comparison: signed zeros, NaN, both
/// infinities, and negatives only (so a window can be all-negative).
const F32_PALETTE: [f32; 9] =
    [0.0, -0.0, f32::NAN, f32::NEG_INFINITY, f32::INFINITY, -1.0, -2.5, 1.0, 0.5];

fn f32_values(len: usize, seed: u64, palette: &[f32]) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
    (0..len).map(|_| palette[(lcg(&mut s) % palette.len() as u64) as usize]).collect()
}

fn u8_values(len: usize, seed: u64, binary: bool) -> Vec<u8> {
    let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(5);
    (0..len)
        .map(|_| if binary { lcg(&mut s).is_multiple_of(4) as u8 } else { lcg(&mut s) as u8 })
        .collect()
}

/// The naive window scan: per output, every tap in `(ky, kx)` order
/// with strict `>` from the floor; the argmax starts on the channel's
/// first element.
fn reference<T: PoolElem>(g: &Pool2dGeometry, x: &[T], n: usize) -> (Vec<T>, Vec<u32>) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut out = Vec::new();
    let mut argmax = Vec::new();
    for item in 0..n {
        for c in 0..g.channels {
            let base = (item * g.channels + c) * g.in_h * g.in_w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let (mut best, mut best_off) = (T::FLOOR, base);
                    for ky in 0..g.kernel {
                        for kx in 0..g.kernel {
                            let off = base + (oy * g.stride + ky) * g.in_w + ox * g.stride + kx;
                            if x[off] > best {
                                best = x[off];
                                best_off = off;
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(best_off as u32);
                }
            }
        }
    }
    (out, argmax)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks both entry points against the reference on one input, on
/// one and four workers, with and without the argmax.
fn check_f32(g: &Pool2dGeometry, x: &[f32], n: usize) -> Result<(), TestCaseError> {
    let (want, want_arg) = reference(g, x, n);
    let input = Tensor::from_vec(Shape::d4(n, g.channels, g.in_h, g.in_w), x.to_vec()).unwrap();
    for threads in [1usize, 4] {
        let (with, without) = par::with_num_threads(threads, || {
            let with = maxpool2d_forward(g, &input, true).unwrap();
            (with, maxpool2d_forward(g, &input, false).unwrap())
        });
        prop_assert_eq!(bits(with.output.as_slice()), bits(&want), "{} workers, argmax on", threads);
        prop_assert_eq!(&with.argmax, &want_arg, "{} workers", threads);
        prop_assert_eq!(bits(without.output.as_slice()), bits(&want), "{} workers, argmax off", threads);
        prop_assert!(without.argmax.is_empty());
        let mut out = vec![0.0f32; want.len()];
        par::with_num_threads(threads, || maxpool_into(g, x, &mut out, &mut []));
        prop_assert_eq!(bits(&out), bits(&want), "maxpool_into, {} workers", threads);
    }
    Ok(())
}

fn check_u8(g: &Pool2dGeometry, x: &[u8], n: usize) -> Result<(), TestCaseError> {
    let (want, want_arg) = reference(g, x, n);
    for threads in [1usize, 4] {
        let mut out = vec![0u8; want.len()];
        let mut arg = vec![0u32; want.len()];
        par::with_num_threads(threads, || maxpool_into(g, x, &mut out, &mut arg));
        prop_assert_eq!(&out, &want, "{} workers, argmax on", threads);
        prop_assert_eq!(&arg, &want_arg, "{} workers", threads);
        let mut plain = vec![7u8; want.len()];
        par::with_num_threads(threads, || maxpool_into(g, x, &mut plain, &mut []));
        prop_assert_eq!(&plain, &want, "{} workers, argmax off", threads);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// f32 pooling over palette values: every geometry with stride
    /// below, at and above the kernel.
    #[test]
    fn f32_pool_matches_naive_scan(
        n in 1usize..5, channels in 1usize..4, kernel in 1usize..4, stride in 1usize..6,
        extra_h in 0usize..7, extra_w in 0usize..7, seed in 0u64..10_000,
    ) {
        let g = Pool2dGeometry::new(channels, kernel, stride, kernel + extra_h, kernel + extra_w)
            .unwrap();
        let x = f32_values(n * channels * g.in_h * g.in_w, seed, &F32_PALETTE);
        check_f32(&g, &x, n)?;
    }

    /// f32 windows of only NaN, `-inf` and negatives.
    #[test]
    fn f32_pool_matches_naive_scan_without_positives(
        n in 1usize..4, kernel in 1usize..4, stride in 1usize..5, seed in 0u64..10_000,
    ) {
        let g = Pool2dGeometry::new(2, kernel, stride, kernel + 3, kernel + 4).unwrap();
        let palette = [f32::NAN, f32::NEG_INFINITY, -1.0, -2.5, -0.0];
        let x = f32_values(n * 2 * g.in_h * g.in_w, seed, &palette);
        check_f32(&g, &x, n)?;
    }

    /// u8 pooling: binary spikes (an OR) and full-range levels.
    #[test]
    fn u8_pool_matches_naive_scan(
        n in 1usize..5, channels in 1usize..4, kernel in 1usize..4, stride in 1usize..6,
        extra_h in 0usize..7, extra_w in 0usize..7, seed in 0u64..10_000, binary in any::<bool>(),
    ) {
        let g = Pool2dGeometry::new(channels, kernel, stride, kernel + extra_h, kernel + extra_w)
            .unwrap();
        let x = u8_values(n * channels * g.in_h * g.in_w, seed, binary);
        check_u8(&g, &x, n)?;
    }

    /// The 2×2 / stride-2 shape at widths 16–40: every row runs at
    /// least one 8-output `u8` block, and the widths cover each mix of
    /// 8-blocks, a 4-block and 1–3 single outputs. Odd widths and
    /// heights drop the last column and row. Binary spikes, full-range
    /// `u8` levels and the f32 palette, each with the argmax on and off.
    #[test]
    fn pool_2x2_matches_naive_scan_at_block_widths(
        n in 1usize..18, channels in 1usize..3, in_h in 2usize..21, in_w in 16usize..41,
        seed in 0u64..10_000,
    ) {
        let g = Pool2dGeometry::new(channels, 2, 2, in_h, in_w).unwrap();
        let len = n * channels * in_h * in_w;
        check_u8(&g, &u8_values(len, seed, true), n)?;
        check_u8(&g, &u8_values(len, seed, false), n)?;
        check_f32(&g, &f32_values(len, seed, &F32_PALETTE), n)?;
    }
}

/// Signed-zero ties resolve to the earlier element in `(ky, kx)`
/// order, whichever sign comes first.
#[test]
fn signed_zero_ties_keep_the_first() {
    let g = Pool2dGeometry::new(1, 2, 2, 2, 4).unwrap();
    // Window 0 reads -0.0 and then only +0.0; window 1 the reverse.
    let x = [-0.0, 0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0];
    let input = Tensor::from_vec(Shape::d4(1, 1, 2, 4), x.to_vec()).unwrap();
    let f = maxpool2d_forward(&g, &input, true).unwrap();
    assert_eq!(bits(f.output.as_slice()), bits(&[-0.0, 0.0]));
    assert_eq!(f.argmax, vec![0, 2]);
    check_f32(&g, &x, 1).unwrap();
}

/// A window nothing beats (all NaN, or all `-inf`) pools to `-inf`
/// and points at its channel's first element.
#[test]
fn nan_and_neg_infinity_windows_pool_to_the_floor() {
    let g = Pool2dGeometry::new(2, 2, 2, 2, 4).unwrap();
    let nan = f32::NAN;
    let ninf = f32::NEG_INFINITY;
    let x = [nan, nan, ninf, 3.0, nan, nan, ninf, nan, ninf, ninf, nan, 1.0, ninf, ninf, 2.0, nan];
    let input = Tensor::from_vec(Shape::d4(1, 2, 2, 4), x.to_vec()).unwrap();
    let f = maxpool2d_forward(&g, &input, true).unwrap();
    assert_eq!(bits(f.output.as_slice()), bits(&[ninf, 3.0, ninf, 2.0]));
    assert_eq!(f.argmax, vec![0, 3, 8, 14]);
    check_f32(&g, &x, 1).unwrap();
}

/// An empty batch pools to nothing.
#[test]
fn empty_batch_is_a_no_op() {
    let g = Pool2dGeometry::new(3, 2, 2, 4, 4).unwrap();
    let mut out: Vec<u8> = Vec::new();
    maxpool_into(&g, &[], &mut out, &mut []);
    assert!(out.is_empty());
}
