//! Bitwise-exactness properties of the quantized (integer) kernels.
//!
//! Contract (see `qmat` module docs): the quantized convolution's
//! event and dense routes produce **identical** i32 accumulators for
//! every binary input, geometry, and thread count — exactness is
//! unconditional because all sums use wrapping i32 arithmetic, which
//! is associative and commutative even at overflow. The adversarial
//! cases here drive accumulators near and past `i32::MAX` on purpose.
//!
//! Both routes are also checked against a direct per-output reference
//! convolution ([`ref_conv`]): the dense route on level-coded inputs
//! over the full `0..=255` range with weights down to `-128` (the
//! largest products the kernel's 16-bit lanes hold, ±32 640), odd
//! im2col depths and planes that are not a multiple of the kernel's
//! column tile; the event route at strides 1–3, padding 0–2 and
//! kernels as large as the padded input.

use proptest::prelude::*;

use snn_tensor::conv::Conv2dGeometry;
use snn_tensor::dispatch::{with_event_density_threshold, ConvRoute};
use snn_tensor::par;
use snn_tensor::qmat::{
    qconv2d_forward_routed, qgemm_into, qlinear_into, transpose_i8, QConvScratch,
};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

fn spikes_u8(len: usize, seed: u64, density_pct: u32) -> Vec<u8> {
    let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    (0..len).map(|_| (lcg(&mut s) % 100 < density_pct as u64) as u8).collect()
}

fn weights_i8(len: usize, seed: u64, extreme: bool) -> Vec<i8> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
    (0..len)
        .map(|_| {
            if extreme {
                // Only ±127: drives every accumulator toward its
                // worst case.
                if lcg(&mut s).is_multiple_of(2) { 127 } else { -127 }
            } else {
                ((lcg(&mut s) % 255) as i32 - 127) as i8
            }
        })
        .collect()
}

/// Every `i8` weight, `-128` included, uniformly; the first two are
/// pinned to the extremes.
fn weights_full_range(len: usize, seed: u64) -> Vec<i8> {
    let mut s = seed.wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(5);
    let mut w: Vec<i8> = (0..len).map(|_| (lcg(&mut s) % 256) as u8 as i8).collect();
    for (slot, v) in w.iter_mut().zip([i8::MIN, i8::MAX]) {
        *slot = v;
    }
    w
}

/// Level-coded activations over the whole `0..=255` range; the first
/// two are pinned to 255 and 0.
fn levels_full_range(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(9);
    let mut x: Vec<u8> = (0..len).map(|_| (lcg(&mut s) % 256) as u8).collect();
    for (slot, v) in x.iter_mut().zip([u8::MAX, 0]) {
        *slot = v;
    }
    x
}

/// Direct convolution of one item from the output side, summed in
/// `i64` and truncated: the wrapping `i32` sum the kernels promise.
fn ref_conv(g: &Conv2dGeometry, x: &[u8], w: &[i8]) -> Vec<i32> {
    let (oh, ow, k) = (g.out_h(), g.out_w(), g.kernel);
    let mut out = Vec::with_capacity(g.out_channels * oh * ow);
    for o in 0..g.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut sum = 0i64;
                for c in 0..g.in_channels {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if iy < 0 || ix < 0 || iy >= g.in_h as isize || ix >= g.in_w as isize {
                                continue;
                            }
                            let xv = x[(c * g.in_h + iy as usize) * g.in_w + ix as usize];
                            let wv = w[((o * g.in_channels + c) * k + ky) * k + kx];
                            sum += xv as i64 * wv as i64;
                        }
                    }
                }
                out.push(sum as i32);
            }
        }
    }
    out
}

/// Runs the routed convolution forced onto `route` and checks every
/// item against [`ref_conv`].
fn check_route_against_reference(
    g: &Conv2dGeometry,
    x: &[u8],
    batch: usize,
    w: &[i8],
    route: ConvRoute,
) -> Result<(), TestCaseError> {
    let wt = transpose_i8(w, g.out_channels, g.col_rows());
    let item_in = g.in_channels * g.in_h * g.in_w;
    let item_out = g.out_channels * g.out_h() * g.out_w();
    let mut acc = vec![-1i32; batch * item_out];
    let thr = if route == ConvRoute::Event { 1.0 } else { -1.0 };
    let got = with_event_density_threshold(thr, || {
        qconv2d_forward_routed(g, x, batch, w, &wt, &mut acc, &mut QConvScratch::new())
    });
    prop_assert_eq!(got, route);
    for item in 0..batch {
        let want = ref_conv(g, &x[item * item_in..(item + 1) * item_in], w);
        prop_assert_eq!(&acc[item * item_out..(item + 1) * item_out], &want[..], "item {}", item);
    }
    Ok(())
}

/// The dense route's extreme products: activations 255 and 0..=255
/// against weights −128..=127 on 3-channel 3×3 kernels (an odd im2col
/// depth of 27), over 5×5 and 7×7 planes (25 and 49 output columns,
/// not a multiple of the column tile) and 5 output channels (not a
/// multiple of the row block).
#[test]
fn dense_route_full_range_products_match_reference() {
    for hw in [5, 7] {
        let g = Conv2dGeometry::new(3, 5, 3, 1, 1, hw, hw).unwrap();
        assert_eq!(g.col_rows(), 27);
        let item_in = 3 * hw * hw;
        let w = weights_full_range(5 * 27, hw as u64);
        let saturated = vec![u8::MAX; 2 * item_in];
        let ramp: Vec<u8> = (0..2 * item_in).map(|i| (i * 37 % 256) as u8).collect();
        for x in [saturated, ramp, levels_full_range(2 * item_in, hw as u64)] {
            check_route_against_reference(&g, &x, 2, &w, ConvRoute::Dense).unwrap();
        }
        let most_negative = vec![i8::MIN; 5 * 27];
        let x = vec![u8::MAX; item_in];
        check_route_against_reference(&g, &x, 1, &most_negative, ConvRoute::Dense).unwrap();
    }
}

/// [`qgemm_into`] on odd `k`, row counts off the row block and column
/// counts off the tile, with full-range operands, against the naive
/// wrapping sum; accumulating onto nonzero contents.
#[test]
fn qgemm_full_range_odd_shapes_match_naive() {
    for (m, k, n) in [(1, 1, 1), (5, 27, 25), (3, 27, 49), (9, 13, 17), (4, 2, 8)] {
        let w = weights_full_range(m * k, (m * k) as u64);
        let x = levels_full_range(k * n, n as u64);
        let start: Vec<i32> = (0..m * n).map(|i| i as i32 * 1000 - 7).collect();
        let mut acc = start.clone();
        qgemm_into(&w, &x, &mut acc, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let mut want = start[i * n + j];
                for kk in 0..k {
                    want = want.wrapping_add(w[i * k + kk] as i32 * x[kk * n + j] as i32);
                }
                assert_eq!(acc[i * n + j], want, "({m},{k},{n}) at ({i},{j})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Dense route against the reference on level-coded inputs over
    /// the full `0..=255` range and full-range weights, for random
    /// (also non-square) geometries.
    #[test]
    fn qconv_dense_level_coded_matches_reference(
        batch in 1usize..3, cin in 1usize..4, cout in 1usize..7,
        h in 1usize..9, w in 1usize..9, kernel in 1usize..4, stride in 1usize..4,
        pad in 0usize..3, seed in 0u64..1000,
    ) {
        let kernel = kernel.min(h + 2 * pad).min(w + 2 * pad);
        let g = Conv2dGeometry::new(cin, cout, kernel, stride, pad, h, w).unwrap();
        let x = levels_full_range(batch * cin * h * w, seed);
        let wts = weights_full_range(cout * g.col_rows(), seed ^ 0x77);
        check_route_against_reference(&g, &x, batch, &wts, ConvRoute::Dense)?;
    }

    /// Event route against the reference at strides 1–3 and padding
    /// 0–2, with kernels up to (and, when `full_kernel`, equal to) the
    /// padded input, over densities 0–100%.
    #[test]
    fn qconv_event_matches_reference(
        batch in 1usize..3, cin in 1usize..4, cout in 1usize..6,
        h in 1usize..8, w in 1usize..8, kernel in 1usize..5, stride in 1usize..4,
        pad in 0usize..3, full_kernel in any::<bool>(), density_idx in 0usize..5,
        seed in 0u64..1000,
    ) {
        let fit = (h + 2 * pad).min(w + 2 * pad);
        let kernel = if full_kernel { fit } else { kernel.min(fit) };
        let g = Conv2dGeometry::new(cin, cout, kernel, stride, pad, h, w).unwrap();
        let density = [0u32, 10, 50, 90, 100][density_idx];
        let x = spikes_u8(batch * cin * h * w, seed, density);
        let wts = weights_full_range(cout * g.col_rows(), seed ^ 0x99);
        check_route_against_reference(&g, &x, batch, &wts, ConvRoute::Event)?;
    }

    /// Quantized conv: event route == dense route == thread-count
    /// invariant, for random geometries and densities 0–100%.
    #[test]
    fn qconv_event_equals_dense_across_threads(
        batch in 1usize..5, cin in 1usize..3, cout in 1usize..5,
        hw in 3usize..8, kernel in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        density_idx in 0usize..5, seed in 0u64..500, extreme in any::<bool>(),
    ) {
        let kernel = kernel.min(hw + 2 * pad);
        let g = Conv2dGeometry::new(cin, cout, kernel, stride, pad, hw, hw).unwrap();
        let density = [0u32, 10, 50, 90, 100][density_idx];
        let item_in = cin * hw * hw;
        let x = spikes_u8(batch * item_in, seed, density);
        let w = weights_i8(cout * g.col_rows(), seed ^ 0xABCD, extreme);
        let wt = transpose_i8(&w, cout, g.col_rows());
        let item_out = cout * g.out_h() * g.out_w();
        let mut outputs = Vec::new();
        for &threads in &[1usize, 4] {
            for &thr in &[-1.0f32, 1.0] {
                let mut acc = vec![7i32; batch * item_out];
                let route = with_event_density_threshold(thr, || {
                    par::with_num_threads(threads, || {
                        qconv2d_forward_routed(
                            &g, &x, batch, &w, &wt, &mut acc, &mut QConvScratch::new(),
                        )
                    })
                });
                let expect = if thr < 0.0 { ConvRoute::Dense } else { ConvRoute::Event };
                prop_assert_eq!(route, expect, "threshold {} must force its route", thr);
                outputs.push(acc);
            }
        }
        for other in &outputs[1..] {
            prop_assert_eq!(&outputs[0], other, "all route/thread combinations must agree");
        }
    }

    /// The event-driven linear kernel equals the j-blocked GEMM on
    /// the transposed problem and is thread-count invariant, for
    /// spike and level-coded (0..=255) activations alike.
    #[test]
    fn qlinear_equals_qgemm_across_threads(
        items in 1usize..7, k in 1usize..40, out in 1usize..20,
        seed in 0u64..500, level_coded in any::<bool>(), extreme in any::<bool>(),
    ) {
        let x: Vec<u8> = if level_coded {
            let mut s = seed;
            (0..items * k).map(|_| (lcg(&mut s) % 256) as u8).collect()
        } else {
            spikes_u8(items * k, seed, 30)
        };
        let w = weights_i8(out * k, seed ^ 0x55AA, extreme);
        let wt = transpose_i8(&w, out, k);
        let mut one = vec![0i32; items * out];
        let mut four = vec![0i32; items * out];
        par::with_num_threads(1, || qlinear_into(&x, &wt, &mut one, items, k, out));
        par::with_num_threads(4, || qlinear_into(&x, &wt, &mut four, items, k, out));
        prop_assert_eq!(&one, &four, "thread counts must agree");
        // Reference: acc[i][o] = (W · X^T)[o][i] via the dense GEMM.
        let mut xt = vec![0u8; k * items];
        for i in 0..items {
            for j in 0..k {
                xt[j * items + i] = x[i * k + j];
            }
        }
        let mut byg = vec![0i32; out * items];
        qgemm_into(&w, &xt, &mut byg, out, k, items);
        for i in 0..items {
            for o in 0..out {
                prop_assert_eq!(one[i * out + o], byg[o * items + i]);
            }
        }
    }

    /// Wrapping accumulation: even when exact sums exceed `i32`
    /// (every weight ±127, every activation 255, k large enough that
    /// `k · 127 · 255 > i32::MAX`), the j-blocked GEMM equals the
    /// naive wrapping reference — overflow wraps identically in any
    /// summation order, it never panics and never saturates silently.
    #[test]
    fn qgemm_wraps_deterministically_near_overflow(
        m in 1usize..4, n in 1usize..6, seed in 0u64..100,
    ) {
        let k = 70_000; // 70_000 * 127 * 255 ≈ 2.27e9 > i32::MAX
        let w = weights_i8(m * k, seed, true);
        let x = vec![255u8; k * n];
        let mut acc = vec![0i32; m * n];
        qgemm_into(&w, &x, &mut acc, m, k, n);
        for i in 0..m {
            let mut want = 0i32;
            for kk in 0..k {
                want = want.wrapping_add((w[i * k + kk] as i32).wrapping_mul(255));
            }
            for j in 0..n {
                prop_assert_eq!(acc[i * n + j], want);
            }
        }
    }
}
