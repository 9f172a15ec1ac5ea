//! Property suite for the quantization numeric core.
//!
//! Pins the three contracts DESIGN.md §13 states:
//!
//! 1. **Round trip** — per-channel quantize→dequantize error is
//!    bounded by half a quantization step per value.
//! 2. **Saturation** — casts clamp (never wrap, never produce
//!    `i8::MIN`), including i32 accumulators near overflow, and the
//!    row requantize ([`Rescale::apply_row`], and
//!    [`Rescale::apply_zip`] with a factor per element) equals the
//!    scalar [`Rescale::apply`] on every accumulator.
//! 3. **Fixed-point LIF** — the integer membrane trajectory tracks
//!    the f32 reference within a stated, derived tolerance, the
//!    runtime's row kernel ([`FixedLif::step_row`]) equals the scalar
//!    [`FixedLif::step`] on every input an artifact can produce, its
//!    wrapping lanes ([`FixedLif::step_row_certified`]) do so on every
//!    row [`FixedLif::certify`] accepts, and the full quantized
//!    forward is bit-identical across thread counts and dispatch
//!    routes.

use proptest::prelude::*;

use snn_core::{LifConfig, NetworkSnapshot, ResetMode, SpikingNetwork};
use snn_quant::{
    calibrate, quantize_snapshot, saturate_i8, FixedLif, LifSteps, QuantNetwork, QuantStage,
    QuantizedSnapshot, QuantizedTensor, Rescale, QUANT_FORMAT,
};
use snn_tensor::conv::Conv2dGeometry;
use snn_tensor::dispatch::with_event_density_threshold;
use snn_tensor::pool::Pool2dGeometry;
use snn_tensor::{par, Shape};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

fn values(len: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
    (0..len)
        .map(|_| ((lcg(&mut s) as f32 / u32::MAX as f32) - 0.5) * 2.0 * scale)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Quantize→dequantize reconstructs every value within half a
    /// step of that value's channel scale.
    #[test]
    fn roundtrip_error_bounded_by_half_step(
        channels in 1usize..6, per in 1usize..40,
        seed in 0u64..1000, scale in 1u32..500, bits in 2u32..9,
    ) {
        let scale = scale as f32 / 100.0;
        let vals = values(channels * per, seed, scale);
        let q = QuantizedTensor::quantize(&vals, channels, per, bits).unwrap();
        prop_assert!(q.validate().is_ok());
        let back = q.dequantize();
        for c in 0..channels {
            let bound = q.scales[c] * 0.5 + 1e-6;
            for j in 0..per {
                let i = c * per + j;
                prop_assert!(
                    (vals[i] - back[i]).abs() <= bound,
                    "channel {} value {}: {} vs {} exceeds half-step {}",
                    c, j, vals[i], back[i], bound
                );
            }
        }
    }

    /// `saturate_i8` clamps symmetrically: the full i32 domain maps
    /// into `[-127, 127]` and `i8::MIN` is unreachable.
    #[test]
    fn i8_saturation_excludes_min(v in any::<i32>()) {
        let s = saturate_i8(v) as i32;
        prop_assert!((-127..=127).contains(&s));
        prop_assert!(s != i8::MIN as i32 || s == -127);
        if (-127..=127).contains(&v) {
            prop_assert_eq!(s, v, "in-range values pass through");
        }
    }

    /// `Rescale::apply` equals the exact real computation, saturated
    /// — including accumulators at the i32 extremes.
    #[test]
    fn rescale_matches_real_arithmetic(
        acc in any::<i32>(), mult_scale in 1u32..2_000_000, shift_down in 0u32..20,
    ) {
        let r = mult_scale as f64 / (1u64 << shift_down) as f64;
        let rs = Rescale::from_real(r).unwrap();
        let got = rs.apply(acc) as f64;
        // Exact value under the *encoded* factor (mult/2^shift), which
        // is within 2^-22 relative of r.
        let exact = acc as f64 * rs.real();
        let clamped = exact.clamp(i32::MIN as f64, i32::MAX as f64);
        prop_assert!(
            (got - clamped).abs() <= 1.0,
            "acc {} * {} -> {} vs {}",
            acc, r, got, clamped
        );
    }

    /// Pure fixed-point decay tracks the f32 membrane within the
    /// stated bound: per step the Q15 beta encoding contributes at
    /// most `|u|·2^-16` and the Q`F` shift at most one ulp (`2^-F`),
    /// so `N` steps stay within `N·(|u0|·2^-15 + 2·2^-F)`.
    #[test]
    fn fixed_beta_decay_tracks_f32(
        beta_pct in 0u32..=100, u0_mil in -8000i32..8000, steps in 1usize..33,
    ) {
        let beta = beta_pct as f32 / 100.0;
        let u0 = u0_mil as f32 / 1000.0;
        let cfg = LifConfig { beta, ..LifConfig::paper_default() };
        const F: u32 = 16;
        let fx = FixedLif::from_config(&cfg, F).unwrap();
        let q_one = (1u64 << F) as f32;
        let mut uq = (u0 * q_one).round() as i32;
        let mut uf = u0;
        let tol_per_step = u0.abs() * (2f32).powi(-15) + 2.0 * (2f32).powi(-(F as i32));
        for step in 1..=steps {
            // No input, no spikes: pure leak through both paths.
            let (next, _) = fx.step(uq, false, 0);
            uq = next;
            uf *= beta;
            let got = uq as f32 / q_one;
            let tol = step as f32 * tol_per_step + 1.0 / q_one;
            prop_assert!(
                (got - uf).abs() <= tol,
                "step {}: fixed {} vs f32 {} exceeds tolerance {}",
                step, got, uf, tol
            );
        }
    }
}

/// Membranes and currents at and near the `i32` extremes (`Rescale`
/// saturates to them), plus values around zero.
const EDGES: [i32; 9] = [i32::MIN, i32::MIN + 1, -65_537, -1, 0, 1, 65_536, i32::MAX - 1, i32::MAX];

/// Runs [`FixedLif::step_row`] on one row and checks every neuron
/// against [`FixedLif::step`] with its bias (one shared, or one per
/// neuron) widened into the current.
fn check_row(
    lif: &FixedLif,
    mem: &[i32],
    spikes: &[u8],
    current: &[i32],
    bias: &[i32],
) -> Result<(), TestCaseError> {
    let (mut got_mem, mut got_spikes) = (mem.to_vec(), spikes.to_vec());
    lif.step_row(current, bias, &mut got_mem, &mut got_spikes);
    for i in 0..mem.len() {
        let b = bias[i % bias.len()];
        let want = lif.step(mem[i], spikes[i] != 0, current[i] as i64 + b as i64);
        prop_assert_eq!(
            (got_mem[i], got_spikes[i] != 0), want,
            "{:?}: m {} spike {} current {} bias {}", lif, mem[i], spikes[i], current[i], b
        );
        prop_assert!(got_spikes[i] <= 1, "spikes stay 0/1");
    }
    Ok(())
}

fn fixed_lif(beta_mult: i32, beta_shift: u32, theta_q: i32, zero_reset: bool) -> FixedLif {
    let lif = FixedLif {
        frac_bits: 16,
        beta_mult,
        beta_shift,
        theta_q,
        reset: if zero_reset { ResetMode::Zero } else { ResetMode::Subtract },
    };
    lif.validate().expect("in the accepted domain");
    lif
}

/// Every edge membrane × edge current × previous spike, for every
/// `beta_shift` that validation accepts, the end points and middle of
/// its multiplier range, both reset modes and edge biases.
#[test]
fn lif_row_kernel_matches_step_on_edges() {
    let mut mem = Vec::new();
    let mut spikes = Vec::new();
    let mut current = Vec::new();
    for &m in &EDGES {
        for &c in &EDGES {
            for s in [0u8, 1] {
                mem.push(m);
                spikes.push(s);
                current.push(c);
            }
        }
    }
    for beta_shift in 0..=30u32 {
        let top = 1i32 << beta_shift;
        for beta_mult in [0, 1, top / 2, top - 1, top] {
            for zero_reset in [false, true] {
                for theta_q in [1, 1 << 16, i32::MAX] {
                    let lif = fixed_lif(beta_mult, beta_shift, theta_q, zero_reset);
                    for bias in [i32::MIN, -1, 0, 1, i32::MAX] {
                        check_row(&lif, &mem, &spikes, &current, &[bias]).unwrap();
                    }
                    let per_neuron: Vec<i32> = (0..mem.len()).map(|i| EDGES[i % EDGES.len()]).collect();
                    check_row(&lif, &mem, &spikes, &current, &per_neuron).unwrap();
                }
            }
        }
    }
}

/// [`Rescale::apply_row`] equals [`Rescale::apply`] on every edge
/// accumulator, for every shift validation accepts and multipliers
/// from zero to `i32::MAX`.
#[test]
fn rescale_row_matches_apply_on_edges() {
    for shift in 0..=62u32 {
        for mult in [0, 1, 3, 1 << 22, (1 << 23) - 1, i32::MAX] {
            let rs = Rescale { mult, shift };
            rs.validate().unwrap();
            let mut row = EDGES.to_vec();
            rs.apply_row(&mut row);
            for (&acc, &got) in EDGES.iter().zip(&row) {
                assert_eq!(got, rs.apply(acc), "{rs:?} on {acc}");
            }
        }
    }
}

/// [`Rescale::apply_zip`] equals [`Rescale::apply`] element by
/// element when every element has its own factor: each edge
/// accumulator meets every shift and edge multiplier.
#[test]
fn rescale_zip_matches_apply_on_edges() {
    let mults = [0, 1, 3, 1 << 22, (1 << 23) - 1, i32::MAX];
    let factors: Vec<Rescale> = (0..=62u32)
        .flat_map(|shift| mults.iter().map(move |&mult| Rescale { mult, shift }))
        .collect();
    for acc in EDGES {
        let mut row = vec![acc; factors.len()];
        Rescale::apply_zip(&factors, &mut row);
        for (rs, &got) in factors.iter().zip(&row) {
            assert_eq!(got, rs.apply(acc), "{rs:?} on {acc}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random rows through [`Rescale::apply_row`] against
    /// [`Rescale::apply`]: any accumulator, multiplier and shift.
    #[test]
    fn rescale_row_matches_apply(
        mult in 0i32..=i32::MAX, shift in 0u32..=62, seed in any::<u64>(), len in 1usize..80,
    ) {
        let rs = Rescale { mult, shift };
        let mut s = seed | 1;
        let accs: Vec<i32> = (0..len).map(|_| ((lcg(&mut s) << 1) ^ lcg(&mut s)) as i32).collect();
        let mut row = accs.clone();
        rs.apply_row(&mut row);
        for (&acc, &got) in accs.iter().zip(&row) {
            prop_assert_eq!(got, rs.apply(acc), "{:?} on {}", rs, acc);
        }
    }

    /// Random rows over the whole accepted domain: any membrane, any
    /// current a saturating `Rescale` can emit, any bias (shared by
    /// the row, and one per neuron), any
    /// `beta_mult ∈ [0, 2^beta_shift]` and threshold, both reset
    /// modes. Half of each row's values come from the edge set.
    #[test]
    fn lif_row_kernel_matches_step(
        beta_shift in 0u32..=30, mult_frac in any::<u32>(), theta_q in 1i32..=i32::MAX,
        zero_reset in any::<bool>(), bias in any::<i32>(), seed in any::<u64>(),
        len in 1usize..80,
    ) {
        let top = 1u64 << beta_shift;
        let beta_mult = ((mult_frac as u64 * (top + 1)) >> 32) as i32;
        let lif = fixed_lif(beta_mult, beta_shift, theta_q, zero_reset);
        let mut s = seed | 1;
        let draw = |s: &mut u64| {
            let r = lcg(s);
            if r.is_multiple_of(2) {
                EDGES[(r / 2 % EDGES.len() as u64) as usize]
            } else {
                ((lcg(s) << 1) ^ r) as i32
            }
        };
        let mem: Vec<i32> = (0..len).map(|_| draw(&mut s)).collect();
        let current: Vec<i32> = (0..len).map(|_| draw(&mut s)).collect();
        let spikes: Vec<u8> = (0..len).map(|_| (lcg(&mut s) % 2) as u8).collect();
        let per_neuron: Vec<i32> = (0..len).map(|_| draw(&mut s)).collect();
        check_row(&lif, &mem, &spikes, &current, &[bias])?;
        check_row(&lif, &mem, &spikes, &current, &per_neuron)?;
    }
}

/// Runs [`FixedLif::step_row_certified`] on one row and checks every
/// neuron against [`FixedLif::step`], as [`check_row`] does for the
/// checked kernel.
fn check_certified_row(
    lif: &FixedLif,
    mem: &[i32],
    spikes: &[u8],
    current: &[i32],
    bias: &[i32],
) -> Result<(), TestCaseError> {
    let (mut got_mem, mut got_spikes) = (mem.to_vec(), spikes.to_vec());
    lif.step_row_certified(current, bias, &mut got_mem, &mut got_spikes);
    for i in 0..mem.len() {
        let b = bias[i % bias.len()];
        let want = lif.step(mem[i], spikes[i] != 0, current[i] as i64 + b as i64);
        prop_assert_eq!(
            (got_mem[i], got_spikes[i] != 0), want,
            "{:?}: m {} spike {} current {} bias {}", lif, mem[i], spikes[i], current[i], b
        );
    }
    Ok(())
}

/// A value of magnitude at most `bound`: half the draws are `-bound`,
/// `0` or `bound`, the rest uniform over `[-bound, bound]`.
fn within(s: &mut u64, bound: u32) -> i32 {
    let r = lcg(s);
    let bound = bound as i64;
    let v = match r % 6 {
        0 => -bound,
        1 => 0,
        2 => bound,
        _ => (((lcg(s) << 31) ^ r) % (2 * bound as u64 + 1)) as i64 - bound,
    };
    v as i32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rows inside the certificate: three cuts split the whole
    /// `i32::MAX` budget into `|m|`, `|c|`, `|b|` and `theta_q`, and
    /// every value is drawn within its share (the extremes half the
    /// time). [`FixedLif::certify`] must accept the split, and the
    /// wrapping lanes must equal [`FixedLif::step`] for any
    /// `beta_mult ∈ [0, 2^beta_shift]`, both reset modes and both bias
    /// layouts.
    #[test]
    fn certified_lif_row_matches_step(
        cut_a in 0..i32::MAX, cut_b in 0..i32::MAX, cut_c in 0..i32::MAX, beta_shift in 0u32..=30,
        mult_frac in any::<u32>(), zero_reset in any::<bool>(), seed in any::<u64>(),
        len in 1usize..80,
    ) {
        let mut cuts = [cut_a as u32, cut_b as u32, cut_c as u32];
        cuts.sort_unstable();
        let (bm, bc, bb) = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1]);
        let theta_q = i32::MAX - cuts[2] as i32;
        let top = 1u64 << beta_shift;
        let beta_mult = ((mult_frac as u64 * (top + 1)) >> 32) as i32;
        let lif = fixed_lif(beta_mult, beta_shift, theta_q, zero_reset);
        prop_assert_eq!(lif.certify(bm, bc, bb), Some(i32::MAX as u32));
        let mut s = seed | 1;
        let mem: Vec<i32> = (0..len).map(|_| within(&mut s, bm)).collect();
        let current: Vec<i32> = (0..len).map(|_| within(&mut s, bc)).collect();
        let spikes: Vec<u8> = (0..len).map(|_| (lcg(&mut s) % 2) as u8).collect();
        let per_neuron: Vec<i32> = (0..len).map(|_| within(&mut s, bb)).collect();
        let shared = within(&mut s, bb);
        check_certified_row(&lif, &mem, &spikes, &current, &[shared])?;
        check_certified_row(&lif, &mem, &spikes, &current, &per_neuron)?;
    }
}

/// Every sign of `|m| = bm`, `|c| = bc`, `|b| = bb` (and `m = 0`) with
/// both previous spikes: the row that reaches a certificate's
/// extremes. Returns (mem, spikes, current, per-neuron bias).
fn extreme_row(bm: u32, bc: u32, bb: u32) -> (Vec<i32>, Vec<u8>, Vec<i32>, Vec<i32>) {
    let signed = |b: u32| [-(b as i64) as i32, b as i32];
    let mut row = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for m in [signed(bm)[0], 0, signed(bm)[1]] {
        for c in signed(bc) {
            for b in signed(bb) {
                for s in [0u8, 1] {
                    row.0.push(m);
                    row.1.push(s);
                    row.2.push(c);
                    row.3.push(b);
                }
            }
        }
    }
    row
}

/// The certificate's edge. At `|m| + |c| + |b| + theta_q = i32::MAX`
/// [`FixedLif::certify`] accepts and the wrapping lanes equal
/// [`FixedLif::step`] on every extreme; one more and it refuses, and
/// [`FixedLif::step_row`] still equals `step` there. One past that
/// slack the wrapping lanes do wrap: the bound is tight to within
/// one.
#[test]
fn certificate_boundary_is_i32_max() {
    const MAX: u32 = i32::MAX as u32;
    for theta_q in [1u32, 1 << 16, 1 << 30, MAX - 2] {
        let rest = MAX - theta_q;
        for (bm, bc) in [(rest / 3, rest / 3), (rest - 1, 0), (0, rest / 2), (rest / 2, 1)] {
            let bb = rest - bm - bc;
            for beta_shift in [0u32, 15, 30] {
                for zero_reset in [false, true] {
                    // beta = 1: the leak keeps the full membrane.
                    let lif = fixed_lif(1 << beta_shift, beta_shift, theta_q as i32, zero_reset);
                    let tag = format!("theta {theta_q} bounds {bm}/{bc}/{bb} {lif:?}");
                    assert_eq!(lif.certify(bm, bc, bb), Some(MAX), "{tag}");
                    let (mem, spikes, current, bias) = extreme_row(bm, bc, bb);
                    check_certified_row(&lif, &mem, &spikes, &current, &bias).unwrap();
                    for shared in [-(bb as i64) as i32, bb as i32] {
                        check_certified_row(&lif, &mem, &spikes, &current, &[shared]).unwrap();
                    }
                    for over in [(bm + 1, bc, bb), (bm, bc + 1, bb), (bm, bc, bb + 1)] {
                        assert_eq!(lif.certify(over.0, over.1, over.2), None, "{tag} + 1");
                    }
                    let (mem, spikes, current, bias) = extreme_row(bm, bc, bb + 1);
                    check_row(&lif, &mem, &spikes, &current, &bias).unwrap();
                }
            }
            // Total i32::MAX + 2: the subtract reset's most negative
            // sum is -2^31 - 1, which the lanes wrap and `step` clamps.
            let lif = fixed_lif(1, 0, theta_q as i32, false);
            let (m, c, b) = (-(bm as i64) as i32, -(bc as i64) as i32, -(bb as i64 + 2) as i32);
            let (mut got_mem, mut got_spikes) = (vec![m], vec![1u8]);
            lif.step_row_certified(&[c], &[b], &mut got_mem, &mut got_spikes);
            assert_eq!(lif.step(m, true, c as i64 + b as i64), (i32::MIN, false));
            assert_eq!(got_mem[0], i32::MAX, "wrapped past the certificate");
        }
    }
}

proptest! {
    // End-to-end cases are heavier; fewer, bigger.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The whole quantized forward — input quantization, conv, pool,
    /// LIF, dense — is bit-identical across {1, 4} threads × {dense,
    /// event} routes, for random topologies, seeds, and reset modes.
    #[test]
    fn quantized_forward_bit_identical_across_threads_and_routes(
        filters in 2usize..5, classes in 2usize..6, seed in 0u64..200,
        timesteps in 1usize..5, zero_reset in any::<bool>(),
    ) {
        let lif = LifConfig {
            reset: if zero_reset { ResetMode::Zero } else { ResetMode::Subtract },
            ..LifConfig::paper_default()
        };
        let net = SpikingNetwork::builder(Shape::d3(1, 8, 8), seed)
            .conv(filters, 3, 1, 1, lif).unwrap()
            .maxpool(2).unwrap()
            .flatten().unwrap()
            .dense(classes, lif).unwrap()
            .build().unwrap();
        let snap = NetworkSnapshot::from_network(&net);
        let items: Vec<Vec<f32>> = (0..5)
            .map(|i| values(64, seed ^ (i as u64) << 8, 1.0).iter().map(|v| v.abs()).collect())
            .collect();
        let cal = calibrate(&snap, &items, timesteps).unwrap();
        let q = quantize_snapshot(&snap, &cal, 8).unwrap();
        let mut runtime = QuantNetwork::from_snapshot(&q).unwrap();
        let mut outputs = Vec::new();
        for &threads in &[1usize, 4] {
            for &thr in &[-1.0f32, 1.0] {
                let counts = with_event_density_threshold(thr, || {
                    par::with_num_threads(threads, || {
                        runtime.infer_batch(&items, timesteps).unwrap()
                    })
                });
                outputs.push(counts);
            }
        }
        for other in &outputs[1..] {
            prop_assert_eq!(&outputs[0], other,
                "thread/route combination changed the quantized output");
        }
    }
}

/// Per-item counts plus every stage's activations at every timestep,
/// `acts[t][stage]` as `[n, item_len]`.
type Trace = (Vec<u32>, Vec<Vec<Vec<u8>>>);

/// A naive integer reference for [`QuantNetwork`], written from the
/// artifact's raw fields alone: every stage is recomputed at every
/// timestep, convolutions are direct taps over padded coordinates,
/// pooling is a window max (an OR on binary spikes, an exact max on
/// the level-coded input), and each neuron goes through
/// [`Rescale::apply`] and [`FixedLif::step`] one at a time.
fn reference(q: &QuantizedSnapshot, items: &[Vec<f32>], timesteps: usize) -> Trace {
    let n = items.len();
    let levels = q.input_levels as f32;
    let inv_step = levels / q.input_max;
    let input: Vec<u8> = items
        .iter()
        .flatten()
        .map(|&v| (v * inv_step).round().clamp(0.0, levels) as u8)
        .collect();
    let out_len = |stage: &QuantStage| match stage {
        QuantStage::Conv { geom, .. } => geom.out_channels * geom.out_h() * geom.out_w(),
        QuantStage::Dense { weight, .. } => weight.channels,
        QuantStage::Pool { geom, .. } => geom.channels * geom.out_h() * geom.out_w(),
        QuantStage::Flatten { len, .. } => *len,
    };
    let mut mem: Vec<Vec<i32>> = q.stages.iter().map(|s| vec![0; n * out_len(s)]).collect();
    let mut spikes: Vec<Vec<u8>> = q.stages.iter().map(|s| vec![0; n * out_len(s)]).collect();
    let neuron = |lif: &FixedLif, rs: &Rescale, bias: i32, acc: i32, m: &mut i32, s: &mut u8| {
        let (next, spike) = lif.step(*m, *s != 0, rs.apply(acc) as i64 + bias as i64);
        *m = next;
        *s = spike as u8;
    };
    let mut counts = vec![0u32; n * q.classes];
    let mut acts = Vec::new();
    for _ in 0..timesteps {
        let mut x = input.clone();
        let mut step = Vec::new();
        for (si, stage) in q.stages.iter().enumerate() {
            let len = out_len(stage);
            let item_in = x.len() / n;
            let y = match stage {
                QuantStage::Conv { geom: g, weight, bias_q, rescale, lif, .. } => {
                    let plane = g.out_h() * g.out_w();
                    for b in 0..n {
                        let xi = &x[b * item_in..(b + 1) * item_in];
                        for (p, oc) in (0..g.out_channels * plane).map(|p| (p, p / plane)) {
                            let acc = conv_tap_sum(g, &weight.values, xi, oc, p % plane);
                            let idx = b * len + p;
                            let (m, s) = (&mut mem[si][idx], &mut spikes[si][idx]);
                            neuron(lif, &rescale[oc], bias_q[oc], acc, m, s);
                        }
                    }
                    spikes[si].clone()
                }
                QuantStage::Dense { weight, bias_q, rescale, lif, .. } => {
                    for b in 0..n {
                        let xi = &x[b * item_in..(b + 1) * item_in];
                        for o in 0..weight.channels {
                            let per = weight.per_channel;
                            let row = &weight.values[o * per..(o + 1) * per];
                            let acc: i32 =
                                xi.iter().zip(row).map(|(&v, &w)| v as i32 * w as i32).sum();
                            let idx = b * len + o;
                            let (m, s) = (&mut mem[si][idx], &mut spikes[si][idx]);
                            neuron(lif, &rescale[o], bias_q[o], acc, m, s);
                        }
                    }
                    spikes[si].clone()
                }
                QuantStage::Pool { geom: g, .. } => {
                    let plane = g.out_h() * g.out_w();
                    let mut y = vec![0u8; n * len];
                    for b in 0..n {
                        let xi = &x[b * item_in..(b + 1) * item_in];
                        for p in 0..g.channels * plane {
                            y[b * len + p] = pool_max(g, xi, p / plane, p % plane);
                        }
                    }
                    y
                }
                QuantStage::Flatten { .. } => x.clone(),
            };
            step.push(y.clone());
            x = y;
        }
        for (c, &s) in counts.iter_mut().zip(&x) {
            *c += s as u32;
        }
        acts.push(step);
    }
    (counts, acts)
}

/// One output position's raw accumulator: direct taps over padded
/// coordinates, weights laid out `[oc][ic][ky][kx]`.
fn conv_tap_sum(g: &Conv2dGeometry, w: &[i8], xi: &[u8], oc: usize, pos: usize) -> i32 {
    let (oy, ox, k) = (pos / g.out_w(), pos % g.out_w(), g.kernel);
    let taps = &w[oc * g.col_rows()..(oc + 1) * g.col_rows()];
    let mut acc = 0i32;
    for ic in 0..g.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                if iy < 0 || ix < 0 || iy >= g.in_h as isize || ix >= g.in_w as isize {
                    continue;
                }
                let v = xi[(ic * g.in_h + iy as usize) * g.in_w + ix as usize];
                acc += v as i32 * taps[(ic * k + ky) * k + kx] as i32;
            }
        }
    }
    acc
}

/// One pooled output: the window max (an OR on binary spikes).
fn pool_max(g: &Pool2dGeometry, xi: &[u8], c: usize, pos: usize) -> u8 {
    let (oy, ox) = (pos / g.out_w(), pos % g.out_w());
    let mut best = 0u8;
    for ky in 0..g.kernel {
        for kx in 0..g.kernel {
            let (iy, ix) = (oy * g.stride + ky, ox * g.stride + kx);
            best = best.max(xi[(c * g.in_h + iy) * g.in_w + ix]);
        }
    }
    best
}

/// Builds one of the reference topologies over a
/// `channels`×`side`×`side` input. Topologies 2–4 open with a static
/// prefix (pool, flatten, or pool then flatten) before the first
/// spiking stage. At `side` 16 the first pool's rows are 16 wide, the
/// width of the `u8` row-pair kernel's 8-output block.
fn topology(
    kind: usize,
    channels: usize,
    side: usize,
    filters: usize,
    classes: usize,
    seed: u64,
    lif: LifConfig,
) -> SpikingNetwork {
    let b = SpikingNetwork::builder(Shape::d3(channels, side, side), seed);
    let b = match kind {
        0 => b.conv(filters, 3, 1, 1, lif).unwrap().maxpool(2).unwrap().flatten().unwrap(),
        1 => b
            .conv(filters, 3, 1, 1, lif).unwrap()
            .maxpool(2).unwrap()
            .conv(filters, 3, 2, 0, lif).unwrap()
            .flatten().unwrap()
            .dense(6, lif).unwrap(),
        2 => b.maxpool(2).unwrap().conv(filters, 3, 1, 1, lif).unwrap().flatten().unwrap(),
        3 => b.flatten().unwrap().dense(12, lif).unwrap(),
        _ => b.maxpool(2).unwrap().flatten().unwrap().dense(12, lif).unwrap(),
    };
    b.dense(classes, lif).unwrap().build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `QuantNetwork` equals the naive reference exactly — counts and
    /// every observed activation slice at every (timestep, stage) —
    /// across topologies with and without a static prefix, 8×8 and
    /// 16×16 inputs, both reset modes, {1, 4} threads and both
    /// convolution routes. The runtime computes time-invariant work
    /// once per batch; the reference recomputes it every step, so any
    /// drift shows here.
    #[test]
    fn quantized_forward_matches_naive_reference(
        kind in 0usize..5, channels in 1usize..3, wide in any::<bool>(), filters in 2usize..5,
        classes in 2usize..6, seed in 0u64..500, timesteps in 1usize..5,
        batch in 1usize..5, zero_reset in any::<bool>(),
        beta_pct in 25u32..76, theta_pct in 10u32..60,
    ) {
        let side = if wide { 16 } else { 8 };
        // Untrained weights at the paper's theta leave deep layers
        // nearly silent; lower thresholds keep every stage spiking.
        let lif = LifConfig {
            beta: beta_pct as f32 / 100.0,
            theta: theta_pct as f32 / 100.0,
            reset: if zero_reset { ResetMode::Zero } else { ResetMode::Subtract },
            ..LifConfig::paper_default()
        };
        let net = topology(kind, channels, side, filters, classes, seed, lif);
        let snap = NetworkSnapshot::from_network(&net);
        let items: Vec<Vec<f32>> = (0..batch)
            .map(|i| {
                values(channels * side * side, seed ^ (i as u64) << 8, 1.0)
                    .iter()
                    .map(|v| v.abs())
                    .collect()
            })
            .collect();
        let cal = calibrate(&snap, &items, timesteps).unwrap();
        let q = quantize_snapshot(&snap, &cal, 8).unwrap();
        let (want_counts, want_acts) = reference(&q, &items, timesteps);
        let mut runtime = QuantNetwork::from_snapshot(&q).unwrap();
        for &threads in &[1usize, 4] {
            for &thr in &[-1.0f32, 1.0] {
                let mut seen: Vec<(usize, Vec<u8>)> = Vec::new();
                let counts = with_event_density_threshold(thr, || {
                    par::with_num_threads(threads, || {
                        runtime
                            .infer_batch_observed(&items, timesteps, |si, _, acts, n| {
                                assert_eq!(n, batch);
                                seen.push((si, acts.to_vec()));
                            })
                            .unwrap()
                    })
                });
                prop_assert_eq!(&counts, &want_counts,
                    "counts, {} threads, route {}", threads, thr);
                prop_assert_eq!(seen.len(), timesteps * q.stages.len());
                for (call, (si, acts)) in seen.iter().enumerate() {
                    let (t, stage) = (call / q.stages.len(), call % q.stages.len());
                    prop_assert_eq!(*si, stage);
                    prop_assert_eq!(acts, &want_acts[t][stage],
                        "t {} stage {}, {} threads, route {}", t, stage, threads, thr);
                }
            }
        }
    }
}

/// A one-stage artifact (4 inputs → 2 dense neurons, beta = 1,
/// subtract reset, theta 2^30) whose stage bound runs out mid-batch.
/// Neuron 0 adds `+C` per step and neuron 1 `-C`, with
/// `C = 1020 · 2^17` on an all-ones input (half that on the second
/// item) and a bias of ±2^24. Neuron 0 fires and resets; neuron 1
/// runs down to `i32::MIN` and stays there, where wrapping lanes
/// would jump to large positive potentials.
fn crossing_artifact() -> QuantizedSnapshot {
    let lif = FixedLif {
        frac_bits: 16,
        beta_mult: 1 << 15,
        beta_shift: 15,
        theta_q: 1 << 30,
        reset: ResetMode::Subtract,
    };
    let q = QuantizedSnapshot {
        format: QUANT_FORMAT.into(),
        bits: 8,
        input_item_dims: vec![4],
        classes: 2,
        input_max: 1.0,
        input_levels: 255,
        stages: vec![QuantStage::Dense {
            name: "fc".into(),
            weight: QuantizedTensor {
                channels: 2,
                per_channel: 4,
                values: vec![1, 1, 1, 1, -1, -1, -1, -1],
                scales: vec![1.0; 2],
                zero_points: vec![0; 2],
            },
            bias_q: vec![1 << 24, -(1 << 24)],
            rescale: vec![Rescale { mult: 1 << 17, shift: 0 }; 2],
            lif,
        }],
    };
    q.validate().expect("a valid artifact");
    q
}

/// The crossing artifact against the naive reference at 1 and 4
/// threads. The certificate's path is pinned step by step: step 0
/// certified by the membrane bound reset at the batch start, steps
/// 1–3 after a re-measure (the propagated bound, which adds theta
/// every step, ran out at once), and from step 4 on a fallback, as
/// the falling neurons near `i32::MIN` (item 0's reaches it at step
/// 14). Later runs of the same batch must take the same path.
#[test]
fn quantized_forward_crosses_remeasure_and_fallback() {
    let q = crossing_artifact();
    let items = vec![vec![1.0f32; 4], vec![0.5f32; 4]];
    let timesteps = 24;
    let (want_counts, want_acts) = reference(&q, &items, timesteps);
    let want_steps = LifSteps { propagated: 1, remeasured: 3, fallback: 20 };
    let mut runtime = QuantNetwork::from_snapshot(&q).unwrap();
    for threads in [1usize, 4, 1] {
        let mut seen = Vec::new();
        let counts = par::with_num_threads(threads, || {
            runtime
                .infer_batch_observed(&items, timesteps, |_, _, acts, _| seen.push(acts.to_vec()))
                .unwrap()
        });
        assert_eq!(counts, want_counts, "{threads} threads");
        for (t, acts) in seen.iter().enumerate() {
            assert_eq!(acts, &want_acts[t][0], "t {t}, {threads} threads");
        }
        assert_eq!(runtime.lif_steps(), want_steps, "{threads} threads");
    }
    // Neuron 1 of item 0 never fires once saturated; wrapped it would.
    assert_eq!(want_counts[1], 0);
}
