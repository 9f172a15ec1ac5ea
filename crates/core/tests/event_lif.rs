//! Bitwise-exactness properties of the event-driven (masked) LIF step
//! and of the end-to-end event datapath through a spiking network.
//!
//! The contract (see `lif_step_masked`): whenever the touch mask
//! covers every position whose input is nonzero in a zero-bias
//! channel, the masked step is **bit-for-bit** identical to the dense
//! [`lif_step`] — for every density, reset mode, β (including the
//! `β = 0`, negative-membrane `-0.0` edge case), bias pattern, and
//! thread count. At the network level, forcing the conv dispatcher to
//! the event route must leave every spike map and the rate-coded
//! counts unchanged bitwise versus the dense route.

use proptest::prelude::*;

use snn_core::neuron::{lif_step, lif_step_masked, LifState};
use snn_core::{LifConfig, ResetMode, Surrogate};
use snn_tensor::dispatch::with_event_density_threshold;
use snn_tensor::spike::TouchMask;
use snn_tensor::{par, Shape, Tensor};

fn lcg_tensor(shape: Shape, seed: u64, scale: f32) -> Tensor {
    let mut rng = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    Tensor::from_fn(shape, |_| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (((rng >> 33) as f32 / u32::MAX as f32) - 0.5) * 2.0 * scale
    })
}

/// Per-position coin flips at roughly `density_pct`% heads. `0` and
/// `100` are exactly all-tails / all-heads.
fn coin_mask(len: usize, seed: u64, density_pct: u32) -> Vec<bool> {
    let mut rng = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (0..len)
        .map(|_| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 33) % 100) < density_pct as u64
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `lif_step_masked` equals `lif_step` bitwise for any consistent
    /// (input, mask) pair, across densities {0, 10, 50, 90, 100}%,
    /// both reset modes, β ∈ {0, 0.5, 1}, bias patterns from all-zero
    /// to all-nonzero, and thread counts {1, 4}.
    #[test]
    fn masked_lif_bitwise_equals_dense(
        items in 1usize..4, channels in 1usize..4, plane in 1usize..24,
        density_idx in 0usize..5, hard_reset in any::<bool>(),
        beta_idx in 0usize..3, bias_mode in 0usize..3,
        seed in 0u64..500,
    ) {
        let density = [0u32, 10, 50, 90, 100][density_idx];
        let cfg = LifConfig {
            beta: [0.0f32, 0.5, 1.0][beta_idx],
            theta: 0.5,
            surrogate: Surrogate::FastSigmoid { k: 2.0 },
            reset: if hard_reset { ResetMode::Zero } else { ResetMode::Subtract },
            ..LifConfig::paper_default()
        };
        let shape = Shape::d2(items, channels * plane);
        // Bias pattern: none / every other channel / all channels.
        let bias = Tensor::from_fn(Shape::d1(channels), |c| match bias_mode {
            0 => 0.0,
            1 => {
                if c % 2 == 0 {
                    0.1
                } else {
                    0.0
                }
            }
            _ => 0.2,
        });
        let bv: Vec<f32> = bias.as_slice().to_vec();
        // A spatial touch pattern, then an input that is nonzero only
        // at touched positions in zero-bias channels — exactly the
        // guarantee the event-route convolution provides. Nonzero-bias
        // channels may be dense anywhere (the masked step recomputes
        // them wholesale).
        let marked = coin_mask(items * plane, seed, density);
        let raw = lcg_tensor(shape, seed + 7, 1.0);
        let input = Tensor::from_fn(shape, |i| {
            let (item, f) = (i / (channels * plane), i % (channels * plane));
            let (c, pos) = (f / plane, f % plane);
            if bv[c] != 0.0 || marked[item * plane + pos] {
                raw.as_slice()[i] + bv[c]
            } else {
                0.0
            }
        });
        let indicator =
            Tensor::from_fn(Shape::d2(items, plane), |i| f32::from(marked[i]));
        let mut touch = TouchMask::new();
        touch.build_from_nonzero(indicator.as_slice(), items, 1, plane);
        let state = LifState {
            membrane: lcg_tensor(shape, seed + 1, 0.8),
            prev_spikes: lcg_tensor(shape, seed + 2, 1.0).map(|v| f32::from(v > 0.0)),
        };
        let (u_ref, s_ref) = par::with_num_threads(1, || lif_step(&cfg, &state, &input));
        let (ub, sb) = (bits(&u_ref), bits(&s_ref));
        for threads in [1usize, 4] {
            let (u, s) = par::with_num_threads(threads, || {
                lif_step_masked(&cfg, &state, &input, &touch, &bias)
            });
            prop_assert_eq!(&bits(&u), &ub, "membrane threads={} density={}", threads, density);
            prop_assert_eq!(&bits(&s), &sb, "spikes threads={} density={}", threads, density);
        }
    }
}

/// β = 0 with a negative membrane makes the decay term `-0.0`; the
/// dense kernel's zero input then rounds the membrane to `+0.0`. The
/// masked decay pass must reproduce that sign bit exactly (it writes
/// the literal `+ 0.0` for this reason) — a naive `β·u − s·θ` would
/// leave `-0.0` and diverge bitwise.
#[test]
fn zero_beta_negative_membrane_keeps_dense_sign_bit() {
    let cfg = LifConfig {
        beta: 0.0,
        theta: 0.5,
        surrogate: Surrogate::FastSigmoid { k: 2.0 },
        reset: ResetMode::Subtract,
        ..LifConfig::paper_default()
    };
    let shape = Shape::d2(1, 4);
    let state = LifState {
        membrane: Tensor::from_vec(shape, vec![-1.5, -0.25, 2.0, -0.0]).unwrap(),
        prev_spikes: Tensor::zeros(shape),
    };
    let input = Tensor::zeros(shape);
    let bias = Tensor::zeros(Shape::d1(1));
    let mut touch = TouchMask::new();
    touch.build_from_nonzero(input.as_slice(), 1, 1, 4);
    assert_eq!(touch.count(), 0, "all-zero input must touch nothing");
    let (u_dense, s_dense) = lif_step(&cfg, &state, &input);
    let (u_masked, s_masked) = lif_step_masked(&cfg, &state, &input, &touch, &bias);
    assert_eq!(bits(&u_masked), bits(&u_dense));
    assert_eq!(bits(&s_masked), bits(&s_dense));
    for (i, &b) in bits(&u_masked).iter().enumerate() {
        assert_eq!(b, 0f32.to_bits(), "element {i} must be +0.0, not -0.0");
    }
}

/// An empty touch mask with zero bias exercises the pure-decay path
/// alone; it must match the dense step bitwise in both reset modes.
#[test]
fn empty_touch_is_pure_decay() {
    for reset in [ResetMode::Subtract, ResetMode::Zero] {
        let cfg = LifConfig {
            beta: 0.9,
            theta: 0.5,
            surrogate: Surrogate::FastSigmoid { k: 2.0 },
            reset,
            ..LifConfig::paper_default()
        };
        let shape = Shape::d2(3, 2 * 9);
        let state = LifState {
            membrane: lcg_tensor(shape, 41, 0.9),
            prev_spikes: lcg_tensor(shape, 43, 1.0).map(|v| f32::from(v > 0.0)),
        };
        let input = Tensor::zeros(shape);
        let bias = Tensor::zeros(Shape::d1(2));
        let mut touch = TouchMask::new();
        touch.build_from_nonzero(input.as_slice(), 3, 2, 9);
        let (u_dense, s_dense) = lif_step(&cfg, &state, &input);
        let (u_masked, s_masked) = lif_step_masked(&cfg, &state, &input, &touch, &bias);
        assert_eq!(bits(&u_masked), bits(&u_dense), "reset={reset:?}");
        assert_eq!(bits(&s_masked), bits(&s_dense), "reset={reset:?}");
    }
}

/// End-to-end: a two-conv spiking network driven by binary frames
/// produces bitwise-identical spike maps at every layer and timestep,
/// and identical rate-coded counts, whether the dispatcher is forced
/// to the event route or pinned dense.
#[test]
fn network_event_route_matches_dense_bitwise() {
    let lif = LifConfig {
        beta: 0.5,
        theta: 0.25,
        surrogate: Surrogate::FastSigmoid { k: 2.0 },
        ..LifConfig::paper_default()
    };
    let build = || {
        snn_core::SpikingNetwork::builder(Shape::d3(2, 8, 8), 17)
            .conv(4, 3, 1, 1, lif)
            .unwrap()
            .conv(3, 3, 2, 1, lif)
            .unwrap()
            .flatten()
            .unwrap()
            .dense(5, lif)
            .unwrap()
            .build()
            .unwrap()
    };
    let frames: Vec<Tensor> = (0..4)
        .map(|t| {
            lcg_tensor(Shape::d4(2, 2, 8, 8), 100 + t, 1.0).map(|v| f32::from(v > 0.6))
        })
        .collect();

    let run = |threshold: f32| {
        with_event_density_threshold(threshold, || {
            let mut net = build();
            let mut spikes: Vec<(usize, String, Vec<u32>)> = Vec::new();
            let out = net.run_inference_observed(&frames, |t, name, s, _| {
                spikes.push((t, name.to_string(), bits(s)));
            });
            (bits(&out.counts), spikes)
        })
    };
    let (counts_dense, spikes_dense) = run(-1.0);
    let (counts_event, spikes_event) = run(1.0);
    assert!(!spikes_dense.is_empty());
    assert_eq!(spikes_event.len(), spikes_dense.len());
    for (e, d) in spikes_event.iter().zip(&spikes_dense) {
        assert_eq!((&e.0, &e.1), (&d.0, &d.1), "observation order must match");
        assert_eq!(e.2, d.2, "spikes differ at t={} layer={}", d.0, d.1);
    }
    assert_eq!(counts_event, counts_dense, "rate-coded counts must match bitwise");
}
