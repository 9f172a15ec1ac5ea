//! The f32 forward pass computes a convolution's current once when
//! consecutive timesteps present the same input tensor (direct
//! coding), steps LIF state in place, and runs each dense layer as
//! `x · Wᵀ` through a transpose of `W` it keeps until the weight
//! changes. All three must be invisible in the numbers.
//!
//! Each property runs the network on clones of one frame (which
//! share storage, so the hoist applies) and on deep copies (which
//! share none, so every step runs the full convolution), and checks
//! both against a reference executor built from the kernels: one
//! full convolution and one `matmul_nt` per step and fresh state
//! tensors for every LIF step.

use proptest::prelude::*;

use snn_core::layer::SpikingDense;
use snn_core::neuron::{lif_backward_step, lif_step, LifState};
use snn_core::{
    Layer, LifConfig, Optimizer, OptimizerKind, ResetMode, SpikingNetwork, Surrogate,
};
use snn_tensor::conv::{conv2d_backward, conv2d_forward};
use snn_tensor::linalg::{add_bias_rows, matmul, matmul_nt, matmul_tn, sum_rows};
use snn_tensor::pool::{maxpool2d_backward, maxpool2d_forward};
use snn_tensor::{par, Shape, Tensor};

/// A frame that shares no storage with `t`.
fn deep(t: &Tensor) -> Tensor {
    Tensor::from_vec(t.shape(), t.as_slice().to_vec()).expect("same length")
}

fn lcg(seed: u64) -> impl FnMut() -> f32 {
    let mut x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 40) as f32) / ((1u64 << 24) as f32)
    }
}

/// A `[batch, c, side, side]` frame whose entries are zero with
/// probability `1 − density` (sparse frames take the event conv
/// route, dense ones the im2col route).
fn frame(batch: usize, c: usize, side: usize, density: f32, seed: u64) -> Tensor {
    let mut next = lcg(seed);
    Tensor::from_fn(Shape::d4(batch, c, side, side), |_| {
        let keep = next() < density;
        let v = next();
        if keep {
            v
        } else {
            0.0
        }
    })
}

/// A `[batch, c, side, side]` analog frame for dense-first networks:
/// about three quarters of the entries are nonzero, of either sign,
/// and the zeros are split between `+0.0` and `-0.0`.
fn analog_frame(batch: usize, c: usize, side: usize, seed: u64) -> Tensor {
    let mut next = lcg(seed);
    Tensor::from_fn(Shape::d4(batch, c, side, side), |_| {
        let r = next();
        let v = next() - 0.5;
        if r < 0.125 {
            0.0
        } else if r < 0.25 {
            -0.0
        } else {
            v
        }
    })
}

/// One of three small topologies: conv-first (conv → pool → dense),
/// conv → conv, or flatten → dense. Biases are nonzero for odd seeds,
/// so both the masked and the plain LIF steps run.
fn network(kind: usize, c: usize, side: usize, lif: LifConfig, seed: u64) -> SpikingNetwork {
    let b = SpikingNetwork::builder(Shape::d3(c, side, side), seed);
    let b = match kind {
        0 => b
            .conv(3, 3, 1, 1, lif)
            .unwrap()
            .maxpool(2)
            .unwrap()
            .flatten()
            .unwrap(),
        1 => b
            .conv(3, 3, 1, 1, lif)
            .unwrap()
            .conv(2, 3, 1, 1, lif)
            .unwrap()
            .flatten()
            .unwrap(),
        _ => b.flatten().unwrap().dense(6, lif).unwrap(),
    };
    let mut net = b.dense(4, lif).unwrap().build().unwrap();
    if seed % 2 == 1 {
        let mut next = lcg(seed ^ 0xb1a5);
        for p in net.params_mut() {
            if p.name.ends_with(".bias") {
                p.value
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|v| *v = next() * 0.5 - 0.1);
            }
        }
    }
    net
}

fn lif(beta: f32, theta: f32, zero_reset: bool, detach: bool) -> LifConfig {
    LifConfig {
        beta,
        theta,
        reset: if zero_reset {
            ResetMode::Zero
        } else {
            ResetMode::Subtract
        },
        detach_reset: detach,
        surrogate: Surrogate::FastSigmoid { k: 1.0 },
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The upstream gradient every BPTT run is seeded with.
fn grad_counts(shape: Shape, seed: u64) -> Tensor {
    let mut next = lcg(seed ^ 0x9e37);
    Tensor::from_fn(shape, |_| next() - 0.5)
}

/// What one forward sequence produced, as bits: every layer's output
/// at every timestep, the summed output counts, and each layer's
/// `(total_spikes, neuron_steps)`.
#[derive(Debug, PartialEq)]
struct Trace {
    outputs: Vec<(String, Vec<u32>)>,
    counts: Vec<u32>,
    activity: Vec<(u64, u64)>,
}

type Grads = Vec<(String, Vec<u32>)>;

fn trace(net: &mut SpikingNetwork, frames: &[Tensor]) -> Trace {
    net.begin_sequence(false);
    let mut outputs = Vec::new();
    let mut counts: Option<Tensor> = None;
    for f in frames {
        let y =
            net.forward_step_observed(f, |name, _x, y| outputs.push((name.to_string(), bits(y))));
        match &mut counts {
            Some(c) => c.add_assign(&y).unwrap(),
            None => counts = Some(y),
        }
    }
    let activity = net
        .activities()
        .iter()
        .map(|a| (a.total_spikes.to_bits(), a.neuron_steps.to_bits()))
        .collect();
    Trace {
        outputs,
        counts: bits(&counts.unwrap()),
        activity,
    }
}

/// Parameter gradients after one BPTT step over `frames`.
fn grads(net: &mut SpikingNetwork, frames: &[Tensor], seed: u64) -> Grads {
    let out = net.run_sequence(frames, true);
    net.backward_sequence(&grad_counts(out.counts.shape(), seed), out.timesteps);
    net.params_mut()
        .into_iter()
        .map(|p| (p.name, bits(p.grad)))
        .collect()
}

/// Per-layer forward caches of the reference executor.
#[derive(Default)]
struct Cache {
    inputs: Vec<Tensor>,
    membranes: Vec<Tensor>,
    spikes: Vec<Tensor>,
    argmax: Vec<Vec<u32>>,
}

/// The reference: `net`'s layers evaluated step by step from the
/// kernels, then BPTT in the trainer's accumulation order.
fn reference(net: &SpikingNetwork, frames: &[Tensor], seed: u64) -> (Trace, Grads) {
    let layers = net.layers();
    let mut states: Vec<Option<LifState>> = vec![None; layers.len()];
    let mut caches: Vec<Cache> = layers.iter().map(|_| Cache::default()).collect();
    let mut activity = vec![(0.0f64, 0.0f64); layers.len()];
    let mut outputs = Vec::new();
    let mut counts: Option<Tensor> = None;
    for f in frames {
        let mut x = f.clone();
        for (i, layer) in layers.iter().enumerate() {
            let current = match layer {
                Layer::SpikingConv2d(l) => {
                    Some(conv2d_forward(&l.geom, &x, &l.weight, &l.bias).unwrap())
                }
                Layer::SpikingDense(l) => {
                    let mut c = matmul_nt(&x, &l.weight).unwrap();
                    add_bias_rows(&mut c, &l.bias).unwrap();
                    Some(c)
                }
                _ => None,
            };
            let y = match (layer, current) {
                (Layer::SpikingConv2d(_) | Layer::SpikingDense(_), Some(current)) => {
                    let cfg = layer.lif_config().unwrap();
                    let state = states[i].get_or_insert_with(|| LifState::new(current.shape()));
                    let (u, s) = lif_step(cfg, state, &current);
                    *state = LifState {
                        membrane: u.clone(),
                        prev_spikes: s.clone(),
                    };
                    caches[i].inputs.push(x.clone());
                    caches[i].membranes.push(u);
                    caches[i].spikes.push(s.clone());
                    activity[i].0 += s.sum();
                    activity[i].1 += s.len() as f64;
                    s
                }
                (Layer::MaxPool2d(l), _) => {
                    let p = maxpool2d_forward(&l.geom, &x, true).unwrap();
                    caches[i].argmax.push(p.argmax);
                    activity[i].0 += p.output.sum();
                    activity[i].1 += p.output.len() as f64;
                    p.output
                }
                (Layer::Flatten(_), _) => x
                    .reshape(Shape::d2(x.shape().dim(0), x.len() / x.shape().dim(0)))
                    .unwrap(),
                _ => unreachable!("spiking layers always produce a current"),
            };
            outputs.push((layer.name().to_string(), bits(&y)));
            x = y;
        }
        match &mut counts {
            Some(c) => c.add_assign(&x).unwrap(),
            None => counts = Some(x),
        }
    }
    let counts = counts.unwrap();
    let batch = counts.shape().dim(0);

    let g_out = grad_counts(counts.shape(), seed);
    let mut param_grads: Vec<Option<(Tensor, Tensor)>> = layers
        .iter()
        .map(|l| match l {
            Layer::SpikingConv2d(l) => Some((
                Tensor::zeros(l.weight.shape()),
                Tensor::zeros(l.bias.shape()),
            )),
            Layer::SpikingDense(l) => Some((
                Tensor::zeros(l.weight.shape()),
                Tensor::zeros(l.bias.shape()),
            )),
            _ => None,
        })
        .collect();
    let mut carries: Vec<Option<Tensor>> = vec![None; layers.len()];
    for t in (0..frames.len()).rev() {
        let mut g = g_out.clone();
        for (i, layer) in layers.iter().enumerate().rev() {
            let c = &caches[i];
            g = match layer {
                Layer::SpikingConv2d(_) | Layer::SpikingDense(_) => {
                    let cfg = layer.lif_config().unwrap();
                    let carry = carries[i]
                        .take()
                        .unwrap_or_else(|| Tensor::zeros(c.membranes[t].shape()));
                    let (gc, next) =
                        lif_backward_step(cfg, &g, &carry, &c.membranes[t], &c.spikes[t]);
                    carries[i] = Some(next);
                    let (gw, gb) = param_grads[i].as_mut().unwrap();
                    match layer {
                        Layer::SpikingConv2d(l) => {
                            let r = conv2d_backward(&l.geom, &c.inputs[t], &l.weight, &gc).unwrap();
                            gw.add_assign(&r.grad_weight).unwrap();
                            gb.add_assign(&r.grad_bias).unwrap();
                            r.grad_input
                        }
                        Layer::SpikingDense(l) => {
                            gw.add_assign(&matmul_tn(&gc, &c.inputs[t]).unwrap())
                                .unwrap();
                            gb.add_assign(&sum_rows(&gc).unwrap()).unwrap();
                            matmul(&gc, &l.weight).unwrap()
                        }
                        _ => unreachable!(),
                    }
                }
                Layer::MaxPool2d(l) => {
                    maxpool2d_backward(&l.geom, batch, &c.argmax[t], &g).unwrap()
                }
                Layer::Flatten(l) => {
                    let mut dims = vec![batch];
                    dims.extend_from_slice(l.input_item_shape.dims());
                    g.reshape(Shape::from_dims(&dims)).unwrap()
                }
            };
        }
    }
    let grads = layers
        .iter()
        .zip(param_grads)
        .filter_map(|(l, pg)| pg.map(|(gw, gb)| (l.name(), gw, gb)))
        .flat_map(|(name, gw, gb)| {
            [
                (format!("{name}.weight"), bits(&gw)),
                (format!("{name}.bias"), bits(&gb)),
            ]
        })
        .collect();
    let activity = activity
        .iter()
        .map(|&(s, n)| (s.to_bits(), n.to_bits()))
        .collect();
    (
        Trace {
            outputs,
            counts: bits(&counts),
            activity,
        },
        grads,
    )
}

/// Runs `net` on `frames` and on deep copies of them, and checks both
/// against the reference executor.
fn check_against_reference(
    net: &SpikingNetwork,
    frames: &[Tensor],
    seed: u64,
) -> Result<(), TestCaseError> {
    let (want_trace, want_grads) = reference(net, frames, seed);
    let copies: Vec<Tensor> = frames.iter().map(deep).collect();
    for (label, input) in [("shared", frames), ("deep copies", &copies[..])] {
        prop_assert_eq!(
            &trace(&mut net.clone(), input),
            &want_trace,
            "forward, {}",
            label
        );
        prop_assert_eq!(
            &grads(&mut net.clone(), input, seed),
            &want_grads,
            "gradients, {}",
            label
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clones of one frame, T times: layer outputs, counts, activity
    /// and BPTT gradients equal the reference's, at one and two
    /// threads.
    #[test]
    fn direct_coded_frames_match_reference(
        kind in 0usize..3,
        c in 1usize..3,
        half_side in 2usize..4,
        batch in 1usize..4,
        timesteps in 1usize..6,
        beta in 0.0f32..=1.0,
        theta in 0.2f32..1.5,
        zero_reset in any::<bool>(),
        detach in any::<bool>(),
        density in 0.05f32..1.0,
        seed in 0u64..10_000,
    ) {
        let side = 2 * half_side;
        let net = network(kind, c, side, lif(beta, theta, zero_reset, detach), seed);
        let frames = vec![frame(batch, c, side, density, seed); timesteps];
        for threads in [1, 2] {
            par::with_num_threads(threads, || check_against_reference(&net, &frames, seed))?;
        }
    }

    /// Frames A, A, B, B, A: a stale current from A would show at the
    /// first B, and one from B at the last A.
    #[test]
    fn alternating_frames_never_reuse_a_stale_current(
        kind in 0usize..2,
        batch in 1usize..3,
        beta in 0.0f32..=1.0,
        theta in 0.2f32..1.5,
        zero_reset in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        let net = network(kind, 2, 6, lif(beta, theta, zero_reset, true), seed);
        let a = frame(batch, 2, 6, 0.9, seed);
        let b = frame(batch, 2, 6, 0.2, seed + 1);
        check_against_reference(&net, &[a.clone(), a.clone(), b.clone(), b, a], seed)?;
    }

    /// A weight edit through `params_mut` between two steps on the
    /// same input takes effect at the second step.
    #[test]
    fn weight_edit_between_same_input_steps_takes_effect(
        kind in 0usize..2,
        scale in -2.0f32..3.0,
        seed in 0u64..10_000,
    ) {
        let cfg = lif(0.5, 0.5, false, true);
        let x = frame(2, 1, 4, 0.8, seed);
        let run = |frames: [Tensor; 2]| {
            let mut net = network(kind, 1, 4, cfg, seed);
            net.begin_sequence(false);
            let s0 = net.forward_step(&frames[0]);
            for p in net.params_mut() {
                p.value.as_mut_slice().iter_mut().for_each(|v| *v *= scale);
            }
            let s1 = net.forward_step(&frames[1]);
            (bits(&s0), bits(&s1), net.activities())
        };
        prop_assert_eq!(run([x.clone(), x.clone()]), run([deep(&x), deep(&x)]));
    }

    /// Dense-first networks on analog frames: the first dense layer's
    /// rows are mostly nonzero, of both signs, with `±0.0` zeros, so
    /// it runs the non-spike path, which must equal `matmul_nt`
    /// bitwise; the second dense layer sees spikes.
    #[test]
    fn dense_first_analog_frames_match_reference(
        c in 1usize..3,
        half_side in 1usize..4,
        batch in 1usize..4,
        timesteps in 1usize..5,
        beta in 0.0f32..=1.0,
        theta in 0.05f32..1.0,
        zero_reset in any::<bool>(),
        detach in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        let side = 2 * half_side;
        let net = network(2, c, side, lif(beta, theta, zero_reset, detach), seed);
        let frames: Vec<Tensor> = (0..timesteps as u64)
            .map(|t| analog_frame(batch, c, side, seed.wrapping_add(t)))
            .collect();
        for threads in [1, 2] {
            par::with_num_threads(threads, || check_against_reference(&net, &frames, seed))?;
        }
    }

    /// A dense layer's weight rewritten between two steps, or between
    /// two sequences, takes effect at the next step, whether it is
    /// written in place through the public field, replaced by a new
    /// tensor, or updated by an optimizer step through `params_mut`.
    #[test]
    fn dense_weight_edit_between_steps_takes_effect(
        how in 0usize..3,
        between_sequences in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        let cfg = lif(0.5, 0.3, false, true);
        let mut layer = Layer::SpikingDense(SpikingDense::new("fc", 12, 16, cfg, seed));
        let mut next = lcg(seed ^ 0x5eed);
        let mut spikes = |density: f32| {
            Tensor::from_fn(Shape::d2(3, 12), |_| f32::from(u8::from(next() < density)))
        };
        let (x0, x1) = (spikes(0.4), spikes(0.3));
        let edit = |layer: &mut Layer| {
            let mut next = lcg(seed ^ 0xed17);
            match how {
                0 => dense(layer)
                    .weight
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|w| *w *= -1.5),
                1 => {
                    let w = &mut dense(layer).weight;
                    *w = Tensor::from_fn(w.shape(), |_| next() - 0.5);
                }
                _ => {
                    let mut params = layer.params_mut();
                    for p in params.iter_mut() {
                        p.grad.as_mut_slice().iter_mut().for_each(|g| *g = next() - 0.5);
                    }
                    Optimizer::new(OptimizerKind::Sgd { momentum: 0.0 }, 2.0).step(&mut params);
                }
            }
        };
        let mut state = None;
        layer.begin_sequence(false);
        dense_step_matches_reference(&mut layer, &mut state, &x0)?;
        dense_step_matches_reference(&mut layer, &mut state, &x0)?;
        if !between_sequences {
            edit(&mut layer);
        }
        dense_step_matches_reference(&mut layer, &mut state, &x0)?;
        dense_step_matches_reference(&mut layer, &mut state, &x1)?;
        layer.begin_sequence(false);
        state = None;
        if between_sequences {
            edit(&mut layer);
        }
        dense_step_matches_reference(&mut layer, &mut state, &x0)?;
        dense_step_matches_reference(&mut layer, &mut state, &x1)?;
    }
}

/// Steps `layer` on `x` and checks its spikes against `matmul_nt` on
/// the weight the layer holds now, stepping the reference's own LIF
/// `state`.
fn dense_step_matches_reference(
    layer: &mut Layer,
    state: &mut Option<LifState>,
    x: &Tensor,
) -> Result<(), TestCaseError> {
    let got = layer.forward_step(x);
    let l = dense(layer);
    let mut current = matmul_nt(x, &l.weight).unwrap();
    add_bias_rows(&mut current, &l.bias).unwrap();
    let st = state.get_or_insert_with(|| LifState::new(current.shape()));
    let (u, s) = lif_step(&l.lif, st, &current);
    *st = LifState {
        membrane: u,
        prev_spikes: s.clone(),
    };
    prop_assert_eq!(bits(&got), bits(&s));
    Ok(())
}

fn dense(layer: &mut Layer) -> &mut SpikingDense {
    match layer {
        Layer::SpikingDense(l) => l,
        _ => unreachable!("the test builds a dense layer"),
    }
}
