//! Forward-only inference over a loaded model, f32 or int8.
//!
//! The engine is the training/serving boundary. It owns either a
//! [`SpikingNetwork`] rebuilt from a validated
//! [`snn_core::NetworkSnapshot`],
//! run strictly in inference mode (no BPTT activation caches, so
//! memory stays flat at any sequence length), or a
//! [`snn_quant::QuantNetwork`] built from a quantized artifact, which
//! runs in integer arithmetic only. Both take the same f32 request
//! payloads (input quantization is the artifact's job, not the
//! client's) and answer in the same [`RequestOutput`] shape, with
//! per-request spike counters — each response reports the sparsity
//! *it* exercised, not a dataset-level average — and an `engine` tag
//! naming the numeric path that served it. Only the forward call
//! differs by dtype.
//!
//! Batching contract: one batched forward pass over `n` stacked
//! inputs produces bit-for-bit the same outputs and spike counts as
//! `n` serial single-item passes. Every kernel on the forward path
//! (im2col conv, the spike-gather GEMM, LIF, max-pool) treats batch
//! items independently, which is what lets the [`crate::queue`] layer
//! coalesce requests without changing results. The
//! `batch_equivalence` tests pin this.

use serde::Serialize;

use crate::registry::ServedModel;
use snn_core::{SnapshotError, SpikingNetwork};
use snn_quant::{classify_counts, QuantNetwork, StageMeta};
use snn_tensor::spike::count_nonzero;
use snn_tensor::{Shape, Tensor};

/// Firing statistics of one layer for a single request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LayerFiring {
    /// Layer name, e.g. `conv1`.
    pub layer: String,
    /// Output spikes this request produced in the layer, summed over
    /// timesteps.
    pub spikes: f64,
    /// Spike opportunities: `neurons × timesteps`.
    pub neuron_steps: f64,
    /// `spikes / neuron_steps` — the per-request firing rate.
    pub rate: f64,
}

/// Result of one inference request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestOutput {
    /// Predicted class (argmax of output spike counts; ties break to
    /// the lowest index).
    pub class: usize,
    /// Output spike counts per class — the rate-coded logits.
    pub counts: Vec<f32>,
    /// Timesteps the input was presented for.
    pub timesteps: usize,
    /// Per-layer firing statistics for the spiking layers, in forward
    /// order.
    pub layers: Vec<LayerFiring>,
    /// Firing rate across all spiking layers, weighted by
    /// neuron-steps.
    pub mean_rate: f64,
    /// Fraction of nonzero elements in the submitted input — the
    /// density the event-driven conv dispatcher routes on, reported
    /// per request so clients can see how sparse their traffic is.
    pub input_density: f64,
    /// Which numeric engine served the request: `"f32"` or `"int8"`.
    /// An owned `String` (not `&'static str`) because the vendored
    /// serde leaks static strings on serialize.
    pub engine: String,
}

/// The network an engine runs, one variant per served dtype.
enum Net {
    F32 { net: SpikingNetwork, item_shape: Shape },
    Int8(QuantNetwork),
}

/// Forward-only executor for one served model.
///
/// Not `Sync`: each worker owns an engine (the batching queue owns
/// exactly one), which keeps the network's internal scratch — im2col
/// buffers, i32 accumulators, membrane state — preallocated and
/// reused across requests with no locking.
pub struct InferenceEngine {
    net: Net,
    /// `"f32"` or `"int8"`, as [`ServedModel::dtype`].
    dtype: &'static str,
    timesteps: usize,
    input_len: usize,
    classes: usize,
    /// Per-layer name, output size and whether it spikes, captured at
    /// build.
    layers: Vec<StageMeta>,
}

/// The engine the batch worker owns. There is one engine type for
/// both dtypes; this name is kept for callers that build it from a
/// [`ServedModel`].
pub type AnyEngine = InferenceEngine;

impl InferenceEngine {
    /// Validates `model` and builds an engine for its dtype,
    /// presenting each input for `timesteps` steps
    /// (direct/constant-current coding — deterministic, so identical
    /// requests get identical answers).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] for a model that does not describe a
    /// runnable network, or for a zero `timesteps`.
    pub fn new(model: impl Into<ServedModel>, timesteps: usize) -> Result<Self, SnapshotError> {
        if timesteps == 0 {
            return Err(SnapshotError::Structure("timesteps must be at least 1".into()));
        }
        let model = model.into();
        let dtype = model.dtype();
        let (item_dims, classes) = model.interface();
        let (net, layers) = match model {
            ServedModel::F32(snapshot) => {
                let net = snapshot.try_into_network()?;
                let layers = net
                    .layers()
                    .iter()
                    .map(|l| StageMeta {
                        name: l.name().to_string(),
                        item_len: l.output_item_shape().len(),
                        spiking: l.lif_config().is_some(),
                    })
                    .collect();
                (Net::F32 { item_shape: net.input_item_shape(), net }, layers)
            }
            ServedModel::Int8(artifact) => {
                let net = QuantNetwork::from_snapshot(&artifact)
                    .map_err(|e| SnapshotError::Malformed(e.to_string()))?;
                let layers = net.stage_meta().to_vec();
                (Net::Int8(net), layers)
            }
        };
        let input_len = item_dims.iter().product();
        Ok(InferenceEngine { net, dtype, timesteps, input_len, classes, layers })
    }

    /// Elements in one flattened input item.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Timesteps per inference.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// Runs one batched forward pass over `items` (each a flattened
    /// input of [`InferenceEngine::input_len`] values), returning one
    /// output per item in order. The int8 path is bit-identical across
    /// thread counts and dispatch routes (the artifact's core
    /// guarantee).
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or any item has the wrong length or
    /// (int8) non-finite values — the queue and HTTP layer validate
    /// both before enqueueing.
    pub fn infer_batch(&mut self, items: &[Vec<f32>]) -> Vec<RequestOutput> {
        let _span = snn_obs::span!("infer_batch");
        let n = items.len();
        assert!(n > 0, "infer_batch requires at least one item");
        let item_len = self.input_len;
        let densities: Vec<f64> = items
            .iter()
            .map(|item| {
                assert_eq!(item.len(), item_len, "input length validated at submit");
                count_nonzero(item) as f64 / item_len as f64
            })
            .collect();

        // spikes[layer][item], accumulated over timesteps; only
        // spiking layers get a row.
        let mut spikes: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|m| if m.spiking { vec![0.0; n] } else { Vec::new() })
            .collect();
        let classes = self.classes;
        // (class, counts) per item.
        let heads: Vec<(usize, Vec<f32>)> = match &mut self.net {
            Net::F32 { net, item_shape } => {
                let mut dims = vec![n];
                dims.extend_from_slice(item_shape.dims());
                let batch = Tensor::from_vec(Shape::from_dims(&dims), items.concat())
                    .expect("batch dims match data length");
                // Direct coding: the same frame every timestep. The
                // clones share one storage buffer, which is how conv1
                // recognises a repeated input and computes its current
                // once per batch instead of once per timestep.
                let frames = vec![batch; self.timesteps];
                // Each layer counted its step's spikes per item; add
                // those counts rather than scanning the output again.
                let out = net.run_inference_observed(&frames, |li, _, _, counts| {
                    tally(&mut spikes[li], counts.iter().copied());
                });
                (0..n)
                    .map(|i| {
                        let row = &out.counts.as_slice()[i * classes..(i + 1) * classes];
                        (out.counts.argmax_row(i), row.to_vec())
                    })
                    .collect()
            }
            Net::Int8(net) => {
                let counts = net
                    .infer_batch_observed(items, self.timesteps, |si, _, acts, _| {
                        // Spikes are 0 or 1: sum each item's bytes in
                        // u32 (vectorizes), then widen once.
                        let per_item = acts.chunks_exact(acts.len() / n);
                        let counts = per_item.map(|c| c.iter().map(|&v| u32::from(v)).sum());
                        tally(&mut spikes[si], counts);
                    })
                    .expect("queue and HTTP layer validate inputs before dispatch");
                counts
                    .chunks_exact(classes)
                    .map(|row| (classify_counts(row), row.iter().map(|&c| c as f32).collect()))
                    .collect()
            }
        };

        let timesteps = self.timesteps;
        heads
            .into_iter()
            .zip(densities)
            .enumerate()
            .map(|(i, ((class, counts), input_density))| {
                let layers: Vec<LayerFiring> = self
                    .layers
                    .iter()
                    .zip(&spikes)
                    .filter(|(m, _)| m.spiking)
                    .map(|(m, s)| {
                        let neuron_steps = (m.item_len * timesteps) as f64;
                        LayerFiring {
                            layer: m.name.clone(),
                            spikes: s[i],
                            neuron_steps,
                            rate: s[i] / neuron_steps,
                        }
                    })
                    .collect();
                let (total_s, total_ns) = layers
                    .iter()
                    .fold((0.0, 0.0), |(s, ns), l| (s + l.spikes, ns + l.neuron_steps));
                RequestOutput {
                    class,
                    counts,
                    timesteps,
                    layers,
                    mean_rate: if total_ns > 0.0 { total_s / total_ns } else { 0.0 },
                    input_density,
                    engine: self.dtype.into(),
                }
            })
            .collect()
    }

    /// Convenience wrapper: a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `item` has the wrong length.
    pub fn infer_one(&mut self, item: Vec<f32>) -> RequestOutput {
        self.infer_batch(std::slice::from_ref(&item))
            .pop()
            .expect("batch of one yields one output")
    }
}

/// Adds one layer-step's per-item spike `counts` to the layer's row
/// `acc`. Non-spiking layers have an empty row and are skipped. Every
/// partial count is a small integer, exact in f64.
fn tally(acc: &mut [f64], counts: impl Iterator<Item = u32>) {
    for (a, c) in acc.iter_mut().zip(counts) {
        *a += f64::from(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{LifConfig, NetworkSnapshot};
    use snn_quant::{calibrate, quantize_snapshot, QuantizedSnapshot};

    fn snapshot() -> NetworkSnapshot {
        let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
        let net = SpikingNetwork::builder(Shape::d3(1, 8, 8), 11)
            .conv(4, 3, 1, 1, lif)
            .unwrap()
            .maxpool(2)
            .unwrap()
            .flatten()
            .unwrap()
            .dense(4, lif)
            .unwrap()
            .build()
            .unwrap();
        NetworkSnapshot::from_network(&net)
    }

    fn input(seed: u64) -> Vec<f32> {
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..64)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) as f32) / (u32::MAX as f32)
            })
            .collect()
    }

    /// `snap` quantized to 8 bits, calibrated on `items`.
    fn quantize(snap: &NetworkSnapshot, items: &[Vec<f32>], timesteps: usize) -> QuantizedSnapshot {
        let cal = calibrate(snap, items, timesteps).unwrap();
        quantize_snapshot(snap, &cal, 8).unwrap()
    }

    /// The test topology served at each dtype.
    fn models() -> [ServedModel; 2] {
        let snap = snapshot();
        let int8 = quantize(&snap, &(0..6).map(input).collect::<Vec<_>>(), 4);
        [ServedModel::F32(snap), ServedModel::Int8(int8)]
    }

    #[test]
    fn engine_reports_per_request_sparsity() {
        for model in models() {
            let mut e = InferenceEngine::new(&model, 4).unwrap();
            assert_eq!(e.input_len(), 64);
            assert_eq!(e.classes(), 4);
            assert_eq!(e.timesteps(), 4);
            let out = e.infer_one(input(1));
            assert_eq!(out.engine, model.dtype());
            assert!(out.class < 4);
            assert_eq!(out.counts.len(), 4);
            assert_eq!(out.timesteps, 4);
            // conv1 and fc1 are the spiking layers of this topology.
            let names: Vec<&str> = out.layers.iter().map(|l| l.layer.as_str()).collect();
            assert_eq!(names, vec!["conv1", "fc1"]);
            for l in &out.layers {
                assert!(l.rate >= 0.0 && l.rate <= 1.0, "rate {} out of range", l.rate);
                let expected_steps = if l.layer == "conv1" { 4 * 8 * 8 * 4 } else { 4 * 4 };
                assert_eq!(l.neuron_steps, expected_steps as f64);
            }
            assert!(out.mean_rate >= 0.0 && out.mean_rate <= 1.0);
            // The LCG input is dense; a zeroed tail shows up in the
            // reported density exactly.
            assert_eq!(out.input_density, 1.0);
            let mut half = input(1);
            half.iter_mut().skip(32).for_each(|v| *v = 0.0);
            assert_eq!(e.infer_one(half).input_density, 0.5);
        }
    }

    #[test]
    fn engine_is_deterministic_across_calls() {
        for model in models() {
            let mut e = InferenceEngine::new(model, 3).unwrap();
            let a = e.infer_one(input(7));
            let b = e.infer_one(input(7));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn batched_equals_serial_bitwise() {
        for model in models() {
            let mut e = InferenceEngine::new(&model, 4).unwrap();
            let items: Vec<Vec<f32>> = (0..5).map(input).collect();
            let batched = e.infer_batch(&items);
            for (i, item) in items.iter().enumerate() {
                let solo = e.infer_one(item.clone());
                assert_eq!(batched[i], solo, "{} item {i} diverged", model.dtype());
                for (a, b) in batched[i].counts.iter().zip(&solo.counts) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// A batched pass equals a per-item reference run on the
        /// network alone: counts, classes and per-layer spike totals,
        /// bit for bit. f32 batches present clones of one batch
        /// tensor, so conv1 computes its current once; the reference
        /// is `run_inference` on deep-copied frames, which runs conv1
        /// at every step. The int8 reference is a fresh
        /// `QuantNetwork` per item, its counts, `classify_counts` and
        /// the observer's spike sums.
        #[test]
        fn batch_equals_per_item_deep_copy_reference(
            int8 in proptest::prelude::any::<bool>(),
            conv_conv in proptest::prelude::any::<bool>(),
            timesteps in 1usize..6,
            n in 1usize..5,
            theta in 0.2f32..1.2,
            sparse in proptest::prelude::any::<bool>(),
            seed in 0u64..10_000,
        ) {
            let lif = LifConfig { theta, ..LifConfig::paper_default() };
            let b = SpikingNetwork::builder(Shape::d3(1, 8, 8), seed).conv(4, 3, 1, 1, lif).unwrap();
            let b = if conv_conv { b.conv(3, 3, 1, 1, lif) } else { b.maxpool(2) }.unwrap();
            let net = b.flatten().unwrap().dense(4, lif).unwrap().build().unwrap();
            let snap = NetworkSnapshot::from_network(&net);
            let items: Vec<Vec<f32>> = (0..n as u64)
                .map(|i| {
                    let mut x = input(seed * 8 + i);
                    if sparse {
                        // Mostly zeros: conv1 takes the event route.
                        x.iter_mut().skip(4).for_each(|v| *v = 0.0);
                    }
                    x
                })
                .collect();
            let model = if int8 {
                ServedModel::Int8(quantize(&snap, &items, timesteps))
            } else {
                ServedModel::F32(snap)
            };
            let mut engine = InferenceEngine::new(&model, timesteps).unwrap();
            let batched = engine.infer_batch(&items);
            for (i, item) in items.iter().enumerate() {
                let (want, want_class, want_spikes): (Vec<f32>, usize, Vec<f64>) = match &model {
                    ServedModel::F32(snap) => {
                        let mut solo = snap.clone().into_network();
                        let frames: Vec<Tensor> = (0..timesteps)
                            .map(|_| Tensor::from_vec(Shape::d4(1, 1, 8, 8), item.clone()).unwrap())
                            .collect();
                        let out = solo.run_inference(&frames);
                        let spikes = solo
                            .layers()
                            .iter()
                            .filter(|l| l.lif_config().is_some())
                            .map(|l| l.activity().total_spikes)
                            .collect();
                        (out.counts.as_slice().to_vec(), out.counts.argmax_row(0), spikes)
                    }
                    ServedModel::Int8(artifact) => {
                        let mut solo = QuantNetwork::from_snapshot(artifact).unwrap();
                        let mut sums = vec![0.0f64; solo.stage_meta().len()];
                        let counts = solo
                            .infer_batch_observed(std::slice::from_ref(item), timesteps, |si, _, acts, _| {
                                sums[si] += acts.iter().map(|&a| f64::from(a)).sum::<f64>();
                            })
                            .unwrap();
                        let spikes = solo
                            .stage_meta()
                            .iter()
                            .zip(sums)
                            .filter(|(m, _)| m.spiking)
                            .map(|(_, s)| s)
                            .collect();
                        (counts.iter().map(|&c| c as f32).collect(), classify_counts(&counts), spikes)
                    }
                };
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let got: Vec<u32> = batched[i].counts.iter().map(|v| v.to_bits()).collect();
                proptest::prop_assert_eq!(got, want, "counts of item {}", i);
                proptest::prop_assert_eq!(batched[i].class, want_class);
                let want_spikes: Vec<u64> = want_spikes.iter().map(|s| s.to_bits()).collect();
                let got_spikes: Vec<u64> =
                    batched[i].layers.iter().map(|l| l.spikes.to_bits()).collect();
                proptest::prop_assert_eq!(got_spikes, want_spikes, "layer spikes of item {}", i);
            }
        }
    }

    #[test]
    fn rejects_broken_model_and_zero_timesteps() {
        for model in models() {
            assert!(InferenceEngine::new(&model, 0).is_err());
            let broken = match model {
                ServedModel::F32(mut snap) => {
                    snap.classes = 99;
                    ServedModel::F32(snap)
                }
                ServedModel::Int8(mut artifact) => {
                    artifact.input_levels = 0;
                    ServedModel::Int8(artifact)
                }
            };
            assert!(InferenceEngine::new(broken, 4).is_err());
        }
    }
}
