//! Forward-only inference over a loaded snapshot.
//!
//! The engine is the training/serving boundary: it owns a
//! [`SpikingNetwork`] reconstructed from a validated
//! [`NetworkSnapshot`], runs it strictly in inference mode (no BPTT
//! activation caches, so memory stays flat at any sequence length),
//! and instruments every forward pass with per-request spike counters
//! — each response reports the sparsity *it* exercised, not a
//! dataset-level average.
//!
//! Batching contract: one batched forward pass over `n` stacked
//! inputs produces bit-for-bit the same outputs and spike counts as
//! `n` serial single-item passes. Every kernel on the forward path
//! (im2col conv, the spike-gather GEMM, LIF, max-pool) treats batch
//! items independently, which is what lets the [`crate::queue`] layer
//! coalesce requests without changing results. The
//! `batch_equivalence` tests pin this.

use serde::Serialize;

use snn_core::{NetworkSnapshot, SnapshotError, SpikingNetwork};
use snn_quant::StageMeta;
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

/// Builds one batch's responses — the f32 and int8 engines both
/// answer through here. `spikes[layer][item]` sums each spiking
/// layer's spikes over timesteps (non-spiking rows are empty);
/// `head(i)` gives item `i`'s class and counts.
pub(crate) fn batch_outputs(
    layers: &[StageMeta],
    spikes: &[Vec<f64>],
    densities: &[f64],
    timesteps: usize,
    engine: &str,
    head: impl Fn(usize) -> (usize, Vec<f32>),
) -> Vec<RequestOutput> {
    (0..densities.len())
        .map(|i| {
            let (class, counts) = head(i);
            let layers: Vec<LayerFiring> = layers
                .iter()
                .zip(spikes)
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
                input_density: densities[i],
                engine: engine.into(),
            }
        })
        .collect()
}

/// Forward-only executor for one model snapshot.
///
/// Not `Sync`: each worker owns an engine (the batching queue owns
/// exactly one), which keeps the network's internal scratch — im2col
/// buffers, membrane state — preallocated and reused across requests
/// with no locking.
pub struct InferenceEngine {
    net: SpikingNetwork,
    timesteps: usize,
    item_shape: Shape,
    classes: usize,
    /// Per-layer name, output size and whether it spikes, captured at
    /// build.
    layers: Vec<StageMeta>,
}

impl InferenceEngine {
    /// Validates `snapshot` and builds an engine presenting each
    /// input for `timesteps` steps (direct/constant-current coding —
    /// deterministic, so identical requests get identical answers).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] for snapshots that do not describe a
    /// runnable network, or for a zero `timesteps`.
    pub fn new(snapshot: NetworkSnapshot, timesteps: usize) -> Result<Self, SnapshotError> {
        if timesteps == 0 {
            return Err(SnapshotError::Structure("timesteps must be at least 1".into()));
        }
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
        Ok(InferenceEngine {
            timesteps,
            item_shape: net.input_item_shape(),
            classes: net.classes(),
            net,
            layers,
        })
    }

    /// Elements in one flattened input item.
    pub fn input_len(&self) -> usize {
        self.item_shape.len()
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
    /// output per item in order.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or any item has the wrong length —
    /// the queue validates lengths before enqueueing.
    pub fn infer_batch(&mut self, items: &[Vec<f32>]) -> Vec<RequestOutput> {
        let _span = snn_obs::span!("infer_batch");
        let n = items.len();
        assert!(n > 0, "infer_batch requires at least one item");
        let item_len = self.input_len();
        let mut data = Vec::with_capacity(n * item_len);
        let mut densities = Vec::with_capacity(n);
        for item in items {
            assert_eq!(item.len(), item_len, "input length validated at submit");
            let nnz = item.iter().filter(|&&v| v != 0.0).count();
            densities.push(nnz as f64 / item_len as f64);
            data.extend_from_slice(item);
        }
        let mut dims = vec![n];
        dims.extend_from_slice(self.item_shape.dims());
        let batch = Tensor::from_vec(Shape::from_dims(&dims), data)
            .expect("batch dims match data length");

        // Direct coding: the same frame every timestep. The clones
        // share one storage buffer, which is how conv1 recognises a
        // repeated input and computes its current once per batch
        // instead of once per timestep.
        let frames = vec![batch; self.timesteps];

        // spikes[layer][item], accumulated over timesteps.
        let mut spikes: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|m| if m.spiking { vec![0.0; n] } else { Vec::new() })
            .collect();
        let out = self.net.run_inference_observed(&frames, |li, _name, y| {
            let acc = &mut spikes[li];
            if acc.is_empty() {
                return;
            }
            // Spikes are exactly 0.0 or 1.0, so counting the nonzeros
            // gives the same f64 as summing them.
            let per_item = y.len() / n;
            for (i, chunk) in y.as_slice().chunks_exact(per_item).enumerate() {
                acc[i] += chunk.iter().filter(|&&v| v != 0.0).count() as f64;
            }
        });

        let classes = self.classes;
        batch_outputs(&self.layers, &spikes, &densities, self.timesteps, "f32", |i| {
            let counts = out.counts.as_slice()[i * classes..(i + 1) * classes].to_vec();
            (out.counts.argmax_row(i), counts)
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{LifConfig, SpikingNetwork};

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

    #[test]
    fn engine_reports_per_request_sparsity() {
        let mut e = InferenceEngine::new(snapshot(), 4).unwrap();
        assert_eq!(e.input_len(), 64);
        assert_eq!(e.classes(), 4);
        let out = e.infer_one(input(1));
        assert_eq!(out.engine, "f32");
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

    #[test]
    fn engine_is_deterministic_across_calls() {
        let mut e = InferenceEngine::new(snapshot(), 3).unwrap();
        let a = e.infer_one(input(7));
        let b = e.infer_one(input(7));
        assert_eq!(a, b);
    }

    #[test]
    fn batched_equals_serial_bitwise() {
        let mut e = InferenceEngine::new(snapshot(), 4).unwrap();
        let items: Vec<Vec<f32>> = (0..5).map(input).collect();
        let batched = e.infer_batch(&items);
        for (i, item) in items.iter().enumerate() {
            let solo = e.infer_one(item.clone());
            assert_eq!(batched[i], solo, "item {i} diverged between batch and serial");
            for (a, b) in batched[i].counts.iter().zip(&solo.counts) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// A batched pass (direct coding: clones of one batch tensor,
        /// so conv1 computes its current once) equals per-item
        /// `run_inference` on deep-copied frames, which runs conv1 at
        /// every step: counts, classes and per-layer spike totals, bit
        /// for bit.
        #[test]
        fn batch_equals_per_item_deep_copy_reference(
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
            let mut engine = InferenceEngine::new(snap.clone(), timesteps).unwrap();
            let batched = engine.infer_batch(&items);
            for (i, item) in items.iter().enumerate() {
                let mut solo = snap.clone().into_network();
                let frames: Vec<Tensor> = (0..timesteps)
                    .map(|_| Tensor::from_vec(Shape::d4(1, 1, 8, 8), item.clone()).unwrap())
                    .collect();
                let out = solo.run_inference(&frames);
                let want: Vec<u32> = out.counts.as_slice().iter().map(|v| v.to_bits()).collect();
                let got: Vec<u32> = batched[i].counts.iter().map(|v| v.to_bits()).collect();
                proptest::prop_assert_eq!(got, want, "counts of item {}", i);
                proptest::prop_assert_eq!(batched[i].class, out.counts.argmax_row(0));
                let want_spikes: Vec<u64> = solo
                    .layers()
                    .iter()
                    .filter(|l| l.lif_config().is_some())
                    .map(|l| l.activity().total_spikes.to_bits())
                    .collect();
                let got_spikes: Vec<u64> =
                    batched[i].layers.iter().map(|l| l.spikes.to_bits()).collect();
                proptest::prop_assert_eq!(got_spikes, want_spikes, "layer spikes of item {}", i);
            }
        }
    }

    #[test]
    fn rejects_invalid_snapshot_and_zero_timesteps() {
        assert!(InferenceEngine::new(snapshot(), 0).is_err());
        let mut bad = snapshot();
        bad.classes = 99;
        assert!(InferenceEngine::new(bad, 4).is_err());
    }
}
