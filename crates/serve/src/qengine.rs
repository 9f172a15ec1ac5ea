//! Forward-only inference over a quantized artifact, plus the
//! dtype-dispatching engine the batch worker actually owns.
//!
//! [`QuantEngine`] is the integer twin of
//! [`crate::InferenceEngine`]: it wraps an
//! [`snn_quant::QuantNetwork`], accepts the same f32 request payloads
//! (input quantization is the artifact's job, not the client's), and
//! produces the same [`RequestOutput`] shape — per-layer firing
//! rates, rate-coded counts, input density — with `engine: "int8"` so
//! every response names the numeric path that served it.
//!
//! [`AnyEngine`] selects the engine from the registry's
//! [`ServedModel`] dtype. The batch worker rebuilds it on every
//! registry swap, which is how a `/reload` with a quantized artifact
//! moves the serving path from f32 to integer arithmetic end-to-end
//! without restarting the process.

use crate::engine::{batch_outputs, InferenceEngine, RequestOutput};
use crate::registry::ServedModel;
use snn_core::SnapshotError;
use snn_quant::{classify_counts, QuantNetwork, QuantizedSnapshot, StageMeta};

/// Integer-only executor for one quantized artifact.
///
/// Like the f32 engine it is single-owner (the batch worker holds
/// exactly one), which keeps the quantized network's scratch — im2col
/// columns, i32 accumulators, Q-format membranes — preallocated and
/// reused across requests without locking.
pub struct QuantEngine {
    net: QuantNetwork,
    timesteps: usize,
    /// A copy of the network's stage descriptions, readable while the
    /// network runs.
    layers: Vec<StageMeta>,
}

impl QuantEngine {
    /// Validates `artifact` and builds an engine presenting each input
    /// for `timesteps` steps (direct coding, same as the f32 engine).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] for artifacts that do not describe a
    /// runnable quantized network, or for a zero `timesteps`.
    pub fn new(artifact: &QuantizedSnapshot, timesteps: usize) -> Result<Self, SnapshotError> {
        if timesteps == 0 {
            return Err(SnapshotError::Structure("timesteps must be at least 1".into()));
        }
        let net = QuantNetwork::from_snapshot(artifact)
            .map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        let layers = net.stage_meta().to_vec();
        Ok(QuantEngine { net, timesteps, layers })
    }

    /// Elements in one flattened input item.
    pub fn input_len(&self) -> usize {
        self.net.input_len()
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.net.classes()
    }

    /// Timesteps per inference.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// Runs one batched integer forward pass over `items`, returning
    /// one output per item in order. Bit-identical across thread
    /// counts and dispatch routes (the artifact's core guarantee).
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or any item has the wrong length or
    /// non-finite values — the queue and HTTP layer validate both
    /// before enqueueing.
    pub fn infer_batch(&mut self, items: &[Vec<f32>]) -> Vec<RequestOutput> {
        let _span = snn_obs::span!("qinfer_batch");
        let n = items.len();
        assert!(n > 0, "infer_batch requires at least one item");
        let item_len = self.input_len();
        let densities: Vec<f64> = items
            .iter()
            .map(|item| {
                assert_eq!(item.len(), item_len, "input length validated at submit");
                item.iter().filter(|&&v| v != 0.0).count() as f64 / item_len as f64
            })
            .collect();

        // spikes[stage][item], accumulated over timesteps; only
        // spiking stages get a row.
        let mut spikes: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|m| if m.spiking { vec![0.0; n] } else { Vec::new() })
            .collect();
        let counts = self
            .net
            .infer_batch_observed(items, self.timesteps, |si, _name, acts, n| {
                let acc = &mut spikes[si];
                if acc.is_empty() {
                    return;
                }
                // Sum in u32 (vectorizes), then widen once: every
                // partial sum is a small integer, exact in f64.
                let per_item = acts.len() / n;
                for (i, chunk) in acts.chunks_exact(per_item).enumerate() {
                    acc[i] += chunk.iter().map(|&v| v as u32).sum::<u32>() as f64;
                }
            })
            .expect("queue and HTTP layer validate inputs before dispatch");

        let classes = self.classes();
        batch_outputs(&self.layers, &spikes, &densities, self.timesteps, "int8", |i| {
            let row = &counts[i * classes..(i + 1) * classes];
            (classify_counts(row), row.iter().map(|&c| c as f32).collect())
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

/// The engine the batch worker owns: one variant per served dtype.
pub enum AnyEngine {
    /// Full-precision path.
    F32(InferenceEngine),
    /// Quantized integer path.
    Int8(QuantEngine),
}

impl AnyEngine {
    /// Builds the engine matching `model`'s dtype.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if the model cannot be executed or
    /// `timesteps` is zero.
    pub fn new(model: &ServedModel, timesteps: usize) -> Result<Self, SnapshotError> {
        match model {
            ServedModel::F32(s) => {
                Ok(AnyEngine::F32(InferenceEngine::new(s.clone(), timesteps)?))
            }
            ServedModel::Int8(q) => Ok(AnyEngine::Int8(QuantEngine::new(q, timesteps)?)),
        }
    }

    /// The engine kind tag: `"f32"` or `"int8"`, matching
    /// [`ServedModel::dtype`].
    pub fn kind(&self) -> &'static str {
        match self {
            AnyEngine::F32(_) => "f32",
            AnyEngine::Int8(_) => "int8",
        }
    }

    /// Elements in one flattened input item.
    pub fn input_len(&self) -> usize {
        match self {
            AnyEngine::F32(e) => e.input_len(),
            AnyEngine::Int8(e) => e.input_len(),
        }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        match self {
            AnyEngine::F32(e) => e.classes(),
            AnyEngine::Int8(e) => e.classes(),
        }
    }

    /// Timesteps per inference.
    pub fn timesteps(&self) -> usize {
        match self {
            AnyEngine::F32(e) => e.timesteps(),
            AnyEngine::Int8(e) => e.timesteps(),
        }
    }

    /// Runs one batched forward pass; see the variant engines for the
    /// per-dtype contracts.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or invalid items, like both variants.
    pub fn infer_batch(&mut self, items: &[Vec<f32>]) -> Vec<RequestOutput> {
        match self {
            AnyEngine::F32(e) => e.infer_batch(items),
            AnyEngine::Int8(e) => e.infer_batch(items),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
    use snn_quant::{calibrate, quantize_snapshot};
    use snn_tensor::Shape;

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

    fn inputs(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| (0..64).map(|j| ((i * 64 + j) % 9) as f32 / 8.0).collect())
            .collect()
    }

    fn artifact() -> QuantizedSnapshot {
        let snap = snapshot();
        let cal = calibrate(&snap, &inputs(6), 4).unwrap();
        quantize_snapshot(&snap, &cal, 8).unwrap()
    }

    #[test]
    fn quant_engine_reports_int8_outputs_with_firing_rates() {
        let mut e = QuantEngine::new(&artifact(), 4).unwrap();
        assert_eq!(e.input_len(), 64);
        assert_eq!(e.classes(), 4);
        let out = e.infer_one(inputs(1).pop().unwrap());
        assert_eq!(out.engine, "int8");
        assert!(out.class < 4);
        assert_eq!(out.counts.len(), 4);
        assert_eq!(out.timesteps, 4);
        let names: Vec<&str> = out.layers.iter().map(|l| l.layer.as_str()).collect();
        assert_eq!(names, vec!["conv1", "fc1"]);
        for l in &out.layers {
            assert!((0.0..=1.0).contains(&l.rate), "rate {} out of range", l.rate);
        }
        assert!(out.mean_rate >= 0.0 && out.mean_rate <= 1.0);
    }

    #[test]
    fn quant_engine_batched_equals_serial() {
        let mut e = QuantEngine::new(&artifact(), 3).unwrap();
        let items = inputs(5);
        let batched = e.infer_batch(&items);
        for (i, item) in items.iter().enumerate() {
            let solo = e.infer_one(item.clone());
            assert_eq!(batched[i], solo, "item {i} diverged between batch and serial");
        }
    }

    #[test]
    fn quant_engine_is_deterministic_across_calls() {
        let mut e = QuantEngine::new(&artifact(), 3).unwrap();
        let item = inputs(1).pop().unwrap();
        assert_eq!(e.infer_one(item.clone()), e.infer_one(item));
    }

    #[test]
    fn any_engine_selects_by_dtype() {
        let f32_model = ServedModel::F32(snapshot());
        let int8_model = ServedModel::Int8(artifact());
        let mut f = AnyEngine::new(&f32_model, 4).unwrap();
        let mut q = AnyEngine::new(&int8_model, 4).unwrap();
        assert_eq!(f.kind(), "f32");
        assert_eq!(q.kind(), "int8");
        assert_eq!(f.input_len(), q.input_len());
        assert_eq!(f.classes(), q.classes());
        let item = inputs(1).pop().unwrap();
        let fo = f.infer_batch(std::slice::from_ref(&item)).pop().unwrap();
        let qo = q.infer_batch(std::slice::from_ref(&item)).pop().unwrap();
        assert_eq!(fo.engine, "f32");
        assert_eq!(qo.engine, "int8");
        // Both engines draw from the same model family; on a smooth
        // input their predictions agree for this topology.
        assert_eq!(fo.counts.len(), qo.counts.len());
    }

    #[test]
    fn quant_engine_rejects_zero_timesteps_and_broken_artifacts() {
        assert!(QuantEngine::new(&artifact(), 0).is_err());
        let mut bad = artifact();
        bad.input_levels = 0;
        assert!(QuantEngine::new(&bad, 4).is_err());
    }
}
