//! Layer-by-layer timing of one model on the workload's inputs.
//!
//! The f32 path runs `SpikingNetwork::forward_step_observed`, the int8
//! path `QuantNetwork::infer_batch_observed`; both call back after
//! every layer. A layer's time is the gap between the previous
//! callback's exit and this callback's entry, so the observer's own
//! bookkeeping is excluded (it is recorded as `obs.observer` spans).
//! The same callbacks count nonzero inputs and outputs, which gives
//! each layer's input density, firing rate and operation count, and a
//! `SparsityProfile` for the accelerator model's cycle prediction.

use std::time::Instant;

use snn_accel::AcceleratorConfig;
use snn_core::{LayerActivity, LayerSnapshot, NetworkSnapshot, SparsityProfile};
use snn_quant::{QuantNetwork, QuantizedSnapshot};
use snn_tensor::{Shape, Tensor};

use crate::trace::Recorder;

/// Counts of one layer across the pass.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Layer name, e.g. `conv1`.
    pub name: String,
    /// Output elements per item.
    pub out_len: usize,
    /// Nonzero input elements, summed over items and timesteps.
    pub in_nnz: f64,
    /// Input elements, summed over items and timesteps.
    pub in_len: f64,
    /// Nonzero outputs (spikes), summed over items and timesteps.
    pub out_nnz: f64,
    /// Computed synaptic operations, summed over items and timesteps.
    pub synops: f64,
}

/// The result of one layer pass.
#[derive(Debug, Clone)]
pub struct LayerPass {
    /// Per layer, in forward order.
    pub layers: Vec<LayerCounts>,
    /// Items run.
    pub items: usize,
    /// Mean density of the network input.
    pub input_density: f64,
    /// Timesteps per item.
    pub timesteps: usize,
}

/// Synaptic operations one nonzero input of each layer triggers: a
/// conv spike fans out to `out_channels × k²` accumulations, a dense
/// input to every output neuron. Pooling and flatten do no synaptic
/// work.
fn fanouts(snap: &NetworkSnapshot) -> Vec<f64> {
    snap.layers
        .iter()
        .map(|l| match l {
            LayerSnapshot::Conv { geom, .. } => geom.spike_fanout(),
            LayerSnapshot::Dense { weight, .. } => weight.shape().dim(0) as f64,
            _ => 0.0,
        })
        .collect()
}

fn nonzero(v: &[f32]) -> f64 {
    v.iter().filter(|&&x| x != 0.0).count() as f64
}

/// Runs `items` through the f32 network in batches of `batch`,
/// recording `core.forward_seq` spans with one child per layer call
/// (`f32.<layer>`) and per observer call (`obs.observer`).
pub fn f32_pass(
    rec: &mut Recorder,
    snap: &NetworkSnapshot,
    items: &[Vec<f32>],
    batch: usize,
    timesteps: usize,
) -> LayerPass {
    let mut net = snap.clone().into_network();
    let fan = fanouts(snap);
    let mut layers: Vec<LayerCounts> = net
        .layers()
        .iter()
        .map(|l| LayerCounts {
            name: l.name().to_string(),
            out_len: l.output_item_shape().len(),
            ..LayerCounts::default()
        })
        .collect();
    let names: Vec<String> = layers.iter().map(|l| format!("f32.{}", l.name)).collect();
    let item_dims = net.input_item_shape();
    let to_tensor = |chunk: &[Vec<f32>]| {
        let mut dims = vec![chunk.len()];
        dims.extend_from_slice(item_dims.dims());
        Tensor::from_vec(Shape::from_dims(&dims), chunk.concat()).expect("batch dims match")
    };
    // One untimed batch sizes the scratch buffers, as in the engine.
    net.run_inference(&vec![
        to_tensor(&items[..batch.min(items.len())]);
        timesteps
    ]);
    let mut in_nnz = 0.0;
    let mut in_len = 0.0;
    for (b, chunk) in items.chunks(batch).enumerate() {
        let x = to_tensor(chunk);
        in_nnz += nonzero(x.as_slice());
        in_len += x.len() as f64;
        let root = rec.open("core.forward_seq", Instant::now(), None, b as u64);
        net.begin_sequence(false);
        for _ in 0..timesteps {
            let mut li = 0;
            let mut mark = Instant::now();
            net.forward_step_observed(&x, |_, input, output| {
                let enter = Instant::now();
                rec.record(names[li].as_str(), mark, enter, Some(root), b as u64);
                let l = &mut layers[li];
                let nnz = nonzero(input.as_slice());
                l.in_nnz += nnz;
                l.in_len += input.len() as f64;
                l.out_nnz += nonzero(output.as_slice());
                l.synops += nnz * fan[li];
                li += 1;
                mark = Instant::now();
                rec.record("obs.observer", enter, mark, Some(root), b as u64);
            });
        }
        rec.close(root, Instant::now());
    }
    LayerPass {
        layers,
        items: items.len(),
        input_density: in_nnz / in_len.max(1.0),
        timesteps,
    }
}

/// The int8 twin of [`f32_pass`]: `quant.infer_batch` spans with one
/// `int8.<stage>` child per stage call.
pub fn int8_pass(
    rec: &mut Recorder,
    snap: &NetworkSnapshot,
    artifact: &QuantizedSnapshot,
    items: &[Vec<f32>],
    batch: usize,
    timesteps: usize,
) -> LayerPass {
    let mut net = QuantNetwork::from_snapshot(artifact).expect("artifact validated at setup");
    let fan = fanouts(snap);
    let mut layers: Vec<LayerCounts> = net
        .stage_meta()
        .iter()
        .map(|m| LayerCounts {
            name: m.name.clone(),
            out_len: m.item_len,
            ..LayerCounts::default()
        })
        .collect();
    let names: Vec<String> = layers.iter().map(|l| format!("int8.{}", l.name)).collect();
    // The first stage sees the level-quantized input; count its
    // nonzeros the way the runtime quantizes.
    let inv_step = artifact.input_levels as f32 / artifact.input_max;
    let qnonzero = |item: &[f32]| {
        item.iter()
            .filter(|&&v| {
                (v * inv_step)
                    .round()
                    .clamp(0.0, artifact.input_levels as f32)
                    != 0.0
            })
            .count() as f64
    };
    // One untimed batch sizes the scratch buffers, as in the engine.
    net.infer_batch(&items[..batch.min(items.len())], timesteps)
        .expect("inputs validated at setup");
    let mut in_nnz = 0.0;
    let mut in_len = 0.0;
    for (b, chunk) in items.chunks(batch).enumerate() {
        let first_nnz: f64 = chunk.iter().map(|it| qnonzero(it)).sum();
        let first_len: f64 = chunk.iter().map(|it| it.len() as f64).sum();
        in_nnz += first_nnz;
        in_len += first_len;
        let root = rec.open("quant.infer_batch", Instant::now(), None, b as u64);
        let mut prev = (first_nnz, first_len);
        let mut mark = Instant::now();
        net.infer_batch_observed(chunk, timesteps, |si, _, acts, _| {
            let enter = Instant::now();
            rec.record(names[si].as_str(), mark, enter, Some(root), b as u64);
            if si == 0 {
                prev = (first_nnz, first_len);
            }
            let l = &mut layers[si];
            let out_nnz = acts.iter().filter(|&&a| a != 0).count() as f64;
            l.in_nnz += prev.0;
            l.in_len += prev.1;
            l.out_nnz += out_nnz;
            l.synops += prev.0 * fan[si];
            prev = (out_nnz, acts.len() as f64);
            mark = Instant::now();
            rec.record("obs.observer", enter, mark, Some(root), b as u64);
        })
        .expect("inputs validated at setup");
        rec.close(root, Instant::now());
    }
    LayerPass {
        layers,
        items: items.len(),
        input_density: in_nnz / in_len.max(1.0),
        timesteps,
    }
}

impl LayerPass {
    /// The measured firing profile, in the form the accelerator model
    /// takes.
    pub fn profile(&self) -> SparsityProfile {
        let steps = (self.items * self.timesteps) as f64;
        SparsityProfile {
            layers: self
                .layers
                .iter()
                .map(|l| LayerActivity {
                    name: l.name.clone(),
                    neurons: l.out_len,
                    total_spikes: l.out_nnz,
                    neuron_steps: l.out_len as f64 * steps,
                })
                .collect(),
            input_density: self.input_density,
            timesteps: self.timesteps,
            samples: self.items,
        }
    }
}

/// One row of the measured-versus-predicted table.
#[derive(Debug, Clone)]
pub struct ShareRow {
    /// Hardware stage (a spiking layer; the pooling and flatten layers
    /// after it are fused into it, as on the accelerator).
    pub stage: String,
    /// Share of the measured CPU layer time.
    pub measured: f64,
    /// Share of the accelerator model's cycles per timestep.
    pub predicted: f64,
}

/// Compares each hardware stage's share of measured layer time (from
/// `self_s`, seconds per layer in forward order) with its share of the
/// cycles `snn_accel` predicts for the same snapshot and firing
/// profile.
pub fn accel_shares(
    snap: &NetworkSnapshot,
    pass: &LayerPass,
    self_s: &[f64],
) -> Result<Vec<ShareRow>, String> {
    let report = AcceleratorConfig::sparsity_aware()
        .map(snap, &pass.profile())
        .map_err(|e| e.to_string())?;
    let cycles: Vec<(String, f64)> = report
        .timing
        .stages
        .iter()
        .map(|s| (s.name.clone(), s.cycles_per_step as f64))
        .collect();
    let mut measured: Vec<f64> = vec![0.0; cycles.len()];
    let mut stage: Option<usize> = None;
    for (l, t) in pass.layers.iter().zip(self_s) {
        if let Some(i) = cycles.iter().position(|(n, _)| *n == l.name) {
            stage = Some(i);
        }
        if let Some(i) = stage {
            measured[i] += t;
        }
    }
    let total_m: f64 = measured.iter().sum();
    let total_c: f64 = cycles.iter().map(|(_, c)| c).sum();
    Ok(cycles
        .into_iter()
        .zip(measured)
        .map(|((stage, c), m)| ShareRow {
            stage,
            measured: m / total_m.max(f64::MIN_POSITIVE),
            predicted: c / total_c.max(f64::MIN_POSITIVE),
        })
        .collect())
}
