//! Activation-range calibration over a dataset split.
//!
//! Post-training quantization needs two measured ranges the weights
//! alone cannot provide: the input magnitude (to pick the input
//! quantization step) and each spiking stage's peak synaptic current
//! (to pick that stage's membrane Q-format with headroom). This
//! module runs the *f32* reference forward — the same kernels the
//! trained network used — over a calibration split and records both.

use snn_core::neuron::{lif_step_in_place, LifState};
use snn_core::{LayerSnapshot, NetworkSnapshot};
use snn_tensor::conv::conv2d_forward;
use snn_tensor::linalg::{add_bias_rows, matmul_nt};
use snn_tensor::pool::maxpool2d_forward;
use snn_tensor::{Shape, Tensor};

use crate::error::QuantError;

/// Measured activation ranges from one calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Largest input magnitude observed (floored at a small epsilon
    /// so an all-zero split cannot produce a zero quantization step).
    pub input_max: f32,
    /// Per-snapshot-layer peak `|synaptic current|` (conv/dense
    /// pre-activation after bias); non-spiking layers hold 0.0.
    pub stage_current_max: Vec<f32>,
    /// Number of calibration items observed.
    pub samples: usize,
    /// Timesteps each item was run for.
    pub timesteps: usize,
}

/// Largest batch calibrated at once; bounds scratch memory while
/// keeping the conv kernels batched enough to amortize dispatch.
const CALIBRATION_CHUNK: usize = 32;

/// Runs the f32 forward over `items` and records activation ranges.
///
/// Items are flat input vectors matching the snapshot's
/// `input_item_dims` product, direct-coded for `timesteps` steps —
/// the same presentation the serve engine uses.
///
/// # Errors
///
/// Returns [`QuantError::Calibration`] for an empty split, length
/// mismatches, non-finite inputs, or zero timesteps, and passes
/// through snapshot validation failures as [`QuantError::Structure`].
pub fn calibrate(
    snap: &NetworkSnapshot,
    items: &[Vec<f32>],
    timesteps: usize,
) -> Result<Calibration, QuantError> {
    snap.validate().map_err(|e| QuantError::Structure(format!("calibration snapshot: {e}")))?;
    if items.is_empty() {
        return Err(QuantError::Calibration("empty calibration split".into()));
    }
    if timesteps == 0 {
        return Err(QuantError::Calibration("zero timesteps".into()));
    }
    let item_len: usize = snap.input_item_dims.iter().product();
    let mut input_max = 0f32;
    for (i, item) in items.iter().enumerate() {
        if item.len() != item_len {
            return Err(QuantError::Calibration(format!(
                "item {i} has {} values, the network expects {item_len}",
                item.len()
            )));
        }
        for &v in item {
            if !v.is_finite() {
                return Err(QuantError::Calibration(format!("item {i} contains non-finite value {v}")));
            }
            input_max = input_max.max(v.abs());
        }
    }
    let mut stage_current_max = vec![0f32; snap.layers.len()];
    for chunk in items.chunks(CALIBRATION_CHUNK) {
        observe_chunk(snap, chunk, timesteps, &mut stage_current_max)?;
    }
    Ok(Calibration {
        input_max: input_max.max(1e-6),
        stage_current_max,
        samples: items.len(),
        timesteps,
    })
}

/// Forward one batch of items for the full sequence, folding each
/// spiking stage's `|current|` maximum into `current_max`.
fn observe_chunk(
    snap: &NetworkSnapshot,
    chunk: &[Vec<f32>],
    timesteps: usize,
    current_max: &mut [f32],
) -> Result<(), QuantError> {
    let n = chunk.len();
    let item_len: usize = snap.input_item_dims.iter().product();
    let mut flat = Vec::with_capacity(n * item_len);
    for item in chunk {
        flat.extend_from_slice(item);
    }
    let mut input_dims = vec![n];
    input_dims.extend_from_slice(&snap.input_item_dims);
    let input = Tensor::from_vec(Shape::from_dims(&input_dims), flat)
        .map_err(|e| QuantError::Calibration(format!("building input batch: {e}")))?;

    let mut states: Vec<Option<LifState>> = vec![None; snap.layers.len()];
    for _t in 0..timesteps {
        let mut x = input.clone();
        for (idx, layer) in snap.layers.iter().enumerate() {
            x = match layer {
                LayerSnapshot::Conv { geom, lif, weight, bias, name } => {
                    let current = conv2d_forward(geom, &x, weight, bias)
                        .map_err(|e| QuantError::Calibration(format!("conv {name}: {e}")))?;
                    fold_max(&current, &mut current_max[idx]);
                    let state = states[idx]
                        .get_or_insert_with(|| LifState::new(current.shape()));
                    lif_step_in_place(lif, state, &current)
                }
                LayerSnapshot::Dense { lif, weight, bias, name } => {
                    let mut current = matmul_nt(&x, weight)
                        .map_err(|e| QuantError::Calibration(format!("dense {name}: {e}")))?;
                    add_bias_rows(&mut current, bias)
                        .map_err(|e| QuantError::Calibration(format!("dense {name} bias: {e}")))?;
                    fold_max(&current, &mut current_max[idx]);
                    let state = states[idx]
                        .get_or_insert_with(|| LifState::new(current.shape()));
                    lif_step_in_place(lif, state, &current)
                }
                LayerSnapshot::Pool { geom, name } => maxpool2d_forward(geom, &x, false)
                    .map_err(|e| QuantError::Calibration(format!("pool {name}: {e}")))?
                    .output,
                LayerSnapshot::Flatten { .. } => {
                    let len = x.len() / n;
                    x.reshape(Shape::d2(n, len))
                        .map_err(|e| QuantError::Calibration(format!("flatten: {e}")))?
                }
            };
        }
    }
    Ok(())
}

fn fold_max(t: &Tensor, acc: &mut f32) {
    for &v in t.as_slice() {
        *acc = acc.max(v.abs());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{LifConfig, SpikingNetwork};

    fn tiny_snapshot() -> NetworkSnapshot {
        let net = SpikingNetwork::builder(Shape::d3(1, 6, 6), 7)
            .conv(2, 3, 1, 1, LifConfig::paper_default())
            .unwrap()
            .maxpool(2)
            .unwrap()
            .flatten()
            .unwrap()
            .dense(3, LifConfig::paper_default())
            .unwrap()
            .build()
            .expect("tiny network");
        NetworkSnapshot::from_network(&net)
    }

    #[test]
    fn records_ranges_per_spiking_stage() {
        let snap = tiny_snapshot();
        let items: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..36).map(|j| ((i * 36 + j) % 7) as f32 / 6.0).collect())
            .collect();
        let cal = calibrate(&snap, &items, 3).unwrap();
        assert_eq!(cal.samples, 5);
        assert_eq!(cal.stage_current_max.len(), snap.layers.len());
        assert!(cal.input_max > 0.9 && cal.input_max <= 1.0);
        // Conv (idx 0) and dense (idx 3) see current; pool/flatten do not.
        assert!(cal.stage_current_max[0] > 0.0, "conv stage saw current");
        assert_eq!(cal.stage_current_max[1], 0.0, "pool stage records nothing");
        assert_eq!(cal.stage_current_max[2], 0.0, "flatten stage records nothing");
    }

    #[test]
    fn rejects_bad_split() {
        let snap = tiny_snapshot();
        assert!(matches!(calibrate(&snap, &[], 2), Err(QuantError::Calibration(_))));
        let short = vec![vec![0.5f32; 10]];
        assert!(matches!(calibrate(&snap, &short, 2), Err(QuantError::Calibration(_))));
        let bad = vec![vec![f32::NAN; 36]];
        assert!(matches!(calibrate(&snap, &bad, 2), Err(QuantError::Calibration(_))));
        let ok = vec![vec![0.5f32; 36]];
        assert!(matches!(calibrate(&snap, &ok, 0), Err(QuantError::Calibration(_))));
    }

    #[test]
    fn all_zero_split_floors_input_max() {
        let snap = tiny_snapshot();
        let items = vec![vec![0.0f32; 36]];
        let cal = calibrate(&snap, &items, 1).unwrap();
        assert!(cal.input_max > 0.0);
    }
}
