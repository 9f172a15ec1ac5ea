//! The versioned quantized-artifact format and the post-training
//! quantizer that produces it.
//!
//! A [`QuantizedSnapshot`] is the integer sibling of
//! [`snn_core::NetworkSnapshot`]: same layer sequence, but weights as
//! per-output-channel i8, biases and thresholds in the stage's
//! membrane Q-format, and per-channel [`Rescale`] factors folding
//! `s_w[oc] · s_x · 2^F` into one integer multiply + shift.
//!
//! The top level deliberately does **not** share field names with the
//! f32 snapshot: stages live under `stages` (not `layers`) next to a
//! `format` tag, so a pre-quantization reader decoding the JSON as
//! `NetworkSnapshot` fails with a typed missing-field error — old
//! readers reject new artifacts cleanly rather than misreading them.

use std::path::Path;

use serde::{Deserialize, Serialize};
use snn_core::{LayerSnapshot, NetworkSnapshot};
use snn_tensor::conv::Conv2dGeometry;
use snn_tensor::pool::Pool2dGeometry;

use crate::calibrate::Calibration;
use crate::error::QuantError;
use crate::fixed::{FixedLif, Rescale};
use crate::qtensor::{weight_qmax, QuantizedTensor};

/// Format tag every quantized artifact carries; readers reject
/// anything else.
pub const QUANT_FORMAT: &str = "snn-quant/1";

/// Ceiling on membrane magnitude in Q-format, `2^30`: one bit of
/// slack under `i32` so a single step's sum cannot saturate when the
/// calibration bound holds.
const Q_MAGNITUDE_BUDGET: f64 = (1u64 << 30) as f64;

/// Multiplier applied to the calibrated peak current when sizing a
/// stage's Q-format — room for inputs somewhat outside the
/// calibration split before saturation engages.
const HEADROOM: f64 = 8.0;

/// Membrane fractional bits are clamped to this range; below the
/// floor the datapath would quantize currents too coarsely to track
/// the f32 reference, and quantization fails with a typed overflow
/// error instead.
const FRAC_BITS_MIN: u32 = 4;
/// Upper clamp on membrane fractional bits (resolution beyond Q24 is
/// far below the 8-bit weight error).
const FRAC_BITS_MAX: u32 = 24;

/// One quantized stage; mirrors [`LayerSnapshot`] variants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuantStage {
    /// Quantized spiking convolution.
    Conv {
        /// Layer name (carried over from the f32 snapshot).
        name: String,
        /// Convolution geometry, identical to the f32 layer.
        geom: Conv2dGeometry,
        /// Filter bank, `[out_channels, in_channels·k²]`.
        weight: QuantizedTensor,
        /// Per-filter bias in the stage's membrane Q-format.
        bias_q: Vec<i32>,
        /// Per-filter accumulator→Q-format rescale.
        rescale: Vec<Rescale>,
        /// Fixed-point neuron parameters.
        lif: FixedLif,
    },
    /// Quantized spiking fully-connected layer.
    Dense {
        /// Layer name.
        name: String,
        /// Weights, `[out, in]`.
        weight: QuantizedTensor,
        /// Per-neuron bias in the stage's membrane Q-format.
        bias_q: Vec<i32>,
        /// Per-neuron accumulator→Q-format rescale.
        rescale: Vec<Rescale>,
        /// Fixed-point neuron parameters.
        lif: FixedLif,
    },
    /// Max pooling; on binary spikes this is an OR over the window
    /// and on quantized integers an exact max — no parameters.
    Pool {
        /// Layer name.
        name: String,
        /// Pooling geometry.
        geom: Pool2dGeometry,
    },
    /// Shape adapter.
    Flatten {
        /// Layer name.
        name: String,
        /// Flattened item length.
        len: usize,
    },
}

impl QuantStage {
    /// The stage's display name.
    pub fn name(&self) -> &str {
        match self {
            QuantStage::Conv { name, .. }
            | QuantStage::Dense { name, .. }
            | QuantStage::Pool { name, .. }
            | QuantStage::Flatten { name, .. } => name,
        }
    }
}

/// A complete quantized network artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedSnapshot {
    /// Format tag; must equal [`QUANT_FORMAT`].
    pub format: String,
    /// Weight bit width this artifact was quantized at (2..=8).
    pub bits: u32,
    /// Input item dimensions (e.g. `[1, 8, 8]`).
    pub input_item_dims: Vec<usize>,
    /// Output class count.
    pub classes: usize,
    /// Calibrated input ceiling: inputs clamp to `[0, input_max]`.
    pub input_max: f32,
    /// Input quantization levels; the input step is
    /// `input_max / input_levels`.
    pub input_levels: i32,
    /// The quantized layer sequence.
    pub stages: Vec<QuantStage>,
}

impl QuantizedSnapshot {
    /// Number of quantized weight parameters (excludes biases).
    pub fn weight_params(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| match s {
                QuantStage::Conv { weight, .. } | QuantStage::Dense { weight, .. } => {
                    weight.values.len() as u64
                }
                _ => 0,
            })
            .sum()
    }

    /// Total parameter count (weights + biases), comparable to the
    /// f32 network's `param_count`.
    pub fn param_count(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| match s {
                QuantStage::Conv { weight, bias_q, .. }
                | QuantStage::Dense { weight, bias_q, .. } => {
                    weight.values.len() as u64 + bias_q.len() as u64
                }
                _ => 0,
            })
            .sum()
    }

    /// Membrane fractional bits per spiking stage, in layer order
    /// (summarized into registry metadata).
    pub fn frac_bits(&self) -> Vec<u32> {
        self.stages
            .iter()
            .filter_map(|s| match s {
                QuantStage::Conv { lif, .. } | QuantStage::Dense { lif, .. } => {
                    Some(lif.frac_bits)
                }
                _ => None,
            })
            .collect()
    }

    /// Full structural validation of an untrusted artifact: format
    /// tag, per-stage internal consistency, and shape composition
    /// from `input_item_dims` through every stage to `classes`.
    ///
    /// # Errors
    ///
    /// Returns the typed [`QuantError`] naming the first defect.
    pub fn validate(&self) -> Result<(), QuantError> {
        if self.format != QUANT_FORMAT {
            return Err(QuantError::Malformed(format!(
                "format tag {:?} (this reader supports {QUANT_FORMAT:?})",
                self.format
            )));
        }
        let input_qmax = weight_qmax(self.bits)?; // also gates bits range
        let _ = input_qmax;
        if !(1..=255).contains(&self.input_levels) {
            return Err(QuantError::Malformed(format!(
                "input_levels {} outside 1..=255",
                self.input_levels
            )));
        }
        if !self.input_max.is_finite() || self.input_max <= 0.0 {
            return Err(QuantError::Malformed(format!(
                "input_max {} must be positive and finite",
                self.input_max
            )));
        }
        if self.classes == 0 {
            return Err(QuantError::Structure("zero classes".into()));
        }
        if self.input_item_dims.is_empty()
            || self.input_item_dims.len() > 4
            || self.input_item_dims.contains(&0)
        {
            return Err(QuantError::Structure(format!(
                "input_item_dims {:?} must be rank 1..=4 with no zero axis",
                self.input_item_dims
            )));
        }
        if self.stages.is_empty() {
            return Err(QuantError::Structure("no stages".into()));
        }
        let mut dims = self.input_item_dims.clone();
        for (idx, stage) in self.stages.iter().enumerate() {
            let tag = |msg: String| QuantError::Stage {
                stage: format!("{idx} ({})", stage.name()),
                message: msg,
            };
            match stage {
                QuantStage::Conv { geom, weight, bias_q, rescale, lif, .. } => {
                    let g = Conv2dGeometry::new(
                        geom.in_channels,
                        geom.out_channels,
                        geom.kernel,
                        geom.stride,
                        geom.padding,
                        geom.in_h,
                        geom.in_w,
                    )
                    .map_err(|e| tag(format!("invalid geometry: {e}")))?;
                    if dims != [g.in_channels, g.in_h, g.in_w] {
                        return Err(tag(format!(
                            "expects input [{}, {}, {}] but receives {:?}",
                            g.in_channels, g.in_h, g.in_w, dims
                        )));
                    }
                    weight.validate().map_err(&tag)?;
                    if weight.channels != g.out_channels || weight.per_channel != g.col_rows() {
                        return Err(tag(format!(
                            "weight [{}, {}] does not match geometry [{}, {}]",
                            weight.channels,
                            weight.per_channel,
                            g.out_channels,
                            g.col_rows()
                        )));
                    }
                    check_stage_params(g.out_channels, bias_q, rescale, lif).map_err(&tag)?;
                    dims = vec![g.out_channels, g.out_h(), g.out_w()];
                }
                QuantStage::Dense { weight, bias_q, rescale, lif, .. } => {
                    weight.validate().map_err(&tag)?;
                    let in_len: usize = dims.iter().product();
                    if weight.per_channel != in_len {
                        return Err(tag(format!(
                            "weight expects {} inputs but receives {:?} ({} values)",
                            weight.per_channel, dims, in_len
                        )));
                    }
                    check_stage_params(weight.channels, bias_q, rescale, lif).map_err(&tag)?;
                    dims = vec![weight.channels];
                }
                QuantStage::Pool { geom, .. } => {
                    let g = Pool2dGeometry::new(
                        geom.channels,
                        geom.kernel,
                        geom.stride,
                        geom.in_h,
                        geom.in_w,
                    )
                    .map_err(|e| tag(format!("invalid geometry: {e}")))?;
                    if dims != [g.channels, g.in_h, g.in_w] {
                        return Err(tag(format!(
                            "expects input [{}, {}, {}] but receives {:?}",
                            g.channels, g.in_h, g.in_w, dims
                        )));
                    }
                    dims = vec![g.channels, g.out_h(), g.out_w()];
                }
                QuantStage::Flatten { len, .. } => {
                    let have: usize = dims.iter().product();
                    if *len != have {
                        return Err(tag(format!("declares {len} values but receives {have}")));
                    }
                    dims = vec![*len];
                }
            }
        }
        if dims != [self.classes] {
            return Err(QuantError::Structure(format!(
                "final stage emits {dims:?}, expected [{}] classes",
                self.classes
            )));
        }
        Ok(())
    }

    /// Serializes to JSON and writes atomically (tmp + rename via
    /// `snn-store`).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Io`] on filesystem failure.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), QuantError> {
        let path = path.as_ref();
        let json = serde_json::to_string(self)
            .map_err(|e| QuantError::Malformed(format!("serializing artifact: {e}")))?;
        snn_store::write_bytes_atomic(path, json.as_bytes()).map_err(|e| QuantError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Reads and fully validates an artifact file.
    ///
    /// # Errors
    ///
    /// [`QuantError::Io`] on read failure, otherwise as
    /// [`QuantizedSnapshot::from_json`].
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, QuantError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path).map_err(|e| QuantError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::from_json(&json)
    }

    /// Decodes and fully validates an artifact from JSON text.
    ///
    /// # Errors
    ///
    /// [`QuantError::Malformed`] for undecodable text (including f32
    /// snapshots, which lack the `format`/`stages` fields), otherwise
    /// whatever [`QuantizedSnapshot::validate`] finds.
    pub fn from_json(json: &str) -> Result<Self, QuantError> {
        let snap: QuantizedSnapshot =
            serde_json::from_str(json).map_err(|e| QuantError::Malformed(e.to_string()))?;
        snap.validate()?;
        Ok(snap)
    }
}

/// Shared per-stage parameter checks (bias/rescale/lif lengths and
/// ranges) for conv and dense stages.
fn check_stage_params(
    out: usize,
    bias_q: &[i32],
    rescale: &[Rescale],
    lif: &FixedLif,
) -> Result<(), String> {
    if bias_q.len() != out {
        return Err(format!("{} biases for {out} output channels", bias_q.len()));
    }
    if rescale.len() != out {
        return Err(format!("{} rescales for {out} output channels", rescale.len()));
    }
    for (c, r) in rescale.iter().enumerate() {
        r.validate().map_err(|e| format!("rescale channel {c}: {e}"))?;
    }
    lif.validate().map_err(|e| format!("lif: {e}"))?;
    Ok(())
}

/// Chooses membrane fractional bits for a stage from its calibrated
/// peak current: the largest `F` with
/// `(current_max + theta) · HEADROOM · 2^F ≤ 2^30`, clamped to
/// `[FRAC_BITS_MIN, FRAC_BITS_MAX]`.
fn choose_frac_bits(stage: &str, current_max: f32, theta: f32) -> Result<u32, QuantError> {
    let bound = ((current_max as f64 + theta as f64) * HEADROOM).max(1.0);
    let f = (Q_MAGNITUDE_BUDGET / bound).log2().floor();
    if f < FRAC_BITS_MIN as f64 {
        return Err(QuantError::Overflow {
            stage: stage.to_string(),
            message: format!(
                "calibrated current range {current_max} (theta {theta}) needs more than \
                 {} integer bits; no usable Q-format remains",
                30 - FRAC_BITS_MIN
            ),
        });
    }
    Ok((f as u32).min(FRAC_BITS_MAX))
}

/// Quantizes a bias vector into Q`frac_bits`.
fn quantize_bias(bias: &[f32], frac_bits: u32) -> Vec<i32> {
    let scale = (1u64 << frac_bits) as f64;
    bias.iter()
        .map(|&b| crate::qtensor::saturate_i32((b as f64 * scale).round() as i64))
        .collect()
}

/// Post-training quantization: turns a validated f32 snapshot plus a
/// [`Calibration`] into a [`QuantizedSnapshot`].
///
/// Scheme (documented in DESIGN.md §13):
///
/// * inputs quantize once per request to `[0, input_levels]` with
///   step `input_max / input_levels`; later stages consume binary
///   spikes (scale exactly 1);
/// * weights are per-output-channel symmetric i8
///   (`scale = max|w| / qmax`);
/// * each spiking stage's accumulator rescales to its membrane
///   Q-format through one per-channel integer multiply + shift
///   encoding `s_w[oc] · s_x · 2^F`;
/// * `F` comes from the calibrated peak current with [`HEADROOM`].
///
/// # Errors
///
/// Structure errors from snapshot validation, [`QuantError::Overflow`]
/// when a stage's range fits no Q-format or its accumulator could
/// exceed `i32`, and [`QuantError::Calibration`] if the calibration
/// does not cover this snapshot's layers.
pub fn quantize_snapshot(
    snap: &NetworkSnapshot,
    calib: &Calibration,
    bits: u32,
) -> Result<QuantizedSnapshot, QuantError> {
    snap.validate().map_err(|e| QuantError::Structure(format!("source snapshot: {e}")))?;
    let qmax = weight_qmax(bits)?;
    if calib.stage_current_max.len() != snap.layers.len() {
        return Err(QuantError::Calibration(format!(
            "calibration covers {} layers, snapshot has {}",
            calib.stage_current_max.len(),
            snap.layers.len()
        )));
    }
    let input_levels = (1i32 << bits) - 1;
    let input_max = calib.input_max.max(1e-6);
    // Activation scale entering the next stage: the input step until
    // the first spiking stage consumes it, exactly 1 (binary spikes)
    // afterwards. Pool and flatten preserve values, hence scale.
    let mut act_scale = input_max as f64 / input_levels as f64;
    let mut act_qmax = input_levels as i64;
    let mut stages = Vec::with_capacity(snap.layers.len());
    for (idx, layer) in snap.layers.iter().enumerate() {
        match layer {
            LayerSnapshot::Conv { name, geom, lif, weight, bias } => {
                let q = quantize_spiking(
                    &format!("{idx} ({name})"),
                    weight.as_slice(),
                    geom.out_channels,
                    geom.col_rows(),
                    bias.as_slice(),
                    lif,
                    calib.stage_current_max[idx],
                    bits,
                    qmax,
                    act_scale,
                    act_qmax,
                )?;
                stages.push(QuantStage::Conv {
                    name: name.clone(),
                    geom: *geom,
                    weight: q.weight,
                    bias_q: q.bias_q,
                    rescale: q.rescale,
                    lif: q.lif,
                });
                act_scale = 1.0;
                act_qmax = 1;
            }
            LayerSnapshot::Dense { name, lif, weight, bias } => {
                let out = weight.shape().dim(0);
                let in_len = weight.shape().dim(1);
                let q = quantize_spiking(
                    &format!("{idx} ({name})"),
                    weight.as_slice(),
                    out,
                    in_len,
                    bias.as_slice(),
                    lif,
                    calib.stage_current_max[idx],
                    bits,
                    qmax,
                    act_scale,
                    act_qmax,
                )?;
                stages.push(QuantStage::Dense {
                    name: name.clone(),
                    weight: q.weight,
                    bias_q: q.bias_q,
                    rescale: q.rescale,
                    lif: q.lif,
                });
                act_scale = 1.0;
                act_qmax = 1;
            }
            LayerSnapshot::Pool { name, geom } => {
                stages.push(QuantStage::Pool { name: name.clone(), geom: *geom });
            }
            LayerSnapshot::Flatten { name, input_item_dims } => {
                stages.push(QuantStage::Flatten {
                    name: name.clone(),
                    len: input_item_dims.iter().product(),
                });
            }
        }
    }
    let out = QuantizedSnapshot {
        format: QUANT_FORMAT.to_string(),
        bits,
        input_item_dims: snap.input_item_dims.clone(),
        classes: snap.classes,
        input_max,
        input_levels,
        stages,
    };
    out.validate()?;
    Ok(out)
}

/// Quantized parameters of one spiking stage.
struct SpikingQuant {
    weight: QuantizedTensor,
    bias_q: Vec<i32>,
    rescale: Vec<Rescale>,
    lif: FixedLif,
}

#[allow(clippy::too_many_arguments)]
fn quantize_spiking(
    stage: &str,
    weight: &[f32],
    out: usize,
    per_channel: usize,
    bias: &[f32],
    lif: &snn_core::LifConfig,
    current_max: f32,
    bits: u32,
    qmax: i32,
    act_scale: f64,
    act_qmax: i64,
) -> Result<SpikingQuant, QuantError> {
    // Worst-case raw accumulator: every tap at full magnitude. The
    // event and dense kernels sum in wrapping i32 for determinism, so
    // the artifact must guarantee the exact sum fits.
    let acc_bound = per_channel as i64 * qmax as i64 * act_qmax;
    if acc_bound > i32::MAX as i64 {
        return Err(QuantError::Overflow {
            stage: stage.to_string(),
            message: format!(
                "{per_channel} taps x qmax {qmax} x input magnitude {act_qmax} \
                 may exceed the i32 accumulator"
            ),
        });
    }
    let qw = QuantizedTensor::quantize(weight, out, per_channel, bits)
        .map_err(|e| match e {
            QuantError::Structure(m) => {
                QuantError::Stage { stage: stage.to_string(), message: m }
            }
            other => other,
        })?;
    let frac_bits = choose_frac_bits(stage, current_max, lif.theta)?;
    let fixed = FixedLif::from_config(lif, frac_bits)?;
    let q_scale = (1u64 << frac_bits) as f64;
    let mut rescale = Vec::with_capacity(out);
    for &sw in &qw.scales {
        let r = sw as f64 * act_scale * q_scale;
        rescale.push(Rescale::from_real(r).map_err(|e| QuantError::Overflow {
            stage: stage.to_string(),
            message: format!("rescale factor {r}: {e}"),
        })?);
    }
    Ok(SpikingQuant { weight: qw, bias_q: quantize_bias(bias, frac_bits), rescale, lif: fixed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate;
    use snn_core::{LifConfig, SpikingNetwork};

    fn tiny() -> (NetworkSnapshot, Vec<Vec<f32>>) {
        let net = SpikingNetwork::builder(snn_tensor::Shape::d3(1, 6, 6), 11)
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
        let items: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..36).map(|j| ((i + j) % 5) as f32 / 4.0).collect())
            .collect();
        (NetworkSnapshot::from_network(&net), items)
    }

    #[test]
    fn quantize_roundtrips_through_json() {
        let (snap, items) = tiny();
        let cal = calibrate(&snap, &items, 3).unwrap();
        let q = quantize_snapshot(&snap, &cal, 8).unwrap();
        q.validate().unwrap();
        assert_eq!(q.bits, 8);
        assert_eq!(q.classes, 3);
        assert_eq!(q.stages.len(), snap.layers.len());
        assert_eq!(q.frac_bits().len(), 2, "two spiking stages");
        assert!(q.param_count() > 0);
        let json = serde_json::to_string(&q).unwrap();
        let back = QuantizedSnapshot::from_json(&json).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn f32_reader_rejects_quant_artifact_and_vice_versa() {
        let (snap, items) = tiny();
        let cal = calibrate(&snap, &items, 2).unwrap();
        let q = quantize_snapshot(&snap, &cal, 8).unwrap();
        let qjson = serde_json::to_string(&q).unwrap();
        // Old reader (f32 snapshot decoder) sees a typed error.
        let err = NetworkSnapshot::from_json(&qjson).unwrap_err();
        assert!(
            matches!(err, snn_core::SnapshotError::Malformed(_)),
            "expected Malformed, got {err:?}"
        );
        // And this reader rejects f32 snapshots the same way.
        let fjson = serde_json::to_string(&snap).unwrap();
        assert!(matches!(
            QuantizedSnapshot::from_json(&fjson),
            Err(QuantError::Malformed(_))
        ));
    }

    #[test]
    fn wrong_format_tag_is_rejected() {
        let (snap, items) = tiny();
        let cal = calibrate(&snap, &items, 2).unwrap();
        let mut q = quantize_snapshot(&snap, &cal, 8).unwrap();
        q.format = "snn-quant/99".into();
        assert!(matches!(q.validate(), Err(QuantError::Malformed(_))));
    }

    #[test]
    fn tampered_stage_yields_stage_error() {
        let (snap, items) = tiny();
        let cal = calibrate(&snap, &items, 2).unwrap();
        let mut q = quantize_snapshot(&snap, &cal, 8).unwrap();
        if let QuantStage::Conv { bias_q, .. } = &mut q.stages[0] {
            bias_q.pop();
        }
        assert!(matches!(q.validate(), Err(QuantError::Stage { .. })));
    }

    #[test]
    fn low_bit_quantization_works() {
        let (snap, items) = tiny();
        let cal = calibrate(&snap, &items, 2).unwrap();
        for bits in [2u32, 4, 6] {
            let q = quantize_snapshot(&snap, &cal, bits).unwrap();
            assert_eq!(q.bits, bits);
            q.validate().unwrap();
        }
        assert!(matches!(
            quantize_snapshot(&snap, &cal, 9),
            Err(QuantError::Unsupported(_))
        ));
    }

    #[test]
    fn frac_bits_shrink_with_range() {
        let small = choose_frac_bits("s", 1.0, 1.0).unwrap();
        let large = choose_frac_bits("s", 4000.0, 1.0).unwrap();
        assert!(small > large, "larger range leaves fewer fractional bits");
        assert!(choose_frac_bits("s", 1e9, 1.0).is_err(), "absurd range is a typed overflow");
    }
}
