//! Accuracy-vs-bitwidth point evaluation for post-training
//! quantization.
//!
//! The DATE'24 paper tunes `beta`/`theta` for hardware efficiency at
//! f32; the deployment question that follows is how few weight bits
//! the tuned network tolerates. [`bitwidth_sweep`] answers it by
//! quantizing one trained snapshot at several widths (sharing a
//! single calibration pass) and scoring each integer network against
//! the f32 reference on the same direct-coded test split — the same
//! presentation the serve engines use, so the numbers transfer to
//! `/infer` unchanged.

use crate::par::parallel_map;
use serde::Serialize;
use snn_core::{evaluate, NetworkSnapshot};
use snn_data::{Dataset, SpikeEncoding};
use snn_quant::{calibrate, quantize_snapshot, QuantNetwork};

/// One quantization operating point.
#[derive(Debug, Clone, Serialize)]
pub struct BitwidthPoint {
    /// Weight bit width (2..=8).
    pub bits: u32,
    /// Top-1 accuracy of the integer network on the test split.
    pub accuracy: f64,
    /// `accuracy - f32_accuracy`; negative when quantization costs
    /// accuracy.
    pub delta: f64,
    /// Quantized weight storage in bytes (one `i8` per weight at any
    /// supported width).
    pub weight_bytes: u64,
}

/// Result of [`bitwidth_sweep`]: an f32 reference plus one point per
/// requested width.
#[derive(Debug, Clone, Serialize)]
pub struct BitwidthResult {
    /// Accuracy of the f32 snapshot under direct coding — the
    /// baseline every point's `delta` is measured against.
    pub f32_accuracy: f64,
    /// Timesteps each input was presented for.
    pub timesteps: usize,
    /// Test items scored.
    pub samples: usize,
    /// Points in the order the widths were requested.
    pub points: Vec<BitwidthPoint>,
}

impl BitwidthResult {
    /// The narrowest width whose accuracy drop stays within
    /// `tolerance` (absolute, e.g. `0.02`), if any.
    pub fn narrowest_within(&self, tolerance: f64) -> Option<&BitwidthPoint> {
        self.points
            .iter()
            .filter(|p| self.f32_accuracy - p.accuracy <= tolerance)
            .min_by_key(|p| p.bits)
    }
}

/// Quantizes `snapshot` at each width in `bits` and scores every
/// integer network against the f32 reference on `test`.
///
/// Calibration runs once over `calibration` (flat input vectors) and
/// is shared by all widths — activation ranges are a property of the
/// f32 network, not of the target width. Both engines see each test
/// item direct-coded for `timesteps` steps.
///
/// # Errors
///
/// Rejects an empty `bits` list, unsupported widths, calibration
/// failures, and quantization overflow, all as readable strings.
///
/// # Panics
///
/// Panics if `test` is empty or its item shape disagrees with the
/// snapshot (the underlying evaluators enforce both).
pub fn bitwidth_sweep(
    snapshot: &NetworkSnapshot,
    calibration: &[Vec<f32>],
    test: &Dataset,
    timesteps: usize,
    bits: &[u32],
) -> Result<BitwidthResult, String> {
    if bits.is_empty() {
        return Err("bitwidth sweep needs at least one bit width".into());
    }
    let cal = calibrate(snapshot, calibration, timesteps).map_err(|e| e.to_string())?;
    let (items, labels) = test.flat_items();
    let f32_accuracy = evaluate(
        &mut snapshot.clone().into_network(),
        test,
        SpikeEncoding::Direct,
        timesteps,
        32,
        0,
    )
    .accuracy;
    let points = parallel_map(bits, |&b| -> Result<BitwidthPoint, String> {
        let q = quantize_snapshot(snapshot, &cal, b).map_err(|e| format!("bits {b}: {e}"))?;
        let mut net = QuantNetwork::from_snapshot(&q).map_err(|e| format!("bits {b}: {e}"))?;
        let accuracy = net
            .evaluate_accuracy(&items, &labels, timesteps)
            .map_err(|e| format!("bits {b}: {e}"))?;
        Ok(BitwidthPoint {
            bits: b,
            accuracy,
            delta: accuracy - f32_accuracy,
            weight_bytes: q.weight_params(),
        })
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(BitwidthResult { f32_accuracy, timesteps, samples: test.len(), points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{LifConfig, SpikingNetwork};
    use snn_data::bars_dataset;
    use snn_tensor::Shape;

    fn trained_ish_snapshot() -> NetworkSnapshot {
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

    #[test]
    fn sweep_scores_every_requested_width() {
        let snap = trained_ish_snapshot();
        let ds = bars_dataset(24, 8, 3);
        let (cal_items, _) = ds.take(8).flat_items();
        let result = bitwidth_sweep(&snap, &cal_items, &ds, 3, &[4, 8]).unwrap();
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.samples, 24);
        assert!((0.0..=1.0).contains(&result.f32_accuracy));
        for p in &result.points {
            assert!((0.0..=1.0).contains(&p.accuracy), "bits {} accuracy {}", p.bits, p.accuracy);
            assert!((p.delta - (p.accuracy - result.f32_accuracy)).abs() < 1e-12);
            assert!(p.weight_bytes > 0);
        }
        // Same storage at every width: one i8 per weight.
        assert_eq!(result.points[0].weight_bytes, result.points[1].weight_bytes);
    }

    #[test]
    fn eight_bit_point_tracks_the_f32_reference() {
        let snap = trained_ish_snapshot();
        let ds = bars_dataset(24, 8, 3);
        let (cal_items, _) = ds.take(8).flat_items();
        let result = bitwidth_sweep(&snap, &cal_items, &ds, 3, &[8]).unwrap();
        // An untrained-but-structured net still classifies consistently;
        // at 8 bits the integer network must stay close to f32 on the
        // same split (the ci.sh drill enforces 2% on the trained demo).
        assert!(
            (result.points[0].accuracy - result.f32_accuracy).abs() <= 0.25,
            "8-bit accuracy {} strayed from f32 {}",
            result.points[0].accuracy,
            result.f32_accuracy
        );
    }

    #[test]
    fn narrowest_within_prefers_fewer_bits() {
        let result = BitwidthResult {
            f32_accuracy: 0.9,
            timesteps: 4,
            samples: 10,
            points: vec![
                BitwidthPoint { bits: 2, accuracy: 0.5, delta: -0.4, weight_bytes: 10 },
                BitwidthPoint { bits: 4, accuracy: 0.89, delta: -0.01, weight_bytes: 10 },
                BitwidthPoint { bits: 8, accuracy: 0.9, delta: 0.0, weight_bytes: 10 },
            ],
        };
        assert_eq!(result.narrowest_within(0.02).unwrap().bits, 4);
        assert!(result.narrowest_within(0.0001).is_some());
        let none = BitwidthResult {
            f32_accuracy: 0.9,
            timesteps: 4,
            samples: 10,
            points: vec![BitwidthPoint { bits: 2, accuracy: 0.1, delta: -0.8, weight_bytes: 1 }],
        };
        assert!(none.narrowest_within(0.02).is_none());
    }

    #[test]
    fn sweep_rejects_bad_inputs() {
        let snap = trained_ish_snapshot();
        let ds = bars_dataset(8, 8, 3);
        let (cal_items, _) = ds.flat_items();
        assert!(bitwidth_sweep(&snap, &cal_items, &ds, 3, &[]).is_err());
        assert!(bitwidth_sweep(&snap, &cal_items, &ds, 3, &[1]).is_err());
        assert!(bitwidth_sweep(&snap, &cal_items, &ds, 3, &[16]).is_err());
        assert!(bitwidth_sweep(&snap, &[], &ds, 3, &[8]).is_err());
    }
}
