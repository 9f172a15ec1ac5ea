//! Evaluation metrics and the sparsity profile consumed by the
//! hardware model.

use serde::{Deserialize, Serialize};

use snn_data::{Dataset, SpikeEncoding};
use snn_tensor::derive_seed;

use crate::layer::LayerActivity;
use crate::loss::Loss;
use crate::network::SpikingNetwork;

/// Aggregated spike statistics of a trained model over a dataset —
/// the interface between training-space and hardware-space.
///
/// The accelerator's event-driven pipeline does work proportional to
/// spike counts; this profile carries exactly the per-layer firing
/// rates it needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparsityProfile {
    /// Per-layer activity, in forward order (includes reshape layers
    /// with zero neurons).
    pub layers: Vec<LayerActivity>,
    /// Mean density of the encoded input frames (fraction of nonzero
    /// elements), i.e. the layer-0 event rate the hardware front-end
    /// absorbs.
    pub input_density: f64,
    /// Timesteps per inference.
    pub timesteps: usize,
    /// Number of samples aggregated.
    pub samples: usize,
}

impl SparsityProfile {
    /// Mean firing rate across spiking layers, weighted by
    /// neuron-steps.
    pub fn mean_firing_rate(&self) -> f64 {
        let (spikes, steps) = self
            .layers
            .iter()
            .fold((0.0, 0.0), |(s, n), l| (s + l.total_spikes, n + l.neuron_steps));
        if steps == 0.0 {
            0.0
        } else {
            spikes / steps
        }
    }

    /// Looks up a layer's activity by name.
    pub fn layer(&self, name: &str) -> Option<&LayerActivity> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Publishes this profile into the global `snn-obs` registry: each
    /// spiking layer's firing rate lands in the
    /// `snn_core_layer_firing_rate_ratio` histogram, and the
    /// neuron-step-weighted mean rate in a gauge. Called by
    /// [`evaluate`]/[`evaluate_temporal`]; explicit calls are fine for
    /// profiles built elsewhere.
    pub fn record_observability(&self) {
        let r = snn_obs::global();
        let hist = r.histogram(
            "snn_core_layer_firing_rate_ratio",
            "per-layer mean firing rate over the most recent evaluation",
            snn_obs::firing_rate_bounds(),
        );
        for l in &self.layers {
            if l.neuron_steps > 0.0 {
                hist.record(l.firing_rate());
            }
        }
        r.gauge(
            "snn_core_mean_firing_rate_ratio",
            "neuron-step-weighted mean firing rate of the most recent evaluation",
        )
        .set(self.mean_firing_rate());
        r.gauge(
            "snn_core_input_density_ratio",
            "encoded-input event density of the most recent evaluation",
        )
        .set(self.input_density);
    }
}

/// Result of evaluating a network on a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Mean loss under [`Loss::CountCrossEntropy`].
    pub loss: f64,
    /// Aggregated spike statistics.
    pub profile: SparsityProfile,
}

/// Evaluates `network` on `dataset`, returning accuracy and the
/// sparsity profile.
///
/// Deterministic: encoder noise derives from `seed` and the batch
/// index.
///
/// # Panics
///
/// Panics if `dataset` is empty or its item shape disagrees with the
/// network input.
pub fn evaluate(
    network: &mut SpikingNetwork,
    dataset: &Dataset,
    encoding: SpikeEncoding,
    timesteps: usize,
    batch_size: usize,
    seed: u64,
) -> EvalReport {
    assert!(!dataset.is_empty(), "cannot evaluate on an empty dataset");
    assert_eq!(
        dataset.item_shape(),
        network.input_item_shape(),
        "dataset item shape disagrees with network input"
    );
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut loss_sum = 0.0f64;
    let mut batches = 0usize;
    let mut acc_layers: Option<Vec<LayerActivity>> = None;
    let mut input_events = 0.0f64;
    let mut input_elems = 0.0f64;
    for (bi, (batch, labels)) in dataset.batches(batch_size).enumerate() {
        let frames = encoding.encode(&batch, timesteps, derive_seed(seed, &format!("eval{bi}")));
        for f in &frames {
            input_events += f.count_nonzero() as f64;
            input_elems += f.len() as f64;
        }
        let out = network.run_sequence(&frames, false);
        let (l, _) = Loss::CountCrossEntropy.forward(&out.counts, &labels, timesteps);
        loss_sum += l;
        batches += 1;
        correct += labels
            .iter()
            .enumerate()
            .filter(|&(i, &lab)| out.counts.argmax_row(i) == lab)
            .count();
        total += labels.len();
        let acts = network.activities();
        match &mut acc_layers {
            None => acc_layers = Some(acts),
            Some(acc) => {
                for (a, b) in acc.iter_mut().zip(acts) {
                    a.total_spikes += b.total_spikes;
                    a.neuron_steps += b.neuron_steps;
                }
            }
        }
    }
    let profile = SparsityProfile {
        layers: acc_layers.unwrap_or_default(),
        input_density: if input_elems > 0.0 { input_events / input_elems } else { 0.0 },
        timesteps,
        samples: total,
    };
    profile.record_observability();
    EvalReport {
        accuracy: correct as f64 / total as f64,
        loss: loss_sum / batches as f64,
        profile,
    }
}

/// Evaluates a network on a natively temporal dataset (no encoding
/// step — the sequences feed the network directly).
///
/// # Panics
///
/// Panics if the frame shape disagrees with the network input.
pub fn evaluate_temporal(
    network: &mut SpikingNetwork,
    dataset: &snn_data::TemporalDataset,
    batch_size: usize,
) -> EvalReport {
    assert_eq!(
        dataset.frame_shape(),
        network.input_item_shape(),
        "frame shape disagrees with network input"
    );
    let timesteps = dataset.timesteps();
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut loss_sum = 0.0f64;
    let mut batches = 0usize;
    let mut acc_layers: Option<Vec<LayerActivity>> = None;
    let mut input_events = 0.0f64;
    let mut input_elems = 0.0f64;
    for (frames, labels) in dataset.batches(batch_size) {
        for f in &frames {
            input_events += f.count_nonzero() as f64;
            input_elems += f.len() as f64;
        }
        let out = network.run_sequence(&frames, false);
        let (l, _) = Loss::CountCrossEntropy.forward(&out.counts, &labels, timesteps);
        loss_sum += l;
        batches += 1;
        correct += labels
            .iter()
            .enumerate()
            .filter(|&(i, &lab)| out.counts.argmax_row(i) == lab)
            .count();
        total += labels.len();
        let acts = network.activities();
        match &mut acc_layers {
            None => acc_layers = Some(acts),
            Some(acc) => {
                for (a, b) in acc.iter_mut().zip(acts) {
                    a.total_spikes += b.total_spikes;
                    a.neuron_steps += b.neuron_steps;
                }
            }
        }
    }
    let profile = SparsityProfile {
        layers: acc_layers.unwrap_or_default(),
        input_density: if input_elems > 0.0 { input_events / input_elems } else { 0.0 },
        timesteps,
        samples: total,
    };
    profile.record_observability();
    EvalReport {
        accuracy: correct as f64 / total.max(1) as f64,
        loss: loss_sum / batches.max(1) as f64,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::LifConfig;
    use snn_data::bars_dataset;
    use snn_tensor::Shape;

    fn tiny_net(seed: u64) -> SpikingNetwork {
        SpikingNetwork::builder(Shape::d3(1, 8, 8), seed)
            .conv(4, 3, 1, 1, LifConfig { theta: 0.5, ..LifConfig::paper_default() })
            .unwrap()
            .maxpool(2)
            .unwrap()
            .flatten()
            .unwrap()
            .dense(4, LifConfig { theta: 0.5, ..LifConfig::paper_default() })
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn evaluate_reports_sane_numbers() {
        let mut net = tiny_net(1);
        let ds = bars_dataset(24, 8, 3);
        let r = evaluate(&mut net, &ds, SpikeEncoding::default(), 4, 8, 0);
        assert!((0.0..=1.0).contains(&r.accuracy));
        assert!(r.loss > 0.0);
        assert_eq!(r.profile.samples, 24);
        assert_eq!(r.profile.timesteps, 4);
        assert!((0.0..=1.0).contains(&r.profile.input_density));
        assert!((0.0..=1.0).contains(&r.profile.mean_firing_rate()));
        assert_eq!(r.profile.layers.len(), 4);
    }

    #[test]
    fn evaluate_is_deterministic() {
        let ds = bars_dataset(16, 8, 5);
        let mut a = tiny_net(2);
        let mut b = tiny_net(2);
        let ra = evaluate(&mut a, &ds, SpikeEncoding::default(), 3, 4, 9);
        let rb = evaluate(&mut b, &ds, SpikeEncoding::default(), 3, 4, 9);
        assert_eq!(ra.accuracy, rb.accuracy);
        assert_eq!(ra.profile, rb.profile);
    }

    #[test]
    fn profile_layer_lookup() {
        let mut net = tiny_net(1);
        let ds = bars_dataset(8, 8, 3);
        let r = evaluate(&mut net, &ds, SpikeEncoding::default(), 2, 4, 0);
        assert!(r.profile.layer("conv1").is_some());
        assert!(r.profile.layer("nope").is_none());
        let conv = r.profile.layer("conv1").unwrap();
        assert_eq!(conv.neurons, 4 * 8 * 8);
    }

    #[test]
    fn direct_encoding_has_unit_density() {
        let mut net = tiny_net(1);
        let ds = bars_dataset(8, 8, 3);
        let r = evaluate(&mut net, &ds, SpikeEncoding::Direct, 2, 4, 0);
        // Bars images have many exact zeros, so actual nonzero density
        // is below 1; but rate encoding of the same data is sparser
        // still.
        let r_rate = evaluate(&mut net, &ds, SpikeEncoding::default(), 2, 4, 0);
        assert!(r.profile.input_density >= r_rate.profile.input_density);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let mut net = tiny_net(1);
        let ds = Dataset::new(Vec::new(), 4);
        let _ = evaluate(&mut net, &ds, SpikeEncoding::default(), 2, 4, 0);
    }
}
