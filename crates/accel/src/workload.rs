//! Layer workload characterization: turning a trained model and its
//! sparsity profile into the per-layer event/MAC counts that drive
//! the timing and power models.
//!
//! In hardware, pooling is a tree of OR gates fused into the upstream
//! convolution's output stage and flatten is pure wiring, so the
//! pipeline stages are the *spiking* layers only. Pool/flatten layers
//! still matter to the workload: they decimate the spike stream seen
//! by the next stage, which is why the builder walks the full layer
//! list to compute each stage's incoming event rate.

use serde::{Deserialize, Serialize};

use snn_core::{LayerSnapshot, NetworkSnapshot, SparsityProfile};

/// Kind of hardware pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageKind {
    /// Event-driven convolution engine.
    Conv,
    /// Event-driven fully-connected engine.
    Dense,
}

/// Workload of one hardware pipeline stage for one inference
/// timestep (per sample, averaged over the profiling set).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageWorkload {
    /// Source layer name (`conv1`, `fc2`, …).
    pub name: String,
    /// Engine kind.
    pub kind: StageKind,
    /// Neurons in this stage (membrane updates per timestep).
    pub neurons: u64,
    /// Synapses per neuron (dense fan-in).
    pub fan_in: u64,
    /// Average spike events arriving per timestep.
    pub in_events: f64,
    /// Synaptic accumulations triggered by one incoming event.
    pub fanout_per_event: f64,
    /// Average spike events emitted per timestep (after fused
    /// pooling, i.e. what the *next* stage receives).
    pub out_events: f64,
    /// Dense MAC count per timestep (the sparsity-oblivious upper
    /// bound).
    pub dense_macs: u64,
    /// Weight bytes this stage must hold on-chip (at the mapper's
    /// weight precision).
    pub weight_bytes: u64,
    /// Membrane-potential bytes (at the mapper's state precision).
    pub potential_bytes: u64,
    /// Fraction of nonzero weights (1.0 for unpruned models). An
    /// event-driven engine with compressed weights skips zero
    /// synapses, so event work scales with this density (the
    /// spike-and-weight sparsity of the paper's reference [2]); the
    /// dense baseline streams every weight regardless.
    pub weight_density: f64,
}

impl StageWorkload {
    /// Event-driven synaptic accumulations per timestep (discounted
    /// by weight density: zero synapses are skipped).
    pub fn event_macs(&self) -> f64 {
        self.in_events * self.fanout_per_event * self.weight_density
    }

    /// Fraction of dense work the event-driven engine actually
    /// performs (≤ 1 in expectation; may exceed 1 transiently for
    /// dense inputs with overlapping receptive fields).
    pub fn event_fraction(&self) -> f64 {
        if self.dense_macs == 0 {
            0.0
        } else {
            self.event_macs() / self.dense_macs as f64
        }
    }
}

/// Error constructing a [`ModelWorkload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The profile has no activity entry for a snapshot layer.
    MissingActivity(String),
    /// The snapshot contains no spiking layers.
    NoStages,
    /// The profile reported a non-finite or negative rate.
    BadRate(String),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::MissingActivity(name) => {
                write!(f, "sparsity profile lacks activity for layer `{name}`")
            }
            WorkloadError::NoStages => write!(f, "model has no spiking layers to map"),
            WorkloadError::BadRate(name) => {
                write!(f, "non-finite or negative firing rate for layer `{name}`")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Per-model workload: the ordered pipeline stages plus sequence
/// metadata.
///
/// # Examples
///
/// ```
/// use snn_accel::ModelWorkload;
/// use snn_core::{evaluate, LifConfig, NetworkSnapshot, SpikingNetwork};
/// use snn_data::{bars_dataset, SpikeEncoding};
/// use snn_tensor::Shape;
///
/// let mut net = SpikingNetwork::paper_topology(
///     Shape::d3(1, 16, 16), 4, LifConfig::paper_default(), 3)?;
/// let ds = bars_dataset(16, 16, 0);
/// let eval = evaluate(&mut net, &ds, SpikeEncoding::default(), 4, 8, 0);
/// let snap = NetworkSnapshot::from_network(&net);
/// let wl = ModelWorkload::characterize(&snap, &eval.profile).expect("profiled");
/// assert_eq!(wl.stages.len(), 4); // conv1 conv2 fc1 fc2
/// # Ok::<(), snn_core::BuildNetworkError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelWorkload {
    /// Pipeline stages, in forward order.
    pub stages: Vec<StageWorkload>,
    /// Timesteps per inference.
    pub timesteps: usize,
    /// Input event density (layer-0 traffic).
    pub input_density: f64,
}

/// Bytes per weight at the mapper's default precision (int8).
pub const WEIGHT_BYTES: u64 = 1;
/// Bytes per membrane potential (16-bit fixed point).
pub const POTENTIAL_BYTES: u64 = 2;

impl ModelWorkload {
    /// Characterizes a trained model: pairs each spiking layer with
    /// its measured firing statistics and computes per-stage event
    /// rates.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] if the profile does not cover the
    /// snapshot's layers or contains invalid rates.
    pub fn characterize(
        snapshot: &NetworkSnapshot,
        profile: &SparsityProfile,
    ) -> Result<Self, WorkloadError> {
        let rate_of = |name: &str| -> Result<f64, WorkloadError> {
            let layer = profile
                .layer(name)
                .ok_or_else(|| WorkloadError::MissingActivity(name.to_string()))?;
            let r = layer.firing_rate();
            if !r.is_finite() || r < 0.0 {
                return Err(WorkloadError::BadRate(name.to_string()));
            }
            Ok(r)
        };

        let mut stages = Vec::new();
        // Events flowing into the next spiking stage, per timestep.
        let mut carried_events: f64;
        let mut incoming_events = {
            let first_elems = snapshot
                .layers
                .first()
                .map(|l| match l {
                    LayerSnapshot::Conv { geom, .. } => {
                        (geom.in_channels * geom.in_h * geom.in_w) as f64
                    }
                    LayerSnapshot::Dense { weight, .. } => weight.shape().dim(1) as f64,
                    _ => 0.0,
                })
                .unwrap_or(0.0);
            profile.input_density * first_elems
        };

        for layer in &snapshot.layers {
            match layer {
                LayerSnapshot::Conv { name, geom, weight, .. } => {
                    let rate = rate_of(name)?;
                    let neurons = (geom.out_channels * geom.out_h() * geom.out_w()) as u64;
                    carried_events = rate * neurons as f64;
                    stages.push(StageWorkload {
                        name: name.clone(),
                        kind: StageKind::Conv,
                        neurons,
                        fan_in: geom.col_rows() as u64,
                        in_events: incoming_events,
                        fanout_per_event: geom.spike_fanout(),
                        out_events: carried_events,
                        dense_macs: geom.dense_macs(),
                        weight_bytes: weight.len() as u64 * WEIGHT_BYTES,
                        potential_bytes: neurons * POTENTIAL_BYTES,
                        weight_density: weight.count_nonzero() as f64
                            / weight.len().max(1) as f64,
                    });
                    incoming_events = carried_events;
                }
                LayerSnapshot::Dense { name, weight, .. } => {
                    let rate = rate_of(name)?;
                    let out = weight.shape().dim(0) as u64;
                    let inf = weight.shape().dim(1) as u64;
                    carried_events = rate * out as f64;
                    stages.push(StageWorkload {
                        name: name.clone(),
                        kind: StageKind::Dense,
                        neurons: out,
                        fan_in: inf,
                        in_events: incoming_events,
                        fanout_per_event: out as f64,
                        out_events: carried_events,
                        dense_macs: out * inf,
                        weight_bytes: weight.len() as u64 * WEIGHT_BYTES,
                        potential_bytes: out * POTENTIAL_BYTES,
                        weight_density: weight.count_nonzero() as f64
                            / weight.len().max(1) as f64,
                    });
                    incoming_events = carried_events;
                }
                LayerSnapshot::Pool { name, geom, .. } => {
                    // Fused OR-pooling: decimates the event stream.
                    let rate = rate_of(name)?;
                    let out_elems = (geom.channels * geom.out_h() * geom.out_w()) as f64;
                    incoming_events = rate * out_elems;
                    if let Some(last) = stages.last_mut() {
                        last.out_events = incoming_events;
                    }
                }
                LayerSnapshot::Flatten { .. } => {
                    // Pure wiring; the event stream passes through.
                }
            }
        }
        if stages.is_empty() {
            return Err(WorkloadError::NoStages);
        }
        Ok(ModelWorkload {
            stages,
            timesteps: profile.timesteps,
            input_density: profile.input_density,
        })
    }

    /// Total event-driven MACs per timestep across stages.
    pub fn total_event_macs(&self) -> f64 {
        self.stages.iter().map(StageWorkload::event_macs).sum()
    }

    /// Total on-chip memory demand in bytes (weights + potentials).
    pub fn total_memory_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.weight_bytes + s.potential_bytes).sum()
    }

    /// Looks up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageWorkload> {
        self.stages.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{evaluate, LifConfig, SpikingNetwork};
    use snn_data::{bars_dataset, SpikeEncoding};
    use snn_tensor::Shape;

    fn profiled() -> (NetworkSnapshot, SparsityProfile) {
        let mut net = SpikingNetwork::paper_topology(
            Shape::d3(1, 16, 16),
            4,
            LifConfig { theta: 0.5, ..LifConfig::paper_default() },
            3,
        )
        .unwrap();
        let ds = bars_dataset(16, 16, 0);
        let eval = evaluate(&mut net, &ds, SpikeEncoding::default(), 4, 8, 1);
        (NetworkSnapshot::from_network(&net), eval.profile)
    }

    #[test]
    fn stages_follow_topology() {
        let (snap, prof) = profiled();
        let wl = ModelWorkload::characterize(&snap, &prof).unwrap();
        let names: Vec<&str> = wl.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["conv1", "conv2", "fc1", "fc2"]);
        assert_eq!(wl.stages[0].kind, StageKind::Conv);
        assert_eq!(wl.stages[2].kind, StageKind::Dense);
    }

    #[test]
    fn event_counts_are_consistent() {
        let (snap, prof) = profiled();
        let wl = ModelWorkload::characterize(&snap, &prof).unwrap();
        // conv1 input events = input_density × 16×16 pixels.
        let conv1 = wl.stage("conv1").unwrap();
        let expect = prof.input_density * 256.0;
        assert!((conv1.in_events - expect).abs() < 1e-9);
        // conv2 receives pool1's decimated stream: ≤ pool1 neurons.
        let conv2 = wl.stage("conv2").unwrap();
        assert!(conv2.in_events <= 32.0 * 8.0 * 8.0 + 1e-9);
        // fc1 fan-in matches flattened pool2 output.
        let fc1 = wl.stage("fc1").unwrap();
        assert_eq!(fc1.fan_in, 32 * 4 * 4);
        // Chained: each stage's in_events = predecessor's out_events.
        assert!((conv2.in_events - conv1.out_events).abs() < 1e-9);
        assert!((fc1.in_events - conv2.out_events).abs() < 1e-9);
    }

    #[test]
    fn dense_macs_match_shapes() {
        let (snap, prof) = profiled();
        let wl = ModelWorkload::characterize(&snap, &prof).unwrap();
        assert_eq!(wl.stage("fc1").unwrap().dense_macs, 512 * 256);
        assert_eq!(wl.stage("fc2").unwrap().dense_macs, 256 * 4);
        assert_eq!(wl.stage("conv1").unwrap().dense_macs, (9 * 32 * 16 * 16) as u64);
    }

    #[test]
    fn event_fraction_below_dense_for_sparse_model() {
        let (snap, prof) = profiled();
        let wl = ModelWorkload::characterize(&snap, &prof).unwrap();
        // Rate-encoded bars images are sparse; fc stages must do far
        // less event work than dense work.
        let fc1 = wl.stage("fc1").unwrap();
        assert!(fc1.event_fraction() < 1.0, "fraction {}", fc1.event_fraction());
    }

    #[test]
    fn memory_accounting() {
        let (snap, prof) = profiled();
        let wl = ModelWorkload::characterize(&snap, &prof).unwrap();
        let fc1 = wl.stage("fc1").unwrap();
        assert_eq!(fc1.weight_bytes, 512 * 256);
        assert_eq!(fc1.potential_bytes, 256 * 2);
        assert!(wl.total_memory_bytes() > 0);
    }

    #[test]
    fn missing_activity_detected() {
        let (snap, mut prof) = profiled();
        prof.layers.retain(|l| l.name != "conv2");
        let err = ModelWorkload::characterize(&snap, &prof).unwrap_err();
        assert_eq!(err, WorkloadError::MissingActivity("conv2".into()));
    }
}
