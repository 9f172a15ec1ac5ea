//! Spiking network layers with per-timestep forward/backward passes.
//!
//! Layers are the unit of BPTT composition: during the forward pass
//! each layer caches whatever its backward pass needs at every
//! timestep (inputs, membrane potentials, spikes, pooling argmaxes),
//! and the trainer then walks timesteps in reverse calling
//! [`Layer::backward_step`].

mod conv;
mod dense;
mod flatten;
mod pool;

pub use conv::SpikingConv2d;
pub use dense::SpikingDense;
pub use flatten::Flatten;
pub use pool::MaxPool2d;

use snn_tensor::spike::count_nonzero_rows;
use snn_tensor::{Shape, Tensor};

/// A mutable view of one trainable parameter and its gradient
/// accumulator, handed to optimizers.
#[derive(Debug)]
pub struct ParamMut<'a> {
    /// Stable parameter name, e.g. `conv1.weight`.
    pub name: String,
    /// The parameter tensor.
    pub value: &'a mut Tensor,
    /// The accumulated gradient (same shape as `value`).
    pub grad: &'a mut Tensor,
}

/// Per-layer activity accumulated during a forward sequence, the raw
/// material of the hardware workload model.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LayerActivity {
    /// Layer name, e.g. `conv1`.
    pub name: String,
    /// Neurons per sample in this layer's output (0 for reshape-only
    /// layers).
    pub neurons: usize,
    /// Total output spikes summed over batch items and timesteps: the
    /// nonzero outputs, which on binary spike maps is their sum.
    pub total_spikes: f64,
    /// Total neuron-timestep opportunities (`neurons × batch ×
    /// timesteps`).
    pub neuron_steps: f64,
}

impl LayerActivity {
    /// Mean firing probability per neuron per timestep.
    pub fn firing_rate(&self) -> f64 {
        if self.neuron_steps == 0.0 {
            0.0
        } else {
            self.total_spikes / self.neuron_steps
        }
    }

    /// Spike sparsity = `1 − firing_rate`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.firing_rate()
    }
}

/// Counts each batch item's nonzero values in one step's `output`
/// into `counts` (cleared first, so the layer reuses one buffer) and
/// returns their total for [`LayerActivity::total_spikes`]. This is
/// the only pass over a layer's output that counts spikes.
fn count_step_spikes(output: &Tensor, counts: &mut Vec<u32>) -> f64 {
    count_nonzero_rows(output.as_slice(), output.shape().dim(0), counts);
    counts.iter().map(|&c| u64::from(c)).sum::<u64>() as f64
}

/// A layer of a [`crate::SpikingNetwork`].
///
/// The enum form (rather than trait objects) keeps networks
/// serde-serializable and lets the accelerator mapper match on
/// concrete layer geometry.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Convolution followed by a LIF population.
    SpikingConv2d(SpikingConv2d),
    /// Fully-connected synapses followed by a LIF population.
    SpikingDense(SpikingDense),
    /// Spatial max pooling (binary-preserving on spike maps).
    MaxPool2d(MaxPool2d),
    /// `[N, C, H, W] → [N, C·H·W]` reshape.
    Flatten(Flatten),
}

impl Layer {
    /// The layer's name.
    pub fn name(&self) -> &str {
        match self {
            Layer::SpikingConv2d(l) => &l.name,
            Layer::SpikingDense(l) => &l.name,
            Layer::MaxPool2d(l) => &l.name,
            Layer::Flatten(l) => &l.name,
        }
    }

    /// Shape of one output item (without the batch dimension).
    pub fn output_item_shape(&self) -> Shape {
        match self {
            Layer::SpikingConv2d(l) => l.output_item_shape(),
            Layer::SpikingDense(l) => l.output_item_shape(),
            Layer::MaxPool2d(l) => l.output_item_shape(),
            Layer::Flatten(l) => l.output_item_shape(),
        }
    }

    /// Resets runtime state and caches for a new sequence.
    ///
    /// `train` controls whether forward steps cache tensors for BPTT.
    pub fn begin_sequence(&mut self, train: bool) {
        match self {
            Layer::SpikingConv2d(l) => l.begin_sequence(train),
            Layer::SpikingDense(l) => l.begin_sequence(train),
            Layer::MaxPool2d(l) => l.begin_sequence(train),
            Layer::Flatten(l) => l.begin_sequence(train),
        }
    }

    /// Frees what only the current sequence's forward steps read: LIF
    /// state and the convolution memo. BPTT caches and activity stay.
    pub(crate) fn end_sequence(&mut self) {
        match self {
            Layer::SpikingConv2d(l) => l.end_sequence(),
            Layer::SpikingDense(l) => l.end_sequence(),
            Layer::MaxPool2d(_) | Layer::Flatten(_) => {}
        }
    }

    /// Processes one timestep of input, returning the layer output.
    ///
    /// # Panics
    ///
    /// Panics if the input shape disagrees with the layer geometry
    /// (an internal wiring error — the network builder validates
    /// shapes at construction).
    pub fn forward_step(&mut self, input: &Tensor) -> Tensor {
        match self {
            Layer::SpikingConv2d(l) => l.forward_step(input),
            Layer::SpikingDense(l) => l.forward_step(input),
            Layer::MaxPool2d(l) => l.forward_step(input),
            Layer::Flatten(l) => l.forward_step(input),
        }
    }

    /// Backpropagates one timestep (called with `t` descending from
    /// `T−1` to 0), returning the gradient w.r.t. this layer's input
    /// at timestep `t`. Parameter gradients accumulate internally.
    ///
    /// # Panics
    ///
    /// Panics if the forward pass was not run in training mode or `t`
    /// is out of range.
    pub fn backward_step(&mut self, t: usize, grad_output: &Tensor) -> Tensor {
        match self {
            Layer::SpikingConv2d(l) => l.backward_step(t, grad_output),
            Layer::SpikingDense(l) => l.backward_step(t, grad_output),
            Layer::MaxPool2d(l) => l.backward_step(t, grad_output),
            Layer::Flatten(l) => l.backward_step(t, grad_output),
        }
    }

    /// Mutable views of all trainable parameters.
    pub fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        match self {
            Layer::SpikingConv2d(l) => l.params_mut(),
            Layer::SpikingDense(l) => l.params_mut(),
            Layer::MaxPool2d(_) | Layer::Flatten(_) => Vec::new(),
        }
    }

    /// Zeroes accumulated parameter gradients.
    pub fn zero_grads(&mut self) {
        match self {
            Layer::SpikingConv2d(l) => l.zero_grads(),
            Layer::SpikingDense(l) => l.zero_grads(),
            Layer::MaxPool2d(_) | Layer::Flatten(_) => {}
        }
    }

    /// Nonzero outputs of each batch item at the last forward step,
    /// the per-item split of that step's addition to
    /// [`LayerActivity::total_spikes`]. Empty for [`Flatten`], a
    /// reshape that counts no spikes of its own, and before the first
    /// step of a sequence.
    pub fn step_spikes(&self) -> &[u32] {
        match self {
            Layer::SpikingConv2d(l) => l.step_spikes(),
            Layer::SpikingDense(l) => l.step_spikes(),
            Layer::MaxPool2d(l) => l.step_spikes(),
            Layer::Flatten(_) => &[],
        }
    }

    /// Spike activity accumulated since the last `begin_sequence`.
    pub fn activity(&self) -> LayerActivity {
        match self {
            Layer::SpikingConv2d(l) => l.activity(),
            Layer::SpikingDense(l) => l.activity(),
            Layer::MaxPool2d(l) => l.activity(),
            Layer::Flatten(l) => l.activity(),
        }
    }

    /// Number of trainable scalars in the layer.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::SpikingConv2d(l) => l.weight.len() + l.bias.len(),
            Layer::SpikingDense(l) => l.weight.len() + l.bias.len(),
            Layer::MaxPool2d(_) | Layer::Flatten(_) => 0,
        }
    }

    /// The LIF configuration, for spiking layers.
    pub fn lif_config(&self) -> Option<&crate::LifConfig> {
        match self {
            Layer::SpikingConv2d(l) => Some(&l.lif),
            Layer::SpikingDense(l) => Some(&l.lif),
            Layer::MaxPool2d(_) | Layer::Flatten(_) => None,
        }
    }

    /// Overrides the LIF configuration of spiking layers (no-op
    /// otherwise). Used by sweeps that retrain the same topology with
    /// different `beta`/`theta`/surrogate settings.
    pub fn set_lif_config(&mut self, cfg: crate::LifConfig) {
        match self {
            Layer::SpikingConv2d(l) => l.lif = cfg,
            Layer::SpikingDense(l) => l.lif = cfg,
            Layer::MaxPool2d(_) | Layer::Flatten(_) => {}
        }
    }
}
