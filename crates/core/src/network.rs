//! The spiking network container and its builder.

use std::fmt;

use snn_tensor::{derive_seed, Shape, Tensor};

use crate::layer::{Flatten, Layer, LayerActivity, MaxPool2d, ParamMut, SpikingConv2d, SpikingDense};
use crate::neuron::LifConfig;

use snn_tensor::conv::Conv2dGeometry;
use snn_tensor::pool::Pool2dGeometry;

/// Error building a [`SpikingNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildNetworkError {
    /// A layer expected a different input rank (e.g. `conv` after
    /// `flatten`).
    WrongRank {
        /// The layer being added.
        layer: String,
        /// Expected input rank.
        expected: usize,
        /// Actual rank of the running shape.
        actual: usize,
    },
    /// The geometry was invalid (propagated from the kernel crate).
    Geometry(String),
    /// A LIF configuration failed validation.
    BadLif(String),
    /// The network has no layers.
    Empty,
    /// The final layer's output is not a rank-1 class vector.
    BadHead {
        /// The offending output shape, formatted.
        output: String,
    },
}

impl fmt::Display for BuildNetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildNetworkError::WrongRank { layer, expected, actual } => {
                write!(f, "layer `{layer}` expects rank-{expected} input, got rank {actual}")
            }
            BuildNetworkError::Geometry(msg) => write!(f, "invalid layer geometry: {msg}"),
            BuildNetworkError::BadLif(msg) => write!(f, "invalid LIF config: {msg}"),
            BuildNetworkError::Empty => write!(f, "network has no layers"),
            BuildNetworkError::BadHead { output } => {
                write!(f, "network head must output a class vector, got {output}")
            }
        }
    }
}

impl std::error::Error for BuildNetworkError {}

/// Incremental builder for [`SpikingNetwork`]; created by
/// [`SpikingNetwork::builder`].
///
/// Tracks the running item shape so each added layer is validated
/// against its real input geometry, and derives per-layer weight
/// seeds from the builder seed.
#[derive(Debug)]
pub struct NetworkBuilder {
    input_item_shape: Shape,
    current: Shape,
    layers: Vec<Layer>,
    seed: u64,
    conv_count: usize,
    pool_count: usize,
    dense_count: usize,
}

impl NetworkBuilder {
    fn new(input_item_shape: Shape, seed: u64) -> Self {
        NetworkBuilder {
            input_item_shape,
            current: input_item_shape,
            layers: Vec::new(),
            seed,
            conv_count: 0,
            pool_count: 0,
            dense_count: 0,
        }
    }

    /// Appends a spiking convolution (`filters` filters of size
    /// `kernel`×`kernel`, given stride/padding) followed by LIF
    /// neurons.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetworkError`] if the running shape is not rank
    /// 3, the geometry is invalid, or `lif` fails validation.
    pub fn conv(
        mut self,
        filters: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        lif: LifConfig,
    ) -> Result<Self, BuildNetworkError> {
        lif.validate().map_err(BuildNetworkError::BadLif)?;
        if self.current.rank() != 3 {
            return Err(BuildNetworkError::WrongRank {
                layer: format!("conv{}", self.conv_count + 1),
                expected: 3,
                actual: self.current.rank(),
            });
        }
        let (c, h, w) = (self.current.dim(0), self.current.dim(1), self.current.dim(2));
        let geom = Conv2dGeometry::new(c, filters, kernel, stride, padding, h, w)
            .map_err(|e| BuildNetworkError::Geometry(e.to_string()))?;
        self.conv_count += 1;
        let name = format!("conv{}", self.conv_count);
        let seed = derive_seed(self.seed, &name);
        let layer = SpikingConv2d::new(&name, geom, lif, seed);
        self.current = layer.output_item_shape();
        self.layers.push(Layer::SpikingConv2d(layer));
        Ok(self)
    }

    /// Appends a max-pool with `kernel == stride == size` (the
    /// paper's `P2`/`MP2`).
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetworkError`] if the running shape is not rank
    /// 3 or the window does not fit.
    pub fn maxpool(mut self, size: usize) -> Result<Self, BuildNetworkError> {
        if self.current.rank() != 3 {
            return Err(BuildNetworkError::WrongRank {
                layer: format!("pool{}", self.pool_count + 1),
                expected: 3,
                actual: self.current.rank(),
            });
        }
        let (c, h, w) = (self.current.dim(0), self.current.dim(1), self.current.dim(2));
        let geom = Pool2dGeometry::new(c, size, size, h, w)
            .map_err(|e| BuildNetworkError::Geometry(e.to_string()))?;
        self.pool_count += 1;
        let layer = MaxPool2d::new(format!("pool{}", self.pool_count), geom);
        self.current = layer.output_item_shape();
        self.layers.push(Layer::MaxPool2d(layer));
        Ok(self)
    }

    /// Appends a flatten stage.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetworkError::WrongRank`] if the running shape
    /// is already rank 1.
    pub fn flatten(mut self) -> Result<Self, BuildNetworkError> {
        if self.current.rank() < 2 {
            return Err(BuildNetworkError::WrongRank {
                layer: "flatten".into(),
                expected: 3,
                actual: self.current.rank(),
            });
        }
        let layer = Flatten::new("flatten", self.current);
        self.current = layer.output_item_shape();
        self.layers.push(Layer::Flatten(layer));
        Ok(self)
    }

    /// Appends a spiking dense layer of `neurons` LIF units.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetworkError`] if the running shape is not rank
    /// 1 (call [`NetworkBuilder::flatten`] first) or `lif` is invalid.
    pub fn dense(mut self, neurons: usize, lif: LifConfig) -> Result<Self, BuildNetworkError> {
        lif.validate().map_err(BuildNetworkError::BadLif)?;
        if self.current.rank() != 1 {
            return Err(BuildNetworkError::WrongRank {
                layer: format!("fc{}", self.dense_count + 1),
                expected: 1,
                actual: self.current.rank(),
            });
        }
        self.dense_count += 1;
        let name = format!("fc{}", self.dense_count);
        let seed = derive_seed(self.seed, &name);
        let layer = SpikingDense::new(&name, self.current.dim(0), neurons, lif, seed);
        self.current = layer.output_item_shape();
        self.layers.push(Layer::SpikingDense(layer));
        Ok(self)
    }

    /// Finalizes the network.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetworkError`] if no layers were added or the
    /// head does not emit a rank-1 class vector.
    pub fn build(self) -> Result<SpikingNetwork, BuildNetworkError> {
        if self.layers.is_empty() {
            return Err(BuildNetworkError::Empty);
        }
        if self.current.rank() != 1 {
            return Err(BuildNetworkError::BadHead { output: self.current.to_string() });
        }
        Ok(SpikingNetwork {
            layers: self.layers,
            input_item_shape: self.input_item_shape,
            classes: self.current.dim(0),
        })
    }
}

/// Output of a full forward sequence.
#[derive(Debug, Clone)]
pub struct SequenceOutput {
    /// Output spike counts per class, `[N, classes]` — the logits of
    /// rate-coded readout.
    pub counts: Tensor,
    /// Number of timesteps processed.
    pub timesteps: usize,
}

/// A feed-forward spiking neural network trained with BPTT +
/// surrogate gradients.
///
/// # Examples
///
/// Build the paper's topology on 16×16 inputs and run one inference:
///
/// ```
/// use snn_core::{LifConfig, SpikingNetwork};
/// use snn_tensor::{Shape, Tensor};
///
/// let mut net = SpikingNetwork::paper_topology(
///     Shape::d3(3, 16, 16),
///     10,
///     LifConfig::paper_default(),
///     42,
/// )?;
/// let frames = vec![Tensor::zeros(Shape::d4(1, 3, 16, 16)); 4];
/// let out = net.run_sequence(&frames, false);
/// assert_eq!(out.counts.shape(), Shape::d2(1, 10));
/// # Ok::<(), snn_core::BuildNetworkError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpikingNetwork {
    pub(crate) layers: Vec<Layer>,
    pub(crate) input_item_shape: Shape,
    pub(crate) classes: usize,
}

impl SpikingNetwork {
    /// Starts a builder for the given per-item input shape (e.g.
    /// `[3, 32, 32]`). `seed` drives all weight initialization.
    pub fn builder(input_item_shape: Shape, seed: u64) -> NetworkBuilder {
        NetworkBuilder::new(input_item_shape, seed)
    }

    /// Builds the paper's topology `32C3-P2-32C3-MP2-256-10`
    /// (filters and head width fixed; `classes` sets the output
    /// count) with the same LIF configuration in every spiking layer.
    ///
    /// # Errors
    ///
    /// Returns [`BuildNetworkError`] if the input is too small for
    /// the two 2× pooling stages or `lif` is invalid.
    pub fn paper_topology(
        input_item_shape: Shape,
        classes: usize,
        lif: LifConfig,
        seed: u64,
    ) -> Result<Self, BuildNetworkError> {
        Self::builder(input_item_shape, seed)
            .conv(32, 3, 1, 1, lif)?
            .maxpool(2)?
            .conv(32, 3, 1, 1, lif)?
            .maxpool(2)?
            .flatten()?
            .dense(256, lif)?
            .dense(classes, lif)?
            .build()
    }

    /// The layers, in forward order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Per-item input shape.
    pub fn input_item_shape(&self) -> Shape {
        self.input_item_shape
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Applies one LIF configuration to every spiking layer (used by
    /// hyperparameter sweeps before retraining).
    pub fn set_lif_config(&mut self, cfg: LifConfig) {
        for l in &mut self.layers {
            l.set_lif_config(cfg);
        }
    }

    /// Resets all layer state/caches for a new input sequence.
    pub fn begin_sequence(&mut self, train: bool) {
        for l in &mut self.layers {
            l.begin_sequence(train);
        }
    }

    /// Ends a sequence's forward pass: frees the LIF state and
    /// convolution memos that only its forward steps read, so an
    /// engine kept between requests does not hold the last batch's
    /// membranes and conv current. BPTT caches and activity stay, so
    /// [`SpikingNetwork::backward_sequence`] and
    /// [`SpikingNetwork::activities`] are unaffected.
    fn end_sequence(&mut self) {
        for l in &mut self.layers {
            l.end_sequence();
        }
    }

    /// Processes one timestep, returning output-layer spikes
    /// `[N, classes]`.
    pub fn forward_step(&mut self, input: &Tensor) -> Tensor {
        self.forward_step_observed(input, |_, _, _| {})
    }

    /// Like [`SpikingNetwork::forward_step`], but calls `observer`
    /// after every layer with `(layer_name, input, output)` — the
    /// hook the spike tracer uses to count per-timestep events.
    pub fn forward_step_observed(
        &mut self,
        input: &Tensor,
        mut observer: impl FnMut(&str, &Tensor, &Tensor),
    ) -> Tensor {
        self.step_layers(input, |l, x, y| observer(l.name(), x, y))
    }

    /// One timestep through every layer, calling `observer` after each
    /// with `(layer, input, output)`.
    fn step_layers(
        &mut self,
        input: &Tensor,
        mut observer: impl FnMut(&Layer, &Tensor, &Tensor),
    ) -> Tensor {
        let mut x = input.clone();
        for l in &mut self.layers {
            let y = l.forward_step(&x);
            observer(l, &x, &y);
            x = y;
        }
        x
    }

    /// Backpropagates one timestep (`t` descending), seeding the
    /// output layer with `grad_output`.
    pub fn backward_step(&mut self, t: usize, grad_output: &Tensor) {
        let mut g = grad_output.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward_step(t, &g);
        }
    }

    /// Runs a whole sequence of input frames, accumulating output
    /// spike counts.
    ///
    /// With `train = true` the layers cache activations for a
    /// subsequent [`SpikingNetwork::backward_sequence`].
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty.
    pub fn run_sequence(&mut self, frames: &[Tensor], train: bool) -> SequenceOutput {
        let _span = snn_obs::span!("forward_seq");
        self.sequence(frames, train, |_, _, _, _| {})
    }

    /// Forward-only run of a whole sequence: no BPTT activation
    /// caches are kept, so memory stays flat regardless of sequence
    /// length. This is the serving path.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty.
    pub fn run_inference(&mut self, frames: &[Tensor]) -> SequenceOutput {
        self.run_sequence(frames, false)
    }

    /// Like [`SpikingNetwork::run_inference`], but calls `observer`
    /// after every layer at every timestep with `(layer_index,
    /// layer_name, output, spikes)`, where `spikes` holds each batch
    /// item's output spike count at that step
    /// ([`Layer::step_spikes`]; empty for `flatten`) — the hook the
    /// serving engine uses for per-request spike accounting, reading
    /// the layer's own count instead of scanning `output` again.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty.
    pub fn run_inference_observed(
        &mut self,
        frames: &[Tensor],
        observer: impl FnMut(usize, &str, &Tensor, &[u32]),
    ) -> SequenceOutput {
        self.sequence(frames, false, observer)
    }

    /// The sequence loop behind `run_sequence` and
    /// `run_inference_observed`: begins the sequence, steps every
    /// frame (calling `observer` after each layer with `(layer_index,
    /// layer_name, output, spikes)`), sums the output spikes and ends
    /// the sequence.
    fn sequence(
        &mut self,
        frames: &[Tensor],
        train: bool,
        mut observer: impl FnMut(usize, &str, &Tensor, &[u32]),
    ) -> SequenceOutput {
        assert!(!frames.is_empty(), "a sequence requires at least one frame");
        self.begin_sequence(train);
        let batch = frames[0].shape().dim(0);
        let mut counts = Tensor::zeros(Shape::d2(batch, self.classes));
        for f in frames {
            let mut li = 0;
            let s = self.step_layers(f, |l, _, y| {
                observer(li, l.name(), y, l.step_spikes());
                li += 1;
            });
            counts.add_assign(&s).expect("output shape invariant");
        }
        self.end_sequence();
        SequenceOutput { counts, timesteps: frames.len() }
    }

    /// Backpropagates through time after a training-mode
    /// [`SpikingNetwork::run_sequence`].
    ///
    /// `grad_counts` is `∂L/∂counts`; since `counts = Σ_t s_out[t]`,
    /// the same gradient seeds every timestep.
    pub fn backward_sequence(&mut self, grad_counts: &Tensor, timesteps: usize) {
        let _span = snn_obs::span!("backward_seq");
        for t in (0..timesteps).rev() {
            self.backward_step(t, grad_counts);
        }
    }

    /// Mutable parameter views across all layers, in a stable order.
    pub fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// Activity of every layer since the last sequence reset.
    pub fn activities(&self) -> Vec<LayerActivity> {
        self.layers.iter().map(Layer::activity).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lif() -> LifConfig {
        LifConfig { theta: 0.5, ..LifConfig::paper_default() }
    }

    #[test]
    fn paper_topology_shapes() {
        let net =
            SpikingNetwork::paper_topology(Shape::d3(3, 32, 32), 10, lif(), 1).unwrap();
        let shapes: Vec<String> =
            net.layers().iter().map(|l| l.output_item_shape().to_string()).collect();
        assert_eq!(
            shapes,
            vec![
                "[32, 32, 32]",
                "[32, 16, 16]",
                "[32, 16, 16]",
                "[32, 8, 8]",
                "[2048]",
                "[256]",
                "[10]"
            ]
        );
        assert_eq!(net.classes(), 10);
        // 32·27+32 + 32·288+32 + 2048·256+256 + 256·10+10
        assert_eq!(net.param_count(), 32 * 27 + 32 + 32 * 288 + 32 + 2048 * 256 + 256 + 256 * 10 + 10);
    }

    #[test]
    fn topology_works_on_16x16() {
        let net =
            SpikingNetwork::paper_topology(Shape::d3(3, 16, 16), 10, lif(), 1).unwrap();
        assert_eq!(net.layers()[4].output_item_shape(), Shape::d1(512));
    }

    #[test]
    fn builder_rejects_dense_before_flatten() {
        let err = SpikingNetwork::builder(Shape::d3(1, 8, 8), 0)
            .dense(10, lif())
            .unwrap_err();
        assert!(matches!(err, BuildNetworkError::WrongRank { .. }));
    }

    #[test]
    fn builder_rejects_conv_after_flatten() {
        let err = SpikingNetwork::builder(Shape::d3(1, 8, 8), 0)
            .flatten()
            .unwrap()
            .conv(4, 3, 1, 1, lif())
            .unwrap_err();
        assert!(matches!(err, BuildNetworkError::WrongRank { .. }));
    }

    #[test]
    fn builder_rejects_empty_and_bad_head() {
        assert_eq!(
            SpikingNetwork::builder(Shape::d3(1, 8, 8), 0).build().unwrap_err(),
            BuildNetworkError::Empty
        );
        let err = SpikingNetwork::builder(Shape::d3(1, 8, 8), 0)
            .conv(4, 3, 1, 1, lif())
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildNetworkError::BadHead { .. }));
    }

    #[test]
    fn builder_rejects_bad_lif() {
        let bad = LifConfig { beta: 2.0, ..LifConfig::paper_default() };
        let err = SpikingNetwork::builder(Shape::d3(1, 8, 8), 0)
            .conv(4, 3, 1, 1, bad)
            .unwrap_err();
        assert!(matches!(err, BuildNetworkError::BadLif(_)));
    }

    #[test]
    fn run_sequence_counts_are_bounded_by_timesteps() {
        let mut net = SpikingNetwork::builder(Shape::d3(1, 8, 8), 3)
            .conv(4, 3, 1, 1, lif())
            .unwrap()
            .maxpool(2)
            .unwrap()
            .flatten()
            .unwrap()
            .dense(4, lif())
            .unwrap()
            .build()
            .unwrap();
        let frames = vec![Tensor::ones(Shape::d4(2, 1, 8, 8)); 5];
        let out = net.run_sequence(&frames, false);
        assert_eq!(out.timesteps, 5);
        assert!(out.counts.max() <= 5.0);
        assert!(out.counts.min() >= 0.0);
    }

    #[test]
    fn deterministic_construction() {
        let a = SpikingNetwork::paper_topology(Shape::d3(1, 16, 16), 4, lif(), 9).unwrap();
        let b = SpikingNetwork::paper_topology(Shape::d3(1, 16, 16), 4, lif(), 9).unwrap();
        let frames = vec![Tensor::ones(Shape::d4(1, 1, 16, 16)); 3];
        let (mut a, mut b) = (a, b);
        assert_eq!(
            a.run_sequence(&frames, false).counts,
            b.run_sequence(&frames, false).counts
        );
    }

    #[test]
    fn set_lif_config_applies_everywhere() {
        let mut net =
            SpikingNetwork::paper_topology(Shape::d3(1, 16, 16), 4, lif(), 0).unwrap();
        let tuned = LifConfig::paper_efficiency_tuned();
        net.set_lif_config(tuned);
        for l in net.layers() {
            if let Some(cfg) = l.lif_config() {
                assert_eq!(cfg.beta, 0.7);
                assert_eq!(cfg.theta, 1.5);
            }
        }
    }

    #[test]
    fn inference_observed_matches_run_sequence() {
        let mut a = SpikingNetwork::paper_topology(Shape::d3(1, 16, 16), 4, lif(), 5).unwrap();
        let mut b = a.clone();
        let frames = vec![Tensor::ones(Shape::d4(2, 1, 16, 16)); 3];
        let plain = a.run_sequence(&frames, false);
        let names = ["conv1", "pool1", "conv2", "pool2", "flatten", "fc1", "fc2"];
        let mut calls = 0usize;
        let observed = b.run_inference_observed(&frames, |i, name, out, spikes| {
            assert_eq!(name, names[i]);
            assert!(!out.is_empty());
            if name == "flatten" {
                assert!(spikes.is_empty());
            } else {
                let per_item = out.len() / 2;
                let want: Vec<u32> = out
                    .as_slice()
                    .chunks(per_item)
                    .map(|c| c.iter().filter(|&&v| v != 0.0).count() as u32)
                    .collect();
                assert_eq!(spikes, want.as_slice(), "{name}");
            }
            calls += 1;
        });
        assert_eq!(plain.counts, observed.counts);
        assert_eq!(calls, names.len() * 3);
    }

    #[test]
    fn activities_cover_all_layers() {
        let mut net =
            SpikingNetwork::paper_topology(Shape::d3(1, 16, 16), 4, lif(), 0).unwrap();
        let frames = vec![Tensor::ones(Shape::d4(1, 1, 16, 16)); 2];
        net.run_sequence(&frames, false);
        let acts = net.activities();
        assert_eq!(acts.len(), 7);
        assert_eq!(acts[0].name, "conv1");
        assert!(acts[0].neuron_steps > 0.0);
    }
}
