//! Convolutional spiking layer: `conv2d → LIF`.

use snn_tensor::conv::{conv2d_backward_with, conv2d_forward_routed, Conv2dGeometry, ConvScratch};
use snn_tensor::dispatch::ConvRoute;
use snn_tensor::{Init, Shape, Tensor};

use crate::neuron::{lif_backward_step, lif_step_in_place, lif_step_masked, LifConfig, LifState};

use super::{LayerActivity, ParamMut};

/// A 2-D convolution whose output current drives a population of LIF
/// neurons, producing binary spike maps.
///
/// The paper's `32C3` blocks are instances of this layer with 32
/// filters of size 3×3 (padding 1).
#[derive(Debug, Clone)]
pub struct SpikingConv2d {
    /// Layer name, e.g. `conv1`.
    pub name: String,
    /// Convolution geometry (per batch item).
    pub geom: Conv2dGeometry,
    /// LIF neuron hyperparameters.
    pub lif: LifConfig,
    /// Filter bank `[out_channels, in_channels·k·k]`.
    pub weight: Tensor,
    /// Per-filter bias.
    pub bias: Tensor,
    pub(crate) grad_weight: Tensor,
    pub(crate) grad_bias: Tensor,

    // ---- runtime (reset by begin_sequence) ----
    state: Option<LifState>,
    train: bool,
    cached_inputs: Vec<Tensor>,
    cached_membranes: Vec<Tensor>,
    cached_spikes: Vec<Tensor>,
    carry_u: Option<Tensor>,
    total_spikes: f64,
    neuron_steps: f64,
    /// Output spikes of each batch item at the last step.
    step_spikes: Vec<u32>,
    /// Reusable im2col / spike-index buffers; allocated once per
    /// sequence instead of once per timestep.
    scratch: ConvScratch,
    /// The last convolution: its input, weight and bias (clones that
    /// pin their storage), output current and route. Boxed to keep
    /// the `Layer` enum's variants close in size.
    last_conv: Option<Box<ConvMemo>>,
}

/// One convolution's operands and result, kept so the next timestep
/// can skip the convolution when it sees the same operands again.
///
/// Direct coding presents one input tensor (clones of it) at every
/// timestep, so a first layer's current is the same at each step.
/// Operands are matched by [`Tensor::same_storage`]: copy-on-write
/// means shared storage implies identical contents, and holding the
/// clones keeps the buffers alive, so the reused current is exactly
/// the one the convolution would compute.
#[derive(Debug, Clone)]
struct ConvMemo {
    input: Tensor,
    weight: Tensor,
    bias: Tensor,
    current: Tensor,
    route: ConvRoute,
}

impl ConvMemo {
    fn matches(&self, input: &Tensor, weight: &Tensor, bias: &Tensor) -> bool {
        self.input.same_storage(input)
            && self.weight.same_storage(weight)
            && self.bias.same_storage(bias)
    }
}

impl SpikingConv2d {
    /// Creates the layer with initialized weights.
    ///
    /// `seed` controls weight initialization (Kaiming uniform over the
    /// filter fan-in; biases start at zero).
    pub fn new(name: impl Into<String>, geom: Conv2dGeometry, lif: LifConfig, seed: u64) -> Self {
        let fan_in = geom.col_rows();
        let fan_out = geom.out_channels * geom.kernel * geom.kernel;
        let weight = Init::KaimingUniform.tensor(geom.weight_shape(), fan_in, fan_out, seed);
        let bias = Tensor::zeros(Shape::d1(geom.out_channels));
        let grad_weight = Tensor::zeros(geom.weight_shape());
        let grad_bias = Tensor::zeros(Shape::d1(geom.out_channels));
        SpikingConv2d {
            name: name.into(),
            geom,
            lif,
            weight,
            bias,
            grad_weight,
            grad_bias,
            state: None,
            train: false,
            cached_inputs: Vec::new(),
            cached_membranes: Vec::new(),
            cached_spikes: Vec::new(),
            carry_u: None,
            total_spikes: 0.0,
            neuron_steps: 0.0,
            step_spikes: Vec::new(),
            scratch: ConvScratch::new(),
            last_conv: None,
        }
    }

    /// Shape of one output item `[out_channels, out_h, out_w]`.
    pub fn output_item_shape(&self) -> Shape {
        self.geom.output_item_shape()
    }

    pub(crate) fn begin_sequence(&mut self, train: bool) {
        self.state = None;
        self.train = train;
        self.cached_inputs.clear();
        self.cached_membranes.clear();
        self.cached_spikes.clear();
        self.carry_u = None;
        self.total_spikes = 0.0;
        self.neuron_steps = 0.0;
        self.step_spikes.clear();
        self.last_conv = None;
    }

    pub(crate) fn end_sequence(&mut self) {
        self.state = None;
        self.last_conv = None;
    }

    /// The convolution's output current and route for `input`, reused
    /// from the previous timestep when its operands are the same
    /// tensors (see [`ConvMemo`]).
    fn conv_current(&mut self, input: &Tensor) -> (Tensor, ConvRoute) {
        if let Some(m) = &self.last_conv {
            if m.matches(input, &self.weight, &self.bias) {
                return (m.current.clone(), m.route);
            }
        }
        // Free the stale current before allocating the new one, so the
        // allocator can hand its buffer straight back.
        self.last_conv = None;
        let (current, route) =
            conv2d_forward_routed(&self.geom, input, &self.weight, &self.bias, &mut self.scratch)
                .expect("conv geometry validated at construction");
        self.last_conv = Some(Box::new(ConvMemo {
            input: input.clone(),
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            current: current.clone(),
            route,
        }));
        (current, route)
    }

    pub(crate) fn forward_step(&mut self, input: &Tensor) -> Tensor {
        let batch = input.shape().dim(0);
        let out_shape = Shape::d4(batch, self.geom.out_channels, self.geom.out_h(), self.geom.out_w());
        let (current, route) = self.conv_current(input);
        let state = self
            .state
            .get_or_insert_with(|| LifState::new(out_shape));
        assert_eq!(state.membrane.shape(), out_shape, "batch size changed mid-sequence");
        // On the event route the conv's touch mask bounds the neurons
        // with synaptic input, so the LIF step can skip the rest —
        // unless most channels carry a nonzero bias, in which case the
        // masked fix-up pass would redo nearly all the work anyway.
        // Both LIF variants are bitwise identical (see `lif_step_masked`).
        // A reused current comes with its own call's route, and the
        // scratch still holds that call's touch mask: `last_conv` is
        // replaced on every convolution this layer runs.
        let zero_bias = self.bias.as_slice().iter().filter(|&&b| b == 0.0).count();
        let s = if route == ConvRoute::Event && 2 * zero_bias >= self.geom.out_channels {
            let (u, s) =
                lif_step_masked(&self.lif, state, &current, self.scratch.touch(), &self.bias);
            *state = LifState { membrane: u, prev_spikes: s.clone() };
            s
        } else {
            lif_step_in_place(&self.lif, state, &current)
        };
        self.total_spikes += super::count_step_spikes(&s, &mut self.step_spikes);
        self.neuron_steps += s.len() as f64;
        // Tensors are copy-on-write, so caching clones of the spike and
        // membrane maps shares the underlying buffer (no data copies);
        // the next in-place LIF step detaches its own copy.
        if self.train {
            self.cached_inputs.push(input.clone());
            self.cached_membranes.push(state.membrane.clone());
            self.cached_spikes.push(s.clone());
        }
        s
    }

    pub(crate) fn backward_step(&mut self, t: usize, grad_output: &Tensor) -> Tensor {
        assert!(self.train, "backward_step requires a training-mode forward pass");
        let u = &self.cached_membranes[t];
        let s = &self.cached_spikes[t];
        let carry = self
            .carry_u
            .take()
            .unwrap_or_else(|| Tensor::zeros(u.shape()));
        let (grad_current, new_carry) =
            lif_backward_step(&self.lif, grad_output, &carry, u, s);
        self.carry_u = Some(new_carry);
        let grads = conv2d_backward_with(
            &self.geom,
            &self.cached_inputs[t],
            &self.weight,
            &grad_current,
            &mut self.scratch,
        )
        .expect("conv shapes validated in forward");
        self.grad_weight
            .add_assign(&grads.grad_weight)
            .expect("grad shape invariant");
        self.grad_bias.add_assign(&grads.grad_bias).expect("grad shape invariant");
        grads.grad_input
    }

    pub(crate) fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        // The caller may rewrite the weights; drop the pinned clones
        // so the write stays in place instead of detaching a copy.
        self.last_conv = None;
        vec![
            ParamMut {
                name: format!("{}.weight", self.name),
                value: &mut self.weight,
                grad: &mut self.grad_weight,
            },
            ParamMut {
                name: format!("{}.bias", self.name),
                value: &mut self.bias,
                grad: &mut self.grad_bias,
            },
        ]
    }

    pub(crate) fn zero_grads(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    pub(crate) fn step_spikes(&self) -> &[u32] {
        &self.step_spikes
    }

    pub(crate) fn activity(&self) -> LayerActivity {
        LayerActivity {
            name: self.name.clone(),
            neurons: self.geom.out_channels * self.geom.out_h() * self.geom.out_w(),
            total_spikes: self.total_spikes,
            neuron_steps: self.neuron_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Surrogate;
    use snn_tensor::conv::Conv2dGeometry;

    fn tiny_layer() -> SpikingConv2d {
        let geom = Conv2dGeometry::new(1, 2, 3, 1, 1, 4, 4).unwrap();
        let lif = LifConfig {
            beta: 0.5,
            theta: 0.5,
            surrogate: Surrogate::FastSigmoid { k: 1.0 },
            ..LifConfig::paper_default()
        };
        SpikingConv2d::new("conv_t", geom, lif, 3)
    }

    #[test]
    fn forward_produces_binary_spikes() {
        let mut l = tiny_layer();
        l.begin_sequence(false);
        let x = Tensor::ones(Shape::d4(2, 1, 4, 4));
        for _ in 0..3 {
            let s = l.forward_step(&x);
            assert_eq!(s.shape(), Shape::d4(2, 2, 4, 4));
            assert!(s.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }

    #[test]
    fn activity_accumulates() {
        let mut l = tiny_layer();
        l.begin_sequence(false);
        let x = Tensor::ones(Shape::d4(1, 1, 4, 4));
        for _ in 0..4 {
            l.forward_step(&x);
        }
        let a = l.activity();
        assert_eq!(a.neurons, 2 * 4 * 4);
        assert_eq!(a.neuron_steps, (2 * 4 * 4 * 4) as f64);
        assert!(a.firing_rate() >= 0.0 && a.firing_rate() <= 1.0);
    }

    #[test]
    fn repeated_input_reuses_the_current() {
        let mut l = tiny_layer();
        l.begin_sequence(false);
        let x = Tensor::ones(Shape::d4(1, 1, 4, 4));
        let (c0, _) = l.conv_current(&x);
        let (c1, _) = l.conv_current(&x.clone());
        assert!(c0.same_storage(&c1), "a clone of the input reuses the current");
        let copy = Tensor::from_vec(x.shape(), x.as_slice().to_vec()).unwrap();
        let (c2, _) = l.conv_current(&copy);
        assert!(!c2.same_storage(&c1), "equal values in other storage recompute");
        assert_eq!(c2, c1);
        l.params_mut()[0].value.as_mut_slice()[0] += 1.0;
        let (c3, _) = l.conv_current(&copy);
        assert_ne!(c3, c2, "a weight edit recomputes");
        l.begin_sequence(false);
        assert!(l.last_conv.is_none());
    }

    #[test]
    fn begin_sequence_resets() {
        let mut l = tiny_layer();
        l.begin_sequence(true);
        let x = Tensor::ones(Shape::d4(1, 1, 4, 4));
        l.forward_step(&x);
        assert_eq!(l.cached_inputs.len(), 1);
        l.begin_sequence(false);
        assert!(l.cached_inputs.is_empty());
        assert_eq!(l.activity().total_spikes, 0.0);
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut l = tiny_layer();
        l.begin_sequence(true);
        let x = Tensor::ones(Shape::d4(1, 1, 4, 4));
        let s0 = l.forward_step(&x);
        let _s1 = l.forward_step(&x);
        let g = Tensor::ones(s0.shape());
        let gi1 = l.backward_step(1, &g);
        let gi0 = l.backward_step(0, &g);
        assert_eq!(gi0.shape(), x.shape());
        assert_eq!(gi1.shape(), x.shape());
        assert!(l.grad_weight.sq_norm() > 0.0, "weight grads must be nonzero");
        assert!(l.grad_bias.sq_norm() > 0.0);
        l.zero_grads();
        assert_eq!(l.grad_weight.sq_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "training-mode")]
    fn backward_without_train_mode_panics() {
        let mut l = tiny_layer();
        l.begin_sequence(false);
        let x = Tensor::ones(Shape::d4(1, 1, 4, 4));
        let s = l.forward_step(&x);
        let g = Tensor::ones(s.shape());
        let _ = l.backward_step(0, &g);
    }

    #[test]
    fn params_expose_weight_and_bias() {
        let mut l = tiny_layer();
        let p = l.params_mut();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].name, "conv_t.weight");
        assert_eq!(p[1].name, "conv_t.bias");
    }
}
