//! Fully-connected spiking layer: `x·Wᵀ + b → LIF`.

use snn_tensor::{linalg, Init, Shape, Tensor};

use crate::neuron::{lif_backward_step, lif_step_in_place, LifConfig, LifState};

use super::{LayerActivity, ParamMut};

/// Fully-connected synapses driving a population of LIF neurons.
///
/// Weights are stored `[out_features, in_features]`. The paper's
/// `256` and `10` stages are instances of this layer.
#[derive(Debug, Clone)]
pub struct SpikingDense {
    /// Layer name, e.g. `fc1`.
    pub name: String,
    /// Input feature count.
    pub in_features: usize,
    /// Output neuron count.
    pub out_features: usize,
    /// LIF neuron hyperparameters.
    pub lif: LifConfig,
    /// Weight matrix `[out_features, in_features]`.
    pub weight: Tensor,
    /// Per-neuron bias.
    pub bias: Tensor,
    pub(crate) grad_weight: Tensor,
    pub(crate) grad_bias: Tensor,

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
    /// `weightᵀ` for the forward GEMM; kept across sequences.
    transposed: Option<TransposeMemo>,
}

/// `Wᵀ` (`[in_features, out_features]`) and the weight it was built
/// from, so the forward pass runs the `i → k → j` [`linalg::matmul`]
/// (zero inputs skipped, output features vectorized) without
/// transposing at every step.
///
/// The weight is matched by [`Tensor::same_storage`], as in the conv
/// layer's memo: the held clone shares the weight's storage, so any
/// write through the public `weight` field detaches a copy first and
/// the next step sees a different storage and transposes again. A
/// stale `Wᵀ` is never used.
#[derive(Debug, Clone)]
struct TransposeMemo {
    weight: Tensor,
    weight_t: Tensor,
}

impl SpikingDense {
    /// Creates the layer with Kaiming-initialized weights and zero
    /// biases.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        lif: LifConfig,
        seed: u64,
    ) -> Self {
        let weight = Init::KaimingUniform.tensor(
            Shape::d2(out_features, in_features),
            in_features,
            out_features,
            seed,
        );
        SpikingDense {
            name: name.into(),
            in_features,
            out_features,
            lif,
            weight,
            bias: Tensor::zeros(Shape::d1(out_features)),
            grad_weight: Tensor::zeros(Shape::d2(out_features, in_features)),
            grad_bias: Tensor::zeros(Shape::d1(out_features)),
            state: None,
            train: false,
            cached_inputs: Vec::new(),
            cached_membranes: Vec::new(),
            cached_spikes: Vec::new(),
            carry_u: None,
            total_spikes: 0.0,
            neuron_steps: 0.0,
            step_spikes: Vec::new(),
            transposed: None,
        }
    }

    /// Shape of one output item `[out_features]`.
    pub fn output_item_shape(&self) -> Shape {
        Shape::d1(self.out_features)
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
    }

    pub(crate) fn end_sequence(&mut self) {
        self.state = None;
    }

    pub(crate) fn forward_step(&mut self, input: &Tensor) -> Tensor {
        let batch = input.shape().dim(0);
        assert_eq!(
            input.shape(),
            Shape::d2(batch, self.in_features),
            "dense input shape mismatch in {}",
            self.name
        );
        // Bitwise equal to `matmul_nt(input, &self.weight)` for finite
        // weights: each output adds its nonzero terms in ascending
        // input order from `+0.0` either way (see `linalg` on
        // exactness).
        let mut current = linalg::matmul(input, self.weight_t()).expect("shape checked above");
        linalg::add_bias_rows(&mut current, &self.bias).expect("bias shape invariant");
        let out_shape = Shape::d2(batch, self.out_features);
        let state = self.state.get_or_insert_with(|| LifState::new(out_shape));
        assert_eq!(state.membrane.shape(), out_shape, "batch size changed mid-sequence");
        let s = lif_step_in_place(&self.lif, state, &current);
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

    /// `weightᵀ`, transposed again only when `weight` has changed
    /// storage since the last call (see [`TransposeMemo`]).
    fn weight_t(&mut self) -> &Tensor {
        if self.transposed.as_ref().is_some_and(|m| !m.weight.same_storage(&self.weight)) {
            // Free the stale transpose before allocating the new one.
            self.transposed = None;
        }
        let weight = &self.weight;
        &self
            .transposed
            .get_or_insert_with(|| TransposeMemo {
                weight: weight.clone(),
                weight_t: linalg::transpose(weight).expect("weight is rank 2"),
            })
            .weight_t
    }

    pub(crate) fn backward_step(&mut self, t: usize, grad_output: &Tensor) -> Tensor {
        assert!(self.train, "backward_step requires a training-mode forward pass");
        let u = &self.cached_membranes[t];
        let s = &self.cached_spikes[t];
        let carry = self.carry_u.take().unwrap_or_else(|| Tensor::zeros(u.shape()));
        let (grad_current, new_carry) = lif_backward_step(&self.lif, grad_output, &carry, u, s);
        self.carry_u = Some(new_carry);
        // dW[out, in] = dYᵀ · X ; db = Σ_rows dY ; dX = dY · W.
        let x = &self.cached_inputs[t];
        let dw = linalg::matmul_tn(&grad_current, x).expect("shape invariant");
        self.grad_weight.add_assign(&dw).expect("shape invariant");
        let db = linalg::sum_rows(&grad_current).expect("shape invariant");
        self.grad_bias.add_assign(&db).expect("shape invariant");
        linalg::matmul(&grad_current, &self.weight).expect("shape invariant")
    }

    pub(crate) fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        // Release the memo's clone of the weight, so an optimizer
        // writes it in place instead of detaching a copy.
        self.transposed = None;
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
            neurons: self.out_features,
            total_spikes: self.total_spikes,
            neuron_steps: self.neuron_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Surrogate;

    fn layer() -> SpikingDense {
        let lif = LifConfig {
            beta: 0.6,
            theta: 0.4,
            surrogate: Surrogate::FastSigmoid { k: 1.0 },
            ..LifConfig::paper_default()
        };
        SpikingDense::new("fc_t", 6, 4, lif, 1)
    }

    #[test]
    fn forward_shapes_and_binary_output() {
        let mut l = layer();
        l.begin_sequence(false);
        let x = Tensor::ones(Shape::d2(3, 6));
        let s = l.forward_step(&x);
        assert_eq!(s.shape(), Shape::d2(3, 4));
        assert!(s.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn state_persists_across_steps() {
        // Sub-threshold constant input accumulates until firing.
        let mut l = layer();
        // Make the synaptic drive deterministic: weight = I-ish rows.
        l.weight = Tensor::full(Shape::d2(4, 6), 0.05);
        l.begin_sequence(false);
        let x = Tensor::ones(Shape::d2(1, 6));
        // current = 0.3 per neuron; theta 0.4, beta 0.6:
        // u1=0.3 (no), u2=0.48 (fire), ...
        let s1 = l.forward_step(&x);
        assert_eq!(s1.sum(), 0.0);
        let s2 = l.forward_step(&x);
        assert_eq!(s2.sum(), 4.0);
    }

    #[test]
    fn backward_end_to_end_grad_flows() {
        let mut l = layer();
        l.begin_sequence(true);
        let x = Tensor::from_fn(Shape::d2(2, 6), |i| (i % 2) as f32);
        let t_count = 3;
        let mut out_shape = None;
        for _ in 0..t_count {
            out_shape = Some(l.forward_step(&x).shape());
        }
        let g = Tensor::ones(out_shape.unwrap());
        for t in (0..t_count).rev() {
            let gi = l.backward_step(t, &g);
            assert_eq!(gi.shape(), x.shape());
        }
        assert!(l.grad_weight.sq_norm() > 0.0);
    }

    #[test]
    fn numeric_gradient_single_step() {
        // One timestep, loss = Σ over surrogate-smoothed spikes is not
        // accessible (forward is a hard step), so instead check the
        // *weight* gradient against the surrogate-defined chain rule:
        // dL/dW = g'(u-θ)·x for dL/ds = 1 and a single neuron.
        let lif = LifConfig {
            beta: 0.0,
            theta: 0.5,
            surrogate: Surrogate::FastSigmoid { k: 2.0 },
            ..LifConfig::paper_default()
        };
        let mut l = SpikingDense::new("n", 2, 1, lif, 0);
        l.weight = Tensor::from_vec(Shape::d2(1, 2), vec![0.3, 0.4]).unwrap();
        l.begin_sequence(true);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 0.5]).unwrap();
        l.forward_step(&x);
        let g = Tensor::ones(Shape::d2(1, 1));
        let _ = l.backward_step(0, &g);
        // u = 0.3 + 0.2 = 0.5; u_c = 0.0; g' = 1.0.
        assert!((l.grad_weight.as_slice()[0] - 1.0).abs() < 1e-6);
        assert!((l.grad_weight.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!((l.grad_bias.as_slice()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn temporal_credit_assignment() {
        // With beta > 0 and detached reset, a gradient injected at the
        // last timestep must reach the weight gradient through earlier
        // membrane contributions: compare T=1 vs T=3 at equal final
        // grad.
        let lif = LifConfig {
            beta: 0.8,
            theta: 10.0, // never fires; pure integrator
            surrogate: Surrogate::FastSigmoid { k: 0.0 },
            ..LifConfig::paper_default()
        };
        // k=0 gives g'=1 everywhere, making the math exact.
        let grad_for = |steps: usize| -> f32 {
            let mut l = SpikingDense::new("n", 1, 1, lif, 0);
            l.weight = Tensor::from_vec(Shape::d2(1, 1), vec![0.1]).unwrap();
            l.begin_sequence(true);
            let x = Tensor::ones(Shape::d2(1, 1));
            for _ in 0..steps {
                l.forward_step(&x);
            }
            // Gradient only on the final spike output.
            let g1 = Tensor::ones(Shape::d2(1, 1));
            let g0 = Tensor::zeros(Shape::d2(1, 1));
            for t in (0..steps).rev() {
                let g = if t == steps - 1 { &g1 } else { &g0 };
                let _ = l.backward_step(t, g);
            }
            l.grad_weight.as_slice()[0]
        };
        let g1 = grad_for(1);
        let g3 = grad_for(3);
        // T=1: dW = 1·x = 1. T=3: dW = (1 + 0.8 + 0.64)·x = 2.44.
        assert!((g1 - 1.0).abs() < 1e-5, "{g1}");
        assert!((g3 - 2.44).abs() < 1e-4, "{g3}");
    }
}
