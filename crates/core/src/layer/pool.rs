//! Max-pooling layer over spike maps.

use snn_tensor::pool::{maxpool2d_backward, maxpool2d_forward, Pool2dGeometry};
use snn_tensor::{Shape, Tensor};

use super::LayerActivity;

/// Spatial max pooling.
///
/// On binary spike maps this computes a logical OR over each window,
/// so the output stays binary — the property that lets the hardware
/// pipeline treat pooled maps as spike streams.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    /// Layer name, e.g. `pool1`.
    pub name: String,
    /// Pooling geometry (per batch item).
    pub geom: Pool2dGeometry,

    train: bool,
    cached_argmax: Vec<Vec<u32>>,
    cached_batch: Vec<usize>,
    total_spikes: f64,
    neuron_steps: f64,
    /// Nonzero outputs of each batch item at the last step.
    step_spikes: Vec<u32>,
}

impl MaxPool2d {
    /// Creates the layer.
    pub fn new(name: impl Into<String>, geom: Pool2dGeometry) -> Self {
        MaxPool2d {
            name: name.into(),
            geom,
            train: false,
            cached_argmax: Vec::new(),
            cached_batch: Vec::new(),
            total_spikes: 0.0,
            neuron_steps: 0.0,
            step_spikes: Vec::new(),
        }
    }

    /// Shape of one output item `[C, out_h, out_w]`.
    pub fn output_item_shape(&self) -> Shape {
        self.geom.output_item_shape()
    }

    pub(crate) fn begin_sequence(&mut self, train: bool) {
        self.train = train;
        self.cached_argmax.clear();
        self.cached_batch.clear();
        self.total_spikes = 0.0;
        self.neuron_steps = 0.0;
        self.step_spikes.clear();
    }

    pub(crate) fn forward_step(&mut self, input: &Tensor) -> Tensor {
        // Only backward reads the argmax, so inference skips it.
        let f = maxpool2d_forward(&self.geom, input, self.train)
            .expect("pool geometry validated");
        // On spike maps the nonzero count is the spike count; on an
        // analog input (a pool placed first) it counts nonzero
        // outputs, not their intensity.
        self.total_spikes += super::count_step_spikes(&f.output, &mut self.step_spikes);
        self.neuron_steps += f.output.len() as f64;
        if self.train {
            self.cached_argmax.push(f.argmax);
            self.cached_batch.push(input.shape().dim(0));
        }
        f.output
    }

    pub(crate) fn backward_step(&mut self, t: usize, grad_output: &Tensor) -> Tensor {
        assert!(self.train, "backward_step requires a training-mode forward pass");
        maxpool2d_backward(&self.geom, self.cached_batch[t], &self.cached_argmax[t], grad_output)
            .expect("pool shapes validated in forward")
    }

    pub(crate) fn step_spikes(&self) -> &[u32] {
        &self.step_spikes
    }

    pub(crate) fn activity(&self) -> LayerActivity {
        LayerActivity {
            name: self.name.clone(),
            neurons: self.geom.channels * self.geom.out_h() * self.geom.out_w(),
            total_spikes: self.total_spikes,
            neuron_steps: self.neuron_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_spikes_stay_binary() {
        let geom = Pool2dGeometry::new(2, 2, 2, 4, 4).unwrap();
        let mut l = MaxPool2d::new("pool_t", geom);
        l.begin_sequence(false);
        let x = Tensor::from_fn(Shape::d4(1, 2, 4, 4), |i| ((i / 3) % 2) as f32);
        let y = l.forward_step(&x);
        assert_eq!(y.shape(), Shape::d4(1, 2, 2, 2));
        assert!(y.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    /// A pool placed first sees analog input: it counts nonzero
    /// outputs, not their intensity. On a binary map the two agree.
    #[test]
    fn pool_first_network_counts_nonzero_outputs() {
        let lif = crate::LifConfig::paper_default();
        let mut net = crate::SpikingNetwork::builder(Shape::d3(1, 4, 4), 3)
            .maxpool(2)
            .unwrap()
            .flatten()
            .unwrap()
            .dense(2, lif)
            .unwrap()
            .build()
            .unwrap();
        // Item 0's four windows peak at 0.25, 0.5, 0.0 and 0.75; item
        // 1's only nonzero input is negative, so its windows peak at 0.
        let mut x = vec![0.0f32; 32];
        x[1] = 0.25;
        x[6] = 0.5;
        x[15] = 0.75;
        x[16] = -0.5;
        let analog = Tensor::from_vec(Shape::d4(2, 1, 4, 4), x).unwrap();
        let mut pool_steps = Vec::new();
        net.run_inference_observed(&[analog.clone(), analog.clone()], |_, name, _, spikes| {
            if name == "pool1" {
                pool_steps.push(spikes.to_vec());
            }
        });
        assert_eq!(pool_steps, [[3, 0], [3, 0]]);
        assert_eq!(net.activities()[0].total_spikes, 6.0, "not the intensity sum 3.0");

        let binary = analog.map(|v| f32::from(v > 0.0));
        net.run_inference(std::slice::from_ref(&binary));
        let geom = Pool2dGeometry::new(1, 2, 2, 4, 4).unwrap();
        let pooled = maxpool2d_forward(&geom, &binary, false).unwrap().output;
        assert_eq!(net.activities()[0].total_spikes, pooled.sum());
        assert_eq!(pooled.sum(), 3.0);
    }

    #[test]
    fn backward_routes_per_timestep() {
        let geom = Pool2dGeometry::new(1, 2, 2, 2, 2).unwrap();
        let mut l = MaxPool2d::new("pool_t", geom);
        l.begin_sequence(true);
        // t=0: max at index 3; t=1: max at index 0.
        let x0 = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![0., 0., 0., 1.]).unwrap();
        let x1 = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1., 0., 0., 0.]).unwrap();
        l.forward_step(&x0);
        l.forward_step(&x1);
        let g = Tensor::full(Shape::d4(1, 1, 1, 1), 5.0);
        let d1 = l.backward_step(1, &g);
        let d0 = l.backward_step(0, &g);
        assert_eq!(d1.as_slice(), &[5., 0., 0., 0.]);
        assert_eq!(d0.as_slice(), &[0., 0., 0., 5.]);
    }

    #[test]
    fn no_params() {
        let geom = Pool2dGeometry::new(1, 2, 2, 4, 4).unwrap();
        let mut l = super::super::Layer::MaxPool2d(MaxPool2d::new("p", geom));
        assert!(l.params_mut().is_empty());
        assert_eq!(l.param_count(), 0);
    }
}
