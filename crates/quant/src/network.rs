//! The integer-only inference runtime for quantized artifacts.
//!
//! [`QuantNetwork`] executes a validated [`QuantizedSnapshot`]:
//! activations are `u8` (level-coded input on the first layer, binary
//! spikes after), weights `i8`, accumulators `i32`, membranes
//! Q-format `i32`. The input is quantized **once per request**; after
//! that the hot loop performs no f32 arithmetic at all — the multiply
//! path is integer end-to-end, so there is no silent f32 fallback to
//! mask quantization error or break cross-platform determinism.
//!
//! Every kernel in the loop is exact integer arithmetic with
//! order-independent sums, so outputs are bit-identical across thread
//! counts and across the dense/event convolution routes.
//!
//! **Once per batch versus per timestep.** Inputs are direct-coded:
//! the same quantized frame is presented at every timestep. Every
//! stage before the first spiking stage (pools and flattens of the
//! input; none in the paper topology) therefore produces the same
//! output at every step, and the first spiking stage (conv1) the same
//! i32 accumulators. Those run once, at `t = 0`, and stay in their
//! buffers. So does the first spiking stage's requantize: at `t = 0`
//! its accumulators are rescaled in place, and from `t = 1` on only
//! the bias add and the LIF step, which depend on the membrane state,
//! run for it. Every later stage reads spikes that change with time
//! and runs in full every step (accumulate, requantize in place,
//! LIF). The reuse is exact, not an approximation: the skipped work
//! would recompute the same integers from the same inputs.
//!
//! The requantize and LIF passes walk whole rows: one channel plane of
//! one item for a conv stage (its rescale and bias loaded once per
//! row), one item for a dense stage (one pair per neuron). Both are
//! row kernels shaped for the autovectorizer: [`Rescale::apply_row`]
//! and [`FixedLif::step_row_certified`], whose branch-free LIF takes
//! the previous spike and the reset mode as integer masks. Max pooling
//! is [`snn_tensor::pool::maxpool_into`], the function the f32 network
//! uses too; at the paper's 2×2 / stride-2 shape it pools `u8` a row
//! pair at a time in order-free lane blocks (an equal `u8` maximum is
//! the same bits wherever it came from).
//!
//! **Certified LIF steps.** The LIF kernel adds on wrapping `i32`
//! lanes, exact only while [`FixedLif::certify`] accepts magnitude
//! bounds on the stage's membranes, currents and biases. Each spiking
//! stage keeps the three bounds:
//!
//! * the bias bound is measured once, when the network is built;
//! * the current bound is returned by the requantize pass that already
//!   runs (once per batch for the first spiking stage, every step for
//!   the others);
//! * the membrane bound is 0 at the start of every batch (the
//!   membranes are), and each certified step replaces it with the
//!   bound `certify` returns.
//!
//! That propagated bound grows every step, so when it fails, one OR
//! scan of the stage's membranes re-measures it. Only if the measured
//! bound fails too does the step fall back to [`FixedLif::step_row`],
//! which certifies each row on its own bounds or runs
//! [`FixedLif::step`] one neuron at a time. [`QuantNetwork::lif_steps`]
//! counts which of the three each stage step took.

use std::sync::atomic::{AtomicU32, Ordering};

use snn_tensor::conv::Conv2dGeometry;
use snn_tensor::par;
use snn_tensor::pool::{maxpool_into, Pool2dGeometry};
use snn_tensor::qmat::{qconv2d_forward_routed, qlinear_into, transpose_i8, QConvScratch};

use crate::error::QuantError;
use crate::fixed::{magnitude_bound, FixedLif, Rescale};
use crate::snapshot::{QuantStage, QuantizedSnapshot};

/// Static description of one runtime stage (for engines that report
/// per-layer firing statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct StageMeta {
    /// Layer name from the artifact.
    pub name: String,
    /// Activation values per batch item at this stage's output.
    pub item_len: usize,
    /// Whether the stage emits spikes (conv/dense).
    pub spiking: bool,
}

/// How the LIF steps of the last batch were certified: one count per
/// spiking stage per timestep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifSteps {
    /// Certified by the membrane bound carried from the previous step.
    pub propagated: u64,
    /// Certified after a scan of the stage's membranes re-measured
    /// their bound.
    pub remeasured: u64,
    /// Not certified: each row went through [`FixedLif::step_row`].
    pub fallback: u64,
}

/// One executable stage: quantized parameters plus reusable batch
/// state.
enum RunStage {
    Spiking(Box<Synapses>, Neurons),
    Pool { geom: Pool2dGeometry },
    Flatten,
}

/// The integer multiply-accumulate of a spiking stage.
enum Synapses {
    Conv { geom: Conv2dGeometry, w: Vec<i8>, wt: Vec<i8>, scratch: QConvScratch },
    Dense { wt: Vec<i8>, in_len: usize, out_n: usize },
}

impl Synapses {
    /// Overwrites every accumulator in `acc` (`[n, item_len]`) with
    /// the raw i32 sums over `x`.
    fn accumulate(&mut self, x: &[u8], n: usize, acc: &mut [i32]) {
        match self {
            Synapses::Conv { geom, w, wt, scratch } => {
                qconv2d_forward_routed(geom, x, n, w, wt, acc, scratch);
            }
            Synapses::Dense { wt, in_len, out_n } => qlinear_into(x, wt, acc, n, *in_len, *out_n),
        }
    }
}

/// The neurons of a spiking stage: per-channel requantize, bias and
/// fixed-point LIF over the stage's `[n, item_len]` accumulators.
///
/// Both passes walk rows of `row` neurons, and a row reads `span`
/// consecutive (rescale, bias) entries: one shared by the row, or
/// one per neuron. A conv row is one channel plane of one item
/// (`span` 1); a dense row is one item (`span` = `row`, each neuron
/// its own channel). So the kernels run on whole rows, loading each
/// parameter once.
///
/// The three `*_bound`s are the stage-wide magnitude bounds that
/// [`FixedLif::certify`] takes (see the module docs).
struct Neurons {
    bias_q: Vec<i32>,
    rescale: Vec<Rescale>,
    lif: FixedLif,
    row: usize,
    span: usize,
    bias_bound: u32,
    current_bound: u32,
    mem_bound: u32,
    /// The synapses' sums, rescaled in place by [`Neurons::requantize`]
    /// into the Q-format current before bias.
    acc: Vec<i32>,
    mem: Vec<i32>,
}

impl Neurons {
    fn new(bias_q: &[i32], rescale: &[Rescale], lif: FixedLif, row: usize, span: usize) -> Self {
        Neurons {
            bias_q: bias_q.to_vec(),
            rescale: rescale.to_vec(),
            lif,
            row,
            span,
            bias_bound: magnitude_bound(bias_q),
            current_bound: 0,
            mem_bound: 0,
            acc: Vec::new(),
            mem: Vec::new(),
        }
    }

    /// Row `r`'s `span` entries in the parameter vectors.
    fn params(span: usize, channels: usize, r: usize) -> std::ops::Range<usize> {
        let first = r * span % channels;
        first..first + span
    }

    /// Rescales every accumulator in place with its channel's
    /// [`Rescale`], and keeps the currents' magnitude bound.
    fn requantize(&mut self) {
        let Neurons { rescale, row, span, acc, current_bound, .. } = self;
        let (row, span) = (*row, *span);
        // Relaxed suffices: the workers' scope joins before
        // `into_inner` reads the OR.
        let bound = AtomicU32::new(0);
        par::for_each_block(acc, row, par::min_granules_for(4 * row), |r0, rows| {
            let mut block = 0;
            for (r, arow) in (r0..).zip(rows.chunks_exact_mut(row)) {
                block |= match &rescale[Self::params(span, rescale.len(), r)] {
                    [shared] => shared.apply_row(arow),
                    own => Rescale::apply_zip(own, arow),
                };
            }
            bound.fetch_or(block, Ordering::Relaxed);
        });
        *current_bound = bound.into_inner();
    }

    /// One timestep: bias + LIF over the requantized accumulators.
    /// `out` enters holding the previous timestep's spikes and leaves
    /// holding this timestep's. Counts in `steps` how the step was
    /// certified.
    ///
    /// Elementwise (each neuron touches only its own current,
    /// membrane and previous spike), so splitting rows across workers
    /// is bit-exact with the serial loop.
    fn step(&mut self, out: &mut [u8], steps: &mut LifSteps) {
        let Neurons { bias_q, lif, row, span, bias_bound, current_bound, mem_bound, acc, mem, .. } =
            self;
        let (row, span) = (*row, *span);
        let certify = |mem: u32| lif.certify(mem, *current_bound, *bias_bound);
        let propagated = certify(*mem_bound);
        let bound = propagated.or_else(|| certify(magnitude_bound(mem)));
        *match (propagated, bound) {
            (Some(_), _) => &mut steps.propagated,
            (None, Some(_)) => &mut steps.remeasured,
            (None, None) => &mut steps.fallback,
        } += 1;
        // After a fallback step only the clamp bounds the membranes.
        *mem_bound = bound.unwrap_or(1 << 31);
        let min_rows = par::min_granules_for(8 * row);
        par::for_each_block2(mem, row, out, row, min_rows, |r0, mrows, orows| {
            let rows = mrows.chunks_exact_mut(row).zip(orows.chunks_exact_mut(row));
            let currents = acc[r0 * row..].chunks_exact(row);
            for (r, ((mrow, orow), arow)) in (r0..).zip(rows.zip(currents)) {
                let bias = &bias_q[Self::params(span, bias_q.len(), r)];
                if bound.is_some() {
                    lif.step_row_certified(arow, bias, mrow, orow);
                } else {
                    lif.step_row(arow, bias, mrow, orow);
                }
            }
        });
    }
}

/// An executable quantized network.
///
/// Owns all scratch and state buffers; like the f32 serve engine it
/// is intended for single-owner use (one engine per worker), not
/// shared access.
pub struct QuantNetwork {
    input_item_dims: Vec<usize>,
    classes: usize,
    input_max: f32,
    input_levels: i32,
    bits: u32,
    stages: Vec<RunStage>,
    meta: Vec<StageMeta>,
    /// Index of the first spiking stage (`stages.len()` if none).
    /// Every stage before it is a pool or flatten of the input, so
    /// under direct coding their outputs and this stage's
    /// accumulators are the same at every timestep.
    first_spiking: usize,
    /// Per-stage output activations, `[n, item_len]` each; kept
    /// outside [`RunStage`] so stage `i` can read stage `i-1`'s
    /// output while writing its own. The previous timestep's content
    /// doubles as the LIF reset's "previous spikes".
    outs: Vec<Vec<u8>>,
    qinput: Vec<u8>,
    lif_steps: LifSteps,
}

impl QuantNetwork {
    /// Builds the runtime from a validated artifact.
    ///
    /// # Errors
    ///
    /// Returns whatever [`QuantizedSnapshot::validate`] finds.
    pub fn from_snapshot(snap: &QuantizedSnapshot) -> Result<Self, QuantError> {
        snap.validate()?;
        let mut stages = Vec::with_capacity(snap.stages.len());
        let mut meta = Vec::with_capacity(snap.stages.len());
        for stage in &snap.stages {
            match stage {
                QuantStage::Conv { name, geom, weight, bias_q, rescale, lif } => {
                    let wt = transpose_i8(&weight.values, weight.channels, weight.per_channel);
                    meta.push(StageMeta {
                        name: name.clone(),
                        item_len: geom.out_channels * geom.out_h() * geom.out_w(),
                        spiking: true,
                    });
                    stages.push(RunStage::Spiking(
                        Box::new(Synapses::Conv {
                            geom: *geom,
                            w: weight.values.clone(),
                            wt,
                            scratch: QConvScratch::new(),
                        }),
                        Neurons::new(bias_q, rescale, *lif, geom.out_h() * geom.out_w(), 1),
                    ));
                }
                QuantStage::Dense { name, weight, bias_q, rescale, lif } => {
                    let wt = transpose_i8(&weight.values, weight.channels, weight.per_channel);
                    meta.push(StageMeta {
                        name: name.clone(),
                        item_len: weight.channels,
                        spiking: true,
                    });
                    stages.push(RunStage::Spiking(
                        Box::new(Synapses::Dense {
                            wt,
                            in_len: weight.per_channel,
                            out_n: weight.channels,
                        }),
                        Neurons::new(bias_q, rescale, *lif, weight.channels, weight.channels),
                    ));
                }
                QuantStage::Pool { name, geom } => {
                    meta.push(StageMeta {
                        name: name.clone(),
                        item_len: geom.channels * geom.out_h() * geom.out_w(),
                        spiking: false,
                    });
                    stages.push(RunStage::Pool { geom: *geom });
                }
                QuantStage::Flatten { name, len } => {
                    meta.push(StageMeta { name: name.clone(), item_len: *len, spiking: false });
                    stages.push(RunStage::Flatten);
                }
            }
        }
        let outs = vec![Vec::new(); stages.len()];
        let first_spiking = meta.iter().position(|m| m.spiking).unwrap_or(meta.len());
        Ok(QuantNetwork {
            input_item_dims: snap.input_item_dims.clone(),
            classes: snap.classes,
            input_max: snap.input_max,
            input_levels: snap.input_levels,
            bits: snap.bits,
            stages,
            meta,
            first_spiking,
            outs,
            qinput: Vec::new(),
            lif_steps: LifSteps::default(),
        })
    }

    /// Flat input length per item.
    pub fn input_len(&self) -> usize {
        self.input_item_dims.iter().product()
    }

    /// Output class count.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Weight bit width of the underlying artifact.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Static stage descriptions, in execution order.
    pub fn stage_meta(&self) -> &[StageMeta] {
        &self.meta
    }

    /// How the last batch's LIF steps were certified.
    pub fn lif_steps(&self) -> LifSteps {
        self.lif_steps
    }

    /// Runs `items` for `timesteps` and returns per-item spike counts
    /// `[n, classes]`, invoking `observer(stage_index, name,
    /// activations, n)` after every stage of every timestep (the
    /// activation slice is `[n, item_len]`).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Calibration`]-style input errors for
    /// wrong item lengths or non-finite values; inference itself
    /// cannot fail.
    pub fn infer_batch_observed(
        &mut self,
        items: &[Vec<f32>],
        timesteps: usize,
        mut observer: impl FnMut(usize, &str, &[u8], usize),
    ) -> Result<Vec<u32>, QuantError> {
        let n = items.len();
        let item_len = self.input_len();
        if timesteps == 0 {
            return Err(QuantError::Calibration("zero timesteps".into()));
        }
        self.quantize_input(items, item_len)?;
        // Reset batch state: membranes (and their bound) and previous
        // spikes (the stage output buffers) to zero. The accumulators
        // are only sized: the synapse kernels overwrite every one at
        // t = 0, and the requantize pass then sets the current bound.
        for (stage, (out, meta)) in
            self.stages.iter_mut().zip(self.outs.iter_mut().zip(self.meta.iter()))
        {
            out.clear();
            out.resize(n * meta.item_len, 0);
            if let RunStage::Spiking(_, neurons) = stage {
                neurons.mem.clear();
                neurons.mem.resize(n * meta.item_len, 0);
                neurons.mem_bound = 0;
                neurons.acc.resize(n * meta.item_len, 0);
            }
        }
        self.lif_steps = LifSteps::default();
        let mut counts = vec![0u32; n * self.classes];
        let last = self.stages.len() - 1;
        for t in 0..timesteps {
            for i in 0..self.stages.len() {
                // Time-invariant work runs at t = 0 only: the static
                // prefix's outputs and the first spiking stage's
                // requantized accumulators stay in their buffers for
                // later steps.
                let fresh = t == 0 || i > self.first_spiking;
                let (done, rest) = self.outs.split_at_mut(i);
                let x: &[u8] = if i == 0 { &self.qinput } else { &done[i - 1] };
                let out = &mut rest[0];
                match &mut self.stages[i] {
                    RunStage::Spiking(synapses, neurons) => {
                        if fresh {
                            synapses.accumulate(x, n, &mut neurons.acc);
                            neurons.requantize();
                        }
                        neurons.step(out, &mut self.lif_steps);
                    }
                    RunStage::Pool { geom } if fresh => maxpool_into(geom, x, out, &mut []),
                    RunStage::Flatten if fresh => out.copy_from_slice(x),
                    RunStage::Pool { .. } | RunStage::Flatten => {}
                }
                observer(i, &self.meta[i].name, out, n);
                if i == last {
                    for (c, &s) in counts.iter_mut().zip(out.iter()) {
                        *c += s as u32;
                    }
                }
            }
        }
        Ok(counts)
    }

    /// [`QuantNetwork::infer_batch_observed`] without the observer.
    ///
    /// # Errors
    ///
    /// As [`QuantNetwork::infer_batch_observed`].
    pub fn infer_batch(
        &mut self,
        items: &[Vec<f32>],
        timesteps: usize,
    ) -> Result<Vec<u32>, QuantError> {
        self.infer_batch_observed(items, timesteps, |_, _, _, _| {})
    }

    /// Classification accuracy over a labeled set, batched
    /// internally.
    ///
    /// # Errors
    ///
    /// Input errors as [`QuantNetwork::infer_batch_observed`], plus a
    /// labels/items length mismatch.
    pub fn evaluate_accuracy(
        &mut self,
        items: &[Vec<f32>],
        labels: &[usize],
        timesteps: usize,
    ) -> Result<f64, QuantError> {
        if items.len() != labels.len() {
            return Err(QuantError::Calibration(format!(
                "{} items but {} labels",
                items.len(),
                labels.len()
            )));
        }
        if items.is_empty() {
            return Err(QuantError::Calibration("empty evaluation set".into()));
        }
        let classes = self.classes;
        let mut correct = 0usize;
        for (chunk, lchunk) in items.chunks(32).zip(labels.chunks(32)) {
            let counts = self.infer_batch(chunk, timesteps)?;
            for (row, &label) in lchunk.iter().enumerate() {
                if classify_counts(&counts[row * classes..(row + 1) * classes]) == label {
                    correct += 1;
                }
            }
        }
        Ok(correct as f64 / items.len() as f64)
    }

    /// Quantizes the f32 input batch to `[0, input_levels]` u8 with
    /// the calibrated step (values clamp into `[0, input_max]` — the
    /// documented input saturation semantics).
    fn quantize_input(&mut self, items: &[Vec<f32>], item_len: usize) -> Result<(), QuantError> {
        self.qinput.clear();
        self.qinput.reserve(items.len() * item_len);
        let inv_step = self.input_levels as f32 / self.input_max;
        for (i, item) in items.iter().enumerate() {
            if item.len() != item_len {
                return Err(QuantError::Calibration(format!(
                    "item {i} has {} values, the network expects {item_len}",
                    item.len()
                )));
            }
            for &v in item {
                if !v.is_finite() {
                    return Err(QuantError::Calibration(format!(
                        "item {i} contains non-finite value {v}"
                    )));
                }
                let q = (v * inv_step).round();
                self.qinput.push(q.clamp(0.0, self.input_levels as f32) as u8);
            }
        }
        Ok(())
    }
}

/// Argmax with lowest-index tie-breaking (matches the f32 engine's
/// `Tensor::argmax_row` semantics).
pub fn classify_counts(counts: &[u32]) -> usize {
    let mut best = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate;
    use crate::snapshot::quantize_snapshot;
    use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
    use snn_tensor::dispatch::with_event_density_threshold;

    fn build() -> (QuantNetwork, Vec<Vec<f32>>) {
        let net = SpikingNetwork::builder(snn_tensor::Shape::d3(1, 8, 8), 5)
            .conv(3, 3, 1, 1, LifConfig::paper_default())
            .unwrap()
            .maxpool(2)
            .unwrap()
            .flatten()
            .unwrap()
            .dense(4, LifConfig::paper_default())
            .unwrap()
            .build()
            .expect("network");
        let snap = NetworkSnapshot::from_network(&net);
        let items: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..64).map(|j| ((i * 64 + j) % 9) as f32 / 8.0).collect())
            .collect();
        let cal = calibrate(&snap, &items, 4).unwrap();
        let q = quantize_snapshot(&snap, &cal, 8).unwrap();
        (QuantNetwork::from_snapshot(&q).unwrap(), items)
    }

    #[test]
    fn routes_agree_bitwise() {
        let (mut net, items) = build();
        let dense = with_event_density_threshold(-1.0, || {
            net.infer_batch(&items, 4).unwrap()
        });
        let event = with_event_density_threshold(1.0, || {
            net.infer_batch(&items, 4).unwrap()
        });
        assert_eq!(dense, event, "dense and event routes must be bit-identical");
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let (mut net, items) = build();
        let one = par::with_num_threads(1, || net.infer_batch(&items, 4).unwrap());
        let four = par::with_num_threads(4, || net.infer_batch(&items, 4).unwrap());
        assert_eq!(one, four, "outputs must not depend on the worker count");
    }

    #[test]
    fn batch_equals_serial() {
        let (mut net, items) = build();
        let batched = net.infer_batch(&items, 3).unwrap();
        for (i, item) in items.iter().enumerate() {
            let single = net.infer_batch(std::slice::from_ref(item), 3).unwrap();
            assert_eq!(&batched[i * 4..(i + 1) * 4], &single[..], "item {i}");
        }
    }

    #[test]
    fn observer_sees_every_stage_and_spikes_stay_binary() {
        let (mut net, items) = build();
        let mut seen = Vec::new();
        net.infer_batch_observed(&items[..2], 2, |i, name, acts, n| {
            seen.push((i, name.to_string()));
            assert_eq!(acts.len() % n, 0);
            assert!(acts.iter().all(|&v| v <= 1), "post-conv activations must be binary spikes");
        })
        .unwrap();
        assert_eq!(seen.len(), 2 * net.stage_meta().len());
    }

    #[test]
    fn input_errors_are_typed() {
        let (mut net, _) = build();
        let short = vec![vec![0.0f32; 3]];
        assert!(matches!(net.infer_batch(&short, 2), Err(QuantError::Calibration(_))));
        let nan = vec![vec![f32::NAN; 64]];
        assert!(matches!(net.infer_batch(&nan, 2), Err(QuantError::Calibration(_))));
        let ok = vec![vec![0.4f32; 64]];
        assert!(matches!(net.infer_batch(&ok, 0), Err(QuantError::Calibration(_))));
    }

    #[test]
    fn classify_ties_break_low() {
        assert_eq!(classify_counts(&[3, 5, 5, 1]), 1);
        assert_eq!(classify_counts(&[0, 0, 0]), 0);
    }
}
