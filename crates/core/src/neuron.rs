//! The leaky integrate-and-fire (LIF) neuron model.
//!
//! Implements the paper's Equations 1–2 exactly:
//!
//! ```text
//! u_j[t+1] = β·u_j[t] + Σ_i w_ij·s_i[t] − s_j[t]·θ     (Eq. 1)
//! s_j[t]   = 1 if u_j[t] > θ else 0                     (Eq. 2)
//! ```
//!
//! i.e. reset-by-subtraction driven by the neuron's *previous* output
//! spike. A hard-reset variant (`u ← 0` after a spike) is provided for
//! the reset-mode ablation.

use serde::{Deserialize, Serialize};

use snn_tensor::spike::TouchMask;
use snn_tensor::{par, Tensor};

use crate::surrogate::Surrogate;

/// How the membrane potential is reset after a spike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ResetMode {
    /// Reset by subtraction: `u ← u − θ` (the paper's Eq. 1).
    #[default]
    Subtract,
    /// Reset to zero: `u ← 0` after a spike.
    Zero,
}

/// LIF neuron hyperparameters.
///
/// The two knobs the paper cross-sweeps in Figure 2:
///
/// * `beta` — membrane leak/decay in `[0, 1]`; larger retains more
///   history and fires more readily.
/// * `theta` — firing threshold; smaller fires more readily.
///
/// # Examples
///
/// ```
/// use snn_core::{LifConfig, Surrogate};
///
/// // The paper's default training configuration.
/// let default = LifConfig::paper_default();
/// assert_eq!((default.beta, default.theta), (0.25, 1.0));
///
/// // The paper's latency-optimal fine-tuned point.
/// let tuned = LifConfig { beta: 0.5, theta: 1.5, ..default };
/// # let _ = tuned;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifConfig {
    /// Membrane decay factor β ∈ [0, 1].
    pub beta: f32,
    /// Firing threshold θ > 0.
    pub theta: f32,
    /// Reset mechanism.
    pub reset: ResetMode,
    /// Whether the reset term is detached from the gradient graph
    /// (snnTorch's default behaviour). When `true`, BPTT treats the
    /// reset contribution `−s[t]·θ` as a constant.
    pub detach_reset: bool,
    /// Surrogate used for `∂s/∂u` during backpropagation.
    pub surrogate: Surrogate,
}

impl LifConfig {
    /// The paper's stated defaults: `β = 0.25`, `θ = 1.0`, soft reset,
    /// detached reset gradient, fast-sigmoid surrogate with `k = 0.25`.
    pub fn paper_default() -> Self {
        LifConfig {
            beta: 0.25,
            theta: 1.0,
            reset: ResetMode::Subtract,
            detach_reset: true,
            surrogate: Surrogate::default(),
        }
    }

    /// The paper's fine-tuned configuration (`β = 0.5`, `θ = 1.5`)
    /// that cut latency 48% for 2.88% accuracy (Fig. 2 analysis).
    pub fn paper_latency_tuned() -> Self {
        LifConfig { beta: 0.5, theta: 1.5, ..Self::paper_default() }
    }

    /// The paper's efficiency-tuned configuration (`β = 0.7`,
    /// `θ = 1.5`) achieving 1.72× FPS/W over prior work.
    pub fn paper_efficiency_tuned() -> Self {
        LifConfig { beta: 0.7, theta: 1.5, ..Self::paper_default() }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field if `beta` is
    /// outside `[0, 1]`, `theta` is not positive, or either is not
    /// finite.
    pub fn validate(&self) -> Result<(), String> {
        if !self.beta.is_finite() || !(0.0..=1.0).contains(&self.beta) {
            return Err(format!("beta {} outside [0, 1]", self.beta));
        }
        if !self.theta.is_finite() || self.theta <= 0.0 {
            return Err(format!("theta {} must be positive", self.theta));
        }
        Ok(())
    }
}

impl Default for LifConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-timestep state of a population of LIF neurons (one batch).
///
/// Holds the membrane potentials and the previous output spikes needed
/// by Eq. 1's reset term.
#[derive(Debug, Clone)]
pub struct LifState {
    /// Membrane potentials `u[t]`.
    pub membrane: Tensor,
    /// Previous output spikes `s[t−1]` (zeros at t = 0).
    pub prev_spikes: Tensor,
}

impl LifState {
    /// Fresh state (zero potentials, no prior spikes) for activations
    /// of the given shape.
    pub fn new(shape: snn_tensor::Shape) -> Self {
        LifState { membrane: Tensor::zeros(shape), prev_spikes: Tensor::zeros(shape) }
    }
}

/// One LIF timestep over a whole activation tensor, updating `state`
/// in place.
///
/// Given the synaptic input current `input` (= `Σ w·s` from the
/// preceding linear operation), advances `state` to the new membrane
/// potential and output spikes per Eqs. 1–2 and returns the spikes
/// (a clone sharing `state.prev_spikes`' storage).
///
/// Both state tensors are written through [`Tensor::as_mut_slice`]:
/// free when the layer owns them alone, a copy-on-write detach when a
/// caller still holds a clone (the trainer's BPTT caches do), so a
/// cached `u[t]`/`s[t]` never changes under it.
///
/// # Panics
///
/// Panics if the tensor shapes disagree (programming error inside a
/// layer, not user input).
pub fn lif_step_in_place(cfg: &LifConfig, state: &mut LifState, input: &Tensor) -> Tensor {
    assert_eq!(state.membrane.shape(), input.shape(), "LIF state/input shape mismatch");
    assert_eq!(state.prev_spikes.shape(), input.shape(), "LIF state/input shape mismatch");
    let _span = snn_obs::span!("lif_step");
    let in_v = input.as_slice();
    if !in_v.is_empty() {
        let uv = state.membrane.as_mut_slice();
        let sv = state.prev_spikes.as_mut_slice();
        // Purely elementwise (~5 flops each), and each element reads
        // only its own previous value: any chunking is bitwise
        // identical to the serial loop, so thread count cannot change
        // results.
        par::for_each_block2(uv, 1, sv, 1, par::min_granules_for(5), |i0, ublock, sblock| {
            let in_block = &in_v[i0..i0 + ublock.len()];
            for ((uval, sval), &x) in ublock.iter_mut().zip(sblock.iter_mut()).zip(in_block) {
                let decayed = match cfg.reset {
                    ResetMode::Subtract => cfg.beta * *uval + x - *sval * cfg.theta,
                    ResetMode::Zero => cfg.beta * *uval * (1.0 - *sval) + x,
                };
                *uval = decayed;
                *sval = if decayed > cfg.theta { 1.0 } else { 0.0 };
            }
        });
    }
    state.prev_spikes.clone()
}

/// One LIF timestep that leaves `state` untouched: [`lif_step_in_place`]
/// on a copy-on-write clone of it.
///
/// Returns `(membrane_u_t, spikes_s_t)`.
///
/// # Panics
///
/// Panics if the tensor shapes disagree.
pub fn lif_step(cfg: &LifConfig, state: &LifState, input: &Tensor) -> (Tensor, Tensor) {
    let mut next = state.clone();
    let s = lif_step_in_place(cfg, &mut next, input);
    (next.membrane, s)
}

/// Event-driven LIF timestep: [`lif_step`] restricted to the neurons
/// that actually received synaptic input.
///
/// The input current of a conv layer on the event route is zero
/// everywhere outside the positions its [`TouchMask`] marks (plus
/// whole channels whose bias is nonzero). This variant exploits
/// that:
///
/// 1. **Decay pass** — a vectorized sweep over *all* neurons computes
///    the input-free recurrence. The reset/decay expression is
///    written with a literal `+ 0.0` where the dense kernel adds the
///    input, because the dense kernel's zero current is exactly
///    `+0.0` (a `+0.0`-seeded accumulation never yields `-0.0`), and
///    e.g. `β·u + 0.0 − s·θ` can differ bitwise from `β·u − s·θ`
///    when `β·u` is `-0.0`. With the literal term the two
///    expressions are the same IEEE-754 expression, hence identical.
/// 2. **Synaptic pass** — only touched positions (and every position
///    of nonzero-bias channels) are recomputed with the full
///    expression including the input current.
///
/// Both run fused in one sweep per batch item, so an item's membrane
/// block is still cache-hot when its fix-ups land.
///
/// The result is bitwise identical to [`lif_step`] whenever `touch`
/// covers every position where `input` is nonzero in a zero-bias
/// channel — which the event-route convolution guarantees by
/// construction. The synaptic work scales with the touched count, so
/// LIF cost falls with firing rate instead of staying flat.
///
/// `bias` is the per-channel bias of the preceding convolution
/// (`input` is `[items, channels, plane]` flattened, `touch` is
/// `[items, plane]`).
///
/// # Panics
///
/// Panics if the tensor shapes disagree with each other or with the
/// mask/bias decomposition.
pub fn lif_step_masked(
    cfg: &LifConfig,
    state: &LifState,
    input: &Tensor,
    touch: &TouchMask,
    bias: &Tensor,
) -> (Tensor, Tensor) {
    assert_eq!(state.membrane.shape(), input.shape(), "LIF state/input shape mismatch");
    let (items, plane) = (touch.items(), touch.plane());
    let channels = bias.len();
    assert_eq!(
        input.len(),
        items * channels * plane,
        "touch mask [{items}, {plane}] and {channels} bias channels do not tile the input"
    );
    let _span = snn_obs::span!("lif_step_masked");
    record_masked_step();
    let u_prev = state.membrane.as_slice();
    let s_prev = state.prev_spikes.as_slice();
    let in_v = input.as_slice();
    let bv = bias.as_slice();
    let mut u = Tensor::zeros(input.shape());
    let mut s = Tensor::zeros(input.shape());
    if in_v.is_empty() {
        return (u, s);
    }
    let item_elems = channels * plane;
    {
        let uv = u.as_mut_slice();
        let sv = s.as_mut_slice();
        // One fused pass per item: the input-free decay sweep, then
        // the full-recurrence fix-up at touched positions while the
        // item's membrane block is still cache-hot. Each element is
        // recomputed independently from the *previous* state, so
        // fix-up order cannot affect results; items split across
        // workers like any other batch dimension. Each worker gathers
        // an item's touched positions into an index list once and
        // replays it across channels — one mask scan per item, not
        // one per (item, channel), which is what makes the fix-up
        // cost scale with the touched count instead of the layer
        // size.
        let mut index_pool: Vec<Vec<u32>> = Vec::new();
        par::for_each_block2_with(
            uv,
            item_elems,
            sv,
            item_elems,
            par::min_granules_for(5 * item_elems),
            &mut index_pool,
            Vec::new,
            |idx: &mut Vec<u32>, item0, ublock, sblock| {
                let fix = |ub: &mut [f32], sb: &mut [f32], local: usize, global: usize| {
                    let decayed = match cfg.reset {
                        ResetMode::Subtract => {
                            cfg.beta * u_prev[global] + in_v[global] - s_prev[global] * cfg.theta
                        }
                        ResetMode::Zero => {
                            cfg.beta * u_prev[global] * (1.0 - s_prev[global]) + in_v[global]
                        }
                    };
                    ub[local] = decayed;
                    sb[local] = if decayed > cfg.theta { 1.0 } else { 0.0 };
                };
                for li in 0..ublock.len() / item_elems {
                    let lbase = li * item_elems;
                    let ibase = (item0 + li) * item_elems;
                    // Input-free decay (see the doc comment on the
                    // literal `+ 0.0`). Slice-and-zip so the sweep
                    // stays bounds-check-free and vectorizable.
                    {
                        let ub = &mut ublock[lbase..lbase + item_elems];
                        let sb = &mut sblock[lbase..lbase + item_elems];
                        let up = &u_prev[ibase..ibase + item_elems];
                        let sp = &s_prev[ibase..ibase + item_elems];
                        for ((uval, sval), (&upv, &spv)) in
                            ub.iter_mut().zip(sb.iter_mut()).zip(up.iter().zip(sp.iter()))
                        {
                            let decayed = match cfg.reset {
                                ResetMode::Subtract => cfg.beta * upv + 0.0 - spv * cfg.theta,
                                ResetMode::Zero => cfg.beta * upv * (1.0 - spv) + 0.0,
                            };
                            *uval = decayed;
                            *sval = if decayed > cfg.theta { 1.0 } else { 0.0 };
                        }
                    }
                    let tb = touch.item(item0 + li);
                    idx.clear();
                    idx.extend(
                        tb.iter().enumerate().filter(|&(_, &t)| t != 0).map(|(p, _)| p as u32),
                    );
                    for (c, &b) in bv.iter().enumerate() {
                        let local = lbase + c * plane;
                        let global = ibase + c * plane;
                        if b != 0.0 {
                            // Bias drives every neuron in the channel.
                            for pos in 0..plane {
                                fix(ublock, sblock, local + pos, global + pos);
                            }
                        } else {
                            for &pos in idx.iter() {
                                fix(ublock, sblock, local + pos as usize, global + pos as usize);
                            }
                        }
                    }
                }
            },
        );
    }
    (u, s)
}

/// Counts masked LIF steps in the global registry so the event
/// datapath's reach is visible in `/metrics` next to the conv route
/// counters.
fn record_masked_step() {
    use std::sync::{Arc, OnceLock};
    static MASKED: OnceLock<Arc<snn_obs::Counter>> = OnceLock::new();
    MASKED
        .get_or_init(|| {
            snn_obs::global().counter(
                "snn_core_lif_masked_steps_total",
                "LIF timesteps that used event-driven (masked) synaptic accumulation",
            )
        })
        .inc();
}

/// One BPTT backward timestep for a LIF population.
///
/// Arguments follow the reverse-time recurrence derived from Eq. 1–2
/// (see `DESIGN.md` §5):
///
/// * `grad_spikes` — `∂L/∂s[t]` accumulated from downstream layers.
/// * `carry_u` — `∂L/∂u[t+1]` flowing back from the next timestep
///   (zeros at `t = T−1`).
/// * `membrane` — the cached forward `u[t]`.
///
/// Returns `(grad_input, new_carry_u)` where `grad_input = ∂L/∂I[t]`
/// propagates into the preceding linear operation and `new_carry_u =
/// ∂L/∂u[t]` becomes the carry for timestep `t−1`.
///
/// With `detach_reset` (default), `∂u[t+1]/∂u[t] = β`; otherwise the
/// reset path adds `−θ·g'(u[t]−θ)` (soft reset) or multiplies the
/// carry by `(1 − s[t])` minus the spike-path term (hard reset).
pub fn lif_backward_step(
    cfg: &LifConfig,
    grad_spikes: &Tensor,
    carry_u: &Tensor,
    membrane: &Tensor,
    spikes: &Tensor,
) -> (Tensor, Tensor) {
    let gs = grad_spikes.as_slice();
    let cu = carry_u.as_slice();
    let uv = membrane.as_slice();
    let sv = spikes.as_slice();
    let mut grad_u = Tensor::zeros(membrane.shape());
    if !grad_u.is_empty() {
        let gu = grad_u.as_mut_slice();
        par::for_each_block(gu, 1, par::min_granules_for(10), |i0, block| {
            for (j, gval) in block.iter_mut().enumerate() {
                let i = i0 + j;
                let g_surr = cfg.surrogate.grad(uv[i] - cfg.theta);
                // Path 1: through this timestep's spike output.
                let mut g = gs[i] * g_surr;
                // Path 2: through u[t+1]'s dependence on u[t].
                let du_next_du = if cfg.detach_reset {
                    match cfg.reset {
                        ResetMode::Subtract => cfg.beta,
                        ResetMode::Zero => cfg.beta * (1.0 - sv[i]),
                    }
                } else {
                    match cfg.reset {
                        ResetMode::Subtract => cfg.beta - cfg.theta * g_surr,
                        ResetMode::Zero => {
                            cfg.beta * (1.0 - sv[i]) - cfg.beta * uv[i] * g_surr
                        }
                    }
                };
                g += cu[i] * du_next_du;
                *gval = g;
            }
        });
    }
    // ∂u[t]/∂I[t] = 1, so grad_input equals grad_u (the clone is an
    // O(1) refcount bump on the shared buffer).
    (grad_u.clone(), grad_u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_tensor::Shape;

    fn scalar(v: f32) -> Tensor {
        Tensor::full(Shape::d1(1), v)
    }

    #[test]
    fn integrates_and_fires() {
        let cfg = LifConfig { beta: 0.5, theta: 1.0, ..LifConfig::paper_default() };
        let mut state = LifState::new(Shape::d1(1));
        // Constant input 0.6: u = 0.6, 0.9, 1.05 (fires), ...
        let expected_u = [0.6f32, 0.9, 1.05];
        let expected_s = [0.0f32, 0.0, 1.0];
        for t in 0..3 {
            let (u, s) = lif_step(&cfg, &state, &scalar(0.6));
            assert!((u.as_slice()[0] - expected_u[t]).abs() < 1e-6, "t={t}");
            assert_eq!(s.as_slice()[0], expected_s[t], "t={t}");
            state = LifState { membrane: u, prev_spikes: s };
        }
    }

    #[test]
    fn soft_reset_subtracts_theta() {
        let cfg = LifConfig { beta: 1.0, theta: 1.0, ..LifConfig::paper_default() };
        let mut state = LifState::new(Shape::d1(1));
        // Big input fires immediately; the next step subtracts theta.
        let (u1, s1) = lif_step(&cfg, &state, &scalar(2.5));
        assert_eq!(s1.as_slice()[0], 1.0);
        state = LifState { membrane: u1, prev_spikes: s1 };
        let (u2, _) = lif_step(&cfg, &state, &scalar(0.0));
        // u2 = 1.0*2.5 + 0 - 1.0*1.0 = 1.5
        assert!((u2.as_slice()[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn hard_reset_zeroes() {
        let cfg = LifConfig {
            beta: 1.0,
            theta: 1.0,
            reset: ResetMode::Zero,
            ..LifConfig::paper_default()
        };
        let mut state = LifState::new(Shape::d1(1));
        let (u1, s1) = lif_step(&cfg, &state, &scalar(2.5));
        assert_eq!(s1.as_slice()[0], 1.0);
        state = LifState { membrane: u1, prev_spikes: s1 };
        let (u2, _) = lif_step(&cfg, &state, &scalar(0.25));
        // Previous potential is wiped: u2 = 0 + 0.25.
        assert!((u2.as_slice()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn higher_beta_fires_more() {
        // The mechanism behind Fig. 2's beta axis: more retention →
        // higher firing rate for the same input.
        let spikes_for = |beta: f32| -> usize {
            let cfg = LifConfig { beta, theta: 1.0, ..LifConfig::paper_default() };
            let mut state = LifState::new(Shape::d1(1));
            let mut count = 0;
            for _ in 0..50 {
                let (u, s) = lif_step(&cfg, &state, &scalar(0.3));
                count += (s.as_slice()[0] > 0.0) as usize;
                state = LifState { membrane: u, prev_spikes: s };
            }
            count
        };
        assert!(spikes_for(0.9) > spikes_for(0.25));
    }

    #[test]
    fn higher_theta_fires_less() {
        let spikes_for = |theta: f32| -> usize {
            let cfg = LifConfig { beta: 0.5, theta, ..LifConfig::paper_default() };
            let mut state = LifState::new(Shape::d1(1));
            let mut count = 0;
            for _ in 0..50 {
                let (u, s) = lif_step(&cfg, &state, &scalar(0.8));
                count += (s.as_slice()[0] > 0.0) as usize;
                state = LifState { membrane: u, prev_spikes: s };
            }
            count
        };
        assert!(spikes_for(2.0) < spikes_for(0.5));
    }

    #[test]
    fn zero_input_stays_silent() {
        let cfg = LifConfig::paper_default();
        let mut state = LifState::new(Shape::d2(2, 3));
        for _ in 0..10 {
            let (u, s) = lif_step(&cfg, &state, &Tensor::zeros(Shape::d2(2, 3)));
            assert_eq!(s.count_nonzero(), 0);
            state = LifState { membrane: u, prev_spikes: s };
        }
    }

    #[test]
    fn backward_detached_recurrence() {
        let cfg = LifConfig {
            beta: 0.5,
            theta: 1.0,
            detach_reset: true,
            surrogate: Surrogate::FastSigmoid { k: 1.0 },
            ..LifConfig::paper_default()
        };
        let u = scalar(1.2);
        let s = scalar(1.0);
        let gs = scalar(2.0);
        let carry = scalar(3.0);
        let (gi, new_carry) = lif_backward_step(&cfg, &gs, &carry, &u, &s);
        // g' at u_c = 0.2 with k=1: 1/1.2² = 0.6944…
        let gp = 1.0 / (1.2f32 * 1.2);
        let want = 2.0 * gp + 3.0 * 0.5;
        assert!((gi.as_slice()[0] - want).abs() < 1e-5);
        assert_eq!(gi.as_slice()[0], new_carry.as_slice()[0]);
    }

    #[test]
    fn backward_attached_reset_term() {
        let cfg = LifConfig {
            beta: 0.5,
            theta: 1.0,
            detach_reset: false,
            surrogate: Surrogate::FastSigmoid { k: 1.0 },
            ..LifConfig::paper_default()
        };
        let u = scalar(1.2);
        let s = scalar(1.0);
        let gs = scalar(0.0);
        let carry = scalar(1.0);
        let (gi, _) = lif_backward_step(&cfg, &gs, &carry, &u, &s);
        let gp = 1.0 / (1.2f32 * 1.2);
        let want = 1.0 * (0.5 - 1.0 * gp);
        assert!((gi.as_slice()[0] - want).abs() < 1e-5);
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut cfg = LifConfig::paper_default();
        assert!(cfg.validate().is_ok());
        cfg.beta = 1.5;
        assert!(cfg.validate().is_err());
        cfg.beta = 0.5;
        cfg.theta = 0.0;
        assert!(cfg.validate().is_err());
        cfg.theta = f32::NAN;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn presets_match_paper_text() {
        let d = LifConfig::paper_default();
        assert_eq!((d.beta, d.theta), (0.25, 1.0));
        let l = LifConfig::paper_latency_tuned();
        assert_eq!((l.beta, l.theta), (0.5, 1.5));
        let e = LifConfig::paper_efficiency_tuned();
        assert_eq!((e.beta, e.theta), (0.7, 1.5));
    }
}
