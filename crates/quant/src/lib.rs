//! # snn-quant — post-training quantization and integer inference
//!
//! Turns a trained f32 [`snn_core::NetworkSnapshot`] into a
//! [`QuantizedSnapshot`] artifact (per-output-channel symmetric i8
//! weights, Q-format fixed-point LIF parameters, per-channel integer
//! rescales) and executes it with [`QuantNetwork`], an integer-only
//! runtime built on the quantized kernels in [`snn_tensor::qmat`].
//!
//! ## Pipeline
//!
//! 1. [`calibrate`] runs the f32 reference forward over a calibration
//!    split, recording the input range and each spiking stage's peak
//!    synaptic current.
//! 2. [`quantize_snapshot`] picks per-stage membrane Q-formats with
//!    headroom from those ranges, quantizes weights per output
//!    channel, and folds `s_w·s_x·2^F` into integer multiply+shift
//!    [`Rescale`]s.
//! 3. [`QuantNetwork::from_snapshot`] builds the runtime; after the
//!    one-time input quantization, inference never touches f32.
//!
//! Outputs are bit-identical across thread counts and across the
//! dense/event dispatch routes: every accumulator is an exact integer
//! sum, and saturation happens only at the final narrowing casts.
//!
//! ```
//! use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
//! use snn_quant::{calibrate, quantize_snapshot, QuantNetwork};
//!
//! let net = SpikingNetwork::builder(snn_tensor::Shape::d3(1, 6, 6), 3)
//!     .conv(2, 3, 1, 1, LifConfig::paper_default())
//!     .unwrap()
//!     .flatten()
//!     .unwrap()
//!     .dense(3, LifConfig::paper_default())
//!     .unwrap()
//!     .build()
//!     .unwrap();
//! let snap = NetworkSnapshot::from_network(&net);
//! let split: Vec<Vec<f32>> = (0..4)
//!     .map(|i| (0..36).map(|j| ((i + j) % 5) as f32 / 4.0).collect())
//!     .collect();
//! let cal = calibrate(&snap, &split, 4).unwrap();
//! let artifact = quantize_snapshot(&snap, &cal, 8).unwrap();
//! let mut runtime = QuantNetwork::from_snapshot(&artifact).unwrap();
//! let counts = runtime.infer_batch(&split, 4).unwrap();
//! assert_eq!(counts.len(), split.len() * 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod error;
mod fixed;
mod network;
mod qtensor;
mod snapshot;

pub use calibrate::{calibrate, Calibration};
pub use error::QuantError;
pub use fixed::{magnitude_bound, FixedLif, Rescale, BETA_FRAC_BITS};
pub use network::{classify_counts, LifSteps, QuantNetwork, StageMeta};
pub use qtensor::{saturate_i32, saturate_i8, weight_qmax, QuantizedTensor, QMAX_I8};
pub use snapshot::{quantize_snapshot, QuantStage, QuantizedSnapshot, QUANT_FORMAT};
