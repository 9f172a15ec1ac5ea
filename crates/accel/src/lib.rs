//! # snn-accel
//!
//! Cycle-level simulator of a sparsity-aware, layer-wise lock-step
//! FPGA SNN accelerator — the hardware substrate of the DATE'24
//! reproduction.
//!
//! The paper maps trained SNNs onto an in-house SystemVerilog
//! platform (SNN-DSE) on a Kintex UltraScale+ FPGA. That hardware is
//! unavailable here, so this crate models its first-order behaviour
//! (see `DESIGN.md` §2): an event-driven dataflow whose per-timestep
//! work is proportional to spike counts, a PE allocator that sizes
//! each pipeline stage to its layer's measured workload, a lock-step
//! schedule whose period is the slowest stage, and a static +
//! activity-proportional power model. A dense (sparsity-oblivious)
//! twin of the same pipeline stands in for the paper's prior-work
//! comparator [6].
//!
//! ## Example: map a trained model
//!
//! ```
//! use snn_accel::AcceleratorConfig;
//! use snn_core::{evaluate, LifConfig, NetworkSnapshot, SpikingNetwork};
//! use snn_data::{bars_dataset, SpikeEncoding};
//! use snn_tensor::Shape;
//!
//! // Train/profile elided: any network + its sparsity profile works.
//! let mut net = SpikingNetwork::paper_topology(
//!     Shape::d3(1, 16, 16), 4, LifConfig::paper_default(), 3)?;
//! let ds = bars_dataset(16, 16, 0);
//! let eval = evaluate(&mut net, &ds, SpikeEncoding::default(), 4, 8, 0);
//! let snapshot = NetworkSnapshot::from_network(&net);
//!
//! let report = AcceleratorConfig::sparsity_aware()
//!     .map(&snapshot, &eval.profile)
//!     .expect("model fits the device");
//! println!("{report}"); // per-stage table + FPS/W summary
//! assert!(report.fps_per_watt() > 0.0);
//! # Ok::<(), snn_core::BuildNetworkError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod alloc;
mod device;
mod event_sim;
mod mapper;
mod pipeline;
mod power;
mod report;
mod workload;

pub use alloc::{allocate, AllocError, Allocation, PeCost, StageAllocation};
pub use device::FpgaDevice;
pub use event_sim::{simulate_trace, EventSimReport, SimError, StageSimStats};
pub use mapper::{AcceleratorConfig, MapError};
pub use pipeline::{schedule, PipelineTiming, StageTiming, DEFAULT_SYNC_OVERHEAD};
pub use power::{power, PowerBreakdown};
pub use report::AccelReport;
pub use workload::{
    ModelWorkload, StageKind, StageWorkload, WorkloadError, POTENTIAL_BYTES, WEIGHT_BYTES,
};
