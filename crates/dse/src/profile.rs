//! Experiment profiles: how large each sweep point's training run is.
//!
//! The paper trains 25-epoch SVHN models per sweep point on a GPU;
//! this reproduction runs on a single CPU core, so the default
//! profiles use the synthetic dataset at reduced scale. Shapes of the
//! results (orderings, crossovers, ratios) are what the reproduction
//! compares — see `DESIGN.md` §2. The `full()` profile restores the
//! paper's scale for hosts that can afford it.

use serde::{Deserialize, Serialize};

use snn_core::{LifConfig, LrSchedule, Surrogate, TrainConfig};
use snn_data::{Dataset, SpikeEncoding, SynthConfig};
use snn_tensor::{derive_seed, Shape};

/// Scale and budget of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentProfile {
    /// Profile name for reports.
    pub name: &'static str,
    /// Square image side.
    pub image_size: usize,
    /// Image channels (3 = RGB like SVHN).
    pub channels: usize,
    /// Training samples generated.
    pub train_samples: usize,
    /// Test samples generated.
    pub test_samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Simulation timesteps.
    pub timesteps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate (cosine-annealed).
    pub base_lr: f32,
    /// Master seed for data, weights, and encoders.
    pub seed: u64,
    /// Use the reduced-difficulty synthetic task (single contrast
    /// polarity, less clutter) — required for above-chance accuracy
    /// at the reduced training budgets; `full` uses the
    /// full-difficulty task.
    pub easy_task: bool,
    /// Input coding for training and evaluation.
    pub encoding: SpikeEncoding,
}

impl ExperimentProfile {
    /// Micro profile for smoke runs and tests: each sweep point
    /// trains in tens of milliseconds. Too small for meaningful
    /// accuracy — use it only to measure harness throughput.
    pub fn micro() -> Self {
        ExperimentProfile {
            name: "micro",
            image_size: 8,
            channels: 1,
            train_samples: 40,
            test_samples: 20,
            epochs: 1,
            timesteps: 2,
            batch_size: 20,
            base_lr: 1e-2,
            seed: 42,
            easy_task: true,
            encoding: SpikeEncoding::Direct,
        }
    }

    /// Minimal profile for tests and smoke runs (seconds per point).
    pub fn quick() -> Self {
        ExperimentProfile {
            name: "quick",
            image_size: 16,
            channels: 3,
            train_samples: 300,
            test_samples: 100,
            epochs: 8,
            timesteps: 3,
            batch_size: 25,
            base_lr: 1e-2,
            seed: 42,
            easy_task: true,
            encoding: SpikeEncoding::Direct,
        }
    }

    /// Default sweep profile: small synthetic-SVHN, a few epochs —
    /// sized so a full Figure-1 sweep finishes in minutes on one CPU
    /// core.
    pub fn bench() -> Self {
        ExperimentProfile {
            name: "bench",
            image_size: 16,
            channels: 3,
            train_samples: 800,
            test_samples: 200,
            epochs: 10,
            timesteps: 4,
            batch_size: 25,
            base_lr: 1e-2,
            seed: 42,
            easy_task: true,
            encoding: SpikeEncoding::Direct,
        }
    }

    /// Paper-scale profile: 32×32 inputs, 25 epochs, 8 timesteps.
    /// Hours per sweep on a single core; provided for completeness.
    pub fn full() -> Self {
        ExperimentProfile {
            name: "full",
            image_size: 32,
            channels: 3,
            train_samples: 5_000,
            test_samples: 1_000,
            epochs: 25,
            timesteps: 8,
            batch_size: 32,
            base_lr: 5e-3,
            seed: 42,
            easy_task: false,
            encoding: SpikeEncoding::Direct,
        }
    }

    /// Looks up a profile by name.
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn by_name(name: &str) -> Result<Self, String> {
        match name {
            "micro" => Ok(Self::micro()),
            "quick" => Ok(Self::quick()),
            "bench" => Ok(Self::bench()),
            "full" => Ok(Self::full()),
            other => Err(format!("unknown profile `{other}` (expected quick|bench|full)")),
        }
    }

    /// Per-item input shape.
    pub fn input_shape(&self) -> Shape {
        Shape::d3(self.channels, self.image_size, self.image_size)
    }

    /// Generates the train/test datasets for this profile.
    ///
    /// All sweep points share these datasets (same seed), so observed
    /// differences come from the hyperparameters under study.
    pub fn datasets(&self) -> (Dataset, Dataset) {
        let base = if self.easy_task { SynthConfig::small() } else { SynthConfig::default() };
        let synth = SynthConfig { size: self.image_size, channels: self.channels, ..base };
        let train = synth.generate(self.train_samples, derive_seed(self.seed, "train"));
        let test = synth.generate(self.test_samples, derive_seed(self.seed, "test"));
        (train, test)
    }

    /// The training configuration for a sweep point.
    ///
    /// Mirrors the paper's setup: Adam + cosine annealing over the
    /// full run, count cross-entropy, direct-coded inputs (the
    /// snnTorch flow presents the static image at every timestep).
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            timesteps: self.timesteps,
            base_lr: self.base_lr,
            schedule: LrSchedule::CosineAnnealing { t_max: 0, eta_min: 0.0 },
            encoding: self.encoding,
            seed: derive_seed(self.seed, "train-loop"),
            ..TrainConfig::default()
        }
    }

    /// The LIF configuration for a sweep point: paper defaults with
    /// the given surrogate, `beta`, and `theta`.
    pub fn lif(&self, surrogate: Surrogate, beta: f32, theta: f32) -> LifConfig {
        LifConfig { beta, theta, surrogate, ..LifConfig::paper_default() }
    }
}

impl Default for ExperimentProfile {
    fn default() -> Self {
        Self::bench()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_ordered_by_scale() {
        let q = ExperimentProfile::quick();
        let b = ExperimentProfile::bench();
        let f = ExperimentProfile::full();
        assert!(q.train_samples < b.train_samples && b.train_samples < f.train_samples);
        assert!(q.epochs <= b.epochs && b.epochs < f.epochs);
        assert_eq!(f.image_size, 32);
        assert_eq!(f.epochs, 25); // the paper's budget
    }

    #[test]
    fn by_name_roundtrip() {
        assert_eq!(ExperimentProfile::by_name("quick").unwrap(), ExperimentProfile::quick());
        assert_eq!(ExperimentProfile::by_name("bench").unwrap(), ExperimentProfile::bench());
        assert!(ExperimentProfile::by_name("nope").is_err());
    }

    #[test]
    fn datasets_deterministic_and_sized() {
        let p = ExperimentProfile::quick();
        let (tr1, te1) = p.datasets();
        let (tr2, _) = p.datasets();
        assert_eq!(tr1.len(), p.train_samples);
        assert_eq!(te1.len(), p.test_samples);
        assert_eq!(tr1.item(0).0, tr2.item(0).0);
        assert_eq!(tr1.item_shape(), p.input_shape());
    }

    #[test]
    fn train_config_mirrors_profile() {
        let p = ExperimentProfile::bench();
        let c = p.train_config();
        assert_eq!(c.epochs, p.epochs);
        assert_eq!(c.timesteps, p.timesteps);
        assert!(matches!(c.schedule, LrSchedule::CosineAnnealing { .. }));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn lif_override_applies() {
        let p = ExperimentProfile::quick();
        let lif = p.lif(Surrogate::ArcTan { alpha: 4.0 }, 0.5, 1.5);
        assert_eq!(lif.beta, 0.5);
        assert_eq!(lif.theta, 1.5);
        assert_eq!(lif.surrogate, Surrogate::ArcTan { alpha: 4.0 });
        assert!(lif.validate().is_ok());
    }
}
