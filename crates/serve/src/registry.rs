//! The model registry: which model is being served, hot-swappable.
//!
//! The registry holds the current model behind an `Arc` that is
//! swapped atomically under a short write lock. Readers (the HTTP
//! handlers, the batch worker) clone the `Arc` and never block each
//! other; a swap becomes visible at the next batch boundary, so no
//! request ever runs against a half-replaced model.
//!
//! Since the quantization subsystem landed, "a model" is a
//! [`ServedModel`]: either an f32 [`NetworkSnapshot`] or an INT8
//! [`snn_quant::QuantizedSnapshot`]. The two carry the same serving
//! interface (input shape, class count) and hot-swap across dtypes is
//! allowed — promoting a freshly quantized artifact over the f32
//! model it came from is exactly the intended deployment move. The
//! engine behind the queue is rebuilt per swap, so the dtype of the
//! *serving* path always matches the registry.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize, Value};

use snn_core::{NetworkSnapshot, SnapshotError};
use snn_quant::{QuantError, QuantizedSnapshot};

/// Quantization parameters of a served INT8 model, surfaced in
/// [`ModelInfo`] (and thus `/metrics.json` and the `/reload` receipt)
/// so operators can tell *which* quantization is live, not just that
/// one is.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuantInfo {
    /// Weight bit width (symmetric signed: `bits = 8` → `[-127, 127]`).
    pub bits: u32,
    /// Input quantization levels (level-coded first layer).
    pub input_levels: i32,
    /// Calibrated input clamp ceiling.
    pub input_max: f32,
    /// Membrane Q-format fraction bits per spiking stage, in forward
    /// order.
    pub frac_bits: Vec<u32>,
}

/// A model the registry can serve: the training-side f32 snapshot or
/// a post-training-quantized INT8 artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedModel {
    /// Full-precision snapshot, served by the f32 engine.
    F32(NetworkSnapshot),
    /// Quantized artifact, served by the integer engine.
    Int8(QuantizedSnapshot),
}

impl From<NetworkSnapshot> for ServedModel {
    fn from(s: NetworkSnapshot) -> Self {
        ServedModel::F32(s)
    }
}

impl From<QuantizedSnapshot> for ServedModel {
    fn from(s: QuantizedSnapshot) -> Self {
        ServedModel::Int8(s)
    }
}

impl From<&ServedModel> for ServedModel {
    fn from(m: &ServedModel) -> Self {
        m.clone()
    }
}

/// Maps a quantized artifact's typed error into the registry's
/// [`SnapshotError`] vocabulary so [`SwapError`] stays uniform across
/// dtypes: per-stage faults become layer errors, composition faults
/// stay structural, everything else is malformed input.
fn quant_error(e: QuantError) -> SnapshotError {
    match e {
        QuantError::Stage { stage, message } | QuantError::Overflow { stage, message } => {
            SnapshotError::Layer { layer: stage, message }
        }
        QuantError::Structure(m) => SnapshotError::Structure(m),
        other => SnapshotError::Malformed(other.to_string()),
    }
}

impl ServedModel {
    /// The dtype tag used everywhere a model is described: `"f32"` or
    /// `"int8"`.
    pub fn dtype(&self) -> &'static str {
        match self {
            ServedModel::F32(_) => "f32",
            ServedModel::Int8(_) => "int8",
        }
    }

    /// Validates the underlying artifact.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] (quantized-artifact errors are mapped
    /// through the same vocabulary) if the model is not servable.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        match self {
            ServedModel::F32(s) => s.validate(),
            ServedModel::Int8(q) => q.validate().map_err(quant_error),
        }
    }

    /// The serving interface: per-item input dims and class count.
    /// Swaps require this to be preserved regardless of dtype.
    pub fn interface(&self) -> (Vec<usize>, usize) {
        match self {
            ServedModel::F32(s) => (s.input_item_dims.clone(), s.classes),
            ServedModel::Int8(q) => (q.input_item_dims.clone(), q.classes),
        }
    }

    /// Decodes either artifact flavor from JSON, validated.
    ///
    /// Dispatch sniffs the top-level shape: quantized artifacts carry
    /// a `format`/`stages` pair (and no `layers`), f32 snapshots carry
    /// `layers`. A body that decodes as neither gets the f32 reader's
    /// error — the established operator-facing message.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] for undecodable bodies and
    /// whatever validation finds for decodable-but-broken ones.
    pub fn from_json(text: &str) -> Result<ServedModel, SnapshotError> {
        // One parse serves both the sniff and the decode.
        let value =
            serde_json::parse(text).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        let looks_quantized = matches!(
            &value,
            Value::Object(entries)
                if entries.iter().any(|(k, _)| k == "format" || k == "stages")
                    && !entries.iter().any(|(k, _)| k == "layers")
        );
        let model = if looks_quantized {
            let q = QuantizedSnapshot::from_value(&value)
                .map_err(|e| quant_error(QuantError::Malformed(e.to_string())))?;
            ServedModel::Int8(q)
        } else {
            let s = NetworkSnapshot::from_value(&value)
                .map_err(|e| SnapshotError::Malformed(e.to_string()))?;
            ServedModel::F32(s)
        };
        model.validate()?;
        Ok(model)
    }
}

/// Summary of the currently served model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelInfo {
    /// Operator-facing name (usually the snapshot path, or `demo`).
    pub name: String,
    /// Monotonic version, bumped on every successful swap.
    pub version: u64,
    /// Numeric format of the serving path: `"f32"` or `"int8"`.
    pub dtype: String,
    /// Flattened input length one request must supply.
    pub input_len: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Trainable parameter count.
    pub params: usize,
    /// Content hash (FNV-1a 64, hex) of the model's serialized form —
    /// the same identity `snn-store`'s artifact registry uses, so
    /// operators can match a served model to a published artifact.
    pub hash: String,
    /// Quantization parameters when `dtype == "int8"`, absent for f32.
    pub quant: Option<QuantInfo>,
}

/// A validated model plus its serving metadata.
#[derive(Debug)]
pub struct LoadedModel {
    /// The model itself (f32 tensors are `Arc`-backed; quantized
    /// stages are plain vectors — engines clone once per swap, not per
    /// request).
    pub model: ServedModel,
    /// Serving metadata.
    pub info: ModelInfo,
}

/// Receipt of a successful swap, captured inside the swap's critical
/// section so concurrent reloads each see the version *they* actually
/// replaced.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapReceipt {
    /// Version that was serving immediately before this swap.
    pub replaced: u64,
    /// Metadata of the now-serving model.
    pub info: ModelInfo,
}

/// Error swapping a new model into the registry.
#[derive(Debug, Clone, PartialEq)]
pub enum SwapError {
    /// The incoming model failed validation.
    Invalid(SnapshotError),
    /// The incoming model is valid but serves a different interface
    /// than the current one; queued requests would become
    /// unanswerable, so the swap is refused.
    Incompatible {
        /// What the current model serves, formatted.
        current: String,
        /// What the incoming model serves, formatted.
        incoming: String,
    },
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Invalid(e) => write!(f, "rejected snapshot: {e}"),
            SwapError::Incompatible { current, incoming } => write!(
                f,
                "incompatible snapshot: currently serving {current}, incoming serves {incoming}"
            ),
        }
    }
}

impl std::error::Error for SwapError {}

/// The hot-swappable home of the serving model.
pub struct ModelRegistry {
    current: RwLock<Arc<LoadedModel>>,
    version: AtomicU64,
    /// Published INT8 degradation artifact: what batch workers serve
    /// while brownout is active. Absent means brownout cannot engage.
    brownout: RwLock<Option<Arc<LoadedModel>>>,
    brownout_version: AtomicU64,
}

impl ModelRegistry {
    /// Validates `model` and creates a registry serving it as
    /// version 1.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if the model does not describe a
    /// runnable network.
    pub fn new(
        model: impl Into<ServedModel>,
        name: impl Into<String>,
    ) -> Result<Self, SnapshotError> {
        let model = model.into();
        model.validate()?;
        let info = Self::info_for(&model, name.into(), 1);
        Ok(ModelRegistry {
            current: RwLock::new(Arc::new(LoadedModel { model, info })),
            version: AtomicU64::new(1),
            brownout: RwLock::new(None),
            brownout_version: AtomicU64::new(0),
        })
    }

    fn info_for(model: &ServedModel, name: String, version: u64) -> ModelInfo {
        match model {
            ServedModel::F32(snapshot) => {
                // Validation already ran, so into_network cannot panic;
                // a throwaway network is the simplest source of derived
                // counts.
                let net = snapshot.clone().into_network();
                let json =
                    serde_json::to_string(snapshot).expect("snapshots always serialize");
                ModelInfo {
                    name,
                    version,
                    dtype: "f32".into(),
                    input_len: net.input_item_shape().len(),
                    classes: net.classes(),
                    params: net.param_count(),
                    hash: snn_store::fnv64_hex(json.as_bytes()),
                    quant: None,
                }
            }
            ServedModel::Int8(q) => {
                let json =
                    serde_json::to_string(q).expect("quantized artifacts always serialize");
                ModelInfo {
                    name,
                    version,
                    dtype: "int8".into(),
                    input_len: q.input_item_dims.iter().product(),
                    classes: q.classes,
                    params: q.param_count() as usize,
                    hash: snn_store::fnv64_hex(json.as_bytes()),
                    quant: Some(QuantInfo {
                        bits: q.bits,
                        input_levels: q.input_levels,
                        input_max: q.input_max,
                        frac_bits: q.frac_bits(),
                    }),
                }
            }
        }
    }

    /// The currently served model (cheap `Arc` clone).
    pub fn current(&self) -> Arc<LoadedModel> {
        self.current.read().expect("registry lock poisoned").clone()
    }

    /// Serving metadata of the current model.
    pub fn info(&self) -> ModelInfo {
        self.current().info.clone()
    }

    /// Version of the current model. Workers compare this against the
    /// version their engine was built from to detect swaps without
    /// taking the lock.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Atomically replaces the served model.
    ///
    /// The new model must pass validation and expose the same input
    /// shape and class count as the current one (in-flight and queued
    /// requests were validated against that interface). The dtype may
    /// change freely: swapping an INT8 artifact over its f32 parent is
    /// the standard promotion path, and the batch worker rebuilds the
    /// matching engine at the next batch boundary.
    ///
    /// # Errors
    ///
    /// Returns [`SwapError`] and leaves the current model serving.
    pub fn swap(
        &self,
        model: impl Into<ServedModel>,
        name: impl Into<String>,
    ) -> Result<SwapReceipt, SwapError> {
        let model = model.into();
        model.validate().map_err(SwapError::Invalid)?;
        let mut slot = self.current.write().expect("registry lock poisoned");
        let cur = slot.model.interface();
        let new = model.interface();
        if cur != new {
            return Err(SwapError::Incompatible {
                current: format!("input {:?} / {} classes", cur.0, cur.1),
                incoming: format!("input {:?} / {} classes", new.0, new.1),
            });
        }
        // Read the outgoing version under the write lock: it is the
        // version this swap actually replaces, even when reloads race.
        let replaced = self.version.load(Ordering::Acquire);
        let version = replaced + 1;
        let info = Self::info_for(&model, name.into(), version);
        *slot = Arc::new(LoadedModel { model, info: info.clone() });
        // Publish the version only after the slot holds the new model
        // so a worker that observes the bump always rebuilds from it.
        self.version.store(version, Ordering::Release);
        Ok(SwapReceipt { replaced, info })
    }

    /// Publishes an INT8 brownout artifact: the degraded-mode model
    /// batch workers switch to while the SLO fast-burn signal holds.
    /// Does not affect the primary serving slot or its version.
    ///
    /// # Errors
    ///
    /// Returns [`SwapError::Invalid`] for unservable artifacts and
    /// [`SwapError::Incompatible`] when the artifact is not INT8 or
    /// serves a different interface than the current primary model —
    /// brownout must be transparent to callers except for the
    /// `"engine"` tag.
    pub fn publish_brownout(
        &self,
        model: impl Into<ServedModel>,
        name: impl Into<String>,
    ) -> Result<ModelInfo, SwapError> {
        let model = model.into();
        model.validate().map_err(SwapError::Invalid)?;
        if model.dtype() != "int8" {
            return Err(SwapError::Incompatible {
                current: "brownout slot (requires an int8 artifact)".into(),
                incoming: format!("{} artifact", model.dtype()),
            });
        }
        let cur = self.current().model.interface();
        let new = model.interface();
        if cur != new {
            return Err(SwapError::Incompatible {
                current: format!("input {:?} / {} classes", cur.0, cur.1),
                incoming: format!("input {:?} / {} classes", new.0, new.1),
            });
        }
        let version = self.brownout_version.load(Ordering::Acquire) + 1;
        let info = Self::info_for(&model, name.into(), version);
        *self.brownout.write().expect("registry lock poisoned") =
            Some(Arc::new(LoadedModel { model, info: info.clone() }));
        self.brownout_version.store(version, Ordering::Release);
        Ok(info)
    }

    /// The published brownout artifact, if any (cheap `Arc` clone).
    pub fn brownout_artifact(&self) -> Option<Arc<LoadedModel>> {
        self.brownout.read().expect("registry lock poisoned").clone()
    }

    /// Version counter of the brownout slot (0 = never published).
    /// Workers serving in brownout compare this the same way they
    /// compare [`ModelRegistry::version`] for the primary slot.
    pub fn brownout_version(&self) -> u64 {
        self.brownout_version.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{LifConfig, SpikingNetwork};
    use snn_quant::{calibrate, quantize_snapshot};
    use snn_tensor::Shape;

    fn snap(seed: u64, classes: usize) -> NetworkSnapshot {
        let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
        let net = SpikingNetwork::builder(Shape::d3(1, 8, 8), seed)
            .conv(4, 3, 1, 1, lif)
            .unwrap()
            .maxpool(2)
            .unwrap()
            .flatten()
            .unwrap()
            .dense(classes, lif)
            .unwrap()
            .build()
            .unwrap();
        NetworkSnapshot::from_network(&net)
    }

    fn qsnap(seed: u64, classes: usize) -> QuantizedSnapshot {
        let snap = snap(seed, classes);
        let items: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..64).map(|j| ((i + j) % 7) as f32 / 6.0).collect())
            .collect();
        let cal = calibrate(&snap, &items, 4).unwrap();
        quantize_snapshot(&snap, &cal, 8).unwrap()
    }

    #[test]
    fn swap_bumps_version_and_replaces_weights() {
        let reg = ModelRegistry::new(snap(1, 4), "a").unwrap();
        assert_eq!(reg.version(), 1);
        assert_eq!(reg.info().input_len, 64);
        assert_eq!(reg.info().dtype, "f32");
        assert!(reg.info().quant.is_none());
        let before = reg.current();
        let receipt = reg.swap(snap(2, 4), "b").unwrap();
        assert_eq!(receipt.replaced, 1);
        assert_eq!(receipt.info.version, 2);
        assert_eq!(reg.version(), 2);
        assert_eq!(reg.info().name, "b");
        let after = reg.current();
        assert_ne!(before.model, after.model, "weights must differ across seeds");
    }

    #[test]
    fn swap_rejects_incompatible_interface() {
        let reg = ModelRegistry::new(snap(1, 4), "a").unwrap();
        let err = reg.swap(snap(1, 5), "b").unwrap_err();
        assert!(matches!(err, SwapError::Incompatible { .. }));
        assert_eq!(reg.version(), 1, "failed swap must not bump the version");
    }

    #[test]
    fn swap_rejects_invalid_snapshot() {
        let reg = ModelRegistry::new(snap(1, 4), "a").unwrap();
        let mut bad = snap(2, 4);
        bad.layers.clear();
        assert!(matches!(reg.swap(bad, "b").unwrap_err(), SwapError::Invalid(_)));
        assert_eq!(reg.version(), 1);
    }

    #[test]
    fn int8_swap_over_f32_carries_quant_metadata() {
        let reg = ModelRegistry::new(snap(1, 4), "f32-model").unwrap();
        let receipt = reg.swap(qsnap(1, 4), "int8-model").unwrap();
        assert_eq!(receipt.info.dtype, "int8");
        assert_eq!(receipt.info.input_len, 64);
        assert_eq!(receipt.info.classes, 4);
        let quant = receipt.info.quant.expect("int8 info carries quant params");
        assert_eq!(quant.bits, 8);
        assert_eq!(quant.input_levels, 255);
        assert_eq!(quant.frac_bits.len(), 2, "conv + dense stages");
        assert_eq!(receipt.info.hash.len(), 16);
        // And back: the f32 parent swaps over its quantized child.
        let back = reg.swap(snap(1, 4), "f32-again").unwrap();
        assert_eq!(back.info.dtype, "f32");
        assert!(back.info.quant.is_none());
    }

    #[test]
    fn int8_swap_rejects_incompatible_interface() {
        let reg = ModelRegistry::new(snap(1, 4), "a").unwrap();
        let err = reg.swap(qsnap(1, 5), "b").unwrap_err();
        assert!(matches!(err, SwapError::Incompatible { .. }));
        assert_eq!(reg.info().dtype, "f32");
    }

    #[test]
    fn brownout_slot_requires_a_compatible_int8_artifact() {
        let reg = ModelRegistry::new(snap(1, 4), "primary").unwrap();
        assert!(reg.brownout_artifact().is_none());
        assert_eq!(reg.brownout_version(), 0);
        // f32 artifacts are refused: brownout exists to degrade *to*
        // the integer engine.
        let err = reg.publish_brownout(snap(1, 4), "nope").unwrap_err();
        assert!(matches!(err, SwapError::Incompatible { .. }));
        // Wrong interface is refused even when int8.
        let err = reg.publish_brownout(qsnap(1, 5), "nope").unwrap_err();
        assert!(matches!(err, SwapError::Incompatible { .. }));
        // A compatible int8 artifact publishes without touching the
        // primary slot or its version.
        let info = reg.publish_brownout(qsnap(1, 4), "deg").unwrap();
        assert_eq!(info.dtype, "int8");
        assert_eq!(reg.brownout_version(), 1);
        assert_eq!(reg.version(), 1, "primary version untouched");
        assert_eq!(reg.info().dtype, "f32", "primary still serving f32");
        let loaded = reg.brownout_artifact().expect("published");
        assert_eq!(loaded.info.name, "deg");
        // Republishing bumps the brownout version.
        reg.publish_brownout(qsnap(2, 4), "deg2").unwrap();
        assert_eq!(reg.brownout_version(), 2);
    }

    #[test]
    fn from_json_sniffs_both_artifact_flavors() {
        let f = serde_json::to_string(&snap(3, 4)).unwrap();
        let q = serde_json::to_string(&qsnap(3, 4)).unwrap();
        assert_eq!(ServedModel::from_json(&f).unwrap().dtype(), "f32");
        assert_eq!(ServedModel::from_json(&q).unwrap().dtype(), "int8");
    }

    #[test]
    fn malformed_quant_metadata_is_a_typed_error_not_a_panic() {
        // A body that *claims* to be quantized (has `stages`) but is
        // broken must come back as a typed SnapshotError.
        let cases = [
            r#"{"format":"snn-quant/1","stages":"nope"}"#,
            r#"{"format":"snn-quant/99","stages":[]}"#,
            r#"{"stages":[]}"#,
        ];
        for body in cases {
            let err = ServedModel::from_json(body).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Malformed(_) | SnapshotError::Structure(_)),
                "body {body} gave {err:?}"
            );
        }
        // Corrupting a real artifact's numeric guts trips validation,
        // also typed.
        let mut q = qsnap(4, 4);
        q.input_levels = 0;
        let json = serde_json::to_string(&q).unwrap();
        assert!(ServedModel::from_json(&json).is_err());
    }

    #[test]
    fn old_f32_reader_still_loads_pre_quant_artifacts() {
        // Backward compatibility: an f32 snapshot serialized before
        // the quant subsystem existed (no dtype anywhere in the body)
        // round-trips through the registry untouched.
        let json = serde_json::to_string(&snap(9, 4)).unwrap();
        let model = ServedModel::from_json(&json).unwrap();
        let reg = ModelRegistry::new(model, "legacy").unwrap();
        let info = reg.info();
        assert_eq!(info.dtype, "f32");
        assert_eq!(info.input_len, 64);
        assert_eq!(info.classes, 4);
    }
}
