//! The benchmark's models, their manifest, and its seeded inputs.
//!
//! `fixtures/` holds three f32 snapshots and `manifest.json`:
//!
//! * `demo_f32.json` — the 1×8×8 conv demo model served over HTTP
//!   (the topology and weight seed of `bench_serve`'s demo model);
//! * `default_f32.json` — the paper topology trained at β=0.25, θ=1.0;
//! * `tuned_f32.json` — the same topology trained at β=0.5, θ=1.5,
//!   calibrated and quantized to int8 at setup.
//!
//! The manifest records each file's FNV-1a hash, the command that
//! produced it, and the expected outputs on a fixed check set: the
//! class per item, plus an exact spike-count digest per item for the
//! int8 model and the demo model. Setup refuses a file whose hash differs and counts a
//! check-set mismatch as a failed operation.

use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
use snn_data::SynthConfig;
use snn_quant::{calibrate, classify_counts, quantize_snapshot, QuantNetwork};
use snn_serve::{AnyEngine, RequestOutput, ServedModel};
use snn_tensor::{Shape, Tensor};

/// Directory holding the snapshots and the manifest.
pub fn dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
}

/// Weight bit width of the int8 model.
const BITS: u32 = 8;

/// `manifest.json`: what the fixtures are and what they must compute.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Seed of the check set every model is verified on at setup.
    pub check_seed: u64,
    /// Seed of the int8 calibration split.
    pub calibration_seed: u64,
    /// Items in the int8 calibration split.
    pub calibration_items: usize,
    /// One entry per model.
    pub models: Vec<ModelEntry>,
}

/// One model of the benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelEntry {
    /// Model id: `demo_f32`, `default_f32` or `tuned_int8`.
    pub name: String,
    /// Snapshot file under `fixtures/`.
    pub file: String,
    /// FNV-1a 64 of the file's bytes, hex.
    pub fnv64: String,
    /// The command that produced the file.
    pub command: String,
    /// Input family: `digits8` (1×8×8) or `svhn16` (3×16×16).
    pub input: String,
    /// Engine dtype the workload serves: `f32` or `int8`.
    pub dtype: String,
    /// Timesteps each input is presented for.
    pub timesteps: usize,
    /// Expected class per check item.
    pub check_classes: Vec<usize>,
    /// Expected FNV-1a 64 of each check item's spike counts. Empty for
    /// `default_f32`, whose check compares classes only; kept for int8
    /// (exact integer datapath) and for the untrained demo model, which
    /// predicts the same class for nearly every input.
    pub check_counts_fnv64: Vec<String>,
}

impl Manifest {
    /// Reads `fixtures/manifest.json`.
    pub fn load() -> Result<Manifest, String> {
        let path = dir().join("manifest.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("bad manifest: {e}"))
    }

    /// The entry named `name`.
    pub fn model(&self, name: &str) -> Result<&ModelEntry, String> {
        self.models
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("manifest has no model `{name}`"))
    }
}

/// `n` seeded inputs of the given family, flattened.
pub fn items(family: &str, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let cfg = match family {
        "digits8" => SynthConfig {
            size: 8,
            channels: 1,
            ..SynthConfig::small()
        },
        _ => SynthConfig {
            size: 16,
            channels: 3,
            ..SynthConfig::small()
        },
    };
    let ds = cfg.generate(n, seed);
    (0..ds.len())
        .map(|i| ds.item(i).0.as_slice().to_vec())
        .collect()
}

/// FNV-1a 64 over the bit patterns of every value of every item.
pub fn digest(items: &[Vec<f32>]) -> String {
    let bytes: Vec<u8> = items
        .iter()
        .flat_map(|it| it.iter().flat_map(|v| v.to_bits().to_le_bytes()))
        .collect();
    snn_store::fnv64_hex(&bytes)
}

/// A model after setup: the f32 source snapshot and what is served.
pub struct Loaded {
    /// The f32 snapshot read from the fixture.
    pub snapshot: NetworkSnapshot,
    /// The model the engine runs (the snapshot, or its int8 artifact).
    pub served: ServedModel,
    /// Read, hash check and parse, seconds.
    pub load_s: f64,
    /// Calibration and quantization, seconds (0 for f32 models).
    pub quantize_s: f64,
}

/// Loads `entry`, checks its hash, and (for int8) calibrates and
/// quantizes it.
pub fn load(manifest: &Manifest, entry: &ModelEntry) -> Result<Loaded, String> {
    let t0 = Instant::now();
    let path = dir().join(&entry.file);
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let hash = snn_store::fnv64_hex(&bytes);
    if hash != entry.fnv64 {
        return Err(format!(
            "{}: hash {hash}, manifest says {}",
            entry.file, entry.fnv64
        ));
    }
    let text = std::str::from_utf8(&bytes).map_err(|_| format!("{} is not UTF-8", entry.file))?;
    let snapshot = NetworkSnapshot::from_json(text).map_err(|e| format!("{}: {e}", entry.file))?;
    let load_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let served = if entry.dtype == "int8" {
        let cal_items = items(
            &entry.input,
            manifest.calibration_items,
            manifest.calibration_seed,
        );
        let cal = calibrate(&snapshot, &cal_items, entry.timesteps).map_err(|e| e.to_string())?;
        ServedModel::from(quantize_snapshot(&snapshot, &cal, BITS).map_err(|e| e.to_string())?)
    } else {
        ServedModel::from(snapshot.clone())
    };
    let quantize_s = if entry.dtype == "int8" {
        t1.elapsed().as_secs_f64()
    } else {
        0.0
    };
    Ok(Loaded {
        snapshot,
        served,
        load_s,
        quantize_s,
    })
}

/// FNV-1a 64 of the served model's JSON (for int8, the artifact built
/// at setup), the hash the model registry reports.
pub fn served_hash(served: &ServedModel) -> String {
    let json = match served {
        ServedModel::F32(s) => serde_json::to_string(s),
        ServedModel::Int8(q) => serde_json::to_string(q),
    };
    snn_store::fnv64_hex(json.expect("models serialize").as_bytes())
}

/// The check-set inputs of `entry`.
pub fn check_items(manifest: &Manifest, entry: &ModelEntry) -> Vec<Vec<f32>> {
    items(&entry.input, entry.check_classes.len(), manifest.check_seed)
}

/// FNV-1a 64 of one output's spike counts.
pub fn counts_digest(counts: &[f32]) -> String {
    let bytes: Vec<u8> = counts
        .iter()
        .flat_map(|c| c.to_bits().to_le_bytes())
        .collect();
    snn_store::fnv64_hex(&bytes)
}

/// Check-set items whose class (or, where the manifest has one,
/// spike-count digest) differs from the manifest.
pub fn check_mismatches(entry: &ModelEntry, classes: &[usize], counts: &[Vec<f32>]) -> usize {
    (0..entry.check_classes.len())
        .filter(|&i| {
            let class_ok = classes.get(i) == Some(&entry.check_classes[i]);
            let counts_ok = entry
                .check_counts_fnv64
                .get(i)
                .is_none_or(|want| counts.get(i).is_some_and(|c| counts_digest(c) == *want));
            !(class_ok && counts_ok)
        })
        .count()
}

/// Expected output of one input, computed by a reference executor
/// other than the engine under test.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Predicted class.
    pub class: usize,
    /// Output spike counts.
    pub counts: Vec<f32>,
}

impl Expected {
    /// Whether the engine's output matches: the class, and for
    /// `exact` also every spike count.
    pub fn matches(&self, out: &RequestOutput, exact: bool) -> bool {
        out.class == self.class && (!exact || out.counts == self.counts)
    }
}

/// Reference outputs for `items`: f32 models run each item alone
/// through `SpikingNetwork::run_inference`; int8 models run each item
/// alone through `QuantNetwork`. Batched engines must agree.
pub fn reference(loaded: &Loaded, timesteps: usize, items: &[Vec<f32>]) -> Vec<Expected> {
    match &loaded.served {
        ServedModel::F32(snap) => {
            let mut net = snap.clone().into_network();
            let mut dims = vec![1];
            dims.extend_from_slice(net.input_item_shape().dims());
            items
                .iter()
                .map(|item| {
                    let x = Tensor::from_vec(Shape::from_dims(&dims), item.clone())
                        .expect("item length matches the model input");
                    let out = net.run_inference(&vec![x; timesteps]);
                    Expected {
                        class: out.counts.argmax_row(0),
                        counts: out.counts.as_slice().to_vec(),
                    }
                })
                .collect()
        }
        ServedModel::Int8(q) => {
            let mut net = QuantNetwork::from_snapshot(q).expect("artifact validated at setup");
            items
                .iter()
                .map(|item| {
                    let counts = net
                        .infer_batch(std::slice::from_ref(item), timesteps)
                        .expect("item length matches the model input");
                    Expected {
                        class: classify_counts(&counts),
                        counts: counts.iter().map(|&c| c as f32).collect(),
                    }
                })
                .collect()
        }
    }
}

/// The HTTP workload's model: `bench_serve`'s demo topology (conv →
/// pool → conv → pool → fc on 1×8×8, θ=0.5, weight seed 42).
fn demo_snapshot() -> NetworkSnapshot {
    let lif = LifConfig {
        theta: 0.5,
        ..LifConfig::paper_default()
    };
    let net = SpikingNetwork::builder(Shape::d3(1, 8, 8), 42)
        .conv(4, 3, 1, 1, lif)
        .and_then(|b| b.maxpool(2))
        .and_then(|b| b.conv(4, 3, 1, 1, lif))
        .and_then(|b| b.maxpool(2))
        .and_then(|b| b.flatten())
        .and_then(|b| b.dense(10, lif))
        .and_then(|b| b.build())
        .expect("demo network builds");
    NetworkSnapshot::from_network(&net)
}

/// Writes `demo_f32.json` and regenerates `manifest.json` from the
/// snapshots in `fixtures/` with the current code. The two trained
/// snapshots must already exist (see each entry's `command`).
pub fn write() -> Result<(), String> {
    let demo_path = dir().join("demo_f32.json");
    demo_snapshot()
        .save_json(&demo_path)
        .map_err(|e| e.to_string())?;
    let train = |beta: &str, theta: &str, out: &str| {
        format!("snn train --profile quick --beta {beta} --theta {theta} --out {out}")
    };
    let specs = [
        (
            "demo_f32",
            "demo_f32.json",
            "perfbench --write-fixtures".to_string(),
            "digits8",
            "f32",
            8,
            8,
        ),
        (
            "default_f32",
            "default_f32.json",
            train("0.25", "1.0", "default_f32.json"),
            "svhn16",
            "f32",
            3,
            32,
        ),
        (
            "tuned_int8",
            "tuned_f32.json",
            train("0.5", "1.5", "tuned_f32.json"),
            "svhn16",
            "int8",
            3,
            32,
        ),
    ];
    let mut manifest = Manifest {
        check_seed: 20_240,
        calibration_seed: 7,
        calibration_items: 64,
        models: Vec::new(),
    };
    for (name, file, command, input, dtype, timesteps, check_n) in specs {
        let bytes = std::fs::read(dir().join(file)).map_err(|e| format!("{file}: {e}"))?;
        let mut entry = ModelEntry {
            name: name.into(),
            file: file.into(),
            fnv64: snn_store::fnv64_hex(&bytes),
            command,
            input: input.into(),
            dtype: dtype.into(),
            timesteps,
            check_classes: vec![0; check_n],
            check_counts_fnv64: Vec::new(),
        };
        let loaded = load(&manifest, &entry)?;
        let mut engine = AnyEngine::new(&loaded.served, timesteps).map_err(|e| e.to_string())?;
        let outs: Vec<RequestOutput> = check_items(&manifest, &entry)
            .chunks(16)
            .flat_map(|chunk| engine.infer_batch(chunk))
            .collect();
        entry.check_classes = outs.iter().map(|o| o.class).collect();
        if name != "default_f32" {
            entry.check_counts_fnv64 = outs.iter().map(|o| counts_digest(&o.counts)).collect();
        }
        manifest.models.push(entry);
    }
    let json = serde_json::to_string_pretty(&manifest).map_err(|e| e.to_string())?;
    std::fs::write(dir().join("manifest.json"), json + "\n").map_err(|e| e.to_string())
}
