//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <http-small|batch-default-f32|batch-tuned-int8> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-fixtures
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run is
//! split into an untraced and a traced half and the metrics are the
//! per-layer ones, and the spans are written to
//! `perfbench/out/trace-<workload>-<seed>.json`. See README.md.

mod batch;
mod client;
mod fixtures;
mod host;
mod http;
mod layers;
mod stats;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

use snn_core::NetworkSnapshot;

use crate::layers::LayerPass;
use crate::trace::{NameTotals, Recorder};

/// Setups before the measured phase, and again after it, so that the
/// medians `setup_s` and `setup.*` sample the host at both ends of the
/// run.
pub const SETUP_REPS: usize = 5;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["http-small", "batch-default-f32", "batch-tuned-int8"];

/// End-to-end metrics and their units (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Layers of the paper topology, in forward order.
const PAPER_LAYERS: [&str; 7] = ["conv1", "pool1", "conv2", "pool2", "flatten", "fc1", "fc2"];

/// Per-layer metrics and their units (`--trace 1`). A layer that does
/// no work on a workload (the front end on the batch workloads, the
/// int8 stages off `batch-tuned-int8`, setup steps a workload lacks)
/// reports 0, put by the workload with [`Report::put_absent`].
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("serve.parse_us", "us"),
        ("serve.respond_us", "us"),
        ("serve.queue_wait_us", "us"),
        ("serve.batch_form_us", "us"),
        ("serve.forward_us", "us"),
        ("serve.batch_size_mean", "items"),
        ("pool.residual_us", "us"),
        ("loadgen.lag_p99_ms", "ms"),
        ("run.latency_p99_ms", "ms"),
        ("engine.us_per_item", "us"),
        ("engine.unattributed_ratio", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for l in PAPER_LAYERS {
        m.push((format!("f32.{l}.us_per_item"), "us"));
        m.push((format!("f32.{l}.input_density"), "ratio"));
        m.push((format!("f32.{l}.firing_rate"), "ratio"));
        m.push((format!("f32.{l}.synops_per_item"), "count"));
    }
    m.push(("tensor.conv_event_share".into(), "ratio"));
    for l in PAPER_LAYERS {
        m.push((format!("int8.{l}.us_per_item"), "us"));
        m.push((format!("int8.{l}.input_density"), "ratio"));
    }
    for (n, u) in [
        ("setup.load_s", "s"),
        ("setup.quantize_s", "s"),
        ("setup.server_start_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        m.push((n.into(), u));
    }
    m
}

/// Command-line arguments of a benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (check-set items plus measured inferences).
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: HashMap<String, f64>,
    /// Digest of the generated inputs.
    pub inputs: String,
    /// Hash of each served model.
    pub models: String,
}

impl Report {
    /// Sets metric `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Puts 0 for every per-layer metric that starts with one of
    /// `prefixes`: layers the workload does not run.
    pub fn put_absent(&mut self, prefixes: &[&str]) {
        for (name, _) in per_layer() {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.put(&name, 0.0);
            }
        }
    }
}

/// Timings of a run's setups, seconds.
#[derive(Debug, Default)]
pub struct Setups {
    /// Whole setup: start to first verified inference.
    pub total_s: Vec<f64>,
    /// Load and hash-check the model.
    pub load_s: Vec<f64>,
    /// Calibrate and quantize (0 for f32 models).
    pub quantize_s: Vec<f64>,
    /// Start the server (HTTP only).
    pub server_start_s: Vec<f64>,
}

/// Conv route counters of both datapaths (global registry).
#[derive(Debug, Clone, Copy)]
pub struct Routes {
    event: u64,
    dense: u64,
}

impl Routes {
    /// Counts accumulated since `before`.
    pub fn since(self, before: Routes) -> Routes {
        Routes {
            event: self.event - before.event,
            dense: self.dense - before.dense,
        }
    }

    /// Share of conv forwards that took the event route.
    pub fn event_share(&self) -> f64 {
        stats::ratio(self.event as f64, (self.event + self.dense) as f64)
    }
}

/// Reads `snn_tensor_{q,}conv2d_route_{event,dense}_total`.
pub fn conv_routes() -> Routes {
    let r = snn_obs::global();
    let get = |name: &str| r.counter(name, "conv2d forwards by route").get();
    Routes {
        event: get("snn_tensor_conv2d_route_event_total")
            + get("snn_tensor_qconv2d_route_event_total"),
        dense: get("snn_tensor_conv2d_route_dense_total")
            + get("snn_tensor_qconv2d_route_dense_total"),
    }
}

/// Puts `<prefix>.<layer>.*` for every layer of `pass`, and returns
/// each layer's self time in seconds, in forward order.
pub fn put_layer_metrics(
    report: &mut Report,
    prefix: &str,
    pass: &LayerPass,
    totals: &BTreeMap<String, NameTotals>,
) -> Vec<f64> {
    let items = pass.items as f64;
    let steps = items * pass.timesteps as f64;
    pass.layers
        .iter()
        .map(|l| {
            let self_s = totals
                .get(&format!("{prefix}.{}", l.name))
                .map_or(0.0, |t| t.self_s);
            let key = |m: &str| format!("{prefix}.{}.{m}", l.name);
            report.put(&key("us_per_item"), self_s / items * 1e6);
            report.put(&key("input_density"), stats::ratio(l.in_nnz, l.in_len));
            if prefix == "f32" {
                report.put(
                    &key("firing_rate"),
                    stats::ratio(l.out_nnz, l.out_len as f64 * steps),
                );
                report.put(&key("synops_per_item"), l.synops / items);
            }
            self_s
        })
        .collect()
}

/// Prints each hardware stage's share of measured layer time next to
/// the accelerator model's predicted share of cycles.
pub fn print_accel_table(snap: &NetworkSnapshot, pass: &LayerPass, self_s: &[f64]) {
    match layers::accel_shares(snap, pass, self_s) {
        Ok(rows) => {
            println!("stage      measured-time-share  predicted-cycle-share (snn_accel)");
            for r in rows {
                println!(
                    "{:<10} {:>19.3}  {:>21.3}",
                    r.stage, r.measured, r.predicted
                );
            }
        }
        Err(e) => println!("accelerator prediction unavailable: {e}"),
    }
}

/// Writes the spans to `perfbench/out/trace-<workload>-<seed>.json`.
pub fn write_trace(rec: &Recorder, args: &Args) {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    match rec.write_chrome(&path) {
        Ok(()) => println!("wrote {} spans to {}", rec.spans().len(), path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

const USAGE: &str = "usage: perfbench --workload <http-small|batch-default-f32|batch-tuned-int8> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --write-fixtures";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-fixtures"] {
        if let Err(e) = fixtures::write() {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        println!("wrote {}", fixtures::dir().join("manifest.json").display());
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // One kernel thread unless SNN_NUM_THREADS says otherwise: the
    // canonical host has one core, and on two cores the HTTP
    // workload's front end and load generator need the second.
    if std::env::var_os("SNN_NUM_THREADS").is_none() {
        snn_tensor::par::set_num_threads(1);
    }
    let result = fixtures::Manifest::load().and_then(|manifest| match args.workload.as_str() {
        "http-small" => http::run(&args, &manifest),
        "batch-default-f32" => batch::run(&args, &manifest, "default_f32"),
        _ => batch::run(&args, &manifest, "tuned_int8"),
    });
    let report = result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    // Every declared metric must be measured, and nothing else: a
    // dropped or misspelled `put` fails the run instead of reading 0.
    let bad: Vec<&str> = names
        .iter()
        .filter(|(n, _)| !report.metrics.get(n).is_some_and(|v| v.is_finite()))
        .map(|(n, _)| n.as_str())
        .chain(
            report
                .metrics
                .keys()
                .filter(|k| !names.iter().any(|(n, _)| n == *k))
                .map(String::as_str),
        )
        .collect();
    if !bad.is_empty() {
        eprintln!("error: missing, non-finite or undeclared metrics: {bad:?}");
        std::process::exit(1);
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics[name];
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "perfbench: workload={} seed={} inputs={} models={}",
        args.workload, args.seed, report.inputs, report.models
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}
