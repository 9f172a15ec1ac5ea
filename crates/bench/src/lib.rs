//! Shared helpers for the figure-regeneration binaries and benchmark
//! harnesses.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;

use snn_dse::ExperimentProfile;

/// Schema version stamped into every bench-report JSON. Bump whenever
/// a report's field layout changes incompatibly, so downstream
/// tooling comparing runs across commits can refuse mismatched files
/// instead of misreading them.
///
/// v3: kernel reports gain the `density_sweep` section (event-driven
/// vs dense routes across input sparsities) and thread-scaling rows
/// carry `host_limited` flags marking thread counts beyond the host's
/// hardware parallelism.
///
/// v4: kernel reports gain the quantized datapath — a top-level
/// `int8_gemm` comparison against the f32 dense GEMM and a
/// `density_sweep.conv2d_int8` sweep (integer dense vs event routes,
/// with the f32 dense route as baseline); serve reports gain an
/// `int8` phase and the `int8_vs_f32_batched` throughput ratio.
///
/// v5: serve-report phases gain a `stages_us` section — per-stage
/// latency percentiles (`parse`/`queue_wait`/`batch_form`/`forward`/
/// `respond`) lifted from the server's stage histograms, so a
/// throughput regression can be localized to the pipeline stage that
/// moved without re-running the bench under a profiler.
///
/// Serve reports moved to their own version track at v6 (see
/// [`BENCH_SERVE_SCHEMA_VERSION`]); this constant now versions the
/// kernel reports only.
///
/// v6: the `density_sweep.conv2d` rows drop `spike_gemm_seconds` and
/// `event_vs_spike_gemm` — the conv forward's im2col spike-gather
/// branch is gone, so its rows compare only the dense GEMM and event
/// routes.
///
/// v7: `density_sweep` gains `forward_direct` — the paper topology
/// under direct coding (one frame presented at every timestep, the
/// serving case), same row layout as `forward`.
///
/// v8: top-level `int8_lif_row` — ns per neuron of the int8 LIF row
/// step at conv1's row shape, certified and fallback rows, next to the
/// f32 LIF step over the same neuron count.
///
/// v9: top-level `maxpool` — ns per input of the 2×2 / stride-2 max
/// pool at pool1's and pool2's input sides, `u8` and `f32`, with
/// `u8_vs_f32`.
///
/// v10: top-level `spike_count` — ns per element of the per-item
/// nonzero counter every f32 layer step runs, at conv1's output shape
/// and 2/5/20/50% spike density, next to the `filter().count()` it
/// replaced (`naive_ns_per_element`, `lanes_vs_naive`) and the f32
/// LIF step (`lif_ns_per_element`).
pub const BENCH_SCHEMA_VERSION: u32 = 10;

/// Schema version of `BENCH_serve.json`, split from the kernel track
/// at v6 so the two report families can evolve independently.
///
/// v6: serve reports gain a top-level `capacity` section measured by
/// the `snn-pool` open-loop load generator against a replicated epoll
/// server — the SLO (p99 bound + error budget), the maximum sustained
/// rps meeting it, the per-rate sweep points, per-replica routed
/// counts and engine utilization, and the router's decision counters
/// (`p2c`/`fallback`/`rerouted`).
///
/// v7: serve reports gain the brownout drill — `brownout-off` /
/// `brownout` phases (a dense model under a seeded SLO fast burn,
/// without and with a published INT8 brownout artifact) and the
/// top-level `brownout_goodput_gain` ratio; the capacity sweep's
/// loadgen rows gain `retries_total` (bounded client-side retry
/// budget, transport errors and 5xx only).
pub const BENCH_SERVE_SCHEMA_VERSION: u32 = 7;

/// The git commit the benchmark binary was run from, or `"unknown"`
/// outside a git checkout (or when `git` itself is unavailable).
///
/// Best effort by design: provenance should never fail a bench run.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Parses `--profile <micro|quick|bench|full>` from `std::env::args`
/// (default: `bench`) and `--out <dir>` (default: `results/`).
///
/// Exits the process with a usage message on an unknown profile —
/// these are CLI entry points, not library calls.
pub fn cli_options() -> (ExperimentProfile, PathBuf) {
    let args: Vec<String> = std::env::args().collect();
    let mut profile = ExperimentProfile::bench();
    let mut out = PathBuf::from("results");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--profile" => {
                let name = args.get(i + 1).map(String::as_str).unwrap_or("");
                profile = match ExperimentProfile::by_name(name) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("error: {e}");
                        eprintln!("usage: --profile <micro|quick|bench|full> [--out DIR]");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--out" => {
                out = PathBuf::from(args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("error: --out requires a directory");
                    std::process::exit(2);
                }));
                i += 2;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: --profile <micro|quick|bench|full> [--out DIR]");
                std::process::exit(2);
            }
        }
    }
    (profile, out)
}

/// Prints a banner line for a regeneration binary.
pub fn banner(title: &str, profile: &ExperimentProfile) {
    println!("=== {title} ===");
    println!(
        "profile `{}`: {}x{}x{} images, {} train / {} test, {} epochs, T={}",
        profile.name,
        profile.channels,
        profile.image_size,
        profile.image_size,
        profile.train_samples,
        profile.test_samples,
        profile.epochs,
        profile.timesteps
    );
    println!();
}
