//! Validates the analytical (mean-based) timing model against the
//! event-driven cycle simulation, and the float training stack
//! against the int8 integer datapath that `snn serve` deploys.
//!
//! ```text
//! cargo run --release -p snn-bench --bin sim_validation [-- --profile quick]
//! ```
//!
//! Two checks a hardware paper's reviewers would ask for:
//!
//! 1. **Timing-model fidelity** — replay real per-timestep spike
//!    traces through the lock-step pipeline; the analytical model
//!    prices mean traffic, so its error equals the burstiness the
//!    barrier has to absorb.
//! 2. **Datapath fidelity** — quantize the model to 8 bits with
//!    `snn-quant` (calibrated per-channel weights, Q-format LIF), run
//!    the integer-only `QuantNetwork` and compare its accuracy with
//!    the float reference on the same direct-coded split.

use snn_accel::simulate_trace;
use snn_bench::{banner, cli_options};
use snn_core::{trace_spikes, Surrogate};
use snn_dse::{bitwidth_sweep, run_point, write_csv};

fn main() {
    let (profile, out_dir) = cli_options();
    banner("Model validation — analytic vs cycle sim, float vs int8", &profile);
    let (train, test) = profile.datasets();
    let started = std::time::Instant::now();

    let lif = profile.lif(Surrogate::FastSigmoid { k: 0.25 }, 0.5, 1.0);
    let point = match run_point(&profile, lif, &train, &test) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("training failed: {e}");
            std::process::exit(1);
        }
    };
    let mut net = point.snapshot.clone().into_network();
    println!(
        "anchor model: accuracy {:.1}%, firing rate {:.1}%\n",
        point.test_accuracy * 100.0,
        point.firing_rate * 100.0
    );

    // --- 1. Timing model vs event-driven simulation.
    let trace = trace_spikes(
        &mut net,
        &test,
        profile.encoding,
        profile.timesteps,
        profile.batch_size,
        0,
    );
    let report = &point.accel;
    let sim = match simulate_trace(
        &report.workload,
        &report.allocation,
        &trace,
        report.timing.sync_overhead_cycles,
        report.timing.latency_cycles(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    };
    println!("timing-model validation (sparsity-aware accelerator):");
    println!("  analytic latency : {} cycles", report.timing.latency_cycles());
    println!("  simulated latency: {} cycles", sim.total_cycles);
    println!(
        "  analytic model error: {:+.2}% (positive = optimistic; Jensen gap from burstiness)",
        sim.analytic_error() * 100.0
    );
    println!("  per-stage occupancy:");
    for s in &sim.stages {
        println!(
            "    {:<8} busy {:>8} cyc, stalled {:>8} cyc, util {:>5.1}%, bottleneck in {:>2} steps",
            s.name,
            s.busy_cycles,
            s.stall_cycles,
            s.utilization() * 100.0,
            s.bottleneck_steps
        );
    }
    for stage in &report.workload.stages {
        println!(
            "    {:<8} input burstiness (peak/mean): {:.2}",
            stage.name,
            trace.burstiness(&stage.name)
        );
    }

    // --- 2. Float vs int8 datapath.
    println!("\ndatapath validation (snn-quant int8 runtime, direct coding):");
    let (cal_items, _) = train.take(32).flat_items();
    let subset = test.take(100);
    let sweep = match bitwidth_sweep(&point.snapshot, &cal_items, &subset, profile.timesteps, &[8])
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("int8 quantization failed: {e}");
            std::process::exit(1);
        }
    };
    let int8 = &sweep.points[0];
    println!("  float accuracy : {:.1}%", sweep.f32_accuracy * 100.0);
    println!("  int8 accuracy  : {:.1}% over {} samples", int8.accuracy * 100.0, sweep.samples);
    println!("  int8 delta     : {:+.1} pts", int8.delta * 100.0);

    let csv_path = out_dir.join("sim_validation.csv");
    let rows = vec![
        vec![
            "analytic_latency_cycles".to_string(),
            report.timing.latency_cycles().to_string(),
        ],
        vec!["simulated_latency_cycles".to_string(), sim.total_cycles.to_string()],
        vec!["analytic_error".to_string(), format!("{:.4}", sim.analytic_error())],
        vec!["float_accuracy".to_string(), format!("{:.4}", sweep.f32_accuracy)],
        vec!["int8_accuracy".to_string(), format!("{:.4}", int8.accuracy)],
        vec!["int8_delta".to_string(), format!("{:.4}", int8.delta)],
    ];
    if let Err(e) = write_csv(&csv_path, &["metric", "value"], rows.into_iter()) {
        eprintln!("warning: could not write {}: {e}", csv_path.display());
    } else {
        println!("\nwrote {}", csv_path.display());
    }
    println!("total wall time: {:.1}s", started.elapsed().as_secs_f64());
}
