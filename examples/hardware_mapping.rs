//! Hardware-mapping deep dive: take one trained model and explore
//! what the accelerator simulator exposes — device choices, dataflow
//! choices, the 8-bit integer runtime the server deploys, and how
//! firing rates move the bottleneck.
//!
//! ```text
//! cargo run --release --example hardware_mapping
//! ```

use snn_accel::{AcceleratorConfig, FpgaDevice};
use snn_core::{evaluate, fit, NetworkSnapshot, SpikingNetwork, Surrogate};
use snn_dse::{bitwidth_sweep, ExperimentProfile};
use snn_tensor::derive_seed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = ExperimentProfile::quick();
    let (train, test) = profile.datasets();
    let lif = profile.lif(Surrogate::FastSigmoid { k: 0.25 }, 0.5, 1.5);
    let mut net = SpikingNetwork::paper_topology(
        profile.input_shape(),
        train.classes(),
        lif,
        derive_seed(profile.seed, "weights"),
    )?;
    let cfg = profile.train_config();
    fit(&cfg, &mut net, &train)?;
    let eval = evaluate(&mut net, &test, cfg.encoding, profile.timesteps, profile.batch_size, 0);
    let snapshot = NetworkSnapshot::from_network(&net);
    println!(
        "model trained to {:.1}% accuracy, firing rate {:.1}%\n",
        eval.accuracy * 100.0,
        eval.profile.mean_firing_rate() * 100.0
    );

    // --- Device comparison: the paper's Kintex-class part vs a small
    //     Artix-class part.
    for device in [FpgaDevice::kintex_ultrascale_plus(), FpgaDevice::artix_class()] {
        let cfg = AcceleratorConfig { device, ..AcceleratorConfig::sparsity_aware() };
        match cfg.map(&snapshot, &eval.profile) {
            Ok(r) => {
                println!(
                    "{:<34} {:>8.1} µs  {:>8.0} FPS  {:>6.3} W  {:>8.0} FPS/W",
                    r.device.name,
                    r.latency_us(),
                    r.fps(),
                    r.power_w(),
                    r.fps_per_watt()
                );
            }
            Err(e) => println!("mapping failed: {e}"),
        }
    }

    // --- Dataflow comparison on the Kintex part.
    println!();
    let aware = AcceleratorConfig::sparsity_aware().map(&snapshot, &eval.profile)?;
    let dense = AcceleratorConfig::dense_baseline().map(&snapshot, &eval.profile)?;
    println!(
        "event-driven dataflow: bottleneck `{}` at {} cycles/step",
        aware.timing.bottleneck().0,
        aware.timing.bottleneck().1
    );
    println!(
        "dense dataflow:        bottleneck `{}` at {} cycles/step",
        dense.timing.bottleneck().0,
        dense.timing.bottleneck().1
    );
    println!(
        "sparsity exploitation is worth {:.2}× efficiency on this model",
        aware.fps_per_watt() / dense.fps_per_watt()
    );

    // --- Quantization: what the int8 datapath the memory model
    //     assumes costs, measured on the integer-only runtime.
    println!();
    let (cal_items, _) = train.take(32).flat_items();
    let sweep = bitwidth_sweep(&snapshot, &cal_items, &test, profile.timesteps, &[8])?;
    let int8 = &sweep.points[0];
    println!(
        "int8 datapath: accuracy {:.1}% (fp32: {:.1}%), Δ {:+.2} pts",
        int8.accuracy * 100.0,
        sweep.f32_accuracy * 100.0,
        int8.delta * 100.0
    );
    Ok(())
}
