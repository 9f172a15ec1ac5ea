//! Cross-crate validation of the hardware models: the event-driven
//! cycle simulator against the analytical timing model, and the
//! served int8 datapath (`snn-quant`) against the float reference.

use std::sync::OnceLock;

use snn_accel::{simulate_trace, AcceleratorConfig};
use snn_core::{evaluate, fit, trace_spikes, NetworkSnapshot, SpikingNetwork, Surrogate};
use snn_data::Dataset;
use snn_dse::{bitwidth_sweep, BitwidthResult, ExperimentProfile};
use snn_tensor::derive_seed;

/// The quick-profile model every test here checks, trained once per
/// test binary (training dominates this file's run time; the
/// snapshot round trip is bitwise, so each test rebuilds the exact
/// trained network with `snapshot.clone().into_network()`).
fn trained_snapshot() -> &'static NetworkSnapshot {
    static SNAPSHOT: OnceLock<NetworkSnapshot> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let profile = ExperimentProfile::quick();
        let (train, _) = profile.datasets();
        let lif = profile.lif(Surrogate::FastSigmoid { k: 0.25 }, 0.5, 1.0);
        let mut net = SpikingNetwork::paper_topology(
            profile.input_shape(),
            train.classes(),
            lif,
            derive_seed(profile.seed, "weights"),
        )
        .expect("topology builds");
        fit(&profile.train_config(), &mut net, &train).expect("training succeeds");
        NetworkSnapshot::from_network(&net)
    })
}

#[test]
fn cycle_sim_agrees_with_analytic_within_burstiness() {
    let profile = ExperimentProfile::quick();
    let snapshot = trained_snapshot();
    let mut net = snapshot.clone().into_network();
    let (_, test) = profile.datasets();
    let eval = evaluate(
        &mut net,
        &test,
        profile.encoding,
        profile.timesteps,
        profile.batch_size,
        0,
    );
    let report = AcceleratorConfig::sparsity_aware()
        .map(snapshot, &eval.profile)
        .expect("fits device");
    let trace = trace_spikes(
        &mut net,
        &test,
        profile.encoding,
        profile.timesteps,
        profile.batch_size,
        0,
    );
    let sim = simulate_trace(
        &report.workload,
        &report.allocation,
        &trace,
        report.timing.sync_overhead_cycles,
        report.timing.latency_cycles(),
    )
    .expect("trace matches workload");
    // The analytical model prices mean traffic; the sim replays the
    // actual trace. They must agree within the burstiness envelope:
    // bounded error, and never wildly divergent.
    let err = sim.analytic_error();
    assert!(
        err > -0.5 && err < 2.0,
        "analytic model error {err} outside the plausible envelope"
    );
    // The simulated schedule accounts every stage's cycles.
    for s in &sim.stages {
        assert!(s.utilization() <= 1.0);
    }
    assert_eq!(sim.step_periods.len(), profile.timesteps + sim.stages.len() - 1);
}

/// Scores the served int8 runtime (`snn-quant`, 8-bit, 32 train
/// items as calibration) against the f32 reference on `test`.
fn int8_sweep(test: &Dataset) -> BitwidthResult {
    let profile = ExperimentProfile::quick();
    let (train, _) = profile.datasets();
    let (cal_items, _) = train.take(32).flat_items();
    bitwidth_sweep(trained_snapshot(), &cal_items, test, profile.timesteps, &[8])
        .expect("8-bit quantization succeeds")
}

#[test]
fn fixed_point_tracks_float_on_trained_model() {
    let profile = ExperimentProfile::quick();
    let (_, test) = profile.datasets();
    let sweep = int8_sweep(&test.take(60));
    // The integer datapath `snn serve` deploys must be a faithful
    // deployment: accuracy within a few points of the float model on
    // the same direct-coded subset.
    assert!(
        sweep.points[0].delta.abs() < 0.15,
        "int8 accuracy {:.3} too far from float {:.3} ({} test items)",
        sweep.points[0].accuracy,
        sweep.f32_accuracy,
        sweep.samples
    );
}

#[test]
fn quantized_snapshot_loses_little_accuracy() {
    let profile = ExperimentProfile::quick();
    let (_, test) = profile.datasets();
    let sweep = int8_sweep(&test);
    assert!(
        sweep.points[0].delta.abs() <= 0.10,
        "int8 quantization cost too much: {:.3} vs {:.3} ({} test items)",
        sweep.points[0].accuracy,
        sweep.f32_accuracy,
        sweep.samples
    );
}
