//! Cross-crate integration: the full train → evaluate → profile →
//! map pipeline on the synthetic SVHN task.

use std::sync::OnceLock;

use snn_accel::AcceleratorConfig;
use snn_core::{evaluate, fit, EvalReport, NetworkSnapshot, SpikingNetwork, Surrogate};
use snn_dse::ExperimentProfile;
use snn_tensor::derive_seed;

/// Shared fixture: a trained quick-profile model with its eval
/// report, trained once per test binary (training dominates this
/// file's run time). The snapshot round trip is bitwise, so a test
/// that needs the network rebuilds the exact trained one from the
/// snapshot.
fn trained() -> &'static (NetworkSnapshot, EvalReport) {
    static TRAINED: OnceLock<(NetworkSnapshot, EvalReport)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let profile = ExperimentProfile::quick();
        let (train, test) = profile.datasets();
        let lif = profile.lif(Surrogate::FastSigmoid { k: 0.25 }, 0.25, 1.0);
        let mut net = SpikingNetwork::paper_topology(
            profile.input_shape(),
            train.classes(),
            lif,
            derive_seed(profile.seed, "weights"),
        )
        .expect("paper topology builds on quick profile");
        let cfg = profile.train_config();
        fit(&cfg, &mut net, &train).expect("training succeeds");
        let eval = evaluate(
            &mut net,
            &test,
            cfg.encoding,
            profile.timesteps,
            profile.batch_size,
            0,
        );
        (NetworkSnapshot::from_network(&net), eval)
    })
}

#[test]
fn pipeline_learns_above_chance_and_maps() {
    let (snapshot, eval) = trained();
    // 10 balanced classes → chance 10%. The quick profile must beat
    // it clearly for sweep results to mean anything.
    assert!(
        eval.accuracy > 0.25,
        "quick-profile accuracy {:.3} not above chance",
        eval.accuracy
    );
    assert!(eval.profile.mean_firing_rate() > 0.0);
    assert!(eval.profile.mean_firing_rate() < 0.9);

    let aware = AcceleratorConfig::sparsity_aware()
        .map(snapshot, &eval.profile)
        .expect("model fits the Kintex-class device");
    let dense = AcceleratorConfig::dense_baseline()
        .map(snapshot, &eval.profile)
        .expect("model fits the Kintex-class device");

    // The central hardware premise: event-driven execution of a
    // sparse model is faster and more efficient than dense execution.
    assert!(aware.latency_us() < dense.latency_us());
    assert!(aware.fps_per_watt() > dense.fps_per_watt());
    // Both mappings respect device budgets.
    for r in [&aware, &dense] {
        assert!(r.allocation.dsp_utilization(&r.device) <= 1.0);
        assert!(r.allocation.lut_utilization(&r.device) <= 1.0);
        assert!(r.allocation.mem_utilization(&r.device) <= 1.0);
    }
}

#[test]
fn snapshot_roundtrip_preserves_eval() {
    let (snapshot, eval) = trained();
    let profile = ExperimentProfile::quick();
    let json = serde_json::to_string(snapshot).expect("snapshot serializes");
    let restored: NetworkSnapshot = serde_json::from_str(&json).expect("snapshot parses");
    let mut net2 = restored.into_network();
    let (_, test) = profile.datasets();
    let eval2 = evaluate(
        &mut net2,
        &test,
        profile.encoding,
        profile.timesteps,
        profile.batch_size,
        0,
    );
    assert_eq!(eval.accuracy, eval2.accuracy);
    assert_eq!(eval.profile, eval2.profile);
}

#[test]
fn sparsity_profile_feeds_workload_consistently() {
    let (snapshot, eval) = trained();
    let report = AcceleratorConfig::sparsity_aware()
        .map(snapshot, &eval.profile)
        .expect("mapping succeeds");
    // Stage firing in the workload equals the measured profile.
    for stage in &report.workload.stages {
        let measured = eval
            .profile
            .layer(&stage.name)
            .expect("profile covers stage")
            .firing_rate();
        // out_events before pooling equals rate × neurons; after
        // fused pooling it is the pooled stream, which is ≤ neurons.
        assert!(stage.out_events >= 0.0);
        assert!((0.0..=1.0).contains(&measured));
    }
    // Event work never exceeds dense work by more than the conv
    // padding slack.
    for stage in &report.workload.stages {
        assert!(
            stage.event_macs() <= stage.dense_macs as f64 * 1.2 + 1.0,
            "stage {} does more event work than dense work",
            stage.name
        );
    }
}
