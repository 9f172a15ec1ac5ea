//! `snn` — command-line front end for the DATE'24 reproduction
//! workspace.
//!
//! ```text
//! snn train --profile quick --beta 0.5 --theta 1.5 \
//!           --surrogate fast_sigmoid:0.25 --out model.json
//! snn eval  --model model.json --profile quick
//! snn map   --model model.json --profile quick --dataflow dense
//! snn info  --model model.json
//! snn serve --model model.json --addr 127.0.0.1:7878
//! ```

mod args;
mod live;
mod obscheck;

use args::{parse_surrogate, Args};

use snn_accel::{AcceleratorConfig, FpgaDevice};
use snn_core::{evaluate, fit, LifConfig, NetworkSnapshot, SpikingNetwork, TrainCheckpoint, Trainer};
use snn_dse::ExperimentProfile;
use snn_store::{ArtifactRegistry, RunStore, VersionSpec};
use snn_tensor::derive_seed;

const USAGE: &str = "\
usage: snn <command> [flags]

commands:
  train   train the paper topology on synthetic SVHN and save a snapshot
          --profile micro|quick|bench|full (quick)   --beta F (0.25)
          --theta F (1.0)   --surrogate FAMILY[:SCALE] (fast_sigmoid:0.25)
          --out PATH (model.json)   --epochs N (profile default)
          --store DIR (durable run store; enables the flags below)
          --run-id ID (run-<profile>)   --checkpoint-every N (1)
          --resume (continue from the run's latest checkpoint)
          --publish NAME (publish the snapshot to the artifact registry)
  eval    evaluate a saved snapshot
          --model PATH   --profile … (quick)
  map     map a saved snapshot onto the accelerator model
          --model PATH   --profile … (quick)
          --dataflow event|dense (event)   --device kintex|artix (kintex)
  info    print a saved snapshot's layer table
          --model PATH
  quantize  post-training-quantize an f32 snapshot to an INT8 artifact
          --model PATH | --store DIR --model-name NAME
            [--model-version latest|N] (f32 source)
          --profile … (quick; calibration + accuracy datasets)
          --bits N (8; weight bits, 2..=8)   --timesteps N (profile default)
          --calibration-samples N (32)   --out PATH (write artifact JSON)
          --publish NAME (with --store: publish to the artifact registry)
          --sweep-bits LIST (e.g. 2,4,6,8: accuracy-vs-bitwidth table)
  serve   serve a snapshot over HTTP with dynamic micro-batching
          --model PATH | --demo SIDE (in-memory demo net, SIDE x SIDE input)
          | --store DIR --model-name NAME [--model-version latest|N]
            (load a published artifact from the registry)
          f32 and INT8 artifacts both serve; the engine follows the
          artifact's dtype
          --addr HOST:PORT (127.0.0.1:7878; port 0 picks a free port)
          --timesteps N (4)   --max-batch N (8)   --max-wait-us N (2000)
          --capacity N (64)   --timeout-ms N (2000; 0 disables)
          --replicas N (1; engine replicas behind the nonblocking
                epoll front end and its power-of-two-choices router)
          --breaker-threshold N (consecutive worker failures before a
                circuit opens; default from the batcher config)
          --brownout-model PATH (publish an INT8 artifact as the
                brownout target: batch workers degrade to it while the
                SLO error budget fast-burns)
          --quarantine-trips N (3; breaker trips before the
                supervisor quarantines, rebuilds, and probes a replica;
                the last serving replica is never quarantined)
          --drain-ms N (5000; SIGTERM graceful-drain deadline — stop
                accepting, finish in-flight, exit 0)
  loadgen open-loop (Poisson) load generator and SLO capacity report
          --addr HOST:PORT (target server)   --rps F (200)
          --sweep LIST (e.g. 100,200,400: capacity sweep over offered
                rates; reports max sustained rps meeting the SLO)
          --duration-ms N (2000)   --warmup-ms N (500)
          --connections N (4)   --input-len N (64)
          --bad-fraction F (0; intentional 400s mixed into the traffic)
          --timeout-ms N (0; adds timeout_ms to request bodies)
          --retries N (2; per-request retry budget for transport errors
                and 5xx, jittered backoff; 429 sheds are never retried)
          --seed N (42)   --p99-ms F (25)   --max-error-rate F (0.001)
          --out FILE (with --sweep: write a schema-v7 BENCH_serve-style
                report with the `capacity` section)
  profile run forward+backward passes and print a span-tree time breakdown
          --demo [SIDE] (8) | --model PATH   --reps N (3)
          --timesteps N (4)   --batch N (2)
          SNN_TRACE=out.jsonl also writes chrome://tracing trace events
  obs-check  validate observability artifacts (used by scripts/ci.sh)
          --text FILE (Prometheus exposition)   --json FILE (/metrics.json body)
          --trace FILE (SNN_TRACE trace_event output)
          --traces FILE (/debug/traces body: ids, stages, sampling stats)
          --log FILE (structured JSONL event log: ts/level/msg per line)
          --bench FILE (BENCH_kernels.json or BENCH_serve.json; the
                report kind is sniffed from its sections)
          --require LIST (metric-family prefixes, e.g.
                snn_serve_admit,snn_pool_quarantine: fail unless each
                is present in the given --text/--json expositions)
          --min-conv-event-speedup X
                (fail if the 90%-sparsity event conv2d speedup is below X)
          --min-int8-speedup X (fail if the int8 GEMM speedup over the
                f32 dense GEMM is below X)
  tail    follow a server's observability streams
          --log FILE (follow the SNN_LOG event log)
          | --addr HOST:PORT (poll GET /debug/traces)
          --min-ms F (0)   --route PATH   --engine f32|int8
          --n N (32 traces per poll)   --once (one sample, then exit)
  top     live per-stage latency table from GET /metrics.json
          --addr HOST:PORT   --interval-ms N (1000)   --once
  runs    inspect and maintain a durable run store
          list --store DIR   (runs, checkpoints, published artifacts)
          gc   --store DIR   (delete registry blobs no version references)
  chaos   fault-injection drill: supervised training (checkpoint →
          rollback → resume) then serving (worker panic → typed 503 →
          self-heal), all under an injected fault plan
          --plan SPEC (io_err@store:0.05,panic@serve.worker:1)
          --seed N (7)   --epochs N (70)

environment:
  SNN_FAULTS=SPEC, SNN_FAULT_SEED=N   inject the same deterministic
          fault plan into any command (rules: kind@site[:trigger],
          kind io_err|nan|panic; trigger probability or Nth occurrence)
  SNN_LOG=level[:FILE]   structured JSONL event log (error|warn|info|debug;
          stderr when FILE omitted)
  SNN_SLO=SPEC   serve SLO objectives, e.g. p99=25ms,avail=99.9
          (burn-rate gauges + /healthz degradation)
  SNN_TRACE_RING=N, SNN_TRACE_SLOW_MS=N, SNN_TRACE_SAMPLE=F   request
          trace ring behind /debug/traces (N=0 disables; tail sampling
          always keeps errors and slow requests)
";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => die(&e),
    };
    // `SNN_FAULTS` arms deterministic fault injection for the whole
    // command; unset, this is a no-op and the plan stack stays empty.
    let _fault_guard = match snn_fault::FaultPlan::from_env() {
        Ok(plan) => plan.map(|p| snn_fault::install(std::sync::Arc::new(p))),
        Err(e) => die(&e),
    };
    let result = match args.command.as_str() {
        "train" => cmd_train(&args),
        "quantize" => cmd_quantize(&args),
        "eval" => cmd_eval(&args),
        "map" => cmd_map(&args),
        "info" => cmd_info(&args),
        "serve" => cmd_serve(&args),
        "loadgen" => cmd_loadgen(&args),
        "profile" => cmd_profile(&args),
        "obs-check" => cmd_obs_check(&args),
        "tail" => live::cmd_tail(&args),
        "top" => live::cmd_top(&args),
        "runs" => cmd_runs(&args),
        "chaos" => cmd_chaos(&args),
        "" | "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    if let Err(e) = result {
        die(&e);
    }
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    std::process::exit(2)
}

fn profile_from(args: &Args) -> Result<ExperimentProfile, String> {
    ExperimentProfile::by_name(args.get("profile", "quick"))
}

fn load_model(args: &Args) -> Result<NetworkSnapshot, String> {
    let path = args.require("model")?;
    NetworkSnapshot::load_json(path).map_err(|e| format!("cannot load `{path}`: {e}"))
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let profile = profile_from(args)?;
    let beta: f32 = args.get_parsed("beta", 0.25)?;
    let theta: f32 = args.get_parsed("theta", 1.0)?;
    let surrogate = parse_surrogate(args.get("surrogate", "fast_sigmoid:0.25"))?;
    let out = args.get("out", "model.json");

    let (train, test) = profile.datasets();
    let lif = LifConfig { beta, theta, surrogate, ..LifConfig::paper_default() };
    lif.validate()?;
    let mut net = SpikingNetwork::paper_topology(
        profile.input_shape(),
        train.classes(),
        lif,
        derive_seed(profile.seed, "weights"),
    )
    .map_err(|e| e.to_string())?;
    let mut cfg = profile.train_config();
    cfg.epochs = args.get_parsed("epochs", cfg.epochs)?;
    println!(
        "training {} parameters on {} samples ({} epochs, T={}, {} surrogate, β={beta}, θ={theta})",
        net.param_count(),
        train.len(),
        cfg.epochs,
        profile.timesteps,
        surrogate,
    );
    let report = if let Some(store_dir) = args.opt("store") {
        let store = RunStore::open(store_dir);
        let default_run = format!("run-{}", profile.name);
        let run_id = args.get("run-id", &default_run).to_string();
        let every: usize = args.get_parsed("checkpoint-every", 1)?;
        let mut trainer = Trainer::new(cfg).checkpoint_every(every);
        if args.has("resume") {
            match TrainCheckpoint::load_latest(&store, &run_id).map_err(|e| e.to_string())? {
                Some(ckpt) => {
                    println!(
                        "resuming run `{run_id}` from checkpoint at epoch {}",
                        ckpt.next_epoch
                    );
                    trainer = trainer.resume_from(ckpt);
                }
                None => println!("run `{run_id}` has no checkpoint; starting fresh"),
            }
        }
        trainer.fit_with(&mut net, &train, |ckpt| {
            ckpt.save(&store, &run_id).map(|_| ()).map_err(|e| e.to_string())
        })?
    } else {
        for flag in ["run-id", "checkpoint-every", "resume", "publish"] {
            if args.has(flag) {
                return Err(format!("--{flag} requires --store"));
            }
        }
        fit(&cfg, &mut net, &train)?
    };
    for e in &report.epochs {
        println!(
            "  epoch {:>2}: loss {:.4}  acc {:.1}%  lr {:.5}",
            e.epoch,
            e.train_loss,
            e.train_accuracy * 100.0,
            e.lr
        );
    }
    let eval = evaluate(&mut net, &test, cfg.encoding, profile.timesteps, profile.batch_size, 0);
    println!(
        "test accuracy {:.1}%  firing rate {:.1}%  ({:.1}s)",
        eval.accuracy * 100.0,
        eval.profile.mean_firing_rate() * 100.0,
        report.wall_secs
    );
    let snapshot = NetworkSnapshot::from_network(&net);
    snapshot
        .save_json(out)
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!("saved {out}");
    if let Some(model_name) = args.opt("publish") {
        let registry = ArtifactRegistry::open(args.require("store")?);
        let meta = vec![
            ("profile".to_string(), profile.name.to_string()),
            ("surrogate".to_string(), surrogate.to_string()),
            ("beta".to_string(), beta.to_string()),
            ("theta".to_string(), theta.to_string()),
            ("epochs".to_string(), cfg.epochs.to_string()),
            ("test_accuracy".to_string(), format!("{:.4}", eval.accuracy)),
        ];
        let entry = registry.publish(model_name, &snapshot, meta).map_err(|e| e.to_string())?;
        println!(
            "published {} v{}  hash {}  ({} bytes)",
            entry.name, entry.version, entry.hash, entry.bytes
        );
    }
    Ok(())
}

/// Post-training quantization: load an f32 snapshot (file or
/// registry), calibrate activation ranges on the profile's train
/// split, emit an INT8 artifact, and report both engines' accuracy on
/// the test split under direct coding — the presentation the serve
/// path uses, so the printed numbers transfer to `/infer` unchanged.
fn cmd_quantize(args: &Args) -> Result<(), String> {
    use snn_quant::{calibrate, quantize_snapshot, QuantNetwork};

    let (snapshot, source) = if let Some(model_name) = args.opt("model-name") {
        let store_dir = args.require("store")?;
        let spec = VersionSpec::parse(args.get("model-version", "latest"))?;
        let registry = ArtifactRegistry::open(store_dir);
        let (entry, payload) = registry.load(model_name, spec).map_err(|e| e.to_string())?;
        let snapshot: NetworkSnapshot = serde_json::from_str(&payload)
            .map_err(|e| format!("artifact `{model_name}` is not an f32 network snapshot: {e}"))?;
        (snapshot, format!("{}@v{}", entry.name, entry.version))
    } else {
        (load_model(args)?, args.require("model")?.to_string())
    };
    snapshot.validate().map_err(|e| format!("source snapshot: {e}"))?;

    let profile = profile_from(args)?;
    let bits: u32 = args.get_parsed("bits", 8)?;
    let timesteps: usize = args.get_parsed("timesteps", profile.timesteps)?;
    let cal_samples: usize = args.get_parsed("calibration-samples", 32)?;
    if cal_samples == 0 {
        return Err("--calibration-samples must be at least 1".into());
    }
    let (train, test) = profile.datasets();
    let input_len: usize = snapshot.input_item_dims.iter().product();
    if test.item_shape().dims().iter().product::<usize>() != input_len {
        return Err(format!(
            "model expects {input_len} inputs but profile `{}` provides {}",
            profile.name,
            test.item_shape()
        ));
    }

    let (cal_items, _) = train.take(cal_samples).flat_items();
    let cal = calibrate(&snapshot, &cal_items, timesteps).map_err(|e| e.to_string())?;
    let artifact = quantize_snapshot(&snapshot, &cal, bits).map_err(|e| e.to_string())?;
    println!(
        "quantized {source}: {bits}-bit weights, {} stages, {} parameters ({} calibration items)",
        artifact.stages.len(),
        artifact.param_count(),
        cal_items.len()
    );

    let f32_eval = evaluate(
        &mut snapshot.clone().into_network(),
        &test,
        snn_data::SpikeEncoding::Direct,
        timesteps,
        profile.batch_size,
        0,
    );
    let (test_items, test_labels) = test.flat_items();
    let mut qnet = QuantNetwork::from_snapshot(&artifact).map_err(|e| e.to_string())?;
    let int8_accuracy = qnet
        .evaluate_accuracy(&test_items, &test_labels, timesteps)
        .map_err(|e| e.to_string())?;
    // ci.sh parses this line; keep the `f32=`/`int8=` keys stable.
    println!(
        "accuracy f32={:.4} int8={:.4} delta={:+.4} (direct coding, T={timesteps}, {} test items)",
        f32_eval.accuracy,
        int8_accuracy,
        int8_accuracy - f32_eval.accuracy,
        test.len()
    );

    if let Some(spec) = args.opt("sweep-bits") {
        let widths: Vec<u32> = spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("--sweep-bits: not a bit width: `{s}`"))
            })
            .collect::<Result<_, _>>()?;
        let sweep = snn_dse::bitwidth_sweep(&snapshot, &cal_items, &test, timesteps, &widths)?;
        println!("\nbits  accuracy    delta");
        for p in &sweep.points {
            println!("{:>4}  {:>8.4}  {:>+8.4}", p.bits, p.accuracy, p.delta);
        }
        match sweep.narrowest_within(0.02) {
            Some(p) => println!(
                "narrowest width within 2% of f32 ({:.4}): {} bits",
                sweep.f32_accuracy, p.bits
            ),
            None => println!("no swept width stays within 2% of f32 ({:.4})", sweep.f32_accuracy),
        }
    }

    let mut persisted = false;
    if let Some(out) = args.opt("out") {
        artifact.save_json(out).map_err(|e| format!("cannot write `{out}`: {e}"))?;
        println!("saved {out}");
        persisted = true;
    }
    if let Some(publish_name) = args.opt("publish") {
        let registry = ArtifactRegistry::open(args.require("store")?);
        let meta = vec![
            ("dtype".to_string(), "int8".to_string()),
            ("format".to_string(), snn_quant::QUANT_FORMAT.to_string()),
            ("bits".to_string(), bits.to_string()),
            ("source".to_string(), source.clone()),
            ("profile".to_string(), profile.name.to_string()),
            ("f32_accuracy".to_string(), format!("{:.4}", f32_eval.accuracy)),
            ("int8_accuracy".to_string(), format!("{int8_accuracy:.4}")),
        ];
        let entry = registry.publish(publish_name, &artifact, meta).map_err(|e| e.to_string())?;
        println!(
            "published {} v{}  hash {}  ({} bytes)",
            entry.name, entry.version, entry.hash, entry.bytes
        );
        persisted = true;
    }
    if !persisted {
        println!("note: artifact not persisted (pass --out PATH and/or --store DIR --publish NAME)");
    }
    Ok(())
}

fn cmd_runs(args: &Args) -> Result<(), String> {
    let store_dir = args.require("store")?;
    let store = RunStore::open(store_dir);
    match args.action.as_str() {
        "list" => {
            let runs = store.list_runs().map_err(|e| e.to_string())?;
            if runs.is_empty() {
                println!("no runs in `{store_dir}`");
            } else {
                println!("{:<24} {:>11} {:>12} {:>8}", "run", "checkpoints", "latest epoch", "journal");
                for r in &runs {
                    let latest =
                        r.checkpoints.last().map_or_else(|| "-".into(), ToString::to_string);
                    println!(
                        "{:<24} {:>11} {:>12} {:>8}",
                        r.run_id,
                        r.checkpoints.len(),
                        latest,
                        if r.has_journal { "yes" } else { "no" }
                    );
                }
            }
            let registry = store.registry();
            let models = registry.models().map_err(|e| e.to_string())?;
            if models.is_empty() {
                println!("no published artifacts");
            } else {
                println!("\n{:<24} {:>8} {:>18} {:>10}", "artifact", "version", "hash", "bytes");
                for name in models {
                    for version in registry.versions(&name).map_err(|e| e.to_string())? {
                        let entry = registry
                            .entry(&name, VersionSpec::Exact(version))
                            .map_err(|e| e.to_string())?;
                        println!(
                            "{:<24} {:>8} {:>18} {:>10}",
                            entry.name, entry.version, entry.hash, entry.bytes
                        );
                    }
                }
            }
            Ok(())
        }
        "gc" => {
            let removed = store.registry().gc().map_err(|e| e.to_string())?;
            println!("removed {} unreferenced blob(s)", removed.len());
            for hash in removed {
                println!("  {hash}");
            }
            Ok(())
        }
        other => Err(format!("unknown runs action `{other}` (expected list|gc)")),
    }
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let profile = profile_from(args)?;
    let mut net = load_model(args)?.into_network();
    let (_, test) = profile.datasets();
    if test.item_shape() != net.input_item_shape() {
        return Err(format!(
            "model expects {} inputs but profile `{}` provides {}",
            net.input_item_shape(),
            profile.name,
            test.item_shape()
        ));
    }
    let eval = evaluate(
        &mut net,
        &test,
        profile.encoding,
        profile.timesteps,
        profile.batch_size,
        0,
    );
    println!("test accuracy {:.2}%  loss {:.4}", eval.accuracy * 100.0, eval.loss);
    println!("per-layer firing:");
    for l in &eval.profile.layers {
        if l.neurons > 0 {
            println!("  {:<10} {:>7} neurons  {:>6.2}%", l.name, l.neurons, l.firing_rate() * 100.0);
        }
    }
    Ok(())
}

fn cmd_map(args: &Args) -> Result<(), String> {
    let profile = profile_from(args)?;
    let snapshot = load_model(args)?;
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
    let device = match args.get("device", "kintex") {
        "kintex" => FpgaDevice::kintex_ultrascale_plus(),
        "artix" => FpgaDevice::artix_class(),
        other => return Err(format!("unknown device `{other}` (expected kintex|artix)")),
    };
    let sparsity_aware = match args.get("dataflow", "event") {
        "event" => true,
        "dense" => false,
        other => return Err(format!("unknown dataflow `{other}` (expected event|dense)")),
    };
    let cfg = AcceleratorConfig {
        device,
        sparsity_aware,
        ..AcceleratorConfig::sparsity_aware()
    };
    let report = cfg.map(&snapshot, &eval.profile).map_err(|e| e.to_string())?;
    println!("{report}");
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use snn_serve::{BatcherConfig, ModelRegistry, ServedModel};
    use std::time::Duration;

    let (model, name) = if let Some(side) = args.opt("demo") {
        let side: usize = side
            .parse()
            .map_err(|_| format!("flag --demo: cannot parse `{side}` as an input side"))?;
        (ServedModel::from(demo_snapshot(side)?), format!("demo-{side}x{side}"))
    } else if let Some(store_dir) = args.opt("store") {
        let model_name = args.require("model-name")?;
        let spec = VersionSpec::parse(args.get("model-version", "latest"))?;
        let registry = ArtifactRegistry::open(store_dir);
        let (entry, payload) = registry.load(model_name, spec).map_err(|e| e.to_string())?;
        // The payload's key shape names its dtype: f32 snapshots and
        // INT8 quantized artifacts both load, each onto its own engine.
        let model = ServedModel::from_json(&payload)
            .map_err(|e| format!("artifact `{model_name}` is not a servable model: {e}"))?;
        (model, format!("{}@v{}", entry.name, entry.version))
    } else {
        let path = args.require("model")?;
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot load `{path}`: {e}"))?;
        let model =
            ServedModel::from_json(&text).map_err(|e| format!("cannot load `{path}`: {e}"))?;
        (model, path.to_string())
    };
    let timesteps: usize = args.get_parsed("timesteps", 4)?;
    let max_batch: usize = args.get_parsed("max-batch", 8)?;
    let max_wait_us: u64 = args.get_parsed("max-wait-us", 2000)?;
    let capacity: usize = args.get_parsed("capacity", 64)?;
    let timeout_ms: u64 = args.get_parsed("timeout-ms", 2000)?;
    let replicas: usize = args.get_parsed("replicas", 1)?;
    if max_batch == 0 || capacity == 0 || replicas == 0 {
        return Err("--max-batch, --capacity, and --replicas must be at least 1".into());
    }

    let registry =
        std::sync::Arc::new(ModelRegistry::new(model, name).map_err(|e| e.to_string())?);
    let info = registry.info();
    // An INT8 artifact published into the brownout slot: while the SLO
    // error budget fast-burns, batch workers degrade new batches to it
    // instead of shedding.
    if let Some(path) = args.opt("brownout-model") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot load `{path}`: {e}"))?;
        let artifact = ServedModel::from_json(&text)
            .map_err(|e| format!("cannot load `{path}`: {e}"))?;
        let binfo = registry
            .publish_brownout(artifact, path.to_string())
            .map_err(|e| format!("--brownout-model `{path}`: {e}"))?;
        println!(
            "brownout artifact: {} [{}] ({} inputs, {} classes)",
            binfo.name, binfo.dtype, binfo.input_len, binfo.classes
        );
    }
    let addr = args.get("addr", "127.0.0.1:7878").to_string();
    let mut batcher = BatcherConfig {
        max_batch,
        max_wait: Duration::from_micros(max_wait_us),
        capacity,
        timesteps,
        ..BatcherConfig::default()
    };
    batcher.breaker_threshold = args.get_parsed("breaker-threshold", batcher.breaker_threshold)?;
    if batcher.breaker_threshold == 0 {
        return Err("--breaker-threshold must be at least 1".into());
    }
    let default_timeout = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
    println!(
        "serving {} [{}] ({} inputs, {} classes, {} parameters, T={timesteps})",
        info.name, info.dtype, info.input_len, info.classes, info.params
    );
    let quarantine_trips: u32 = args.get_parsed("quarantine-trips", 3)?;
    let drain_ms: u64 = args.get_parsed("drain-ms", 5000)?;
    // The epoll front end multiplexes every connection on one thread,
    // with N engine replicas behind a power-of-two-choices router.
    let cfg = snn_pool::PoolServerConfig {
        addr,
        replicas,
        batcher,
        default_timeout,
        quarantine_trips,
        drain_timeout: Duration::from_millis(drain_ms.max(1)),
        // SIGTERM starts a graceful drain: stop accepting, finish
        // in-flight requests, then exit 0.
        handle_sigterm: true,
        // Trace ring and SLO objectives come from the environment
        // (SNN_TRACE_RING / SNN_SLO) via the config default.
        ..snn_pool::PoolServerConfig::default()
    };
    let mut server = snn_pool::PoolServer::start(registry, cfg).map_err(|e| e.to_string())?;
    let plural = if replicas == 1 { "" } else { "s" };
    println!("pool: {replicas} replica{plural}, power-of-two-choices routing, epoll front end");
    // ci.sh and other harnesses parse this line for the ephemeral port.
    println!("listening on {}", server.addr());
    server.join();
    Ok(())
}

/// Open-loop (Poisson) load generation against a running server, with
/// an optional multi-rate capacity sweep producing the schema-v7
/// `capacity` section. `scripts/ci.sh` runs the single-rate form as a
/// smoke gate and parses the `loadgen:` line.
fn cmd_loadgen(args: &Args) -> Result<(), String> {
    use snn_pool::{capacity_sweep, LoadgenConfig, SloSpec};
    use std::time::Duration;

    let addr = args.require("addr")?.to_string();
    let rps: f64 = args.get_parsed("rps", 200.0)?;
    let duration_ms: u64 = args.get_parsed("duration-ms", 2000)?;
    let warmup_ms: u64 = args.get_parsed("warmup-ms", 500)?;
    let connections: usize = args.get_parsed("connections", 4)?;
    let input_len: usize = args.get_parsed("input-len", 64)?;
    let bad_fraction: f64 = args.get_parsed("bad-fraction", 0.0)?;
    let timeout_ms: u64 = args.get_parsed("timeout-ms", 0)?;
    let retries: u32 = args.get_parsed("retries", 2)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    if rps <= 0.0 || !rps.is_finite() {
        return Err("--rps must be a positive rate".into());
    }
    if !(0.0..=1.0).contains(&bad_fraction) {
        return Err("--bad-fraction must be within [0, 1]".into());
    }
    if connections == 0 || duration_ms == 0 {
        return Err("--connections and --duration-ms must be at least 1".into());
    }
    let cfg = LoadgenConfig {
        addr,
        rps,
        warmup: Duration::from_millis(warmup_ms),
        duration: Duration::from_millis(duration_ms),
        connections,
        input_len,
        bad_fraction,
        timeout_ms: (timeout_ms > 0).then_some(timeout_ms),
        retries,
        seed,
    };
    let slo = SloSpec {
        p99_ms: args.get_parsed("p99-ms", 25.0)?,
        max_error_rate: args.get_parsed("max-error-rate", 0.001)?,
    };

    if let Some(spec) = args.opt("sweep") {
        let rates: Vec<f64> = spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|r| *r > 0.0 && r.is_finite())
                    .ok_or_else(|| format!("--sweep: not a positive rate: `{s}`"))
            })
            .collect::<Result<_, _>>()?;
        if rates.is_empty() {
            return Err("--sweep needs at least one rate".into());
        }
        println!(
            "loadgen sweep: {} rates against {}, {}ms measure / {}ms warmup per point, \
             {} connections",
            rates.len(),
            cfg.addr,
            duration_ms,
            warmup_ms,
            connections
        );
        let report = capacity_sweep(&cfg, &rates, slo);
        for p in &report.points {
            println!(
                "  offered {:>8.0} rps: achieved {:>8.1}  p99 {:>8.2}ms  error_rate {:.4}  {}",
                p.rps,
                p.achieved_rps,
                p.p99_ms,
                p.error_rate,
                if p.met_slo { "meets SLO" } else { "breaks SLO" }
            );
        }
        for r in &report.per_replica {
            println!(
                "  replica {}: {} routed, {:.1}% engine-utilized over the sweep",
                r.replica,
                r.routed,
                r.utilization * 100.0
            );
        }
        println!(
            "  router: {} p2c, {} fallback, {} rerouted",
            report.router.p2c, report.router.fallback, report.router.rerouted
        );
        // ci.sh and other harnesses parse this line.
        println!(
            "capacity: max_sustained_rps={:.1} (p99<{}ms, error_rate<{})",
            report.max_sustained_rps, slo.p99_ms, slo.max_error_rate
        );
        if let Some(out) = args.opt("out") {
            let body = serde::Value::Object(vec![
                ("schema_version".into(), serde::Value::Number(7.0)),
                ("git_commit".into(), serde::Value::String(git_commit())),
                ("source".into(), serde::Value::String("snn loadgen".into())),
                ("capacity".into(), report.to_value()),
            ]);
            let json = serde_json::to_string(&body).expect("report serializes");
            std::fs::write(out, json).map_err(|e| format!("cannot write `{out}`: {e}"))?;
            println!("wrote {out}");
        }
    } else {
        if args.has("out") {
            return Err("--out needs --sweep (only the capacity sweep writes a report)".into());
        }
        let r = snn_pool::loadgen::run(&cfg);
        // ci.sh parses this line; keep the `key=value` fields stable.
        println!(
            "loadgen: offered={} completed={} 400s={} 429s={} 5xx={} other={} transport={} \
             retries={} error_rate={:.4}",
            r.offered,
            r.completed,
            r.status_400,
            r.status_429,
            r.status_5xx,
            r.status_other,
            r.transport_errors,
            r.retries_total,
            r.error_rate()
        );
        println!(
            "         achieved {:.1} rps over {:.2}s  p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms  \
             max {:.2}ms",
            r.achieved_rps,
            r.wall_secs,
            r.latency.p50_ms,
            r.latency.p95_ms,
            r.latency.p99_ms,
            r.latency.max_ms
        );
    }
    Ok(())
}

/// The git commit this binary runs from, or `unknown` — provenance for
/// loadgen reports, best effort by design. (A local copy of
/// `snn_bench::git_commit`: the CLI deliberately stays below the bench
/// crate in the dependency order.)
fn git_commit() -> String {
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

/// Fault-injection drill: run the full self-healing loop — supervised
/// training with checkpoint rollback, then serving with worker-panic
/// recovery — under a caller-supplied fault plan, and fail loudly if
/// any stage hangs or never heals. `scripts/ci.sh` runs this as the
/// chaos smoke.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    use snn_core::{SupervisorPolicy, TrainConfig, TrainSupervisor};
    use snn_pool::{PoolServer, PoolServerConfig};
    use snn_serve::{BatcherConfig, ModelRegistry};
    use std::time::Duration;

    let spec = args.get("plan", "io_err@store:0.05,panic@serve.worker:1");
    let seed: u64 = args.get_parsed("seed", 7)?;
    let plan = snn_fault::FaultPlan::parse(spec, seed)?;
    let _guard = snn_fault::install(std::sync::Arc::new(plan));
    println!("chaos: plan `{spec}` (seed {seed})");

    // Stage 1: supervised training against a scratch run store. The
    // supervisor must absorb whatever the plan throws (NaN losses,
    // failed checkpoint writes) by rolling back and retrying.
    let store_dir = std::env::temp_dir().join(format!("snn-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).map_err(|e| e.to_string())?;
    let store = RunStore::open(&store_dir);
    let ds = snn_data::bars_dataset(32, 8, seed);
    let lif = LifConfig { theta: 0.5, beta: 0.5, ..LifConfig::paper_default() };
    let mut net = SpikingNetwork::builder(snn_tensor::Shape::d3(1, 8, 8), seed)
        .flatten()
        .map_err(|e| e.to_string())?
        .dense(4, lif)
        .map_err(|e| e.to_string())?
        .build()
        .map_err(|e| e.to_string())?;
    // 70 epochs puts ~70 checkpoint-write draws in front of the CI
    // plan's io_err@store:0.05 rule, whose seed-7 stream first fires
    // on draw 62 — so the stock drill always exercises a full
    // persist-failure → rollback → resume cycle while staying a
    // sub-second job on one core.
    let epochs: usize = args.get_parsed("epochs", 70)?;
    let cfg = TrainConfig {
        epochs,
        batch_size: 16,
        timesteps: 3,
        seed,
        ..TrainConfig::default()
    };
    let out = TrainSupervisor::new(cfg)
        .policy(SupervisorPolicy {
            max_retries: 8,
            backoff_base: Duration::from_millis(1),
            ..SupervisorPolicy::default()
        })
        .with_store(store, "chaos")
        .run(&mut net, &ds)
        .map_err(|e| format!("supervised training did not survive the plan: {e}"))?;
    println!(
        "chaos: train ok — {} epochs in {} attempt(s), {} recovery(ies)",
        out.report.epochs.len(),
        out.attempts,
        out.recoveries.len()
    );
    for r in &out.recoveries {
        println!("  recovery {}: rolled back to epoch {} ({})", r.attempt, r.rollback_epoch, r.issue);
    }

    // Stage 2: serve a demo model through the same plan. Every request
    // must resolve — 200 or a typed shed status — a hang fails the
    // drill. A short breaker cooldown lets the circuit re-close within
    // the drill's budget. Injected panics are expected and caught by
    // the worker; keep their backtraces out of the drill transcript
    // while leaving genuine panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.starts_with("injected fault at ") {
            eprintln!("chaos: worker hit `{msg}` (caught; worker restarting)");
        } else {
            default_hook(info);
        }
    }));
    let registry = std::sync::Arc::new(
        ModelRegistry::new(demo_snapshot(8)?, "chaos-demo").map_err(|e| e.to_string())?,
    );
    let scfg = PoolServerConfig {
        addr: "127.0.0.1:0".into(),
        replicas: 1,
        batcher: BatcherConfig {
            timesteps: 2,
            breaker_cooldown: Duration::from_millis(50),
            ..BatcherConfig::default()
        },
        default_timeout: Some(Duration::from_millis(2000)),
        ..PoolServerConfig::default()
    };
    let mut server = PoolServer::start(registry, scfg).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let values: Vec<String> = (0..64).map(|i| format!("{}", (i % 7) as f32 / 7.0)).collect();
    let body = format!("{{\"input\":[{}]}}", values.join(","));
    let (mut served, mut shed) = (0u32, 0u32);
    for i in 0..12 {
        let (status, reply) = live::http_once(addr, "POST", "/infer", &body)
            .map_err(|e| format!("request {i} hung or broke transport: {e}"))?;
        match status {
            200 => served += 1,
            429 | 503 | 504 => {
                shed += 1;
                println!("  request {i:>2}: shed with {status}");
                // Give an open circuit its cooldown before retrying.
                std::thread::sleep(Duration::from_millis(60));
            }
            other => {
                server.shutdown();
                return Err(format!("request {i} got unexpected status {other}: {reply}"));
            }
        }
    }
    println!("chaos: serve ok — {served} served, {shed} shed (typed), 0 hung");
    if served == 0 {
        server.shutdown();
        return Err("serving never recovered: all 12 requests were shed".into());
    }

    // Stage 3: the instance must have healed.
    let (hstatus, health) = live::http_once(addr, "GET", "/healthz", "")?;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
    if hstatus != 200 || !health.contains("\"status\":\"ok\"") {
        return Err(format!("healthz did not recover: {hstatus} {health}"));
    }
    println!(
        "chaos: snn_fault_injected_total={} snn_recovery_total={} healthz=ok",
        snn_fault::injected_total(),
        snn_fault::recovery_total()
    );
    Ok(())
}

/// An untrained paper-shaped toy model so the server can be exercised
/// (CI smoke tests, load benches) with no snapshot file on disk.
fn demo_snapshot(side: usize) -> Result<NetworkSnapshot, String> {
    if side < 4 {
        return Err(format!("--demo side {side} too small (need at least 4)"));
    }
    let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
    let net = SpikingNetwork::builder(snn_tensor::Shape::d3(1, side, side), 7)
        .conv(4, 3, 1, 1, lif)
        .map_err(|e| e.to_string())?
        .maxpool(2)
        .map_err(|e| e.to_string())?
        .flatten()
        .map_err(|e| e.to_string())?
        .dense(10, lif)
        .map_err(|e| e.to_string())?
        .build()
        .map_err(|e| e.to_string())?;
    Ok(NetworkSnapshot::from_network(&net))
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let (snapshot, what) = if args.has("demo") {
        let side: usize = match args.opt("demo") {
            Some("") | None => 8,
            Some(s) => s
                .parse()
                .map_err(|_| format!("flag --demo: cannot parse `{s}` as an input side"))?,
        };
        (demo_snapshot(side)?, format!("demo-{side}x{side}"))
    } else {
        (load_model(args)?, args.require("model")?.to_string())
    };
    let reps: usize = args.get_parsed("reps", 3)?;
    let timesteps: usize = args.get_parsed("timesteps", 4)?;
    let batch: usize = args.get_parsed("batch", 2)?;
    if reps == 0 || timesteps == 0 || batch == 0 {
        return Err("--reps, --timesteps, and --batch must be at least 1".into());
    }
    let mut net = snapshot.into_network();
    snn_obs::enable_profiling(true);

    // Deterministic, mostly-dense input so the conv/GEMM/LIF spans
    // see representative work on every rep.
    let item = net.input_item_shape();
    let mut dims = vec![batch];
    dims.extend_from_slice(item.dims());
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let data: Vec<f32> = (0..batch * item.len())
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((x >> 40) as f32) / ((1u64 << 24) as f32)
        })
        .collect();
    let frame = snn_tensor::Tensor::from_vec(snn_tensor::Shape::from_dims(&dims), data)
        .map_err(|e| e.to_string())?;
    let frames = vec![frame; timesteps];
    let grad = snn_tensor::Tensor::from_vec(
        snn_tensor::Shape::d2(batch, net.classes()),
        vec![1.0; batch * net.classes()],
    )
    .map_err(|e| e.to_string())?;

    for _ in 0..reps {
        net.zero_grads();
        let _ = net.run_sequence(&frames, true);
        net.backward_sequence(&grad, timesteps);
    }

    println!(
        "profiled {what}: {reps} forward+backward reps, batch {batch}, T={timesteps}, {} parameters\n",
        net.param_count()
    );
    print!("{}", snn_obs::render_profile());
    if snn_obs::trace_enabled() {
        println!("\ntrace events written to $SNN_TRACE (open in chrome://tracing or Perfetto)");
    }
    Ok(())
}

fn cmd_obs_check(args: &Args) -> Result<(), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
    };
    let mut checked = 0usize;
    if let Some(path) = args.opt("text") {
        obscheck::check_prometheus(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: ok (Prometheus text exposition)");
        checked += 1;
    }
    if let Some(path) = args.opt("json") {
        obscheck::check_metrics_json(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: ok (metrics JSON)");
        checked += 1;
    }
    if let Some(path) = args.opt("trace") {
        let events =
            obscheck::check_trace(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: ok (chrome trace, {events} duration events)");
        checked += 1;
    }
    if let Some(path) = args.opt("traces") {
        let traces =
            obscheck::check_traces(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: ok (/debug/traces listing, {traces} traces)");
        checked += 1;
    }
    if let Some(path) = args.opt("log") {
        let records = obscheck::check_log(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: ok (structured log, {records} records)");
        checked += 1;
    }
    if let Some(path) = args.opt("bench") {
        let min = args
            .opt("min-conv-event-speedup")
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("--min-conv-event-speedup: not a number: `{v}`"))
            })
            .transpose()?;
        let min_int8 = args
            .opt("min-int8-speedup")
            .map(|v| {
                v.parse::<f64>().map_err(|_| format!("--min-int8-speedup: not a number: `{v}`"))
            })
            .transpose()?;
        // Sniff the report kind from its top-level sections: kernel
        // reports carry `density_sweep`, serve reports carry
        // `capacity` (and usually `phases`).
        let text = read(path)?;
        let is_serve = serde_json::parse(&text)
            .ok()
            .and_then(|v| {
                v.as_object().map(|fields| {
                    let has = |k: &str| fields.iter().any(|(name, _)| name == k);
                    !has("density_sweep") && (has("capacity") || has("phases"))
                })
            })
            .unwrap_or(false);
        if is_serve {
            if min.is_some() || min_int8.is_some() {
                return Err(format!(
                    "{path}: kernel speedup gates do not apply to a serve report"
                ));
            }
            let summary =
                obscheck::check_bench_serve(&text).map_err(|e| format!("{path}: {e}"))?;
            println!("{path}: ok ({summary})");
        } else {
            let summary = obscheck::check_bench_kernels(&text, min, min_int8)
                .map_err(|e| format!("{path}: {e}"))?;
            println!("{path}: ok ({summary})");
        }
        checked += 1;
    }
    if let Some(spec) = args.opt("require") {
        let text = args.opt("text").map(read).transpose()?;
        let json = args.opt("json").map(read).transpose()?;
        if text.is_none() && json.is_none() {
            return Err("--require needs --text and/or --json to search".into());
        }
        for family in spec.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            if let Some(t) = &text {
                obscheck::require_family_text(t, family)
                    .map_err(|e| format!("--require {family}: {e}"))?;
            }
            if let Some(j) = &json {
                obscheck::require_family_json(j, family)
                    .map_err(|e| format!("--require {family}: {e}"))?;
            }
            println!("required series `{family}*`: present");
        }
    }
    if checked == 0 {
        return Err(
            "obs-check needs at least one of --text, --json, --trace, --traces, --log, --bench"
                .into(),
        );
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let snapshot = load_model(args)?;
    let net = snapshot.into_network();
    println!(
        "input {}  classes {}  parameters {}",
        net.input_item_shape(),
        net.classes(),
        net.param_count()
    );
    println!("{:<10} {:>18} {:>12} {:>10}", "layer", "output", "params", "beta/theta");
    for l in net.layers() {
        let lif = l
            .lif_config()
            .map(|c| format!("{}/{}", c.beta, c.theta))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<10} {:>18} {:>12} {:>10}",
            l.name(),
            l.output_item_shape().to_string(),
            l.param_count(),
            lif
        );
    }
    Ok(())
}
