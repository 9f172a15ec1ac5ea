//! The offline batch-inference workloads (`batch-default-f32`,
//! `batch-tuned-int8`): `AnyEngine::infer_batch` on batches of 16
//! synthetic 3×16×16 SVHN-style images, no HTTP.

use std::time::{Duration, Instant};

use snn_serve::{AnyEngine, RequestOutput, ServedModel};

use crate::fixtures::{self, Expected, Loaded, Manifest};
use crate::host::{Probe, REF_PROBE_S};
use crate::layers;
use crate::stats::{median, quantile, ratio, rss_peak_mb, window_median};
use crate::trace::Recorder;
use crate::{conv_routes, Args, Report, Setups, SETUP_REPS};

/// Items per `infer_batch` call.
pub const BATCH: usize = 16;
/// Distinct inputs per run, cycled through in order.
const POOL: usize = 256;

/// Seconds between host probes in a probed phase (under 1% of its
/// time).
const PROBE_EVERY_S: f64 = 0.05;
/// A call's host slowdown comes from the probes within this many
/// seconds of its end: about three. The host's speed changes within a
/// window, so a window-wide figure would leave the slowed calls of a
/// mostly unslowed window in its upper quantiles.
const PROBE_NEAR_S: f64 = 0.075;

/// One timed phase.
#[derive(Default)]
struct Phase {
    /// Seconds per `infer_batch` call.
    latencies: Vec<f64>,
    /// End of each call, seconds after the phase started.
    ends: Vec<f64>,
    /// Seconds of each loop step (call and check, probes excluded).
    steps: Vec<f64>,
    /// Verified items of each call.
    verified: Vec<u64>,
    /// `(seconds after the phase started, probe seconds)` per probe.
    probes: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
}

impl Phase {
    /// Verified items per second of the phase's wall clock, probes
    /// excluded.
    fn throughput(&self) -> f64 {
        ratio(
            self.verified.iter().sum::<u64>() as f64,
            self.steps.iter().sum::<f64>(),
        )
    }

    /// The host slowdown at each call: the median time of the probes
    /// within [`PROBE_NEAR_S`] of the call's end (of all the phase's
    /// probes if none is that near), over [`REF_PROBE_S`]. Above 1 on a
    /// slowed host.
    fn slowdowns(&self) -> Vec<f64> {
        let all: Vec<f64> = self.probes.iter().map(|&(_, s)| s).collect();
        let mut first = 0;
        self.ends
            .iter()
            .map(|&end| {
                while self
                    .probes
                    .get(first)
                    .is_some_and(|&(at, _)| at < end - PROBE_NEAR_S)
                {
                    first += 1;
                }
                let near: Vec<f64> = self.probes[first..]
                    .iter()
                    .take_while(|&&(at, _)| at <= end + PROBE_NEAR_S)
                    .map(|&(_, s)| s)
                    .collect();
                median(if near.is_empty() { &all } else { &near }) / REF_PROBE_S
            })
            .collect()
    }

    /// Throughput (items per second) and the call latency p50 and p90
    /// (seconds) at the reference host speed. Each call's latency and
    /// loop step are divided by its slowdown; each figure is taken per
    /// window of the run, and the median over the windows is returned.
    fn at_ref(&self) -> (f64, f64, f64) {
        let slow = self.slowdowns();
        let scale = |v: &[f64]| -> Vec<f64> { v.iter().zip(&slow).map(|(x, s)| x / s).collect() };
        let (lat, steps) = (scale(&self.latencies), scale(&self.steps));
        let throughput = window_median(&self.ends, |r| {
            let items = self.verified[r.clone()].iter().sum::<u64>() as f64;
            ratio(items, steps[r].iter().sum())
        });
        let q = |q: f64| window_median(&self.ends, |r| quantile(&lat[r], q));
        (throughput, q(0.5), q(0.9))
    }
}

/// Calls the engine on consecutive pool batches for `seconds`,
/// verifying every output (classes, or with `exact` every spike
/// count); `on_call` sees each call's interval. With `probe`, times the
/// host probe every [`PROBE_EVERY_S`] between calls.
fn measure(
    engine: &mut AnyEngine,
    exact: bool,
    items: &[Vec<f32>],
    expected: &[Expected],
    seconds: f64,
    mut probe: Option<&mut Probe>,
    mut on_call: impl FnMut(usize, Instant, Instant),
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut call = 0;
    let mut next_probe = 0.0;
    let mut step_start = start;
    while start.elapsed() < budget {
        if let Some(p) = probe.as_deref_mut() {
            let at = start.elapsed().as_secs_f64();
            if at >= next_probe {
                phase.probes.push((at, p.time()));
                next_probe = at + PROBE_EVERY_S;
                step_start = Instant::now();
            }
        }
        let lo = (call * BATCH) % items.len();
        let t0 = Instant::now();
        let outs = engine.infer_batch(&items[lo..lo + BATCH]);
        let t1 = Instant::now();
        on_call(call, t0, t1);
        let failed = outs
            .iter()
            .zip(&expected[lo..])
            .filter(|(o, e)| !e.matches(o, exact))
            .count() as u64;
        let step_end = Instant::now();
        phase.latencies.push((t1 - t0).as_secs_f64());
        phase.ends.push((t1 - start).as_secs_f64());
        phase.steps.push((step_end - step_start).as_secs_f64());
        phase.verified.push(BATCH as u64 - failed);
        phase.attempted += BATCH as u64;
        phase.failed += failed;
        step_start = step_end;
        call += 1;
    }
    phase
}

/// Runs the batch workload serving manifest model `model`.
pub fn run(args: &Args, manifest: &Manifest, model: &str) -> Result<Report, String> {
    let entry = manifest.model(model)?;
    let t = entry.timesteps;
    let mut report = Report::default();

    // One setup: load + hash check, (calibrate + quantize), build the
    // engine, and verify the check set (the first inference). Its time
    // is scaled to the reference host speed by probes just before and
    // just after it.
    let mut setups = Setups::default();
    let mut probe = Probe::default();
    let mut setup = |report: &mut Report, probe: &mut Probe| {
        let before = probe.slowdown();
        let t0 = Instant::now();
        let loaded = fixtures::load(manifest, entry)?;
        let mut engine = AnyEngine::new(&loaded.served, t).map_err(|e| e.to_string())?;
        let outs: Vec<RequestOutput> = fixtures::check_items(manifest, entry)
            .chunks(BATCH)
            .flat_map(|chunk| engine.infer_batch(chunk))
            .collect();
        let elapsed = t0.elapsed().as_secs_f64();
        let slowdown = (before + probe.slowdown()) / 2.0;
        setups.total_s.push(elapsed / slowdown);
        let classes: Vec<usize> = outs.iter().map(|o| o.class).collect();
        let counts: Vec<Vec<f32>> = outs.iter().map(|o| o.counts.clone()).collect();
        report.attempted += outs.len() as u64;
        report.failed += fixtures::check_mismatches(entry, &classes, &counts) as u64;
        setups.load_s.push(loaded.load_s);
        setups.quantize_s.push(loaded.quantize_s);
        Ok::<(Loaded, AnyEngine), String>((loaded, engine))
    };
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        kept = Some(setup(&mut report, &mut probe)?);
    }
    let (loaded, mut engine) = kept.expect("at least one setup");
    report.models = format!("{model}={}", fixtures::served_hash(&loaded.served));

    let items = fixtures::items(&entry.input, POOL, args.seed);
    report.inputs = fixtures::digest(&items);
    let expected = fixtures::reference(&loaded, t, &items);
    // f32 outputs are checked by class; the integer datapath is exact.
    let exact = entry.dtype == "int8";
    // Warm caches and scratch buffers (longer than one pass over the
    // pool on either model).
    measure(
        &mut engine,
        exact,
        &items,
        &expected,
        0.3,
        Some(&mut probe),
        |_, _, _| {},
    );

    if !args.trace {
        let p = measure(
            &mut engine,
            exact,
            &items,
            &expected,
            args.seconds,
            Some(&mut probe),
            |_, _, _| {},
        );
        report.attempted += p.attempted;
        report.failed += p.failed;
        report.put("rss_peak_mb", rss_peak_mb());
        for _ in 0..SETUP_REPS {
            setup(&mut report, &mut probe)?;
        }
        let (throughput, p50, p90) = p.at_ref();
        let (p50, p90) = (p50 * 1e3, p90 * 1e3);
        report.put("setup_s", median(&setups.total_s));
        report.put("throughput_per_s", throughput);
        report.put("latency_p50_ms", p50);
        report.put("latency_p90_ms", p90);
        println!(
            "{model}: {} calls of {BATCH}; at reference host speed {throughput:.1} items/s, \
             p50 {p50:.3} ms, p90 {p90:.3} ms; as measured {:.1} items/s, p50 {:.3} ms; \
             median host slowdown {:.3} ({} probes)",
            p.latencies.len(),
            p.throughput(),
            quantile(&p.latencies, 0.5) * 1e3,
            median(&p.slowdowns()),
            p.probes.len(),
        );
        return Ok(report);
    }

    // Traced run: an untraced half, a half with a span per engine
    // call, then one layer-by-layer pass over the pool.
    let mut rec = Recorder::new();
    let untraced = measure(
        &mut engine,
        exact,
        &items,
        &expected,
        args.seconds / 2.0,
        Some(&mut probe),
        |_, _, _| {},
    );
    let routes_before = conv_routes();
    let traced = measure(
        &mut engine,
        exact,
        &items,
        &expected,
        args.seconds / 2.0,
        Some(&mut probe),
        |call, t0, t1| {
            rec.record("engine.infer_batch", t0, t1, None, call as u64);
        },
    );
    let routes = conv_routes().since(routes_before);
    report.attempted += untraced.attempted + traced.attempted;
    report.failed += untraced.failed + traced.failed;
    for _ in 0..SETUP_REPS {
        setup(&mut report, &mut probe)?;
    }

    let pass = match &loaded.served {
        ServedModel::F32(snap) => layers::f32_pass(&mut rec, snap, &items, BATCH, t),
        ServedModel::Int8(q) => layers::int8_pass(&mut rec, &loaded.snapshot, q, &items, BATCH, t),
    };
    let prefix = if entry.dtype == "int8" { "int8" } else { "f32" };
    let totals = rec.totals();
    let engine_us = ratio(
        totals["engine.infer_batch"].total_s,
        traced.attempted as f64,
    ) * 1e6;
    report.put("engine.us_per_item", engine_us);
    report.put(
        "run.latency_p99_ms",
        quantile(&untraced.latencies, 0.99) * 1e3,
    );
    let layer_s = crate::put_layer_metrics(&mut report, prefix, &pass, &totals);
    let layer_us = layer_s.iter().sum::<f64>() / pass.items as f64 * 1e6;
    report.put(
        "engine.unattributed_ratio",
        1.0 - ratio(layer_us, engine_us),
    );
    report.put("tensor.conv_event_share", routes.event_share());
    report.put("setup.load_s", median(&setups.load_s));
    report.put("setup.quantize_s", median(&setups.quantize_s));
    // No front end, and only one of the two datapaths.
    let other = if prefix == "int8" { "f32." } else { "int8." };
    report.put_absent(&["serve.", "pool.", "loadgen.", "setup.server_start_s", other]);
    report.put(
        "trace.overhead_ratio",
        ratio(traced.at_ref().0, untraced.at_ref().0),
    );
    crate::print_accel_table(&loaded.snapshot, &pass, &layer_s);
    crate::write_trace(&rec, args);
    Ok(report)
}
