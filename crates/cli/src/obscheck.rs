//! Validation for observability output formats (`snn obs-check`).
//!
//! Checks a Prometheus text exposition and/or a `/metrics.json` body
//! for structural validity — the checks ci.sh runs against a live
//! server so a malformed exposition fails the build rather than a
//! scrape at 3am.

/// Validates a Prometheus text exposition body.
///
/// Enforced rules:
///
/// * non-empty and ends with a newline;
/// * comment lines are `# HELP <name> <text>` or `# TYPE <name>
///   <counter|gauge|histogram>`;
/// * sample lines are `<name>[{labels}] <value>` with a legal metric
///   name and a parseable value (`NaN`/`+Inf`/`-Inf` allowed);
/// * every sample's family (label-less name with any
///   `_bucket`/`_sum`/`_count` suffix stripped) has a preceding `#
///   TYPE`;
/// * histogram `_bucket` cumulative counts are monotonically
///   non-decreasing within a labeled series (the family plus its
///   labels with `le` stripped — so the per-replica histograms of a
///   pooled server, `x_bucket{replica="0",le=…}` then
///   `x_bucket{replica="1",le=…}`, each restart their own ladder).
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn check_prometheus(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("exposition is empty".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition does not end with a newline".into());
    }
    let mut typed: Vec<(String, String)> = Vec::new(); // (family, kind)
    let mut last_bucket: Option<(String, f64)> = None;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad metric name in TYPE: `{name}`"));
                }
                if !matches!(kind, "counter" | "gauge" | "histogram") {
                    return Err(format!("line {lineno}: unknown TYPE kind `{kind}`"));
                }
                typed.push((name.to_string(), kind.to_string()));
            } else if let Some(decl) = rest.strip_prefix("HELP ") {
                let name = decl.split_whitespace().next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad metric name in HELP: `{name}`"));
                }
            } else {
                return Err(format!("line {lineno}: comment is neither HELP nor TYPE"));
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = split_sample(line)
            .ok_or_else(|| format!("line {lineno}: not a `name value` sample: `{line}`"))?;
        let name = series.split('{').next().unwrap_or(series);
        if !valid_name(name) {
            return Err(format!("line {lineno}: bad metric name `{name}`"));
        }
        let value: f64 = match value {
            "NaN" => f64::NAN,
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse()
                .map_err(|_| format!("line {lineno}: unparseable value `{v}`"))?,
        };
        let family = family_of(name);
        if !typed.iter().any(|(n, _)| n == family) {
            return Err(format!("line {lineno}: sample `{name}` has no preceding # TYPE {family}"));
        }
        // Cumulative bucket monotonicity within one labeled series.
        if name.ends_with("_bucket") {
            let key = bucket_key(series, family);
            match &last_bucket {
                Some((prev_key, prev)) if *prev_key == key && value < *prev => {
                    return Err(format!(
                        "line {lineno}: bucket counts for `{key}` are not cumulative \
                         ({value} after {prev})"
                    ));
                }
                _ => {}
            }
            last_bucket = Some((key, value));
        } else {
            last_bucket = None;
        }
    }
    if typed.is_empty() {
        return Err("exposition declares no # TYPE families".into());
    }
    Ok(())
}

/// Validates a `/metrics.json` body: parseable JSON with a `model`
/// object and an `instruments` array whose entries carry `name` and
/// `kind`.
///
/// # Errors
///
/// Returns a message describing the first structural problem.
pub fn check_metrics_json(text: &str) -> Result<(), String> {
    let value = serde_json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let serde::Value::Object(fields) = value else {
        return Err("top level is not an object".into());
    };
    let get = |k: &str| fields.iter().find(|(name, _)| name == k).map(|(_, v)| v);
    match get("model") {
        Some(serde::Value::Object(_)) => {}
        Some(_) => return Err("`model` is not an object".into()),
        None => return Err("missing `model` field".into()),
    }
    let Some(serde::Value::Array(instruments)) = get("instruments") else {
        return Err("missing or non-array `instruments` field".into());
    };
    if instruments.is_empty() {
        return Err("`instruments` is empty".into());
    }
    for (i, inst) in instruments.iter().enumerate() {
        let serde::Value::Object(fields) = inst else {
            return Err(format!("instrument {i} is not an object"));
        };
        for required in ["name", "kind"] {
            if !fields.iter().any(|(k, _)| k == required) {
                return Err(format!("instrument {i} lacks `{required}`"));
            }
        }
    }
    Ok(())
}

/// Validates a Chrome trace_event file as written by `SNN_TRACE`:
/// opens with `[`, and every subsequent non-empty line (after
/// stripping a trailing comma) is a JSON object with `name`, `ph`,
/// `pid`, and `tid`; `X` events also need numeric `ts` and `dur`.
///
/// Returns the number of duration (`"ph":"X"`) events.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn check_trace(text: &str) -> Result<usize, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first.trim() == "[" => {}
        _ => return Err("trace does not open with a `[` line".into()),
    }
    let mut complete_events = 0usize;
    for (i, line) in lines {
        let lineno = i + 1;
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "]" {
            continue;
        }
        let value = serde_json::parse(line)
            .map_err(|e| format!("line {lineno}: invalid JSON event: {e}"))?;
        let serde::Value::Object(fields) = value else {
            return Err(format!("line {lineno}: event is not an object"));
        };
        let get = |k: &str| fields.iter().find(|(name, _)| name == k).map(|(_, v)| v);
        for required in ["name", "ph", "pid", "tid"] {
            if get(required).is_none() {
                return Err(format!("line {lineno}: event lacks `{required}`"));
            }
        }
        if let Some(serde::Value::String(ph)) = get("ph") {
            if ph == "X" {
                for required in ["ts", "dur"] {
                    match get(required) {
                        Some(serde::Value::Number(_)) => {}
                        _ => {
                            return Err(format!(
                                "line {lineno}: X event lacks numeric `{required}`"
                            ));
                        }
                    }
                }
                complete_events += 1;
            }
        }
    }
    Ok(complete_events)
}

/// Validates a `GET /debug/traces` body: an object with numeric
/// `capacity`/`kept`/`sampled_out` and a `traces` array whose entries
/// carry a 32-lowercase-hex `trace_id`, a 16-hex `span_id`, numeric
/// `status`/`total_us`, a non-empty `outcome`, and a `stages` array of
/// `{stage, micros}` pairs.
///
/// Returns the number of traces.
///
/// # Errors
///
/// Returns a message describing the first structural problem.
pub fn check_traces(text: &str) -> Result<usize, String> {
    let value = serde_json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let Some(fields) = value.as_object() else {
        return Err("top level is not an object".into());
    };
    let get = |obj: &'_ [(String, serde::Value)], k: &str| {
        obj.iter().find(|(name, _)| name == k).map(|(_, v)| v.clone())
    };
    for required in ["capacity", "kept", "sampled_out"] {
        match get(fields, required) {
            Some(serde::Value::Number(v)) if v >= 0.0 => {}
            _ => return Err(format!("missing non-negative numeric `{required}`")),
        }
    }
    let Some(serde::Value::Array(traces)) = get(fields, "traces") else {
        return Err("missing `traces` array".into());
    };
    for (i, trace) in traces.iter().enumerate() {
        let Some(t) = trace.as_object() else {
            return Err(format!("traces[{i}] is not an object"));
        };
        match get(t, "trace_id") {
            Some(serde::Value::String(id)) if snn_obs::tracectx::is_trace_hex(&id) => {}
            other => return Err(format!("traces[{i}]: bad trace_id: {other:?}")),
        }
        match get(t, "span_id") {
            Some(serde::Value::String(id))
                if id.len() == 16 && id.bytes().all(|b| b.is_ascii_hexdigit()) => {}
            other => return Err(format!("traces[{i}]: bad span_id: {other:?}")),
        }
        for required in ["status", "total_us", "unix_ms", "batch_size", "model_version"] {
            match get(t, required) {
                Some(serde::Value::Number(v)) if v >= 0.0 => {}
                _ => return Err(format!("traces[{i}]: missing numeric `{required}`")),
            }
        }
        for required in ["route", "outcome"] {
            match get(t, required) {
                Some(serde::Value::String(s)) if !s.is_empty() => {}
                _ => return Err(format!("traces[{i}]: missing non-empty `{required}`")),
            }
        }
        let Some(serde::Value::Array(stages)) = get(t, "stages") else {
            return Err(format!("traces[{i}]: missing `stages` array"));
        };
        for (j, stage) in stages.iter().enumerate() {
            let Some(s) = stage.as_object() else {
                return Err(format!("traces[{i}].stages[{j}] is not an object"));
            };
            match get(s, "stage") {
                Some(serde::Value::String(name)) if !name.is_empty() => {}
                _ => return Err(format!("traces[{i}].stages[{j}]: missing `stage` name")),
            }
            match get(s, "micros") {
                Some(serde::Value::Number(v)) if v >= 0.0 => {}
                _ => return Err(format!("traces[{i}].stages[{j}]: missing numeric `micros`")),
            }
        }
    }
    Ok(traces.len())
}

/// Validates a structured JSONL event log (the `SNN_LOG=level:FILE`
/// sink): every non-empty line parses as a JSON object with numeric
/// `ts`, a `level` in `error|warn|info|debug`, and a non-empty `msg`;
/// a `trace` field, when present, must be a well-formed 32-hex trace
/// id.
///
/// Returns the number of records.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn check_log(text: &str) -> Result<usize, String> {
    let mut records = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        let value =
            serde_json::parse(line).map_err(|e| format!("line {lineno}: invalid JSON: {e}"))?;
        let Some(fields) = value.as_object() else {
            return Err(format!("line {lineno}: record is not an object"));
        };
        let get = |k: &str| fields.iter().find(|(name, _)| name == k).map(|(_, v)| v);
        match get("ts") {
            Some(serde::Value::Number(v)) if *v >= 0.0 => {}
            _ => return Err(format!("line {lineno}: missing numeric `ts`")),
        }
        match get("level") {
            Some(serde::Value::String(l))
                if matches!(l.as_str(), "error" | "warn" | "info" | "debug") => {}
            other => return Err(format!("line {lineno}: bad `level`: {other:?}")),
        }
        match get("msg") {
            Some(serde::Value::String(m)) if !m.is_empty() => {}
            _ => return Err(format!("line {lineno}: missing non-empty `msg`")),
        }
        if let Some(serde::Value::String(trace)) = get("trace") {
            if !snn_obs::tracectx::is_trace_hex(trace) {
                return Err(format!("line {lineno}: malformed trace id `{trace}`"));
            }
        }
        records += 1;
    }
    if records == 0 {
        return Err("log is empty".into());
    }
    Ok(records)
}

/// Expected `schema_version` of `BENCH_kernels.json`. Kept in sync
/// with `snn_bench::BENCH_SCHEMA_VERSION` by hand — the CLI stays
/// below the bench crate in the dependency order, and a version drift
/// is exactly what this check exists to catch.
pub const BENCH_KERNELS_SCHEMA: f64 = 10.0;

/// Validates a `BENCH_kernels.json` report and (optionally) gates on
/// the event-driven conv2d speedup and the int8 GEMM speedup.
///
/// Structural checks: parseable JSON object, `schema_version` equal to
/// [`BENCH_KERNELS_SCHEMA`], a non-empty `git_commit`, an `int8_gemm`
/// section with finite timings and a finite `int8_speedup`, an
/// `int8_lif_row` section with finite per-neuron timings and ratios,
/// a `maxpool` section whose points each carry finite `u8` and `f32`
/// per-input timings and `u8_vs_f32`, a `spike_count` section with a
/// finite `lif_ns_per_element` and points that each carry finite
/// `ns_per_element`, `naive_ns_per_element` and `lanes_vs_naive`, and
/// a `density_sweep` section
/// whose `conv2d`, `conv2d_int8`, `gemm_nt`, `lif_step`, `forward`
/// and `forward_direct` sweeps each carry one
/// point per entry of `sparsities_pct`, with finite timings and
/// speedups (the int8 conv rows additionally need a finite
/// `f32_dense_seconds` baseline).
///
/// If `min_conv_event_speedup` is given, the conv2d sweep's
/// 90%-sparsity point must show at least that `event_speedup` over
/// the dense route. If `min_int8_speedup` is given, `int8_gemm`'s
/// `int8_speedup` over the f32 dense GEMM must meet it. Both are the
/// regression gates ci.sh runs on smoke numbers.
///
/// Returns a one-line summary for logging.
///
/// # Errors
///
/// Returns a message describing the first problem found.
pub fn check_bench_kernels(
    text: &str,
    min_conv_event_speedup: Option<f64>,
    min_int8_speedup: Option<f64>,
) -> Result<String, String> {
    let value = serde_json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let Some(fields) = value.as_object() else {
        return Err("top level is not an object".into());
    };
    let get = |obj: &'_ [(String, serde::Value)], k: &str| {
        obj.iter().find(|(name, _)| name == k).map(|(_, v)| v.clone())
    };
    match get(fields, "schema_version") {
        Some(serde::Value::Number(v)) if v == BENCH_KERNELS_SCHEMA => {}
        Some(serde::Value::Number(v)) => {
            return Err(format!("schema_version {v} (expected {BENCH_KERNELS_SCHEMA})"));
        }
        _ => return Err("missing numeric `schema_version`".into()),
    }
    let commit = match get(fields, "git_commit") {
        Some(serde::Value::String(s)) if !s.is_empty() => s,
        _ => return Err("missing or empty `git_commit`".into()),
    };
    let Some(serde::Value::Object(int8)) = get(fields, "int8_gemm") else {
        return Err("missing `int8_gemm` object".into());
    };
    let mut int8_speedup = f64::NAN;
    for required in ["f32_seconds", "int8_seconds", "int8_speedup"] {
        match get(&int8, required) {
            Some(serde::Value::Number(v)) if v.is_finite() => {
                if required == "int8_speedup" {
                    int8_speedup = v;
                }
            }
            _ => return Err(format!("int8_gemm lacks finite `{required}`")),
        }
    }
    let Some(serde::Value::Object(lif_row)) = get(fields, "int8_lif_row") else {
        return Err("missing `int8_lif_row` object".into());
    };
    let mut lif_row_ns = f64::NAN;
    for required in [
        "certified_ns_per_neuron",
        "fallback_ns_per_neuron",
        "f32_ns_per_neuron",
        "fallback_vs_certified",
        "certified_vs_f32",
    ] {
        match get(&lif_row, required) {
            Some(serde::Value::Number(v)) if v.is_finite() => {
                if required == "certified_ns_per_neuron" {
                    lif_row_ns = v;
                }
            }
            _ => return Err(format!("int8_lif_row lacks finite `{required}`")),
        }
    }
    let Some(serde::Value::Object(maxpool)) = get(fields, "maxpool") else {
        return Err("missing `maxpool` object".into());
    };
    let pool_required = ["u8_vs_f32", "u8_ns_per_input", "f32_ns_per_input"];
    let pool_u8_vs_f32 = finite_points(&maxpool, "maxpool", &pool_required)?[0];
    let Some(serde::Value::Object(count)) = get(fields, "spike_count") else {
        return Err("missing `spike_count` object".into());
    };
    match get(&count, "lif_ns_per_element") {
        Some(serde::Value::Number(v)) if v.is_finite() => {}
        _ => return Err("spike_count lacks finite `lif_ns_per_element`".into()),
    }
    let count_required = ["ns_per_element", "naive_ns_per_element", "lanes_vs_naive"];
    let count_ns = finite_points(&count, "spike_count", &count_required)?[0];
    let Some(serde::Value::Object(sweep)) = get(fields, "density_sweep") else {
        return Err("missing `density_sweep` object".into());
    };
    let Some(serde::Value::Array(sparsities)) = get(&sweep, "sparsities_pct") else {
        return Err("density_sweep lacks `sparsities_pct`".into());
    };
    if sparsities.is_empty() {
        return Err("density_sweep.sparsities_pct is empty".into());
    }
    let mut conv_90_speedup = None;
    for section in ["conv2d", "conv2d_int8", "gemm_nt", "lif_step", "forward", "forward_direct"] {
        let Some(serde::Value::Object(sec)) = get(&sweep, section) else {
            return Err(format!("density_sweep lacks `{section}`"));
        };
        let Some(serde::Value::Array(points)) = get(&sec, "points") else {
            return Err(format!("density_sweep.{section} lacks `points`"));
        };
        if points.len() != sparsities.len() {
            return Err(format!(
                "density_sweep.{section} has {} points for {} sparsities",
                points.len(),
                sparsities.len()
            ));
        }
        for (i, point) in points.iter().enumerate() {
            let Some(p) = point.as_object() else {
                return Err(format!("density_sweep.{section}.points[{i}] is not an object"));
            };
            let mut required =
                vec!["sparsity_pct", "input_density", "dense_seconds", "event_seconds"];
            if section == "conv2d_int8" {
                required.push("f32_dense_seconds");
            }
            for required in required {
                match get(p, required) {
                    Some(serde::Value::Number(v)) if v.is_finite() => {}
                    _ => {
                        return Err(format!(
                            "density_sweep.{section}.points[{i}] lacks finite `{required}`"
                        ));
                    }
                }
            }
            if section == "conv2d" {
                if let (
                    Some(serde::Value::Number(sp)),
                    Some(serde::Value::Number(speedup)),
                ) = (get(p, "sparsity_pct"), get(p, "event_speedup"))
                {
                    if sp == 90.0 {
                        conv_90_speedup = Some(speedup);
                    }
                }
            }
        }
    }
    let conv_90 = conv_90_speedup
        .ok_or_else(|| "conv2d sweep has no 90%-sparsity point with `event_speedup`".to_string())?;
    if !conv_90.is_finite() {
        return Err(format!("conv2d event_speedup at 90% sparsity is not finite: {conv_90}"));
    }
    if let Some(min) = min_conv_event_speedup {
        if conv_90 < min {
            return Err(format!(
                "event conv2d speedup at 90% sparsity is {conv_90:.2}x, below the {min:.2}x gate"
            ));
        }
    }
    if let Some(min) = min_int8_speedup {
        if int8_speedup < min {
            return Err(format!(
                "int8 GEMM speedup over f32 is {int8_speedup:.2}x, below the {min:.2}x gate"
            ));
        }
    }
    Ok(format!(
        "schema {BENCH_KERNELS_SCHEMA}, commit {}, conv2d event speedup {conv_90:.2}x at 90% \
         sparsity, int8 GEMM {int8_speedup:.2}x over f32, int8 LIF row {lif_row_ns:.2} ns/neuron, \
         u8 max pool {pool_u8_vs_f32:.2}x over f32, spike count {count_ns:.3} ns/element",
        &commit[..commit.len().min(12)]
    ))
}

/// Requires `section`'s `points` to be a non-empty array of objects
/// in which every `required` field is a finite number, and returns the
/// first point's values in `required` order. `name` labels errors.
fn finite_points(
    section: &[(String, serde::Value)],
    name: &str,
    required: &[&str],
) -> Result<Vec<f64>, String> {
    let get = |obj: &'_ [(String, serde::Value)], k: &str| {
        obj.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone())
    };
    let Some(serde::Value::Array(points)) = get(section, "points") else {
        return Err(format!("{name} lacks `points`"));
    };
    if points.is_empty() {
        return Err(format!("{name}.points is empty"));
    }
    let mut first = Vec::new();
    for (i, point) in points.iter().enumerate() {
        let Some(p) = point.as_object() else {
            return Err(format!("{name}.points[{i}] is not an object"));
        };
        for &field in required {
            match get(p, field) {
                Some(serde::Value::Number(v)) if v.is_finite() => {
                    if i == 0 {
                        first.push(v);
                    }
                }
                _ => return Err(format!("{name}.points[{i}] lacks finite `{field}`")),
            }
        }
    }
    Ok(first)
}

/// Expected `schema_version` of `BENCH_serve.json`. Kept in sync with
/// `snn_bench::BENCH_SERVE_SCHEMA_VERSION` by hand, same policy as
/// [`BENCH_KERNELS_SCHEMA`].
pub const BENCH_SERVE_SCHEMA: f64 = 7.0;

/// Validates a `BENCH_serve.json` report (schema v7).
///
/// Structural checks: parseable JSON object, `schema_version` equal to
/// [`BENCH_SERVE_SCHEMA`], a non-empty `git_commit`, and a `capacity`
/// section with an `slo` object (finite positive
/// `p99_ms`, finite non-negative `max_error_rate`), a finite
/// `max_sustained_rps`, a non-empty `points` array (each point with
/// finite `rps`/`achieved_rps`/`p99_ms`/`error_rate`, a boolean
/// `met_slo`, and — the v7 addition — a non-negative numeric
/// `retries_total`), a `per_replica` array (each entry with numeric
/// `replica`/`routed` and finite `utilization`; empty is legal when
/// the target exposes no per-replica series), and a `router` object
/// with numeric `p2c`/`fallback`/`rerouted` decision counters.
///
/// A `phases` array, when present (the full `bench_serve` report;
/// `snn loadgen --out` writes capacity only), must be non-empty and
/// each phase needs a non-empty `name` and a finite `throughput_rps`.
///
/// Returns a one-line summary for logging.
///
/// # Errors
///
/// Returns a message describing the first problem found.
pub fn check_bench_serve(text: &str) -> Result<String, String> {
    let value = serde_json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let Some(fields) = value.as_object() else {
        return Err("top level is not an object".into());
    };
    let get = |obj: &'_ [(String, serde::Value)], k: &str| {
        obj.iter().find(|(name, _)| name == k).map(|(_, v)| v.clone())
    };
    match get(fields, "schema_version") {
        Some(serde::Value::Number(v)) if v == BENCH_SERVE_SCHEMA => {}
        Some(serde::Value::Number(v)) => {
            return Err(format!("schema_version {v} (expected {BENCH_SERVE_SCHEMA})"));
        }
        _ => return Err("missing numeric `schema_version`".into()),
    }
    let commit = match get(fields, "git_commit") {
        Some(serde::Value::String(s)) if !s.is_empty() => s,
        _ => return Err("missing or empty `git_commit`".into()),
    };
    let mut phase_count = None;
    if let Some(phases) = get(fields, "phases") {
        let serde::Value::Array(phases) = phases else {
            return Err("`phases` is not an array".into());
        };
        if phases.is_empty() {
            return Err("`phases` is present but empty".into());
        }
        for (i, phase) in phases.iter().enumerate() {
            let Some(p) = phase.as_object() else {
                return Err(format!("phases[{i}] is not an object"));
            };
            match get(p, "name") {
                Some(serde::Value::String(s)) if !s.is_empty() => {}
                _ => return Err(format!("phases[{i}] lacks a non-empty `name`")),
            }
            match get(p, "throughput_rps") {
                Some(serde::Value::Number(v)) if v.is_finite() => {}
                _ => return Err(format!("phases[{i}] lacks finite `throughput_rps`")),
            }
        }
        phase_count = Some(phases.len());
    }
    let Some(serde::Value::Object(capacity)) = get(fields, "capacity") else {
        return Err("missing `capacity` object".into());
    };
    let Some(serde::Value::Object(slo)) = get(&capacity, "slo") else {
        return Err("capacity lacks `slo` object".into());
    };
    let p99_ms = match get(&slo, "p99_ms") {
        Some(serde::Value::Number(v)) if v.is_finite() && v > 0.0 => v,
        _ => return Err("capacity.slo lacks finite positive `p99_ms`".into()),
    };
    match get(&slo, "max_error_rate") {
        Some(serde::Value::Number(v)) if v.is_finite() && v >= 0.0 => {}
        _ => return Err("capacity.slo lacks finite non-negative `max_error_rate`".into()),
    }
    let max_sustained = match get(&capacity, "max_sustained_rps") {
        Some(serde::Value::Number(v)) if v.is_finite() && v >= 0.0 => v,
        _ => return Err("capacity lacks finite `max_sustained_rps`".into()),
    };
    let Some(serde::Value::Array(points)) = get(&capacity, "points") else {
        return Err("capacity lacks `points` array".into());
    };
    if points.is_empty() {
        return Err("capacity.points is empty".into());
    }
    for (i, point) in points.iter().enumerate() {
        let Some(p) = point.as_object() else {
            return Err(format!("capacity.points[{i}] is not an object"));
        };
        for required in ["rps", "achieved_rps", "p99_ms", "error_rate"] {
            match get(p, required) {
                Some(serde::Value::Number(v)) if v.is_finite() => {}
                _ => return Err(format!("capacity.points[{i}] lacks finite `{required}`")),
            }
        }
        match get(p, "met_slo") {
            Some(serde::Value::Bool(_)) => {}
            _ => return Err(format!("capacity.points[{i}] lacks boolean `met_slo`")),
        }
        match get(p, "retries_total") {
            Some(serde::Value::Number(v)) if v >= 0.0 => {}
            _ => {
                return Err(format!(
                    "capacity.points[{i}] lacks non-negative `retries_total` (schema v7)"
                ));
            }
        }
    }
    let Some(serde::Value::Array(per_replica)) = get(&capacity, "per_replica") else {
        return Err("capacity lacks `per_replica` array".into());
    };
    for (i, entry) in per_replica.iter().enumerate() {
        let Some(r) = entry.as_object() else {
            return Err(format!("capacity.per_replica[{i}] is not an object"));
        };
        for required in ["replica", "routed"] {
            match get(r, required) {
                Some(serde::Value::Number(v)) if v >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "capacity.per_replica[{i}] lacks non-negative `{required}`"
                    ));
                }
            }
        }
        match get(r, "utilization") {
            Some(serde::Value::Number(v)) if v.is_finite() => {}
            _ => return Err(format!("capacity.per_replica[{i}] lacks finite `utilization`")),
        }
    }
    let Some(serde::Value::Object(router)) = get(&capacity, "router") else {
        return Err("capacity lacks `router` object".into());
    };
    for required in ["p2c", "fallback", "rerouted"] {
        match get(&router, required) {
            Some(serde::Value::Number(v)) if v >= 0.0 => {}
            _ => return Err(format!("capacity.router lacks non-negative `{required}`")),
        }
    }
    let phases = match phase_count {
        Some(n) => format!("{n} phases, "),
        None => String::new(),
    };
    Ok(format!(
        "schema {BENCH_SERVE_SCHEMA}, commit {}, {phases}{max_sustained:.1} rps sustained at \
         p99<{p99_ms}ms over {} sweep points, {} replicas",
        &commit[..commit.len().min(12)],
        points.len(),
        per_replica.len()
    ))
}

/// Asserts a metric family (name-prefix match) is present in a
/// Prometheus text exposition: some sample line's metric name starts
/// with `family`. Used by ci.sh via `obs-check --require` to pin the
/// resilience series (`snn_serve_admit_*`, `snn_pool_quarantine_*`)
/// into the scrape, not just validate whatever happens to be there.
///
/// # Errors
///
/// Returns a message naming the missing family.
pub fn require_family_text(text: &str, family: &str) -> Result<(), String> {
    let found = text.lines().any(|line| {
        !line.starts_with('#') && line.split(['{', ' ']).next().is_some_and(|n| n.starts_with(family))
    });
    if found {
        Ok(())
    } else {
        Err(format!("no `{family}*` series in the text exposition"))
    }
}

/// Asserts a metric family (name-prefix match) is present among a
/// `/metrics.json` body's instruments. Counterpart of
/// [`require_family_text`] for the JSON exposition.
///
/// # Errors
///
/// Returns a message naming the missing family (or describing a body
/// too malformed to search).
pub fn require_family_json(text: &str, family: &str) -> Result<(), String> {
    let value = serde_json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let instruments = value
        .as_object()
        .and_then(|fields| {
            fields.iter().find(|(name, _)| name == "instruments").map(|(_, v)| v.clone())
        })
        .ok_or("missing `instruments` field")?;
    let serde::Value::Array(instruments) = instruments else {
        return Err("`instruments` is not an array".into());
    };
    let found = instruments.iter().any(|inst| {
        inst.as_object()
            .and_then(|fields| fields.iter().find(|(name, _)| name == "name"))
            .is_some_and(|(_, v)| matches!(v, serde::Value::String(s) if s.starts_with(family)))
    });
    if found {
        Ok(())
    } else {
        Err(format!("no `{family}*` instrument in the JSON exposition"))
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits a sample line into `(series, value)`, honouring `{...}`
/// label blocks that may contain spaces.
fn split_sample(line: &str) -> Option<(&str, &str)> {
    let split_at = match line.find('{') {
        Some(open) => open + line[open..].find('}')? + 1,
        None => line.find(' ')?,
    };
    let (series, rest) = line.split_at(split_at);
    let value = rest.trim();
    if value.is_empty() || value.contains(' ') {
        return None;
    }
    Some((series, value))
}

/// Identity of one histogram's bucket ladder: the family name plus
/// every label except `le`. Two replicas' histograms share a family
/// but are separate ladders; the `le` label itself varies within one.
fn bucket_key(series: &str, family: &str) -> String {
    let labels = match (series.find('{'), series.rfind('}')) {
        (Some(open), Some(close)) if close > open => &series[open + 1..close],
        _ => "",
    };
    let kept: Vec<&str> = labels
        .split(',')
        .filter(|l| !l.trim_start().starts_with("le="))
        .collect();
    format!("{family}{{{}}}", kept.join(","))
}

/// Strips histogram series suffixes to the declared family name.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            return stripped;
        }
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_exposition() {
        let text = "# HELP snn_x_total things\n# TYPE snn_x_total counter\nsnn_x_total 3\n\
                    # TYPE snn_h histogram\nsnn_h_bucket{le=\"0.1\"} 1\n\
                    snn_h_bucket{le=\"+Inf\"} 2\nsnn_h_sum 0.15\nsnn_h_count 2\n";
        check_prometheus(text).unwrap();
    }

    #[test]
    fn rejects_structural_defects() {
        assert!(check_prometheus("").is_err());
        assert!(check_prometheus("# TYPE x counter\nx 1").is_err(), "missing trailing newline");
        assert!(check_prometheus("x 1\n").is_err(), "sample without TYPE");
        assert!(check_prometheus("# TYPE x widget\nx 1\n").is_err(), "bad kind");
        assert!(check_prometheus("# TYPE x counter\nx abc\n").is_err(), "bad value");
        let non_cumulative = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n";
        assert!(check_prometheus(non_cumulative).is_err());
    }

    #[test]
    fn bucket_ladders_are_per_labeled_series() {
        // Replica 1's first bucket is lower than replica 0's +Inf —
        // legal, they are separate ladders within one family.
        let pooled = "# TYPE h histogram\n\
                      h_bucket{replica=\"0\",le=\"1\"} 5\n\
                      h_bucket{replica=\"0\",le=\"+Inf\"} 9\n\
                      h_bucket{replica=\"1\",le=\"1\"} 2\n\
                      h_bucket{replica=\"1\",le=\"+Inf\"} 4\n";
        check_prometheus(pooled).unwrap();
        // But within one replica's ladder, counts must still climb.
        let broken = "# TYPE h histogram\n\
                      h_bucket{replica=\"0\",le=\"1\"} 5\n\
                      h_bucket{replica=\"0\",le=\"+Inf\"} 3\n";
        assert!(check_prometheus(broken).is_err());
    }

    #[test]
    fn validates_metrics_json() {
        let good = "{\"model\":{\"name\":\"demo\"},\
                    \"instruments\":[{\"name\":\"x\",\"kind\":\"counter\",\"value\":1}]}";
        check_metrics_json(good).unwrap();
        assert!(check_metrics_json("[]").is_err());
        assert!(check_metrics_json("{\"model\":{}}").is_err());
        assert!(check_metrics_json("{\"model\":{},\"instruments\":[]}").is_err());
        // The pre-`model` layout is no longer accepted.
        let old = good.replace("\"model\":{\"name\":\"demo\"}", "\"summary\":{}");
        assert!(check_metrics_json(&old).is_err());
        assert!(check_metrics_json("not json").is_err());
    }

    fn bench_report_gated(schema: &str, speedup_90: &str, int8_speedup: &str) -> String {
        let point = |sp: &str, speedup: &str| {
            format!(
                "{{\"sparsity_pct\":{sp},\"input_density\":0.1,\"dense_seconds\":0.003,\
                 \"event_seconds\":0.001,\"event_speedup\":{speedup},\
                 \"f32_dense_seconds\":0.002}}"
            )
        };
        let points = format!("[{},{}]", point("50", "1.1"), point("90", speedup_90));
        let section = |name: &str| format!("\"{name}\":{{\"points\":{points}}}");
        format!(
            "{{\"schema_version\":{schema},\"git_commit\":\"abc123\",\
             \"int8_gemm\":{{\"m\":64,\"k\":128,\"n\":64,\"f32_seconds\":0.003,\
             \"int8_seconds\":0.002,\"int8_speedup\":{int8_speedup}}},\
             \"int8_lif_row\":{{\"certified_ns_per_neuron\":0.9,\
             \"fallback_ns_per_neuron\":12.5,\"f32_ns_per_neuron\":0.4,\
             \"fallback_vs_certified\":13.9,\"certified_vs_f32\":0.44}},\
             \"maxpool\":{{\"items\":16,\"channels\":32,\"points\":[\
             {{\"side\":16,\"u8_ns_per_input\":0.004,\"f32_ns_per_input\":0.02,\"u8_vs_f32\":5.0}},\
             {{\"side\":8,\"u8_ns_per_input\":0.006,\"f32_ns_per_input\":0.021,\"u8_vs_f32\":3.5}}]}},\
             \"spike_count\":{{\"items\":16,\"lif_ns_per_element\":0.3,\"points\":[\
             {{\"density_pct\":2,\"ns_per_element\":0.045,\"naive_ns_per_element\":0.3,\
             \"lanes_vs_naive\":6.7}},\
             {{\"density_pct\":50,\"ns_per_element\":0.046,\"naive_ns_per_element\":0.9,\
             \"lanes_vs_naive\":19.6}}]}},\
             \"density_sweep\":{{\
             \"sparsities_pct\":[50,90],{},{},{},{},{},{}}}}}",
            section("conv2d"),
            section("conv2d_int8"),
            section("gemm_nt"),
            section("lif_step"),
            section("forward"),
            section("forward_direct")
        )
    }

    fn bench_report(schema: &str, speedup_90: &str) -> String {
        bench_report_gated(schema, speedup_90, "1.5")
    }

    #[test]
    fn validates_bench_kernels_report() {
        let good = bench_report("10", "2.5");
        let summary = check_bench_kernels(&good, None, None).unwrap();
        assert!(summary.contains("2.50x"), "summary was `{summary}`");
        check_bench_kernels(&good, Some(1.5), None).unwrap();
        assert!(check_bench_kernels(&good, Some(3.0), None).is_err(), "below gate");
        assert!(check_bench_kernels(&bench_report("9", "2.5"), None, None).is_err(), "old schema");
        assert!(check_bench_kernels("not json", None, None).is_err());
        assert!(check_bench_kernels("{}", None, None).is_err(), "missing everything");
        let no_90 = bench_report("10", "2.5").replace("\"sparsity_pct\":90", "\"sparsity_pct\":91");
        assert!(check_bench_kernels(&no_90, None, None).is_err(), "no 90% point");
        let no_direct = good.replace("\"forward_direct\"", "\"forward_indirect\"");
        assert!(check_bench_kernels(&no_direct, None, None).is_err(), "missing forward_direct");
    }

    #[test]
    fn gates_and_validates_int8_rows() {
        let good = bench_report_gated("10", "2.5", "1.35");
        let summary = check_bench_kernels(&good, None, Some(1.2)).unwrap();
        assert!(summary.contains("1.35x"), "summary was `{summary}`");
        assert!(
            check_bench_kernels(&good, None, Some(1.4)).is_err(),
            "int8 speedup below the gate must fail"
        );
        let no_int8 = good.replace("\"int8_gemm\"", "\"int8_gemm_gone\"");
        assert!(check_bench_kernels(&no_int8, None, None).is_err(), "missing int8_gemm");
        let no_int8_conv = good.replace("\"conv2d_int8\"", "\"conv2d_int9\"");
        assert!(check_bench_kernels(&no_int8_conv, None, None).is_err(), "missing conv2d_int8");
        let bad_baseline =
            good.replace("\"f32_dense_seconds\":0.002", "\"f32_dense_seconds\":\"fast\"");
        assert!(
            check_bench_kernels(&bad_baseline, None, None).is_err(),
            "non-numeric f32 baseline in the int8 conv rows must fail"
        );
    }

    #[test]
    fn requires_the_int8_lif_row_section() {
        let good = bench_report("10", "2.5");
        let summary = check_bench_kernels(&good, None, None).unwrap();
        assert!(summary.contains("0.90 ns/neuron"), "summary was `{summary}`");
        let missing = good.replace("\"int8_lif_row\"", "\"int8_lif_rows\"");
        assert!(check_bench_kernels(&missing, None, None).is_err(), "missing int8_lif_row");
        let no_field = good.replace("\"fallback_ns_per_neuron\"", "\"fallback_ns\"");
        assert!(check_bench_kernels(&no_field, None, None).is_err(), "missing fallback timing");
        let bad = good.replace("\"certified_vs_f32\":0.44", "\"certified_vs_f32\":null");
        assert!(check_bench_kernels(&bad, None, None).is_err(), "non-numeric ratio");
    }

    #[test]
    fn requires_the_maxpool_section() {
        let good = bench_report("10", "2.5");
        let summary = check_bench_kernels(&good, None, None).unwrap();
        assert!(summary.contains("u8 max pool 5.00x"), "summary was `{summary}`");
        let missing = good.replace("\"maxpool\"", "\"max_pool\"");
        assert!(check_bench_kernels(&missing, None, None).is_err(), "missing maxpool");
        let no_points = good.replace("\"points\":[{\"side\"", "\"rows\":[{\"side\"");
        assert!(check_bench_kernels(&no_points, None, None).is_err(), "missing points");
        let no_field = good.replace("\"f32_ns_per_input\":0.021", "\"f32_ns\":0.021");
        assert!(check_bench_kernels(&no_field, None, None).is_err(), "missing f32 timing");
        let bad = good.replace("\"u8_vs_f32\":3.5", "\"u8_vs_f32\":null");
        assert!(check_bench_kernels(&bad, None, None).is_err(), "non-numeric ratio");
    }

    #[test]
    fn requires_the_spike_count_section() {
        let good = bench_report("10", "2.5");
        let summary = check_bench_kernels(&good, None, None).unwrap();
        assert!(summary.contains("spike count 0.045 ns/element"), "summary was `{summary}`");
        let missing = good.replace("\"spike_count\"", "\"spike_counts\"");
        assert!(check_bench_kernels(&missing, None, None).is_err(), "missing spike_count");
        let no_lif = good.replace("\"lif_ns_per_element\":0.3", "\"lif_ns\":0.3");
        assert!(check_bench_kernels(&no_lif, None, None).is_err(), "missing LIF scale");
        let no_points = good.replace("\"points\":[{\"density_pct\"", "\"rows\":[{\"density_pct\"");
        assert!(check_bench_kernels(&no_points, None, None).is_err(), "missing points");
        let no_field = good.replace("\"naive_ns_per_element\":0.9", "\"naive_ns\":0.9");
        assert!(check_bench_kernels(&no_field, None, None).is_err(), "missing naive timing");
        let bad = good.replace("\"lanes_vs_naive\":19.6", "\"lanes_vs_naive\":null");
        assert!(check_bench_kernels(&bad, None, None).is_err(), "non-numeric ratio");
    }

    fn serve_report(schema: &str, with_phases: bool) -> String {
        let phases = if with_phases {
            "\"phases\":[{\"name\":\"batched\",\"throughput_rps\":850.5}],"
        } else {
            ""
        };
        format!(
            "{{\"schema_version\":{schema},\"git_commit\":\"abc123\",{phases}\
             \"capacity\":{{\
             \"slo\":{{\"p99_ms\":25.0,\"max_error_rate\":0.001}},\
             \"max_sustained_rps\":400.0,\
             \"points\":[{{\"rps\":200.0,\"achieved_rps\":199.1,\"p99_ms\":4.2,\
             \"error_rate\":0.0,\"met_slo\":true,\"retries_total\":0}},\
             {{\"rps\":800.0,\"achieved_rps\":512.0,\"p99_ms\":91.0,\
             \"error_rate\":0.2,\"met_slo\":false,\"retries_total\":41}}],\
             \"per_replica\":[{{\"replica\":0,\"routed\":250,\"utilization\":0.41}},\
             {{\"replica\":1,\"routed\":248,\"utilization\":0.39}}],\
             \"router\":{{\"p2c\":498,\"fallback\":0,\"rerouted\":0}}}}}}"
        )
    }

    #[test]
    fn validates_bench_serve_report() {
        let summary = check_bench_serve(&serve_report("7", true)).unwrap();
        assert!(summary.contains("400.0 rps sustained"), "summary was `{summary}`");
        assert!(summary.contains("1 phases"), "summary was `{summary}`");
        // loadgen's capacity-only shape (no phases) is also valid.
        check_bench_serve(&serve_report("7", false)).unwrap();
        assert!(check_bench_serve(&serve_report("6", true)).is_err(), "old schema");
        assert!(check_bench_serve("not json").is_err());
        assert!(check_bench_serve("{}").is_err(), "missing everything");
        let no_capacity = serve_report("7", true).replace("\"capacity\"", "\"cap\"");
        assert!(check_bench_serve(&no_capacity).is_err(), "missing capacity section");
        let bad_point =
            serve_report("7", false).replace("\"met_slo\":true", "\"met_slo\":\"yes\"");
        assert!(check_bench_serve(&bad_point).is_err(), "met_slo must be boolean");
        let no_retries =
            serve_report("7", false).replace(",\"retries_total\":0", "");
        assert!(check_bench_serve(&no_retries).is_err(), "points need retries_total in v7");
        let no_router = serve_report("7", false).replace("\"rerouted\"", "\"re_routed\"");
        assert!(check_bench_serve(&no_router).is_err(), "router counters incomplete");
        let empty_phases = serve_report("7", true)
            .replace("[{\"name\":\"batched\",\"throughput_rps\":850.5}]", "[]");
        assert!(check_bench_serve(&empty_phases).is_err(), "phases present but empty");
    }

    #[test]
    fn requires_metric_families_in_both_expositions() {
        let text = "# TYPE snn_serve_admit_limit gauge\nsnn_serve_admit_limit 64\n\
                    # TYPE snn_pool_quarantine_state gauge\n\
                    snn_pool_quarantine_state{replica=\"0\"} 0\n";
        require_family_text(text, "snn_serve_admit").unwrap();
        require_family_text(text, "snn_pool_quarantine").unwrap();
        assert!(require_family_text(text, "snn_absent").is_err());
        // A HELP/TYPE mention alone must not satisfy the gate.
        assert!(require_family_text("# TYPE snn_serve_admit_limit gauge\n", "snn_serve_admit")
            .is_err());
        let json = "{\"model\":{},\"instruments\":[\
                    {\"name\":\"snn_serve_admit_limit\",\"kind\":\"gauge\",\"value\":64},\
                    {\"name\":\"snn_pool_quarantine_total\",\"kind\":\"counter\",\"value\":1}]}";
        require_family_json(json, "snn_serve_admit").unwrap();
        require_family_json(json, "snn_pool_quarantine").unwrap();
        assert!(require_family_json(json, "snn_absent").is_err());
        assert!(require_family_json("not json", "snn_serve_admit").is_err());
    }

    fn trace_listing(trace_id: &str, stages: &str) -> String {
        format!(
            "{{\"capacity\":64,\"kept\":1,\"sampled_out\":0,\"traces\":[\
             {{\"trace_id\":\"{trace_id}\",\"span_id\":\"00c0ffee00c0ffee\",\
             \"unix_ms\":1700000000000,\"route\":\"/infer\",\"engine\":\"f32\",\
             \"status\":200,\"outcome\":\"ok\",\"batch_size\":1,\"model_version\":1,\
             \"total_us\":1234,\"stages\":{stages}}}]}}"
        )
    }

    #[test]
    fn validates_debug_traces_listing() {
        let id = "0123456789abcdef0123456789abcdef";
        let stages = "[{\"stage\":\"parse\",\"micros\":3},{\"stage\":\"forward\",\"micros\":900}]";
        assert_eq!(check_traces(&trace_listing(id, stages)).unwrap(), 1);
        assert_eq!(
            check_traces("{\"capacity\":0,\"kept\":0,\"sampled_out\":0,\"traces\":[]}").unwrap(),
            0,
            "an empty ring listing is still well-formed"
        );
        assert!(check_traces("not json").is_err());
        assert!(check_traces("[]").is_err(), "top level must be an object");
        assert!(check_traces(&trace_listing("SHOUTY", stages)).is_err(), "bad trace id");
        assert!(
            check_traces(&trace_listing(id, "[{\"stage\":\"parse\"}]")).is_err(),
            "stage without micros"
        );
        let no_stats = trace_listing(id, stages).replace("\"kept\":1,", "");
        assert!(check_traces(&no_stats).is_err(), "missing sampling stats");
    }

    #[test]
    fn validates_structured_log() {
        let id = "0123456789abcdef0123456789abcdef";
        let good = format!(
            "{{\"ts\":1.5,\"level\":\"info\",\"msg\":\"server listening\"}}\n\
             {{\"ts\":2.0,\"level\":\"warn\",\"msg\":\"infer failed\",\"trace\":\"{id}\",\
             \"status\":429}}\n"
        );
        assert_eq!(check_log(&good).unwrap(), 2);
        assert!(check_log("").is_err(), "empty log");
        assert!(check_log("not json\n").is_err());
        assert!(check_log("{\"ts\":1,\"level\":\"loud\",\"msg\":\"x\"}\n").is_err(), "bad level");
        assert!(check_log("{\"ts\":1,\"level\":\"info\"}\n").is_err(), "missing msg");
        assert!(
            check_log("{\"ts\":1,\"level\":\"info\",\"msg\":\"x\",\"trace\":\"short\"}\n").is_err(),
            "malformed trace id"
        );
    }

    #[test]
    fn validates_trace_events() {
        let good = "[\n\
            {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{}},\n\
            {\"name\":\"conv2d_fwd\",\"cat\":\"snn\",\"ph\":\"X\",\"ts\":1.5,\"dur\":10,\"pid\":1,\"tid\":1},\n";
        assert_eq!(check_trace(good).unwrap(), 1);
        assert!(check_trace("{}").is_err(), "missing opening bracket");
        assert!(check_trace("[\n{\"ph\":\"X\"},\n").is_err(), "incomplete event");
    }
}
