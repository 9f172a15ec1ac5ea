//! Self-test of the benchmark: a smoke-length run of every workload in
//! `BENCHMARK.json`, untraced and traced.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::HashMap;
use std::process::Command;

use serde::Value;

/// One finished benchmark run.
struct Run {
    /// The final JSON line.
    result: Value,
    /// `key=value` fields of the `perfbench:` summary line.
    info: HashMap<String, String>,
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing `{name}`"))
}

fn string(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Number(n) => *n,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix("perfbench: "))
        .expect("summary line")
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Run {
        result: serde_json::parse(last).expect("last line is JSON"),
        info,
    }
}

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn workloads(bench: &Value) -> Vec<String> {
    let list = field(bench, "workloads").as_array().expect("workload list");
    list.iter()
        .map(|w| string(field(w, "name")).to_string())
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let bench = benchmark();
    for workload in workloads(&bench) {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let run = run(&workload, 1, trace);
            let r = &run.result;
            assert_eq!(field(r, "correct"), &Value::Bool(true), "{workload}");
            assert!(
                number(field(r, "attempted")) > 0.0,
                "{workload}: nothing attempted"
            );
            assert_eq!(number(field(r, "failed")), 0.0, "{workload}: failures");
            let metrics = field(r, "metrics").as_object().expect("metrics object");
            let declared = field(&bench, key).as_array().expect("metric list");
            assert_eq!(
                metrics.len(),
                declared.len(),
                "{workload} {key}: metric count"
            );
            for m in declared {
                let name = string(field(m, "name"));
                let got = metrics
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("{workload}: `{name}` not emitted"));
                assert_eq!(
                    string(field(got, "unit")),
                    string(field(m, "unit")),
                    "{name}"
                );
                assert!(
                    number(field(got, "value")).is_finite(),
                    "{workload}: {name}"
                );
            }
        }
    }
}

#[test]
fn a_new_seed_changes_the_inputs_but_not_the_models() {
    for workload in workloads(&benchmark()) {
        let a = run(&workload, 1, false);
        let b = run(&workload, 2, false);
        assert_ne!(
            a.info["inputs"], b.info["inputs"],
            "{workload}: inputs ignore the seed"
        );
        assert_eq!(
            a.info["models"], b.info["models"],
            "{workload}: models depend on the seed"
        );
        let again = run(&workload, 1, false);
        assert_eq!(
            a.info["inputs"], again.info["inputs"],
            "{workload}: inputs not reproducible"
        );
    }
}
