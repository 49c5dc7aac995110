//! Smoke mode: tiny sizes of every workload, run through the binary and
//! checked against what the result line must carry — one JSON object
//! with every metric of its table and that metric's unit — and against
//! `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

use codecbench::json::{self, Value};
use codecbench::{Workload, END_TO_END, PER_LAYER};

/// Runs one tiny workload and returns its parsed result line.
fn run(workload: Workload, trace: bool) -> Value {
    let spans = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-trace{}.jsonl",
        workload.name(),
        u8::from(trace)
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_codecbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args([
            "--smoke",
            "--trace",
            if trace { "1" } else { "0" },
            "--trace-out",
        ])
        .arg(&spans)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "{} (trace {trace}) failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("the result line is not JSON ({e}): {last}"))
}

/// Asserts the result line's keys, and that its metrics are exactly
/// `table`, each with its unit and a finite value.
fn assert_result(result: &Value, table: &[(&str, &str)]) {
    let Value::Obj(members) = result else {
        panic!("the result line is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(result
        .get("attempted")
        .and_then(Value::as_f64)
        .is_some_and(|n| n >= 1.0));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = table.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, expected);
    for ((name, metric), &(_, unit)) in metrics.iter().zip(table) {
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit),
            "{name}"
        );
        assert!(
            metric
                .get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    for workload in Workload::ALL {
        assert_result(&run(workload, false), END_TO_END);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_with_its_unit() {
    for workload in Workload::ALL {
        assert_result(&run(workload, true), PER_LAYER);
    }
}

#[test]
fn benchmark_json_names_the_workloads_and_both_metric_tables() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let entries = |key: &str| -> Vec<(String, Option<String>)> {
        spec.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|entry| {
                (
                    entry
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    entry
                        .get("unit")
                        .and_then(Value::as_str)
                        .map(str::to_string),
                )
            })
            .collect()
    };
    let workloads: Vec<String> = entries("workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(
        workloads,
        Workload::BENCHMARKED.map(|w| w.name().to_string())
    );
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, Option<String>)> = table
            .iter()
            .map(|&(name, unit)| (name.to_string(), Some(unit.to_string())))
            .collect();
        assert_eq!(entries(key), want, "{key}");
    }
}

#[test]
fn a_usage_error_exits_two_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_codecbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
