//! Benchmark self-test: a `--quick` run of every workload, untraced and
//! traced, must emit exactly the metrics `BENCHMARK.json` lists, each with
//! its unit, and must have run the answer check.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    bench[list]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn quick_run(workload: &str, trace: u8) -> (String, Value) {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&repo)
        .args(["--workload", workload, "--seed", "1", "--seconds", "2"])
        .args(["--trace", &trace.to_string(), "--quick"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("result parses");
    (stdout, result)
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let bench = benchmark_json();
    let workloads: Vec<String> = bench["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name").to_string())
        .collect();
    assert_eq!(workloads, ["hot_fast", "broot_timed", "broot_tcp"]);
    for workload in &workloads {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let (stdout, result) = quick_run(workload, trace);
            let keys: Vec<&str> = result
                .as_object()
                .expect("result object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result["correct"].as_bool(), Some(true));
            assert!(result["attempted"].as_u64().is_some_and(|n| n > 0));
            let emitted: Vec<(String, String)> = result["metrics"]
                .as_object()
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    assert!(m["value"].as_f64().is_some_and(f64::is_finite), "{name}");
                    (name.clone(), m["unit"].as_str().expect("unit").to_string())
                })
                .collect();
            assert_eq!(
                emitted,
                declared(&bench, list),
                "{workload} --trace {trace}"
            );
            assert!(
                stdout.contains(r#""answer_check":{"udp":64,"tcp":64,"mismatches":0}"#),
                "{workload}: answer check did not run"
            );
            if trace == 1 {
                assert_eq!(
                    result["metrics"]["obs.span_overwritten"]["value"].as_f64(),
                    Some(0.0)
                );
            }
        }
    }
}
