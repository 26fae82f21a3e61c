//! Golden-schema tests: the JSON field sets (names and order) of the
//! metrics types that land in result files and run manifests. A rename
//! here is a breaking change for every downstream consumer diffing
//! artifacts across commits — it must show up as a deliberate edit to
//! this test, not slip through a refactor.

use ldp_metrics::{LogHistogram, PipelineTotals, ShardStats, Summary};
use serde::{Serialize, Value};

fn object_keys(v: &Value) -> Vec<String> {
    let Value::Object(fields) = v else {
        panic!("expected a JSON object, got {v:?}");
    };
    fields.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn shard_stats_schema() {
    let keys = object_keys(&ShardStats::new(3).to_json_value());
    assert_eq!(
        keys,
        [
            "shard",
            "sent",
            "answered",
            "late",
            "timeouts",
            "retries",
            "reconnects",
            "gave_up",
            "errors",
            "id_collisions",
            "mismatched_answers",
            "tc_fallbacks",
            "batches",
            "postman_stalls",
            "max_queue_depth",
            "depths",
        ]
    );
}

#[test]
fn pipeline_totals_schema() {
    let keys = object_keys(&PipelineTotals::default().to_json_value());
    assert_eq!(
        keys,
        [
            "sent",
            "answered",
            "late",
            "timeouts",
            "retries",
            "reconnects",
            "gave_up",
            "errors",
            "id_collisions",
            "mismatched_answers",
            "tc_fallbacks",
            "batches",
            "postman_stalls",
            "max_queue_depth",
        ]
    );
}

#[test]
fn summary_schema() {
    let s = Summary::compute(&[1.0, 2.0, 3.0]).unwrap();
    let keys = object_keys(&s.to_json_value());
    assert_eq!(
        keys,
        ["count", "min", "p5", "q1", "median", "q3", "p95", "max", "mean"]
    );
}

#[test]
fn log_histogram_schema() {
    let mut h = LogHistogram::new();
    h.record(42);
    let v = h.to_json_value();
    let keys = object_keys(&v);
    assert_eq!(
        keys,
        [
            "scheme",
            "precision_bits",
            "unit",
            "count",
            "min",
            "max",
            "sum",
            "buckets",
        ]
    );
    // Units are pinned too: ticks, log2 bucketing with 5 precision bits.
    assert_eq!(v.get("scheme").and_then(Value::as_str), Some("log2-32"));
    assert_eq!(v.get("unit").and_then(Value::as_str), Some("tick"));
    assert_eq!(v.get("precision_bits").and_then(Value::as_u64), Some(5));
}
