//! Small helpers for the run record.

use serde_json::Value;

/// Median of a small set of repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Reads a number out of a JSON record by path (`["lateness", "p50"]`).
pub fn num(value: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(value, |v, key| v.get(*key))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}
