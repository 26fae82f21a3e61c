//! Fixed-memory log-bucketed latency histograms (HDR-style).
//!
//! The evaluation figures used to carry raw `Vec<f64>` sample vectors from
//! every shard to a final sort — unbounded memory, and quartiles computed
//! over an *unsorted merge* are only correct if someone remembers to
//! re-sort. [`LogHistogram`] replaces that path: values (integer ticks,
//! by convention microseconds) land in buckets whose width is a fixed
//! fraction of their magnitude, so the structure is O(1) memory, merge is
//! a lossless element-wise add (associative and commutative by
//! construction), and every quantile comes back with an **exact error
//! bound** — the reported value and the true order statistic of the same
//! rank always share one bucket, so they differ by less than that
//! bucket's width (≲ 1/32 ≈ 3.1% relative, and exact below 64 ticks).
//!
//! Bucketing scheme (`log2-32`, precision `P = 5`):
//!
//! * values `< 2^(P+1)` (64) map to singleton buckets — index = value;
//! * larger values keep their top `P + 1` significant bits: with
//!   `shift = msb(v) − P`, index = `(shift << P) + (v >> shift)`.
//!
//! The ranges are contiguous (bucket 64 starts exactly where bucket 63
//! ends) and invertible, so quantiles report real bucket bounds rather
//! than approximate powers.

use serde::{Serialize, Value};
use serde_json::json;

use crate::summary::Summary;

/// Sub-bucket precision: `2^P` linear sub-buckets per octave.
const P: u32 = 5;
/// Buckets: 2·2^P singleton buckets + 32 sub-buckets for each of the
/// remaining 58 octaves of a `u64` (shift runs 1..=58).
const NUM_BUCKETS: usize = (1 << (P + 1)) + 58 * (1 << P);

/// Fixed-memory log-bucketed histogram over `u64` ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Lossless merge: bucket-wise add. Associative and commutative, so
    /// per-shard histograms can be folded in any order.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (exact). `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (exact). `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean (the sum is kept exactly).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile as a bucket midpoint, clamped to the recorded
    /// `[min, max]`. The reported value and the rank-`⌈q·n⌉` order
    /// statistic share a bucket, so the error is below one bucket width
    /// (see [`LogHistogram::bucket_bounds`]).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let (lo, hi) = self.quantile_bounds(q)?;
        Some((lo + (hi - lo) / 2).clamp(self.min, self.max))
    }

    /// Inclusive bounds of the bucket holding the `q`-quantile's order
    /// statistic (rank `⌈q·n⌉`, clamped to `[1, n]`).
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bounds(i));
            }
        }
        Some(bucket_bounds(NUM_BUCKETS - 1))
    }

    /// Inclusive bounds of the bucket `value` falls in.
    pub fn bucket_bounds(value: u64) -> (u64, u64) {
        bucket_bounds(bucket_index(value))
    }

    /// Width of the bucket `value` falls in (≥ 1 tick).
    pub fn bucket_width(value: u64) -> u64 {
        let (lo, hi) = Self::bucket_bounds(value);
        hi - lo + 1
    }

    /// Five-number summary with every statistic divided by `div` (e.g.
    /// `1000.0` renders microsecond ticks as milliseconds). Quantiles are
    /// bucket midpoints, min/max/mean exact.
    pub fn summary(&self, div: f64) -> Option<Summary> {
        if self.count == 0 {
            return None;
        }
        let q = |p: f64| self.quantile(p).unwrap_or(0) as f64 / div;
        Some(Summary {
            count: self.count as usize,
            min: self.min as f64 / div,
            p5: q(0.05),
            q1: q(0.25),
            median: q(0.50),
            q3: q(0.75),
            p95: q(0.95),
            max: self.max as f64 / div,
            mean: self.mean().unwrap_or(0.0) / div,
        })
    }

    /// Occupied buckets as `(lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bounds(i).0, c))
            .collect()
    }
}

/// Bucket index for a value (total order, contiguous ranges).
fn bucket_index(v: u64) -> usize {
    let h = 63 - (v | 1).leading_zeros();
    if h <= P {
        v as usize
    } else {
        let shift = h - P;
        ((shift as usize) << P) + (v >> shift) as usize
    }
}

/// Inclusive `[lo, hi]` range of bucket `i` (inverse of `bucket_index`).
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < (1 << (P + 1)) {
        return (i as u64, i as u64);
    }
    let shift = (i >> P) as u32 - 1;
    let m = (i - ((shift as usize) << P)) as u64;
    let lo = m << shift;
    // Width-minus-one first: the top bucket's `hi` is exactly u64::MAX.
    (lo, lo + ((1u64 << shift) - 1))
}

impl Serialize for LogHistogram {
    fn to_json_value(&self) -> Value {
        // `sum` as u64 saturates only beyond ~5.8 million years of
        // microseconds — acceptable for a JSON artifact.
        let sum = u64::try_from(self.sum).unwrap_or(u64::MAX);
        json!({
            "scheme": "log2-32",
            "precision_bits": P,
            "unit": "tick",
            "count": self.count,
            "min": if self.count > 0 { self.min } else { 0 },
            "max": self.max,
            "sum": sum,
            "buckets": self.nonzero_buckets(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_contiguous_and_invertible() {
        // Every bucket starts exactly where the previous one ends.
        let mut expect_lo = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i} not contiguous");
            assert!(hi >= lo);
            // Both endpoints map back to this bucket.
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            expect_lo = match hi.checked_add(1) {
                Some(n) => n,
                None => break, // last bucket covers u64::MAX
            };
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(0), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let got = h.quantile(q).unwrap();
            let rank = ((q * 64.0).ceil() as u64).clamp(1, 64);
            assert_eq!(got, rank - 1, "q={q}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 999, 5_000, 123_456, 9_999_999, u64::MAX / 3] {
            let w = LogHistogram::bucket_width(v);
            assert!(
                (w as f64) <= (v as f64) / 16.0,
                "bucket width {w} too wide for {v}"
            );
        }
    }

    #[test]
    fn merge_equals_bulk_record() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [3u64, 70, 70, 5_000, 123, 99_999] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64, 64, 8_191, 8_192] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.count(), 10);
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert!(h.quantile(0.5).is_none());
        assert!(h.summary(1.0).is_none());
        assert!(h.min().is_none() && h.max().is_none() && h.mean().is_none());
    }

    #[test]
    fn summary_scales_units() {
        let mut h = LogHistogram::new();
        h.record_n(5_000, 10); // 5 ms in µs
        let s = h.summary(1000.0).unwrap();
        assert_eq!(s.count, 10);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert!((s.median - 5.0).abs() <= LogHistogram::bucket_width(5_000) as f64 / 1000.0);
        assert!((s.mean - 5.0).abs() < 1e-9);
    }

    #[test]
    fn serializes_sparse_buckets() {
        let mut h = LogHistogram::new();
        h.record(7);
        h.record(7);
        h.record(1_000_000);
        let v = h.to_json_value();
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("scheme").and_then(Value::as_str), Some("log2-32"));
        let buckets = v.get("buckets").and_then(Value::as_array).unwrap();
        assert_eq!(buckets.len(), 2);
    }
}
