//! The shared metrics registry.
//!
//! One registration function, [`Registry::observe`]: a metric is a
//! closure over state some subsystem already keeps. Each subsystem
//! registers its counter block from one table — the replay's per-shard
//! cells (`ldp_metrics::shard::FAMILIES`), the server's `LiveStats`,
//! `CacheStats` and chaos fates, the proxy's path counters. The closure
//! runs only at snapshot time — scrape cadence, not send cadence — so the
//! hot path pays nothing beyond the atomics it already bumps.
//!
//! The registry's own lock guards registration and snapshot only; neither
//! is on the send path. Snapshots are sorted by `(name, labels)` so the
//! exposition (and anything derived from it, like manifest time-series) is
//! deterministic regardless of registration order.

use std::sync::atomic::AtomicU64;

use parking_lot::Mutex;

pub use ldp_metrics::MetricKind;

/// One row of a subsystem's counter table: a family's name, help and
/// labels, and the counter of the stats block `S` it reads.
pub type CounterRow<S> = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
    fn(&S) -> &AtomicU64,
);

/// One sampled metric value: everything the exposition needs, detached
/// from the live cells so rendering never holds the registry lock.
#[derive(Debug, Clone)]
pub struct Sample {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    /// Sorted-at-registration label pairs (`shard="3"`).
    pub labels: Vec<(String, String)>,
    pub value: u64,
}

type Read = Box<dyn Fn() -> u64 + Send + Sync>;

/// A registered metric: its sample, whose value `read` fills in.
struct Metric {
    sample: Sample,
    read: Read,
}

/// Shared registry of named counters and gauges. Construct one per
/// process (or per experiment), hand `Arc<Registry>` to every subsystem
/// that should show up on the metrics endpoint.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Vec<Metric>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.metrics.lock().len())
            .finish()
    }
}

/// Prometheus metric names allow `[a-zA-Z_:][a-zA-Z0-9_:]*`; label names
/// drop the colon. Registration sanitizes rather than erroring — a bad
/// name becomes a legible-but-valid one instead of a runtime failure in
/// an observability layer that must never take the pipeline down.
fn sanitize(name: &str, allow_colon: bool) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic()
            || c == '_'
            || (allow_colon && c == ':')
            || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn clean_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (sanitize(k, false), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a metric of `kind` whose value is read from `f` at
    /// snapshot time. Re-registering the same `(name, labels)` replaces
    /// the closure (the newest underlying state wins — e.g. a fresh replay
    /// run's counters).
    pub fn observe(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let sample = Sample {
            name: sanitize(name, true),
            help: help.to_string(),
            kind,
            labels: clean_labels(labels),
            value: 0,
        };
        let metric = Metric {
            sample,
            read: Box::new(f),
        };
        let mut metrics = self.metrics.lock();
        let key = (&metric.sample.name, &metric.sample.labels);
        match metrics
            .iter_mut()
            .find(|m| (&m.sample.name, &m.sample.labels) == key)
        {
            Some(m) => *m = metric,
            None => metrics.push(metric),
        }
    }

    /// Point-in-time values of every registered metric, sorted by
    /// `(name, labels)`. Each closure reads its state once, so a snapshot
    /// taken concurrently with increments sees each counter's value at
    /// *some* moment during the snapshot — never a torn or decreasing
    /// counter.
    pub fn snapshot(&self) -> Vec<Sample> {
        let metrics = self.metrics.lock();
        let mut out: Vec<Sample> = metrics
            .iter()
            .map(|m| Sample {
                value: (m.read)(),
                ..m.sample.clone()
            })
            .collect();
        drop(metrics);
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// An observed counter over a fresh cell; returns the cell.
    fn counter(reg: &Registry, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicU64> {
        let cell = Arc::new(AtomicU64::new(0));
        let c = cell.clone();
        reg.observe(name, "h", MetricKind::Counter, labels, move || {
            c.load(Ordering::Relaxed)
        });
        cell
    }

    #[test]
    fn observed_counter_roundtrip() {
        let reg = Registry::new();
        let c = counter(&reg, "ldp_test_total", &[]);
        c.fetch_add(5, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].value, 5);
        assert_eq!(snap[0].kind, MetricKind::Counter);
    }

    #[test]
    fn reregistration_replaces_the_closure() {
        let reg = Registry::new();
        let old = counter(&reg, "ldp_shared_total", &[("shard", "0")]);
        let new = counter(&reg, "ldp_shared_total", &[("shard", "0")]);
        old.store(1, Ordering::Relaxed);
        new.store(2, Ordering::Relaxed);
        assert_eq!(reg.snapshot().len(), 1, "same (name, labels) is one metric");
        assert_eq!(reg.snapshot()[0].value, 2, "the newest state wins");
        // A different label set is a distinct metric.
        counter(&reg, "ldp_shared_total", &[("shard", "1")]);
        assert_eq!(reg.snapshot().len(), 2);
    }

    #[test]
    fn observed_metrics_read_at_snapshot_time() {
        let reg = Registry::new();
        let state = Arc::new(AtomicU64::new(7));
        let s = state.clone();
        let labels = [("shard", "2")];
        reg.observe(
            "ldp_depth",
            "queue depth",
            MetricKind::Gauge,
            &labels,
            move || s.load(Ordering::Relaxed),
        );
        assert_eq!(reg.snapshot()[0].value, 7);
        assert_eq!(reg.snapshot()[0].kind, MetricKind::Gauge);
        state.store(11, Ordering::Relaxed);
        assert_eq!(reg.snapshot()[0].value, 11);
    }

    #[test]
    fn snapshot_is_sorted_regardless_of_registration_order() {
        let reg = Registry::new();
        counter(&reg, "zzz_total", &[]);
        counter(&reg, "aaa_total", &[("shard", "1")]);
        counter(&reg, "aaa_total", &[("shard", "0")]);
        let names: Vec<String> = reg
            .snapshot()
            .iter()
            .map(|s| format!("{}{:?}", s.name, s.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn bad_names_are_sanitized_not_fatal() {
        let reg = Registry::new();
        counter(&reg, "9bad name-total", &[("bad key", "any value ok")]);
        let snap = reg.snapshot();
        assert_eq!(snap[0].name, "_bad_name_total");
        assert_eq!(snap[0].labels[0].0, "bad_key");
        assert_eq!(snap[0].labels[0].1, "any value ok", "values pass through");
    }

    #[test]
    fn snapshot_consistent_under_concurrent_increments() {
        // Hammer one observed cell from many threads while snapshotting;
        // every snapshot must be monotone and the final value exact.
        let reg = Arc::new(Registry::new());
        let c = counter(&reg, "ldp_concurrent_total", &[]);
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        let mut workers = Vec::new();
        for _ in 0..THREADS {
            let c = c.clone();
            workers.push(std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        let observer = {
            let reg = reg.clone();
            std::thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..200 {
                    let v = reg.snapshot()[0].value;
                    assert!(v >= last, "snapshot went backwards: {v} < {last}");
                    last = v;
                }
            })
        };
        for w in workers {
            w.join().unwrap();
        }
        observer.join().unwrap();
        assert_eq!(
            reg.snapshot()[0].value,
            THREADS as u64 * PER_THREAD,
            "no lost increments"
        );
    }
}
