//! Cadence sampler: registry snapshots → bounded tick-indexed series.
//!
//! A [`Sampler`] owns the conversion from live counters to time-series:
//! each [`Sampler::sample`] call snapshots the registry and appends one
//! `(tick, value)` point per metric to a bounded ring. Stamps are **tick
//! indices**, not wall-clock times — two runs at the same seed produce
//! identical series, which is what lets the `timeseries` section ride in
//! byte-deterministic run manifests (`ldp.run-manifest/v2`). Callers that
//! need real time (the terminal top view, a bench's q/s math) convert
//! ticks with the cadence they drove the sampler at; see
//! [`Sampler::as_timeseries`], which reuses [`ldp_metrics::TimeSeries`]
//! so the derived views (steady-state mean, max) come from one place.
//!
//! Derived views answer the two questions a live replay raises:
//! *how fast is it going* ([`Sampler::rate_per_tick`] over
//! `ldp_replay_sent_total`) and *is it keeping up with the schedule* —
//! [`Sampler::trend_per_tick`] over the cumulative send-lag counter is
//! the §3 scheduled-vs-actual drift trend: a positive slope means every
//! tick adds lag and the replay is slipping behind its trace timeline.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::Value;
use serde_json::json;

use crate::registry::{MetricKind, Registry};

/// Family name of the cumulative send-lag counter the replay engine
/// exports; the sampler's drift trend is defined over it.
pub const SEND_LAG_FAMILY: &str = "ldp_replay_send_lag_us_total";
/// Family name of the per-shard sent counter.
pub const SENT_FAMILY: &str = "ldp_replay_sent_total";

#[derive(Debug, Clone)]
struct SeriesBuf {
    kind: MetricKind,
    points: VecDeque<(u64, u64)>,
}

/// Snapshots a [`Registry`] into bounded per-metric time-series.
#[derive(Debug, Clone)]
pub struct Sampler {
    registry: Arc<Registry>,
    /// Max points retained per series (older ticks roll off).
    cap: usize,
    ticks: u64,
    series: BTreeMap<String, SeriesBuf>,
}

/// A metric sample key: family name plus its rendered label block, e.g.
/// `ldp_replay_sent_total{shard="3"}`. Same rendering as the exposition,
/// so scrape output and manifest series use identical keys.
fn series_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", inner.join(","))
}

/// Family part of a series key (everything before the label block).
fn family_of(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

impl Sampler {
    /// `cap` bounds retained points per series; 1800 at a 2 s cadence is
    /// an hour of history in a few hundred KB for a 64-shard replay.
    pub fn new(registry: Arc<Registry>, cap: usize) -> Sampler {
        Sampler {
            registry,
            cap: cap.max(2),
            ticks: 0,
            series: BTreeMap::new(),
        }
    }

    /// Takes one sample of every registered metric; returns the tick
    /// index just recorded.
    pub fn sample(&mut self) -> u64 {
        let tick = self.ticks;
        for s in self.registry.snapshot() {
            let key = series_key(&s.name, &s.labels);
            let buf = self.series.entry(key).or_insert_with(|| SeriesBuf {
                kind: s.kind,
                points: VecDeque::new(),
            });
            buf.kind = s.kind;
            buf.points.push_back((tick, s.value));
            while buf.points.len() > self.cap {
                buf.points.pop_front();
            }
        }
        self.ticks += 1;
        tick
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// All series keys, sorted (BTreeMap order).
    pub fn keys(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// Retained points of one series.
    pub fn points(&self, key: &str) -> Option<Vec<(u64, u64)>> {
        self.series
            .get(key)
            .map(|b| b.points.iter().copied().collect())
    }

    /// Per-tick totals of a metric family, summed across label sets
    /// (e.g. all shards' `sent_total`). Missing points count as zero.
    pub fn family_totals(&self, family: &str) -> Vec<(u64, u64)> {
        let mut by_tick: BTreeMap<u64, u64> = BTreeMap::new();
        for (key, buf) in &self.series {
            if family_of(key) != family {
                continue;
            }
            for &(t, v) in &buf.points {
                *by_tick.entry(t).or_insert(0) += v;
            }
        }
        by_tick.into_iter().collect()
    }

    /// Increase of a (cumulative) family total over the last tick
    /// interval, per tick. `None` until two ticks exist.
    pub fn rate_per_tick(&self, family: &str) -> Option<f64> {
        let totals = self.family_totals(family);
        let [.., (t0, v0), (t1, v1)] = totals.as_slice() else {
            return None;
        };
        let dt = t1.saturating_sub(*t0).max(1) as f64;
        Some((*v1 as f64 - *v0 as f64) / dt)
    }

    /// Least-squares slope of a family's totals over every retained tick
    /// (value units per tick). `None` until two ticks exist.
    pub fn trend_per_tick(&self, family: &str) -> Option<f64> {
        let totals = self.family_totals(family);
        if totals.len() < 2 {
            return None;
        }
        let n = totals.len() as f64;
        let (mut st, mut sv, mut stt, mut stv) = (0.0, 0.0, 0.0, 0.0);
        for &(t, v) in &totals {
            let (t, v) = (t as f64, v as f64);
            st += t;
            sv += v;
            stt += t * t;
            stv += t * v;
        }
        let denom = n * stt - st * st;
        if denom.abs() < f64::EPSILON {
            return None;
        }
        Some((n * stv - st * sv) / denom)
    }

    /// The §3 send-lag drift trend: µs of cumulative scheduled-vs-actual
    /// lag added per tick. Positive and growing ⇒ the replay is slipping
    /// behind its trace timeline.
    pub fn send_lag_trend(&self) -> Option<f64> {
        self.trend_per_tick(SEND_LAG_FAMILY)
    }

    /// One series as an [`ldp_metrics::TimeSeries`] with ticks converted
    /// to seconds at the cadence the caller drove [`Sampler::sample`] at
    /// — the bridge to the existing steady-state/max derivations.
    pub fn as_timeseries(&self, key: &str, tick_seconds: f64) -> ldp_metrics::TimeSeries {
        let mut ts = ldp_metrics::TimeSeries::new();
        if let Some(buf) = self.series.get(key) {
            for &(t, v) in &buf.points {
                ts.push(t as f64 * tick_seconds, v as f64);
            }
        }
        ts
    }

    /// The manifest `timeseries` section (`ldp.run-manifest/v2`): fixed
    /// key order (`unit`, `ticks`, `series`, `derived`), series sorted by
    /// key, points tick-indexed — byte-deterministic whenever the sampled
    /// values are.
    pub fn to_manifest_value(&self) -> Value {
        let series: Vec<(String, Value)> = self
            .series
            .iter()
            .map(|(key, buf)| {
                let pts: Vec<Value> = buf.points.iter().map(|&(t, v)| json!([t, v])).collect();
                (key.clone(), Value::Array(pts))
            })
            .collect();
        json!({
            "unit": "ticks",
            "ticks": self.ticks,
            "series": Value::Object(series),
            "derived": {
                "sent_per_tick": self.rate_per_tick(SENT_FAMILY),
                "send_lag_us_per_tick": self.send_lag_trend(),
            },
        })
    }
}

/// Builds a manifest `timeseries` section from externally produced
/// series (e.g. the simulator's per-interval server samples) without a
/// live registry: same shape, same fixed key order, same determinism
/// contract as [`Sampler::to_manifest_value`].
pub fn manifest_section(series: &BTreeMap<String, Vec<(u64, f64)>>, ticks: u64) -> Value {
    let rendered: Vec<(String, Value)> = series
        .iter()
        .map(|(key, pts)| {
            let pts: Vec<Value> = pts.iter().map(|&(t, v)| json!([t, v])).collect();
            (key.clone(), Value::Array(pts))
        })
        .collect();
    json!({
        "unit": "ticks",
        "ticks": ticks,
        "series": Value::Object(rendered),
        "derived": {},
    })
}

/// Drives a [`Sampler`] on a fixed cadence from a dedicated thread (the
/// `--metrics-addr` path: the replay's own runtime must never carry the
/// sampling load). Stop with [`SamplerDriver::stop`] to get the final
/// sampler back for manifest emission; dropping without stopping also
/// shuts the thread down.
pub struct SamplerDriver {
    shared: Arc<Mutex<Sampler>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl SamplerDriver {
    pub fn spawn(sampler: Sampler, period: Duration) -> SamplerDriver {
        let shared = Arc::new(Mutex::new(sampler));
        let stop = Arc::new(AtomicBool::new(false));
        let (s, st) = (shared.clone(), stop.clone());
        let handle = std::thread::spawn(move || {
            // Sleep in short slices so stop() returns promptly even at
            // multi-second cadences.
            let slice = Duration::from_millis(25);
            let mut elapsed = Duration::ZERO;
            while !st.load(Ordering::Relaxed) {
                std::thread::sleep(slice.min(period));
                elapsed += slice;
                if elapsed >= period {
                    elapsed = Duration::ZERO;
                    s.lock().sample();
                }
            }
        });
        SamplerDriver {
            shared,
            stop,
            handle: Some(handle),
        }
    }

    /// Shared handle for concurrent reads (e.g. a status endpoint).
    pub fn shared(&self) -> Arc<Mutex<Sampler>> {
        self.shared.clone()
    }

    /// Stops the driver thread and returns the final sampler state.
    pub fn stop(mut self) -> Sampler {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let final_state = self.shared.lock().clone();
        final_state
    }
}

impl Drop for SamplerDriver {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// An observed counter over a fresh cell, bumped with `add`.
    struct Cell(Arc<AtomicU64>);

    impl Cell {
        fn on(reg: &Registry, name: &str, shard: &str) -> Cell {
            let cell = Arc::new(AtomicU64::new(0));
            let c = cell.clone();
            reg.observe(
                name,
                "h",
                MetricKind::Counter,
                &[("shard", shard)],
                move || c.load(Ordering::Relaxed),
            );
            Cell(cell)
        }

        fn add(&self, n: u64) {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn registry_with_counter(name: &str, shard: &str) -> (Arc<Registry>, Cell) {
        let reg = Arc::new(Registry::new());
        let c = Cell::on(&reg, name, shard);
        (reg, c)
    }

    #[test]
    fn samples_are_tick_indexed_and_bounded() {
        let (reg, c) = registry_with_counter("ldp_x_total", "0");
        let mut s = Sampler::new(reg, 3);
        for i in 0..5u64 {
            c.add(10);
            assert_eq!(s.sample(), i);
        }
        let pts = s.points("ldp_x_total{shard=\"0\"}").unwrap();
        assert_eq!(pts.len(), 3, "cap bounds the ring");
        assert_eq!(pts, vec![(2, 30), (3, 40), (4, 50)]);
    }

    #[test]
    fn family_totals_sum_across_shards() {
        let reg = Arc::new(Registry::new());
        let a = Cell::on(&reg, "ldp_y_total", "0");
        let b = Cell::on(&reg, "ldp_y_total", "1");
        let mut s = Sampler::new(reg, 16);
        a.add(5);
        b.add(7);
        s.sample();
        a.add(5);
        s.sample();
        assert_eq!(s.family_totals("ldp_y_total"), vec![(0, 12), (1, 17)]);
        assert_eq!(s.rate_per_tick("ldp_y_total"), Some(5.0));
    }

    #[test]
    fn trend_is_least_squares_slope() {
        let (reg, c) = registry_with_counter(SEND_LAG_FAMILY, "0");
        let mut s = Sampler::new(reg, 16);
        // Perfectly linear growth: 100 µs of lag per tick.
        for _ in 0..5 {
            s.sample();
            c.add(100);
        }
        let slope = s.send_lag_trend().unwrap();
        assert!((slope - 100.0).abs() < 1e-9, "slope {slope}");
        assert!(s.rate_per_tick("nonexistent").is_none());
    }

    #[test]
    fn manifest_section_has_fixed_key_order() {
        let (reg, c) = registry_with_counter(SENT_FAMILY, "0");
        let mut s = Sampler::new(reg, 16);
        c.add(3);
        s.sample();
        let v = s.to_manifest_value();
        let Value::Object(fields) = &v else {
            panic!("timeseries section must be an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["unit", "ticks", "series", "derived"]);
        // And serialization is reproducible.
        let a = serde_json::to_string(&v).unwrap();
        let b = serde_json::to_string(&s.to_manifest_value()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn as_timeseries_bridges_to_metrics_crate() {
        let (reg, c) = registry_with_counter("ldp_z_total", "0");
        let mut s = Sampler::new(reg, 16);
        for _ in 0..3 {
            c.add(2);
            s.sample();
        }
        let ts = s.as_timeseries("ldp_z_total{shard=\"0\"}", 2.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.points()[2], (4.0, 6.0), "tick 2 at a 2 s cadence");
        assert_eq!(ts.max(), Some(6.0));
    }

    #[test]
    fn driver_samples_in_background() {
        let (reg, c) = registry_with_counter("ldp_bg_total", "0");
        let sampler = Sampler::new(reg, 64);
        let driver = SamplerDriver::spawn(sampler, Duration::from_millis(30));
        c.add(1);
        std::thread::sleep(Duration::from_millis(200));
        let final_state = driver.stop();
        assert!(final_state.ticks() >= 2, "ticks {}", final_state.ticks());
        assert!(final_state.points("ldp_bg_total{shard=\"0\"}").is_some());
    }
}
