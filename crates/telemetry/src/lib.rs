//! `ldp-telemetry`: the live metrics plane for the replay pipeline.
//!
//! Everything `ldp-obs` builds (spans, stage histograms, run manifests)
//! is post-hoc: you only learn a ten-minute replay starved its shards
//! after it finishes. This crate makes the same pipeline observable
//! *while it runs*, in four layers:
//!
//! * [`registry`] — a shared [`Registry`] of named counters and gauges.
//!   Every metric is *observed*: a closure over atomics a subsystem
//!   already keeps (the replay's per-shard counter block, the server's
//!   stats), read at snapshot time, so the hot path pays nothing it
//!   wasn't already paying — no locks, no allocation, no name lookups.
//! * [`sampler`] — [`Sampler`] snapshots the registry on a fixed cadence
//!   into bounded tick-indexed time-series and derives rates and the
//!   send-lag drift trend (scheduled-vs-actual, the §3 time-sync
//!   concern). Ticks, not wall-clock stamps, so the series a manifest
//!   carries stays byte-deterministic at a fixed seed.
//! * [`http`] — [`MetricsServer`], a std-only HTTP endpoint serving the
//!   Prometheus text exposition (`--metrics-addr`); [`expose`] renders
//!   the format (HELP/TYPE lines, label escaping).
//! * [`top`] — the `ldplayer top` terminal view: scrapes the endpoint
//!   and renders per-shard rates, queue depths, and fault counters live.
//!
//! Dependency-light on purpose: `ldp-metrics` plus the vendored
//! parking_lot/serde stubs, so every layer of the pipeline (replay,
//! server, proxy) can register metrics without cycles.

#![deny(rust_2018_idioms, unsafe_op_in_unsafe_fn, unreachable_pub)]

pub mod expose;
pub mod http;
pub mod registry;
pub mod sampler;
pub mod top;

pub use expose::render_prometheus;
pub use http::MetricsServer;
pub use registry::{CounterRow, MetricKind, Registry, Sample};
pub use sampler::{Sampler, SamplerDriver};
pub use top::{parse_exposition, run_top, scrape, ParsedMetric, TopOptions};
