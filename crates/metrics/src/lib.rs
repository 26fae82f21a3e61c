//! Measurement and reporting utilities for the LDplayer reproduction's
//! evaluation harness.
//!
//! Every figure in the paper is one of three statistical shapes, and this
//! crate provides exactly those:
//!
//! * [`Summary`] — median/quartiles/5th/95th whisker summaries (Figures 6,
//!   10, 11, 15),
//! * [`Cdf`] — cumulative distributions (Figures 7, 8, 15c),
//! * [`TimeSeries`] / [`RateSeries`] — per-interval gauges and rates over
//!   experiment time (Figures 9, 13, 14).
//!
//! [`ShardStats`] adds the replay pipeline's per-shard saturation counters
//! (sent/answered/late, queue depths) that the Figure 9 throughput
//! experiments break down by querier shard; [`ShardCounters`] is the
//! live atomic block they are a snapshot of.
//!
//! [`report`] renders results as aligned text tables (the form the
//! experiment binaries print) and JSON (for downstream plotting).

#![deny(rust_2018_idioms, unsafe_op_in_unsafe_fn, unreachable_pub)]

pub mod cdf;
pub mod hist;
pub mod report;
pub mod series;
pub mod shard;
pub mod summary;

pub use cdf::Cdf;
pub use hist::LogHistogram;
pub use report::Report;
pub use series::{RateSeries, TimeSeries};
pub use shard::{DepthRing, MetricKind, PipelineTotals, ShardCounters, ShardStats};
pub use summary::Summary;
