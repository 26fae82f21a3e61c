//! The distributed query replay engine (§2.6 and §3 of the paper).
//!
//! LDplayer's query engine is a two-level distribution tree — a Controller
//! (Reader + Postman) feeding Distributors feeding Queriers — that replays
//! a captured query stream with faithful timing, keeps all queries from
//! one original source on one querier (and one socket/connection), and
//! speaks UDP, TCP, and TLS.
//!
//! * [`plan`] — the pure distribution logic: same-source affinity
//!   assignment through both tree levels,
//! * [`timing`] — the ΔTᵢ = Δt̄ᵢ − Δtᵢ scheduling rule that subtracts
//!   accumulated processing delay from the trace-relative send time,
//! * [`engine`] — the live tokio implementation used for the §4
//!   replay-fidelity and throughput experiments (real sockets, loopback);
//!   the paper's processes-on-many-hosts become tasks-in-one-process with
//!   channels standing in for the TCP control connections — the dataflow,
//!   affinity, and timing logic are identical,
//! * [`outcome`] — the per-shard outcome log: one 32-byte row per trace
//!   record, written in place and read back as [`ReplayOutcome`]s,
//! * [`retry`] — the engine's fault-tolerance layer: answer timeouts over
//!   a timer wheel, UDP retransmits with exponential backoff + jitter,
//!   and TCP reconnects (counted, like every replay event, in the shard's
//!   [`ldp_metrics::ShardCounters`]),
//! * [`simclient`] — querier nodes for [`ldp_netsim`], used by the §5
//!   protocol experiments (controlled RTT, TCP/TLS connection reuse,
//!   latency distributions).

#![deny(rust_2018_idioms, unsafe_op_in_unsafe_fn, unreachable_pub)]

pub mod engine;
mod ledger;
pub mod outcome;
pub mod plan;
mod ready;
pub mod retry;
pub mod simclient;
pub mod timing;

pub use engine::{LiveReplay, ReplayError, ReplayMode, ReplayOutcome, ReplayReport};
pub use outcome::{OutcomeIter, Outcomes};
pub use plan::{Batcher, ReplayPlan};
pub use retry::RetryPolicy;
pub use timing::ReplayClock;
