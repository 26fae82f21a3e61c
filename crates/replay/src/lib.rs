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
//! * [`querier`] — the querier core: every per-querier decision (routes,
//!   ids, pacing and runs, the in-flight table, (socket, id) matching,
//!   expiry and retransmits, TC→TCP fallback) as a state machine that
//!   never reads a clock and never touches a socket; events in, actions
//!   out, time in nanoseconds on the replay epoch,
//! * [`engine`] — the live driver of the core, used for the §4
//!   replay-fidelity and throughput experiments (real sockets, loopback);
//!   the paper's processes-on-many-hosts become tasks-in-one-process with
//!   channels standing in for the TCP control connections — the dataflow,
//!   affinity, and timing logic are identical,
//! * [`sim`] — the simulator driver of the same core, an [`ldp_netsim`]
//!   node, used by the §5 protocol experiments (controlled RTT, TCP/TLS/
//!   QUIC connection reuse, latency distributions),
//! * [`outcome`] — the per-shard outcome log both drivers fill: one
//!   32-byte row per trace record, written in place and read back as
//!   [`ReplayOutcome`]s,
//! * [`retry`] — the core's fault-tolerance policy: answer timeouts over
//!   a timer wheel, UDP retransmits with exponential backoff + jitter,
//!   and TCP reconnects (counted, like every replay event, in the shard's
//!   [`ldp_metrics::ShardCounters`]).

#![deny(rust_2018_idioms, unsafe_op_in_unsafe_fn, unreachable_pub)]

pub mod engine;
mod ledger;
pub mod outcome;
pub mod plan;
pub mod querier;
mod ready;
pub mod retry;
pub mod sim;
pub mod timing;

pub use engine::{LiveReplay, ReplayReport};
pub use outcome::{OutcomeIter, Outcomes, ReplayError, ReplayOutcome};
pub use plan::{Batcher, ReplayPlan};
pub use querier::ReplayMode;
pub use retry::RetryPolicy;
pub use timing::ReplayClock;
