//! # LDplayer (reproduction): DNS experimentation at scale
//!
//! A Rust reproduction of *LDplayer: DNS Experimentation at Scale* (Zhu &
//! Heidemann). LDplayer replays captured DNS query streams — faithfully
//! timed, from many emulated sources, over UDP/TCP/TLS — against an
//! emulated DNS hierarchy served by a single authoritative server instance,
//! enabling controlled "what-if" experiments (all-DNSSEC, all-TCP,
//! all-TLS, DoS, key-size changes) that would otherwise need the real
//! Internet.
//!
//! ## Components (one crate each, re-exported here)
//!
//! * [`wire`] — DNS message model and codec,
//! * [`zone`] — zones, master files, lookup semantics, split-horizon views,
//!   synthetic DNSSEC signing,
//! * [`trace`] — trace formats (capture / text / binary stream) and the
//!   query mutator,
//! * [`workload`] — synthetic trace generators calibrated to the paper's
//!   Table 1,
//! * [`netsim`] — deterministic discrete-event network simulation (links,
//!   TCP state machine, TLS emulation),
//! * [`server`] — the authoritative meta-DNS-server, recursive resolver,
//!   and resource models,
//! * [`proxy`] — the OQDA-rewriting proxy pair behind hierarchy emulation,
//! * [`zonegen`] — the zone constructor (traces → zones),
//! * [`replay`] — the distributed query engine (live on OS threads and
//!   real sockets, or simulated),
//! * [`metrics`] — summaries, CDFs, series, reports.
//!
//! ## Quickstart
//!
//! ```
//! use ldplayer::{SimExperiment, workload, trace::mutate};
//!
//! // A small B-Root-like trace, mutated to all-TCP.
//! let mut records = workload::BRootConfig {
//!     duration_s: 2.0,
//!     mean_rate_qps: 200.0,
//!     clients: 100,
//!     ..Default::default()
//! }
//! .generate();
//! mutate::all_tcp(1).apply_all(&mut records);
//!
//! // Replay it against a synthetic root server, 20 ms RTT, 20 s timeout.
//! let result = SimExperiment::root_server(records)
//!     .rtt_ms(20)
//!     .tcp_idle_timeout_s(20)
//!     .run();
//! assert!(result.answer_rate() > 0.99);
//! println!("server memory: {:.1} GB", result.final_memory_gb());
//! ```

#![deny(rust_2018_idioms, unsafe_op_in_unsafe_fn, unreachable_pub)]

pub use ldp_metrics as metrics;
pub use ldp_netsim as netsim;
pub use ldp_proxy as proxy;
pub use ldp_replay as replay;
pub use ldp_server as server;
pub use ldp_trace as trace;
pub use ldp_wire as wire;
pub use ldp_workload as workload;
pub use ldp_zone as zone;
pub use ldp_zonegen as zonegen;

pub mod cli;
mod experiment;
pub use experiment::{SimExperiment, SimRunResult};
