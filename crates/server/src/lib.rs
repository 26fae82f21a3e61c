//! DNS servers for the LDplayer reproduction.
//!
//! * [`auth`] — the authoritative answer engine: split-horizon zone
//!   selection (the meta-DNS-server of §2.4) plus response assembly with
//!   truncation handling,
//! * [`resource`] — the calibrated resource model translating protocol
//!   state (connections, handshakes, queries) into the memory/CPU numbers
//!   the §5.2 experiments report,
//! * [`cache`] — a TTL-respecting resolver cache with negative caching,
//! * [`pktcache`] — a dnsdist-style UDP packet cache keyed on the raw
//!   query wire, used by the live server's hot path,
//! * [`recursive`] — iterative resolution logic (root → TLD → SLD walks),
//! * [`sim`] — [`ldp_netsim`] node wrappers: a full authoritative server
//!   node (UDP/TCP/TLS) with resource sampling, and a recursive resolver
//!   node,
//! * [`live`] — an authoritative server on real sockets, served by plain
//!   threads with the batched socket calls of `ldp-io`, for the loopback
//!   replay-fidelity experiments (§4),
//! * [`chaos`] — seeded, deterministic fault injection (drop/duplicate/
//!   delay responses, refuse/reset TCP, dark windows) for chaos-testing
//!   the live replay path against this server.

#![deny(rust_2018_idioms, unsafe_op_in_unsafe_fn, unreachable_pub)]

pub mod auth;
pub mod cache;
pub mod chaos;
pub mod live;
pub mod pktcache;
pub mod recursive;
pub mod resource;
pub mod sim;

pub use auth::AuthEngine;
pub use chaos::{ChaosPolicy, ChaosStats, ResponseFate};
pub use resource::{ResourceModel, ResourceUsage};
