//! Zone data model and authoritative lookup for the LDplayer reproduction.
//!
//! Provides:
//!
//! * [`Zone`] — one zone's records with RFC 1034-style lookup semantics:
//!   exact matches, CNAME chains, wildcard synthesis, delegations with glue,
//!   NXDOMAIN/NODATA distinctions ([`LookupOutcome`]),
//! * [`master`] — zone master-file parsing and serialization (the zone
//!   constructor's output format, §2.3 of the paper),
//! * [`ZoneSet`] — a collection of zones with longest-suffix selection, the
//!   storage behind the meta-DNS-server,
//! * [`view`] — split-horizon views keyed by query source address, the
//!   mechanism that lets a single server instance emulate every level of the
//!   DNS hierarchy (§2.4),
//! * [`dnssec`] — synthetic zone signing with configurable ZSK sizes for the
//!   DNSSEC what-if experiments (§5.1).

#![deny(rust_2018_idioms, unsafe_op_in_unsafe_fn, unreachable_pub)]

pub mod dnssec;
pub mod lookup;
pub mod master;
pub mod view;
mod zone;
mod zoneset;

pub use lookup::{Glue, LookupOutcome, Pick, Referral, RrList, RrRef};
pub use view::{ViewSelector, ViewTable};
pub use zone::{RrSet, RrSets, Zone, ZoneError};
pub use zoneset::ZoneSet;
