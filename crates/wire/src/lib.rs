//! DNS wire protocol substrate for the LDplayer reproduction.
//!
//! This crate implements the parts of RFC 1035 (plus EDNS0 from RFC 6891 and
//! the DNSSEC record types from RFC 4034) that LDplayer needs to parse,
//! synthesize, mutate, and replay DNS traffic:
//!
//! * [`Name`] — domain names with case-insensitive label semantics,
//! * [`Record`] / [`RData`] — resource records for the common and DNSSEC types,
//! * [`Message`] — full DNS messages with header flags and EDNS0,
//! * a binary codec with DNS name compression ([`Message::to_bytes`] /
//!   [`Message::from_bytes`]),
//! * 2-byte length framing for DNS over TCP/TLS ([`framing`]).
//!
//! The codec is written against byte slices (no I/O) so the same code path is
//! used by the live tokio transports, the discrete-event simulator, and the
//! trace readers.

#![deny(rust_2018_idioms, unsafe_op_in_unsafe_fn, unreachable_pub)]

pub mod edns;
pub mod error;
pub mod framing;
pub mod message;
pub mod name;
pub mod query;
pub mod rdata;
pub mod record;
pub mod rr;
mod wirebuf;

pub use edns::{Edns, EdnsOption};
pub use error::WireError;
pub use message::{Header, Message, Opcode, Question, Rcode};
pub use name::{Name, NameBuf, NameRef};
pub use query::{EdnsView, QueryView, QuestionView};
pub use rdata::{RData, SoaData};
pub use record::{encode_rr, Record};
pub use rr::{RrClass, RrType};
pub use wirebuf::{WireReader, WireWriter};

/// The conventional maximum size of a DNS message carried over UDP without
/// EDNS0 (RFC 1035 §4.2.1).
pub const MAX_UDP_PAYLOAD: usize = 512;

/// The default EDNS0 advertised UDP payload size used by LDplayer replays.
pub const DEFAULT_EDNS_PAYLOAD: u16 = 4096;

/// Well-known DNS server port.
pub const DNS_PORT: u16 = 53;

/// Well-known DNS-over-TLS port (RFC 7858).
pub const DNS_TLS_PORT: u16 = 853;
