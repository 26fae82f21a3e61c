//! Full DNS messages: header, question, answer/authority/additional
//! sections, and lifted EDNS0 state.

use std::fmt;

use crate::edns::Edns;
use crate::error::WireError;
use crate::name::Name;
use crate::record::Record;
use crate::rr::{RrClass, RrType};
use crate::wirebuf::{WireReader, WireWriter};

/// DNS opcodes (RFC 1035 §4.1.1, RFC 2136).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    Query,
    IQuery,
    Status,
    Notify,
    Update,
    Unknown(u8),
}

impl Opcode {
    pub fn code(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Unknown(c) => c,
        }
    }

    pub fn from_code(code: u8) -> Self {
        match code {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            c => Opcode::Unknown(c),
        }
    }
}

/// DNS response codes (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    NoError,
    FormErr,
    ServFail,
    NxDomain,
    NotImp,
    Refused,
    Unknown(u8),
}

impl Rcode {
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Unknown(c) => c,
        }
    }

    pub fn from_code(code: u8) -> Self {
        match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            c => Rcode::Unknown(c),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => f.write_str("NOERROR"),
            Rcode::FormErr => f.write_str("FORMERR"),
            Rcode::ServFail => f.write_str("SERVFAIL"),
            Rcode::NxDomain => f.write_str("NXDOMAIN"),
            Rcode::NotImp => f.write_str("NOTIMP"),
            Rcode::Refused => f.write_str("REFUSED"),
            Rcode::Unknown(c) => write!(f, "RCODE{c}"),
        }
    }
}

/// Parsed DNS header flags and ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Header {
    pub id: u16,
    /// Response flag (QR).
    pub response: bool,
    pub opcode: Opcode,
    /// Authoritative answer (AA).
    pub authoritative: bool,
    /// Truncation (TC).
    pub truncated: bool,
    /// Recursion desired (RD).
    pub recursion_desired: bool,
    /// Recursion available (RA).
    pub recursion_available: bool,
    /// Reserved Z bit (bit 6). Must be zero per RFC 1035 §4.1.1 but is seen
    /// set in real traces; preserved verbatim so replayed queries stay
    /// byte-identical to the capture.
    pub reserved_z: bool,
    /// Authentic data (AD, RFC 4035).
    pub authentic_data: bool,
    /// Checking disabled (CD, RFC 4035).
    pub checking_disabled: bool,
    pub rcode: Rcode,
}

impl Default for Header {
    fn default() -> Self {
        Header {
            id: 0,
            response: false,
            opcode: Opcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: false,
            recursion_available: false,
            reserved_z: false,
            authentic_data: false,
            checking_disabled: false,
            rcode: Rcode::NoError,
        }
    }
}

impl Header {
    /// The 16-bit flags word (QR, opcode, AA, TC, RD, RA, Z, AD, CD,
    /// rcode) as it goes on the wire.
    pub fn flags_word(&self) -> u16 {
        u16::from(self.response) << 15
            | (u16::from(self.opcode.code()) & 0xF) << 11
            | u16::from(self.authoritative) << 10
            | u16::from(self.truncated) << 9
            | u16::from(self.recursion_desired) << 8
            | u16::from(self.recursion_available) << 7
            | u16::from(self.reserved_z) << 6
            | u16::from(self.authentic_data) << 5
            | u16::from(self.checking_disabled) << 4
            | u16::from(self.rcode.code()) & 0xF
    }

    /// The header with id `id` and wire flags word `w`.
    pub fn from_flags_word(id: u16, w: u16) -> Header {
        Header {
            id,
            response: w >> 15 & 1 == 1,
            opcode: Opcode::from_code((w >> 11 & 0xF) as u8), // ldp-lint: allow(r2) -- masked to 4 bits
            authoritative: w >> 10 & 1 == 1,
            truncated: w >> 9 & 1 == 1,
            recursion_desired: w >> 8 & 1 == 1,
            recursion_available: w >> 7 & 1 == 1,
            reserved_z: w >> 6 & 1 == 1,
            authentic_data: w >> 5 & 1 == 1,
            checking_disabled: w >> 4 & 1 == 1,
            rcode: Rcode::from_code((w & 0xF) as u8), // ldp-lint: allow(r2) -- masked to 4 bits
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    pub qname: Name,
    pub qtype: RrType,
    pub qclass: RrClass,
}

impl Question {
    /// `IN`-class question.
    pub fn new(qname: Name, qtype: RrType) -> Question {
        Question {
            qname,
            qtype,
            qclass: RrClass::In,
        }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.qname, self.qclass, self.qtype)
    }
}

/// A complete DNS message.
///
/// The OPT pseudo-record is lifted out of the additional section into
/// [`Message::edns`]; encoding appends it back. This keeps section contents
/// semantic (real records only) for zone construction and mutation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    pub header: Header,
    pub questions: Vec<Question>,
    pub answers: Vec<Record>,
    pub authorities: Vec<Record>,
    pub additionals: Vec<Record>,
    pub edns: Option<Edns>,
}

impl Message {
    /// Builds a recursive query for `qname`/`qtype` with the given ID.
    pub fn query(id: u16, qname: Name, qtype: RrType) -> Message {
        Message {
            header: Header {
                id,
                recursion_desired: true,
                ..Header::default()
            },
            questions: vec![Question::new(qname, qtype)],
            ..Message::default()
        }
    }

    /// Builds an empty response skeleton mirroring a query's ID, question,
    /// RD flag, and (per convention) EDNS presence.
    pub fn response_for(query: &Message) -> Message {
        Message {
            header: Header {
                id: query.header.id,
                response: true,
                opcode: query.header.opcode,
                recursion_desired: query.header.recursion_desired,
                ..Header::default()
            },
            questions: query.questions.clone(),
            edns: query.edns.as_ref().map(|e| Edns {
                udp_payload_size: crate::DEFAULT_EDNS_PAYLOAD,
                dnssec_ok: e.dnssec_ok,
                ..Edns::default()
            }),
            ..Message::default()
        }
    }

    /// First question, if any (the overwhelmingly common case is exactly
    /// one).
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// True when the requester set the EDNS DO bit.
    pub fn dnssec_ok(&self) -> bool {
        self.edns.as_ref().map(|e| e.dnssec_ok).unwrap_or(false)
    }

    /// Encodes to wire format with name compression. The output buffer is
    /// sized up front from the uncompressed size, so encoding allocates it
    /// once and never grows it.
    pub fn to_bytes(&self) -> Result<Vec<u8>, WireError> {
        self.encode_with(WireWriter::with_capacity(self.wire_size_estimate()))
    }

    /// Encodes without name compression (ablation path).
    pub fn to_bytes_uncompressed(&self) -> Result<Vec<u8>, WireError> {
        self.encode_with(WireWriter::uncompressed())
    }

    fn encode_with(&self, mut w: WireWriter) -> Result<Vec<u8>, WireError> {
        w.put_u16(self.header.id);
        w.put_u16(self.header.flags_word());
        let counts = [
            self.questions.len(),
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len() + self.edns.is_some() as usize,
        ];
        for c in counts {
            w.put_u16(u16::try_from(c).map_err(|_| WireError::MessageTooLong(c))?);
        }
        for q in &self.questions {
            w.put_name(&q.qname)?;
            w.put_u16(q.qtype.code());
            w.put_u16(q.qclass.code());
        }
        for rec in self
            .answers
            .iter()
            .chain(self.authorities.iter())
            .chain(self.additionals.iter())
        {
            rec.encode(&mut w)?;
        }
        if let Some(edns) = &self.edns {
            edns.encode(&mut w)?;
        }
        let bytes = w.into_bytes();
        if bytes.len() > u16::MAX as usize {
            return Err(WireError::MessageTooLong(bytes.len()));
        }
        // Debug-build invariant: encoding is lossless — decoding the bytes
        // we just produced yields this message back. Assumes canonical
        // headers (opcode/rcode values fit their 4-bit wire fields), which
        // every constructor in this crate maintains.
        debug_assert_eq!(
            Message::from_bytes(&bytes).as_ref(),
            Ok(self),
            "encode→decode round-trip must be lossless"
        );
        Ok(bytes)
    }

    /// Decodes a message from wire format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Message, WireError> {
        let mut r = WireReader::new(bytes);
        let id = r.read_u16("header id")?;
        let flags = r.read_u16("header flags")?;
        let header = Header::from_flags_word(id, flags);
        let qdcount = r.read_u16("qdcount")?;
        let ancount = r.read_u16("ancount")?;
        let nscount = r.read_u16("nscount")?;
        let arcount = r.read_u16("arcount")?;

        let mut questions = Vec::with_capacity(qdcount as usize);
        for _ in 0..qdcount {
            let qname = r.read_name()?;
            let qtype = RrType::from_code(r.read_u16("qtype")?);
            let qclass = RrClass::from_code(r.read_u16("qclass")?);
            questions.push(Question {
                qname,
                qtype,
                qclass,
            });
        }

        let mut answers = Vec::with_capacity(ancount as usize);
        for _ in 0..ancount {
            answers.push(Record::decode(&mut r)?);
        }
        let mut authorities = Vec::with_capacity(nscount as usize);
        for _ in 0..nscount {
            authorities.push(Record::decode(&mut r)?);
        }

        let mut additionals = Vec::new();
        let mut edns = None;
        for _ in 0..arcount {
            // OPT needs custom field interpretation, so peek at the type.
            let mark = r.position();
            let name = r.read_name()?;
            let rtype = RrType::from_code(r.read_u16("ar type")?);
            if rtype == RrType::Opt {
                if !name.is_root() {
                    return Err(WireError::BadText("OPT owner must be root".into()));
                }
                let class = r.read_u16("opt class")?;
                let ttl = r.read_u32("opt ttl")?;
                edns = Some(Edns::decode_body(&mut r, class, ttl)?);
            } else {
                r.seek(mark)?;
                additionals.push(Record::decode(&mut r)?);
            }
        }

        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
            edns,
        })
    }

    /// Total record count across answer/authority/additional sections
    /// (excluding OPT).
    pub fn record_count(&self) -> usize {
        self.answers.len() + self.authorities.len() + self.additionals.len()
    }

    /// Approximate uncompressed wire size, used by bandwidth models before
    /// paying for a real encode.
    pub fn wire_size_estimate(&self) -> usize {
        12 + self
            .questions
            .iter()
            .map(|q| q.qname.wire_len() + 4)
            .sum::<usize>()
            + self
                .answers
                .iter()
                .chain(self.authorities.iter())
                .chain(self.additionals.iter())
                .map(Record::wire_size_estimate)
                .sum::<usize>()
            + self.edns.as_ref().map(Edns::wire_size).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::RData;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_response() -> Message {
        let mut m = Message::query(0x1234, n("www.example.com"), RrType::A);
        m.edns = Some(Edns::with_do());
        let mut resp = Message::response_for(&m);
        resp.header.authoritative = true;
        resp.answers.push(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ));
        resp.authorities.push(Record::new(
            n("example.com"),
            3600,
            RData::Ns(n("ns1.example.com")),
        ));
        resp.additionals.push(Record::new(
            n("ns1.example.com"),
            3600,
            RData::A("192.0.2.53".parse().unwrap()),
        ));
        resp
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(7, n("example.com"), RrType::Ns);
        let bytes = q.to_bytes().unwrap();
        let dec = Message::from_bytes(&bytes).unwrap();
        assert_eq!(dec, q);
        assert!(dec.header.recursion_desired);
        assert!(!dec.header.response);
    }

    #[test]
    fn response_roundtrip_with_edns() {
        let resp = sample_response();
        let bytes = resp.to_bytes().unwrap();
        let dec = Message::from_bytes(&bytes).unwrap();
        assert_eq!(dec, resp);
        assert!(dec.dnssec_ok());
        assert!(dec.header.authoritative);
        assert_eq!(dec.record_count(), 3);
    }

    #[test]
    fn compressed_smaller_than_uncompressed() {
        let resp = sample_response();
        let compressed = resp.to_bytes().unwrap();
        let plain = resp.to_bytes_uncompressed().unwrap();
        assert!(compressed.len() < plain.len());
        // Both decode identically.
        assert_eq!(
            Message::from_bytes(&compressed).unwrap(),
            Message::from_bytes(&plain).unwrap()
        );
    }

    #[test]
    fn response_for_mirrors_query() {
        let mut q = Message::query(42, n("x.test"), RrType::Aaaa);
        q.edns = Some(Edns::with_do());
        let r = Message::response_for(&q);
        assert_eq!(r.header.id, 42);
        assert!(r.header.response);
        assert!(r.header.recursion_desired);
        assert_eq!(r.questions, q.questions);
        assert!(r.dnssec_ok());
    }

    #[test]
    fn header_flag_bits() {
        let h = Header {
            id: 1,
            response: true,
            opcode: Opcode::Query,
            authoritative: true,
            truncated: true,
            recursion_desired: true,
            recursion_available: true,
            reserved_z: true,
            authentic_data: true,
            checking_disabled: true,
            rcode: Rcode::NxDomain,
        };
        let w = h.flags_word();
        let h2 = Header::from_flags_word(1, w);
        assert_eq!(h, h2);
    }

    #[test]
    fn reserved_z_bit_survives_decode_and_reencode() {
        // Regression: the Z bit (flags bit 6) used to be dropped on decode,
        // so replaying a captured query with Z=1 silently emitted Z=0 and
        // the replayed stream no longer matched the trace.
        let mut q = Message::query(7, n("z.test"), RrType::A);
        let mut bytes = q.to_bytes().unwrap();
        bytes[3] |= 0x40; // Z is bit 6 of the flags word (low byte 3)
        let decoded = Message::from_bytes(&bytes).unwrap();
        assert!(decoded.header.reserved_z, "Z bit lost on decode");
        let reencoded = decoded.to_bytes().unwrap();
        assert_eq!(reencoded, bytes, "replayed bytes differ from capture");
        // And the structured form roundtrips too.
        q.header.reserved_z = true;
        assert_eq!(decoded, q);
    }

    #[test]
    fn truncated_message_fails_cleanly() {
        let bytes = sample_response().to_bytes().unwrap();
        for cut in 0..bytes.len() {
            // Must error or produce a message, never panic.
            let _ = Message::from_bytes(&bytes[..cut]);
        }
        assert!(Message::from_bytes(&bytes[..4]).is_err());
    }

    #[test]
    fn opt_with_nonroot_owner_rejected() {
        // Hand-craft: header with arcount=1, then a record that claims OPT
        // but with owner "x.".
        let mut w = WireWriter::new();
        w.put_u16(1); // id
        w.put_u16(0);
        w.put_u16(0);
        w.put_u16(0);
        w.put_u16(0);
        w.put_u16(1); // arcount
        w.put_name(&n("x")).unwrap();
        w.put_u16(RrType::Opt.code());
        w.put_u16(4096);
        w.put_u32(0);
        w.put_u16(0);
        assert!(Message::from_bytes(&w.into_bytes()).is_err());
    }

    #[test]
    fn wire_size_estimate_close_to_uncompressed() {
        let resp = sample_response();
        let est = resp.wire_size_estimate();
        let actual = resp.to_bytes_uncompressed().unwrap().len();
        assert_eq!(est, actual);
    }

    #[test]
    fn rcode_display() {
        assert_eq!(Rcode::NxDomain.to_string(), "NXDOMAIN");
        assert_eq!(Rcode::Unknown(11).to_string(), "RCODE11");
    }

    #[test]
    fn opcode_codes_roundtrip() {
        for c in 0..16u8 {
            assert_eq!(Opcode::from_code(c).code(), c);
        }
        for c in 0..16u8 {
            assert_eq!(Rcode::from_code(c).code(), c);
        }
    }
}
