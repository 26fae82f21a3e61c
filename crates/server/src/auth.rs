//! The authoritative answer engine.
//!
//! One answering function, [`AuthEngine::answer_wire`]: query bytes in,
//! response bytes appended to a caller-owned buffer. It reads a borrowed
//! [`QueryView`] of the query, runs a borrowed zone lookup, and encodes
//! the referenced rrsets straight into the buffer — no `Message` and no
//! record copies in between, so a warmed-up buffer answers without
//! allocating. The live UDP and TCP loops and the simulated server call
//! it directly; [`AuthEngine::respond`] wraps it for callers holding a
//! [`Message`]. Zone selection is split-horizon by client address when a
//! [`ViewTable`] is supplied (the meta-DNS-server configuration of §2.4)
//! or a single shared [`ZoneSet`] otherwise (plain authoritative replay,
//! §4).

use std::net::IpAddr;
use std::sync::Arc;

use ldp_wire::{
    encode_rr, Edns, Header, Message, Opcode, QueryView, Rcode, RrClass, WireError, WireWriter,
};
use ldp_zone::{LookupOutcome, RrRef, ViewTable, ZoneSet};

/// How the engine finds zones for a client.
enum ZoneSource {
    Views(ViewTable),
    Shared(Arc<ZoneSet>),
}

/// The authoritative engine.
pub struct AuthEngine {
    source: ZoneSource,
    /// Maximum UDP response size when the query carries no EDNS.
    plain_udp_limit: usize,
}

/// Why [`AuthEngine::answer_wire`] produced no response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoAnswer {
    /// The query did not parse.
    Malformed(WireError),
    /// The response could not be encoded: over a stream it would exceed
    /// 65,535 bytes, or the zone data itself does not encode.
    Unencodable(WireError),
}

/// Record counts of the three record sections.
#[derive(Default)]
struct Counts {
    answer: usize,
    authority: usize,
    additional: usize,
}

impl AuthEngine {
    /// Meta-DNS-server mode: zones chosen by (post-proxy) client address.
    pub fn with_views(views: ViewTable) -> AuthEngine {
        AuthEngine {
            source: ZoneSource::Views(views),
            plain_udp_limit: ldp_wire::MAX_UDP_PAYLOAD,
        }
    }

    /// Single-view mode: all clients see the same zones.
    pub fn with_zones(zones: Arc<ZoneSet>) -> AuthEngine {
        AuthEngine {
            source: ZoneSource::Shared(zones),
            plain_udp_limit: ldp_wire::MAX_UDP_PAYLOAD,
        }
    }

    fn zones_for(&self, client: IpAddr) -> Option<&ZoneSet> {
        match &self.source {
            ZoneSource::Views(v) => v.select(client).map(|arc| arc.as_ref()),
            ZoneSource::Shared(z) => Some(z.as_ref()),
        }
    }

    /// Answers the query in `query`, appending the response to `out`.
    /// `over_stream` disables UDP truncation (TCP/TLS carry any size).
    ///
    /// The response mirrors the query's id, opcode, RD bit and question
    /// section (names lowercased, as every `Name` is), and carries an OPT
    /// record (4096-byte payload, the query's DO bit) when the query did.
    /// Over UDP, a response longer than the client's limit — its EDNS
    /// payload size, and never less than 512 — is cut back to the end of
    /// the question section and marked TC. On error `out` is left as it
    /// was and nothing should be sent.
    pub fn answer_wire(
        &self,
        client: IpAddr,
        query: &[u8],
        over_stream: bool,
        out: &mut Vec<u8>,
    ) -> Result<(), NoAnswer> {
        let view = QueryView::parse(query).map_err(NoAnswer::Malformed)?;
        let start = out.len();
        let mut w = WireWriter::append_to(std::mem::take(out));
        let written = self.write_response(client, &view, over_stream, &mut w);
        *out = w.into_bytes();
        if written.is_err() {
            out.truncate(start);
        }
        written.map_err(NoAnswer::Unencodable)
    }

    /// [`AuthEngine::answer_wire`] over a stream, with the response
    /// behind its 2-byte length prefix (RFC 1035 §4.2.2).
    pub fn answer_framed(
        &self,
        client: IpAddr,
        query: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), NoAnswer> {
        let at = out.len();
        out.extend_from_slice(&[0, 0]);
        if let Err(e) = self.answer_wire(client, query, true, out) {
            out.truncate(at);
            return Err(e);
        }
        // `answer_wire` never produces more than 65,535 bytes.
        let len = u16::try_from(out.len() - at - 2).unwrap_or(u16::MAX);
        out[at..at + 2].copy_from_slice(&len.to_be_bytes());
        Ok(())
    }

    fn write_response(
        &self,
        client: IpAddr,
        view: &QueryView<'_>,
        over_stream: bool,
        w: &mut WireWriter,
    ) -> Result<(), WireError> {
        let mut header = Header {
            id: view.header().id,
            response: true,
            opcode: view.header().opcode,
            recursion_desired: view.header().recursion_desired,
            ..Header::default()
        };
        w.put_u16(header.id);
        w.put_u16(0); // flags, patched below
        w.put_u16(view.question_count());
        w.put_u16(0); // ANCOUNT, NSCOUNT, ARCOUNT: patched below
        w.put_u16(0);
        w.put_u16(0);
        for q in view.questions() {
            w.put_name_ref(q.qname.as_name_ref())?;
            w.put_u16(q.qtype.code());
            w.put_u16(q.qclass.code());
        }
        let questions_end = w.len();

        // Only answers that reached a zone set are size-checked; the
        // header-only refusals (NOTIMP, FORMERR, no view) never carry
        // records to drop.
        let mut sized = false;
        let counts = match (view.question(), self.zones_for(client)) {
            _ if header.opcode != Opcode::Query => Err(Rcode::NotImp),
            (None, _) => Err(Rcode::FormErr),
            (Some(_), None) => Err(Rcode::Refused),
            (Some(q), Some(zones)) => {
                sized = true;
                zones
                    .lookup(q.qname.as_name_ref(), q.qtype, view.dnssec_ok())
                    .map(|(_zone, outcome)| write_outcome(w, &outcome, &mut header))
                    .ok_or(Rcode::Refused)
            }
        };
        let counts = counts.unwrap_or_else(|rcode| {
            header.rcode = rcode;
            Ok(Counts::default())
        });
        let edns = view.edns().map(|e| Edns {
            udp_payload_size: ldp_wire::DEFAULT_EDNS_PAYLOAD,
            dnssec_ok: e.dnssec_ok,
            ..Edns::default()
        });
        let limit = view
            .edns()
            .map(|e| usize::from(e.udp_payload_size))
            .unwrap_or(self.plain_udp_limit)
            .max(self.plain_udp_limit);
        // Over UDP, record sections that overflow the client's limit, or
        // that could not be encoded, are dropped with TC set (RFC 2181 §9).
        let truncate = !over_stream && sized;
        let counts = match counts {
            Ok(counts) => {
                if let Some(e) = &edns {
                    e.encode(w)?;
                }
                let too_long = w.len() > usize::from(u16::MAX);
                if too_long && !truncate {
                    return Err(WireError::MessageTooLong(w.len()));
                }
                let overflows = too_long || (truncate && w.len() > limit);
                (!overflows).then_some(counts)
            }
            Err(e) if !truncate => return Err(e),
            Err(_) => None,
        };
        let counts = match counts {
            Some(counts) => counts,
            None => {
                w.truncate(questions_end);
                header.truncated = true;
                if let Some(e) = &edns {
                    e.encode(w)?;
                }
                Counts::default()
            }
        };
        w.patch_u16(2, header.flags_word());
        let additional = counts.additional + usize::from(edns.is_some());
        for (at, count) in [(6, counts.answer), (8, counts.authority), (10, additional)] {
            w.patch_u16(
                at,
                u16::try_from(count).map_err(|_| WireError::MessageTooLong(count))?,
            );
        }
        Ok(())
    }

    /// Produces the response for a query as a [`Message`]: the query is
    /// encoded, answered by [`AuthEngine::answer_wire`], and the response
    /// decoded. For callers that hold `Message`s (tests, the recursive
    /// resolver, zone construction); servers call `answer_wire`.
    ///
    /// A query that cannot be encoded, or whose answer cannot be, gets an
    /// empty SERVFAIL response.
    pub fn respond(&self, client: IpAddr, query: &Message, over_stream: bool) -> Message {
        let mut out = Vec::new();
        let answered = query.to_bytes().ok().and_then(|wire| {
            self.answer_wire(client, &wire, over_stream, &mut out)
                .ok()?;
            Message::from_bytes(&out).ok()
        });
        answered.unwrap_or_else(|| {
            let mut resp = Message::response_for(query);
            resp.header.rcode = Rcode::ServFail;
            resp
        })
    }

    /// Serves the canonical emulation scenario: is this engine configured
    /// with split-horizon views?
    pub fn is_split_horizon(&self) -> bool {
        matches!(self.source, ZoneSource::Views(_))
    }
}

/// Writes the record sections of a lookup outcome and sets the AA bit and
/// rcode it calls for.
fn write_outcome(
    w: &mut WireWriter,
    outcome: &LookupOutcome<'_>,
    header: &mut Header,
) -> Result<Counts, WireError> {
    let mut counts = Counts::default();
    match outcome {
        LookupOutcome::Answer {
            records,
            authority,
            additional,
        } => {
            header.authoritative = true;
            counts.answer = write_rrs(w, records.iter())?;
            counts.authority = write_rrs(w, authority.iter())?;
            counts.additional = write_rrs(w, additional.iter())?;
        }
        LookupOutcome::Delegation(referral) => {
            // Referrals are not authoritative answers: AA clear, NS of
            // the child zone (and its DS) in authority, glue additional.
            counts.authority = write_rrs(
                w,
                referral.ns_records.iter().chain(referral.ds_records.iter()),
            )?;
            counts.additional = write_rrs(w, referral.glue.iter())?;
        }
        LookupOutcome::NoData { soa, denial } => {
            header.authoritative = true;
            counts.authority = write_rrs(w, soa.iter().copied().chain(denial.iter()))?;
        }
        LookupOutcome::NxDomain { soa, denial } => {
            header.authoritative = true;
            header.rcode = Rcode::NxDomain;
            counts.authority = write_rrs(w, soa.iter().copied().chain(denial.iter()))?;
        }
        LookupOutcome::OutOfZone => header.rcode = Rcode::Refused,
    }
    Ok(counts)
}

/// Encodes every record the references stand for; returns how many.
fn write_rrs<'a>(
    w: &mut WireWriter,
    rrs: impl Iterator<Item = RrRef<'a>>,
) -> Result<usize, WireError> {
    let mut n = 0;
    for rr in rrs {
        for rdata in rr.rdatas() {
            encode_rr(w, rr.owner, rr.rtype, RrClass::In, rr.set.ttl, rdata)?;
            n += 1;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_wire::{Edns, Name, RData, Record, RrType};
    use ldp_zone::Zone;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn hierarchy_views() -> ViewTable {
        let mut root = Zone::with_fake_soa(Name::root());
        root.add(Record::new(
            n("com"),
            172800,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        root.add(Record::new(
            n("a.gtld-servers.net"),
            172800,
            RData::A("192.5.6.30".parse().unwrap()),
        ))
        .unwrap();

        let mut com = Zone::with_fake_soa(n("com"));
        com.add(Record::new(
            n("example.com"),
            172800,
            RData::Ns(n("ns1.example.com")),
        ))
        .unwrap();
        com.add(Record::new(
            n("ns1.example.com"),
            172800,
            RData::A("192.0.2.53".parse().unwrap()),
        ))
        .unwrap();

        let mut sld = Zone::with_fake_soa(n("example.com"));
        sld.add(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ))
        .unwrap();

        ViewTable::from_nameserver_map(vec![
            (ip("198.41.0.4"), root),
            (ip("192.5.6.30"), com),
            (ip("192.0.2.53"), sld),
        ])
    }

    #[test]
    fn split_horizon_referral_chain() {
        let engine = AuthEngine::with_views(hierarchy_views());
        assert!(engine.is_split_horizon());
        let q = Message::query(1, n("www.example.com"), RrType::A);

        // Asked "as the root" (client addr = root NS addr): com referral.
        let r = engine.respond(ip("198.41.0.4"), &q, false);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert!(!r.header.authoritative);
        assert!(r.answers.is_empty());
        assert_eq!(r.authorities[0].name, n("com"));
        assert!(!r.additionals.is_empty(), "glue expected");

        // Asked "as com": example.com referral.
        let r = engine.respond(ip("192.5.6.30"), &q, false);
        assert_eq!(r.authorities[0].name, n("example.com"));

        // Asked "as the SLD": the answer.
        let r = engine.respond(ip("192.0.2.53"), &q, false);
        assert!(r.header.authoritative);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn unknown_view_refused() {
        let engine = AuthEngine::with_views(hierarchy_views());
        let q = Message::query(1, n("www.example.com"), RrType::A);
        let r = engine.respond(ip("10.1.1.1"), &q, false);
        assert_eq!(r.header.rcode, Rcode::Refused);
    }

    #[test]
    fn shared_zones_mode() {
        let mut set = ZoneSet::new();
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ))
        .unwrap();
        set.insert(z);
        let engine = AuthEngine::with_zones(Arc::new(set));
        let q = Message::query(9, n("www.example.com"), RrType::A);
        let r = engine.respond(ip("10.0.0.1"), &q, false);
        assert_eq!(r.header.id, 9);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn nxdomain_and_nodata() {
        let mut set = ZoneSet::new();
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ))
        .unwrap();
        set.insert(z);
        let engine = AuthEngine::with_zones(Arc::new(set));

        let r = engine.respond(
            ip("10.0.0.1"),
            &Message::query(1, n("nope.example.com"), RrType::A),
            false,
        );
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert_eq!(r.authorities.len(), 1, "SOA in authority");

        let r = engine.respond(
            ip("10.0.0.1"),
            &Message::query(1, n("www.example.com"), RrType::Mx),
            false,
        );
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
        assert_eq!(r.authorities.len(), 1);
    }

    #[test]
    fn out_of_zone_refused() {
        let mut set = ZoneSet::new();
        set.insert(Zone::with_fake_soa(n("example.com")));
        let engine = AuthEngine::with_zones(Arc::new(set));
        let r = engine.respond(
            ip("10.0.0.1"),
            &Message::query(1, n("example.net"), RrType::A),
            false,
        );
        assert_eq!(r.header.rcode, Rcode::Refused);
    }

    #[test]
    fn truncation_over_udp_but_not_tcp() {
        // Build a response far over 512 bytes: many TXT records.
        let mut set = ZoneSet::new();
        let mut z = Zone::with_fake_soa(n("big.test"));
        for i in 0..20 {
            z.add(Record::new(
                n("fat.big.test"),
                60,
                RData::Txt(vec![vec![b'a' + (i % 26) as u8; 200], vec![i as u8; 50]]),
            ))
            .unwrap();
        }
        set.insert(z);
        let engine = AuthEngine::with_zones(Arc::new(set));
        let q = Message::query(1, n("fat.big.test"), RrType::Txt);

        let udp = engine.respond(ip("10.0.0.1"), &q, false);
        assert!(udp.header.truncated);
        assert!(udp.answers.is_empty());

        let tcp = engine.respond(ip("10.0.0.1"), &q, true);
        assert!(!tcp.header.truncated);
        assert_eq!(tcp.answers.len(), 20);

        // EDNS with a big payload also avoids truncation.
        let mut q_edns = q.clone();
        q_edns.edns = Some(Edns {
            udp_payload_size: 65000,
            ..Edns::default()
        });
        let udp_edns = engine.respond(ip("10.0.0.1"), &q_edns, false);
        assert!(!udp_edns.header.truncated);
    }

    #[test]
    fn non_query_opcode_notimp() {
        let mut set = ZoneSet::new();
        set.insert(Zone::with_fake_soa(n("example.com")));
        let engine = AuthEngine::with_zones(Arc::new(set));
        let mut q = Message::query(1, n("example.com"), RrType::A);
        q.header.opcode = Opcode::Update;
        let r = engine.respond(ip("10.0.0.1"), &q, false);
        assert_eq!(r.header.rcode, Rcode::NotImp);
    }

    #[test]
    fn empty_question_formerr() {
        let mut set = ZoneSet::new();
        set.insert(Zone::with_fake_soa(n("example.com")));
        let engine = AuthEngine::with_zones(Arc::new(set));
        let q = Message::default();
        let r = engine.respond(ip("10.0.0.1"), &q, false);
        assert_eq!(r.header.rcode, Rcode::FormErr);
    }

    #[test]
    fn do_bit_grows_signed_response() {
        use ldp_zone::dnssec::{sign_zone, SigningConfig};
        let mut root = Zone::with_fake_soa(Name::root());
        root.add(Record::new(
            n("com"),
            172800,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        root.add(Record::new(
            n("com"),
            86400,
            RData::Ds {
                key_tag: 1,
                algorithm: 8,
                digest_type: 2,
                digest: vec![7; 32],
            },
        ))
        .unwrap();
        sign_zone(&mut root, SigningConfig::zsk2048());
        let mut set = ZoneSet::new();
        set.insert(root);
        let engine = AuthEngine::with_zones(Arc::new(set));

        let plain_q = Message::query(1, n("www.example.com"), RrType::A);
        let mut do_q = plain_q.clone();
        do_q.edns = Some(Edns::with_do());

        let plain = engine.respond(ip("10.0.0.1"), &plain_q, true);
        let signed = engine.respond(ip("10.0.0.1"), &do_q, true);
        let plain_len = plain.to_bytes().unwrap().len();
        let signed_len = signed.to_bytes().unwrap().len();
        assert!(
            signed_len > plain_len + 256,
            "DO response {signed_len} must exceed plain {plain_len} by a signature"
        );
    }
}
