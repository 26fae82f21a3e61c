//! Answer check: before anything is timed, a seeded sample of the
//! workload's own queries goes to the benchmark's server over plain UDP
//! and TCP sockets, and every answer must be exactly what the zones
//! dictate. One mismatch fails the run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::Duration;

use ldp_trace::TraceRecord;
use ldp_wire::{Message, Name, RData, Rcode, RrType};
use ldp_workload::names::COMMON_TLDS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};

const TIMEOUT: Duration = Duration::from_secs(2);

/// Checks `sample` seeded picks from `records` over each transport.
/// Returns the check's record, or the first mismatch.
pub fn answer_check(
    records: &[TraceRecord],
    seed: u64,
    sample: usize,
    server: SocketAddr,
) -> Result<Value, String> {
    if records.is_empty() {
        return Err("answer check: no records".into());
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa115_c4ec);
    let picks: Vec<Message> = (0..sample)
        .map(|k| {
            let mut q = records[rng.gen_range(0..records.len())].message.clone();
            q.header.id = 0x4000 + k as u16;
            q
        })
        .collect();
    let io = |e: std::io::Error| format!("answer check: {e}");

    let udp = UdpSocket::bind(("127.0.0.1", 0)).map_err(io)?;
    udp.set_read_timeout(Some(TIMEOUT)).map_err(io)?;
    let mut buf = vec![0u8; 65_535];
    for q in &picks {
        udp.send_to(&encode(q)?, server).map_err(io)?;
        let n = udp.recv(&mut buf).map_err(io)?;
        verify(q, &buf[..n]).map_err(|e| format!("answer check (udp): {e}"))?;
    }

    let mut tcp = TcpStream::connect(server).map_err(io)?;
    tcp.set_read_timeout(Some(TIMEOUT)).map_err(io)?;
    for q in &picks {
        let framed = ldp_wire::framing::frame_message(&encode(q)?).map_err(|e| e.to_string())?;
        tcp.write_all(&framed).map_err(io)?;
        let mut len = [0u8; 2];
        tcp.read_exact(&mut len).map_err(io)?;
        let mut msg = vec![0u8; u16::from_be_bytes(len) as usize];
        tcp.read_exact(&mut msg).map_err(io)?;
        verify(q, &msg).map_err(|e| format!("answer check (tcp): {e}"))?;
    }
    Ok(json!({"udp": picks.len(), "tcp": picks.len(), "mismatches": 0}))
}

fn encode(q: &Message) -> Result<Vec<u8>, String> {
    q.to_bytes()
        .map_err(|e| format!("answer check: encode: {e}"))
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Checks one answer against what the benchmark's zones dictate:
/// `*.example.com` → A 192.0.2.80 with the zone's NS and its glue;
/// `*.invalidN` → NXDOMAIN with the root SOA; a name under a common TLD →
/// a referral with 2 NS and 2 glue records, plus the TLD's DS when the
/// query set DO.
fn verify(query: &Message, wire: &[u8]) -> Result<(), String> {
    let resp = Message::from_bytes(wire).map_err(|e| format!("undecodable answer: {e}"))?;
    let question = query.question().ok_or("query without a question")?;
    let name = &question.qname;
    let h = &resp.header;
    ensure(h.id == query.header.id && h.response, || {
        format!(
            "{name}: id {} / QR {} for query id {}",
            h.id, h.response, query.header.id
        )
    })?;
    ensure(resp.questions == query.questions, || {
        format!("{name}: question not echoed")
    })?;
    ensure(!h.truncated, || format!("{name}: truncated"))?;
    let counts = (
        resp.answers.len(),
        resp.authorities.len(),
        resp.additionals.len(),
    );
    let tld = name
        .labels()
        .last()
        .map(|l| String::from_utf8_lossy(l).into_owned());
    let tld = tld.unwrap_or_default();

    if name.is_subdomain_of(&Name::parse("example.com").expect("valid name")) {
        ensure(question.qtype == RrType::A, || {
            format!("{name}: unexpected qtype")
        })?;
        ensure(h.rcode == Rcode::NoError && h.authoritative, || {
            format!("{name}: rcode {:?} aa {}", h.rcode, h.authoritative)
        })?;
        // The answer, the zone's NS in authority and its address as glue.
        ensure(counts == (1, 1, 1), || {
            format!("{name}: section counts {counts:?}")
        })?;
        let a = &resp.answers[0];
        ensure(
            a.name == *name && a.rdata == RData::A([192, 0, 2, 80].into()),
            || format!("{name}: answer {a:?}"),
        )?;
        let ns_name = Name::parse("ns1.example.com").expect("valid name");
        ensure(
            resp.authorities[0].rdata == RData::Ns(ns_name.clone()),
            || format!("{name}: authority {:?}", resp.authorities[0]),
        )?;
        let glue = &resp.additionals[0];
        ensure(
            glue.name == ns_name && glue.rdata == RData::A([192, 0, 2, 53].into()),
            || format!("{name}: additional {glue:?}"),
        )
    } else if tld.starts_with("invalid") {
        ensure(h.rcode == Rcode::NxDomain && h.authoritative, || {
            format!("{name}: rcode {:?} aa {}", h.rcode, h.authoritative)
        })?;
        ensure(counts == (0, 1, 0), || {
            format!("{name}: section counts {counts:?}")
        })?;
        ensure(matches!(resp.authorities[0].rdata, RData::Soa(_)), || {
            format!("{name}: authority {:?}", resp.authorities[0])
        })
    } else if COMMON_TLDS.contains(&tld.as_str()) {
        let ds = usize::from(query.dnssec_ok());
        ensure(h.rcode == Rcode::NoError && !h.authoritative, || {
            format!("{name}: rcode {:?} aa {}", h.rcode, h.authoritative)
        })?;
        ensure(counts == (0, 2 + ds, 2), || {
            format!("{name}: section counts {counts:?}")
        })?;
        let zone_cut = Name::parse(&tld).map_err(|e| e.to_string())?;
        let ns = resp
            .authorities
            .iter()
            .filter(|r| matches!(r.rdata, RData::Ns(_)));
        ensure(
            ns.clone().count() == 2 && ns.into_iter().all(|r| r.name == zone_cut),
            || format!("{name}: NS set {:?}", resp.authorities),
        )?;
        ensure(
            resp.authorities
                .iter()
                .filter(|r| r.rtype == RrType::Ds)
                .count()
                == ds,
            || format!("{name}: DS under DO={}", query.dnssec_ok()),
        )?;
        ensure(
            resp.additionals
                .iter()
                .all(|r| matches!(r.rdata, RData::A(_))),
            || format!("{name}: glue {:?}", resp.additionals),
        )
    } else {
        Err(format!("{name}: no expectation for this name"))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ldp_server::auth::AuthEngine;
    use ldp_wire::Edns;

    use super::*;
    use crate::workload::Workload;

    fn answer(q: &Message) -> Message {
        let engine = AuthEngine::with_zones(Arc::new(Workload::BrootTimed.zones()));
        engine.respond([127, 0, 0, 1].into(), q, false)
    }

    fn query(name: &str, dnssec_ok: bool) -> Message {
        let mut q = Message::query(7, Name::parse(name).expect("valid name"), RrType::A);
        q.edns = dnssec_ok.then(Edns::with_do);
        q
    }

    #[test]
    fn the_server_engine_passes() {
        for (name, dnssec_ok) in [
            ("www.example.com", false),
            ("abcdefgh.invalid42", true),
            ("www.abcdefghij.com", false),
            ("abcdefghij.org", true),
        ] {
            let q = query(name, dnssec_ok);
            let wire = answer(&q).to_bytes().expect("encodes");
            assert_eq!(verify(&q, &wire), Ok(()), "{name}");
        }
    }

    #[test]
    fn a_wrong_answer_fails() {
        let q = query("abcdefghij.org", true);
        let mut wrong_rcode = answer(&q);
        wrong_rcode.header.rcode = Rcode::ServFail;
        let mut no_ds = answer(&q);
        no_ds.authorities.retain(|r| r.rtype != RrType::Ds);
        let mut wrong_id = answer(&q);
        wrong_id.header.id += 1;
        for bad in [wrong_rcode, no_ds, wrong_id] {
            assert!(verify(&q, &bad.to_bytes().expect("encodes")).is_err());
        }
        // The wildcard answer with an extra record, or without its glue.
        let q = query("www.example.com", false);
        let mut extra = answer(&q);
        extra.additionals.push(extra.answers[0].clone());
        let mut no_glue = answer(&q);
        no_glue.additionals.clear();
        for bad in [extra, no_glue] {
            assert!(verify(&q, &bad.to_bytes().expect("encodes")).is_err());
        }
    }
}
