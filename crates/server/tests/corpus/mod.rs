//! The golden-answer corpus: every query the golden and allocation tests
//! put to the authoritative engine.
//!
//! A corpus item is a query *wire* plus the client address and transport
//! it arrives on, so cases can carry bytes a `Message` never produces
//! (an upper-case qname, for one). The expected response of an item is
//! `respond(client, &Message::from_bytes(wire), over_stream).to_bytes()`
//! as computed by the engine before the wire-native answer path existed;
//! `tests/golden/answers.txt` holds those bytes' hashes.

#![allow(dead_code)] // each test binary uses a different part

use std::net::IpAddr;
use std::sync::Arc;

use ldp_server::auth::AuthEngine;
use ldp_wire::{Edns, EdnsOption, Message, Name, Opcode, RData, Record, RrType};
use ldp_workload::zones::{synthetic_root_zone, wildcard_example_zone};
use ldp_workload::BRootConfig;
use ldp_zone::dnssec::{sign_zone, SigningConfig};
use ldp_zone::{ViewTable, Zone, ZoneSet};

/// B-Root records in the corpus.
pub const BROOT_RECORDS: usize = 20_000;
/// B-Root records per hashed block of the fixture.
pub const BLOCK: usize = 500;

/// One query put to an engine.
pub struct Case {
    pub name: String,
    pub client: IpAddr,
    pub wire: Vec<u8>,
    pub over_stream: bool,
}

/// Which engine a hand-picked case is answered by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engines {
    BRoot,
    Hot,
    Hand,
    Views,
}

/// The engines every case is answered by.
pub struct EngineSet {
    pub broot: AuthEngine,
    pub hot: AuthEngine,
    pub hand: AuthEngine,
    pub views: AuthEngine,
}

impl EngineSet {
    pub fn get(&self, which: Engines) -> &AuthEngine {
        match which {
            Engines::BRoot => &self.broot,
            Engines::Hot => &self.hot,
            Engines::Hand => &self.hand,
            Engines::Views => &self.views,
        }
    }
}

pub fn n(s: &str) -> Name {
    Name::parse(s).expect("valid name")
}

fn ip(s: &str) -> IpAddr {
    s.parse().expect("valid address")
}

fn a(s: &str) -> RData {
    RData::A(s.parse().expect("valid address"))
}

pub fn engines() -> EngineSet {
    let mut broot = ZoneSet::new();
    broot.insert(wildcard_example_zone());
    broot.insert(synthetic_root_zone(0));
    let mut hot = ZoneSet::new();
    hot.insert(wildcard_example_zone());
    EngineSet {
        broot: AuthEngine::with_zones(Arc::new(broot)),
        hot: AuthEngine::with_zones(Arc::new(hot)),
        hand: AuthEngine::with_zones(Arc::new(hand_zones())),
        views: AuthEngine::with_views(hierarchy_views()),
    }
}

/// A signed `example.com` with every answer shape, plus an unsigned
/// `big.test` whose answers overflow UDP limits.
fn hand_zones() -> ZoneSet {
    let mut z = Zone::with_fake_soa(n("example.com"));
    let add = |z: &mut Zone, name: &str, ttl: u32, rdata: RData| {
        z.add(Record::new(n(name), ttl, rdata)).expect("in zone");
    };
    add(&mut z, "example.com", 3600, RData::Ns(n("ns1.example.com")));
    add(&mut z, "example.com", 3600, RData::Ns(n("ns2.example.com")));
    add(
        &mut z,
        "example.com",
        3600,
        RData::Ns(n("ns.elsewhere.net")),
    );
    add(&mut z, "ns1.example.com", 3600, a("192.0.2.53"));
    add(&mut z, "ns2.example.com", 3600, a("192.0.2.54"));
    add(
        &mut z,
        "ns2.example.com",
        3600,
        RData::Aaaa("2001:db8::54".parse().expect("valid address")),
    );
    add(
        &mut z,
        "example.com",
        300,
        RData::Mx {
            preference: 10,
            exchange: n("mail.example.com"),
        },
    );
    add(&mut z, "mail.example.com", 300, a("192.0.2.25"));
    add(&mut z, "www.example.com", 300, a("192.0.2.80"));
    add(&mut z, "www.example.com", 300, a("192.0.2.81"));
    add(
        &mut z,
        "alias.example.com",
        300,
        RData::Cname(n("alias2.example.com")),
    );
    add(
        &mut z,
        "alias2.example.com",
        300,
        RData::Cname(n("www.example.com")),
    );
    add(
        &mut z,
        "dangle.example.com",
        300,
        RData::Cname(n("gone.example.com")),
    );
    add(
        &mut z,
        "out.example.com",
        300,
        RData::Cname(n("www.example.org")),
    );
    add(&mut z, "*.wild.example.com", 60, a("192.0.2.99"));
    add(
        &mut z,
        "*.wild.example.com",
        60,
        RData::Txt(vec![b"wildcard".to_vec()]),
    );
    add(&mut z, "a.deep.example.com", 60, a("192.0.2.11"));
    add(
        &mut z,
        "_sip._udp.example.com",
        60,
        RData::Srv {
            priority: 1,
            weight: 2,
            port: 5060,
            target: n("sip.example.com"),
        },
    );
    // A delegation with in-bailiwick glue and a DS.
    add(
        &mut z,
        "sub.example.com",
        3600,
        RData::Ns(n("ns1.sub.example.com")),
    );
    add(
        &mut z,
        "sub.example.com",
        3600,
        RData::Ns(n("ns2.sub.example.com")),
    );
    add(&mut z, "ns1.sub.example.com", 3600, a("192.0.2.101"));
    add(&mut z, "ns2.sub.example.com", 3600, a("192.0.2.102"));
    add(
        &mut z,
        "sub.example.com",
        3600,
        RData::Ds {
            key_tag: 4242,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0x5A; 32],
        },
    );
    // A delegation whose nameserver is out of bailiwick: no glue.
    add(
        &mut z,
        "ext.example.com",
        3600,
        RData::Ns(n("ns.elsewhere.net")),
    );
    sign_zone(&mut z, SigningConfig::zsk1024());

    let mut big = Zone::with_fake_soa(n("big.test"));
    for i in 0..20u8 {
        big.add(Record::new(
            n("fat.big.test"),
            60,
            RData::Txt(vec![vec![b'a' + i % 26; 200], vec![i; 50]]),
        ))
        .expect("in zone");
    }
    for i in 0..4u8 {
        big.add(Record::new(
            n("mid.big.test"),
            60,
            RData::Txt(vec![vec![b'k' + i; 200]]),
        ))
        .expect("in zone");
    }

    let mut set = ZoneSet::new();
    set.insert(z);
    set.insert(big);
    set
}

/// Root → com → example.com, each bound to its nameserver's address.
fn hierarchy_views() -> ViewTable {
    let mut root = Zone::with_fake_soa(Name::root());
    root.add(Record::new(
        n("com"),
        172800,
        RData::Ns(n("a.gtld-servers.net")),
    ))
    .expect("in zone");
    root.add(Record::new(
        n("a.gtld-servers.net"),
        172800,
        a("192.5.6.30"),
    ))
    .expect("in zone");
    let mut com = Zone::with_fake_soa(n("com"));
    com.add(Record::new(
        n("example.com"),
        172800,
        RData::Ns(n("ns1.example.com")),
    ))
    .expect("in zone");
    com.add(Record::new(n("ns1.example.com"), 172800, a("192.0.2.53")))
        .expect("in zone");
    let mut sld = Zone::with_fake_soa(n("example.com"));
    sld.add(Record::new(
        n("example.com"),
        3600,
        RData::Ns(n("ns1.example.com")),
    ))
    .expect("in zone");
    sld.add(Record::new(n("ns1.example.com"), 3600, a("192.0.2.53")))
        .expect("in zone");
    sld.add(Record::new(n("www.example.com"), 300, a("192.0.2.80")))
        .expect("in zone");
    ViewTable::from_nameserver_map(vec![
        (ip("198.41.0.4"), root),
        (ip("192.5.6.30"), com),
        (ip("192.0.2.53"), sld),
    ])
}

/// The B-Root records, as generated for seed 1.
pub fn broot_queries() -> Vec<Message> {
    let records = BRootConfig {
        duration_s: 12.0,
        mean_rate_qps: 2_000.0,
        rate_swing: 0.0,
        seed: 1,
        ..BRootConfig::default()
    }
    .generate();
    assert!(records.len() >= BROOT_RECORDS, "trace too short");
    records
        .into_iter()
        .take(BROOT_RECORDS)
        .map(|r| r.message)
        .collect()
}

/// `query` with the DO bit forced on (adding EDNS if absent) or off
/// (leaving EDNS presence as it was).
pub fn with_do(query: &Message, dnssec_ok: bool) -> Message {
    let mut q = query.clone();
    match (&mut q.edns, dnssec_ok) {
        (Some(e), _) => e.dnssec_ok = dnssec_ok,
        (None, true) => q.edns = Some(Edns::with_do()),
        (None, false) => {}
    }
    q
}

/// The four B-Root variants: (label, over_stream, dnssec_ok).
pub const BROOT_VARIANTS: [(&str, bool, bool); 4] = [
    ("udp-do", false, true),
    ("udp-nodo", false, false),
    ("stream-do", true, true),
    ("stream-nodo", true, false),
];

fn wire(m: &Message) -> Vec<u8> {
    m.to_bytes().expect("query encodes")
}

fn q(id: u16, name: &str, qtype: RrType) -> Message {
    Message::query(id, n(name), qtype)
}

fn dnssec(mut m: Message) -> Message {
    m.edns = Some(Edns::with_do());
    m
}

fn edns(mut m: Message, size: u16) -> Message {
    m.edns = Some(Edns {
        udp_payload_size: size,
        ..Edns::default()
    });
    m
}

/// Hand-picked cases under construction.
struct Cases(Vec<(Engines, Case)>);

impl Cases {
    fn push(
        &mut self,
        engine: Engines,
        name: &str,
        client: IpAddr,
        wire: Vec<u8>,
        over_stream: bool,
    ) {
        let name = name.to_string();
        self.0.push((
            engine,
            Case {
                name,
                client,
                wire,
                over_stream,
            },
        ));
    }

    /// `m` from the usual client, over UDP and over a stream.
    fn both(&mut self, engine: Engines, name: &str, m: Message) {
        let local = ip("10.0.0.1");
        self.push(engine, &format!("{name}/udp"), local, wire(&m), false);
        self.push(engine, &format!("{name}/stream"), local, wire(&m), true);
    }
}

/// The hand-picked cases: (engine, case).
pub fn hand_cases() -> Vec<(Engines, Case)> {
    use Engines::*;
    let local = ip("10.0.0.1");
    let mut out = Cases(Vec::new());
    let cases: Vec<(Engines, &str, Message)> = vec![
        (Hot, "hot-www-a", q(1, "www.example.com", RrType::A)),
        (Hand, "exact", q(2, "www.example.com", RrType::A)),
        (Hand, "exact-do", dnssec(q(3, "www.example.com", RrType::A))),
        (Hand, "exact-mx-apex", q(4, "example.com", RrType::Mx)),
        (
            Hand,
            "exact-srv",
            q(5, "_sip._udp.example.com", RrType::Srv),
        ),
        (
            Hand,
            "exact-ns-apex-do",
            dnssec(q(6, "example.com", RrType::Ns)),
        ),
        (Hand, "exact-aaaa", q(7, "ns2.example.com", RrType::Aaaa)),
        (Hand, "cname-chain", q(8, "alias.example.com", RrType::A)),
        (
            Hand,
            "cname-chain-do",
            dnssec(q(9, "alias.example.com", RrType::A)),
        ),
        (
            Hand,
            "cname-query",
            q(10, "alias.example.com", RrType::Cname),
        ),
        (
            Hand,
            "cname-dangling",
            q(11, "dangle.example.com", RrType::A),
        ),
        (
            Hand,
            "cname-dangling-do",
            dnssec(q(12, "dangle.example.com", RrType::A)),
        ),
        (
            Hand,
            "cname-out-of-zone",
            q(13, "out.example.com", RrType::A),
        ),
        (Hand, "wildcard", q(14, "x.wild.example.com", RrType::A)),
        (
            Hand,
            "wildcard-do",
            dnssec(q(15, "x.wild.example.com", RrType::A)),
        ),
        (
            Hand,
            "wildcard-deep",
            q(16, "a.b.wild.example.com", RrType::Txt),
        ),
        (
            Hand,
            "wildcard-nodata",
            q(17, "x.wild.example.com", RrType::Mx),
        ),
        (
            Hand,
            "referral-glue",
            q(18, "www.sub.example.com", RrType::A),
        ),
        (
            Hand,
            "referral-ds-do",
            dnssec(q(19, "www.sub.example.com", RrType::A)),
        ),
        (
            Hand,
            "referral-at-cut",
            q(20, "sub.example.com", RrType::Ns),
        ),
        (
            Hand,
            "referral-no-glue",
            q(21, "host.ext.example.com", RrType::A),
        ),
        (Hand, "ds-at-cut", q(22, "sub.example.com", RrType::Ds)),
        (
            Hand,
            "ds-at-cut-do",
            dnssec(q(23, "sub.example.com", RrType::Ds)),
        ),
        (Hand, "nxdomain", q(24, "nope.example.com", RrType::A)),
        (
            Hand,
            "nxdomain-nsec",
            dnssec(q(25, "nope.example.com", RrType::A)),
        ),
        (Hand, "nodata", q(26, "www.example.com", RrType::Mx)),
        (
            Hand,
            "nodata-nsec",
            dnssec(q(27, "www.example.com", RrType::Mx)),
        ),
        (
            Hand,
            "nodata-ent",
            dnssec(q(28, "deep.example.com", RrType::A)),
        ),
        (Hand, "any-apex", q(29, "example.com", RrType::Any)),
        (
            Hand,
            "refused-out-of-zone",
            q(30, "www.example.net", RrType::A),
        ),
        (Hand, "trunc-512", q(31, "fat.big.test", RrType::Txt)),
        (
            Hand,
            "trunc-edns-1232",
            edns(q(32, "fat.big.test", RrType::Txt), 1232),
        ),
        (
            Hand,
            "fits-edns-1232",
            edns(q(33, "mid.big.test", RrType::Txt), 1232),
        ),
        (
            Hand,
            "trunc-edns-small",
            edns(q(34, "mid.big.test", RrType::Txt), 256),
        ),
        (
            Hand,
            "fits-edns-64k",
            edns(q(35, "fat.big.test", RrType::Txt), 65_000),
        ),
    ];
    for (engine, name, m) in cases {
        out.both(engine, name, m);
    }

    // Header shapes: opcodes, no question, several questions, flags.
    let mut notify = q(40, "example.com", RrType::Soa);
    notify.header.opcode = Opcode::Notify;
    out.both(Hand, "notimp-notify", notify);
    let mut update = dnssec(q(41, "example.com", RrType::Soa));
    update.header.opcode = Opcode::Update;
    out.both(Hand, "notimp-update-do", update);
    let mut empty = Message::default();
    empty.header.id = 42;
    out.both(Hand, "formerr-no-question", empty.clone());
    out.both(Hand, "formerr-no-question-do", dnssec(empty));
    let mut two = q(43, "www.example.com", RrType::A);
    two.questions
        .push(ldp_wire::Question::new(n("mail.example.com"), RrType::A));
    out.both(Hand, "two-questions", two);
    let mut flags = q(44, "www.example.com", RrType::A);
    flags.header.recursion_desired = false;
    flags.header.checking_disabled = true;
    flags.header.authentic_data = true;
    flags.header.reserved_z = true;
    out.both(Hand, "query-flags", flags);
    let mut cookie = dnssec(q(45, "www.example.com", RrType::A));
    if let Some(e) = &mut cookie.edns {
        e.options.push(EdnsOption {
            code: 10,
            data: vec![1, 2, 3, 4, 5, 6, 7, 8],
        });
        e.udp_payload_size = 1232;
    }
    out.both(Hand, "edns-cookie", cookie);

    // Bytes a `Message` never encodes: an upper-case qname.
    let mut upper = wire(&q(46, "www.example.com", RrType::A));
    upper[13..16].copy_from_slice(b"WwW");
    out.push(Hand, "upper-qname/udp", local, upper, false);

    // Split horizon: one question asked of each level, and of nobody.
    let www = q(47, "www.example.com", RrType::A);
    for (label, client) in [
        ("views-root", "198.41.0.4"),
        ("views-com", "192.5.6.30"),
        ("views-sld", "192.0.2.53"),
        ("views-unknown", "10.9.9.9"),
    ] {
        out.push(
            Views,
            &format!("{label}/udp"),
            ip(client),
            wire(&www),
            false,
        );
    }
    let www_do = dnssec(q(48, "www.example.com", RrType::A));
    out.push(
        Views,
        "views-root-do/udp",
        ip("198.41.0.4"),
        wire(&www_do),
        false,
    );
    out.0
}

/// 64-bit FNV-1a, continued from `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one response into a block hash: its length, then its bytes.
pub fn fold(h: u64, response: &[u8]) -> u64 {
    let len = u32::try_from(response.len()).expect("response fits u32");
    fnv1a(fnv1a(h, &len.to_be_bytes()), response)
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
