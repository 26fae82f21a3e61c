//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the zone, trace, and simulation layers.

use ldplayer::trace::{capture, stream, Direction, Protocol, TraceRecord};
use ldplayer::wire::{Message, Name, RrType};
use ldplayer::zone::{master, LookupOutcome, Zone};
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just('a'), Just('b'), Just('x'), Just('3')],
        1..8,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..4)
        .prop_map(|labels| Name::parse(&labels.join(".")).expect("generated labels are valid"))
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        any::<u32>(),
        any::<[u8; 4]>(),
        1024u16..65535,
        arb_name(),
        prop_oneof![Just(RrType::A), Just(RrType::Aaaa), Just(RrType::Ns)],
        prop_oneof![
            Just(Protocol::Udp),
            Just(Protocol::Tcp),
            Just(Protocol::Tls)
        ],
    )
        .prop_map(|(t, ip, port, qname, qtype, protocol)| {
            let mut rec =
                TraceRecord::udp_query(t as u64, std::net::IpAddr::from(ip), port, qname, qtype);
            rec.protocol = protocol;
            rec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any trace survives capture-format round-trips byte-exactly.
    #[test]
    fn capture_roundtrip(records in proptest::collection::vec(arb_record(), 0..40)) {
        let bytes = capture::to_bytes(&records).unwrap();
        let back = capture::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, records);
    }

    /// Any trace survives stream-format round-trips (modulo the dropped
    /// destination, which the format intentionally omits).
    #[test]
    fn stream_roundtrip(records in proptest::collection::vec(arb_record(), 0..40)) {
        let bytes = stream::to_bytes(&records).unwrap();
        let back = stream::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.len(), records.len());
        for (b, r) in back.iter().zip(&records) {
            prop_assert_eq!(b.time_us, r.time_us);
            prop_assert_eq!(b.src, r.src);
            prop_assert_eq!(b.src_port, r.src_port);
            prop_assert_eq!(b.protocol, r.protocol);
            prop_assert_eq!(&b.message, &r.message);
            prop_assert_eq!(b.direction, Direction::Query);
        }
    }

    /// A zone built from arbitrary A records answers every inserted name
    /// and NXDOMAINs everything else; master-file round-trips preserve it.
    #[test]
    fn zone_lookup_total(names in proptest::collection::vec(arb_name(), 1..20)) {
        let origin = Name::parse("test").unwrap();
        let mut zone = Zone::with_fake_soa(origin.clone());
        let mut inserted = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let full = name.concat(&origin).unwrap();
            let rec = ldplayer::wire::Record::new(
                full.clone(),
                60,
                ldplayer::wire::RData::A(std::net::Ipv4Addr::from(i as u32 + 1)),
            );
            if zone.add(rec).is_ok() {
                inserted.push(full);
            }
        }
        for name in &inserted {
            match zone.lookup(name, RrType::A, false) {
                LookupOutcome::Answer { records, .. } => prop_assert!(!records.is_empty()),
                other => prop_assert!(false, "expected answer for {name}, got {other:?}"),
            }
        }
        // Round-trip through master format preserves every lookup.
        let text = master::serialize_zone(&zone);
        let zone2 = master::parse_zone(&origin, &text).unwrap();
        for name in &inserted {
            // prop_assert! stringifies its expression into a format string,
            // so `{ .. }` patterns must live outside the macro call.
            let answered = matches!(
                zone2.lookup(name, RrType::A, false),
                LookupOutcome::Answer { .. }
            );
            prop_assert!(answered, "lookup lost after master round-trip");
        }
        // A name disjoint from everything inserted is NXDOMAIN.
        let absent = Name::parse("zz-definitely-absent.test").unwrap();
        if !inserted.iter().any(|n| absent.is_subdomain_of(n) || n.is_subdomain_of(&absent)) {
            let nx = matches!(
                zone.lookup(&absent, RrType::A, false),
                LookupOutcome::NxDomain { .. }
            );
            prop_assert!(nx, "absent name must be NXDOMAIN");
        }
    }

    /// Wire messages embedded in trace records always re-encode (no
    /// panics, no size explosions beyond the 64 KiB cap).
    #[test]
    fn trace_messages_reencode(records in proptest::collection::vec(arb_record(), 1..20)) {
        for rec in &records {
            let bytes = rec.message.to_bytes().unwrap();
            prop_assert!(bytes.len() <= u16::MAX as usize);
            let decoded = Message::from_bytes(&bytes).unwrap();
            prop_assert_eq!(&decoded, &rec.message);
        }
    }
}

/// Simulation determinism as a property: any small trace replayed twice
/// gives identical outcomes (seeded loss included).
#[test]
fn sim_determinism_with_loss() {
    use ldplayer::netsim::loss::{LossModel, LossScope};
    use ldplayer::netsim::{Sim, SimDuration, SimTime, TcpConfig};
    use ldplayer::replay::sim::SimDriver;
    use ldplayer::server::resource::ResourceModel;
    use ldplayer::server::sim::AuthServerNode;
    use std::sync::Arc;

    let run = || {
        let trace = ldplayer::workload::BRootConfig {
            duration_s: 2.0,
            mean_rate_qps: 200.0,
            clients: 50,
            seed: 12,
            ..Default::default()
        }
        .generate();
        let mut zones = ldplayer::zone::ZoneSet::new();
        zones.insert(ldplayer::workload::zones::synthetic_root_zone(10));
        let engine = Arc::new(ldplayer::server::auth::AuthEngine::with_zones(Arc::new(
            zones,
        )));
        let mut sim = Sim::new();
        sim.set_loss(LossModel::random(0.1, LossScope::UdpOnly, 99));
        let q = sim.add_node(Box::new(SimDriver::new(
            "10.0.0.1".parse().unwrap(),
            "192.0.2.53".parse().unwrap(),
            TcpConfig::default(),
            trace,
        )));
        let s = sim.add_node(Box::new(AuthServerNode::new(
            "192.0.2.53".parse().unwrap(),
            engine,
            TcpConfig::default(),
            ResourceModel::default(),
        )));
        sim.bind("10.0.0.1".parse().unwrap(), q);
        sim.bind("192.0.2.53".parse().unwrap(), s);
        sim.set_pair_delay(q, s, SimDuration::from_millis(3));
        sim.run_until(SimTime::from_secs(10));
        sim.node_as_mut::<SimDriver>(q).unwrap().take_outcomes()
    };
    assert_eq!(run(), run());
}
