//! Property tests for zone machinery: canonical-order laws, master-file
//! round-trips over richer record mixes, and NSEC chain coverage.

use ldp_wire::{Name, RData, Record, RrType};
use ldp_zone::dnssec::{sign_zone, SigningConfig};
use ldp_zone::{master, LookupOutcome, Zone};
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just('a'), Just('b'), Just('c'), Just('z'), Just('1')],
        1..6,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn arb_name_under(origin: &'static str) -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..3).prop_map(move |labels| {
        let mut s = labels.join(".");
        if !s.is_empty() {
            s.push('.');
        }
        s.push_str(origin);
        Name::parse(&s).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Canonical ordering is a strict total order consistent with equality.
    #[test]
    fn canonical_order_total(
        a in arb_name_under("test"),
        b in arb_name_under("test"),
        c in arb_name_under("test"),
    ) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.canonical_cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.canonical_cmp(&b), b.canonical_cmp(&a).reverse());
        // Transitivity on a ≤ b ≤ c.
        if a.canonical_cmp(&b) != Ordering::Greater && b.canonical_cmp(&c) != Ordering::Greater {
            prop_assert!(a.canonical_cmp(&c) != Ordering::Greater);
        }
        prop_assert_eq!(a.canonical_cmp(&b) == Ordering::Equal, a == b);
    }

    /// Master round-trip over mixed record types preserves every rrset.
    #[test]
    fn master_roundtrip_mixed(
        names in proptest::collection::vec(arb_name_under("rt.test"), 1..15),
        ttls in proptest::collection::vec(1u32..100_000, 15),
    ) {
        let origin = Name::parse("rt.test").unwrap();
        let mut zone = Zone::with_fake_soa(origin.clone());
        for (i, name) in names.iter().enumerate() {
            let ttl = ttls[i % ttls.len()];
            let rdata = match i % 5 {
                0 => RData::A(std::net::Ipv4Addr::from(i as u32 + 1)),
                1 => RData::Aaaa(std::net::Ipv6Addr::from((i as u128) + 1)),
                2 => RData::Txt(vec![format!("txt-{i}").into_bytes()]),
                3 => RData::Mx { preference: i as u16, exchange: origin.clone() },
                _ => RData::Ptr(origin.clone()),
            };
            let _ = zone.add(Record::new(name.clone(), ttl, rdata));
        }
        let text = master::serialize_zone(&zone);
        let zone2 = master::parse_zone(&origin, &text).unwrap();
        prop_assert_eq!(zone.record_count(), zone2.record_count());
        for (name, rtype, set) in zone.iter() {
            let set2 = zone2.get(name, rtype);
            prop_assert!(set2.is_some(), "{} {} lost in round-trip", name, rtype);
            let set2 = set2.unwrap();
            prop_assert_eq!(set.ttl, set2.ttl);
            prop_assert_eq!(set.rdatas.len(), set2.rdatas.len());
        }
    }

    /// After signing, *every* negative lookup with DO carries denial
    /// records, and every positive rrset has a covering signature.
    #[test]
    fn signed_zone_denial_total(
        names in proptest::collection::vec(arb_name_under("sz.test"), 1..12),
        probe in arb_name_under("sz.test"),
    ) {
        let origin = Name::parse("sz.test").unwrap();
        let mut zone = Zone::with_fake_soa(origin.clone());
        for (i, name) in names.iter().enumerate() {
            let _ = zone.add(Record::new(
                name.clone(),
                300,
                RData::A(std::net::Ipv4Addr::from(i as u32 + 1)),
            ));
        }
        sign_zone(&mut zone, SigningConfig::zsk2048());
        match zone.lookup(&probe, RrType::A, true) {
            LookupOutcome::Answer { records, .. } => {
                let has_sig = records.records().iter().any(|r| r.rtype == RrType::Rrsig);
                prop_assert!(has_sig, "answer for {probe} lacks RRSIG");
            }
            LookupOutcome::NxDomain { denial, .. } | LookupOutcome::NoData { denial, .. } => {
                let denial = denial.records();
                let has_nsec = denial.iter().any(|r| r.rtype == RrType::Nsec);
                let has_sig = denial.iter().any(|r| r.rtype == RrType::Rrsig);
                prop_assert!(has_nsec && has_sig, "negative answer for {probe} lacks denial");
            }
            LookupOutcome::Delegation(_) | LookupOutcome::OutOfZone => {}
        }
    }
}
