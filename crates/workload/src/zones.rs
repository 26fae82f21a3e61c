//! Synthetic zones backing the workload generators.
//!
//! The paper replays root traffic against "a real DNS root zone file".
//! That file is public but changes daily; for reproducibility this module
//! synthesizes a root zone with the same structure — NS delegations plus
//! glue for every TLD the workload can query — and an `example.com` zone
//! with wildcards for the unique-name synthetic traces (§4.2).

use std::net::Ipv4Addr;

use ldp_wire::{Name, RData, Record};
use ldp_zone::dnssec::{sign_zone, SigningConfig};
use ldp_zone::Zone;

use crate::names::COMMON_TLDS;

/// Builds a root-like zone delegating every TLD in the pool (plus `extra`
/// additional invented TLDs for bulk), with two nameservers and glue per
/// delegation — the record shape of a real root referral.
pub fn synthetic_root_zone(extra_tlds: usize) -> Zone {
    let mut zone = Zone::with_fake_soa(Name::root());
    // Root's own NS set.
    for i in 0..13u8 {
        let ns = Name::parse(&format!("{}.root-servers.net", (b'a' + i) as char)).unwrap();
        zone.add(Record::new(Name::root(), 518400, RData::Ns(ns.clone())))
            .unwrap();
        zone.add(Record::new(
            ns,
            518400,
            RData::A(Ipv4Addr::new(198, 41, i, 4)),
        ))
        .unwrap();
    }
    let tlds: Vec<String> = COMMON_TLDS
        .iter()
        .map(|s| s.to_string())
        .chain((0..extra_tlds).map(|i| format!("tld{i:04}")))
        .collect();
    for (idx, tld) in tlds.iter().enumerate() {
        let owner = Name::parse(tld).unwrap();
        for k in 0..2u8 {
            let ns = Name::parse(&format!("ns{k}.{tld}-servers.net")).unwrap();
            zone.add(Record::new(owner.clone(), 172_800, RData::Ns(ns.clone())))
                .unwrap();
            zone.add(Record::new(
                ns,
                172_800,
                RData::A(Ipv4Addr::new(
                    192,
                    (idx / 200) as u8 + 10,
                    (idx % 200) as u8,
                    10 + k,
                )),
            ))
            .unwrap();
        }
        // DS so signed referrals grow under DO (Figure 10's mechanism).
        zone.add(Record::new(
            owner,
            86_400,
            RData::Ds {
                key_tag: idx as u16,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0xD5; 32],
            },
        ))
        .unwrap();
    }
    zone
}

/// Same zone, DNSSEC-signed with the given config (§5.1 sweeps ZSK sizes).
pub fn signed_root_zone(extra_tlds: usize, config: SigningConfig) -> Zone {
    let mut zone = synthetic_root_zone(extra_tlds);
    sign_zone(&mut zone, config);
    zone
}

/// The wildcard `example.com` zone used by the synthetic-trace replays:
/// answers any name under the domain (§4.2: "host names in example.com
/// with wildcards, so that it can respond all the queries within that
/// domain").
pub fn wildcard_example_zone() -> Zone {
    let mut zone = Zone::with_fake_soa(Name::parse("example.com").unwrap());
    zone.add(Record::new(
        Name::parse("example.com").unwrap(),
        3600,
        RData::Ns(Name::parse("ns1.example.com").unwrap()),
    ))
    .unwrap();
    zone.add(Record::new(
        Name::parse("ns1.example.com").unwrap(),
        3600,
        RData::A(Ipv4Addr::new(192, 0, 2, 53)),
    ))
    .unwrap();
    zone.add(Record::new(
        Name::parse("*.example.com").unwrap(),
        60,
        RData::A(Ipv4Addr::new(192, 0, 2, 80)),
    ))
    .unwrap();
    zone
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_wire::RrType;
    use ldp_zone::LookupOutcome;

    #[test]
    fn root_zone_refers_all_common_tlds() {
        let zone = synthetic_root_zone(0);
        assert!(zone.validate().is_ok());
        for tld in COMMON_TLDS {
            let q = Name::parse(&format!("www.test.{tld}")).unwrap();
            match zone.lookup(&q, RrType::A, false) {
                LookupOutcome::Delegation(r) => {
                    assert_eq!(r.ns_records.len(), 2);
                    assert_eq!(r.glue.len(), 2, "glue for {tld}");
                }
                other => panic!("{tld}: {other:?}"),
            }
        }
    }

    #[test]
    fn junk_tlds_nxdomain() {
        let zone = synthetic_root_zone(0);
        let q = Name::parse("foo.invalid42").unwrap();
        assert!(matches!(
            zone.lookup(&q, RrType::A, false),
            LookupOutcome::NxDomain { .. }
        ));
    }

    #[test]
    fn extra_tlds_scale() {
        let zone = synthetic_root_zone(500);
        let q = Name::parse("x.tld0499").unwrap();
        assert!(matches!(
            zone.lookup(&q, RrType::A, false),
            LookupOutcome::Delegation(_)
        ));
        assert!(zone.record_count() > 1500);
    }

    #[test]
    fn signed_root_has_bigger_referrals() {
        let plain = synthetic_root_zone(0);
        let signed = signed_root_zone(0, SigningConfig::zsk2048());
        let q = Name::parse("www.test.com").unwrap();
        let plain_ref = match plain.lookup(&q, RrType::A, true) {
            LookupOutcome::Delegation(r) => r,
            other => panic!("{other:?}"),
        };
        let signed_ref = match signed.lookup(&q, RrType::A, true) {
            LookupOutcome::Delegation(r) => r,
            other => panic!("{other:?}"),
        };
        let size = |r: &ldp_zone::Referral<'_>| -> usize {
            r.ns_records
                .records()
                .into_iter()
                .chain(r.glue.records())
                .chain(r.ds_records.records())
                .map(|rec| rec.wire_size_estimate())
                .sum()
        };
        assert!(size(&signed_ref) > size(&plain_ref) + 200);
    }

    #[test]
    fn wildcard_zone_answers_anything_under_domain() {
        let zone = wildcard_example_zone();
        for name in [
            "a.example.com",
            "u0000deadbeef.example.com",
            "x.y.example.com",
        ] {
            let q = Name::parse(name).unwrap();
            assert!(
                matches!(
                    zone.lookup(&q, RrType::A, false),
                    LookupOutcome::Answer { .. }
                ),
                "{name}"
            );
        }
    }
}
