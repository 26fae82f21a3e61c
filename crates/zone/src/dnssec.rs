//! Synthetic DNSSEC signing for the §5.1 what-if experiments.
//!
//! The paper replays root traffic under different zone-signing-key (ZSK)
//! sizes (1024/2048-bit, plus rollover states where two keys and double
//! signatures are live) and different DO-bit shares, and measures response
//! bandwidth. Real cryptography is irrelevant to that question — only the
//! *sizes* of DNSKEY and RRSIG records matter — so this module signs zones
//! with structurally-valid records whose key and signature lengths model an
//! RSA key of the configured size. This is the documented substitution for
//! the paper's use of the real (signed) root zone.

use ldp_wire::{Name, RData, Record, RrType};

use crate::zone::Zone;

/// Key configuration for the synthetic signer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigningConfig {
    /// ZSK modulus size in bits; an RSA signature is modulus-sized, so
    /// RRSIGs carry `zsk_bits/8` signature bytes.
    pub zsk_bits: u16,
    /// KSK modulus size in bits (the root uses 2048-bit KSKs).
    pub ksk_bits: u16,
    /// During a ZSK rollover both the outgoing and incoming ZSK are
    /// published and every rrset carries two signatures, which is what
    /// makes rollovers a bandwidth event (Fig. 10's "rollover" groups).
    pub rollover: bool,
}

impl SigningConfig {
    /// Pre-2016 root configuration: 1024-bit ZSK.
    pub fn zsk1024() -> Self {
        SigningConfig {
            zsk_bits: 1024,
            ksk_bits: 2048,
            rollover: false,
        }
    }

    /// Current root configuration: 2048-bit ZSK.
    pub fn zsk2048() -> Self {
        SigningConfig {
            zsk_bits: 2048,
            ksk_bits: 2048,
            rollover: false,
        }
    }

    /// The paper's stated future-work configuration (§5.1): 4096-bit ZSK.
    pub fn zsk4096() -> Self {
        SigningConfig {
            zsk_bits: 4096,
            ksk_bits: 2048,
            rollover: false,
        }
    }

    /// Same, but mid-rollover (two ZSKs, double signatures).
    pub fn rollover(mut self) -> Self {
        self.rollover = true;
        self
    }

    /// Signature size in bytes for one RRSIG.
    pub fn signature_len(&self) -> usize {
        self.zsk_bits as usize / 8
    }

    /// Number of live ZSKs.
    pub fn zsk_count(&self) -> usize {
        if self.rollover {
            2
        } else {
            1
        }
    }
}

/// RSA algorithm number 8 (RSASHA256), what the root uses.
const ALG_RSASHA256: u8 = 8;
/// DNSKEY flags: ZSK = 256, KSK = 257 (SEP bit).
const FLAGS_ZSK: u16 = 256;
const FLAGS_KSK: u16 = 257;

/// Signs `zone` in place: publishes DNSKEYs at the apex and attaches one
/// RRSIG per (name, type) rrset per live ZSK. Existing DNSSEC records are
/// replaced, so re-signing with a different config is idempotent.
pub fn sign_zone(zone: &mut Zone, config: SigningConfig) {
    zone.remove_type(RrType::Rrsig);
    zone.remove_type(RrType::Dnskey);
    zone.remove_type(RrType::Nsec);

    let apex = zone.origin().clone();
    // Publish the KSK and the live ZSK(s). Key material is deterministic
    // filler; its *length* models an RSA public key of the configured size
    // (modulus + small exponent/ASN.1 overhead ≈ bits/8 + 4).
    let mut key_tags: Vec<u16> = Vec::new();
    let mut keys: Vec<Record> = Vec::new();
    keys.push(dnskey(&apex, FLAGS_KSK, config.ksk_bits, 19036));
    for i in 0..config.zsk_count() {
        let tag = 40000 + i as u16;
        key_tags.push(tag);
        keys.push(dnskey(&apex, FLAGS_ZSK, config.zsk_bits, tag));
    }

    // Collect the rrsets to sign first (can't mutate while iterating).
    let mut to_sign: Vec<(Name, RrType, u32)> = zone
        .iter()
        .map(|(name, rtype, set)| (name.clone(), rtype, set.ttl))
        .collect();
    // Delegation NS rrsets are not signed by the child-side signer (the
    // parent signs the DS instead) — matches real signed zones, where
    // referral responses carry DS+RRSIG but the NS set itself is unsigned.
    to_sign.retain(|(name, rtype, _)| !(*rtype == RrType::Ns && name != &apex));

    for k in keys {
        zone.add(k).expect("apex DNSKEY is in zone");
    }
    // Sign the DNSKEY rrset with the KSK as real zones do.
    let dnskey_ttl = zone
        .get(&apex, RrType::Dnskey)
        .map(|s| s.ttl)
        .unwrap_or(3600);
    let ksk_sig = rrsig(
        &apex,
        RrType::Dnskey,
        dnskey_ttl,
        19036,
        &apex,
        config.ksk_bits as usize / 8,
    );
    zone.add(ksk_sig).expect("apex RRSIG is in zone");

    for (name, rtype, ttl) in to_sign {
        for &tag in &key_tags {
            let sig = rrsig(&name, rtype, ttl, tag, &apex, config.signature_len());
            zone.add(sig).expect("signature owner already in zone");
        }
    }

    // Authenticated denial: an NSEC chain over the authoritative names
    // (delegation-only names are skipped like unsigned NS sets), each link
    // signed per live ZSK. Negative responses attach the covering link
    // (RFC 4035 §3.1.3) — the records that make signed NXDOMAINs large.
    let negative_ttl = zone.soa().map(|s| s.minimum).unwrap_or(300);
    let mut chain: Vec<Name> = zone
        .iter()
        .map(|(name, _, _)| name.clone())
        .collect::<std::collections::HashSet<_>>()
        .into_iter()
        .collect();
    chain.sort_by(|a, b| a.canonical_cmp(b));
    chain.dedup();
    let links: Vec<(Name, Name)> = chain
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), chain[(i + 1) % chain.len()].clone()))
        .collect();
    for (owner, next) in links {
        let nsec = Record::with_type(
            owner.clone(),
            RrType::Nsec,
            negative_ttl,
            RData::Nsec {
                next,
                // Fixed-size synthetic type bitmap (real root bitmaps run
                // ~10–30 bytes).
                type_bitmaps: vec![0x00, 0x07, 0x62, 0x01, 0x80, 0x08, 0x00, 0x02, 0x90],
            },
        );
        zone.add(nsec).expect("nsec owner exists");
        for &tag in &key_tags {
            let sig = rrsig(
                &owner,
                RrType::Nsec,
                negative_ttl,
                tag,
                &apex,
                config.signature_len(),
            );
            zone.add(sig).expect("nsec signature owner exists");
        }
    }
    zone.set_nsec_order(chain);
}

fn dnskey(apex: &Name, flags: u16, bits: u16, seed: u16) -> Record {
    let len = bits as usize / 8 + 4;
    let key = pseudo_bytes(len, seed as u64);
    Record::with_type(
        apex.clone(),
        RrType::Dnskey,
        3600,
        RData::Dnskey {
            flags,
            protocol: 3,
            algorithm: ALG_RSASHA256,
            public_key: key,
        },
    )
}

fn rrsig(
    name: &Name,
    covered: RrType,
    ttl: u32,
    key_tag: u16,
    signer: &Name,
    sig_len: usize,
) -> Record {
    Record::with_type(
        name.clone(),
        RrType::Rrsig,
        ttl,
        RData::Rrsig {
            type_covered: covered,
            algorithm: ALG_RSASHA256,
            labels: name.label_count() as u8,
            original_ttl: ttl,
            // Fixed validity window keeps signing deterministic across runs
            // (experiment repeatability, §2.1 of the paper).
            expiration: 1_800_000_000,
            inception: 1_700_000_000,
            key_tag,
            signer: signer.clone(),
            signature: pseudo_bytes(sig_len, key_tag as u64 ^ ttl as u64),
        },
    )
}

/// Deterministic filler bytes (xorshift) so repeated runs produce identical
/// zones.
fn pseudo_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::LookupOutcome;
    use ldp_wire::Record as WireRecord;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn root_like_zone() -> Zone {
        let mut z = Zone::with_fake_soa(Name::root());
        z.add(WireRecord::new(
            Name::root(),
            518400,
            RData::Ns(n("a.root-servers.net")),
        ))
        .unwrap();
        z.add(WireRecord::new(
            n("a.root-servers.net"),
            518400,
            RData::A("198.41.0.4".parse().unwrap()),
        ))
        .unwrap();
        z.add(WireRecord::new(
            n("com"),
            172800,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        z.add(WireRecord::new(
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
        z
    }

    #[test]
    fn signing_adds_keys_and_sigs() {
        let mut z = root_like_zone();
        sign_zone(&mut z, SigningConfig::zsk2048());
        let keys = z.get(&Name::root(), RrType::Dnskey).unwrap();
        assert_eq!(keys.rdatas.len(), 2, "KSK + ZSK");
        assert!(z.get(&Name::root(), RrType::Rrsig).is_some());
        // DS at the delegation is signed (that's what referrals carry).
        assert!(z.get(&n("com"), RrType::Rrsig).is_some());
    }

    #[test]
    fn rollover_doubles_zsk_and_signatures() {
        let mut single = root_like_zone();
        sign_zone(&mut single, SigningConfig::zsk2048());
        let mut rolled = root_like_zone();
        sign_zone(&mut rolled, SigningConfig::zsk2048().rollover());

        let keys_single = single
            .get(&Name::root(), RrType::Dnskey)
            .unwrap()
            .rdatas
            .len();
        let keys_rolled = rolled
            .get(&Name::root(), RrType::Dnskey)
            .unwrap()
            .rdatas
            .len();
        assert_eq!(keys_rolled, keys_single + 1);

        let sigs_single = single
            .get(&Name::root(), RrType::Soa)
            .map(|_| ())
            .and(single.get(&Name::root(), RrType::Rrsig))
            .unwrap()
            .rdatas
            .len();
        let sigs_rolled = rolled
            .get(&Name::root(), RrType::Rrsig)
            .unwrap()
            .rdatas
            .len();
        assert!(sigs_rolled > sigs_single, "{sigs_rolled} !> {sigs_single}");
    }

    #[test]
    fn signature_sizes_track_zsk_bits() {
        let mut z1024 = root_like_zone();
        sign_zone(&mut z1024, SigningConfig::zsk1024());
        let mut z2048 = root_like_zone();
        sign_zone(&mut z2048, SigningConfig::zsk2048());

        let sig_len = |z: &Zone| -> usize {
            match &z.get(&n("com"), RrType::Rrsig).unwrap().rdatas[0] {
                RData::Rrsig { signature, .. } => signature.len(),
                _ => unreachable!(),
            }
        };
        assert_eq!(sig_len(&z1024), 128);
        assert_eq!(sig_len(&z2048), 256);
        let mut z4096 = root_like_zone();
        sign_zone(&mut z4096, SigningConfig::zsk4096());
        assert_eq!(sig_len(&z4096), 512);
    }

    #[test]
    fn resigning_is_idempotent() {
        let mut z = root_like_zone();
        sign_zone(&mut z, SigningConfig::zsk2048().rollover());
        let count_rolled = z.record_count();
        sign_zone(&mut z, SigningConfig::zsk2048());
        sign_zone(&mut z, SigningConfig::zsk2048());
        let mut fresh = root_like_zone();
        sign_zone(&mut fresh, SigningConfig::zsk2048());
        assert_eq!(z.record_count(), fresh.record_count());
        assert!(count_rolled > z.record_count());
    }

    #[test]
    fn signed_referral_is_bigger_with_do() {
        let mut z = root_like_zone();
        sign_zone(&mut z, SigningConfig::zsk2048());
        let www = n("www.example.com");
        let plain = match z.lookup(&www, RrType::A, false) {
            LookupOutcome::Delegation(r) => r,
            other => panic!("{other:?}"),
        };
        let signed = match z.lookup(&www, RrType::A, true) {
            LookupOutcome::Delegation(r) => r,
            other => panic!("{other:?}"),
        };
        assert!(plain.ds_records.is_empty());
        assert_eq!(signed.ds_records.len(), 2, "DS + RRSIG(DS)");
        let extra: usize = signed
            .ds_records
            .records()
            .iter()
            .map(|r| r.wire_size_estimate())
            .sum();
        assert!(
            extra > 256,
            "signed referral must grow by at least a signature"
        );
    }

    #[test]
    fn pseudo_bytes_deterministic() {
        assert_eq!(pseudo_bytes(64, 7), pseudo_bytes(64, 7));
        assert_ne!(pseudo_bytes(64, 7), pseudo_bytes(64, 8));
        assert_eq!(pseudo_bytes(13, 3).len(), 13);
    }
}
