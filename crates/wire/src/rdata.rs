//! Resource record data (RDATA) for the record types LDplayer understands.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::error::WireError;
use crate::name::Name;
use crate::rr::RrType;
use crate::wirebuf::{WireReader, WireWriter};

/// SOA rdata fields (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SoaData {
    pub mname: Name,
    pub rname: Name,
    pub serial: u32,
    pub refresh: u32,
    pub retry: u32,
    pub expire: u32,
    pub minimum: u32,
}

/// Decoded RDATA.
///
/// Types the zone constructor and servers reason about get structured
/// variants; anything else is preserved verbatim in [`RData::Unknown`] so
/// that replayed responses keep their original sizes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Ns(Name),
    Cname(Name),
    Ptr(Name),
    Soa(SoaData),
    Mx {
        preference: u16,
        exchange: Name,
    },
    Txt(Vec<Vec<u8>>),
    Srv {
        priority: u16,
        weight: u16,
        port: u16,
        target: Name,
    },
    /// DNSKEY (RFC 4034 §2). `public_key` carries the raw key bytes; for
    /// synthetic DNSSEC experiments its length models the key size.
    Dnskey {
        flags: u16,
        protocol: u8,
        algorithm: u8,
        public_key: Vec<u8>,
    },
    /// RRSIG (RFC 4034 §3). The signature length models the ZSK size in the
    /// DNSSEC what-if experiments (§5.1 of the paper).
    Rrsig {
        type_covered: RrType,
        algorithm: u8,
        labels: u8,
        original_ttl: u32,
        expiration: u32,
        inception: u32,
        key_tag: u16,
        signer: Name,
        signature: Vec<u8>,
    },
    /// DS (RFC 4034 §5).
    Ds {
        key_tag: u16,
        algorithm: u8,
        digest_type: u8,
        digest: Vec<u8>,
    },
    /// NSEC (RFC 4034 §4); the bitmap is kept raw.
    Nsec {
        next: Name,
        type_bitmaps: Vec<u8>,
    },
    /// Anything else, kept as raw bytes keyed by the record type.
    Unknown(Vec<u8>),
}

impl RData {
    /// The record type this rdata belongs with, when structurally implied.
    /// `Unknown` and `Txt`-like variants rely on the enclosing record's type.
    pub fn implied_type(&self) -> Option<RrType> {
        Some(match self {
            RData::A(_) => RrType::A,
            RData::Aaaa(_) => RrType::Aaaa,
            RData::Ns(_) => RrType::Ns,
            RData::Cname(_) => RrType::Cname,
            RData::Ptr(_) => RrType::Ptr,
            RData::Soa(_) => RrType::Soa,
            RData::Mx { .. } => RrType::Mx,
            RData::Txt(_) => RrType::Txt,
            RData::Srv { .. } => RrType::Srv,
            RData::Dnskey { .. } => RrType::Dnskey,
            RData::Rrsig { .. } => RrType::Rrsig,
            RData::Ds { .. } => RrType::Ds,
            RData::Nsec { .. } => RrType::Nsec,
            RData::Unknown(_) => return None,
        })
    }

    /// Encodes rdata into `w` (without the RDLENGTH prefix; the caller
    /// patches that afterwards because compression makes lengths dynamic).
    pub fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        match self {
            RData::A(a) => w.put_ipv4(*a),
            RData::Aaaa(a) => w.put_ipv6(*a),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => w.put_name(n)?,
            RData::Soa(soa) => {
                w.put_name(&soa.mname)?;
                w.put_name(&soa.rname)?;
                w.put_u32(soa.serial);
                w.put_u32(soa.refresh);
                w.put_u32(soa.retry);
                w.put_u32(soa.expire);
                w.put_u32(soa.minimum);
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                w.put_u16(*preference);
                w.put_name(exchange)?;
            }
            RData::Txt(strings) => {
                for s in strings {
                    let len = u8::try_from(s.len())
                        .map_err(|_| WireError::BadText("TXT string over 255 bytes".into()))?;
                    w.put_u8(len);
                    w.put_slice(s);
                }
            }
            RData::Srv {
                priority,
                weight,
                port,
                target,
            } => {
                w.put_u16(*priority);
                w.put_u16(*weight);
                w.put_u16(*port);
                // RFC 2782: target must not be compressed.
                w.put_name_uncompressed(target.as_name_ref())?;
            }
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                public_key,
            } => {
                w.put_u16(*flags);
                w.put_u8(*protocol);
                w.put_u8(*algorithm);
                w.put_slice(public_key);
            }
            RData::Rrsig {
                type_covered,
                algorithm,
                labels,
                original_ttl,
                expiration,
                inception,
                key_tag,
                signer,
                signature,
            } => {
                w.put_u16(type_covered.code());
                w.put_u8(*algorithm);
                w.put_u8(*labels);
                w.put_u32(*original_ttl);
                w.put_u32(*expiration);
                w.put_u32(*inception);
                w.put_u16(*key_tag);
                // RFC 4034 §3.1.7: signer name is never compressed.
                w.put_name_uncompressed(signer.as_name_ref())?;
                w.put_slice(signature);
            }
            RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => {
                w.put_u16(*key_tag);
                w.put_u8(*algorithm);
                w.put_u8(*digest_type);
                w.put_slice(digest);
            }
            RData::Nsec { next, type_bitmaps } => {
                w.put_name_uncompressed(next.as_name_ref())?;
                w.put_slice(type_bitmaps);
            }
            RData::Unknown(raw) => w.put_slice(raw),
        }
        Ok(())
    }

    /// Decodes `rdlen` bytes of rdata of type `rtype` from `r`. The reader
    /// must be positioned at the start of the rdata; on success it is
    /// positioned exactly at its end.
    pub fn decode(r: &mut WireReader<'_>, rtype: RrType, rdlen: usize) -> Result<RData, WireError> {
        let start = r.position();
        let end = start + rdlen;
        if r.remaining() < rdlen {
            return Err(WireError::Truncated { context: "rdata" });
        }
        let data = match rtype {
            RrType::A => RData::A(r.read_ipv4()?),
            RrType::Aaaa => RData::Aaaa(r.read_ipv6()?),
            RrType::Ns => RData::Ns(r.read_name()?),
            RrType::Cname => RData::Cname(r.read_name()?),
            RrType::Ptr => RData::Ptr(r.read_name()?),
            RrType::Soa => RData::Soa(SoaData {
                mname: r.read_name()?,
                rname: r.read_name()?,
                serial: r.read_u32("soa serial")?,
                refresh: r.read_u32("soa refresh")?,
                retry: r.read_u32("soa retry")?,
                expire: r.read_u32("soa expire")?,
                minimum: r.read_u32("soa minimum")?,
            }),
            RrType::Mx => RData::Mx {
                preference: r.read_u16("mx preference")?,
                exchange: r.read_name()?,
            },
            RrType::Txt => {
                let mut strings = Vec::new();
                while r.position() < end {
                    let len = r.read_u8("txt length")? as usize;
                    if r.position() + len > end {
                        return Err(WireError::Truncated {
                            context: "txt string",
                        });
                    }
                    strings.push(r.read_bytes(len, "txt string")?.to_vec());
                }
                RData::Txt(strings)
            }
            RrType::Srv => RData::Srv {
                priority: r.read_u16("srv priority")?,
                weight: r.read_u16("srv weight")?,
                port: r.read_u16("srv port")?,
                target: r.read_name()?,
            },
            RrType::Dnskey => {
                let flags = r.read_u16("dnskey flags")?;
                let protocol = r.read_u8("dnskey protocol")?;
                let algorithm = r.read_u8("dnskey algorithm")?;
                let keylen = end
                    .checked_sub(r.position())
                    .ok_or(WireError::BadRdataLength {
                        expected: rdlen,
                        actual: r.position() - start,
                    })?;
                RData::Dnskey {
                    flags,
                    protocol,
                    algorithm,
                    public_key: r.read_bytes(keylen, "dnskey key")?.to_vec(),
                }
            }
            RrType::Rrsig => {
                let type_covered = RrType::from_code(r.read_u16("rrsig covered")?);
                let algorithm = r.read_u8("rrsig algorithm")?;
                let labels = r.read_u8("rrsig labels")?;
                let original_ttl = r.read_u32("rrsig ttl")?;
                let expiration = r.read_u32("rrsig expiration")?;
                let inception = r.read_u32("rrsig inception")?;
                let key_tag = r.read_u16("rrsig key tag")?;
                let signer = r.read_name()?;
                let siglen = end
                    .checked_sub(r.position())
                    .ok_or(WireError::BadRdataLength {
                        expected: rdlen,
                        actual: r.position() - start,
                    })?;
                RData::Rrsig {
                    type_covered,
                    algorithm,
                    labels,
                    original_ttl,
                    expiration,
                    inception,
                    key_tag,
                    signer,
                    signature: r.read_bytes(siglen, "rrsig signature")?.to_vec(),
                }
            }
            RrType::Ds => {
                let key_tag = r.read_u16("ds key tag")?;
                let algorithm = r.read_u8("ds algorithm")?;
                let digest_type = r.read_u8("ds digest type")?;
                let dlen = end
                    .checked_sub(r.position())
                    .ok_or(WireError::BadRdataLength {
                        expected: rdlen,
                        actual: r.position() - start,
                    })?;
                RData::Ds {
                    key_tag,
                    algorithm,
                    digest_type,
                    digest: r.read_bytes(dlen, "ds digest")?.to_vec(),
                }
            }
            RrType::Nsec => {
                let next = r.read_name()?;
                let blen = end
                    .checked_sub(r.position())
                    .ok_or(WireError::BadRdataLength {
                        expected: rdlen,
                        actual: r.position() - start,
                    })?;
                RData::Nsec {
                    next,
                    type_bitmaps: r.read_bytes(blen, "nsec bitmap")?.to_vec(),
                }
            }
            _ => RData::Unknown(r.read_bytes(rdlen, "unknown rdata")?.to_vec()),
        };
        if r.position() != end {
            return Err(WireError::BadRdataLength {
                expected: rdlen,
                actual: r.position() - start,
            });
        }
        Ok(data)
    }

    /// Approximate uncompressed rdata size in bytes (used by response-size
    /// models before encoding).
    pub fn wire_size_estimate(&self) -> usize {
        match self {
            RData::A(_) => 4,
            RData::Aaaa(_) => 16,
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.wire_len(),
            RData::Soa(s) => s.mname.wire_len() + s.rname.wire_len() + 20,
            RData::Mx { exchange, .. } => 2 + exchange.wire_len(),
            RData::Txt(v) => v.iter().map(|s| 1 + s.len()).sum(),
            RData::Srv { target, .. } => 6 + target.wire_len(),
            RData::Dnskey { public_key, .. } => 4 + public_key.len(),
            RData::Rrsig {
                signer, signature, ..
            } => 18 + signer.wire_len() + signature.len(),
            RData::Ds { digest, .. } => 4 + digest.len(),
            RData::Nsec { next, type_bitmaps } => next.wire_len() + type_bitmaps.len(),
            RData::Unknown(raw) => raw.len(),
        }
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => write!(f, "{n}"),
            RData::Soa(s) => write!(
                f,
                "{} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RData::Txt(strings) => {
                let mut first = true;
                for s in strings {
                    if !first {
                        f.write_str(" ")?;
                    }
                    first = false;
                    write!(f, "\"{}\"", escape_txt(s))?;
                }
                Ok(())
            }
            RData::Srv {
                priority,
                weight,
                port,
                target,
            } => write!(f, "{priority} {weight} {port} {target}"),
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                public_key,
            } => write!(
                f,
                "{flags} {protocol} {algorithm} {}",
                hex(public_key)
            ),
            RData::Rrsig {
                type_covered,
                algorithm,
                labels,
                original_ttl,
                expiration,
                inception,
                key_tag,
                signer,
                signature,
            } => write!(
                f,
                "{type_covered} {algorithm} {labels} {original_ttl} {expiration} {inception} {key_tag} {signer} {}",
                hex(signature)
            ),
            RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => write!(f, "{key_tag} {algorithm} {digest_type} {}", hex(digest)),
            RData::Nsec { next, type_bitmaps } => {
                write!(f, "{next} {}", hex(type_bitmaps))
            }
            RData::Unknown(raw) => write!(f, "\\# {} {}", raw.len(), hex(raw)),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn escape_txt(s: &[u8]) -> String {
    let mut out = String::new();
    for &b in s {
        match b {
            b'"' | b'\\' => {
                out.push('\\');
                out.push(b as char);
            }
            0x20..=0x7e => out.push(b as char),
            _ => out.push_str(&format!("\\{b:03}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn roundtrip(rd: &RData, rtype: RrType) -> RData {
        let mut w = WireWriter::new();
        rd.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        RData::decode(&mut r, rtype, bytes.len()).unwrap()
    }

    #[test]
    fn a_roundtrip() {
        let rd = RData::A("192.0.2.7".parse().unwrap());
        assert_eq!(roundtrip(&rd, RrType::A), rd);
        assert_eq!(rd.wire_size_estimate(), 4);
    }

    #[test]
    fn aaaa_roundtrip() {
        let rd = RData::Aaaa("2001:db8::1".parse().unwrap());
        assert_eq!(roundtrip(&rd, RrType::Aaaa), rd);
        assert_eq!(rd.wire_size_estimate(), 16);
    }

    #[test]
    fn soa_roundtrip() {
        let rd = RData::Soa(SoaData {
            mname: n("ns1.example.com"),
            rname: n("hostmaster.example.com"),
            serial: 2024010101,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        });
        assert_eq!(roundtrip(&rd, RrType::Soa), rd);
    }

    #[test]
    fn mx_srv_txt_roundtrip() {
        let mx = RData::Mx {
            preference: 10,
            exchange: n("mail.example.com"),
        };
        assert_eq!(roundtrip(&mx, RrType::Mx), mx);
        let srv = RData::Srv {
            priority: 1,
            weight: 5,
            port: 443,
            target: n("svc.example.com"),
        };
        assert_eq!(roundtrip(&srv, RrType::Srv), srv);
        let txt = RData::Txt(vec![b"v=spf1 -all".to_vec(), b"second".to_vec()]);
        assert_eq!(roundtrip(&txt, RrType::Txt), txt);
    }

    #[test]
    fn txt_string_too_long_rejected() {
        let txt = RData::Txt(vec![vec![b'x'; 256]]);
        let mut w = WireWriter::new();
        assert!(txt.encode(&mut w).is_err());
    }

    #[test]
    fn dnssec_roundtrips() {
        let dnskey = RData::Dnskey {
            flags: 256,
            protocol: 3,
            algorithm: 8,
            public_key: vec![0xAB; 128],
        };
        assert_eq!(roundtrip(&dnskey, RrType::Dnskey), dnskey);

        let rrsig = RData::Rrsig {
            type_covered: RrType::A,
            algorithm: 8,
            labels: 2,
            original_ttl: 3600,
            expiration: 1735689600,
            inception: 1733011200,
            key_tag: 12345,
            signer: n("example.com"),
            signature: vec![0xCD; 256],
        };
        assert_eq!(roundtrip(&rrsig, RrType::Rrsig), rrsig);

        let ds = RData::Ds {
            key_tag: 60485,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0xEF; 32],
        };
        assert_eq!(roundtrip(&ds, RrType::Ds), ds);

        let nsec = RData::Nsec {
            next: n("b.example.com"),
            type_bitmaps: vec![0, 6, 0x40, 0x01, 0, 0, 0, 3],
        };
        assert_eq!(roundtrip(&nsec, RrType::Nsec), nsec);
    }

    #[test]
    fn unknown_preserved() {
        let rd = RData::Unknown(vec![1, 2, 3, 4, 5]);
        assert_eq!(roundtrip(&rd, RrType::Unknown(999)), rd);
        assert_eq!(rd.wire_size_estimate(), 5);
    }

    #[test]
    fn rdlen_mismatch_detected() {
        // Claim 5 bytes of A rdata; decoder reads 4 and must flag mismatch.
        let bytes = [192, 0, 2, 1, 99];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            RData::decode(&mut r, RrType::A, 5),
            Err(WireError::BadRdataLength { .. })
        ));
    }

    #[test]
    fn truncated_rdata_detected() {
        let bytes = [192, 0];
        let mut r = WireReader::new(&bytes);
        assert!(RData::decode(&mut r, RrType::A, 4).is_err());
    }

    #[test]
    fn implied_types() {
        assert_eq!(
            RData::A("192.0.2.1".parse().unwrap()).implied_type(),
            Some(RrType::A)
        );
        assert_eq!(RData::Unknown(vec![]).implied_type(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            RData::A("192.0.2.1".parse().unwrap()).to_string(),
            "192.0.2.1"
        );
        let txt = RData::Txt(vec![b"a\"b".to_vec()]);
        assert_eq!(txt.to_string(), "\"a\\\"b\"");
    }
}
