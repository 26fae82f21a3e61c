//! EDNS0 (RFC 6891): the OPT pseudo-record.
//!
//! EDNS matters to LDplayer because the DNSSEC what-if experiments (§5.1 of
//! the paper) toggle the DO bit and because the advertised UDP payload size
//! determines whether large signed responses truncate.

use crate::error::WireError;
use crate::name::Name;
use crate::rr::RrType;
use crate::wirebuf::{WireReader, WireWriter};

/// A single EDNS option (code + opaque payload).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EdnsOption {
    pub code: u16,
    pub data: Vec<u8>,
}

/// Decoded EDNS0 state carried in a message's OPT record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Edns {
    /// Advertised maximum UDP payload size (the OPT record's CLASS field).
    pub udp_payload_size: u16,
    /// Extended RCODE upper bits (OPT TTL bits 24–31).
    pub extended_rcode: u8,
    /// EDNS version (OPT TTL bits 16–23); always 0 in practice.
    pub version: u8,
    /// DNSSEC OK: the requester wants DNSSEC records (OPT TTL bit 15).
    pub dnssec_ok: bool,
    /// Remaining flag bits (OPT TTL bits 0–14), preserved verbatim.
    pub z_flags: u16,
    pub options: Vec<EdnsOption>,
}

impl Default for Edns {
    fn default() -> Self {
        Edns {
            udp_payload_size: crate::DEFAULT_EDNS_PAYLOAD,
            extended_rcode: 0,
            version: 0,
            dnssec_ok: false,
            z_flags: 0,
            options: Vec::new(),
        }
    }
}

impl Edns {
    /// An EDNS block with the DO bit set, as sent by DNSSEC-aware resolvers.
    pub fn with_do() -> Self {
        Edns {
            dnssec_ok: true,
            ..Edns::default()
        }
    }

    /// Encodes the OPT pseudo-record (owner is always the root name).
    pub fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_name(&Name::root())?;
        w.put_u16(RrType::Opt.code());
        w.put_u16(self.udp_payload_size);
        let ttl: u32 = (u32::from(self.extended_rcode) << 24)
            | (u32::from(self.version) << 16)
            | (u32::from(self.dnssec_ok) << 15)
            | (u32::from(self.z_flags) & 0x7FFF);
        w.put_u32(ttl);
        let len_at = w.len();
        w.put_u16(0);
        let start = w.len();
        for opt in &self.options {
            w.put_u16(opt.code);
            let opt_len = u16::try_from(opt.data.len())
                .map_err(|_| WireError::MessageTooLong(opt.data.len()))?;
            w.put_u16(opt_len);
            w.put_slice(&opt.data);
        }
        let rdlen = w.len() - start;
        w.patch_u16(
            len_at,
            u16::try_from(rdlen).map_err(|_| WireError::MessageTooLong(rdlen))?,
        );
        Ok(())
    }

    /// Decodes the body of an OPT record whose name/type have already been
    /// consumed. `class_field` and `ttl_field` are the raw CLASS/TTL values.
    pub fn decode_body(
        r: &mut WireReader<'_>,
        class_field: u16,
        ttl_field: u32,
    ) -> Result<Edns, WireError> {
        let mut options = Vec::new();
        read_opt_options(r, |code, data| {
            options.push(EdnsOption {
                code,
                data: data.to_vec(),
            })
        })?;
        Ok(Edns {
            udp_payload_size: class_field,
            extended_rcode: (ttl_field >> 24) as u8, // ldp-lint: allow(r2) -- high byte of TTL field
            version: (ttl_field >> 16) as u8, // ldp-lint: allow(r2) -- byte 2 of TTL field, truncation intended
            dnssec_ok: (ttl_field >> 15) & 1 == 1,
            z_flags: (ttl_field & 0x7FFF) as u16, // ldp-lint: allow(r2) -- masked to 15 bits
            options,
        })
    }

    /// Wire size of the encoded OPT record.
    pub fn wire_size(&self) -> usize {
        11 + self.options.iter().map(|o| 4 + o.data.len()).sum::<usize>()
    }
}

/// Reads the OPT rdata at the cursor (RDLENGTH first), handing each
/// option's code and data to `each`.
pub(crate) fn read_opt_options<'a>(
    r: &mut WireReader<'a>,
    mut each: impl FnMut(u16, &'a [u8]),
) -> Result<(), WireError> {
    let rdlen = r.read_u16("opt rdlength")? as usize;
    let end = r.position() + rdlen;
    if r.remaining() < rdlen {
        return Err(WireError::Truncated {
            context: "opt rdata",
        });
    }
    while r.position() < end {
        let code = r.read_u16("opt option code")?;
        let len = r.read_u16("opt option length")? as usize;
        if r.position() + len > end {
            return Err(WireError::Truncated {
                context: "opt option data",
            });
        }
        each(code, r.read_bytes(len, "opt option data")?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: &Edns) -> Edns {
        let mut w = WireWriter::new();
        e.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        // Skip name, type.
        let name = r.read_name().unwrap();
        assert!(name.is_root());
        assert_eq!(r.read_u16("type").unwrap(), RrType::Opt.code());
        let class = r.read_u16("class").unwrap();
        let ttl = r.read_u32("ttl").unwrap();
        Edns::decode_body(&mut r, class, ttl).unwrap()
    }

    #[test]
    fn default_roundtrip() {
        let e = Edns::default();
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn do_bit_roundtrip() {
        let e = Edns::with_do();
        assert!(e.dnssec_ok);
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn options_roundtrip() {
        let e = Edns {
            udp_payload_size: 1232,
            extended_rcode: 1,
            version: 0,
            dnssec_ok: true,
            z_flags: 0,
            options: vec![
                EdnsOption {
                    code: 10, // COOKIE
                    data: vec![1, 2, 3, 4, 5, 6, 7, 8],
                },
                EdnsOption {
                    code: 12, // PADDING
                    data: vec![0; 16],
                },
            ],
        };
        assert_eq!(roundtrip(&e), e);
        assert_eq!(e.wire_size(), 11 + 12 + 20);
    }

    #[test]
    fn truncated_option_rejected() {
        let e = Edns {
            options: vec![EdnsOption {
                code: 10,
                data: vec![1, 2, 3, 4],
            }],
            ..Edns::default()
        };
        let mut w = WireWriter::new();
        e.encode(&mut w).unwrap();
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 2);
        let mut r = WireReader::new(&bytes);
        r.read_name().unwrap();
        r.read_u16("type").unwrap();
        let class = r.read_u16("class").unwrap();
        let ttl = r.read_u32("ttl").unwrap();
        assert!(Edns::decode_body(&mut r, class, ttl).is_err());
    }
}
