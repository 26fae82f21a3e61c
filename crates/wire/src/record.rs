//! Resource records: a name, type, class, TTL, and rdata.

use std::fmt;

use crate::error::WireError;
use crate::name::{Name, NameRef};
use crate::rdata::RData;
use crate::rr::{RrClass, RrType};
use crate::wirebuf::{WireReader, WireWriter};

/// A DNS resource record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    pub name: Name,
    pub rtype: RrType,
    pub class: RrClass,
    pub ttl: u32,
    pub rdata: RData,
}

impl Record {
    /// Convenience constructor for `IN`-class records. The type is taken
    /// from the rdata when structurally implied.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Record {
        let rtype = rdata.implied_type().unwrap_or(RrType::Unknown(0));
        Record {
            name,
            rtype,
            class: RrClass::In,
            ttl,
            rdata,
        }
    }

    /// Constructor with an explicit type, required for `Unknown` rdata.
    pub fn with_type(name: Name, rtype: RrType, ttl: u32, rdata: RData) -> Record {
        Record {
            name,
            rtype,
            class: RrClass::In,
            ttl,
            rdata,
        }
    }

    /// Encodes the record, compressing names against the writer state.
    pub fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        encode_rr(
            w,
            self.name.as_name_ref(),
            self.rtype,
            self.class,
            self.ttl,
            &self.rdata,
        )
    }

    /// Decodes one record at the reader cursor.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Record, WireError> {
        let name = r.read_name()?;
        let rtype = RrType::from_code(r.read_u16("record type")?);
        let class = RrClass::from_code(r.read_u16("record class")?);
        let ttl = r.read_u32("record ttl")?;
        let rdlen = r.read_u16("rdlength")? as usize;
        let rdata = RData::decode(r, rtype, rdlen)?;
        Ok(Record {
            name,
            rtype,
            class,
            ttl,
            rdata,
        })
    }

    /// Approximate uncompressed wire size, used by response-size models.
    pub fn wire_size_estimate(&self) -> usize {
        self.name.wire_len() + 10 + self.rdata.wire_size_estimate()
    }
}

/// Encodes one resource record from its parts — the single record encoder
/// behind [`Record::encode`] and the answer paths that write zone data
/// without building `Record`s.
pub fn encode_rr(
    w: &mut WireWriter,
    owner: NameRef<'_>,
    rtype: RrType,
    class: RrClass,
    ttl: u32,
    rdata: &RData,
) -> Result<(), WireError> {
    w.put_name_ref(owner)?;
    w.put_u16(rtype.code());
    w.put_u16(class.code());
    w.put_u32(ttl);
    let len_at = w.len();
    w.put_u16(0); // RDLENGTH placeholder
    let rdata_start = w.len();
    rdata.encode(w)?;
    let rdlen = w.len() - rdata_start;
    w.patch_u16(
        len_at,
        u16::try_from(rdlen).map_err(|_| WireError::MessageTooLong(rdlen))?,
    );
    Ok(())
}

impl fmt::Display for Record {
    /// Master-file presentation: `name ttl class type rdata`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.name, self.ttl, self.class, self.rtype, self.rdata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::SoaData;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn record_roundtrip() {
        let rec = Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.1".parse().unwrap()),
        );
        let mut w = WireWriter::new();
        rec.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Record::decode(&mut r).unwrap(), rec);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn record_roundtrip_with_compression() {
        let recs = vec![
            Record::new(n("example.com"), 3600, RData::Ns(n("ns1.example.com"))),
            Record::new(n("example.com"), 3600, RData::Ns(n("ns2.example.com"))),
            Record::new(
                n("ns1.example.com"),
                3600,
                RData::A("192.0.2.53".parse().unwrap()),
            ),
        ];
        let mut w = WireWriter::new();
        for rec in &recs {
            rec.encode(&mut w).unwrap();
        }
        let bytes = w.into_bytes();
        // Compression must beat the naive encoding.
        let naive: usize = recs.iter().map(Record::wire_size_estimate).sum();
        assert!(bytes.len() < naive, "{} !< {naive}", bytes.len());
        let mut r = WireReader::new(&bytes);
        for rec in &recs {
            assert_eq!(&Record::decode(&mut r).unwrap(), rec);
        }
    }

    #[test]
    fn display_is_master_format() {
        let rec = Record::new(
            n("example.com"),
            3600,
            RData::Soa(SoaData {
                mname: n("ns1.example.com"),
                rname: n("admin.example.com"),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 5,
            }),
        );
        assert_eq!(
            rec.to_string(),
            "example.com. 3600 IN SOA ns1.example.com. admin.example.com. 1 2 3 4 5"
        );
    }

    #[test]
    fn unknown_type_needs_with_type() {
        let rec = Record::with_type(
            n("x.example"),
            RrType::Unknown(999),
            60,
            RData::Unknown(vec![9, 9]),
        );
        let mut w = WireWriter::new();
        rec.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let dec = Record::decode(&mut r).unwrap();
        assert_eq!(dec.rtype, RrType::Unknown(999));
        assert_eq!(dec.rdata, RData::Unknown(vec![9, 9]));
    }

    #[test]
    fn truncated_record_fails() {
        let rec = Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.1".parse().unwrap()),
        );
        let mut w = WireWriter::new();
        rec.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        for cut in 1..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(Record::decode(&mut r).is_err(), "cut at {cut} should fail");
        }
    }
}
