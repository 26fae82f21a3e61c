//! The customized internal binary stream (Figure 3 of the paper): the fast
//! replay input, with each message length-prefixed "to distinguish
//! different messages in the input stream".
//!
//! Frame layout (after a 4-byte `LDPS` magic):
//!
//! ```text
//! u32 frame_len | frame bytes
//! ```
//!
//! where the frame is:
//!
//! ```text
//! u64 time_us | u8 addr_kind | src ip | u16 src_port | u8 protocol
//!             | u16 wire_len | wire query bytes
//! ```
//!
//! Compared to [`crate::capture`], the stream drops the response direction
//! and destination (replay targets are chosen by the query engine), making
//! frames smaller and decode branch-free — this is the format the paper
//! pre-converts to so that "query manipulation does not limit replay times".

use std::io::{Read, Write};
use std::net::IpAddr;

use ldp_wire::Message;

use crate::record::{Direction, Protocol, TraceRecord};
use crate::TraceError;

const MAGIC: &[u8; 4] = b"LDPS";

/// Serializes one record into a stream frame (without the length prefix).
pub fn encode_frame(rec: &TraceRecord) -> Result<Vec<u8>, TraceError> {
    let wire = rec.message.to_bytes()?;
    let wire_len = u16::try_from(wire.len()).map_err(|_| TraceError::Oversize {
        what: "stream frame wire_len",
        len: wire.len(),
        max: u16::MAX as usize,
    })?;
    let mut buf = Vec::with_capacity(wire.len() + 32);
    buf.extend_from_slice(&rec.time_us.to_be_bytes());
    match rec.src {
        IpAddr::V4(a) => {
            buf.push(0);
            buf.extend_from_slice(&a.octets());
        }
        IpAddr::V6(a) => {
            buf.push(1);
            buf.extend_from_slice(&a.octets());
        }
    }
    buf.extend_from_slice(&rec.src_port.to_be_bytes());
    buf.push(rec.protocol.tag());
    buf.extend_from_slice(&wire_len.to_be_bytes());
    buf.extend_from_slice(&wire);
    Ok(buf)
}

/// Decodes one stream frame.
pub fn decode_frame(frame: &[u8]) -> Result<TraceRecord, TraceError> {
    let fail = |reason: &str| TraceError::Format {
        offset: 0,
        reason: reason.into(),
    };
    if frame.len() < 9 {
        return Err(fail("frame too short"));
    }
    let time_us = u64::from_be_bytes(frame[..8].try_into().unwrap());
    let mut pos = 8;
    let src: IpAddr = match frame[pos] {
        0 => {
            if frame.len() < pos + 5 {
                return Err(fail("short v4 addr"));
            }
            let a = IpAddr::from(<[u8; 4]>::try_from(&frame[pos + 1..pos + 5]).unwrap());
            pos += 5;
            a
        }
        1 => {
            if frame.len() < pos + 17 {
                return Err(fail("short v6 addr"));
            }
            let a = IpAddr::from(<[u8; 16]>::try_from(&frame[pos + 1..pos + 17]).unwrap());
            pos += 17;
            a
        }
        _ => return Err(fail("bad addr kind")),
    };
    if frame.len() < pos + 5 {
        return Err(fail("short frame tail"));
    }
    let src_port = u16::from_be_bytes([frame[pos], frame[pos + 1]]);
    let protocol = Protocol::from_tag(frame[pos + 2]).ok_or_else(|| fail("bad protocol tag"))?;
    let wire_len = u16::from_be_bytes([frame[pos + 3], frame[pos + 4]]) as usize;
    pos += 5;
    if frame.len() != pos + wire_len {
        return Err(fail("frame length mismatch"));
    }
    let message = Message::from_bytes(&frame[pos..])?;
    Ok(TraceRecord {
        time_us,
        src,
        src_port,
        dst: IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED),
        dst_port: ldp_wire::DNS_PORT,
        protocol,
        direction: Direction::Query,
        message,
    })
}

/// Streaming stream-file writer.
pub struct StreamWriter<W: Write> {
    inner: W,
    frames: u64,
}

impl<W: Write> StreamWriter<W> {
    pub fn new(mut inner: W) -> Result<Self, TraceError> {
        inner.write_all(MAGIC)?;
        Ok(StreamWriter { inner, frames: 0 })
    }

    pub fn write(&mut self, rec: &TraceRecord) -> Result<(), TraceError> {
        let frame = encode_frame(rec)?;
        let frame_len = u32::try_from(frame.len()).map_err(|_| TraceError::Oversize {
            what: "stream frame_len prefix",
            len: frame.len(),
            max: u32::MAX as usize,
        })?;
        self.inner.write_all(&frame_len.to_be_bytes())?;
        self.inner.write_all(&frame)?;
        self.frames += 1;
        Ok(())
    }

    pub fn frames(&self) -> u64 {
        self.frames
    }

    pub fn finish(mut self) -> Result<W, TraceError> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming stream-file reader.
///
/// The reader owns a scratch buffer reused for every frame, so steady-state
/// decoding allocates only what the decoded [`TraceRecord`] itself needs —
/// the per-record frame allocation is amortized away, which matters at the
/// millions-of-records scale the replay pipeline reads.
pub struct StreamReader<R: Read> {
    inner: R,
    offset: u64,
    /// Reusable frame buffer (the decode arena): grown on demand, never
    /// shrunk, so reads after warmup are allocation-free.
    scratch: Vec<u8>,
}

impl<R: Read> StreamReader<R> {
    pub fn new(mut inner: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 4];
        inner.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(TraceError::Format {
                offset: 0,
                reason: "bad stream magic".into(),
            });
        }
        Ok(StreamReader {
            inner,
            offset: 4,
            scratch: Vec::new(),
        })
    }

    /// Reads the next record; `Ok(None)` at clean EOF.
    pub fn read(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        let mut lenbuf = [0u8; 4];
        let mut got = 0;
        while got < 4 {
            let n = self.inner.read(&mut lenbuf[got..])?;
            if n == 0 {
                if got == 0 {
                    return Ok(None);
                }
                return Err(TraceError::Format {
                    offset: self.offset,
                    reason: "truncated length prefix".into(),
                });
            }
            got += n;
        }
        let len = u32::from_be_bytes(lenbuf) as usize;
        self.scratch.resize(len, 0);
        self.inner
            .read_exact(&mut self.scratch)
            .map_err(|_| TraceError::Format {
                offset: self.offset,
                reason: "truncated frame".into(),
            })?;
        self.offset += 4 + len as u64;
        decode_frame(&self.scratch).map(Some).map_err(|e| match e {
            TraceError::Format { reason, .. } => TraceError::Format {
                offset: self.offset,
                reason,
            },
            other => other,
        })
    }
}

impl<R: Read> Iterator for StreamReader<R> {
    type Item = Result<TraceRecord, TraceError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.read().transpose()
    }
}

/// Convenience: encode all records into stream bytes.
pub fn to_bytes(records: &[TraceRecord]) -> Result<Vec<u8>, TraceError> {
    let mut w = StreamWriter::new(Vec::new())?;
    for r in records {
        w.write(r)?;
    }
    w.finish()
}

/// Convenience: decode all records from stream bytes.
pub fn from_bytes(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
    StreamReader::new(bytes)?.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_wire::{Name, RrType};

    fn sample(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let mut rec = TraceRecord::udp_query(
                    i as u64 * 1000,
                    format!("10.0.{}.{}", i / 250, i % 250 + 1).parse().unwrap(),
                    (40000 + i) as u16,
                    Name::parse(&format!("q{i}.example.com")).unwrap(),
                    RrType::A,
                );
                if i % 3 == 0 {
                    rec.protocol = Protocol::Tcp;
                }
                rec
            })
            .collect()
    }

    fn normalize(mut r: TraceRecord) -> TraceRecord {
        // The stream format intentionally drops the destination.
        r.dst = IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED);
        r.dst_port = ldp_wire::DNS_PORT;
        r
    }

    #[test]
    fn roundtrip() {
        let recs = sample(50);
        let bytes = to_bytes(&recs).unwrap();
        let back = from_bytes(&bytes).unwrap();
        let expect: Vec<_> = recs.into_iter().map(normalize).collect();
        assert_eq!(back, expect);
    }

    #[test]
    fn v6_roundtrip() {
        let mut rec = TraceRecord::udp_query(
            5,
            "2001:db8::7".parse().unwrap(),
            1234,
            Name::parse("v6.test").unwrap(),
            RrType::Aaaa,
        );
        rec.protocol = Protocol::Tls;
        let bytes = to_bytes(std::slice::from_ref(&rec)).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back[0].src, rec.src);
        assert_eq!(back[0].protocol, Protocol::Tls);
    }

    #[test]
    fn truncation_reported() {
        let bytes = to_bytes(&sample(3)).unwrap();
        let res = from_bytes(&bytes[..bytes.len() - 3]);
        assert!(res.is_err());
    }

    #[test]
    fn bad_magic() {
        assert!(from_bytes(b"XXXX").is_err());
    }

    #[test]
    fn empty_stream() {
        let bytes = to_bytes(&[]).unwrap();
        assert!(from_bytes(&bytes).unwrap().is_empty());
    }

    #[test]
    fn frame_is_smaller_than_capture_frame() {
        let recs = sample(100);
        let stream = to_bytes(&recs).unwrap();
        let capture = crate::capture::to_bytes(&recs).unwrap();
        assert!(
            stream.len() < capture.len(),
            "{} !< {}",
            stream.len(),
            capture.len()
        );
    }
}
