//! Low-level wire buffer reader/writer with DNS name compression.
//!
//! [`WireWriter`] tracks name offsets already emitted and compresses later
//! occurrences with pointers (RFC 1035 §4.1.4). [`WireReader`] resolves
//! pointers with a hop limit to reject loops.

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::error::WireError;
use crate::name::{Name, NameBuf, NameRef};

/// Maximum pointer hops while decompressing one name; real messages need a
/// handful, so this comfortably rejects loops without false positives.
const MAX_POINTER_HOPS: usize = 64;

/// Name positions kept inline before the table spills to the heap; a
/// referral or an answer with its glue records a few dozen.
const INLINE_NAME_OFFSETS: usize = 64;

/// Where the compressible name suffixes of a message start.
///
/// One entry per label written literally by [`WireWriter::put_name`]: the
/// message offset of its length octet, which begins the suffix made of
/// that label and everything after it. Only offsets < 0x4000 fit in a
/// pointer, so only those are kept.
#[derive(Debug, Clone)]
struct NameTable {
    inline: [u16; INLINE_NAME_OFFSETS],
    len: usize,
    spill: Vec<u16>,
}

impl Default for NameTable {
    fn default() -> Self {
        NameTable {
            inline: [0; INLINE_NAME_OFFSETS],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl NameTable {
    fn push(&mut self, offset: u16) {
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = offset;
                self.len += 1;
            }
            None => self.spill.push(offset),
        }
    }

    fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.inline[..self.len]
            .iter()
            .chain(self.spill.iter())
            .copied()
    }

    /// Forgets every position at or after `end` (the message was cut
    /// back to `end` bytes).
    fn forget_from(&mut self, end: usize) {
        self.spill.retain(|&o| usize::from(o) < end);
        while self.len > 0 && usize::from(self.inline[self.len - 1]) >= end {
            self.len -= 1;
        }
    }
}

/// Output buffer that records name positions for compression.
///
/// The message may start part-way into the buffer (see
/// [`WireWriter::append_to`]): every offset the writer deals in — its
/// length, patch positions, compression pointers — is relative to the
/// message start.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// Where the message starts in `buf`.
    base: usize,
    names: NameTable,
    /// When false, names are always written uncompressed (ablation knob).
    compress: bool,
}

impl WireWriter {
    /// New writer with compression enabled.
    pub fn new() -> Self {
        WireWriter::with_capacity(512)
    }

    /// New writer with compression enabled and room for `capacity` bytes.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        WireWriter::append_to(Vec::with_capacity(capacity))
    }

    /// New writer with compression disabled.
    pub fn uncompressed() -> Self {
        WireWriter {
            compress: false,
            ..WireWriter::new()
        }
    }

    /// A compressing writer whose message starts at the end of `buf`:
    /// what `buf` already holds is kept, and [`WireWriter::into_bytes`]
    /// hands back the whole buffer. Writing into a reused buffer this way
    /// allocates nothing once the buffer has grown to size.
    pub fn append_to(buf: Vec<u8>) -> Self {
        WireWriter {
            base: buf.len(),
            buf,
            names: NameTable::default(),
            compress: true,
        }
    }

    /// Message bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - self.base
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the writer, returning the buffer (with anything it held
    /// before the message).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The message written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.base..]
    }

    /// Cuts the message back to its first `len` bytes, forgetting the
    /// name positions past the cut.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(self.base + len);
        self.names.forget_from(len);
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub fn put_ipv4(&mut self, v: Ipv4Addr) {
        self.buf.extend_from_slice(&v.octets());
    }

    pub fn put_ipv6(&mut self, v: Ipv6Addr) {
        self.buf.extend_from_slice(&v.octets());
    }

    /// Overwrites the two bytes at message offset `offset` (used to patch
    /// RDLENGTH after the rdata is written, since compression makes
    /// lengths unpredictable). Offsets past the end are ignored.
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        let at = self.base + offset;
        if let Some(dst) = self.buf.get_mut(at..at + 2) {
            dst.copy_from_slice(&v.to_be_bytes());
        }
    }

    /// Writes a domain name, compressing against previously written names
    /// when enabled.
    pub fn put_name(&mut self, name: &Name) -> Result<(), WireError> {
        self.put_name_ref(name.as_name_ref())
    }

    /// [`WireWriter::put_name`] for a borrowed name.
    ///
    /// Compression rule: the longest suffix of `name` already written as a
    /// name (or name tail) becomes a pointer to its first occurrence; each
    /// label written literally before it records its own position for
    /// later names. Names inside rdata that must not be compressed go
    /// through [`WireWriter::put_name_uncompressed`] and record nothing.
    pub fn put_name_ref(&mut self, name: NameRef<'_>) -> Result<(), WireError> {
        if !self.compress {
            return self.put_name_uncompressed(name);
        }
        for suffix in name.suffixes() {
            let Some(label) = suffix.first_label() else {
                break; // the root: written as the terminator below
            };
            if let Some(off) = self.find_suffix(suffix.as_wire()) {
                self.put_u16(0xC000 | off);
                return Ok(());
            }
            if let Ok(off) = u16::try_from(self.len()) {
                if off < 0x4000 {
                    self.names.push(off);
                }
            }
            self.put_label(label)?;
        }
        self.put_u8(0);
        Ok(())
    }

    /// Writes a name in full, neither compressing it nor recording it as
    /// a compression target (required for RRSIG signer, NSEC next and SRV
    /// target names: RFC 4034 §3.1.7, §4.1.1; RFC 2782).
    pub fn put_name_uncompressed(&mut self, name: NameRef<'_>) -> Result<(), WireError> {
        for label in name.labels() {
            self.put_label(label)?;
        }
        self.put_u8(0);
        Ok(())
    }

    fn put_label(&mut self, label: &[u8]) -> Result<(), WireError> {
        // `Name` guarantees labels ≤ 63 octets; re-check here so a future
        // unvalidated constructor cannot emit a corrupt length octet
        // (values ≥ 64 would decode as pointers or bad label types).
        let len = u8::try_from(label.len())
            .ok()
            .filter(|&l| l <= 63)
            .ok_or(WireError::LabelTooLong(label.len()))?;
        self.put_u8(len);
        self.put_slice(label);
        Ok(())
    }

    /// The recorded position whose name tail spells exactly `suffix`.
    fn find_suffix(&self, suffix: &[u8]) -> Option<u16> {
        let msg = self.as_slice();
        self.names
            .iter()
            .find(|&off| tail_equals(msg, usize::from(off), suffix))
    }
}

/// True when the name tail starting at `pos` of `msg` (following
/// pointers) is exactly the label sequence `suffix`.
fn tail_equals(msg: &[u8], mut pos: usize, mut suffix: &[u8]) -> bool {
    let mut hops = 0usize;
    loop {
        let Some(&len) = msg.get(pos) else {
            return false;
        };
        if len & 0xC0 == 0xC0 {
            let Some(&low) = msg.get(pos + 1) else {
                return false;
            };
            hops += 1;
            if hops > MAX_POINTER_HOPS {
                return false;
            }
            pos = usize::from(u16::from(len & 0x3F) << 8 | u16::from(low));
            continue;
        }
        if len == 0 {
            return suffix.is_empty();
        }
        let end = pos + 1 + usize::from(len);
        match (msg.get(pos..end), suffix.get(..end - pos)) {
            (Some(a), Some(b)) if a == b => {}
            _ => return false,
        }
        suffix = &suffix[end - pos..];
        pos = end;
    }
}

/// Cursor over a received message. Keeps the whole message around so
/// compression pointers can be chased.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    msg: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// New reader positioned at the start of `msg`.
    pub fn new(msg: &'a [u8]) -> Self {
        WireReader { msg, pos: 0 }
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.msg.len().saturating_sub(self.pos)
    }

    /// Moves the cursor to an absolute position.
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.msg.len() {
            return Err(WireError::Truncated { context: "seek" });
        }
        self.pos = pos;
        Ok(())
    }

    pub fn read_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        if self.pos >= self.msg.len() {
            return Err(WireError::Truncated { context });
        }
        let v = self.msg[self.pos];
        self.pos += 1;
        Ok(v)
    }

    pub fn read_u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.read_bytes(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub fn read_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.read_bytes(4, context)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn read_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let s = &self.msg[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn read_ipv4(&mut self) -> Result<Ipv4Addr, WireError> {
        let b = self.read_bytes(4, "ipv4")?;
        Ok(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
    }

    pub fn read_ipv6(&mut self) -> Result<Ipv6Addr, WireError> {
        let b = self.read_bytes(16, "ipv6")?;
        let mut o = [0u8; 16];
        o.copy_from_slice(b);
        Ok(Ipv6Addr::from(o))
    }

    /// Reads a (possibly compressed) domain name at the cursor. The cursor
    /// advances past the name's first pointer or terminating root label;
    /// pointer targets are followed without moving the cursor further.
    pub fn read_name(&mut self) -> Result<Name, WireError> {
        let mut buf = NameBuf::new();
        self.read_name_into(&mut buf)?;
        Ok(buf.as_name_ref().to_name())
    }

    /// [`WireReader::read_name`] into a caller-owned buffer: lowercased,
    /// uncompressed, and without allocating.
    pub fn read_name_into(&mut self, out: &mut NameBuf) -> Result<(), WireError> {
        out.clear();
        let mut pos = self.pos;
        // After the first pointer, the cursor no longer tracks `pos`.
        let mut cursor_done = false;
        let mut hops = 0usize;
        // Wire length so far (labels plus the root octet); past 255 the
        // name is rejected, but only once it has been read to its end, so
        // a malformed tail still reports its own error first.
        let mut wire_len = 1usize;
        loop {
            if pos >= self.msg.len() {
                return Err(WireError::Truncated { context: "name" });
            }
            let len = self.msg[pos];
            match len & 0xC0 {
                0x00 => {
                    if len == 0 {
                        pos += 1;
                        if !cursor_done {
                            self.pos = pos;
                        }
                        if wire_len > crate::name::MAX_NAME_LEN {
                            return Err(WireError::NameTooLong(wire_len));
                        }
                        return Ok(());
                    }
                    let start = pos + 1;
                    let end = start + len as usize;
                    if end > self.msg.len() {
                        return Err(WireError::Truncated { context: "label" });
                    }
                    wire_len += 1 + usize::from(len);
                    if wire_len <= crate::name::MAX_NAME_LEN {
                        out.push_label(&self.msg[start..end]);
                    }
                    pos = end;
                }
                0xC0 => {
                    if pos + 1 >= self.msg.len() {
                        return Err(WireError::Truncated { context: "pointer" });
                    }
                    // 14-bit offset: low bits of the length octet, then the
                    // next octet. Assembled as u16 so it can never be lossy.
                    let target = u16::from(len & 0x3F) << 8 | u16::from(self.msg[pos + 1]);
                    // Pointers must point strictly backwards to already-seen
                    // data; forward pointers are malformed and can loop.
                    if usize::from(target) >= pos {
                        return Err(WireError::BadCompressionPointer(target));
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::PointerLoop);
                    }
                    if !cursor_done {
                        self.pos = pos + 2;
                        cursor_done = true;
                    }
                    pos = usize::from(target);
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn primitive_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEADBEEF);
        w.put_ipv4(Ipv4Addr::new(192, 0, 2, 1));
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_u8("t").unwrap(), 7);
        assert_eq!(r.read_u16("t").unwrap(), 0xBEEF);
        assert_eq!(r.read_u32("t").unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_ipv4().unwrap(), Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(r.remaining(), 0);
        assert!(r.read_u8("end").is_err());
    }

    #[test]
    fn name_roundtrip_uncompressed() {
        let mut w = WireWriter::uncompressed();
        w.put_name(&n("www.example.com")).unwrap();
        w.put_name(&n("example.com")).unwrap();
        let bytes = w.into_bytes();
        // No pointers: 17 + 13 bytes.
        assert_eq!(bytes.len(), 17 + 13);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), n("www.example.com"));
        assert_eq!(r.read_name().unwrap(), n("example.com"));
    }

    #[test]
    fn name_compression_reuses_suffix() {
        let mut w = WireWriter::new();
        w.put_name(&n("www.example.com")).unwrap();
        let first_len = w.len();
        w.put_name(&n("example.com")).unwrap();
        // Second name is a single 2-byte pointer.
        assert_eq!(w.len(), first_len + 2);
        w.put_name(&n("ftp.example.com")).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), n("www.example.com"));
        assert_eq!(r.read_name().unwrap(), n("example.com"));
        assert_eq!(r.read_name().unwrap(), n("ftp.example.com"));
    }

    #[test]
    fn root_name() {
        let mut w = WireWriter::new();
        w.put_name(&Name::root()).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0]);
        let mut r = WireReader::new(&bytes);
        assert!(r.read_name().unwrap().is_root());
    }

    #[test]
    fn cursor_lands_after_pointer() {
        let mut w = WireWriter::new();
        w.put_name(&n("a.example")).unwrap();
        w.put_name(&n("a.example")).unwrap();
        w.put_u16(0x1234);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.read_name().unwrap();
        r.read_name().unwrap();
        assert_eq!(r.read_u16("tail").unwrap(), 0x1234);
    }

    #[test]
    fn rejects_forward_pointer() {
        // Pointer to itself.
        let bytes = [0xC0u8, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.read_name(),
            Err(WireError::BadCompressionPointer(_))
        ));
    }

    #[test]
    fn rejects_bad_label_type() {
        let bytes = [0x80u8, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.read_name(), Err(WireError::BadLabelType(_))));
    }

    #[test]
    fn rejects_truncated_label() {
        let bytes = [5u8, b'a', b'b'];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.read_name(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn rejects_missing_terminator() {
        let bytes = [1u8, b'a'];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.read_name(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn patch_u16_fixes_placeholder() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        let at = 0;
        w.put_slice(b"abc");
        w.patch_u16(at, 3);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..2], &[0, 3]);
    }
}
