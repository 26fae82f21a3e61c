//! Domain names.
//!
//! A [`Name`] is one buffer holding the name's labels in uncompressed
//! wire form — each label a length octet followed by its bytes — stored
//! lowercase, without the root label's terminating zero octet. DNS names
//! compare case-insensitively; normalizing on construction makes zone
//! lookups and trace matching plain byte comparisons.
//!
//! Because the labels run left to right, every ancestor of a name is a
//! suffix of its buffer (`example.com` is the tail of `www.example.com`,
//! and the root is the empty tail). [`NameRef`] borrows such a slice, so
//! walking up the tree or probing a hash map for an ancestor allocates
//! nothing; [`NameBuf`] holds a name read off the wire in a fixed array.

use crate::error::WireError;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Maximum length of a single label in octets (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name in wire form, including the root length octet.
pub const MAX_NAME_LEN: usize = 255;
/// Maximum length of a name's label bytes (its wire form less the root
/// octet).
const MAX_LABELS_LEN: usize = MAX_NAME_LEN - 1;
/// Upper bound on the number of labels in a valid name (each label takes
/// at least two octets).
const MAX_LABELS: usize = MAX_LABELS_LEN / 2;

/// A fully-qualified domain name, owning its wire-form label bytes.
///
/// `Hash` and `Eq` are those of the label bytes, and `Name` implements
/// `Borrow<[u8]>`, so hash maps keyed by `Name` can be probed with any
/// [`NameRef::as_wire`] slice. `Ord` compares label by label from the
/// leftmost (most specific) label, byte-wise within a label, with a name
/// that runs out of labels first sorting first. Display form always ends
/// in a dot (`.` for the root, `example.com.` otherwise), matching
/// zone-file conventions.
#[derive(Clone, Default)]
pub struct Name {
    wire: Box<[u8]>,
}

/// A borrowed name: a valid, lowercase label sequence in wire form (see
/// [`Name`]). Ancestors of a `NameRef` are `NameRef`s into the same bytes.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct NameRef<'a> {
    wire: &'a [u8],
}

/// A name decoded into a fixed buffer — the allocation-free landing spot
/// for names read off the wire (see `WireReader::read_name_into`).
#[derive(Clone)]
pub struct NameBuf {
    buf: [u8; MAX_LABELS_LEN],
    len: usize,
}

impl Default for NameBuf {
    fn default() -> Self {
        NameBuf {
            buf: [0; MAX_LABELS_LEN],
            len: 0,
        }
    }
}

impl NameBuf {
    /// An empty buffer (the root name).
    pub fn new() -> NameBuf {
        NameBuf::default()
    }

    /// The name held.
    pub fn as_name_ref(&self) -> NameRef<'_> {
        NameRef {
            wire: &self.buf[..self.len],
        }
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends one label, lowercased. Returns false, leaving the buffer
    /// unchanged, when the label would not fit.
    pub(crate) fn push_label(&mut self, label: &[u8]) -> bool {
        let Ok(len) = u8::try_from(label.len()) else {
            return false;
        };
        let end = self.len + 1 + label.len();
        if label.len() > MAX_LABEL_LEN || end > MAX_LABELS_LEN {
            return false;
        }
        self.buf[self.len] = len;
        let dst = &mut self.buf[self.len + 1..end];
        dst.copy_from_slice(label);
        dst.make_ascii_lowercase();
        self.len = end;
        true
    }
}

/// Iterator over the labels of a wire-form label sequence.
#[derive(Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        let len = usize::from(len).min(tail.len());
        let (label, rest) = tail.split_at(len);
        self.rest = rest;
        Some(label)
    }
}

/// Iterator over a name and its ancestors, longest first, ending with the
/// root.
#[derive(Clone)]
pub struct Suffixes<'a> {
    rest: Option<&'a [u8]>,
}

impl<'a> Iterator for Suffixes<'a> {
    type Item = NameRef<'a>;

    fn next(&mut self) -> Option<NameRef<'a>> {
        let wire = self.rest?;
        self.rest = skip_label(wire);
        Some(NameRef { wire })
    }
}

/// The label sequence after the first label; `None` for the root.
fn skip_label(wire: &[u8]) -> Option<&[u8]> {
    let (&len, tail) = wire.split_first()?;
    tail.get(usize::from(len)..)
}

/// Label-by-label order (see [`Name`]).
fn label_order(a: &[u8], b: &[u8]) -> Ordering {
    Labels { rest: a }.cmp(Labels { rest: b })
}

impl<'a> NameRef<'a> {
    /// Validates `wire` as a lowercase label sequence (no terminating
    /// zero) and borrows it.
    pub fn from_wire(wire: &'a [u8]) -> Result<NameRef<'a>, WireError> {
        if wire.len() > MAX_LABELS_LEN {
            return Err(WireError::NameTooLong(wire.len() + 1));
        }
        let mut rest = wire;
        while let Some((&len, tail)) = rest.split_first() {
            let len = usize::from(len);
            if len == 0 {
                return Err(WireError::BadText("empty label".into()));
            }
            if len > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(len));
            }
            let label = tail
                .get(..len)
                .ok_or(WireError::Truncated { context: "label" })?;
            if label.iter().any(u8::is_ascii_uppercase) {
                return Err(WireError::BadText("upper-case label".into()));
            }
            rest = &tail[len..];
        }
        Ok(NameRef { wire })
    }

    /// The label bytes in wire form, without the root octet.
    pub fn as_wire(&self) -> &'a [u8] {
        self.wire
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Iterates over labels from leftmost (most specific) to rightmost.
    pub fn labels(&self) -> Labels<'a> {
        Labels { rest: self.wire }
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The leftmost label, if any.
    pub fn first_label(&self) -> Option<&'a [u8]> {
        self.labels().next()
    }

    /// This name, then each ancestor up to and including the root.
    pub fn suffixes(&self) -> Suffixes<'a> {
        Suffixes {
            rest: Some(self.wire),
        }
    }

    /// The immediate parent; `None` for the root.
    pub fn parent(&self) -> Option<NameRef<'a>> {
        skip_label(self.wire).map(|wire| NameRef { wire })
    }

    /// The ancestor made of the rightmost `keep_rightmost` labels; `None`
    /// when the name has fewer labels.
    pub fn ancestor(&self, keep_rightmost: usize) -> Option<NameRef<'a>> {
        let count = self.label_count();
        self.suffixes().nth(count.checked_sub(keep_rightmost)?)
    }

    /// True if `self` is equal to or a subdomain of `ancestor`.
    pub fn is_subdomain_of(&self, ancestor: NameRef<'_>) -> bool {
        // The tail must start at a label boundary, not inside a label
        // whose bytes happen to spell the ancestor.
        self.suffixes()
            .find(|s| s.wire.len() <= ancestor.wire.len())
            .is_some_and(|s| s.wire == ancestor.wire)
    }

    /// True if the leftmost label is `*`.
    pub fn is_wildcard(&self) -> bool {
        self.first_label() == Some(b"*".as_ref())
    }

    /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences
    /// right-to-left.
    pub fn canonical_cmp(&self, other: NameRef<'_>) -> Ordering {
        let (a, mut i) = label_starts(self.wire);
        let (b, mut j) = label_starts(other.wire);
        loop {
            match (i, j) {
                (0, 0) => return Ordering::Equal,
                (0, _) => return Ordering::Less,
                (_, 0) => return Ordering::Greater,
                _ => {
                    i -= 1;
                    j -= 1;
                    match label_at(self.wire, a[i]).cmp(label_at(other.wire, b[j])) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
            }
        }
    }

    /// An owned copy.
    pub fn to_name(&self) -> Name {
        Name {
            wire: self.wire.into(),
        }
    }
}

/// The label whose length octet sits at `start`.
fn label_at(wire: &[u8], start: u8) -> &[u8] {
    Labels {
        rest: wire.get(usize::from(start)..).unwrap_or_default(),
    }
    .next()
    .unwrap_or_default()
}

/// Offsets of each label's length octet, leftmost first.
fn label_starts(wire: &[u8]) -> ([u8; MAX_LABELS], usize) {
    let mut starts = [0u8; MAX_LABELS];
    let mut n = 0;
    let mut pos = 0usize;
    while let Some(&len) = wire.get(pos) {
        if n == MAX_LABELS {
            break;
        }
        starts[n] = u8::try_from(pos).unwrap_or(u8::MAX);
        n += 1;
        pos += 1 + usize::from(len);
    }
    (starts, n)
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name::default()
    }

    /// Builds a name from raw labels. Labels are lowercased; empty labels are
    /// rejected, as are labels over 63 octets.
    pub fn from_labels<I, L>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut wire: Vec<u8> = Vec::new();
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(WireError::BadText("empty label".into()));
            }
            let len = u8::try_from(l.len())
                .ok()
                .filter(|&len| usize::from(len) <= MAX_LABEL_LEN)
                .ok_or(WireError::LabelTooLong(l.len()))?;
            wire.push(len);
            wire.extend(l.iter().map(u8::to_ascii_lowercase));
        }
        Name::from_label_bytes(wire)
    }

    /// Wraps label bytes already validated label by label, checking the
    /// total length.
    fn from_label_bytes(wire: Vec<u8>) -> Result<Self, WireError> {
        if wire.len() > MAX_LABELS_LEN {
            return Err(WireError::NameTooLong(wire.len() + 1));
        }
        Ok(Name {
            wire: wire.into_boxed_slice(),
        })
    }

    /// Parses dotted text form. Accepts an optional trailing dot. `"."` and
    /// `""` both denote the root. Backslash escapes (`\.` and `\ddd`) are
    /// supported as in zone files.
    pub fn parse(text: &str) -> Result<Self, WireError> {
        if text == "." || text.is_empty() {
            return Ok(Name::root());
        }
        let bytes = text.as_bytes();
        let mut wire: Vec<u8> = Vec::with_capacity(bytes.len() + 1);
        // Offset of the current label's length octet.
        let mut start = 0usize;
        wire.push(0);
        // The first over-long label; reported once the whole text parsed,
        // as escape and empty-label errors take precedence.
        let mut too_long: Option<usize> = None;
        let mut close = |wire: &mut Vec<u8>, start: usize| {
            let len = wire.len() - start - 1;
            if len > MAX_LABEL_LEN && too_long.is_none() {
                too_long = Some(len);
            }
            wire[start] = u8::try_from(len).unwrap_or(u8::MAX);
        };
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => {
                    if i + 1 >= bytes.len() {
                        return Err(WireError::BadText(format!("dangling escape in {text:?}")));
                    }
                    let c = bytes[i + 1];
                    if c.is_ascii_digit() {
                        if i + 3 >= bytes.len()
                            || !bytes[i + 2].is_ascii_digit()
                            || !bytes[i + 3].is_ascii_digit()
                        {
                            return Err(WireError::BadText(format!(
                                "bad \\ddd escape in {text:?}"
                            )));
                        }
                        let v = u32::from(bytes[i + 1] - b'0') * 100
                            + u32::from(bytes[i + 2] - b'0') * 10
                            + u32::from(bytes[i + 3] - b'0');
                        let byte = u8::try_from(v).map_err(|_| {
                            WireError::BadText(format!("\\ddd escape out of range in {text:?}"))
                        })?;
                        wire.push(byte.to_ascii_lowercase());
                        i += 4;
                    } else {
                        wire.push(c.to_ascii_lowercase());
                        i += 2;
                    }
                }
                b'.' => {
                    if wire.len() == start + 1 {
                        return Err(WireError::BadText(format!("empty label in {text:?}")));
                    }
                    close(&mut wire, start);
                    start = wire.len();
                    wire.push(0);
                    i += 1;
                }
                c => {
                    wire.push(c.to_ascii_lowercase());
                    i += 1;
                }
            }
        }
        if wire.len() == start + 1 {
            // Trailing dot: drop the placeholder of the label never begun.
            wire.pop();
        } else {
            close(&mut wire, start);
        }
        if let Some(len) = too_long {
            return Err(WireError::LabelTooLong(len));
        }
        Name::from_label_bytes(wire)
    }

    /// The borrowed form of this name.
    pub fn as_name_ref(&self) -> NameRef<'_> {
        NameRef { wire: &self.wire }
    }

    /// The label bytes in wire form, without the root octet.
    pub fn as_wire(&self) -> &[u8] {
        &self.wire
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.as_name_ref().label_count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Iterates over labels from leftmost (most specific) to rightmost.
    pub fn labels(&self) -> Labels<'_> {
        self.as_name_ref().labels()
    }

    /// The leftmost label, if any.
    pub fn first_label(&self) -> Option<&[u8]> {
        self.as_name_ref().first_label()
    }

    /// Length of the wire encoding (uncompressed), including the root octet.
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// True if `self` is equal to or a subdomain of `ancestor`
    /// (`www.example.com` is within `example.com` and `.`).
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        self.as_name_ref().is_subdomain_of(ancestor.as_name_ref())
    }

    /// The immediate parent (`example.com` → `com`); `None` for the root.
    pub fn parent(&self) -> Option<Name> {
        self.as_name_ref().parent().map(|p| p.to_name())
    }

    /// Strips labels from the left, keeping the rightmost `keep_rightmost`
    /// labels; `None` when the name has fewer.
    pub fn ancestor(&self, keep_rightmost: usize) -> Option<Name> {
        self.as_name_ref()
            .ancestor(keep_rightmost)
            .map(|a| a.to_name())
    }

    /// Prepends a label (`www` + `example.com` → `www.example.com`).
    pub fn prepend(&self, label: &[u8]) -> Result<Name, WireError> {
        Name::from_labels(std::iter::once(label).chain(self.labels()))
    }

    /// Concatenates `self` (as the left part) with `suffix`
    /// (`www` ⊕ `example.com` → `www.example.com`).
    pub fn concat(&self, suffix: &Name) -> Result<Name, WireError> {
        let mut wire = Vec::with_capacity(self.wire.len() + suffix.wire.len());
        wire.extend_from_slice(&self.wire);
        wire.extend_from_slice(&suffix.wire);
        Name::from_label_bytes(wire)
    }

    /// Replaces the leftmost label with `*`, used for wildcard synthesis.
    pub fn to_wildcard(&self) -> Option<Name> {
        let parent = self.as_name_ref().parent()?;
        let mut wire = Vec::with_capacity(2 + parent.wire.len());
        wire.extend_from_slice(&[1, b'*']);
        wire.extend_from_slice(parent.wire);
        Name::from_label_bytes(wire).ok()
    }

    /// True if the leftmost label is `*`.
    pub fn is_wildcard(&self) -> bool {
        self.as_name_ref().is_wildcard()
    }

    /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences
    /// right-to-left. Used for NSEC chains and sorted zone walks.
    pub fn canonical_cmp(&self, other: &Name) -> Ordering {
        self.as_name_ref().canonical_cmp(other.as_name_ref())
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.wire == other.wire
    }
}

impl Eq for Name {}

impl Hash for Name {
    // Must hash exactly like the `[u8]` it borrows as.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_wire().hash(state);
    }
}

impl Borrow<[u8]> for Name {
    fn borrow(&self) -> &[u8] {
        &self.wire
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        label_order(&self.wire, &other.wire)
    }
}

impl PartialOrd for NameRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NameRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        label_order(self.wire, other.wire)
    }
}

impl<'a> From<&'a Name> for NameRef<'a> {
    fn from(name: &'a Name) -> NameRef<'a> {
        name.as_name_ref()
    }
}

impl PartialEq<Name> for NameRef<'_> {
    fn eq(&self, other: &Name) -> bool {
        *self.wire == *other.wire
    }
}

impl fmt::Display for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for l in self.labels() {
            for &b in l {
                match b {
                    b'.' | b'\\' => write!(f, "\\{}", b as char)?,
                    0x21..=0x7e => write!(f, "{}", b as char)?,
                    _ => write!(f, "\\{b:03}")?,
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl fmt::Debug for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_name_ref(), f)
    }
}

impl fmt::Debug for Name {
    // Names read better unquoted in test output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn root_roundtrip() {
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(n("."), Name::root());
        assert_eq!(n(""), Name::root());
        assert!(Name::root().is_root());
        assert_eq!(Name::root().wire_len(), 1);
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("Example.COM").to_string(), "example.com.");
        assert_eq!(n("example.com.").to_string(), "example.com.");
        assert_eq!(n("a.b.c").label_count(), 3);
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(n("WWW.Example.Com"), n("www.example.com"));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        n("AbC.net").hash(&mut h1);
        n("abc.NET").hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn escapes() {
        let name = n(r"a\.b.example");
        assert_eq!(name.label_count(), 2);
        assert_eq!(name.first_label().unwrap(), b"a.b");
        assert_eq!(name.to_string(), r"a\.b.example.");
        let esc = n(r"\097.example");
        assert_eq!(esc.first_label().unwrap(), b"a");
    }

    #[test]
    fn escape_errors() {
        assert!(Name::parse(r"a\").is_err());
        assert!(Name::parse(r"\999.example").is_err());
        assert!(Name::parse("a..b").is_err());
    }

    #[test]
    fn label_limits() {
        let long = "a".repeat(63);
        assert!(Name::parse(&long).is_ok());
        let too_long = "a".repeat(64);
        assert!(matches!(
            Name::parse(&too_long),
            Err(WireError::LabelTooLong(64))
        ));
        // Four 63-byte labels = 4*64+1 = 257 wire octets > 255.
        let huge = format!("{long}.{long}.{long}.{long}");
        assert!(matches!(Name::parse(&huge), Err(WireError::NameTooLong(_))));
    }

    #[test]
    fn subdomain_relations() {
        assert!(n("www.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("www.example.com").is_subdomain_of(&Name::root()));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(!n("example.com").is_subdomain_of(&n("www.example.com")));
        assert!(!n("badexample.com").is_subdomain_of(&n("example.com")));
    }

    #[test]
    fn subdomain_needs_a_label_boundary() {
        // The label `x\001b` ends in bytes that spell the label `b`.
        let tricky = Name::from_labels([b"x\x01b".as_ref()]).unwrap();
        assert_eq!(tricky.as_wire(), b"\x03x\x01b");
        assert!(!tricky.is_subdomain_of(&n("b")));
    }

    #[test]
    fn parent_and_ancestor() {
        assert_eq!(n("www.example.com").parent().unwrap(), n("example.com"));
        assert_eq!(n("com").parent().unwrap(), Name::root());
        assert!(Name::root().parent().is_none());
        assert_eq!(n("a.b.c.d").ancestor(2).unwrap(), n("c.d"));
        assert_eq!(n("a.b").ancestor(0).unwrap(), Name::root());
        assert!(n("a.b").ancestor(3).is_none());
    }

    #[test]
    fn suffixes_walk_to_the_root() {
        let name = n("www.example.com");
        let all: Vec<String> = name
            .as_name_ref()
            .suffixes()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(all, ["www.example.com.", "example.com.", "com.", "."]);
    }

    #[test]
    fn prepend_concat() {
        assert_eq!(
            n("example.com").prepend(b"www").unwrap(),
            n("www.example.com")
        );
        assert_eq!(
            n("www").concat(&n("example.com")).unwrap(),
            n("www.example.com")
        );
        assert_eq!(n("x").concat(&Name::root()).unwrap(), n("x"));
    }

    #[test]
    fn wildcards() {
        assert_eq!(
            n("www.example.com").to_wildcard().unwrap(),
            n("*.example.com")
        );
        assert!(n("*.example.com").is_wildcard());
        assert!(!n("www.example.com").is_wildcard());
        assert!(Name::root().to_wildcard().is_none());
    }

    #[test]
    fn canonical_ordering() {
        use std::cmp::Ordering;
        // RFC 4034 §6.1 example order.
        let order = [
            "example",
            "a.example",
            "yljkjljk.a.example",
            "z.a.example",
            "zabc.a.example",
            "z.example",
        ];
        for w in order.windows(2) {
            assert_eq!(
                n(w[0]).canonical_cmp(&n(w[1])),
                Ordering::Less,
                "{} < {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(Name::root().canonical_cmp(&n("com")), Ordering::Less);
    }

    #[test]
    fn wire_len() {
        assert_eq!(n("example.com").wire_len(), 13); // 7+1 + 3+1 + 1
    }

    #[test]
    fn from_wire_validates() {
        assert!(NameRef::from_wire(b"\x03www\x07example").is_ok());
        assert!(NameRef::from_wire(b"\x03WWW").is_err(), "upper case");
        assert!(NameRef::from_wire(b"\x05ab").is_err(), "truncated label");
        assert!(NameRef::from_wire(b"\x00").is_err(), "empty label");
        assert!(NameRef::from_wire(&[64; 65]).is_err(), "label over 63");
    }
}
