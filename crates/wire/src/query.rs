//! A borrowed view of a query: the fields an authoritative answer needs,
//! read straight from the query bytes without building a [`Message`].
//!
//! [`QueryView::parse`] accepts exactly the messages
//! [`Message::from_bytes`] accepts. The header, the question section and
//! the OPT record are read in place; a query's answer, authority and
//! non-OPT additional records (rare in practice) are decoded only to be
//! validated and dropped.
//!
//! [`Message`]: crate::Message
//! [`Message::from_bytes`]: crate::Message::from_bytes

use crate::edns::read_opt_options;
use crate::error::WireError;
use crate::message::Header;
use crate::name::NameBuf;
use crate::record::Record;
use crate::rr::{RrClass, RrType};
use crate::wirebuf::WireReader;

/// The query's EDNS state, as far as answering goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdnsView {
    /// Advertised maximum UDP payload size.
    pub udp_payload_size: u16,
    /// The DO bit.
    pub dnssec_ok: bool,
}

/// One question-section entry, its name decoded into a fixed buffer.
#[derive(Clone)]
pub struct QuestionView {
    pub qname: NameBuf,
    pub qtype: RrType,
    pub qclass: RrClass,
}

/// A parsed query, borrowing the bytes it was read from.
#[derive(Clone)]
pub struct QueryView<'a> {
    msg: &'a [u8],
    header: Header,
    qdcount: u16,
    /// The first question, when there is one.
    first: Option<QuestionView>,
    edns: Option<EdnsView>,
}

impl<'a> QueryView<'a> {
    /// Parses `msg`, failing exactly where [`crate::Message::from_bytes`]
    /// fails.
    pub fn parse(msg: &'a [u8]) -> Result<QueryView<'a>, WireError> {
        let mut r = WireReader::new(msg);
        let id = r.read_u16("header id")?;
        let flags = r.read_u16("header flags")?;
        let qdcount = r.read_u16("qdcount")?;
        let ancount = r.read_u16("ancount")?;
        let nscount = r.read_u16("nscount")?;
        let arcount = r.read_u16("arcount")?;

        let mut first = None;
        let mut scratch = NameBuf::new();
        for _ in 0..qdcount {
            let q = read_question(&mut r, &mut scratch)?;
            if first.is_none() {
                first = Some(q);
            }
        }

        for _ in 0..u32::from(ancount) + u32::from(nscount) {
            Record::decode(&mut r)?;
        }
        let mut edns = None;
        for _ in 0..arcount {
            let mark = r.position();
            r.read_name_into(&mut scratch)?;
            let rtype = RrType::from_code(r.read_u16("ar type")?);
            if rtype == RrType::Opt {
                if !scratch.as_name_ref().is_root() {
                    return Err(WireError::BadText("OPT owner must be root".into()));
                }
                let class = r.read_u16("opt class")?;
                let ttl = r.read_u32("opt ttl")?;
                read_opt_options(&mut r, |_, _| {})?;
                edns = Some(EdnsView {
                    udp_payload_size: class,
                    dnssec_ok: (ttl >> 15) & 1 == 1,
                });
            } else {
                r.seek(mark)?;
                Record::decode(&mut r)?;
            }
        }
        Ok(QueryView {
            msg,
            header: Header::from_flags_word(id, flags),
            qdcount,
            first,
            edns,
        })
    }

    /// The header (id and flags).
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Number of question entries.
    pub fn question_count(&self) -> u16 {
        self.qdcount
    }

    /// The first question, if any.
    pub fn question(&self) -> Option<&QuestionView> {
        self.first.as_ref()
    }

    /// Every question entry, in order.
    pub fn questions(&self) -> Questions<'a> {
        let mut r = WireReader::new(self.msg);
        // The header was read by `parse`; 12 bytes are there.
        let ok = r.seek(12).is_ok();
        Questions {
            r,
            left: if ok { self.qdcount } else { 0 },
            name: NameBuf::new(),
        }
    }

    /// The query's EDNS state, if it carried an OPT record.
    pub fn edns(&self) -> Option<EdnsView> {
        self.edns
    }

    /// True when the query set the EDNS DO bit.
    pub fn dnssec_ok(&self) -> bool {
        self.edns.is_some_and(|e| e.dnssec_ok)
    }
}

fn read_question(r: &mut WireReader<'_>, name: &mut NameBuf) -> Result<QuestionView, WireError> {
    r.read_name_into(name)?;
    let qtype = RrType::from_code(r.read_u16("qtype")?);
    let qclass = RrClass::from_code(r.read_u16("qclass")?);
    Ok(QuestionView {
        qname: name.clone(),
        qtype,
        qclass,
    })
}

/// Iterator over a parsed query's question entries.
pub struct Questions<'a> {
    r: WireReader<'a>,
    left: u16,
    name: NameBuf,
}

impl Iterator for Questions<'_> {
    type Item = QuestionView;

    fn next(&mut self) -> Option<QuestionView> {
        self.left = self.left.checked_sub(1)?;
        // `parse` read these same bytes successfully.
        read_question(&mut self.r, &mut self.name).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edns::{Edns, EdnsOption};
    use crate::message::{Message, Question};
    use crate::name::Name;
    use crate::rdata::RData;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn query_view_roundtrip() {
        let mut q = Message::query(0xBEEF, n("www.Example.com"), RrType::Aaaa);
        q.header.checking_disabled = true;
        q.questions
            .push(Question::new(n("mail.example.com"), RrType::Mx));
        q.edns = Some(Edns {
            udp_payload_size: 1232,
            dnssec_ok: true,
            options: vec![EdnsOption {
                code: 10,
                data: vec![1, 2, 3, 4, 5, 6, 7, 8],
            }],
            ..Edns::default()
        });
        let bytes = q.to_bytes().unwrap();
        let view = QueryView::parse(&bytes).unwrap();
        assert_eq!(*view.header(), q.header);
        assert_eq!(view.question_count(), 2);
        assert_eq!(
            view.question().unwrap().qname.as_name_ref(),
            q.questions[0].qname
        );
        let back: Vec<Question> = view
            .questions()
            .map(|v| Question {
                qname: v.qname.as_name_ref().to_name(),
                qtype: v.qtype,
                qclass: v.qclass,
            })
            .collect();
        assert_eq!(back, q.questions);
        assert_eq!(
            view.edns(),
            Some(EdnsView {
                udp_payload_size: 1232,
                dnssec_ok: true
            })
        );
        assert!(view.dnssec_ok());
    }

    #[test]
    fn query_view_lowercases_the_qname() {
        let mut bytes = Message::query(1, n("www.example.com"), RrType::A)
            .to_bytes()
            .unwrap();
        bytes[13..16].copy_from_slice(b"WwW");
        let view = QueryView::parse(&bytes).unwrap();
        assert_eq!(
            view.question().unwrap().qname.as_name_ref(),
            n("www.example.com")
        );
    }

    #[test]
    fn query_view_accepts_what_from_bytes_accepts() {
        let mut q = Message::query(7, n("example.com"), RrType::A);
        q.answers.push(crate::Record::new(
            n("example.com"),
            60,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
        q.edns = Some(Edns::with_do());
        let bytes = q.to_bytes().unwrap();
        for cut in 0..=bytes.len() {
            let slice = &bytes[..cut];
            assert_eq!(
                QueryView::parse(slice).is_ok(),
                Message::from_bytes(slice).is_ok(),
                "cut at {cut}"
            );
        }
        // A non-root OPT owner is rejected by both.
        let mut bad = bytes.clone();
        let opt_at = bytes.len() - 11;
        bad.splice(opt_at..opt_at + 1, [1, b'x', 0]);
        assert!(Message::from_bytes(&bad).is_err());
        assert!(QueryView::parse(&bad).is_err());
    }

    #[test]
    fn query_view_without_question_or_edns() {
        let bytes = Message::default().to_bytes().unwrap();
        let view = QueryView::parse(&bytes).unwrap();
        assert!(view.question().is_none());
        assert_eq!(view.questions().count(), 0);
        assert_eq!(view.edns(), None);
    }
}
