//! Property tests: arbitrary messages survive encode → decode unchanged,
//! with and without name compression.

use ldp_wire::{
    Edns, Header, Message, Name, Opcode, Question, RData, Rcode, Record, RrClass, RrType, SoaData,
};
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'a'), Just(b'b'), Just(b'z'), Just(b'0'), Just(b'-')],
        1..12,
    )
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..5)
        .prop_map(|labels| Name::from_labels(labels).unwrap())
}

fn arb_rtype() -> impl Strategy<Value = RrType> {
    prop_oneof![
        Just(RrType::A),
        Just(RrType::Ns),
        Just(RrType::Cname),
        Just(RrType::Soa),
        Just(RrType::Mx),
        Just(RrType::Txt),
        Just(RrType::Aaaa),
        Just(RrType::Srv),
        Just(RrType::Ds),
        Just(RrType::Rrsig),
        Just(RrType::Nsec),
        Just(RrType::Dnskey),
        (256u16..4000).prop_map(RrType::Unknown),
    ]
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(o.into())),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(o.into())),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ptr),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(
                |(mname, rname, serial, refresh, retry, expire, minimum)| RData::Soa(SoaData {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum
                })
            ),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..4)
            .prop_map(RData::Txt),
        (any::<u16>(), any::<u16>(), any::<u16>(), arb_name()).prop_map(
            |(priority, weight, port, target)| RData::Srv {
                priority,
                weight,
                port,
                target
            }
        ),
        (
            any::<u16>(),
            any::<u8>(),
            any::<u8>(),
            proptest::collection::vec(any::<u8>(), 0..300)
        )
            .prop_map(|(flags, protocol, algorithm, public_key)| RData::Dnskey {
                flags,
                protocol,
                algorithm,
                public_key
            }),
        (
            any::<u16>(),
            any::<u8>(),
            any::<u8>(),
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(key_tag, algorithm, digest_type, digest)| RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest
            }),
        proptest::collection::vec(any::<u8>(), 0..100).prop_map(RData::Unknown),
    ]
}

fn arb_record() -> impl Strategy<Value = RData> {
    arb_rdata()
}

prop_compose! {
    fn arb_full_record()(name in arb_name(), ttl in any::<u32>(), rdata in arb_record(), unk in 256u16..9999) -> Record {
        let rtype = rdata.implied_type().unwrap_or(RrType::Unknown(unk));
        Record { name, rtype, class: RrClass::In, ttl, rdata }
    }
}

prop_compose! {
    fn arb_header()(
        id in any::<u16>(),
        response in any::<bool>(),
        aa in any::<bool>(),
        tc in any::<bool>(),
        rd in any::<bool>(),
        ra in any::<bool>(),
        z in any::<bool>(),
        ad in any::<bool>(),
        cd in any::<bool>(),
        rcode in 0u8..16,
        opcode in 0u8..16,
    ) -> Header {
        Header {
            id,
            response,
            opcode: Opcode::from_code(opcode),
            authoritative: aa,
            truncated: tc,
            recursion_desired: rd,
            recursion_available: ra,
            reserved_z: z,
            authentic_data: ad,
            checking_disabled: cd,
            rcode: Rcode::from_code(rcode),
        }
    }
}

prop_compose! {
    fn arb_message()(
        header in arb_header(),
        qname in arb_name(),
        qtype in arb_rtype(),
        answers in proptest::collection::vec(arb_full_record(), 0..6),
        authorities in proptest::collection::vec(arb_full_record(), 0..4),
        additionals in proptest::collection::vec(arb_full_record(), 0..4),
        with_edns in any::<bool>(),
        do_bit in any::<bool>(),
        payload in 512u16..4096,
    ) -> Message {
        Message {
            header,
            questions: vec![Question { qname, qtype, qclass: RrClass::In }],
            answers,
            authorities,
            additionals,
            edns: with_edns.then(|| Edns { udp_payload_size: payload, dnssec_ok: do_bit, ..Edns::default() }),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn message_roundtrip_compressed(msg in arb_message()) {
        let bytes = msg.to_bytes().unwrap();
        let dec = Message::from_bytes(&bytes).unwrap();
        prop_assert_eq!(dec, msg);
    }

    #[test]
    fn message_roundtrip_uncompressed(msg in arb_message()) {
        let bytes = msg.to_bytes_uncompressed().unwrap();
        let dec = Message::from_bytes(&bytes).unwrap();
        prop_assert_eq!(dec, msg);
    }

    #[test]
    fn compression_never_grows(msg in arb_message()) {
        let c = msg.to_bytes().unwrap().len();
        let u = msg.to_bytes_uncompressed().unwrap().len();
        prop_assert!(c <= u, "compressed {c} > uncompressed {u}");
    }

    #[test]
    fn name_text_roundtrip(name in arb_name()) {
        let text = name.to_string();
        let back = Name::parse(&text).unwrap();
        prop_assert_eq!(back, name);
    }

    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Message::from_bytes(&bytes);
    }

    #[test]
    fn framing_roundtrip(msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..500), 1..8), split in 1usize..64) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(ldp_wire::framing::frame_message(m).unwrap());
        }
        // Reassembled the way every stream endpoint does: a buffer of the
        // bytes so far, whole frames split off it as each chunk lands.
        let mut buf = Vec::new();
        let mut out = Vec::new();
        for chunk in stream.chunks(split) {
            buf.extend_from_slice(chunk);
            let mut rest = &buf[..];
            while let Some((msg, tail)) = ldp_wire::framing::split_frame(rest) {
                out.push(msg.to_vec());
                rest = tail;
            }
            let used = buf.len() - rest.len();
            buf.drain(..used);
        }
        prop_assert_eq!(out, msgs);
    }
}
