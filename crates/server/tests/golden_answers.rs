//! Golden answers, byte for byte.
//!
//! Every corpus query (see `corpus/mod.rs`) is answered two ways — by the
//! wire path (`AuthEngine::answer_wire`) and by the `Message` wrapper
//! (`AuthEngine::respond` then `to_bytes`) — and both must reproduce the
//! bytes recorded in `golden/answers.txt`, which the engine produced
//! before the wire path existed.

mod corpus;

use std::collections::HashMap;
use std::net::IpAddr;

use corpus::*;
use ldp_server::auth::AuthEngine;
use ldp_wire::Message;

struct Fixture {
    cases: HashMap<String, (usize, u64)>,
    blocks: HashMap<(String, usize), u64>,
    hex: HashMap<String, String>,
}

fn fixture() -> Fixture {
    let text = include_str!("golden/answers.txt");
    let mut f = Fixture {
        cases: HashMap::new(),
        blocks: HashMap::new(),
        hex: HashMap::new(),
    };
    let hash = |s: &str| u64::from_str_radix(s, 16).expect("hex hash");
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["case", name, len, h] => {
                f.cases
                    .insert(name.to_string(), (len.parse().expect("length"), hash(h)));
            }
            ["block", variant, index, h] => {
                f.blocks.insert(
                    (variant.to_string(), index.parse().expect("index")),
                    hash(h),
                );
            }
            ["hex", name, bytes] => {
                f.hex.insert(name.to_string(), bytes.to_string());
            }
            other => panic!("bad fixture line {other:?}"),
        }
    }
    f
}

fn via_wire(engine: &AuthEngine, client: IpAddr, wire: &[u8], over_stream: bool) -> Vec<u8> {
    // Answer behind some bytes already in the buffer, as the live loops
    // do, to check the response is appended and self-contained.
    let mut out = vec![0xEE; 3];
    engine
        .answer_wire(client, wire, over_stream, &mut out)
        .expect("query answers");
    assert_eq!(out[..3], [0xEE; 3], "bytes before the response kept");
    out.split_off(3)
}

fn via_message(engine: &AuthEngine, client: IpAddr, wire: &[u8], over_stream: bool) -> Vec<u8> {
    let query = Message::from_bytes(wire).expect("query decodes");
    engine
        .respond(client, &query, over_stream)
        .to_bytes()
        .expect("response encodes")
}

#[test]
fn hand_picked_answers_match_golden_bytes() {
    let f = fixture();
    let engines = engines();
    let cases = hand_cases();
    assert_eq!(cases.len(), f.cases.len(), "corpus and fixture disagree");
    for (which, case) in &cases {
        let engine = engines.get(*which);
        let &(len, hash) = f
            .cases
            .get(&case.name)
            .unwrap_or_else(|| panic!("{} missing from fixture", case.name));
        for (path, bytes) in [
            (
                "answer_wire",
                via_wire(engine, case.client, &case.wire, case.over_stream),
            ),
            (
                "respond",
                via_message(engine, case.client, &case.wire, case.over_stream),
            ),
        ] {
            if let Some(hex_bytes) = f.hex.get(&case.name) {
                assert_eq!(&hex(&bytes), hex_bytes, "{}: {path} bytes", case.name);
            }
            assert_eq!(
                (bytes.len(), fnv1a(FNV_OFFSET, &bytes)),
                (len, hash),
                "{}: {path} differs from the golden answer",
                case.name
            );
        }
    }
}

#[test]
fn broot_answers_match_golden_bytes() {
    let f = fixture();
    let engines = engines();
    let queries = broot_queries();
    let client: IpAddr = "127.0.0.1".parse().expect("address");
    for (label, over_stream, dnssec_ok) in BROOT_VARIANTS {
        for (block, chunk) in queries.chunks(BLOCK).enumerate() {
            let mut wire_hash = FNV_OFFSET;
            let mut message_hash = FNV_OFFSET;
            for q in chunk {
                let wire = with_do(q, dnssec_ok).to_bytes().expect("query encodes");
                wire_hash = fold(
                    wire_hash,
                    &via_wire(&engines.broot, client, &wire, over_stream),
                );
                message_hash = fold(
                    message_hash,
                    &via_message(&engines.broot, client, &wire, over_stream),
                );
            }
            let want = f.blocks[&(label.to_string(), block)];
            assert_eq!(
                wire_hash, want,
                "{label} block {block}: answer_wire differs"
            );
            assert_eq!(message_hash, want, "{label} block {block}: respond differs");
        }
    }
    assert_eq!(
        f.blocks.len(),
        BROOT_VARIANTS.len() * queries.len().div_ceil(BLOCK)
    );
}
