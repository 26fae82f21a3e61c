//! Allocation guard: exact heap-allocation counts on the answer path.
//!
//! A counting global allocator tallies allocations per thread (tests run
//! on parallel threads, so a global tally would mix them). After one
//! warm-up pass over the golden corpus (`corpus/mod.rs`):
//!
//! * `AuthEngine::answer_wire` allocates nothing per query, with UDP
//!   framing (a reused buffer) and TCP framing (`answer_framed`);
//! * `Message::to_bytes` allocates exactly once, its output — plus, in
//!   builds with debug assertions, the decode of its own round-trip
//!   check, counted separately here;
//! * `Message::from_bytes` of a one-question query allocates at most 3
//!   times, plus the EDNS option list and each option's data when the
//!   query carries options (a cookie, say).
//!
//! The live server's UDP batch calls, `recv_many` and `send_many_to_each`,
//! allocate nothing per 64-datagram batch either.

mod corpus;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, SocketAddr};
use std::ops::Range;
use std::time::Duration;

use corpus::*;
use ldp_io::UdpSocketExt;
use ldp_server::auth::AuthEngine;
use ldp_wire::Message;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` was allocated by `System` with `layout`; the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Every corpus query: (engine, label, client, wire, over_stream).
fn corpus(engines: &EngineSet) -> Vec<(&AuthEngine, String, IpAddr, Vec<u8>, bool)> {
    let local: IpAddr = "127.0.0.1".parse().expect("address");
    let mut all: Vec<_> = hand_cases()
        .into_iter()
        .map(|(which, c)| (engines.get(which), c.name, c.client, c.wire, c.over_stream))
        .collect();
    for (i, q) in broot_queries().iter().enumerate() {
        for (label, over_stream, dnssec_ok) in BROOT_VARIANTS {
            let wire = with_do(q, dnssec_ok).to_bytes().expect("query encodes");
            all.push((
                &engines.broot,
                format!("broot {i} {label}"),
                local,
                wire,
                over_stream,
            ));
        }
    }
    all
}

/// Answers `wire` over UDP into `udp` and over TCP into `tcp`, both
/// buffers reused.
fn answer_both(
    engine: &AuthEngine,
    client: IpAddr,
    wire: &[u8],
    over_stream: bool,
    udp: &mut Vec<u8>,
    tcp: &mut Vec<u8>,
) {
    udp.clear();
    tcp.clear();
    engine
        .answer_wire(client, wire, over_stream, udp)
        .expect("query answers");
    engine
        .answer_framed(client, wire, tcp)
        .expect("query answers");
}

#[test]
fn wire_answer_path_allocates_nothing_per_query() {
    let engines = engines();
    let corpus = corpus(&engines);
    let (mut udp, mut tcp) = (Vec::new(), Vec::new());
    for (engine, _, client, wire, over_stream) in &corpus {
        answer_both(engine, *client, wire, *over_stream, &mut udp, &mut tcp);
    }
    for (engine, name, client, wire, over_stream) in &corpus {
        let (allocs, ()) =
            counted(|| answer_both(engine, *client, wire, *over_stream, &mut udp, &mut tcp));
        assert_eq!(allocs, 0, "{name}: the wire answer path allocated");
    }
}

#[test]
fn to_bytes_allocates_its_output_only() {
    let engines = engines();
    for (engine, name, client, wire, over_stream) in corpus(&engines) {
        let query = Message::from_bytes(&wire).expect("query decodes");
        let response = engine.respond(client, &query, over_stream);
        for (what, message) in [("query", &query), ("response", &response)] {
            let (allocs, bytes) = counted(|| message.to_bytes().expect("encodes"));
            // With debug assertions on, `to_bytes` decodes its own output
            // to check the round trip.
            let (decode_allocs, _) = counted(|| Message::from_bytes(&bytes));
            let check = if cfg!(debug_assertions) {
                decode_allocs
            } else {
                0
            };
            assert_eq!(allocs, 1 + check, "{name}: {what} to_bytes");
        }
    }
}

#[test]
fn from_bytes_of_a_one_question_query_allocates_at_most_three_times() {
    let engines = engines();
    for (_, name, _, wire, _) in corpus(&engines) {
        let (allocs, query) = counted(|| Message::from_bytes(&wire).expect("query decodes"));
        let options = query.edns.as_ref().map_or(0, |e| e.options.len());
        let option_allocs = if options > 0 { 1 + options as u64 } else { 0 };
        if query.questions.len() == 1 {
            assert!(
                allocs <= 3 + option_allocs,
                "{name}: from_bytes allocated {allocs} times"
            );
        }
    }
}

#[test]
fn udp_batch_calls_allocate_nothing_per_batch() {
    const BATCH: usize = 64;
    let server = ldp_io::bind_udp("127.0.0.1:0").expect("bind");
    let client = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let to = server.local_addr().expect("address");
    let peer = client.local_addr().expect("address");
    let mut bufs: Vec<Vec<u8>> = (0..BATCH).map(|_| vec![0u8; 512]).collect();
    let mut received = Vec::with_capacity(BATCH);
    let answers: Vec<u8> = (0..BATCH * 4).map(|i| (i % 251) as u8).collect();
    let replies: Vec<(Range<usize>, SocketAddr)> =
        (0..BATCH).map(|i| (i * 4..i * 4 + 4, peer)).collect();
    let sink = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    sink.set_nonblocking(true).expect("non-blocking");
    let sink_addr = sink.local_addr().expect("address");
    // More than one `sendmmsg` holds, so the run takes two.
    const RUN: usize = 300;
    let queries: Vec<Vec<u8>> = (0..RUN).map(|i| vec![(i % 251) as u8; 20]).collect();
    let mut echo = [0u8; 64];
    // Batch 0 warms up; every later batch is counted.
    for batch in 0..4 {
        for i in 0..BATCH {
            client.send_to(&[i as u8; 12], to).expect("query");
        }
        let before = ALLOCS.with(Cell::get);
        let mut got = 0;
        while got < BATCH {
            got += server
                .recv_many(&mut bufs, &mut received)
                .expect("recv_many");
            assert!(received
                .iter()
                .all(|&(len, from)| len == 12 && from == peer));
        }
        let sent = server
            .send_many_to_each(&answers, &replies)
            .expect("send_many_to_each");
        // A replay run: one socket, one destination, a batch's worth of
        // queries.
        let sent_run = server
            .send_many_to(&queries, sink_addr)
            .expect("send_many_to");
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!((got, sent, sent_run), (BATCH, BATCH, RUN));
        for i in 0..BATCH {
            let (len, _) = client.recv_from(&mut echo).expect("answer");
            assert_eq!(echo[..len], answers[i * 4..i * 4 + 4]);
        }
        // The sink's buffer holds only part of a run; what arrived is
        // the run, in order.
        let mut arrived = 0;
        while let Ok(len) = sink.recv(&mut echo) {
            assert_eq!(echo[..len], queries[arrived][..]);
            arrived += 1;
        }
        assert!(arrived > 0, "no run datagram arrived");
        if batch > 0 {
            assert_eq!(allocs, 0, "batch {batch}: the batch calls allocated");
        }
    }
}
