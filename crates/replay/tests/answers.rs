//! A querier reads its own answers only when it wakes: after a send, at a
//! batch's arrival, at a timeout-wheel tick or a drain poll. An answer may
//! therefore wait in its socket while the querier sleeps to the next
//! record. These tests check that such an answer keeps its true latency
//! (the kernel's arrival stamp, not the read) and is never expired while
//! it waits, that an answer is credited only when it comes back on the
//! socket its query went out on, and that a truncated UDP answer sends its
//! query again over TCP.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ldp_replay::{LiveReplay, ReplayMode, ReplayReport, RetryPolicy};
use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_trace::{Protocol, TraceRecord};
use ldp_wire::{Edns, Name, RrType};
use ldp_workload::zones::wildcard_example_zone;
use ldp_zone::ZoneSet;

/// Two queries from one source, 50 ms apart in the trace. Replayed at a
/// quarter of the trace's speed they go out 200 ms apart, yet travel in
/// one batch, so no batch arrival wakes the querier between them: it
/// sleeps with the first answer queued.
fn two_far_apart(protocol: Protocol) -> Vec<TraceRecord> {
    (0..2u64)
        .map(|i| {
            let mut rec = TraceRecord::udp_query(
                i * 50_000,
                "10.0.0.1".parse().unwrap(),
                1024,
                Name::parse(&format!("q{i}.example.com")).unwrap(),
                RrType::A,
            );
            rec.protocol = protocol;
            rec
        })
        .collect()
}

async fn replay(protocol: Protocol, retry: RetryPolicy) -> ReplayReport {
    let mut zones = ZoneSet::new();
    zones.insert(wildcard_example_zone());
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(zones)));
    let server = LiveServer::spawn(engine, "127.0.0.1:0".parse().unwrap())
        .await
        .unwrap();
    let replay = LiveReplay {
        mode: ReplayMode::Timed { speed: 4.0 },
        queriers_per_distributor: 1,
        retry,
        ..LiveReplay::new(server.addr)
    };
    replay.run(two_far_apart(protocol)).await.unwrap()
}

#[tokio::test(flavor = "multi_thread")]
async fn an_answer_read_late_keeps_its_arrival_latency() {
    for protocol in [Protocol::Udp, Protocol::Tcp] {
        // Without expiry nothing wakes the querier between the sends, so
        // the first answer is read only after the second query goes out.
        let report = replay(protocol, RetryPolicy::disabled()).await;
        assert_eq!(report.sent, 2, "{protocol:?}");
        assert_eq!(report.answered, 2, "{protocol:?}");
        let first = report.outcomes.iter().min_by_key(|o| o.trace_offset_us);
        let latency_us = first.and_then(|o| o.latency_us).unwrap();
        assert!(
            latency_us < 20_000,
            "{protocol:?}: first answer's latency {latency_us} µs is the time to its read"
        );
    }
}

#[tokio::test(flavor = "multi_thread")]
async fn a_queued_answer_never_expires() {
    for protocol in [Protocol::Udp, Protocol::Tcp] {
        // The first query's 50 ms timeout falls while the querier sleeps
        // toward the second; expiry reads the socket first and finds it
        // answered.
        let retry = RetryPolicy {
            timeout: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let report = replay(protocol, retry).await;
        assert_eq!(report.sent, 2, "{protocol:?}");
        assert_eq!(report.answered, report.sent, "{protocol:?}");
        assert_eq!(report.timeouts, 0, "{protocol:?}");
        assert_eq!(report.retries, 0, "{protocol:?}");
    }
}

/// An answer counts only on the socket its query went out on. A server
/// that sends each answer to the querier's *other* socket (two sources,
/// one socket each) gets none credited: each answer's id is in flight,
/// but on the other socket, so it is counted as mismatched and the query
/// stays in flight until the drain gives up on it.
#[tokio::test(flavor = "multi_thread")]
async fn an_answer_on_another_socket_is_not_credited() {
    let server = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    server
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let addr = server.local_addr().unwrap();
    let crossed = std::thread::spawn(move || {
        let mut queries = Vec::new();
        let mut buf = [0u8; 512];
        while queries.len() < 2 {
            let (len, peer) = server.recv_from(&mut buf).unwrap();
            queries.push((buf[..len].to_vec(), peer));
        }
        let [(q0, p0), (q1, p1)] = <[_; 2]>::try_from(queries).unwrap();
        assert_ne!(p0, p1, "the two sources share a socket");
        server.send_to(&q0, p1).unwrap();
        server.send_to(&q1, p0).unwrap();
    });
    let records = (0..2u64)
        .map(|i| {
            TraceRecord::udp_query(
                i,
                format!("10.0.0.{}", i + 1).parse().unwrap(),
                1024,
                Name::parse("www.example.com").unwrap(),
                RrType::A,
            )
        })
        .collect();
    let replay = LiveReplay {
        mode: ReplayMode::Fast,
        queriers_per_distributor: 1,
        max_sockets_per_querier: 2,
        retry: RetryPolicy::disabled(),
        drain: Duration::from_millis(300),
        ..LiveReplay::new(addr)
    };
    let report = replay.run(records).await.unwrap();
    crossed.join().unwrap();
    assert_eq!(report.sent, 2);
    assert_eq!(report.answered, 0, "an answer was credited across sockets");
    assert_eq!(report.shards[0].mismatched_answers, 2);
}

/// The signed root's apex DNSKEY answer (two keys and a signature) does
/// not fit the 512-byte EDNS payload the query advertises: the server
/// truncates it over UDP, and the querier asks again over TCP (RFC 7766),
/// counting the fallback once.
#[tokio::test(flavor = "multi_thread")]
async fn a_truncated_answer_is_asked_again_over_tcp() {
    let mut zones = ZoneSet::new();
    zones.insert(ldp_workload::zones::signed_root_zone(
        5,
        ldp_zone::dnssec::SigningConfig::zsk2048(),
    ));
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(zones)));
    let server = LiveServer::spawn(engine, "127.0.0.1:0".parse().unwrap())
        .await
        .unwrap();
    let mut rec = TraceRecord::udp_query(
        0,
        "10.0.0.1".parse().unwrap(),
        1024,
        Name::root(),
        RrType::Dnskey,
    );
    rec.message.edns = Some(Edns {
        udp_payload_size: 512,
        dnssec_ok: true,
        ..Edns::default()
    });
    let replay = LiveReplay {
        queriers_per_distributor: 1,
        ..LiveReplay::new(server.addr)
    };
    let report = replay.run(vec![rec]).await.unwrap();
    assert_eq!(report.sent, 1);
    assert_eq!(report.answered, 1, "the TCP answer completes the query");
    assert_eq!(report.shards[0].tc_fallbacks, 1);
    assert_eq!(report.timeouts, 0);
    assert_eq!(server.stats.udp_queries.load(Ordering::Relaxed), 1);
    assert_eq!(server.stats.tcp_queries.load(Ordering::Relaxed), 1);
    let o = report.outcomes.iter().next().unwrap();
    assert_eq!(o.protocol, Protocol::Udp, "the record keeps its protocol");
}
