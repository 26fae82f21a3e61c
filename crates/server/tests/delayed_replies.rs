//! Chaos-delayed UDP replies go out from one delayer thread per server,
//! however many replies are delayed, and none goes out before its delay.
//!
//! Its own test binary: it counts the process's threads, which tests
//! running beside it would disturb.

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_server::ChaosPolicy;
use ldp_wire::{Message, Name, RrType};
use ldp_zone::ZoneSet;

/// The process's threads, as `/proc/self/task` lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

#[test]
fn delayed_replies_share_one_thread_and_are_never_early() {
    const QUERIES: u16 = 200;
    let delay = Duration::from_millis(50);
    let runtime = tokio::runtime::Runtime::new().expect("runtime");
    let mut zones = ZoneSet::new();
    zones.insert(ldp_workload::zones::wildcard_example_zone());
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(zones)));
    let chaos = Arc::new(ChaosPolicy::new(5).delay_responses(1.0, delay));
    let server = runtime
        .block_on(LiveServer::spawn_with_chaos(
            engine,
            "127.0.0.1:0".parse().expect("address"),
            chaos,
        ))
        .expect("server");
    let client = UdpSocket::bind("127.0.0.1:0").expect("bind");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let before = threads();
    let mut sent_at = Vec::new();
    for id in 0..QUERIES {
        let name = Name::parse(&format!("q{id}.example.com")).expect("name");
        let wire = Message::query(id, name, RrType::A)
            .to_bytes()
            .expect("wire");
        sent_at.push(Instant::now());
        client.send_to(&wire, server.addr).expect("query");
    }
    // Every reply is still waiting out its delay: count the threads now,
    // and again once all are out.
    std::thread::sleep(delay / 2);
    let mut extra = vec![threads().saturating_sub(before)];
    let mut buf = [0u8; 1_500];
    let mut answered = vec![false; usize::from(QUERIES)];
    for _ in 0..QUERIES {
        let len = client.recv(&mut buf).expect("a delayed reply");
        let arrived = Instant::now();
        assert!(len >= 2);
        let id = usize::from(u16::from_be_bytes([buf[0], buf[1]]));
        assert!(
            !std::mem::replace(&mut answered[id], true),
            "reply {id} twice"
        );
        let waited = arrived - sent_at[id];
        assert!(waited >= delay, "reply {id} came after {waited:?}");
    }
    extra.push(threads().saturating_sub(before));
    assert!(
        extra.iter().all(|&n| n <= 1),
        "{QUERIES} delayed replies started {extra:?} threads"
    );
}
