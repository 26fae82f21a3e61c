//! The Prometheus exposition of every counter block, pinned byte for
//! byte: a replay shard's cells (registered family by family from
//! `ldp_replay::engine::FAMILIES`), a chaos-spawned live server and a
//! proxy node, each cell holding a distinct value. A family's name, help,
//! labels, kind or the field it reads cannot change without this fixture
//! changing with it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ldp_metrics::ShardCounters;
use ldp_proxy::ProxyNode;
use ldp_replay::engine::FAMILIES;
use ldp_server::auth::AuthEngine;
use ldp_server::chaos::ChaosPolicy;
use ldp_server::live::LiveServer;
use ldp_telemetry::{render_prometheus, Registry};
use ldp_zone::ZoneSet;

const FIXTURE: &str = include_str!("fixtures/exposition.prom");

fn set(cells: &[&AtomicU64], first: u64) {
    for (v, cell) in (first..).zip(cells) {
        cell.store(v, Ordering::Relaxed);
    }
}

#[test]
fn every_counter_block_renders_as_pinned() {
    let reg = Registry::new();

    let c = Arc::new(ShardCounters::default());
    let cells = [
        &c.sent,
        &c.answered,
        &c.late,
        &c.send_lag_us,
        &c.timeouts,
        &c.retries,
        &c.reconnects,
        &c.gave_up,
        &c.errors,
        &c.id_collisions,
        &c.mismatched_answers,
        &c.tc_fallbacks,
        &c.batches,
        &c.postman_stalls,
        &c.max_queue_depth,
        &c.queue_depth,
        &c.in_flight,
    ];
    for (v, cell) in (1..).zip(cells) {
        cell.set(v);
    }
    for (name, help, kind, read) in FAMILIES {
        let c = c.clone();
        reg.observe(name, help, kind, &[("shard", "0")], move || read(&c));
    }

    let engine = Arc::new(AuthEngine::with_zones(Arc::new(ZoneSet::new())));
    let chaos = Arc::new(ChaosPolicy::new(1));
    let server =
        LiveServer::start_with_chaos(engine, "127.0.0.1:0".parse().unwrap(), chaos.clone())
            .unwrap();
    let s = &server.stats;
    set(
        &[
            &s.udp_queries,
            &s.tcp_queries,
            &s.tcp_connections,
            &s.malformed,
            &s.response_bytes,
            &s.send_failures,
        ],
        101,
    );
    let p = &s.pktcache;
    set(&[&p.hits, &p.misses, &p.evictions], 201);
    let f = &chaos.stats;
    set(
        &[
            &f.dropped,
            &f.duplicated,
            &f.delayed,
            &f.refused_accepts,
            &f.resets,
        ],
        301,
    );
    server.register_telemetry(&reg);

    let proxy = ProxyNode::new("10.0.0.3".parse().unwrap(), "10.0.0.2".parse().unwrap());
    let p = &proxy.stats;
    set(
        &[&p.queries_forwarded, &p.responses_forwarded, &p.dropped],
        401,
    );
    proxy.register_telemetry(&reg);

    let text = render_prometheus(&reg.snapshot());
    assert!(text == FIXTURE, "exposition changed:\n{text}");
}
