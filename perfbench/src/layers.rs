//! Per-layer timings: each layer's public call, timed in a loop over the
//! workload's own records, with exact allocation counts from the counting
//! allocator.

use std::hint::black_box;
use std::io::Cursor;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use std::time::Instant;

use ldp_replay::{Batcher, ReplayPlan};
use ldp_server::auth::AuthEngine;
use ldp_server::pktcache::PacketCache;
use ldp_trace::stream::{StreamReader, StreamWriter};
use ldp_trace::{Protocol, TraceRecord};
use ldp_wire::{Message, RrType};
use ldp_workload::BRootConfig;

use crate::alloc;
use crate::stats::median;
use crate::workload::{Workload, TRACE_QPS};

/// Timed rounds per layer call (after one warm-up round).
const ROUNDS: usize = 5;

/// The replay engine's `Timed`-mode batch flush horizon (µs of trace
/// time); `Fast` mode never flushes a partial batch early.
const TIMED_HORIZON_US: u64 = 100_000;

/// The server's UDP packet-cache capacity.
const PKTCACHE_CAP: usize = 8_192;

/// One metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Times `op(i)` for `i` in `0..n`: the median round's ns/op, and the
/// allocations and bytes per op over all timed rounds.
fn time(out: &mut Vec<Metric>, name: &str, n: usize, mut op: impl FnMut(usize)) {
    (0..n).for_each(&mut op);
    let mut rounds = Vec::with_capacity(ROUNDS);
    let (allocs0, bytes0) = alloc::snapshot();
    for _ in 0..ROUNDS {
        let started = Instant::now();
        (0..n).for_each(&mut op);
        rounds.push(started.elapsed().as_nanos() as f64 / n as f64);
    }
    let (allocs1, bytes1) = alloc::snapshot();
    let ops = (n * ROUNDS) as f64;
    out.push((format!("{name}_ns"), median(&rounds), "ns"));
    out.push((
        format!("{name}_allocs"),
        (allocs1 - allocs0) as f64 / ops,
        "allocs/op",
    ));
    out.push((
        format!("{name}_bytes"),
        (bytes1 - bytes0) as f64 / ops,
        "B/op",
    ));
}

/// Times every layer on `records` (the workload's own queries, in replay
/// order) and returns one metric per layer call.
pub fn measure(
    workload: Workload,
    seed: u64,
    queriers: usize,
    records: &[TraceRecord],
) -> Vec<Metric> {
    let n = records.len();
    let mut out = Vec::new();
    let client = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let zones = Arc::new(workload.zones());
    let engine = AuthEngine::with_zones(zones.clone());
    let queries: Vec<Message> = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut q = r.message.clone();
            q.header.id = i as u16;
            q
        })
        .collect();
    let stream = |i: usize| records[i].protocol != Protocol::Udp;
    let wires: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| q.to_bytes().expect("query encodes"))
        .collect();
    let responses: Vec<Message> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| engine.respond(client, q, stream(i)))
        .collect();

    // Trace layer: the .ldps stream the Reader decodes.
    let mut encoded = StreamWriter::new(Vec::new()).expect("in-memory writer");
    for r in records {
        encoded.write(r).expect("record encodes");
    }
    let encoded = encoded.finish().expect("in-memory writer");
    let mut sink = StreamWriter::new(std::io::sink()).expect("sink writer");
    time(&mut out, "trace.write", n, |i| {
        black_box(sink.write(&records[i])).expect("record encodes");
    });
    let mut reader = StreamReader::new(Cursor::new(encoded.as_slice())).expect("magic");
    time(&mut out, "trace.read", n, |i| {
        if i == 0 {
            reader = StreamReader::new(Cursor::new(encoded.as_slice())).expect("magic");
        }
        black_box(reader.read().expect("record decodes"));
    });

    // Workload layer: generating the inputs.
    match workload {
        Workload::HotFast => {
            let template = &records[..queriers.min(n)];
            time(&mut out, "workload.generate", n, |i| {
                let t = &template[i % template.len()];
                black_box(TraceRecord::udp_query(
                    i as u64,
                    t.src,
                    t.src_port,
                    t.qname().expect("query has a name").clone(),
                    RrType::A,
                ));
            });
        }
        Workload::BrootTimed | Workload::BrootTcp => {
            // One op = one generated record; a round generates `n` of them.
            let cfg = BRootConfig {
                duration_s: n as f64 / TRACE_QPS,
                mean_rate_qps: TRACE_QPS,
                rate_swing: 0.0,
                seed,
                ..BRootConfig::default()
            };
            let per_round = cfg.generate().len().max(1);
            time(&mut out, "workload.generate", 1, |_| {
                black_box(cfg.generate());
            });
            for metric in out.iter_mut().rev().take(3) {
                metric.1 /= per_round as f64;
            }
        }
    }

    // Wire layer.
    time(&mut out, "wire.query_encode", n, |i| {
        black_box(queries[i].to_bytes()).expect("query encodes");
    });
    time(&mut out, "wire.query_decode", n, |i| {
        black_box(Message::from_bytes(&wires[i])).expect("query decodes");
    });
    time(&mut out, "wire.response_encode", n, |i| {
        black_box(responses[i].to_bytes()).expect("response encodes");
    });
    let response_bytes: usize = responses
        .iter()
        .map(|r| r.to_bytes().map_or(0, |b| b.len()))
        .sum();
    out.push((
        "wire.response_bytes_mean".into(),
        response_bytes as f64 / n as f64,
        "B",
    ));

    // Zone and server layers.
    time(&mut out, "zone.lookup", n, |i| {
        let q = &queries[i];
        let question = q.question().expect("query has a question");
        black_box(zones.lookup(&question.qname, question.qtype, q.dnssec_ok()));
    });
    time(&mut out, "server.respond", n, |i| {
        black_box(engine.respond(client, &queries[i], stream(i)));
    });
    time(&mut out, "server.full_path", n, |i| {
        let query = Message::from_bytes(&wires[i]).expect("query decodes");
        black_box(engine.respond(client, &query, stream(i)).to_bytes()).expect("response encodes");
    });
    let mut cache = PacketCache::new(PKTCACHE_CAP);
    let keys: Vec<Vec<u8>> = wires
        .iter()
        .take(PKTCACHE_CAP - 1)
        .zip(&responses)
        .map(|(w, r)| {
            let mut key = w.clone();
            key[..2].fill(0);
            cache.put(client, &key, &r.to_bytes().expect("response encodes"));
            key
        })
        .collect();
    time(&mut out, "server.pktcache_get", n, |i| {
        black_box(cache.get(client, &keys[i % keys.len()], i as u16)).expect("cache hit");
    });

    // Replay layer: the Postman's routing and batching.
    let horizon = match workload {
        Workload::HotFast => u64::MAX,
        Workload::BrootTimed | Workload::BrootTcp => TIMED_HORIZON_US,
    };
    let mut batcher: Batcher<u32> =
        Batcher::new(ReplayPlan::new(1, queriers), workload.batch_size(), horizon);
    let mut flushed = Vec::new();
    time(&mut out, "replay.batcher_push", n, |i| {
        let r = &records[i];
        black_box(batcher.push(r.src, r.time_us, i as u32, &mut flushed));
        for (_, spine) in flushed.drain(..) {
            batcher.donate(spine);
        }
    });
    out
}
