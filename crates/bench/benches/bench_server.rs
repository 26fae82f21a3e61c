//! Authoritative-engine benchmarks: per-query response cost for the
//! response kinds a root server actually serves (this is the 87 k q/s
//! budget of §4.3 from the server's side).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ldp_server::auth::AuthEngine;
use ldp_wire::{Edns, Message, Name, RrType};
use ldp_workload::zones::{signed_root_zone, synthetic_root_zone};
use ldp_zone::dnssec::SigningConfig;
use ldp_zone::ZoneSet;
use std::net::IpAddr;
use std::sync::Arc;

fn engine(signed: bool) -> AuthEngine {
    let mut set = ZoneSet::new();
    if signed {
        set.insert(signed_root_zone(500, SigningConfig::zsk2048()));
    } else {
        set.insert(synthetic_root_zone(500));
    }
    AuthEngine::with_zones(Arc::new(set))
}

fn bench_respond(c: &mut Criterion) {
    let plain = engine(false);
    let signed = engine(true);
    let client: IpAddr = "10.0.0.1".parse().unwrap();
    let referral_q = Message::query(1, Name::parse("www.host.com").unwrap(), RrType::A);
    let mut do_q = referral_q.clone();
    do_q.edns = Some(Edns::with_do());
    let nx_q = Message::query(1, Name::parse("x.invalid9").unwrap(), RrType::A);

    let mut g = c.benchmark_group("server/respond");
    g.throughput(Throughput::Elements(1));
    g.bench_function("referral", |b| {
        b.iter(|| plain.respond(client, black_box(&referral_q), false))
    });
    g.bench_function("referral_signed_do", |b| {
        b.iter(|| signed.respond(client, black_box(&do_q), false))
    });
    g.bench_function("nxdomain", |b| {
        b.iter(|| plain.respond(client, black_box(&nx_q), false))
    });
    g.finish();

    // Full path: decode query + respond + encode response — the per-query
    // work a UDP server does.
    let wire_q = do_q.to_bytes().unwrap();
    let mut g = c.benchmark_group("server/full_path");
    g.throughput(Throughput::Elements(1));
    g.bench_function("decode_respond_encode", |b| {
        b.iter(|| {
            let q = Message::from_bytes(black_box(&wire_q)).unwrap();
            signed.respond(client, &q, false).to_bytes().unwrap()
        })
    });
    g.finish();

    // The live servers' path: query bytes in, response bytes appended to
    // a reused buffer, nothing allocated.
    let mut out = Vec::with_capacity(4096);
    let mut g = c.benchmark_group("server/answer_wire");
    g.throughput(Throughput::Elements(1));
    g.bench_function("referral_signed_do", |b| {
        b.iter(|| {
            out.clear();
            signed
                .answer_wire(client, black_box(&wire_q), false, &mut out)
                .unwrap();
            out.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_respond);
criterion_main!(benches);
