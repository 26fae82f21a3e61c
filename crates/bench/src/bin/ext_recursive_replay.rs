//! Extension experiment (paper §7: "currently evaluating replays of
//! recursive DNS traces with multiple levels of the DNS hierarchy"):
//! replay a Rec-17-style departmental trace *through a recursive resolver*
//! that resolves against the emulated hierarchy via the proxy pair, and
//! measure what the paper's framework makes visible — cache hit ratio
//! over time, upstream query amplification, and stub-visible latency for
//! cold vs warm lookups.

use std::net::IpAddr;
use std::sync::Arc;

use ldp_bench::{emit, scale, Report, Summary};
use ldp_netsim::{Sim, SimDuration, SimTime, TcpConfig};
use ldp_proxy::ProxyNode;
use ldp_replay::sim::SimDriver;
use ldp_server::auth::AuthEngine;
use ldp_server::recursive::{ResolverConfig, ResolverCore};
use ldp_server::resource::ResourceModel;
use ldp_server::sim::{AuthServerNode, RecursiveNode};
use ldp_wire::{Name, RData, Record};
use ldp_workload::RecConfig;
use ldp_zone::{ViewTable, Zone};
use serde_json::json;

const ROOT_NS: &str = "198.41.0.4";
const TLD_NS: &str = "192.5.6.30";
const META: &str = "10.0.0.3";
const REC: &str = "10.0.0.2";
const STUB: &str = "10.0.0.1";

/// Builds the hierarchy the Rec trace queries: root → example → the ~549
/// zoneNNNN.example SLDs (all SLDs share one nameserver, as hosting
/// providers do — one view serves them all).
fn hierarchy(zones: usize) -> ViewTable {
    let sld_ns: IpAddr = "192.0.2.53".parse().unwrap();
    let mut root = Zone::with_fake_soa(Name::root());
    root.add(Record::new(
        Name::root(),
        518400,
        RData::Ns(Name::parse("a.root-servers.net").unwrap()),
    ))
    .unwrap();
    root.add(Record::new(
        Name::parse("a.root-servers.net").unwrap(),
        518400,
        RData::A(ROOT_NS.parse().unwrap()),
    ))
    .unwrap();
    root.add(Record::new(
        Name::parse("example").unwrap(),
        172800,
        RData::Ns(Name::parse("ns.example").unwrap()),
    ))
    .unwrap();
    root.add(Record::new(
        Name::parse("ns.example").unwrap(),
        172800,
        RData::A(TLD_NS.parse().unwrap()),
    ))
    .unwrap();

    let mut tld = Zone::with_fake_soa(Name::parse("example").unwrap());
    let mut pairs: Vec<(IpAddr, Zone)> = Vec::new();
    for i in 0..zones {
        let origin = Name::parse(&format!("zone{i:04}.example")).unwrap();
        tld.add(Record::new(
            origin.clone(),
            86400,
            RData::Ns(Name::parse("ns.hosting.example").unwrap()),
        ))
        .unwrap();
        tld.add(Record::new(
            Name::parse("ns.hosting.example").unwrap(),
            86400,
            RData::A("192.0.2.53".parse().unwrap()),
        ))
        .unwrap();
        let mut z = Zone::with_fake_soa(origin.clone());
        for host in ["www", "mail", "api", "cdn"] {
            z.add(Record::new(
                origin.prepend(host.as_bytes()).unwrap(),
                300,
                RData::A(
                    format!("203.0.{}.{}", i / 250, 1 + i % 250)
                        .parse()
                        .unwrap(),
                ),
            ))
            .unwrap();
        }
        pairs.push((sld_ns, z));
    }
    pairs.push((ROOT_NS.parse().unwrap(), root));
    pairs.push((TLD_NS.parse().unwrap(), tld));
    ViewTable::from_nameserver_map(pairs)
}

fn main() {
    let scale = scale();
    let cfg = RecConfig {
        duration_s: 600.0 * scale.clamp(0.2, 2.0),
        ..RecConfig::default()
    };
    let trace = cfg.generate();
    let n_queries = trace.len();

    // The stub replays the trace at trace timing through the same querier
    // the §5 experiments use, pointed at the recursive.
    let mut sim = Sim::new();
    let stub = sim.add_node(Box::new(SimDriver::new(
        STUB.parse().unwrap(),
        REC.parse().unwrap(),
        TcpConfig::default(),
        trace,
    )));
    let rec = sim.add_node(Box::new(RecursiveNode::new(
        REC.parse().unwrap(),
        ResolverCore::new(vec![ROOT_NS.parse().unwrap()], ResolverConfig::default()),
    )));
    let proxy = sim.add_node(Box::new(ProxyNode::new(
        META.parse().unwrap(),
        REC.parse().unwrap(),
    )));
    let meta = sim.add_node(Box::new(AuthServerNode::new(
        META.parse().unwrap(),
        Arc::new(AuthEngine::with_views(hierarchy(549))),
        TcpConfig::default(),
        ResourceModel::default(),
    )));
    sim.bind(STUB.parse().unwrap(), stub);
    sim.bind(REC.parse().unwrap(), rec);
    sim.bind(META.parse().unwrap(), meta);
    for ns in [ROOT_NS, TLD_NS, "192.0.2.53"] {
        sim.bind(ns.parse().unwrap(), proxy);
    }
    // Stub↔recursive is a campus LAN; recursive↔authoritatives are WAN.
    sim.set_default_delay(SimDuration::from_millis(15));

    sim.run_until(SimTime::from_secs(cfg.duration_s as u64 + 10));

    let outcomes = sim.node_as_mut::<SimDriver>(stub).unwrap().take_outcomes();
    let rec_ref: &RecursiveNode = sim.node_as(rec).unwrap();
    let meta_ref: &AuthServerNode = sim.node_as(meta).unwrap();

    let lat: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.latency_us)
        .map(|us| us as f64 / 1000.0)
        .collect();
    let answered = lat.len();
    let amplification = rec_ref.core.upstream_queries as f64 / n_queries as f64;
    let hit_rate = rec_ref.core.cache.hits as f64
        / (rec_ref.core.cache.hits + rec_ref.core.cache.misses).max(1) as f64;

    let mut report =
        Report::new("Extension: recursive trace replay through the emulated hierarchy");
    let summary = report.section(
        format!("Rec-17-like trace, 549 zones, one meta server (LDP_SCALE={scale})"),
        &["metric", "value"],
    );
    summary.row(vec![json!("stub queries"), json!(n_queries)]);
    summary.row(vec![json!("answered"), json!(answered)]);
    summary.row(vec![
        json!("upstream (iterative) queries"),
        json!(rec_ref.core.upstream_queries),
    ]);
    summary.row(vec![
        json!("amplification (upstream/stub)"),
        json!(amplification),
    ]);
    summary.row(vec![json!("cache hit rate"), json!(hit_rate)]);
    summary.row(vec![
        json!("meta-server queries served"),
        json!(meta_ref.usage.udp_queries),
    ]);

    // Cold vs warm latency: split by first-vs-later occurrence per qname
    // cache state using latency clusters (cold = multi-hop).
    if let Some(s) = Summary::compute(&lat) {
        summary.row(vec![json!("latency median (ms)"), json!(s.median)]);
        summary.row(vec![json!("latency q3 (ms)"), json!(s.q3)]);
        summary.row(vec![json!("latency p95 (ms)"), json!(s.p95)]);
        println!(
            "{n_queries} stub queries, {answered} answered; amplification {amplification:.2}×; cache hit rate {:.1}%",
            hit_rate * 100.0
        );
        println!(
            "latency: median {:.0} ms, q3 {:.0} ms, p95 {:.0} ms",
            s.median, s.q3, s.p95
        );
    }

    // First-queries walk three levels (3 × WAN RTT + LAN RTT); repeats are
    // one LAN RTT. Both modes must be visible.
    let warm = lat.iter().filter(|&&l| l < 45.0).count();
    let cold = lat.len() - warm;
    summary.row(vec![json!("warm (≈1 LAN RTT) answers"), json!(warm)]);
    summary.row(vec![json!("cold (hierarchy walk) answers"), json!(cold)]);
    println!("warm {warm} vs cold {cold} — cache effect of §2.4's worked example");
    emit(&report, "ext_recursive_replay");
}
