//! Cross-crate integration tests: the full LDplayer loops the paper's
//! sections describe, exercised through the public `ldplayer` facade.

use ldplayer::metrics::Summary;
use ldplayer::trace::{mutate, Mutation, Protocol, QueryMutator};
use ldplayer::workload::BRootConfig;
use ldplayer::SimExperiment;

fn small_cfg() -> BRootConfig {
    BRootConfig {
        duration_s: 5.0,
        mean_rate_qps: 400.0,
        clients: 500,
        seed: 3,
        ..BRootConfig::default()
    }
}

#[test]
fn replay_is_deterministic_across_runs() {
    // The §2.1 repeatability requirement, end to end: identical
    // trace + config ⇒ identical per-query outcomes and samples.
    let run = || {
        SimExperiment::root_server(small_cfg().generate())
            .rtt_ms(10)
            .tcp_idle_timeout_s(20)
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.response_bytes, b.response_bytes);
}

#[test]
fn udp_tcp_tls_resource_ordering() {
    // §5.2's core ordering: memory(UDP) < memory(TCP) < memory(TLS),
    // and every variant still answers everything.
    let run = |m: Option<fn(u64) -> QueryMutator>| {
        let mut trace = small_cfg().generate();
        if let Some(f) = m {
            f(9).apply_all(&mut trace);
        }
        SimExperiment::root_server(trace)
            .rtt_ms(10)
            .tcp_idle_timeout_s(20)
            .run()
    };
    let udp = run(Some(|s| {
        QueryMutator::new(s).push(Mutation::SetProtocol(Protocol::Udp))
    }));
    let tcp = run(Some(mutate::all_tcp));
    let tls = run(Some(mutate::all_tls));
    for (label, r) in [("udp", &udp), ("tcp", &tcp), ("tls", &tls)] {
        assert!(
            r.answer_rate() > 0.99,
            "{label} answer rate {}",
            r.answer_rate()
        );
    }
    assert!(udp.final_memory_gb() < tcp.final_memory_gb());
    assert!(tcp.final_memory_gb() < tls.final_memory_gb());
    assert_eq!(udp.usage.tcp_handshakes, 0);
    assert!(tls.usage.tls_handshakes > 0);
}

#[test]
fn dnssec_mutation_grows_traffic() {
    // §5.1 end to end: same workload, signed zone, DO share 0 → 1 grows
    // response bytes substantially.
    use ldplayer::zone::dnssec::SigningConfig;
    let base = small_cfg();
    let run = |do_fraction: f64| {
        let mut trace = base.generate();
        QueryMutator::new(4)
            .push(Mutation::ClearDoBit)
            .push(Mutation::SetDoBit {
                fraction: do_fraction,
            })
            .apply_all(&mut trace);
        SimExperiment::signed_root(trace, SigningConfig::zsk2048())
            .rtt_ms(1)
            .run()
    };
    let plain = run(0.0);
    let signed = run(1.0);
    assert!(plain.answer_rate() > 0.99 && signed.answer_rate() > 0.99);
    let growth = signed.response_bytes as f64 / plain.response_bytes as f64;
    assert!(
        growth > 1.5,
        "all-DO traffic should far exceed no-DO: growth {growth}"
    );
}

#[test]
fn latency_scales_with_rtt_for_udp() {
    let run = |rtt: u64| {
        let mut trace = small_cfg().generate();
        QueryMutator::new(1)
            .push(Mutation::SetProtocol(Protocol::Udp))
            .apply_all(&mut trace);
        let result = SimExperiment::root_server(trace).rtt_ms(rtt).run();
        Summary::compute(&result.latencies_ms()).unwrap().median
    };
    assert_eq!(run(10), 10.0);
    assert_eq!(run(80), 80.0);
}

#[test]
fn timeout_sweep_changes_connection_footprint() {
    // Figure 13's mechanism at test scale: larger idle timeout ⇒ more
    // established connections at end of run.
    let run = |timeout: u64| {
        let mut trace = BRootConfig {
            duration_s: 100.0,
            mean_rate_qps: 100.0,
            clients: 3_000,
            seed: 5,
            ..BRootConfig::default()
        }
        .generate();
        mutate::all_tcp(2).apply_all(&mut trace);
        SimExperiment::root_server(trace)
            .rtt_ms(1)
            .tcp_idle_timeout_s(timeout)
            .run()
    };
    let short = run(5);
    let long = run(40);
    assert!(
        long.final_tcp.established > short.final_tcp.established,
        "40s: {} !> 5s: {}",
        long.final_tcp.established,
        short.final_tcp.established
    );
    assert!(short.final_tcp.idle_closed > long.final_tcp.idle_closed);
}

#[test]
fn trace_survives_all_three_formats_then_replays() {
    // §2.5 pipeline integrity: capture → text → stream, then replay the
    // stream and answer everything.
    use ldplayer::trace::{capture, stream, text};
    let records = small_cfg().generate();
    let captured = capture::from_bytes(&capture::to_bytes(&records).unwrap()).unwrap();
    assert_eq!(captured, records);

    let mut text_bytes = Vec::new();
    text::write_text(&mut text_bytes, &captured).unwrap();
    let reparsed = text::read_text(std::io::Cursor::new(text_bytes)).unwrap();
    assert_eq!(reparsed.len(), records.len());

    let streamed = stream::from_bytes(&stream::to_bytes(&reparsed).unwrap()).unwrap();
    let result = SimExperiment::root_server(streamed).rtt_ms(5).run();
    assert!(result.answer_rate() > 0.99, "rate {}", result.answer_rate());
}

#[test]
fn zonegen_round_trip_through_master_files() {
    // §2.3: zones built from harvested traffic survive serialization to
    // master files and reload into an equivalent hierarchy.
    use ldplayer::server::auth::AuthEngine;
    use ldplayer::server::recursive::{ResolverConfig, ResolverCore, ResolverStep};
    use ldplayer::wire::{Message, Name, RrType};
    use ldplayer::zone::master;
    use ldplayer::zonegen::ZoneConstructor;

    // Harvest from the synthetic root hierarchy: ask for a few names.
    let mut zones = ldplayer::zone::ZoneSet::new();
    zones.insert(ldplayer::workload::zones::synthetic_root_zone(20));
    let internet = AuthEngine::with_zones(std::sync::Arc::new(zones));
    let root_addr: std::net::IpAddr = "198.41.0.4".parse().unwrap();

    let mut constructor = ZoneConstructor::new();
    let mut resolver = ResolverCore::new(vec![root_addr], ResolverConfig::default());
    for name in ["www.x.com", "a.b.net", "c.org"] {
        let q = Message::query(1, Name::parse(name).unwrap(), RrType::A);
        let mut steps = resolver.on_client_query("10.0.0.1:1".parse().unwrap(), &q, 0);
        for _ in 0..8 {
            match steps.pop() {
                Some(ResolverStep::Ask { server, message }) => {
                    let resp = internet.respond(server, &message, false);
                    constructor.ingest_response(server, &resp);
                    steps = resolver.on_upstream_response(&resp, 0);
                }
                _ => break,
            }
        }
    }
    // Root-NS probe (recover missing data).
    let probe = Message::query(2, Name::root(), RrType::Ns);
    constructor.ingest_response(root_addr, &internet.respond(root_addr, &probe, false));

    let built = constructor.build();
    assert!(built.stats.zones_built >= 1);
    for (file, text) in built.to_master_files() {
        let origin = if file == "root.zone" {
            Name::root()
        } else {
            Name::parse(&file.trim_end_matches(".zone").replace('_', ".")).unwrap()
        };
        let reparsed = master::parse_zone(&origin, &text).expect("master file reloads");
        assert!(reparsed.validate().is_ok(), "{file} invalid after reload");
    }
}

#[test]
fn failure_injection_udp_loss_reduces_answers_only() {
    // Packet loss on UDP must lower the answer rate without wedging the
    // experiment or panicking anything.
    use ldplayer::netsim::loss::{LossModel, LossScope};
    use ldplayer::netsim::{Sim, SimDuration, SimTime, TcpConfig};
    use ldplayer::replay::sim::SimDriver;
    use ldplayer::server::resource::ResourceModel;
    use ldplayer::server::sim::AuthServerNode;

    let mut trace = small_cfg().generate();
    QueryMutator::new(1)
        .push(Mutation::SetProtocol(Protocol::Udp))
        .apply_all(&mut trace);
    let n_queries = trace.len();

    let mut zones = ldplayer::zone::ZoneSet::new();
    zones.insert(ldplayer::workload::zones::synthetic_root_zone(50));
    let engine = std::sync::Arc::new(ldplayer::server::auth::AuthEngine::with_zones(
        std::sync::Arc::new(zones),
    ));

    let mut sim = Sim::new();
    sim.set_loss(LossModel::random(0.3, LossScope::UdpOnly, 7));
    let q = sim.add_node(Box::new(SimDriver::new(
        "10.0.0.1".parse().unwrap(),
        "192.0.2.53".parse().unwrap(),
        TcpConfig::default(),
        trace,
    )));
    let s = sim.add_node(Box::new(AuthServerNode::new(
        "192.0.2.53".parse().unwrap(),
        engine,
        TcpConfig::default(),
        ResourceModel::default(),
    )));
    sim.bind("10.0.0.1".parse().unwrap(), q);
    sim.bind("192.0.2.53".parse().unwrap(), s);
    sim.set_pair_delay(q, s, SimDuration::from_millis(5));
    sim.run_until(SimTime::from_secs(30));

    let querier: &mut SimDriver = sim.node_as_mut(q).unwrap();
    let rate = querier.answer_rate();
    assert_eq!(
        querier.take_outcomes().len(),
        n_queries,
        "every query attempted"
    );
    // 30% loss each way ⇒ ~49% answered.
    assert!(
        (0.35..0.65).contains(&rate),
        "expected ~49% answered under 30% bidirectional loss, got {rate}"
    );
    assert!(sim.dropped_packets > 0);
}
