//! Integration tests for the live (real-socket) path: LiveServer +
//! LiveReplay over loopback, the §4 experimental setup in miniature.

use std::sync::Arc;

use ldplayer::replay::{LiveReplay, ReplayMode};
use ldplayer::server::auth::AuthEngine;
use ldplayer::server::live::LiveServer;
use ldplayer::trace::{Protocol, TraceRecord};
use ldplayer::wire::{Name, RrType};
use ldplayer::workload::zones::{synthetic_root_zone, wildcard_example_zone};
use ldplayer::workload::SyntheticConfig;
use ldplayer::zone::ZoneSet;

fn engine() -> Arc<AuthEngine> {
    let mut set = ZoneSet::new();
    set.insert(wildcard_example_zone());
    set.insert(synthetic_root_zone(20));
    Arc::new(AuthEngine::with_zones(Arc::new(set)))
}

#[test]
fn timed_replay_preserves_interarrival_distribution() {
    let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
    // syn-2 shape: 10 ms fixed gaps for 3 seconds.
    let trace = SyntheticConfig {
        interarrival_us: 10_000,
        duration_s: 3,
        clients: 30,
        domain: "example.com",
    }
    .generate();
    let original: Vec<f64> = trace
        .windows(2)
        .map(|w| (w[1].time_us - w[0].time_us) as f64 / 1e6)
        .collect();
    let report = LiveReplay::new(server.addr).run(trace).unwrap();
    assert_eq!(report.sent, 300);
    assert!(report.answered as f64 / report.sent as f64 > 0.97);

    // KS distance is meaningless against a point-mass original (any µs of
    // send jitter splits the CDF at the atom), so compare quantiles: the
    // replayed distribution must sit tightly around the 10 ms gap, the way
    // Figure 7's curves hug each other.
    let replayed = ldplayer::metrics::Cdf::new(&report.replayed_interarrivals_s());
    let orig_gap = original[0];
    for q in [0.1, 0.5, 0.9] {
        let v = replayed.quantile(q).unwrap();
        assert!(
            (v - orig_gap).abs() < 0.004,
            "quantile {q}: replayed {v}s vs original {orig_gap}s"
        );
    }

    // Figure 6's bound, generous for shared-core CI: quartile error < 5 ms.
    let errors = report.timing_errors_ms();
    let s = ldplayer::metrics::Summary::compute(&errors).unwrap();
    assert!(s.q1.abs() < 5.0 && s.q3.abs() < 5.0, "quartiles {s:?}");
}

#[test]
fn speed_scaling_halves_wall_time() {
    let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
    let trace = SyntheticConfig {
        interarrival_us: 20_000,
        duration_s: 2,
        clients: 10,
        domain: "example.com",
    }
    .generate();
    let mut replay = LiveReplay::new(server.addr);
    replay.mode = ReplayMode::Timed { speed: 0.5 }; // double speed
    let t0 = std::time::Instant::now();
    let report = replay.run(trace).unwrap();
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(report.sent, 100);
    assert!(elapsed < 1.9, "2s trace at 2x speed took {elapsed}s");
}

#[test]
fn mixed_udp_tcp_trace_over_loopback() {
    let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
    let mut trace: Vec<TraceRecord> = (0..200u64)
        .map(|i| {
            TraceRecord::udp_query(
                i * 1_000,
                format!("10.3.0.{}", 1 + i % 8).parse().unwrap(),
                (2000 + i) as u16,
                Name::parse(&format!("m{i}.example.com")).unwrap(),
                RrType::A,
            )
        })
        .collect();
    for (i, r) in trace.iter_mut().enumerate() {
        if i % 10 == 0 {
            r.protocol = Protocol::Tcp;
        }
    }
    let mut replay = LiveReplay::new(server.addr);
    replay.mode = ReplayMode::Fast;
    let report = replay.run(trace).unwrap();
    assert_eq!(report.sent, 200);
    assert!(report.answered >= 190, "answered {}", report.answered);
    let tcp_sent = report
        .outcomes
        .iter()
        .filter(|o| o.protocol == Protocol::Tcp)
        .count();
    assert_eq!(tcp_sent, 20);
    // Both transports answered.
    assert!(report
        .outcomes
        .iter()
        .any(|o| o.protocol == Protocol::Tcp && o.latency_us.is_some()));
    assert!(report
        .outcomes
        .iter()
        .any(|o| o.protocol == Protocol::Udp && o.latency_us.is_some()));
}

#[test]
fn root_trace_replay_referrals_and_nxdomains() {
    // Replay root-style queries (referrals + NXDOMAIN junk) over UDP and
    // check the server served them all.
    let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
    let trace = ldplayer::workload::BRootConfig {
        duration_s: 2.0,
        mean_rate_qps: 300.0,
        clients: 100,
        seed: 8,
        tcp_fraction: 0.0,
        ..Default::default()
    }
    .generate();
    let n = trace.len() as u64;
    let mut replay = LiveReplay::new(server.addr);
    replay.mode = ReplayMode::Fast;
    let report = replay.run(trace).unwrap();
    assert_eq!(report.sent, n);
    assert!(
        report.answered as f64 / n as f64 > 0.97,
        "answered {}/{n}",
        report.answered
    );
    assert_eq!(
        server
            .stats
            .udp_queries
            .load(std::sync::atomic::Ordering::Relaxed),
        n
    );
}
