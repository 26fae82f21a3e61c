//! Pins the simulated client's behaviour, one fixed-seed `SimExperiment`
//! per transport: how many queries are answered, how many handshakes the
//! server sees, and quantiles of the µs-tick latency histogram. The
//! figures of §5 are built from exactly these numbers, so a change to the
//! simulated querier that moves any of them moves a figure.
//!
//! The expected values were recorded from the simulator before its
//! querier was rebuilt on the shared replay core; they must not be
//! refreshed from the code under test.

use ldplayer::trace::{mutate, Mutation, Protocol, QueryMutator, TraceRecord};
use ldplayer::wire::{Edns, Name, RrType};
use ldplayer::workload::BRootConfig;
use ldplayer::zone::dnssec::SigningConfig;
use ldplayer::{SimExperiment, SimRunResult};

/// What one run is pinned to.
#[derive(Debug, PartialEq)]
struct Pin {
    queries: usize,
    answered: u64,
    udp_queries: u64,
    stream_queries: u64,
    tcp_handshakes: u64,
    tls_handshakes: u64,
    quic_handshakes: u64,
    /// Connections the server closed for idleness.
    idle_closed: u64,
    /// Latency (µs ticks): min, p10, p50, p90, p99, max.
    latency_us: [u64; 6],
}

fn pin(r: &SimRunResult) -> Pin {
    let q = |p| r.latency_hist.quantile(p).unwrap_or(0);
    Pin {
        queries: r.outcomes.len(),
        answered: r.latency_hist.count(),
        udp_queries: r.usage.udp_queries,
        stream_queries: r.usage.stream_queries,
        tcp_handshakes: r.usage.tcp_handshakes,
        tls_handshakes: r.usage.tls_handshakes,
        quic_handshakes: r.usage.quic_handshakes,
        idle_closed: r.final_tcp.idle_closed,
        latency_us: [
            r.latency_hist.min().unwrap_or(0),
            q(0.1),
            q(0.5),
            q(0.9),
            q(0.99),
            r.latency_hist.max().unwrap_or(0),
        ],
    }
}

/// A B-Root-like trace, every query moved to `mutator`'s transport.
fn broot(
    duration_s: f64,
    rate: f64,
    clients: usize,
    mut mutator: QueryMutator,
) -> Vec<TraceRecord> {
    let mut trace = BRootConfig {
        duration_s,
        mean_rate_qps: rate,
        clients,
        seed: 21,
        ..BRootConfig::default()
    }
    .generate();
    mutator.apply_all(&mut trace);
    trace
}

#[test]
fn udp_run_is_pinned() {
    let trace = broot(
        4.0,
        300.0,
        300,
        QueryMutator::new(1).push(Mutation::SetProtocol(Protocol::Udp)),
    );
    let r = SimExperiment::root_server(trace).rtt_ms(20).run();
    assert_eq!(
        pin(&r),
        Pin {
            queries: 1219,
            answered: 1219,
            udp_queries: 1219,
            stream_queries: 0,
            tcp_handshakes: 0,
            tls_handshakes: 0,
            quic_handshakes: 0,
            idle_closed: 0,
            latency_us: [20000, 20000, 20000, 20000, 20000, 20000],
        }
    );
}

#[test]
fn tcp_run_with_idle_reconnects_is_pinned() {
    // Two minutes at one query a second over ten clients: a client's
    // queries are often more than the 20 s idle timeout apart, so it
    // reconnects.
    let trace = broot(120.0, 1.0, 10, mutate::all_tcp(1));
    let r = SimExperiment::root_server(trace)
        .rtt_ms(20)
        .tcp_idle_timeout_s(20)
        .run();
    assert_eq!(
        pin(&r),
        Pin {
            queries: 136,
            answered: 136,
            udp_queries: 0,
            stream_queries: 136,
            tcp_handshakes: 17,
            tls_handshakes: 0,
            quic_handshakes: 0,
            idle_closed: 11,
            latency_us: [20000, 20223, 20223, 40000, 40000, 40000],
        }
    );
}

#[test]
fn tls_run_is_pinned() {
    let trace = broot(4.0, 200.0, 200, mutate::all_tls(1));
    let r = SimExperiment::root_server(trace).rtt_ms(20).run();
    assert_eq!(
        pin(&r),
        Pin {
            queries: 797,
            answered: 797,
            udp_queries: 0,
            stream_queries: 797,
            tcp_handshakes: 115,
            tls_handshakes: 115,
            quic_handshakes: 0,
            idle_closed: 0,
            latency_us: [20000, 20223, 20223, 80000, 80000, 80000],
        }
    );
}

#[test]
fn quic_run_is_pinned() {
    let trace = broot(4.0, 200.0, 200, mutate::all_quic(1));
    let r = SimExperiment::root_server(trace).rtt_ms(20).run();
    assert_eq!(
        pin(&r),
        Pin {
            queries: 797,
            answered: 797,
            udp_queries: 0,
            stream_queries: 797,
            tcp_handshakes: 0,
            tls_handshakes: 0,
            quic_handshakes: 115,
            idle_closed: 0,
            latency_us: [20000, 20223, 20223, 40000, 40000, 40000],
        }
    );
}

#[test]
fn truncated_dnskey_run_falls_back_to_tcp_and_is_pinned() {
    // The signed root's DNSKEY answer does not fit a 512-byte EDNS
    // payload: every UDP answer comes back truncated and the query is
    // asked again over TCP.
    let trace: Vec<TraceRecord> = (0..40u64)
        .map(|i| {
            let mut rec = TraceRecord::udp_query(
                1_000 + i * 50_000,
                format!("10.7.0.{}", 1 + i % 5).parse().unwrap(),
                4_000 + i as u16,
                Name::root(),
                RrType::Dnskey,
            );
            rec.message.edns = Some(Edns {
                udp_payload_size: 512,
                dnssec_ok: true,
                ..Edns::default()
            });
            rec
        })
        .collect();
    let r = SimExperiment::signed_root(trace, SigningConfig::zsk2048())
        .rtt_ms(20)
        .run();
    assert_eq!(
        pin(&r),
        Pin {
            queries: 40,
            answered: 40,
            udp_queries: 40,
            stream_queries: 40,
            tcp_handshakes: 5,
            tls_handshakes: 0,
            quic_handshakes: 0,
            idle_closed: 0,
            latency_us: [40000, 40447, 40447, 59903, 59903, 60000],
        }
    );
}
