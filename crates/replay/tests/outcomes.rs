//! Outcome fidelity: every trace record appears in a replay's outcomes
//! exactly once, with the source, protocol and trace offset it was read
//! with and the deadline its querier's clock gave it. The trace mixes
//! IPv4 and IPv6 sources, more of them than a querier has sockets (so
//! sockets are shared), and UDP with TCP; a second replay aims at a
//! closed port, so every TCP connect fails.

use std::net::IpAddr;
use std::sync::Arc;
use std::time::Duration;

use ldp_replay::{LiveReplay, ReplayClock, ReplayError, ReplayMode, ReplayReport, RetryPolicy};
use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_trace::{Protocol, TraceRecord};
use ldp_wire::{Name, RrType};
use ldp_workload::zones::wildcard_example_zone;
use ldp_zone::ZoneSet;

/// Trace time of the first record: offsets are measured from here.
const EPOCH_US: u64 = 5_000_000;

const SOURCES: u64 = 24;

/// `n` records 1 ms apart from `SOURCES` sources, half IPv4 and half
/// IPv6; every fifth record goes over TCP.
fn mixed_trace(n: u64) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| {
            let s = i % SOURCES;
            let src: IpAddr = if s.is_multiple_of(2) {
                format!("10.9.0.{}", 1 + s).parse().unwrap()
            } else {
                format!("2001:db8::{:x}", 1 + s).parse().unwrap()
            };
            let mut rec = TraceRecord::udp_query(
                EPOCH_US + i * 1_000,
                src,
                (1024 + i) as u16,
                Name::parse(&format!("f{i}.example.com")).unwrap(),
                RrType::A,
            );
            if i % 5 == 0 {
                rec.protocol = Protocol::Tcp;
            }
            rec
        })
        .collect()
}

fn replay_to(server: std::net::SocketAddr, mode: ReplayMode) -> LiveReplay {
    LiveReplay {
        mode,
        queriers_per_distributor: 3,
        // 24 sources over 3 queriers: 8 per querier, 4 sockets each.
        max_sockets_per_querier: 4,
        batch_size: 16,
        ..LiveReplay::new(server)
    }
}

/// Checks that `report` holds one outcome per record of `records`, with
/// its source, protocol and trace offset, a target equal to the
/// `speed`-scaled clock's deadline, and no latency on an errored row;
/// and that the report's counts are those of its outcomes.
fn assert_one_outcome_per_record(report: &ReplayReport, records: &[TraceRecord], speed: f64) {
    let clock = ReplayClock::synchronize(EPOCH_US, 0).with_speed(speed);
    assert_eq!(report.outcomes.len(), records.len());
    let mut seen = vec![false; records.len()];
    for o in &report.outcomes {
        // Records are 1 ms apart, so the trace offset names the record.
        let i = (o.trace_offset_us / 1_000) as usize;
        let rec = &records[i];
        assert_eq!(o.trace_offset_us, rec.time_us - EPOCH_US);
        assert!(!std::mem::replace(&mut seen[i], true), "record {i} twice");
        assert_eq!(o.src, rec.src, "record {i}");
        assert_eq!(o.protocol, rec.protocol, "record {i}");
        assert_eq!(
            o.target_offset_us,
            clock.target_real_us(rec.time_us),
            "record {i} at speed {speed}"
        );
        if o.error.is_some() {
            assert_eq!(o.latency_us, None, "errored record {i} has a latency");
        }
    }
    let sent = report.outcomes.iter().filter(|o| o.error.is_none()).count();
    let answered = report.outcomes.iter().filter(|o| o.latency_us.is_some());
    assert_eq!(report.sent, sent as u64);
    assert_eq!(report.answered, answered.count() as u64);
    assert_eq!(report.errors, (records.len() - sent) as u64);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn every_record_has_one_outcome_at_any_speed() {
    let mut zones = ZoneSet::new();
    zones.insert(wildcard_example_zone());
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(zones)));
    let server = LiveServer::spawn(engine, "127.0.0.1:0".parse().unwrap())
        .await
        .unwrap();
    let records = mixed_trace(240);
    for speed in [1.0, 0.5] {
        let report = replay_to(server.addr, ReplayMode::Timed { speed })
            .run(records.clone())
            .await
            .unwrap();
        assert_one_outcome_per_record(&report, &records, speed);
        assert_eq!(report.errors, 0, "speed {speed}");
        for protocol in [Protocol::Udp, Protocol::Tcp] {
            assert!(
                report
                    .outcomes
                    .iter()
                    .any(|o| o.protocol == protocol && o.latency_us.is_some()),
                "speed {speed}: no {protocol:?} answer"
            );
        }
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn failed_connects_leave_errored_rows_without_latency() {
    // A port nothing listens on: every TCP connect is refused, and the
    // UDP queries go unanswered.
    let closed = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let records = mixed_trace(60);
    let replay = LiveReplay {
        retry: RetryPolicy::disabled(),
        drain: Duration::from_millis(100),
        ..replay_to(closed, ReplayMode::Fast)
    };
    let report = replay.run(records.clone()).await.unwrap();
    assert_one_outcome_per_record(&report, &records, 1.0);
    let tcp = records
        .iter()
        .filter(|r| r.protocol == Protocol::Tcp)
        .count();
    assert_eq!(report.errors, tcp as u64);
    for o in &report.outcomes {
        let want = (o.protocol == Protocol::Tcp).then_some(ReplayError::Connect);
        assert_eq!(o.error, want, "{o:?}");
        assert_eq!(o.latency_us, None, "{o:?}");
    }
}
