//! Chaos-hardening integration tests: the live replay engine against a
//! fault-injecting [`ldp_server::live::LiveServer`].
//!
//! Every scenario is seeded and content-keyed (see
//! [`ldp_server::ChaosPolicy`]), so which queries are dropped, duplicated,
//! or delayed is a pure function of the seed and the query wire — not of
//! arrival order — and a rerun with the same seed exercises the identical
//! fault schedule.
//!
//! The bind- and send-failure tests flip process-global fault switches in
//! the vendored `tokio::net`, so all tests here serialize on one lock.

// Each test deliberately holds the serialization guard across its awaits:
// the vendored runtime is thread-per-task, so a parked std mutex blocks
// only its own test thread, never an executor worker.
#![allow(clippy::await_holding_lock)]

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use ldp_replay::engine::FAMILIES;
use ldp_replay::{LiveReplay, ReplayError, ReplayMode, ReplayReport};
use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_server::ChaosPolicy;
use ldp_trace::{Protocol, TraceRecord};
use ldp_wire::{Name, RrType};
use ldp_workload::zones::wildcard_example_zone;
use ldp_zone::ZoneSet;

mod telemetry {
    include!("support/telemetry.rs");
}

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn engine() -> Arc<AuthEngine> {
    let mut set = ZoneSet::new();
    set.insert(wildcard_example_zone());
    Arc::new(AuthEngine::with_zones(Arc::new(set)))
}

fn trace(n: u64, gap_us: u64, protocol: Protocol) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| {
            let mut rec = TraceRecord::udp_query(
                i * gap_us,
                format!("10.0.0.{}", 1 + i % 5).parse().unwrap(),
                (1024 + i % 60000) as u16,
                Name::parse(&format!("q{i}.example.com")).unwrap(),
                RrType::A,
            );
            rec.protocol = protocol;
            rec
        })
        .collect()
}

/// One fast-mode UDP replay against a 20%-lossy server. Returns the report
/// plus the number of responses the server actually swallowed.
async fn lossy_run(seed: u64) -> (ReplayReport, u64) {
    let chaos = Arc::new(ChaosPolicy::new(seed).drop_responses(0.2));
    let server =
        LiveServer::spawn_with_chaos(engine(), "127.0.0.1:0".parse().unwrap(), chaos.clone())
            .await
            .unwrap();
    let mut replay = LiveReplay::new(server.addr);
    replay.mode = ReplayMode::Fast;
    // Give the retry ladder room to exhaust (3 attempts ≈ 1.8 s worst
    // case); the adaptive drain exits the moment nothing is in flight.
    replay.drain = Duration::from_secs(4);
    let report = replay.run(trace(300, 500, Protocol::Udp)).await.unwrap();
    (report, chaos.stats.dropped.load(Ordering::Relaxed))
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn lossy_server_recovers_via_retries() {
    let _g = lock();
    let (report, dropped) = lossy_run(7).await;
    assert_eq!(report.sent, 300);
    assert!(dropped > 0, "chaos dropped nothing at 20% loss");
    assert!(
        report.timeouts > 0,
        "drops must surface as attempt expiries"
    );
    assert!(report.retries > 0, "expiries must trigger retransmits");
    // Three attempts at 20% loss lose a query with p = 0.008; ≥99% of the
    // trace must still be answered.
    assert!(
        report.answered >= 297,
        "answered only {}/300 (timeouts {}, retries {}, gave_up {})",
        report.answered,
        report.timeouts,
        report.retries,
        report.gave_up
    );
    // Retransmits are accounted separately, never inflating `sent`.
    assert_eq!(report.sent, 300);
    assert_eq!(report.errors, 0);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn lossy_replay_is_deterministic_under_a_fixed_seed() {
    let _g = lock();
    let (first, first_dropped) = lossy_run(7).await;
    let (second, second_dropped) = lossy_run(7).await;
    // The fault schedule is content-keyed: same seed, same trace → the
    // same queries lose the same attempts, so the outcome counters match.
    assert_eq!(first.answered, second.answered, "answered diverged");
    assert_eq!(first.gave_up, second.gave_up, "gave_up diverged");
    assert_eq!(
        first_dropped, second_dropped,
        "server drop schedule diverged"
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn tcp_reset_mid_replay_triggers_reconnects_not_aborts() {
    let _g = lock();
    // A dark window over the whole run drops every UDP answer.
    let chaos = Arc::new(
        ChaosPolicy::new(11)
            .reset_after(10)
            .dark_window(Duration::ZERO, Duration::from_secs(60)),
    );
    let server =
        LiveServer::spawn_with_chaos(engine(), "127.0.0.1:0".parse().unwrap(), chaos.clone())
            .await
            .unwrap();
    let registry = Arc::new(ldp_telemetry::Registry::new());
    let mut replay = LiveReplay::new(server.addr);
    replay.drain = Duration::from_secs(4);
    replay.telemetry = Some(registry.clone());
    // 100 TCP queries from 5 sources, 20 per source: every connection is
    // reset after its 10th answer, mid-stream for every source. Ten UDP
    // queries from a sixth source go unanswered, retry out and give up,
    // so the run drives every fault counter.
    let mut records = trace(110, 2_000, Protocol::Tcp);
    for rec in records.iter_mut().skip(5).step_by(11) {
        rec.protocol = Protocol::Udp;
        rec.src = "10.0.0.9".parse().unwrap();
    }
    let report = replay.run(records).await.unwrap();
    assert!(
        chaos.stats.resets.load(Ordering::Relaxed) >= 1,
        "server never reset a connection"
    );
    assert!(
        report.reconnects >= 1,
        "client never reconnected after a reset"
    );
    // Graceful degradation: every record still goes on the wire (the
    // replay never aborts), queries cut down by a reset expire to
    // `gave_up` rather than erroring, and most TCP queries are answered.
    assert_eq!(report.sent, 110);
    assert_eq!(report.errors, 0);
    assert!(
        report.answered >= 70,
        "answered only {}/100 TCP queries",
        report.answered
    );
    assert_eq!(report.answered + report.gave_up, 110);
    // Each UDP query expired on all three attempts and was retransmitted
    // twice before it gave up.
    assert!(report.gave_up >= 10, "gave_up {}", report.gave_up);
    assert!(report.timeouts >= 30, "timeouts {}", report.timeouts);
    assert_eq!(report.retries, 20);
    telemetry::assert_telemetry_matches_report(&registry, &report);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn udp_bind_failures_degrade_to_per_record_errors() {
    let _g = lock();
    // Spawn the server first so its own bind is not sacrificed.
    let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
        .await
        .unwrap();
    tokio::net::fault::clear();
    tokio::net::fault::inject_udp_bind_failures(3);
    let mut replay = LiveReplay::new(server.addr);
    replay.drain = Duration::from_secs(2);
    let report = replay.run(trace(50, 1_000, Protocol::Udp)).await.unwrap();
    tokio::net::fault::clear();
    // Exactly the three poisoned binds degrade — to typed per-record
    // outcomes, not an abort — and the rest of the replay proceeds.
    assert_eq!(report.errors, 3);
    assert_eq!(report.sent, 47);
    let bind_errors = report
        .outcomes
        .iter()
        .filter(|o| o.error == Some(ReplayError::Bind))
        .count();
    assert_eq!(bind_errors, 3);
    assert!(
        report.answered >= 40,
        "answered only {}/47",
        report.answered
    );
}

/// A retransmit the kernel refuses never reaches the wire: the record was
/// sent, so it is no record error, and no retry either. The attempt
/// expires as usual and the query gives up after its last attempt.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn a_refused_retransmit_is_neither_an_error_nor_a_retry() {
    let _g = lock();
    // A peer that never answers.
    let silent = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut replay = LiveReplay::new(silent.local_addr().unwrap());
    replay.drain = Duration::from_secs(4);
    tokio::net::fault::clear();
    // The first send goes out by sendmmsg; the first retransmit fails.
    tokio::net::fault::inject_udp_send_failures(1);
    let report = replay.run(trace(1, 0, Protocol::Udp)).await.unwrap();
    tokio::net::fault::clear();
    assert_eq!(report.sent, 1);
    assert_eq!(report.errors, 0, "the record went on the wire");
    assert_eq!(report.gave_up, 1);
    assert_eq!(report.timeouts, 3, "every attempt expired");
    assert_eq!(report.retries, 1, "only the second retransmit went out");
    assert_eq!(
        report.outcomes.iter().filter(|o| o.error.is_some()).count(),
        0
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn duplicated_and_delayed_responses_do_not_double_count() {
    let _g = lock();
    let chaos = Arc::new(
        ChaosPolicy::new(3)
            .duplicate_responses(0.3)
            .delay_responses(0.2, Duration::from_millis(40)),
    );
    let server =
        LiveServer::spawn_with_chaos(engine(), "127.0.0.1:0".parse().unwrap(), chaos.clone())
            .await
            .unwrap();
    let mut replay = LiveReplay::new(server.addr);
    replay.mode = ReplayMode::Fast;
    replay.drain = Duration::from_secs(2);
    let report = replay.run(trace(200, 500, Protocol::Udp)).await.unwrap();
    assert!(chaos.stats.duplicated.load(Ordering::Relaxed) > 0);
    assert!(chaos.stats.delayed.load(Ordering::Relaxed) > 0);
    // A duplicate must never be counted as a second answer, and a 40 ms
    // delay sits well under the 250 ms timeout, so (nearly) everything is
    // answered exactly once.
    assert_eq!(report.sent, 200);
    assert!(report.answered <= 200, "duplicates double-counted");
    assert!(
        report.answered >= 198,
        "answered only {}/200",
        report.answered
    );
}
