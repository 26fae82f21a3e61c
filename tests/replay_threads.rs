//! A replay must not leave threads behind. Each querier reads its own
//! answers and expires its own queries, so a finished replay leaves no
//! receive, reader or sweeper thread blocked on a socket. This is a test
//! binary of its own so that the threads it lists are this test's alone.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use ldplayer::replay::{LiveReplay, ReplayMode};
use ldplayer::server::auth::AuthEngine;
use ldplayer::server::live::LiveServer;
use ldplayer::trace::{Protocol, TraceRecord};
use ldplayer::wire::{Name, RrType};
use ldplayer::workload::zones::wildcard_example_zone;
use ldplayer::zone::ZoneSet;

/// Names of this process's live threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

fn trace(protocol: Protocol) -> Vec<TraceRecord> {
    (0..60u64)
        .map(|i| {
            let mut rec = TraceRecord::udp_query(
                i * 1_000,
                format!("10.0.0.{}", 1 + i % 3).parse().unwrap(),
                1024 + i as u16,
                Name::parse(&format!("q{i}.example.com")).unwrap(),
                RrType::A,
            );
            rec.protocol = protocol;
            rec
        })
        .collect()
}

#[tokio::test(flavor = "multi_thread")]
async fn replays_leave_no_threads_behind() {
    let mut zones = ZoneSet::new();
    zones.insert(wildcard_example_zone());
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(zones)));
    let server = LiveServer::spawn(engine, "127.0.0.1:0".parse().unwrap())
        .await
        .unwrap();
    // Retries stay on (the default policy), so expiry runs too.
    let replay = LiveReplay {
        mode: ReplayMode::Fast,
        queriers_per_distributor: 2,
        ..LiveReplay::new(server.addr)
    };
    for protocol in [Protocol::Udp, Protocol::Tcp] {
        let report = replay.run(trace(protocol)).await.unwrap();
        assert_eq!(report.sent, 60, "{protocol:?}");
        assert_eq!(report.answered, 60, "{protocol:?}");
        let names = thread_names();
        let leaked: Vec<&String> = names
            .iter()
            .filter(|n| n.starts_with("udp-recv-") || *n == "tcp-recv" || n.starts_with("sweeper-"))
            .collect();
        assert!(
            leaked.is_empty(),
            "{protocol:?} replay left {leaked:?} running"
        );
        // A querier's thread ends right after it hands back its result.
        let grace = Instant::now() + Duration::from_secs(2);
        while thread_names().iter().any(|n| n.starts_with("querier-")) {
            assert!(
                Instant::now() < grace,
                "{protocol:?} replay left a querier thread running: {:?}",
                thread_names()
            );
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
    }
}
