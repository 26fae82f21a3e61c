//! Timed pacing must sleep between sends, not spin. A replay whose
//! records are 2 ms apart leaves its querier idle almost all the time,
//! so the process should use a small share of one CPU. This is a test
//! binary of its own so that the process CPU it reads is this replay's
//! alone.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ldplayer::replay::{LiveReplay, ReplayMode, RetryPolicy};
use ldplayer::server::auth::AuthEngine;
use ldplayer::server::live::LiveServer;
use ldplayer::trace::TraceRecord;
use ldplayer::wire::{Name, RrType};
use ldplayer::workload::zones::wildcard_example_zone;
use ldplayer::zone::ZoneSet;

/// User plus system CPU time of the whole process (`getrusage`).
fn process_cpu() -> Duration {
    // SAFETY: getrusage with a zeroed out-param is the documented usage.
    let usage = unsafe {
        let mut usage: libc::rusage = std::mem::zeroed();
        assert_eq!(libc::getrusage(libc::RUSAGE_SELF, &mut usage), 0);
        usage
    };
    let tv = |t: libc::timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1_000);
    tv(usage.ru_utime) + tv(usage.ru_stime)
}

#[tokio::test(flavor = "multi_thread")]
async fn timed_pacing_sleeps_between_sends() {
    let mut zones = ZoneSet::new();
    zones.insert(wildcard_example_zone());
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(zones)));
    let server = LiveServer::spawn(engine, "127.0.0.1:0".parse().unwrap())
        .await
        .unwrap();
    // One source asking one name: a single querier paces every record,
    // and the server answers from its packet cache, so little but the
    // pacing itself costs CPU.
    let records: Vec<TraceRecord> = (0..200u64)
        .map(|i| {
            TraceRecord::udp_query(
                i * 2_000,
                "10.0.0.1".parse().unwrap(),
                1024 + i as u16,
                Name::parse("www.example.com").unwrap(),
                RrType::A,
            )
        })
        .collect();
    let replay = LiveReplay {
        queriers_per_distributor: 1,
        retry: RetryPolicy::disabled(),
        ..LiveReplay::new(server.addr)
    };
    // Warm up: the server's threads start (and set up their buffers and
    // cache) on its first query, outside the measured window.
    let warm_up = LiveReplay {
        mode: ReplayMode::Fast,
        ..replay.clone()
    };
    assert_eq!(
        warm_up.run(records[..1].to_vec()).await.unwrap().answered,
        1
    );

    let (cpu_before, started) = (process_cpu(), Instant::now());
    let report = replay.run(records).await.unwrap();
    let (cpu, wall) = (process_cpu() - cpu_before, started.elapsed());

    assert_eq!(report.sent, 200);
    let share = cpu.as_secs_f64() / wall.as_secs_f64();
    assert!(
        share < 0.25,
        "replay used {cpu:?} of CPU in {wall:?} of wall time ({:.0}%)",
        share * 100.0
    );
}
