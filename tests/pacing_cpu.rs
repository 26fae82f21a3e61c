//! Timed pacing must sleep between sends, not spin, and each wake must
//! stay cheap however many sockets the querier holds. A replay whose
//! records are 2 ms apart leaves its querier idle almost all the time,
//! so the process should use a small share of one CPU. This is a test
//! binary of its own so that the process CPU it reads is its replays'
//! alone.

use std::sync::{Arc, Mutex};
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

/// Replays 200 records at 2 ms gaps (Timed, one querier, retries off)
/// from `sources` sources asking one name, so the server answers from its
/// packet cache and little but the querier's wakes costs CPU. Returns the
/// process CPU used over the replay as a share of its wall time.
fn pacing_cpu_share(sources: u64) -> f64 {
    let mut zones = ZoneSet::new();
    zones.insert(wildcard_example_zone());
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(zones)));
    let server = LiveServer::start(engine, "127.0.0.1:0".parse().unwrap()).unwrap();
    let records: Vec<TraceRecord> = (0..200u64)
        .map(|i| {
            TraceRecord::udp_query(
                i * 2_000,
                format!("10.0.{}.{}", i % sources / 256, 1 + i % sources % 256)
                    .parse()
                    .unwrap(),
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
    assert_eq!(warm_up.run(records[..1].to_vec()).unwrap().answered, 1);

    let (cpu_before, started) = (process_cpu(), Instant::now());
    let report = replay.run(records).unwrap();
    let (cpu, wall) = (process_cpu() - cpu_before, started.elapsed());

    assert_eq!(report.sent, 200);
    let share = cpu.as_secs_f64() / wall.as_secs_f64();
    println!(
        "{sources} sources: {cpu:?} of CPU in {wall:?} of wall time ({:.0}%)",
        share * 100.0
    );
    share
}

/// The tests measure the whole process's CPU, so they take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

// The guard must span the replay: that is what serializes the tests.
#[allow(clippy::await_holding_lock)]
#[test]
fn timed_pacing_sleeps_between_sends() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let share = pacing_cpu_share(1);
    assert!(share < 0.25, "replay used {:.0}% of one CPU", share * 100.0);
}

/// With 128 sources the querier holds 128 sockets. It must find the one
/// with an answer queued in one call, not by trying every socket at every
/// wake.
#[allow(clippy::await_holding_lock)]
#[test]
fn waking_with_many_sockets_stays_cheap() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let share = pacing_cpu_share(128);
    assert!(share < 0.25, "replay used {:.0}% of one CPU", share * 100.0);
}
