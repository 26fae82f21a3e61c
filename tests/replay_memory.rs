//! Replay memory per record, a gate that fails when the replay's
//! bookkeeping grows. A counting global allocator tracks the live heap
//! and its peak over the whole process (server included), so this is a
//! test binary of its own with a single test.
//!
//! The test replays 20,000 and then 80,000 Fast-mode UDP records,
//! streamed so the input itself is never held, and divides the growth
//! between the two runs by the 60,000 extra records. Fixed costs (the
//! querier's in-flight table, sockets, buffers, the read-ahead window)
//! are the same in both runs and cancel. Per extra record:
//!
//! * the peak heap may grow by at most 96 bytes;
//! * the returned report may hold at most 40 bytes.
//!
//! One 32-byte outcome row per record fits both. Keeping a second
//! per-record copy of any size, or converting rows into a larger form at
//! the end of the run, does not.
//!
//! The fixed cost is gated too: the 20,000-record run's peak heap, less
//! what its report still holds, may be at most 3 MB. The querier's
//! in-flight table (65,536 entries of 24 bytes) is most of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ldplayer::replay::outcome::ROW_BYTES;
use ldplayer::replay::{LiveReplay, ReplayMode, RetryPolicy};
use ldplayer::server::auth::AuthEngine;
use ldplayer::server::live::LiveServer;
use ldplayer::trace::{TraceError, TraceRecord};
use ldplayer::wire::{Name, RrType};
use ldplayer::workload::zones::wildcard_example_zone;
use ldplayer::zone::ZoneSet;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`; the
        // caller guarantees `new_size` is valid for it.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `n` queries for one name from 8 sources, built as the replay reads
/// them.
fn records(n: u64) -> impl Iterator<Item = Result<TraceRecord, TraceError>> + Send + 'static {
    let qname = Name::parse("www.example.com").expect("name");
    (0..n).map(move |i| {
        Ok(TraceRecord::udp_query(
            i * 10,
            format!("10.7.0.{}", 1 + i % 8).parse().expect("address"),
            (1024 + i % 60_000) as u16,
            qname.clone(),
            RrType::A,
        ))
    })
}

/// Replays `n` records; returns the peak heap growth during the replay
/// and the heap the returned report still holds, in bytes.
async fn measure(replay: &LiveReplay, n: u64) -> (usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = replay.run_stream(records(n)).await.expect("replay runs");
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(base);
    assert_eq!(report.outcomes.len() as u64, n);
    assert!(report.sent > 0);
    (peak, held)
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn replay_memory_per_record_stays_within_budget() {
    const { assert!(ROW_BYTES <= 32, "an outcome row must fit in 32 bytes") };
    let mut zones = ZoneSet::new();
    zones.insert(wildcard_example_zone());
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(zones)));
    let server = LiveServer::spawn(engine, "127.0.0.1:0".parse().expect("address"))
        .await
        .expect("server");
    let replay = LiveReplay {
        mode: ReplayMode::Fast,
        queriers_per_distributor: 1,
        retry: RetryPolicy::disabled(),
        drain: Duration::from_millis(200),
        ..LiveReplay::new(server.addr)
    };
    // Warm up: the runtime's threads, the server's caches.
    measure(&replay, 5_000).await;

    let (peak_small, held_small) = measure(&replay, 20_000).await;
    let (peak_large, held_large) = measure(&replay, 80_000).await;
    let fixed = peak_small.saturating_sub(held_small);
    let extra = 60_000.0;
    let peak_per_record = (peak_large as f64 - peak_small as f64) / extra;
    let held_per_record = (held_large as f64 - held_small as f64) / extra;
    eprintln!(
        "peak {peak_small} → {peak_large} B ({peak_per_record:.1} B/record), \
         held {held_small} → {held_large} B ({held_per_record:.1} B/record), \
         fixed {fixed} B"
    );
    assert!(
        peak_per_record <= 96.0,
        "peak heap grows {peak_per_record:.1} B per record (budget 96 B)"
    );
    assert!(
        held_per_record <= 40.0,
        "the report holds {held_per_record:.1} B per record (budget 40 B)"
    );
    assert!(
        fixed <= 3_000_000,
        "the replay's fixed heap is {fixed} B (budget 3 MB)"
    );
}
