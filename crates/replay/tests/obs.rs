//! Observability integration tests: a fully-sampled live replay must
//! produce spans whose per-stage durations telescope exactly to the
//! end-to-end latency, chaos-injected retransmits must surface as extra
//! wire segments, and the `ReplayReport` JSON schema is pinned here so a
//! field rename cannot slip through silently.

use std::sync::Arc;
use std::time::Duration;

use ldp_obs::{assemble, ReplaySpans, StageBreakdown};
use ldp_replay::{LiveReplay, ReplayMode};
use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_server::ChaosPolicy;
use ldp_trace::TraceRecord;
use ldp_wire::{Name, RrType};
use ldp_workload::zones::wildcard_example_zone;
use ldp_zone::ZoneSet;
use serde::{Serialize, Value};

fn engine() -> Arc<AuthEngine> {
    let mut set = ZoneSet::new();
    set.insert(wildcard_example_zone());
    Arc::new(AuthEngine::with_zones(Arc::new(set)))
}

fn trace(n: u64, gap_us: u64) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| {
            TraceRecord::udp_query(
                i * gap_us,
                format!("10.0.0.{}", 1 + i % 5).parse().unwrap(),
                (1024 + i % 60_000) as u16,
                Name::parse(&format!("q{i}.example.com")).unwrap(),
                RrType::A,
            )
        })
        .collect()
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn stage_durations_telescope_to_end_to_end() {
    let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
        .await
        .unwrap();
    let mut replay = LiveReplay::new(server.addr);
    replay.mode = ReplayMode::Fast;
    replay.drain = Duration::from_secs(4);
    let spans = Arc::new(ReplaySpans::full(
        replay.distributors * replay.queriers_per_distributor,
    ));
    replay.obs = Some(spans.clone());

    const QUERIES: u64 = 400;
    let report = replay.run(trace(QUERIES, 100)).await.unwrap();
    assert_eq!(report.sent, QUERIES);
    assert_eq!(spans.overwritten(), 0, "ring must hold every span");

    let assembled = assemble(&spans.events());
    assert_eq!(
        assembled.len() as u64,
        QUERIES,
        "full sampling records every query"
    );

    let mut answered = 0u64;
    for s in &assembled {
        // Every query at least reached the wire with ordered stamps.
        let read = s.read_us.expect("read stamped");
        let batched = s.batched_us.expect("batched stamped");
        let scheduled = s.scheduled_us.expect("scheduled stamped");
        let sent = s.sent_us.expect("sent stamped");
        assert!(read <= batched, "read {read} > batched {batched}");
        assert!(
            batched <= scheduled,
            "batched {batched} > sched {scheduled}"
        );
        assert!(scheduled <= sent, "scheduled {scheduled} > sent {sent}");

        let Some(answered_us) = s.answered_us else {
            continue;
        };
        answered += 1;
        assert!(sent <= answered_us, "sent {sent} > answered {answered_us}");
        // The decomposition telescopes: each duration is the difference of
        // adjacent stamps, so the sum reconstructs end-to-end exactly.
        let sum = s.batch_wait_us().unwrap()
            + s.queue_wait_us().unwrap()
            + s.send_lag_us().unwrap()
            + s.rtt_us().unwrap();
        let e2e = s.end_to_end_us().unwrap();
        assert!(
            sum.abs_diff(e2e) <= 1,
            "shard {} seq {}: stage sum {sum} != end-to-end {e2e}",
            s.shard,
            s.seq
        );
    }
    assert_eq!(answered, report.answered, "span answers match the report");

    let b = StageBreakdown::from_events(&spans.events());
    assert_eq!(b.queries, QUERIES);
    assert_eq!(b.answered, report.answered);
    assert_eq!(b.end_to_end.count(), report.answered);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn chaos_retries_surface_as_extra_wire_segments() {
    let chaos = Arc::new(ChaosPolicy::new(11).drop_responses(0.25));
    let server =
        LiveServer::spawn_with_chaos(engine(), "127.0.0.1:0".parse().unwrap(), chaos.clone())
            .await
            .unwrap();
    let mut replay = LiveReplay::new(server.addr);
    replay.mode = ReplayMode::Fast;
    replay.drain = Duration::from_secs(4);
    let spans = Arc::new(ReplaySpans::full(
        replay.distributors * replay.queriers_per_distributor,
    ));
    replay.obs = Some(spans.clone());

    let report = replay.run(trace(300, 200)).await.unwrap();
    assert!(report.retries > 0, "25% loss must force retransmits");

    let assembled = assemble(&spans.events());
    let retry_events: u64 = assembled.iter().map(|s| s.retries_us.len() as u64).sum();
    let multi_segment = assembled.iter().filter(|s| s.wire_segments() > 1).count();
    // Retry spans are stamped under the pending lock before the resend is
    // even queued, so the span count can only lead the report's counter
    // (which is bumped after the async send), never trail it.
    assert!(
        retry_events >= report.retries,
        "retry spans {retry_events} < reported retries {}",
        report.retries
    );
    assert!(
        multi_segment > 0,
        "retransmitted queries must show multiple wire segments"
    );
    // Retry stamps happen after the original send.
    for s in &assembled {
        if let (Some(sent), Some(&first_retry)) = (s.sent_us, s.retries_us.first()) {
            assert!(
                sent <= first_retry,
                "retry at {first_retry} precedes send at {sent}"
            );
        }
    }
}

/// Golden schema: the `ReplayReport` JSON field set. A rename or removal
/// here breaks manifest consumers, so it must be deliberate.
#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn replay_report_json_schema_is_pinned() {
    let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
        .await
        .unwrap();
    let mut replay = LiveReplay::new(server.addr);
    replay.mode = ReplayMode::Fast;
    replay.drain = Duration::from_secs(2);
    let report = replay.run(trace(50, 100)).await.unwrap();

    let Value::Object(fields) = report.to_json_value() else {
        panic!("ReplayReport must serialize to an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "send_duration_us",
            "sent",
            "answered",
            "timeouts",
            "retries",
            "reconnects",
            "gave_up",
            "errors",
            "shards",
            "trace_error",
        ]
    );
    assert_eq!(
        fields
            .iter()
            .find(|(k, _)| k == "trace_error")
            .map(|(_, v)| v),
        Some(&Value::Null)
    );
}
