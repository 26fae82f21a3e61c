//! Replay pipeline anatomy: how batch size moves fast-replay throughput.
//!
//! The sharded engine amortizes channel synchronization by moving whole
//! record batches from the Postman to each querier shard. This experiment
//! sweeps the batch size (1 = the old record-at-a-time behaviour) over the
//! §4.3 generator workload and reports throughput plus the per-shard
//! saturation counters, showing where the pipeline bottlenecks at each
//! setting: postman stalls mean distribution-bound, deep queues mean
//! send-bound, shallow queues mean reader-bound.

use std::sync::Arc;
use std::time::Instant;

use ldp_bench::{emit, scale, Report};
use ldp_metrics::PipelineTotals;
use ldp_replay::{LiveReplay, ReplayMode};
use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_trace::TraceRecord;
use ldp_wire::{Name, RrType};
use ldp_workload::zones::wildcard_example_zone;
use ldp_zone::ZoneSet;
use serde_json::json;

fn engine() -> Arc<AuthEngine> {
    let mut set = ZoneSet::new();
    set.insert(wildcard_example_zone());
    Arc::new(AuthEngine::with_zones(Arc::new(set)))
}

/// Identical queries from a handful of sources (the §4.3 generator):
/// sticky routing gives each querier long same-source runs, the case the
/// batched send path is built to exploit.
fn generator(n: u64) -> Vec<TraceRecord> {
    let name = Name::parse("www.example.com").unwrap();
    (0..n)
        .map(|i| {
            TraceRecord::udp_query(
                0,
                format!("10.0.0.{}", 1 + i % 5).parse().unwrap(),
                (1024 + i % 60_000) as u16,
                name.clone(),
                RrType::A,
            )
        })
        .collect()
}

fn main() {
    let scale = scale();
    let server =
        LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).expect("spawn live server");

    let n = (60_000.0 * scale) as u64;
    let mut report = Report::new("Replay pipeline: batch size vs fast-replay throughput");
    let section = report.section(
        format!("fast replay of {n} queries per batch-size setting (LDP_SCALE={scale})"),
        &[
            "batch_size",
            "rate_qps",
            "sent",
            "answered",
            "batches",
            "stalls",
            "max_depth",
        ],
    );

    for &batch_size in &[1usize, 32, 256] {
        let replay = LiveReplay {
            mode: ReplayMode::Fast,
            drain: std::time::Duration::from_millis(50),
            batch_size,
            // Raw send capacity: blast mode overruns the server on
            // purpose; retransmitting the overrun would measure the
            // retry ladder, not the pipeline.
            retry: ldp_replay::RetryPolicy::disabled(),
            ..LiveReplay::new(server.addr)
        };
        let t0 = Instant::now();
        let out = replay.run(generator(n)).expect("replay runs");
        let secs = t0.elapsed().as_secs_f64();
        let qps = out.sent as f64 / secs;
        let totals = PipelineTotals::from_shards(&out.shards);
        println!("batch {batch_size:>4}: {qps:>10.0} q/s");
        for s in &out.shards {
            println!("  {}", s.row());
        }
        section.row(vec![
            json!(batch_size),
            json!(qps),
            json!(totals.sent),
            json!(totals.answered),
            json!(totals.batches),
            json!(totals.postman_stalls),
            json!(totals.max_queue_depth),
        ]);
    }

    println!("\nexpected shape: throughput rises with batch size until syscalls dominate");
    emit(&report, "replay_pipeline");
}
