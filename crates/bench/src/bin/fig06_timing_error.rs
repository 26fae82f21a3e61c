//! Figure 6: query timing difference between replayed and original traces.
//!
//! Replays the B-Root-like trace and the syn-0…4 fixed-interval traces over
//! UDP against a live loopback server, in real time, and reports the
//! distribution of per-query send-time error (actual − target). The paper
//! reports quartiles within ±2.5 ms (±8 ms at the 0.1 s inter-arrival
//! pathology) and extremes within ±17 ms; the first 20 s of each replay
//! are discarded as startup transient (§4.2 does the same).

use std::sync::Arc;

use ldp_bench::{emit_with, scale, traces, LogHistogram, Report, RunManifest, Summary};
use ldp_replay::{LiveReplay, ReplayMode};
use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_trace::TraceRecord;
use ldp_workload::zones::{synthetic_root_zone, wildcard_example_zone};
use ldp_workload::SyntheticConfig;
use ldp_zone::ZoneSet;
use serde_json::json;

fn engine() -> Arc<AuthEngine> {
    let mut set = ZoneSet::new();
    set.insert(synthetic_root_zone(50));
    set.insert(wildcard_example_zone());
    Arc::new(AuthEngine::with_zones(Arc::new(set)))
}

/// Drops the startup transient (first `skip_us` of trace time).
fn errors_after_warmup(outcomes: &ldp_replay::Outcomes, skip_us: u64) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.trace_offset_us >= skip_us)
        // Error is measured against the *scaled* deadline (target), so the
        // statistic stays meaningful when replaying at speed ≠ 1.0.
        .map(|o| (o.sent_offset_us as f64 - o.target_offset_us as f64) / 1000.0)
        .collect()
}

#[tokio::main(flavor = "multi_thread")]
async fn main() {
    let scale = scale();
    let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
        .await
        .expect("spawn live server");

    let mut report = Report::new("Figure 6: query timing error (ms) in replay");
    let section = report.section(
        format!("per-trace send-time error, warmup removed (LDP_SCALE={scale})"),
        &[
            "trace", "n", "min", "p5", "q1", "median", "q3", "p95", "max",
        ],
    );

    // Keep live replays short: error statistics converge quickly.
    let secs = (6.0 * scale).clamp(4.0, 30.0);
    let mut cases: Vec<(String, Vec<TraceRecord>)> = Vec::new();
    {
        let mut cfg = traces::b16_like(scale.min(1.0));
        cfg.duration_s = secs;
        cfg.mean_rate_qps = cfg.mean_rate_qps.min(3000.0);
        cases.push(("B-Root*".into(), cfg.generate()));
    }
    for level in 0..=4u32 {
        let mut cfg = SyntheticConfig::syn(level);
        cfg.duration_s = secs as u64;
        cases.push((
            format!("syn-{level} ({}s gap)", cfg.interarrival_us as f64 / 1e6),
            cfg.generate(),
        ));
    }

    // Lateness (actual − target, early sends clamped to zero) pooled
    // across all traces, histogram form for the run manifest. The signed
    // table rows above stay the figure's statistic; the histogram is the
    // fixed-memory artifact cross-commit diffs read.
    let mut lateness = LogHistogram::new();
    for (label, trace) in cases {
        if trace.is_empty() {
            continue;
        }
        let replay = LiveReplay {
            mode: ReplayMode::Timed { speed: 1.0 },
            ..LiveReplay::new(server.addr)
        };
        let report_out = replay.run(trace).await.expect("replay runs");
        let warmup_us = (secs as u64 * 1_000_000) / 4;
        for o in &report_out.outcomes {
            if o.trace_offset_us >= warmup_us {
                lateness.record(o.sent_offset_us.saturating_sub(o.target_offset_us));
            }
        }
        let errors = errors_after_warmup(&report_out.outcomes, warmup_us);
        let Some(s) = Summary::compute(&errors) else {
            continue;
        };
        println!("{}", s.row(&label, "ms"));
        section.row(vec![
            json!(label),
            json!(s.count),
            json!(s.min),
            json!(s.p5),
            json!(s.q1),
            json!(s.median),
            json!(s.q3),
            json!(s.p95),
            json!(s.max),
        ]);
    }

    println!(
        "\npaper shape: quartiles within ±2.5 ms (±8 ms at 0.1 s gaps); extremes within ±17 ms"
    );
    let manifest = RunManifest::new("fig06_timing_error")
        .scale(scale)
        .stage("send_lateness_clamped", &lateness);
    emit_with(&report, "fig06_timing_error", &manifest);
}
