//! Figure 8: per-second query-rate difference between replayed and
//! original B-Root trace, over five trials.
//!
//! For each trial the binary buckets original and replayed send times into
//! 1-second windows and reports the CDF of the per-bucket relative
//! difference. The paper's claim: almost all windows within ±0.1%.

use std::sync::Arc;

use ldp_bench::{emit, scale, traces, Cdf, Report};
use ldp_metrics::RateSeries;
use ldp_replay::{LiveReplay, ReplayMode};
use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_workload::zones::synthetic_root_zone;
use ldp_zone::ZoneSet;
use serde_json::json;

fn engine() -> Arc<AuthEngine> {
    let mut set = ZoneSet::new();
    set.insert(synthetic_root_zone(50));
    Arc::new(AuthEngine::with_zones(Arc::new(set)))
}

fn main() {
    let scale = scale();
    let server =
        LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).expect("spawn live server");

    let mut report = Report::new("Figure 8: per-second query-rate difference, replay vs original");
    let section = report.section(
        format!("five trials (LDP_SCALE={scale})"),
        &[
            "trial",
            "buckets",
            "median_rate_qps",
            "p1_diff",
            "median_diff",
            "p99_diff",
            "within_0.1pct",
            "within_1pct",
        ],
    );

    let mut cfg = traces::b16_like(scale.min(1.0));
    cfg.duration_s = (10.0 * scale).clamp(8.0, 40.0);
    cfg.mean_rate_qps = cfg.mean_rate_qps.min(3000.0);

    for trial in 1..=5u32 {
        let trace = cfg.generate(); // same seed: same original each trial
        let mut original = RateSeries::new(1.0);
        let t0 = trace[0].time_us;
        for r in &trace {
            original.record((r.time_us - t0) as f64 / 1e6);
        }
        let replay = LiveReplay {
            mode: ReplayMode::Timed { speed: 1.0 },
            ..LiveReplay::new(server.addr)
        };
        let out = replay.run(trace).expect("replay runs");
        let mut replayed = RateSeries::new(1.0);
        for o in &out.outcomes {
            replayed.record(o.sent_offset_us as f64 / 1e6);
        }
        let diffs = replayed.relative_difference(&original);
        let cdf = Cdf::new(&diffs);
        let within_01 =
            diffs.iter().filter(|d| d.abs() <= 0.001).count() as f64 / diffs.len().max(1) as f64;
        let within_1 =
            diffs.iter().filter(|d| d.abs() <= 0.01).count() as f64 / diffs.len().max(1) as f64;
        println!(
            "trial {trial}: buckets={} median diff={:+.5} within±0.1%={:.1}% within±1%={:.1}%",
            diffs.len(),
            cdf.quantile(0.5).unwrap_or(0.0),
            within_01 * 100.0,
            within_1 * 100.0
        );
        section.row(vec![
            json!(trial),
            json!(diffs.len()),
            json!(original.median_rate()),
            json!(cdf.quantile(0.01)),
            json!(cdf.quantile(0.5)),
            json!(cdf.quantile(0.99)),
            json!(within_01),
            json!(within_1),
        ]);
    }

    println!("\npaper shape: 95–99% of windows within ±0.1% rate difference");
    emit(&report, "fig08_rate_diff");
}
