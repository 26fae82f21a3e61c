//! Figure 7: cumulative distribution of inter-arrival times, original vs
//! replayed.
//!
//! For each trace the binary prints paired CDF quantiles of the original
//! and the replayed inter-arrival distribution plus their
//! Kolmogorov–Smirnov distance. The paper's shape: close agreement for
//! gaps ≥10 ms and for the irregular B-Root arrivals; visible spread for
//! fixed sub-millisecond gaps (timer/syscall jitter dominates there).

use std::sync::Arc;

use ldp_bench::{emit, scale, traces, Cdf, Report};
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

fn original_interarrivals(trace: &[TraceRecord]) -> Vec<f64> {
    trace
        .windows(2)
        .map(|w| (w[1].time_us - w[0].time_us) as f64 / 1e6)
        .collect()
}

fn main() {
    let scale = scale();
    let server =
        LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).expect("spawn live server");

    let mut report = Report::new("Figure 7: CDF of inter-arrival time, original vs replayed");
    let quantiles = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99];
    let secs = (6.0 * scale).clamp(4.0, 30.0);

    let mut cases: Vec<(String, Vec<TraceRecord>)> = Vec::new();
    {
        let mut cfg = traces::b16_like(scale.min(1.0));
        cfg.duration_s = secs;
        cfg.mean_rate_qps = cfg.mean_rate_qps.min(3000.0);
        cases.push(("B-Root*".into(), cfg.generate()));
    }
    for level in 1..=4u32 {
        let mut cfg = SyntheticConfig::syn(level);
        cfg.duration_s = secs as u64;
        cases.push((format!("syn-{level}"), cfg.generate()));
    }

    for (label, trace) in cases {
        if trace.len() < 3 {
            continue;
        }
        let original = Cdf::new(&original_interarrivals(&trace));
        let replay = LiveReplay {
            mode: ReplayMode::Timed { speed: 1.0 },
            ..LiveReplay::new(server.addr)
        };
        let out = replay.run(trace).expect("replay runs");
        let replayed = Cdf::new(&out.replayed_interarrivals_s());
        let ks = original.ks_distance(&replayed);

        let section = report.section(
            format!("{label} (KS distance {ks:.4})"),
            &["quantile", "original_s", "replayed_s"],
        );
        for q in quantiles {
            section.row(vec![
                json!(q),
                json!(original.quantile(q)),
                json!(replayed.quantile(q)),
            ]);
        }
        println!("{label:<12} KS={ks:.4}");
    }

    println!("\npaper shape: tight agreement at ≥10 ms gaps and for B-Root; spread below 1 ms");
    emit(&report, "fig07_interarrival_cdf");
}
