//! Figure 15 / §5.2.4: query latency vs client-server RTT, with a 20 s
//! TCP timeout — (a) over all clients, (b) over non-busy clients (<250
//! queries), (c) the per-client query-load CDF of the trace.
//!
//! Paper shapes to check:
//! * UDP latency ≈ 1 RTT, flat;
//! * all-clients TCP median close to UDP (busy clients always reuse) but
//!   with a skewed tail;
//! * non-busy TCP median ≈ 2 RTT (fresh connections), 25th percentile at
//!   1 RTT (reuse still helps);
//! * non-busy TLS median rising from 2 toward 4 RTT with RTT;
//! * the load CDF shows ~1% of clients carrying ~75% of queries.

use ldp_bench::{emit_with, scale, traces, Cdf, Report, RunManifest};
use ldp_replay::outcome::{non_busy_latency_hist, per_client_counts};
use ldp_trace::mutate;
use ldplayer::SimExperiment;
use serde_json::json;

fn main() {
    let scale = scale();
    let mut report = Report::new("Figure 15: query latency vs RTT (20 s TCP timeout)");
    let cfg = traces::b17b_like(scale);

    let rtts = [5u64, 20, 40, 80, 120, 160];
    let all_section_cols = ["workload", "rtt_ms", "p5", "q1", "median", "q3", "p95"];
    let mut all_rows: Vec<Vec<serde_json::Value>> = Vec::new();
    let mut nonbusy_rows: Vec<Vec<serde_json::Value>> = Vec::new();
    let mut load_cdf_rows: Vec<Vec<serde_json::Value>> = Vec::new();
    let mut baseline_hist = None;

    for (label, mutator) in [
        ("original (3% TCP)", None),
        ("all-TCP", Some(mutate::all_tcp(5))),
        ("all-TLS", Some(mutate::all_tls(5))),
    ] {
        for rtt in rtts {
            let mut trace = cfg.generate();
            if let Some(m) = &mutator {
                m.clone().apply_all(&mut trace);
            }
            let result = SimExperiment::root_server(trace)
                .rtt_ms(rtt)
                .tcp_idle_timeout_s(20)
                .grace_s(2)
                .run();
            assert!(
                result.answer_rate() > 0.97,
                "{label} rtt={rtt}: rate {}",
                result.answer_rate()
            );

            // (a) all clients: quantiles from the merged per-shard
            // histogram (µs ticks summarized in ms), not from sorting a
            // pooled sample vector — fixed memory at any trace size.
            if let Some(s) = result.latency_hist.summary(1000.0) {
                println!(
                    "(a) {label:<18} RTT {rtt:>3} ms: median {:7.1} ms (q1 {:6.1}, q3 {:6.1}, p95 {:7.1})",
                    s.median, s.q1, s.q3, s.p95
                );
                all_rows.push(vec![
                    json!(label),
                    json!(rtt),
                    json!(s.p5),
                    json!(s.q1),
                    json!(s.median),
                    json!(s.q3),
                    json!(s.p95),
                ]);
            }
            // (b) non-busy clients. The paper's "<250 queries" cutoff
            // selects 98% of the clients (and 14% of the load) of its
            // 53M-query trace; at harness scale the same *client share*
            // is the faithful cut, so use the 98th percentile of the
            // per-client query counts as the threshold.
            let threshold = {
                let counts = per_client_counts(&result.outcomes);
                let mut v: Vec<u64> = counts.values().copied().collect();
                v.sort_unstable();
                let idx = ((v.len() as f64) * 0.98) as usize;
                v.get(idx.min(v.len().saturating_sub(1)))
                    .copied()
                    .unwrap_or(250)
                    .max(2)
            };
            if let Some(s) = non_busy_latency_hist(&result.outcomes, threshold).summary(1000.0) {
                nonbusy_rows.push(vec![
                    json!(label),
                    json!(rtt),
                    json!(s.p5),
                    json!(s.q1),
                    json!(s.median),
                    json!(s.q3),
                    json!(s.p95),
                ]);
            }
            // (c) per-client load CDF, once (workload-independent).
            if label == "original (3% TCP)" && rtt == rtts[0] {
                baseline_hist = Some(result.latency_hist.clone());
                let counts = per_client_counts(&result.outcomes);
                let loads: Vec<f64> = counts.values().map(|&c| c as f64).collect();
                let cdf = Cdf::new(&loads);
                for (x, f) in cdf.points(30) {
                    load_cdf_rows.push(vec![json!(x), json!(f)]);
                }
                let mut sorted: Vec<f64> = loads.clone();
                sorted.sort_by(|a, b| b.partial_cmp(a).expect("no NaNs"));
                let total: f64 = sorted.iter().sum();
                let top1: f64 = sorted.iter().take((sorted.len() / 100).max(1)).sum();
                let quiet = loads.iter().filter(|&&c| c < 10.0).count() as f64 / loads.len() as f64;
                println!(
                    "(c) top-1% clients carry {:.0}% of load (paper ~75%); {:.0}% of clients send <10 queries (paper ~81%)",
                    top1 / total * 100.0,
                    quiet * 100.0
                );
            }
        }
    }

    let a = report.section("(a) latency over all clients (ms)", &all_section_cols);
    for row in all_rows {
        a.row(row);
    }
    let b = report.section(
        "(b) latency over non-busy clients (<250 queries) (ms)",
        &all_section_cols,
    );
    for row in nonbusy_rows {
        b.row(row);
    }
    let c = report.section(
        "(c) per-client query-load CDF",
        &["queries_per_client", "cdf"],
    );
    for row in load_cdf_rows {
        c.row(row);
    }

    println!("\npaper shapes: UDP flat at 1 RTT; non-busy TCP ≈2 RTT median; TLS 2→4 RTT; heavy-tailed load");
    let mut manifest = RunManifest::new("fig15_latency")
        .seed(cfg.seed)
        .scale(scale);
    if let Some(h) = &baseline_hist {
        // The original-workload run at the smallest RTT, recorded as the
        // full merged per-shard latency histogram.
        manifest = manifest.stage("latency_all_clients", h);
    }
    emit_with(&report, "fig15_latency", &manifest);
}
