//! Regression test for the Figure 15 quantile path: the quartiles read
//! from the merged per-shard [`LogHistogram`] must match the exact
//! sorted-sample quantiles (type-1: rank `⌈q·n⌉`) within one bucket
//! width on a ~10k-query simulated trace.
//!
//! This pins the fix for the old pipeline, which computed quartiles over
//! an *unsorted* concatenation of per-shard latency vectors.

use ldp_bench::{traces, LogHistogram};
use ldplayer::SimExperiment;

#[test]
fn hist_quartiles_match_exact_sorted_quantiles() {
    // ~800 q/s × 12 s ≈ 10k queries through the simulated root server.
    let trace = traces::b16_like(0.4).generate();
    assert!(
        trace.len() >= 8_000,
        "trace too small to exercise the tail: {}",
        trace.len()
    );
    let result = SimExperiment::root_server(trace)
        .rtt_ms(20)
        .grace_s(2)
        .run();

    let mut exact: Vec<u64> = result
        .outcomes
        .iter()
        .filter_map(|o| o.latency_us)
        .collect();
    exact.sort_unstable();
    assert!(!exact.is_empty(), "no answered queries");
    assert_eq!(
        result.latency_hist.count(),
        exact.len() as u64,
        "histogram must hold exactly the answered-query latencies"
    );
    assert_eq!(result.latency_hist.min(), exact.first().copied());
    assert_eq!(result.latency_hist.max(), exact.last().copied());

    let n = exact.len();
    for q in [0.05, 0.25, 0.50, 0.75, 0.95] {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let exact_val = exact[rank - 1];
        let (lo, hi) = result.latency_hist.quantile_bounds(q).expect("non-empty");
        assert!(
            lo <= exact_val && exact_val <= hi,
            "q={q}: exact order statistic {exact_val} outside reported bucket [{lo}, {hi}]"
        );
        let reported = result.latency_hist.quantile(q).expect("non-empty");
        let width = LogHistogram::bucket_width(exact_val);
        assert!(
            reported.abs_diff(exact_val) < width,
            "q={q}: reported {reported} vs exact {exact_val}, bucket width {width}"
        );
    }
}
