// The check that a replay's telemetry registry agrees with its report,
// shared by the engine's unit tests and the chaos tests. Each includes it
// into a `telemetry` module whose parent has `ReplayReport` and the
// engine's `FAMILIES` in scope.

use ldp_metrics::PipelineTotals;
use ldp_telemetry::{MetricKind, Registry};
use serde::{Serialize, Value};

use super::{ReplayReport, FAMILIES};

/// Every family in `FAMILIES` has one sample per shard in `reg`, and:
///
/// * a family named after a `ShardStats` field (`ldp_replay_<field>` or
///   `ldp_replay_<field>_total`) samples each shard's field exactly, and
///   a counter family sums to the pipeline total and, where the report
///   carries one, to the report's total;
/// * send lag, which has no field, sums to the lag the outcomes show in
///   a Timed replay, or to zero in a Fast one;
/// * the remaining gauges (queue depth, in flight) are back to zero once
///   the replay has drained.
pub(super) fn assert_telemetry_matches_report(reg: &Registry, report: &ReplayReport) {
    let samples = reg.snapshot();
    let totals = PipelineTotals::from_shards(&report.shards).to_json_value();
    let report_totals = report.to_json_value();
    let field = |v: &Value, name: &str| v.get(name).and_then(Value::as_u64);
    for (family, _, kind, _) in FAMILIES {
        let name = family.trim_start_matches("ldp_replay_");
        let name = name.strip_suffix("_total").unwrap_or(name);
        let mut sum = 0;
        let mut shards = 0;
        for s in samples.iter().filter(|s| s.name == family) {
            let shard: usize = s
                .labels
                .iter()
                .find(|(k, _)| k == "shard")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or_else(|| panic!("{family} sample without a shard label"));
            let stats = report.shards[shard].to_json_value();
            match field(&stats, name) {
                Some(v) => assert_eq!(s.value, v, "{family} on shard {shard}"),
                None if name == "send_lag_us" => {}
                None => assert_eq!(s.value, 0, "{family} on shard {shard} after the drain"),
            }
            sum += s.value;
            shards += 1;
        }
        assert_eq!(
            shards,
            report.shards.len(),
            "{family}: one sample per shard"
        );
        if kind == MetricKind::Gauge {
            continue;
        }
        if name == "send_lag_us" {
            let lag: u64 = report
                .outcomes
                .iter()
                .filter(|o| o.error.is_none())
                .map(|o| o.sent_offset_us.saturating_sub(o.target_offset_us))
                .sum();
            assert!(sum == 0 || sum == lag, "{family} {sum}, outcomes {lag}");
            continue;
        }
        assert_eq!(
            Some(sum),
            field(&totals, name),
            "{family} vs pipeline totals"
        );
        if let Some(total) = field(&report_totals, name) {
            assert_eq!(sum, total, "{family} vs the report");
        }
    }
}
