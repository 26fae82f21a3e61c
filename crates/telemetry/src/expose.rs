//! Prometheus text exposition (format 0.0.4).
//!
//! One `# HELP` + `# TYPE` pair per metric family, then one sample line
//! per label set. Snapshots arrive sorted by `(name, labels)` (the
//! [`crate::Registry::snapshot`] contract), so families are contiguous
//! and the output is byte-deterministic for a given set of values —
//! which is what the golden-format test pins.

use crate::registry::Sample;

/// Escapes a HELP string: backslash and newline (the format's rules for
/// help text; quotes are legal there).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double-quote, newline.
fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders one sample's label block (`{a="x",b="y"}`), empty when there
/// are no labels.
fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Renders a snapshot as the Prometheus text exposition. The trailing
/// newline is part of the format.
pub fn render_prometheus(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for s in samples {
        if last_family != Some(s.name.as_str()) {
            out.push_str(&format!("# HELP {} {}\n", s.name, escape_help(&s.help)));
            out.push_str(&format!("# TYPE {} {}\n", s.name, s.kind.as_str()));
            last_family = Some(s.name.as_str());
        }
        out.push_str(&format!(
            "{}{} {}\n",
            s.name,
            label_block(&s.labels),
            s.value
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{MetricKind, Registry};

    /// The satellite-3 golden test: names, HELP/TYPE lines, label
    /// escaping, family grouping — the exact bytes a scraper sees.
    #[test]
    fn golden_exposition_format() {
        let reg = Registry::new();
        reg.observe(
            "ldp_replay_sent_total",
            "Queries sent",
            MetricKind::Counter,
            &[("shard", "0")],
            || 42,
        );
        reg.observe(
            "ldp_replay_sent_total",
            "Queries sent",
            MetricKind::Counter,
            &[("shard", "1")],
            || 7,
        );
        reg.observe(
            "ldp_replay_queue_depth",
            "Batches queued",
            MetricKind::Gauge,
            &[("shard", "0")],
            || 3,
        );
        let text = render_prometheus(&reg.snapshot());
        let expected = "\
# HELP ldp_replay_queue_depth Batches queued
# TYPE ldp_replay_queue_depth gauge
ldp_replay_queue_depth{shard=\"0\"} 3
# HELP ldp_replay_sent_total Queries sent
# TYPE ldp_replay_sent_total counter
ldp_replay_sent_total{shard=\"0\"} 42
ldp_replay_sent_total{shard=\"1\"} 7
";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.observe(
            "ldp_esc_total",
            "line1\nline2 and \\slash",
            MetricKind::Counter,
            &[("path", "a\"b\\c\nd")],
            || 1,
        );
        let text = render_prometheus(&reg.snapshot());
        assert!(
            text.contains("# HELP ldp_esc_total line1\\nline2 and \\\\slash"),
            "{text}"
        );
        assert!(
            text.contains("ldp_esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
        // No raw newline leaks into the middle of a sample line.
        for line in text.lines() {
            assert!(!line.is_empty());
        }
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(render_prometheus(&[]), "");
    }

    #[test]
    fn no_labels_means_no_braces() {
        let reg = Registry::new();
        reg.observe(
            "ldp_plain_total",
            "no labels",
            MetricKind::Counter,
            &[],
            || 1,
        );
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("\nldp_plain_total 1\n"), "{text}");
    }
}
