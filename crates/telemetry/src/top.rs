//! `ldplayer top`: a terminal view over the metrics endpoint.
//!
//! Scrapes the Prometheus exposition served by `--metrics-addr` on an
//! interval and renders a per-shard table — send rate, queue depth,
//! in-flight, fault counters — the live-health view the §4 experiments
//! need *during* a ten-minute replay, not after it. Deliberately a plain
//! HTTP client over the same endpoint any external scraper uses: if
//! `top` can render it, Prometheus can ingest it.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One parsed sample line (`name{labels} value`).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedMetric {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl ParsedMetric {
    /// Value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Fetches the exposition body from `addr` (host:port) over plain HTTP.
pub fn scrape(addr: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: ldplayer\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body))
            if head.starts_with("HTTP/1.1 200") || head.starts_with("HTTP/1.0 200") =>
        {
            Ok(body.to_string())
        }
        Some((head, _)) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("metrics endpoint: {}", head.lines().next().unwrap_or("")),
        )),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "metrics endpoint: malformed HTTP response",
        )),
    }
}

/// Parses exposition text into samples; `#` comment lines and anything
/// unparseable are skipped (a viewer must tolerate foreign metrics).
pub fn parse_exposition(text: &str) -> Vec<ParsedMetric> {
    text.lines().filter_map(parse_line).collect()
}

fn parse_line(line: &str) -> Option<ParsedMetric> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (name_labels, value) = match line.rfind(' ') {
        Some(i) => (&line[..i], line[i + 1..].parse::<f64>().ok()?),
        None => return None,
    };
    let (name, labels) = match name_labels.split_once('{') {
        None => (name_labels.to_string(), Vec::new()),
        Some((name, rest)) => {
            let inner = rest.strip_suffix('}')?;
            (name.to_string(), parse_labels(inner)?)
        }
    };
    Some(ParsedMetric {
        name,
        labels,
        value,
    })
}

/// Parses `k="v",k2="v2"` with `\\`, `\"`, and `\n` escapes in values.
fn parse_labels(inner: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return if labels.is_empty() {
                Some(labels)
            } else {
                None
            };
        }
        if chars.next() != Some('"') {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()? {
                '"' => break,
                '\\' => match chars.next()? {
                    'n' => value.push('\n'),
                    c => value.push(c),
                },
                c => value.push(c),
            }
        }
        labels.push((key, value));
        match chars.next() {
            None => return Some(labels),
            Some(',') => continue,
            Some(_) => return None,
        }
    }
}

/// `ldplayer top` configuration.
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Metrics endpoint (host:port).
    pub addr: String,
    /// Refresh interval.
    pub interval: Duration,
    /// Render this many frames then exit; `None` runs until the endpoint
    /// goes away. CI smoke and tests run one frame.
    pub iterations: Option<u64>,
    /// Print the raw exposition instead of the table (a std-only `curl`
    /// substitute for the scrape-smoke step).
    pub raw: bool,
}

fn fmt_count(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e4 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Sum of a family's values across label sets.
fn family_sum(metrics: &[ParsedMetric], name: &str) -> f64 {
    metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| m.value)
        .sum()
}

fn shard_value(metrics: &[ParsedMetric], name: &str, shard: &str) -> f64 {
    metrics
        .iter()
        .filter(|m| m.name == name && m.label("shard") == Some(shard))
        .map(|m| m.value)
        .sum()
}

/// Renders one frame of the per-shard table into `out`.
fn render_frame(
    out: &mut dyn Write,
    metrics: &[ParsedMetric],
    prev: Option<(&[ParsedMetric], Duration)>,
) -> io::Result<()> {
    let mut shards: Vec<String> = metrics
        .iter()
        .filter(|m| m.name.starts_with("ldp_replay_"))
        .filter_map(|m| m.label("shard").map(str::to_string))
        .collect();
    shards.sort_by_key(|s| s.parse::<u64>().unwrap_or(u64::MAX));
    shards.dedup();

    writeln!(
        out,
        "{:>5} {:>10} {:>10} {:>10} {:>7} {:>7} {:>9} {:>8} {:>7}",
        "shard", "sent", "rate_qps", "answered", "depth", "inflt", "timeouts", "retries", "errors"
    )?;
    for shard in &shards {
        let sent = shard_value(metrics, "ldp_replay_sent_total", shard);
        let rate = match prev {
            Some((p, dt)) if !dt.is_zero() => {
                let before = shard_value(p, "ldp_replay_sent_total", shard);
                (sent - before).max(0.0) / dt.as_secs_f64()
            }
            _ => 0.0,
        };
        writeln!(
            out,
            "{:>5} {:>10} {:>10.0} {:>10} {:>7} {:>7} {:>9} {:>8} {:>7}",
            shard,
            fmt_count(sent),
            rate,
            fmt_count(shard_value(metrics, "ldp_replay_answered_total", shard)),
            shard_value(metrics, "ldp_replay_queue_depth", shard),
            shard_value(metrics, "ldp_replay_in_flight", shard),
            shard_value(metrics, "ldp_replay_timeouts_total", shard),
            shard_value(metrics, "ldp_replay_retries_total", shard),
            shard_value(metrics, "ldp_replay_errors_total", shard),
        )?;
    }
    if !shards.is_empty() {
        writeln!(
            out,
            "total sent {}  answered {}  gave_up {}  send_lag_us {}",
            fmt_count(family_sum(metrics, "ldp_replay_sent_total")),
            fmt_count(family_sum(metrics, "ldp_replay_answered_total")),
            fmt_count(family_sum(metrics, "ldp_replay_gave_up_total")),
            fmt_count(family_sum(metrics, "ldp_replay_send_lag_us_total")),
        )?;
    }
    // Server/proxy families, when the endpoint belongs to `serve` (or a
    // combined experiment): one line per family, summed over labels.
    let mut other: Vec<&str> = metrics
        .iter()
        .filter(|m| m.name.starts_with("ldp_server_") || m.name.starts_with("ldp_proxy_"))
        .map(|m| m.name.as_str())
        .collect();
    other.sort();
    other.dedup();
    for name in other {
        writeln!(out, "{name} {}", fmt_count(family_sum(metrics, name)))?;
    }
    Ok(())
}

/// Runs the top loop: scrape, render, sleep, repeat. Returns once
/// `iterations` frames rendered, or with the scrape error once the
/// endpoint disappears (replay finished) after at least one good frame.
pub fn run_top(opts: &TopOptions, out: &mut dyn Write) -> io::Result<()> {
    let mut prev: Option<(Vec<ParsedMetric>, Instant)> = None;
    let mut frames = 0u64;
    loop {
        let body = match scrape(&opts.addr) {
            Ok(b) => b,
            Err(e) if frames > 0 => {
                writeln!(out, "endpoint gone ({e}); exiting")?;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let now = Instant::now();
        if opts.raw {
            out.write_all(body.as_bytes())?;
        } else {
            if frames > 0 {
                // ANSI clear + home, so the table repaints in place.
                write!(out, "\x1b[2J\x1b[H")?;
            }
            let metrics = parse_exposition(&body);
            let prev_view = prev
                .as_ref()
                .map(|(m, at)| (m.as_slice(), now.duration_since(*at)));
            render_frame(out, &metrics, prev_view)?;
            out.flush()?;
            prev = Some((metrics, now));
        }
        frames += 1;
        if let Some(n) = opts.iterations {
            if frames >= n {
                return Ok(());
            }
        }
        std::thread::sleep(opts.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::MetricsServer;
    use crate::registry::{MetricKind, Registry};
    use std::sync::Arc;

    #[test]
    fn parses_names_labels_and_values() {
        let text = "\
# HELP ldp_replay_sent_total Queries sent
# TYPE ldp_replay_sent_total counter
ldp_replay_sent_total{shard=\"0\"} 42
ldp_replay_queue_depth{shard=\"1\",extra=\"a\\\"b\"} 3
plain_metric 7.5
garbage line without a number
";
        let metrics = parse_exposition(text);
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics[0].name, "ldp_replay_sent_total");
        assert_eq!(metrics[0].label("shard"), Some("0"));
        assert_eq!(metrics[0].value, 42.0);
        assert_eq!(metrics[1].label("extra"), Some("a\"b"), "escapes decoded");
        assert_eq!(metrics[2].labels, Vec::new());
    }

    #[test]
    fn renders_per_shard_table() {
        let metrics = parse_exposition(
            "ldp_replay_sent_total{shard=\"0\"} 100\n\
             ldp_replay_sent_total{shard=\"1\"} 50\n\
             ldp_replay_answered_total{shard=\"0\"} 90\n\
             ldp_replay_queue_depth{shard=\"0\"} 2\n\
             ldp_replay_in_flight{shard=\"0\"} 5\n\
             ldp_replay_timeouts_total{shard=\"0\"} 1\n\
             ldp_server_queries_total{proto=\"udp\"} 95\n",
        );
        let mut out = Vec::new();
        render_frame(&mut out, &metrics, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("shard"), "{text}");
        assert!(text.lines().count() >= 4, "{text}");
        assert!(text.contains("total sent 150"), "{text}");
        assert!(text.contains("ldp_server_queries_total 95"), "{text}");
    }

    #[test]
    fn top_against_live_endpoint_single_iteration() {
        let reg = Arc::new(Registry::new());
        reg.observe(
            "ldp_replay_sent_total",
            "Queries sent",
            MetricKind::Counter,
            &[("shard", "0")],
            || 5,
        );
        let server = MetricsServer::start("127.0.0.1:0", reg).unwrap();
        let opts = TopOptions {
            addr: server.addr().to_string(),
            interval: Duration::from_millis(1),
            iterations: Some(2),
            raw: false,
        };
        let mut out = Vec::new();
        run_top(&opts, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("ldp_replay_sent_total") || text.contains("shard"),
            "{text}"
        );
        // Raw mode passes the exposition through untouched.
        let opts = TopOptions {
            addr: server.addr().to_string(),
            interval: Duration::from_millis(1),
            iterations: Some(1),
            raw: true,
        };
        let mut raw = Vec::new();
        run_top(&opts, &mut raw).unwrap();
        let raw = String::from_utf8(raw).unwrap();
        assert!(
            raw.contains("# TYPE ldp_replay_sent_total counter"),
            "{raw}"
        );
    }
}
