//! The load: one replay process per step.
//!
//! The benchmark re-executes itself as `perfbench replay ...` for each step.
//! The child replays one step through the public `LiveReplay` API, reads
//! its own CPU, memory and thread count from `/proc/self`, prints one JSON
//! line and exits. A fresh process per step keeps every step's CPU, peak
//! RSS and thread count its own.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_metrics::LogHistogram;
use ldp_obs::{ReplaySpans, StageBreakdown};
use ldp_replay::{LiveReplay, RetryPolicy};
use serde_json::{json, Value};

use crate::procfs::{cpu_us, status_field};
use crate::workload::{self, Fed, Workload};

/// Cap on waiting for answers after the last send. Retries are off, so a
/// lost query stays in flight and only this cap ends the wait.
const DRAIN: Duration = Duration::from_millis(200);

/// One step: what the `replay` child is asked to do.
#[derive(Debug, Clone)]
pub struct StepSpec {
    pub workload: Workload,
    pub server: SocketAddr,
    pub inputs: PathBuf,
    /// Offered rate (q/s).
    pub rate: f64,
    pub seconds: f64,
    pub queriers: usize,
    /// Span sampling modulus and per-shard ring capacity; `None` = untraced.
    pub spans: Option<(u64, usize)>,
}

impl StepSpec {
    fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "replay".to_string(),
            format!("--workload={}", self.workload.name()),
            format!("--server={}", self.server),
            format!("--inputs={}", self.inputs.display()),
            format!("--rate={}", self.rate),
            format!("--seconds={}", self.seconds),
            format!("--queriers={}", self.queriers),
        ];
        if let Some((sample, cap)) = self.spans {
            args.push(format!("--spans={sample}:{cap}"));
        }
        args
    }

    /// Parses the `replay` role's `--key=value` arguments.
    pub fn parse(args: &[String]) -> Result<StepSpec, String> {
        let get = |key: &str| {
            args.iter()
                .find_map(|a| a.strip_prefix(&format!("--{key}=")))
                .ok_or(format!("replay: missing --{key}"))
        };
        let num = |key: &str| -> Result<f64, String> {
            get(key)?
                .parse()
                .map_err(|_| format!("replay: bad --{key}"))
        };
        let spans = match get("spans") {
            Err(_) => None,
            Ok(s) => {
                let bad = || "replay: bad --spans".to_string();
                let (a, b) = s.split_once(':').ok_or_else(bad)?;
                Some((a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?))
            }
        };
        Ok(StepSpec {
            workload: Workload::parse(get("workload")?).ok_or("replay: unknown workload")?,
            server: get("server")?.parse().map_err(|_| "replay: bad --server")?,
            inputs: PathBuf::from(get("inputs")?),
            rate: num("rate")?,
            seconds: num("seconds")?,
            queriers: num("queriers")? as usize,
            spans,
        })
    }

    /// Runs the step in a `replay` child and returns its JSON record.
    pub fn run(&self) -> io::Result<Value> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(self.to_args())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut last = String::new();
        if let Some(out) = child.stdout.take() {
            for line in BufReader::new(out).lines() {
                last = line?;
            }
        }
        let status = child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("replay child failed: {status}")));
        }
        serde_json::from_str(&last)
            .map_err(|e| io::Error::other(format!("replay child said {last:?}: {e}")))
    }
}

/// The `replay` role.
pub fn replay(spec: &StepSpec) -> io::Result<()> {
    let fed = Arc::new(Fed::default());
    let records = workload::step_records(
        spec.workload,
        &spec.inputs,
        spec.rate,
        spec.seconds,
        fed.clone(),
    )
    .map_err(|e| io::Error::other(e.to_string()))?;
    let spans = spec
        .spans
        .map(|(sample, cap)| Arc::new(ReplaySpans::with_capacity(spec.queriers, sample, cap)));
    let replay = LiveReplay {
        mode: spec.workload.mode(spec.rate),
        distributors: 1,
        queriers_per_distributor: spec.queriers,
        max_sockets_per_querier: 1,
        batch_size: spec.workload.batch_size(),
        drain: DRAIN,
        retry: RetryPolicy::disabled(),
        obs: spans.clone(),
        ..LiveReplay::new(spec.server)
    };
    let rss_start_kb = status_field("self", "VmRSS").unwrap_or(0);
    let cpu_before = cpu_us("self").unwrap_or(0);
    let started = Instant::now();
    let report = tokio::runtime::Runtime::new()?.block_on(replay.run_stream(records))?;
    let wall_s = started.elapsed().as_secs_f64();
    let cpu = cpu_us("self").unwrap_or(0).saturating_sub(cpu_before);
    let threads = status_field("self", "Threads").unwrap_or(0);
    let rss_peak_kb = status_field("self", "VmHWM").unwrap_or(0);

    // Lateness: sent − due (Fig. 6's error). Latency: answer − due, i.e.
    // lateness plus the round trip.
    let mut lateness = LogHistogram::new();
    let mut latency = LogHistogram::new();
    for o in report.outcomes.iter().filter(|o| o.error.is_none()) {
        let late = o.sent_offset_us.saturating_sub(o.target_offset_us);
        lateness.record(late);
        if let Some(rtt) = o.latency_us {
            latency.record(late + rtt);
        }
    }
    let shards = &report.shards;
    let mut record = json!({
        "scheduled": fed.records.load(Ordering::Relaxed),
        "read_errors": fed.errors.load(Ordering::Relaxed),
        "sent": report.sent,
        "answered": report.answered,
        "errors": report.errors,
        "gave_up": report.gave_up,
        "late": shards.iter().map(|s| s.late).sum::<u64>(),
        "postman_stalls": shards.iter().map(|s| s.postman_stalls).sum::<u64>(),
        "max_queue_depth": shards.iter().map(|s| s.max_queue_depth).max().unwrap_or(0),
        "batches": shards.iter().map(|s| s.batches).sum::<u64>(),
        "shard_sent": shards.iter().map(|s| s.sent).collect::<Vec<_>>(),
        "lateness_us": summary(&lateness),
        "latency_us": summary(&latency),
        "cpu_us": cpu,
        "wall_s": wall_s,
        "threads": threads,
        "rss_start_kb": rss_start_kb,
        "rss_peak_kb": rss_peak_kb,
    });
    if let (Some(spans), Value::Object(fields)) = (&spans, &mut record) {
        fields.push(("spans".to_string(), span_record(spans)));
    }
    println!("{record}");
    Ok(())
}

/// p50/p90/p99 (bucket midpoints, exact below 64 µs and within about 3%
/// above), the exact max and the sample count; `null` when empty.
fn summary(h: &LogHistogram) -> Value {
    json!({
        "p50": h.quantile(0.50),
        "p90": h.quantile(0.90),
        "p99": h.quantile(0.99),
        "max": h.max(),
        "n": h.count(),
    })
}

fn span_record(spans: &ReplaySpans) -> Value {
    let b = StageBreakdown::from_events(&spans.events());
    let q = |h: &LogHistogram, p: f64| h.quantile(p).unwrap_or(0);
    json!({
        "overwritten": spans.overwritten(),
        "sample": spans.sample(),
        "queries": b.queries,
        "batch_wait_us_p50": q(&b.batch_wait, 0.5),
        "batch_wait_us_p90": q(&b.batch_wait, 0.9),
        "queue_wait_us_p50": q(&b.queue_wait, 0.5),
        "queue_wait_us_p90": q(&b.queue_wait, 0.9),
        "send_lag_us_p50": q(&b.send_lag, 0.5),
        "send_lag_us_p90": q(&b.send_lag, 0.9),
        "rtt_us_p50": q(&b.rtt, 0.5),
        "rtt_us_p90": q(&b.rtt, 0.9),
    })
}
