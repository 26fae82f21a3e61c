//! The LDplayer benchmark: SLO capacity, timing fidelity and CPU per answer
//! of the replay → server → replay loop on three traffic mixes, plus a
//! traced run that reports per-layer numbers.
//!
//! ```text
//! perfbench --workload <hot_fast|broot_timed|broot_tcp> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! One run sets up (generates the workload's `.ldps` input and starts the
//! server in a child process), checks a seeded sample of answers, then
//! measures. With `--trace 0` it runs reference steps at a fixed offered
//! rate and a capacity search, and reports the end-to-end metrics; with
//! `--trace 1` it runs one untraced and one traced reference step and
//! times each layer's public calls, and reports the per-layer metrics.
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--quick` shortens everything to a few seconds for the self-test.
//! See README.md for the metric definitions and the layer map.

// The `json!` records here nest deeper than the default limit allows.
#![recursion_limit = "256"]

mod affinity;
mod alloc;
mod check;
mod layers;
mod procfs;
mod replay;
mod serve;
mod stats;
mod workload;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::{json, Value};

use crate::affinity::Side;
use crate::layers::Metric;
use crate::procfs::HostCounters;
use crate::replay::StepSpec;
use crate::serve::Server;
use crate::stats::num;
use crate::workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seeds the benchmark is tuned on and re-checked on. A claim made on the
/// development seed should hold on the validation seed too.
const DEVELOPMENT_SEED: u64 = 1;
const VALIDATION_SEED: u64 = 2;

/// The SLO a step must meet to count toward capacity.
const SLO_ANSWER_RATIO: f64 = 0.99;
/// The replay engine's `LATE_BUDGET_US`.
const SLO_LATENESS_P99_US: f64 = 10_000.0;

/// Capacity search: probes, one per bisection. Six bisections in log
/// space narrow a bracket of up to 16× (the widest a workload starts with)
/// to under 5%; the record states the width reached.
const BISECTIONS: usize = 6;

/// Answer-check sample per transport.
const CHECK_SAMPLE: usize = 64;
/// Records the per-layer timings loop over.
const LAYER_RECORDS: usize = 20_000;
/// Sampled queries a traced step aims to record spans for.
const TRACED_QUERIES: u64 = 40_000;
/// Span events a query can record (read, batched, scheduled, sent,
/// answered), with room to spare.
const EVENTS_PER_QUERY: u64 = 8;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => flag(&args, "workload")
            .and_then(|w| Workload::parse(&w).ok_or(format!("unknown workload {w}")))
            .and_then(|w| {
                affinity::pin(Side::Server)
                    .and_then(|()| serve::serve(w))
                    .map_err(|e| e.to_string())
            }),
        Some("replay") => StepSpec::parse(&args).and_then(|s| {
            affinity::pin(Side::Replay)
                .and_then(|()| replay::replay(&s))
                .map_err(|e| e.to_string())
        }),
        _ => Options::parse(&args).and_then(|o| drive(&o)),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// `--key value` or `--key=value`.
fn flag(args: &[String], key: &str) -> Result<String, String> {
    let long = format!("--{key}");
    args.iter()
        .enumerate()
        .find_map(|(i, a)| {
            if *a == long {
                args.get(i + 1).cloned()
            } else {
                a.strip_prefix(&format!("{long}=")).map(str::to_string)
            }
        })
        .ok_or(format!("missing --{key}"))
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let w = flag(args, "workload")?;
        let number = |key: &str| -> Result<f64, String> {
            flag(args, key)?.parse().map_err(|_| format!("bad --{key}"))
        };
        Ok(Options {
            workload: Workload::parse(&w).ok_or(format!("unknown workload {w}"))?,
            seed: number("seed")? as u64,
            seconds: number("seconds")?.max(1.0),
            trace: number("trace")? != 0.0,
            quick: args.iter().any(|a| a == "--quick"),
        })
    }
}

/// How a run spends its `--seconds`. With `--trace 0`: 40% on one
/// reference step, the rest on the capacity search's probes. With
/// `--trace 1`: 30% each on an untraced and a traced reference step.
struct Plan {
    ref_s: f64,
    probe_s: f64,
    bisections: usize,
}

impl Plan {
    fn new(o: &Options) -> Plan {
        let s = if o.quick { 2.0 } else { o.seconds };
        let bisections = if o.quick { 1 } else { BISECTIONS };
        Plan {
            ref_s: if o.trace { 0.3 * s } else { 0.4 * s },
            probe_s: 0.6 * s / bisections as f64,
            bisections,
        }
    }
}

/// Everything a step needs: the server, the inputs and the load shape.
struct Ctx {
    workload: Workload,
    seed: u64,
    server: Server,
    inputs: PathBuf,
    queriers: usize,
    /// Set-up times, in seconds.
    setups: Vec<f64>,
    /// Where a set-up repeated after each step writes its input; `None`
    /// when set-up is not repeated.
    spare_inputs: Option<PathBuf>,
}

/// One timed set-up: generate the input and write it to `path` as
/// `.ldps`, start a server child (zone build included) and wait until it
/// answers a probe.
fn set_up(w: Workload, seed: u64, queriers: usize, path: &Path) -> Result<(f64, Server), String> {
    let started = Instant::now();
    workload::write_inputs(w, seed, queriers, path).map_err(|e| e.to_string())?;
    let server = Server::start(w).map_err(|e| e.to_string())?;
    Ok((started.elapsed().as_secs_f64(), server))
}

/// One step's record, with the numbers the run reads back out of it.
struct Step {
    record: Value,
}

impl Step {
    fn get(&self, path: &[&str]) -> f64 {
        num(&self.record, path)
    }

    fn scheduled(&self) -> f64 {
        self.get(&["replay", "scheduled"])
    }

    fn answered(&self) -> f64 {
        self.get(&["replay", "answered"])
    }

    fn answer_ratio(&self) -> f64 {
        self.answered() / self.scheduled().max(1.0)
    }

    fn errors(&self) -> f64 {
        self.get(&["replay", "errors"]) + self.get(&["replay", "read_errors"])
    }

    /// The SLO, over the whole step: ≥ 99% of its scheduled queries
    /// answered, lateness p99 within the engine's late budget, no replay
    /// or read errors.
    fn slo_met(&self) -> bool {
        self.answer_ratio() >= SLO_ANSWER_RATIO
            && self.get(&["replay", "lateness_us", "p99"]) <= SLO_LATENESS_P99_US
            && self.errors() == 0.0
    }

    fn cpu_us_per_answer(&self) -> f64 {
        (self.get(&["replay", "cpu_us"]) + self.get(&["server", "cpu_us"]))
            / self.answered().max(1.0)
    }
}

impl Ctx {
    /// Runs one step at `rate` q/s and accounts for every query it sent.
    fn step(
        &mut self,
        rate: f64,
        seconds: f64,
        spans: Option<(u64, usize)>,
    ) -> Result<Step, String> {
        let spec = StepSpec {
            workload: self.workload,
            server: self.server.addr,
            inputs: self.inputs.clone(),
            rate,
            seconds,
            queriers: self.queriers,
            spans,
        };
        let pid = self.server.pid();
        let before = self.server.stats().map_err(|e| e.to_string())?;
        let cpu_before = procfs::cpu_us(&pid).unwrap_or(0);
        let kernel_before = HostCounters::read();
        let replay = spec.run().map_err(|e| e.to_string())?;
        let kernel = HostCounters::read().since(kernel_before);
        let cpu = procfs::cpu_us(&pid).unwrap_or(0).saturating_sub(cpu_before);
        let after = self.server.stats().map_err(|e| e.to_string())?;
        let server = serve::delta(&before, &after, cpu);
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_i64).unwrap_or(0);
        let (sent, answered) = (field(&replay, "sent"), field(&replay, "answered"));
        let unexplained = sent
            - answered
            - kernel.rcvbuf_errors as i64
            - kernel.sndbuf_errors as i64
            - field(&server, "malformed")
            - field(&server, "send_failures");
        let mut step = Step {
            record: json!({
                "rate_qps": rate,
                "seconds": seconds,
                "traced": spans.is_some(),
                "replay": replay,
                "server": server,
                "kernel": {
                    "udp_rcvbuf_errors": kernel.rcvbuf_errors,
                    "udp_sndbuf_errors": kernel.sndbuf_errors,
                    "cpu_steal_us": kernel.steal_us,
                },
                "loss": {
                    "sent": sent,
                    "answered": answered,
                    "server_handled": field(&server, "handled"),
                    "unexplained": unexplained,
                },
            }),
        };
        if let Some(path) = &self.spare_inputs {
            // The spare server is stopped before the next step starts.
            let (took, _spare) = set_up(self.workload, self.seed, self.queriers, path)?;
            self.setups.push(took);
        }
        let verdict = json!(step.slo_met());
        if let Value::Object(fields) = &mut step.record {
            fields.push(("slo_met".into(), verdict));
        }
        eprintln!(
            "step {:>9.0} q/s: answered {:.4}, lateness p99 {} us, SLO met: {}",
            rate,
            step.answer_ratio(),
            step.get(&["replay", "lateness_us", "p99"]),
            step.slo_met(),
        );
        Ok(step)
    }

    /// The highest offered rate meeting the SLO: `plan.bisections` probes,
    /// bisecting in log space between the reference rate and the
    /// workload's maximum (between an eighth of the reference rate and it,
    /// when the reference step missed the SLO). Returns the final bracket:
    /// its lower end met the SLO (or is the search's floor) and its upper
    /// end did not (or is the search's ceiling).
    fn capacity(
        &mut self,
        plan: &Plan,
        reference_met: bool,
    ) -> Result<(f64, f64, Vec<Step>), String> {
        let reference = self.workload.reference_qps();
        let (mut lo, mut hi) = if reference_met {
            (reference, self.workload.max_qps())
        } else {
            (reference / 8.0, reference)
        };
        let mut steps = Vec::new();
        for _ in 0..plan.bisections {
            let rate = (lo * hi).sqrt();
            let step = self.step(rate, plan.probe_s, None)?;
            if step.slo_met() {
                lo = rate;
            } else {
                hi = rate;
            }
            steps.push(step);
        }
        Ok((lo, hi, steps))
    }
}

fn drive(o: &Options) -> Result<(), String> {
    let dir = PathBuf::from(".perfbench").join(std::process::id().to_string());
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run(o, &dir);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir(".perfbench");
    result
}

fn run(o: &Options, dir: &Path) -> Result<(), String> {
    let plan = Plan::new(o);
    let w = o.workload;
    let queriers = procfs::nproc();
    let inputs = dir.join("inputs.ldps");
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // Set-up is timed here and, with `--trace 0`, again after every step
    // with a spare server. Set-up is CPU-bound, and on a shared host its
    // CPU time alone varied up to 2× with what other guests ran; the
    // fastest of the repeats, spread over the whole run, is its own cost.
    let (took, server) = set_up(w, o.seed, queriers, &inputs)?;
    let input_bytes = fs::read(&inputs).map_err(|e| err(&e))?;
    let records = workload::read_inputs(&inputs).map_err(|e| err(&e))?;

    // Nothing is timed until a sample of answers checks out.
    let check = check::answer_check(&records, o.seed, CHECK_SAMPLE, server.addr)?;
    let checked = 2 * CHECK_SAMPLE as u64;

    let mut ctx = Ctx {
        workload: w,
        seed: o.seed,
        server,
        inputs,
        queriers,
        setups: vec![took],
        spare_inputs: (!o.trace).then(|| dir.join("spare.ldps")),
    };
    let reference = w.reference_qps();
    // Only reference steps count as attempted operations: probes above
    // capacity are meant to fail.
    let mut metrics: Vec<Metric>;
    // Shown and recorded, not gated: see README.md, "End-to-end
    // metrics".
    let mut reported: Vec<Metric> = Vec::new();
    let counted: Vec<Step>;
    let mut probes = Vec::new();
    let mut bracket = Value::Null;
    if !o.trace {
        let r = ctx.step(reference, plan.ref_s, None)?;
        let (capacity, ceiling, searched) = ctx.capacity(&plan, r.slo_met())?;
        bracket = json!({"lo_qps": capacity, "hi_qps": ceiling, "ratio": ceiling / capacity});
        metrics = vec![
            ("answer_ratio".into(), r.answer_ratio(), "ratio"),
            ("cpu_us_per_answer".into(), r.cpu_us_per_answer(), "us"),
            (
                "replay_rss_mb".into(),
                r.get(&["replay", "rss_peak_kb"]) * 1024.0 / 1e6,
                "MB",
            ),
            (
                "setup_s".into(),
                ctx.setups.iter().copied().fold(f64::INFINITY, f64::min),
                "s",
            ),
        ];
        let pooled = |summary: &str, p: &str| r.get(&["replay", summary, p]);
        reported = vec![
            ("capacity_qps".into(), capacity, "q/s"),
            ("lateness_p50_us".into(), pooled("lateness_us", "p50"), "us"),
            ("lateness_p90_us".into(), pooled("lateness_us", "p90"), "us"),
            ("latency_p50_us".into(), pooled("latency_us", "p50"), "us"),
            ("latency_p90_us".into(), pooled("latency_us", "p90"), "us"),
        ];
        counted = vec![r];
        probes = searched;
    } else {
        let plain = ctx.step(reference, plan.ref_s, None)?;
        let expected = (reference * plan.ref_s) as u64;
        let sample = expected.div_ceil(TRACED_QUERIES).max(1);
        let cap = (expected / sample + 1) * EVENTS_PER_QUERY;
        let traced = ctx.step(reference, plan.ref_s, Some((sample, cap as usize)))?;
        alloc::enable();
        // The trace's first records, or hot_fast's template repeated.
        let layer_records: Vec<_> = records
            .iter()
            .cycle()
            .take(LAYER_RECORDS)
            .cloned()
            .collect();
        metrics = layers::measure(w, o.seed, queriers, &layer_records);
        metrics.extend(traced_metrics(&plain, &traced));
        counted = vec![plain, traced];
    }

    let attempted = checked as f64 + counted.iter().map(Step::scheduled).sum::<f64>();
    // Every query is counted once: nothing answered that was not sent,
    // nothing sent that was not scheduled, no answer the server did not give.
    let correct = counted.iter().all(|s| {
        let sent = s.get(&["replay", "sent"]);
        s.answered() <= sent
            && sent <= s.scheduled()
            && s.answered() <= s.get(&["server", "handled"])
    });
    let failed: f64 = counted.iter().map(|s| s.scheduled() - s.answered()).sum();
    let record = json!({
        "workload": w.name(),
        "seed": o.seed,
        "seed_role": match o.seed {
            DEVELOPMENT_SEED => "development",
            VALIDATION_SEED => "validation",
            _ => "other",
        },
        "trace": o.trace,
        "host": procfs::host(),
        "git_rev": ldp_obs::git_rev(),
        "inputs": {
            "records": records.len(),
            "bytes": input_bytes.len(),
            // Two runs with equal hashes replayed identical input.
            "fnv1a64": format!("{:016x}", workload::fnv1a64(&input_bytes)),
        },
        "load": {
            "processes": 1,
            "queriers": queriers,
            "max_sockets_per_querier": 1,
            "max_tcp_connections": queriers,
            "retries": "disabled",
            "batch_size": w.batch_size(),
            "server_cpus": affinity::cpus(Side::Server).unwrap_or_default(),
            "replay_cpus": affinity::cpus(Side::Replay).unwrap_or_default(),
        },
        "slo": {
            "answer_ratio_min": SLO_ANSWER_RATIO,
            "lateness_p99_us_max": SLO_LATENESS_P99_US,
            "errors": 0,
        },
        "setup_s": ctx.setups,
        "answer_check": check,
        "reported": reported.iter().map(|(n, v, u)| json!({"name": n, "value": v, "unit": u})).collect::<Vec<_>>(),
        "reference_steps": counted.iter().map(|s| s.record.clone()).collect::<Vec<_>>(),
        "capacity_bracket": bracket,
        "capacity_probes": probes.iter().map(|s| s.record.clone()).collect::<Vec<_>>(),
    });
    println!("record {record}");
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    for (name, value, unit) in &reported {
        println!("{name:<34} {value:>14.4} {unit} (reported, not gated)");
    }
    let metrics: Vec<(String, Value)> = metrics
        .into_iter()
        .map(|(name, value, unit)| (name, json!({"value": value, "unit": unit})))
        .collect();
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": attempted as u64,
            "failed": failed.max(0.0) as u64,
            "metrics": Value::Object(metrics),
        })
    );
    Ok(())
}

fn traced_metrics(plain: &Step, traced: &Step) -> Vec<Metric> {
    let t = |path: &[&str]| traced.get(path);
    let sent = t(&["replay", "sent"]).max(1.0);
    let answered = traced.answered().max(1.0);
    let overwritten = t(&["replay", "spans", "overwritten"]);
    let span = |name: &str| t(&["replay", "spans", name]);
    let rss_growth_kb =
        plain.get(&["replay", "rss_peak_kb"]) - plain.get(&["replay", "rss_start_kb"]);
    vec![
        (
            "server.pktcache_hit_ratio".into(),
            t(&["server", "pktcache_hit_ratio"]),
            "ratio",
        ),
        (
            "server.pktcache_evictions".into(),
            t(&["server", "pktcache_evictions"]),
            "count",
        ),
        (
            "server.cpu_us_per_answer".into(),
            t(&["server", "cpu_us"]) / answered,
            "us",
        ),
        (
            "server.handle_us_p50".into(),
            t(&["server", "handle_us_p50"]),
            "us",
        ),
        (
            "server.malformed".into(),
            t(&["server", "malformed"]),
            "count",
        ),
        (
            "server.send_failures".into(),
            t(&["server", "send_failures"]),
            "count",
        ),
        (
            "server.tcp_connections".into(),
            t(&["server", "tcp_connections"]),
            "count",
        ),
        (
            "replay.cpu_us_per_query".into(),
            t(&["replay", "cpu_us"]) / sent,
            "us",
        ),
        ("replay.threads".into(), t(&["replay", "threads"]), "count"),
        (
            "replay.batch_wait_us_p50".into(),
            span("batch_wait_us_p50"),
            "us",
        ),
        (
            "replay.batch_wait_us_p90".into(),
            span("batch_wait_us_p90"),
            "us",
        ),
        (
            "replay.queue_wait_us_p50".into(),
            span("queue_wait_us_p50"),
            "us",
        ),
        (
            "replay.queue_wait_us_p90".into(),
            span("queue_wait_us_p90"),
            "us",
        ),
        (
            "replay.send_lag_us_p50".into(),
            span("send_lag_us_p50"),
            "us",
        ),
        (
            "replay.send_lag_us_p90".into(),
            span("send_lag_us_p90"),
            "us",
        ),
        ("replay.rtt_us_p50".into(), span("rtt_us_p50"), "us"),
        ("replay.rtt_us_p90".into(), span("rtt_us_p90"), "us"),
        (
            "replay.postman_stalls".into(),
            t(&["replay", "postman_stalls"]),
            "count",
        ),
        (
            "replay.max_queue_depth".into(),
            t(&["replay", "max_queue_depth"]),
            "count",
        ),
        (
            "replay.records_per_batch".into(),
            sent / t(&["replay", "batches"]).max(1.0),
            "count",
        ),
        ("replay.late".into(), t(&["replay", "late"]), "count"),
        ("replay.errors".into(), traced.errors(), "count"),
        ("replay.gave_up".into(), t(&["replay", "gave_up"]), "count"),
        (
            "replay.rss_bytes_per_record".into(),
            rss_growth_kb * 1024.0 / plain.scheduled().max(1.0),
            "B",
        ),
        (
            "kernel.udp_rcvbuf_errors".into(),
            t(&["kernel", "udp_rcvbuf_errors"]),
            "count",
        ),
        (
            "kernel.udp_sndbuf_errors".into(),
            t(&["kernel", "udp_sndbuf_errors"]),
            "count",
        ),
        (
            "obs.overhead_pct".into(),
            (traced.cpu_us_per_answer() / plain.cpu_us_per_answer() - 1.0) * 100.0,
            "%",
        ),
        ("obs.span_overwritten".into(), overwritten, "count"),
    ]
}
