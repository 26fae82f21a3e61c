//! Figure 9 / §4.3: single-host fast-replay throughput.
//!
//! Replays one *continuous* stream of identical queries
//! (`www.example.com`) over UDP with timers disabled — the paper's setup:
//! one query generator, one distributor, six queriers on one host, one
//! source per querier — and
//! samples the live telemetry registry every two seconds for query rate
//! and bandwidth, exactly as the paper plots. (The window loop is a
//! [`ldp_telemetry::Sampler`] consumer: the same registry that feeds
//! `--metrics-addr` feeds the bench, and the sampled series lands in the
//! manifest's v2 `timeseries` section.) (An earlier revision ran many
//! back-to-back mini-replays and divided by the whole wall clock, which
//! silently charged each window its fixed answer-drain sleep and pipeline
//! setup — under-reporting sustained throughput by ~40%.) The paper
//! reached 87 k q/s (60 Mb/s) with the generator saturating one core;
//! absolute numbers here depend on the host, the shape to check is a
//! flat, CPU-bound plateau.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_bench::{emit_with, max_rss_bytes, scale, Report, RunManifest};
use ldp_metrics::PipelineTotals;
use ldp_obs::{ReplaySpans, StageBreakdown};
use ldp_replay::{LiveReplay, ReplayMode};
use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_trace::TraceRecord;
use ldp_wire::{Name, RrType};
use ldp_workload::zones::wildcard_example_zone;
use ldp_zone::ZoneSet;
use serde_json::json;

fn engine() -> Arc<AuthEngine> {
    let mut set = ZoneSet::new();
    set.insert(wildcard_example_zone());
    Arc::new(AuthEngine::with_zones(Arc::new(set)))
}

/// The §4.3 artificial generator as a lazy stream: identical queries from
/// `sources` sources (one per querier, so sticky routing gives each
/// querier one), produced until `budget` elapses (the bounded read-ahead
/// in [`LiveReplay::run_iter`] parks it whenever the pipeline is full).
fn query_stream(
    sources: usize,
    budget: Duration,
) -> impl Iterator<Item = Result<TraceRecord, ldp_trace::TraceError>> + Send {
    let name = Name::parse("www.example.com").expect("valid name");
    let sources: Vec<std::net::IpAddr> = (1..=sources.max(1))
        .map(|k| std::net::Ipv4Addr::new(10, 0, (k >> 8) as u8, k as u8).into())
        .collect();
    let started = Instant::now();
    (0u64..).map_while(move |i| {
        if i % 1024 == 0 && started.elapsed() >= budget {
            return None;
        }
        Some(Ok(TraceRecord::udp_query(
            0, // all at t=0: fast mode ignores timing anyway
            sources[(i % sources.len() as u64) as usize],
            (1024 + i % 60_000) as u16,
            name.clone(),
            RrType::A,
        )))
    })
}

/// CPU time this process has used, user plus system, in µs (from
/// `/proc/self/stat`, in 10 ms clock ticks; 0 where it cannot be read).
fn process_cpu_us() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name may hold spaces; fields resume after its ')', at
    // field 3 of stat(5), so utime and stime (14 and 15) are 11 and 12.
    let rest = stat.rfind(')').map_or("", |at| &stat[at + 1..]);
    let field = |i: usize| -> u64 {
        rest.split_whitespace()
            .nth(i)
            .and_then(|f| f.parse().ok())
            .unwrap_or(0)
    };
    (field(11) + field(12)) * 10_000
}

fn main() {
    let scale = scale();
    let server =
        LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).expect("spawn live server");

    let mut report = Report::new("Figure 9 / §4.3: single-host fast-replay throughput");
    let section = report.section(
        format!("2-second windows (LDP_SCALE={scale})"),
        &["window", "queries", "rate_qps", "bandwidth_mbps"],
    );

    // One continuous fast replay for the whole budget, sampled live via
    // the shared telemetry registry (the same plane `--metrics-addr`
    // serves; per-shard sent counters plus the server's handled totals).
    let budget_s = (10.0 * scale).clamp(6.0, 60.0);
    let window_s = (budget_s / 3.0).min(2.0);
    let registry = Arc::new(ldp_telemetry::Registry::new());
    server.register_telemetry(&registry);
    let mut replay = LiveReplay {
        mode: ReplayMode::Fast,
        drain: std::time::Duration::from_millis(50),
        telemetry: Some(registry.clone()),
        // Raw send capacity: a blast replay intentionally overruns the
        // server, and retransmitting the overrun would measure the retry
        // ladder, not the generator.
        retry: ldp_replay::RetryPolicy::disabled(),
        ..LiveReplay::new(server.addr)
    };
    // Opt-in span recording (`LDP_OBS_SAMPLE`): the manifest then carries
    // per-stage latency histograms alongside the throughput series.
    let obs = ReplaySpans::from_env(replay.distributors * replay.queriers_per_distributor);
    replay.obs = obs.clone();
    let budget = Duration::from_secs_f64(budget_s);
    let records = query_stream(
        replay.distributors * replay.queriers_per_distributor,
        budget,
    );
    let cpu_before = process_cpu_us();
    let runner = std::thread::spawn(move || replay.run_iter(records));

    let mut sampler = ldp_telemetry::Sampler::new(registry, 4_096);
    let started = Instant::now();
    let mut window = 0u32;
    let mut rates = Vec::new();
    let mut sampled_at = started;
    let mut sampled_total = 0u64;
    while started.elapsed() < budget {
        std::thread::sleep(Duration::from_secs_f64(window_s));
        let now = Instant::now();
        sampler.sample();
        let total = sampler
            .family_totals(ldp_telemetry::sampler::SENT_FAMILY)
            .last()
            .map_or(0, |&(_, v)| v);
        let secs = now.duration_since(sampled_at).as_secs_f64();
        let sent = total - sampled_total;
        let qps = sent as f64 / secs;
        // Average request size ≈ 33-byte query + 28-byte UDP/IP headers.
        let mbps = qps * (33.0 + 28.0) * 8.0 / 1e6;
        window += 1;
        rates.push(qps);
        println!("window {window}: {qps:>10.0} q/s  {mbps:>7.2} Mb/s");
        section.row(vec![json!(window), json!(sent), json!(qps), json!(mbps)]);
        sampled_at = now;
        sampled_total = total;
    }

    let out = runner
        .join()
        .expect("replay thread joins")
        .expect("replay runs");
    // Server and replay share this process, so this is the CPU of the
    // whole replay → server → replay loop.
    let cpu_us = process_cpu_us().saturating_sub(cpu_before);
    let total_sent = out.sent;
    // What came back, over the same send phase the rate is measured on.
    let answered = out.answered;
    let answer_ratio = answered as f64 / total_sent.max(1) as f64;
    let cpu_us_per_answer = cpu_us as f64 / answered.max(1) as f64;
    let answered_qps = if out.send_duration_us == 0 {
        0.0
    } else {
        answered as f64 / (out.send_duration_us as f64 / 1e6)
    };
    let rss_mb = max_rss_bytes() as f64 / 1e6;
    let last_shards = out.shards;

    // Where the pipeline saturates: deep queues = send-bound shards,
    // postman stalls = distribution-bound, shallow queues = reader-bound.
    let shard_section = report.section(
        "per-shard saturation (whole run)",
        &[
            "shard",
            "sent",
            "answered",
            "batches",
            "stalls",
            "max_depth",
            "mean_depth",
        ],
    );
    for s in &last_shards {
        println!("{}", s.row());
        shard_section.row(vec![
            json!(s.shard),
            json!(s.sent),
            json!(s.answered),
            json!(s.batches),
            json!(s.postman_stalls),
            json!(s.max_queue_depth),
            json!(s.depths.mean()),
        ]);
    }
    let totals = PipelineTotals::from_shards(&last_shards);

    let mean = rates.iter().sum::<f64>() / rates.len().max(1) as f64;
    let summary = report.section("summary", &["metric", "value"]);
    summary.row(vec![json!("total queries"), json!(total_sent)]);
    summary.row(vec![json!("mean rate (q/s)"), json!(mean)]);
    summary.row(vec![
        json!("server answers"),
        json!(server
            .stats
            .udp_queries
            .load(std::sync::atomic::Ordering::Relaxed)),
    ]);
    summary.row(vec![json!("answered"), json!(answered)]);
    summary.row(vec![json!("answer ratio"), json!(answer_ratio)]);
    summary.row(vec![json!("answered rate (q/s)"), json!(answered_qps)]);
    summary.row(vec![json!("cpu_us_per_answer"), json!(cpu_us_per_answer)]);
    summary.row(vec![json!("replay process max RSS (MB)"), json!(rss_mb)]);

    println!(
        "\npaper shape: flat CPU-bound plateau; 87 k q/s (60 Mb/s) on the paper's 2.4 GHz Xeon"
    );
    let mut manifest = RunManifest::new("fig09_throughput")
        .scale(scale)
        .throughput(rates.clone())
        .faults(json!(totals))
        .timeseries(sampler.to_manifest_value())
        .stage("server_handle", &server.stats.handle_hist());
    if let Some(spans) = &obs {
        let breakdown = StageBreakdown::from_events(&spans.events());
        manifest = manifest
            .stage_breakdown(&breakdown)
            .extra("span_overwritten", json!(spans.overwritten()));
    }
    emit_with(&report, "fig09_throughput", &manifest);

    // Machine-readable bench record for CI smoke checks and cross-commit
    // throughput comparisons.
    let bench = json!({
        "bench": "fig09_throughput",
        "scale": scale,
        "obs_sample": ldp_obs::sample_from_env(),
        "windows": window,
        "total_queries": total_sent,
        "mean_rate_qps": mean,
        "answered": answered,
        "answer_ratio": answer_ratio,
        "answered_qps": answered_qps,
        "cpu_us_per_answer": cpu_us_per_answer,
        "replay_rss_mb": rss_mb,
        "shards": last_shards,
        "totals": totals,
    });
    let dir = ldp_bench::output_dir();
    let path = dir.join("BENCH_fig09.json");
    match std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&bench).expect("bench record serializes"),
        )
    }) {
        Ok(()) => println!("[written: {}]", path.display()),
        Err(e) => eprintln!("warning: could not write bench record: {e}"),
    }
}
