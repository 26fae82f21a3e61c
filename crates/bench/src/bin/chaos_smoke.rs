//! CI chaos smoke: a short replay against a deterministically lossy
//! server must finish, recover via retransmits, and keep its books
//! straight. Exits nonzero when any bound is violated, so the `check.sh` /
//! CI step fails loudly instead of letting the fault-tolerance path rot.

use std::sync::Arc;
use std::time::Duration;

use ldp_bench::RunManifest;
use ldp_obs::{ReplaySpans, StageBreakdown};
use ldp_replay::{LiveReplay, ReplayMode};
use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_server::ChaosPolicy;
use ldp_trace::TraceRecord;
use ldp_wire::{Name, RrType};
use ldp_workload::zones::wildcard_example_zone;
use ldp_zone::ZoneSet;

const QUERIES: u64 = 1_000;
const DROP_P: f64 = 0.2;
const SEED: u64 = 42;
/// With three attempts at 20% loss a query is lost with p = 0.008, so the
/// expected abandon count is ~8/1000; 2.5% is a generous determinism-safe
/// ceiling that still catches a broken retry path (which abandons ~20%).
const MAX_GAVE_UP: u64 = 25;

fn engine() -> Arc<AuthEngine> {
    let mut set = ZoneSet::new();
    set.insert(wildcard_example_zone());
    Arc::new(AuthEngine::with_zones(Arc::new(set)))
}

fn trace(n: u64) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| {
            TraceRecord::udp_query(
                0,
                format!("10.0.0.{}", 1 + i % 5).parse().expect("valid ip"),
                (1024 + i % 60_000) as u16,
                Name::parse(&format!("q{i}.example.com")).expect("valid name"),
                RrType::A,
            )
        })
        .collect()
}

fn main() {
    let chaos = Arc::new(ChaosPolicy::new(SEED).drop_responses(DROP_P));
    let server = LiveServer::start_with_chaos(
        engine(),
        "127.0.0.1:0".parse().expect("valid addr"),
        chaos.clone(),
    )
    .expect("spawn chaos server");

    let mut replay = LiveReplay::new(server.addr);
    replay.mode = ReplayMode::Fast;
    // Room for the full retry ladder; the adaptive drain exits early.
    replay.drain = Duration::from_secs(4);
    let obs = ReplaySpans::from_env(replay.distributors * replay.queriers_per_distributor);
    replay.obs = obs.clone();
    let report = replay.run(trace(QUERIES)).expect("replay runs");

    let dropped = chaos
        .stats
        .dropped
        .load(std::sync::atomic::Ordering::Relaxed);
    println!(
        "chaos smoke: sent {} answered {} timeouts {} retries {} gave_up {} \
         errors {} (server dropped {dropped})",
        report.sent,
        report.answered,
        report.timeouts,
        report.retries,
        report.gave_up,
        report.errors
    );

    let mut violations = Vec::new();
    if report.sent != QUERIES {
        violations.push(format!("sent {} != {QUERIES}", report.sent));
    }
    if report.errors != 0 {
        violations.push(format!("{} records degraded to errors", report.errors));
    }
    if dropped == 0 {
        violations.push("chaos injected no loss — the smoke tests nothing".to_string());
    }
    if report.timeouts == 0 || report.retries == 0 {
        violations.push(format!(
            "loss did not surface as timeouts/retries ({}/{})",
            report.timeouts, report.retries
        ));
    }
    if report.gave_up > MAX_GAVE_UP {
        violations.push(format!(
            "gave_up {} exceeds bound {MAX_GAVE_UP} — retransmits are not recovering",
            report.gave_up
        ));
    }
    if report.answered + report.gave_up != report.sent {
        violations.push(format!(
            "accounting leak: answered {} + gave_up {} != sent {}",
            report.answered, report.gave_up, report.sent
        ));
    }

    // Manifest: the chaos policy that ran, the replay's fault ledger, and
    // (when `LDP_OBS_SAMPLE` is set) the per-stage span breakdown with its
    // retry wire segments.
    let mut manifest = RunManifest::new("chaos_smoke")
        .seed(SEED)
        .chaos_policy(serde_json::json!({
            "drop_responses": DROP_P,
            "seed": SEED,
        }))
        .faults(serde_json::json!({
            "server_dropped": dropped,
            "timeouts": report.timeouts,
            "retries": report.retries,
            "gave_up": report.gave_up,
            "errors": report.errors,
        }));
    if let Some(spans) = &obs {
        manifest = manifest.stage_breakdown(&StageBreakdown::from_events(&spans.events()));
    }
    match manifest.write(&ldp_bench::output_dir(), "chaos_smoke") {
        Ok(path) => println!("[manifest: {}]", path.display()),
        Err(e) => eprintln!("warning: could not write manifest: {e}"),
    }

    if violations.is_empty() {
        println!("chaos smoke: ok");
    } else {
        for v in &violations {
            eprintln!("chaos smoke FAILED: {v}");
        }
        std::process::exit(1);
    }
}
