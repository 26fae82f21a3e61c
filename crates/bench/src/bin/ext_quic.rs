//! Extension experiment: the third leg of the paper's opening question —
//! "What if all DNS requests were made over **QUIC**, TCP or TLS?" The
//! paper's evaluation covered TCP and TLS; this binary completes the
//! triptych with DNS-over-QUIC (RFC 9250 emulation) and compares all
//! four transports on the §5.2 axes: server memory, connection/session
//! state, CPU, and latency vs RTT.
//!
//! Expected shapes: QUIC's fresh-query latency is 2 RTT (vs TCP 2, TLS 4 —
//! QUIC folds crypto into the transport handshake, so it matches plain
//! TCP while *encrypted*); per-session memory sits far below TCP (no
//! kernel socket buffers, no TIME_WAIT); CPU sits near TLS (same crypto).

use ldp_bench::{emit, scale, traces, Report, Summary};
use ldp_replay::outcome::non_busy_latencies_ms;
use ldp_trace::mutate;
use ldplayer::SimExperiment;
use serde_json::json;

fn main() {
    let scale = scale();
    let mut report = Report::new("Extension: DNS over QUIC vs UDP/TCP/TLS (the intro's what-if)");

    // Footprint + CPU at the reference 20 s timeout.
    let cfg = traces::b17a_like(scale);
    let section = report.section(
        format!("server state, all-X replays, 20 s idle timeout (LDP_SCALE={scale})"),
        &[
            "transport",
            "memory_gb",
            "sessions_or_conns",
            "time_wait",
            "handshakes",
            "cpu_percent_at_paper_rate",
        ],
    );
    for (label, mutator) in [
        (
            "udp",
            Some(
                mutate::QueryMutator::new(1)
                    .push(ldp_trace::Mutation::SetProtocol(ldp_trace::Protocol::Udp)),
            ),
        ),
        ("tcp", Some(mutate::all_tcp(1))),
        ("tls", Some(mutate::all_tls(1))),
        ("quic", Some(mutate::all_quic(1))),
    ] {
        let mut trace = cfg.generate();
        if let Some(m) = mutator {
            let mut m = m;
            m.apply_all(&mut trace);
        }
        let result = SimExperiment::root_server(trace)
            .rtt_ms(1)
            .tcp_idle_timeout_s(20)
            .run();
        assert!(
            result.answer_rate() > 0.98,
            "{label}: rate {}",
            result.answer_rate()
        );
        let mem = result
            .steady_state(cfg.duration_s * 0.4, |s| s.memory_gb)
            .unwrap_or(0.0);
        let cpu = result
            .steady_state(cfg.duration_s * 0.4, |s| s.cpu_percent)
            .unwrap_or(0.0);
        let actual_rate = result.outcomes.len() as f64 / cfg.duration_s;
        let cpu_norm = cpu * 39_000.0 / actual_rate.max(1.0);
        let sessions = result.final_tcp.established.max(result.usage.quic_sessions);
        let handshakes = result.usage.tcp_handshakes + result.usage.quic_handshakes;
        println!(
            "{label:<5} mem {mem:5.2} GB  sessions {sessions:>6}  TIME_WAIT {:>6}  handshakes {handshakes:>7}  cpu@paper {cpu_norm:5.2}%",
            result.final_tcp.time_wait
        );
        section.row(vec![
            json!(label),
            json!(mem),
            json!(sessions),
            json!(result.final_tcp.time_wait),
            json!(handshakes),
            json!(cpu_norm),
        ]);
    }

    // Latency vs RTT for the non-busy cut (the discriminating view).
    let lat_cfg = traces::b17b_like(scale.min(0.3));
    let latency = report.section(
        "non-busy-client latency vs RTT (ms)",
        &["transport", "rtt_ms", "q1", "median", "q3"],
    );
    for (label, mutator) in [
        ("tcp", mutate::all_tcp(1)),
        ("tls", mutate::all_tls(1)),
        ("quic", mutate::all_quic(1)),
    ] {
        for rtt in [20u64, 80, 160] {
            let mut trace = lat_cfg.generate();
            let mut m = mutator.clone();
            m.apply_all(&mut trace);
            let result = SimExperiment::root_server(trace)
                .rtt_ms(rtt)
                .tcp_idle_timeout_s(20)
                .grace_s(2)
                .run();
            if let Some(s) = Summary::compute(&non_busy_latencies_ms(&result.outcomes, 60)) {
                println!(
                    "{label:<5} RTT {rtt:>3} ms: non-busy median {:6.1} ms (q1 {:6.1}, q3 {:6.1})",
                    s.median, s.q1, s.q3
                );
                latency.row(vec![
                    json!(label),
                    json!(rtt),
                    json!(s.q1),
                    json!(s.median),
                    json!(s.q3),
                ]);
            }
        }
    }

    println!("\nexpected: QUIC fresh = 2 RTT (like TCP, unlike TLS's 4), no TIME_WAIT, memory ≪ TCP, CPU ≈ TLS");
    emit(&report, "ext_quic");
}
