//! The trace-mutation pipeline (§2.5, Figure 3 of the paper): binary
//! capture → editable plain text → (sed-style edit) → internal binary
//! stream → live replay over real sockets.
//!
//! Run with: `cargo run --release --example trace_pipeline`

use std::sync::Arc;

use ldplayer::replay::{LiveReplay, ReplayMode};
use ldplayer::server::auth::AuthEngine;
use ldplayer::server::live::LiveServer;
use ldplayer::trace::{capture, stream, text};
use ldplayer::workload::zones::wildcard_example_zone;
use ldplayer::workload::SyntheticConfig;
use ldplayer::zone::ZoneSet;

fn main() -> std::io::Result<()> {
    // A fixed-interval synthetic trace (Table 1's syn-2 shape, shortened).
    let records = SyntheticConfig {
        interarrival_us: 10_000,
        duration_s: 3,
        clients: 50,
        domain: "example.com",
    }
    .generate();
    println!("source trace: {} queries over udp", records.len());

    // 1. Write the "network capture" (pcap steads-in).
    let capture_bytes = capture::to_bytes(&records).expect("capture encodes");
    println!("capture format:  {} bytes", capture_bytes.len());

    // 2. Convert to plain text — the human-editable stage.
    let mut text_bytes = Vec::new();
    text::write_text(&mut text_bytes, &records).expect("text encodes");
    let text_form = String::from_utf8(text_bytes).expect("ascii");
    println!("text format:     {} bytes; first line:", text_form.len());
    println!("    {}", text_form.lines().next().unwrap());

    // 3. Edit with a plain string replacement — the whole point of the
    //    text stage: any tool can rewrite the trace. Here: all → TCP.
    let edited = text_form.replace(" udp ", " tcp ");

    // 4. Parse back and pre-convert to the fast binary stream.
    let mutated =
        text::read_text(std::io::Cursor::new(edited.into_bytes())).expect("edited text parses");
    assert!(mutated
        .iter()
        .all(|r| r.protocol == ldplayer::trace::Protocol::Tcp));
    let stream_bytes = stream::to_bytes(&mutated).expect("stream encodes");
    println!(
        "binary stream:   {} bytes ({}% of capture)",
        stream_bytes.len(),
        stream_bytes.len() * 100 / capture_bytes.len()
    );

    // 5. Replay the stream over real sockets against a live server.
    let replayable = stream::from_bytes(&stream_bytes).expect("stream decodes");
    let mut zones = ZoneSet::new();
    zones.insert(wildcard_example_zone());
    let server = LiveServer::start(
        Arc::new(AuthEngine::with_zones(Arc::new(zones))),
        "127.0.0.1:0".parse().unwrap(),
    )?;
    let replay = LiveReplay {
        mode: ReplayMode::Fast,
        ..LiveReplay::new(server.addr)
    };
    let report = replay.run(replayable)?;
    println!(
        "replayed {} queries over TCP: {} answered, {} connections at the server",
        report.sent,
        report.answered,
        server
            .stats
            .tcp_connections
            .load(std::sync::atomic::Ordering::Relaxed)
    );
    Ok(())
}
