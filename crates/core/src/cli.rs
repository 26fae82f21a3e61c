//! The `ldplayer` command-line tool.
//!
//! Wraps the library's pipeline in the shape an operator uses it
//! (mirroring the paper's workflow, Figure 1):
//!
//! ```text
//! ldplayer generate broot --duration 30 --rate 2000 -o trace.ldpc
//! ldplayer stats trace.ldpc
//! ldplayer convert trace.ldpc -o trace.txt        # edit with any tool
//! ldplayer mutate trace.ldpc --all-tcp --do 1.0 -o what-if.ldps
//! ldplayer zonegen capture.ldpc -o zones/
//! ldplayer serve  --zones zones/ --listen 127.0.0.1:5300
//! ldplayer replay what-if.ldps --server 127.0.0.1:5300 --fast
//! ```
//!
//! Trace formats are chosen by extension: `.ldpc` = binary capture,
//! `.ldps` = internal binary stream, `.txt` = editable plain text (§2.5).
//!
//! Argument parsing is hand-rolled: the surface is a dozen flags, and the
//! workspace keeps its dependency set to the vetted list (DESIGN.md).

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ldp_server::auth::AuthEngine;
use ldp_trace::{capture, stream, text, Mutation, Protocol, QueryMutator, TraceRecord, TraceStats};
use ldp_workload::{BRootConfig, RecConfig, SyntheticConfig};
use ldp_zone::ZoneSet;

/// Entry point: interprets `args` (without the program name), returns the
/// process exit code. All output goes to `out` so tests can capture it.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        write!(out, "{USAGE}").map_err(io_err)?;
        return Ok(2);
    };
    let rest: Vec<String> = it.cloned().collect();
    match cmd.as_str() {
        "generate" => cmd_generate(&rest, out),
        "convert" => cmd_convert(&rest, out),
        "mutate" => cmd_mutate(&rest, out),
        "stats" => cmd_stats(&rest, out),
        "zonegen" => cmd_zonegen(&rest, out),
        "serve" => cmd_serve(&rest, out),
        "replay" => cmd_replay(&rest, out),
        "top" => cmd_top(&rest, out),
        "help" | "--help" | "-h" => {
            write!(out, "{USAGE}").map_err(io_err)?;
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}; see `ldplayer help`")),
    }
}

const USAGE: &str = "\
ldplayer — trace-driven DNS experimentation (LDplayer reproduction)

USAGE:
  ldplayer generate <broot|rec|syn> [--duration S] [--rate QPS] [--clients N]
                    [--level 0..4] [--seed N] -o FILE
  ldplayer convert  IN -o OUT                # formats by extension (.ldpc/.ldps/.txt)
  ldplayer mutate   IN [--all-tcp|--all-tls|--all-quic|--all-udp] [--do FRACTION]
                    [--prefix LABEL] [--speed FACTOR] [--seed N] -o OUT
  ldplayer stats    FILE...                  # Table 1-style rows
  ldplayer zonegen  CAPTURE -o DIR           # rebuild zone master files (§2.3)
  ldplayer serve    --zones DIR [--listen ADDR] [--metrics-addr ADDR]
                                               # live authoritative server
  ldplayer replay   FILE --server ADDR [--fast] [--speed FACTOR]
                    [--queriers N] [--stream] [--manifest PATH]
                    [--metrics-addr ADDR]
                                               # timing-faithful replay (§2.6);
                                               # --stream reads .ldps incrementally;
                                               # --manifest writes a run-manifest JSON
                                               #   (per-stage latency breakdown);
                                               # --metrics-addr serves Prometheus
                                               #   text metrics while running
  ldplayer top      --metrics-addr ADDR [--interval S] [--iterations N] [--raw]
                                               # live terminal view of a running
                                               # replay/serve metrics endpoint

Trace formats by extension: .ldpc binary capture | .ldps binary stream |
.txt plain text | .pcap libpcap (tcpdump/wireshark)
";

fn io_err(e: std::io::Error) -> String {
    format!("I/O error: {e}")
}

/// Tiny flag parser: `--key value` pairs plus positional arguments.
struct Flags {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Flags, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if bool_flags.contains(&name) {
                    flags.push((name.to_string(), None));
                } else if value_flags.contains(&name) {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), Some(v.clone())));
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else if a == "-o" {
                let v = it.next().ok_or("-o needs a value")?;
                flags.push(("o".to_string(), Some(v.clone())));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    fn output(&self) -> Result<PathBuf, String> {
        self.get("o")
            .map(PathBuf::from)
            .ok_or_else(|| "missing -o OUTPUT".to_string())
    }
}

/// Trace formats selected by file extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Capture,
    Stream,
    Text,
    Pcap,
}

fn format_of(path: &Path) -> Result<Format, String> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("ldpc") => Ok(Format::Capture),
        Some("ldps") => Ok(Format::Stream),
        Some("txt") => Ok(Format::Text),
        Some("pcap") => Ok(Format::Pcap),
        other => Err(format!(
            "cannot infer trace format from extension {other:?} (use .ldpc/.ldps/.txt/.pcap)"
        )),
    }
}

fn read_trace(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let reader = BufReader::new(file);
    let records = match format_of(path)? {
        Format::Capture => capture::CaptureReader::new(reader)
            .and_then(|r| r.collect())
            .map_err(|e| e.to_string())?,
        Format::Stream => stream::StreamReader::new(reader)
            .and_then(|r| r.collect())
            .map_err(|e| e.to_string())?,
        Format::Text => text::read_text(reader).map_err(|e| e.to_string())?,
        Format::Pcap => {
            let (records, stats) = ldp_trace::pcap::read_pcap(reader).map_err(|e| e.to_string())?;
            if stats.skipped_tcp_segments > 0 || stats.undecodable > 0 {
                eprintln!(
                    "note: pcap parse skipped {} mid-stream TCP segments, {} undecodable payloads",
                    stats.skipped_tcp_segments, stats.undecodable
                );
            }
            records
        }
    };
    Ok(records)
}

fn write_trace(path: &Path, records: &[TraceRecord]) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut writer = BufWriter::new(file);
    match format_of(path)? {
        Format::Capture => {
            let mut w = capture::CaptureWriter::new(&mut writer).map_err(|e| e.to_string())?;
            for r in records {
                w.write(r).map_err(|e| e.to_string())?;
            }
            w.finish().map_err(|e| e.to_string())?;
        }
        Format::Stream => {
            let mut w = stream::StreamWriter::new(&mut writer).map_err(|e| e.to_string())?;
            for r in records {
                w.write(r).map_err(|e| e.to_string())?;
            }
            w.finish().map_err(|e| e.to_string())?;
        }
        Format::Text => text::write_text(&mut writer, records).map_err(|e| e.to_string())?,
        Format::Pcap => {
            ldp_trace::pcap::write_pcap(&mut writer, records).map_err(|e| e.to_string())?
        }
    }
    writer.flush().map_err(io_err)
}

fn cmd_generate(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let f = Flags::parse(
        args,
        &["duration", "rate", "clients", "level", "seed", "do", "tcp"],
        &[],
    )?;
    let kind = f
        .positional
        .first()
        .ok_or("generate needs a kind: broot | rec | syn")?;
    let output = f.output()?;
    let records = match kind.as_str() {
        "broot" => BRootConfig {
            duration_s: f.get_parse("duration", 30.0)?,
            mean_rate_qps: f.get_parse("rate", 1000.0)?,
            clients: f.get_parse("clients", 10_000)?,
            do_fraction: f.get_parse("do", 0.723)?,
            tcp_fraction: f.get_parse("tcp", 0.03)?,
            seed: f.get_parse("seed", 1)?,
            ..BRootConfig::default()
        }
        .generate(),
        "rec" => RecConfig {
            duration_s: f.get_parse("duration", 600.0)?,
            mean_rate_qps: f.get_parse("rate", 5.5)?,
            clients: f.get_parse("clients", 91)?,
            seed: f.get_parse("seed", 1)?,
            ..RecConfig::default()
        }
        .generate(),
        "syn" => {
            let level: u32 = f.get_parse("level", 2)?;
            if level > 4 {
                return Err("--level must be 0..=4".into());
            }
            let mut cfg = SyntheticConfig::syn(level);
            cfg.duration_s = f.get_parse("duration", 60)?;
            cfg.generate()
        }
        other => return Err(format!("unknown generator {other:?}")),
    };
    write_trace(&output, &records)?;
    writeln!(
        out,
        "wrote {} records to {}",
        records.len(),
        output.display()
    )
    .map_err(io_err)?;
    Ok(0)
}

fn cmd_convert(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let f = Flags::parse(args, &[], &[])?;
    let input = f.positional.first().ok_or("convert needs an input file")?;
    let output = f.output()?;
    let records = read_trace(Path::new(input))?;
    write_trace(&output, &records)?;
    writeln!(
        out,
        "converted {} records: {} -> {}",
        records.len(),
        input,
        output.display()
    )
    .map_err(io_err)?;
    Ok(0)
}

fn cmd_mutate(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let f = Flags::parse(
        args,
        &["do", "prefix", "speed", "seed", "payload"],
        &["all-tcp", "all-tls", "all-udp", "all-quic"],
    )?;
    let input = f.positional.first().ok_or("mutate needs an input file")?;
    let output = f.output()?;
    let mut records = read_trace(Path::new(input))?;

    let mut mutator = QueryMutator::new(f.get_parse("seed", 1)?);
    if f.has("all-tcp") {
        mutator = mutator.push(Mutation::SetProtocol(Protocol::Tcp));
    }
    if f.has("all-tls") {
        mutator = mutator.push(Mutation::SetProtocol(Protocol::Tls));
    }
    if f.has("all-quic") {
        mutator = mutator.push(Mutation::SetProtocol(Protocol::Quic));
    }
    if f.has("all-udp") {
        mutator = mutator.push(Mutation::SetProtocol(Protocol::Udp));
    }
    if let Some(frac) = f.get("do") {
        let frac: f64 = frac.parse().map_err(|_| "--do: bad fraction")?;
        mutator = mutator
            .push(Mutation::ClearDoBit)
            .push(Mutation::SetDoBit { fraction: frac });
    }
    if let Some(prefix) = f.get("prefix") {
        mutator = mutator.push(Mutation::PrefixQname(prefix.to_string()));
    }
    if let Some(speed) = f.get("speed") {
        let sp: f64 = speed.parse().map_err(|_| "--speed: bad factor")?;
        mutator = mutator.push(Mutation::ScaleTime(1.0 / sp.max(1e-9)));
    }
    if let Some(p) = f.get("payload") {
        let size: u16 = p.parse().map_err(|_| "--payload: bad size")?;
        mutator = mutator.push(Mutation::SetEdnsPayload(size));
    }
    mutator.apply_all(&mut records);
    write_trace(&output, &records)?;
    writeln!(
        out,
        "mutated {} records -> {}",
        records.len(),
        output.display()
    )
    .map_err(io_err)?;
    Ok(0)
}

fn cmd_stats(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let f = Flags::parse(args, &[], &[])?;
    if f.positional.is_empty() {
        return Err("stats needs at least one trace file".into());
    }
    writeln!(
        out,
        "{:<24} {:>10} {:>14} {:>14} {:>10} {:>10} {:>12}",
        "trace", "duration_s", "ia_mean_s", "ia_stddev_s", "clients", "records", "rate_qps"
    )
    .map_err(io_err)?;
    for path in &f.positional {
        let records = read_trace(Path::new(path))?;
        let s = TraceStats::compute(&records);
        writeln!(
            out,
            "{:<24} {:>10.2} {:>14.6} {:>14.6} {:>10} {:>10} {:>12.1}",
            path,
            s.duration_s,
            s.interarrival_mean_s,
            s.interarrival_stddev_s,
            s.client_ips,
            s.records,
            s.mean_rate_qps
        )
        .map_err(io_err)?;
    }
    Ok(0)
}

fn cmd_zonegen(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let f = Flags::parse(args, &[], &[])?;
    let input = f
        .positional
        .first()
        .ok_or("zonegen needs a capture file with responses")?;
    let dir = f.output()?;
    let records = read_trace(Path::new(input))?;
    let built = ldp_zonegen::build_from_trace(&records);
    std::fs::create_dir_all(&dir).map_err(io_err)?;
    for (file, content) in built.to_master_files() {
        std::fs::write(dir.join(&file), content).map_err(io_err)?;
        writeln!(out, "wrote {}", dir.join(&file).display()).map_err(io_err)?;
    }
    // The view bindings file: `address origin` per line, the input for
    // split-horizon serving.
    let mut bindings = String::new();
    for (addr, origin) in &built.bindings {
        bindings.push_str(&format!("{addr} {origin}\n"));
    }
    std::fs::write(dir.join("bindings.txt"), bindings).map_err(io_err)?;
    writeln!(
        out,
        "{} zones, {} bindings ({} responses scanned, {} conflicts skipped)",
        built.stats.zones_built,
        built.bindings.len(),
        built.stats.responses_scanned,
        built.stats.conflicts_skipped
    )
    .map_err(io_err)?;
    Ok(0)
}

/// Loads every `*.zone` master file in a directory into a zone set.
/// Origins come from each file's `$ORIGIN` (filename is a fallback hint).
pub fn load_zone_dir(dir: &Path) -> Result<ZoneSet, String> {
    let mut set = ZoneSet::new();
    let entries = std::fs::read_dir(dir).map_err(io_err)?;
    for entry in entries {
        let entry = entry.map_err(io_err)?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("zone") {
            continue;
        }
        let content = std::fs::read_to_string(&path).map_err(io_err)?;
        // Filename-derived origin as the parse seed; `$ORIGIN` overrides.
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let origin = if stem == "root" {
            ldp_wire::Name::root()
        } else {
            ldp_wire::Name::parse(&stem.replace('_', "."))
                .map_err(|e| format!("{}: {e}", path.display()))?
        };
        let zone = ldp_zone::master::parse_zone(&origin, &content)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        set.insert(zone);
    }
    if set.is_empty() {
        return Err(format!("no .zone files found in {}", dir.display()));
    }
    Ok(set)
}

fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let f = Flags::parse(args, &["zones", "listen", "metrics-addr"], &[])?;
    let dir = PathBuf::from(f.get("zones").ok_or("serve needs --zones DIR")?);
    let listen: std::net::SocketAddr = f
        .get("listen")
        .unwrap_or("127.0.0.1:5300")
        .parse()
        .map_err(|_| "--listen: bad address")?;
    let metrics_addr = f.get("metrics-addr").map(str::to_string);
    let zones = load_zone_dir(&dir)?;
    writeln!(
        out,
        "serving {} zones on {listen} (udp+tcp); ctrl-c to stop",
        zones.len()
    )
    .map_err(io_err)?;
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(zones)));
    let server = ldp_server::live::LiveServer::start(engine, listen)
        .map_err(|e| format!("bind {listen}: {e}"))?;
    // The metrics endpoint lives on its own thread; the registry only
    // holds observed closures over the server's atomics, so serving a
    // scrape never touches the query path.
    let _metrics = match &metrics_addr {
        Some(addr) => {
            let registry = Arc::new(ldp_telemetry::Registry::new());
            server.register_telemetry(&registry);
            let srv = ldp_telemetry::MetricsServer::start(addr, registry)
                .map_err(|e| format!("metrics bind {addr}: {e}"))?;
            writeln!(out, "metrics on http://{}/metrics", srv.addr()).map_err(io_err)?;
            Some(srv)
        }
        None => None,
    };
    // Serve until ctrl-c, whose default action ends the process.
    loop {
        std::thread::park();
    }
}

fn cmd_replay(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let f = Flags::parse(
        args,
        &["server", "speed", "queriers", "manifest", "metrics-addr"],
        &["fast", "stream"],
    )?;
    let input = f.positional.first().ok_or("replay needs a trace file")?;
    let server: std::net::SocketAddr = f
        .get("server")
        .ok_or("replay needs --server ADDR")?
        .parse()
        .map_err(|_| "--server: bad address")?;
    let manifest_path = f.get("manifest").map(PathBuf::from);
    let mut replay = ldp_replay::LiveReplay::new(server);
    replay.queriers_per_distributor = f.get_parse("queriers", 6usize)?;
    replay.mode = if f.has("fast") {
        ldp_replay::ReplayMode::Fast
    } else {
        ldp_replay::ReplayMode::Timed {
            speed: 1.0 / f.get_parse("speed", 1.0f64)?.max(1e-9),
        }
    };
    // `--manifest` needs the per-stage breakdown, so it forces full span
    // recording; otherwise spans follow the `LDP_OBS_SAMPLE` opt-in.
    let shards = replay.distributors * replay.queriers_per_distributor;
    let spans = if manifest_path.is_some() {
        Some(Arc::new(ldp_obs::ReplaySpans::full(shards)))
    } else {
        ldp_obs::ReplaySpans::from_env(shards)
    };
    replay.obs = spans.clone();
    // `--metrics-addr` turns on the live telemetry plane: shard counters
    // into a shared registry, a 1 s sampler building the time-series the
    // manifest will carry, and the Prometheus endpoint `ldplayer top`
    // scrapes. All off the hot path: handles are resolved at shard start,
    // sampling and serving run on their own threads.
    let telemetry = match f.get("metrics-addr") {
        Some(addr) => {
            let registry = Arc::new(ldp_telemetry::Registry::new());
            replay.telemetry = Some(registry.clone());
            let server = ldp_telemetry::MetricsServer::start(addr, registry.clone())
                .map_err(|e| format!("metrics bind {addr}: {e}"))?;
            writeln!(out, "metrics on http://{}/metrics", server.addr()).map_err(io_err)?;
            let sampler = ldp_telemetry::Sampler::new(registry, 4_096);
            let driver =
                ldp_telemetry::SamplerDriver::spawn(sampler, std::time::Duration::from_secs(1));
            Some((server, driver))
        }
        None => None,
    };
    let report = if f.has("stream") {
        // Incremental read: only .ldps supports streaming decode.
        let path = Path::new(input);
        if format_of(path)? != Format::Stream {
            return Err("--stream requires a .ldps input".into());
        }
        let file = File::open(path).map_err(|e| format!("open {input}: {e}"))?;
        let reader = stream::StreamReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
        replay
            .run_iter(reader)
            .map_err(|e| format!("replay: {e}"))?
    } else {
        let records = read_trace(Path::new(input))?;
        replay.run(records).map_err(|e| format!("replay: {e}"))?
    };
    // Stop the telemetry plane; one final sample so runs shorter than the
    // cadence still land points in the manifest's timeseries section.
    let sampler = telemetry.map(|(server, driver)| {
        drop(server);
        let mut sampler = driver.stop();
        sampler.sample();
        sampler
    });
    writeln!(
        out,
        "sent {} queries, {} answered ({:.1}%), {:.0} q/s",
        report.sent,
        report.answered,
        report.answered as f64 / report.sent.max(1) as f64 * 100.0,
        report.achieved_qps()
    )
    .map_err(io_err)?;
    if let Some(s) = ldp_metrics::Summary::compute(&report.latencies_ms()) {
        writeln!(
            out,
            "latency ms: median {:.2}  q3 {:.2}  p95 {:.2}",
            s.median, s.q3, s.p95
        )
        .map_err(io_err)?;
    }
    if let Some(s) = ldp_metrics::Summary::compute(&report.timing_errors_ms()) {
        writeln!(
            out,
            "timing error ms: median {:+.3}  q3 {:+.3}  max {:+.3}",
            s.median, s.q3, s.max
        )
        .map_err(io_err)?;
    }
    if let Some(path) = manifest_path {
        let spans = spans.expect("--manifest forces span recording");
        let breakdown = ldp_obs::StageBreakdown::from_events(&spans.events());
        let mut manifest = ldp_obs::RunManifest::new("cli_replay")
            .retry_policy(serde_json::json!(replay.retry))
            .stage_breakdown(&breakdown)
            .stage("end_to_end", &report.latency_hist())
            .faults(serde_json::json!({
                "timeouts": report.timeouts,
                "retries": report.retries,
                "reconnects": report.reconnects,
                "gave_up": report.gave_up,
                "errors": report.errors,
            }))
            .extra("report", serde_json::json!(report));
        if let Some(s) = &sampler {
            manifest = manifest.timeseries(s.to_manifest_value());
        }
        let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("replay");
        let written = manifest
            .write(&dir, stem)
            .map_err(|e| format!("write manifest: {e}"))?;
        writeln!(out, "manifest: {}", written.display()).map_err(io_err)?;
    }
    if let Some(e) = &report.trace_error {
        return Err(format!(
            "trace read failed after {} records, so the replay stopped early: {e}",
            report.outcomes.len()
        ));
    }
    Ok(0)
}

fn cmd_top(args: &[String], out: &mut dyn Write) -> Result<i32, String> {
    let f = Flags::parse(args, &["metrics-addr", "interval", "iterations"], &["raw"])?;
    let addr = f
        .get("metrics-addr")
        .ok_or("top needs --metrics-addr ADDR (the replay/serve endpoint)")?
        .to_string();
    let interval_s: f64 = f.get_parse("interval", 2.0)?;
    if !interval_s.is_finite() || interval_s <= 0.0 {
        return Err("--interval must be positive".into());
    }
    let iterations = match f.get("iterations") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("--iterations: cannot parse {v:?}"))?,
        ),
    };
    let opts = ldp_telemetry::TopOptions {
        addr,
        interval: std::time::Duration::from_secs_f64(interval_s),
        iterations,
        raw: f.has("raw"),
    };
    ldp_telemetry::run_top(&opts, out).map_err(|e| format!("top: {e}"))?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_server::live::LiveServer;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ldpcli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = run(&args, &mut out).expect("command succeeds");
        assert_eq!(code, 0, "exit code for {args:?}");
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn help_prints_usage() {
        let text = run_ok(&["help"]);
        assert!(text.contains("USAGE"));
        assert!(text.contains("zonegen"));
    }

    #[test]
    fn unknown_command_errors() {
        let mut out = Vec::new();
        assert!(run(&["frobnicate".to_string()], &mut out).is_err());
    }

    #[test]
    fn generate_stats_convert_mutate_pipeline() {
        let dir = tmpdir("pipeline");
        let cap = dir.join("t.ldpc");
        let txt = dir.join("t.txt");
        let ldps = dir.join("t.ldps");

        let msg = run_ok(&[
            "generate",
            "broot",
            "--duration",
            "2",
            "--rate",
            "200",
            "--clients",
            "50",
            "--seed",
            "7",
            "-o",
            cap.to_str().unwrap(),
        ]);
        assert!(msg.contains("wrote"));

        let stats = run_ok(&["stats", cap.to_str().unwrap()]);
        assert!(stats.contains("rate_qps"));

        run_ok(&[
            "convert",
            cap.to_str().unwrap(),
            "-o",
            txt.to_str().unwrap(),
        ]);
        let text_content = std::fs::read_to_string(&txt).unwrap();
        assert!(text_content.contains(" udp "));

        run_ok(&[
            "mutate",
            cap.to_str().unwrap(),
            "--all-tcp",
            "--do",
            "1.0",
            "--prefix",
            "t1",
            "-o",
            ldps.to_str().unwrap(),
        ]);
        let mutated = read_trace(&ldps).unwrap();
        assert!(mutated.iter().all(|r| r.protocol == Protocol::Tcp));
        assert!(mutated.iter().all(|r| r.dnssec_ok()));
        assert!(mutated[0].qname().unwrap().to_string().starts_with("t1."));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn syn_generator_levels() {
        let dir = tmpdir("syn");
        let out_file = dir.join("syn.ldps");
        run_ok(&[
            "generate",
            "syn",
            "--level",
            "1",
            "--duration",
            "3",
            "-o",
            out_file.to_str().unwrap(),
        ]);
        let records = read_trace(&out_file).unwrap();
        assert_eq!(records.len(), 30, "3s at 0.1s gaps");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zonegen_writes_master_files_and_bindings() {
        // Build a capture with harvested responses via the library, then
        // run the CLI zonegen over it.
        use ldp_wire::{Name, RData, Record as WireRecord, RrType};
        let dir = tmpdir("zonegen");
        let cap = dir.join("harvest.ldpc");
        let mut rec = TraceRecord::udp_query(
            0,
            "198.41.0.4".parse().unwrap(),
            53,
            Name::parse("www.example.com").unwrap(),
            RrType::A,
        );
        rec.direction = ldp_trace::Direction::Response;
        rec.message.header.response = true;
        rec.message.answers.push(WireRecord::new(
            Name::root(),
            518400,
            RData::Ns(Name::parse("a.root-servers.net").unwrap()),
        ));
        rec.message.additionals.push(WireRecord::new(
            Name::parse("a.root-servers.net").unwrap(),
            518400,
            RData::A("198.41.0.4".parse().unwrap()),
        ));
        write_trace(&cap, std::slice::from_ref(&rec)).unwrap();

        let zones_dir = dir.join("zones");
        let msg = run_ok(&[
            "zonegen",
            cap.to_str().unwrap(),
            "-o",
            zones_dir.to_str().unwrap(),
        ]);
        assert!(msg.contains("zones"));
        assert!(zones_dir.join("root.zone").exists());
        assert!(zones_dir.join("bindings.txt").exists());

        // And the zone dir loads back for serving.
        let set = load_zone_dir(&zones_dir).unwrap();
        assert_eq!(set.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Starts a live server for `example.com`; a test holds it while a CLI
    /// replay runs against its address.
    fn start_server() -> LiveServer {
        let mut set = ZoneSet::new();
        set.insert(ldp_workload::zones::wildcard_example_zone());
        let engine = Arc::new(AuthEngine::with_zones(Arc::new(set)));
        LiveServer::start(engine, "127.0.0.1:0".parse().unwrap()).unwrap()
    }

    #[test]
    fn a_stream_truncated_mid_frame_fails_the_replay() {
        let dir = tmpdir("truncated");
        let trace_file = dir.join("t.ldps");
        run_ok(&[
            "generate",
            "syn",
            "--level",
            "2",
            "--duration",
            "2",
            "-o",
            trace_file.to_str().unwrap(),
        ]);
        // Cut the file in the middle of a frame, half way through.
        let bytes = std::fs::read(&trace_file).unwrap();
        let reader = stream::StreamReader::new(std::io::Cursor::new(&bytes)).unwrap();
        let whole = reader.count();
        std::fs::write(&trace_file, &bytes[..bytes.len() / 2]).unwrap();
        let readable = stream::StreamReader::new(BufReader::new(File::open(&trace_file).unwrap()))
            .unwrap()
            .take_while(Result::is_ok)
            .count();
        assert!(readable > 0 && readable < whole, "{readable} of {whole}");

        let server = start_server();
        let addr = server.addr.to_string();
        let args: Vec<String> = [
            "replay",
            trace_file.to_str().unwrap(),
            "--server",
            &addr,
            "--fast",
            "--stream",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = Vec::new();
        let err = run(&args, &mut out).unwrap_err();
        let out = String::from_utf8(out).unwrap();
        // The records before the cut were replayed and reported...
        assert!(out.contains(&format!("sent {readable} queries")), "{out}");
        // ...and the command fails, naming the read error.
        assert!(
            err.contains(&format!("trace read failed after {readable} records")),
            "{err}"
        );
        assert!(err.contains("truncated"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_against_live_server() {
        // Full CLI loop: generate a trace, then replay it (library-spawned
        // server, CLI replay command with its own runtime).
        let dir = tmpdir("replay");
        let trace_file = dir.join("r.ldps");
        run_ok(&[
            "generate",
            "syn",
            "--level",
            "2",
            "--duration",
            "2",
            "-o",
            trace_file.to_str().unwrap(),
        ]);

        let server = start_server();
        let addr = server.addr.to_string();
        let manifest_arg = dir.join("run.json");
        let msg = run_ok(&[
            "replay",
            trace_file.to_str().unwrap(),
            "--server",
            &addr,
            "--fast",
            "--manifest",
            manifest_arg.to_str().unwrap(),
            "--metrics-addr",
            "127.0.0.1:0",
        ]);
        assert!(msg.contains("sent 200 queries"), "{msg}");
        assert!(msg.contains("latency"), "{msg}");
        assert!(msg.contains("metrics on http://127.0.0.1:"), "{msg}");

        // --manifest wrote the run manifest next to the requested path.
        let manifest_file = dir.join("run.manifest.json");
        assert!(msg.contains("manifest:"), "{msg}");
        let body = std::fs::read_to_string(&manifest_file).unwrap();
        assert!(
            body.contains("\"schema\": \"ldp.run-manifest/v2\""),
            "{body}"
        );
        for stage in ["queue_wait", "batch_wait", "send_lag", "end_to_end"] {
            assert!(body.contains(&format!("\"{stage}\"")), "missing {stage}");
        }
        assert!(body.contains("\"retry\""), "{body}");
        // --metrics-addr attached the sampled time-series (manifest v2).
        assert!(body.contains("\"timeseries\""), "{body}");
        assert!(body.contains("\"unit\": \"ticks\""), "{body}");
        assert!(body.contains("ldp_replay_sent_total"), "{body}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn top_scrapes_a_metrics_endpoint() {
        // A registry with replay-shaped metrics behind a real endpoint;
        // `top` runs one frame in each mode and exits.
        let registry = Arc::new(ldp_telemetry::Registry::new());
        registry.observe(
            "ldp_replay_sent_total",
            "sent",
            ldp_telemetry::MetricKind::Counter,
            &[("shard", "0")],
            || 120,
        );
        registry.observe(
            "ldp_replay_queue_depth",
            "depth",
            ldp_telemetry::MetricKind::Gauge,
            &[("shard", "0")],
            || 3,
        );
        let server = ldp_telemetry::MetricsServer::start("127.0.0.1:0", registry).unwrap();
        let addr = server.addr().to_string();

        let raw = run_ok(&["top", "--metrics-addr", &addr, "--iterations", "1", "--raw"]);
        assert!(
            raw.contains("ldp_replay_sent_total{shard=\"0\"} 120"),
            "{raw}"
        );

        let table = run_ok(&["top", "--metrics-addr", &addr, "--iterations", "1"]);
        assert!(table.contains("shard"), "{table}");
        assert!(table.contains("total sent 120"), "{table}");

        let mut out = Vec::new();
        let err = run(
            &["top".into(), "--metrics-addr".into(), "127.0.0.1:1".into()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("top:"), "{err}");
    }

    #[test]
    fn missing_flags_are_reported() {
        let mut out = Vec::new();
        assert!(run(&["generate".into(), "broot".into()], &mut out)
            .unwrap_err()
            .contains("-o"));
        assert!(run(&["replay".into(), "x.ldps".into()], &mut out)
            .unwrap_err()
            .contains("--server"));
        assert!(run(
            &[
                "generate".into(),
                "broot".into(),
                "--bogus".into(),
                "1".into()
            ],
            &mut out
        )
        .unwrap_err()
        .contains("--bogus"));
    }

    #[test]
    fn format_inference() {
        assert_eq!(format_of(Path::new("a.ldpc")).unwrap(), Format::Capture);
        assert_eq!(format_of(Path::new("a.ldps")).unwrap(), Format::Stream);
        assert_eq!(format_of(Path::new("a.txt")).unwrap(), Format::Text);
        assert_eq!(format_of(Path::new("a.pcap")).unwrap(), Format::Pcap);
        assert!(format_of(Path::new("a.erf")).is_err());
    }

    #[test]
    fn pcap_conversion_via_cli() {
        let dir = tmpdir("pcap");
        let ldpc = dir.join("t.ldpc");
        let pcap = dir.join("t.pcap");
        let back = dir.join("b.ldps");
        run_ok(&[
            "generate",
            "broot",
            "--duration",
            "1",
            "--rate",
            "100",
            "--clients",
            "20",
            "--tcp",
            "0",
            "-o",
            ldpc.to_str().unwrap(),
        ]);
        run_ok(&[
            "convert",
            ldpc.to_str().unwrap(),
            "-o",
            pcap.to_str().unwrap(),
        ]);
        let msg = run_ok(&[
            "convert",
            pcap.to_str().unwrap(),
            "-o",
            back.to_str().unwrap(),
        ]);
        assert!(msg.contains("converted"));
        let a = read_trace(&ldpc).unwrap();
        let b = read_trace(&back).unwrap();
        assert_eq!(a.len(), b.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
