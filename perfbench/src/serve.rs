//! The server under test, in a child process of its own.
//!
//! The benchmark re-executes itself as `perfbench serve --workload <name>`.
//! The child builds the workload's zones, calls `LiveServer::spawn`, prints
//! `addr <socket address>`, then answers each `stats` line on its standard
//! input with one JSON line of `LiveStats` counters. It exits when its
//! standard input closes, so it never outlives the benchmark.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, UdpSocket};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_metrics::LogHistogram;
use ldp_server::auth::AuthEngine;
use ldp_server::live::{LiveServer, LiveStats};
use ldp_wire::{Message, Name, RrType};
use serde_json::{json, Value};

use crate::workload::Workload;

/// Ephemeral ports the `serve` role tries beyond the first.
const BIND_ATTEMPTS: usize = 8;

/// The `serve` role: runs until standard input closes.
pub fn serve(workload: Workload) -> io::Result<()> {
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(workload.zones())));
    let rt = tokio::runtime::Runtime::new()?;
    // `spawn` binds UDP on an ephemeral port, then TCP on the same port,
    // which fails while an earlier step's TCP connection from that port
    // is in TIME_WAIT. Another ephemeral port is then tried.
    let mut attempts = 0;
    let server = loop {
        match rt.block_on(LiveServer::spawn(
            engine.clone(),
            ([127, 0, 0, 1], 0).into(),
        )) {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse && attempts < BIND_ATTEMPTS => {
                attempts += 1;
            }
            result => break result?,
        }
    };
    let mut out = io::stdout().lock();
    writeln!(out, "addr {}", server.addr)?;
    out.flush()?;
    for line in io::stdin().lock().lines() {
        if line?.trim() == "stats" {
            writeln!(out, "{}", stats_json(&server.stats))?;
            out.flush()?;
        }
    }
    Ok(())
}

fn stats_json(stats: &LiveStats) -> Value {
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let buckets: Vec<Value> = stats
        .handle_hist()
        .nonzero_buckets()
        .into_iter()
        .map(|(lo, n)| json!([lo, n]))
        .collect();
    json!({
        "udp_queries": load(&stats.udp_queries),
        "tcp_queries": load(&stats.tcp_queries),
        "tcp_connections": load(&stats.tcp_connections),
        "malformed": load(&stats.malformed),
        "response_bytes": load(&stats.response_bytes),
        "send_failures": load(&stats.send_failures),
        "pktcache_hits": load(&stats.pktcache.hits),
        "pktcache_misses": load(&stats.pktcache.misses),
        "pktcache_evictions": load(&stats.pktcache.evictions),
        "handle_us_buckets": buckets,
    })
}

/// The benchmark's handle on a running `serve` child. Dropping it kills the
/// child and waits for it.
pub struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the child and returns once it answers a probe query, so the
    /// time this takes is part of set-up.
    pub fn start(workload: Workload) -> io::Result<Server> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["serve", "--workload", workload.name()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("serve child has no pipes"));
        };
        let mut server = Server {
            child,
            stdin,
            stdout: BufReader::new(stdout),
            addr: ([127, 0, 0, 1], 0).into(),
        };
        let line = server.read_line()?;
        server.addr = line
            .strip_prefix("addr ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("serve child said {line:?}")))?;
        probe(server.addr)?;
        Ok(server)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other("serve child exited"));
        }
        Ok(line)
    }

    /// A snapshot of the child's `LiveStats` counters.
    pub fn stats(&mut self) -> io::Result<Value> {
        writeln!(self.stdin, "stats")?;
        self.stdin.flush()?;
        let line = self.read_line()?;
        serde_json::from_str(&line).map_err(|e| io::Error::other(e.to_string()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Waits until the server answers `www.example.com A` over UDP.
fn probe(addr: SocketAddr) -> io::Result<()> {
    let socket = UdpSocket::bind(("127.0.0.1", 0))?;
    socket.set_read_timeout(Some(Duration::from_millis(20)))?;
    let query = Message::query(
        0xbe11,
        Name::parse("www.example.com").expect("valid name"),
        RrType::A,
    )
    .to_bytes()
    .map_err(|e| io::Error::other(e.to_string()))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut buf = [0u8; 512];
    while Instant::now() < deadline {
        socket.send_to(&query, addr)?;
        if let Ok(n) = socket.recv(&mut buf) {
            if n >= 2 && buf[..2] == query[..2] {
                return Ok(());
            }
        }
    }
    Err(io::Error::other("server did not answer the set-up probe"))
}

/// The server-side part of one step: counter deltas between two snapshots.
pub fn delta(before: &Value, after: &Value, cpu_us: u64) -> Value {
    let d = |k: &str| {
        let get = |v: &Value| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        get(after).saturating_sub(get(before))
    };
    let hits = d("pktcache_hits");
    let lookups = hits + d("pktcache_misses");
    json!({
        "handled": d("udp_queries") + d("tcp_queries"),
        "udp_queries": d("udp_queries"),
        "tcp_queries": d("tcp_queries"),
        "tcp_connections": d("tcp_connections"),
        "malformed": d("malformed"),
        "send_failures": d("send_failures"),
        "response_bytes": d("response_bytes"),
        "pktcache_hits": hits,
        "pktcache_hit_ratio": if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        "pktcache_evictions": d("pktcache_evictions"),
        "handle_us_p50": handle_p50(before, after),
        "cpu_us": cpu_us,
    })
}

/// Median server handle time over a step, from the histogram's bucket
/// counts before and after it.
fn handle_p50(before: &Value, after: &Value) -> u64 {
    let buckets = |v: &Value| -> Vec<(u64, u64)> {
        v.get("handle_us_buckets")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|b| Some((b.get(0)?.as_u64()?, b.get(1)?.as_u64()?)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let old = buckets(before);
    let mut hist = LogHistogram::new();
    for (lo, n) in buckets(after) {
        let was = old.iter().find(|(l, _)| *l == lo).map_or(0, |(_, c)| *c);
        hist.record_n(lo, n.saturating_sub(was));
    }
    hist.quantile(0.5).unwrap_or(0)
}
