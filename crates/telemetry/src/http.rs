//! Std-only HTTP endpoint serving the Prometheus text exposition.
//!
//! Deliberately not a web framework: one dedicated OS thread, blocking
//! `std::net`, one response shape. A scrape is a snapshot + render,
//! entirely off the replay's hot path; the listener thread never touches
//! the pipeline's threads, so a stuck or slow scraper cannot perturb send
//! timing (the §3 fidelity concern that motivated measuring send-lag in
//! the first place).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::expose::render_prometheus;
use crate::registry::Registry;

/// A running metrics endpoint; stops (and joins its thread) on drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9091`; port 0 for ephemeral) and
    /// serves `GET /metrics` — any path, in fact: the endpoint exposes
    /// exactly one document — from a dedicated thread.
    pub fn start(addr: &str, registry: Arc<Registry>) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let st = stop.clone();
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if st.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Serve inline: scrapes are rare (seconds apart) and the
                // response is small, so a per-connection thread would be
                // pure overhead.
                let _ = serve_one(stream, &registry);
            }
        });
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_one(mut stream: TcpStream, registry: &Registry) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the end of the request head (or the client stops
    // sending); the request body and most of the head are irrelevant.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8_192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = render_prometheus(&registry.snapshot());
    let response = format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricKind;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn get(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_exposition_over_http() {
        let reg = Arc::new(Registry::new());
        let served = Arc::new(AtomicU64::new(9));
        let s = served.clone();
        reg.observe(
            "ldp_http_total",
            "served",
            MetricKind::Counter,
            &[("shard", "0")],
            move || s.load(Ordering::Relaxed),
        );
        let server = MetricsServer::start("127.0.0.1:0", reg.clone()).unwrap();
        let response = get(server.addr());
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"), "{response}");
        assert!(
            response.contains("ldp_http_total{shard=\"0\"} 9"),
            "{response}"
        );
        // A second scrape sees updated values — the endpoint is live, not
        // a point-in-time dump.
        served.fetch_add(1, Ordering::Relaxed);
        assert!(get(server.addr()).contains("ldp_http_total{shard=\"0\"} 10"));
    }

    #[test]
    fn drop_stops_the_listener() {
        let reg = Arc::new(Registry::new());
        let server = MetricsServer::start("127.0.0.1:0", reg).unwrap();
        let addr = server.addr();
        drop(server);
        // The port is released: either a new bind succeeds or connection
        // attempts fail fast — the listener thread is gone either way.
        let rebind = TcpListener::bind(addr);
        assert!(
            rebind.is_ok() || TcpStream::connect(addr).is_err(),
            "listener still serving after drop"
        );
    }

    #[test]
    fn bad_bind_address_errors() {
        let reg = Arc::new(Registry::new());
        assert!(MetricsServer::start("256.0.0.1:0", reg).is_err());
    }
}
