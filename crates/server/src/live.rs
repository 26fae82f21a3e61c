//! Live authoritative server on real sockets.
//!
//! The replay-fidelity experiments (§4) measure the *replay engine* against
//! real time, so they need a real server to answer: this module serves the
//! same [`AuthEngine`] over loopback UDP and TCP. One thread receives and
//! answers UDP in `recvmmsg`/`sendmmsg` batches, one accepts TCP
//! connections, and each connection is served on a thread of its own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ldp_io::UdpSocketExt;

use ldp_metrics::LogHistogram;
use ldp_telemetry::{CounterRow, MetricKind, Registry};
use parking_lot::Mutex;

use crate::auth::{AuthEngine, NoAnswer};
use crate::chaos::{ChaosPolicy, ChaosStats, ResponseFate};
use crate::pktcache::{CacheStats, PacketCache};

/// Counters shared with the experiment harness.
#[derive(Debug, Default)]
pub struct LiveStats {
    pub udp_queries: AtomicU64,
    pub tcp_queries: AtomicU64,
    pub tcp_connections: AtomicU64,
    pub malformed: AtomicU64,
    pub response_bytes: AtomicU64,
    /// Response sends the kernel refused (buffer pressure or a vanished
    /// peer); counted, never silently swallowed.
    pub send_failures: AtomicU64,
    /// UDP packet-cache hit/miss/eviction totals (the cache itself lives
    /// inside the serving loop; only the counters are shared).
    pub pktcache: Arc<CacheStats>,
    /// Server-side handle time (µs) per query: parse through response
    /// encode, excluding the outbound send. UDP amortizes one measurement
    /// across each `recvmmsg` batch (the lock is taken per batch, not per
    /// query); TCP records each query individually, even when one read
    /// carried several.
    handle_us: Mutex<LogHistogram>,
}

impl LiveStats {
    /// Snapshot of the server-side handle-time histogram.
    pub fn handle_hist(&self) -> LogHistogram {
        self.handle_us.lock().clone()
    }

    fn record_handle(&self, elapsed_us: u64, queries: u64) {
        if let Some(per_query) = elapsed_us.checked_div(queries) {
            self.handle_us.lock().record_n(per_query, queries);
        }
    }
}

/// A running live server. Dropping it stops its UDP and accept loops;
/// each connection's thread ends when its client closes.
pub struct LiveServer {
    pub addr: SocketAddr,
    pub stats: Arc<LiveStats>,
    /// Kept (when started with chaos) so telemetry can expose the fate
    /// totals.
    chaos: Option<Arc<ChaosPolicy>>,
    /// Set on drop; each serving loop checks it after every wake.
    stop: Arc<AtomicBool>,
    udp: Option<JoinHandle<()>>,
    tcp: Option<JoinHandle<()>>,
}

/// How long a drop waits to connect to its own accept loop.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

impl Drop for LiveServer {
    /// Sets the stop flag, then wakes each loop, with one datagram to the
    /// UDP port and one connection to the listener, and joins it. A loop
    /// that cannot be woken is left detached, so a drop never blocks
    /// indefinitely.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // A server bound to an unspecified address is reached on loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Some(udp) = self.udp.take() {
            let from = match wake.ip() {
                IpAddr::V4(_) => SocketAddr::from((Ipv4Addr::UNSPECIFIED, 0)),
                IpAddr::V6(_) => SocketAddr::from((Ipv6Addr::UNSPECIFIED, 0)),
            };
            // Once the flag is set, a datagram the loop's full buffer
            // drops still finds the loop returning with what is queued.
            if UdpSocket::bind(from)
                .and_then(|s| s.send_to(&[], wake))
                .is_ok()
            {
                let _ = udp.join();
            }
        }
        if let Some(tcp) = self.tcp.take() {
            if TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok() {
                let _ = tcp.join();
            }
        }
    }
}

impl LiveServer {
    /// Binds UDP and TCP on `bind` (use port 0 for an ephemeral port) and
    /// starts serving `engine`.
    pub fn start(engine: Arc<AuthEngine>, bind: SocketAddr) -> io::Result<LiveServer> {
        LiveServer::start_inner(engine, bind, None)
    }

    /// [`LiveServer::start`] as a future that finishes on its first poll.
    /// It exists only for perfbench (`perfbench/src/serve.rs`), whose
    /// sources change only with the benchmark; nothing in the workspace
    /// calls it.
    pub async fn spawn(engine: Arc<AuthEngine>, bind: SocketAddr) -> io::Result<LiveServer> {
        LiveServer::start(engine, bind)
    }

    /// Like [`LiveServer::start`], but with a [`ChaosPolicy`] injecting
    /// faults into the serving path (chaos testing the replay engine).
    pub fn start_with_chaos(
        engine: Arc<AuthEngine>,
        bind: SocketAddr,
        chaos: Arc<ChaosPolicy>,
    ) -> io::Result<LiveServer> {
        LiveServer::start_inner(engine, bind, Some(chaos))
    }

    fn start_inner(
        engine: Arc<AuthEngine>,
        bind: SocketAddr,
        chaos: Option<Arc<ChaosPolicy>>,
    ) -> io::Result<LiveServer> {
        let mut tries = 0;
        let (udp, addr, tcp) = loop {
            let udp = ldp_io::bind_udp(bind)?;
            let addr = udp.local_addr()?;
            match TcpListener::bind(addr) {
                Ok(tcp) => break (udp, addr, tcp),
                // An ephemeral port free for UDP can still be held on the
                // TCP side (say, by a client connection in TIME_WAIT):
                // take another.
                Err(_) if bind.port() == 0 && tries < 8 => tries += 1,
                Err(e) => return Err(e),
            }
        };
        let stats = Arc::new(LiveStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let mut server = LiveServer {
            addr,
            stats: stats.clone(),
            chaos: chaos.clone(),
            stop: stop.clone(),
            udp: None,
            tcp: None,
        };
        // If the second spawn fails, dropping `server` stops the first loop.
        let (e, s, c, halt) = (engine.clone(), stats.clone(), chaos.clone(), stop.clone());
        server.udp = Some(spawn_named("server-udp", move || {
            serve_udp(udp, e, s, c, halt)
        })?);
        server.tcp = Some(spawn_named("server-tcp", move || {
            serve_tcp(tcp, engine, stats, chaos, stop)
        })?);
        Ok(server)
    }

    /// Registers this server's counters with a live-telemetry registry:
    /// query/malformed/byte totals, packet-cache behavior, and — when the
    /// server was started with chaos — the injected-fault totals.
    /// Everything is *observed* (read from the atomics the serving loops
    /// already bump), so serving pays nothing beyond its existing counters.
    pub fn register_telemetry(&self, reg: &Registry) {
        observe_counters(reg, &self.stats, &LIVE_FAMILIES);
        observe_counters(reg, &self.stats.pktcache, &CACHE_FAMILIES);
        if let Some(chaos) = &self.chaos {
            observe_counters(reg, &chaos.stats, &CHAOS_FAMILIES);
        }
    }
}

#[rustfmt::skip]
const LIVE_FAMILIES: [CounterRow<LiveStats>; 6] = [
    ("ldp_server_queries_total", "Queries handled", &[("proto", "udp")], |s| &s.udp_queries),
    ("ldp_server_queries_total", "Queries handled", &[("proto", "tcp")], |s| &s.tcp_queries),
    ("ldp_server_tcp_connections_total", "TCP connections accepted", &[], |s| &s.tcp_connections),
    ("ldp_server_malformed_total", "Messages that failed to parse", &[], |s| &s.malformed),
    ("ldp_server_response_bytes_total", "Response bytes produced", &[], |s| &s.response_bytes),
    ("ldp_server_send_failures_total", "Response sends the kernel refused", &[], |s| &s.send_failures),
];

#[rustfmt::skip]
const CACHE_FAMILIES: [CounterRow<CacheStats>; 3] = [
    ("ldp_server_pktcache_total", "UDP packet-cache events", &[("event", "hit")], |c| &c.hits),
    ("ldp_server_pktcache_total", "UDP packet-cache events", &[("event", "miss")], |c| &c.misses),
    ("ldp_server_pktcache_total", "UDP packet-cache events", &[("event", "eviction")], |c| &c.evictions),
];

#[rustfmt::skip]
const CHAOS_FAMILIES: [CounterRow<ChaosStats>; 5] = [
    ("ldp_server_chaos_total", "Injected chaos fates", &[("fate", "dropped")], |c| &c.dropped),
    ("ldp_server_chaos_total", "Injected chaos fates", &[("fate", "duplicated")], |c| &c.duplicated),
    ("ldp_server_chaos_total", "Injected chaos fates", &[("fate", "delayed")], |c| &c.delayed),
    ("ldp_server_chaos_total", "Injected chaos fates", &[("fate", "refused_accept")], |c| &c.refused_accepts),
    ("ldp_server_chaos_total", "Injected chaos fates", &[("fate", "reset")], |c| &c.resets),
];

/// Registers each row of `table` as a counter read from `stats`.
fn observe_counters<S: Send + Sync + 'static>(
    reg: &Registry,
    stats: &Arc<S>,
    table: &[CounterRow<S>],
) {
    for &(name, help, labels, field) in table {
        let s = stats.clone();
        let read = move || field(&s).load(Ordering::Relaxed);
        reg.observe(name, help, MetricKind::Counter, labels, read);
    }
}

/// Starts `f` on a thread named `name`, so per-thread CPU accounting
/// (`/proc/<pid>/task/*/comm`, `top -H`) says which role spent it.
fn spawn_named<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> io::Result<JoinHandle<T>> {
    thread::Builder::new().name(name.into()).spawn(f)
}

/// Datagrams per `recvmmsg` batch. Under load a replay client's sendmmsg
/// bursts queue dozens of queries between server wakeups; draining them in
/// one kernel entry (and answering with one `sendmmsg`) cuts the server's
/// syscall cost from two per query to two per batch. Both calls fill
/// buffers the loop owns, so a batch allocates nothing.
const UDP_BATCH: usize = 64;

/// Where a queued UDP response sits in the batch's answer buffer.
type Reply = (Range<usize>, SocketAddr);

/// Routes each UDP response through the chaos policy's fate for it (or
/// delivers unconditionally when no policy is installed).
struct ReplyRouter {
    socket: Arc<UdpSocket>,
    stats: Arc<LiveStats>,
    chaos: Option<Arc<ChaosPolicy>>,
    started: Instant,
    /// The delayer's queue, once a reply has been delayed.
    delayed: Option<SyncSender<Delayed>>,
}

/// A delayed reply: when it is due, its bytes and its peer.
type Delayed = (Instant, Vec<u8>, SocketAddr);

/// A delayed reply in the delayer's heap: due time, arrival order, bytes,
/// peer.
type Queued = (Instant, u64, Vec<u8>, SocketAddr);

/// Delayed replies queued at once before more count as send failures.
const DELAY_QUEUE: usize = 65_536;

impl ReplyRouter {
    /// Queues the response at `answers[at]` onto `replies` (delayed fates
    /// go to the delayer). `query_wire` must be the id-zeroed query so
    /// retransmits of the same query share a sighting sequence.
    fn queue(
        &mut self,
        replies: &mut Vec<Reply>,
        query_wire: &[u8],
        answers: &[u8],
        at: Range<usize>,
        peer: SocketAddr,
    ) {
        let fate = match &self.chaos {
            Some(c) => c.response_fate(query_wire, self.started.elapsed()),
            None => ResponseFate::Deliver,
        };
        match fate {
            ResponseFate::Deliver => replies.push((at, peer)),
            ResponseFate::Drop => {}
            ResponseFate::Duplicate => {
                replies.push((at.clone(), peer));
                replies.push((at, peer));
            }
            ResponseFate::Delay(by) => {
                let (socket, stats) = (&self.socket, &self.stats);
                let delayed = self.delayed.get_or_insert_with(|| {
                    let (tx, rx) = mpsc::sync_channel(DELAY_QUEUE);
                    let (socket, stats) = (socket.clone(), stats.clone());
                    // Detached: it ends once the router, and so the queue,
                    // is gone and every reply is out. If it cannot start,
                    // the queue is closed and each delayed reply counts as
                    // a send failure.
                    drop(spawn_named("server-delay", move || {
                        send_delayed(&socket, &stats, rx)
                    }));
                    tx
                });
                let bytes = answers.get(at).unwrap_or_default().to_vec();
                if delayed
                    .try_send((Instant::now() + by, bytes, peer))
                    .is_err()
                {
                    self.stats.send_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// The delayer: one thread per server, however many replies are delayed.
/// It keeps the queued replies in a min-heap by due time and sends each
/// when it falls due.
fn send_delayed(socket: &UdpSocket, stats: &LiveStats, queue: Receiver<Delayed>) {
    // Ordered by due time, then by arrival.
    let mut heap: BinaryHeap<Reverse<Queued>> = BinaryHeap::new();
    let mut arrivals = 0u64;
    let mut open = true;
    loop {
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse(d)| d.0 <= now) {
            if let Some(Reverse((_, _, bytes, peer))) = heap.pop() {
                if socket.send_one_to(&bytes, peer).is_err() {
                    stats.send_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let next = match (heap.peek().map(|Reverse(d)| d.0), open) {
            (None, false) => return,
            (None, true) => queue.recv().ok(),
            (Some(due), false) => {
                thread::sleep(due.saturating_duration_since(Instant::now()));
                continue;
            }
            (Some(due), true) => {
                match queue.recv_timeout(due.saturating_duration_since(Instant::now())) {
                    Ok(next) => Some(next),
                    Err(RecvTimeoutError::Disconnected) => None,
                    Err(RecvTimeoutError::Timeout) => continue,
                }
            }
        };
        match next {
            Some((due, bytes, peer)) => {
                heap.push(Reverse((due, arrivals, bytes, peer)));
                arrivals += 1;
            }
            None => open = false,
        }
    }
}

fn serve_udp(
    socket: UdpSocket,
    engine: Arc<AuthEngine>,
    stats: Arc<LiveStats>,
    chaos: Option<Arc<ChaosPolicy>>,
    stop: Arc<AtomicBool>,
) {
    let socket = Arc::new(socket);
    let mut router = ReplyRouter {
        socket: socket.clone(),
        stats: stats.clone(),
        chaos,
        started: Instant::now(),
        delayed: None,
    };
    let mut bufs: Vec<Vec<u8>> = (0..UDP_BATCH).map(|_| vec![0u8; 65_535]).collect();
    let mut received: Vec<(usize, SocketAddr)> = Vec::with_capacity(UDP_BATCH);
    // A batch's responses, back to back in one reused buffer; `replies`
    // says where each one sits and where it goes.
    let mut answers: Vec<u8> = Vec::with_capacity(UDP_BATCH * 512);
    let mut replies: Vec<Reply> = Vec::with_capacity(UDP_BATCH);
    // Answers are deterministic over static zones, so identical query
    // wires (ignoring the id) short-circuit the parse → lookup → encode
    // path entirely; see [`crate::pktcache`].
    let mut cache = PacketCache::with_stats(8_192, stats.pktcache.clone());
    loop {
        let got = socket.recv_many(&mut bufs, &mut received);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if got.is_err() {
            continue;
        }
        let handle_start = Instant::now();
        let queries_before = stats.udp_queries.load(Ordering::Relaxed);
        answers.clear();
        replies.clear();
        for (i, &(len, peer)) in received.iter().enumerate() {
            let Some(query) = bufs.get_mut(i).and_then(|b| b.get_mut(..len)) else {
                continue;
            };
            if len < 2 {
                stats.malformed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Zero the id in place: the cache key must match across
            // retransmits, and the response id is patched from `id`
            // either way.
            let id = u16::from_be_bytes([query[0], query[1]]);
            query[..2].fill(0);
            let at = answers.len();
            if !cache.get_into(peer.ip(), query, id, &mut answers) {
                match engine.answer_wire(peer.ip(), query, false, &mut answers) {
                    Err(NoAnswer::Malformed(_)) => {
                        stats.malformed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    Err(NoAnswer::Unencodable(_)) => {
                        stats.udp_queries.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    Ok(()) => {
                        cache.put(peer.ip(), query, &answers[at..]);
                        answers[at..at + 2].copy_from_slice(&id.to_be_bytes());
                    }
                }
            }
            stats.udp_queries.fetch_add(1, Ordering::Relaxed);
            stats
                .response_bytes
                .fetch_add((answers.len() - at) as u64, Ordering::Relaxed);
            router.queue(&mut replies, query, &answers, at..answers.len(), peer);
        }
        let handled = stats.udp_queries.load(Ordering::Relaxed) - queries_before;
        stats.record_handle(handle_start.elapsed().as_micros() as u64, handled);
        let sent = socket.send_many_to_each(&answers, &replies).unwrap_or(0);
        for (at, peer) in replies.get(sent..).unwrap_or_default() {
            let bytes = answers.get(at.clone()).unwrap_or_default();
            if socket.send_one_to(bytes, *peer).is_err() {
                stats.send_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn serve_tcp(
    listener: TcpListener,
    engine: Arc<AuthEngine>,
    stats: Arc<LiveStats>,
    chaos: Option<Arc<ChaosPolicy>>,
    stop: Arc<AtomicBool>,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, peer)) = accepted else {
            continue;
        };
        // Injected accept refusal: close the connection before it counts
        // as served; the client sees an immediate EOF/reset.
        if chaos.as_ref().is_some_and(|c| c.refuse_accept()) {
            drop(stream);
            continue;
        }
        stats.tcp_connections.fetch_add(1, Ordering::Relaxed);
        let engine = engine.clone();
        let stats = stats.clone();
        let chaos = chaos.clone();
        // A connection whose thread cannot start is closed.
        let _ = spawn_named("server-tcp", move || {
            serve_tcp_conn(stream, peer, &engine, &stats, chaos.as_deref())
        });
    }
}

/// A connection's read buffer: a whole frame (2 + 65,535 bytes) always
/// fits once the frames before it are answered, and a pipelining client
/// gets many frames per read.
const TCP_READ_BUF: usize = 2 * 65_537;

/// Serves one TCP connection: each read takes whatever has arrived, every
/// whole frame in it is answered straight into the reused `answers`
/// buffer, and the answers go back in one write. A partial frame waits in
/// the buffer for the next read.
fn serve_tcp_conn(
    mut stream: TcpStream,
    peer: SocketAddr,
    engine: &AuthEngine,
    stats: &LiveStats,
    chaos: Option<&ChaosPolicy>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut served = 0u64;
    let mut buf = vec![0u8; TCP_READ_BUF];
    let mut filled = 0;
    let mut answers = Vec::new();
    loop {
        let n = stream.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(()); // peer closed
        }
        filled += n;
        answers.clear();
        // RFC 1035 §4.2.2 framing: 2-byte length, then the message.
        let mut rest = &buf[..filled];
        let mut close = false;
        while let Some((msg, tail)) = ldp_wire::framing::split_frame(rest) {
            rest = tail;
            let handle_start = Instant::now();
            let at = answers.len();
            match engine.answer_framed(peer.ip(), msg, &mut answers) {
                Err(NoAnswer::Malformed(_)) => {
                    stats.malformed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Err(NoAnswer::Unencodable(_)) => {
                    stats.tcp_queries.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Ok(()) => {}
            }
            stats.tcp_queries.fetch_add(1, Ordering::Relaxed);
            stats
                .response_bytes
                .fetch_add((answers.len() - at - 2) as u64, Ordering::Relaxed);
            stats.record_handle(handle_start.elapsed().as_micros() as u64, 1);
            served += 1;
            // Injected mid-conversation reset: close after serving the
            // configured number of queries on this connection, even when
            // more frames are already buffered.
            if chaos.is_some_and(|c| c.should_reset(served)) {
                close = true;
                break;
            }
        }
        let used = filled - rest.len();
        if !answers.is_empty() {
            stream.write_all(&answers)?;
        }
        if close {
            return Ok(());
        }
        buf.copy_within(used..filled, 0);
        filled -= used;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_wire::{Message, Name, RData, Record, RrType};
    use ldp_zone::{Zone, ZoneSet};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn engine() -> Arc<AuthEngine> {
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ))
        .unwrap();
        z.add(Record::new(
            n("*.wild.example.com"),
            60,
            RData::A("192.0.2.99".parse().unwrap()),
        ))
        .unwrap();
        let mut set = ZoneSet::new();
        set.insert(z);
        Arc::new(AuthEngine::with_zones(Arc::new(set)))
    }

    #[test]
    fn udp_roundtrip() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let q = Message::query(42, n("www.example.com"), RrType::A);
        client.send_to(&q.to_bytes().unwrap(), server.addr).unwrap();
        let mut buf = vec![0u8; 4096];
        let (len, _) = client.recv_from(&mut buf).unwrap();
        let resp = Message::from_bytes(&buf[..len]).unwrap();
        assert_eq!(resp.header.id, 42);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(server.stats.udp_queries.load(Ordering::Relaxed), 1);
        let hist = server.stats.handle_hist();
        assert_eq!(hist.count(), 1, "one handle-time sample per UDP query");
    }

    #[test]
    fn tcp_roundtrip_with_connection_reuse() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let mut stream = TcpStream::connect(server.addr).unwrap();
        for i in 0..3u16 {
            let q = Message::query(i, n(&format!("q{i}.wild.example.com")), RrType::A);
            let framed = ldp_wire::framing::frame_message(&q.to_bytes().unwrap()).unwrap();
            stream.write_all(&framed).unwrap();
            let mut lenbuf = [0u8; 2];
            stream.read_exact(&mut lenbuf).unwrap();
            let mut msg = vec![0u8; u16::from_be_bytes(lenbuf) as usize];
            stream.read_exact(&mut msg).unwrap();
            let resp = Message::from_bytes(&msg).unwrap();
            assert_eq!(resp.header.id, i);
            assert_eq!(resp.answers.len(), 1, "wildcard answers each name");
        }
        assert_eq!(server.stats.tcp_queries.load(Ordering::Relaxed), 3);
        assert_eq!(
            server.stats.tcp_connections.load(Ordering::Relaxed),
            1,
            "one connection reused for all three queries"
        );
        assert_eq!(
            server.stats.handle_hist().count(),
            3,
            "one handle-time sample per TCP query"
        );
    }

    fn framed_query(id: u16) -> Vec<u8> {
        let q = Message::query(id, n(&format!("q{id}.wild.example.com")), RrType::A);
        ldp_wire::framing::frame_message(&q.to_bytes().unwrap()).unwrap()
    }

    /// Reads one framed answer; `None` once the server has closed.
    fn read_answer(stream: &mut TcpStream) -> Option<Message> {
        let mut lenbuf = [0u8; 2];
        stream.read_exact(&mut lenbuf).ok()?;
        let mut msg = vec![0u8; u16::from_be_bytes(lenbuf) as usize];
        stream.read_exact(&mut msg).ok()?;
        Message::from_bytes(&msg).ok()
    }

    #[test]
    fn tcp_answers_every_frame_of_a_write_in_order() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let mut stream = TcpStream::connect(server.addr).unwrap();
        // Three frames in one write, then a fourth split mid-frame across
        // two writes.
        let burst: Vec<u8> = (0..3).flat_map(framed_query).collect();
        stream.write_all(&burst).unwrap();
        let split = framed_query(3);
        stream.write_all(&split[..5]).unwrap();
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(read_answer(&mut stream).unwrap().header.id);
        }
        stream.write_all(&split[5..]).unwrap();
        ids.push(read_answer(&mut stream).unwrap().header.id);
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(server.stats.tcp_queries.load(Ordering::Relaxed), 4);
        assert_eq!(server.stats.handle_hist().count(), 4);
    }

    #[test]
    fn tcp_reset_after_n_closes_mid_buffer_after_exactly_n_answers() {
        let chaos = Arc::new(ChaosPolicy::new(3).reset_after(2));
        let server =
            LiveServer::start_with_chaos(engine(), "127.0.0.1:0".parse().unwrap(), chaos.clone())
                .unwrap();
        let mut stream = TcpStream::connect(server.addr).unwrap();
        // Five frames land in one buffer; the reset falls after the second.
        let burst: Vec<u8> = (0..5).flat_map(framed_query).collect();
        stream.write_all(&burst).unwrap();
        let mut ids = Vec::new();
        while let Some(answer) = read_answer(&mut stream) {
            ids.push(answer.header.id);
        }
        assert_eq!(ids, [0, 1], "exactly n answers, then the close");
        assert_eq!(chaos.stats.resets.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pktcache_counters_surface_through_stats_and_telemetry() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let reg = ldp_telemetry::Registry::new();
        server.register_telemetry(&reg);
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut buf = vec![0u8; 4096];
        // The same question under three ids: one miss fills the cache,
        // the retransmits hit.
        for id in 0..3u16 {
            let q = Message::query(id, n("www.example.com"), RrType::A);
            client.send_to(&q.to_bytes().unwrap(), server.addr).unwrap();
            let (len, _) = client.recv_from(&mut buf).unwrap();
            assert_eq!(Message::from_bytes(&buf[..len]).unwrap().header.id, id);
        }
        assert_eq!(server.stats.pktcache.misses.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats.pktcache.hits.load(Ordering::Relaxed), 2);
        let samples = reg.snapshot();
        let value = |event: &str| {
            samples
                .iter()
                .find(|s| {
                    s.name == "ldp_server_pktcache_total"
                        && s.labels.iter().any(|(_, v)| v == event)
                })
                .map(|s| s.value)
        };
        assert_eq!(value("hit"), Some(2));
        assert_eq!(value("miss"), Some(1));
        assert_eq!(value("eviction"), Some(0));
        // Query totals ride along on the same registry.
        assert!(samples
            .iter()
            .any(|s| s.name == "ldp_server_queries_total" && s.value == 3));
    }

    #[test]
    fn malformed_udp_ignored() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.send_to(&[1, 2, 3], server.addr).unwrap();
        // Then a valid query still gets served.
        let q = Message::query(1, n("www.example.com"), RrType::A);
        client.send_to(&q.to_bytes().unwrap(), server.addr).unwrap();
        let mut buf = vec![0u8; 4096];
        let (len, _) = client.recv_from(&mut buf).unwrap();
        assert!(Message::from_bytes(&buf[..len]).is_ok());
        assert_eq!(server.stats.malformed.load(Ordering::Relaxed), 1);
    }
}
