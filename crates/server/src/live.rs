//! Live authoritative server on real sockets (tokio).
//!
//! The replay-fidelity experiments (§4) measure the *replay engine* against
//! real time, so they need a real server to answer: this module serves the
//! same [`AuthEngine`] over loopback UDP and TCP. Event-driven, one task per
//! TCP connection, no blocking calls on the runtime — per the async
//! networking guidance this codebase follows.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, UdpSocket};
use tokio::sync::mpsc;
use tokio::task::JoinHandle;

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

/// A running live server; aborts its tasks on drop.
pub struct LiveServer {
    pub addr: SocketAddr,
    pub stats: Arc<LiveStats>,
    /// Kept (when chaos-spawned) so telemetry can expose the fate totals.
    chaos: Option<Arc<ChaosPolicy>>,
    tasks: Vec<JoinHandle<()>>,
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        for t in &self.tasks {
            // ldp-lint: allow(r6) -- the serving loops block in accept/recv and have no stop signal yet; they leak until exit
            t.abort();
        }
    }
}

impl LiveServer {
    /// Binds UDP and TCP on `bind` (use port 0 for an ephemeral port) and
    /// starts serving `engine`.
    pub async fn spawn(engine: Arc<AuthEngine>, bind: SocketAddr) -> io::Result<LiveServer> {
        LiveServer::spawn_inner(engine, bind, None).await
    }

    /// Like [`LiveServer::spawn`], but with a [`ChaosPolicy`] injecting
    /// faults into the serving path (chaos testing the replay engine).
    pub async fn spawn_with_chaos(
        engine: Arc<AuthEngine>,
        bind: SocketAddr,
        chaos: Arc<ChaosPolicy>,
    ) -> io::Result<LiveServer> {
        LiveServer::spawn_inner(engine, bind, Some(chaos)).await
    }

    async fn spawn_inner(
        engine: Arc<AuthEngine>,
        bind: SocketAddr,
        chaos: Option<Arc<ChaosPolicy>>,
    ) -> io::Result<LiveServer> {
        let mut tries = 0;
        let (udp, addr, tcp) = loop {
            let udp = UdpSocket::bind(bind).await?;
            let addr = udp.local_addr()?;
            match TcpListener::bind(addr).await {
                Ok(tcp) => break (udp, addr, tcp),
                // An ephemeral port free for UDP can still be held on the
                // TCP side (say, by a client connection in TIME_WAIT):
                // take another.
                Err(_) if bind.port() == 0 && tries < 8 => tries += 1,
                Err(e) => return Err(e),
            }
        };
        let stats = Arc::new(LiveStats::default());

        let udp_task = tokio::spawn(serve_udp(udp, engine.clone(), stats.clone(), chaos.clone()));
        let tcp_task = tokio::spawn(serve_tcp(tcp, engine, stats.clone(), chaos.clone()));
        Ok(LiveServer {
            addr,
            stats,
            chaos,
            tasks: vec![udp_task, tcp_task],
        })
    }

    /// Registers this server's counters with a live-telemetry registry:
    /// query/malformed/byte totals, packet-cache behavior, and — when the
    /// server was chaos-spawned — the injected-fault totals. Everything is
    /// *observed* (read from the atomics the serving loops already bump),
    /// so serving pays nothing beyond its existing counters.
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
    delayed: Option<mpsc::Sender<Delayed>>,
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
                    let (tx, rx) = mpsc::channel(DELAY_QUEUE);
                    // Detached: it ends once the router, and so the queue,
                    // is gone and every reply is out.
                    drop(tokio::spawn(send_delayed(
                        socket.clone(),
                        stats.clone(),
                        rx,
                    )));
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

/// The delayer: one task (so one thread) per server, however many replies
/// are delayed. It keeps the queued replies in a min-heap by due time and
/// sends each when it falls due.
async fn send_delayed(
    socket: Arc<UdpSocket>,
    stats: Arc<LiveStats>,
    mut queue: mpsc::Receiver<Delayed>,
) {
    ldp_telemetry::thread::set_name("server-delay");
    // Ordered by due time, then by arrival.
    let mut heap: BinaryHeap<Reverse<Queued>> = BinaryHeap::new();
    let mut arrivals = 0u64;
    let mut open = true;
    loop {
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse(d)| d.0 <= now) {
            if let Some(Reverse((_, _, bytes, peer))) = heap.pop() {
                if socket.send_to(&bytes, peer).await.is_err() {
                    stats.send_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let next = match (heap.peek().map(|Reverse(d)| d.0), open) {
            (None, false) => return,
            (None, true) => queue.recv().await,
            (Some(due), false) => {
                tokio::time::sleep_until(due.into()).await;
                continue;
            }
            (Some(due), true) => {
                let wait = due.saturating_duration_since(Instant::now());
                match tokio::time::timeout(wait, queue.recv()).await {
                    Ok(next) => next,
                    Err(_) => continue,
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

async fn serve_udp(
    socket: UdpSocket,
    engine: Arc<AuthEngine>,
    stats: Arc<LiveStats>,
    chaos: Option<Arc<ChaosPolicy>>,
) {
    // Every task owns its OS thread; naming it attributes its CPU.
    ldp_telemetry::thread::set_name("server-udp");
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
        if socket.recv_many(&mut bufs, &mut received).await.is_err() {
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
        let sent = socket
            .send_many_to_each(&answers, &replies)
            .await
            .unwrap_or(0);
        for (at, peer) in replies.get(sent..).unwrap_or_default() {
            let bytes = answers.get(at.clone()).unwrap_or_default();
            if socket.send_to(bytes, *peer).await.is_err() {
                stats.send_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

async fn serve_tcp(
    listener: TcpListener,
    engine: Arc<AuthEngine>,
    stats: Arc<LiveStats>,
    chaos: Option<Arc<ChaosPolicy>>,
) {
    ldp_telemetry::thread::set_name("server-tcp");
    loop {
        let Ok((stream, peer)) = listener.accept().await else {
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
        tokio::spawn(async move {
            ldp_telemetry::thread::set_name("server-tcp");
            let _ = serve_tcp_conn(stream, peer, engine, stats, chaos).await;
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
async fn serve_tcp_conn(
    mut stream: tokio::net::TcpStream,
    peer: SocketAddr,
    engine: Arc<AuthEngine>,
    stats: Arc<LiveStats>,
    chaos: Option<Arc<ChaosPolicy>>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut served = 0u64;
    let mut buf = vec![0u8; TCP_READ_BUF];
    let mut filled = 0;
    let mut answers = Vec::new();
    loop {
        let n = stream.read(&mut buf[filled..]).await?;
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
            if chaos.as_ref().is_some_and(|c| c.should_reset(served)) {
                close = true;
                break;
            }
        }
        let used = filled - rest.len();
        if !answers.is_empty() {
            stream.write_all(&answers).await?;
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

    #[tokio::test]
    async fn udp_roundtrip() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let q = Message::query(42, n("www.example.com"), RrType::A);
        client
            .send_to(&q.to_bytes().unwrap(), server.addr)
            .await
            .unwrap();
        let mut buf = vec![0u8; 4096];
        let (len, _) = client.recv_from(&mut buf).await.unwrap();
        let resp = Message::from_bytes(&buf[..len]).unwrap();
        assert_eq!(resp.header.id, 42);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(server.stats.udp_queries.load(Ordering::Relaxed), 1);
        let hist = server.stats.handle_hist();
        assert_eq!(hist.count(), 1, "one handle-time sample per UDP query");
    }

    #[tokio::test]
    async fn tcp_roundtrip_with_connection_reuse() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut stream = tokio::net::TcpStream::connect(server.addr).await.unwrap();
        for i in 0..3u16 {
            let q = Message::query(i, n(&format!("q{i}.wild.example.com")), RrType::A);
            let framed = ldp_wire::framing::frame_message(&q.to_bytes().unwrap()).unwrap();
            stream.write_all(&framed).await.unwrap();
            let mut lenbuf = [0u8; 2];
            stream.read_exact(&mut lenbuf).await.unwrap();
            let mut msg = vec![0u8; u16::from_be_bytes(lenbuf) as usize];
            stream.read_exact(&mut msg).await.unwrap();
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
    async fn read_answer(stream: &mut tokio::net::TcpStream) -> Option<Message> {
        let mut lenbuf = [0u8; 2];
        stream.read_exact(&mut lenbuf).await.ok()?;
        let mut msg = vec![0u8; u16::from_be_bytes(lenbuf) as usize];
        stream.read_exact(&mut msg).await.ok()?;
        Message::from_bytes(&msg).ok()
    }

    #[tokio::test]
    async fn tcp_answers_every_frame_of_a_write_in_order() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut stream = tokio::net::TcpStream::connect(server.addr).await.unwrap();
        // Three frames in one write, then a fourth split mid-frame across
        // two writes.
        let burst: Vec<u8> = (0..3).flat_map(framed_query).collect();
        stream.write_all(&burst).await.unwrap();
        let split = framed_query(3);
        stream.write_all(&split[..5]).await.unwrap();
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(read_answer(&mut stream).await.unwrap().header.id);
        }
        stream.write_all(&split[5..]).await.unwrap();
        ids.push(read_answer(&mut stream).await.unwrap().header.id);
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(server.stats.tcp_queries.load(Ordering::Relaxed), 4);
        assert_eq!(server.stats.handle_hist().count(), 4);
    }

    #[tokio::test]
    async fn tcp_reset_after_n_closes_mid_buffer_after_exactly_n_answers() {
        let chaos = Arc::new(ChaosPolicy::new(3).reset_after(2));
        let server =
            LiveServer::spawn_with_chaos(engine(), "127.0.0.1:0".parse().unwrap(), chaos.clone())
                .await
                .unwrap();
        let mut stream = tokio::net::TcpStream::connect(server.addr).await.unwrap();
        // Five frames land in one buffer; the reset falls after the second.
        let burst: Vec<u8> = (0..5).flat_map(framed_query).collect();
        stream.write_all(&burst).await.unwrap();
        let mut ids = Vec::new();
        while let Some(answer) = read_answer(&mut stream).await {
            ids.push(answer.header.id);
        }
        assert_eq!(ids, [0, 1], "exactly n answers, then the close");
        assert_eq!(chaos.stats.resets.load(Ordering::Relaxed), 1);
    }

    #[tokio::test]
    async fn pktcache_counters_surface_through_stats_and_telemetry() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let reg = ldp_telemetry::Registry::new();
        server.register_telemetry(&reg);
        let client = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let mut buf = vec![0u8; 4096];
        // The same question under three ids: one miss fills the cache,
        // the retransmits hit.
        for id in 0..3u16 {
            let q = Message::query(id, n("www.example.com"), RrType::A);
            client
                .send_to(&q.to_bytes().unwrap(), server.addr)
                .await
                .unwrap();
            let (len, _) = client.recv_from(&mut buf).await.unwrap();
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

    #[tokio::test]
    async fn malformed_udp_ignored() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        client.send_to(&[1, 2, 3], server.addr).await.unwrap();
        // Then a valid query still gets served.
        let q = Message::query(1, n("www.example.com"), RrType::A);
        client
            .send_to(&q.to_bytes().unwrap(), server.addr)
            .await
            .unwrap();
        let mut buf = vec![0u8; 4096];
        let (len, _) = client.recv_from(&mut buf).await.unwrap();
        assert!(Message::from_bytes(&buf[..len]).is_ok());
        assert_eq!(server.stats.malformed.load(Ordering::Relaxed), 1);
    }
}
