//! The live replay engine (OS threads, real sockets) — the implementation
//! behind the §4 fidelity and throughput experiments.
//!
//! Architecture (Figure 4 of the paper), rebuilt as a sharded batched
//! pipeline: the Controller's **Reader** decodes trace records and its
//! **Postman** routes them with same-source affinity through a
//! [`Batcher`], moving whole batches over bounded channels to one
//! **Querier** per shard. The paper runs these as processes across hosts
//! connected by TCP; here they are threads connected by bounded channels —
//! the dataflow (sticky distribution, time-sync broadcast, per-querier
//! scheduling) is the same, and the throughput experiment (§4.3) measures
//! the same per-core replay limits.
//!
//! Batching is the hot-path lever: a channel hand-off costs a lock +
//! wakeup, so moving `batch_size` records per hand-off amortizes that
//! cost to near zero.
//!
//! Each querier is the live driver of the querier core
//! ([`crate::querier`]), which makes every decision. The driver does the
//! I/O it asks for — binds sockets and opens connections, sends a run
//! with one `sendmmsg` or one framed write, sleeps (timer slack 1 ns) to
//! the core's next deadline — and hands it the time
//! as nanoseconds since the replay epoch. Each shard counts its events in
//! one [`ShardCounters`] block, which the core and the Postman write, the
//! telemetry registry observes, and the report snapshots as [`ShardStats`].
//!
//! A querier is the only thread that touches its sockets: as in the
//! paper, it takes the answers to its queries, without blocking, before
//! each poll of the core — so an answer still queued is never expired,
//! and reading never delays a send. One `epoll_wait` with a zero timeout
//! finds the sockets with answers queued. An answer may wait in its
//! socket while the querier sleeps, so its arrival is the kernel's stamp
//! (`SO_TIMESTAMPNS`) converted to the [`Instant`] clock and capped at the
//! read (off Linux, the read stands in). Over TCP the stamp is the arrival
//! of the last segment a read returns, so answers that arrive back to back
//! while the querier sleeps overstate their RTT by at most their gap.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime};

use ldp_io::{TcpStreamExt, UdpSocketExt};

pub use ldp_metrics::shard::FAMILIES;
use ldp_metrics::{DepthRing, ShardCounters, ShardStats};
use ldp_obs::{ReplaySpans, Stage};
use ldp_trace::TraceRecord;

use crate::ledger::{ObsCtx, SockRef};
use crate::outcome::{Outcomes, ShardLog};
pub use crate::outcome::{ReplayError, ReplayOutcome};
use crate::plan::{Batcher, ReplayPlan};
pub use crate::querier::ReplayMode;
use crate::querier::{Action, Config, Querier};
use crate::ready::Readiness;
use crate::retry::RetryPolicy;

/// Full replay result.
#[derive(Debug)]
pub struct ReplayReport {
    /// One outcome per trace record read, in shard order.
    pub outcomes: Outcomes,
    /// Wall-clock duration of the sending phase (µs).
    pub send_duration_us: u64,
    pub sent: u64,
    pub answered: u64,
    /// Attempt expiries (every attempt counts, including the last).
    pub timeouts: u64,
    /// UDP retransmits put on the wire (never counted in `sent`).
    pub retries: u64,
    /// TCP connections reopened after a previous one died.
    pub reconnects: u64,
    /// Queries abandoned after exhausting every attempt.
    pub gave_up: u64,
    /// Records degraded to [`ReplayError`] outcomes.
    pub errors: u64,
    /// Per-shard pipeline saturation counters, one entry per querier.
    pub shards: Vec<ShardStats>,
    /// The trace read error that ended the replay early, if one did. A
    /// stream cannot resynchronize after a bad frame, so the replay stops
    /// there: the outcomes cover only the records read before it.
    pub trace_error: Option<ldp_trace::TraceError>,
}

impl ReplayReport {
    /// Timing errors in milliseconds (sent − scheduled target), Figure
    /// 6's metric. The target is the *scaled* trace offset, so errors are
    /// meaningful at any `Timed` speed — comparing against the raw trace
    /// offset would misreport every `speed != 1.0` run by the scaling
    /// factor.
    pub fn timing_errors_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| (o.sent_offset_us as f64 - o.target_offset_us as f64) / 1000.0)
            .collect()
    }

    /// Replayed inter-arrival times in seconds (Figure 7's metric).
    pub fn replayed_interarrivals_s(&self) -> Vec<f64> {
        let mut sent: Vec<u64> = self.outcomes.iter().map(|o| o.sent_offset_us).collect();
        sent.sort_unstable();
        sent.windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect()
    }

    /// Achieved send rate (q/s) over the sending phase (Figure 9's metric).
    pub fn achieved_qps(&self) -> f64 {
        if self.send_duration_us == 0 {
            return 0.0;
        }
        self.sent as f64 / (self.send_duration_us as f64 / 1e6)
    }

    /// Response latencies in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| o.latency_us)
            .map(|us| us as f64 / 1000.0)
            .collect()
    }

    /// Answered-query latencies folded into a log-bucketed histogram
    /// (µs ticks) — the fixed-memory form run manifests carry.
    pub fn latency_hist(&self) -> ldp_metrics::LogHistogram {
        let mut h = ldp_metrics::LogHistogram::new();
        for us in self.outcomes.iter().filter_map(|o| o.latency_us) {
            h.record(us);
        }
        h
    }
}

/// JSON form of a report: the aggregate counters and per-shard stats,
/// *without* the per-query outcome vector (potentially millions of
/// entries — figure binaries derive what they need and drop it). Field
/// names are schema: golden tests pin them, `results/BENCH_*.json`
/// comparisons depend on them.
impl serde::Serialize for ReplayReport {
    fn to_json_value(&self) -> serde::Value {
        serde_json::json!({
            "send_duration_us": self.send_duration_us,
            "sent": self.sent,
            "answered": self.answered,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "reconnects": self.reconnects,
            "gave_up": self.gave_up,
            "errors": self.errors,
            "shards": self.shards,
            "trace_error": self.trace_error.as_ref().map(|e| e.to_string()),
        })
    }
}

/// What the Reader + Postman thread resolves to: each shard's queue-depth
/// samples and the read error that stopped it, if one did.
type PostmanResult = (Vec<DepthRing>, Option<ldp_trace::TraceError>);

/// Live replay configuration.
#[derive(Debug, Clone)]
pub struct LiveReplay {
    /// Target server (the system under test).
    pub server: SocketAddr,
    pub mode: ReplayMode,
    /// Distribution-tree shape; total queriers = product.
    pub distributors: usize,
    pub queriers_per_distributor: usize,
    /// Max distinct UDP sockets per querier (sources beyond share).
    pub max_sockets_per_querier: usize,
    /// Records per pipeline batch: the unit the Postman hands a querier.
    /// Larger batches amortize channel hand-offs further; `Timed` replays
    /// flush partial batches on a trace-time horizon regardless, so
    /// pacing never waits on batch fill.
    pub batch_size: usize,
    /// Hard cap on waiting for in-flight answers after the last send.
    /// The drain is adaptive: a querier exits as soon as its in-flight
    /// table empties (answered, retried out, or expired), so this bound
    /// only bites when expiry is disabled or answers are still pending.
    pub drain: Duration,
    /// Timeout/retransmit/reconnect policy (see [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Optional span sink ([`ReplaySpans`]): when set, every pipeline
    /// stage a (sampled) query passes through — read, batched, scheduled,
    /// sent, retry, answered, gave-up — is recorded with a microsecond
    /// timestamp on the shared replay epoch, so outcomes decompose into
    /// batch-wait, queue-wait, send-lag, and wire+server time. `None`
    /// (the default) costs one branch per stage. Typically populated via
    /// [`ReplaySpans::from_env`] (`LDP_OBS_SAMPLE`).
    pub obs: Option<Arc<ReplaySpans>>,
    /// Optional live-telemetry registry: when set, the replay registers
    /// every cell of each shard's [`ShardCounters`] block at startup (see
    /// [`FAMILIES`]). The registry reads the cells at scrape time only, so
    /// the send path costs the same with or without it.
    pub telemetry: Option<Arc<ldp_telemetry::Registry>>,
}

impl LiveReplay {
    /// Sensible defaults for loopback experiments: the paper's prototype
    /// shape (1 distributor × 6 queriers).
    pub fn new(server: SocketAddr) -> LiveReplay {
        LiveReplay {
            server,
            mode: ReplayMode::Timed { speed: 1.0 },
            distributors: 1,
            queriers_per_distributor: 6,
            max_sockets_per_querier: 128,
            batch_size: 256,
            drain: Duration::from_millis(300),
            retry: RetryPolicy::default(),
            obs: None,
            telemetry: None,
        }
    }

    /// Runs the replay to completion. The records `Vec` is the Reader's
    /// fully preloaded window; routing and batching are identical to
    /// [`LiveReplay::run_iter`].
    pub fn run(&self, records: Vec<TraceRecord>) -> io::Result<ReplayReport> {
        self.run_iter(records.into_iter().map(Ok))
    }

    /// [`LiveReplay::run_iter`] as a future that finishes on its first
    /// poll. It exists only for perfbench (`perfbench/src/replay.rs`),
    /// whose sources change only with the benchmark; nothing in the
    /// workspace calls it.
    pub async fn run_stream<I>(&self, records: I) -> io::Result<ReplayReport>
    where
        I: Iterator<Item = Result<TraceRecord, ldp_trace::TraceError>> + Send + 'static,
    {
        self.run_iter(records)
    }

    /// Streaming variant: replays records pulled incrementally from a
    /// trace reader, never holding the whole trace in memory. This is the
    /// paper's §3 Reader: a bounded read-ahead window (`QUEUE_BATCHES`
    /// batches of `batch_size` records per querier) keeps input
    /// processing from falling behind real time while capping memory for
    /// multi-gigabyte traces. The Reader+Postman run on a thread of their
    /// own; routing stays sticky per source, and spines recycle back
    /// from queriers so steady-state batching is allocation-free.
    pub fn run_iter<I>(&self, records: I) -> io::Result<ReplayReport>
    where
        I: Iterator<Item = Result<TraceRecord, ldp_trace::TraceError>> + Send + 'static,
    {
        let plan = ReplayPlan::new(self.distributors, self.queriers_per_distributor);
        let n_queriers = plan.querier_count();

        // The reader must see the first record to latch the trace epoch
        // before any querier starts; peel it off eagerly.
        let mut records = records;
        let first = match records.next() {
            None => return self.collect(&[], Vec::new(), None),
            Some(Err(e)) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Some(Ok(rec)) => rec,
        };
        let trace_epoch_us = first.time_us;
        // The shared epoch (the time-sync broadcast value). Taken just
        // before spawning so offsets are measured on one clock; the few
        // microseconds of spawn skew show up as (tiny) positive timing
        // error, which the fidelity experiments' warmup window absorbs.
        let epoch = Instant::now();

        // Spine recycling: queriers return drained batch Vecs here; the
        // postman feeds them back into the batcher's spare pool.
        let (recycle_tx, recycle_rx) =
            mpsc::sync_channel::<Vec<TraceRecord>>(n_queriers * QUEUE_BATCHES);

        let counters: Vec<Arc<ShardCounters>> = (0..n_queriers).map(|_| Arc::default()).collect();
        let mut txs = Vec::with_capacity(n_queriers);
        let mut handles = Vec::with_capacity(n_queriers);
        for (shard, c) in counters.iter().enumerate() {
            // Every cell of the shard's block, under its `shard` label.
            if let Some(reg) = &self.telemetry {
                let label = shard.to_string();
                for (name, help, kind, read) in FAMILIES {
                    let c = c.clone();
                    reg.observe(name, help, kind, &[("shard", &label)], move || read(&c));
                }
            }
            let (tx, rx) = mpsc::sync_channel::<Vec<TraceRecord>>(QUEUE_BATCHES);
            txs.push(tx);
            let querier = self.querier(shard, trace_epoch_us, epoch, c.clone());
            let recycle = recycle_tx.clone();
            handles.push(
                thread::Builder::new()
                    .name(format!("querier-{shard}"))
                    .spawn(move || querier.run(rx, recycle))?,
            );
        }
        drop(recycle_tx);

        let batch_size = self.batch_size.max(1);
        let horizon_us = match self.mode {
            // Never hold a timed record hostage to a slow-filling batch:
            // flush anything older than the horizon in trace time.
            ReplayMode::Timed { .. } => BATCH_HORIZON_US,
            ReplayMode::Fast => u64::MAX,
        };

        // Reader + Postman on their own thread: decode, route sticky,
        // batch, push with backpressure (a full querier queue parks the
        // reader — the pre-load bound). Counts stalls and queue depths
        // into the shards' blocks and returns the depth samples.
        let spans = self.obs.clone();
        let shard_counters = counters.clone();
        let postman = move || {
            let counters = shard_counters;
            let mut rings: Vec<DepthRing> = (0..n_queriers).map(|_| DepthRing::new()).collect();
            let mut batcher: Batcher<TraceRecord> = Batcher::new(plan, batch_size, horizon_us);
            let mut flushes: Vec<(usize, Vec<TraceRecord>)> = Vec::new();
            // Per-shard record ordinals: `read_seq[q]` counts records
            // routed to shard q (the Read stamp), `batched_seq[q]` counts
            // records flushed toward it (the Batched stamp). Channels are
            // FIFO and batches preserve input order, so these ordinals
            // are exactly the row indices of the querier's outcome log.
            let mut read_seq = vec![0u64; n_queriers];
            let mut batched_seq = vec![0u64; n_queriers];

            // The shard's cells are written once per delivery.
            let mut deliver = |q: usize, batch: Vec<TraceRecord>, rings: &mut Vec<DepthRing>| {
                if let Some(spans) = &spans {
                    let t_us = epoch.elapsed().as_micros() as u64;
                    let from = batched_seq[q];
                    spans.record_range(q, from..from + batch.len() as u64, Stage::Batched, t_us);
                }
                batched_seq[q] += batch.len() as u64;
                let c = &counters[q];
                let observed = c.queue_depth.get();
                rings[q].push(u32::try_from(observed).unwrap_or(u32::MAX));
                c.max_queue_depth.raise(observed);
                let queued = match txs[q].try_send(batch) {
                    Ok(()) => true,
                    Err(TrySendError::Full(batch) | TrySendError::Disconnected(batch)) => {
                        // Full (or closed): count the stall, then block.
                        c.postman_stalls.bump(1);
                        txs[q].send(batch).is_ok()
                    }
                };
                if queued {
                    c.queue_depth.add(1);
                }
            };
            // A read error ends the input: a stream cannot resynchronize
            // after a bad frame. What was read still replays, and the
            // error goes into the report.
            let mut read_error = None;
            for rec in std::iter::once(Ok(first)).chain(records) {
                let rec = match rec {
                    Ok(rec) => rec,
                    Err(e) => {
                        read_error = Some(e);
                        break;
                    }
                };
                let q = batcher.push(rec.src, rec.time_us, rec, &mut flushes);
                if let Some(spans) = &spans {
                    let t_us = epoch.elapsed().as_micros() as u64;
                    spans.record(q, read_seq[q], Stage::Read, t_us);
                }
                read_seq[q] += 1;
                for (q, batch) in flushes.drain(..) {
                    deliver(q, batch, &mut rings);
                }
                while let Ok(spine) = recycle_rx.try_recv() {
                    batcher.donate(spine);
                }
            }
            for (q, batch) in batcher.finish() {
                deliver(q, batch, &mut rings);
            }
            (rings, read_error)
        };
        let postman = thread::Builder::new()
            .name("reader-postman".into())
            .spawn(postman)?;

        self.collect(&counters, handles, Some(postman))
    }

    fn querier(
        &self,
        shard: usize,
        trace_epoch_us: u64,
        epoch: Instant,
        counters: Arc<ShardCounters>,
    ) -> LiveQuerier {
        LiveQuerier {
            server: self.server,
            epoch,
            drain: self.drain,
            core: Querier::new(Config {
                mode: self.mode,
                trace_epoch_us,
                max_sockets: self.max_sockets_per_querier,
                policy: self.retry.clone(),
                obs: self.obs.as_ref().map(|spans| ObsCtx {
                    spans: spans.clone(),
                    shard,
                }),
                counters: counters.clone(),
            }),
            counters,
            udp: Vec::new(),
            tcp: Vec::new(),
            readiness: Readiness::new(),
            wires: Vec::new(),
            framed: Vec::new(),
            failed: Vec::new(),
            tokens: Vec::new(),
            datagrams: (0..RECV_BATCH).map(|_| vec![0u8; RECV_BUF]).collect(),
            got: Vec::with_capacity(RECV_BATCH),
        }
    }

    /// Joins the queriers and the Postman, then snapshots each shard's
    /// counters into the report.
    fn collect(
        &self,
        counters: &[Arc<ShardCounters>],
        handles: Vec<JoinHandle<ShardLog>>,
        postman: Option<JoinHandle<PostmanResult>>,
    ) -> io::Result<ReplayReport> {
        // Handles are in shard order, so the logs are too.
        let mut logs = Vec::with_capacity(handles.len());
        for h in handles {
            logs.push(
                h.join()
                    .map_err(|_| io::Error::other("querier thread panicked"))?,
            );
        }
        let (rings, trace_error) = match postman {
            Some(p) => p.join().unwrap_or_default(),
            None => Default::default(),
        };
        let mut rings = rings.into_iter();
        let shards: Vec<ShardStats> = (0..)
            .zip(counters)
            .map(|(q, c)| c.snapshot(q, rings.next().unwrap_or_default()))
            .collect();
        let outcomes = Outcomes::new(logs);
        let totals = ldp_metrics::PipelineTotals::from_shards(&shards);
        Ok(ReplayReport {
            send_duration_us: outcomes.send_duration_us(),
            outcomes,
            sent: totals.sent,
            answered: totals.answered,
            timeouts: totals.timeouts,
            retries: totals.retries,
            reconnects: totals.reconnects,
            gave_up: totals.gave_up,
            errors: totals.errors,
            shards,
            trace_error,
        })
    }
}

/// Bounded queue length per querier, in batches. With the default batch
/// size this gives the same ~4k-record read-ahead window as the previous
/// per-record channel, at 1/`batch_size` the synchronization cost.
const QUEUE_BATCHES: usize = 16;

/// `Timed`-mode partial batches flush once the input stream's trace time
/// has moved this far past their oldest record, so batch fill can never
/// delay a scheduled send (the reader runs well ahead of real time).
const BATCH_HORIZON_US: u64 = 100_000;

/// Answers read per `recvmmsg`: a burst of responses costs one syscall,
/// not one per answer. Only an answer's header is read, so the kernel
/// truncating an oversized datagram is harmless.
const RECV_BATCH: usize = 32;
const RECV_BUF: usize = 2_048;

/// A TCP connection's read buffer starts this small and doubles while a
/// frame does not fit, so a trace with thousands of sources stays cheap.
const TCP_READ_BUF: usize = 4_096;

/// How often the post-send drain looks for answers.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// One querier: the core, and the sockets and buffers its actions use.
struct LiveQuerier {
    server: SocketAddr,
    epoch: Instant,
    drain: Duration,
    core: Querier,
    counters: Arc<ShardCounters>,
    udp: Vec<UdpSocket>,
    /// Per connection index; `None` once it died, until the core reopens
    /// it.
    tcp: Vec<Option<TcpConn>>,
    readiness: Readiness,
    /// The core's wires, a connection run's frames back to back, and the
    /// wires a send could not put out.
    wires: Vec<Vec<u8>>,
    framed: Vec<u8>,
    failed: Vec<usize>,
    /// Tokens of the sockets the last wait reported ready.
    tokens: Vec<u64>,
    /// UDP: one buffer per datagram, and each datagram's length and stamp.
    datagrams: Vec<Vec<u8>>,
    got: Vec<(usize, Option<SystemTime>)>,
}

impl LiveQuerier {
    /// Feeds the core its batches until the Postman is done, carrying out
    /// what it asks for, then waits out the queries in flight: the adaptive
    /// drain ends as soon as nothing is in flight, `drain` after the last
    /// batch at the latest. Infallible by design — querier-level faults
    /// degrade to per-record [`ReplayError`] outcomes rather than aborting
    /// the replay. Returns the shard's outcome log.
    fn run(
        mut self,
        rx: Receiver<Vec<TraceRecord>>,
        recycle: SyncSender<Vec<TraceRecord>>,
    ) -> ShardLog {
        tighten_timer_slack();
        let mut drain_until = None;
        let mut read = true;
        loop {
            let fresh = std::mem::replace(&mut read, true);
            if fresh {
                self.read();
            }
            let now = self.now_ns();
            let action = self.core.poll(now, &mut self.wires);
            match action {
                Action::Open(sock, _) => {
                    let ok = self.open(sock);
                    self.core.opened(self.now_ns(), ok);
                    // The open is for a send, which reading would only
                    // delay; expiry still reads first.
                    read = self.core.expiring();
                }
                Action::Send(sock) | Action::Resend(sock) => {
                    // A TCP read stamps all the answers it returns with the
                    // last one's arrival: a wake that skipped the read reads
                    // a connection with answers due before writing it again.
                    if let (false, SockRef::Conn(k)) = (fresh, sock) {
                        if matches!(self.tcp.get(k as usize), Some(Some(c)) if c.unanswered > 0) {
                            self.read_tcp(k);
                        }
                    }
                    self.send(sock, action == Action::Resend(sock));
                    self.core.sent(self.now_ns(), &self.failed);
                }
                Action::Wait(at) => {
                    let at = at.map(|ns| self.epoch + Duration::from_nanos(ns));
                    if !self.core.idle() {
                        let at = at.unwrap_or_else(|| Instant::now() + DRAIN_POLL);
                        thread::sleep(at.saturating_duration_since(Instant::now()));
                        // As above: a send is due, or an expiry tick.
                        read = self.core.expiring();
                        continue;
                    }
                    let Some(until) = drain_until else {
                        let batch = match at {
                            None => rx.recv().ok(),
                            Some(at) => {
                                let wait = at.saturating_duration_since(Instant::now());
                                match rx.recv_timeout(wait) {
                                    Ok(batch) => Some(batch),
                                    Err(RecvTimeoutError::Disconnected) => None,
                                    Err(RecvTimeoutError::Timeout) => continue,
                                }
                            }
                        };
                        match batch {
                            Some(batch) => {
                                self.counters.queue_depth.sub(1);
                                // Recycling is best-effort; a full (or
                                // closed) return channel just means this
                                // spine gets reallocated.
                                let spent = self.core.feed(batch);
                                let _ = recycle.try_send(spent); // ldp-lint: allow(r5) -- spine recycling, not a query send
                            }
                            None => drain_until = Some(Instant::now() + self.drain),
                        }
                        continue;
                    };
                    let left = until.saturating_duration_since(Instant::now());
                    if self.core.in_flight() == 0 || left.is_zero() {
                        break;
                    }
                    thread::sleep(DRAIN_POLL.min(left));
                }
            }
        }
        self.core.into_log()
    }

    /// Nanoseconds since the replay epoch.
    fn now_ns(&self) -> u64 {
        nanos_since(self.epoch, Instant::now())
    }

    /// Binds UDP socket slot or opens connection `sock`. A connection
    /// reopened after it died keeps its index.
    fn open(&mut self, sock: SockRef) -> bool {
        match sock {
            SockRef::Udp(_) => {
                let Ok(socket) = ldp_io::bind_udp("127.0.0.1:0") else {
                    return false;
                };
                // Best effort: without stamps, a latency runs to its read.
                let _ = socket.set_arrival_stamps();
                self.readiness.add(&socket, u64::from(sock.token()));
                self.udp.push(socket);
            }
            SockRef::Conn(k) => {
                let Ok(conn) = TcpConn::open(self.server) else {
                    return false;
                };
                self.readiness.add(&conn.stream, u64::from(sock.token()));
                let k = k as usize;
                if k >= self.tcp.len() {
                    self.tcp.resize_with(k + 1, || None);
                }
                self.tcp[k] = Some(conn);
            }
        }
        true
    }

    /// Puts the core's wires on `sock`, noting in `failed` the ones that
    /// did not go out. A UDP run is one `sendmmsg`; any tail the kernel
    /// refuses goes out datagram by datagram, as a retransmit (`resend`)
    /// does. A connection's run is one
    /// write of its frames back to back; if it fails, the answers the
    /// connection still holds are read and it is closed.
    fn send(&mut self, sock: SockRef, resend: bool) {
        self.failed.clear();
        match sock {
            SockRef::Udp(s) => {
                let Some(socket) = self.udp.get(s as usize) else {
                    self.failed.extend(0..self.wires.len());
                    return;
                };
                let server = self.server;
                let accepted = if resend {
                    0
                } else {
                    socket.send_many_to(&self.wires, server).unwrap_or(0)
                };
                for (w, wire) in self.wires.iter().enumerate().skip(accepted) {
                    if socket.send_one_to(wire, server).is_err() {
                        self.failed.push(w);
                    }
                }
            }
            SockRef::Conn(k) => {
                self.framed.clear();
                for wire in &self.wires {
                    self.framed.extend_from_slice(wire);
                }
                let sent = match self.tcp.get_mut(k as usize) {
                    Some(Some(conn)) => {
                        conn.unanswered += self.wires.len();
                        (&conn.stream).write_all(&self.framed).is_ok()
                    }
                    _ => false,
                };
                if !sent {
                    self.read_tcp(k);
                    self.close_tcp(k);
                    self.failed.push(0);
                }
            }
        }
    }

    /// Reads every answer already queued on the querier's sockets, without
    /// blocking, into the core.
    fn read(&mut self) {
        let mut tokens = std::mem::take(&mut self.tokens);
        self.readiness.ready(&mut tokens);
        for &token in &tokens {
            match u32::try_from(token).map(SockRef::from_token) {
                Ok(SockRef::Udp(s)) => self.read_udp(s),
                Ok(SockRef::Conn(k)) => self.read_tcp(k),
                Err(_) => {}
            }
        }
        self.tokens = tokens;
    }

    fn read_udp(&mut self, slot: u32) {
        let Some(socket) = self.udp.get(slot as usize) else {
            return;
        };
        while let Ok(n) = socket.try_recv_many_stamped(&mut self.datagrams, &mut self.got) {
            let read = ReadClock::now();
            for (buf, &(len, stamp)) in self.datagrams.iter().zip(&self.got) {
                let at = read.arrival_ns(stamp, self.epoch);
                let msg = &buf[..len.min(buf.len())];
                self.core.answer(SockRef::Udp(slot), msg, at);
            }
            if n < self.datagrams.len() {
                return;
            }
        }
    }

    /// Reads connection `k`; EOF or a read error closes it.
    fn read_tcp(&mut self, k: u32) {
        let epoch = self.epoch;
        let open = match self.tcp.get_mut(k as usize) {
            Some(Some(conn)) => conn.read_answers(&mut self.core, k, epoch),
            _ => return,
        };
        if !open {
            self.close_tcp(k);
        }
    }

    fn close_tcp(&mut self, k: u32) {
        if let Some(slot) = self.tcp.get_mut(k as usize) {
            *slot = None;
        }
        self.core.closed(SockRef::Conn(k));
    }
}

/// Sets the calling thread's timer slack to 1 ns, so the kernel ends a
/// pacing sleep at its deadline instead of coalescing the wakeup up to the
/// default 50 µs later. Called once by each querier thread; a no-op off
/// Linux or when the kernel refuses.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    // SAFETY: PR_SET_TIMERSLACK takes its value by argument and touches
    // no memory of ours.
    unsafe {
        libc::prctl(libc::PR_SET_TIMERSLACK, 1u64);
    }
}

/// Nanoseconds from `start` to `t` (0 if `t` is earlier).
fn nanos_since(start: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// The moment of a read on both clocks. Kernel arrival stamps are
/// wall-clock time (`CLOCK_REALTIME`) while the engine measures on
/// [`Instant`], so a stamp converts through the pair taken right after
/// the read.
#[derive(Clone, Copy)]
pub(crate) struct ReadClock {
    pub(crate) at: Instant,
    pub(crate) wall: SystemTime,
}

impl ReadClock {
    pub(crate) fn now() -> ReadClock {
        ReadClock {
            at: Instant::now(),
            wall: SystemTime::now(),
        }
    }

    /// When an answer stamped `stamp` arrived, in ns on `epoch`, capped
    /// at the read: never after it was read. No stamp (off Linux) means
    /// the read. The core clamps it to no earlier than the query's send.
    pub(crate) fn arrival_ns(self, stamp: Option<SystemTime>, epoch: Instant) -> u64 {
        let at = stamp
            .and_then(|s| self.wall.duration_since(s).ok())
            .and_then(|age| self.at.checked_sub(age))
            .unwrap_or(self.at)
            .min(self.at);
        nanos_since(epoch, at)
    }
}

/// One source's TCP connection. Only the querier reads it, without
/// blocking, into a buffer reused across reads.
struct TcpConn {
    stream: TcpStream,
    /// Bytes read but not yet credited: a frame still arriving.
    buf: Vec<u8>,
    filled: usize,
    /// Frames written minus frames read back.
    unanswered: usize,
}

impl TcpConn {
    fn open(server: SocketAddr) -> io::Result<TcpConn> {
        let stream = TcpStream::connect(server)?;
        stream.set_nodelay(true)?;
        // Best effort: without stamps, a latency runs to its read.
        let _ = stream.set_arrival_stamps();
        Ok(TcpConn {
            stream,
            buf: vec![0; TCP_READ_BUF],
            filled: 0,
            unanswered: 0,
        })
    }

    /// Reads whatever has arrived and hands every whole frame in it to the
    /// core as an answer on connection `k`; a partial frame waits in the
    /// buffer for the next read. Each answer takes the stamp of the read
    /// that completed it: the arrival of the last segment that read
    /// returned. Returns `false` once the peer has closed or the read
    /// failed.
    fn read_answers(&mut self, core: &mut Querier, k: u32, epoch: Instant) -> bool {
        loop {
            if self.filled == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let space = self.buf.len() - self.filled;
            let (n, stamp) = match self.stream.try_read_stamped(&mut self.buf[self.filled..]) {
                Ok((0, _)) => return false,
                Ok(read) => read,
                Err(e) => {
                    return matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    )
                }
            };
            let at = ReadClock::now().arrival_ns(stamp, epoch);
            self.filled += n;
            let mut rest = &self.buf[..self.filled];
            while let Some((msg, tail)) = ldp_wire::framing::split_frame(rest) {
                core.answer(SockRef::Conn(k), msg, at);
                self.unanswered = self.unanswered.saturating_sub(1);
                rest = tail;
            }
            let used = self.filled - rest.len();
            self.buf.copy_within(used..self.filled, 0);
            self.filled -= used;
            if n < space {
                return true;
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use ldp_server::auth::AuthEngine;
    use ldp_server::live::LiveServer;
    use ldp_trace::Protocol;
    use ldp_wire::{Name, RrType};
    use ldp_workload::zones::wildcard_example_zone;
    use ldp_zone::ZoneSet;
    use std::collections::HashMap;
    use std::net::IpAddr;

    mod telemetry {
        include!("../tests/support/telemetry.rs");
    }

    fn engine() -> Arc<AuthEngine> {
        let mut set = ZoneSet::new();
        set.insert(wildcard_example_zone());
        Arc::new(AuthEngine::with_zones(Arc::new(set)))
    }

    /// The report's counts, taken from its shards, equal counts taken
    /// over its outcomes: every record is either sent or an error.
    fn assert_counts_match_outcomes(report: &ReplayReport) {
        let outcomes = &report.outcomes;
        let sent = outcomes.iter().filter(|o| o.error.is_none()).count();
        let errors = outcomes.iter().filter(|o| o.error.is_some()).count();
        let answered = outcomes.iter().filter(|o| o.latency_us.is_some()).count();
        assert_eq!(report.sent, sent as u64);
        assert_eq!(report.errors, errors as u64);
        assert_eq!(report.sent + report.errors, outcomes.len() as u64);
        assert_eq!(report.answered, answered as u64);
        let offsets = || outcomes.iter().map(|o| o.sent_offset_us);
        let span = match (offsets().min(), offsets().max()) {
            (Some(lo), Some(hi)) => (hi - lo).max(1),
            _ => 0,
        };
        assert_eq!(report.send_duration_us, span);
    }

    fn trace(n: u64, gap_us: u64, protocol: Protocol) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let mut rec = TraceRecord::udp_query(
                    i * gap_us,
                    format!("10.0.0.{}", 1 + i % 5).parse().unwrap(),
                    (1024 + i % 60000) as u16,
                    Name::parse(&format!("q{i}.example.com")).unwrap(),
                    RrType::A,
                );
                rec.protocol = protocol;
                rec
            })
            .collect()
    }

    /// Live pacing; its exact timing is checked on a virtual clock by
    /// `querier::tests::udp_replay_answers_and_times`.
    #[test]
    fn udp_replay_answers_and_times() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let replay = LiveReplay::new(server.addr);
        let report = replay.run(trace(200, 2_000, Protocol::Udp)).unwrap();
        assert_eq!(report.sent, 200);
        assert!(
            report.answered >= 195,
            "answered only {}/200",
            report.answered
        );
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.sent_offset_us >= o.target_offset_us));
    }

    #[test]
    fn fast_mode_outruns_trace_timing() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        // Trace nominally spans 10s; fast mode must finish way earlier.
        let t0 = Instant::now();
        let report = replay.run(trace(500, 20_000, Protocol::Udp)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(report.sent, 500);
        assert!(report.achieved_qps() > 500.0);
    }

    #[test]
    fn tcp_replay_reuses_connections() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        let report = replay.run(trace(100, 1_000, Protocol::Tcp)).unwrap();
        assert_eq!(report.sent, 100);
        assert_counts_match_outcomes(&report);
        assert!(report.answered >= 95, "answered {}", report.answered);
        // 100 queries from 5 distinct sources: connections ≪ queries.
        let conns = server
            .stats
            .tcp_connections
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(conns <= 10, "expected ≤10 connections, saw {conns}");
    }

    #[test]
    fn streamed_replay_from_encoded_trace() {
        // Round-trip through the on-disk stream format and replay without
        // materializing the trace (the §3 Reader pre-load path).
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let records = trace(300, 1_000, Protocol::Udp);
        let bytes = ldp_trace::stream::to_bytes(&records).unwrap();
        let reader = ldp_trace::stream::StreamReader::new(std::io::Cursor::new(bytes)).unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.drain = Duration::from_millis(800);
        let report = replay.run_iter(reader).unwrap();
        assert_eq!(report.sent, 300);
        // Fast-blasting 300 UDP datagrams while sibling tests contend for
        // the same core can overflow socket buffers; require a strong
        // majority rather than near-perfection.
        assert!(report.answered >= 240, "answered {}", report.answered);
    }

    #[test]
    fn streamed_replay_empty_input() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let report = LiveReplay::new(server.addr)
            .run_iter(std::iter::empty())
            .unwrap();
        assert_eq!(report.sent, 0);
    }

    #[test]
    fn empty_trace_is_fine() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let report = LiveReplay::new(server.addr).run(vec![]).unwrap();
        assert_eq!(report.sent, 0);
        assert_counts_match_outcomes(&report);
        assert_eq!(report.achieved_qps(), 0.0);
    }

    /// Regression for the Figure 6 accounting bug: at `speed != 1.0` the
    /// old metric compared send times against the *unscaled* trace
    /// offset, so a half-time replay reported ~half the trace span as
    /// "error". Targets must be the scaled offsets; that every record goes
    /// out exactly at its target is checked on a virtual clock by
    /// `querier::tests::timing_errors_stay_small_at`.
    fn timing_errors_stay_small_at(speed: f64) {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Timed { speed };
        // 100 records spanning 300 ms of trace time.
        let report = replay.run(trace(100, 3_000, Protocol::Udp)).unwrap();
        assert_eq!(report.sent, 100);
        // Never early: the error metric is never negative.
        assert!(report.timing_errors_ms().iter().all(|&e| e >= 0.0));
        // Targets really are the scaled offsets.
        for o in &report.outcomes {
            let want = (o.trace_offset_us as f64 * speed) as u64;
            let diff = o.target_offset_us.abs_diff(want);
            assert!(
                diff <= 1,
                "target {} vs scaled trace offset {want} (speed {speed})",
                o.target_offset_us
            );
        }
    }

    #[test]
    fn timing_errors_correct_at_double_speed() {
        timing_errors_stay_small_at(0.5);
    }

    #[test]
    fn timing_errors_correct_at_half_speed() {
        timing_errors_stay_small_at(2.0);
    }

    #[test]
    fn shard_stats_cover_all_sends() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.batch_size = 32;
        let report = replay.run(trace(400, 500, Protocol::Udp)).unwrap();
        assert_eq!(report.sent, 400);
        assert_counts_match_outcomes(&report);
        let totals = ldp_metrics::PipelineTotals::from_shards(&report.shards);
        assert_eq!(totals.sent, report.sent);
        assert_eq!(totals.answered, report.answered);
        assert!(totals.batches >= report.shards.iter().filter(|s| s.sent > 0).count() as u64);
        // Every active shard drained at least one batch and observed its
        // queue depth at enqueue time.
        for s in report.shards.iter().filter(|s| s.sent > 0) {
            assert!(s.batches > 0, "shard {} sent but drained no batch", s.shard);
            assert!(
                !s.depths.is_empty(),
                "shard {} has no depth samples",
                s.shard
            );
        }
        // Fast mode never counts lateness.
        assert_eq!(totals.late, 0);
    }

    #[test]
    fn fast_mode_preserves_same_source_order_across_batches() {
        // Batch boundaries must not reorder a source's queries: outcomes
        // carry trace offsets, and per source they must be sent in trace
        // order (monotone sent offsets when sorted by trace offset).
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.batch_size = 16; // force many batch boundaries
        let report = replay.run(trace(600, 100, Protocol::Udp)).unwrap();
        assert_eq!(report.sent, 600);
        let mut by_src: HashMap<IpAddr, Vec<(u64, u64)>> = HashMap::new();
        for o in &report.outcomes {
            by_src
                .entry(o.src)
                .or_default()
                .push((o.trace_offset_us, o.sent_offset_us));
        }
        assert_eq!(by_src.len(), 5);
        for (src, mut sends) in by_src {
            sends.sort_unstable();
            assert!(
                sends.windows(2).all(|w| w[0].1 <= w[1].1),
                "source {src} reordered across batch boundaries"
            );
        }
    }

    /// `timestamps` bursts of `burst` records each, `gap_us` apart. The
    /// records of one burst share a timestamp and a source, so they land
    /// on one querier and one socket or connection and are all due at
    /// once: the pacer sends each burst as a coalesced run.
    fn bursty_trace(
        timestamps: u64,
        burst: u64,
        gap_us: u64,
        protocol: Protocol,
    ) -> Vec<TraceRecord> {
        let mut records = trace(timestamps * burst, 0, protocol);
        for (i, rec) in records.iter_mut().enumerate() {
            let t = i as u64 / burst;
            rec.time_us = t * gap_us;
            rec.src = format!("10.0.0.{}", 1 + t % 5).parse().unwrap();
        }
        records
    }

    fn timed_replay_is_never_early(protocol: Protocol) {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let report = LiveReplay::new(server.addr)
            .run(bursty_trace(40, 5, 2_000, protocol))
            .unwrap();
        assert_eq!(report.sent, 200);
        for o in report.outcomes.iter().filter(|o| o.error.is_none()) {
            assert!(
                o.sent_offset_us >= o.target_offset_us,
                "{protocol:?} record sent at {} µs, before its deadline {} µs",
                o.sent_offset_us,
                o.target_offset_us
            );
        }
        // Records sent in one run share a send-completion stamp; most
        // bursts (a batch boundary may split one) went out as one run.
        let mut by_target: HashMap<u64, Vec<u64>> = HashMap::new();
        for o in &report.outcomes {
            by_target
                .entry(o.target_offset_us)
                .or_default()
                .push(o.sent_offset_us);
        }
        let coalesced = by_target
            .values()
            .filter(|sent| sent.len() == 5 && sent.iter().all(|&s| s == sent[0]))
            .count();
        assert!(
            coalesced >= 20,
            "{protocol:?}: only {coalesced}/40 bursts coalesced"
        );
    }

    #[test]
    fn timed_udp_runs_are_never_early() {
        timed_replay_is_never_early(Protocol::Udp);
    }

    #[test]
    fn timed_tcp_runs_are_never_early() {
        timed_replay_is_never_early(Protocol::Tcp);
    }

    #[test]
    fn unencodable_record_degrades_to_an_encode_error() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        for protocol in [Protocol::Udp, Protocol::Tcp] {
            for mode in [ReplayMode::Timed { speed: 1.0 }, ReplayMode::Fast] {
                let mut records = trace(30, 1_000, protocol);
                // 65,536 questions overflow the 16-bit QDCOUNT.
                let q = records[10].message.questions[0].clone();
                records[10].message.questions.resize(65_536, q);
                assert!(matches!(
                    records[10].message.to_bytes(),
                    Err(ldp_wire::WireError::MessageTooLong(65_536))
                ));
                let mut replay = LiveReplay::new(server.addr);
                replay.mode = mode;
                let report = replay.run(records).unwrap();
                let what = format!("{protocol:?} {mode:?}");
                assert_eq!(report.outcomes.len(), 30, "{what}");
                assert_eq!(report.errors, 1, "{what}");
                assert_eq!(report.sent, 29, "{what}");
                assert_counts_match_outcomes(&report);
                let encode = report
                    .outcomes
                    .iter()
                    .filter(|o| o.error == Some(ReplayError::Encode))
                    .count();
                assert_eq!(encode, 1, "{what}");
            }
        }
    }

    #[test]
    fn telemetry_counters_match_the_final_report() {
        let server = LiveServer::start(engine(), "127.0.0.1:0".parse().unwrap()).unwrap();
        let reg = Arc::new(ldp_telemetry::Registry::new());
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.telemetry = Some(reg.clone());
        let report = replay.run(trace(200, 1_000, Protocol::Udp)).unwrap();
        assert_eq!(report.sent, 200);
        telemetry::assert_telemetry_matches_report(&reg, &report);
    }
}
