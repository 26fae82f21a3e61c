//! The live replay engine (tokio, real sockets) — the implementation
//! behind the §4 fidelity and throughput experiments.
//!
//! Architecture (Figure 4 of the paper), rebuilt as a sharded batched
//! pipeline: the Controller's **Reader** decodes trace records and its
//! **Postman** routes them with same-source affinity through a
//! [`Batcher`], moving whole batches over bounded channels to one
//! **Querier** per shard. The paper runs these as processes across hosts
//! connected by TCP; here they are tokio tasks connected by channels —
//! the dataflow (sticky distribution, time-sync broadcast, per-querier
//! scheduling) is the same, and the throughput experiment (§4.3) measures
//! the same per-core replay limits.
//!
//! Batching is the hot-path lever: a channel hand-off costs a lock +
//! wakeup, so moving `batch_size` records per hand-off amortizes that
//! cost to near zero, and each querier drains a whole batch per wakeup.
//! Each record gets one row in its querier's outcome log
//! ([`crate::outcome`]), appended just before the record is sent and
//! filled in place by the send and by the answer. The drain sends *runs*:
//! consecutive records that are due and share a UDP socket slot or a TCP
//! connection go out as one `sendmmsg` or one framed write. In
//! [`ReplayMode::Fast`] every record is due. In
//! [`ReplayMode::Timed`] the querier sleeps to the run's first deadline
//! on [`ReplayClock`] — a plain kernel sleep, with the querier thread's
//! timer slack set to 1 ns — and records whose deadlines have passed by
//! then join the run. A record is never sent before its deadline, and a
//! querier waits asleep rather than spinning.
//!
//! Queriers keep one socket per original source (capped, LRU-less:
//! sources beyond the cap share by hash) so same-source queries reuse a
//! socket, and one TCP connection per source with reuse (§2.6).
//!
//! Each shard counts its events — sent/answered/late, faults, queue
//! depths, postman stalls — in one [`ShardCounters`] block, and nowhere
//! else. The querier, its ledger and the Postman write the cells; the
//! telemetry registry, when there is one, observes every cell; and the
//! report's [`ShardStats`] and totals are snapshots of the blocks taken
//! after the join. So the Figure 9 experiments can see *where* the
//! pipeline saturates, live or afterwards, and both views agree.
//!
//! A querier is the only thread that touches its sockets: as in the
//! paper, it takes the answers to the queries it sends. It reads them
//! without blocking after each run it sends — never before, so reading
//! cannot delay a send — and at every other wake: a batch's arrival, a
//! timeout-wheel tick while queries can still expire, a drain poll. One
//! `epoll_wait` with a zero timeout finds the sockets with answers queued,
//! however many sockets the querier holds. Expiry reads the sockets first,
//! so an answer still queued is never counted as lost. An answer may wait
//! in its socket while the querier sleeps toward its next send, so its
//! latency runs to the kernel's arrival stamp (`SO_TIMESTAMPNS`), not to
//! the read: the stamp is converted to the [`Instant`] clock and clamped
//! between the send and the read (off Linux, the read's time stands in).
//! Over TCP the stamp is the arrival of the last segment a read returns:
//! answers that arrive back to back while the querier sleeps share the
//! later stamp, so their RTT is overstated by at most their arrival gap.

use std::collections::HashMap;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use tokio::io::AsyncWriteExt;
use tokio::net::UdpSocket;
use tokio::sync::mpsc;
use tokio::task::JoinHandle;

use ldp_metrics::{DepthRing, ShardCounters, ShardStats};
use ldp_obs::{ReplaySpans, Stage};
use ldp_telemetry::MetricKind;
use ldp_trace::{Protocol, TraceRecord};

use crate::ledger::{Ledger, ObsCtx, PendingTable, ReadClock, SockRef};
use crate::outcome::{Outcomes, Row, ShardLog};
use crate::plan::{Batcher, ReplayPlan};
use crate::ready::Readiness;
use crate::retry::RetryPolicy;
use crate::timing::ReplayClock;

/// How the engine paces queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayMode {
    /// Faithful trace timing, optionally scaled by `speed`.
    ///
    /// `speed` multiplies inter-query delays, so **smaller is faster**:
    /// `0.5` replays in half the wall time (twice as fast), `2.0` in
    /// double (half speed). See [`ReplayClock::with_speed`] for the
    /// convention and DESIGN.md's replay section for why it is delay-
    /// scaling rather than a speedup factor.
    Timed { speed: f64 },
    /// As fast as possible (load testing, §4.3).
    Fast,
}

/// Why a trace record degraded to an unsent (or unanswerable) outcome
/// instead of aborting the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The querier could not bind a UDP socket for the record's source.
    Bind,
    /// TCP connect (including every reconnect attempt) failed.
    Connect,
    /// The kernel refused the send.
    Send,
    /// The record's message could not be encoded (or framed) for the wire.
    Encode,
}

/// Per-query result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Query time relative to trace start (µs, unscaled trace timeline).
    pub trace_offset_us: u64,
    /// Scheduled send time relative to the replay epoch (µs) — the trace
    /// offset *after* speed scaling, i.e. the deadline the engine aimed
    /// for. Equal to `trace_offset_us` at speed 1.0 and in `Fast` mode.
    pub target_offset_us: u64,
    /// Actual send time relative to the replay epoch (µs).
    pub sent_offset_us: u64,
    /// Response latency, if an answer arrived (µs).
    pub latency_us: Option<u64>,
    /// Original source address.
    pub src: IpAddr,
    pub protocol: Protocol,
    /// Replay-side failure, if the record never (successfully) went on
    /// the wire. Errored outcomes are excluded from `sent`.
    pub error: Option<ReplayError>,
}

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
    /// [`LiveReplay::run_stream`].
    pub async fn run(&self, records: Vec<TraceRecord>) -> std::io::Result<ReplayReport> {
        self.run_stream(records.into_iter().map(Ok)).await
    }

    /// Streaming variant: replays records pulled incrementally from a
    /// trace reader, never holding the whole trace in memory. This is the
    /// paper's §3 Reader: a bounded read-ahead window (`QUEUE_BATCHES`
    /// batches of `batch_size` records per querier) keeps input
    /// processing from falling behind real time while capping memory for
    /// multi-gigabyte traces. The Reader+Postman run on a blocking
    /// thread; routing stays sticky per source, and spines recycle back
    /// from queriers so steady-state batching is allocation-free.
    pub async fn run_stream<I>(&self, records: I) -> std::io::Result<ReplayReport>
    where
        I: Iterator<Item = Result<TraceRecord, ldp_trace::TraceError>> + Send + 'static,
    {
        let plan = ReplayPlan::new(self.distributors, self.queriers_per_distributor);
        let n_queriers = plan.querier_count();

        // The reader must see the first record to latch the trace epoch
        // before any querier starts; peel it off eagerly.
        let mut records = records;
        let first = match records.next() {
            None => return self.collect(&[], Vec::new(), None).await,
            Some(Err(e)) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    e.to_string(),
                ))
            }
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
        let (recycle_tx, mut recycle_rx) =
            mpsc::channel::<Vec<TraceRecord>>(n_queriers * QUEUE_BATCHES);

        let counters: Vec<Arc<ShardCounters>> = (0..n_queriers).map(|_| Arc::default()).collect();
        let mut txs = Vec::with_capacity(n_queriers);
        let mut handles = Vec::with_capacity(n_queriers);
        for (shard, c) in counters.iter().enumerate() {
            if let Some(reg) = &self.telemetry {
                register(reg, shard, c);
            }
            let (tx, rx) = mpsc::channel::<Vec<TraceRecord>>(QUEUE_BATCHES);
            txs.push(tx);
            handles.push(tokio::spawn(
                self.querier(shard, trace_epoch_us, epoch, c.clone())
                    .run(rx, recycle_tx.clone()),
            ));
        }
        drop(recycle_tx);

        let batch_size = self.batch_size.max(1);
        let horizon_us = match self.mode {
            // Never hold a timed record hostage to a slow-filling batch:
            // flush anything older than the horizon in trace time.
            ReplayMode::Timed { .. } => BATCH_HORIZON_US,
            ReplayMode::Fast => u64::MAX,
        };

        // Reader + Postman on a blocking thread: decode, route sticky,
        // batch, push with backpressure (a full querier queue parks the
        // reader — the pre-load bound). Counts stalls and queue depths
        // into the shards' blocks and returns the depth samples.
        let spans = self.obs.clone();
        let shard_counters = counters.clone();
        let postman = tokio::task::spawn_blocking(move || {
            ldp_telemetry::thread::set_name("reader-postman");
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
                    Err(mpsc::error::SendError(batch)) => {
                        // Full (or closed): count the stall, then block.
                        c.postman_stalls.bump(1);
                        txs[q].blocking_send(batch).is_ok()
                    }
                };
                if queued {
                    c.queue_depth.add(1);
                }
            };
            let read = |q: usize, read_seq: &mut Vec<u64>| {
                if let Some(spans) = &spans {
                    let t_us = epoch.elapsed().as_micros() as u64;
                    spans.record(q, read_seq[q], Stage::Read, t_us);
                }
                read_seq[q] += 1;
            };

            let q = batcher.push(first.src, first.time_us, first, &mut flushes);
            read(q, &mut read_seq);
            for (q, batch) in flushes.drain(..) {
                deliver(q, batch, &mut rings);
            }
            // A read error ends the input: a stream cannot resynchronize
            // after a bad frame. What was read still replays, and the
            // error goes into the report.
            let mut read_error = None;
            for rec in records {
                let rec = match rec {
                    Ok(rec) => rec,
                    Err(e) => {
                        read_error = Some(e);
                        break;
                    }
                };
                let q = batcher.push(rec.src, rec.time_us, rec, &mut flushes);
                read(q, &mut read_seq);
                for (q, batch) in flushes.drain(..) {
                    deliver(q, batch, &mut rings);
                }
                while let Some(spine) = recycle_rx.try_recv() {
                    batcher.donate(spine);
                }
            }
            for (q, batch) in batcher.finish() {
                deliver(q, batch, &mut rings);
            }
            (rings, read_error)
        });

        self.collect(&counters, handles, Some(postman)).await
    }

    fn querier(
        &self,
        shard: usize,
        trace_epoch_us: u64,
        epoch: Instant,
        counters: Arc<ShardCounters>,
    ) -> QuerierTask {
        QuerierTask {
            shard,
            server: self.server,
            mode: self.mode,
            trace_epoch_us,
            clock: ReplayClock::synchronize(trace_epoch_us, 0).with_speed(match self.mode {
                ReplayMode::Timed { speed } => speed,
                ReplayMode::Fast => 1.0,
            }),
            epoch,
            max_sockets: self.max_sockets_per_querier,
            drain: self.drain,
            retry: self.retry.clone(),
            obs: self.obs.as_ref().map(|spans| ObsCtx {
                spans: spans.clone(),
                shard,
                epoch,
            }),
            counters,
        }
    }

    /// Joins the queriers and the Postman, then snapshots each shard's
    /// counters into the report.
    async fn collect(
        &self,
        counters: &[Arc<ShardCounters>],
        handles: Vec<JoinHandle<ShardLog>>,
        postman: Option<JoinHandle<PostmanResult>>,
    ) -> std::io::Result<ReplayReport> {
        // Handles are in shard order, so the logs are too.
        let mut logs = Vec::with_capacity(handles.len());
        for h in handles {
            logs.push(
                h.await
                    .map_err(|e| std::io::Error::other(format!("querier task failed: {e}")))?,
            );
        }
        let (rings, trace_error) = match postman {
            Some(p) => p.await.unwrap_or_default(),
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

/// A `Timed` send is counted late in [`ShardStats`] when it misses its
/// scaled deadline by more than this (4× the paper's ±2.5 ms Figure 6
/// quartile window).
const LATE_BUDGET_US: u64 = 10_000;

/// Where a run goes: the UDP socket slot or the source's TCP connection
/// index, or nowhere because the bind/connect failed.
#[derive(Debug, Clone, Copy)]
enum Route {
    Udp(usize),
    Tcp(usize),
    Failed(ReplayError),
}

/// A trace source as one querier knows it: its address and its index in
/// the querier's source table, the index its outcome rows carry.
#[derive(Debug, Clone, Copy)]
struct Source {
    id: u32,
    addr: IpAddr,
}

/// Where a source's queries go, once known: its UDP socket slot (its own
/// or a shared one) and its TCP connection.
#[derive(Debug, Clone, Copy, Default)]
struct SourceRoutes {
    udp: Option<usize>,
    tcp: Option<usize>,
}

/// Scratch for one run, reused across a batch's runs.
#[derive(Default)]
struct RunBuf {
    /// Per record: its message id and its outcome (`None` = on the wire).
    ids: Vec<u16>,
    errs: Vec<Option<ReplayError>>,
    /// UDP: one datagram per encoded record.
    wires: Vec<Vec<u8>>,
    /// TCP: every encoded record's frame, back to back.
    framed: Vec<u8>,
}

struct QuerierTask {
    shard: usize,
    server: SocketAddr,
    mode: ReplayMode,
    trace_epoch_us: u64,
    clock: ReplayClock,
    epoch: Instant,
    max_sockets: usize,
    drain: Duration,
    retry: RetryPolicy,
    obs: Option<ObsCtx>,
    counters: Arc<ShardCounters>,
}

/// A telemetry family: its name, help, kind, and the reader of its cell.
pub type Family = (
    &'static str,
    &'static str,
    MetricKind,
    fn(&ShardCounters) -> u64,
);

/// The replay's telemetry families, one per cell of a shard's
/// [`ShardCounters`]. Each shard registers every family under its `shard`
/// label.
pub const FAMILIES: [Family; 16] = [
    (
        "ldp_replay_sent_total",
        "Queries put on the wire",
        MetricKind::Counter,
        |c| c.sent.get(),
    ),
    (
        "ldp_replay_answered_total",
        "Responses matched to an in-flight query",
        MetricKind::Counter,
        |c| c.answered.get(),
    ),
    (
        "ldp_replay_late_total",
        "Timed sends that missed their deadline by more than the lateness budget",
        MetricKind::Counter,
        |c| c.late.get(),
    ),
    (
        "ldp_replay_send_lag_us_total",
        "Cumulative actual-minus-scheduled send time in microseconds (Timed mode)",
        MetricKind::Counter,
        |c| c.send_lag_us.get(),
    ),
    (
        "ldp_replay_timeouts_total",
        "Send attempts that hit their timeout",
        MetricKind::Counter,
        |c| c.timeouts.get(),
    ),
    (
        "ldp_replay_retries_total",
        "UDP retransmissions put on the wire",
        MetricKind::Counter,
        |c| c.retries.get(),
    ),
    (
        "ldp_replay_reconnects_total",
        "TCP connections reopened after death",
        MetricKind::Counter,
        |c| c.reconnects.get(),
    ),
    (
        "ldp_replay_gave_up_total",
        "Queries retired with no answer after exhausting attempts",
        MetricKind::Counter,
        |c| c.gave_up.get(),
    ),
    (
        "ldp_replay_errors_total",
        "Bind/connect/encode/send failures degraded to error outcomes",
        MetricKind::Counter,
        |c| c.errors.get(),
    ),
    (
        "ldp_replay_id_collisions_total",
        "Queries overwritten because all 65,536 message ids were in flight",
        MetricKind::Counter,
        |c| c.id_collisions.get(),
    ),
    (
        "ldp_replay_mismatched_answers_total",
        "Answers whose id was in flight on another of the querier's sockets, not credited",
        MetricKind::Counter,
        |c| c.mismatched_answers.get(),
    ),
    (
        "ldp_replay_batches_total",
        "Batches drained from the querier's queue",
        MetricKind::Counter,
        |c| c.batches.get(),
    ),
    (
        "ldp_replay_postman_stalls_total",
        "Times the Postman found the querier's queue full and waited",
        MetricKind::Counter,
        |c| c.postman_stalls.get(),
    ),
    (
        "ldp_replay_max_queue_depth",
        "Deepest the querier's queue got, in batches",
        MetricKind::Gauge,
        |c| c.max_queue_depth.get(),
    ),
    (
        "ldp_replay_queue_depth",
        "Batches queued at the querier (Postman backlog)",
        MetricKind::Gauge,
        |c| c.queue_depth.get(),
    ),
    (
        "ldp_replay_in_flight",
        "Outstanding queries awaiting an answer or expiry",
        MetricKind::Gauge,
        |c| c.in_flight.get(),
    ),
];

/// Registers every cell of shard `shard`'s block in `reg`.
fn register(reg: &ldp_telemetry::Registry, shard: usize, counters: &Arc<ShardCounters>) {
    let shard = shard.to_string();
    for (name, help, kind, read) in FAMILIES {
        let c = counters.clone();
        reg.observe(name, help, kind, &[("shard", &shard)], move || read(&c));
    }
}

/// Answers read per `recvmmsg`: a burst of responses costs one syscall,
/// not one per answer. The buffers are deliberately tiny — only the
/// 2-byte message id is read from an answer, so the kernel truncating an
/// oversized datagram is harmless.
const RECV_BATCH: usize = 32;
const RECV_BUF: usize = 2_048;

/// A TCP connection's read buffer starts this small and doubles while a
/// frame does not fit, so a trace with thousands of sources stays cheap.
const TCP_READ_BUF: usize = 4_096;

/// How often the post-send drain looks for answers.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Scratch for reads and expiry, reused across wakes.
struct ReadBufs {
    /// Tokens of the sockets the last wait reported ready.
    tokens: Vec<u64>,
    /// UDP: one buffer per datagram, and each datagram's length and stamp.
    datagrams: Vec<Vec<u8>>,
    got: Vec<(usize, Option<SystemTime>)>,
    /// Expiry: due wheel entries and the retransmits they call for, as
    /// (UDP socket slot, id).
    due: Vec<(u16, u8)>,
    resend: Vec<(u32, u16)>,
}

/// Socket/connection state one querier owns, factored out so the batch
/// loops can borrow it alongside the batch being drained. The querier is
/// the only thread that touches any of it.
struct QuerierState {
    server: SocketAddr,
    max_sockets: usize,
    udp: Vec<UdpSocket>,
    /// One connection per source; `None` once it died, until the next
    /// send to that source reopens it.
    tcp: Vec<Option<TcpConn>>,
    /// Source address → index in the outcome log's source table.
    source_ids: HashMap<IpAddr, u32>,
    /// Per source index: its socket slot and connection.
    routes: Vec<SourceRoutes>,
    readiness: Readiness,
    /// One ledger for the whole querier, shared by every socket and
    /// connection: ids come from the querier-wide counter, so they are
    /// unique across the querier's sockets — and a single table stays a
    /// single table when a high-source trace fans out to hundreds of
    /// sockets.
    ledger: Ledger,
    bufs: ReadBufs,
    policy: RetryPolicy,
    next_id: u16,
}

impl QuerierState {
    /// `addr` with its index in the source table, adding it on first
    /// sight.
    fn source(&mut self, addr: IpAddr) -> Source {
        let (log, routes) = (&mut self.ledger.log, &mut self.routes);
        let id = *self.source_ids.entry(addr).or_insert_with(|| {
            routes.push(SourceRoutes::default());
            log.add_source(addr)
        });
        Source { id, addr }
    }

    /// Appends `rec`'s outcome row, from source `src`, to the log.
    fn add_row(&mut self, rec: &TraceRecord, src: Source) {
        let log = &mut self.ledger.log;
        log.push(Row::new(
            log.trace_offset_us(rec.time_us),
            src.id,
            rec.protocol,
        ));
    }

    fn routes_mut(&mut self, src: Source) -> Option<&mut SourceRoutes> {
        self.routes.get_mut(src.id as usize)
    }

    /// UDP socket slot for `src`, creating one under the cap, sharing by
    /// hash beyond it. `None` means the bind failed; the caller degrades
    /// the record(s) to [`ReplayError::Bind`] outcomes — the failure is
    /// *not* cached, so the next record for this source tries again.
    async fn udp_slot(&mut self, src: Source) -> Option<usize> {
        if let Some(s) = self.known_udp_slot(src) {
            return Some(s);
        }
        let socket = UdpSocket::bind("127.0.0.1:0").await.ok()?;
        // Best effort: without stamps, a latency runs to its read.
        let _ = socket.set_arrival_stamps();
        let s = self.udp.len();
        self.readiness
            .add(&socket, u64::from(SockRef::Udp(s as u32).token()));
        self.udp.push(socket);
        if let Some(r) = self.routes_mut(src) {
            r.udp = Some(s);
        }
        Some(s)
    }

    /// The UDP socket slot `src` maps to without binding a new socket:
    /// its own socket, or a shared one once the cap is reached (shared by
    /// source hash).
    fn known_udp_slot(&mut self, src: Source) -> Option<usize> {
        let shared = self.udp.len() >= self.max_sockets && !self.udp.is_empty();
        let n = self.udp.len();
        let r = self.routes_mut(src)?;
        if r.udp.is_none() && shared {
            r.udp = Some(hash_ip(src.addr) % n);
        }
        r.udp
    }

    /// Index of a live TCP connection for `src`, (re)opening — with capped
    /// backoff up to the policy's attempt budget — when absent or dead.
    /// `None` means every attempt failed; the caller degrades the
    /// record(s) to [`ReplayError::Connect`] outcomes.
    async fn tcp_conn(&mut self, src: Source) -> Option<usize> {
        let known = self.routes.get(src.id as usize).and_then(|r| r.tcp);
        if let Some(i) = known.filter(|&i| matches!(self.tcp.get(i), Some(Some(_)))) {
            return Some(i);
        }
        let attempts = self.policy.tcp_reconnect_attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                let pause = self
                    .policy
                    .tcp_reconnect_backoff
                    .delay(attempt - 1, hash_ip(src.addr) as u64);
                tokio::time::sleep(pause).await;
            }
            let Ok(conn) = TcpConn::open(self.server).await else {
                continue;
            };
            let i = match known {
                Some(i) => {
                    self.ledger.counters.reconnects.bump(1);
                    i
                }
                None => {
                    let i = self.tcp.len();
                    self.tcp.push(None);
                    if let Some(r) = self.routes_mut(src) {
                        r.tcp = Some(i);
                    }
                    i
                }
            };
            self.readiness
                .add(&conn.stream, u64::from(SockRef::Tcp(i as u32).token()));
            if let Some(slot) = self.tcp.get_mut(i) {
                *slot = Some(conn);
            }
            return Some(i);
        }
        None
    }

    /// The next message id with no query in flight. Only when all 65,536
    /// ids are outstanding is one reused: the query holding it is
    /// overwritten, and the overwrite counted in `id_collisions`.
    fn fresh_id(&mut self) -> u16 {
        let ledger = &self.ledger;
        self.next_id = ledger
            .pending
            .allot_id(self.next_id, &ledger.counters.id_collisions);
        self.next_id
    }

    /// Reads every answer already queued on the querier's sockets, without
    /// blocking, then expires the attempts that are due. Reading first
    /// means an answer that arrived in time is never counted as lost.
    async fn service(&mut self) {
        let mut tokens = std::mem::take(&mut self.bufs.tokens);
        self.readiness.ready(&mut tokens);
        for &token in &tokens {
            match u32::try_from(token).map(SockRef::from_token) {
                Ok(SockRef::Udp(s)) => self.read_udp(s as usize),
                Ok(SockRef::Tcp(i)) => self.read_tcp(i as usize),
                Err(_) => {}
            }
        }
        self.bufs.tokens = tokens;
        if self.policy.is_enabled() {
            self.expire().await;
        }
        let ledger = &self.ledger;
        ledger
            .counters
            .in_flight
            .set(ledger.pending.in_flight as u64);
    }

    /// Whether an in-flight query can still expire, so that a wait must
    /// wake at each wheel tick.
    fn expiring(&self) -> bool {
        self.policy.is_enabled() && self.ledger.pending.in_flight > 0
    }

    /// Sleeps until `at`. While queries can still expire, wakes at each
    /// wheel tick on the way, so expiry never waits on pacing.
    async fn pause_until(&mut self, at: Instant) {
        while self.expiring() {
            let tick = Instant::now() + crate::retry::TimeoutWheel::TICK;
            if tick >= at {
                break;
            }
            tokio::time::sleep_until(tick.into()).await;
            self.service().await;
        }
        tokio::time::sleep_until(at.into()).await;
    }

    /// The next batch from the Postman. A batch already queued is taken
    /// at once; otherwise the wait wakes at each wheel tick while queries
    /// can still expire, and the batch's arrival is a wake of its own.
    async fn next_batch(
        &mut self,
        rx: &mut mpsc::Receiver<Vec<TraceRecord>>,
    ) -> Option<Vec<TraceRecord>> {
        if let Some(batch) = rx.try_recv() {
            return Some(batch);
        }
        let batch = loop {
            if !self.expiring() {
                break rx.recv().await;
            }
            let tick = crate::retry::TimeoutWheel::TICK;
            if let Ok(batch) = tokio::time::timeout(tick, rx.recv()).await {
                break batch;
            }
            self.service().await;
        };
        self.service().await;
        batch
    }

    /// Adaptive drain: polls until every in-flight query is answered,
    /// retried out, or expired — `drain` is only the hard cap (and the
    /// whole wait when expiry is disabled and answers were lost).
    async fn finish(&mut self, drain: Duration) {
        let hard_deadline = Instant::now() + drain;
        loop {
            self.service().await;
            let left = hard_deadline.saturating_duration_since(Instant::now());
            if self.ledger.pending.in_flight == 0 || left.is_zero() {
                return;
            }
            tokio::time::sleep(DRAIN_POLL.min(left)).await;
        }
    }

    fn read_udp(&mut self, slot: usize) {
        let Some(socket) = self.udp.get(slot) else {
            return;
        };
        let sock = SockRef::Udp(slot as u32);
        let bufs = &mut self.bufs;
        while let Ok(n) = socket.try_recv_many_stamped(&mut bufs.datagrams, &mut bufs.got) {
            let read = ReadClock::now();
            for (buf, &(len, stamp)) in bufs.datagrams.iter().zip(&bufs.got) {
                if let (2.., [a, b, ..]) = (len, buf.as_slice()) {
                    self.ledger
                        .answer(u16::from_be_bytes([*a, *b]), sock, stamp, read);
                }
            }
            if n < bufs.datagrams.len() {
                return;
            }
        }
    }

    /// Reads TCP connection `i`; EOF or a read error closes it.
    fn read_tcp(&mut self, i: usize) {
        if let Some(slot) = self.tcp.get_mut(i) {
            let sock = SockRef::Tcp(i as u32);
            if slot
                .as_mut()
                .is_some_and(|c| !c.read_answers(&mut self.ledger, sock))
            {
                *slot = None;
            }
        }
    }

    /// Closes TCP connection `i` after a failed write, crediting the
    /// answers it still holds first.
    fn close_tcp(&mut self, i: usize) {
        self.read_tcp(i);
        if let Some(slot) = self.tcp.get_mut(i) {
            *slot = None;
        }
    }

    /// Expires the attempts that are due and puts their retransmits on
    /// the wire.
    async fn expire(&mut self) {
        let (bufs, ledger) = (&mut self.bufs, &mut self.ledger);
        ledger.pending.sweep(
            Instant::now(),
            &self.policy,
            &ledger.counters,
            &mut bufs.due,
            &mut bufs.resend,
            ledger.obs.as_ref(),
        );
        for (s, id) in bufs.resend.drain(..) {
            let (Some(socket), Some(wire)) = (self.udp.get(s as usize), ledger.pending.wire(id))
            else {
                continue;
            };
            // A retransmit the kernel refuses never reached the wire: it
            // is neither a retry nor a record error (the record was sent),
            // and the attempt expires at its deadline as usual.
            if socket.send_to(wire, self.server).await.is_ok() {
                ledger.counters.retries.bump(1);
            }
        }
    }
}

impl QuerierTask {
    /// Drains batches until the Postman is done, then waits out the
    /// queries in flight. Infallible by design — querier-level faults
    /// degrade to per-record [`ReplayError`] outcomes rather than aborting
    /// the replay. Returns the shard's outcome log.
    async fn run(
        self,
        mut rx: mpsc::Receiver<Vec<TraceRecord>>,
        recycle: mpsc::Sender<Vec<TraceRecord>>,
    ) -> ShardLog {
        ldp_telemetry::thread::set_name(&format!("querier-{}", self.shard));
        crate::timing::tighten_timer_slack();
        let mut state = QuerierState {
            server: self.server,
            max_sockets: self.max_sockets,
            udp: Vec::new(),
            tcp: Vec::new(),
            source_ids: HashMap::new(),
            routes: Vec::new(),
            readiness: Readiness::new(),
            ledger: Ledger {
                pending: PendingTable::new(Instant::now()),
                log: ShardLog::new(self.trace_epoch_us, self.clock),
                obs: self.obs.clone(),
                counters: self.counters.clone(),
            },
            bufs: ReadBufs {
                tokens: Vec::new(),
                datagrams: (0..RECV_BATCH).map(|_| vec![0u8; RECV_BUF]).collect(),
                got: Vec::with_capacity(RECV_BATCH),
                due: Vec::new(),
                resend: Vec::new(),
            },
            policy: self.retry.clone(),
            next_id: 0,
        };
        let mut last_deadline_us: u64 = 0;

        while let Some(mut batch) = state.next_batch(&mut rx).await {
            self.counters.queue_depth.sub(1);
            self.counters.batches.bump(1);
            self.drain(&mut batch, &mut state, &mut last_deadline_us)
                .await;
            batch.clear();
            // Recycling is best-effort; a full (or closed) return channel
            // just means this spine gets reallocated.
            let _ = recycle.try_send(batch); // ldp-lint: allow(r5) -- spine recycling, not a query send
        }
        state.finish(self.drain).await;
        state.ledger.log
    }

    /// Drains one batch as a sequence of *runs*: consecutive records that
    /// are due and map to the same UDP socket slot or the same TCP
    /// connection. In `Fast` mode every record is due. In `Timed` mode the
    /// run's first record is paced — a plain kernel sleep to its absolute
    /// deadline — and a later record joins once its own deadline has
    /// passed, so no record is ever sent early. Each run goes out as one
    /// `sendmmsg` or one framed write, and the querier then reads whatever
    /// answers have arrived. Faults never abort: a bind, connect,
    /// encode or send failure degrades that record to a [`ReplayError`]
    /// outcome and the loop moves on.
    ///
    /// Every record's outcome row is appended before its run is sent, so
    /// an answer read mid-send (a failed TCP write reads what its
    /// connection still holds) finds its row.
    ///
    /// Each error-free send is counted in `sent`; in Timed mode, how far
    /// behind its deadline it went out goes into `send_lag_us` (the §3
    /// drift signal), and a miss beyond [`LATE_BUDGET_US`] into `late`.
    async fn drain(
        &self,
        batch: &mut [TraceRecord],
        state: &mut QuerierState,
        last_deadline_us: &mut u64,
    ) {
        let timed = matches!(self.mode, ReplayMode::Timed { .. });
        let c = &self.counters;
        let mut run = RunBuf::default();
        // Rows are appended in record order: record k's row is base + k.
        let base = state.ledger.log.len();
        let mut i = 0;
        while i < batch.len() {
            if let Some(o) = &self.obs {
                o.record_at(base + i, Stage::Scheduled, self.now_us());
            }
            if timed {
                // Invariant: the plan feeds each querier records in trace
                // order, so real-clock deadlines are monotone — a
                // regression here would silently reorder the replay.
                let deadline = self.clock.target_real_us(batch[i].time_us);
                debug_assert!(
                    deadline >= *last_deadline_us,
                    "deadline went backwards: {deadline} < {last_deadline_us}"
                );
                *last_deadline_us = deadline;
                state
                    .pause_until(self.epoch + Duration::from_micros(deadline))
                    .await;
            }

            // Live mode carries TLS/QUIC as TCP: handshake emulation is a
            // simulator concern; live TCP still exercises framing and
            // connection reuse.
            let src = state.source(batch[i].src);
            let route = if batch[i].protocol == Protocol::Udp {
                state
                    .udp_slot(src)
                    .await
                    .map_or(Route::Failed(ReplayError::Bind), Route::Udp)
            } else {
                state
                    .tcp_conn(src)
                    .await
                    .map_or(Route::Failed(ReplayError::Connect), Route::Tcp)
            };
            state.add_row(&batch[i], src);
            // Grow the run by every following record that is already due
            // and rides the same socket or connection. A failed bind or
            // connect degrades its record alone: the next record tries
            // again.
            let now_us = self.now_us();
            let mut j = i + 1;
            while let Some(rec) = batch.get(j) {
                let joins = match route {
                    Route::Udp(s) if rec.protocol == Protocol::Udp => {
                        let other = state.source(rec.src);
                        (state.known_udp_slot(other) == Some(s)).then_some(other)
                    }
                    Route::Tcp(_) if rec.protocol != Protocol::Udp => {
                        (rec.src == src.addr).then_some(src)
                    }
                    Route::Udp(_) | Route::Tcp(_) | Route::Failed(_) => None,
                };
                let Some(rec_src) = joins else {
                    break;
                };
                if timed {
                    let deadline = self.clock.target_real_us(rec.time_us);
                    if deadline > now_us {
                        break;
                    }
                    *last_deadline_us = deadline;
                }
                if let Some(o) = &self.obs {
                    o.record_at(base + j, Stage::Scheduled, now_us);
                }
                state.add_row(rec, rec_src);
                j += 1;
            }

            let (wire_stamp_us, sent_offset_us) = self
                .send_run(&mut batch[i..j], base + i, src, route, state, &mut run)
                .await;
            for (x, rec) in batch[i..j].iter().enumerate() {
                let slot = base + i + x;
                let error = run.errs[x];
                state.ledger.log.sent(slot, sent_offset_us, error);
                if error.is_some() {
                    continue;
                }
                c.sent.bump(1);
                if let Some(o) = &self.obs {
                    o.record_at(slot, Stage::Sent, wire_stamp_us);
                }
                if timed {
                    let target_offset_us = self.clock.target_real_us(rec.time_us);
                    c.send_lag_us
                        .bump(sent_offset_us.saturating_sub(target_offset_us));
                    if sent_offset_us > target_offset_us + LATE_BUDGET_US {
                        c.late.bump(1);
                    }
                }
            }
            // Answers are read after each run, never before, so reading
            // them cannot delay a send.
            state.service().await;
            i = j;
        }
    }

    /// Stamps ids on one run, encodes it, registers its in-flight entries
    /// in the pending table, and puts it on the wire. Leaves one
    /// result per record in `run.errs`. Returns the span stamp taken just
    /// before the send and the send-completion offset (µs on the epoch).
    async fn send_run(
        &self,
        recs: &mut [TraceRecord],
        base: usize,
        src: Source,
        route: Route,
        state: &mut QuerierState,
        run: &mut RunBuf,
    ) -> (u64, u64) {
        run.errs.clear();
        run.ids.clear();
        run.wires.clear();
        run.framed.clear();
        let sock = match route {
            Route::Failed(e) => {
                run.errs.resize(recs.len(), Some(e));
                self.counters.errors.bump(recs.len() as u64);
                let now_us = self.now_us();
                return (now_us, now_us);
            }
            Route::Udp(slot) => SockRef::Udp(slot as u32),
            Route::Tcp(i) => SockRef::Tcp(i as u32),
        };
        // A record that fails to encode is never registered, so the
        // pending table only ever holds ids that go on the wire.
        for rec in recs.iter_mut() {
            let id = state.fresh_id();
            rec.message.header.id = id;
            let error = match rec.message.to_bytes() {
                Ok(wire) if matches!(sock, SockRef::Tcp(_)) => {
                    match ldp_wire::framing::frame_message(&wire) {
                        Ok(framed) => {
                            run.framed.extend_from_slice(&framed);
                            None
                        }
                        Err(_) => Some(ReplayError::Encode),
                    }
                }
                Ok(wire) => {
                    run.wires.push(wire);
                    None
                }
                Err(_) => Some(ReplayError::Encode),
            };
            if error.is_some() {
                self.counters.errors.bump(1);
            }
            run.ids.push(id);
            run.errs.push(error);
        }
        // TCP entries get an expiry too, although the send path (not
        // expiry) owns reconnection: without one, a query lost to a reset
        // connection would pin the adaptive drain to its cap.
        let sent_at = Instant::now();
        let mut wires = run.wires.iter();
        for (x, error) in run.errs.iter().enumerate() {
            if error.is_none() {
                let wire = match sock {
                    SockRef::Udp(_) => wires.next().map_or(&[][..], Vec::as_slice),
                    SockRef::Tcp(_) => &[],
                };
                state.ledger.pending.insert(
                    run.ids[x],
                    base + x,
                    sent_at,
                    sock,
                    wire,
                    &state.policy,
                );
            }
        }

        // The span's `Sent` stamp is the registration instant, taken
        // before the send: an answer's arrival is clamped to no earlier
        // than it, so `Answered` never precedes `Sent`. The report's
        // `sent_offset_us` still measures send *completion*.
        let wire_stamp_us = sent_at.saturating_duration_since(self.epoch).as_micros() as u64;
        match route {
            Route::Udp(slot) => {
                // One sendmmsg carries the whole run; any tail the kernel
                // refuses goes out individually, and a send that still
                // fails degrades that record.
                let socket = &state.udp[slot];
                let accepted = socket
                    .send_many_to(&run.wires, self.server)
                    .await
                    .unwrap_or(0);
                let mut w = 0;
                for (x, error) in run.errs.iter_mut().enumerate() {
                    if error.is_some() {
                        continue;
                    }
                    w += 1;
                    if w <= accepted {
                        continue;
                    }
                    if socket
                        .send_to(&run.wires[w - 1], self.server)
                        .await
                        .is_err()
                    {
                        *error = Some(ReplayError::Send);
                        state.ledger.pending.remove(run.ids[x]);
                        self.counters.errors.bump(1);
                    }
                }
            }
            Route::Tcp(_) if !run.framed.is_empty() => {
                // On a write failure, reconnect (counted) and re-send the
                // run's frames once. The new connection keeps the old
                // one's index, so its answers match the run's (socket, id)
                // entries; a duplicate answer finds no pending entry. A
                // second failure leaves the run to expire into `gave_up`.
                for _ in 0..2 {
                    let Some(i) = state.tcp_conn(src).await else {
                        break;
                    };
                    if let Some(Some(conn)) = state.tcp.get_mut(i) {
                        if conn.send(&run.framed).await.is_ok() {
                            break;
                        }
                    }
                    state.close_tcp(i);
                }
            }
            Route::Tcp(_) | Route::Failed(_) => {}
        }
        (wire_stamp_us, self.now_us())
    }

    /// Microseconds since the replay epoch.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

fn hash_ip(ip: IpAddr) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ip.hash(&mut h);
    h.finish() as usize
}

/// One source's TCP connection. Only the querier reads it, without
/// blocking, into a buffer reused across reads.
struct TcpConn {
    stream: tokio::net::TcpStream,
    /// Bytes read but not yet credited: a frame still arriving.
    buf: Vec<u8>,
    filled: usize,
}

impl TcpConn {
    async fn open(server: SocketAddr) -> std::io::Result<TcpConn> {
        let stream = tokio::net::TcpStream::connect(server).await?;
        stream.set_nodelay(true)?;
        // Best effort: without stamps, a latency runs to its read.
        let _ = stream.set_arrival_stamps();
        Ok(TcpConn {
            stream,
            buf: vec![0; TCP_READ_BUF],
            filled: 0,
        })
    }

    /// Writes pre-framed bytes (a whole run's frames) in one call.
    async fn send(&mut self, framed: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(framed).await
    }

    /// Reads whatever has arrived and credits every whole frame in it; a
    /// partial frame waits in the buffer for the next read. Each answer
    /// takes the stamp of the read that completed it: the arrival of the
    /// last segment that read returned. Returns `false` once the peer has
    /// closed or the read failed.
    fn read_answers(&mut self, ledger: &mut Ledger, sock: SockRef) -> bool {
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
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                    )
                }
            };
            let read = ReadClock::now();
            self.filled += n;
            let mut rest = &self.buf[..self.filled];
            while let Some((msg, tail)) = ldp_wire::framing::split_frame(rest) {
                if let [a, b, ..] = *msg {
                    ledger.answer(u16::from_be_bytes([a, b]), sock, stamp, read);
                }
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
    use ldp_wire::{Name, RrType};
    use ldp_workload::zones::wildcard_example_zone;
    use ldp_zone::ZoneSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    mod telemetry {
        include!("../tests/support/telemetry.rs");
    }

    fn engine() -> Arc<AuthEngine> {
        let mut set = ZoneSet::new();
        set.insert(wildcard_example_zone());
        Arc::new(AuthEngine::with_zones(Arc::new(set)))
    }

    /// Serializes the timing-assertion tests. Under a full-parallel
    /// `cargo test` the whole workspace's binaries contend for the same
    /// cores; two replays pacing sleeps concurrently *in this binary*
    /// compound each other's scheduler delay and flake. One at a time,
    /// each sees only the ambient load — which the calibrated budget
    /// below absorbs.
    static TIMING_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Load-derived timing budget, measured *while* the replay runs: a
    /// probe task on the same runtime repeatedly issues 2 ms sleeps and
    /// records the worst overshoot it sees. On an idle host overshoot is
    /// microseconds and the budget stays at the 50 ms floor — sharp
    /// enough to catch the Figure 6 accounting regression (≥135 ms p90).
    /// On a host oversubscribed by the rest of the parallel test run,
    /// sleeps fire hundreds of milliseconds late; the pacing loop is
    /// starved by exactly the same scheduler, so the budget scales with
    /// the starvation the probe actually observed rather than flaking.
    struct LoadProbe {
        worst_us: Arc<AtomicU64>,
        stop: Arc<AtomicBool>,
        task: JoinHandle<()>,
    }

    impl LoadProbe {
        fn start() -> LoadProbe {
            let worst_us = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let (w, s) = (worst_us.clone(), stop.clone());
            let task = tokio::spawn(async move {
                while !s.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    tokio::time::sleep(Duration::from_millis(2)).await;
                    let over = t0.elapsed().saturating_sub(Duration::from_millis(2));
                    w.fetch_max(over.as_micros() as u64, Ordering::Relaxed);
                }
            });
            LoadProbe {
                worst_us,
                stop,
                task,
            }
        }

        /// Stops the probe and returns what timing budget (ms) the host
        /// earned: `Some(50 + 20×worst overshoot)` when the runtime
        /// stayed responsive (sub-millisecond worst overshoot — a sharp
        /// bound an idle host always meets), `None` when real contention
        /// showed up. Contention caps instantaneous scheduler lag, but a
        /// throughput-starved host (1 CPU shared with `cargo test`'s
        /// still-compiling crates) accumulates *unbounded* send backlog
        /// the probe cannot predict — no budget derived from the probe is
        /// honest there, so the timing assertion must be skipped, not
        /// loosened.
        async fn budget_ms(self) -> Option<f64> {
            self.stop.store(true, Ordering::Relaxed);
            let _ = self.task.await;
            let worst_ms = self.worst_us.load(Ordering::Relaxed) as f64 / 1e3;
            if worst_ms > 1.0 {
                return None;
            }
            Some(50.0 + 20.0 * worst_ms)
        }
    }

    /// The value `frac` of the way up the sorted magnitudes. Timing
    /// assertions bound a high percentile, not the max: a single
    /// scheduler hiccup on an oversubscribed test host can make one send
    /// arbitrarily late, while the regressions these tests guard
    /// (accounting bugs, systematic pacing drift) shift the whole
    /// distribution — exactly what a quartile-style bound catches (the
    /// paper's Figure 6 reports quartile windows for the same reason).
    fn percentile(errors: &[f64], frac: f64) -> f64 {
        let mut mags: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if mags.is_empty() {
            return 0.0;
        }
        let idx = ((mags.len() as f64 - 1.0) * frac).round() as usize;
        mags[idx.min(mags.len() - 1)]
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

    // Holding the serialization guard across await is the point: the
    // whole replay must run while no sibling timing test does.
    #[allow(clippy::await_holding_lock)]
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn udp_replay_answers_and_times() {
        let _serial = TIMING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let replay = LiveReplay::new(server.addr);
        let probe = LoadProbe::start();
        let report = replay.run(trace(200, 2_000, Protocol::Udp)).await.unwrap();
        let budget = probe.budget_ms().await;
        assert_eq!(report.sent, 200);
        assert!(
            report.answered >= 195,
            "answered only {}/200",
            report.answered
        );
        // Timing errors should be tiny on loopback: bound the 90th
        // percentile by the load-derived budget (a stray hiccup may push
        // the max; a shifted distribution means a real pacing bug). A
        // contended host earns no budget and the timing check is waived.
        if let Some(budget) = budget {
            let errors = report.timing_errors_ms();
            let p90 = percentile(&errors, 0.9);
            assert!(p90 < budget, "p90 timing error {p90} ms (budget {budget})");
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn fast_mode_outruns_trace_timing() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        // Trace nominally spans 10s; fast mode must finish way earlier.
        let t0 = Instant::now();
        let report = replay.run(trace(500, 20_000, Protocol::Udp)).await.unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(report.sent, 500);
        assert!(report.achieved_qps() > 500.0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn tcp_replay_reuses_connections() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        let report = replay.run(trace(100, 1_000, Protocol::Tcp)).await.unwrap();
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

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn streamed_replay_from_encoded_trace() {
        // Round-trip through the on-disk stream format and replay without
        // materializing the trace (the §3 Reader pre-load path).
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let records = trace(300, 1_000, Protocol::Udp);
        let bytes = ldp_trace::stream::to_bytes(&records).unwrap();
        let reader = ldp_trace::stream::StreamReader::new(std::io::Cursor::new(bytes)).unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.drain = Duration::from_millis(800);
        let report = replay.run_stream(reader).await.unwrap();
        assert_eq!(report.sent, 300);
        // Fast-blasting 300 UDP datagrams while sibling tests contend for
        // the same core can overflow socket buffers; require a strong
        // majority rather than near-perfection.
        assert!(report.answered >= 240, "answered {}", report.answered);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn streamed_replay_empty_input() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let report = LiveReplay::new(server.addr)
            .run_stream(std::iter::empty())
            .await
            .unwrap();
        assert_eq!(report.sent, 0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn empty_trace_is_fine() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let report = LiveReplay::new(server.addr).run(vec![]).await.unwrap();
        assert_eq!(report.sent, 0);
        assert_counts_match_outcomes(&report);
        assert_eq!(report.achieved_qps(), 0.0);
    }

    /// Regression for the Figure 6 accounting bug: at `speed != 1.0` the
    /// old metric compared send times against the *unscaled* trace
    /// offset, so a half-time replay reported ~half the trace span as
    /// "error". The fixed metric compares against the scaled target and
    /// must stay loopback-small at any speed.
    // As above: the guard must span the replay to serialize timing tests.
    #[allow(clippy::await_holding_lock)]
    async fn timing_errors_stay_small_at(speed: f64) {
        let _serial = TIMING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Timed { speed };
        // 100 records spanning 300 ms of trace time.
        let probe = LoadProbe::start();
        let report = replay.run(trace(100, 3_000, Protocol::Udp)).await.unwrap();
        let budget = probe.budget_ms().await;
        assert_eq!(report.sent, 100);
        let errors = report.timing_errors_ms();
        // The old bug made errors ramp ≈ (1 − speed) × trace time across
        // the whole replay (|p90| ≥ 135 ms here); the corrected metric
        // stays loopback-small at every percentile, so bounding the 90th
        // keeps the regression caught without flaking on one late send.
        // A contended host earns no budget and the timing check is waived.
        if let Some(budget) = budget {
            let p90 = percentile(&errors, 0.9);
            assert!(
                p90 < budget,
                "speed {speed}: p90 |timing error| {p90} ms (budget {budget})"
            );
        }
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

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn timing_errors_correct_at_double_speed() {
        timing_errors_stay_small_at(0.5).await;
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn timing_errors_correct_at_half_speed() {
        timing_errors_stay_small_at(2.0).await;
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn shard_stats_cover_all_sends() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.batch_size = 32;
        let report = replay.run(trace(400, 500, Protocol::Udp)).await.unwrap();
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

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn fast_mode_preserves_same_source_order_across_batches() {
        // Batch boundaries must not reorder a source's queries: outcomes
        // carry trace offsets, and per source they must be sent in trace
        // order (monotone sent offsets when sorted by trace offset).
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.batch_size = 16; // force many batch boundaries
        let report = replay.run(trace(600, 100, Protocol::Udp)).await.unwrap();
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

    async fn timed_replay_is_never_early(protocol: Protocol) {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let report = LiveReplay::new(server.addr)
            .run(bursty_trace(40, 5, 2_000, protocol))
            .await
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

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn timed_udp_runs_are_never_early() {
        timed_replay_is_never_early(Protocol::Udp).await;
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn timed_tcp_runs_are_never_early() {
        timed_replay_is_never_early(Protocol::Tcp).await;
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn unencodable_record_degrades_to_an_encode_error() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
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
                let report = replay.run(records).await.unwrap();
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

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn telemetry_counters_match_the_final_report() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let reg = Arc::new(ldp_telemetry::Registry::new());
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.telemetry = Some(reg.clone());
        let report = replay.run(trace(200, 1_000, Protocol::Udp)).await.unwrap();
        assert_eq!(report.sent, 200);
        telemetry::assert_telemetry_matches_report(&reg, &report);
    }
}
