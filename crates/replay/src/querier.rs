//! The querier core: every decision one querier makes, as a state machine
//! that never reads a clock and never touches a socket.
//!
//! Two drivers run it: the live engine ([`crate::engine`]: real sockets,
//! epoll, `sendmmsg`, kernel arrival stamps, `sleep_until`) and the
//! simulator ([`crate::sim`]: simulated UDP, TCP, TLS and QUIC). Both give
//! the core the time as nanoseconds on the replay epoch. Events come in —
//! records due ([`Querier::feed`]), an answer on socket k at t
//! ([`Querier::answer`]), a timer at t (any [`Querier::poll`]), connection
//! k closed ([`Querier::closed`]), opened or not ([`Querier::opened`]), a
//! send done ([`Querier::sent`]) — and each poll returns one action, its
//! bytes in a buffer the driver owns: open a socket or connection, send
//! these wires on socket k, retransmit this datagram, or wait until t.
//!
//! The core routes sources onto sockets (one UDP socket per source up to
//! the cap, shared by hash beyond it; one connection per source, reopened
//! after it dies), allots message ids, paces (Timed: never before a
//! record's scaled deadline; Fast: everything is due), groups due records
//! riding one socket into runs, matches answers by (socket, id), expires
//! and retransmits, and falls back to TCP when a UDP answer comes back
//! truncated (RFC 7766): the fallback expires a timeout after its TCP
//! send, and its latency runs from the UDP send, so it includes the wasted
//! round trip. Rows and counts go to the ledger's
//! [`ShardLog`] and [`ShardCounters`].

use std::collections::{HashMap, VecDeque};
use std::net::IpAddr;
use std::sync::Arc;

use ldp_metrics::ShardCounters;
use ldp_obs::Stage;
use ldp_trace::{Protocol, TraceRecord};

use crate::ledger::{InFlight, Ledger, ObsCtx, PendingTable, SockRef};
use crate::outcome::{ReplayError, Row, ShardLog};
use crate::retry::{RetryPolicy, TimeoutWheel};
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

/// A `Timed` send is counted late when it misses its scaled deadline by
/// more than this (4× the paper's ±2.5 ms Figure 6 quartile window).
const LATE_BUDGET_US: u64 = 10_000;

/// What the driver does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Open UDP socket slot or connection `sock` for a query over
    /// `protocol`, then report with [`Querier::opened`].
    Open(SockRef, Protocol),
    /// Put the buffer's wires on `sock` — one datagram each, or one framed
    /// message each on a connection — then report with [`Querier::sent`].
    Send(SockRef),
    /// Retransmit the buffer's one datagram on UDP socket `sock`, then
    /// report with [`Querier::sent`].
    Resend(SockRef),
    /// Nothing to do before this time (ns), or ever with `None`, unless
    /// records or answers come in first.
    Wait(Option<u64>),
}

/// How one querier is set up.
pub(crate) struct Config {
    pub(crate) mode: ReplayMode,
    /// Trace time (µs) that replay time 0 stands for.
    pub(crate) trace_epoch_us: u64,
    /// Most UDP sockets; sources beyond share them by hash.
    pub(crate) max_sockets: usize,
    pub(crate) policy: RetryPolicy,
    pub(crate) obs: Option<ObsCtx>,
    pub(crate) counters: Arc<ShardCounters>,
}

/// A source and where its queries go, once known.
struct Source {
    addr: IpAddr,
    udp: Option<u32>,
    /// The source's stream connection (TCP, TLS or QUIC: whichever its
    /// first stream query asked for).
    conn: Option<u32>,
}

/// An open the driver is doing, or will retry at `retry_at`, and the
/// work that waits on it: the batch's next record (`head`), or else the
/// run or the fallback job in front.
#[derive(Clone, Copy)]
struct Opening {
    sock: SockRef,
    protocol: Protocol,
    src: u32,
    head: bool,
    attempt: u32,
    retry_at: Option<u64>,
}

/// A run on the wire: rows `first..first + len`, records `rec..rec + len`
/// of the batch, registered at `at`.
#[derive(Clone, Copy)]
struct Run {
    first: usize,
    rec: usize,
    len: usize,
    sock: SockRef,
    at: u64,
    /// A connection died under the run's write; it goes out once more.
    rewrite: bool,
}

/// Work that goes out ahead of the next run.
enum Job {
    /// A retransmit of `id` on UDP socket `slot`.
    Resend { slot: u32, id: u16 },
    /// A truncated UDP answer's query, to ask again over TCP.
    Fallback {
        id: u16,
        f: InFlight,
        wire: Box<[u8]>,
    },
}

/// One querier's decisions. See the module docs.
pub(crate) struct Querier {
    timed: bool,
    clock: ReplayClock,
    policy: RetryPolicy,
    max_sockets: usize,
    ids: HashMap<IpAddr, u32>,
    sources: Vec<Source>,
    /// UDP socket slots opened so far.
    udp_open: u32,
    /// Per connection index: whether it is open.
    conns: Vec<bool>,
    /// The batch being sent, its next unsent record, how many of its
    /// records are stamped `Scheduled`, and the row of its first record.
    batch: Vec<TraceRecord>,
    next: usize,
    stamped: usize,
    base: usize,
    ledger: Ledger,
    next_id: u16,
    /// Trace time of the last record taken. The plan feeds each querier
    /// its records in trace order, so Timed deadlines are monotone; a
    /// regression would silently reorder the replay.
    last_time_us: u64,
    opening: Option<Opening>,
    run: Option<Run>,
    /// Per record of the run: its id and its error, if any.
    run_ids: Vec<u16>,
    run_errs: Vec<Option<ReplayError>>,
    /// Whether the send the driver will report is a retransmit.
    resending: bool,
    jobs: VecDeque<Job>,
    due: Vec<(u16, u8)>,
    resend: Vec<(u32, u16)>,
}

impl Querier {
    pub(crate) fn new(cfg: Config) -> Querier {
        let speed = match cfg.mode {
            ReplayMode::Timed { speed } => speed,
            ReplayMode::Fast => 1.0,
        };
        let clock = ReplayClock::synchronize(cfg.trace_epoch_us, 0).with_speed(speed);
        Querier {
            timed: matches!(cfg.mode, ReplayMode::Timed { .. }),
            clock,
            policy: cfg.policy,
            max_sockets: cfg.max_sockets,
            ids: HashMap::new(),
            sources: Vec::new(),
            udp_open: 0,
            conns: Vec::new(),
            batch: Vec::new(),
            next: 0,
            stamped: 0,
            base: 0,
            ledger: Ledger {
                pending: PendingTable::new(),
                log: ShardLog::new(cfg.trace_epoch_us, clock),
                obs: cfg.obs,
                counters: cfg.counters,
            },
            next_id: 0,
            last_time_us: 0,
            opening: None,
            run: None,
            run_ids: Vec::new(),
            run_errs: Vec::new(),
            resending: false,
            jobs: VecDeque::new(),
            due: Vec::new(),
            resend: Vec::new(),
        }
    }

    /// Records due: the next batch, in trace order. Call only when
    /// [`Querier::idle`]. Returns the spent batch's spine, cleared.
    pub(crate) fn feed(&mut self, batch: Vec<TraceRecord>) -> Vec<TraceRecord> {
        self.ledger.counters.batches.bump(1);
        self.base = self.ledger.log.len();
        self.next = 0;
        self.stamped = 0;
        let mut spent = std::mem::replace(&mut self.batch, batch);
        spent.clear();
        spent
    }

    /// Whether every fed record is sent and nothing waits to go out: the
    /// next batch is welcome.
    pub(crate) fn idle(&self) -> bool {
        self.next >= self.batch.len()
            && self.run.is_none()
            && self.opening.is_none()
            && self.jobs.is_empty()
    }

    /// Whether work that answers queued (a truncated answer's TCP
    /// fallback) waits to go out.
    pub(crate) fn has_jobs(&self) -> bool {
        !self.jobs.is_empty()
    }

    /// Whether a query can still expire, so answers must be read before
    /// each poll.
    pub(crate) fn expiring(&self) -> bool {
        self.policy.is_enabled() && self.ledger.pending.in_flight > 0
    }

    /// Queries still awaiting an answer or expiry.
    pub(crate) fn in_flight(&self) -> usize {
        self.ledger.pending.in_flight
    }

    /// The shard's outcome log.
    pub(crate) fn into_log(self) -> ShardLog {
        self.ledger.log
    }

    /// Moves the shard's outcome log out, leaving an empty one.
    pub(crate) fn take_log(&mut self) -> ShardLog {
        self.ledger.log.take()
    }

    /// The next action at `now` (ns on the replay epoch). Sends fill
    /// `wires`, which the driver owns.
    pub(crate) fn poll(&mut self, now: u64, wires: &mut Vec<Vec<u8>>) -> Action {
        if let Some(o) = &mut self.opening {
            return match o.retry_at {
                Some(t) if t > now => self.wait(now, Some(t)),
                _ => {
                    o.retry_at = None;
                    Action::Open(o.sock, o.protocol)
                }
            };
        }
        if let Some(run) = self.run {
            // A connection died under the run's write: once it is back,
            // write the run again; if it cannot come back, the run's
            // queries expire.
            let src = self.src_of(run.first);
            return (self.reach(run.sock, Protocol::Tcp, src, false))
                .unwrap_or(Action::Send(run.sock));
        }
        if self.policy.is_enabled() {
            self.expire(now);
        }
        while let Some(job) = self.jobs.pop_front() {
            match job {
                Job::Resend { slot, id } => {
                    let Some(wire) = self.ledger.pending.wire(id) else {
                        continue;
                    };
                    wires.clear();
                    wires.push(wire.to_vec());
                    self.resending = true;
                    return Action::Resend(SockRef::Udp(slot));
                }
                Job::Fallback { id, f, wire } => {
                    if self.ledger.pending.get(id) != Some(f) {
                        continue;
                    }
                    let src = self.src_of(f.slot as usize);
                    let sock = self.sock_for(src, Protocol::Tcp);
                    if let Some(a) = self.reach(sock, Protocol::Tcp, src, false) {
                        self.jobs.push_front(Job::Fallback { id, f, wire });
                        return a;
                    }
                    let Ok(framed) = ldp_wire::framing::frame_message(&wire) else {
                        self.give_up(id, f, now);
                        continue;
                    };
                    // Expiry runs from this send, latency from the UDP one.
                    let f = InFlight {
                        sent_ns: now,
                        sock: sock.token(),
                        attempt: 0,
                        fallback: true,
                        ..f
                    };
                    self.ledger.pending.insert(id, f, &[], &self.policy);
                    wires.clear();
                    wires.push(framed);
                    return Action::Send(sock);
                }
            }
        }
        let i = self.next;
        let Some(head) = self.batch.get(i) else {
            return self.wait(now, None);
        };
        let (addr, protocol, deadline) = (head.src, head.protocol, self.deadline_ns(head));
        self.stamp(i, now);
        if self.timed && deadline > now {
            return self.wait(now, Some(deadline));
        }
        let src = self.source(addr);
        let sock = self.sock_for(src, protocol);
        (self.reach(sock, protocol, src, true))
            .unwrap_or_else(|| self.start_run(now, src, sock, wires))
    }

    /// The driver's report on the last [`Action::Open`].
    pub(crate) fn opened(&mut self, now: u64, ok: bool) {
        let Some(o) = self.opening.take() else {
            return;
        };
        if !ok {
            let attempts = match o.sock {
                SockRef::Udp(_) => 1,
                SockRef::Conn(_) => self.policy.tcp_reconnect_attempts.max(1),
            };
            if o.attempt + 1 < attempts {
                let addr = self.sources[o.src as usize].addr;
                let pause = self
                    .policy
                    .tcp_reconnect_backoff
                    .delay(o.attempt, hash_ip(addr));
                let retry_at = now.saturating_add(u64::try_from(pause.as_nanos()).unwrap_or(0));
                self.opening = Some(Opening {
                    attempt: o.attempt + 1,
                    retry_at: Some(retry_at),
                    ..o
                });
                return;
            }
            // Every attempt failed: the work that waited degrades.
            if o.head {
                // A failed bind or connect degrades its record alone: the
                // next record tries again.
                let error = match o.sock {
                    SockRef::Udp(_) => ReplayError::Bind,
                    SockRef::Conn(_) => ReplayError::Connect,
                };
                let slot = self.push_row(self.next, o.src);
                self.ledger.log.sent(slot, now / 1_000, Some(error));
                self.ledger.counters.errors.bump(1);
                self.next += 1;
            } else if self.run.is_some() {
                // The run's connection cannot come back: its queries expire.
                self.finish_run(now, &[]);
            } else if let Some(Job::Fallback { id, f, .. }) = self.jobs.pop_front() {
                self.give_up(id, f, now);
            }
            return;
        }
        let source = &mut self.sources[o.src as usize];
        match o.sock {
            SockRef::Udp(s) => {
                self.udp_open = self.udp_open.max(s + 1);
                source.udp = Some(s);
            }
            SockRef::Conn(k) => match self.conns.get_mut(k as usize) {
                Some(open) => {
                    *open = true;
                    self.ledger.counters.reconnects.bump(1);
                }
                None => {
                    self.conns.push(true);
                    source.conn = Some(k);
                }
            },
        }
    }

    /// The driver's report on the last [`Action::Send`] or
    /// [`Action::Resend`]: the indices of the wires that did not go out.
    /// A connection's run fails or succeeds as a whole.
    pub(crate) fn sent(&mut self, now: u64, failed: &[usize]) {
        let Some(run) = self.run else {
            // A retransmit the kernel refuses never reached the wire: it
            // is neither a retry nor a record error, and the attempt
            // expires at its deadline as usual. (A fallback needs no
            // report: a failed write leaves its query to expire.)
            if std::mem::take(&mut self.resending) && failed.is_empty() {
                self.ledger.counters.retries.bump(1);
            }
            return;
        };
        if matches!(run.sock, SockRef::Conn(_)) && !failed.is_empty() {
            self.closed(run.sock);
            // Reconnect and write the run once more. The new connection
            // keeps the old one's index, so its answers match the run's
            // entries; a second failure leaves the run to expire into
            // `gave_up`.
            if !run.rewrite {
                self.run = Some(Run {
                    rewrite: true,
                    ..run
                });
                return;
            }
        }
        self.finish_run(now, failed);
    }

    /// An answer read from `sock` — a datagram, or one message off a
    /// connection without its length prefix — that arrived at `at` ns.
    pub(crate) fn answer(&mut self, sock: SockRef, msg: &[u8], at: u64) {
        let [a, b, ..] = *msg else {
            return;
        };
        let id = u16::from_be_bytes([a, b]);
        // TC: flags byte 2, bit 0x02 (RFC 1035 §4.1.1).
        let truncated = msg.get(2).is_some_and(|flags| flags & 0x02 != 0);
        if !(truncated && matches!(sock, SockRef::Udp(_))) {
            self.ledger.answer(id, sock, at);
            return;
        }
        // The query stays in flight under its id until it goes out again
        // over TCP; a duplicate truncated answer finds its wire taken.
        let Some(f) = self.ledger.matching(id, sock) else {
            return;
        };
        if let Some(wire) = self.ledger.pending.take_wire(id) {
            self.ledger.counters.tc_fallbacks.bump(1);
            self.jobs.push_back(Job::Fallback { id, f, wire });
        }
    }

    /// Connection `sock` closed: its source's next query reopens it.
    pub(crate) fn closed(&mut self, sock: SockRef) {
        if let SockRef::Conn(k) = sock {
            if let Some(open) = self.conns.get_mut(k as usize) {
                *open = false;
            }
        }
    }

    /// Waits until `until` — or, while a query can still expire, until
    /// the next wheel tick — and publishes the in-flight gauge.
    fn wait(&self, now: u64, until: Option<u64>) -> Action {
        let in_flight = self.ledger.pending.in_flight as u64;
        self.ledger.counters.in_flight.set(in_flight);
        let tick = self
            .expiring()
            .then(|| now.saturating_add(TimeoutWheel::TICK_NS));
        Action::Wait(match (until, tick) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        })
    }

    /// Record `rec`'s deadline on the replay clock (ns).
    fn deadline_ns(&self, rec: &TraceRecord) -> u64 {
        self.clock.target_real_us(rec.time_us).saturating_mul(1_000)
    }

    /// Stamps record `i` of the batch `Scheduled` the first time it is
    /// considered.
    fn stamp(&mut self, i: usize, now: u64) {
        if i >= self.stamped {
            self.stamped = i + 1;
            if let Some(o) = &self.ledger.obs {
                o.record_ns(self.base + i, Stage::Scheduled, now);
            }
        }
    }

    /// `addr`'s index in the source table, adding it on first sight.
    fn source(&mut self, addr: IpAddr) -> u32 {
        let (log, sources) = (&mut self.ledger.log, &mut self.sources);
        *self.ids.entry(addr).or_insert_with(|| {
            sources.push(Source {
                addr,
                udp: None,
                conn: None,
            });
            log.add_source(addr)
        })
    }

    /// The source of outcome row `slot`.
    fn src_of(&self, slot: usize) -> u32 {
        self.ledger.log.source(slot).unwrap_or(0)
    }

    /// The socket a query from `src` over `protocol` goes out on: the
    /// source's own, a shared UDP socket once the cap is reached (shared
    /// by source hash), or the next new one.
    fn sock_for(&mut self, src: u32, protocol: Protocol) -> SockRef {
        let (udp_open, shared) = (self.udp_open, self.udp_open as usize >= self.max_sockets);
        let conns = self.conns.len() as u32;
        let source = &mut self.sources[src as usize];
        if protocol != Protocol::Udp {
            return SockRef::Conn(source.conn.unwrap_or(conns));
        }
        if source.udp.is_none() && shared && udp_open > 0 {
            source.udp = Some((hash_ip(source.addr) % u64::from(udp_open)) as u32);
        }
        SockRef::Udp(source.udp.unwrap_or(udp_open))
    }

    /// `None` when `sock` is open; else the action that starts opening it
    /// for `src` (on behalf of the batch's next record, if `head`).
    fn reach(&mut self, sock: SockRef, protocol: Protocol, src: u32, head: bool) -> Option<Action> {
        let open = match sock {
            SockRef::Udp(s) => s < self.udp_open,
            SockRef::Conn(k) => self.conns.get(k as usize).copied().unwrap_or(false),
        };
        if open {
            return None;
        }
        self.opening = Some(Opening {
            sock,
            protocol,
            src,
            head,
            attempt: 0,
            retry_at: None,
        });
        Some(Action::Open(sock, protocol))
    }

    /// Appends batch record `i`'s row, from source `src`; returns its
    /// index.
    fn push_row(&mut self, i: usize, src: u32) -> usize {
        let rec = &self.batch[i];
        debug_assert!(
            !self.timed || rec.time_us >= self.last_time_us,
            "deadline went backwards: {} < {}",
            rec.time_us,
            self.last_time_us
        );
        self.last_time_us = rec.time_us;
        let log = &mut self.ledger.log;
        log.push(Row::new(
            log.trace_offset_us(rec.time_us),
            src,
            rec.protocol,
        ))
    }

    /// Starts a run at the batch's next record, whose socket `sock` is
    /// open: the record and every following one that is already due and
    /// rides the same socket. Each gets its row, an id and its pending
    /// entry; the wires go into `wires`.
    ///
    /// Every row is appended before its run is sent, so an answer read
    /// mid-send (a failed write reads what its connection still holds)
    /// finds its row.
    fn start_run(&mut self, now: u64, src: u32, sock: SockRef, wires: &mut Vec<Vec<u8>>) -> Action {
        let i = self.next;
        let first = self.push_row(i, src);
        let mut j = i + 1;
        while let Some(rec) = self.batch.get(j) {
            if self.timed && self.deadline_ns(rec) > now {
                break;
            }
            let (addr, protocol) = (rec.src, rec.protocol);
            let other = self.source(addr);
            if self.sock_for(other, protocol) != sock {
                break;
            }
            self.stamp(j, now);
            self.push_row(j, other);
            j += 1;
        }
        self.next = j;

        wires.clear();
        self.run_ids.clear();
        self.run_errs.clear();
        let stream = matches!(sock, SockRef::Conn(_));
        for x in i..j {
            let id = self
                .ledger
                .pending
                .allot_id(self.next_id, &self.ledger.counters.id_collisions);
            self.next_id = id;
            let rec = &mut self.batch[x];
            rec.message.header.id = id;
            let wire = match rec.message.to_bytes() {
                Ok(wire) if stream => ldp_wire::framing::frame_message(&wire).ok(),
                Ok(wire) => Some(wire),
                Err(_) => None,
            };
            self.run_ids.push(id);
            self.run_errs.push(match wire {
                Some(wire) => {
                    // A connection's query keeps no wire: expiry gives it
                    // up rather than resending it.
                    let kept = if stream { &[][..] } else { &wire[..] };
                    let f = InFlight {
                        slot: (first + x - i) as u64,
                        sent_ns: now,
                        sock: sock.token(),
                        attempt: 0,
                        fallback: false,
                    };
                    self.ledger.pending.insert(id, f, kept, &self.policy);
                    wires.push(wire);
                    None
                }
                None => {
                    self.ledger.counters.errors.bump(1);
                    Some(ReplayError::Encode)
                }
            });
        }
        self.run = Some(Run {
            first,
            rec: i,
            len: j - i,
            sock,
            at: now,
            rewrite: false,
        });
        if wires.is_empty() {
            self.finish_run(now, &[]);
            return self.poll(now, wires);
        }
        Action::Send(sock)
    }

    /// Fills in the run's rows once it is on the wire at `now`: the send
    /// offset and any error (a UDP wire in `failed` degrades its record to
    /// [`ReplayError::Send`]). Each error-free send is counted in `sent`;
    /// in Timed mode, how far behind its deadline it went out goes into
    /// `send_lag_us` (the §3 drift signal), and a miss beyond
    /// [`LATE_BUDGET_US`] into `late`.
    fn finish_run(&mut self, now: u64, failed: &[usize]) {
        let Some(run) = self.run.take() else {
            return;
        };
        let udp = matches!(run.sock, SockRef::Udp(_));
        let sent_us = now / 1_000;
        let mut w = 0;
        for x in 0..run.len {
            let mut error = self.run_errs[x];
            if error.is_none() {
                if udp && failed.contains(&w) {
                    error = Some(ReplayError::Send);
                    self.ledger.pending.remove(self.run_ids[x]);
                    self.ledger.counters.errors.bump(1);
                }
                w += 1;
            }
            let slot = run.first + x;
            self.ledger.log.sent(slot, sent_us, error);
            if error.is_some() {
                continue;
            }
            let c = &self.ledger.counters;
            c.sent.bump(1);
            if let Some(o) = &self.ledger.obs {
                // The registration instant, taken before the send: an
                // answer's arrival is clamped to no earlier than it, so
                // `Answered` never precedes `Sent`.
                o.record_ns(slot, Stage::Sent, run.at);
            }
            if self.timed {
                let target_us = self.clock.target_real_us(self.batch[run.rec + x].time_us);
                c.send_lag_us.bump(sent_us.saturating_sub(target_us));
                if sent_us > target_us + LATE_BUDGET_US {
                    c.late.bump(1);
                }
            }
        }
    }

    /// Expires the attempts due at `now` and queues their retransmits.
    fn expire(&mut self, now: u64) {
        let ledger = &mut self.ledger;
        ledger.pending.sweep(
            now,
            &self.policy,
            &ledger.counters,
            &mut self.due,
            &mut self.resend,
            ledger.obs.as_ref(),
        );
        for (slot, id) in self.resend.drain(..) {
            self.jobs.push_back(Job::Resend { slot, id });
        }
    }

    /// Retires a query whose TCP fallback cannot go out.
    fn give_up(&mut self, id: u16, f: InFlight, now: u64) {
        self.ledger.pending.remove(id);
        self.ledger.counters.gave_up.bump(1);
        if let Some(o) = &self.ledger.obs {
            o.record_ns(f.slot as usize, Stage::GaveUp, now);
        }
    }
}

fn hash_ip(ip: IpAddr) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ip.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{Outcomes, ReplayOutcome};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use ldp_wire::{Name, RrType};

    /// What a replay on the virtual clock did.
    struct Replayed {
        outcomes: Vec<ReplayOutcome>,
        counters: Arc<ShardCounters>,
        /// Every send: when, on which socket, and how many wires.
        sends: Vec<(u64, SockRef, usize)>,
    }

    /// Replays `records` through the core on a virtual clock against a
    /// server that echoes each query back `rtt_ns` after it was sent. Time
    /// jumps straight to the core's next wake or the next answer, so every
    /// send happens at exactly the time the core asked for.
    fn replay(records: Vec<TraceRecord>, mode: ReplayMode, rtt_ns: u64) -> Replayed {
        let counters = Arc::new(ShardCounters::default());
        let mut core = Querier::new(Config {
            mode,
            trace_epoch_us: records[0].time_us,
            max_sockets: 128,
            policy: RetryPolicy::default(),
            obs: None,
            counters: counters.clone(),
        });
        core.feed(records);
        let mut answers = BinaryHeap::new();
        let (mut now, mut wires, mut sends) = (0, Vec::new(), Vec::new());
        loop {
            while let Some(Reverse((at, token, msg))) = answers.peek().cloned() {
                if at > now {
                    break;
                }
                answers.pop();
                let msg: Vec<u8> = msg;
                core.answer(SockRef::from_token(token), &msg, at);
            }
            match core.poll(now, &mut wires) {
                Action::Open(..) => core.opened(now, true),
                Action::Send(sock) | Action::Resend(sock) => {
                    sends.push((now, sock, wires.len()));
                    for wire in &wires {
                        // A connection's wire carries its length prefix.
                        let skip = if matches!(sock, SockRef::Conn(_)) {
                            2
                        } else {
                            0
                        };
                        let echo = wire[skip..].to_vec();
                        answers.push(Reverse((now + rtt_ns, sock.token(), echo)));
                    }
                    core.sent(now, &[]);
                }
                Action::Wait(at) => {
                    let answer = answers.peek().map(|a| a.0 .0);
                    match at.into_iter().chain(answer).min() {
                        Some(next) => now = next.max(now),
                        None if core.idle() => break,
                        None => unreachable!("the core waits for nothing while busy"),
                    }
                }
            }
        }
        let outcomes = Outcomes::new(vec![core.into_log()]).iter().collect();
        Replayed {
            outcomes,
            counters,
            sends,
        }
    }

    /// `n` records `gap_us` apart from five sources.
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

    /// Every record went out exactly at its scaled deadline, and the
    /// deadline is the scaled trace offset.
    fn assert_exactly_on_time(outcomes: &[ReplayOutcome], speed: f64) {
        for o in outcomes {
            assert_eq!(o.error, None);
            assert_eq!(
                o.target_offset_us,
                (o.trace_offset_us as f64 * speed) as u64
            );
            assert_eq!(o.sent_offset_us, o.target_offset_us, "speed {speed}: {o:?}");
        }
    }

    /// The virtual-clock twin of the live engine's test of the same name.
    #[test]
    fn udp_replay_answers_and_times() {
        let r = replay(
            trace(200, 2_000, Protocol::Udp),
            ReplayMode::Timed { speed: 1.0 },
            300_000,
        );
        assert_eq!(r.outcomes.len(), 200);
        assert_eq!(r.counters.sent.get(), 200);
        assert_eq!(r.counters.answered.get(), 200);
        assert_exactly_on_time(&r.outcomes, 1.0);
        assert!(r.outcomes.iter().all(|o| o.latency_us == Some(300)));
        assert_eq!(r.counters.late.get() + r.counters.send_lag_us.get(), 0);
        assert_eq!(r.counters.timeouts.get(), 0);
    }

    /// The virtual-clock twin of the live engine's scaled-timing tests:
    /// at any speed every record goes out exactly at its scaled deadline.
    fn timing_errors_stay_small_at(speed: f64) {
        let r = replay(
            trace(100, 3_000, Protocol::Udp),
            ReplayMode::Timed { speed },
            300_000,
        );
        assert_eq!(r.counters.sent.get(), 100);
        assert_exactly_on_time(&r.outcomes, speed);
        let last = r.outcomes.iter().map(|o| o.sent_offset_us).max();
        assert_eq!(last, Some((297_000.0 * speed) as u64));
    }

    #[test]
    fn timing_errors_correct_at_double_speed() {
        timing_errors_stay_small_at(0.5);
    }

    #[test]
    fn timing_errors_correct_at_half_speed() {
        timing_errors_stay_small_at(2.0);
    }

    /// 40 bursts of 5 records 2 ms apart; a burst shares its timestamp and
    /// source, so it rides one socket or connection.
    fn bursty_trace(protocol: Protocol) -> Vec<TraceRecord> {
        let mut records = trace(200, 0, protocol);
        for (i, rec) in records.iter_mut().enumerate() {
            let t = i as u64 / 5;
            rec.time_us = t * 2_000;
            rec.src = format!("10.0.0.{}", 1 + t % 5).parse().unwrap();
        }
        records
    }

    /// The virtual-clock twin of the live engine's never-early tests:
    /// every record goes out exactly at its deadline, and each burst as
    /// one run.
    fn timed_replay_is_never_early(protocol: Protocol) {
        let r = replay(
            bursty_trace(protocol),
            ReplayMode::Timed { speed: 1.0 },
            300_000,
        );
        assert_eq!(r.counters.sent.get(), 200);
        assert_exactly_on_time(&r.outcomes, 1.0);
        assert_eq!(r.sends.len(), 40, "{protocol:?}: one run per burst");
        for (k, &(at, _, wires)) in r.sends.iter().enumerate() {
            assert_eq!(
                (at, wires),
                (k as u64 * 2_000_000, 5),
                "{protocol:?} burst {k}"
            );
        }
        assert_eq!(r.counters.answered.get(), 200);
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
    fn fast_mode_sends_everything_at_once_in_runs_per_socket() {
        let r = replay(bursty_trace(Protocol::Udp), ReplayMode::Fast, 300_000);
        assert_eq!(r.counters.sent.get(), 200);
        assert!(r.outcomes.iter().all(|o| o.sent_offset_us == 0));
        assert_eq!(r.sends.len(), 40, "a source change ends a run");
    }

    #[test]
    fn a_truncated_udp_answer_is_asked_again_over_tcp() {
        let counters = Arc::new(ShardCounters::default());
        let mut core = Querier::new(Config {
            mode: ReplayMode::Fast,
            trace_epoch_us: 0,
            max_sockets: 1,
            policy: RetryPolicy::default(),
            obs: None,
            counters: counters.clone(),
        });
        core.feed(trace(1, 0, Protocol::Udp));
        let mut wires = Vec::new();
        assert_eq!(
            core.poll(0, &mut wires),
            Action::Open(SockRef::Udp(0), Protocol::Udp)
        );
        core.opened(0, true);
        assert_eq!(core.poll(0, &mut wires), Action::Send(SockRef::Udp(0)));
        core.sent(0, &[]);
        let query = wires[0].clone();
        let mut truncated = query.clone();
        truncated[2] |= 0x02;
        core.answer(SockRef::Udp(0), &truncated, 20_000_000);
        assert_eq!(counters.tc_fallbacks.get(), 1);
        assert_eq!(
            core.poll(20_000_000, &mut wires),
            Action::Open(SockRef::Conn(0), Protocol::Tcp)
        );
        core.opened(20_000_000, true);
        assert_eq!(
            core.poll(20_000_000, &mut wires),
            Action::Send(SockRef::Conn(0))
        );
        core.sent(20_000_000, &[]);
        let framed = ldp_wire::framing::frame_message(&query).unwrap();
        assert_eq!(wires, [framed], "the same query, framed for TCP");
        // A duplicate truncated answer changes nothing.
        core.answer(SockRef::Udp(0), &truncated, 21_000_000);
        assert_eq!(counters.tc_fallbacks.get(), 1);
        // The TCP answer completes the query; its latency runs from the
        // UDP send.
        core.answer(SockRef::Conn(0), &wires[0][2..], 60_000_000);
        assert_eq!(core.in_flight(), 0);
        let outcomes: Vec<ReplayOutcome> = Outcomes::new(vec![core.into_log()]).iter().collect();
        assert_eq!(outcomes[0].latency_us, Some(60_000));
        assert_eq!(counters.answered.get(), 1);
    }

    /// A fallback's expiry runs from its TCP send and its latency from
    /// the UDP send: under the default 250 ms timeout, a UDP query sent at
    /// 0, truncated at 200 ms and answered over TCP at 400 ms is answered
    /// after 400 ms.
    #[test]
    fn a_fallback_expires_from_its_tcp_send() {
        const MS: u64 = 1_000_000;
        let counters = Arc::new(ShardCounters::default());
        let mut core = Querier::new(Config {
            mode: ReplayMode::Fast,
            trace_epoch_us: 0,
            max_sockets: 1,
            policy: RetryPolicy::default(),
            obs: None,
            counters: counters.clone(),
        });
        core.feed(trace(1, 0, Protocol::Udp));
        let mut wires = Vec::new();
        core.poll(0, &mut wires);
        core.opened(0, true);
        assert_eq!(core.poll(0, &mut wires), Action::Send(SockRef::Udp(0)));
        core.sent(0, &[]);
        let mut truncated = wires[0].clone();
        truncated[2] |= 0x02;
        core.answer(SockRef::Udp(0), &truncated, 200 * MS);
        core.poll(200 * MS, &mut wires);
        core.opened(200 * MS, true);
        assert_eq!(
            core.poll(200 * MS, &mut wires),
            Action::Send(SockRef::Conn(0))
        );
        core.sent(200 * MS, &[]);
        // Past the UDP send's expiry, short of the TCP send's.
        assert!(matches!(core.poll(400 * MS, &mut wires), Action::Wait(_)));
        core.answer(SockRef::Conn(0), &wires[0][2..], 400 * MS);
        assert_eq!(counters.gave_up.get(), 0);
        assert_eq!(counters.answered.get(), 1);
        let outcomes: Vec<ReplayOutcome> = Outcomes::new(vec![core.into_log()]).iter().collect();
        assert_eq!(outcomes[0].latency_us, Some(400_000));
    }
}
