//! What a querier knows about its outstanding queries: the in-flight
//! table with its timeout wheel, and each record's outcome row.
//!
//! Only the querier core touches its [`Ledger`], and the ledger never
//! reads a clock: every time it sees is a nanosecond offset on the replay
//! epoch, handed in by the driver. An answer is credited at the instant
//! the driver says it arrived (a kernel stamp live, the event time in the
//! simulator), and only to a query sent on the socket it was read from: a
//! query is known by its (socket, id) pair.

use std::collections::HashMap;
use std::sync::Arc;

use ldp_metrics::shard::{Cell, ShardCounters};
use ldp_obs::{ReplaySpans, Stage};

use crate::outcome::ShardLog;
use crate::retry::RetryPolicy;

/// The socket an in-flight query went out on: a UDP socket slot, or a
/// stream connection index (TCP, TLS or a QUIC session; stable across
/// reconnects). Expiry retransmits on the UDP slot or gives up on a
/// connection (reconnection is a send-path concern), and an answer read
/// from any other socket is not this query's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SockRef {
    Udp(u32),
    Conn(u32),
}

/// The bit that marks a connection in a [`SockRef::token`].
const CONN_BIT: u32 = 1 << 31;

impl SockRef {
    /// The socket as one `u32`: the UDP slot as is, a connection index
    /// with the top bit set. The in-flight table stores it, and the live
    /// driver's readiness set reports it.
    pub(crate) fn token(self) -> u32 {
        match self {
            SockRef::Udp(s) => s & !CONN_BIT,
            SockRef::Conn(i) => i | CONN_BIT,
        }
    }

    pub(crate) fn from_token(token: u32) -> SockRef {
        if token & CONN_BIT == 0 {
            SockRef::Udp(token)
        } else {
            SockRef::Conn(token & !CONN_BIT)
        }
    }
}

/// One outstanding query: what the answer and timeout paths need. The
/// expiry deadline is not stored but derived ([`PendingTable::deadline`]),
/// a UDP query's wire lives in the table's wire store, and occupancy in
/// its bitmap — so the entry stays at 24 bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct InFlight {
    /// Outcome-log row the answer lands in.
    pub(crate) slot: u64,
    /// Send time of the *latest* attempt, in ns on the replay epoch: the
    /// expiry baseline, and the latency baseline but for a fallback.
    pub(crate) sent_ns: u64,
    /// [`SockRef::token`] of the socket the query went out on.
    pub(crate) sock: u32,
    /// 0 on the first send; bumped per retransmit. Wheel entries carry
    /// the attempt they were scheduled for, so an answered-and-resent id
    /// can't be expired by a stale entry.
    pub(crate) attempt: u8,
    /// A truncated UDP answer's query, asked again over TCP: its latency
    /// runs from the UDP send its outcome row records, so it includes
    /// the wasted round trip.
    pub(crate) fallback: bool,
}

const _: () = assert!(std::mem::size_of::<InFlight>() <= 24);

/// Querier-wide in-flight table indexed by message id: a flat 65,536-entry
/// array (1.6 MB) instead of a `HashMap<u16, _>` — no hashing and no
/// probing on the two hottest operations (insert on send, take on
/// answer). The timeout wheel rides in the same struct, so scheduling an
/// expiry is one push next to the insert. UDP query wires live in a map
/// beside it, sized by the queries in flight rather than by the id space:
/// a retransmit resends one, and a truncated answer's query goes out
/// again over TCP.
pub(crate) struct PendingTable {
    entries: Vec<InFlight>,
    /// One bit per id, set while its entry is live: finding a free id
    /// skips 64 busy ids per word instead of touching their entries.
    occupied: Vec<u64>,
    /// UDP query wires, by id.
    wires: HashMap<u16, Box<[u8]>>,
    /// Outstanding queries; drives the adaptive post-send drain.
    pub(crate) in_flight: usize,
    wheel: crate::retry::TimeoutWheel,
}

/// Number of message ids.
const IDS: usize = 1 << 16;

impl PendingTable {
    pub(crate) fn new() -> PendingTable {
        PendingTable {
            entries: vec![InFlight::default(); IDS],
            occupied: vec![0; IDS / 64],
            wires: HashMap::new(),
            in_flight: 0,
            wheel: crate::retry::TimeoutWheel::new(),
        }
    }

    /// The first id after `after` (wrapping) whose entry is free; `None`
    /// when all 65,536 ids are outstanding.
    pub(crate) fn next_free(&self, after: u16) -> Option<u16> {
        if self.in_flight >= IDS {
            return None;
        }
        let start = usize::from(after.wrapping_add(1));
        let (word, bit) = (start / 64, start % 64);
        // The first word from `bit` on, every other word, then the first
        // word's low bits.
        let words = self.occupied.len();
        let probes = std::iter::once((word, !0u64 << bit))
            .chain((1..words).map(|k| ((word + k) % words, !0u64)))
            .chain(std::iter::once((word, !(!0u64 << bit))));
        probes
            .filter_map(|(w, mask)| {
                let free = !self.occupied.get(w)? & mask;
                (free != 0).then(|| w * 64 + free.trailing_zeros() as usize)
            })
            .find_map(|id| u16::try_from(id).ok())
    }

    /// The id to send the next query under: the first free id after
    /// `last`. Only when all 65,536 ids are in flight is `last + 1` reused
    /// — its query will be overwritten — and the reuse counted in
    /// `collisions`.
    pub(crate) fn allot_id(&self, last: u16, collisions: &Cell) -> u16 {
        self.next_free(last).unwrap_or_else(|| {
            collisions.bump(1);
            last.wrapping_add(1)
        })
    }

    /// Registers `f` under `id`, overwriting a still-outstanding query
    /// under the same id (see [`PendingTable::allot_id`]). Under a policy
    /// that expires queries its expiry is scheduled; a UDP query's `wire`
    /// is kept.
    pub(crate) fn insert(&mut self, id: u16, f: InFlight, wire: &[u8], policy: &RetryPolicy) {
        let Some(e) = self.entries.get_mut(usize::from(id)) else {
            return;
        };
        *e = f;
        let overwrote = self.is_live(id);
        if !overwrote {
            self.in_flight += 1;
            self.mark(id, true);
        }
        if matches!(SockRef::from_token(f.sock), SockRef::Udp(_)) {
            self.wires.insert(id, wire.into());
        } else if overwrote {
            self.wires.remove(&id);
        }
        if policy.is_enabled() {
            self.wheel
                .schedule(id, f.attempt, self.deadline(id, f, policy));
        }
    }

    /// `id`'s entry, while its query is in flight.
    pub(crate) fn get(&self, id: u16) -> Option<InFlight> {
        if !self.is_live(id) {
            return None;
        }
        self.entries.get(usize::from(id)).copied()
    }

    /// Retires `id`'s query, with its kept wire.
    pub(crate) fn remove(&mut self, id: u16) -> Option<InFlight> {
        let f = self.get(id)?;
        self.in_flight -= 1;
        self.mark(id, false);
        if !self.wires.is_empty() {
            self.wires.remove(&id);
        }
        Some(f)
    }

    /// The wire kept for `id`, if any.
    pub(crate) fn wire(&self, id: u16) -> Option<&[u8]> {
        self.wires.get(&id).map(|w| &w[..])
    }

    /// Takes the wire kept for `id`, leaving its entry in flight.
    pub(crate) fn take_wire(&mut self, id: u16) -> Option<Box<[u8]>> {
        self.wires.remove(&id)
    }

    /// When entry `f` of `id` expires (ns): its send time plus the
    /// policy's timeout on the first attempt, plus `backoff.delay(attempt,
    /// id)` on a retransmit.
    fn deadline(&self, id: u16, f: InFlight, policy: &RetryPolicy) -> u64 {
        let wait = match f.attempt {
            0 => policy.timeout,
            n => policy.backoff.delay(u32::from(n), u64::from(id)),
        };
        f.sent_ns
            .saturating_add(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX))
    }

    fn is_live(&self, id: u16) -> bool {
        let id = usize::from(id);
        self.occupied
            .get(id / 64)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    fn mark(&mut self, id: u16, busy: bool) {
        let id = usize::from(id);
        if let Some(word) = self.occupied.get_mut(id / 64) {
            let bit = 1u64 << (id % 64);
            if busy {
                *word |= bit;
            } else {
                *word &= !bit;
            }
        }
    }

    /// Processes every wheel entry due at `now` (ns): validates against
    /// the live table, re-schedules not-yet-due entries, retires exhausted
    /// queries (`gave_up`), and collects UDP retransmits into `resend` as
    /// (socket slot, id) for the querier to put on the wire with
    /// [`PendingTable::wire`]. A `Retry` span event marks the decision to
    /// retransmit; `retries` counts the datagram only once the driver
    /// reports it sent. A query is retransmitted at most 255 times,
    /// whatever the policy allows.
    pub(crate) fn sweep(
        &mut self,
        now: u64,
        policy: &RetryPolicy,
        counters: &ShardCounters,
        due: &mut Vec<(u16, u8)>,
        resend: &mut Vec<(u32, u16)>,
        obs: Option<&ObsCtx>,
    ) {
        due.clear();
        self.wheel.due(now, due);
        for &(id, attempt) in due.iter() {
            // Answered (or the id was re-used): stale entry.
            let Some(mut f) = self.get(id).filter(|f| f.attempt == attempt) else {
                continue;
            };
            let deadline = self.deadline(id, f, policy);
            if deadline > now {
                // Bucket came around a rotation early (or jitter): keep
                // the entry alive at its true deadline.
                self.wheel.schedule(id, attempt, deadline);
                continue;
            }
            counters.timeouts.bump(1);
            let udp = match SockRef::from_token(f.sock) {
                SockRef::Udp(s) => Some(s),
                SockRef::Conn(_) => None,
            };
            let retry = udp.filter(|_| {
                u32::from(f.attempt) < policy.max_udp_retries
                    && f.attempt < u8::MAX
                    && self.wires.contains_key(&id)
            });
            if let Some(s) = retry {
                f.attempt += 1;
                f.sent_ns = now;
                if let Some(e) = self.entries.get_mut(usize::from(id)) {
                    *e = f;
                }
                resend.push((s, id));
                if let Some(o) = obs {
                    o.record_ns(f.slot as usize, Stage::Retry, now);
                }
                let deadline = self.deadline(id, f, policy);
                self.wheel.schedule(id, f.attempt, deadline);
            } else {
                // Out of attempts (or a connection): the server never
                // answered this query.
                self.remove(id);
                if let Some(o) = obs {
                    o.record_ns(f.slot as usize, Stage::GaveUp, now);
                }
                counters.gave_up.bump(1);
            }
        }
    }
}

/// What the querier has learned about its queries: the in-flight table,
/// the shard's outcome log and its counters. Only the querier core writes
/// it; telemetry reads the counters.
pub(crate) struct Ledger {
    pub(crate) pending: PendingTable,
    /// One row per record; an answer's latency (µs) goes into its row.
    pub(crate) log: ShardLog,
    pub(crate) obs: Option<ObsCtx>,
    pub(crate) counters: Arc<ShardCounters>,
}

impl Ledger {
    /// The in-flight query an answer with id `id`, read from socket
    /// `sock`, belongs to. A stale or duplicate answer finds no entry. An
    /// answer whose id is in flight on another socket is not that query's:
    /// it is counted in `mismatched_answers`, and the query stays in
    /// flight.
    pub(crate) fn matching(&self, id: u16, sock: SockRef) -> Option<InFlight> {
        let f = self.pending.get(id)?;
        if f.sock != sock.token() {
            self.counters.mismatched_answers.bump(1);
            return None;
        }
        Some(f)
    }

    /// Credits the answer with id `id`, read from `sock`, to its in-flight
    /// query, as arrived at `arrived_ns` (clamped to no earlier than the
    /// query's send).
    pub(crate) fn answer(&mut self, id: u16, sock: SockRef, arrived_ns: u64) {
        let Some(f) = self.matching(id, sock) else {
            return;
        };
        self.pending.remove(id);
        let arrived_ns = arrived_ns.max(f.sent_ns);
        let slot = f.slot as usize;
        let since_ns = if f.fallback {
            self.log
                .sent_offset_us(slot)
                .map_or(f.sent_ns, |us| us * 1_000)
        } else {
            f.sent_ns
        };
        let latency_us = arrived_ns.saturating_sub(since_ns) / 1_000;
        if self.log.answer(slot, latency_us) {
            self.counters.answered.bump(1);
        }
        if let Some(o) = &self.obs {
            o.record_ns(slot, Stage::Answered, arrived_ns);
        }
    }
}

/// One querier's handle on the replay's span sink, with its shard index
/// bound once so the hot paths record a stage with a single call. A
/// query's span key is its outcome-row index, which equals its per-shard
/// record ordinal — the same number the Postman counts on the read side,
/// so both halves of the pipeline stamp the same span without any id
/// exchange.
#[derive(Clone)]
pub(crate) struct ObsCtx {
    pub(crate) spans: Arc<ReplaySpans>,
    pub(crate) shard: usize,
}

impl ObsCtx {
    /// Records `stage` at `t_ns` on the replay epoch.
    pub(crate) fn record_ns(&self, seq: usize, stage: Stage, t_ns: u64) {
        self.spans
            .record(self.shard, seq as u64, stage, t_ns / 1_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A first send of `id` at `sent_ns` on `sock`, for row `slot`.
    fn first(slot: u64, sent_ns: u64, sock: SockRef) -> InFlight {
        InFlight {
            slot,
            sent_ns,
            sock: sock.token(),
            attempt: 0,
            fallback: false,
        }
    }

    /// Registers `id` as a first UDP send, expiry off.
    fn send(t: &mut PendingTable, id: u16) {
        let f = first(0, 0, SockRef::Udp(0));
        t.insert(id, f, b"q", &RetryPolicy::disabled());
    }

    #[test]
    fn next_free_skips_ids_in_flight_and_wraps() {
        let mut t = PendingTable::new();
        assert_eq!(t.next_free(0), Some(1));
        for id in [1u16, 2, 3, 70] {
            send(&mut t, id);
        }
        assert_eq!(t.next_free(0), Some(4), "1..=3 are in flight");
        assert_eq!(t.next_free(69), Some(71), "70 is in flight");
        send(&mut t, u16::MAX);
        send(&mut t, 0);
        assert_eq!(
            t.next_free(u16::MAX - 1),
            Some(4),
            "wraps past 65535, 0..=3"
        );
        t.remove(2);
        assert_eq!(t.next_free(0), Some(2), "an answered id is free again");
    }

    #[test]
    fn only_a_full_table_reuses_an_id_and_counts_the_collision() {
        let mut t = PendingTable::new();
        let collisions = Cell::default();
        // Ids 0..=9 stay in flight; the allocator walks around them.
        for id in 0..10 {
            send(&mut t, id);
        }
        let mut last = 5;
        for _ in 0..IDS - 10 {
            last = t.allot_id(last, &collisions);
            assert!(last >= 10, "id {last} is still in flight");
            send(&mut t, last);
        }
        assert_eq!(t.in_flight, IDS);
        assert_eq!(collisions.get(), 0, "no reuse until full");
        assert_eq!(t.next_free(123), None);
        // Full: the next id is reused, and counted.
        assert_eq!(t.allot_id(u16::MAX, &collisions), 0);
        assert_eq!(collisions.get(), 1);
        // An answer frees its id, which is then handed out again.
        t.remove(40_000);
        assert_eq!(t.allot_id(123, &collisions), 40_000);
        assert_eq!(t.allot_id(u16::MAX, &collisions), 40_000);
        assert_eq!(collisions.get(), 1);
    }

    #[test]
    fn the_table_allocates_at_most_1_6_mb_without_retries() {
        let mut t = PendingTable::new();
        // Connection queries keep no wire (a UDP one keeps its wire for a
        // truncation fallback until it is answered).
        for id in 0..1_000 {
            let f = first(0, 0, SockRef::Conn(0));
            t.insert(id, f, b"", &RetryPolicy::disabled());
        }
        assert_eq!(t.wires.capacity(), 0, "a wire was kept");
        let bytes =
            t.entries.capacity() * std::mem::size_of::<InFlight>() + t.occupied.capacity() * 8;
        assert!(bytes <= 1_600_000, "the table allocates {bytes} B");
    }

    #[test]
    fn socket_tokens_round_trip() {
        for sock in [
            SockRef::Udp(0),
            SockRef::Udp(127),
            SockRef::Conn(0),
            SockRef::Conn(9),
        ] {
            assert_eq!(SockRef::from_token(sock.token()), sock);
        }
        assert_ne!(SockRef::Udp(3).token(), SockRef::Conn(3).token());
    }

    #[test]
    fn sweep_derives_each_deadline_then_gives_up() {
        let policy = RetryPolicy::default();
        let counters = ShardCounters::default();
        let (mut due, mut resend) = (Vec::new(), Vec::new());
        let start = 5_000_000_000u64;
        let id = 7;
        let sent = || {
            let mut t = PendingTable::new();
            t.insert(id, first(3, start, SockRef::Udp(1)), b"query", &policy);
            t
        };
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        let first_deadline = start + ns(policy.timeout);
        let tick = ns(crate::retry::TimeoutWheel::TICK);

        // Swept first at exactly send + timeout: expired.
        let mut t = sent();
        t.sweep(
            first_deadline,
            &policy,
            &counters,
            &mut due,
            &mut resend,
            None,
        );
        assert_eq!(counters.timeouts.get(), 1);
        assert_eq!(resend, [(1, id)]);

        // Not expired a nanosecond before; expired at its tick after.
        let counters = ShardCounters::default();
        resend.clear();
        let mut t = sent();
        let f = t.get(id).expect("in flight");
        assert_eq!((f.slot, f.attempt), (3, 0));
        assert_eq!(t.deadline(id, f, &policy), first_deadline);
        let early = first_deadline - 1;
        t.sweep(early, &policy, &counters, &mut due, &mut resend, None);
        assert_eq!(counters.timeouts.get(), 0, "expired before its deadline");
        assert!(resend.is_empty());
        let mut now = first_deadline + tick;
        t.sweep(now, &policy, &counters, &mut due, &mut resend, None);
        assert_eq!(counters.timeouts.get(), 1);
        assert_eq!(resend, [(1, id)]);
        assert_eq!(t.wire(id), Some(&b"query"[..]));

        // Each retransmit expires at its resend time + backoff.delay(n).
        for n in 1..=policy.max_udp_retries {
            let f = t.get(id).expect("still in flight");
            assert_eq!(u32::from(f.attempt), n);
            assert_eq!(f.sent_ns, now);
            let deadline = now + ns(policy.backoff.delay(n, u64::from(id)));
            assert_eq!(t.deadline(id, f, &policy), deadline);
            let early = deadline - 1;
            t.sweep(early, &policy, &counters, &mut due, &mut resend, None);
            assert_eq!(u64::from(n), counters.timeouts.get(), "attempt {n} early");
            now = deadline + tick;
            t.sweep(now, &policy, &counters, &mut due, &mut resend, None);
            assert_eq!(u64::from(n) + 1, counters.timeouts.get(), "attempt {n}");
        }

        // Out of retransmits: given up, its wire dropped.
        let retries = policy.max_udp_retries as usize;
        assert_eq!(resend, vec![(1, id); retries]);
        assert_eq!(counters.gave_up.get(), 1);
        assert_eq!(t.get(id), None);
        assert_eq!(t.in_flight, 0);
        assert_eq!(t.wire(id), None);
        assert!(t.wires.is_empty());
    }

    #[test]
    fn an_overwritten_or_answered_query_drops_its_wire() {
        let policy = RetryPolicy::default();
        let mut t = PendingTable::new();
        t.insert(1, first(0, 0, SockRef::Udp(0)), b"a", &policy);
        t.insert(2, first(1, 0, SockRef::Udp(0)), b"b", &policy);
        // Reused by a TCP query, which keeps no wire.
        t.insert(1, first(2, 0, SockRef::Conn(0)), b"", &policy);
        assert_eq!(t.wire(1), None);
        assert_eq!(t.get(1).map(|f| f.sock), Some(SockRef::Conn(0).token()));
        t.remove(2);
        assert!(t.wires.is_empty());
        assert_eq!(t.in_flight, 1);
    }

    #[test]
    fn arrival_converts_a_stamp_and_clamps_it_to_send_and_read() {
        use crate::engine::ReadClock;
        use crate::outcome::Row;
        use crate::timing::ReplayClock;
        use std::time::{Duration, Instant, SystemTime};

        let epoch = Instant::now();
        let ms = |n: u64| n * 1_000_000;
        let read = ReadClock {
            at: epoch + Duration::from_millis(200),
            wall: SystemTime::now(),
        };
        let ago = |n| read.wall.checked_sub(Duration::from_millis(n));
        // Stamped 150 ms before the read: arrived 50 ms into the replay.
        assert_eq!(read.arrival_ns(ago(150), epoch), ms(50));
        // A stamp after the read, or none at all, means the read.
        let later = read.wall.checked_add(Duration::from_millis(5));
        assert_eq!(read.arrival_ns(later, epoch), ms(200));
        assert_eq!(read.arrival_ns(None, epoch), ms(200));

        // A stamp before the send (a clock step) clamps to the send.
        let mut ledger = Ledger {
            pending: PendingTable::new(),
            log: ShardLog::new(0, ReplayClock::synchronize(0, 0)),
            obs: None,
            counters: Arc::default(),
        };
        let src = ledger.log.add_source([10, 0, 0, 1].into());
        let slot = ledger.log.push(Row::new(0, src, ldp_trace::Protocol::Udp));
        let sent = first(slot as u64, ms(100), SockRef::Udp(0));
        ledger
            .pending
            .insert(9, sent, b"q", &RetryPolicy::disabled());
        ledger.answer(9, SockRef::Udp(0), read.arrival_ns(ago(500), epoch));
        assert_eq!(ledger.counters.answered.get(), 1);
        let outcomes = crate::outcome::Outcomes::new(vec![ledger.log]);
        assert_eq!(outcomes.iter().next().and_then(|o| o.latency_us), Some(0));
    }
}
