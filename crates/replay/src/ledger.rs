//! What a querier knows about its outstanding queries: the in-flight
//! table with its timeout wheel, and each record's outcome row.
//!
//! The querier is the only thread that touches its [`Ledger`]. It sends a
//! query, registers it here, and later reads the answer itself — possibly
//! long after it arrived, if the querier was asleep until its next send.
//! Latency keeps its meaning through the kernel's arrival stamp: an
//! answer is credited at the instant it reached the socket ([`ReadClock`]),
//! not at the read.

use std::sync::Arc;
use std::time::{Instant, SystemTime};

use ldp_metrics::shard::{Cell, ShardCounters};
use ldp_obs::{ReplaySpans, Stage};

use crate::outcome::ShardLog;
use crate::retry::RetryPolicy;

/// Which transport an in-flight query went out on — what expiry needs to
/// retransmit (UDP, by socket index) or give up (TCP; reconnection is a
/// send-path concern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SockRef {
    Udp(u32),
    Tcp,
}

/// Everything the answer and timeout paths need to know about one
/// outstanding query.
pub(crate) struct InFlight {
    /// Outcome-log row the answer lands in.
    pub(crate) slot: usize,
    /// Send time of the *latest* attempt (latency baseline).
    pub(crate) sent_at: Instant,
    /// When the current attempt expires; `None` when expiry is disabled.
    pub(crate) deadline: Option<Instant>,
    /// 0 on the first send; bumped per retransmit. Wheel entries carry
    /// the attempt they were scheduled for, so an answered-and-resent id
    /// can't be expired by a stale entry.
    pub(crate) attempt: u32,
    pub(crate) sock: SockRef,
    /// Encoded query for retransmission (UDP with retries enabled only —
    /// the no-retry hot path never clones wires).
    pub(crate) wire: Option<Box<[u8]>>,
}

/// Querier-wide in-flight table indexed by message id: a flat 65 536-slot
/// array instead of a `HashMap<u16, _>` — no hashing and no probing on
/// the two hottest operations (insert on send, take on answer). The
/// timeout wheel rides in the same struct, so scheduling an expiry is one
/// push next to the insert.
pub(crate) struct PendingTable {
    slots: Vec<Option<InFlight>>,
    /// One bit per id, set while its slot is occupied: finding a free id
    /// skips 64 busy ids per word instead of touching their slots.
    occupied: Vec<u64>,
    /// Outstanding queries; drives the adaptive post-send drain.
    pub(crate) in_flight: usize,
    wheel: crate::retry::TimeoutWheel,
}

/// Number of message ids.
const IDS: usize = 1 << 16;

impl PendingTable {
    pub(crate) fn new(start: Instant) -> PendingTable {
        PendingTable {
            slots: (0..IDS).map(|_| None).collect(),
            occupied: vec![0; IDS / 64],
            in_flight: 0,
            wheel: crate::retry::TimeoutWheel::new(start),
        }
    }

    /// The first id after `after` (wrapping) whose slot is free; `None`
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

    /// Registers an in-flight id, overwriting a still-outstanding query
    /// under the same id (see [`PendingTable::allot_id`]).
    pub(crate) fn insert(&mut self, id: u16, f: InFlight) {
        let deadline = f.deadline;
        let attempt = f.attempt;
        if let Some(slot) = self.slots.get_mut(id as usize) {
            if slot.replace(f).is_none() {
                self.in_flight += 1;
                self.mark(id, true);
            }
        }
        if let Some(d) = deadline {
            self.wheel.schedule(id, attempt, d);
        }
    }

    pub(crate) fn remove(&mut self, id: u16) -> Option<InFlight> {
        let f = self.slots.get_mut(id as usize)?.take();
        if f.is_some() {
            self.in_flight -= 1;
            self.mark(id, false);
        }
        f
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

    /// Processes every due wheel entry: validates against the live table,
    /// re-schedules not-yet-due entries, retires exhausted queries
    /// (`gave_up`), and collects UDP retransmits into `resend` for the
    /// querier to put on the wire. A `Retry` span event marks the decision
    /// to retransmit; the datagram goes out right after, and `retries`
    /// counts it only if the kernel takes it.
    pub(crate) fn sweep(
        &mut self,
        now: Instant,
        policy: &RetryPolicy,
        counters: &ShardCounters,
        due: &mut Vec<(u16, u32)>,
        resend: &mut Vec<(u32, Box<[u8]>)>,
        obs: Option<&ObsCtx>,
    ) {
        due.clear();
        self.wheel.due(now, due);
        for &(id, attempt) in due.iter() {
            enum Action {
                Skip,
                Reschedule(Instant),
                Expire,
            }
            let action = match self.slots.get(id as usize).and_then(Option::as_ref) {
                // Answered (or the id was re-used): stale entry.
                Some(f) if f.attempt != attempt => Action::Skip,
                None => Action::Skip,
                Some(f) => match f.deadline {
                    // Bucket came around a rotation early (or jitter):
                    // keep the entry alive at its true deadline.
                    Some(d) if d > now => Action::Reschedule(d),
                    Some(_) => Action::Expire,
                    None => Action::Skip,
                },
            };
            match action {
                Action::Skip => {}
                Action::Reschedule(d) => self.wheel.schedule(id, attempt, d),
                Action::Expire => {
                    counters.timeouts.bump(1);
                    let retryable = self
                        .slots
                        .get(id as usize)
                        .and_then(Option::as_ref)
                        .is_some_and(|f| {
                            matches!(f.sock, SockRef::Udp(_))
                                && f.attempt < policy.max_udp_retries
                                && f.wire.is_some()
                        });
                    if retryable {
                        if let Some(f) = self.slots.get_mut(id as usize).and_then(Option::as_mut) {
                            f.attempt += 1;
                            f.sent_at = now;
                            let d = now + policy.backoff.delay(f.attempt, u64::from(id));
                            f.deadline = Some(d);
                            if let (SockRef::Udp(s), Some(w)) = (f.sock, f.wire.as_ref()) {
                                resend.push((s, w.clone()));
                            }
                            if let Some(o) = obs {
                                o.record_instant(f.slot, Stage::Retry, now);
                            }
                            let a = f.attempt;
                            self.wheel.schedule(id, a, d);
                        }
                    } else {
                        // Out of attempts (or TCP): the server never
                        // answered this query.
                        if let Some(f) = self.remove(id) {
                            if let Some(o) = obs {
                                o.record_instant(f.slot, Stage::GaveUp, now);
                            }
                        }
                        counters.gave_up.bump(1);
                    }
                }
            }
        }
    }
}

/// What the querier has learned about its queries: the in-flight table,
/// the shard's outcome log and its counters. Only the querier's own
/// thread writes it; telemetry reads the counters.
pub(crate) struct Ledger {
    pub(crate) pending: PendingTable,
    /// One row per record; an answer's latency (µs) goes into its row.
    pub(crate) log: ShardLog,
    pub(crate) obs: Option<ObsCtx>,
    pub(crate) counters: Arc<ShardCounters>,
}

impl Ledger {
    /// Credits the answer with message id `id` to its in-flight query, at
    /// the instant the kernel stamped its arrival. A stale or duplicate
    /// answer finds no entry and is ignored.
    pub(crate) fn answer(&mut self, id: u16, stamp: Option<SystemTime>, read: ReadClock) {
        let Some(f) = self.pending.remove(id) else {
            return;
        };
        let arrived = read.arrival(stamp, f.sent_at);
        let latency_us = arrived.saturating_duration_since(f.sent_at).as_micros() as u64;
        if self.log.answer(f.slot, latency_us) {
            self.counters.answered.bump(1);
        }
        if let Some(o) = &self.obs {
            o.record_instant(f.slot, Stage::Answered, arrived);
        }
    }
}

/// The moment of a read on both clocks. Kernel arrival stamps are
/// wall-clock time (`CLOCK_REALTIME`) while the engine measures on
/// [`Instant`], so a stamp converts through the pair taken right after
/// the read.
#[derive(Clone, Copy)]
pub(crate) struct ReadClock {
    at: Instant,
    wall: SystemTime,
}

impl ReadClock {
    pub(crate) fn now() -> ReadClock {
        ReadClock {
            at: Instant::now(),
            wall: SystemTime::now(),
        }
    }

    /// When an answer stamped `stamp` arrived, on the [`Instant`] clock,
    /// clamped to [`sent_at`, the read]: never before its query left,
    /// never after it was read. No stamp (off Linux) means the read.
    fn arrival(self, stamp: Option<SystemTime>, sent_at: Instant) -> Instant {
        stamp
            .and_then(|s| self.wall.duration_since(s).ok())
            .and_then(|age| self.at.checked_sub(age))
            .unwrap_or(self.at)
            .max(sent_at)
            .min(self.at)
    }
}

/// One querier's handle on the replay's span sink: the shard index and
/// the shared epoch are bound once so the hot paths record a stage with
/// a single call. A query's span key is its outcome-row index, which
/// equals its per-shard record ordinal — the same number the Postman
/// counts on the read side, so both halves of the pipeline stamp the
/// same span without any id exchange.
#[derive(Clone)]
pub(crate) struct ObsCtx {
    pub(crate) spans: Arc<ReplaySpans>,
    pub(crate) shard: usize,
    pub(crate) epoch: Instant,
}

impl ObsCtx {
    /// Records `stage` at an offset already measured on the epoch clock.
    pub(crate) fn record_at(&self, seq: usize, stage: Stage, t_us: u64) {
        self.spans.record(self.shard, seq as u64, stage, t_us);
    }

    /// Records `stage` at a captured instant (an answer's arrival, an
    /// expiry's sweep).
    pub(crate) fn record_instant(&self, seq: usize, stage: Stage, now: Instant) {
        self.record_at(
            seq,
            stage,
            now.saturating_duration_since(self.epoch).as_micros() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn in_flight(at: Instant) -> InFlight {
        InFlight {
            slot: 0,
            sent_at: at,
            deadline: None,
            attempt: 0,
            sock: SockRef::Udp(0),
            wire: None,
        }
    }

    #[test]
    fn next_free_skips_ids_in_flight_and_wraps() {
        let now = Instant::now();
        let mut t = PendingTable::new(now);
        assert_eq!(t.next_free(0), Some(1));
        for id in [1u16, 2, 3, 70] {
            t.insert(id, in_flight(now));
        }
        assert_eq!(t.next_free(0), Some(4), "1..=3 are in flight");
        assert_eq!(t.next_free(69), Some(71), "70 is in flight");
        t.insert(u16::MAX, in_flight(now));
        t.insert(0, in_flight(now));
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
        let now = Instant::now();
        let mut t = PendingTable::new(now);
        let collisions = Cell::default();
        // Ids 0..=9 stay in flight; the allocator walks around them.
        for id in 0..10 {
            t.insert(id, in_flight(now));
        }
        let mut last = 5;
        for _ in 0..IDS - 10 {
            last = t.allot_id(last, &collisions);
            assert!(last >= 10, "id {last} is still in flight");
            t.insert(last, in_flight(now));
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
    fn arrival_converts_a_stamp_and_clamps_it_to_send_and_read() {
        let sent_at = Instant::now();
        let read = ReadClock {
            at: sent_at + Duration::from_millis(200),
            wall: SystemTime::now(),
        };
        let ago = |ms| read.wall.checked_sub(Duration::from_millis(ms));
        // Stamped 150 ms before the read: arrived 50 ms after the send.
        assert_eq!(
            read.arrival(ago(150), sent_at),
            sent_at + Duration::from_millis(50)
        );
        // A stamp before the send (clock step) clamps to the send.
        assert_eq!(read.arrival(ago(500), sent_at), sent_at);
        // A stamp after the read, or none at all, means the read.
        let later = read.wall.checked_add(Duration::from_millis(5));
        assert_eq!(read.arrival(later, sent_at), read.at);
        assert_eq!(read.arrival(None, sent_at), read.at);
    }
}
