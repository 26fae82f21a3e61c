//! Structured spans over the replay pipeline.
//!
//! Every query a replay sends walks the same pipeline: the Reader parses
//! it, the Postman batches and routes it, a Querier schedules and sends
//! it, and an answer (or a timeout sweep) closes it. A *span* is the set
//! of stage-transition events one query emits along that walk, keyed by
//! `(shard, seq)` where `seq` is the query's per-shard record ordinal —
//! the same index its latency slot uses, so spans join back to
//! `ReplayOutcome`s for free.
//!
//! Recording must not perturb what it measures. Each shard gets its own
//! fixed-capacity ring of atomic slots; a writer claims a slot with one
//! `fetch_add` and publishes with one release store — no locks, no
//! allocation, no syscalls on the hot path. Overwrite beats blocking:
//! when a ring wraps, the oldest events are lost and counted, never the
//! newest, and senders never stall. Readers drain at quiescence (after
//! the replay joins), which is the only time the data is wanted anyway.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pipeline stages a query transitions through. The wire value (4 bits)
/// is part of the manifest schema — append, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Reader parsed the record and handed it to the Postman.
    Read = 0,
    /// Postman flushed the batch containing it toward its querier.
    Batched = 1,
    /// Querier dequeued it and began pacing (timed) or blasting (fast).
    Scheduled = 2,
    /// First datagram / stream write for this query hit the socket.
    Sent = 3,
    /// Expiry retransmitted it (one event per extra datagram).
    Retry = 4,
    /// A matching answer came back.
    Answered = 5,
    /// Retry budget exhausted; the query was abandoned.
    GaveUp = 6,
}

impl Stage {
    pub const ALL: [Stage; 7] = [
        Stage::Read,
        Stage::Batched,
        Stage::Scheduled,
        Stage::Sent,
        Stage::Retry,
        Stage::Answered,
        Stage::GaveUp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Read => "read",
            Stage::Batched => "batched",
            Stage::Scheduled => "scheduled",
            Stage::Sent => "sent",
            Stage::Retry => "retry",
            Stage::Answered => "answered",
            Stage::GaveUp => "gave_up",
        }
    }

    fn from_wire(v: u64) -> Option<Stage> {
        Stage::ALL.get(v as usize).copied()
    }
}

/// One stage transition: query `(shard, seq)` reached `stage` at `t_us`
/// microseconds after the replay epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    pub shard: u32,
    pub seq: u64,
    pub stage: Stage,
    pub t_us: u64,
}

/// Slot word 0 layout: `seq << 4 | stage`. An empty slot holds
/// [`EMPTY`]; a seq of `u64::MAX >> 4` is unrepresentable (a replay
/// would need 10^18 queries on one shard first).
const EMPTY: u64 = u64::MAX;

/// Fixed-capacity multi-writer event ring for one shard.
///
/// Writers: `fetch_add` the cursor, store the timestamp word, then
/// release-store the packed `(seq, stage)` word, which publishes the
/// slot. Two writers lapping each other on the same slot (cursor wrapped
/// a whole ring between their claims) can interleave stores — the slot
/// then holds a mismatched pair. That needs `capacity` events recorded
/// between one writer's claim and its two stores; with capacities in the
/// tens of thousands it does not happen in practice, and the cost is one
/// wrong event in a diagnostic stream, not corruption.
#[derive(Debug)]
struct ShardRing {
    cursor: AtomicU64,
    slots: Vec<[AtomicU64; 2]>,
}

impl ShardRing {
    fn new(capacity: usize) -> ShardRing {
        ShardRing {
            cursor: AtomicU64::new(0),
            slots: (0..capacity.max(1))
                .map(|_| [AtomicU64::new(EMPTY), AtomicU64::new(0)])
                .collect(),
        }
    }

    fn record(&self, seq: u64, stage: Stage, t_us: u64) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[i];
        slot[1].store(t_us, Ordering::Relaxed);
        slot[0].store(seq << 4 | stage as u64, Ordering::Release);
    }

    /// Events recorded but overwritten by ring wrap-around.
    fn overwritten(&self) -> u64 {
        self.cursor
            .load(Ordering::Relaxed)
            .saturating_sub(self.slots.len() as u64)
    }

    fn drain_into(&self, shard: u32, out: &mut Vec<SpanEvent>) {
        for slot in &self.slots {
            let w0 = slot[0].load(Ordering::Acquire);
            if w0 == EMPTY {
                continue;
            }
            let Some(stage) = Stage::from_wire(w0 & 0xf) else {
                continue;
            };
            out.push(SpanEvent {
                shard,
                seq: w0 >> 4,
                stage,
                t_us: slot[1].load(Ordering::Relaxed),
            });
        }
    }
}

/// Default per-shard ring capacity for [`ReplaySpans::full`]: enough for
/// ~6k fault-free queries per shard (5 events each) in ~2.5 MB total on
/// a 6-querier replay.
const DEFAULT_CAPACITY: usize = 1 << 15;

/// Span sink for one replay: per-shard rings plus the sampling policy.
///
/// Sampling is by query, not by event — either every stage of a query is
/// recorded or none, so stage durations always pair up. `sample == 1`
/// records everything; `sample == n` records queries whose per-shard
/// ordinal is divisible by `n`.
#[derive(Debug)]
pub struct ReplaySpans {
    sample: u64,
    rings: Vec<ShardRing>,
}

impl ReplaySpans {
    /// Full tracing (every query) for `shards` queriers.
    pub fn full(shards: usize) -> ReplaySpans {
        ReplaySpans::with_capacity(shards, 1, DEFAULT_CAPACITY)
    }

    /// Explicit sampling rate and per-shard ring capacity.
    pub fn with_capacity(shards: usize, sample: u64, capacity: usize) -> ReplaySpans {
        ReplaySpans {
            sample: sample.max(1),
            rings: (0..shards.max(1))
                .map(|_| ShardRing::new(capacity))
                .collect(),
        }
    }

    /// Reads `LDP_OBS_SAMPLE`: unset, `0`, or `off` disables tracing
    /// (returns `None`); `1` traces every query; `n` traces every n-th
    /// query per shard. Unparseable values disable tracing.
    pub fn from_env(shards: usize) -> Option<Arc<ReplaySpans>> {
        let n = sample_from_env();
        (n > 0).then(|| Arc::new(ReplaySpans::with_capacity(shards, n, DEFAULT_CAPACITY)))
    }

    /// The sampling modulus (1 = every query).
    pub fn sample(&self) -> u64 {
        self.sample
    }

    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// Whether query `seq` on any shard is traced under the sampling
    /// policy. Callers skip the record entirely for untraced queries.
    #[inline]
    pub fn sampled(&self, seq: u64) -> bool {
        self.sample == 1 || seq.is_multiple_of(self.sample)
    }

    /// Records a stage transition for query `(shard, seq)` at `t_us`
    /// microseconds after the replay epoch. Applies sampling internally.
    #[inline]
    pub fn record(&self, shard: usize, seq: u64, stage: Stage, t_us: u64) {
        if !self.sampled(seq) {
            return;
        }
        if let Some(ring) = self.rings.get(shard) {
            ring.record(seq, stage, t_us);
        }
    }

    /// Records the same stage at the same time for a contiguous seq range
    /// (the Postman stamps a whole flushed batch at once).
    pub fn record_range(&self, shard: usize, seqs: std::ops::Range<u64>, stage: Stage, t_us: u64) {
        for seq in seqs {
            self.record(shard, seq, stage, t_us);
        }
    }

    /// Total events lost to ring wrap-around across all shards.
    pub fn overwritten(&self) -> u64 {
        self.rings.iter().map(ShardRing::overwritten).sum()
    }

    /// Drains every ring into a single event list, ordered by
    /// `(shard, seq, stage, t_us)` for deterministic downstream grouping.
    /// Call only at quiescence (after the replay has joined).
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for (shard, ring) in self.rings.iter().enumerate() {
            ring.drain_into(shard as u32, &mut out);
        }
        out.sort_by_key(|e| (e.shard, e.seq, e.stage, e.t_us));
        out
    }
}

/// Parses `LDP_OBS_SAMPLE` into a sampling modulus (0 = disabled).
pub fn sample_from_env() -> u64 {
    match std::env::var("LDP_OBS_SAMPLE") {
        Ok(v) => {
            let v = v.trim();
            if v.is_empty() || v.eq_ignore_ascii_case("off") {
                0
            } else {
                v.parse().unwrap_or(0)
            }
        }
        Err(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_wire_roundtrip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_wire(s as u64), Some(s));
        }
        assert_eq!(Stage::from_wire(7), None);
    }

    #[test]
    fn records_and_drains_in_order() {
        let spans = ReplaySpans::full(2);
        spans.record(1, 5, Stage::Sent, 300);
        spans.record(0, 0, Stage::Read, 10);
        spans.record(0, 0, Stage::Sent, 20);
        spans.record(1, 5, Stage::Read, 100);
        let ev = spans.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(
            ev.iter()
                .map(|e| (e.shard, e.seq, e.stage))
                .collect::<Vec<_>>(),
            vec![
                (0, 0, Stage::Read),
                (0, 0, Stage::Sent),
                (1, 5, Stage::Read),
                (1, 5, Stage::Sent),
            ]
        );
        assert_eq!(spans.overwritten(), 0);
    }

    #[test]
    fn sampling_keeps_whole_queries() {
        let spans = ReplaySpans::with_capacity(1, 3, 64);
        for seq in 0..9u64 {
            spans.record(0, seq, Stage::Read, seq);
            spans.record(0, seq, Stage::Sent, seq + 1);
        }
        let ev = spans.events();
        // seqs 0, 3, 6 survive — both events each.
        assert_eq!(ev.len(), 6);
        assert!(ev.iter().all(|e| e.seq % 3 == 0));
    }

    #[test]
    fn wraparound_counts_overwrites() {
        let spans = ReplaySpans::with_capacity(1, 1, 4);
        for seq in 0..10u64 {
            spans.record(0, seq, Stage::Read, seq);
        }
        assert_eq!(spans.overwritten(), 6);
        let ev = spans.events();
        assert_eq!(ev.len(), 4);
        // The newest events survive.
        assert!(ev.iter().all(|e| e.seq >= 6));
    }

    #[test]
    fn out_of_range_shard_is_ignored() {
        let spans = ReplaySpans::full(1);
        spans.record(9, 0, Stage::Read, 1);
        assert!(spans.events().is_empty());
    }

    #[test]
    fn env_knob_parses() {
        // Not set in the test environment by default.
        std::env::remove_var("LDP_OBS_SAMPLE");
        assert_eq!(sample_from_env(), 0);
        std::env::set_var("LDP_OBS_SAMPLE", "0");
        assert_eq!(sample_from_env(), 0);
        std::env::set_var("LDP_OBS_SAMPLE", "off");
        assert_eq!(sample_from_env(), 0);
        std::env::set_var("LDP_OBS_SAMPLE", "1");
        assert_eq!(sample_from_env(), 1);
        std::env::set_var("LDP_OBS_SAMPLE", "100");
        assert_eq!(sample_from_env(), 100);
        std::env::set_var("LDP_OBS_SAMPLE", "banana");
        assert_eq!(sample_from_env(), 0);
        std::env::remove_var("LDP_OBS_SAMPLE");
    }
}
