//! Per-shard replay pipeline statistics.
//!
//! The batched replay engine runs one querier per shard, each draining
//! whole batches from a bounded queue. Whether the pipeline is saturated
//! — and *where* — shows up in exactly these counters: a shard whose
//! queue is always deep is send-bound (add queriers), a postman that
//! keeps stalling on full queues is distribution-bound, and shards with
//! near-empty queues are reader-bound. `fig09_throughput` and
//! `replay_pipeline` report them per shard so §4.3-style scaling
//! experiments can tell the three apart.

use serde::Serialize;

/// Bounded ring of queue-depth samples (in batches), taken each time the
/// postman enqueues a batch. Keeps the most recent [`DepthRing::CAPACITY`]
/// samples; [`DepthRing::chronological`] replays them oldest-first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthRing {
    samples: Vec<u32>,
    /// Next write slot once the ring has wrapped.
    head: usize,
    /// Total samples ever pushed (so readers can tell how much history
    /// the ring summarizes even after old samples were overwritten).
    pushed: u64,
}

impl DepthRing {
    /// Samples retained; enough to cover every enqueue of a
    /// 100k-record replay at the default batch size without wrapping.
    pub const CAPACITY: usize = 512;

    pub fn new() -> DepthRing {
        DepthRing {
            samples: Vec::new(),
            head: 0,
            pushed: 0,
        }
    }

    /// Records one depth sample, evicting the oldest once full.
    pub fn push(&mut self, depth: u32) {
        if self.samples.len() < Self::CAPACITY {
            self.samples.push(depth);
        } else {
            self.samples[self.head] = depth;
            self.head = (self.head + 1) % Self::CAPACITY;
        }
        self.pushed += 1;
    }

    /// Total samples ever pushed (≥ `len()`).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The retained samples oldest-first.
    pub fn chronological(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.samples.len());
        out.extend_from_slice(&self.samples[self.head..]);
        out.extend_from_slice(&self.samples[..self.head]);
        out
    }

    /// Mean of the retained samples (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&d| f64::from(d)).sum::<f64>() / self.samples.len() as f64
    }
}

impl Default for DepthRing {
    fn default() -> DepthRing {
        DepthRing::new()
    }
}

impl Serialize for DepthRing {
    fn to_json_value(&self) -> serde::Value {
        self.chronological().to_json_value()
    }
}

/// Counters one querier shard accumulates while draining batches.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ShardStats {
    /// Shard index (querier number within the replay).
    pub shard: usize,
    /// Queries sent by this shard.
    pub sent: u64,
    /// Responses matched back to a query.
    pub answered: u64,
    /// Timed-mode sends that fired more than the lateness budget past
    /// their scaled deadline (always 0 in `Fast` mode).
    pub late: u64,
    /// In-flight queries whose answer deadline expired (each expiry of
    /// each attempt counts once, including the final one before giving
    /// up) — "the server never answered in time".
    pub timeouts: u64,
    /// UDP retransmits actually put on the wire. Retransmits keep their
    /// original query's outcome slot: they are never counted as new trace
    /// queries in `sent`.
    pub retries: u64,
    /// TCP connections reopened after a previous connection to the same
    /// source died (reset, refused write, or failed open).
    pub reconnects: u64,
    /// Queries abandoned after exhausting every attempt; their outcomes
    /// report no latency. Distinguishes "server never answered" from
    /// replay-side failures (`errors`).
    pub gave_up: u64,
    /// Querier-level replay failures degraded to per-record outcomes:
    /// socket bind errors, connection opens that exhausted their retries,
    /// and send errors. "The replay broke", as opposed to `timeouts`.
    pub errors: u64,
    /// Queries sent under a message id another query still held, which
    /// overwrote that query's in-flight entry: only happens once all
    /// 65,536 ids are outstanding. An answer to the overwritten query can
    /// then be credited to the new one.
    pub id_collisions: u64,
    /// Batches drained from this shard's queue.
    pub batches: u64,
    /// Times the postman found this shard's queue full and had to wait —
    /// the backpressure signal that this shard is the bottleneck.
    pub postman_stalls: u64,
    /// Deepest this shard's queue got (in batches), observed at enqueue.
    pub max_queue_depth: u32,
    /// Recent queue-depth samples, one per enqueue.
    pub depths: DepthRing,
}

impl ShardStats {
    pub fn new(shard: usize) -> ShardStats {
        ShardStats {
            shard,
            ..ShardStats::default()
        }
    }

    /// One-line rendering for the experiment binaries' shard tables.
    pub fn row(&self) -> String {
        format!(
            "shard {:<3} sent={:<9} answered={:<9} late={:<7} timeouts={:<6} retries={:<6} reconnects={:<4} gave_up={:<6} errors={:<5} id_collisions={:<5} batches={:<7} stalls={:<6} maxdepth={:<4} meandepth={:.2}",
            self.shard,
            self.sent,
            self.answered,
            self.late,
            self.timeouts,
            self.retries,
            self.reconnects,
            self.gave_up,
            self.errors,
            self.id_collisions,
            self.batches,
            self.postman_stalls,
            self.max_queue_depth,
            self.depths.mean(),
        )
    }
}

/// Aggregates shard counters into pipeline-level totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PipelineTotals {
    pub sent: u64,
    pub answered: u64,
    pub late: u64,
    pub timeouts: u64,
    pub retries: u64,
    pub reconnects: u64,
    pub gave_up: u64,
    pub errors: u64,
    pub batches: u64,
    pub postman_stalls: u64,
    pub max_queue_depth: u32,
}

impl PipelineTotals {
    pub fn from_shards(shards: &[ShardStats]) -> PipelineTotals {
        let mut t = PipelineTotals::default();
        for s in shards {
            t.sent += s.sent;
            t.answered += s.answered;
            t.late += s.late;
            t.timeouts += s.timeouts;
            t.retries += s.retries;
            t.reconnects += s.reconnects;
            t.gave_up += s.gave_up;
            t.errors += s.errors;
            t.batches += s.batches;
            t.postman_stalls += s.postman_stalls;
            t.max_queue_depth = t.max_queue_depth.max(s.max_queue_depth);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_before_wrap_is_chronological() {
        let mut r = DepthRing::new();
        for d in 0..10 {
            r.push(d);
        }
        assert_eq!(r.chronological(), (0..10).collect::<Vec<_>>());
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn ring_wraps_keeping_most_recent() {
        let mut r = DepthRing::new();
        let n = DepthRing::CAPACITY as u32 + 7;
        for d in 0..n {
            r.push(d);
        }
        let chron = r.chronological();
        assert_eq!(chron.len(), DepthRing::CAPACITY);
        assert_eq!(chron[0], 7);
        assert_eq!(*chron.last().unwrap(), n - 1);
        // Still strictly increasing: oldest-first order survived the wrap.
        assert!(chron.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(r.pushed(), u64::from(n));
    }

    #[test]
    fn ring_mean_and_empty() {
        let mut r = DepthRing::new();
        assert_eq!(r.mean(), 0.0);
        assert!(r.is_empty());
        r.push(2);
        r.push(4);
        assert_eq!(r.mean(), 3.0);
    }

    #[test]
    fn totals_aggregate_and_max() {
        let mut a = ShardStats::new(0);
        a.sent = 10;
        a.late = 1;
        a.max_queue_depth = 3;
        a.timeouts = 4;
        a.retries = 3;
        let mut b = ShardStats::new(1);
        b.sent = 20;
        b.answered = 15;
        b.postman_stalls = 2;
        b.max_queue_depth = 9;
        b.timeouts = 1;
        b.reconnects = 2;
        b.gave_up = 1;
        b.errors = 5;
        let t = PipelineTotals::from_shards(&[a, b]);
        assert_eq!(t.sent, 30);
        assert_eq!(t.answered, 15);
        assert_eq!(t.late, 1);
        assert_eq!(t.postman_stalls, 2);
        assert_eq!(t.max_queue_depth, 9);
        assert_eq!(t.timeouts, 5);
        assert_eq!(t.retries, 3);
        assert_eq!(t.reconnects, 2);
        assert_eq!(t.gave_up, 1);
        assert_eq!(t.errors, 5);
    }

    #[test]
    fn shard_row_mentions_fault_counters() {
        let mut s = ShardStats::new(2);
        s.timeouts = 7;
        s.retries = 3;
        let row = s.row();
        assert!(row.contains("timeouts=7"));
        assert!(row.contains("retries=3"));
        assert!(row.contains("reconnects=0"));
        assert!(row.contains("gave_up=0"));
        assert!(row.contains("errors=0"));
    }

    #[test]
    fn shard_row_mentions_counters() {
        let mut s = ShardStats::new(4);
        s.sent = 123;
        let row = s.row();
        assert!(row.contains("shard 4"));
        assert!(row.contains("sent=123"));
    }

    #[test]
    fn serializes_ring_chronologically() {
        let mut s = ShardStats::new(0);
        s.depths.push(5);
        s.depths.push(6);
        let json = serde_json::to_string(&s).unwrap();
        let flat: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(flat.contains("[5,6]"), "{json}");
    }
}
