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
//!
//! [`ShardCounters`] is where a replay counts them: one block of atomic
//! cells per shard, written while the replay runs and read by telemetry.
//! [`ShardStats`] is its snapshot once the shard has finished, and
//! [`PipelineTotals`] the snapshots' roll-up. One table, the
//! `shard_cells!` invocation below, declares every cell once; the blocks,
//! the snapshot, the roll-up and the telemetry [`FAMILIES`] are generated
//! from it.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

/// Bounded ring of queue-depth samples (in batches), taken each time the
/// postman enqueues a batch. Keeps the most recent [`DepthRing::CAPACITY`]
/// samples; [`DepthRing::chronological`] replays them oldest-first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
        DepthRing::default()
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

impl Serialize for DepthRing {
    fn to_json_value(&self) -> serde::Value {
        self.chronological().to_json_value()
    }
}

/// One counter or gauge. [`Cell::bump`], [`Cell::set`] and
/// [`Cell::raise`] are a relaxed load and store, for a cell only one
/// thread writes; [`Cell::add`] and [`Cell::sub`] are atomic
/// read-modify-writes, for a cell two threads write.
#[derive(Debug, Default)]
pub struct Cell(AtomicU64);

impl Cell {
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn bump(&self, n: u64) {
        self.set(self.get() + n);
    }

    /// Raises the cell to `v` if `v` is larger.
    #[inline]
    pub fn raise(&self, v: u64) {
        if v > self.get() {
            self.set(v);
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }
}

/// Counter or gauge: the two shapes the pipeline needs, and the two the
/// Prometheus text exposition distinguishes with `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing (queries out, answers in, faults).
    Counter,
    /// Instantaneous level (queue depth, in-flight).
    Gauge,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// How a cell rolls up from [`ShardCounters`] into [`ShardStats`] and
/// from there into [`PipelineTotals`]: by `sum` or by `max`.
mod rollup {
    pub(super) use std::cmp::max;

    pub(super) fn sum<T: std::ops::Add<Output = T>>(total: T, shard: T) -> T {
        total + shard
    }
}

/// `v`, or `max` when it does not fit a `T`.
fn narrow<T: TryFrom<u64>>(v: u64, max: T) -> T {
    T::try_from(v).unwrap_or(max)
}

/// `ldp_replay_<cell>_total` for a counter, `ldp_replay_<cell>` for a gauge.
#[rustfmt::skip]
macro_rules! family_name {
    (Counter, $cell:ident) => { concat!("ldp_replay_", stringify!($cell), "_total") };
    (Gauge, $cell:ident) => { concat!("ldp_replay_", stringify!($cell)) };
}

/// Generates everything a shard counts from one table. A row is
/// `cell: kind, rollup, help;`: the cell's name; `Counter` or `Gauge`;
/// `sum <type>` or `max <type>` for a cell that rolls up into a
/// [`ShardStats`] and [`PipelineTotals`] field of that type, or `live`
/// for one only telemetry reads; and its telemetry help. A row's doc
/// comment documents its fields.
macro_rules! shard_cells {
    // Keeps the rolled-up rows, dropping the `live` ones.
    (@stats [$($acc:tt)*] $(#[$m:meta])* $cell:ident live; $($rest:tt)*) => {
        shard_cells!(@stats [$($acc)*] $($rest)*);
    };
    (@stats [$($acc:tt)*] $(#[$m:meta])* $cell:ident $rollup:ident $ty:ty; $($rest:tt)*) => {
        shard_cells!(@stats [$($acc)* $(#[$m])* $cell $rollup $ty;] $($rest)*);
    };
    (@stats [$($(#[$m:meta])* $cell:ident $rollup:ident $ty:ty;)*]) => {
        /// Counters one querier shard accumulates while draining batches.
        #[derive(Debug, Clone, Default, PartialEq, Serialize)]
        pub struct ShardStats {
            /// Shard index (querier number within the replay).
            pub shard: usize,
            $($(#[$m])* pub $cell: $ty,)*
            /// Recent queue-depth samples, one per enqueue.
            pub depths: DepthRing,
        }

        impl ShardStats {
            /// One-line rendering for the experiment binaries' shard tables.
            pub fn row(&self) -> String {
                let mut row = format!("shard {:<3}", self.shard);
                $(row.push_str(&format!(" {}={}", stringify!($cell), self.$cell));)*
                row + &format!(" meandepth={:.2}", self.depths.mean())
            }
        }

        impl ShardCounters {
            /// Shard `shard`'s stats, with the Postman's queue-depth samples.
            pub fn snapshot(&self, shard: usize, depths: DepthRing) -> ShardStats {
                ShardStats {
                    shard,
                    $($cell: narrow(self.$cell.get(), <$ty>::MAX),)*
                    depths,
                }
            }
        }

        /// Aggregates shard counters into pipeline-level totals.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
        pub struct PipelineTotals {
            $($(#[$m])* pub $cell: $ty,)*
        }

        impl PipelineTotals {
            pub fn from_shards(shards: &[ShardStats]) -> PipelineTotals {
                let mut t = PipelineTotals::default();
                for s in shards {
                    $(t.$cell = rollup::$rollup(t.$cell, s.$cell);)*
                }
                t
            }
        }
    };
    ($($(#[doc = $doc:literal])* $cell:ident: $kind:ident, $rollup:ident $($ty:ty)?, $help:literal;)*) => {
        /// One shard's live counters: the one place a replay event is
        /// counted. The querier, its ledger and the Postman write the cells
        /// through an `Arc` (the querier all but those whose rows name the
        /// Postman); telemetry reads them while the replay runs (through
        /// [`FAMILIES`]), and [`ShardCounters::snapshot`] reads them once it
        /// is over.
        #[derive(Debug, Default)]
        pub struct ShardCounters {
            $($(#[doc = $doc])* pub $cell: Cell,)*
        }

        /// The replay's telemetry families, one per cell of a shard's
        /// [`ShardCounters`]: name, help, kind, and the reader of the cell.
        /// Each shard registers every family under its `shard` label.
        pub const FAMILIES: [(&str, &str, MetricKind, fn(&ShardCounters) -> u64); [$(stringify!($cell)),*].len()] = [$(
            (family_name!($kind, $cell), $help, MetricKind::$kind, |c: &ShardCounters| c.$cell.get()),
        )*];

        shard_cells!(@stats [] $($(#[doc = $doc])* $cell $rollup $($ty)?;)*);
    };
}

shard_cells! {
    /// Queries sent by this shard.
    sent: Counter, sum u64, "Queries put on the wire";
    /// Responses matched back to a query.
    answered: Counter, sum u64, "Responses matched to an in-flight query";
    /// Timed-mode sends that fired more than the lateness budget past
    /// their scaled deadline (always 0 in `Fast` mode).
    late: Counter, sum u64,
        "Timed sends that missed their deadline by more than the lateness budget";
    /// Cumulative actual-minus-scheduled send time in µs (Timed mode).
    send_lag_us: Counter, live,
        "Cumulative actual-minus-scheduled send time in microseconds (Timed mode)";
    /// In-flight queries whose answer deadline expired (each expiry of
    /// each attempt counts once, including the final one before giving
    /// up) — "the server never answered in time".
    timeouts: Counter, sum u64, "Send attempts that hit their timeout";
    /// UDP retransmits actually put on the wire. Retransmits keep their
    /// original query's outcome slot: they are never counted as new trace
    /// queries in `sent`.
    retries: Counter, sum u64, "UDP retransmissions put on the wire";
    /// TCP connections reopened after a previous connection to the same
    /// source died (reset, refused write, or failed open).
    reconnects: Counter, sum u64, "TCP connections reopened after death";
    /// Queries abandoned after exhausting every attempt; their outcomes
    /// report no latency. Distinguishes "server never answered" from
    /// replay-side failures (`errors`).
    gave_up: Counter, sum u64, "Queries retired with no answer after exhausting attempts";
    /// Querier-level replay failures degraded to per-record outcomes:
    /// socket bind errors, connection opens that exhausted their retries,
    /// and send errors. "The replay broke", as opposed to `timeouts`.
    errors: Counter, sum u64, "Bind/connect/encode/send failures degraded to error outcomes";
    /// Queries sent under a message id another query still held, which
    /// overwrote that query's in-flight entry: only happens once all
    /// 65,536 ids are outstanding. An answer to the overwritten query can
    /// then be credited to the new one.
    id_collisions: Counter, sum u64,
        "Queries overwritten because all 65,536 message ids were in flight";
    /// Answers whose message id was in flight, but on another of the
    /// querier's sockets: not credited, and the query stays in flight. A
    /// late answer to an id since reused elsewhere lands here.
    mismatched_answers: Counter, sum u64,
        "Answers whose id was in flight on another of the querier's sockets, not credited";
    /// UDP answers that came back truncated (TC), whose query was asked
    /// again over TCP (RFC 7766 fallback). The query's latency then runs
    /// from its UDP send to the TCP answer.
    tc_fallbacks: Counter, sum u64, "Truncated UDP answers whose query was asked again over TCP";
    /// Batches drained from this shard's queue.
    batches: Counter, sum u64, "Batches drained from the querier's queue";
    /// Times the Postman found this shard's queue full and had to wait —
    /// the backpressure signal that this shard is the bottleneck. The
    /// Postman writes it.
    postman_stalls: Counter, sum u64, "Times the Postman found the querier's queue full and waited";
    /// Deepest this shard's queue got (in batches), observed by the
    /// Postman at enqueue.
    max_queue_depth: Gauge, max u32, "Deepest the querier's queue got, in batches";
    /// Batches queued at the querier. The Postman adds one per batch it
    /// queues, the querier takes one per batch it drains.
    queue_depth: Gauge, live, "Batches queued at the querier (Postman backlog)";
    /// Outstanding queries, published at each querier wake.
    in_flight: Gauge, live, "Outstanding queries awaiting an answer or expiry";
}

impl ShardStats {
    pub fn new(shard: usize) -> ShardStats {
        ShardStats {
            shard,
            ..ShardStats::default()
        }
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
        a.id_collisions = 2;
        b.id_collisions = 4;
        a.mismatched_answers = 1;
        b.mismatched_answers = 3;
        a.tc_fallbacks = 2;
        b.tc_fallbacks = 5;
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
        assert_eq!(t.id_collisions, 6);
        assert_eq!(t.mismatched_answers, 4);
        assert_eq!(t.tc_fallbacks, 7);
    }

    #[test]
    fn snapshot_reads_every_cell() {
        let c = ShardCounters::default();
        let cells = [
            &c.sent,
            &c.answered,
            &c.late,
            &c.timeouts,
            &c.retries,
            &c.reconnects,
            &c.gave_up,
            &c.errors,
            &c.id_collisions,
            &c.mismatched_answers,
            &c.batches,
            &c.postman_stalls,
            &c.max_queue_depth,
            &c.tc_fallbacks,
        ];
        for (v, cell) in (1..).zip(cells) {
            cell.bump(v);
        }
        let mut depths = DepthRing::new();
        depths.push(3);
        let s = c.snapshot(7, depths.clone());
        assert_eq!(
            (s.shard, s.sent, s.answered, s.late, s.timeouts, s.retries),
            (7, 1, 2, 3, 4, 5)
        );
        assert_eq!(
            (s.reconnects, s.gave_up, s.errors, s.id_collisions),
            (6, 7, 8, 9)
        );
        assert_eq!(
            (
                s.mismatched_answers,
                s.batches,
                s.postman_stalls,
                s.max_queue_depth
            ),
            (10, 11, 12, 13)
        );
        assert_eq!(s.tc_fallbacks, 14);
        assert_eq!(s.depths, depths);
    }

    #[test]
    fn cells_bump_raise_and_count_down() {
        let c = Cell::default();
        c.bump(2);
        c.raise(1);
        assert_eq!(c.get(), 2, "raise never lowers");
        c.raise(9);
        c.add(3);
        c.sub(2);
        assert_eq!(c.get(), 10);
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
