//! The replay's outcome log: one row per trace record, written in place
//! by the querier that sends it and never copied.
//!
//! Each querier owns one [`ShardLog`]. Its drain appends a record's row
//! before the record goes on the wire, fills in the send offset and any
//! [`ReplayError`] after the send, and the answer path writes the latency
//! straight into the row. A row's index is the record's per-shard
//! ordinal, the same number the in-flight table carries as its slot and
//! the span sink uses as its key.
//!
//! Both drivers of the querier core — live sockets and the simulator —
//! fill the same log, so the §4 and §5 figures read one outcome type.
//!
//! A row is 32 bytes. It stores a source as an index into the shard's
//! source table, and no scheduled send time: that is
//! [`ReplayClock::target_real_us`] of the trace time, a pure function
//! recomputed when the row is read. The log grows by fixed-size chunks,
//! so growing it never moves or copies a row. A finished replay hands the
//! shard logs over as [`Outcomes`], which reads them back as
//! [`ReplayOutcome`]s in shard order.

use std::collections::HashMap;
use std::net::IpAddr;

use ldp_trace::Protocol;

use crate::timing::ReplayClock;

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

/// Rows per chunk (128 KiB of rows).
const CHUNK_ROWS: usize = 4_096;

/// `latency_us` of a row with no answer. A measured latency is clamped
/// below it, so every latency a replay can measure is stored exactly.
const NO_ANSWER: u64 = u64::MAX;

/// Bytes one record's outcome row takes in memory.
pub const ROW_BYTES: usize = std::mem::size_of::<Row>();
const _: () = assert!(ROW_BYTES <= 32, "an outcome row must fit in 32 bytes");

/// One trace record's outcome, as its shard's log stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    trace_offset_us: u64,
    sent_offset_us: u64,
    latency_us: u64,
    /// Index into the shard's source table.
    source: u32,
    /// [`Protocol::tag`].
    protocol: u8,
    /// [`error_code`].
    error: u8,
}

impl Row {
    /// A record about to be sent: no send offset, error or answer yet.
    pub(crate) fn new(trace_offset_us: u64, source: u32, protocol: Protocol) -> Row {
        Row {
            trace_offset_us,
            sent_offset_us: 0,
            latency_us: NO_ANSWER,
            source,
            protocol: protocol.tag(),
            error: 0,
        }
    }

    fn latency_us(&self) -> Option<u64> {
        (self.latency_us != NO_ANSWER).then_some(self.latency_us)
    }

    fn error(&self) -> Option<ReplayError> {
        ERRORS.get(usize::from(self.error).checked_sub(1)?).copied()
    }
}

/// A row's error byte is 0 for none, else 1 + the error's index here.
const ERRORS: [ReplayError; 4] = [
    ReplayError::Bind,
    ReplayError::Connect,
    ReplayError::Send,
    ReplayError::Encode,
];

fn error_code(error: Option<ReplayError>) -> u8 {
    let index = error.and_then(|e| ERRORS.iter().position(|&x| x == e));
    index.map_or(0, |i| i as u8 + 1)
}

/// One querier's outcome log: its rows, its source table, and what the
/// report needs without a pass over the rows.
#[derive(Debug, Clone)]
pub(crate) struct ShardLog {
    chunks: Vec<Vec<Row>>,
    len: usize,
    sources: Vec<IpAddr>,
    trace_epoch_us: u64,
    clock: ReplayClock,
    /// Earliest and latest send offset of any row.
    sent_span: Option<(u64, u64)>,
}

impl ShardLog {
    /// An empty log for a shard whose queries are scheduled by `clock`
    /// on a trace that starts at `trace_epoch_us`.
    pub(crate) fn new(trace_epoch_us: u64, clock: ReplayClock) -> ShardLog {
        ShardLog {
            chunks: Vec::new(),
            len: 0,
            sources: Vec::new(),
            trace_epoch_us,
            clock,
            sent_span: None,
        }
    }

    /// Moves the rows and source table out, leaving an empty log on the
    /// same schedule.
    pub(crate) fn take(&mut self) -> ShardLog {
        let empty = ShardLog::new(self.trace_epoch_us, self.clock);
        std::mem::replace(self, empty)
    }

    /// Adds `src` to the source table; returns its index.
    pub(crate) fn add_source(&mut self, src: IpAddr) -> u32 {
        self.sources.push(src);
        (self.sources.len() - 1) as u32
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The trace offset the row of a record stamped `time_us` carries.
    pub(crate) fn trace_offset_us(&self, time_us: u64) -> u64 {
        time_us.saturating_sub(self.trace_epoch_us)
    }

    /// Appends a row; returns its index.
    pub(crate) fn push(&mut self, row: Row) -> usize {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK_ROWS => chunk.push(row),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_ROWS);
                chunk.push(row);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
        self.len - 1
    }

    /// The source-table index of row `slot`.
    pub(crate) fn source(&self, slot: usize) -> Option<u32> {
        self.row(slot).map(|row| row.source)
    }

    /// When row `slot`'s send completed.
    pub(crate) fn sent_offset_us(&self, slot: usize) -> Option<u64> {
        self.row(slot).map(|row| row.sent_offset_us)
    }

    fn row(&self, slot: usize) -> Option<&Row> {
        self.chunks.get(slot / CHUNK_ROWS)?.get(slot % CHUNK_ROWS)
    }

    fn row_mut(&mut self, slot: usize) -> Option<&mut Row> {
        self.chunks
            .get_mut(slot / CHUNK_ROWS)?
            .get_mut(slot % CHUNK_ROWS)
    }

    /// Records when row `slot`'s send completed and whether it failed.
    pub(crate) fn sent(&mut self, slot: usize, sent_offset_us: u64, error: Option<ReplayError>) {
        if let Some(row) = self.row_mut(slot) {
            row.sent_offset_us = sent_offset_us;
            row.error = error_code(error);
        }
        self.sent_span = Some(match self.sent_span {
            Some((lo, hi)) => (lo.min(sent_offset_us), hi.max(sent_offset_us)),
            None => (sent_offset_us, sent_offset_us),
        });
    }

    /// Credits row `slot` with an answer after `latency_us`. Returns
    /// whether it is the row's first answer.
    pub(crate) fn answer(&mut self, slot: usize, latency_us: u64) -> bool {
        let Some(row) = self.row_mut(slot) else {
            return false;
        };
        let first = row.latency_us == NO_ANSWER;
        row.latency_us = latency_us.min(NO_ANSWER - 1);
        first
    }

    fn outcome(&self, row: &Row) -> ReplayOutcome {
        let trace_time_us = self.trace_epoch_us.saturating_add(row.trace_offset_us);
        ReplayOutcome {
            trace_offset_us: row.trace_offset_us,
            target_offset_us: self.clock.target_real_us(trace_time_us),
            sent_offset_us: row.sent_offset_us,
            latency_us: row.latency_us(),
            src: self
                .sources
                .get(row.source as usize)
                .copied()
                .unwrap_or(IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED)),
            protocol: Protocol::from_tag(row.protocol).unwrap_or(Protocol::Udp),
            error: row.error(),
        }
    }
}

/// Every record's outcome from one replay: the queriers' logs in shard
/// order, read back as [`ReplayOutcome`] values.
#[derive(Default, Clone)]
pub struct Outcomes {
    shards: Vec<ShardLog>,
}

impl Outcomes {
    pub(crate) fn new(shards: Vec<ShardLog>) -> Outcomes {
        Outcomes { shards }
    }

    /// Appends `other`'s shards after this one's.
    pub fn append(&mut self, other: Outcomes) {
        self.shards.extend(other.shards);
    }

    /// Number of outcomes: one per trace record the replay read.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every outcome, shard by shard, each shard's in the order its
    /// querier took the records.
    pub fn iter(&self) -> OutcomeIter<'_> {
        let no_rows: &[Vec<Row>] = &[];
        OutcomeIter {
            shards: self.shards.iter(),
            shard: None,
            rows: no_rows.iter().flatten(),
            left: self.len(),
        }
    }

    /// Wall-clock span of the sending phase (µs): from the first send to
    /// the last, at least 1 when anything was sent, 0 for an empty replay.
    pub(crate) fn send_duration_us(&self) -> u64 {
        let spans = self.shards.iter().filter_map(|s| s.sent_span);
        let (lo, hi) = spans.fold((u64::MAX, 0), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
        if lo > hi {
            0
        } else {
            (hi - lo).max(1)
        }
    }
}

/// Per-client query counts — Figure 15c's distribution, and the filter for
/// the "non-busy clients" cut of Figure 15b.
pub fn per_client_counts(outcomes: &Outcomes) -> HashMap<IpAddr, u64> {
    let mut counts = HashMap::new();
    for o in outcomes {
        *counts.entry(o.src).or_default() += 1;
    }
    counts
}

/// Answered latencies (µs) of clients with fewer than `max_queries`
/// queries (Figure 15b: "non-busy clients that send less than 250
/// queries").
fn non_busy_latencies_us(outcomes: &Outcomes, max_queries: u64) -> impl Iterator<Item = u64> + '_ {
    let counts = per_client_counts(outcomes);
    outcomes
        .iter()
        .filter(move |o| counts.get(&o.src).is_some_and(|&n| n < max_queries))
        .filter_map(|o| o.latency_us)
}

/// The non-busy cut's latencies in milliseconds.
pub fn non_busy_latencies_ms(outcomes: &Outcomes, max_queries: u64) -> Vec<f64> {
    non_busy_latencies_us(outcomes, max_queries)
        .map(|us| us as f64 / 1000.0)
        .collect()
}

/// Fixed-memory histogram (µs) of the same non-busy cut — the form the
/// Figure 15b quantiles are read from, so arbitrarily large traces don't
/// need their raw latency vectors held and sorted.
pub fn non_busy_latency_hist(outcomes: &Outcomes, max_queries: u64) -> ldp_metrics::LogHistogram {
    let mut hist = ldp_metrics::LogHistogram::new();
    for us in non_busy_latencies_us(outcomes, max_queries) {
        hist.record(us);
    }
    hist
}

impl PartialEq for Outcomes {
    fn eq(&self, other: &Outcomes) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Outcomes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Outcomes {
    type Item = ReplayOutcome;
    type IntoIter = OutcomeIter<'a>;

    fn into_iter(self) -> OutcomeIter<'a> {
        self.iter()
    }
}

/// Iterator over [`Outcomes`], yielding each [`ReplayOutcome`] by value.
pub struct OutcomeIter<'a> {
    shards: std::slice::Iter<'a, ShardLog>,
    shard: Option<&'a ShardLog>,
    rows: std::iter::Flatten<std::slice::Iter<'a, Vec<Row>>>,
    left: usize,
}

impl Iterator for OutcomeIter<'_> {
    type Item = ReplayOutcome;

    fn next(&mut self) -> Option<ReplayOutcome> {
        loop {
            if let (Some(shard), Some(row)) = (self.shard, self.rows.next()) {
                self.left -= 1;
                return Some(shard.outcome(row));
            }
            let shard = self.shards.next()?;
            self.shard = Some(shard);
            self.rows = shard.chunks.iter().flatten();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for OutcomeIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_edge_values() {
        let src: IpAddr = "2001:db8::7".parse().unwrap();
        let clock = ReplayClock::synchronize(1_000, 0).with_speed(0.5);
        let mut log = ShardLog::new(1_000, clock);
        let sid = log.add_source(src);
        let errors = [
            None,
            Some(ReplayError::Bind),
            Some(ReplayError::Connect),
            Some(ReplayError::Send),
            Some(ReplayError::Encode),
        ];
        let latencies = [None, Some(0), Some(NO_ANSWER - 1)];
        let protocols = [Protocol::Udp, Protocol::Tcp, Protocol::Tls, Protocol::Quic];
        let mut want = Vec::new();
        for &error in &errors {
            for &latency_us in &latencies {
                for &protocol in &protocols {
                    let trace_offset_us = want.len() as u64 * 1_000;
                    let slot = log.push(Row::new(trace_offset_us, sid, protocol));
                    let sent_offset_us = u64::MAX - slot as u64;
                    log.sent(slot, sent_offset_us, error);
                    if let Some(us) = latency_us {
                        log.answer(slot, us);
                    }
                    want.push(ReplayOutcome {
                        trace_offset_us,
                        target_offset_us: trace_offset_us / 2,
                        sent_offset_us,
                        latency_us,
                        src,
                        protocol,
                        error,
                    });
                }
            }
        }
        let outcomes = Outcomes::new(vec![log]);
        let got: Vec<ReplayOutcome> = outcomes.iter().collect();
        assert_eq!(got, want);
        assert_eq!(outcomes.len(), want.len());
    }

    #[test]
    fn the_log_grows_by_chunks_and_reads_in_shard_order() {
        let clock = ReplayClock::synchronize(0, 0);
        let mut logs = Vec::new();
        for shard in 0..3u64 {
            let mut log = ShardLog::new(0, clock);
            let sid = log.add_source(IpAddr::from([10, 0, 0, shard as u8]));
            let rows = (shard as usize + 1) * CHUNK_ROWS + 3;
            for i in 0..rows {
                let slot = log.push(Row::new(shard * 1_000_000 + i as u64, sid, Protocol::Udp));
                assert_eq!(slot, i, "a row's index is its ordinal");
                log.sent(slot, 10 + i as u64, None);
            }
            assert_eq!(log.chunks.len(), shard as usize + 2);
            assert!(log.chunks.iter().all(|c| c.capacity() == CHUNK_ROWS));
            // Answers land in their own rows, wherever the chunk.
            assert!(log.answer(CHUNK_ROWS, 7));
            assert!(!log.answer(CHUNK_ROWS, 9), "a row is answered once");
            logs.push(log);
        }
        let outcomes = Outcomes::new(logs);
        let iter = outcomes.iter();
        assert_eq!(iter.len(), 3 * 3 + 6 * CHUNK_ROWS);
        let offsets: Vec<u64> = iter.map(|o| o.trace_offset_us).collect();
        assert!(offsets.windows(2).all(|w| w[0] < w[1]), "shard order");
        let answered: Vec<ReplayOutcome> =
            outcomes.iter().filter(|o| o.latency_us.is_some()).collect();
        assert_eq!(answered.len(), 3);
        assert!(answered.iter().all(|o| o.latency_us == Some(9)));
        // The send span runs from shard 0's first send to the longest
        // shard's last.
        assert_eq!(outcomes.send_duration_us(), (3 * CHUNK_ROWS + 2) as u64);
    }

    #[test]
    fn an_empty_log_has_no_send_span() {
        let outcomes = Outcomes::new(vec![ShardLog::new(0, ReplayClock::synchronize(0, 0))]);
        assert!(outcomes.is_empty());
        assert_eq!(outcomes.iter().next(), None);
        assert_eq!(outcomes.send_duration_us(), 0);
        assert_eq!(Outcomes::default().send_duration_us(), 0);
    }
}
