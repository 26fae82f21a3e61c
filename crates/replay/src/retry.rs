//! Query timeout, retransmit, and reconnect policy for the replay core.
//!
//! The paper's replay runs against real servers that drop packets and
//! reset connections; a replay that aborts (or silently loses records) on
//! the first fault cannot finish a multi-hour trace. This module holds the
//! pieces the engine uses to degrade gracefully instead:
//!
//! * [`RetryPolicy`] — per-querier knobs: answer timeout, UDP retransmit
//!   budget with exponential backoff + jitter (via [`ldp_netsim::Backoff`],
//!   the same model the simulator uses), and TCP reconnect attempts.
//! * [`TimeoutWheel`] — a coarse hashed timer wheel over in-flight query
//!   ids, on the replay epoch's nanosecond clock. Scheduling is one `Vec`
//!   push next to the pending-table insert, so the no-fault hot path pays
//!   near zero; the querier drains due buckets when it is polled, and asks
//!   to be woken at each tick while queries can expire.
//!
//! What these produce — timeouts, retries, reconnects, queries given up —
//! is counted in the shard's [`ldp_metrics::ShardCounters`].
//!
//! Fidelity note: a retransmit keeps its original query's message id and
//! outcome slot. It is never counted as a new trace query — `sent` counts
//! trace records put on the wire once; `retries` counts the extra
//! datagrams separately.

use std::time::Duration;

use ldp_netsim::Backoff;

/// Timeout/retry/reconnect configuration for one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// How long to wait for an answer before an attempt expires. A zero
    /// timeout disables expiry tracking entirely (see
    /// [`RetryPolicy::disabled`]).
    pub timeout: Duration,
    /// UDP retransmits per query after the first send (0 = never
    /// retransmit; expiries go straight to `gave_up`). At most 255 are
    /// made, whatever the value.
    pub max_udp_retries: u32,
    /// Spacing of successive attempts: attempt *n*'s expiry deadline is
    /// its send time plus `backoff.delay(n, id)`.
    pub backoff: Backoff,
    /// TCP connection-open attempts per (re)connect before the records
    /// riding on it degrade to [`crate::engine::ReplayError::Connect`].
    pub tcp_reconnect_attempts: u32,
    /// Pause between TCP open attempts (capped exponential + jitter).
    pub tcp_reconnect_backoff: Backoff,
}

impl Default for RetryPolicy {
    /// Loopback-tuned defaults: 250 ms answer timeout, two retransmits
    /// (99.9%+ delivery at 20% loss), three connect attempts.
    fn default() -> RetryPolicy {
        let timeout = Duration::from_millis(250);
        RetryPolicy {
            timeout,
            max_udp_retries: 2,
            backoff: Backoff::new(timeout, Duration::from_secs(2)),
            tcp_reconnect_attempts: 3,
            tcp_reconnect_backoff: Backoff::new(Duration::from_millis(50), Duration::from_secs(1)),
        }
    }
}

impl RetryPolicy {
    /// No expiry, no retransmits, single connect attempts — the engine's
    /// pre-fault-tolerance behavior, for measuring raw send throughput.
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            timeout: Duration::ZERO,
            max_udp_retries: 0,
            tcp_reconnect_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Whether in-flight queries expire at all.
    pub fn is_enabled(&self) -> bool {
        !self.timeout.is_zero()
    }
}

impl serde::Serialize for RetryPolicy {
    fn to_json_value(&self) -> serde::Value {
        serde_json::json!({
            "timeout_ms": self.timeout.as_millis() as u64,
            "max_udp_retries": self.max_udp_retries,
            "backoff_base_ms": self.backoff.base.as_millis() as u64,
            "backoff_cap_ms": self.backoff.cap.as_millis() as u64,
            "tcp_reconnect_attempts": self.tcp_reconnect_attempts,
        })
    }
}

/// Coarse hashed timer wheel over in-flight message ids.
///
/// Entries are `(id, attempt)` pairs hashed into [`TimeoutWheel::BUCKETS`]
/// buckets by deadline tick. The wheel itself never decides expiry — the
/// querier re-derives the authoritative deadline from the pending table's
/// entry (its send time plus the timeout or the attempt's backoff), so
/// stale entries (the id was answered, or re-used by a later attempt)
/// cost one skipped lookup, and an entry more than one rotation out is
/// simply re-scheduled when its bucket comes around early.
#[derive(Debug)]
pub(crate) struct TimeoutWheel {
    /// Last tick whose bucket has been drained.
    swept: u64,
    buckets: Vec<Vec<(u16, u8)>>,
}

impl TimeoutWheel {
    pub(crate) const BUCKETS: usize = 64;
    /// Bucket granularity; also how often a waiting querier wakes while
    /// queries can expire. Coarse on purpose: expiry a few ms late is
    /// invisible next to a 250 ms timeout, and coarse ticks keep an idle
    /// querier asleep.
    pub(crate) const TICK: Duration = Duration::from_millis(16);
    /// [`TimeoutWheel::TICK`] in nanoseconds.
    pub(crate) const TICK_NS: u64 = Self::TICK.as_nanos() as u64;

    pub(crate) fn new() -> TimeoutWheel {
        TimeoutWheel {
            swept: 0,
            buckets: (0..Self::BUCKETS).map(|_| Vec::new()).collect(),
        }
    }

    fn tick_of(t_ns: u64) -> u64 {
        t_ns / Self::TICK_NS
    }

    /// Schedules `(id, attempt)` to surface no earlier than `deadline`
    /// (ns; never in an already-swept tick).
    pub(crate) fn schedule(&mut self, id: u16, attempt: u8, deadline: u64) {
        let tick = Self::tick_of(deadline).max(self.swept + 1);
        let bucket = (tick % Self::BUCKETS as u64) as usize;
        self.buckets[bucket].push((id, attempt));
    }

    /// Drains every bucket whose tick has passed into `out`. Callers must
    /// validate each candidate against the pending table (and re-schedule
    /// entries whose true deadline is still in the future).
    pub(crate) fn due(&mut self, now: u64, out: &mut Vec<(u16, u8)>) {
        let current = Self::tick_of(now);
        while self.swept < current {
            self.swept += 1;
            let bucket = (self.swept % Self::BUCKETS as u64) as usize;
            out.append(&mut self.buckets[bucket]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` ms in nanoseconds.
    fn ms(n: u64) -> u64 {
        n * 1_000_000
    }

    #[test]
    fn default_policy_is_enabled_and_retains_wires() {
        let p = RetryPolicy::default();
        assert!(p.is_enabled());
        assert!(p.max_udp_retries > 0);
    }

    #[test]
    fn disabled_policy_tracks_nothing() {
        let p = RetryPolicy::disabled();
        assert!(!p.is_enabled());
        assert_eq!(p.max_udp_retries, 0);
        assert_eq!(p.tcp_reconnect_attempts, 1);
    }

    #[test]
    fn wheel_surfaces_entries_only_after_their_tick() {
        let start = 0;
        let mut w = TimeoutWheel::new();
        w.schedule(7, 0, start + ms(100));
        let mut out = Vec::new();
        w.due(start + ms(50), &mut out);
        assert!(out.is_empty(), "surfaced {out:?} before deadline tick");
        w.due(start + ms(200), &mut out);
        assert_eq!(out, vec![(7, 0)]);
        // Drained: not surfaced twice.
        out.clear();
        w.due(start + ms(400), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn wheel_never_schedules_into_swept_ticks() {
        let start = 0;
        let mut w = TimeoutWheel::new();
        let mut out = Vec::new();
        w.due(start + ms(500), &mut out);
        // A deadline in the already-swept past still surfaces on the next
        // tick rather than being lost in a drained bucket.
        w.schedule(3, 1, start + ms(100));
        w.due(start + ms(600), &mut out);
        assert_eq!(out, vec![(3, 1)]);
    }

    #[test]
    fn wheel_far_future_entries_survive_rotations() {
        let start = 0;
        let mut w = TimeoutWheel::new();
        // Two full rotations out: the entry's bucket is visited early
        // (one rotation in); the caller re-schedules it then, so `due`
        // must surface it at least once before the true deadline — and
        // the re-schedule keeps it alive.
        let deadline = start + TimeoutWheel::TICK_NS * (TimeoutWheel::BUCKETS as u64 * 2 + 3);
        w.schedule(9, 0, deadline);
        let mut out = Vec::new();
        w.due(
            start + TimeoutWheel::TICK_NS * (TimeoutWheel::BUCKETS as u64 + 5),
            &mut out,
        );
        assert_eq!(out, vec![(9, 0)], "bucket visited one rotation early");
        // Caller sees the true deadline is future and re-schedules.
        out.clear();
        w.schedule(9, 0, deadline);
        w.due(deadline + TimeoutWheel::TICK_NS, &mut out);
        assert_eq!(out, vec![(9, 0)]);
    }
}
