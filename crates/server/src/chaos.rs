//! Seeded, deterministic fault injection for the live server.
//!
//! The replay engine's fault-tolerance claims (timeouts, retransmits,
//! reconnects, graceful degradation) are only testable if the system
//! under test can be scripted to misbehave. [`ChaosPolicy`] injects that
//! misbehavior into [`crate::live::LiveServer`]: dropping, duplicating,
//! or delaying UDP responses; refusing or resetting TCP conversations;
//! and going completely dark for configured windows mid-replay.
//!
//! Determinism: per-packet fates are *content-keyed*, not drawn from
//! shared RNG state. A response's fate is a pure function of
//! `(seed, query wire, nth sighting of that wire)` via
//! [`ldp_netsim::backoff::decide`], so the decision for a given query is
//! identical across runs regardless of arrival order or thread
//! interleaving — and a *retransmit* of the same wire is a fresh sighting
//! with an independent fate, which is what lets a lossy-but-retrying
//! replay converge deterministically. TCP accept/reset fates are keyed on
//! deterministic per-listener counters the same way.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use ldp_netsim::backoff::{decide, hash_bytes};

/// What the chaos layer decided to do with one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseFate {
    Deliver,
    /// Swallow the response (the client sees a timeout).
    Drop,
    /// Deliver the response twice (duplicate delivery).
    Duplicate,
    /// Deliver after an extra delay.
    Delay(Duration),
}

/// Counters for injected faults, readable by tests through the shared
/// policy handle.
#[derive(Debug, Default)]
pub struct ChaosStats {
    pub dropped: AtomicU64,
    pub duplicated: AtomicU64,
    pub delayed: AtomicU64,
    pub refused_accepts: AtomicU64,
    pub resets: AtomicU64,
}

/// A blackout phase relative to server start: every response (UDP) in
/// `[after, after + lasts)` is dropped, scripting "the server goes dark
/// for 2 s mid-replay".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DarkWindow {
    pub after: Duration,
    pub lasts: Duration,
}

/// Seeded fault-injection policy for the live server. Build with the
/// fluent constructors; pass to
/// [`crate::live::LiveServer::spawn_with_chaos`].
#[derive(Debug)]
pub struct ChaosPolicy {
    seed: u64,
    drop_p: f64,
    duplicate_p: f64,
    delay_p: f64,
    delay_by: Duration,
    refuse_accept_p: f64,
    reset_after: Option<u64>,
    dark: Vec<DarkWindow>,
    /// Per-wire sighting counts, so a retransmitted query gets a fresh,
    /// still-deterministic fate. Keyed by the content hash of the
    /// id-zeroed query wire.
    seen: Mutex<HashMap<u64, u32>>,
    accepts: AtomicU64,
    pub stats: Arc<ChaosStats>,
}

/// Distinct decision salts so drop/duplicate/delay/refuse draws are
/// independent of one another for the same key.
const SALT_DROP: u64 = 0x6472_6f70; // "drop"
const SALT_DUP: u64 = 0x6475_706c; // "dupl"
const SALT_DELAY: u64 = 0x6465_6c61; // "dela"
const SALT_ACCEPT: u64 = 0x6163_6370; // "accp"

impl ChaosPolicy {
    /// No faults; compose with the builder methods below.
    pub fn new(seed: u64) -> ChaosPolicy {
        ChaosPolicy {
            seed,
            drop_p: 0.0,
            duplicate_p: 0.0,
            delay_p: 0.0,
            delay_by: Duration::ZERO,
            refuse_accept_p: 0.0,
            reset_after: None,
            dark: Vec::new(),
            seen: Mutex::new(HashMap::new()),
            accepts: AtomicU64::new(0),
            stats: Arc::default(),
        }
    }

    /// Drop each UDP response with probability `p`.
    pub fn drop_responses(mut self, p: f64) -> ChaosPolicy {
        self.drop_p = p.clamp(0.0, 1.0);
        self
    }

    /// Deliver each UDP response twice with probability `p`.
    pub fn duplicate_responses(mut self, p: f64) -> ChaosPolicy {
        self.duplicate_p = p.clamp(0.0, 1.0);
        self
    }

    /// Delay each UDP response by `by` with probability `p`.
    pub fn delay_responses(mut self, p: f64, by: Duration) -> ChaosPolicy {
        self.delay_p = p.clamp(0.0, 1.0);
        self.delay_by = by;
        self
    }

    /// Refuse (immediately close) each accepted TCP connection with
    /// probability `p`.
    pub fn refuse_accepts(mut self, p: f64) -> ChaosPolicy {
        self.refuse_accept_p = p.clamp(0.0, 1.0);
        self
    }

    /// Reset (close) every TCP connection after it has served `n` queries,
    /// forcing clients to reconnect.
    pub fn reset_after(mut self, n: u64) -> ChaosPolicy {
        self.reset_after = Some(n.max(1));
        self
    }

    /// Add a blackout window: all UDP responses in
    /// `[after, after + lasts)` of server uptime are dropped.
    pub fn dark_window(mut self, after: Duration, lasts: Duration) -> ChaosPolicy {
        self.dark.push(DarkWindow { after, lasts });
        self
    }

    fn in_dark(&self, uptime: Duration) -> bool {
        self.dark
            .iter()
            .any(|w| uptime >= w.after && uptime < w.after + w.lasts)
    }

    /// Fate of the response to the query whose id-zeroed wire is
    /// `query_wire`, at server uptime `uptime`. Bumps the wire's sighting
    /// count; the decision is a pure function of
    /// `(seed, wire, sighting #)`.
    pub fn response_fate(&self, query_wire: &[u8], uptime: Duration) -> ResponseFate {
        if self.in_dark(uptime) {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return ResponseFate::Drop;
        }
        if self.drop_p <= 0.0 && self.duplicate_p <= 0.0 && self.delay_p <= 0.0 {
            return ResponseFate::Deliver;
        }
        let wire_key = hash_bytes(self.seed, query_wire);
        let sighting = {
            let mut seen = self.seen.lock();
            let n = seen.entry(wire_key).or_insert(0);
            *n += 1;
            u64::from(*n)
        };
        let key = wire_key ^ (sighting << 32);
        if decide(self.seed ^ SALT_DROP, key, self.drop_p) {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return ResponseFate::Drop;
        }
        if decide(self.seed ^ SALT_DUP, key, self.duplicate_p) {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            return ResponseFate::Duplicate;
        }
        if decide(self.seed ^ SALT_DELAY, key, self.delay_p) {
            self.stats.delayed.fetch_add(1, Ordering::Relaxed);
            return ResponseFate::Delay(self.delay_by);
        }
        ResponseFate::Deliver
    }

    /// Whether to refuse the nth accepted TCP connection (decided by a
    /// deterministic accept counter).
    pub fn refuse_accept(&self) -> bool {
        if self.refuse_accept_p <= 0.0 {
            return false;
        }
        let n = self.accepts.fetch_add(1, Ordering::Relaxed);
        let refuse = decide(self.seed ^ SALT_ACCEPT, n, self.refuse_accept_p);
        if refuse {
            self.stats.refused_accepts.fetch_add(1, Ordering::Relaxed);
        }
        refuse
    }

    /// Whether a connection that has served `queries_served` queries
    /// should now be reset. Callers should close the connection when this
    /// returns true.
    pub fn should_reset(&self, queries_served: u64) -> bool {
        let Some(n) = self.reset_after else {
            return false;
        };
        let reset = queries_served >= n;
        if reset {
            self.stats.resets.fetch_add(1, Ordering::Relaxed);
        }
        reset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_always_delivers() {
        let p = ChaosPolicy::new(1);
        for i in 0..100u32 {
            assert_eq!(
                p.response_fate(&i.to_be_bytes(), Duration::ZERO),
                ResponseFate::Deliver
            );
        }
        assert!(!p.refuse_accept());
        assert!(!p.should_reset(1_000_000));
    }

    #[test]
    fn fates_are_deterministic_across_policies_with_same_seed() {
        let a = ChaosPolicy::new(7)
            .drop_responses(0.3)
            .duplicate_responses(0.1);
        let b = ChaosPolicy::new(7)
            .drop_responses(0.3)
            .duplicate_responses(0.1);
        let fa: Vec<ResponseFate> = (0..300u32)
            .map(|i| a.response_fate(&i.to_be_bytes(), Duration::ZERO))
            .collect();
        let fb: Vec<ResponseFate> = (0..300u32)
            .map(|i| b.response_fate(&i.to_be_bytes(), Duration::ZERO))
            .collect();
        assert_eq!(fa, fb);
        assert!(fa.contains(&ResponseFate::Drop));
        let c = ChaosPolicy::new(8)
            .drop_responses(0.3)
            .duplicate_responses(0.1);
        let fc: Vec<ResponseFate> = (0..300u32)
            .map(|i| c.response_fate(&i.to_be_bytes(), Duration::ZERO))
            .collect();
        assert_ne!(fa, fc, "different seed, different fate stream");
    }

    #[test]
    fn fates_are_arrival_order_independent() {
        // The same wire set in reversed order gets the same per-wire fates.
        let a = ChaosPolicy::new(3).drop_responses(0.5);
        let b = ChaosPolicy::new(3).drop_responses(0.5);
        let fa: Vec<ResponseFate> = (0..100u32)
            .map(|i| a.response_fate(&i.to_be_bytes(), Duration::ZERO))
            .collect();
        let mut fb: Vec<(u32, ResponseFate)> = (0..100u32)
            .rev()
            .map(|i| (i, b.response_fate(&i.to_be_bytes(), Duration::ZERO)))
            .collect();
        fb.sort_by_key(|&(i, _)| i);
        for (i, fate) in fb {
            assert_eq!(fa[i as usize], fate, "wire {i}");
        }
    }

    #[test]
    fn retransmits_get_fresh_fates() {
        // With p=1.0 dark impossible but per-sighting decisions: p=0.5 over
        // many sightings of ONE wire must produce both fates.
        let p = ChaosPolicy::new(11).drop_responses(0.5);
        let fates: Vec<ResponseFate> = (0..64)
            .map(|_| p.response_fate(b"same-wire", Duration::ZERO))
            .collect();
        assert!(fates.contains(&ResponseFate::Drop));
        assert!(fates.contains(&ResponseFate::Deliver));
    }

    #[test]
    fn dark_window_drops_everything_inside() {
        let p = ChaosPolicy::new(0).dark_window(Duration::from_secs(2), Duration::from_secs(1));
        assert_eq!(
            p.response_fate(b"q", Duration::from_secs(1)),
            ResponseFate::Deliver
        );
        assert_eq!(
            p.response_fate(b"q", Duration::from_millis(2500)),
            ResponseFate::Drop
        );
        assert_eq!(
            p.response_fate(b"q", Duration::from_secs(3)),
            ResponseFate::Deliver
        );
        assert_eq!(p.stats.dropped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reset_after_counts() {
        let p = ChaosPolicy::new(0).reset_after(3);
        assert!(!p.should_reset(2));
        assert!(p.should_reset(3));
        assert_eq!(p.stats.resets.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn refuse_rate_and_determinism() {
        let a = ChaosPolicy::new(5).refuse_accepts(0.5);
        let b = ChaosPolicy::new(5).refuse_accepts(0.5);
        let fa: Vec<bool> = (0..200).map(|_| a.refuse_accept()).collect();
        let fb: Vec<bool> = (0..200).map(|_| b.refuse_accept()).collect();
        assert_eq!(fa, fb);
        let refusals = fa.iter().filter(|&&r| r).count();
        assert!(refusals > 50 && refusals < 150, "refusals {refusals}");
    }
}
