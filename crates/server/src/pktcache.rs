//! UDP response packet cache.
//!
//! The authoritative engine is deterministic over static zones: the
//! response wire is a pure function of (client IP, query wire minus the
//! message id). Production DNS frontends exploit exactly this with a
//! packet cache — dnsdist's `PacketCache` is the canonical example — and
//! the live server here does the same so the §4.3 throughput experiments
//! measure the *replay engine*, not redundant server-side re-encoding of
//! one identical answer.
//!
//! Keys are the raw query bytes with the id zeroed (so retransmits and
//! replayed duplicates with fresh ids still hit): values keep the client
//! IP they were computed for, because [`crate::auth::AuthEngine::respond`]
//! may vary by client view — the same wire from a different IP is a miss
//! and recomputes.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hit/miss/eviction counters, shared out of the cache so the serving
/// loop's owner (and the telemetry registry) can read them while the
/// cache itself stays thread-local to the UDP task. Atomics only for
/// cross-thread visibility — every writer is the single serving loop.
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    /// Entries discarded by the at-capacity wholesale clear.
    pub evictions: AtomicU64,
}

/// Bounded map from query wire (id zeroed) to the response template.
pub struct PacketCache {
    map: HashMap<Vec<u8>, (IpAddr, Vec<u8>)>,
    cap: usize,
    stats: Arc<CacheStats>,
}

impl PacketCache {
    /// `cap` bounds the number of distinct query wires kept; when full the
    /// cache is cleared wholesale (replay workloads are heavily skewed, so
    /// a cold restart refills with the hot set immediately).
    pub fn new(cap: usize) -> PacketCache {
        PacketCache::with_stats(cap, Arc::new(CacheStats::default()))
    }

    /// Like [`PacketCache::new`], but counting into caller-owned stats —
    /// how the live server surfaces cache behavior without owning the
    /// cache across tasks.
    pub fn with_stats(cap: usize, stats: Arc<CacheStats>) -> PacketCache {
        PacketCache {
            map: HashMap::new(),
            cap: cap.max(1),
            stats,
        }
    }

    /// Looks up `wire` (already id-zeroed) for `client`. On a hit, returns
    /// the response bytes with `id` patched in.
    pub fn get(&mut self, client: IpAddr, wire: &[u8], id: u16) -> Option<Vec<u8>> {
        let mut bytes = self.template(client, wire)?.to_vec();
        patch_id(&mut bytes, id);
        Some(bytes)
    }

    /// Like [`PacketCache::get`], but appends the response to `out` (a
    /// batch's reused answer buffer); returns whether it hit.
    pub fn get_into(&mut self, client: IpAddr, wire: &[u8], id: u16, out: &mut Vec<u8>) -> bool {
        let Some(template) = self.template(client, wire) else {
            return false;
        };
        let at = out.len();
        out.extend_from_slice(template);
        patch_id(&mut out[at..], id);
        true
    }

    /// The cached response for (`client`, `wire`), counting the hit or
    /// miss.
    fn template(&mut self, client: IpAddr, wire: &[u8]) -> Option<&[u8]> {
        match self.map.get(wire) {
            Some((ip, template)) if *ip == client => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(template)
            }
            _ => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores the response template for `wire` (id zeroed on both sides).
    pub fn put(&mut self, client: IpAddr, wire: &[u8], response: &[u8]) {
        if self.map.len() >= self.cap {
            self.stats
                .evictions
                .fetch_add(self.map.len() as u64, Ordering::Relaxed);
            self.map.clear();
        }
        let mut template = response.to_vec();
        patch_id(&mut template, 0);
        self.map.insert(wire.to_vec(), (client, template));
    }

    pub fn hits(&self) -> u64 {
        self.stats.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.stats.misses.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.stats.evictions.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Writes `id` over a response's first two bytes (when it has them).
fn patch_id(response: &mut [u8], id: u16) {
    if let Some(head) = response.get_mut(..2) {
        head.copy_from_slice(&id.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn hit_patches_requested_id() {
        let mut c = PacketCache::new(16);
        let query = [0, 0, 1, 2, 3];
        c.put(ip("127.0.0.1"), &query, &[9, 9, 42, 43]);
        let got = c.get(ip("127.0.0.1"), &query, 0xBEEF).unwrap();
        assert_eq!(got, vec![0xBE, 0xEF, 42, 43], "id patched, body intact");
        // A retransmit under another id hits the same entry.
        let again = c.get(ip("127.0.0.1"), &query, 7).unwrap();
        assert_eq!(&again[2..], &[42, 43]);
        assert_eq!((c.hits(), c.misses(), c.evictions()), (2, 0, 0));
    }

    #[test]
    fn different_client_ip_misses() {
        let mut c = PacketCache::new(16);
        let query = [0, 0, 1];
        c.put(ip("127.0.0.1"), &query, &[0, 0, 1]);
        assert!(
            c.get(ip("10.0.0.9"), &query, 1).is_none(),
            "view-dependent answers must not leak across clients"
        );
        assert_eq!((c.hits(), c.misses(), c.evictions()), (0, 1, 0));
    }

    #[test]
    fn capacity_bounds_the_map() {
        let mut c = PacketCache::new(4);
        for i in 0u8..32 {
            c.put(ip("127.0.0.1"), &[0, 0, i], &[0, 0, i]);
            assert!(c.len() <= 4, "cap respected after {i} inserts");
        }
        assert!(!c.is_empty());
        // 32 distinct inserts into a cap-4 map: the wholesale clear ran 8
        // times, discarding 4 entries each — every insert beyond the live
        // map was evicted.
        assert_eq!(c.evictions(), 32 - c.len() as u64);
    }

    #[test]
    fn shared_stats_survive_the_cache() {
        let stats = Arc::new(CacheStats::default());
        let query = [0, 0, 7];
        {
            let mut c = PacketCache::with_stats(16, stats.clone());
            c.put(ip("127.0.0.1"), &query, &[0, 0, 7]);
            c.get(ip("127.0.0.1"), &query, 1).unwrap();
            c.get(ip("127.0.0.2"), &query, 1);
        }
        // The cache is gone; its owner still reads the totals.
        assert_eq!(stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(stats.misses.load(Ordering::Relaxed), 1);
    }
}
