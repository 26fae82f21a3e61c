//! B-Root-like and recursive-style trace generators.
//!
//! [`BRootConfig`] produces the workload shape of the paper's B-Root DITL
//! traces (Table 1): Poisson arrivals around a slowly-modulated mean rate,
//! a Zipf client population (Figure 15c), mostly-UDP transport with the
//! observed ~3% TCP share, and ~72.3% of queries carrying the DO bit.
//!
//! [`RecConfig`] produces a Rec-17-style departmental recursive workload:
//! two orders of magnitude slower, few clients, names spread over hundreds
//! of zones.

use ldp_trace::{Protocol, TraceRecord};
use ldp_wire::Edns;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::names::{client_addr, sample_qtype, sample_root_qname};
use crate::zipf::ZipfSampler;

/// Configuration for a B-Root-like trace.
#[derive(Debug, Clone, Copy)]
pub struct BRootConfig {
    /// Trace duration in seconds (the paper uses 60 min / 20 min cuts).
    pub duration_s: f64,
    /// Mean query rate (q/s). B-Root-16 ran ≈38 k q/s; scale down for
    /// in-memory experiments — every consumer takes the rate as a knob.
    pub mean_rate_qps: f64,
    /// Client population size.
    pub clients: usize,
    /// Zipf skew for the client population (≈1.3 matches Figure 15c).
    pub zipf_alpha: f64,
    /// Fraction of queries with the EDNS DO bit (2016: 0.723).
    pub do_fraction: f64,
    /// Fraction of queries over TCP (observed: 0.03).
    pub tcp_fraction: f64,
    /// Fraction of junk qnames that NXDOMAIN at the root.
    pub junk_fraction: f64,
    /// Amplitude of the slow sinusoidal rate modulation (0 = flat).
    pub rate_swing: f64,
    pub seed: u64,
}

impl Default for BRootConfig {
    fn default() -> Self {
        BRootConfig {
            duration_s: 60.0,
            mean_rate_qps: 2_000.0,
            clients: 20_000,
            zipf_alpha: 1.3,
            do_fraction: 0.723,
            tcp_fraction: 0.03,
            junk_fraction: 0.35,
            rate_swing: 0.15,
            seed: 1,
        }
    }
}

impl BRootConfig {
    /// Generates the trace (time-ordered).
    pub fn generate(&self) -> Vec<TraceRecord> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let sampler = ZipfSampler::new(self.clients.max(1), self.zipf_alpha);
        let mut out = Vec::with_capacity((self.duration_s * self.mean_rate_qps) as usize);
        let mut t = 0.0f64;
        let mut index = 0u64;
        while t < self.duration_s {
            // Poisson arrivals with sinusoidal rate modulation: the local
            // rate λ(t) wanders around the mean like real diurnal traffic.
            let phase = (t / self.duration_s) * std::f64::consts::TAU;
            let rate = self.mean_rate_qps * (1.0 + self.rate_swing * phase.sin());
            let gap = -rng.gen::<f64>().max(1e-12).ln() / rate.max(1e-9);
            t += gap;
            if t >= self.duration_s {
                break;
            }
            let rank = sampler.sample(&mut rng);
            let mut rec = TraceRecord::udp_query(
                (t * 1e6) as u64,
                client_addr(rank),
                // Source port varies per query; the replay engine maps
                // (address) → querier and (address, port) → socket.
                rng.gen_range(1024..65535),
                sample_root_qname(&mut rng, self.junk_fraction),
                sample_qtype(&mut rng),
            );
            rec.message.header.id = (index % 65_536) as u16;
            if rng.gen::<f64>() < self.tcp_fraction {
                rec.protocol = Protocol::Tcp;
            }
            if rng.gen::<f64>() < self.do_fraction {
                rec.message.edns = Some(Edns::with_do());
            } else if rng.gen::<f64>() < 0.5 {
                // Plenty of non-DO queries still carry EDNS.
                rec.message.edns = Some(Edns::default());
            }
            index += 1;
            out.push(rec);
        }
        out
    }
}

/// Configuration for a Rec-17-style recursive trace.
#[derive(Debug, Clone, Copy)]
pub struct RecConfig {
    pub duration_s: f64,
    /// Mean rate; Table 1's Rec-17 is ≈5.5 q/s (20 k queries over an hour).
    pub mean_rate_qps: f64,
    /// Tiny client population (Table 1: 91 clients).
    pub clients: usize,
    /// Number of distinct second-level zones queried (≈549 in the paper).
    pub zones: usize,
    pub seed: u64,
}

impl Default for RecConfig {
    fn default() -> Self {
        RecConfig {
            duration_s: 3600.0,
            mean_rate_qps: 5.5,
            clients: 91,
            zones: 549,
            seed: 1,
        }
    }
}

impl RecConfig {
    /// Generates the trace.
    pub fn generate(&self) -> Vec<TraceRecord> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Zone popularity is itself skewed.
        let zone_sampler = ZipfSampler::new(self.zones.max(1), 1.0);
        let client_sampler = ZipfSampler::new(self.clients.max(1), 0.9);
        let mut out = Vec::new();
        let mut t = 0.0f64;
        while t < self.duration_s {
            let gap = -rng.gen::<f64>().max(1e-12).ln() / self.mean_rate_qps;
            t += gap;
            if t >= self.duration_s {
                break;
            }
            let zone = zone_sampler.sample(&mut rng);
            let host = match rng.gen_range(0..4) {
                0 => "www",
                1 => "mail",
                2 => "api",
                _ => "cdn",
            };
            let qname =
                ldp_wire::Name::parse(&format!("{host}.zone{zone:04}.example")).expect("name");
            let mut rec = TraceRecord::udp_query(
                (t * 1e6) as u64,
                client_addr(client_sampler.sample(&mut rng)),
                rng.gen_range(1024..65535),
                qname,
                sample_qtype(&mut rng),
            );
            rec.message.header.recursion_desired = true;
            out.push(rec);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_trace::TraceStats;
    use std::collections::HashMap;

    #[test]
    fn rate_close_to_target() {
        let cfg = BRootConfig {
            duration_s: 30.0,
            mean_rate_qps: 1000.0,
            ..BRootConfig::default()
        };
        let trace = cfg.generate();
        let rate = trace.len() as f64 / 30.0;
        assert!((rate - 1000.0).abs() < 100.0, "rate {rate}");
        // Time-ordered.
        for w in trace.windows(2) {
            assert!(w[0].time_us <= w[1].time_us);
        }
    }

    #[test]
    fn protocol_and_do_mixes() {
        let cfg = BRootConfig {
            duration_s: 20.0,
            mean_rate_qps: 2000.0,
            ..BRootConfig::default()
        };
        let trace = cfg.generate();
        let tcp = trace.iter().filter(|r| r.protocol == Protocol::Tcp).count() as f64
            / trace.len() as f64;
        let do_share = trace.iter().filter(|r| r.dnssec_ok()).count() as f64 / trace.len() as f64;
        assert!((tcp - 0.03).abs() < 0.01, "tcp share {tcp}");
        assert!((do_share - 0.723).abs() < 0.02, "do share {do_share}");
    }

    #[test]
    fn client_distribution_heavy_tailed() {
        let cfg = BRootConfig {
            duration_s: 60.0,
            mean_rate_qps: 5000.0,
            clients: 10_000,
            ..BRootConfig::default()
        };
        let trace = cfg.generate();
        let mut per_client: HashMap<std::net::IpAddr, u64> = HashMap::new();
        for r in &trace {
            *per_client.entry(r.src).or_default() += 1;
        }
        let mut counts: Vec<u64> = per_client.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top1pct: u64 = counts.iter().take(per_client.len() / 100).sum();
        assert!(
            top1pct as f64 / total as f64 > 0.5,
            "top 1% share {}",
            top1pct as f64 / total as f64
        );
    }

    #[test]
    fn deterministic_by_seed() {
        let cfg = BRootConfig {
            duration_s: 5.0,
            ..BRootConfig::default()
        };
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        let c = BRootConfig {
            seed: 2,
            duration_s: 5.0,
            ..BRootConfig::default()
        }
        .generate();
        assert_ne!(a, c);
    }

    #[test]
    fn rec_trace_matches_table1_shape() {
        let trace = RecConfig {
            duration_s: 600.0,
            ..RecConfig::default()
        }
        .generate();
        let stats = TraceStats::compute(&trace);
        assert!(stats.client_ips <= 91);
        assert!(stats.interarrival_mean_s > 0.05, "slow trace expected");
        // Names spread across many zones.
        let zones: std::collections::HashSet<_> = trace
            .iter()
            .filter_map(|r| r.qname().and_then(|n| n.ancestor(2)))
            .collect();
        assert!(zones.len() > 100, "only {} zones", zones.len());
    }
}
