//! High-level experiment builder: trace in, measurements out.
//!
//! Wraps the simulator plumbing every §5-style experiment shares: build a
//! server node from zones, partition the trace across querier nodes with
//! same-source affinity, wire up RTTs, run to completion, and collect the
//! per-query outcomes and per-second server samples.

use std::net::IpAddr;
use std::sync::Arc;

use ldp_netsim::{NodeId, Sim, SimDuration, SimTime, TcpConfig};
use ldp_replay::plan::ReplayPlan;
use ldp_replay::sim::SimDriver;
use ldp_replay::Outcomes;
use ldp_server::auth::AuthEngine;
use ldp_server::resource::{ResourceModel, ResourceUsage};
use ldp_server::sim::{AuthServerNode, ServerSample};
use ldp_trace::TraceRecord;
use ldp_zone::ZoneSet;

/// Builder for a simulated server-replay experiment.
pub struct SimExperiment {
    engine: Arc<AuthEngine>,
    trace: Vec<TraceRecord>,
    rtt: SimDuration,
    /// Per-querier RTT overrides (querier index → RTT); used by Figure 15's
    /// RTT sweeps when mixing client distances.
    per_querier_rtt: Vec<(usize, SimDuration)>,
    tcp_idle_timeout: Option<SimDuration>,
    server_nagle: Option<SimDuration>,
    server_max_connections: Option<usize>,
    queriers: usize,
    grace: SimDuration,
}

impl SimExperiment {
    /// Experiment against a synthetic root zone server (the §5 setup).
    pub fn root_server(trace: Vec<TraceRecord>) -> SimExperiment {
        let mut set = ZoneSet::new();
        set.insert(ldp_workload::zones::synthetic_root_zone(200));
        SimExperiment::with_zones(set, trace)
    }

    /// Experiment against an arbitrary zone set (single shared view).
    pub fn with_zones(zones: ZoneSet, trace: Vec<TraceRecord>) -> SimExperiment {
        SimExperiment::with_engine(Arc::new(AuthEngine::with_zones(Arc::new(zones))), trace)
    }

    /// Experiment against a custom engine (e.g. split-horizon views or a
    /// signed root from [`ldp_workload::zones::signed_root_zone`]).
    pub fn with_engine(engine: Arc<AuthEngine>, trace: Vec<TraceRecord>) -> SimExperiment {
        SimExperiment {
            engine,
            trace,
            rtt: SimDuration::from_micros(500), // "<1 ms" LAN of Figure 5
            per_querier_rtt: Vec::new(),
            tcp_idle_timeout: Some(SimDuration::from_secs(20)),
            server_nagle: None,
            server_max_connections: None,
            queriers: 4,
            grace: SimDuration::from_secs(2),
        }
    }

    /// Replaces the zone with a signed root (ZSK experiments, §5.1).
    pub fn signed_root(
        trace: Vec<TraceRecord>,
        config: ldp_zone::dnssec::SigningConfig,
    ) -> SimExperiment {
        let mut set = ZoneSet::new();
        set.insert(ldp_workload::zones::signed_root_zone(200, config));
        SimExperiment::with_zones(set, trace)
    }

    /// Client↔server round-trip time in milliseconds (stored as the
    /// one-way link delay).
    pub fn rtt_ms(mut self, rtt_ms: u64) -> Self {
        self.rtt = SimDuration::from_millis(rtt_ms).mul_f64(0.5);
        self
    }

    /// Server-side TCP idle timeout in seconds (`0` disables).
    pub fn tcp_idle_timeout_s(mut self, secs: u64) -> Self {
        self.tcp_idle_timeout = (secs > 0).then(|| SimDuration::from_secs(secs));
        self
    }

    /// Enables Nagle-style write coalescing on the server (§5.2.4's
    /// latency-tail mechanism).
    pub fn server_nagle_ms(mut self, ms: u64) -> Self {
        self.server_nagle = (ms > 0).then(|| SimDuration::from_millis(ms));
        self
    }

    /// Caps the server's concurrent connections (fd/backlog exhaustion;
    /// the DoS-experiment knob). `0` = unlimited.
    pub fn server_max_connections(mut self, cap: usize) -> Self {
        self.server_max_connections = (cap > 0).then_some(cap);
        self
    }

    /// Number of querier nodes (client instances C1…Cn of Figure 12).
    pub fn queriers(mut self, n: usize) -> Self {
        self.queriers = n.max(1);
        self
    }

    /// Extra simulated time after the last trace query (lets responses
    /// drain and timeouts fire).
    pub fn grace_s(mut self, secs: u64) -> Self {
        self.grace = SimDuration::from_secs(secs);
        self
    }

    /// Gives one querier (by index) a different RTT.
    pub fn querier_rtt_ms(mut self, querier: usize, rtt_ms: u64) -> Self {
        self.per_querier_rtt
            .push((querier, SimDuration::from_millis(rtt_ms).mul_f64(0.5)));
        self
    }

    /// Builds the world, runs to completion, and collects results.
    pub fn run(self) -> SimRunResult {
        let server_addr: IpAddr = "192.0.2.53".parse().expect("addr");
        let trace_end_us = self.trace.iter().map(|r| r.time_us).max().unwrap_or(0);

        let mut sim = Sim::new();
        let server_node = AuthServerNode::new(
            server_addr,
            self.engine.clone(),
            TcpConfig {
                idle_timeout: self.tcp_idle_timeout,
                nagle_delay: self.server_nagle,
                max_connections: self.server_max_connections,
                ..TcpConfig::default()
            },
            ResourceModel::default(),
        );
        let server_id = sim.add_node(Box::new(server_node));
        sim.bind(server_addr, server_id);

        // Partition the trace with the same-source sticky plan: one
        // "distributor" whose children are the querier nodes.
        let mut plan = ReplayPlan::new(1, self.queriers);
        let parts = plan.partition(self.trace, |r| r.src);

        let mut querier_ids: Vec<NodeId> = Vec::new();
        for (i, part) in parts.into_iter().enumerate() {
            let addr: IpAddr = format!("10.200.{}.{}", i / 250, 1 + i % 250)
                .parse()
                .expect("querier addr");
            let id = sim.add_node(Box::new(SimDriver::new(
                addr,
                server_addr,
                TcpConfig::default(),
                part,
            )));
            sim.bind(addr, id);
            let one_way = self
                .per_querier_rtt
                .iter()
                .rev()
                .find(|(q, _)| *q == i)
                .map(|(_, d)| *d)
                .unwrap_or(self.rtt);
            sim.set_pair_delay(id, server_id, one_way);
            querier_ids.push(id);
        }

        let deadline = SimTime::from_micros(trace_end_us) + self.grace;
        sim.run_until(deadline);

        // The queriers' logs in querier order, one shard each — the same
        // shape the live engine's report holds.
        let mut outcomes = Outcomes::default();
        for id in &querier_ids {
            let q: &mut SimDriver = sim.node_as_mut(*id).expect("querier node");
            outcomes.append(q.take_outcomes());
        }
        let mut latency_hist = ldp_metrics::LogHistogram::new();
        for us in outcomes.iter().filter_map(|o| o.latency_us) {
            latency_hist.record(us);
        }
        let server: &AuthServerNode = sim.node_as(server_id).expect("server node");
        SimRunResult {
            outcomes,
            latency_hist,
            samples: server.samples.clone(),
            usage: server.usage,
            final_tcp: server.tcp.snapshot(),
            response_bytes: server.response_bytes,
            model: server.model,
            end_time: sim.now(),
            dropped_packets: sim.dropped_packets,
        }
    }
}

/// Results of a simulated experiment run.
#[derive(Debug, Clone)]
pub struct SimRunResult {
    /// Per-query outcomes, querier by querier, each querier's in trace
    /// order.
    pub outcomes: Outcomes,
    /// Answered-query latencies (µs) in a fixed-memory histogram.
    /// Quantiles read from here are exact to within one log-bucket width
    /// of the sorted-sample quantiles.
    pub latency_hist: ldp_metrics::LogHistogram,
    /// Per-interval server samples (memory, connections, CPU, bandwidth).
    pub samples: Vec<ServerSample>,
    pub usage: ResourceUsage,
    pub final_tcp: ldp_netsim::TcpSnapshot,
    pub response_bytes: u64,
    pub model: ResourceModel,
    pub end_time: SimTime,
    pub dropped_packets: u64,
}

impl SimRunResult {
    /// Fraction of queries answered.
    pub fn answer_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.latency_hist.count() as f64 / self.outcomes.len() as f64
    }

    /// All latencies in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| o.latency_us)
            .map(|us| us as f64 / 1000.0)
            .collect()
    }

    /// Server memory at the end of the run (GB).
    pub fn final_memory_gb(&self) -> f64 {
        self.model.memory_gb(&self.final_tcp, &self.usage)
    }

    /// Steady-state mean of a sample field from `from_s` onward.
    pub fn steady_state<F: Fn(&ServerSample) -> f64>(&self, from_s: f64, f: F) -> Option<f64> {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.t.as_secs_f64() >= from_s)
            .map(f)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Median response bandwidth (Mb/s) over steady-state samples —
    /// Figure 10's reported statistic.
    pub fn response_bandwidth_summary(&self, from_s: f64) -> Option<ldp_metrics::Summary> {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.t.as_secs_f64() >= from_s)
            .map(|s| s.response_mbps)
            .collect();
        ldp_metrics::Summary::compute(&vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_trace::Protocol;
    use ldp_workload::BRootConfig;

    fn small_trace(protocol: Option<Protocol>) -> Vec<TraceRecord> {
        let mut records = BRootConfig {
            duration_s: 3.0,
            mean_rate_qps: 300.0,
            clients: 200,
            seed: 11,
            ..BRootConfig::default()
        }
        .generate();
        if let Some(p) = protocol {
            for r in &mut records {
                r.protocol = p;
            }
        }
        records
    }

    #[test]
    fn udp_experiment_answers_everything() {
        let result = SimExperiment::root_server(small_trace(Some(Protocol::Udp)))
            .rtt_ms(10)
            .run();
        assert!(
            result.answer_rate() > 0.999,
            "rate {}",
            result.answer_rate()
        );
        assert!(result.final_memory_gb() < 2.1, "UDP stays at baseline");
        assert!(!result.samples.is_empty());
        assert_eq!(result.dropped_packets, 0);
    }

    #[test]
    fn tcp_experiment_builds_connections_and_memory() {
        let result = SimExperiment::root_server(small_trace(Some(Protocol::Tcp)))
            .rtt_ms(10)
            .tcp_idle_timeout_s(20)
            .run();
        assert!(result.answer_rate() > 0.99, "rate {}", result.answer_rate());
        assert!(result.usage.tcp_handshakes > 0);
        assert!(
            result.final_memory_gb() > 2.0,
            "connections must cost memory: {}",
            result.final_memory_gb()
        );
    }

    #[test]
    fn tls_memory_exceeds_tcp() {
        let tcp = SimExperiment::root_server(small_trace(Some(Protocol::Tcp)))
            .rtt_ms(10)
            .run();
        let tls = SimExperiment::root_server(small_trace(Some(Protocol::Tls)))
            .rtt_ms(10)
            .run();
        assert!(tls.answer_rate() > 0.99, "tls rate {}", tls.answer_rate());
        assert!(
            tls.final_memory_gb() > tcp.final_memory_gb(),
            "TLS {} !> TCP {}",
            tls.final_memory_gb(),
            tcp.final_memory_gb()
        );
        assert!(tls.usage.tls_handshakes > 0);
    }

    #[test]
    fn mixed_trace_runs() {
        let result = SimExperiment::root_server(small_trace(None))
            .rtt_ms(20)
            .run();
        assert!(result.answer_rate() > 0.99, "rate {}", result.answer_rate());
    }

    #[test]
    fn per_querier_rtt_override() {
        let result = SimExperiment::root_server(small_trace(Some(Protocol::Udp)))
            .queriers(2)
            .rtt_ms(10)
            .querier_rtt_ms(1, 100)
            .run();
        let lats = result.latencies_ms();
        let fast = lats.iter().filter(|&&l| l < 50.0).count();
        let slow = lats.iter().filter(|&&l| l >= 50.0).count();
        assert!(fast > 0 && slow > 0, "both RTT classes observed");
    }
}
