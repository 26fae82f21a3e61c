//! The simulator driver: the querier core as an [`ldp_netsim`] node — the
//! client side of the §5 protocol experiments.
//!
//! A [`SimDriver`] feeds its slice of the trace to the same
//! [`Querier`](crate::querier::Querier) the live engine runs, on the
//! simulator's virtual clock (so a record goes out exactly at its trace
//! time), and carries the core's actions over simulated transports: a UDP
//! socket is a local port, a connection is a [`TcpStack`] connection (with
//! a [`TlsEndpoint`] over it for TLS) or a QUIC session. A connection
//! holds its writes until its handshakes complete; the server's idle
//! timeout closing it makes the source's next query reconnect — precisely
//! the client behaviour whose consequences Figures 13–15 measure.

use std::collections::HashMap;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;

use ldp_metrics::ShardCounters;
use ldp_netsim::quic::{self, QuicFrame};
use ldp_netsim::{
    ConnKey, Ctx, Node, NodeEvent, Packet, Payload, SimDuration, TcpConfig, TcpEvent, TcpStack,
    TlsEndpoint, TlsOutput, TlsRole,
};
use ldp_trace::{Protocol, TraceRecord};
use ldp_wire::framing::split_frame;
use ldp_wire::{DNS_PORT, DNS_TLS_PORT};

use crate::ledger::SockRef;
use crate::outcome::Outcomes;
use crate::querier::{Action, Config, Querier, ReplayMode};
use crate::retry::RetryPolicy;

/// Token of the core's wake timer. Bit 63 is clear, so it can never
/// collide with the tokens [`TcpStack`] stamps with `TCP_TIMER_BIT`.
const WAKE: u64 = 0;

/// UDP socket slot `s` is local port `FIRST_PORT + s`.
const FIRST_PORT: u16 = 10_000;

/// The local port carrying QUIC (sessions are told apart by connection
/// id, not 4-tuple, so one port per querier suffices).
const QUIC_PORT: u16 = 8853;

/// A connection: its transport, and the writes it holds until it is up.
struct Link {
    kind: Kind,
    established: bool,
    queued: Vec<Vec<u8>>,
}

enum Kind {
    /// A TCP connection, with a TLS session over it for DNS over TLS.
    Tcp {
        key: ConnKey,
        tls: Option<TlsEndpoint>,
        /// Received bytes not yet forming a whole frame.
        partial: Vec<u8>,
    },
    Quic {
        conn_id: u64,
    },
}

/// A simulated querier node.
pub struct SimDriver {
    addr: IpAddr,
    server: IpAddr,
    core: Querier,
    wires: Vec<Vec<u8>>,
    counters: Arc<ShardCounters>,
    tcp: TcpStack,
    /// Per connection index.
    links: Vec<Option<Link>>,
    by_key: HashMap<ConnKey, u32>,
    by_quic_id: HashMap<u64, u32>,
    next_quic_id: u64,
    /// When the wake timer is set for.
    armed: Option<u64>,
}

impl SimDriver {
    /// A querier at `addr` replaying `records` (time-ordered, as the plan
    /// partition leaves them) against `server`. Trace time is replay time:
    /// a record stamped t µs goes out at simulated time t.
    pub fn new(
        addr: IpAddr,
        server: IpAddr,
        tcp_config: TcpConfig,
        records: Vec<TraceRecord>,
    ) -> SimDriver {
        let counters = Arc::new(ShardCounters::default());
        let mut core = Querier::new(Config {
            mode: ReplayMode::Timed { speed: 1.0 },
            trace_epoch_us: 0,
            max_sockets: usize::from(u16::MAX - FIRST_PORT) + 1,
            // What the simulated client always did: no expiry, no
            // retransmits.
            policy: RetryPolicy::disabled(),
            obs: None,
            counters: counters.clone(),
        });
        core.feed(records);
        SimDriver {
            addr,
            server,
            core,
            wires: Vec::new(),
            counters,
            tcp: TcpStack::new(addr, tcp_config),
            links: Vec::new(),
            by_key: HashMap::new(),
            by_quic_id: HashMap::new(),
            // Connection ids must be unique across queriers (real clients
            // pick random 64-bit ids); the high bits come from this
            // querier's address (its IPv4 bits, or an IPv6 address's low
            // 64), so parallel queriers never collide at the server.
            next_quic_id: match addr {
                IpAddr::V4(v4) => u64::from(u32::from(v4)) << 32 | 1,
                IpAddr::V6(v6) => (u128::from(v6) as u64) << 32 | 1,
            },
            armed: None,
        }
    }

    /// Moves the outcomes so far out, one per record sent; the querier
    /// keeps none (take them once the run is over).
    pub fn take_outcomes(&mut self) -> Outcomes {
        Outcomes::new(vec![self.core.take_log()])
    }

    /// Fraction of the records replayed so far that were answered. Every
    /// record's row ends up counted in `sent` or in `errors`, so this reads
    /// the counters and holds after [`SimDriver::take_outcomes`] too.
    pub fn answer_rate(&self) -> f64 {
        let c = &self.counters;
        c.answered.get() as f64 / (c.sent.get() + c.errors.get()).max(1) as f64
    }

    /// The querier's counters.
    pub fn counters(&self) -> &ShardCounters {
        &self.counters
    }

    /// Runs the core's actions until it waits; with `jobs_only`, only
    /// while it holds work that answers queued (a truncated answer's TCP
    /// fallback), so records go out at their own wakes.
    fn drive(&mut self, ctx: &mut Ctx, jobs_only: bool) {
        while !jobs_only || self.core.has_jobs() {
            let now = ctx.now().as_nanos();
            match self.core.poll(now, &mut self.wires) {
                Action::Open(sock, protocol) => {
                    self.open(ctx, sock, protocol);
                    self.core.opened(now, true);
                }
                Action::Send(sock) | Action::Resend(sock) => {
                    self.send(ctx, sock);
                    self.core.sent(now, &[]);
                }
                Action::Wait(at) => {
                    if let Some(at) = at.filter(|&at| self.armed.is_none_or(|a| at < a)) {
                        ctx.set_timer(SimDuration(at.saturating_sub(now)), WAKE);
                        self.armed = Some(at);
                    }
                    return;
                }
            }
        }
    }

    fn open(&mut self, ctx: &mut Ctx, sock: SockRef, protocol: Protocol) {
        let SockRef::Conn(k) = sock else {
            return;
        };
        let kind = if protocol == Protocol::Quic {
            let conn_id = self.next_quic_id;
            self.next_quic_id += 1;
            self.by_quic_id.insert(conn_id, k);
            ctx.send(self.quic_packet(QuicFrame::Initial { conn_id }));
            Kind::Quic { conn_id }
        } else {
            let port = match protocol {
                Protocol::Tls => DNS_TLS_PORT,
                _ => DNS_PORT,
            };
            let key = self
                .tcp
                .connect(ctx, None, SocketAddr::new(self.server, port));
            self.by_key.insert(key, k);
            Kind::Tcp {
                key,
                tls: (protocol == Protocol::Tls).then(|| TlsEndpoint::new(TlsRole::Client)),
                partial: Vec::new(),
            }
        };
        let k = k as usize;
        if k >= self.links.len() {
            self.links.resize_with(k + 1, || None);
        }
        self.links[k] = Some(Link {
            kind,
            established: false,
            queued: Vec::new(),
        });
    }

    /// Puts the buffer's wires on `sock`.
    fn send(&mut self, ctx: &mut Ctx, sock: SockRef) {
        let mut wires = std::mem::take(&mut self.wires);
        for wire in wires.drain(..) {
            match sock {
                SockRef::Udp(s) => ctx.send(Packet::udp(
                    SocketAddr::new(self.addr, FIRST_PORT.wrapping_add(s as u16)),
                    SocketAddr::new(self.server, DNS_PORT),
                    wire,
                )),
                SockRef::Conn(k) => self.write(ctx, k, wire),
            }
        }
        self.wires = wires;
    }

    /// Writes one framed message on connection `k`, or holds it until the
    /// connection is up. A TLS session still handshaking holds it itself.
    fn write(&mut self, ctx: &mut Ctx, k: u32, framed: Vec<u8>) {
        let Some(Some(link)) = self.links.get_mut(k as usize) else {
            return;
        };
        if !link.established {
            link.queued.push(framed);
            return;
        }
        match &mut link.kind {
            Kind::Tcp {
                key,
                tls: Some(tls),
                ..
            } => send_tls(&mut self.tcp, ctx, *key, tls.write_app_data(&framed)),
            Kind::Tcp { key, tls: None, .. } => self.tcp.send(ctx, *key, &framed),
            &mut Kind::Quic { conn_id } => {
                let data = framed;
                ctx.send(self.quic_packet(QuicFrame::App { conn_id, data }));
            }
        }
    }

    /// Connection `k` is up: a TLS session starts its handshake, and the
    /// held writes go out.
    fn established(&mut self, ctx: &mut Ctx, k: u32) {
        let Some(Some(link)) = self.links.get_mut(k as usize) else {
            return;
        };
        link.established = true;
        let queued = std::mem::take(&mut link.queued);
        if let Kind::Tcp {
            key,
            tls: Some(tls),
            ..
        } = &mut link.kind
        {
            send_tls(&mut self.tcp, ctx, *key, tls.on_tcp_connected());
        }
        for data in queued {
            self.write(ctx, k, data);
        }
    }

    fn quic_packet(&self, frame: QuicFrame) -> Packet {
        Packet::udp(
            SocketAddr::new(self.addr, QUIC_PORT),
            SocketAddr::new(self.server, DNS_TLS_PORT),
            quic::encode(&frame),
        )
    }

    /// Closes connection `k`: the source's next query reconnects — the
    /// fresh-connection latency mode of Figure 15b.
    fn close(&mut self, k: u32) {
        if let Some(link) = self.links.get_mut(k as usize) {
            *link = None;
        }
        self.core.closed(SockRef::Conn(k));
    }

    fn on_tcp(&mut self, ctx: &mut Ctx, events: Vec<TcpEvent>) {
        for event in events {
            match event {
                TcpEvent::Connected(key) => {
                    if let Some(&k) = self.by_key.get(&key) {
                        self.established(ctx, k);
                    }
                }
                TcpEvent::Data(key, bytes) => {
                    let Some(&k) = self.by_key.get(&key) else {
                        continue;
                    };
                    let Some(Some(Link {
                        kind: Kind::Tcp { tls, partial, .. },
                        ..
                    })) = self.links.get_mut(k as usize)
                    else {
                        continue;
                    };
                    match tls {
                        Some(tls) => {
                            for out in tls.on_bytes(&bytes) {
                                match out {
                                    TlsOutput::SendBytes(b) => self.tcp.send(ctx, key, &b),
                                    TlsOutput::AppData(d) => partial.extend_from_slice(&d),
                                    TlsOutput::HandshakeComplete => {}
                                }
                            }
                        }
                        None => partial.extend_from_slice(&bytes),
                    }
                    let mut rest = &partial[..];
                    while let Some((msg, tail)) = split_frame(rest) {
                        self.core
                            .answer(SockRef::Conn(k), msg, ctx.now().as_nanos());
                        rest = tail;
                    }
                    let used = partial.len() - rest.len();
                    partial.drain(..used);
                }
                TcpEvent::PeerClosed(key) | TcpEvent::Closed(key) => {
                    if let Some(k) = self.by_key.remove(&key) {
                        self.close(k);
                    }
                }
                TcpEvent::Accepted(_) => {}
            }
        }
    }

    fn on_quic(&mut self, ctx: &mut Ctx, data: &[u8]) {
        match quic::decode(data) {
            Some(QuicFrame::Accept { conn_id }) => {
                if let Some(&k) = self.by_quic_id.get(&conn_id) {
                    self.established(ctx, k);
                }
            }
            Some(QuicFrame::App { conn_id, data }) => {
                // Past the 2-byte length prefix.
                if let (Some(&k), Some(msg)) = (self.by_quic_id.get(&conn_id), data.get(2..)) {
                    self.core
                        .answer(SockRef::Conn(k), msg, ctx.now().as_nanos());
                }
            }
            // The server idle-expired the session: the next query
            // re-handshakes.
            Some(QuicFrame::Close { conn_id }) => {
                if let Some(k) = self.by_quic_id.remove(&conn_id) {
                    self.close(k);
                }
            }
            Some(QuicFrame::Initial { .. }) | None => {}
        }
    }
}

fn send_tls(tcp: &mut TcpStack, ctx: &mut Ctx, key: ConnKey, outs: Vec<TlsOutput>) {
    for out in outs {
        if let TlsOutput::SendBytes(bytes) = out {
            tcp.send(ctx, key, &bytes);
        }
    }
}

impl Node for SimDriver {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.drive(ctx, false);
    }

    fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent) {
        match event {
            NodeEvent::Timer { token } if TcpStack::owns_timer(token) => {
                let events = self.tcp.on_timer(ctx, token);
                self.on_tcp(ctx, events);
            }
            NodeEvent::Timer { .. } => {
                self.armed = None;
                return self.drive(ctx, false);
            }
            NodeEvent::Packet(packet) => match &packet.payload {
                Payload::Udp(data) if packet.dst.port() == QUIC_PORT => self.on_quic(ctx, data),
                Payload::Udp(data) => {
                    let slot = packet.dst.port().wrapping_sub(FIRST_PORT);
                    let now = ctx.now().as_nanos();
                    self.core.answer(SockRef::Udp(u32::from(slot)), data, now);
                }
                Payload::Tcp(_) => {
                    let events = self.tcp.on_packet(ctx, &packet);
                    self.on_tcp(ctx, events);
                }
            },
        }
        self.drive(ctx, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{non_busy_latencies_ms, non_busy_latency_hist, per_client_counts};
    use ldp_netsim::{Sim, SimDuration, SimTime};
    use ldp_server::auth::AuthEngine;
    use ldp_server::resource::ResourceModel;
    use ldp_server::sim::AuthServerNode;
    use ldp_wire::{Name, RrType};
    use ldp_workload::zones::wildcard_example_zone;
    use ldp_zone::ZoneSet;

    /// Each outcome's latency in milliseconds; an unanswered query panics.
    fn latencies_ms(q: &mut SimDriver) -> Vec<f64> {
        let outcomes = q.take_outcomes();
        let lat = outcomes
            .iter()
            .map(|o| o.latency_us.map(|us| us as f64 / 1000.0));
        lat.map(|l| l.expect("answered")).collect()
    }

    fn engine() -> Arc<AuthEngine> {
        let mut set = ZoneSet::new();
        set.insert(wildcard_example_zone());
        Arc::new(AuthEngine::with_zones(Arc::new(set)))
    }

    fn trace(n: u64, gap_us: u64, protocol: Protocol, sources: u32) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let mut rec = TraceRecord::udp_query(
                    1000 + i * gap_us,
                    format!("10.9.0.{}", 1 + (i as u32 % sources))
                        .parse()
                        .unwrap(),
                    (2000 + i) as u16,
                    Name::parse(&format!("q{i}.example.com")).unwrap(),
                    RrType::A,
                );
                rec.protocol = protocol;
                rec
            })
            .collect()
    }

    fn world(
        records: Vec<TraceRecord>,
        server_tcp: TcpConfig,
        rtt_ms: u64,
    ) -> (Sim, ldp_netsim::NodeId, ldp_netsim::NodeId) {
        let mut sim = Sim::new();
        let q = sim.add_node(Box::new(SimDriver::new(
            "10.9.9.9".parse().unwrap(),
            "192.0.2.53".parse().unwrap(),
            TcpConfig::default(),
            records,
        )));
        let s = sim.add_node(Box::new(AuthServerNode::new(
            "192.0.2.53".parse().unwrap(),
            engine(),
            server_tcp,
            ResourceModel::default(),
        )));
        sim.bind("10.9.9.9".parse().unwrap(), q);
        sim.bind("192.0.2.53".parse().unwrap(), s);
        sim.set_pair_delay(q, s, SimDuration::from_millis(rtt_ms / 2));
        (sim, q, s)
    }

    #[test]
    fn udp_latency_is_one_rtt() {
        let (mut sim, q, _) = world(trace(10, 1000, Protocol::Udp, 3), TcpConfig::default(), 40);
        sim.run_until(SimTime::from_secs(5));
        let querier: &mut SimDriver = sim.node_as_mut(q).unwrap();
        assert!((querier.answer_rate() - 1.0).abs() < 1e-9);
        let outcomes = querier.take_outcomes();
        assert_eq!(outcomes.len(), 10);
        for o in &outcomes {
            assert_eq!(o.latency_us, Some(40_000), "UDP = exactly 1 RTT");
            // Sent exactly at trace time (virtual clock).
            assert_eq!(o.sent_offset_us, o.trace_offset_us);
        }
    }

    #[test]
    fn tcp_first_query_two_rtt_then_reuse_one_rtt() {
        let (mut sim, q, s) = world(
            trace(5, 100_000, Protocol::Tcp, 1),
            TcpConfig::default(),
            40,
        );
        sim.run_until(SimTime::from_secs(5));
        let querier: &mut SimDriver = sim.node_as_mut(q).unwrap();
        assert!((querier.answer_rate() - 1.0).abs() < 1e-9);
        let lat = latencies_ms(querier);
        assert_eq!(lat[0], 80.0, "fresh connection: 2 RTT");
        for &l in &lat[1..] {
            assert_eq!(l, 40.0, "reused connection: 1 RTT");
        }
        // Server saw exactly one handshake.
        let server: &AuthServerNode = sim.node_as(s).unwrap();
        assert_eq!(server.usage.tcp_handshakes, 1);
        assert_eq!(server.usage.stream_queries, 5);
    }

    #[test]
    fn tls_first_query_four_rtt_then_reuse() {
        let (mut sim, q, s) = world(
            trace(4, 200_000, Protocol::Tls, 1),
            TcpConfig::default(),
            40,
        );
        sim.run_until(SimTime::from_secs(5));
        let querier: &mut SimDriver = sim.node_as_mut(q).unwrap();
        assert!(
            (querier.answer_rate() - 1.0).abs() < 1e-9,
            "rate {}",
            querier.answer_rate()
        );
        let lat = latencies_ms(querier);
        assert_eq!(lat[0], 160.0, "TCP(1) + TLS(2) + query(1) = 4 RTT");
        for &l in &lat[1..] {
            assert_eq!(l, 40.0, "established session: 1 RTT");
        }
        let server: &AuthServerNode = sim.node_as(s).unwrap();
        assert_eq!(server.usage.tls_handshakes, 1);
    }

    #[test]
    fn quic_first_query_two_rtt_then_reuse_one_rtt() {
        // QUIC folds crypto into the transport handshake: fresh session =
        // 2 RTT total (1 handshake + 1 query), reuse = 1 RTT — half of
        // TLS's fresh cost.
        let (mut sim, q, s) = world(
            trace(4, 100_000, Protocol::Quic, 1),
            TcpConfig::default(),
            40,
        );
        sim.run_until(SimTime::from_secs(5));
        let querier: &mut SimDriver = sim.node_as_mut(q).unwrap();
        assert!(
            (querier.answer_rate() - 1.0).abs() < 1e-9,
            "rate {}",
            querier.answer_rate()
        );
        let lat = latencies_ms(querier);
        assert_eq!(lat[0], 80.0, "fresh QUIC session: 2 RTT");
        for &l in &lat[1..] {
            assert_eq!(l, 40.0, "established session: 1 RTT");
        }
        let server: &AuthServerNode = sim.node_as(s).unwrap();
        assert_eq!(server.usage.quic_handshakes, 1);
        assert_eq!(server.usage.stream_queries, 4);
        assert_eq!(server.quic.len(), 1);
        // And crucially: no TCP state at all — no TIME_WAIT ever.
        assert_eq!(server.tcp.snapshot().established, 0);
        assert_eq!(server.tcp.snapshot().time_wait, 0);
    }

    #[test]
    fn quic_sessions_expire_and_rehandshake() {
        // Two queries 30 s apart with a 20 s idle timeout: the session is
        // swept, the client learns via Close, and the second query pays
        // the handshake again — but leaves no TIME_WAIT residue.
        let records = vec![trace(1, 0, Protocol::Quic, 1).remove(0), {
            let mut r = trace(1, 0, Protocol::Quic, 1).remove(0);
            r.time_us = 30_000_000;
            r
        }];
        let server_tcp = TcpConfig {
            idle_timeout: Some(SimDuration::from_secs(20)),
            ..TcpConfig::default()
        };
        let (mut sim, q, s) = world(records, server_tcp, 40);
        sim.run_until(SimTime::from_secs(120));
        let querier: &mut SimDriver = sim.node_as_mut(q).unwrap();
        let lat = latencies_ms(querier);
        assert_eq!(lat, vec![80.0, 80.0], "both queries on fresh sessions");
        let server: &AuthServerNode = sim.node_as(s).unwrap();
        assert_eq!(server.usage.quic_handshakes, 2);
        assert_eq!(server.quic.idle_closed, 2);
        assert_eq!(server.tcp.snapshot().time_wait, 0, "no TIME_WAIT in QUIC");
    }

    #[test]
    fn server_idle_timeout_forces_reconnect() {
        // Two queries 30s apart with a 20s server idle timeout: the second
        // query pays the fresh-connection 2 RTT again.
        let records = vec![trace(1, 0, Protocol::Tcp, 1).remove(0), {
            let mut r = trace(1, 0, Protocol::Tcp, 1).remove(0);
            r.time_us = 30_000_000;
            r
        }];
        let server_tcp = TcpConfig {
            idle_timeout: Some(SimDuration::from_secs(20)),
            ..TcpConfig::default()
        };
        let (mut sim, q, s) = world(records, server_tcp, 40);
        sim.run_until(SimTime::from_secs(120));
        let querier: &mut SimDriver = sim.node_as_mut(q).unwrap();
        let lat = latencies_ms(querier);
        assert_eq!(lat, vec![80.0, 80.0], "both queries on fresh connections");
        let server: &AuthServerNode = sim.node_as(s).unwrap();
        assert_eq!(server.usage.tcp_handshakes, 2);
        assert_eq!(server.tcp.snapshot().idle_closed, 2);
    }

    #[test]
    fn mixed_protocol_trace() {
        let mut records = trace(20, 10_000, Protocol::Udp, 4);
        for (i, r) in records.iter_mut().enumerate() {
            if i % 3 == 0 {
                r.protocol = Protocol::Tcp;
            }
        }
        let (mut sim, q, _) = world(records, TcpConfig::default(), 10);
        sim.run_until(SimTime::from_secs(5));
        let querier: &SimDriver = sim.node_as(q).unwrap();
        assert!((querier.answer_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn truncated_udp_retries_over_tcp() {
        use ldp_wire::Edns;
        use ldp_zone::dnssec::SigningConfig;
        // The signed root's apex DNSKEY answer (two keys + signature)
        // exceeds 512 bytes; a query with a small advertised payload gets
        // TC over UDP and must fall back to TCP, paying the extra round
        // trips but ultimately answering.
        let mut zones = ZoneSet::new();
        zones.insert(ldp_workload::zones::signed_root_zone(
            5,
            SigningConfig::zsk2048(),
        ));
        let engine = Arc::new(AuthEngine::with_zones(Arc::new(zones)));

        let mut rec = TraceRecord::udp_query(
            1000,
            "10.9.0.1".parse().unwrap(),
            4000,
            Name::root(),
            RrType::Dnskey,
        );
        rec.message.edns = Some(Edns {
            udp_payload_size: 512,
            dnssec_ok: true,
            ..Edns::default()
        });

        let mut sim = Sim::new();
        let q = sim.add_node(Box::new(SimDriver::new(
            "10.9.9.9".parse().unwrap(),
            "192.0.2.53".parse().unwrap(),
            TcpConfig::default(),
            vec![rec],
        )));
        let s = sim.add_node(Box::new(AuthServerNode::new(
            "192.0.2.53".parse().unwrap(),
            engine,
            TcpConfig::default(),
            ResourceModel::default(),
        )));
        sim.bind("10.9.9.9".parse().unwrap(), q);
        sim.bind("192.0.2.53".parse().unwrap(), s);
        sim.set_pair_delay(q, s, SimDuration::from_millis(20));
        sim.run_until(SimTime::from_secs(5));

        let querier: &mut SimDriver = sim.node_as_mut(q).unwrap();
        assert_eq!(
            querier.counters().tc_fallbacks.get(),
            1,
            "truncated answer must trigger TCP fallback"
        );
        // 1 RTT wasted on UDP+TC, then 2 RTT for connect+query = 3 RTT.
        assert_eq!(latencies_ms(querier), vec![120.0]);
        let server: &AuthServerNode = sim.node_as(s).unwrap();
        assert_eq!(server.usage.udp_queries, 1);
        assert_eq!(server.usage.stream_queries, 1);
    }

    #[test]
    fn per_client_helpers() {
        let (mut sim, q, _) = world(trace(30, 1000, Protocol::Udp, 3), TcpConfig::default(), 10);
        sim.run_until(SimTime::from_secs(5));
        let querier: &mut SimDriver = sim.node_as_mut(q).unwrap();
        let outcomes = querier.take_outcomes();
        let counts = per_client_counts(&outcomes);
        assert_eq!(counts.len(), 3);
        assert_eq!(counts.values().sum::<u64>(), 30);
        let quiet = non_busy_latencies_ms(&outcomes, 5);
        assert!(quiet.is_empty(), "all 3 clients sent 10 ≥ 5 queries");
        let all = non_busy_latencies_ms(&outcomes, 100);
        assert_eq!(all.len(), 30);
        assert_eq!(non_busy_latency_hist(&outcomes, 100).count(), 30);
    }
}
