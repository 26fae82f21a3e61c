//! Simulator node wrappers: a full authoritative server node (UDP + TCP +
//! TLS with resource sampling) and a recursive resolver node.

use std::collections::HashMap;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;

use ldp_netsim::quic::{self, QuicFrame, QuicServerSessions};
use ldp_netsim::{
    ConnKey, Ctx, Node, NodeEvent, Packet, Payload, SimDuration, SimTime, TcpConfig, TcpEvent,
    TcpStack, TlsEndpoint, TlsOutput, TlsRole,
};
use ldp_wire::framing::split_frame;
use ldp_wire::{Message, DNS_PORT, DNS_TLS_PORT};

use crate::auth::{AuthEngine, NoAnswer};
use crate::recursive::{ResolverCore, ResolverStep};
use crate::resource::{ResourceModel, ResourceUsage};

/// Timer token for the periodic resource sampler (distinct from TCP-stack
/// tokens, which carry the high bit).
const SAMPLE_TOKEN: u64 = 1;
/// How often the resource sampler takes a [`ServerSample`].
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Timer token for QUIC idle-session expiry sweeps.
const QUIC_EXPIRE_TOKEN: u64 = 2;

/// One sample of server state (a row of Figures 13/14's time series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSample {
    pub t: SimTime,
    pub memory_gb: f64,
    pub established: usize,
    pub time_wait: usize,
    pub cpu_percent: f64,
    /// Response bandwidth over the last sample interval (Mbit/s).
    pub response_mbps: f64,
}

/// The authoritative meta-DNS-server as a simulation node.
///
/// Listens for UDP queries on port 53, DNS-over-TCP on 53, and emulated
/// DNS-over-TLS on 853. Per-connection stream state (frame reassembly, TLS
/// sessions) mirrors what an event-driven server process keeps per client.
pub struct AuthServerNode {
    /// The server's own address (also the TcpStack's local IP).
    pub addr: IpAddr,
    engine: Arc<AuthEngine>,
    pub tcp: TcpStack,
    tls: HashMap<ConnKey, TlsEndpoint>,
    /// Per connection, received bytes not yet forming a whole frame.
    partial: HashMap<ConnKey, Vec<u8>>,
    /// DNS-over-QUIC sessions (extension transport): conn-id keyed,
    /// sharing the TCP idle-timeout knob, with no TIME_WAIT.
    pub quic: QuicServerSessions,
    /// Peer address per QUIC connection id (for Close notifications).
    quic_peers: HashMap<u64, SocketAddr>,
    quic_idle_timeout: Option<SimDuration>,
    pub usage: ResourceUsage,
    pub model: ResourceModel,
    /// Cumulative response bytes (DNS payload + transport framing).
    pub response_bytes: u64,
    response_bytes_at_last_sample: u64,
    start: SimTime,
    pub samples: Vec<ServerSample>,
    /// Count of malformed queries dropped (failure injection visibility).
    pub malformed: u64,
}

impl AuthServerNode {
    pub fn new(
        addr: IpAddr,
        engine: Arc<AuthEngine>,
        tcp_config: TcpConfig,
        model: ResourceModel,
    ) -> AuthServerNode {
        AuthServerNode {
            addr,
            engine,
            quic_idle_timeout: tcp_config.idle_timeout,
            tcp: TcpStack::new(addr, tcp_config),
            tls: HashMap::new(),
            partial: HashMap::new(),
            quic: QuicServerSessions::new(),
            quic_peers: HashMap::new(),
            usage: ResourceUsage::default(),
            model,
            response_bytes: 0,
            response_bytes_at_last_sample: 0,
            start: SimTime::ZERO,
            samples: Vec::new(),
            malformed: 0,
        }
    }

    /// Handles a DNS-over-QUIC datagram (UDP port 853). RFC 9250 keeps
    /// the 2-byte length prefix inside the stream payload; the emulation
    /// carries exactly one framed DNS message per packet.
    fn handle_quic(&mut self, ctx: &mut Ctx, packet: &Packet, data: &[u8]) {
        let Some(frame) = quic::decode(data) else {
            self.malformed += 1;
            return;
        };
        self.usage.quic_bytes += data.len() as u64;
        match frame {
            QuicFrame::Initial { conn_id } => {
                if self.quic.open(conn_id, ctx.now()) {
                    self.usage.quic_handshakes += 1;
                    self.usage.quic_sessions = self.quic.len();
                }
                self.quic_peers.insert(conn_id, packet.src);
                ctx.send(Packet::udp(
                    packet.dst,
                    packet.src,
                    quic::encode(&QuicFrame::Accept { conn_id }),
                ));
            }
            QuicFrame::App { conn_id, data } => {
                if !self.quic.touch(conn_id, ctx.now()) {
                    // Unknown session (expired): tell the client.
                    ctx.send(Packet::udp(
                        packet.dst,
                        packet.src,
                        quic::encode(&QuicFrame::Close { conn_id }),
                    ));
                    return;
                }
                // Strip the RFC 9250 2-byte length prefix.
                if data.len() < 2 {
                    self.malformed += 1;
                    return;
                }
                let dns = &data[2..];
                let mut framed = Vec::new();
                match self.engine.answer_framed(packet.src.ip(), dns, &mut framed) {
                    Err(NoAnswer::Malformed(_)) => {
                        self.malformed += 1;
                        return;
                    }
                    Err(NoAnswer::Unencodable(_)) => {
                        self.usage.stream_queries += 1;
                        return;
                    }
                    Ok(()) => self.usage.stream_queries += 1,
                }
                let reply = quic::encode(&QuicFrame::App {
                    conn_id,
                    data: framed,
                });
                self.response_bytes += 28 + reply.len() as u64;
                self.usage.quic_bytes += reply.len() as u64;
                ctx.send(Packet::udp(packet.dst, packet.src, reply));
            }
            QuicFrame::Close { conn_id } => {
                self.quic.close(conn_id);
                self.quic_peers.remove(&conn_id);
                self.usage.quic_sessions = self.quic.len();
            }
            QuicFrame::Accept { .. } => {}
        }
    }

    fn expire_quic(&mut self, ctx: &mut Ctx) {
        if let Some(timeout) = self.quic_idle_timeout {
            let expired = self.quic.expire_idle(ctx.now(), timeout);
            for conn_id in expired {
                if let Some(peer) = self.quic_peers.remove(&conn_id) {
                    ctx.send(Packet::udp(
                        SocketAddr::new(self.addr, DNS_TLS_PORT),
                        peer,
                        quic::encode(&QuicFrame::Close { conn_id }),
                    ));
                }
            }
            self.usage.quic_sessions = self.quic.len();
            ctx.set_timer(SimDuration::from_secs(1), QUIC_EXPIRE_TOKEN);
        }
    }

    fn answer_udp(&mut self, ctx: &mut Ctx, packet: &Packet, data: &[u8]) {
        let mut bytes = Vec::new();
        match self
            .engine
            .answer_wire(packet.src.ip(), data, false, &mut bytes)
        {
            Err(NoAnswer::Malformed(_)) => self.malformed += 1,
            Err(NoAnswer::Unencodable(_)) => self.usage.udp_queries += 1,
            Ok(()) => {
                self.usage.udp_queries += 1;
                self.response_bytes += 28 + bytes.len() as u64;
                ctx.send(Packet::udp(packet.dst, packet.src, bytes));
            }
        }
    }

    fn answer_stream(&mut self, ctx: &mut Ctx, key: ConnKey, dns_bytes: &[u8], is_tls: bool) {
        let mut framed = Vec::new();
        match self
            .engine
            .answer_framed(key.remote.ip(), dns_bytes, &mut framed)
        {
            Err(NoAnswer::Malformed(_)) => {
                self.malformed += 1;
                return;
            }
            Err(NoAnswer::Unencodable(_)) => {
                self.usage.stream_queries += 1;
                return;
            }
            Ok(()) => self.usage.stream_queries += 1,
        }
        self.response_bytes += 40 + framed.len() as u64;
        if is_tls {
            if let Some(tls) = self.tls.get_mut(&key) {
                self.usage.tls_bytes += framed.len() as u64;
                for out in tls.write_app_data(&framed) {
                    if let TlsOutput::SendBytes(wire) = out {
                        self.tcp.send(ctx, key, &wire);
                    }
                }
            }
        } else {
            self.tcp.send(ctx, key, &framed);
        }
    }

    fn handle_tcp_events(&mut self, ctx: &mut Ctx, events: Vec<TcpEvent>) {
        for event in events {
            match event {
                TcpEvent::Accepted(key) => {
                    self.usage.tcp_handshakes += 1;
                    self.partial.insert(key, Vec::new());
                    if key.local.port() == DNS_TLS_PORT {
                        self.tls.insert(key, TlsEndpoint::new(TlsRole::Server));
                    }
                }
                TcpEvent::Data(key, bytes) => {
                    if let Some(mut tls) = self.tls.remove(&key) {
                        let was_established = tls.is_established();
                        let outs = tls.on_bytes(&bytes);
                        self.usage.tls_bytes += bytes.len() as u64;
                        let mut app_frames = Vec::new();
                        for out in outs {
                            match out {
                                TlsOutput::SendBytes(wire) => self.tcp.send(ctx, key, &wire),
                                TlsOutput::HandshakeComplete => {
                                    if !was_established {
                                        self.usage.tls_handshakes += 1;
                                        self.usage.tls_sessions += 1;
                                    }
                                }
                                TlsOutput::AppData(data) => app_frames.push(data),
                            }
                        }
                        self.tls.insert(key, tls);
                        for data in app_frames {
                            self.feed_framer(ctx, key, &data, true);
                        }
                    } else {
                        self.feed_framer(ctx, key, &bytes, false);
                    }
                }
                TcpEvent::PeerClosed(key) | TcpEvent::Closed(key) => {
                    self.partial.remove(&key);
                    if self.tls.remove(&key).is_some() {
                        self.usage.tls_sessions = self.usage.tls_sessions.saturating_sub(1);
                    }
                }
                TcpEvent::Connected(_) => {}
            }
        }
    }

    /// Answers every whole frame the connection's bytes hold once `bytes`
    /// is appended; a partial frame waits for the next segment.
    fn feed_framer(&mut self, ctx: &mut Ctx, key: ConnKey, bytes: &[u8], is_tls: bool) {
        let mut buf = self.partial.remove(&key).unwrap_or_default();
        buf.extend_from_slice(bytes);
        let mut rest = &buf[..];
        while let Some((msg, tail)) = split_frame(rest) {
            self.answer_stream(ctx, key, msg, is_tls);
            rest = tail;
        }
        let used = buf.len() - rest.len();
        buf.drain(..used);
        self.partial.insert(key, buf);
    }

    fn take_sample(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let snap = self.tcp.snapshot();
        let elapsed_us = (now - self.start).as_secs_f64() * 1e6;
        let delta_bytes = self.response_bytes - self.response_bytes_at_last_sample;
        self.response_bytes_at_last_sample = self.response_bytes;
        let interval_s = SAMPLE_INTERVAL.as_secs_f64();
        self.samples.push(ServerSample {
            t: now,
            memory_gb: self.model.memory_gb(&snap, &self.usage),
            established: snap.established,
            time_wait: snap.time_wait,
            cpu_percent: self.model.cpu_percent(&self.usage, elapsed_us),
            response_mbps: delta_bytes as f64 * 8.0 / 1e6 / interval_s,
        });
        ctx.set_timer(SAMPLE_INTERVAL, SAMPLE_TOKEN);
    }
}

impl Node for AuthServerNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.start = ctx.now();
        ctx.set_timer(SAMPLE_INTERVAL, SAMPLE_TOKEN);
        if self.quic_idle_timeout.is_some() {
            ctx.set_timer(SimDuration::from_secs(1), QUIC_EXPIRE_TOKEN);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent) {
        match event {
            NodeEvent::Packet(packet) => match &packet.payload {
                Payload::Udp(data) => {
                    let data = data.clone();
                    if packet.dst.port() == DNS_TLS_PORT {
                        // UDP on 853 = DNS over QUIC (RFC 9250).
                        self.handle_quic(ctx, &packet, &data);
                    } else {
                        self.answer_udp(ctx, &packet, &data);
                    }
                }
                Payload::Tcp(_) => {
                    let events = self.tcp.on_packet(ctx, &packet);
                    self.handle_tcp_events(ctx, events);
                }
            },
            NodeEvent::Timer { token } if TcpStack::owns_timer(token) => {
                let events = self.tcp.on_timer(ctx, token);
                self.handle_tcp_events(ctx, events);
            }
            NodeEvent::Timer { token } if token == SAMPLE_TOKEN => {
                self.take_sample(ctx);
            }
            NodeEvent::Timer { token } if token == QUIC_EXPIRE_TOKEN => {
                self.expire_quic(ctx);
            }
            NodeEvent::Timer { .. } => {}
        }
    }
}

/// Timer token for the recursive node's retransmission tick.
const RESOLVER_TICK_TOKEN: u64 = 3;

/// The recursive resolver as a simulation node: accepts stub queries on
/// port 53/UDP, resolves iteratively against the (emulated) hierarchy.
pub struct RecursiveNode {
    addr: IpAddr,
    pub core: ResolverCore,
    /// Source port used for iterative upstream queries.
    upstream_port: u16,
}

impl RecursiveNode {
    pub fn new(addr: IpAddr, core: ResolverCore) -> RecursiveNode {
        RecursiveNode {
            addr,
            core,
            upstream_port: 40000,
        }
    }

    fn apply_steps(&mut self, ctx: &mut Ctx, steps: Vec<ResolverStep>) {
        for step in steps {
            match step {
                ResolverStep::Respond { to, message } => {
                    if let Ok(bytes) = message.to_bytes() {
                        ctx.send(Packet::udp(SocketAddr::new(self.addr, DNS_PORT), to, bytes));
                    }
                }
                ResolverStep::Ask { server, message } => {
                    if let Ok(bytes) = message.to_bytes() {
                        ctx.send(Packet::udp(
                            SocketAddr::new(self.addr, self.upstream_port),
                            SocketAddr::new(server, DNS_PORT),
                            bytes,
                        ));
                    }
                }
            }
        }
    }
}

impl Node for RecursiveNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_millis(500), RESOLVER_TICK_TOKEN);
    }

    fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent) {
        if let NodeEvent::Timer { token } = event {
            if token == RESOLVER_TICK_TOKEN {
                let steps = self.core.on_tick(ctx.now().as_micros());
                self.apply_steps(ctx, steps);
                ctx.set_timer(SimDuration::from_millis(500), RESOLVER_TICK_TOKEN);
            }
            return;
        }
        let NodeEvent::Packet(packet) = event else {
            return;
        };
        let Payload::Udp(data) = &packet.payload else {
            return;
        };
        let Ok(msg) = Message::from_bytes(data) else {
            return;
        };
        let now_us = ctx.now().as_micros();
        let steps = if msg.header.response {
            self.core.on_upstream_response(&msg, now_us)
        } else {
            self.core.on_client_query(packet.src, &msg, now_us)
        };
        self.apply_steps(ctx, steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_netsim::Sim;
    use ldp_wire::{Name, RData, Record, RrType};
    use ldp_zone::{Zone, ZoneSet};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn single_zone_engine() -> Arc<AuthEngine> {
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ))
        .unwrap();
        let mut set = ZoneSet::new();
        set.insert(z);
        Arc::new(AuthEngine::with_zones(Arc::new(set)))
    }

    /// Stub client node that sends one UDP query and records the answer.
    struct Stub {
        addr: SocketAddr,
        server: SocketAddr,
        query: Message,
        response: Option<(SimTime, Message)>,
    }

    impl Node for Stub {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.send(Packet::udp(
                self.addr,
                self.server,
                self.query.to_bytes().unwrap(),
            ));
        }
        fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent) {
            if let NodeEvent::Packet(p) = event {
                if let Payload::Udp(data) = &p.payload {
                    if let Ok(msg) = Message::from_bytes(data) {
                        self.response = Some((ctx.now(), msg));
                    }
                }
            }
        }
    }

    #[test]
    fn udp_query_answered_in_one_rtt() {
        let mut sim = Sim::new();
        let server = sim.add_node(Box::new(AuthServerNode::new(
            "192.0.2.53".parse().unwrap(),
            single_zone_engine(),
            TcpConfig::default(),
            ResourceModel::default(),
        )));
        let stub = sim.add_node(Box::new(Stub {
            addr: "10.0.0.1:5000".parse().unwrap(),
            server: "192.0.2.53:53".parse().unwrap(),
            query: Message::query(7, n("www.example.com"), RrType::A),
            response: None,
        }));
        sim.bind("192.0.2.53".parse().unwrap(), server);
        sim.bind("10.0.0.1".parse().unwrap(), stub);
        sim.set_pair_delay(stub, server, SimDuration::from_millis(10));
        sim.run_until(SimTime::from_secs(5));

        let stub_ref: &Stub = sim.node_as(stub).unwrap();
        let (t, resp) = stub_ref.response.as_ref().expect("answer");
        assert_eq!(*t, SimTime::from_millis(20), "UDP answer = 1 RTT");
        assert_eq!(resp.header.id, 7);
        assert_eq!(resp.answers.len(), 1);

        let server_ref: &AuthServerNode = sim.node_as(server).unwrap();
        assert_eq!(server_ref.usage.udp_queries, 1);
        assert!(server_ref.response_bytes > 0);
        assert!(!server_ref.samples.is_empty(), "sampler ran");
    }

    #[test]
    fn malformed_udp_counted_not_crashing() {
        struct Garbage {
            addr: SocketAddr,
            server: SocketAddr,
        }
        impl Node for Garbage {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(Packet::udp(self.addr, self.server, vec![1, 2, 3]));
            }
            fn on_event(&mut self, _: &mut Ctx, _: NodeEvent) {}
        }
        let mut sim = Sim::new();
        let server = sim.add_node(Box::new(AuthServerNode::new(
            "192.0.2.53".parse().unwrap(),
            single_zone_engine(),
            TcpConfig::default(),
            ResourceModel::default(),
        )));
        let g = sim.add_node(Box::new(Garbage {
            addr: "10.0.0.1:5000".parse().unwrap(),
            server: "192.0.2.53:53".parse().unwrap(),
        }));
        sim.bind("192.0.2.53".parse().unwrap(), server);
        sim.bind("10.0.0.1".parse().unwrap(), g);
        sim.run_until(SimTime::from_secs(2));
        let server_ref: &AuthServerNode = sim.node_as(server).unwrap();
        assert_eq!(server_ref.malformed, 1);
        assert_eq!(server_ref.usage.udp_queries, 0);
    }
}
