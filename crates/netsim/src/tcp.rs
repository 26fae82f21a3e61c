//! Simulated TCP: connection lifecycle at message granularity.
//!
//! What is modeled (because the paper's experiments measure it):
//! * 3-way handshake — queries over fresh connections pay an extra RTT
//!   (Figure 15's 2-RTT TCP medians for non-busy clients),
//! * graceful close and **TIME_WAIT** — the actively-closing side holds the
//!   socket for 2·MSL, which is where Figure 13c/14c's ~120k TIME_WAIT
//!   sockets come from,
//! * **idle timeouts** — the server closes connections idle longer than the
//!   configured window (the 5–40 s sweep of Figures 11/13/14),
//! * connection reuse — an established connection carries any number of
//!   length-framed DNS messages with no additional setup cost,
//! * optional **Nagle-style write coalescing** — small writes buffered
//!   briefly and flushed as one segment, reproducing the reassembly-delay
//!   tail the paper observed (§5.2.4),
//! * connection-count snapshots for memory/footprint accounting.
//!
//! What is abstracted: sequence numbers, windows, retransmission — the
//! simulated links are lossless for TCP, so reliability machinery would add
//! state without changing any measured quantity.

use std::collections::HashMap;
use std::net::{IpAddr, SocketAddr};

use crate::packet::{Packet, Payload, TcpWire};
use crate::sim::Ctx;
use crate::time::{SimDuration, SimTime};

/// Connection identity: (local, remote) socket pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnKey {
    pub local: SocketAddr,
    pub remote: SocketAddr,
}

/// TCP connection states (condensed from RFC 793's diagram to the arcs the
/// simulation exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Client sent SYN, awaiting SYN-ACK.
    SynSent,
    /// Server got SYN, sent SYN-ACK, awaiting ACK.
    SynRcvd,
    Established,
    /// Sent FIN, awaiting FIN-ACK (active close).
    FinWait,
    /// Active closer after the handshake: socket lingers 2·MSL.
    TimeWait,
}

/// Events surfaced to the owning node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// Client-side: connect completed; queued writes were flushed.
    Connected(ConnKey),
    /// Server-side: a new connection completed its handshake.
    Accepted(ConnKey),
    /// Stream bytes arrived (app applies its own framing).
    Data(ConnKey, Vec<u8>),
    /// The peer closed; local side replied and the connection is gone.
    PeerClosed(ConnKey),
    /// A locally-initiated close (or reset) finished.
    Closed(ConnKey),
}

/// Stack configuration.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Close connections with no traffic for this long (server-side knob in
    /// the paper's sweeps). `None` = never.
    pub idle_timeout: Option<SimDuration>,
    /// TIME_WAIT linger (2·MSL); Linux uses 60 s.
    pub time_wait: SimDuration,
    /// Nagle-style coalescing: buffer writes for this long and flush as one
    /// segment. `None` = immediate (TCP_NODELAY, as the paper sets on
    /// clients).
    pub nagle_delay: Option<SimDuration>,
    /// Refuse new connections (RST the SYN) beyond this many concurrent
    /// connection records — models file-descriptor/backlog exhaustion, the
    /// failure mode of connection-flood DoS. `None` = unlimited.
    pub max_connections: Option<usize>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            idle_timeout: None,
            time_wait: SimDuration::from_secs(60),
            nagle_delay: None,
            max_connections: None,
        }
    }
}

/// Counters describing current connection state (Figure 13b/13c inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpSnapshot {
    pub syn_pending: usize,
    pub established: usize,
    pub time_wait: usize,
    /// Total connections ever accepted or connected.
    pub total_opened: u64,
    /// Handshakes completed as the accepting side.
    pub total_accepted: u64,
    /// Connections closed by idle timeout.
    pub idle_closed: u64,
    /// SYNs refused because the connection table was full.
    pub refused: u64,
}

#[derive(Debug)]
struct Conn {
    state: TcpState,
    /// Writes queued before establishment or during a Nagle window.
    pending: Vec<u8>,
    /// Nagle flush timer outstanding.
    flush_pending: bool,
    last_activity: SimTime,
    /// Generation guard for idle timers (stale timers are ignored).
    idle_generation: u64,
}

/// Timer purposes multiplexed through the owning node's timer tokens.
#[derive(Debug, Clone, Copy)]
enum TimerKind {
    IdleCheck { generation: u64 },
    NagleFlush,
    TimeWaitExpire,
}

/// Bit marking a token as belonging to a [`TcpStack`]; nodes route such
/// tokens to [`TcpStack::on_timer`].
pub const TCP_TIMER_BIT: u64 = 1 << 63;

/// A per-node TCP endpoint multiplexer.
pub struct TcpStack {
    local_ip: IpAddr,
    config: TcpConfig,
    conns: HashMap<ConnKey, Conn>,
    timers: HashMap<u64, (ConnKey, TimerKind)>,
    next_timer: u64,
    next_port: u16,
    snapshot_totals: TcpSnapshot,
}

impl TcpStack {
    pub fn new(local_ip: IpAddr, config: TcpConfig) -> TcpStack {
        TcpStack {
            local_ip,
            config,
            conns: HashMap::new(),
            timers: HashMap::new(),
            next_timer: 0,
            next_port: 32768,
            snapshot_totals: TcpSnapshot::default(),
        }
    }

    /// True when a timer token belongs to some TCP stack.
    pub fn owns_timer(token: u64) -> bool {
        token & TCP_TIMER_BIT != 0
    }

    /// Opens a client connection to `remote`; returns the key immediately.
    /// Writes before establishment are queued. `local_port` of `None`
    /// allocates an ephemeral port (sources are distinguished by port, as
    /// in the paper's querier emulation, §2.6).
    pub fn connect(
        &mut self,
        ctx: &mut Ctx,
        local_port: Option<u16>,
        remote: SocketAddr,
    ) -> ConnKey {
        let port = local_port.unwrap_or_else(|| self.alloc_port());
        let key = ConnKey {
            local: SocketAddr::new(self.local_ip, port),
            remote,
        };
        let conn = Conn {
            state: TcpState::SynSent,
            pending: Vec::new(),
            flush_pending: false,
            last_activity: ctx.now(),
            idle_generation: 0,
        };
        self.conns.insert(key, conn);
        self.snapshot_totals.total_opened += 1;
        ctx.send(Packet::tcp(key.local, key.remote, TcpWire::Syn));
        key
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = if self.next_port == u16::MAX {
            32768
        } else {
            self.next_port + 1
        };
        p
    }

    /// Queues stream bytes on a connection. Bytes sent before the handshake
    /// completes (or within a Nagle window) are buffered.
    pub fn send(&mut self, ctx: &mut Ctx, key: ConnKey, bytes: &[u8]) {
        let nagle = self.config.nagle_delay;
        let mut arm_flush = None;
        {
            let Some(conn) = self.conns.get_mut(&key) else {
                return;
            };
            conn.last_activity = ctx.now();
            match conn.state {
                TcpState::SynSent | TcpState::SynRcvd => {
                    conn.pending.extend_from_slice(bytes);
                }
                TcpState::Established => match nagle {
                    Some(delay) => {
                        conn.pending.extend_from_slice(bytes);
                        if !conn.flush_pending {
                            conn.flush_pending = true;
                            arm_flush = Some(delay);
                        }
                    }
                    None => {
                        ctx.send(Packet::tcp(
                            key.local,
                            key.remote,
                            TcpWire::Data(bytes.to_vec()),
                        ));
                    }
                },
                // Writes to closing/closed connections are dropped, as the
                // kernel would fail them.
                TcpState::FinWait | TcpState::TimeWait => {}
            }
        }
        if let Some(delay) = arm_flush {
            let token = self.arm_timer(key, TimerKind::NagleFlush);
            ctx.set_timer(delay, token);
        }
    }

    /// Initiates a graceful close (active close: this side will hold
    /// TIME_WAIT).
    pub fn close(&mut self, ctx: &mut Ctx, key: ConnKey) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        match conn.state {
            TcpState::Established | TcpState::SynRcvd | TcpState::SynSent => {
                conn.state = TcpState::FinWait;
                ctx.send(Packet::tcp(key.local, key.remote, TcpWire::Fin));
            }
            TcpState::FinWait | TcpState::TimeWait => {}
        }
    }

    fn arm_timer(&mut self, key: ConnKey, kind: TimerKind) -> u64 {
        let token = TCP_TIMER_BIT | self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, (key, kind));
        token
    }

    fn schedule_idle_check(&mut self, ctx: &mut Ctx, key: ConnKey) {
        let Some(timeout) = self.config.idle_timeout else {
            return;
        };
        let generation = match self.conns.get_mut(&key) {
            Some(conn) => {
                conn.idle_generation += 1;
                conn.idle_generation
            }
            None => return,
        };
        let token = self.arm_timer(key, TimerKind::IdleCheck { generation });
        ctx.set_timer(timeout, token);
    }

    /// Handles an incoming packet; returns events for the application.
    /// Non-TCP packets are ignored.
    pub fn on_packet(&mut self, ctx: &mut Ctx, packet: &Packet) -> Vec<TcpEvent> {
        let Payload::Tcp(wire) = &packet.payload else {
            return Vec::new();
        };
        let key = ConnKey {
            local: packet.dst,
            remote: packet.src,
        };
        let mut events = Vec::new();
        match wire {
            TcpWire::Syn => {
                // Passive open — unless the connection table is full, in
                // which case the SYN is refused (the DoS failure mode).
                let full = self
                    .config
                    .max_connections
                    .map(|cap| self.conns.len() >= cap && !self.conns.contains_key(&key))
                    .unwrap_or(false);
                if full {
                    self.snapshot_totals.refused += 1;
                    ctx.send(Packet::tcp(key.local, key.remote, TcpWire::Rst));
                    return events;
                }
                self.conns.entry(key).or_insert_with(|| Conn {
                    state: TcpState::SynRcvd,
                    pending: Vec::new(),
                    flush_pending: false,
                    last_activity: ctx.now(),
                    idle_generation: 0,
                });
                ctx.send(Packet::tcp(key.local, key.remote, TcpWire::SynAck));
            }
            TcpWire::SynAck => {
                let established = match self.conns.get_mut(&key) {
                    Some(conn) if conn.state == TcpState::SynSent => {
                        conn.state = TcpState::Established;
                        conn.last_activity = ctx.now();
                        true
                    }
                    _ => false,
                };
                if established {
                    ctx.send(Packet::tcp(key.local, key.remote, TcpWire::Ack));
                    self.flush_pending(ctx, key);
                    self.schedule_idle_check(ctx, key);
                    events.push(TcpEvent::Connected(key));
                } else {
                    ctx.send(Packet::tcp(key.local, key.remote, TcpWire::Rst));
                }
            }
            TcpWire::Ack => {
                enum AckOutcome {
                    Accepted,
                    CloseDone,
                    Ignore,
                }
                let outcome = match self.conns.get_mut(&key) {
                    Some(conn) if conn.state == TcpState::SynRcvd => {
                        conn.state = TcpState::Established;
                        conn.last_activity = ctx.now();
                        AckOutcome::Accepted
                    }
                    Some(conn) if conn.state == TcpState::FinWait => {
                        // Peer acked our FIN without its own FIN-ACK
                        // combination — treat as close completion.
                        conn.state = TcpState::TimeWait;
                        AckOutcome::CloseDone
                    }
                    _ => AckOutcome::Ignore,
                };
                match outcome {
                    AckOutcome::Accepted => {
                        self.snapshot_totals.total_accepted += 1;
                        self.schedule_idle_check(ctx, key);
                        events.push(TcpEvent::Accepted(key));
                    }
                    AckOutcome::CloseDone => {
                        let token = self.arm_timer(key, TimerKind::TimeWaitExpire);
                        ctx.set_timer(self.config.time_wait, token);
                        events.push(TcpEvent::Closed(key));
                    }
                    AckOutcome::Ignore => {}
                }
            }
            TcpWire::Data(bytes) => {
                enum DataOutcome {
                    Deliver,
                    AcceptAndDeliver,
                    Reset,
                }
                let outcome = match self.conns.get_mut(&key) {
                    Some(conn) if conn.state == TcpState::Established => {
                        conn.last_activity = ctx.now();
                        DataOutcome::Deliver
                    }
                    Some(conn) if conn.state == TcpState::SynRcvd => {
                        // Data raced ahead of the final ACK: accept
                        // implicitly (models kernels completing the
                        // handshake from data).
                        conn.state = TcpState::Established;
                        conn.last_activity = ctx.now();
                        DataOutcome::AcceptAndDeliver
                    }
                    _ => DataOutcome::Reset,
                };
                match outcome {
                    DataOutcome::Deliver => {
                        self.schedule_idle_check(ctx, key);
                        events.push(TcpEvent::Data(key, bytes.clone()));
                    }
                    DataOutcome::AcceptAndDeliver => {
                        self.snapshot_totals.total_accepted += 1;
                        self.schedule_idle_check(ctx, key);
                        events.push(TcpEvent::Accepted(key));
                        events.push(TcpEvent::Data(key, bytes.clone()));
                    }
                    DataOutcome::Reset => {
                        ctx.send(Packet::tcp(key.local, key.remote, TcpWire::Rst));
                    }
                }
            }
            TcpWire::Fin => {
                // Passive close: reply FIN-ACK and drop immediately (the
                // passive side has no TIME_WAIT).
                if self.conns.remove(&key).is_some() {
                    ctx.send(Packet::tcp(key.local, key.remote, TcpWire::FinAck));
                    events.push(TcpEvent::PeerClosed(key));
                }
            }
            TcpWire::FinAck => {
                let close_done = match self.conns.get_mut(&key) {
                    Some(conn) if conn.state == TcpState::FinWait => {
                        conn.state = TcpState::TimeWait;
                        true
                    }
                    _ => false,
                };
                if close_done {
                    ctx.send(Packet::tcp(key.local, key.remote, TcpWire::Ack));
                    let token = self.arm_timer(key, TimerKind::TimeWaitExpire);
                    ctx.set_timer(self.config.time_wait, token);
                    events.push(TcpEvent::Closed(key));
                }
            }
            TcpWire::Rst => {
                if self.conns.remove(&key).is_some() {
                    events.push(TcpEvent::Closed(key));
                }
            }
        }
        events
    }

    fn flush_pending(&mut self, ctx: &mut Ctx, key: ConnKey) {
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.flush_pending = false;
            if !conn.pending.is_empty() && conn.state == TcpState::Established {
                let bytes = std::mem::take(&mut conn.pending);
                ctx.send(Packet::tcp(key.local, key.remote, TcpWire::Data(bytes)));
            }
        }
    }

    /// Handles a stack timer token (nodes route tokens with
    /// [`TCP_TIMER_BIT`] here).
    pub fn on_timer(&mut self, ctx: &mut Ctx, token: u64) -> Vec<TcpEvent> {
        let Some((key, kind)) = self.timers.remove(&token) else {
            return Vec::new();
        };
        match kind {
            TimerKind::NagleFlush => self.flush_pending(ctx, key),
            TimerKind::IdleCheck { generation } => {
                let timed_out = match self.conns.get(&key) {
                    Some(conn) => {
                        conn.state == TcpState::Established && conn.idle_generation == generation
                    }
                    None => false,
                };
                if timed_out {
                    self.snapshot_totals.idle_closed += 1;
                    self.close(ctx, key);
                }
            }
            TimerKind::TimeWaitExpire => {
                self.conns.remove(&key);
            }
        }
        Vec::new()
    }

    /// Current connection-state counters plus lifetime totals.
    pub fn snapshot(&self) -> TcpSnapshot {
        let mut snap = self.snapshot_totals;
        snap.syn_pending = 0;
        snap.established = 0;
        snap.time_wait = 0;
        for conn in self.conns.values() {
            match conn.state {
                TcpState::SynSent | TcpState::SynRcvd => snap.syn_pending += 1,
                TcpState::Established => snap.established += 1,
                TcpState::FinWait => snap.syn_pending += 1,
                TcpState::TimeWait => snap.time_wait += 1,
            }
        }
        snap
    }

    /// Number of connections in any state.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Node, NodeEvent, NodeId, Sim};
    use std::net::SocketAddr;

    fn sa(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    /// Test client: connects at start, sends one message, records events.
    struct Client {
        stack: TcpStack,
        target: SocketAddr,
        payload: Vec<u8>,
        close_after_reply: bool,
        events: Vec<(SimTime, TcpEvent)>,
        conn: Option<ConnKey>,
    }

    impl Node for Client {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let key = self.stack.connect(ctx, None, self.target);
            let payload = self.payload.clone();
            self.stack.send(ctx, key, &payload);
            self.conn = Some(key);
        }
        fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent) {
            match event {
                NodeEvent::Packet(p) => {
                    let evs = self.stack.on_packet(ctx, &p);
                    for e in evs {
                        if matches!(e, TcpEvent::Data(..)) && self.close_after_reply {
                            let key = self.conn.unwrap();
                            self.stack.close(ctx, key);
                        }
                        self.events.push((ctx.now(), e));
                    }
                }
                NodeEvent::Timer { token } => {
                    self.stack.on_timer(ctx, token);
                }
            }
        }
    }

    /// Test server: echoes received data.
    struct Server {
        stack: TcpStack,
        events: Vec<(SimTime, TcpEvent)>,
    }

    impl Node for Server {
        fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent) {
            match event {
                NodeEvent::Packet(p) => {
                    let evs = self.stack.on_packet(ctx, &p);
                    for e in evs {
                        if let TcpEvent::Data(key, bytes) = &e {
                            let reply = bytes.clone();
                            self.stack.send(ctx, *key, &reply);
                        }
                        self.events.push((ctx.now(), e));
                    }
                }
                NodeEvent::Timer { token } => {
                    self.stack.on_timer(ctx, token);
                }
            }
        }
    }

    fn build(
        client_cfg: TcpConfig,
        server_cfg: TcpConfig,
        rtt_ms: u64,
        close_after_reply: bool,
    ) -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new();
        let c = sim.add_node(Box::new(Client {
            stack: TcpStack::new("10.0.0.1".parse().unwrap(), client_cfg),
            target: sa("10.0.0.2:53"),
            payload: b"query".to_vec(),
            close_after_reply,
            events: vec![],
            conn: None,
        }));
        let s = sim.add_node(Box::new(Server {
            stack: TcpStack::new("10.0.0.2".parse().unwrap(), server_cfg),
            events: vec![],
        }));
        sim.bind("10.0.0.1".parse().unwrap(), c);
        sim.bind("10.0.0.2".parse().unwrap(), s);
        sim.set_pair_delay(c, s, SimDuration::from_millis(rtt_ms / 2));
        (sim, c, s)
    }

    #[test]
    fn handshake_then_data_costs_two_rtt() {
        // SYN (0.5 RTT) → SYN-ACK (1 RTT) → data (1.5 RTT) → reply (2 RTT).
        let (mut sim, c, _s) = build(TcpConfig::default(), TcpConfig::default(), 20, false);
        sim.run_until(SimTime::from_secs(1));
        let client: &Client = sim.node_as(c).unwrap();
        let connected = client
            .events
            .iter()
            .find(|(_, e)| matches!(e, TcpEvent::Connected(_)))
            .expect("connected");
        assert_eq!(connected.0, SimTime::from_millis(20), "connect = 1 RTT");
        let reply = client
            .events
            .iter()
            .find(|(_, e)| matches!(e, TcpEvent::Data(..)))
            .expect("echo reply");
        assert_eq!(reply.0, SimTime::from_millis(40), "first reply = 2 RTT");
    }

    #[test]
    fn server_accepts_and_counts() {
        let (mut sim, _c, s) = build(TcpConfig::default(), TcpConfig::default(), 10, false);
        sim.run_until(SimTime::from_secs(1));
        let server: &Server = sim.node_as(s).unwrap();
        assert!(server
            .events
            .iter()
            .any(|(_, e)| matches!(e, TcpEvent::Accepted(_))));
        let snap = server.stack.snapshot();
        assert_eq!(snap.established, 1);
        assert_eq!(snap.total_accepted, 1);
        assert_eq!(snap.time_wait, 0);
    }

    #[test]
    fn active_close_leaves_time_wait_on_closer() {
        let (mut sim, c, s) = build(TcpConfig::default(), TcpConfig::default(), 10, true);
        sim.run_until(SimTime::from_secs(5));
        let client: &Client = sim.node_as(c).unwrap();
        let server: &Server = sim.node_as(s).unwrap();
        // Client initiated the close: it holds TIME_WAIT, server is clean.
        assert_eq!(client.stack.snapshot().time_wait, 1);
        assert_eq!(server.stack.snapshot().established, 0);
        assert_eq!(server.stack.conn_count(), 0);
        assert!(server
            .events
            .iter()
            .any(|(_, e)| matches!(e, TcpEvent::PeerClosed(_))));
    }

    #[test]
    fn time_wait_expires_after_2msl() {
        let cfg = TcpConfig {
            time_wait: SimDuration::from_secs(60),
            ..TcpConfig::default()
        };
        let (mut sim, c, _s) = build(cfg, TcpConfig::default(), 10, true);
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(
            sim.node_as::<Client>(c).unwrap().stack.snapshot().time_wait,
            1
        );
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(
            sim.node_as::<Client>(c).unwrap().stack.snapshot().time_wait,
            0
        );
        assert_eq!(sim.node_as::<Client>(c).unwrap().stack.conn_count(), 0);
    }

    #[test]
    fn server_idle_timeout_closes_connection() {
        let server_cfg = TcpConfig {
            idle_timeout: Some(SimDuration::from_secs(20)),
            ..TcpConfig::default()
        };
        let (mut sim, c, s) = build(TcpConfig::default(), server_cfg, 10, false);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(
            sim.node_as::<Server>(s)
                .unwrap()
                .stack
                .snapshot()
                .established,
            1
        );
        // After the 20s idle window the server closes; it becomes the
        // active closer and holds TIME_WAIT (as the paper's server does).
        sim.run_until(SimTime::from_secs(50));
        let server: &Server = sim.node_as(s).unwrap();
        assert_eq!(server.stack.snapshot().established, 0);
        assert_eq!(server.stack.snapshot().time_wait, 1);
        assert_eq!(server.stack.snapshot().idle_closed, 1);
        // Client saw the close.
        let client: &Client = sim.node_as(c).unwrap();
        assert!(client
            .events
            .iter()
            .any(|(_, e)| matches!(e, TcpEvent::PeerClosed(_))));
    }

    #[test]
    fn activity_defers_idle_timeout() {
        // Client re-sends every 15 s; a 20 s idle timeout must never fire.
        struct Chatty {
            stack: TcpStack,
            target: SocketAddr,
            conn: Option<ConnKey>,
        }
        impl Node for Chatty {
            fn on_start(&mut self, ctx: &mut Ctx) {
                let key = self.stack.connect(ctx, None, self.target);
                self.stack.send(ctx, key, b"q");
                self.conn = Some(key);
                ctx.set_timer(SimDuration::from_secs(15), 1);
            }
            fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent) {
                match event {
                    NodeEvent::Packet(p) => {
                        self.stack.on_packet(ctx, &p);
                    }
                    NodeEvent::Timer { token } if TcpStack::owns_timer(token) => {
                        self.stack.on_timer(ctx, token);
                    }
                    NodeEvent::Timer { .. } => {
                        if let Some(key) = self.conn {
                            self.stack.send(ctx, key, b"q");
                        }
                        ctx.set_timer(SimDuration::from_secs(15), 1);
                    }
                }
            }
        }
        let mut sim = Sim::new();
        let c = sim.add_node(Box::new(Chatty {
            stack: TcpStack::new("10.0.0.1".parse().unwrap(), TcpConfig::default()),
            target: sa("10.0.0.2:53"),
            conn: None,
        }));
        let s = sim.add_node(Box::new(Server {
            stack: TcpStack::new(
                "10.0.0.2".parse().unwrap(),
                TcpConfig {
                    idle_timeout: Some(SimDuration::from_secs(20)),
                    ..TcpConfig::default()
                },
            ),
            events: vec![],
        }));
        sim.bind("10.0.0.1".parse().unwrap(), c);
        sim.bind("10.0.0.2".parse().unwrap(), s);
        sim.set_pair_delay(c, s, SimDuration::from_millis(1));
        sim.run_until(SimTime::from_secs(100));
        let server: &Server = sim.node_as(s).unwrap();
        assert_eq!(
            server.stack.snapshot().established,
            1,
            "kept alive by traffic"
        );
        assert_eq!(server.stack.snapshot().idle_closed, 0);
    }

    #[test]
    fn nagle_coalesces_small_writes() {
        // With Nagle, two writes inside the window arrive as one segment.
        struct TwoWrites {
            stack: TcpStack,
            target: SocketAddr,
        }
        impl Node for TwoWrites {
            fn on_start(&mut self, ctx: &mut Ctx) {
                self.stack.connect(ctx, None, self.target);
            }
            fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent) {
                match event {
                    NodeEvent::Packet(p) => {
                        let evs = self.stack.on_packet(ctx, &p);
                        for e in evs {
                            if let TcpEvent::Connected(key) = e {
                                // Write only once established so the Nagle
                                // window (not the pre-connect queue) governs.
                                self.stack.send(ctx, key, b"aa");
                                self.stack.send(ctx, key, b"bb");
                            }
                        }
                    }
                    NodeEvent::Timer { token } => {
                        self.stack.on_timer(ctx, token);
                    }
                }
            }
        }
        let mut sim = Sim::new();
        let c = sim.add_node(Box::new(TwoWrites {
            stack: TcpStack::new(
                "10.0.0.1".parse().unwrap(),
                TcpConfig {
                    nagle_delay: Some(SimDuration::from_millis(40)),
                    ..TcpConfig::default()
                },
            ),
            target: sa("10.0.0.2:53"),
        }));
        let s = sim.add_node(Box::new(Server {
            stack: TcpStack::new("10.0.0.2".parse().unwrap(), TcpConfig::default()),
            events: vec![],
        }));
        sim.bind("10.0.0.1".parse().unwrap(), c);
        sim.bind("10.0.0.2".parse().unwrap(), s);
        sim.set_pair_delay(c, s, SimDuration::from_millis(1));
        sim.run_until(SimTime::from_secs(2));
        let server: &Server = sim.node_as(s).unwrap();
        let datas: Vec<_> = server
            .events
            .iter()
            .filter_map(|(t, e)| match e {
                TcpEvent::Data(_, bytes) => Some((t, bytes.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(datas.len(), 1, "coalesced into one segment");
        assert_eq!(datas[0].1, b"aabb");
        // And it was delayed by the Nagle window.
        assert!(*datas[0].0 >= SimTime::from_millis(40));
    }

    #[test]
    fn data_to_unknown_connection_resets() {
        let mut sim = Sim::new();
        struct Rogue {
            target: SocketAddr,
            got_rst: bool,
        }
        impl Node for Rogue {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(Packet::tcp(
                    sa("10.0.0.1:9999"),
                    self.target,
                    TcpWire::Data(b"sneaky".to_vec()),
                ));
            }
            fn on_event(&mut self, _ctx: &mut Ctx, event: NodeEvent) {
                if let NodeEvent::Packet(p) = event {
                    if matches!(p.payload, Payload::Tcp(TcpWire::Rst)) {
                        self.got_rst = true;
                    }
                }
            }
        }
        let r = sim.add_node(Box::new(Rogue {
            target: sa("10.0.0.2:53"),
            got_rst: false,
        }));
        let s = sim.add_node(Box::new(Server {
            stack: TcpStack::new("10.0.0.2".parse().unwrap(), TcpConfig::default()),
            events: vec![],
        }));
        sim.bind("10.0.0.1".parse().unwrap(), r);
        sim.bind("10.0.0.2".parse().unwrap(), s);
        sim.run();
        assert!(sim.node_as::<Rogue>(r).unwrap().got_rst);
        assert_eq!(sim.node_as::<Server>(s).unwrap().stack.conn_count(), 0);
    }

    #[test]
    fn connection_cap_refuses_overflow() {
        // Three clients race for a 2-connection server: exactly one SYN is
        // refused and that client sees Closed, not a hang.
        let mut sim = Sim::new();
        let server_cfg = TcpConfig {
            max_connections: Some(2),
            ..TcpConfig::default()
        };
        let mut client_ids = Vec::new();
        for i in 0..3 {
            let id = sim.add_node(Box::new(Client {
                stack: TcpStack::new(
                    format!("10.0.0.{}", i + 1).parse().unwrap(),
                    TcpConfig::default(),
                ),
                target: sa("10.0.9.9:53"),
                payload: b"q".to_vec(),
                close_after_reply: false,
                events: vec![],
                conn: None,
            }));
            sim.bind(format!("10.0.0.{}", i + 1).parse().unwrap(), id);
            client_ids.push(id);
        }
        let s = sim.add_node(Box::new(Server {
            stack: TcpStack::new("10.0.9.9".parse().unwrap(), server_cfg),
            events: vec![],
        }));
        sim.bind("10.0.9.9".parse().unwrap(), s);
        sim.run_until(SimTime::from_secs(2));
        let server: &Server = sim.node_as(s).unwrap();
        let snap = server.stack.snapshot();
        assert_eq!(snap.established, 2);
        assert_eq!(snap.refused, 1);
        let rejected = client_ids
            .iter()
            .filter(|&&c| {
                sim.node_as::<Client>(c)
                    .unwrap()
                    .events
                    .iter()
                    .any(|(_, e)| matches!(e, TcpEvent::Closed(_)))
            })
            .count();
        assert_eq!(rejected, 1, "exactly one client saw the refusal");
    }

    #[test]
    fn ephemeral_ports_distinct() {
        let mut stack = TcpStack::new("10.0.0.1".parse().unwrap(), TcpConfig::default());
        let p1 = stack.alloc_port();
        let p2 = stack.alloc_port();
        assert_ne!(p1, p2);
        assert!(p1 >= 32768);
    }
}
