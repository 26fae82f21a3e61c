//! The simulator core: virtual clock, event queue, node registry, address
//! routing, per-pair delays, and per-node egress bandwidth.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::IpAddr;

use crate::loss::LossModel;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};

/// Index of a node within the simulation.
pub type NodeId = usize;

/// Events delivered to a node.
#[derive(Debug, Clone)]
pub enum NodeEvent {
    /// A packet arrived addressed to one of this node's bound addresses.
    Packet(Packet),
    /// A timer set by this node fired; `token` is whatever the node passed.
    Timer { token: u64 },
}

/// Side effects a node requests during an event callback; the simulator
/// applies them after the callback returns.
#[derive(Debug)]
pub enum Action {
    Send(Packet),
    SetTimer { delay: SimDuration, token: u64 },
}

/// Per-event context handed to nodes.
pub struct Ctx {
    now: SimTime,
    actions: Vec<Action>,
}

impl Ctx {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queues a packet for transmission.
    pub fn send(&mut self, packet: Packet) {
        self.actions.push(Action::Send(packet));
    }

    /// Schedules a timer `delay` from now carrying `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(Action::SetTimer { delay, token });
    }
}

/// A simulated host: a state machine reacting to packets and timers.
///
/// The `Any` supertrait enables downcasting a stored node back to its
/// concrete type to collect results after a run (via [`Sim::node_as`]).
pub trait Node: std::any::Any {
    fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent);

    /// Called once when the simulation starts, before any events.
    fn on_start(&mut self, _ctx: &mut Ctx) {}
}

#[derive(Debug, PartialEq, Eq)]
enum QueuedKind {
    Deliver(NodeId, Packet),
    Timer(NodeId, u64),
}

/// Heap entry; `seq` breaks ties FIFO so same-instant events keep insertion
/// order (determinism).
struct Queued {
    at: SimTime,
    seq: u64,
    kind: QueuedKind,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The discrete-event simulator.
pub struct Sim {
    clock: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Queued>>,
    nodes: Vec<Option<Box<dyn Node>>>,
    routes: HashMap<IpAddr, NodeId>,
    default_delay: SimDuration,
    pair_delay: HashMap<(NodeId, NodeId), SimDuration>,
    /// Per-node egress bandwidth (bits/s); 0 = unlimited.
    bandwidth: HashMap<NodeId, u64>,
    /// Per-node time the egress link is busy until (serialization queue).
    egress_free: HashMap<NodeId, SimTime>,
    loss: LossModel,
    started: bool,
    /// Packets dropped by the loss model.
    pub dropped_packets: u64,
    /// Packets delivered to nodes.
    pub delivered_packets: u64,
    /// Total bytes delivered (wire sizes).
    pub delivered_bytes: u64,
}

impl Default for Sim {
    fn default() -> Self {
        Sim::new()
    }
}

impl Sim {
    pub fn new() -> Sim {
        Sim {
            clock: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            routes: HashMap::new(),
            default_delay: SimDuration::from_micros(50),
            pair_delay: HashMap::new(),
            bandwidth: HashMap::new(),
            egress_free: HashMap::new(),
            loss: LossModel::none(),
            started: false,
            dropped_packets: 0,
            delivered_packets: 0,
            delivered_bytes: 0,
        }
    }

    /// Registers a node; returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.nodes.push(Some(node));
        self.nodes.len() - 1
    }

    /// Routes packets destined to `addr` to `node`.
    pub fn bind(&mut self, addr: IpAddr, node: NodeId) {
        self.routes.insert(addr, node);
    }

    /// One-way delay used when no per-pair delay is set.
    pub fn set_default_delay(&mut self, one_way: SimDuration) {
        self.default_delay = one_way;
    }

    /// One-way delay between two specific nodes (applied in both
    /// directions).
    pub fn set_pair_delay(&mut self, a: NodeId, b: NodeId, one_way: SimDuration) {
        self.pair_delay.insert((a, b), one_way);
        self.pair_delay.insert((b, a), one_way);
    }

    /// Egress bandwidth of a node in bits/s (0 = unlimited).
    pub fn set_bandwidth(&mut self, node: NodeId, bits_per_sec: u64) {
        self.bandwidth.insert(node, bits_per_sec);
    }

    /// Installs a loss/jitter model.
    pub fn set_loss(&mut self, loss: LossModel) {
        self.loss = loss;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    fn push(&mut self, at: SimTime, kind: QueuedKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Queued { at, seq, kind }));
    }

    fn delay_between(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.pair_delay
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_delay)
    }

    fn route(&self, addr: IpAddr) -> Option<NodeId> {
        self.routes.get(&addr).copied()
    }

    fn apply_actions(&mut self, from: NodeId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send(packet) => self.transmit(from, packet),
                Action::SetTimer { delay, token } => {
                    let at = self.clock + delay;
                    self.push(at, QueuedKind::Timer(from, token));
                }
            }
        }
    }

    fn transmit(&mut self, from: NodeId, packet: Packet) {
        let Some(to) = self.route(packet.dst.ip()) else {
            // Unroutable packets vanish, as they would in the paper's
            // testbed without the proxies' rewriting (§2.4: "any leaked
            // packets are non-routable and dropped").
            self.dropped_packets += 1;
            return;
        };
        if self.loss.drop(&packet) {
            self.dropped_packets += 1;
            return;
        }
        // Serialization: the egress link transmits packets back-to-back.
        let rate = self.bandwidth.get(&from).copied().unwrap_or(0);
        let ser = SimDuration::serialization(packet.wire_size(), rate);
        let free = self
            .egress_free
            .get(&from)
            .copied()
            .unwrap_or(SimTime::ZERO);
        let start = free.max(self.clock);
        let done = start + ser;
        self.egress_free.insert(from, done);
        let arrival = done + self.delay_between(from, to) + self.loss.jitter();
        self.push(arrival, QueuedKind::Deliver(to, packet));
    }

    fn start_nodes(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.nodes.len() {
            self.dispatch_with(id, |node, ctx| node.on_start(ctx));
        }
    }

    fn dispatch_with<F: FnOnce(&mut dyn Node, &mut Ctx)>(&mut self, id: NodeId, f: F) {
        let Some(mut node) = self.nodes[id].take() else {
            return;
        };
        let mut ctx = Ctx {
            now: self.clock,
            actions: Vec::new(),
        };
        f(node.as_mut(), &mut ctx);
        self.nodes[id] = Some(node);
        self.apply_actions(id, ctx.actions);
    }

    /// Runs until the queue drains or `deadline` passes; returns the final
    /// clock.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.start_nodes();
        while let Some(Reverse(q)) = self.queue.peek() {
            if q.at > deadline {
                self.clock = deadline;
                return self.clock;
            }
            let Reverse(q) = self.queue.pop().unwrap();
            self.clock = q.at;
            match q.kind {
                QueuedKind::Deliver(node, packet) => {
                    self.delivered_packets += 1;
                    self.delivered_bytes += packet.wire_size() as u64;
                    self.dispatch_with(node, |n, ctx| n.on_event(ctx, NodeEvent::Packet(packet)));
                }
                QueuedKind::Timer(node, token) => {
                    self.dispatch_with(node, |n, ctx| n.on_event(ctx, NodeEvent::Timer { token }));
                }
            }
        }
        self.clock = self.clock.max(deadline.min(self.clock));
        self.clock
    }

    /// Runs until no events remain.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime(u64::MAX))
    }

    /// Borrows a node for inspection after (or between) runs.
    pub fn node(&self, id: NodeId) -> Option<&dyn Node> {
        self.nodes.get(id).and_then(|n| n.as_deref())
    }

    /// Downcasts a node to its concrete type for result collection.
    pub fn node_as<T: Node>(&self, id: NodeId) -> Option<&T> {
        let node = self.node(id)?;
        (node as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Mutable variant of [`Sim::node_as`].
    pub fn node_as_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        let node = self.nodes.get_mut(id)?.as_mut()?;
        (node.as_mut() as &mut dyn std::any::Any).downcast_mut::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;
    use std::net::SocketAddr;

    fn sa(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    /// Echoes every UDP datagram back to its sender, recording times.
    struct Echo {
        addr: SocketAddr,
        received: Vec<(SimTime, Vec<u8>)>,
    }

    impl Node for Echo {
        fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent) {
            if let NodeEvent::Packet(p) = event {
                if let Payload::Udp(data) = &p.payload {
                    self.received.push((ctx.now(), data.clone()));
                    ctx.send(Packet::udp(self.addr, p.src, data.clone()));
                }
            }
        }
    }

    /// Sends one datagram at start; records the echo arrival.
    struct Pinger {
        addr: SocketAddr,
        target: SocketAddr,
        echo_at: Option<SimTime>,
        timer_fired: Vec<(SimTime, u64)>,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.send(Packet::udp(self.addr, self.target, b"ping".to_vec()));
            ctx.set_timer(SimDuration::from_millis(5), 42);
        }
        fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent) {
            match event {
                NodeEvent::Packet(_) => self.echo_at = Some(ctx.now()),
                NodeEvent::Timer { token } => self.timer_fired.push((ctx.now(), token)),
            }
        }
    }

    fn setup(delay_ms: u64) -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new();
        let pinger = sim.add_node(Box::new(Pinger {
            addr: sa("10.0.0.1:4000"),
            target: sa("10.0.0.2:53"),
            echo_at: None,
            timer_fired: vec![],
        }));
        let echo = sim.add_node(Box::new(Echo {
            addr: sa("10.0.0.2:53"),
            received: vec![],
        }));
        sim.bind("10.0.0.1".parse().unwrap(), pinger);
        sim.bind("10.0.0.2".parse().unwrap(), echo);
        sim.set_pair_delay(pinger, echo, SimDuration::from_millis(delay_ms));
        (sim, pinger, echo)
    }

    fn pinger_state(sim: &mut Sim, id: NodeId) -> (Option<SimTime>, Vec<(SimTime, u64)>) {
        let p: &Pinger = sim.node_as(id).unwrap();
        (p.echo_at, p.timer_fired.clone())
    }

    #[test]
    fn rtt_is_twice_one_way_delay() {
        let (mut sim, pinger, _) = setup(10);
        sim.run();
        let (echo_at, timers) = pinger_state(&mut sim, pinger);
        assert_eq!(echo_at.unwrap(), SimTime::from_millis(20));
        assert_eq!(timers, vec![(SimTime::from_millis(5), 42)]);
    }

    #[test]
    fn unroutable_packets_dropped() {
        let mut sim = Sim::new();
        let pinger = sim.add_node(Box::new(Pinger {
            addr: sa("10.0.0.1:4000"),
            target: sa("10.99.99.99:53"), // not bound
            echo_at: None,
            timer_fired: vec![],
        }));
        sim.bind("10.0.0.1".parse().unwrap(), pinger);
        sim.run();
        assert_eq!(sim.dropped_packets, 1);
        assert_eq!(sim.delivered_packets, 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, pinger, _) = setup(10);
        sim.run_until(SimTime::from_millis(12));
        let (echo_at, timers) = pinger_state(&mut sim, pinger);
        assert!(echo_at.is_none(), "echo lands at 20ms, after deadline");
        assert_eq!(timers.len(), 1, "5ms timer fires before deadline");
        // Resume to completion.
        sim.run();
        let (echo_at, _) = pinger_state(&mut sim, pinger);
        assert!(echo_at.is_some());
    }

    #[test]
    fn bandwidth_serialization_delays_back_to_back_packets() {
        // Node sends two 1000-byte (payload 972) packets at t=0 over a
        // 8 Mb/s link: each takes ~1ms to serialize, so arrivals are spaced.
        struct Burst {
            addr: SocketAddr,
            target: SocketAddr,
        }
        impl Node for Burst {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(Packet::udp(self.addr, self.target, vec![0; 972]));
                ctx.send(Packet::udp(self.addr, self.target, vec![0; 972]));
            }
            fn on_event(&mut self, _: &mut Ctx, _: NodeEvent) {}
        }
        let mut sim = Sim::new();
        let b = sim.add_node(Box::new(Burst {
            addr: sa("10.0.0.1:1"),
            target: sa("10.0.0.2:53"),
        }));
        let e = sim.add_node(Box::new(Echo {
            addr: sa("10.0.0.2:53"),
            received: vec![],
        }));
        sim.bind("10.0.0.1".parse().unwrap(), b);
        sim.bind("10.0.0.2".parse().unwrap(), e);
        sim.set_pair_delay(b, e, SimDuration::ZERO);
        sim.set_bandwidth(b, 8_000_000);
        // Echo replies go back over unlimited bandwidth; fine.
        sim.run();
        let echo: &Echo = sim.node_as(e).unwrap();
        assert_eq!(echo.received.len(), 2);
        let t0 = echo.received[0].0;
        let t1 = echo.received[1].0;
        assert_eq!(t0, SimTime::from_millis(1));
        assert_eq!(t1, SimTime::from_millis(2));
    }

    #[test]
    fn same_time_events_fifo() {
        // Two packets sent at the same instant arrive in send order.
        struct Two {
            addr: SocketAddr,
            target: SocketAddr,
        }
        impl Node for Two {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(Packet::udp(self.addr, self.target, vec![1]));
                ctx.send(Packet::udp(self.addr, self.target, vec![2]));
            }
            fn on_event(&mut self, _: &mut Ctx, _: NodeEvent) {}
        }
        let mut sim = Sim::new();
        let t = sim.add_node(Box::new(Two {
            addr: sa("10.0.0.1:1"),
            target: sa("10.0.0.2:53"),
        }));
        let e = sim.add_node(Box::new(Echo {
            addr: sa("10.0.0.2:53"),
            received: vec![],
        }));
        sim.bind("10.0.0.1".parse().unwrap(), t);
        sim.bind("10.0.0.2".parse().unwrap(), e);
        sim.run();
        let echo: &Echo = sim.node_as(e).unwrap();
        assert_eq!(echo.received[0].1, vec![1]);
        assert_eq!(echo.received[1].1, vec![2]);
    }
}
