//! The proxy pair that makes hierarchy emulation work (§2.4 of the paper).
//!
//! The meta-DNS-server hosts every zone behind one address, but a recursive
//! resolver addresses its iterative queries to the *public* nameserver
//! addresses found in referrals (a.root-servers.net, a.gtld-servers.net,
//! …). Three problems follow, and one address-rewriting algebra solves all
//! of them:
//!
//! 1. *Routing*: queries to public nameserver addresses must reach the
//!    meta server → the proxy rewrites the **destination** to the meta
//!    server's address.
//! 2. *Zone selection*: the meta server can't tell from the query content
//!    which level of the hierarchy was being asked → the proxy moves the
//!    original query destination address (**OQDA**) into the **source**
//!    field, and the server's split-horizon views key on it.
//! 3. *Reply acceptance*: the recursive only accepts replies whose source
//!    matches where it sent the query → on the way back the proxy puts the
//!    OQDA back into the reply's source and directs it to the recursive.
//!
//! In the paper these rewrites happen in two proxy processes attached to
//! TUN devices with iptables port-based capture (queries by `dport 53` at
//! the recursive, responses by `sport 53` at the server). In the simulator
//! the same capture falls out of routing: every public nameserver address
//! is bound to the [`ProxyNode`], so both the recursive's queries (addressed
//! to OQDA) and the meta server's replies (addressed back to OQDA) land
//! there, and the node applies the direction-appropriate rewrite. The
//! rewrites themselves are the pure functions [`rewrite_query`] and
//! [`rewrite_response`], tested in isolation. (IP checksum fixup, which the
//! real proxies must do, has no analogue in the simulator.)

#![deny(rust_2018_idioms, unsafe_op_in_unsafe_fn, unreachable_pub)]

use std::net::{IpAddr, SocketAddr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ldp_netsim::{Ctx, Node, NodeEvent, Packet};
use ldp_telemetry::{CounterRow, MetricKind};
use ldp_wire::DNS_PORT;

/// Query-path rewrite (recursive proxy): a packet the recursive sent to
/// `OQDA:53` becomes a packet to the meta server whose source *is* the
/// OQDA. The source port is preserved so the reply can find its way back
/// to the right resolver socket.
pub fn rewrite_query(packet: &Packet, meta_server: IpAddr) -> Packet {
    let oqda = packet.dst.ip();
    Packet {
        src: SocketAddr::new(oqda, packet.src.port()),
        dst: SocketAddr::new(meta_server, packet.dst.port()),
        payload: packet.payload.clone(),
    }
}

/// Response-path rewrite (authoritative proxy): a reply the meta server
/// addressed to `OQDA:port` becomes a reply *from* `OQDA:53` to the
/// recursive, so the resolver sees exactly the reply it expects.
pub fn rewrite_response(packet: &Packet, recursive: IpAddr) -> Packet {
    let oqda = packet.dst.ip();
    Packet {
        src: SocketAddr::new(oqda, packet.src.port()),
        dst: SocketAddr::new(recursive, packet.dst.port()),
        payload: packet.payload.clone(),
    }
}

/// Classification of a captured packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Captured {
    /// dport 53 → an iterative query from the recursive (query path).
    Query,
    /// sport 53 → a reply from the meta server (response path).
    Response,
    /// Anything else (dropped, like non-routable leakage in the paper).
    Other,
}

/// Classifies a packet the way the paper's iptables rules do: queries by
/// destination port 53, responses by source port 53.
pub fn classify(packet: &Packet) -> Captured {
    if packet.dst.port() == DNS_PORT || packet.dst.port() == ldp_wire::DNS_TLS_PORT {
        Captured::Query
    } else if packet.src.port() == DNS_PORT || packet.src.port() == ldp_wire::DNS_TLS_PORT {
        Captured::Response
    } else {
        Captured::Other
    }
}

/// The proxy pair as one simulation node.
///
/// Bind every public nameserver address (every OQDA that can appear) to
/// this node; it forwards queries to the meta server and replies to the
/// recursive, applying the OQDA swaps. Counters expose how much traffic
/// took each path.
pub struct ProxyNode {
    meta_server: IpAddr,
    recursive: IpAddr,
    /// Path counters, shared so a harness (or the telemetry registry) can
    /// read them while the node is owned by the simulator. The simulator
    /// drives nodes single-threaded; atomics are for shared *reads*.
    pub stats: Arc<ProxyStats>,
}

/// How much traffic took each proxy path.
#[derive(Debug, Default)]
pub struct ProxyStats {
    pub queries_forwarded: AtomicU64,
    pub responses_forwarded: AtomicU64,
    pub dropped: AtomicU64,
}

impl ProxyNode {
    pub fn new(meta_server: IpAddr, recursive: IpAddr) -> ProxyNode {
        ProxyNode {
            meta_server,
            recursive,
            stats: Arc::new(ProxyStats::default()),
        }
    }

    pub fn queries_forwarded(&self) -> u64 {
        self.stats.queries_forwarded.load(Ordering::Relaxed)
    }

    pub fn responses_forwarded(&self) -> u64 {
        self.stats.responses_forwarded.load(Ordering::Relaxed)
    }

    pub fn dropped(&self) -> u64 {
        self.stats.dropped.load(Ordering::Relaxed)
    }

    /// Registers the proxy's path counters with a live-telemetry
    /// registry (observed — the simulation loop pays nothing extra).
    pub fn register_telemetry(&self, reg: &ldp_telemetry::Registry) {
        for (name, help, labels, field) in FAMILIES {
            let s = self.stats.clone();
            let read = move || field(&s).load(Ordering::Relaxed);
            reg.observe(name, help, MetricKind::Counter, labels, read);
        }
    }
}

/// The proxy's telemetry families.
#[rustfmt::skip]
const FAMILIES: [CounterRow<ProxyStats>; 3] = [
    ("ldp_proxy_queries_forwarded_total", "Queries rewritten toward the meta server", &[],
        |s| &s.queries_forwarded),
    ("ldp_proxy_responses_forwarded_total", "Responses rewritten back to the recursive", &[],
        |s| &s.responses_forwarded),
    ("ldp_proxy_dropped_total", "Captured packets matching neither iptables rule", &[],
        |s| &s.dropped),
];

impl Node for ProxyNode {
    fn on_event(&mut self, ctx: &mut Ctx, event: NodeEvent) {
        let NodeEvent::Packet(packet) = event else {
            return;
        };
        match classify(&packet) {
            Captured::Query => {
                self.stats.queries_forwarded.fetch_add(1, Ordering::Relaxed);
                ctx.send(rewrite_query(&packet, self.meta_server));
            }
            Captured::Response => {
                self.stats
                    .responses_forwarded
                    .fetch_add(1, Ordering::Relaxed);
                ctx.send(rewrite_response(&packet, self.recursive));
            }
            Captured::Other => {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_netsim::Payload;

    fn sa(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn query_rewrite_swaps_oqda_into_source() {
        // Recursive 10.0.0.2 queries a.gtld-servers.net (192.5.6.30).
        let q = Packet::udp(sa("10.0.0.2:40000"), sa("192.5.6.30:53"), vec![1]);
        let out = rewrite_query(&q, ip("10.0.0.3"));
        assert_eq!(out.src, sa("192.5.6.30:40000"), "OQDA becomes source");
        assert_eq!(
            out.dst,
            sa("10.0.0.3:53"),
            "meta server becomes destination"
        );
        assert_eq!(out.payload, Payload::Udp(vec![1]), "payload untouched");
    }

    #[test]
    fn response_rewrite_restores_oqda_as_source() {
        // Meta server 10.0.0.3 replies toward the OQDA-as-client.
        let r = Packet::udp(sa("10.0.0.3:53"), sa("192.5.6.30:40000"), vec![2]);
        let out = rewrite_response(&r, ip("10.0.0.2"));
        assert_eq!(out.src, sa("192.5.6.30:53"), "reply appears from OQDA:53");
        assert_eq!(
            out.dst,
            sa("10.0.0.2:40000"),
            "back to the recursive's port"
        );
    }

    #[test]
    fn roundtrip_algebra_is_consistent() {
        // The composition must hand the recursive a reply whose source is
        // exactly where it sent the query — the §2.4 acceptance condition.
        let rec = ip("10.0.0.2");
        let meta = ip("10.0.0.3");
        let original = Packet::udp(sa("10.0.0.2:41234"), sa("198.41.0.4:53"), vec![7]);
        let at_meta = rewrite_query(&original, meta);
        // Meta replies by swapping src/dst, as UDP servers do.
        let reply = Packet::udp(at_meta.dst, at_meta.src, vec![8]);
        let at_rec = rewrite_response(&reply, rec);
        assert_eq!(at_rec.src.ip(), original.dst.ip(), "reply source = OQDA");
        assert_eq!(at_rec.src.port(), original.dst.port());
        assert_eq!(at_rec.dst, original.src, "reply lands on the query socket");
    }

    #[test]
    fn classification_matches_iptables_rules() {
        assert_eq!(
            classify(&Packet::udp(sa("10.0.0.2:40000"), sa("1.2.3.4:53"), vec![])),
            Captured::Query
        );
        assert_eq!(
            classify(&Packet::udp(sa("10.0.0.3:53"), sa("1.2.3.4:40000"), vec![])),
            Captured::Response
        );
        assert_eq!(
            classify(&Packet::udp(
                sa("10.0.0.3:9999"),
                sa("1.2.3.4:8888"),
                vec![]
            )),
            Captured::Other
        );
    }

    #[test]
    fn proxy_node_counts_and_drops() {
        use ldp_netsim::{Sim, SimTime};
        struct Blaster {
            out: Vec<Packet>,
        }
        impl Node for Blaster {
            fn on_start(&mut self, ctx: &mut Ctx) {
                for p in self.out.drain(..) {
                    ctx.send(p);
                }
            }
            fn on_event(&mut self, _: &mut Ctx, _: NodeEvent) {}
        }
        let mut sim = Sim::new();
        let b = sim.add_node(Box::new(Blaster {
            out: vec![
                Packet::udp(sa("10.0.0.2:40000"), sa("198.41.0.4:53"), vec![1]),
                Packet::udp(sa("10.0.0.2:1000"), sa("198.41.0.4:2000"), vec![2]),
            ],
        }));
        let p = sim.add_node(Box::new(ProxyNode::new(ip("10.0.0.3"), ip("10.0.0.2"))));
        sim.bind(ip("10.0.0.2"), b);
        sim.bind(ip("198.41.0.4"), p);
        // No binding for 10.0.0.3: the forwarded query vanishes (counted by
        // the sim as unroutable), which is fine for this counter test.
        sim.run_until(SimTime::from_secs(1));
        let proxy: &ProxyNode = sim.node_as(p).unwrap();
        assert_eq!(proxy.queries_forwarded(), 1);
        assert_eq!(proxy.dropped(), 1);
    }

    #[test]
    fn telemetry_observes_path_counters() {
        let node = ProxyNode::new(ip("10.0.0.3"), ip("10.0.0.2"));
        let reg = ldp_telemetry::Registry::new();
        node.register_telemetry(&reg);
        node.stats.queries_forwarded.fetch_add(5, Ordering::Relaxed);
        node.stats.dropped.fetch_add(2, Ordering::Relaxed);
        let samples = reg.snapshot();
        let value = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
        assert_eq!(value("ldp_proxy_queries_forwarded_total"), Some(5));
        assert_eq!(value("ldp_proxy_responses_forwarded_total"), Some(0));
        assert_eq!(value("ldp_proxy_dropped_total"), Some(2));
    }
}
