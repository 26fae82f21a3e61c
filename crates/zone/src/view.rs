//! Split-horizon views (§2.4 of the paper).
//!
//! The meta-DNS-server hosts every zone of the hierarchy behind a single
//! address. The only signal identifying which *level* of the hierarchy a
//! query was aimed at is the original query destination address (OQDA),
//! which the recursive proxy moves into the packet's *source* field. The
//! view table therefore maps **query source addresses** (= nameserver
//! public addresses from the reconstructed zones) to the zone each
//! nameserver serves — exactly BIND's `view`/`match-clients` mechanism that
//! the paper relies on.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

use ldp_wire::{NameRef, RrType};

use crate::lookup::LookupOutcome;
use crate::zone::Zone;
use crate::zoneset::ZoneSet;

/// How a view matches incoming queries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ViewSelector {
    /// Matches a single client (post-proxy: nameserver) address.
    Address(IpAddr),
    /// Matches anything; used as the final fallback view.
    Any,
}

/// One view: a selector and the zones visible through it.
#[derive(Debug, Clone)]
struct View {
    zones: Arc<ZoneSet>,
}

/// Ordered table of split-horizon views.
///
/// Address-specific views are consulted first; the optional `Any` view is
/// the fallback. In LDplayer's usage every nameserver address of every
/// reconstructed zone gets an address view pointing at that zone.
#[derive(Debug, Clone, Default)]
pub struct ViewTable {
    by_address: HashMap<IpAddr, View>,
    fallback: Option<View>,
}

impl ViewTable {
    pub fn new() -> ViewTable {
        ViewTable::default()
    }

    /// Binds `addr` to a set of zones (a nameserver may serve several).
    pub fn add_address_view(&mut self, addr: IpAddr, zones: Arc<ZoneSet>) {
        self.by_address.insert(addr, View { zones });
    }

    /// Sets the fallback view used when no address matches.
    pub fn set_fallback(&mut self, zones: Arc<ZoneSet>) {
        self.fallback = Some(View { zones });
    }

    /// Number of address-specific views.
    pub fn address_view_count(&self) -> usize {
        self.by_address.len()
    }

    /// Selects the zone set visible to a query whose (post-proxy) source
    /// address is `client`.
    pub fn select(&self, client: IpAddr) -> Option<&Arc<ZoneSet>> {
        self.by_address
            .get(&client)
            .or(self.fallback.as_ref())
            .map(|v| &v.zones)
    }

    /// Full split-horizon lookup: pick the view for `client`, then the best
    /// zone within it, then run the authoritative lookup.
    pub fn lookup<'z: 'q, 'q>(
        &'z self,
        client: IpAddr,
        qname: impl Into<NameRef<'q>>,
        qtype: RrType,
        dnssec_ok: bool,
    ) -> Option<(&'z Zone, LookupOutcome<'q>)> {
        let qname = qname.into();
        let (zone, outcome) = self.select(client)?.lookup(qname, qtype, dnssec_ok)?;
        // Referral consistency: a delegation handed out by this view must
        // point at a cut inside the serving zone, with the qname under the
        // cut — otherwise the meta-server would send resolvers sideways out
        // of the hierarchy the view table encodes (§2.4).
        #[cfg(debug_assertions)]
        if let LookupOutcome::Delegation(r) = &outcome {
            debug_assert!(
                r.cut.is_subdomain_of(zone.origin()) && r.cut != zone.origin(),
                "delegation cut {} not strictly below zone {}",
                r.cut,
                zone.origin()
            );
            debug_assert!(
                qname.is_subdomain_of(r.cut.as_name_ref()),
                "qname {qname} not under delegation cut {}",
                r.cut
            );
        }
        Some((zone, outcome))
    }

    /// Builds a view table from (nameserver address → zone) pairs, the
    /// shape the zone constructor emits: every nameserver address becomes a
    /// view exposing exactly the zones that nameserver serves.
    pub fn from_nameserver_map(map: Vec<(IpAddr, Zone)>) -> ViewTable {
        let mut grouped: HashMap<IpAddr, ZoneSet> = HashMap::new();
        for (addr, zone) in map {
            grouped.entry(addr).or_default().insert(zone);
        }
        let mut table = ViewTable::new();
        for (addr, set) in grouped {
            table.add_address_view(addr, Arc::new(set));
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_wire::{Name, RData, Record};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    /// The paper's key scenario: the same qname asked "of" different
    /// hierarchy levels must produce different answers — referral from the
    /// root view, referral from com view, final answer from example view.
    fn hierarchy_table() -> ViewTable {
        let root_addr = ip("198.41.0.4"); // a.root-servers.net
        let com_addr = ip("192.5.6.30"); // a.gtld-servers.net
        let sld_addr = ip("192.0.2.53"); // ns1.example.com

        let mut root = Zone::with_fake_soa(Name::root());
        root.add(Record::new(
            n("com"),
            172800,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        root.add(Record::new(
            n("a.gtld-servers.net"),
            172800,
            RData::A("192.5.6.30".parse().unwrap()),
        ))
        .unwrap();

        let mut com = Zone::with_fake_soa(n("com"));
        com.add(Record::new(
            n("example.com"),
            172800,
            RData::Ns(n("ns1.example.com")),
        ))
        .unwrap();
        com.add(Record::new(
            n("ns1.example.com"),
            172800,
            RData::A("192.0.2.53".parse().unwrap()),
        ))
        .unwrap();

        let mut sld = Zone::with_fake_soa(n("example.com"));
        sld.add(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ))
        .unwrap();

        ViewTable::from_nameserver_map(vec![(root_addr, root), (com_addr, com), (sld_addr, sld)])
    }

    #[test]
    fn same_query_different_views_different_answers() {
        let table = hierarchy_table();
        let q = n("www.example.com");

        let (_, from_root) = table
            .lookup(ip("198.41.0.4"), &q, RrType::A, false)
            .unwrap();
        match from_root {
            LookupOutcome::Delegation(r) => assert_eq!(*r.cut, n("com")),
            other => panic!("root view should refer to com, got {other:?}"),
        }

        let (_, from_com) = table
            .lookup(ip("192.5.6.30"), &q, RrType::A, false)
            .unwrap();
        match from_com {
            LookupOutcome::Delegation(r) => assert_eq!(*r.cut, n("example.com")),
            other => panic!("com view should refer to example.com, got {other:?}"),
        }

        let (_, from_sld) = table
            .lookup(ip("192.0.2.53"), &q, RrType::A, false)
            .unwrap();
        assert!(matches!(from_sld, LookupOutcome::Answer { .. }));
    }

    #[test]
    fn unknown_address_without_fallback() {
        let table = hierarchy_table();
        assert!(table.select(ip("10.9.9.9")).is_none());
    }

    #[test]
    fn fallback_view() {
        let mut table = hierarchy_table();
        let mut set = ZoneSet::new();
        set.insert(Zone::with_fake_soa(n("fallback.test")));
        table.set_fallback(Arc::new(set));
        let zones = table.select(ip("10.9.9.9")).unwrap();
        assert_eq!(zones.len(), 1);
    }

    #[test]
    fn one_address_serving_multiple_zones() {
        // A single nameserver host that serves two zones (common for
        // hosting providers): both must be visible through one view.
        let addr = ip("192.0.2.1");
        let za = Zone::with_fake_soa(n("a.test"));
        let zb = Zone::with_fake_soa(n("b.test"));
        let table = ViewTable::from_nameserver_map(vec![(addr, za), (addr, zb)]);
        assert_eq!(table.address_view_count(), 1);
        let set = table.select(addr).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.find_zone(&n("x.a.test")).is_some());
        assert!(set.find_zone(&n("x.b.test")).is_some());
    }
}
