//! A collection of zones with longest-suffix zone selection — the storage
//! behind the meta-DNS-server, which hosts every zone of the emulated
//! hierarchy in one process (§2.4 of the paper).

use std::collections::HashMap;
use std::sync::Arc;

use ldp_wire::{Name, NameRef, RrType};

use crate::lookup::LookupOutcome;
use crate::zone::Zone;

/// An ordered collection of zones indexed by origin.
#[derive(Debug, Clone, Default)]
pub struct ZoneSet {
    zones: HashMap<Name, Arc<Zone>>,
}

impl ZoneSet {
    pub fn new() -> ZoneSet {
        ZoneSet::default()
    }

    /// Adds (or replaces) a zone.
    pub fn insert(&mut self, zone: Zone) {
        self.zones.insert(zone.origin().clone(), Arc::new(zone));
    }

    /// Looks up a zone by exact origin.
    pub fn get(&self, origin: &Name) -> Option<&Arc<Zone>> {
        self.zones.get(origin)
    }

    /// Number of zones held.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// True when no zones are held.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Iterates all zones.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Zone>> {
        self.zones.values()
    }

    /// Finds the zone with the longest origin that is an ancestor of (or
    /// equal to) `qname` — standard "closest enclosing zone" selection.
    pub fn find_zone<'n>(&self, qname: impl Into<NameRef<'n>>) -> Option<&Arc<Zone>> {
        qname
            .into()
            .suffixes()
            .find_map(|s| self.zones.get(s.as_wire()))
    }

    /// Convenience: select the best zone and run a lookup in it.
    /// Returns `None` when no zone covers the name at all. The outcome
    /// borrows the zone and, for a synthesized wildcard owner, `qname`.
    pub fn lookup<'z: 'q, 'q>(
        &'z self,
        qname: impl Into<NameRef<'q>>,
        qtype: RrType,
        dnssec_ok: bool,
    ) -> Option<(&'z Zone, LookupOutcome<'q>)> {
        let qname = qname.into();
        let zone = self.find_zone(qname)?;
        Some((zone, zone.lookup(qname, qtype, dnssec_ok)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_wire::{RData, Record};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn make_set() -> ZoneSet {
        let mut set = ZoneSet::new();
        set.insert(Zone::with_fake_soa(Name::root()));
        set.insert(Zone::with_fake_soa(n("com")));
        set.insert(Zone::with_fake_soa(n("example.com")));
        set
    }

    #[test]
    fn longest_suffix_wins() {
        let set = make_set();
        assert_eq!(
            set.find_zone(&n("www.example.com")).unwrap().origin(),
            &n("example.com")
        );
        assert_eq!(set.find_zone(&n("other.com")).unwrap().origin(), &n("com"));
        assert_eq!(
            set.find_zone(&n("example.net")).unwrap().origin(),
            &Name::root()
        );
        assert_eq!(
            set.find_zone(&Name::root()).unwrap().origin(),
            &Name::root()
        );
    }

    #[test]
    fn no_root_means_uncovered_names() {
        let mut set = ZoneSet::new();
        set.insert(Zone::with_fake_soa(n("example.com")));
        assert!(set.find_zone(&n("example.net")).is_none());
        assert!(set.find_zone(&n("www.example.com")).is_some());
    }

    #[test]
    fn lookup_routes_to_best_zone() {
        let mut set = make_set();
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.1".parse().unwrap()),
        ))
        .unwrap();
        set.insert(z);
        let www = n("www.example.com");
        let (zone, outcome) = set.lookup(&www, RrType::A, false).unwrap();
        assert_eq!(zone.origin(), &n("example.com"));
        assert!(matches!(outcome, LookupOutcome::Answer { .. }));
    }

    #[test]
    fn replace_zone() {
        let mut set = make_set();
        assert_eq!(set.len(), 3);
        set.insert(Zone::with_fake_soa(n("com")));
        assert_eq!(set.len(), 3);
    }
}
