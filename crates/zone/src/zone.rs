//! The [`Zone`] container: records of a single zone plus the structural
//! indexes lookup needs (existing names, delegation cuts).

use std::collections::{HashMap, HashSet};
use std::fmt;

use ldp_wire::{Name, NameRef, RData, Record, RrType, SoaData};

/// The rrsets at one name, by type.
pub type RrSets = HashMap<RrType, RrSet>;

/// Errors when constructing or mutating zones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneError {
    /// Record owner is not at or below the zone origin.
    OutOfZone { origin: Name, name: Name },
    /// A zone must have exactly one SOA at its apex.
    MissingSoa(Name),
    /// Adding a second CNAME (or CNAME plus other data) at one name.
    CnameConflict(Name),
    /// Parse error from a master file, with line number.
    Parse { line: usize, reason: String },
}

impl fmt::Display for ZoneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZoneError::OutOfZone { origin, name } => {
                write!(f, "record {name} is outside zone {origin}")
            }
            ZoneError::MissingSoa(origin) => write!(f, "zone {origin} has no SOA at apex"),
            ZoneError::CnameConflict(name) => {
                write!(f, "CNAME at {name} conflicts with other data")
            }
            ZoneError::Parse { line, reason } => write!(f, "parse error at line {line}: {reason}"),
        }
    }
}

impl std::error::Error for ZoneError {}

/// All records sharing one (name, type): a single TTL and one or more rdatas.
///
/// DNS semantics treat an RRset as the atomic unit of responses and signing
/// (RFC 2181 §5), so the zone stores RRsets rather than loose records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RrSet {
    pub ttl: u32,
    pub rdatas: Vec<RData>,
}

impl RrSet {
    /// Materializes wire records for this rrset.
    pub fn to_records(&self, name: &Name, rtype: RrType) -> Vec<Record> {
        self.rdatas
            .iter()
            .map(|rd| Record {
                name: name.clone(),
                rtype,
                class: ldp_wire::RrClass::In,
                ttl: self.ttl,
                rdata: rd.clone(),
            })
            .collect()
    }
}

/// A single authoritative zone.
///
/// Records are indexed by owner name, then by type. The structural indexes —
/// `existing_names` (including empty non-terminals) and `cuts` (delegation
/// points, i.e. names strictly below the apex owning NS rrsets) — are
/// maintained incrementally so lookup is cheap.
///
/// Every index is a hash map keyed by [`Name`], probed with the borrowed
/// wire bytes of a query name or one of its ancestors, so lookups
/// allocate nothing. Iteration ([`Zone::iter`], [`Zone::names`]) sorts by
/// `Name`'s order.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    /// name → type → rrset.
    records: HashMap<Name, RrSets>,
    /// Every name that "exists" per RFC 4592, including empty non-terminals
    /// synthesized between a record owner and the apex.
    existing_names: HashSet<Name>,
    /// Delegation points: names strictly below the apex that own NS rrsets.
    cuts: HashSet<Name>,
    /// NSEC chain owners in canonical order (RFC 4034 §6.1), set by the
    /// signing pass; empty for unsigned zones.
    nsec_order: Vec<Name>,
}

impl Zone {
    /// Creates an empty zone rooted at `origin`.
    pub fn new(origin: Name) -> Zone {
        let mut existing_names = HashSet::new();
        existing_names.insert(origin.clone());
        Zone {
            origin,
            records: HashMap::new(),
            existing_names,
            cuts: HashSet::new(),
            nsec_order: Vec::new(),
        }
    }

    /// Creates a zone with a synthetic but valid SOA, as the zone
    /// constructor does when the trace never revealed one (§2.3 "Recover
    /// Missing Data").
    pub fn with_fake_soa(origin: Name) -> Zone {
        let mut z = Zone::new(origin.clone());
        let soa = RData::Soa(SoaData {
            mname: Name::parse("ns.fake")
                .and_then(|ns| ns.concat(&origin))
                .unwrap_or_else(|_| origin.clone()),
            rname: Name::parse("hostmaster.fake").unwrap_or_default(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        });
        // What `add` does for the first record of a fresh zone, at its
        // apex: nothing to check, no cut, no new name.
        let set = RrSet {
            ttl: 3600,
            rdatas: vec![soa],
        };
        z.records
            .entry(origin)
            .or_default()
            .insert(RrType::Soa, set);
        z
    }

    /// The zone's apex name.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Adds one record. Owner must be at or below the origin. Records with
    /// the same (name, type) merge into one rrset keeping the first TTL;
    /// duplicate rdata is ignored (idempotent adds).
    pub fn add(&mut self, record: Record) -> Result<(), ZoneError> {
        if !record.name.is_subdomain_of(&self.origin) {
            return Err(ZoneError::OutOfZone {
                origin: self.origin.clone(),
                name: record.name,
            });
        }
        // CNAME exclusivity (RFC 2181 §10.1): a CNAME owner may carry
        // DNSSEC metadata but no other data types.
        let existing = self.records.get(&record.name);
        if record.rtype == RrType::Cname {
            if let Some(types) = existing {
                let conflicting = types
                    .keys()
                    .any(|t| !matches!(t, RrType::Cname | RrType::Rrsig | RrType::Nsec));
                if conflicting {
                    return Err(ZoneError::CnameConflict(record.name));
                }
                if let Some(cname_set) = types.get(&RrType::Cname) {
                    if !cname_set.rdatas.is_empty() && !cname_set.rdatas.contains(&record.rdata) {
                        // Second, different CNAME at the same name.
                        return Err(ZoneError::CnameConflict(record.name));
                    }
                }
            }
        } else if !record.rtype.is_dnssec() {
            if let Some(types) = existing {
                if types.contains_key(&RrType::Cname) {
                    return Err(ZoneError::CnameConflict(record.name));
                }
            }
        }

        // Track delegation cuts.
        if record.rtype == RrType::Ns && record.name != self.origin {
            self.cuts.insert(record.name.clone());
        }

        // Record the owner and all empty non-terminals up to the apex.
        for walk in record.name.as_name_ref().suffixes() {
            if walk == self.origin || self.existing_names.contains(walk.as_wire()) {
                break;
            }
            self.existing_names.insert(walk.to_name());
        }

        let set = self
            .records
            .entry(record.name)
            .or_default()
            .entry(record.rtype)
            .or_default();
        if set.rdatas.is_empty() {
            set.ttl = record.ttl;
        }
        if !set.rdatas.contains(&record.rdata) {
            set.rdatas.push(record.rdata);
        }
        Ok(())
    }

    /// Looks up the rrset at exactly (name, rtype).
    pub fn get<'n>(&self, name: impl Into<NameRef<'n>>, rtype: RrType) -> Option<&RrSet> {
        self.records.get(name.into().as_wire())?.get(&rtype)
    }

    /// All rrsets at a name.
    pub fn get_all<'n>(&self, name: impl Into<NameRef<'n>>) -> Option<&RrSets> {
        self.records.get(name.into().as_wire())
    }

    /// True when the name exists in the zone (has records, is an empty
    /// non-terminal, or is the apex).
    pub fn name_exists<'n>(&self, name: impl Into<NameRef<'n>>) -> bool {
        self.existing_names.contains(name.into().as_wire())
    }

    /// The apex SOA rdata, if present.
    pub fn soa(&self) -> Option<&SoaData> {
        match self.get(&self.origin, RrType::Soa)?.rdatas.first()? {
            RData::Soa(soa) => Some(soa),
            _ => None,
        }
    }

    /// The apex SOA as a full record.
    pub fn soa_record(&self) -> Option<Record> {
        let set = self.get(&self.origin, RrType::Soa)?;
        set.to_records(&self.origin, RrType::Soa).into_iter().next()
    }

    /// Validates zone invariants: apex SOA present.
    pub fn validate(&self) -> Result<(), ZoneError> {
        if self.soa().is_none() {
            return Err(ZoneError::MissingSoa(self.origin.clone()));
        }
        Ok(())
    }

    /// Finds the topmost delegation cut at-or-above `name` but strictly
    /// below the apex. Data *at* the cut name itself other than NS/DS also
    /// lives below the cut in a real hierarchy, so the cut applies when
    /// `name` is at or below it.
    pub fn deepest_cut<'n>(&self, name: impl Into<NameRef<'n>>) -> Option<&Name> {
        // Referrals happen at the topmost cut: of the ancestors strictly
        // below the apex, the shortest that is a cut wins.
        let apex_len = self.origin.as_wire().len();
        name.into()
            .suffixes()
            .take_while(|s| s.as_wire().len() > apex_len)
            .filter_map(|s| self.cuts.get(s.as_wire()))
            .last()
    }

    /// Iterates all (name, type, rrset) triples, names in `Name` order.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, RrType, &RrSet)> {
        self.sorted()
            .into_iter()
            .flat_map(|(name, types)| types.iter().map(move |(t, set)| (name, *t, set)))
    }

    /// Iterates all names in the zone (sorted by `Name`'s `Ord`).
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.sorted().into_iter().map(|(name, _)| name)
    }

    fn sorted(&self) -> Vec<(&Name, &RrSets)> {
        let mut all: Vec<_> = self.records.iter().collect();
        all.sort_unstable_by(|a, b| a.0.cmp(b.0));
        all
    }

    /// Total number of records (counting each rdata).
    pub fn record_count(&self) -> usize {
        self.records
            .values()
            .flat_map(|t| t.values())
            .map(|s| s.rdatas.len())
            .sum()
    }

    /// Records the canonical NSEC-chain order (set by the signing pass).
    pub fn set_nsec_order(&mut self, order: Vec<Name>) {
        self.nsec_order = order;
    }

    /// The NSEC owner canonically covering `qname` (the greatest chain
    /// member ≤ qname, wrapping to the chain's last name when qname sorts
    /// before the apex). `None` for unsigned zones.
    pub fn covering_nsec_owner<'n>(&self, qname: impl Into<NameRef<'n>>) -> Option<&Name> {
        if self.nsec_order.is_empty() {
            return None;
        }
        let qname = qname.into();
        let idx = self.nsec_order.partition_point(|n| {
            n.as_name_ref().canonical_cmp(qname) != std::cmp::Ordering::Greater
        });
        if idx == 0 {
            self.nsec_order.last()
        } else {
            self.nsec_order.get(idx - 1)
        }
    }

    /// Removes every rrset of `rtype` (used by the signing pass to re-sign).
    pub fn remove_type(&mut self, rtype: RrType) {
        for types in self.records.values_mut() {
            types.remove(&rtype);
        }
        self.records.retain(|_, types| !types.is_empty());
        if rtype == RrType::Nsec {
            self.nsec_order.clear();
        }
        // existing_names/cuts are left as-is; removal of DNSSEC types never
        // removes structural names in our usage.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn a(addr: &str) -> RData {
        RData::A(addr.parse::<Ipv4Addr>().unwrap())
    }

    fn zone_with_soa(origin: &str) -> Zone {
        Zone::with_fake_soa(n(origin))
    }

    #[test]
    fn add_and_get() {
        let mut z = zone_with_soa("example.com");
        z.add(Record::new(n("www.example.com"), 300, a("192.0.2.1")))
            .unwrap();
        let set = z.get(&n("www.example.com"), RrType::A).unwrap();
        assert_eq!(set.ttl, 300);
        assert_eq!(set.rdatas, vec![a("192.0.2.1")]);
    }

    #[test]
    fn rrset_merging_and_dedup() {
        let mut z = zone_with_soa("example.com");
        z.add(Record::new(n("www.example.com"), 300, a("192.0.2.1")))
            .unwrap();
        z.add(Record::new(n("www.example.com"), 600, a("192.0.2.2")))
            .unwrap();
        z.add(Record::new(n("www.example.com"), 999, a("192.0.2.1")))
            .unwrap();
        let set = z.get(&n("www.example.com"), RrType::A).unwrap();
        assert_eq!(set.ttl, 300, "first TTL wins");
        assert_eq!(set.rdatas.len(), 2, "duplicate rdata ignored");
    }

    #[test]
    fn out_of_zone_rejected() {
        let mut z = zone_with_soa("example.com");
        let err = z
            .add(Record::new(n("example.net"), 300, a("192.0.2.1")))
            .unwrap_err();
        assert!(matches!(err, ZoneError::OutOfZone { .. }));
    }

    #[test]
    fn empty_non_terminals_exist() {
        let mut z = zone_with_soa("example.com");
        z.add(Record::new(n("a.b.c.example.com"), 300, a("192.0.2.1")))
            .unwrap();
        assert!(z.name_exists(&n("a.b.c.example.com")));
        assert!(z.name_exists(&n("b.c.example.com")), "ENT must exist");
        assert!(z.name_exists(&n("c.example.com")), "ENT must exist");
        assert!(z.name_exists(&n("example.com")));
        assert!(!z.name_exists(&n("x.example.com")));
    }

    #[test]
    fn cname_exclusivity() {
        let mut z = zone_with_soa("example.com");
        z.add(Record::new(
            n("alias.example.com"),
            300,
            RData::Cname(n("www.example.com")),
        ))
        .unwrap();
        // Other data at a CNAME owner is rejected.
        assert!(matches!(
            z.add(Record::new(n("alias.example.com"), 300, a("192.0.2.1"))),
            Err(ZoneError::CnameConflict(_))
        ));
        // A different CNAME at the same owner is rejected.
        assert!(matches!(
            z.add(Record::new(
                n("alias.example.com"),
                300,
                RData::Cname(n("other.example.com"))
            )),
            Err(ZoneError::CnameConflict(_))
        ));
        // Same CNAME again is fine (idempotent).
        z.add(Record::new(
            n("alias.example.com"),
            300,
            RData::Cname(n("www.example.com")),
        ))
        .unwrap();
        // CNAME added to a name that has data is rejected.
        z.add(Record::new(n("www.example.com"), 300, a("192.0.2.1")))
            .unwrap();
        assert!(matches!(
            z.add(Record::new(
                n("www.example.com"),
                300,
                RData::Cname(n("x.example.com"))
            )),
            Err(ZoneError::CnameConflict(_))
        ));
    }

    #[test]
    fn apex_ns_is_not_a_cut() {
        let mut z = zone_with_soa("com");
        z.add(Record::new(
            n("com"),
            3600,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        z.add(Record::new(
            n("example.com"),
            3600,
            RData::Ns(n("ns1.example.com")),
        ))
        .unwrap();
        assert!(z.deepest_cut(&n("com")).is_none());
        assert_eq!(z.deepest_cut(&n("example.com")).unwrap(), &n("example.com"));
        assert_eq!(
            z.deepest_cut(&n("www.example.com")).unwrap(),
            &n("example.com")
        );
        assert!(z.deepest_cut(&n("other.com")).is_none());
    }

    #[test]
    fn topmost_cut_wins() {
        // root zone delegating com, which (wrongly, but defensively) also
        // contains a deeper NS: topmost cut must be chosen.
        let mut z = zone_with_soa(".");
        z.add(Record::new(
            n("com"),
            3600,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        z.add(Record::new(
            n("example.com"),
            3600,
            RData::Ns(n("ns1.example.com")),
        ))
        .unwrap();
        assert_eq!(z.deepest_cut(&n("www.example.com")).unwrap(), &n("com"));
    }

    #[test]
    fn validate_requires_soa() {
        let z = Zone::new(n("example.com"));
        assert!(matches!(z.validate(), Err(ZoneError::MissingSoa(_))));
        assert!(zone_with_soa("example.com").validate().is_ok());
    }

    #[test]
    fn record_count_counts_rdatas() {
        let mut z = zone_with_soa("example.com");
        z.add(Record::new(n("www.example.com"), 300, a("192.0.2.1")))
            .unwrap();
        z.add(Record::new(n("www.example.com"), 300, a("192.0.2.2")))
            .unwrap();
        assert_eq!(z.record_count(), 3); // SOA + 2 A
    }

    #[test]
    fn fake_soa_zone_valid_for_root() {
        let z = Zone::with_fake_soa(Name::root());
        assert!(z.validate().is_ok());
        assert!(z.soa().is_some());
    }

    #[test]
    fn remove_type_strips_rrsets() {
        let mut z = zone_with_soa("example.com");
        z.add(Record::new(n("www.example.com"), 300, a("192.0.2.1")))
            .unwrap();
        z.add(Record::with_type(
            n("www.example.com"),
            RrType::Rrsig,
            300,
            RData::Rrsig {
                type_covered: RrType::A,
                algorithm: 8,
                labels: 3,
                original_ttl: 300,
                expiration: 0,
                inception: 0,
                key_tag: 1,
                signer: n("example.com"),
                signature: vec![0; 128],
            },
        ))
        .unwrap();
        z.remove_type(RrType::Rrsig);
        assert!(z.get(&n("www.example.com"), RrType::Rrsig).is_none());
        assert!(z.get(&n("www.example.com"), RrType::A).is_some());
    }
}
