//! Authoritative lookup over a [`Zone`]: the RFC 1034 §4.3.2 algorithm as
//! the meta-DNS-server needs it — exact matches, CNAME chains, wildcard
//! synthesis, delegation referrals with glue, and NXDOMAIN/NODATA, plus
//! DNSSEC record attachment when the query set the DO bit.
//!
//! Correct *referrals* are the crux of LDplayer's hierarchy emulation: a
//! naive server that knows the whole hierarchy would answer
//! `www.example.com A` directly, skipping the root→TLD→SLD round trips the
//! paper preserves (§2.4). Here each `Zone` only answers for itself, so a
//! query against the root zone yields the `com` referral exactly as a real
//! root server would.
//!
//! A lookup copies nothing out of the zone: its outcome lists [`RrRef`]s —
//! an owner, a type and a borrowed [`RrSet`] — which the server encodes
//! straight onto the wire. [`RrRef::records`] materializes owned
//! [`Record`]s for callers that want them.

use std::fmt;

use ldp_wire::{Name, NameRef, RData, Record, RrClass, RrType};

use crate::zone::{RrSet, RrSets, Zone};

/// Which rdatas of a referenced rrset belong in the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Every rdata.
    All,
    /// Only the first (the apex SOA of a negative answer).
    First,
    /// Only the RRSIGs covering this type (the set is an RRSIG set).
    Covering(RrType),
}

impl Pick {
    fn keeps(self, rdata: &RData) -> bool {
        match self {
            Pick::All | Pick::First => true,
            Pick::Covering(covered) => {
                matches!(rdata, RData::Rrsig { type_covered, .. } if *type_covered == covered)
            }
        }
    }
}

/// Records of one rrset as they go into a response: `owner` (for a
/// synthesized wildcard answer, the name asked about), `rtype`, and the
/// zone's rrset with its TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrRef<'a> {
    pub owner: NameRef<'a>,
    pub rtype: RrType,
    pub set: &'a RrSet,
    pub pick: Pick,
}

impl<'a> RrRef<'a> {
    fn all(owner: NameRef<'a>, rtype: RrType, set: &'a RrSet) -> RrRef<'a> {
        RrRef {
            owner,
            rtype,
            set,
            pick: Pick::All,
        }
    }

    /// The rdatas that go into the response.
    pub fn rdatas(&self) -> impl Iterator<Item = &'a RData> {
        let pick = self.pick;
        let limit = if pick == Pick::First { 1 } else { usize::MAX };
        self.set
            .rdatas
            .iter()
            .filter(move |rd| pick.keeps(rd))
            .take(limit)
    }

    /// Number of records this reference stands for.
    pub fn len(&self) -> usize {
        self.rdatas().count()
    }

    /// True when the reference stands for no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owned copies of the records.
    pub fn records(&self) -> impl Iterator<Item = Record> + 'a {
        let (owner, rtype, ttl) = (self.owner, self.rtype, self.set.ttl);
        self.rdatas().map(move |rd| Record {
            name: owner.to_name(),
            rtype,
            class: RrClass::In,
            ttl,
            rdata: rd.clone(),
        })
    }
}

/// References kept inline before a list spills to the heap: a CNAME hop
/// and its signatures take two.
const INLINE_REFS: usize = 8;

/// A short list of [`RrRef`]s that allocates only past [`INLINE_REFS`]
/// entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RrList<'a> {
    inline: [Option<RrRef<'a>>; INLINE_REFS],
    len: usize,
    spill: Vec<RrRef<'a>>,
}

impl<'a> RrList<'a> {
    pub(crate) fn push(&mut self, rr: RrRef<'a>) {
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = Some(rr);
                self.len += 1;
            }
            None => self.spill.push(rr),
        }
    }

    /// The references, in order.
    pub fn iter(&self) -> impl Iterator<Item = RrRef<'a>> + '_ {
        self.inline
            .iter()
            .flatten()
            .chain(self.spill.iter())
            .copied()
    }

    /// Number of records across all references.
    pub fn len(&self) -> usize {
        self.iter().map(|rr| rr.len()).sum()
    }

    /// True when the references stand for no record.
    pub fn is_empty(&self) -> bool {
        self.iter().all(|rr| rr.is_empty())
    }

    /// Owned copies of every record, in order.
    pub fn records(&self) -> Vec<Record> {
        self.iter().flat_map(|rr| rr.records()).collect()
    }
}

/// Glue for an NS rrset: the in-zone A and AAAA rrsets of every
/// in-bailiwick nameserver, found when iterated.
#[derive(Clone, Copy)]
pub struct Glue<'a> {
    zone: &'a Zone,
    ns: Option<&'a RrSet>,
}

impl<'a> Glue<'a> {
    fn new(zone: &'a Zone, ns: Option<&'a RrSet>) -> Glue<'a> {
        Glue { zone, ns }
    }

    /// The glue rrsets: for each NS target inside the zone, in NS order,
    /// its A then its AAAA rrset.
    pub fn iter(&self) -> impl Iterator<Item = RrRef<'a>> {
        let zone = self.zone;
        self.ns
            .into_iter()
            .flat_map(|set| set.rdatas.iter())
            .filter_map(move |rd| match rd {
                RData::Ns(target) if target.is_subdomain_of(zone.origin()) => Some(target),
                _ => None,
            })
            .flat_map(move |target| {
                [RrType::A, RrType::Aaaa].into_iter().filter_map(move |t| {
                    let set = zone.get(target, t)?;
                    Some(RrRef::all(target.as_name_ref(), t, set))
                })
            })
    }

    /// Number of glue records.
    pub fn len(&self) -> usize {
        self.iter().map(|rr| rr.len()).sum()
    }

    /// True when there is no glue record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owned copies of the glue records.
    pub fn records(&self) -> Vec<Record> {
        self.iter().flat_map(|rr| rr.records()).collect()
    }
}

impl fmt::Debug for Glue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Glue<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Glue<'_> {}

/// A delegation: the cut point, its NS rrset, and any in-zone glue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Referral<'a> {
    /// The delegated child zone name.
    pub cut: &'a Name,
    /// NS records at the cut.
    pub ns_records: RrList<'a>,
    /// Glue A/AAAA records for in-bailiwick nameservers.
    pub glue: Glue<'a>,
    /// DS records at the cut (DNSSEC delegations), present when requested.
    pub ds_records: RrList<'a>,
}

/// The result of an authoritative lookup, borrowing the zone (and, for a
/// synthesized wildcard owner, the query name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome<'a> {
    /// Authoritative data. `records` holds the answer section (including
    /// any CNAME chain walked inside this zone); `authority` carries the
    /// apex NS set and `additional` its glue.
    Answer {
        records: RrList<'a>,
        authority: RrList<'a>,
        additional: Glue<'a>,
    },
    /// The name is below a delegation: answer with a referral.
    Delegation(Referral<'a>),
    /// The name exists but has no data of the requested type.
    NoData {
        soa: Option<RrRef<'a>>,
        /// Authenticated denial (NSEC + RRSIGs) when requested and signed.
        denial: RrList<'a>,
    },
    /// The name does not exist in this zone.
    NxDomain {
        soa: Option<RrRef<'a>>,
        /// Authenticated denial (NSEC + RRSIGs) when requested and signed.
        denial: RrList<'a>,
    },
    /// The name is not within this zone at all (server should look for a
    /// better zone or refuse).
    OutOfZone,
}

/// Maximum CNAME chain length followed within one zone; prevents loops in
/// hostile or buggy zone data.
const MAX_CNAME_CHAIN: usize = 12;

impl Zone {
    /// Performs an authoritative lookup. `dnssec_ok` attaches RRSIG/DS
    /// records (as present in the zone) the way a signed zone would.
    pub fn lookup<'a>(
        &'a self,
        qname: impl Into<NameRef<'a>>,
        qtype: RrType,
        dnssec_ok: bool,
    ) -> LookupOutcome<'a> {
        let qname = qname.into();
        if !qname.is_subdomain_of(self.origin().as_name_ref()) {
            return LookupOutcome::OutOfZone;
        }

        // Delegation check first: anything at or below a cut is referred,
        // except a DS query *at* the cut (the parent is authoritative for
        // DS) and NS data retained at the cut for referral synthesis.
        if let Some(cut) = self.deepest_cut(qname) {
            let ds_at_cut = qname == *cut && qtype == RrType::Ds;
            if !ds_at_cut {
                return LookupOutcome::Delegation(self.referral_at(cut, dnssec_ok));
            }
        }

        let mut answer = RrList::default();
        let mut current = qname;
        for _hop in 0..MAX_CNAME_CHAIN {
            if let Some(types) = self.get_all(current) {
                // Exact name exists.
                if let Some(set) = types.get(&qtype) {
                    answer.push(RrRef::all(current, qtype, set));
                    if dnssec_ok {
                        self.attach_rrsigs(current, qtype, &mut answer);
                    }
                    return self.finish_answer(answer, dnssec_ok);
                }
                if qtype == RrType::Any {
                    // RRsets in type-code order, so the answer's bytes do
                    // not depend on hash-map iteration order.
                    let mut last: Option<u16> = None;
                    while let Some((t, set)) = types
                        .iter()
                        .filter(|(t, _)| last.is_none_or(|l| t.code() > l))
                        .min_by_key(|(t, _)| t.code())
                    {
                        last = Some(t.code());
                        if *t == RrType::Rrsig && !dnssec_ok {
                            continue;
                        }
                        answer.push(RrRef::all(current, *t, set));
                    }
                    return self.finish_answer(answer, dnssec_ok);
                }
                if let Some(cname_set) = types.get(&RrType::Cname) {
                    answer.push(RrRef::all(current, RrType::Cname, cname_set));
                    if dnssec_ok {
                        self.attach_rrsigs(current, RrType::Cname, &mut answer);
                    }
                    // Follow the chain while the target stays in-zone.
                    match self.in_zone_target(cname_set) {
                        Some(target) => {
                            current = target;
                            continue;
                        }
                        None => return self.finish_answer(answer, dnssec_ok),
                    }
                }
                // Name exists, no data of this type.
                return LookupOutcome::NoData {
                    soa: self.soa_ref(),
                    denial: self.denial_records(current, dnssec_ok),
                };
            }

            // An existing name with no records (empty non-terminal) is
            // NODATA, and blocks wildcard synthesis (RFC 4592 §2.2.2).
            if self.name_exists(current) {
                return LookupOutcome::NoData {
                    soa: self.soa_ref(),
                    denial: self.denial_records(current, dnssec_ok),
                };
            }

            // Name doesn't exist: wildcard synthesis (RFC 4592). Find the
            // closest encloser (deepest existing ancestor), then look for
            // `*.<closest encloser>`.
            if let Some(types) = self.closest_wildcard(current) {
                if let Some(set) = types.get(&qtype) {
                    // Synthesized at the name asked about, signatures too.
                    answer.push(RrRef::all(current, qtype, set));
                    if dnssec_ok {
                        if let Some(sigs) = types.get(&RrType::Rrsig) {
                            answer.push(RrRef {
                                owner: current,
                                rtype: RrType::Rrsig,
                                set: sigs,
                                pick: Pick::Covering(qtype),
                            });
                        }
                    }
                    return self.finish_answer(answer, dnssec_ok);
                }
                if let Some(cname_set) = types.get(&RrType::Cname) {
                    answer.push(RrRef::all(current, RrType::Cname, cname_set));
                    match self.in_zone_target(cname_set) {
                        Some(target) => {
                            current = target;
                            continue;
                        }
                        None => return self.finish_answer(answer, dnssec_ok),
                    }
                }
                return LookupOutcome::NoData {
                    soa: self.soa_ref(),
                    denial: self.denial_records(current, dnssec_ok),
                };
            }

            // No exact name, no wildcard.
            if answer.is_empty() {
                return LookupOutcome::NxDomain {
                    soa: self.soa_ref(),
                    denial: self.denial_records(current, dnssec_ok),
                };
            }
            // CNAME chain dangled into a nonexistent in-zone name: return
            // what we collected with the SOA hint.
            return self.finish_answer(answer, dnssec_ok);
        }
        // Chain too long; return what we have.
        self.finish_answer(answer, dnssec_ok)
    }

    /// The CNAME target to follow: the first rdata's target, when it lies
    /// in this zone and above any cut.
    fn in_zone_target<'a>(&'a self, cname_set: &'a RrSet) -> Option<NameRef<'a>> {
        match cname_set.rdatas.first() {
            Some(RData::Cname(target))
                if target.is_subdomain_of(self.origin()) && self.deepest_cut(target).is_none() =>
            {
                Some(target.as_name_ref())
            }
            _ => None,
        }
    }

    /// Builds the referral response content at a cut.
    pub fn referral_at<'a>(&'a self, cut: &'a Name, dnssec_ok: bool) -> Referral<'a> {
        let ns_set = self.get(cut, RrType::Ns);
        let mut ns_records = RrList::default();
        if let Some(set) = ns_set {
            ns_records.push(RrRef::all(cut.as_name_ref(), RrType::Ns, set));
        }
        let mut ds_records = RrList::default();
        if dnssec_ok {
            if let Some(set) = self.get(cut, RrType::Ds) {
                ds_records.push(RrRef::all(cut.as_name_ref(), RrType::Ds, set));
                self.attach_rrsigs(cut.as_name_ref(), RrType::Ds, &mut ds_records);
            }
        }
        Referral {
            cut,
            ns_records,
            glue: Glue::new(self, ns_set),
            ds_records,
        }
    }

    fn finish_answer<'a>(&'a self, records: RrList<'a>, dnssec_ok: bool) -> LookupOutcome<'a> {
        // Authority: apex NS set, additional: their in-zone addresses.
        let apex = self.origin().as_name_ref();
        let mut authority = RrList::default();
        let ns_set = self.get(apex, RrType::Ns);
        if let Some(set) = ns_set {
            authority.push(RrRef::all(apex, RrType::Ns, set));
            if dnssec_ok {
                self.attach_rrsigs(apex, RrType::Ns, &mut authority);
            }
        }
        LookupOutcome::Answer {
            records,
            authority,
            additional: Glue::new(self, ns_set),
        }
    }

    /// The apex SOA as it goes into a negative answer.
    fn soa_ref(&self) -> Option<RrRef<'_>> {
        let apex = self.origin().as_name_ref();
        self.get(apex, RrType::Soa).map(|set| RrRef {
            owner: apex,
            rtype: RrType::Soa,
            set,
            pick: Pick::First,
        })
    }

    /// Appends the RRSIGs at `owner` covering `covered`, when the zone
    /// holds any.
    fn attach_rrsigs<'a>(&'a self, owner: NameRef<'a>, covered: RrType, out: &mut RrList<'a>) {
        if let Some(set) = self.get(owner, RrType::Rrsig) {
            out.push(RrRef {
                owner,
                rtype: RrType::Rrsig,
                set,
                pick: Pick::Covering(covered),
            });
        }
    }

    /// Builds the authenticated-denial record set for a negative answer:
    /// the covering NSEC with its signatures, plus the SOA's signature
    /// (RFC 4035 §3.1.3). Empty when the zone is unsigned or DO is clear.
    /// These records are what make signed NXDOMAIN responses large — the
    /// dominant term in the paper's §5.1 DO-traffic growth.
    fn denial_records<'a>(&'a self, qname: NameRef<'_>, dnssec_ok: bool) -> RrList<'a> {
        let mut out = RrList::default();
        if !dnssec_ok {
            return out;
        }
        if let Some(owner) = self.covering_nsec_owner(qname) {
            let owner = owner.as_name_ref();
            if let Some(set) = self.get(owner, RrType::Nsec) {
                out.push(RrRef::all(owner, RrType::Nsec, set));
            }
            self.attach_rrsigs(owner, RrType::Nsec, &mut out);
        }
        let apex = self.origin().as_name_ref();
        self.attach_rrsigs(apex, RrType::Soa, &mut out);
        out
    }

    /// RFC 4592 wildcard search: walk ancestors of `qname` from deepest to
    /// shallowest; at the first *existing* ancestor (the closest encloser),
    /// check for `*.<encloser>`. Source-of-synthesis must not itself exist
    /// on the path (guaranteed because we only get here when `qname` does
    /// not exist).
    fn closest_wildcard(&self, qname: NameRef<'_>) -> Option<&RrSets> {
        let apex_len = self.origin().as_wire().len();
        let encloser = qname
            .suffixes()
            .skip(1)
            .take_while(|s| s.as_wire().len() >= apex_len)
            .find(|s| self.name_exists(*s))?;
        // `*.<encloser>` is no longer than `qname`, which has a label more
        // than the encloser, so it always fits.
        let mut wild = [0u8; ldp_wire::name::MAX_NAME_LEN];
        let tail = encloser.as_wire();
        let len = 2 + tail.len();
        let slot = wild.get_mut(..len)?;
        slot[..2].copy_from_slice(&[1, b'*']);
        slot[2..].copy_from_slice(tail);
        self.get_all(NameRef::from_wire(slot).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_wire::Record;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn a(addr: &str) -> RData {
        RData::A(addr.parse::<Ipv4Addr>().unwrap())
    }

    /// A root zone delegating `com`, and a com zone delegating
    /// `example.com`, and the example.com zone itself — the three-level
    /// hierarchy from the paper's walkthrough.
    fn root_zone() -> Zone {
        let mut z = Zone::with_fake_soa(Name::root());
        z.add(Record::new(
            Name::root(),
            518400,
            RData::Ns(n("a.root-servers.net")),
        ))
        .unwrap();
        z.add(Record::new(
            n("a.root-servers.net"),
            518400,
            a("198.41.0.4"),
        ))
        .unwrap();
        z.add(Record::new(
            n("com"),
            172800,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        z.add(Record::new(
            n("a.gtld-servers.net"),
            172800,
            a("192.5.6.30"),
        ))
        .unwrap();
        z
    }

    fn com_zone() -> Zone {
        let mut z = Zone::with_fake_soa(n("com"));
        z.add(Record::new(
            n("com"),
            172800,
            RData::Ns(n("a.gtld-servers.net")),
        ))
        .unwrap();
        z.add(Record::new(
            n("example.com"),
            172800,
            RData::Ns(n("ns1.example.com")),
        ))
        .unwrap();
        z.add(Record::new(n("ns1.example.com"), 172800, a("192.0.2.53")))
            .unwrap();
        z
    }

    fn example_zone() -> Zone {
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("example.com"),
            3600,
            RData::Ns(n("ns1.example.com")),
        ))
        .unwrap();
        z.add(Record::new(n("ns1.example.com"), 3600, a("192.0.2.53")))
            .unwrap();
        z.add(Record::new(n("www.example.com"), 300, a("192.0.2.80")))
            .unwrap();
        z.add(Record::new(
            n("alias.example.com"),
            300,
            RData::Cname(n("www.example.com")),
        ))
        .unwrap();
        z.add(Record::new(
            n("ext.example.com"),
            300,
            RData::Cname(n("target.example.net")),
        ))
        .unwrap();
        z.add(Record::new(n("*.wild.example.com"), 60, a("192.0.2.99")))
            .unwrap();
        z.add(Record::new(n("a.deep.example.com"), 60, a("192.0.2.11")))
            .unwrap();
        z
    }

    #[test]
    fn root_refers_com() {
        let z = root_zone();
        match z.lookup(&n("www.example.com"), RrType::A, false) {
            LookupOutcome::Delegation(r) => {
                assert_eq!(*r.cut, n("com"));
                assert_eq!(r.ns_records.len(), 1);
                // a.gtld-servers.net is in-bailiwick of the root.
                assert_eq!(r.glue.len(), 1);
            }
            other => panic!("expected delegation, got {other:?}"),
        }
    }

    #[test]
    fn com_refers_example() {
        let z = com_zone();
        match z.lookup(&n("www.example.com"), RrType::A, false) {
            LookupOutcome::Delegation(r) => {
                assert_eq!(*r.cut, n("example.com"));
                assert_eq!(r.glue.len(), 1, "ns1.example.com glue expected");
            }
            other => panic!("expected delegation, got {other:?}"),
        }
    }

    #[test]
    fn leaf_zone_answers() {
        let z = example_zone();
        match z.lookup(&n("www.example.com"), RrType::A, false) {
            LookupOutcome::Answer {
                records,
                authority,
                additional,
            } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records.records()[0].rdata, a("192.0.2.80"));
                assert_eq!(authority.len(), 1, "apex NS in authority");
                assert_eq!(additional.len(), 1, "ns glue in additional");
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn referral_not_answer_for_delegated_name() {
        // The crucial meta-DNS-server property: the root zone must NOT
        // answer www.example.com even if another zone on the same server
        // could.
        let z = root_zone();
        assert!(matches!(
            z.lookup(&n("www.example.com"), RrType::A, false),
            LookupOutcome::Delegation(_)
        ));
    }

    #[test]
    fn cname_chain_followed_in_zone() {
        let z = example_zone();
        match z.lookup(&n("alias.example.com"), RrType::A, false) {
            LookupOutcome::Answer { records, .. } => {
                assert_eq!(records.len(), 2);
                assert_eq!(records.records()[0].rtype, RrType::Cname);
                assert_eq!(records.records()[1].rtype, RrType::A);
                assert_eq!(records.records()[1].name, n("www.example.com"));
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn cname_to_external_target_stops() {
        let z = example_zone();
        match z.lookup(&n("ext.example.com"), RrType::A, false) {
            LookupOutcome::Answer { records, .. } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records.records()[0].rtype, RrType::Cname);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn cname_query_returns_cname_only() {
        let z = example_zone();
        match z.lookup(&n("alias.example.com"), RrType::Cname, false) {
            LookupOutcome::Answer { records, .. } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records.records()[0].rtype, RrType::Cname);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_synthesis() {
        let z = example_zone();
        match z.lookup(&n("anything.wild.example.com"), RrType::A, false) {
            LookupOutcome::Answer { records, .. } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records.records()[0].name, n("anything.wild.example.com"));
                assert_eq!(records.records()[0].rdata, a("192.0.2.99"));
            }
            other => panic!("expected answer, got {other:?}"),
        }
        // Multi-label expansion also matches.
        assert!(matches!(
            z.lookup(&n("a.b.wild.example.com"), RrType::A, false),
            LookupOutcome::Answer { .. }
        ));
    }

    #[test]
    fn wildcard_does_not_match_existing_name() {
        let z = example_zone();
        // www exists, so *.wild never applies to it; and a query for a type
        // www lacks is NODATA.
        assert!(matches!(
            z.lookup(&n("www.example.com"), RrType::Mx, false),
            LookupOutcome::NoData { .. }
        ));
    }

    #[test]
    fn wildcard_type_mismatch_is_nodata() {
        let z = example_zone();
        assert!(matches!(
            z.lookup(&n("x.wild.example.com"), RrType::Mx, false),
            LookupOutcome::NoData { .. }
        ));
    }

    #[test]
    fn nxdomain_with_soa() {
        let z = example_zone();
        match z.lookup(&n("nope.example.com"), RrType::A, false) {
            LookupOutcome::NxDomain { soa, .. } => assert!(soa.is_some()),
            other => panic!("expected nxdomain, got {other:?}"),
        }
    }

    #[test]
    fn empty_non_terminal_is_nodata() {
        let z = example_zone();
        // deep.example.com exists only as an ENT (a.deep.example.com has data).
        assert!(matches!(
            z.lookup(&n("deep.example.com"), RrType::A, false),
            LookupOutcome::NoData { .. }
        ));
    }

    #[test]
    fn out_of_zone() {
        let z = example_zone();
        assert!(matches!(
            z.lookup(&n("example.net"), RrType::A, false),
            LookupOutcome::OutOfZone
        ));
    }

    #[test]
    fn any_query_returns_all_types() {
        let z = example_zone();
        match z.lookup(&n("example.com"), RrType::Any, false) {
            LookupOutcome::Answer { records, .. } => {
                let types: std::collections::HashSet<_> = records.iter().map(|r| r.rtype).collect();
                assert!(types.contains(&RrType::Soa));
                assert!(types.contains(&RrType::Ns));
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn cname_loop_terminates() {
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("a.example.com"),
            60,
            RData::Cname(n("b.example.com")),
        ))
        .unwrap();
        z.add(Record::new(
            n("b.example.com"),
            60,
            RData::Cname(n("a.example.com")),
        ))
        .unwrap();
        // Must not hang; outcome shape unimportant beyond termination.
        let _ = z.lookup(&n("a.example.com"), RrType::A, false);
    }

    #[test]
    fn dnssec_attaches_rrsig_and_ds() {
        let mut z = com_zone();
        let sig = |covered: RrType, name: &str| {
            Record::with_type(
                n(name),
                RrType::Rrsig,
                3600,
                RData::Rrsig {
                    type_covered: covered,
                    algorithm: 8,
                    labels: 2,
                    original_ttl: 3600,
                    expiration: 0,
                    inception: 0,
                    key_tag: 7,
                    signer: n("com"),
                    signature: vec![0xAA; 256],
                },
            )
        };
        z.add(Record::with_type(
            n("example.com"),
            RrType::Ds,
            3600,
            RData::Ds {
                key_tag: 7,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0; 32],
            },
        ))
        .unwrap();
        z.add(sig(RrType::Ds, "example.com")).unwrap();

        match z.lookup(&n("www.example.com"), RrType::A, true) {
            LookupOutcome::Delegation(r) => {
                assert_eq!(r.ds_records.len(), 2, "DS + its RRSIG");
            }
            other => panic!("expected delegation, got {other:?}"),
        }
        // Without DO, no DS records.
        match z.lookup(&n("www.example.com"), RrType::A, false) {
            LookupOutcome::Delegation(r) => assert!(r.ds_records.is_empty()),
            other => panic!("expected delegation, got {other:?}"),
        }
    }

    #[test]
    fn ds_at_cut_answered_by_parent() {
        let mut z = com_zone();
        z.add(Record::with_type(
            n("example.com"),
            RrType::Ds,
            3600,
            RData::Ds {
                key_tag: 7,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0; 32],
            },
        ))
        .unwrap();
        match z.lookup(&n("example.com"), RrType::Ds, false) {
            LookupOutcome::Answer { records, .. } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records.records()[0].rtype, RrType::Ds);
            }
            other => panic!("expected DS answer from parent, got {other:?}"),
        }
    }
}
