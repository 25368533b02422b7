//! Zone storage: records, wildcard matching and delegation cuts.
//!
//! A query is answered by looking up the queried name's ancestors,
//! borrowed from its one shared buffer ([`DomainName::ancestors`]): the
//! delegation cut, the exact owner and the covering wildcard are each a
//! map lookup of a suffix, and no lookup builds a name. That is why a
//! wildcard `*.x` is keyed by `x`, the name it covers.

use crate::name::DomainName;
use crate::record::{Rcode, Record, RecordData, RecordType, ResponseMsg};
use std::collections::BTreeMap;

/// A DNS zone: a contiguous region of the namespace managed by one
/// authority.
///
/// The zone stores records keyed by owner name, answers queries with
/// standard semantics (exact match, then wildcard), and produces
/// referrals for names that fall under a delegation cut.
///
/// # Examples
///
/// ```
/// use openflame_dns::{DomainName, Record, RecordData, RecordType, Zone};
///
/// let mut zone = Zone::new(DomainName::parse("flame.").unwrap());
/// let name = DomainName::parse("api.flame.").unwrap();
/// zone.add(Record::new(name.clone(), 300, RecordData::A(7)));
/// let resp = zone.query(&name, RecordType::A);
/// assert_eq!(resp.answers.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Zone {
    origin: DomainName,
    /// Records by owner, keyed as `owner_key` says.
    records: BTreeMap<(DomainName, bool), Vec<Record>>,
    /// Child-zone delegations: cut point → (NS host name, glue endpoint).
    delegations: BTreeMap<DomainName, (DomainName, u64)>,
}

impl Zone {
    /// Creates an empty zone rooted at `origin`.
    pub fn new(origin: DomainName) -> Self {
        Self {
            origin,
            records: BTreeMap::new(),
            delegations: BTreeMap::new(),
        }
    }

    /// The zone origin.
    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    /// The key of `owner`'s records: `(x, false)` for a plain owner `x`,
    /// and `(x, true)` for the wildcard `*.x`, which covers `x`.
    fn owner_key(owner: &DomainName) -> (DomainName, bool) {
        match owner.parent() {
            Some(covered) if owner.is_wildcard() => (covered, true),
            _ => (owner.clone(), false),
        }
    }

    /// Adds a record. The owner name must be within the zone.
    ///
    /// # Panics
    ///
    /// Panics if the record's owner name is outside the zone origin —
    /// that is a programming error in zone construction.
    pub fn add(&mut self, record: Record) {
        assert!(
            record.name.is_subdomain_of(&self.origin),
            "record {} outside zone {}",
            record.name,
            self.origin
        );
        self.records
            .entry(Self::owner_key(&record.name))
            .or_default()
            .push(record);
    }

    /// Removes all records at `name` with the given type, returning how
    /// many were removed.
    pub fn remove(&mut self, name: &DomainName, rtype: RecordType) -> usize {
        let key = Self::owner_key(name);
        let Some(list) = self.records.get_mut(&key) else {
            return 0;
        };
        let before = list.len();
        list.retain(|r| r.data.rtype() != rtype);
        let removed = before - list.len();
        if list.is_empty() {
            self.records.remove(&key);
        }
        removed
    }

    /// Removes a specific MAPSRV registration by server id, across the
    /// whole zone. Returns the number of records removed.
    pub fn remove_mapsrv(&mut self, server_id: &str) -> usize {
        let mut removed = 0;
        self.records.retain(|_, list| {
            let before = list.len();
            list.retain(|r| {
                !matches!(&r.data, RecordData::MapSrv { server_id: sid, .. } if sid == server_id)
            });
            removed += before - list.len();
            !list.is_empty()
        });
        removed
    }

    /// Declares a delegation: names at or under `cut` are served by the
    /// child-zone server named `ns_host` reachable at `glue_endpoint`.
    ///
    /// # Panics
    ///
    /// Panics if `cut` is outside the zone or equal to the origin.
    pub fn delegate(&mut self, cut: DomainName, ns_host: DomainName, glue_endpoint: u64) {
        assert!(cut.is_subdomain_of(&self.origin) && cut != self.origin);
        self.delegations.insert(cut, (ns_host, glue_endpoint));
    }

    /// Number of records in the zone (all names, all types).
    pub fn record_count(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// Iterates every record in the zone.
    pub fn iter_records(&self) -> impl Iterator<Item = &Record> {
        self.records.values().flatten()
    }

    /// Answers a query with standard DNS semantics.
    ///
    /// Precedence: delegation referral (if the name is under a cut),
    /// exact match, wildcard match, then NXDOMAIN / NODATA. An answer to
    /// a `MAPSRV` question carries the same owner's `FLEETSRV` records
    /// in its additional section (spec §9.1), so one question discovers
    /// a cell.
    pub fn query(&self, name: &DomainName, rtype: RecordType) -> ResponseMsg {
        if !name.is_subdomain_of(&self.origin) {
            return ResponseMsg::empty(Rcode::ServFail);
        }
        // The name and its ancestors strictly below the origin, most
        // specific first: where a cut can sit.
        let below_origin = name.label_count() - self.origin.label_count();
        // Referral takes precedence for delegated names.
        let cut = name
            .ancestors()
            .take(below_origin)
            .find_map(|a| self.delegations.get_key_value(&a));
        if let Some((cut, (ns_host, glue))) = cut {
            let mut resp = ResponseMsg::empty(Rcode::NoError);
            resp.authority.push(Record::new(
                cut.clone(),
                3600,
                RecordData::Ns(ns_host.clone()),
            ));
            resp.additional
                .push(Record::new(ns_host.clone(), 3600, RecordData::A(*glue)));
            return resp;
        }
        // The exact owner (NODATA when it holds nothing of this type),
        // else the wildcard covering the closest ancestor from the
        // parent up to the origin. Either answers with the queried name
        // as owner, as DNS synthesizes a wildcard answer. The owner list
        // does not depend on the type asked, so the additional section
        // comes from the same lookup.
        let covering = name
            .ancestors()
            .skip(1)
            .take(below_origin)
            .map(|a| (a, true));
        let owned = std::iter::once(Self::owner_key(name))
            .chain(covering)
            .find_map(|key| self.records.get(&key));
        let Some(list) = owned else {
            return ResponseMsg::empty(Rcode::NxDomain);
        };
        let of_type = |rtype: RecordType| -> Vec<Record> {
            list.iter()
                .filter(|r| r.data.rtype() == rtype)
                .map(|r| Record::new(name.clone(), r.ttl_s, r.data.clone()))
                .collect()
        };
        ResponseMsg {
            answers: of_type(rtype),
            additional: match rtype {
                RecordType::MapSrv => of_type(RecordType::FleetSrv),
                _ => Vec::new(),
            },
            ..ResponseMsg::empty(Rcode::NoError)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Catalogue;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn test_zone() -> Zone {
        let mut z = Zone::new(name("cell.flame."));
        z.add(Record::new(
            name("1.f0.cell.flame."),
            300,
            RecordData::A(10),
        ));
        z.add(Record::new(
            name("*.f1.cell.flame."),
            120,
            RecordData::MapSrv {
                endpoint: 20,
                server_id: "campus".into(),
                catalogue: Catalogue::TILES,
            },
        ));
        z
    }

    #[test]
    fn exact_match() {
        let z = test_zone();
        let resp = z.query(&name("1.f0.cell.flame."), RecordType::A);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let z = test_zone();
        // Name exists, wrong type → NODATA (NoError + empty answers).
        let nodata = z.query(&name("1.f0.cell.flame."), RecordType::Txt);
        assert_eq!(nodata.rcode, Rcode::NoError);
        assert!(nodata.answers.is_empty());
        // Name absent entirely → NXDOMAIN.
        let nx = z.query(&name("9.f0.cell.flame."), RecordType::A);
        assert_eq!(nx.rcode, Rcode::NxDomain);
    }

    #[test]
    fn wildcard_matches_any_depth() {
        let z = test_zone();
        for sub in ["2.f1.cell.flame.", "3.2.1.f1.cell.flame."] {
            let resp = z.query(&name(sub), RecordType::MapSrv);
            assert_eq!(resp.rcode, Rcode::NoError, "{sub}");
            assert_eq!(resp.answers.len(), 1, "{sub}");
            // The synthesized answer owner is the queried name.
            assert_eq!(resp.answers[0].name, name(sub));
        }
        // Wildcard does not match the parent name itself.
        let parent = z.query(&name("f1.cell.flame."), RecordType::MapSrv);
        assert_eq!(parent.rcode, Rcode::NxDomain);
    }

    #[test]
    fn exact_match_beats_wildcard() {
        let mut z = test_zone();
        z.add(Record::new(
            name("5.f1.cell.flame."),
            60,
            RecordData::Txt("exact".into()),
        ));
        // The exact name now exists, so the MAPSRV wildcard must not
        // fire for it (NODATA instead).
        let resp = z.query(&name("5.f1.cell.flame."), RecordType::MapSrv);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
        let txt = z.query(&name("5.f1.cell.flame."), RecordType::Txt);
        assert_eq!(txt.answers.len(), 1);
    }

    #[test]
    fn a_mapsrv_answer_carries_the_owners_fleetsrv_records() {
        let mut z = test_zone();
        let fleet = RecordData::FleetSrv {
            group_id: "mall".into(),
            catalogue: Catalogue::SEARCH,
            shards: vec![],
        };
        z.add(Record::new(name("*.f1.cell.flame."), 90, fleet.clone()));
        z.add(Record::new(name("*.f2.cell.flame."), 90, fleet.clone()));
        let asked = name("3.2.f1.cell.flame.");
        let resp = z.query(&asked, RecordType::MapSrv);
        assert_eq!(resp.answers.len(), 1);
        // Synthesized like the answer: the owner is the queried name.
        assert_eq!(resp.additional, [Record::new(asked.clone(), 90, fleet)]);
        assert_eq!(
            resp.additional,
            z.query(&asked, RecordType::FleetSrv).answers
        );
        // A fleet-only cell: NODATA, with the fleet in additional.
        let fleet_only = z.query(&name("4.f2.cell.flame."), RecordType::MapSrv);
        assert_eq!(fleet_only.rcode, Rcode::NoError);
        assert!(fleet_only.answers.is_empty());
        assert_eq!(fleet_only.additional.len(), 1);
        // Only a MAPSRV question pulls FLEETSRV records along.
        assert!(z.query(&asked, RecordType::FleetSrv).additional.is_empty());
    }

    /// Spec §9.5: an answer writes its owner once per run, so one more
    /// `MAPSRV` record at a cell costs only its TTL and payload — not
    /// the 17-label owner of a level-14 cell again. Spec §9.1: the
    /// payload's catalogue is one varint, two bytes for every named bit.
    #[test]
    fn a_cell_answer_names_its_owner_once() {
        use openflame_codec::to_bytes;
        let mut z = Zone::new(name("cell.flame."));
        let cell = name("3.1.0.2.3.3.1.0.2.1.0.0.3.2.f4.cell.flame.");
        assert_eq!(cell.label_count(), 17);
        let every_named_bit = Catalogue((1 << Catalogue::NAMES.len()) - 1);
        let mapsrv = |i: u64| RecordData::MapSrv {
            endpoint: 100 + i,
            server_id: format!("store-{i}"),
            catalogue: every_named_bit,
        };
        for i in 0..10 {
            z.add(Record::new(cell.clone(), 300, mapsrv(i)));
        }
        let before = to_bytes(&z.query(&cell, RecordType::MapSrv)).len();
        z.add(Record::new(cell.clone(), 300, mapsrv(10)));
        let answer = z.query(&cell, RecordType::MapSrv);
        assert_eq!(answer.answers.len(), 11);
        let catalogue_bytes = to_bytes(&every_named_bit).len();
        assert!(catalogue_bytes <= 2, "{catalogue_bytes} catalogue bytes");
        // The record: its TTL, its type tag, the endpoint, the server id
        // and the catalogue — nothing else.
        let record_bytes = to_bytes(&300u32).len()
            + 1
            + to_bytes(&110u64).len()
            + to_bytes(&"store-10".to_string()).len()
            + catalogue_bytes;
        assert_eq!(
            to_bytes(&mapsrv(10)).len() + to_bytes(&300u32).len(),
            record_bytes
        );
        assert_eq!(to_bytes(&answer).len() - before, record_bytes);
        assert_eq!(to_bytes(&cell).len(), 43, "a level-14 cell owner");
    }

    #[test]
    fn delegation_referral() {
        let mut z = Zone::new(name("flame."));
        z.add(Record::new(name("api.flame."), 300, RecordData::A(1)));
        z.delegate(name("cell.flame."), name("ns1.cell.flame."), 99);
        let resp = z.query(&name("0.f2.cell.flame."), RecordType::MapSrv);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authority.len(), 1);
        assert!(matches!(resp.authority[0].data, RecordData::Ns(_)));
        assert_eq!(resp.additional.len(), 1);
        assert!(matches!(resp.additional[0].data, RecordData::A(99)));
        // Non-delegated names still answered locally.
        assert_eq!(z.query(&name("api.flame."), RecordType::A).answers.len(), 1);
    }

    #[test]
    fn out_of_zone_query_servfail() {
        let z = test_zone();
        assert_eq!(
            z.query(&name("example.org."), RecordType::A).rcode,
            Rcode::ServFail
        );
    }

    #[test]
    fn remove_by_type() {
        let mut z = test_zone();
        assert_eq!(z.remove(&name("1.f0.cell.flame."), RecordType::A), 1);
        assert_eq!(z.remove(&name("1.f0.cell.flame."), RecordType::A), 0);
        assert_eq!(
            z.query(&name("1.f0.cell.flame."), RecordType::A).rcode,
            Rcode::NxDomain
        );
    }

    #[test]
    fn remove_mapsrv_by_server_id() {
        let mut z = test_zone();
        z.add(Record::new(
            name("7.f0.cell.flame."),
            120,
            RecordData::MapSrv {
                endpoint: 21,
                server_id: "campus".into(),
                catalogue: Catalogue::default(),
            },
        ));
        assert_eq!(z.remove_mapsrv("campus"), 2);
        assert_eq!(z.remove_mapsrv("campus"), 0);
        assert_eq!(z.record_count(), 1, "only the A record remains");
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn add_outside_zone_panics() {
        let mut z = test_zone();
        z.add(Record::new(name("other.tld."), 60, RecordData::A(1)));
    }
}
