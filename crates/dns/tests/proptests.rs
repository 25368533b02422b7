//! Property-based tests for the DNS substrate.

use openflame_codec::{from_bytes, to_bytes};
use openflame_dns::record::{Rcode, ResponseMsg};
use openflame_dns::{
    AuthServer, Catalogue, DomainName, FleetReplica, FleetShard, Record, RecordData, RecordType,
    Resolver, ResolverConfig, Zone,
};
use openflame_netsim::{BackendKind, EndpointId, Transport};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z0-9][a-z0-9-]{0,14}"
}

fn arb_name() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(arb_label(), 0..6)
        .prop_map(|labels| DomainName::from_labels(labels).unwrap())
}

/// A label of every legal byte class — upper case (which a name
/// lower-cases), digits, `-`, `_` and `*` — over so few characters that
/// labels repeat, prefix one another and share text suffixes.
fn arb_model_label() -> impl Strategy<Value = String> {
    "[abAB01_*-]{1,3}"
}

/// Two label lists, the second usually ending in a suffix of the first —
/// and sometimes glued onto a longer label, so the two names share a
/// text suffix that is not a label suffix (`xb.c.` against `b.c.`).
fn arb_name_pair() -> impl Strategy<Value = (Vec<String>, Vec<String>)> {
    (
        proptest::collection::vec(arb_model_label(), 0..5),
        proptest::collection::vec(arb_model_label(), 0..3),
        0usize..6,
        any::<bool>(),
    )
        .prop_map(|(a, mut b, from, glue)| {
            let suffix = &a[from.min(a.len())..];
            match (glue, b.pop(), suffix.split_first()) {
                (true, Some(last), Some((first, rest))) => {
                    b.push(format!("{last}{first}"));
                    b.extend(rest.iter().cloned());
                }
                (_, last, _) => {
                    b.extend(last);
                    b.extend(suffix.iter().cloned());
                }
            }
            (a, b)
        })
}

/// The label-vector model of a name: its labels, lower-cased.
fn model(labels: &[String]) -> Vec<String> {
    labels.iter().map(|l| l.to_ascii_lowercase()).collect()
}

fn hash_of(name: &DomainName) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

fn labels_of(name: &DomainName) -> Vec<String> {
    name.labels().map(str::to_string).collect()
}

/// The zone lookup names had when they were label vectors, kept as the
/// oracle `Zone` must answer like: walk up from the name one parent at a
/// time for a cut, try the exact owner, then build `*.<ancestor>` for
/// every ancestor up to the origin.
struct ReferenceZone {
    origin: DomainName,
    records: BTreeMap<DomainName, Vec<Record>>,
    delegations: BTreeMap<DomainName, (DomainName, u64)>,
}

impl ReferenceZone {
    fn new(origin: DomainName) -> Self {
        Self {
            origin,
            records: BTreeMap::new(),
            delegations: BTreeMap::new(),
        }
    }

    fn add(&mut self, record: Record) {
        self.records
            .entry(record.name.clone())
            .or_default()
            .push(record);
    }

    fn remove(&mut self, name: &DomainName, rtype: RecordType) -> usize {
        let Some(list) = self.records.get_mut(name) else {
            return 0;
        };
        let before = list.len();
        list.retain(|r| r.data.rtype() != rtype);
        let removed = before - list.len();
        if list.is_empty() {
            self.records.remove(name);
        }
        removed
    }

    fn remove_mapsrv(&mut self, server_id: &str) -> usize {
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

    fn delegation_for(&self, name: &DomainName) -> Option<(&DomainName, &(DomainName, u64))> {
        let mut cur = Some(name.clone());
        while let Some(n) = cur {
            if n == self.origin {
                break;
            }
            if let Some(entry) = self.delegations.get_key_value(&n) {
                return Some(entry);
            }
            cur = n.parent();
        }
        None
    }

    /// The answer with its additional section: a terminal `MAPSRV`
    /// answer carries what a `FLEETSRV` question for the name gets.
    fn query(&self, name: &DomainName, rtype: RecordType) -> ResponseMsg {
        let mut resp = self.answer(name, rtype);
        if rtype == RecordType::MapSrv && resp.rcode == Rcode::NoError && resp.authority.is_empty()
        {
            resp.additional = self.answer(name, RecordType::FleetSrv).answers;
        }
        resp
    }

    /// The answer, authority and glue alone: the zone rule before
    /// `MAPSRV` answers carried `FLEETSRV` records.
    fn answer(&self, name: &DomainName, rtype: RecordType) -> ResponseMsg {
        if !name.is_subdomain_of(&self.origin) {
            return ResponseMsg::empty(Rcode::ServFail);
        }
        if let Some((cut, (ns_host, glue))) = self.delegation_for(name) {
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
        if let Some(list) = self.records.get(name) {
            let answers = list
                .iter()
                .filter(|r| r.data.rtype() == rtype)
                .cloned()
                .collect();
            return ResponseMsg {
                answers,
                ..ResponseMsg::empty(Rcode::NoError)
            };
        }
        let mut ancestor = name.parent();
        while let Some(a) = ancestor {
            if !a.is_subdomain_of(&self.origin) {
                break;
            }
            let wildcard = a.child("*").unwrap();
            if let Some(list) = self.records.get(&wildcard) {
                let answers = list
                    .iter()
                    .filter(|r| r.data.rtype() == rtype)
                    .map(|r| Record::new(name.clone(), r.ttl_s, r.data.clone()))
                    .collect();
                return ResponseMsg {
                    answers,
                    ..ResponseMsg::empty(Rcode::NoError)
                };
            }
            if a == self.origin {
                break;
            }
            ancestor = a.parent();
        }
        ResponseMsg::empty(Rcode::NxDomain)
    }
}

const RTYPES: [RecordType; 5] = [
    RecordType::A,
    RecordType::Ns,
    RecordType::Txt,
    RecordType::MapSrv,
    RecordType::FleetSrv,
];

/// `origin` with `rel` prepended, most-specific first.
fn under(origin: &DomainName, rel: &[String]) -> DomainName {
    DomainName::from_labels(rel.iter().map(String::as_str).chain(origin.labels())).unwrap()
}

/// A zone label: `*` (a wildcard when it comes first) and labels that
/// only start with `*`, over two letters so owners collide.
fn arb_zone_label() -> impl Strategy<Value = String> {
    "[ab*]{1,2}"
}

/// One zone edit: `(op, owner relative to the origin, record type
/// index, value)`. Op 0 adds a record, 1 delegates, 2 removes by type,
/// anything else removes a `MAPSRV` registration by server id.
type ZoneOp = (u8, Vec<String>, usize, u64);

fn arb_zone_ops() -> impl Strategy<Value = Vec<ZoneOp>> {
    proptest::collection::vec(
        (
            0u8..4,
            proptest::collection::vec(arb_zone_label(), 0..4),
            0usize..5,
            0u64..4,
        ),
        0..24,
    )
}

fn arb_asked() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(proptest::collection::vec(arb_zone_label(), 0..5), 0..12)
}

/// The record an add op stores: real data of the indexed type (a
/// `FLEETSRV` names a replica `s{v}`, like a `MAPSRV` server id, which
/// removing that `MAPSRV` registration must leave alone).
fn record_data(rtype: RecordType, v: u64) -> RecordData {
    match rtype {
        RecordType::A | RecordType::Ns => RecordData::A(v),
        RecordType::Txt => RecordData::Txt(format!("t{v}")),
        RecordType::MapSrv => RecordData::MapSrv {
            endpoint: v,
            server_id: format!("s{v}"),
            catalogue: Catalogue::default(),
        },
        RecordType::FleetSrv => RecordData::FleetSrv {
            group_id: format!("g{v}"),
            catalogue: Catalogue::SEARCH,
            shards: vec![FleetShard {
                extents: vec![v],
                replicas: vec![FleetReplica {
                    endpoint: v,
                    server_id: format!("s{v}"),
                }],
            }],
        },
    }
}

/// Applies `ops` to a `Zone` and to the reference, checking that both
/// agree on every removal count and on the record count.
fn build_zones(origin: &DomainName, ops: Vec<ZoneOp>) -> (Zone, ReferenceZone) {
    let mut zone = Zone::new(origin.clone());
    let mut reference = ReferenceZone::new(origin.clone());
    for (op, rel, rtype, v) in ops {
        let owner = under(origin, &rel);
        match op {
            0 => {
                // TTLs differ by value, so a TTL copied from the wrong
                // record shows.
                let record = Record::new(owner, 60 + v as u32, record_data(RTYPES[rtype], v));
                zone.add(record.clone());
                reference.add(record);
            }
            1 if !rel.is_empty() => {
                let ns_host = owner.child("ns").unwrap();
                zone.delegate(owner.clone(), ns_host.clone(), v);
                reference.delegations.insert(owner, (ns_host, v));
            }
            2 => prop_assert_eq!(
                zone.remove(&owner, RTYPES[rtype]),
                reference.remove(&owner, RTYPES[rtype])
            ),
            _ => {
                let id = format!("s{v}");
                prop_assert_eq!(zone.remove_mapsrv(&id), reference.remove_mapsrv(&id));
            }
        }
    }
    prop_assert_eq!(
        zone.record_count(),
        reference.records.values().map(Vec::len).sum::<usize>()
    );
    (zone, reference)
}

/// The asked names under `origin`, the origin itself and one name that
/// may lie outside it.
fn asked_names(origin: &DomainName, asked: &[Vec<String>], outside: &[String]) -> Vec<DomainName> {
    asked
        .iter()
        .map(|rel| under(origin, rel))
        .chain([origin.clone(), DomainName::from_labels(outside).unwrap()])
        .collect()
}

proptest! {
    // The two differential oracles are cheap; run them wide.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn name_agrees_with_its_label_vector_model((a, b) in arb_name_pair()) {
        let (na, nb) = (
            DomainName::from_labels(&a).unwrap(),
            DomainName::from_labels(&b).unwrap(),
        );
        let (ma, mb) = (model(&a), model(&b));
        prop_assert_eq!(na.cmp(&nb), ma.cmp(&mb), "{} vs {}", na, nb);
        prop_assert_eq!(na == nb, ma == mb);
        if na == nb {
            prop_assert_eq!(hash_of(&na), hash_of(&nb));
        }
        prop_assert_eq!(na.is_subdomain_of(&nb), ma.ends_with(&mb), "{} under {}", na, nb);
        prop_assert_eq!(nb.is_subdomain_of(&na), mb.ends_with(&ma), "{} under {}", nb, na);
        for (name, m) in [(&na, &ma), (&nb, &mb)] {
            prop_assert_eq!(name.label_count(), m.len());
            prop_assert_eq!(&labels_of(name), m);
            let display: String = if m.is_empty() {
                ".".into()
            } else {
                m.iter().map(|l| format!("{l}.")).collect()
            };
            prop_assert_eq!(name.to_string(), display);
            prop_assert_eq!(
                name.parent().map(|p| labels_of(&p)),
                m.split_first().map(|(_, rest)| rest.to_vec())
            );
            // Every ancestor is a suffix of the one buffer, and equals
            // (and hashes like) the same name built fresh.
            let ancestors: Vec<DomainName> = name.ancestors().collect();
            prop_assert_eq!(ancestors.len(), m.len() + 1);
            for (i, ancestor) in ancestors.iter().enumerate() {
                let fresh = DomainName::from_labels(&m[i..]).unwrap();
                prop_assert_eq!(ancestor, &fresh);
                prop_assert_eq!(hash_of(ancestor), hash_of(&fresh));
                prop_assert_eq!(ancestor.label_count(), m.len() - i);
            }
            // On the wire a name is its label list, byte for byte.
            let bytes = to_bytes(name).to_vec();
            prop_assert_eq!(&bytes, &to_bytes(m).to_vec());
            prop_assert_eq!(&from_bytes::<DomainName>(&bytes).unwrap(), name);
        }
    }

    #[test]
    fn zone_query_agrees_with_the_ancestor_walk(
        origin in proptest::collection::vec("[ab]{1}", 0..3),
        ops in arb_zone_ops(),
        asked in arb_asked(),
        outside in proptest::collection::vec(arb_zone_label(), 0..4),
    ) {
        let origin = DomainName::from_labels(&origin).unwrap();
        let (zone, reference) = build_zones(&origin, ops);
        for name in asked_names(&origin, &asked, &outside) {
            for rtype in RTYPES {
                prop_assert_eq!(
                    zone.query(&name, rtype),
                    reference.query(&name, rtype),
                    "{} {:?} in zone {}", name, rtype, origin
                );
            }
        }
    }

    // Spec §9.1: one `MAPSRV` question learns what a `FLEETSRV`
    // question would, and its answer is otherwise what it was before
    // the rule.
    #[test]
    fn a_mapsrv_answer_carries_what_fleetsrv_would_answer(
        origin in proptest::collection::vec("[ab]{1}", 0..3),
        ops in arb_zone_ops(),
        asked in arb_asked(),
        outside in proptest::collection::vec(arb_zone_label(), 0..4),
    ) {
        let origin = DomainName::from_labels(&origin).unwrap();
        let (zone, reference) = build_zones(&origin, ops);
        for name in asked_names(&origin, &asked, &outside) {
            let mapsrv = zone.query(&name, RecordType::MapSrv);
            let before = reference.answer(&name, RecordType::MapSrv);
            prop_assert_eq!(mapsrv.rcode, before.rcode, "{}", name);
            prop_assert_eq!(&mapsrv.answers, &before.answers, "{}", name);
            prop_assert_eq!(&mapsrv.authority, &before.authority, "{}", name);
            if mapsrv.authority.is_empty() {
                let fleetsrv = zone.query(&name, RecordType::FleetSrv);
                prop_assert_eq!(&mapsrv.additional, &fleetsrv.answers, "{}", name);
            } else {
                // A referral's additional section is its glue.
                prop_assert_eq!(&mapsrv.additional, &before.additional, "{}", name);
            }
        }
    }

}

/// Owner `i` of a three-name pool.
fn pick(pool: &(DomainName, DomainName, DomainName), i: usize) -> DomainName {
    [&pool.0, &pool.1, &pool.2][i].clone()
}

/// `section` in all three sections of a response (the authority
/// section reversed, so its runs differ) decodes to itself and
/// re-encodes byte for byte: one encoding per section.
fn section_round_trips(section: Vec<Record>) {
    let msg = ResponseMsg {
        rcode: Rcode::NoError,
        answers: section.clone(),
        authority: section.iter().rev().cloned().collect(),
        additional: section,
    };
    let bytes = to_bytes(&msg);
    let decoded = from_bytes::<ResponseMsg>(&bytes).unwrap();
    assert_eq!(decoded, msg);
    assert_eq!(to_bytes(&decoded), bytes);
}

proptest! {
    #[test]
    fn name_parse_display_round_trip(name in arb_name()) {
        let s = name.to_string();
        prop_assert_eq!(DomainName::parse(&s).unwrap(), name);
    }

    #[test]
    fn name_wire_round_trip(name in arb_name()) {
        prop_assert_eq!(from_bytes::<DomainName>(&to_bytes(&name)).unwrap(), name);
    }

    #[test]
    fn child_is_subdomain_of_parent(name in arb_name(), label in arb_label()) {
        let child = name.child(&label).unwrap();
        prop_assert!(child.is_subdomain_of(&name));
        prop_assert_eq!(child.parent().unwrap(), name.clone());
        prop_assert!(!name.is_subdomain_of(&child) || name == child);
    }

    #[test]
    fn subdomain_is_transitive(a in arb_name(), l1 in arb_label(), l2 in arb_label()) {
        let b = a.child(&l1).unwrap();
        let c = b.child(&l2).unwrap();
        prop_assert!(c.is_subdomain_of(&b));
        prop_assert!(b.is_subdomain_of(&a));
        prop_assert!(c.is_subdomain_of(&a));
    }

    // Spec §9.1: a catalogue is one varint of the whole `u32`; bits the
    // spec does not name are kept, so every value re-encodes to its own
    // bytes, and none takes more than five.
    #[test]
    fn any_catalogue_round_trips_byte_for_byte(bits in any::<u32>()) {
        let bytes = to_bytes(&Catalogue(bits));
        prop_assert!(bytes.len() <= 5);
        let decoded = from_bytes::<Catalogue>(&bytes).unwrap();
        prop_assert_eq!(decoded, Catalogue(bits));
        prop_assert_eq!(to_bytes(&decoded), bytes);
    }

    // Records travel only inside a section, as owner runs (spec §9.5):
    // `MAPSRV` records whose owners are drawn from a three-name pool,
    // so runs of one, runs of many and returning owners all occur.
    #[test]
    fn record_wire_round_trip(
        pool in (arb_name(), arb_name(), arb_name()),
        records in proptest::collection::vec(
            (
                0usize..3,
                0u32..100_000,
                any::<u64>(),
                "[a-z0-9-]{1,16}",
                any::<u32>().prop_map(Catalogue),
            ),
            0..12,
        ),
    ) {
        let section = records
            .into_iter()
            .map(|(owner, ttl, endpoint, id, catalogue)| {
                let data = RecordData::MapSrv { endpoint, server_id: id, catalogue };
                Record::new(pick(&pool, owner), ttl, data)
            })
            .collect();
        section_round_trips(section);
    }

    // The same for `FLEETSRV` records, whose payload nests shards and
    // replicas.
    #[test]
    fn fleet_record_wire_round_trip(
        pool in (arb_name(), arb_name(), arb_name()),
        records in proptest::collection::vec(
            (
                0usize..3,
                0u32..100_000,
                "[a-z0-9-]{1,16}",
                any::<u32>().prop_map(Catalogue),
                proptest::collection::vec(
                    (
                        proptest::collection::vec(any::<u64>(), 0..6),
                        proptest::collection::vec(
                            (any::<u64>(), "[a-z0-9/-]{1,20}"),
                            0..4,
                        ),
                    ),
                    0..5,
                ),
            ),
            0..6,
        ),
    ) {
        let section = records
            .into_iter()
            .map(|(owner, ttl, group, catalogue, shards)| {
                let shards: Vec<FleetShard> = shards
                    .into_iter()
                    .map(|(extents, replicas)| FleetShard {
                        extents,
                        replicas: replicas
                            .into_iter()
                            .map(|(endpoint, server_id)| FleetReplica { endpoint, server_id })
                            .collect(),
                    })
                    .collect();
                let data = RecordData::FleetSrv { group_id: group, catalogue, shards };
                Record::new(pick(&pool, owner), ttl, data)
            })
            .collect();
        section_round_trips(section);
    }

    #[test]
    fn zone_exact_beats_wildcard_everywhere(
        sub in arb_label(),
        deeper in arb_label(),
    ) {
        let origin = DomainName::parse("zone.test.").unwrap();
        let mut zone = Zone::new(origin.clone());
        let parent = origin.child(&sub).unwrap();
        let wildcard = parent.child("*").unwrap();
        zone.add(Record::new(wildcard, 60, RecordData::Txt("wild".into())));
        let name = parent.child(&deeper).unwrap();
        // Wildcard matches any descendant...
        let resp = zone.query(&name, RecordType::Txt);
        prop_assert_eq!(resp.answers.len(), 1);
        // ...until an exact name exists.
        zone.add(Record::new(name.clone(), 60, RecordData::A(7)));
        let resp2 = zone.query(&name, RecordType::Txt);
        prop_assert!(resp2.answers.is_empty(), "exact (empty for Txt) must shadow wildcard");
        let resp3 = zone.query(&name, RecordType::A);
        prop_assert_eq!(resp3.answers.len(), 1);
    }

    #[test]
    fn zone_add_remove_is_idempotent(names in proptest::collection::vec(arb_label(), 1..10)) {
        let origin = DomainName::parse("zone.test.").unwrap();
        let mut zone = Zone::new(origin.clone());
        for (i, l) in names.iter().enumerate() {
            zone.add(Record::new(
                origin.child(l).unwrap(),
                60,
                RecordData::MapSrv {
                    endpoint: i as u64,
                    server_id: format!("srv-{l}-{i}"),
                    catalogue: Catalogue::default(),
                },
            ));
        }
        let before = zone.record_count();
        prop_assert!(before >= 1);
        for (i, l) in names.iter().enumerate() {
            zone.remove_mapsrv(&format!("srv-{l}-{i}"));
        }
        prop_assert_eq!(zone.record_count(), 0);
    }
}

/// Adds `MAPSRV` records at the zone's `x`, `y` and `z` children picked
/// by the `leaves` bit mask, each with a `FLEETSRV` record beside it when
/// `fleet` is set (the answer's additional section, spec §9.1).
fn add_leaves(zone: &mut Zone, leaves: u8, fleet: bool) {
    for (bit, label) in ["x", "y", "z"].into_iter().enumerate() {
        if leaves & (1 << bit) == 0 {
            continue;
        }
        let owner = zone.origin().child(label).unwrap();
        zone.add(Record::new(
            owner.clone(),
            300,
            record_data(RecordType::MapSrv, bit as u64),
        ));
        if fleet {
            zone.add(Record::new(
                owner,
                60,
                record_data(RecordType::FleetSrv, bit as u64),
            ));
        }
    }
}

/// The server a referral's glue names, by kind: a lame server holding
/// another zone (3), the referring server itself, a loop (4), a dead
/// server (5), a server that answers junk bytes (6), or else the live
/// server.
fn glue_for(
    net: &Arc<dyn Transport>,
    kind: u8,
    live: EndpointId,
    parent: EndpointId,
) -> EndpointId {
    match kind {
        3 => AuthServer::spawn_on(
            net,
            "lame",
            vec![Zone::new(DomainName::parse("other.").unwrap())],
        )
        .endpoint(),
        4 => parent,
        5 => {
            let dead = net.register("dns:dead", None);
            net.set_down(dead, true);
            dead
        }
        6 => {
            let junk = net.register("dns:junk", None);
            net.set_service(junk, Arc::new(|_: EndpointId, _: &[u8]| vec![0xff]));
            junk
        }
        _ => live,
    }
}

/// One one-label zone of the oracle's tree: `(glue kind, leaves, fleet,
/// glue kind of each shard cut)`.
type TldSpec = (u8, u8, bool, Vec<u8>);

/// Spawns a discovery-like tree and returns its root hints. The root
/// delegates the one-label zones `a.`, `b.` and `c.` (never `d.`), and
/// holds `x.` and `y.` itself when `root_answers`. Each one-label zone
/// answers for its own leaves and delegates the shard cuts `s0` and
/// `s1` below it, each to a server holding `x` and `y`. `hint` puts a
/// dead (1) or junk-answering (2) server before the root.
fn spawn_tree(
    net: &Arc<dyn Transport>,
    hint: u8,
    root_answers: bool,
    tlds: Vec<TldSpec>,
) -> Vec<EndpointId> {
    let root = AuthServer::spawn_on(net, "root", Vec::new());
    let mut root_zone = Zone::new(DomainName::root());
    if root_answers {
        add_leaves(&mut root_zone, 0b011, false);
    }
    for (label, (kind, leaves, fleet, shards)) in ["a", "b", "c"].into_iter().zip(tlds) {
        let origin = DomainName::root().child(label).unwrap();
        let tld = AuthServer::spawn_on(net, "tld", Vec::new());
        let mut zone = Zone::new(origin.clone());
        add_leaves(&mut zone, leaves, fleet);
        for (k, shard_kind) in shards.into_iter().enumerate() {
            let cut = origin.child(&format!("s{k}")).unwrap();
            let mut shard = Zone::new(cut.clone());
            add_leaves(&mut shard, 0b011, fleet);
            let live = AuthServer::spawn_on(net, "shard", vec![shard]).endpoint();
            let glue = glue_for(net, shard_kind, live, tld.endpoint());
            zone.delegate(cut.clone(), cut.child("ns").unwrap(), glue.0);
        }
        tld.with_zones_mut(|zones| zones.push(zone));
        let glue = glue_for(net, kind, tld.endpoint(), root.endpoint());
        root_zone.delegate(origin.clone(), origin.child("ns").unwrap(), glue.0);
    }
    root.with_zones_mut(|zones| zones.push(root_zone));
    let mut hints = vec![root.endpoint()];
    if let 1 | 2 = hint {
        hints.insert(0, glue_for(net, hint + 4, root.endpoint(), root.endpoint()));
    }
    hints
}

/// The leaf `x`, `y`, `z` or `w` of zone `a.`, `b.`, `c.` (each twice as
/// likely), `d.` or the root (`zone` 7), directly or under its shard cut
/// `s0` or `s1`.
fn oracle_name(zone: usize, shard: usize, leaf: usize) -> DomainName {
    let mut labels = vec![["x", "y", "z", "w"][leaf]];
    if shard > 0 {
        labels.push(["s0", "s1"][shard - 1]);
    }
    labels.extend(["a", "b", "c", "a", "b", "c", "d"].get(zone));
    DomainName::from_labels(labels).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Spec §9.1: a batch whose walks share the delegating zones'
    // referrals ends every lookup as its lone walk does, and never asks
    // more than the lone walks together.
    #[test]
    fn a_batch_that_shares_referrals_answers_what_lone_walks_answer(
        hint in 0u8..6,
        root_answers in any::<bool>(),
        tlds in proptest::collection::vec(
            (0u8..12, 0u8..8, any::<bool>(), proptest::collection::vec(0u8..12, 0..3)),
            2..4,
        ),
        asked in proptest::collection::vec((0usize..8, 0usize..3, 0usize..4, any::<bool>()), 1..10),
    ) {
        let net = BackendKind::Sim.build(7);
        let hints = spawn_tree(&net, hint, root_answers, tlds);
        let fresh = || {
            Resolver::with_config_on(net.clone(), "oracle", hints.clone(), ResolverConfig::default())
        };
        let batch: Vec<(DomainName, RecordType)> = asked
            .into_iter()
            .map(|(zone, shard, leaf, txt)| {
                let rtype = if txt { RecordType::Txt } else { RecordType::MapSrv };
                (oracle_name(zone, shard, leaf), rtype)
            })
            .collect();
        let shared = fresh();
        let outcomes = shared.resolve_many(&batch);
        let mut lone_upstream = 0;
        let mut walked = HashSet::new();
        for (query, outcome) in batch.iter().zip(outcomes) {
            let lone = fresh();
            let alone = lone.resolve_many(std::slice::from_ref(query)).pop().unwrap();
            if walked.insert(query.clone()) {
                lone_upstream += lone.stats().upstream_queries;
            }
            match (outcome, alone) {
                (Ok(shared), Ok(alone)) => {
                    prop_assert_eq!(&shared.records[..], &alone.records[..], "{:?}", query);
                    prop_assert_eq!(&shared.additional[..], &alone.additional[..], "{:?}", query);
                }
                (Err(shared), Err(alone)) => prop_assert_eq!(shared, alone, "{:?}", query),
                (shared, alone) => panic!("{query:?}: batch {shared:?}, lone {alone:?}"),
            }
        }
        prop_assert!(
            shared.stats().upstream_queries <= lone_upstream,
            "batch asked {} upstream, lone walks {}",
            shared.stats().upstream_queries,
            lone_upstream
        );
    }
}
