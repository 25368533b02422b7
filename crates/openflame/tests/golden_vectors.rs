//! The normative test vectors of `docs/wire-protocol.md` Appendix B:
//! every vector decodes and re-encodes to exactly its bytes, and every
//! message tag has one. A second implementation checked against the
//! appendix is checked against this one.

#[path = "../../mapserver/tests/vectors/mod.rs"]
mod vectors;

use openflame_codec::{from_bytes, to_bytes, CodecError};
use openflame_dns::record::ResponseMsg;
use openflame_dns::{
    Catalogue, DomainName, FleetReplica, FleetShard, Record, RecordData, RecordType, Zone,
};
use openflame_mapdata::ElementId;
use openflame_mapserver::{Request, Response};
use std::collections::BTreeSet;

#[test]
fn every_vector_decodes_and_re_encodes_byte_exactly() {
    let all = vectors::all();
    assert!(all.len() >= 40, "Appendix B went missing: {}", all.len());
    for (label, bytes) in &all {
        assert!(!bytes.is_empty(), "{label} has no bytes");
        let again = vectors::recode(label, bytes);
        assert_eq!(again.as_deref(), Some(&bytes[..]), "{label}");
    }
}

#[test]
fn labels_are_unique() {
    let all = vectors::all();
    let labels: BTreeSet<&str> = all.iter().map(|(label, _)| label.as_str()).collect();
    assert_eq!(labels.len(), all.len());
}

/// Completeness comes from the message table: a variant added to
/// `Request`, `Response` or `RecordType` fails here until the appendix
/// carries a vector for it.
#[test]
fn every_tag_of_the_message_tables_has_a_vector() {
    let all = vectors::all();
    let has_vector = |type_name: &str, (tag, variant): &(u8, &str)| {
        all.iter().any(|(label, bytes)| {
            vectors::type_of(label) == type_name
                && vectors::variant_of(label) == Some(variant)
                && bytes[0] == *tag
        })
    };
    for row in Request::TAGS {
        assert!(has_vector("Request", row), "Request {row:?}");
    }
    for row in Response::TAGS {
        assert!(has_vector("Response", row), "Response {row:?}");
    }
    // Records ride inside the DNS response vectors; a record's first
    // byte is its type's tag.
    let carried: BTreeSet<u8> = vectors::decoded::<ResponseMsg>("ResponseMsg")
        .iter()
        .flat_map(|m| m.answers.iter().chain(&m.authority).chain(&m.additional))
        .map(|record| to_bytes(&record.data)[0])
        .collect();
    for (tag, variant) in RecordType::TAGS {
        assert!(carried.contains(tag), "RecordType tag {tag} {variant}");
    }
    assert_eq!(RecordType::TAGS, RecordData::TAGS);
}

/// Spec §9.1, Appendix B.5: a zone answers a `MAPSRV` question for a
/// fleet-only cell with exactly the `ResponseMsg/fleet-only` vector.
#[test]
fn a_fleet_only_cell_answers_mapsrv_with_the_fleet_only_vector() {
    let name = |s: &str| DomainName::parse(s).unwrap();
    let fleet = RecordData::FleetSrv {
        group_id: "grocer-1".into(),
        catalogue: Catalogue::SEARCH,
        shards: vec![FleetShard {
            extents: vec![0x89c2_5a31, 5],
            replicas: vec![
                FleetReplica {
                    endpoint: 11,
                    server_id: "grocer-1/s0r0".into(),
                },
                FleetReplica {
                    endpoint: 12,
                    server_id: "grocer-1/s0r1".into(),
                },
            ],
        }],
    };
    let mut zone = Zone::new(name("cell.flame."));
    zone.add(Record::new(name("*.f1.cell.flame."), 300, fleet));
    let answer = zone.query(&name("2.f1.cell.flame."), RecordType::MapSrv);
    let vector = vectors::all()
        .into_iter()
        .find(|(label, _)| label == "ResponseMsg/fleet-only")
        .expect("Appendix B.5 has the fleet-only vector")
        .1;
    assert_eq!(to_bytes(&answer).to_vec(), vector);
}

/// Spec §13.2: the hello's anchor and extent are pinned absent together
/// and present together, decoded, not by byte offset.
#[test]
fn hello_is_pinned_with_neither_option_and_with_both() {
    let shapes: BTreeSet<(bool, bool)> = vectors::decoded::<Response>("Response")
        .into_iter()
        .filter_map(|response| match response {
            Response::Hello(info) => Some((info.anchor.is_some(), !info.coverage.is_empty())),
            _ => None,
        })
        .collect();
    assert!(shapes.contains(&(false, false)), "{shapes:?}");
    assert!(shapes.contains(&(true, true)), "{shapes:?}");
}

/// Spec §2.1: a retired tag is never reused, so a decoder refuses it
/// like any tag its table lacks — `Request` 9 and `Response` 10, once
/// `NearestNode`, and `ElementId` 2, once `Relation`.
#[test]
fn every_retired_tag_is_refused() {
    let refused = |context, tag| Err(CodecError::InvalidTag { context, tag });
    assert_eq!(from_bytes::<Request>(&[9]).map(drop), refused("Request", 9));
    assert_eq!(
        from_bytes::<Response>(&[10]).map(drop),
        refused("Response", 10)
    );
    assert_eq!(
        from_bytes::<ElementId>(&[2, 1]).map(drop),
        refused("ElementId", 2)
    );
}
