//! Wire-format encodings for map data, so documents and patches can
//! cross the simulated network with honest byte accounting.
//!
//! Every type below is declared once, in the message table
//! (`openflame_codec::table`): its fields in wire order, and for an
//! enum each variant's tag. `Point2` and `LatLng` live in
//! `openflame-geo`, which does not depend on the codec, so they cross
//! the wire through the field codecs [`PointCodec`] and
//! [`LatLngCodec`] instead of an `impl Wire`.
//!
//! Hand-written, because a table row cannot say it — the exceptions:
//!
//! - [`LatLngCodec`]: validates the coordinate range on decode.
//! - [`Tags`]: a map, rebuilt through `insert`.
//! - [`MapDocument`]: rebuilt through the validating `insert_*` calls,
//!   so a decoded document upholds the document invariants.

use crate::element::{ElementId, Member, Node, NodeId, Relation, RelationId, Way, WayId};
use crate::{GeoReference, MapDocument, MapMeta, MapPatch, Tags};
use openflame_codec::{wire_enum, wire_struct, CodecError, FieldCodec, Opt, Reader, Wire, Writer};
use openflame_geo::{LatLng, Point2};

wire_struct! { Point2 as PointCodec { x, y } }

/// Field codec of [`LatLng`]: two f64s, range-checked on decode.
pub struct LatLngCodec;

impl FieldCodec<LatLng> for LatLngCodec {
    fn put(w: &mut Writer, p: &LatLng) {
        w.put_f64(p.lat());
        w.put_f64(p.lng());
    }
    fn get(r: &mut Reader<'_>) -> Result<LatLng, CodecError> {
        let lat = r.read_f64()?;
        let lng = r.read_f64()?;
        LatLng::new(lat, lng).map_err(|_| CodecError::InvalidTag {
            context: "LatLng",
            tag: 0,
        })
    }
}

wire_struct! { NodeId { 0 } }
wire_struct! { WayId { 0 } }
wire_struct! { RelationId { 0 } }
wire_enum! { ElementId, "ElementId" {
    0 => Node(id),
    1 => Way(id),
    2 => Relation(id),
} }
wire_struct! { Node { id, pos: PointCodec, tags } }
wire_struct! { Way { id, nodes, tags } }
wire_struct! { Member { element, role } }
wire_struct! { Relation { id, members, tags } }
wire_enum! { GeoReference, "GeoReference" {
    0 => Anchored { origin: LatLngCodec },
    1 => Unaligned { hint: Opt<LatLngCodec> },
} }
wire_struct! { MapMeta { name, provider, version } }
wire_struct! { MapPatch {
    base_version,
    upsert_nodes,
    upsert_ways,
    upsert_relations,
    remove_nodes,
    remove_ways,
    remove_relations,
} }

impl Wire for Tags {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for (k, v) in self.iter() {
            w.put_str(k);
            w.put_str(v);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.read_length()?;
        let mut tags = Tags::new();
        for _ in 0..n {
            let k = r.read_string()?;
            let v = r.read_string()?;
            tags.insert(k, v);
        }
        Ok(tags)
    }
}

impl Wire for MapDocument {
    fn encode(&self, w: &mut Writer) {
        self.meta().encode(w);
        self.georef().encode(w);
        w.put_varint(self.node_count() as u64);
        for n in self.nodes() {
            n.encode(w);
        }
        w.put_varint(self.way_count() as u64);
        for way in self.ways() {
            way.encode(w);
        }
        w.put_varint(self.relation_count() as u64);
        for rel in self.relations() {
            rel.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let meta = MapMeta::decode(r)?;
        let georef = GeoReference::decode(r)?;
        let mut doc = MapDocument::new(meta.name, meta.provider, georef);
        let invalid = |_| CodecError::InvalidTag {
            context: "MapDocument element",
            tag: 0,
        };
        let n_nodes = r.read_length()?;
        for _ in 0..n_nodes {
            doc.insert_node(Node::decode(r)?).map_err(invalid)?;
        }
        let n_ways = r.read_length()?;
        for _ in 0..n_ways {
            doc.insert_way(Way::decode(r)?).map_err(invalid)?;
        }
        let n_rels = r.read_length()?;
        for _ in 0..n_rels {
            doc.insert_relation(Relation::decode(r)?).map_err(invalid)?;
        }
        doc.set_version(meta.version);
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_codec::{from_bytes, to_bytes};

    fn sample_doc() -> MapDocument {
        let mut m = MapDocument::new(
            "wire-test",
            "tester",
            GeoReference::Anchored {
                origin: LatLng::new(40.44, -79.94).unwrap(),
            },
        );
        let a = m.add_node(Point2::new(0.0, 0.0), Tags::new().with("name", "A"));
        let b = m.add_node(Point2::new(10.0, 5.0), Tags::new().with("shop", "grocery"));
        let w = m
            .add_way(vec![a, b], Tags::new().with("highway", "service"))
            .unwrap();
        m.insert_relation(Relation::new(
            RelationId(100),
            vec![
                Member::new(ElementId::Way(w), "perimeter"),
                Member::new(ElementId::Node(a), "entrance"),
            ],
            Tags::new().with("type", "building"),
        ))
        .unwrap();
        m.bump_version();
        m
    }

    #[test]
    fn node_round_trip() {
        let n = Node::new(
            NodeId(42),
            Point2::new(1.5, -2.5),
            Tags::new().with("a", "b"),
        );
        assert_eq!(from_bytes::<Node>(&to_bytes(&n)).unwrap(), n);
    }

    #[test]
    fn element_id_round_trip() {
        for id in [
            ElementId::Node(NodeId(1)),
            ElementId::Way(WayId(2)),
            ElementId::Relation(RelationId(3)),
        ] {
            assert_eq!(from_bytes::<ElementId>(&to_bytes(&id)).unwrap(), id);
        }
    }

    #[test]
    fn georef_round_trip() {
        let cases = [
            GeoReference::Anchored {
                origin: LatLng::new(1.0, 2.0).unwrap(),
            },
            GeoReference::Unaligned {
                hint: Some(LatLng::new(3.0, 4.0).unwrap()),
            },
            GeoReference::Unaligned { hint: None },
        ];
        for g in cases {
            assert_eq!(from_bytes::<GeoReference>(&to_bytes(&g)).unwrap(), g);
        }
    }

    #[test]
    fn latlng_decode_validates() {
        let mut w = Writer::new();
        w.put_f64(200.0); // invalid latitude
        w.put_f64(0.0);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(LatLngCodec::get(&mut r).is_err());
    }

    #[test]
    fn document_round_trip() {
        let doc = sample_doc();
        let encoded = to_bytes(&doc);
        let decoded = from_bytes::<MapDocument>(&encoded).unwrap();
        assert_eq!(decoded.meta(), doc.meta());
        assert_eq!(decoded.georef(), doc.georef());
        assert_eq!(decoded.node_count(), doc.node_count());
        assert_eq!(decoded.way_count(), doc.way_count());
        assert_eq!(decoded.relation_count(), doc.relation_count());
        assert!(decoded.validate().is_ok());
        // Spot-check an element survived with tags.
        let grocery = decoded.nodes().find(|n| n.tags.is("shop", "grocery"));
        assert!(grocery.is_some());
    }

    /// The version is restored in O(1): a hostile `u64::MAX` neither
    /// spins 2⁶⁴ bumps nor overflows one.
    #[test]
    fn document_with_the_largest_version_decodes_promptly_and_round_trips() {
        let mut doc = sample_doc();
        doc.set_version(u64::MAX);
        let encoded = to_bytes(&doc);
        let decoded = from_bytes::<MapDocument>(&encoded).unwrap();
        assert_eq!(decoded.meta().version, u64::MAX);
        assert_eq!(to_bytes(&decoded), encoded);
    }

    /// Element ids come off the wire: the largest one must not
    /// overflow the document's next-id bookkeeping.
    #[test]
    fn document_with_the_largest_element_ids_decodes() {
        let mut doc = MapDocument::new("m", "p", GeoReference::Unaligned { hint: None });
        let id = NodeId(u64::MAX);
        doc.insert_node(Node::new(id, Point2::ZERO, Tags::new()))
            .unwrap();
        doc.insert_way(Way::new(WayId(u64::MAX), vec![id, id], Tags::new()))
            .unwrap();
        let member = Member::new(ElementId::Node(id), "x");
        doc.insert_relation(Relation::new(
            RelationId(u64::MAX),
            vec![member],
            Tags::new(),
        ))
        .unwrap();
        let encoded = to_bytes(&doc);
        let decoded = from_bytes::<MapDocument>(&encoded).unwrap();
        assert_eq!(to_bytes(&decoded), encoded);
    }

    #[test]
    fn document_encoding_is_compact() {
        let doc = sample_doc();
        let encoded = to_bytes(&doc);
        // 4 elements with small tags should encode in well under a KiB.
        assert!(encoded.len() < 512, "encoded {} bytes", encoded.len());
    }

    #[test]
    fn patch_round_trip() {
        let mut p = MapPatch::new(7);
        p.upsert_nodes
            .push(Node::new(NodeId(1), Point2::new(1.0, 2.0), Tags::new()));
        p.remove_ways.push(WayId(3));
        let back = from_bytes::<MapPatch>(&to_bytes(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn corrupt_document_rejected_not_panicking() {
        let doc = sample_doc();
        let mut bytes = to_bytes(&doc).to_vec();
        // Flip bytes throughout and ensure decode never panics.
        for i in (0..bytes.len()).step_by(7) {
            bytes[i] ^= 0xA5;
            let _ = from_bytes::<MapDocument>(&bytes);
            bytes[i] ^= 0xA5;
        }
    }
}
