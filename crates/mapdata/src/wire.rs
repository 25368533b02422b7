//! Wire-format encodings for map data, so patches can cross the
//! simulated network with honest byte accounting.
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

use crate::element::{ElementId, Node, NodeId, Way, WayId};
use crate::{MapPatch, Tags};
use openflame_codec::{wire_enum, wire_struct, CodecError, FieldCodec, Reader, Wire, Writer};
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
wire_enum! { ElementId, "ElementId" {
    0 => Node(id),
    1 => Way(id),
} }
wire_struct! { Node { id, pos: PointCodec, tags } }
wire_struct! { Way { id, nodes, tags } }
wire_struct! { MapPatch {
    base_version,
    upsert_nodes,
    upsert_ways,
    remove_nodes,
    remove_ways,
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

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_codec::{from_bytes, to_bytes};

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
        for id in [ElementId::Node(NodeId(1)), ElementId::Way(WayId(2))] {
            assert_eq!(from_bytes::<ElementId>(&to_bytes(&id)).unwrap(), id);
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
    fn patch_round_trip() {
        let mut p = MapPatch::new(7);
        p.upsert_nodes
            .push(Node::new(NodeId(1), Point2::new(1.0, 2.0), Tags::new()));
        p.remove_ways.push(WayId(3));
        let back = from_bytes::<MapPatch>(&to_bytes(&p)).unwrap();
        assert_eq!(back, p);
    }
}
