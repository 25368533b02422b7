//! Property-based coverage for the `Hello` coverage-summary wire
//! fields (`docs/wire-protocol.md` spec §13.2): arbitrary summaries
//! must round-trip bit-exactly (standalone and inside pipelined
//! batches), old-format Hellos must decode as "unknown coverage,
//! never prune", and summary blobs must tolerate trailing bytes from
//! future versions.

use openflame_codec::{from_bytes, to_bytes, FieldCodec, Wire, Writer};
use openflame_geo::LatLng;
use openflame_mapdata::wire::LatLngCodec;
use openflame_mapserver::protocol::{HelloInfo, Response};
use openflame_mapserver::{CoverageExtent, CoverageSummary};
use proptest::prelude::*;

fn arb_latlng() -> impl Strategy<Value = LatLng> {
    (-80.0f64..80.0, -179.0f64..179.0).prop_map(|(lat, lng)| LatLng::new(lat, lng).unwrap())
}

fn arb_extent() -> impl Strategy<Value = CoverageExtent> {
    (
        proptest::collection::vec(any::<u64>(), 0..20),
        arb_latlng(),
        0.0f64..100_000.0,
    )
        .prop_map(|(cells, center, radius_m)| CoverageExtent {
            cells,
            center,
            radius_m,
        })
}

fn arb_summary() -> impl Strategy<Value = CoverageSummary> {
    (
        proptest::collection::vec(("[a-z]{1,10}", any::<u64>()), 0..8),
        proptest::option::of(arb_extent()),
    )
        .prop_map(|(kinds, extent)| CoverageSummary { kinds, extent })
}

/// Every field shape a Hello can carry on the wire, coverage
/// included. `anchored` is drawn independently of `anchor` — the
/// codec must not conflate the flag with anchor presence.
fn arb_hello() -> impl Strategy<Value = HelloInfo> {
    (
        (
            "[a-z0-9-]{1,12}",
            "[a-zA-Z ]{0,16}",
            proptest::collection::vec("[a-z]{1,8}", 0..5),
            proptest::collection::vec("[a-z]{1,6}", 0..3),
        ),
        (
            any::<bool>(),
            proptest::option::of(arb_latlng()),
            proptest::collection::vec((any::<u64>(), arb_latlng()), 0..4),
            any::<u64>(),
            proptest::option::of(arb_summary()),
        ),
    )
        .prop_map(
            |(
                (server_id, map_name, services, localization_techs),
                (anchored, anchor, portals, version, coverage),
            )| HelloInfo {
                server_id,
                map_name,
                services,
                localization_techs,
                anchored,
                anchor,
                portals,
                version,
                coverage,
            },
        )
}

/// The pre-coverage encoding of a Hello: format tags 0/1 only, no
/// summary blob — exactly what an old peer puts on the wire.
fn legacy_bytes(hello: &HelloInfo) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str(&hello.server_id);
    w.put_str(&hello.map_name);
    hello.services.encode(&mut w);
    hello.localization_techs.encode(&mut w);
    hello.anchored.encode(&mut w);
    match hello.anchor {
        Some(a) => {
            w.put_u8(1);
            LatLngCodec::put(&mut w, &a);
        }
        None => w.put_u8(0),
    }
    w.put_varint(hello.portals.len() as u64);
    for (node, hint) in &hello.portals {
        w.put_varint(*node);
        LatLngCodec::put(&mut w, hint);
    }
    w.put_varint(hello.version);
    w.finish().to_vec()
}

proptest! {
    #[test]
    fn hello_coverage_round_trips(hello in arb_hello()) {
        let back = from_bytes::<HelloInfo>(&to_bytes(&hello)).unwrap();
        prop_assert_eq!(back, hello);
    }

    #[test]
    fn coverage_hello_stays_self_delimiting_in_batches(hello in arb_hello(), version in any::<u64>()) {
        // The summary blob is length-prefixed, so a coverage-carrying
        // Hello must not swallow the responses streamed after it.
        let batch = Response::Batch(vec![
            Response::Hello(hello),
            Response::PatchApplied { version },
        ]);
        let back = from_bytes::<Response>(&to_bytes(&batch)).unwrap();
        prop_assert_eq!(back, batch);
    }

    #[test]
    fn legacy_hellos_decode_as_unknown_coverage(hello in arb_hello()) {
        // Whatever an old-format peer advertises, the decode yields
        // "no summary" — the state the planner must never prune on —
        // with every legacy field intact.
        let mut legacy = hello.clone();
        legacy.coverage = None;
        let bytes = legacy_bytes(&legacy);
        let back = from_bytes::<HelloInfo>(&bytes).unwrap();
        prop_assert_eq!(&back, &legacy);
        prop_assert_eq!(back.coverage, None);
        // And the current encoder emits those exact bytes for a
        // summary-less Hello, so old decoders keep working too.
        prop_assert_eq!(&to_bytes(&legacy)[..], &bytes[..]);
    }

    #[test]
    fn summary_blobs_tolerate_trailing_bytes(
        hello in arb_hello(),
        summary in arb_summary(),
        junk in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        // A future version may append summary fields inside the blob
        // without a new format tag (spec §13.2); today's decoder must
        // read today's fields and ignore the rest.
        let mut w = Writer::new();
        w.put_str(&hello.server_id);
        w.put_str(&hello.map_name);
        hello.services.encode(&mut w);
        hello.localization_techs.encode(&mut w);
        hello.anchored.encode(&mut w);
        match hello.anchor {
            Some(a) => {
                w.put_u8(3);
                LatLngCodec::put(&mut w, &a);
            }
            None => w.put_u8(2),
        }
        w.put_varint(hello.portals.len() as u64);
        for (node, hint) in &hello.portals {
            w.put_varint(*node);
            LatLngCodec::put(&mut w, hint);
        }
        w.put_varint(hello.version);
        let mut cw = Writer::new();
        summary.encode(&mut cw);
        let mut blob = cw.finish().to_vec();
        blob.extend_from_slice(&junk);
        w.put_bytes(&blob);
        let back = from_bytes::<HelloInfo>(&w.finish()).unwrap();
        prop_assert_eq!(back.coverage, Some(summary));
        prop_assert_eq!(back.server_id, hello.server_id);
        prop_assert_eq!(back.version, hello.version);
    }
}
