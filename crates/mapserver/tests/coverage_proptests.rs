//! Property-based coverage for the `Hello` advertisement and its
//! coverage extent on the wire (`docs/wire-protocol.md` spec §13.2):
//! arbitrary advertisements must round-trip bit-exactly, standalone and
//! inside pipelined batches.

use openflame_codec::{from_bytes, to_bytes};
use openflame_geo::LatLng;
use openflame_mapserver::protocol::{HelloInfo, Response};
use proptest::prelude::*;

fn arb_latlng() -> impl Strategy<Value = LatLng> {
    (-80.0f64..80.0, -179.0f64..179.0).prop_map(|(lat, lng)| LatLng::new(lat, lng).unwrap())
}

/// Every field shape a Hello can carry on the wire: an extent is its
/// raw cell ids, any of them, empty included (spec §13.1).
fn arb_hello() -> impl Strategy<Value = HelloInfo> {
    (
        proptest::option::of(arb_latlng()),
        proptest::collection::vec((any::<u64>(), arb_latlng()), 0..4),
        proptest::collection::vec(any::<u64>(), 0..20),
    )
        .prop_map(|(anchor, portals, coverage)| HelloInfo {
            anchor,
            portals,
            coverage,
        })
}

proptest! {
    #[test]
    fn hello_coverage_round_trips(hello in arb_hello()) {
        let back = from_bytes::<HelloInfo>(&to_bytes(&hello)).unwrap();
        prop_assert_eq!(back, hello);
    }

    #[test]
    fn coverage_hello_stays_self_delimiting_in_batches(hello in arb_hello(), version in any::<u64>()) {
        // A coverage-carrying Hello must not swallow the responses
        // streamed after it.
        let batch = Response::Batch(vec![
            Response::Hello(hello),
            Response::PatchApplied { version },
        ]);
        let back = from_bytes::<Response>(&to_bytes(&batch)).unwrap();
        prop_assert_eq!(back, batch);
    }
}
