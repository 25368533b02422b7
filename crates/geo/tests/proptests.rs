//! Property-based tests for the geometry substrate.

use openflame_geo::{Affine2, BBox, LatLng, LocalFrame, Mercator, Point2};
use proptest::prelude::*;

fn arb_latlng() -> impl Strategy<Value = LatLng> {
    (-80.0f64..80.0, -179.0f64..179.0).prop_map(|(lat, lng)| LatLng::new(lat, lng).unwrap())
}

fn arb_point() -> impl Strategy<Value = Point2> {
    (-1_000.0f64..1_000.0, -1_000.0f64..1_000.0).prop_map(|(x, y)| Point2::new(x, y))
}

proptest! {
    #[test]
    fn haversine_symmetric_and_nonnegative(a in arb_latlng(), b in arb_latlng()) {
        let d_ab = a.haversine_distance(b);
        let d_ba = b.haversine_distance(a);
        prop_assert!(d_ab >= 0.0);
        prop_assert!((d_ab - d_ba).abs() < 1e-6);
    }

    #[test]
    fn haversine_triangle_inequality(a in arb_latlng(), b in arb_latlng(), c in arb_latlng()) {
        let direct = a.haversine_distance(c);
        let via = a.haversine_distance(b) + b.haversine_distance(c);
        prop_assert!(direct <= via + 1e-6);
    }

    #[test]
    fn destination_inverts_bearing_distance(
        p in arb_latlng(),
        bearing in 0.0f64..360.0,
        dist in 1.0f64..100_000.0,
    ) {
        let q = p.destination(bearing, dist);
        prop_assert!((p.haversine_distance(q) - dist).abs() < dist * 1e-6 + 1e-6);
    }

    #[test]
    fn local_frame_round_trip(origin in arb_latlng(), x in -3_000.0f64..3_000.0, y in -3_000.0f64..3_000.0) {
        let f = LocalFrame::new(origin);
        let p = Point2::new(x, y);
        let back = f.to_local(f.from_local(p));
        prop_assert!(p.distance(back) < 1e-3, "{p} vs {back}");
    }

    #[test]
    fn mercator_round_trip(p in arb_latlng()) {
        let q = Mercator::unproject(Mercator::project(p));
        prop_assert!(p.haversine_distance(q) < 0.01);
    }

    #[test]
    fn mercator_tile_contains_point(p in arb_latlng(), z in 0u8..18) {
        let (x, y) = Mercator::tile_for(p, z);
        let (nw, se) = Mercator::tile_bounds(x, y, z);
        prop_assert!(nw.lat() >= p.lat() - 1e-9 && p.lat() >= se.lat() - 1e-9);
        prop_assert!(nw.lng() <= p.lng() + 1e-9 && p.lng() <= se.lng() + 1e-9);
    }

    #[test]
    fn bbox_from_points_contains_inputs(pts in proptest::collection::vec(arb_latlng(), 1..20)) {
        let b = BBox::from_points(pts.clone()).unwrap();
        for p in pts {
            prop_assert!(b.contains(p));
        }
    }

    #[test]
    fn similarity_fit_recovers_transform(
        angle in -3.0f64..3.0,
        scale in 0.2f64..5.0,
        tx in -500.0f64..500.0,
        ty in -500.0f64..500.0,
        pts in proptest::collection::vec(arb_point(), 3..12),
    ) {
        // Need at least two distinct source points for a meaningful fit.
        prop_assume!(pts.iter().any(|p| p.distance(pts[0]) > 1.0));
        let truth = Affine2::similarity(angle, scale, Point2::new(tx, ty));
        let pairs: Vec<_> = pts.iter().map(|&p| (p, truth.apply(p))).collect();
        let fit = Affine2::fit_similarity(&pairs).unwrap();
        prop_assert!(fit.rms_error(&pairs) < 1e-6);
    }

    #[test]
    fn affine_inverse_round_trip(
        angle in -3.0f64..3.0,
        scale in 0.2f64..5.0,
        tx in -500.0f64..500.0,
        ty in -500.0f64..500.0,
        p in arb_point(),
    ) {
        let m = Affine2::similarity(angle, scale, Point2::new(tx, ty));
        let inv = m.inverse().unwrap();
        prop_assert!(inv.apply(m.apply(p)).distance(p) < 1e-6);
    }
}
