//! Property-based tests for the cell index.

use openflame_cells::cellid::{hilbert_d_to_xy, hilbert_xy_to_d, normalize_cells};
use openflame_cells::{CellId, Region, RegionCoverer};
use openflame_geo::LatLng;
use proptest::prelude::*;

fn arb_latlng() -> impl Strategy<Value = LatLng> {
    (-80.0f64..80.0, -179.0f64..179.0).prop_map(|(lat, lng)| LatLng::new(lat, lng).unwrap())
}

proptest! {
    #[test]
    fn cell_contains_its_generating_point(p in arb_latlng(), level in 0u8..=24) {
        let c = CellId::from_latlng(p, level).unwrap();
        prop_assert_eq!(c.level(), level);
        prop_assert!(c.contains_point(p));
    }

    #[test]
    fn ancestors_contain_descendants(p in arb_latlng(), level in 1u8..=24, up in 1u8..=10) {
        let c = CellId::from_latlng(p, level).unwrap();
        let anc_level = level.saturating_sub(up);
        let anc = c.parent_at(anc_level).unwrap();
        prop_assert!(anc.contains(c));
        prop_assert!(anc.contains_point(p));
        // The ancestor computed directly from the point is the same cell.
        prop_assert_eq!(anc, CellId::from_latlng(p, anc_level).unwrap());
    }

    #[test]
    fn hilbert_round_trip(level in 0u8..=16, seed in any::<u64>()) {
        let n = 1u64 << level;
        let i = (seed % n) as u32;
        let j = ((seed >> 32) % n) as u32;
        let d = hilbert_xy_to_d(level, i, j);
        prop_assert!(d < 1u64 << (2 * level));
        prop_assert_eq!(hilbert_d_to_xy(level, d), (i, j));
    }

    #[test]
    fn token_round_trip(p in arb_latlng(), level in 0u8..=30) {
        let c = CellId::from_latlng(p, level).unwrap();
        prop_assert_eq!(CellId::from_token(&c.to_token()).unwrap(), c);
    }

    #[test]
    fn dns_label_round_trip(p in arb_latlng(), level in 0u8..=20) {
        let c = CellId::from_latlng(p, level).unwrap();
        let labels = c.dns_labels();
        let refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
        prop_assert_eq!(CellId::from_dns_labels(&refs).unwrap(), c);
    }

    #[test]
    fn raw_round_trip(p in arb_latlng(), level in 0u8..=30) {
        let c = CellId::from_latlng(p, level).unwrap();
        prop_assert_eq!(CellId::from_raw(c.raw()).unwrap(), c);
    }

    #[test]
    fn normalized_sets_have_no_containment(
        pts in proptest::collection::vec((arb_latlng(), 2u8..14), 1..24),
    ) {
        let cells: Vec<CellId> = pts
            .into_iter()
            .map(|(p, l)| CellId::from_latlng(p, l).unwrap())
            .collect();
        let norm = normalize_cells(cells.clone());
        // Sorted, unique, no cell contains another.
        for w in norm.windows(2) {
            prop_assert!(w[0] < w[1]);
            prop_assert!(!w[0].contains(w[1]) && !w[1].contains(w[0]));
        }
        // Every input cell is covered by some output cell.
        for c in cells {
            prop_assert!(norm.iter().any(|n| n.contains(c)));
        }
    }

    #[test]
    fn covering_covers_sampled_points(
        center in arb_latlng(),
        radius in 50.0f64..5_000.0,
        bearing in 0.0f64..360.0,
        frac in 0.0f64..0.98,
    ) {
        let region = Region::Cap { center, radius_m: radius };
        let cells = RegionCoverer::new(6, 16, 64).covering(&region);
        let p = center.destination(bearing, radius * frac);
        prop_assert!(
            cells.iter().any(|c| c.contains_point(p)),
            "point {} uncovered ({} cells)", p, cells.len()
        );
    }
}
