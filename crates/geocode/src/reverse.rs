//! Reverse geocoding: location → map elements.

use openflame_geo::Point2;
use openflame_mapdata::{ElementId, MapDocument};

/// A reverse-geocode result: the named element nearest a position.
#[derive(Debug, Clone, PartialEq)]
pub struct ReverseHit {
    /// The element found.
    pub element: ElementId,
    /// Its display name.
    pub label: String,
    /// Distance from the query position, meters.
    pub distance_m: f64,
}

/// Finds the nearest *named* node within `radius_m` of `pos`.
///
/// This is the "what is here?" query behind click interactions (paper §4).
pub fn reverse_geocode(map: &MapDocument, pos: Point2, radius_m: f64) -> Option<ReverseHit> {
    map.nodes_within(pos, radius_m)
        .into_iter()
        .filter_map(|n| {
            n.tags.name().map(|name| ReverseHit {
                element: ElementId::Node(n.id),
                label: name.to_string(),
                distance_m: n.pos.distance(pos),
            })
        })
        .min_by(|a, b| a.distance_m.total_cmp(&b.distance_m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_mapdata::{GeoReference, Tags};

    fn sample_map() -> MapDocument {
        let mut map = MapDocument::new("r", "t", GeoReference::Unaligned { hint: None });
        map.add_node(Point2::new(0.0, 0.0), Tags::new().with("name", "Fountain"));
        map.add_node(Point2::new(50.0, 0.0), Tags::new().with("name", "Kiosk"));
        map.add_node(Point2::new(10.0, 0.0), Tags::new()); // unnamed
        map
    }

    #[test]
    fn finds_nearest_named_node() {
        let map = sample_map();
        let hit = reverse_geocode(&map, Point2::new(8.0, 1.0), 30.0).unwrap();
        assert_eq!(hit.label, "Fountain");
        assert!((hit.distance_m - (65.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn ignores_unnamed_even_if_closer() {
        let map = sample_map();
        // Query right on the unnamed node at (10, 0).
        let hit = reverse_geocode(&map, Point2::new(10.0, 0.0), 30.0).unwrap();
        assert_eq!(hit.label, "Fountain");
    }

    #[test]
    fn radius_limits_results() {
        let map = sample_map();
        assert!(reverse_geocode(&map, Point2::new(500.0, 500.0), 10.0).is_none());
    }
}
