//! Feature styling: tags → colors and stroke widths.

use openflame_mapdata::Tags;

/// How a feature is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Style {
    /// ARGB color.
    pub color: u32,
    /// Stroke width in pixels (for ways) or radius (for nodes).
    pub width: i64,
    /// Whether closed ways are filled as areas.
    pub fill: bool,
    /// Draw order: lower layers first.
    pub layer: u8,
}

/// The style for an element's tag set, or `None` if it is not drawn.
pub(crate) fn style_for(tags: &Tags) -> Option<Style> {
    if let Some(highway) = tags.get("highway") {
        let (color, width) = match highway {
            "motorway" => (0xFFE8_9A3C, 5),
            "primary" => (0xFFF4_C24E, 4),
            "secondary" => (0xFFF7_E08C, 4),
            "tertiary" => (0xFFFF_FFFF, 3),
            "residential" => (0xFFFF_FFFF, 3),
            "service" => (0xFFD9_D4CC, 2),
            _ => (0xFFB8_B0A5, 1), // footway and friends
        };
        return Some(Style {
            color,
            width,
            fill: false,
            layer: 2,
        });
    }
    if tags.has("building") {
        return Some(Style {
            color: 0xFFC9_BBAE,
            width: 1,
            fill: true,
            layer: 1,
        });
    }
    if tags.has("indoor") {
        let color = match tags.get("indoor") {
            Some("aisle") => 0xFF9A_C4E0,
            Some("wall") => 0xFF6B_6257,
            _ => 0xFFDD_E7EE,
        };
        return Some(Style {
            color,
            width: 1,
            fill: tags.is("indoor", "room"),
            layer: 3,
        });
    }
    if tags.has("shop") || tags.has("amenity") || tags.has("product") {
        return Some(Style {
            color: 0xFFCC_3344,
            width: 2,
            fill: false,
            layer: 4,
        });
    }
    if tags.has("natural") {
        return Some(Style {
            color: 0xFF9F_D19C,
            width: 1,
            fill: true,
            layer: 0,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roads_styled_by_class() {
        let motorway = style_for(&Tags::new().with("highway", "motorway")).unwrap();
        let footway = style_for(&Tags::new().with("highway", "footway")).unwrap();
        assert!(motorway.width > footway.width);
        assert!(!motorway.fill);
    }

    #[test]
    fn buildings_filled() {
        let s = style_for(&Tags::new().with("building", "yes")).unwrap();
        assert!(s.fill);
    }

    #[test]
    fn pois_drawn_as_markers() {
        assert!(style_for(&Tags::new().with("shop", "grocery")).is_some());
        assert!(style_for(&Tags::new().with("product", "seaweed")).is_some());
    }

    #[test]
    fn untagged_not_drawn() {
        assert!(style_for(&Tags::new()).is_none());
        assert!(style_for(&Tags::new().with("name", "just a name")).is_none());
    }

    #[test]
    fn layers_order_roads_above_buildings() {
        let road = style_for(&Tags::new().with("highway", "primary")).unwrap();
        let building = style_for(&Tags::new().with("building", "yes")).unwrap();
        assert!(road.layer > building.layer);
    }
}
