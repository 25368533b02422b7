//! The spatial naming scheme: cells ↔ domain names (paper §5.1).
//!
//! "We can leverage spatial indexing systems (e.g., S2, H3) to convert
//! locations to hierarchical domain names. A polygonal region, or a
//! zone, can be approximated by a collection of domain names. Coarse
//! location in the form of latitude and longitude can also be converted
//! to a domain name."

use openflame_cells::CellId;
use openflame_dns::DomainName;

/// The root domain under which all spatial names live.
pub const SPATIAL_ROOT: &str = "cell.flame.";

/// The canonical cell level for discovery queries (~600 m cells:
/// coarse enough for GPS-quality location, fine enough to bound the
/// result set).
pub const QUERY_LEVEL: u8 = 14;

/// The domain name of a cell: its label path under [`SPATIAL_ROOT`].
pub fn cell_to_name(cell: CellId) -> DomainName {
    // Both label lists are most-specific first: one pass, one name.
    let cell_labels = cell.dns_labels();
    let labels = cell_labels
        .iter()
        .map(String::as_str)
        .chain(SPATIAL_ROOT.split_terminator('.'));
    DomainName::from_labels(labels).expect("cell labels are valid DNS labels")
}

/// The wildcard name matching every descendant cell of `cell`.
pub(crate) fn cell_to_wildcard(cell: CellId) -> DomainName {
    cell_to_name(cell).child("*").expect("'*' is a valid label")
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_geo::LatLng;

    fn pitt() -> LatLng {
        LatLng::new(40.4433, -79.9436).unwrap()
    }

    /// The cell a spatial name names: the inverse of `cell_to_name`.
    fn name_to_cell(name: &DomainName) -> CellId {
        let root = DomainName::parse(SPATIAL_ROOT).unwrap();
        let cell_labels: Vec<&str> = name
            .labels()
            .take(name.label_count() - root.label_count())
            .collect();
        CellId::from_dns_labels(&cell_labels).unwrap()
    }

    /// The discovery query name for a coarse device location, built
    /// the way the client's discovery builds it.
    fn query_name(location: LatLng) -> DomainName {
        cell_to_name(CellId::from_latlng(location, QUERY_LEVEL).unwrap())
    }

    #[test]
    fn cell_name_round_trip() {
        for level in [0u8, 5, QUERY_LEVEL, 20] {
            let cell = CellId::from_latlng(pitt(), level).unwrap();
            let name = cell_to_name(cell);
            assert!(name.to_string().ends_with(SPATIAL_ROOT));
            assert_eq!(name_to_cell(&name), cell, "level {level}");
        }
    }

    #[test]
    fn query_name_is_at_query_level() {
        let name = query_name(pitt());
        let cell = name_to_cell(&name);
        assert_eq!(cell.level(), QUERY_LEVEL);
        assert!(cell.contains_point(pitt()));
    }

    #[test]
    fn parent_cell_name_is_suffix_of_child() {
        let cell = CellId::from_latlng(pitt(), 10).unwrap();
        let parent = cell.parent().unwrap();
        let child_name = cell_to_name(cell).to_string();
        let parent_name = cell_to_name(parent).to_string();
        assert!(child_name.ends_with(&parent_name));
    }

    #[test]
    fn wildcard_form() {
        let cell = CellId::from_latlng(pitt(), 8).unwrap();
        let w = cell_to_wildcard(cell);
        assert!(w.is_wildcard());
        assert!(w.to_string().starts_with("*."));
    }

    #[test]
    fn nearby_points_share_query_name() {
        let a = query_name(pitt());
        let b = query_name(pitt().destination(45.0, 5.0));
        assert_eq!(a, b, "5 m apart should land in the same ~600 m cell");
    }
}
