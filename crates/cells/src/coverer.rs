//! Approximating geographic regions by sets of cells.
//!
//! A map server's zone (paper §3) is registered in the discovery layer as a
//! covering: a small set of cells whose union contains the zone. The
//! coverer here mirrors the structure of S2's `RegionCoverer`: start from
//! the face cells, recursively refine cells that straddle the region
//! boundary, and stop when a budget or maximum level is reached.

use crate::cellid::{normalize_cells, CellId, MAX_LEVEL, NUM_FACES};
use openflame_geo::{BBox, LatLng};

/// A geographic region that can be covered by cells.
///
/// Tests are conservative with respect to the cell's bounding box, which
/// guarantees coverings *cover* (no false negatives) at the cost of an
/// occasional extra cell.
#[derive(Debug, Clone)]
pub enum Region {
    /// A spherical cap: all points within `radius_m` of `center`.
    Cap {
        /// Center of the cap.
        center: LatLng,
        /// Radius in meters.
        radius_m: f64,
    },
    /// A latitude/longitude rectangle.
    Rect(BBox),
}

impl Region {
    /// Whether the region definitely contains the point.
    pub fn contains_point(&self, p: LatLng) -> bool {
        match self {
            Region::Cap { center, radius_m } => center.haversine_distance(p) <= *radius_m,
            Region::Rect(b) => b.contains(p),
        }
    }

    /// Whether the region may intersect the cell (conservative: uses the
    /// cell's bounding box, so `true` can be spurious but `false` is
    /// definite). Computing the box is most of the cost; a caller
    /// testing the same cell repeatedly keeps [`CellId::bbox`] and asks
    /// [`Region::may_intersect_bbox`] instead, with the same verdict.
    pub fn may_intersect_cell(&self, cell: CellId) -> bool {
        self.may_intersect_bbox(&cell.bbox())
    }

    /// Whether the region may intersect the box (`false` is definite).
    /// The one definition of the cell test above, for callers that
    /// computed a cell's bounds once and test them many times.
    pub fn may_intersect_bbox(&self, bb: &BBox) -> bool {
        match self {
            Region::Cap { center, radius_m } => bbox_min_distance(bb, *center) <= *radius_m,
            Region::Rect(r) => r.intersects(bb),
        }
    }

    /// Whether the region definitely contains the whole cell.
    pub(crate) fn contains_cell(&self, cell: CellId) -> bool {
        let bb = cell.bbox();
        match self {
            Region::Cap { center, radius_m } => {
                // Max distance to bbox corners bounds max distance to the
                // cell from above only if the cell is inside its bbox —
                // which it is by construction.
                bb.corners()
                    .iter()
                    .all(|c| center.haversine_distance(*c) <= *radius_m)
                    && center.haversine_distance(bb.center()) <= *radius_m
            }
            Region::Rect(r) => r.contains_bbox(&bb),
        }
    }

    /// A bounding box of the region.
    pub fn bbox(&self) -> BBox {
        match self {
            Region::Cap { center, radius_m } => {
                BBox::from_corners(*center, *center).padded(*radius_m)
            }
            Region::Rect(b) => *b,
        }
    }
}

/// Great-circle distance from `p` to the nearest point of `b` (zero if
/// inside).
fn bbox_min_distance(b: &BBox, p: LatLng) -> f64 {
    if b.contains(p) {
        return 0.0;
    }
    let clamped_lat = p.lat().clamp(b.lat_lo(), b.lat_hi());
    let clamped_lng = p.lng().clamp(b.lng_lo(), b.lng_hi());
    p.haversine_distance(LatLng::new_unchecked(clamped_lat, clamped_lng))
}

/// Produces cell coverings of regions.
///
/// # Examples
///
/// ```
/// use openflame_cells::{Region, RegionCoverer};
/// use openflame_geo::LatLng;
///
/// let coverer = RegionCoverer::new(8, 14, 32);
/// let region = Region::Cap {
///     center: LatLng::new(40.44, -79.94).unwrap(),
///     radius_m: 500.0,
/// };
/// let cells = coverer.covering(&region);
/// assert!(!cells.is_empty() && cells.len() <= 32);
/// ```
#[derive(Debug, Clone)]
pub struct RegionCoverer {
    min_level: u8,
    max_level: u8,
    max_cells: usize,
}

impl RegionCoverer {
    /// Creates a coverer producing cells between `min_level` and
    /// `max_level`, with at most `max_cells` cells (best effort: the
    /// covering may exceed the budget only when even `min_level` cells
    /// cannot stay within it).
    ///
    /// # Panics
    ///
    /// Panics if `min_level > max_level`, `max_level > 30`, or
    /// `max_cells == 0`.
    pub fn new(min_level: u8, max_level: u8, max_cells: usize) -> Self {
        assert!(min_level <= max_level && max_level <= MAX_LEVEL && max_cells > 0);
        Self {
            min_level,
            max_level,
            max_cells,
        }
    }

    /// A covering of `region`: a normalized set of cells whose union
    /// contains every point of the region.
    pub fn covering(&self, region: &Region) -> Vec<CellId> {
        // Phase 1: walk down from the faces to min_level, keeping only
        // cells that may intersect the region.
        let mut frontier: Vec<CellId> = (0..NUM_FACES)
            .map(|f| CellId::from_face(f).expect("valid face"))
            .filter(|c| region.may_intersect_cell(*c))
            .collect();
        let mut level = 0;
        while level < self.min_level {
            let mut next = Vec::with_capacity(frontier.len() * 2);
            for cell in &frontier {
                for child in cell.children().expect("below max level") {
                    if region.may_intersect_cell(child) {
                        next.push(child);
                    }
                }
            }
            frontier = next;
            level += 1;
        }
        // Phase 2: refine boundary cells while the budget allows.
        // Interior cells (fully contained) are final. Splitting one cell
        // replaces it with up to 4, so require headroom before splitting.
        let mut result: Vec<CellId> = Vec::new();
        let mut queue: Vec<CellId> = frontier;
        while let Some(cell) = queue.pop() {
            let splittable = cell.level() < self.max_level
                && !region.contains_cell(cell)
                && result.len() + queue.len() + 4 <= self.max_cells;
            if splittable {
                let kids: Vec<CellId> = cell
                    .children()
                    .expect("below max level")
                    .into_iter()
                    .filter(|c| region.may_intersect_cell(*c))
                    .collect();
                if kids.is_empty() {
                    // Conservative parent test hit a false positive; keep
                    // the parent to preserve the covering guarantee.
                    result.push(cell);
                } else {
                    queue.extend(kids);
                }
            } else {
                result.push(cell);
            }
        }
        normalize_cells(result)
    }

    /// A covering where every cell is exactly `level` (no merging), the
    /// form used for DNS registration where each cell is one name.
    pub fn covering_at_level(&self, region: &Region, level: u8) -> Vec<CellId> {
        assert!(level <= MAX_LEVEL);
        let single = RegionCoverer::new(level, level, usize::MAX - 4);
        let mut cells = single.covering(region);
        // Normalization may have merged complete quads; re-expand them.
        let mut out = Vec::with_capacity(cells.len());
        while let Some(c) = cells.pop() {
            if c.level() == level {
                out.push(c);
            } else {
                cells.extend(c.children().expect("below target level"));
            }
        }
        out.sort();
        out
    }
}

impl Default for RegionCoverer {
    fn default() -> Self {
        RegionCoverer::new(4, 16, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(radius_m: f64) -> Region {
        Region::Cap {
            center: LatLng::new(40.4433, -79.9436).unwrap(),
            radius_m,
        }
    }

    #[test]
    fn covering_covers_cap_samples() {
        let region = cap(800.0);
        let cells = RegionCoverer::new(8, 16, 48).covering(&region);
        assert!(!cells.is_empty());
        let center = LatLng::new(40.4433, -79.9436).unwrap();
        // Sample points throughout the cap must be covered.
        for bearing in (0..360).step_by(30) {
            for frac in [0.0, 0.5, 0.99] {
                let p = center.destination(bearing as f64, 800.0 * frac);
                assert!(
                    cells.iter().any(|c| c.contains_point(p)),
                    "uncovered point at bearing {bearing} frac {frac}"
                );
            }
        }
    }

    #[test]
    fn covering_respects_budget() {
        let region = cap(5_000.0);
        for budget in [4usize, 8, 16, 64] {
            let cells = RegionCoverer::new(4, 18, budget).covering(&region);
            assert!(
                cells.len() <= budget,
                "budget {budget}: got {}",
                cells.len()
            );
        }
    }

    #[test]
    fn smaller_region_needs_no_more_cells() {
        let big = RegionCoverer::new(6, 14, 64).covering(&cap(10_000.0));
        let small = RegionCoverer::new(6, 14, 64).covering(&cap(100.0));
        // Not strictly monotone in general, but a 100 m cap at level ≤ 14
        // is a handful of cells while 10 km needs many.
        assert!(small.len() <= big.len());
        assert!(small.len() <= 6);
    }

    #[test]
    fn covering_rect_covers_corners_and_center() {
        let b = BBox::new(40.40, 40.46, -79.99, -79.90).unwrap();
        let region = Region::Rect(b);
        let cells = RegionCoverer::new(6, 15, 64).covering(&region);
        for p in b.corners().into_iter().chain([b.center()]) {
            // Corners are on the boundary; nudge inside to dodge edge
            // ambiguity.
            let inside = LatLng::new_unchecked(
                p.lat().clamp(b.lat_lo() + 1e-6, b.lat_hi() - 1e-6),
                p.lng().clamp(b.lng_lo() + 1e-6, b.lng_hi() - 1e-6),
            );
            assert!(cells.iter().any(|c| c.contains_point(inside)));
        }
    }

    #[test]
    fn covering_at_level_uniform() {
        let region = cap(600.0);
        let cells = RegionCoverer::default().covering_at_level(&region, 13);
        assert!(!cells.is_empty());
        assert!(cells.iter().all(|c| c.level() == 13));
        // Sorted and unique.
        for w in cells.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn finer_level_uses_more_cells() {
        let region = cap(1_000.0);
        let coarse = RegionCoverer::default().covering_at_level(&region, 11);
        let fine = RegionCoverer::default().covering_at_level(&region, 14);
        assert!(fine.len() > coarse.len());
    }

    #[test]
    fn covering_is_normalized() {
        let region = cap(3_000.0);
        let cells = RegionCoverer::new(6, 14, 64).covering(&region);
        let normalized = crate::cellid::normalize_cells(cells.clone());
        assert_eq!(cells, normalized);
    }

    #[test]
    fn cap_region_point_tests() {
        let r = cap(100.0);
        let c = LatLng::new(40.4433, -79.9436).unwrap();
        assert!(r.contains_point(c));
        assert!(r.contains_point(c.destination(45.0, 99.0)));
        assert!(!r.contains_point(c.destination(45.0, 101.0)));
    }

    #[test]
    fn whole_earth_rect_touches_all_faces() {
        let everything = Region::Rect(BBox::new(-89.0, 89.0, -179.9, 179.9).unwrap());
        let cells = RegionCoverer::new(0, 2, 6).covering(&everything);
        // With budget 6 the covering stays at the face level.
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().all(|c| c.level() == 0));
    }
}
