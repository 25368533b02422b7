//! Web-Mercator projection used by the tile pyramid.

use crate::{LatLng, Point2};

/// Maximum latitude representable in Web Mercator (±85.05113°).
pub(crate) const MAX_MERCATOR_LAT: f64 = 85.051_128_779_806_6;

/// The spherical Web-Mercator projection (EPSG:3857 normalized form).
///
/// World coordinates are normalized to the unit square `[0, 1]²` with the
/// origin at the northwest corner, matching slippy-map tile conventions:
/// at zoom `z` the world is a `2^z × 2^z` grid of tiles and tile `(x, y)`
/// spans `[x/2^z, (x+1)/2^z] × [y/2^z, (y+1)/2^z]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mercator;

impl Mercator {
    /// Projects a coordinate to the normalized unit square.
    ///
    /// Latitudes beyond `MAX_MERCATOR_LAT` (±85.05°) are clamped, as
    /// every slippy map implementation does.
    pub fn project(p: LatLng) -> Point2 {
        let lat = p
            .lat()
            .clamp(-MAX_MERCATOR_LAT, MAX_MERCATOR_LAT)
            .to_radians();
        let x = (p.lng() + 180.0) / 360.0;
        let y = (1.0 - (lat.tan() + 1.0 / lat.cos()).ln() / std::f64::consts::PI) / 2.0;
        // Floating-point error at the clamped latitude can push y a hair
        // outside the unit square; keep the contract exact.
        Point2::new(x, y.clamp(0.0, 1.0))
    }

    /// Inverse projection from the normalized unit square.
    pub fn unproject(p: Point2) -> LatLng {
        let lng = p.x * 360.0 - 180.0;
        let n = std::f64::consts::PI * (1.0 - 2.0 * p.y);
        let lat = n.sinh().atan().to_degrees();
        LatLng::new_unchecked(lat, lng)
    }

    /// Tile coordinates containing `p` at zoom `z`.
    pub fn tile_for(p: LatLng, z: u8) -> (u32, u32) {
        let w = Self::project(p);
        let n = (1u64 << z) as f64;
        let tx = ((w.x * n) as i64).clamp(0, (1i64 << z) - 1) as u32;
        let ty = ((w.y * n) as i64).clamp(0, (1i64 << z) - 1) as u32;
        (tx, ty)
    }

    /// The geodetic bounds of tile `(x, y)` at zoom `z` as
    /// `(northwest, southeast)` corners.
    pub fn tile_bounds(x: u32, y: u32, z: u8) -> (LatLng, LatLng) {
        let n = (1u64 << z) as f64;
        let nw = Self::unproject(Point2::new(x as f64 / n, y as f64 / n));
        let se = Self::unproject(Point2::new((x + 1) as f64 / n, (y + 1) as f64 / n));
        (nw, se)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_projects_to_center() {
        let p = Mercator::project(LatLng::new(0.0, 0.0).unwrap());
        assert!((p.x - 0.5).abs() < 1e-12 && (p.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn round_trip() {
        for &(lat, lng) in &[(0.0, 0.0), (40.44, -79.94), (-33.86, 151.21), (80.0, 179.0)] {
            let p = LatLng::new(lat, lng).unwrap();
            let q = Mercator::unproject(Mercator::project(p));
            assert!(p.haversine_distance(q) < 0.01, "{p} vs {q}");
        }
    }

    #[test]
    fn clamps_polar_latitudes() {
        let p = Mercator::project(LatLng::new(89.9, 0.0).unwrap());
        assert!(p.y >= 0.0 && p.y <= 1.0);
        let q = Mercator::project(LatLng::new(-89.9, 0.0).unwrap());
        assert!(q.y >= 0.0 && q.y <= 1.0);
    }

    #[test]
    fn tile_for_known_values() {
        // Zoom 0: everything is tile (0, 0).
        assert_eq!(
            Mercator::tile_for(LatLng::new(40.0, -80.0).unwrap(), 0),
            (0, 0)
        );
        // Zoom 1: northwest quadrant is (0, 0).
        assert_eq!(
            Mercator::tile_for(LatLng::new(40.0, -80.0).unwrap(), 1),
            (0, 0)
        );
        assert_eq!(
            Mercator::tile_for(LatLng::new(40.0, 80.0).unwrap(), 1),
            (1, 0)
        );
        assert_eq!(
            Mercator::tile_for(LatLng::new(-40.0, -80.0).unwrap(), 1),
            (0, 1)
        );
        assert_eq!(
            Mercator::tile_for(LatLng::new(-40.0, 80.0).unwrap(), 1),
            (1, 1)
        );
    }

    #[test]
    fn tile_bounds_contain_point() {
        let p = LatLng::new(40.4433, -79.9436).unwrap();
        for z in [5u8, 10, 15] {
            let (x, y) = Mercator::tile_for(p, z);
            let (nw, se) = Mercator::tile_bounds(x, y, z);
            assert!(nw.lat() >= p.lat() && p.lat() >= se.lat(), "z{z} lat");
            assert!(nw.lng() <= p.lng() && p.lng() <= se.lng(), "z{z} lng");
        }
    }

    #[test]
    fn tile_bounds_tile_smaller_at_higher_zoom() {
        let p = LatLng::new(40.0, -80.0).unwrap();
        let (x1, y1) = Mercator::tile_for(p, 10);
        let (nw1, se1) = Mercator::tile_bounds(x1, y1, 10);
        let (x2, y2) = Mercator::tile_for(p, 14);
        let (nw2, se2) = Mercator::tile_bounds(x2, y2, 14);
        let h1 = nw1.lat() - se1.lat();
        let h2 = nw2.lat() - se2.lat();
        assert!(h2 < h1 / 8.0);
    }
}
