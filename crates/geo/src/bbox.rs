//! Axis-aligned bounding rectangles in geodetic coordinates.

use crate::{GeoError, LatLng};

/// An axis-aligned latitude/longitude rectangle.
///
/// `BBox` does not model antimeridian-crossing rectangles; the synthetic
/// worlds used throughout the workspace never straddle ±180°, and the
/// constructor rejects inverted bounds instead of silently wrapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    lat_lo: f64,
    lat_hi: f64,
    lng_lo: f64,
    lng_hi: f64,
}

impl BBox {
    /// Creates a bounding box from corner bounds.
    pub fn new(lat_lo: f64, lat_hi: f64, lng_lo: f64, lng_hi: f64) -> Result<Self, GeoError> {
        if !(lat_lo.is_finite() && lat_hi.is_finite() && lng_lo.is_finite() && lng_hi.is_finite()) {
            return Err(GeoError::InvalidCoordinate("non-finite bbox bound".into()));
        }
        if lat_lo > lat_hi || lng_lo > lng_hi {
            return Err(GeoError::InvalidCoordinate(format!(
                "inverted bbox [{lat_lo},{lat_hi}]x[{lng_lo},{lng_hi}]"
            )));
        }
        if !(-90.0..=90.0).contains(&lat_lo) || !(-90.0..=90.0).contains(&lat_hi) {
            return Err(GeoError::InvalidCoordinate(
                "bbox latitude out of range".into(),
            ));
        }
        Ok(Self {
            lat_lo,
            lat_hi,
            lng_lo,
            lng_hi,
        })
    }

    /// The tightest box containing both corner points.
    pub fn from_corners(a: LatLng, b: LatLng) -> Self {
        Self {
            lat_lo: a.lat().min(b.lat()),
            lat_hi: a.lat().max(b.lat()),
            lng_lo: a.lng().min(b.lng()),
            lng_hi: a.lng().max(b.lng()),
        }
    }

    /// The tightest box containing every point, or `None` for empty input.
    pub fn from_points<I: IntoIterator<Item = LatLng>>(points: I) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut b = Self::from_corners(first, first);
        for p in iter {
            b.expand_to(p);
        }
        Some(b)
    }

    /// Lowest latitude.
    pub fn lat_lo(&self) -> f64 {
        self.lat_lo
    }

    /// Highest latitude.
    pub fn lat_hi(&self) -> f64 {
        self.lat_hi
    }

    /// Lowest (westmost) longitude.
    pub fn lng_lo(&self) -> f64 {
        self.lng_lo
    }

    /// Highest (eastmost) longitude.
    pub fn lng_hi(&self) -> f64 {
        self.lng_hi
    }

    /// Center point of the box.
    pub fn center(&self) -> LatLng {
        LatLng::new_unchecked(
            (self.lat_lo + self.lat_hi) / 2.0,
            (self.lng_lo + self.lng_hi) / 2.0,
        )
    }

    /// Whether `p` lies inside the box (boundary inclusive).
    pub fn contains(&self, p: LatLng) -> bool {
        p.lat() >= self.lat_lo
            && p.lat() <= self.lat_hi
            && p.lng() >= self.lng_lo
            && p.lng() <= self.lng_hi
    }

    /// Whether `other` is entirely inside this box.
    pub fn contains_bbox(&self, other: &BBox) -> bool {
        other.lat_lo >= self.lat_lo
            && other.lat_hi <= self.lat_hi
            && other.lng_lo >= self.lng_lo
            && other.lng_hi <= self.lng_hi
    }

    /// Whether the two boxes share any point (boundary inclusive).
    pub fn intersects(&self, other: &BBox) -> bool {
        self.lat_lo <= other.lat_hi
            && other.lat_lo <= self.lat_hi
            && self.lng_lo <= other.lng_hi
            && other.lng_lo <= self.lng_hi
    }

    /// Grows the box in place so it contains `p`.
    pub(crate) fn expand_to(&mut self, p: LatLng) {
        self.lat_lo = self.lat_lo.min(p.lat());
        self.lat_hi = self.lat_hi.max(p.lat());
        self.lng_lo = self.lng_lo.min(p.lng());
        self.lng_hi = self.lng_hi.max(p.lng());
    }

    /// A new box padded by `margin_m` meters on every side.
    ///
    /// The longitude padding is scaled by the cosine of the center
    /// latitude so the margin is metric on both axes.
    pub fn padded(&self, margin_m: f64) -> BBox {
        let dlat = margin_m / 111_320.0;
        let cos_lat = self.center().lat_rad().cos().max(1e-6);
        let dlng = margin_m / (111_320.0 * cos_lat);
        BBox {
            lat_lo: (self.lat_lo - dlat).max(-90.0),
            lat_hi: (self.lat_hi + dlat).min(90.0),
            lng_lo: self.lng_lo - dlng,
            lng_hi: self.lng_hi + dlng,
        }
    }

    /// The union of the two boxes.
    pub fn union(&self, other: &BBox) -> BBox {
        BBox {
            lat_lo: self.lat_lo.min(other.lat_lo),
            lat_hi: self.lat_hi.max(other.lat_hi),
            lng_lo: self.lng_lo.min(other.lng_lo),
            lng_hi: self.lng_hi.max(other.lng_hi),
        }
    }

    /// The four corner points, counter-clockwise from the southwest.
    pub fn corners(&self) -> [LatLng; 4] {
        [
            LatLng::new_unchecked(self.lat_lo, self.lng_lo),
            LatLng::new_unchecked(self.lat_lo, self.lng_hi),
            LatLng::new_unchecked(self.lat_hi, self.lng_hi),
            LatLng::new_unchecked(self.lat_hi, self.lng_lo),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> BBox {
        BBox::new(10.0, 11.0, 20.0, 21.0).unwrap()
    }

    #[test]
    fn new_rejects_inverted_and_bad_bounds() {
        assert!(BBox::new(11.0, 10.0, 0.0, 1.0).is_err());
        assert!(BBox::new(0.0, 1.0, 5.0, 4.0).is_err());
        assert!(BBox::new(-91.0, 0.0, 0.0, 1.0).is_err());
        assert!(BBox::new(0.0, f64::NAN, 0.0, 1.0).is_err());
    }

    #[test]
    fn contains_boundary_inclusive() {
        let b = unit_box();
        assert!(b.contains(LatLng::new(10.0, 20.0).unwrap()));
        assert!(b.contains(LatLng::new(11.0, 21.0).unwrap()));
        assert!(b.contains(LatLng::new(10.5, 20.5).unwrap()));
        assert!(!b.contains(LatLng::new(9.999, 20.5).unwrap()));
        assert!(!b.contains(LatLng::new(10.5, 21.001).unwrap()));
    }

    #[test]
    fn intersects_cases() {
        let b = unit_box();
        let overlapping = BBox::new(10.5, 12.0, 20.5, 22.0).unwrap();
        let touching = BBox::new(11.0, 12.0, 20.0, 21.0).unwrap();
        let disjoint = BBox::new(12.0, 13.0, 20.0, 21.0).unwrap();
        assert!(b.intersects(&overlapping));
        assert!(b.intersects(&touching));
        assert!(!b.intersects(&disjoint));
    }

    #[test]
    fn contains_bbox_cases() {
        let b = unit_box();
        let inner = BBox::new(10.2, 10.8, 20.2, 20.8).unwrap();
        assert!(b.contains_bbox(&inner));
        assert!(!inner.contains_bbox(&b));
        assert!(b.contains_bbox(&b));
    }

    #[test]
    fn from_points_covers_all() {
        let pts = vec![
            LatLng::new(1.0, 2.0).unwrap(),
            LatLng::new(-1.0, 5.0).unwrap(),
            LatLng::new(0.5, -3.0).unwrap(),
        ];
        let b = BBox::from_points(pts.clone()).unwrap();
        for p in pts {
            assert!(b.contains(p));
        }
        assert!(BBox::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn padded_grows_metrically() {
        let b = BBox::new(40.0, 40.01, -80.0, -79.99).unwrap();
        let p = b.padded(100.0);
        assert!(p.contains_bbox(&b));
        // 100 m of latitude is about 0.0009 degrees.
        assert!((p.lat_lo() - (40.0 - 100.0 / 111_320.0)).abs() < 1e-9);
        // Longitude padding should be larger in degrees at 40°N.
        assert!((b.lng_lo() - p.lng_lo()) > 100.0 / 111_320.0);
    }

    #[test]
    fn union_and_center() {
        let a = BBox::new(0.0, 1.0, 0.0, 1.0).unwrap();
        let b = BBox::new(2.0, 3.0, 2.0, 3.0).unwrap();
        let u = a.union(&b);
        assert!(u.contains_bbox(&a) && u.contains_bbox(&b));
        let c = u.center();
        assert!((c.lat() - 1.5).abs() < 1e-12 && (c.lng() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn corners_are_contained() {
        let b = unit_box();
        for c in b.corners() {
            assert!(b.contains(c));
        }
    }
}
