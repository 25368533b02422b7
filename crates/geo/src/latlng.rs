//! Geodetic coordinates and great-circle math on a spherical Earth model.

use crate::GeoError;

/// Mean Earth radius in meters (IUGG mean radius `R1`).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A geodetic coordinate: latitude and longitude in degrees.
///
/// Latitudes are in `[-90, 90]`; longitudes are normalized to
/// `(-180, 180]` on construction. The Earth model throughout the
/// workspace is a sphere of radius [`EARTH_RADIUS_M`], which is accurate
/// to ~0.5% — far below the error of every localization technology the
/// paper discusses.
///
/// # Examples
///
/// ```
/// use openflame_geo::LatLng;
///
/// let cmu = LatLng::new(40.4433, -79.9436).unwrap();
/// let dt = LatLng::new(40.4406, -79.9959).unwrap();
/// let d = cmu.haversine_distance(dt);
/// assert!((d - 4440.0).abs() < 50.0, "CMU to downtown is ~4.4 km, got {d}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLng {
    lat_deg: f64,
    lng_deg: f64,
}

impl LatLng {
    /// Creates a coordinate, validating latitude range and finiteness.
    ///
    /// Longitude is normalized into `(-180, 180]`.
    pub fn new(lat_deg: f64, lng_deg: f64) -> Result<Self, GeoError> {
        if !lat_deg.is_finite() || !lng_deg.is_finite() {
            return Err(GeoError::InvalidCoordinate(format!(
                "non-finite coordinate ({lat_deg}, {lng_deg})"
            )));
        }
        if !(-90.0..=90.0).contains(&lat_deg) {
            return Err(GeoError::InvalidCoordinate(format!(
                "latitude {lat_deg} outside [-90, 90]"
            )));
        }
        Ok(Self {
            lat_deg,
            lng_deg: normalize_lng(lng_deg),
        })
    }

    /// Creates a coordinate without validation.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinate is invalid. Intended for
    /// constants and generated data already known to be in range.
    pub fn new_unchecked(lat_deg: f64, lng_deg: f64) -> Self {
        debug_assert!(lat_deg.is_finite() && (-90.0..=90.0).contains(&lat_deg));
        debug_assert!(lng_deg.is_finite());
        Self {
            lat_deg,
            lng_deg: normalize_lng(lng_deg),
        }
    }

    /// Latitude in degrees.
    pub fn lat(&self) -> f64 {
        self.lat_deg
    }

    /// Longitude in degrees, normalized to `(-180, 180]`.
    pub fn lng(&self) -> f64 {
        self.lng_deg
    }

    /// Latitude in radians.
    pub(crate) fn lat_rad(&self) -> f64 {
        self.lat_deg.to_radians()
    }

    /// Longitude in radians.
    pub(crate) fn lng_rad(&self) -> f64 {
        self.lng_deg.to_radians()
    }

    /// Great-circle distance to `other` in meters using the haversine
    /// formula, which is numerically stable for small distances.
    pub fn haversine_distance(&self, other: LatLng) -> f64 {
        let (lat1, lat2) = (self.lat_rad(), other.lat_rad());
        let dlat = lat2 - lat1;
        let dlng = other.lng_rad() - self.lng_rad();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlng / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// The point reached by traveling `distance_m` meters from `self` on
    /// the great circle with the given initial `bearing_deg`.
    pub fn destination(&self, bearing_deg: f64, distance_m: f64) -> LatLng {
        let delta = distance_m / EARTH_RADIUS_M;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat_rad();
        let lng1 = self.lng_rad();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lng2 = lng1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        LatLng::new_unchecked(lat2.to_degrees(), lng2.to_degrees())
    }

    /// Midpoint of the great-circle arc between `self` and `other`.
    pub fn midpoint(&self, other: LatLng) -> LatLng {
        let lat1 = self.lat_rad();
        let lat2 = other.lat_rad();
        let dlng = other.lng_rad() - self.lng_rad();
        let bx = lat2.cos() * dlng.cos();
        let by = lat2.cos() * dlng.sin();
        let lat3 = (lat1.sin() + lat2.sin()).atan2(((lat1.cos() + bx).powi(2) + by.powi(2)).sqrt());
        let lng3 = self.lng_rad() + by.atan2(lat1.cos() + bx);
        LatLng::new_unchecked(lat3.to_degrees(), lng3.to_degrees())
    }

    /// Linear interpolation in coordinate space, suitable only for the
    /// short hops (≪ 1 km) used when densifying local geometry.
    pub fn lerp(&self, other: LatLng, t: f64) -> LatLng {
        // Interpolating degrees directly is fine at sub-kilometer scales
        // away from the antimeridian, which worldgen never crosses.
        LatLng::new_unchecked(
            self.lat_deg + (other.lat_deg - self.lat_deg) * t,
            self.lng_deg + (other.lng_deg - self.lng_deg) * t,
        )
    }

    /// Converts to a unit vector on the sphere (ECEF direction).
    pub fn to_unit_vector(&self) -> [f64; 3] {
        let (lat, lng) = (self.lat_rad(), self.lng_rad());
        [lat.cos() * lng.cos(), lat.cos() * lng.sin(), lat.sin()]
    }

    /// Builds a coordinate from a unit vector on the sphere.
    pub fn from_unit_vector(v: [f64; 3]) -> LatLng {
        let lat = v[2].atan2((v[0] * v[0] + v[1] * v[1]).sqrt());
        let lng = v[1].atan2(v[0]);
        LatLng::new_unchecked(lat.to_degrees(), lng.to_degrees())
    }
}

impl std::fmt::Display for LatLng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat_deg, self.lng_deg)
    }
}

/// Normalizes a longitude into `[-180, 180]`.
///
/// Values already in range are returned untouched, so both antimeridian
/// representations (−180 and +180) are preserved; every consumer in the
/// workspace treats them as the same meridian.
fn normalize_lng(lng: f64) -> f64 {
    if (-180.0..=180.0).contains(&lng) {
        return lng;
    }
    let mut l = (lng + 180.0) % 360.0;
    if l <= 0.0 {
        l += 360.0;
    }
    l - 180.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_latitude() {
        assert!(LatLng::new(91.0, 0.0).is_err());
        assert!(LatLng::new(-90.5, 0.0).is_err());
        assert!(LatLng::new(f64::NAN, 0.0).is_err());
        assert!(LatLng::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn longitude_is_normalized() {
        assert!((LatLng::new(0.0, 190.0).unwrap().lng() - (-170.0)).abs() < 1e-9);
        assert!((LatLng::new(0.0, -190.0).unwrap().lng() - 170.0).abs() < 1e-9);
        assert!((LatLng::new(0.0, 540.0).unwrap().lng() - 180.0).abs() < 1e-9);
        assert!((LatLng::new(0.0, 0.0).unwrap().lng() - 0.0).abs() < 1e-9);
        // Both antimeridian representations survive normalization.
        assert!((LatLng::new(0.0, -180.0).unwrap().lng() - (-180.0)).abs() < 1e-9);
        assert!((LatLng::new(0.0, 180.0).unwrap().lng() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn haversine_zero_for_same_point() {
        let p = LatLng::new(40.0, -80.0).unwrap();
        assert_eq!(p.haversine_distance(p), 0.0);
    }

    #[test]
    fn haversine_known_distance() {
        // Paris to London is ~343.5 km.
        let paris = LatLng::new(48.8566, 2.3522).unwrap();
        let london = LatLng::new(51.5074, -0.1278).unwrap();
        let d = paris.haversine_distance(london);
        assert!((d - 343_500.0).abs() < 2_000.0, "got {d}");
    }

    #[test]
    fn haversine_is_symmetric() {
        let a = LatLng::new(40.44, -79.94).unwrap();
        let b = LatLng::new(40.45, -79.99).unwrap();
        assert!((a.haversine_distance(b) - b.haversine_distance(a)).abs() < 1e-9);
    }

    #[test]
    fn destination_round_trip() {
        let start = LatLng::new(40.4433, -79.9436).unwrap();
        for bearing in [0.0, 45.0, 137.0, 265.0] {
            for dist in [10.0, 500.0, 25_000.0] {
                let end = start.destination(bearing, dist);
                let measured = start.haversine_distance(end);
                assert!(
                    (measured - dist).abs() < dist * 1e-6 + 1e-6,
                    "bearing {bearing} dist {dist} measured {measured}"
                );
            }
        }
    }

    #[test]
    fn midpoint_is_equidistant() {
        let a = LatLng::new(40.0, -80.0).unwrap();
        let b = LatLng::new(41.0, -79.0).unwrap();
        let m = a.midpoint(b);
        let da = a.haversine_distance(m);
        let db = b.haversine_distance(m);
        assert!((da - db).abs() < 1.0, "da {da} db {db}");
    }

    #[test]
    fn unit_vector_round_trip() {
        for &(lat, lng) in &[(0.0, 0.0), (40.44, -79.94), (-33.86, 151.21), (89.0, 10.0)] {
            let p = LatLng::new(lat, lng).unwrap();
            let q = LatLng::from_unit_vector(p.to_unit_vector());
            assert!(p.haversine_distance(q) < 1e-6, "{p} vs {q}");
        }
    }

    #[test]
    fn lerp_endpoints() {
        let a = LatLng::new(40.0, -80.0).unwrap();
        let b = LatLng::new(40.001, -80.001).unwrap();
        assert!(a.lerp(b, 0.0).haversine_distance(a) < 1e-9);
        assert!(a.lerp(b, 1.0).haversine_distance(b) < 1e-9);
        let mid = a.lerp(b, 0.5);
        assert!((mid.lat() - 40.0005).abs() < 1e-12);
    }

    #[test]
    fn display_formats_six_decimals() {
        let p = LatLng::new(1.5, -2.25).unwrap();
        assert_eq!(format!("{p}"), "(1.500000, -2.250000)");
    }
}
