//! Classic base-32 geohash, a comparison baseline for the cell index.
//!
//! Geohash decomposes the lat/lng rectangle by alternating longitude and
//! latitude bisection, five bits per character. Unlike the cube-face
//! cells, geohash rectangles become elongated away from the equator and
//! their area varies with latitude.

use crate::CellError;
use openflame_geo::{BBox, LatLng};

/// The geohash base-32 alphabet.
const ALPHABET: &[u8; 32] = b"0123456789bcdefghjkmnpqrstuvwxyz";

/// Maximum supported geohash length.
pub const MAX_GEOHASH_LEN: usize = 12;

/// Encodes a coordinate as a geohash of `len` characters.
///
/// # Examples
///
/// ```
/// use openflame_cells::geohash;
/// use openflame_geo::LatLng;
///
/// let h = geohash::encode(LatLng::new(57.64911, 10.40744).unwrap(), 11).unwrap();
/// assert_eq!(h, "u4pruydqqvj");
/// ```
pub fn encode(p: LatLng, len: usize) -> Result<String, CellError> {
    if len == 0 || len > MAX_GEOHASH_LEN {
        return Err(CellError::ParseError(format!(
            "geohash length {len} out of range"
        )));
    }
    let (mut lat_lo, mut lat_hi) = (-90.0f64, 90.0f64);
    let (mut lng_lo, mut lng_hi) = (-180.0f64, 180.0f64);
    let mut hash = String::with_capacity(len);
    let mut bits = 0u8;
    let mut ch = 0usize;
    let mut even = true;
    while hash.len() < len {
        if even {
            let mid = (lng_lo + lng_hi) / 2.0;
            if p.lng() >= mid {
                ch = ch * 2 + 1;
                lng_lo = mid;
            } else {
                ch *= 2;
                lng_hi = mid;
            }
        } else {
            let mid = (lat_lo + lat_hi) / 2.0;
            if p.lat() >= mid {
                ch = ch * 2 + 1;
                lat_lo = mid;
            } else {
                ch *= 2;
                lat_hi = mid;
            }
        }
        even = !even;
        bits += 1;
        if bits == 5 {
            hash.push(ALPHABET[ch] as char);
            bits = 0;
            ch = 0;
        }
    }
    Ok(hash)
}

/// Decodes a geohash to its bounding rectangle.
pub fn decode_bbox(hash: &str) -> Result<BBox, CellError> {
    if hash.is_empty() || hash.len() > MAX_GEOHASH_LEN {
        return Err(CellError::ParseError(format!(
            "geohash {hash:?} length invalid"
        )));
    }
    let (mut lat_lo, mut lat_hi) = (-90.0f64, 90.0f64);
    let (mut lng_lo, mut lng_hi) = (-180.0f64, 180.0f64);
    let mut even = true;
    for c in hash.bytes() {
        let idx = ALPHABET
            .iter()
            .position(|&a| a == c.to_ascii_lowercase())
            .ok_or_else(|| CellError::ParseError(format!("bad geohash char {:?}", c as char)))?;
        for bit in (0..5).rev() {
            let set = (idx >> bit) & 1 == 1;
            if even {
                let mid = (lng_lo + lng_hi) / 2.0;
                if set {
                    lng_lo = mid;
                } else {
                    lng_hi = mid;
                }
            } else {
                let mid = (lat_lo + lat_hi) / 2.0;
                if set {
                    lat_lo = mid;
                } else {
                    lat_hi = mid;
                }
            }
            even = !even;
        }
    }
    BBox::new(lat_lo, lat_hi, lng_lo, lng_hi)
        .map_err(|e| CellError::ParseError(format!("decoded degenerate bbox: {e}")))
}

/// Decodes a geohash to its center point.
pub fn decode(hash: &str) -> Result<LatLng, CellError> {
    Ok(decode_bbox(hash)?.center())
}

/// Covers a rectangle with geohashes of exactly `len` characters.
///
/// Enumerates the grid of hash rectangles overlapping `region`. Returns
/// an error if the covering would exceed `max_cells`.
pub fn covering(region: &BBox, len: usize, max_cells: usize) -> Result<Vec<String>, CellError> {
    if len == 0 || len > MAX_GEOHASH_LEN {
        return Err(CellError::ParseError(format!(
            "geohash length {len} out of range"
        )));
    }
    // Cell sizes in degrees for this hash length.
    let lng_bits = (5 * len).div_ceil(2);
    let lat_bits = 5 * len / 2;
    let dlng = 360.0 / (1u64 << lng_bits) as f64;
    let dlat = 180.0 / (1u64 << lat_bits) as f64;
    let mut out = Vec::new();
    // Snap the scan origin to the geohash grid so every overlapping hash
    // rectangle is visited exactly once.
    let lat0 = ((region.lat_lo() + 90.0) / dlat).floor() * dlat - 90.0;
    let lng0 = ((region.lng_lo() + 180.0) / dlng).floor() * dlng - 180.0;
    let mut lat = lat0;
    while lat < region.lat_hi() {
        let mut lng = lng0;
        while lng < region.lng_hi() {
            let p = LatLng::new_unchecked((lat + dlat / 2.0).clamp(-90.0, 90.0), lng + dlng / 2.0);
            let h = encode(p, len)?;
            let hb = decode_bbox(&h)?;
            if hb.intersects(region) && !out.contains(&h) {
                out.push(h);
                if out.len() > max_cells {
                    return Err(CellError::ParseError(format!(
                        "covering exceeds {max_cells} cells"
                    )));
                }
            }
            lng += dlng;
        }
        lat += dlat;
    }
    Ok(out)
}

/// Ground dimensions `(width_m, height_m)` of geohash rectangles of
/// length `len` at latitude `lat_deg`.
pub fn cell_dimensions_m(len: usize, lat_deg: f64) -> (f64, f64) {
    let lng_bits = (5 * len).div_ceil(2);
    let lat_bits = 5 * len / 2;
    let dlng = 360.0 / (1u64 << lng_bits) as f64;
    let dlat = 180.0 / (1u64 << lat_bits) as f64;
    (
        dlng * 111_320.0 * lat_deg.to_radians().cos(),
        dlat * 111_320.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // The canonical example from the original geohash description.
        let p = LatLng::new(57.64911, 10.40744).unwrap();
        assert_eq!(encode(p, 11).unwrap(), "u4pruydqqvj");
    }

    #[test]
    fn encode_decode_round_trip() {
        for &(lat, lng) in &[
            (40.4433, -79.9436),
            (0.0, 0.0),
            (-33.86, 151.21),
            (80.0, -170.0),
        ] {
            let p = LatLng::new(lat, lng).unwrap();
            for len in [4usize, 6, 8, 10] {
                let h = encode(p, len).unwrap();
                let bb = decode_bbox(&h).unwrap();
                assert!(bb.contains(p), "hash {h} lost its point");
                let back = decode(&h).unwrap();
                // Error bounded by half the cell diagonal.
                let (w, hgt) = cell_dimensions_m(len, lat);
                assert!(back.haversine_distance(p) <= (w + hgt), "len {len}");
            }
        }
    }

    #[test]
    fn prefix_is_coarser_container() {
        let p = LatLng::new(40.4433, -79.9436).unwrap();
        let h8 = encode(p, 8).unwrap();
        let h4: String = h8.chars().take(4).collect();
        let bb8 = decode_bbox(&h8).unwrap();
        let bb4 = decode_bbox(&h4).unwrap();
        assert!(bb4.contains_bbox(&bb8));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(encode(LatLng::new(0.0, 0.0).unwrap(), 0).is_err());
        assert!(encode(LatLng::new(0.0, 0.0).unwrap(), 13).is_err());
        assert!(decode_bbox("").is_err());
        assert!(decode_bbox("ab!c").is_err());
        // 'a' is not in the geohash alphabet.
        assert!(decode_bbox("a").is_err());
    }

    #[test]
    fn covering_covers_region() {
        let region = BBox::new(40.42, 40.46, -79.97, -79.91).unwrap();
        let hashes = covering(&region, 5, 512).unwrap();
        assert!(!hashes.is_empty());
        // Sample interior points.
        for i in 0..10 {
            for j in 0..10 {
                let p = LatLng::new_unchecked(
                    40.42 + 0.04 * (i as f64 + 0.5) / 10.0,
                    -79.97 + 0.06 * (j as f64 + 0.5) / 10.0,
                );
                assert!(
                    hashes.iter().any(|h| decode_bbox(h).unwrap().contains(p)),
                    "uncovered {p}"
                );
            }
        }
    }

    #[test]
    fn covering_respects_cap() {
        let region = BBox::new(40.0, 41.0, -80.0, -79.0).unwrap();
        assert!(
            covering(&region, 7, 16).is_err(),
            "a degree square at len 7 is way over 16 cells"
        );
    }

    #[test]
    fn dimensions_shrink_with_length() {
        let (w5, h5) = cell_dimensions_m(5, 40.0);
        let (w6, h6) = cell_dimensions_m(6, 40.0);
        assert!(w6 < w5 && h6 < h5);
        // Length 5 cells are on the order of a few kilometers.
        assert!(w5 > 1_000.0 && w5 < 10_000.0);
    }

    #[test]
    fn aspect_ratio_distorts_at_high_latitude() {
        // Near the poles geohash cells become extremely wide relative to
        // their height (or vice versa).
        let (w_eq, h_eq) = cell_dimensions_m(6, 0.0);
        let (w_hi, _h_hi) = cell_dimensions_m(6, 75.0);
        let eq_ratio = w_eq / h_eq;
        let hi_ratio = w_hi / h_eq;
        assert!((hi_ratio / eq_ratio - 75.0f64.to_radians().cos()).abs() < 0.01);
    }
}
