//! Cube-face projection: sphere ↔ (face, u, v) ↔ (face, s, t).
//!
//! Follows the S2 construction: the unit sphere is centrally projected
//! onto the six faces of the circumscribed cube. Raw `(u, v)` face
//! coordinates in `[-1, 1]` are warped by the quadratic transform into
//! `(s, t)` in `[0, 1]` so that equal `(s, t)` areas correspond to
//! roughly equal sphere areas; quadtree cells of a given level then have
//! comparable ground sizes everywhere on Earth.

use openflame_geo::LatLng;

/// Projects a unit vector to `(face, u, v)` with `u, v ∈ [-1, 1]`.
pub(crate) fn xyz_to_face_uv(p: [f64; 3]) -> (u8, f64, f64) {
    let abs = [p[0].abs(), p[1].abs(), p[2].abs()];
    let axis = if abs[0] >= abs[1] && abs[0] >= abs[2] {
        0
    } else if abs[1] >= abs[2] {
        1
    } else {
        2
    };
    let face = if p[axis] < 0.0 {
        axis as u8 + 3
    } else {
        axis as u8
    };
    let (u, v) = match face {
        0 => (p[1] / p[0], p[2] / p[0]),
        1 => (-p[0] / p[1], p[2] / p[1]),
        2 => (-p[0] / p[2], -p[1] / p[2]),
        3 => (p[2] / p[0], p[1] / p[0]),
        4 => (p[2] / p[1], -p[0] / p[1]),
        _ => (-p[1] / p[2], -p[0] / p[2]),
    };
    (face, u, v)
}

/// Inverse of [`xyz_to_face_uv`]: returns an (unnormalized) direction
/// vector for face coordinates; `u, v` may lie outside `[-1, 1]`, which
/// is how the neighbor computation steps across face boundaries.
pub(crate) fn face_uv_to_xyz(face: u8, u: f64, v: f64) -> [f64; 3] {
    match face {
        0 => [1.0, u, v],
        1 => [-u, 1.0, v],
        2 => [-u, -v, 1.0],
        3 => [-1.0, -v, -u],
        4 => [v, -1.0, -u],
        _ => [v, u, -1.0],
    }
}

/// Quadratic area-equalizing transform from `u ∈ [-1, 1]` to
/// `s ∈ [0, 1]` (S2's `ST` coordinate).
pub(crate) fn uv_to_st(u: f64) -> f64 {
    if u >= 0.0 {
        0.5 * (1.0 + 3.0 * u).sqrt()
    } else {
        1.0 - 0.5 * (1.0 - 3.0 * u).sqrt()
    }
}

/// Inverse of [`uv_to_st`].
pub(crate) fn st_to_uv(s: f64) -> f64 {
    if s >= 0.5 {
        (1.0 / 3.0) * (4.0 * s * s - 1.0)
    } else {
        (1.0 / 3.0) * (1.0 - 4.0 * (1.0 - s) * (1.0 - s))
    }
}

/// Projects a geodetic coordinate to `(face, s, t)` with `s, t ∈ [0, 1]`.
pub(crate) fn latlng_to_face_st(p: LatLng) -> (u8, f64, f64) {
    let (face, u, v) = xyz_to_face_uv(p.to_unit_vector());
    (face, uv_to_st(u), uv_to_st(v))
}

/// Lifts `(face, s, t)` back to a geodetic coordinate.
pub(crate) fn face_st_to_latlng(face: u8, s: f64, t: f64) -> LatLng {
    let xyz = face_uv_to_xyz(face, st_to_uv(s), st_to_uv(t));
    let norm = (xyz[0] * xyz[0] + xyz[1] * xyz[1] + xyz[2] * xyz[2]).sqrt();
    LatLng::from_unit_vector([xyz[0] / norm, xyz[1] / norm, xyz[2] / norm])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn face_centers_project_to_origin() {
        // The +x axis is the center of face 0.
        let (face, u, v) = xyz_to_face_uv([1.0, 0.0, 0.0]);
        assert_eq!(face, 0);
        assert!(u.abs() < 1e-15 && v.abs() < 1e-15);
        let (face_neg, ..) = xyz_to_face_uv([-1.0, 0.0, 0.0]);
        assert_eq!(face_neg, 3);
    }

    #[test]
    fn all_faces_reachable() {
        let dirs: [[f64; 3]; 6] = [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ];
        for (i, d) in dirs.iter().enumerate() {
            assert_eq!(xyz_to_face_uv(*d).0, i as u8);
        }
    }

    #[test]
    fn xyz_uv_round_trip_on_each_face() {
        for face in 0..6u8 {
            for &(u, v) in &[(0.0, 0.0), (0.5, -0.3), (-0.9, 0.9), (1.0, 1.0)] {
                let xyz = face_uv_to_xyz(face, u, v);
                let n = (xyz[0] * xyz[0] + xyz[1] * xyz[1] + xyz[2] * xyz[2]).sqrt();
                let unit = [xyz[0] / n, xyz[1] / n, xyz[2] / n];
                let (f2, u2, v2) = xyz_to_face_uv(unit);
                // Corner points (|u| = |v| = 1) may land on an adjacent
                // face; skip the face assertion there.
                if u.abs() < 1.0 && v.abs() < 1.0 {
                    assert_eq!(f2, face, "face {face} uv ({u},{v})");
                }
                assert!((u2 - u).abs() < 1e-12 || f2 != face);
                assert!((v2 - v).abs() < 1e-12 || f2 != face);
            }
        }
    }

    #[test]
    fn st_uv_round_trip() {
        for i in 0..=100 {
            let s = i as f64 / 100.0;
            let u = st_to_uv(s);
            assert!((-1.0..=1.0).contains(&u));
            assert!((uv_to_st(u) - s).abs() < 1e-12, "s = {s}");
        }
    }

    #[test]
    fn st_transform_monotone() {
        let mut prev = st_to_uv(0.0);
        for i in 1..=50 {
            let cur = st_to_uv(i as f64 / 50.0);
            assert!(cur > prev);
            prev = cur;
        }
    }

    #[test]
    fn latlng_round_trip() {
        for &(lat, lng) in &[
            (0.0, 0.0),
            (40.44, -79.94),
            (-33.86, 151.21),
            (75.0, 10.0),
            (-80.0, -170.0),
            (0.1, 179.9),
        ] {
            let p = LatLng::new(lat, lng).unwrap();
            let (f, s, t) = latlng_to_face_st(p);
            assert!((0.0..=1.0).contains(&s) && (0.0..=1.0).contains(&t));
            let q = face_st_to_latlng(f, s, t);
            assert!(p.haversine_distance(q) < 1e-6, "{p} vs {q}");
        }
    }
}
