//! 64-bit hierarchical cell identifiers in Hilbert-curve order.

use crate::projection::{face_st_to_latlng, latlng_to_face_st};
use crate::CellError;
use openflame_geo::{BBox, LatLng};

/// Deepest quadtree level (leaf cells are ~1 cm across).
pub(crate) const MAX_LEVEL: u8 = 30;

/// Number of cube faces.
pub(crate) const NUM_FACES: u8 = 6;

/// A cell in the hierarchical decomposition of the sphere.
///
/// Bit layout follows S2: the top 3 bits hold the cube face, followed by
/// two bits per level of Hilbert-curve position, terminated by a single
/// sentinel `1` bit. This makes hierarchy operations pure integer
/// arithmetic: the parent clears trailing position bits, and containment
/// is an id-range check.
///
/// # Examples
///
/// ```
/// use openflame_cells::CellId;
/// use openflame_geo::LatLng;
///
/// let p = LatLng::new(40.4433, -79.9436).unwrap();
/// let cell = CellId::from_latlng(p, 14).unwrap();
/// assert_eq!(cell.level(), 14);
/// assert!(cell.parent_at(10).unwrap().contains(cell));
/// assert!(cell.contains_point(p));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(u64);

impl CellId {
    /// The full face cell (level 0) for a cube face.
    pub(crate) fn from_face(face: u8) -> Result<Self, CellError> {
        if face >= NUM_FACES {
            return Err(CellError::InvalidFace(face));
        }
        // Face bits then the sentinel at the top position slot.
        Ok(CellId(((face as u64) << 61) | (1u64 << 60)))
    }

    /// The cell at `level` containing the geodetic point `p`.
    pub fn from_latlng(p: LatLng, level: u8) -> Result<Self, CellError> {
        if level > MAX_LEVEL {
            return Err(CellError::InvalidLevel(level));
        }
        let (face, s, t) = latlng_to_face_st(p);
        let size = 1u64 << level;
        let i = ((s * size as f64) as u64).min(size - 1) as u32;
        let j = ((t * size as f64) as u64).min(size - 1) as u32;
        Self::from_face_ij(face, i, j, level)
    }

    /// Builds a cell from face, quadtree coordinates and level.
    pub(crate) fn from_face_ij(face: u8, i: u32, j: u32, level: u8) -> Result<Self, CellError> {
        if face >= NUM_FACES {
            return Err(CellError::InvalidFace(face));
        }
        if level > MAX_LEVEL {
            return Err(CellError::InvalidLevel(level));
        }
        let size = 1u64 << level;
        if (i as u64) >= size || (j as u64) >= size {
            return Err(CellError::ParseError(format!(
                "ij ({i},{j}) out of range for level {level}"
            )));
        }
        let d = hilbert_xy_to_d(level, i, j);
        let shift = 2 * (MAX_LEVEL - level) as u64;
        let pos = (d << (shift + 1)) | (1u64 << shift);
        Ok(CellId(((face as u64) << 61) | pos))
    }

    /// Reconstructs a cell from its raw id, validating the bit pattern.
    pub fn from_raw(id: u64) -> Result<Self, CellError> {
        let face = (id >> 61) as u8;
        let tz = id.trailing_zeros();
        // The sentinel bit must sit at an even offset no higher than the
        // level-0 slot (bit 60); `tz > 60` also catches `id == 0`.
        if face >= NUM_FACES || tz > 60 || !tz.is_multiple_of(2) {
            return Err(CellError::InvalidId(id));
        }
        Ok(CellId(id))
    }

    /// The raw 64-bit id.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// The cube face of this cell.
    pub fn face(&self) -> u8 {
        (self.0 >> 61) as u8
    }

    /// The level of this cell (0 = face cell, 30 = leaf).
    pub fn level(&self) -> u8 {
        MAX_LEVEL - (self.0.trailing_zeros() as u8) / 2
    }

    /// The lowest set bit, whose position encodes the level.
    fn lsb(&self) -> u64 {
        self.0 & self.0.wrapping_neg()
    }

    /// The ancestor at `level`, which must not exceed this cell's level.
    pub fn parent_at(&self, level: u8) -> Result<CellId, CellError> {
        if level > self.level() {
            return Err(CellError::InvalidLevel(level));
        }
        let shift = 2 * (MAX_LEVEL - level) as u64;
        let new_lsb = 1u64 << shift;
        Ok(CellId((self.0 & !(new_lsb - 1) & !new_lsb) | new_lsb))
    }

    /// The immediate parent, or `None` for face cells.
    pub fn parent(&self) -> Option<CellId> {
        if self.level() == 0 {
            None
        } else {
            Some(self.parent_at(self.level() - 1).expect("level checked"))
        }
    }

    /// The four children, or an error at the maximum level.
    pub fn children(&self) -> Result<[CellId; 4], CellError> {
        if self.level() >= MAX_LEVEL {
            return Err(CellError::InvalidLevel(self.level()));
        }
        let child_lsb = self.lsb() >> 2;
        let base = self.0 - self.lsb();
        Ok([
            CellId(base + child_lsb),
            CellId(base + 3 * child_lsb),
            CellId(base + 5 * child_lsb),
            CellId(base + 7 * child_lsb),
        ])
    }

    /// This cell's position (0..4) among its parent's children.
    pub(crate) fn child_position(&self) -> Option<u8> {
        if self.level() == 0 {
            return None;
        }
        let shift = 2 * (MAX_LEVEL - self.level()) as u64 + 1;
        Some(((self.0 >> shift) & 3) as u8)
    }

    /// Whether `other` is equal to or a descendant of this cell.
    pub fn contains(&self, other: CellId) -> bool {
        self.range_min() <= other.range_min() && other.range_max() <= self.range_max()
    }

    /// Whether the geodetic point `p` lies in this cell.
    pub fn contains_point(&self, p: LatLng) -> bool {
        match CellId::from_latlng(p, self.level()) {
            Ok(leaf) => leaf == *self,
            Err(_) => false,
        }
    }

    /// Smallest raw id of any descendant (inclusive).
    pub(crate) fn range_min(&self) -> u64 {
        self.0 - self.lsb() + 1
    }

    /// Largest raw id of any descendant (inclusive).
    pub(crate) fn range_max(&self) -> u64 {
        self.0 + self.lsb() - 1
    }

    /// Face-local quadtree coordinates `(i, j)` at this cell's level.
    pub(crate) fn to_face_ij(self) -> (u8, u32, u32) {
        let level = self.level();
        let shift = 2 * (MAX_LEVEL - level) as u64 + 1;
        let d = (self.0 & ((1u64 << 61) - 1)) >> shift;
        let (i, j) = hilbert_d_to_xy(level, d);
        (self.face(), i, j)
    }

    /// Geodetic center of the cell.
    pub fn center(&self) -> LatLng {
        let (face, i, j) = self.to_face_ij();
        let size = (1u64 << self.level()) as f64;
        face_st_to_latlng(face, (i as f64 + 0.5) / size, (j as f64 + 0.5) / size)
    }

    /// The four geodetic corner vertices of the cell.
    pub fn vertices(&self) -> [LatLng; 4] {
        let (face, i, j) = self.to_face_ij();
        let size = (1u64 << self.level()) as f64;
        let s0 = i as f64 / size;
        let s1 = (i + 1) as f64 / size;
        let t0 = j as f64 / size;
        let t1 = (j + 1) as f64 / size;
        [
            face_st_to_latlng(face, s0, t0),
            face_st_to_latlng(face, s1, t0),
            face_st_to_latlng(face, s1, t1),
            face_st_to_latlng(face, s0, t1),
        ]
    }

    /// A geodetic bounding box of the cell (conservative: computed from
    /// vertices plus center and edge midpoints).
    ///
    /// Cells straddling the antimeridian would produce a *non*-covering
    /// box from raw min/max longitudes, so those fall back to the full
    /// longitude range — conservative, which is what region tests need.
    pub fn bbox(&self) -> BBox {
        let (face, i, j) = self.to_face_ij();
        let size = (1u64 << self.level()) as f64;
        let st = |k: u32, halves: u32| (k as f64 + halves as f64 / 2.0) / size;
        let pts = (0..=2)
            .flat_map(|si| (0..=2).map(move |tj| face_st_to_latlng(face, st(i, si), st(j, tj))));
        let b = BBox::from_points(pts).expect("nine points");
        if b.lng_hi() - b.lng_lo() > 180.0 {
            // Longitudes wrapped; widen to the full range.
            BBox::new(b.lat_lo(), b.lat_hi(), -180.0, 180.0).expect("valid bounds")
        } else {
            b
        }
    }

    /// The four edge-adjacent neighbors at the same level.
    ///
    /// Computed geometrically: step from the cell center just beyond each
    /// edge midpoint and take the containing cell; this handles cube-face
    /// crossings without face-wrapping tables. Neighbors may repeat near
    /// cube corners; duplicates are removed.
    pub fn edge_neighbors(&self) -> Vec<CellId> {
        let (face, i, j) = self.to_face_ij();
        let level = self.level();
        let size = (1u64 << level) as f64;
        let cs = (i as f64 + 0.5) / size;
        let ct = (j as f64 + 0.5) / size;
        // Step 1.01 half-cells past each edge.
        let step = 1.01 / size;
        let candidates = [
            (cs - step, ct),
            (cs + step, ct),
            (cs, ct - step),
            (cs, ct + step),
        ];
        let mut out = Vec::with_capacity(4);
        for (s, t) in candidates {
            // The quadratic ST transform extends smoothly beyond [0, 1],
            // so stepping past a face edge re-projects onto the adjacent
            // face after normalization.
            let p = face_st_to_latlng(face, s, t);
            if let Ok(n) = CellId::from_latlng(p, level) {
                if n != *self && !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Compact hex token with trailing zeros trimmed (S2-style).
    pub fn to_token(&self) -> String {
        let hex = format!("{:016x}", self.0);
        let trimmed = hex.trim_end_matches('0');
        if trimmed.is_empty() {
            "0".to_string()
        } else {
            trimmed.to_string()
        }
    }

    /// Parses a token produced by [`CellId::to_token`].
    pub fn from_token(token: &str) -> Result<Self, CellError> {
        if token.is_empty() || token.len() > 16 {
            return Err(CellError::ParseError(format!("bad token {token:?}")));
        }
        let padded = format!("{token:0<16}");
        let id = u64::from_str_radix(&padded, 16)
            .map_err(|e| CellError::ParseError(format!("bad token {token:?}: {e}")))?;
        Self::from_raw(id)
    }

    /// DNS label path for this cell, most-specific label first.
    ///
    /// A level-3 cell on face 2 yields something like
    /// `["1", "0", "3", "f2"]`, which the discovery layer joins under its
    /// spatial root domain as `1.0.3.f2.<root>`.
    pub fn dns_labels(&self) -> Vec<String> {
        let level = self.level();
        let mut labels = Vec::with_capacity(level as usize + 1);
        for l in (1..=level).rev() {
            let ancestor = self.parent_at(l).expect("ancestor exists");
            labels.push(
                ancestor
                    .child_position()
                    .expect("level >= 1 has a child position")
                    .to_string(),
            );
        }
        labels.push(format!("f{}", self.face()));
        labels
    }

    /// Reconstructs a cell from labels produced by [`CellId::dns_labels`].
    pub fn from_dns_labels(labels: &[&str]) -> Result<Self, CellError> {
        let (face_label, digits) = labels
            .split_last()
            .ok_or_else(|| CellError::ParseError("empty label path".into()))?;
        let face: u8 = face_label
            .strip_prefix('f')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CellError::ParseError(format!("bad face label {face_label:?}")))?;
        let mut cell = CellId::from_face(face)?;
        // Digits are most-specific-first; walk from the coarse end.
        for d in digits.iter().rev() {
            let pos: usize = d
                .parse()
                .ok()
                .filter(|&p| p < 4)
                .ok_or_else(|| CellError::ParseError(format!("bad digit label {d:?}")))?;
            cell = cell.children()?[pos];
        }
        Ok(cell)
    }

    /// Approximate side length in meters of cells at `level`.
    pub fn approx_side_length_m(level: u8) -> f64 {
        // A face spans a quarter of the circumference; each level halves.
        let quarter = std::f64::consts::PI * openflame_geo::EARTH_RADIUS_M / 2.0;
        quarter / (1u64 << level) as f64
    }
}

impl std::fmt::Debug for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CellId(f{}/L{}/{})",
            self.face(),
            self.level(),
            self.to_token()
        )
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_token())
    }
}

/// Normalizes a set of cells: sorts, removes duplicates and cells already
/// covered by an ancestor in the set, and merges complete sibling groups
/// into their parent.
pub fn normalize_cells(mut cells: Vec<CellId>) -> Vec<CellId> {
    cells.sort();
    cells.dedup();
    // Remove cells covered by another cell in the set. A parent's id
    // sorts *between* its children's ids, so containment must be checked
    // in both directions while scanning.
    let mut out: Vec<CellId> = Vec::with_capacity(cells.len());
    for c in cells {
        if out.last().is_some_and(|last| last.contains(c)) {
            continue;
        }
        while out.last().is_some_and(|last| c.contains(*last)) {
            out.pop();
        }
        out.push(c);
    }
    // Merge complete sibling quads repeatedly.
    loop {
        let mut merged = false;
        let mut next: Vec<CellId> = Vec::with_capacity(out.len());
        let mut idx = 0;
        while idx < out.len() {
            let c = out[idx];
            if c.level() > 0 && idx + 3 < out.len() {
                let parent = c.parent().expect("level > 0");
                let quad = &out[idx..idx + 4];
                let all_siblings = quad.iter().all(|q| q.parent() == Some(parent))
                    && quad.windows(2).all(|w| w[0] != w[1]);
                if all_siblings {
                    next.push(parent);
                    idx += 4;
                    merged = true;
                    continue;
                }
            }
            next.push(c);
            idx += 1;
        }
        out = next;
        if !merged {
            break;
        }
    }
    out
}

/// Maps `(i, j)` on a `2^level` grid to its Hilbert-curve index.
///
/// MSB-first formulation, so index prefixes are hierarchically
/// consistent: the top `2k` bits identify the level-`k` ancestor.
pub fn hilbert_xy_to_d(level: u8, i: u32, j: u32) -> u64 {
    let n: u64 = 1u64 << level;
    let (mut x, mut y) = (i as u64, j as u64);
    debug_assert!(x < n && y < n);
    let mut d: u64 = 0;
    let mut s = n / 2;
    while s > 0 {
        let rx = u64::from(x & s > 0);
        let ry = u64::from(y & s > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate/flip the quadrant; flipping the full width is safe
        // because later iterations only look at bits below `s`.
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Inverse of [`hilbert_xy_to_d`].
pub fn hilbert_d_to_xy(level: u8, d: u64) -> (u32, u32) {
    let n: u64 = 1u64 << level;
    let (mut x, mut y): (u64, u64) = (0, 0);
    let mut t = d;
    let mut s: u64 = 1;
    while s < n {
        let rx = (t / 2) & 1;
        let ry = (t ^ rx) & 1;
        // Rotate within the partial grid built so far.
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x as u32, y as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pitt() -> LatLng {
        LatLng::new(40.4433, -79.9436).unwrap()
    }

    #[test]
    fn face_cells_valid() {
        for f in 0..NUM_FACES {
            let c = CellId::from_face(f).unwrap();
            assert_eq!(c.face(), f);
            assert_eq!(c.level(), 0);
            assert!(c.parent().is_none());
        }
        assert!(CellId::from_face(6).is_err());
    }

    #[test]
    fn level_round_trips_through_from_latlng() {
        for level in [0u8, 1, 5, 12, 20, 30] {
            let c = CellId::from_latlng(pitt(), level).unwrap();
            assert_eq!(c.level(), level, "level {level}");
        }
        assert!(CellId::from_latlng(pitt(), 31).is_err());
    }

    #[test]
    fn hilbert_round_trip_exhaustive_small_levels() {
        for level in 0u8..=5 {
            let n = 1u32 << level;
            for i in 0..n {
                for j in 0..n {
                    let d = hilbert_xy_to_d(level, i, j);
                    assert!(d < 1u64 << (2 * level));
                    assert_eq!(
                        hilbert_d_to_xy(level, d),
                        (i, j),
                        "level {level} ij ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn hilbert_is_a_bijection_at_level_4() {
        let mut seen = vec![false; 256];
        for i in 0..16 {
            for j in 0..16 {
                let d = hilbert_xy_to_d(4, i, j) as usize;
                assert!(!seen[d], "duplicate d {d}");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hilbert_adjacent_indices_are_adjacent_cells() {
        // The defining property of the Hilbert curve: consecutive indices
        // are 4-neighbors on the grid.
        for level in 1u8..=6 {
            let n = 1u64 << (2 * level);
            let mut prev = hilbert_d_to_xy(level, 0);
            for d in 1..n {
                let cur = hilbert_d_to_xy(level, d);
                let dist =
                    (cur.0 as i64 - prev.0 as i64).abs() + (cur.1 as i64 - prev.1 as i64).abs();
                assert_eq!(dist, 1, "level {level} d {d}");
                prev = cur;
            }
        }
    }

    #[test]
    fn hilbert_prefix_property() {
        // The level-k ancestor's index is the top 2k bits of the leaf's.
        for &(i, j) in &[(913_204u32, 402_133u32), (0, 0), (1 << 19, 1 << 18)] {
            let leaf_d = hilbert_xy_to_d(20, i, j);
            for k in 0u8..=20 {
                let anc_d = hilbert_xy_to_d(k, i >> (20 - k), j >> (20 - k));
                assert_eq!(leaf_d >> (2 * (20 - k) as u64), anc_d, "k {k}");
            }
        }
    }

    #[test]
    fn parent_contains_child() {
        let c = CellId::from_latlng(pitt(), 18).unwrap();
        for level in 0..18 {
            let p = c.parent_at(level).unwrap();
            assert_eq!(p.level(), level);
            assert!(p.contains(c));
            assert!(!c.contains(p));
        }
        assert!(c.parent_at(19).is_err());
    }

    #[test]
    fn children_partition_parent() {
        let c = CellId::from_latlng(pitt(), 10).unwrap();
        let kids = c.children().unwrap();
        for (idx, k) in kids.iter().enumerate() {
            assert_eq!(k.level(), 11);
            assert_eq!(k.parent(), Some(c));
            assert_eq!(k.child_position(), Some(idx as u8));
            assert!(c.contains(*k));
        }
        // Child ranges tile the parent's leaf range exactly. Leaf ids are
        // odd (the sentinel occupies bit 0), so consecutive leaves — and
        // therefore adjacent child ranges — are spaced by 2.
        assert_eq!(kids[0].range_min(), c.range_min());
        assert_eq!(kids[3].range_max(), c.range_max());
        for w in kids.windows(2) {
            assert_eq!(w[0].range_max() + 2, w[1].range_min());
        }
    }

    #[test]
    fn sibling_cells_disjoint() {
        let c = CellId::from_latlng(pitt(), 8).unwrap();
        let kids = c.children().unwrap();
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert!(!kids[a].contains(kids[b]));
                }
            }
        }
    }

    #[test]
    fn center_is_inside_cell() {
        for level in [2u8, 8, 14, 20] {
            let c = CellId::from_latlng(pitt(), level).unwrap();
            assert!(c.contains_point(c.center()), "level {level}");
        }
    }

    #[test]
    fn from_latlng_point_containment() {
        let c = CellId::from_latlng(pitt(), 16).unwrap();
        assert!(c.contains_point(pitt()));
        let far = LatLng::new(40.6, -79.5).unwrap();
        assert!(!c.contains_point(far));
    }

    #[test]
    fn bbox_covers_vertices_and_center() {
        let c = CellId::from_latlng(pitt(), 12).unwrap();
        let bb = c.bbox();
        assert!(bb.contains(c.center()));
        for v in c.vertices() {
            assert!(bb.contains(v));
        }
    }

    #[test]
    fn token_round_trip() {
        for level in [0u8, 3, 12, 30] {
            let c = CellId::from_latlng(pitt(), level).unwrap();
            let t = c.to_token();
            assert_eq!(CellId::from_token(&t).unwrap(), c, "token {t}");
        }
        assert!(CellId::from_token("").is_err());
        assert!(CellId::from_token("zzzz").is_err());
        assert!(CellId::from_token("00000000000000000").is_err());
    }

    #[test]
    fn from_raw_rejects_garbage() {
        assert!(CellId::from_raw(0).is_err());
        // Face 7 is invalid.
        assert!(CellId::from_raw(0xFFFF_FFFF_FFFF_FFFF).is_err());
        // Valid id round-trips.
        let c = CellId::from_latlng(pitt(), 9).unwrap();
        assert_eq!(CellId::from_raw(c.raw()).unwrap(), c);
    }

    #[test]
    fn dns_labels_round_trip() {
        for level in [0u8, 1, 7, 15] {
            let c = CellId::from_latlng(pitt(), level).unwrap();
            let labels = c.dns_labels();
            assert_eq!(labels.len(), level as usize + 1);
            let refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
            assert_eq!(CellId::from_dns_labels(&refs).unwrap(), c, "level {level}");
        }
    }

    #[test]
    fn dns_labels_parent_is_suffix() {
        let c = CellId::from_latlng(pitt(), 12).unwrap();
        let p = c.parent().unwrap();
        let cl = c.dns_labels();
        let pl = p.dns_labels();
        assert_eq!(
            &cl[1..],
            &pl[..],
            "parent labels are the suffix of child labels"
        );
    }

    #[test]
    fn from_dns_labels_rejects_garbage() {
        assert!(CellId::from_dns_labels(&[]).is_err());
        assert!(CellId::from_dns_labels(&["9", "f0"]).is_err());
        assert!(CellId::from_dns_labels(&["0", "x2"]).is_err());
        assert!(CellId::from_dns_labels(&["0", "f9"]).is_err());
    }

    #[test]
    fn edge_neighbors_adjacent_and_distinct() {
        let c = CellId::from_latlng(pitt(), 10).unwrap();
        let n = c.edge_neighbors();
        assert_eq!(n.len(), 4, "interior cell has 4 distinct neighbors");
        for nb in &n {
            assert_eq!(nb.level(), 10);
            assert_ne!(*nb, c);
            // A neighbor's center should be roughly one cell width away.
            let d = nb.center().haversine_distance(c.center());
            let side = CellId::approx_side_length_m(10);
            assert!(d < 3.0 * side, "neighbor too far: {d} vs side {side}");
        }
    }

    #[test]
    fn edge_neighbors_symmetric() {
        // Adjacency is symmetric for interior cells: if nb neighbors c,
        // then c neighbors nb.
        let c = CellId::from_latlng(pitt(), 12).unwrap();
        for nb in c.edge_neighbors() {
            assert!(
                nb.edge_neighbors().contains(&c),
                "{nb:?} does not list {c:?} back"
            );
        }
    }

    #[test]
    fn edge_neighbors_share_an_edge_midpoint() {
        // The midpoint between a cell center and a neighbor center lies
        // on the shared edge, so at the same level it must resolve to one
        // of the two cells — the property discovery's neighbor expansion
        // relies on.
        let c = CellId::from_latlng(pitt(), 12).unwrap();
        for nb in c.edge_neighbors() {
            let mid = c.center().midpoint(nb.center());
            let mc = CellId::from_latlng(mid, 12).unwrap();
            assert!(mc == c || mc == nb, "midpoint cell {mc:?} is neither side");
        }
    }

    #[test]
    fn normalize_merges_complete_quads() {
        let c = CellId::from_latlng(pitt(), 9).unwrap();
        let kids = c.children().unwrap().to_vec();
        assert_eq!(normalize_cells(kids), vec![c]);
    }

    #[test]
    fn normalize_removes_covered_descendants() {
        let c = CellId::from_latlng(pitt(), 9).unwrap();
        let grandkid = c.children().unwrap()[2].children().unwrap()[1];
        let out = normalize_cells(vec![c, grandkid]);
        assert_eq!(out, vec![c]);
    }

    #[test]
    fn normalize_recursive_merge() {
        // All 16 grandchildren merge all the way up to the cell itself.
        let c = CellId::from_latlng(pitt(), 6).unwrap();
        let mut cells = Vec::new();
        for k in c.children().unwrap() {
            cells.extend(k.children().unwrap());
        }
        assert_eq!(normalize_cells(cells), vec![c]);
    }

    #[test]
    fn side_length_halves_per_level() {
        let a = CellId::approx_side_length_m(10);
        let b = CellId::approx_side_length_m(11);
        assert!((a / b - 2.0).abs() < 1e-9);
        // Level 14 cells are a few hundred meters across.
        let s14 = CellId::approx_side_length_m(14);
        assert!(s14 > 300.0 && s14 < 1000.0, "s14 = {s14}");
    }

    #[test]
    fn ordering_follows_hilbert_curve() {
        // Cells on the same face at the same level sort by curve index.
        let f = CellId::from_face(2).unwrap();
        let kids = f.children().unwrap();
        for w in kids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
