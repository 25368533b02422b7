//! A uniform grid index over node positions for fast spatial queries.

use crate::NodeId;
use openflame_geo::Point2;
use std::collections::HashMap;

/// A uniform hash-grid spatial index.
///
/// Nodes are bucketed by `floor(pos / cell_size)`. Radius and rectangle
/// queries visit only the overlapping buckets, giving O(results) lookups
/// for the densities map documents exhibit.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_size: f64,
    buckets: HashMap<(i64, i64), Vec<(NodeId, Point2)>>,
    len: usize,
}

impl SpatialGrid {
    /// Creates a grid with the given bucket edge length in meters.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive.
    pub fn new(cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        Self {
            cell_size,
            buckets: HashMap::new(),
            len: 0,
        }
    }

    fn key(&self, p: Point2) -> (i64, i64) {
        (
            (p.x / self.cell_size).floor() as i64,
            (p.y / self.cell_size).floor() as i64,
        )
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a node at a position.
    pub fn insert(&mut self, id: NodeId, pos: Point2) {
        self.buckets
            .entry(self.key(pos))
            .or_default()
            .push((id, pos));
        self.len += 1;
    }

    /// Removes a node (by id) at its known position. Returns whether the
    /// node was present.
    pub fn remove(&mut self, id: NodeId, pos: Point2) -> bool {
        let key = self.key(pos);
        if let Some(bucket) = self.buckets.get_mut(&key) {
            if let Some(idx) = bucket.iter().position(|(nid, _)| *nid == id) {
                bucket.swap_remove(idx);
                if bucket.is_empty() {
                    self.buckets.remove(&key);
                }
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Updates a node's position.
    pub fn update(&mut self, id: NodeId, old_pos: Point2, new_pos: Point2) {
        if self.remove(id, old_pos) {
            self.insert(id, new_pos);
        }
    }

    /// All nodes within `radius` of `center`, unordered.
    pub fn within_radius(&self, center: Point2, radius: f64) -> Vec<(NodeId, Point2)> {
        let mut out = Vec::new();
        let r2 = radius * radius;
        let (kx0, ky0) = self.key(center - Point2::new(radius, radius));
        let (kx1, ky1) = self.key(center + Point2::new(radius, radius));
        for kx in kx0..=kx1 {
            for ky in ky0..=ky1 {
                if let Some(bucket) = self.buckets.get(&(kx, ky)) {
                    for &(id, pos) in bucket {
                        if pos.distance_sq(center) <= r2 {
                            out.push((id, pos));
                        }
                    }
                }
            }
        }
        out
    }

    /// The nearest node to `center`, searching outward ring by ring.
    pub fn nearest(&self, center: Point2) -> Option<(NodeId, Point2, f64)> {
        if self.len == 0 {
            return None;
        }
        let (ckx, cky) = self.key(center);
        let mut best: Option<(NodeId, Point2, f64)> = None;
        // Buckets at Chebyshev ring `k` contain no point closer than
        // `(k - 1) * cell_size`, so once that bound exceeds the best
        // distance the search is complete.
        const MAX_RING: i64 = 4096;
        for ring in 0..=MAX_RING {
            if let Some((_, _, d)) = best {
                if ((ring - 1).max(0) as f64) * self.cell_size > d {
                    return best;
                }
            }
            for kx in (ckx - ring)..=(ckx + ring) {
                for ky in (cky - ring)..=(cky + ring) {
                    // Only the ring boundary is new at each step.
                    if ring > 0
                        && kx != ckx - ring
                        && kx != ckx + ring
                        && ky != cky - ring
                        && ky != cky + ring
                    {
                        continue;
                    }
                    if let Some(bucket) = self.buckets.get(&(kx, ky)) {
                        for &(id, pos) in bucket {
                            let d = pos.distance(center);
                            if best.is_none_or(|(_, _, bd)| d < bd) {
                                best = Some((id, pos, d));
                            }
                        }
                    }
                }
            }
        }
        if best.is_some() {
            return best;
        }
        // Data lies farther than MAX_RING buckets out; fall back to a
        // linear scan rather than walking empty rings forever.
        self.buckets
            .values()
            .flatten()
            .map(|&(id, pos)| (id, pos, pos.distance(center)))
            .min_by(|a, b| a.2.total_cmp(&b.2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_with(points: &[(u64, f64, f64)]) -> SpatialGrid {
        let mut g = SpatialGrid::new(10.0);
        for &(id, x, y) in points {
            g.insert(NodeId(id), Point2::new(x, y));
        }
        g
    }

    #[test]
    fn radius_query_exact() {
        let g = grid_with(&[(1, 0.0, 0.0), (2, 5.0, 0.0), (3, 20.0, 0.0), (4, -3.0, 4.0)]);
        let mut hits: Vec<u64> = g
            .within_radius(Point2::ZERO, 6.0)
            .into_iter()
            .map(|(id, _)| id.0)
            .collect();
        hits.sort();
        assert_eq!(hits, vec![1, 2, 4]);
    }

    #[test]
    fn radius_boundary_inclusive() {
        let g = grid_with(&[(1, 10.0, 0.0)]);
        assert_eq!(g.within_radius(Point2::ZERO, 10.0).len(), 1);
        assert_eq!(g.within_radius(Point2::ZERO, 9.999).len(), 0);
    }

    #[test]
    fn remove_and_update() {
        let mut g = grid_with(&[(1, 0.0, 0.0), (2, 3.0, 3.0)]);
        assert_eq!(g.len(), 2);
        assert!(g.remove(NodeId(1), Point2::ZERO));
        assert!(!g.remove(NodeId(1), Point2::ZERO), "double remove is false");
        assert_eq!(g.len(), 1);
        g.update(NodeId(2), Point2::new(3.0, 3.0), Point2::new(100.0, 100.0));
        assert!(g.within_radius(Point2::ZERO, 10.0).is_empty());
        assert_eq!(g.within_radius(Point2::new(100.0, 100.0), 1.0).len(), 1);
    }

    #[test]
    fn nearest_finds_global_minimum() {
        let g = grid_with(&[(1, 50.0, 0.0), (2, 8.0, 8.0), (3, -200.0, 0.0)]);
        let (id, _, d) = g.nearest(Point2::ZERO).unwrap();
        assert_eq!(id, NodeId(2));
        assert!((d - (128.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn nearest_across_bucket_boundary() {
        // Node 1 is in the same bucket as the query but farther than
        // node 2 in the adjacent bucket.
        let g = grid_with(&[(1, 9.5, 9.5), (2, 10.5, 0.5)]);
        let (id, ..) = g.nearest(Point2::new(9.0, 0.5)).unwrap();
        assert_eq!(id, NodeId(2));
    }

    #[test]
    fn nearest_empty_is_none() {
        let g = SpatialGrid::new(10.0);
        assert!(g.nearest(Point2::ZERO).is_none());
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let g = grid_with(&[(1, -0.5, -0.5)]);
        assert_eq!(g.within_radius(Point2::new(-1.0, -1.0), 2.0).len(), 1);
    }
}
