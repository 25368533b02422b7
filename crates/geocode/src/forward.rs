//! Forward geocoding: text address → map elements.

use crate::text::tokenize;
use openflame_geo::Point2;
use openflame_mapdata::{ElementId, MapDocument};
use std::collections::HashMap;

/// A forward-geocode result.
#[derive(Debug, Clone, PartialEq)]
pub struct GeocodeHit {
    /// The matched element.
    pub element: ElementId,
    /// Representative position in the document frame (node position or
    /// way centroid).
    pub pos: Point2,
    /// Match score in `(0, 1]`; 1.0 means every query token matched and
    /// the match covers every indexed token of the element.
    pub score: f64,
    /// Human-readable label (the element's `name`, or its address).
    pub label: String,
}

/// An inverted-index forward geocoder over one map document.
///
/// Indexes each element's `name` tag and `addr:*` tags. Query scoring
/// rewards covering all query tokens and penalizes matches on elements
/// with many unmatched tokens, so "Forbes" prefers *Forbes Ave* over
/// *Forbes Avenue Medical Plaza Parking*.
///
/// # Examples
///
/// ```
/// use openflame_geo::Point2;
/// use openflame_mapdata::{GeoReference, MapDocument, Tags};
/// use openflame_geocode::Geocoder;
///
/// let mut map = MapDocument::new("g", "t", GeoReference::Unaligned { hint: None });
/// map.add_node(
///     Point2::new(10.0, 5.0),
///     Tags::new().with("name", "Carnegie Museum").with("tourism", "museum"),
/// );
/// let geocoder = Geocoder::build(&map);
/// let hits = geocoder.query("carnegie museum", 5);
/// assert_eq!(hits.len(), 1);
/// assert!(hits[0].score > 0.99);
/// ```
#[derive(Debug, Clone)]
pub struct Geocoder {
    postings: HashMap<String, Vec<u32>>,
    entries: Vec<Entry>,
}

#[derive(Debug, Clone)]
struct Entry {
    element: ElementId,
    pos: Point2,
    token_count: u32,
    label: String,
}

/// Tag keys contributing to the geocoding index.
fn indexable_text(tags: &openflame_mapdata::Tags) -> Option<String> {
    let mut parts: Vec<&str> = Vec::new();
    if let Some(name) = tags.get("name") {
        parts.push(name);
    }
    for key in ["addr:housenumber", "addr:street", "addr:city", "addr:unit"] {
        if let Some(v) = tags.get(key) {
            parts.push(v);
        }
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join(" "))
    }
}

impl Geocoder {
    /// Builds the index over every named or addressed element of `map`.
    pub fn build(map: &MapDocument) -> Self {
        let mut g = Geocoder {
            postings: HashMap::new(),
            entries: Vec::new(),
        };
        for node in map.nodes() {
            if let Some(text) = indexable_text(&node.tags) {
                g.insert(ElementId::Node(node.id), node.pos, &text);
            }
        }
        for way in map.ways() {
            if let Some(text) = indexable_text(&way.tags) {
                let geometry = map.way_geometry(way.id).unwrap_or_default();
                if geometry.is_empty() {
                    continue;
                }
                let centroid =
                    geometry.iter().fold(Point2::ZERO, |a, &p| a + p) / geometry.len() as f64;
                g.insert(ElementId::Way(way.id), centroid, &text);
            }
        }
        g
    }

    fn insert(&mut self, element: ElementId, pos: Point2, text: &str) {
        let mut tokens = tokenize(text);
        if tokens.is_empty() {
            return;
        }
        // Coverage is counted over *unique* tokens: the name and addr
        // fields usually repeat the same words, and that duplication
        // must not dilute an exact match's score.
        tokens.sort();
        tokens.dedup();
        let idx = self.entries.len() as u32;
        self.entries.push(Entry {
            element,
            pos,
            token_count: tokens.len() as u32,
            label: text.to_string(),
        });
        for t in tokens {
            let posting = self.postings.entry(t).or_default();
            if posting.last() != Some(&idx) {
                posting.push(idx);
            }
        }
    }

    /// Number of indexed elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ranked forward geocoding: the top `k` elements matching `query`.
    pub fn query(&self, query: &str, k: usize) -> Vec<GeocodeHit> {
        // A repeated query token counts once, as in `insert`.
        let mut q_tokens = tokenize(query);
        q_tokens.sort();
        q_tokens.dedup();
        if q_tokens.is_empty() || k == 0 {
            return Vec::new();
        }
        // Count matched tokens per candidate entry.
        let mut matches: HashMap<u32, u32> = HashMap::new();
        for t in &q_tokens {
            if let Some(posting) = self.postings.get(t) {
                for &e in posting {
                    *matches.entry(e).or_insert(0) += 1;
                }
            }
        }
        let mut hits: Vec<(u32, GeocodeHit)> = matches
            .into_iter()
            .map(|(idx, matched)| {
                let entry = &self.entries[idx as usize];
                // Harmonic blend of query coverage and entry coverage.
                let query_cov = matched as f64 / q_tokens.len() as f64;
                let entry_cov = matched as f64 / entry.token_count as f64;
                let hit = GeocodeHit {
                    element: entry.element,
                    pos: entry.pos,
                    score: 2.0 * query_cov * entry_cov / (query_cov + entry_cov),
                    label: entry.label.clone(),
                };
                (idx, hit)
            })
            .collect();
        // `matches` iterates in `RandomState` order, so the ordering must
        // be total: equal score and label fall back to insertion order.
        hits.sort_by(|(a_idx, a), (b_idx, b)| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.label.cmp(&b.label))
                .then_with(|| a_idx.cmp(b_idx))
        });
        hits.truncate(k);
        hits.into_iter().map(|(_, hit)| hit).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_mapdata::{GeoReference, Tags};

    fn sample_map() -> MapDocument {
        let mut map = MapDocument::new("g", "t", GeoReference::Unaligned { hint: None });
        map.add_node(
            Point2::new(0.0, 0.0),
            Tags::new()
                .with("name", "Forbes Ave")
                .with("addr:housenumber", "4810")
                .with("addr:street", "Forbes Ave"),
        );
        map.add_node(
            Point2::new(10.0, 0.0),
            Tags::new().with("name", "Murray Ave Deli"),
        );
        map.add_node(Point2::new(20.0, 0.0), Tags::new().with("shop", "grocery"));
        let a = map.add_node(Point2::new(0.0, 10.0), Tags::new());
        let b = map.add_node(Point2::new(20.0, 10.0), Tags::new());
        map.add_way(
            vec![a, b],
            Tags::new()
                .with("name", "Murray Ave")
                .with("highway", "residential"),
        )
        .unwrap();
        map
    }

    #[test]
    fn exact_name_scores_one() {
        let g = Geocoder::build(&sample_map());
        let hits = g.query("Murray Ave Deli", 3);
        assert_eq!(hits[0].label, "Murray Ave Deli");
        assert!((hits[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_match_ranks_below_full() {
        let g = Geocoder::build(&sample_map());
        let hits = g.query("Murray Ave", 3);
        // The way named exactly "Murray Ave" must outrank the deli.
        assert_eq!(hits[0].label, "Murray Ave");
        assert!(hits[0].score > hits[1].score);
        assert_eq!(hits[1].label, "Murray Ave Deli");
    }

    #[test]
    fn house_number_plus_street() {
        let g = Geocoder::build(&sample_map());
        let hits = g.query("4810 forbes ave", 3);
        assert!(!hits.is_empty());
        assert!(hits[0].label.contains("4810"));
        assert_eq!(hits[0].pos, Point2::new(0.0, 0.0));
    }

    #[test]
    fn unnamed_elements_not_indexed() {
        let g = Geocoder::build(&sample_map());
        // Four named elements: two named nodes, the addr node merged
        // into one entry, and the named way.
        assert_eq!(g.len(), 3);
        assert!(g.query("grocery", 5).is_empty(), "tag values are not names");
    }

    #[test]
    fn no_match_returns_empty() {
        let g = Geocoder::build(&sample_map());
        assert!(g.query("zanzibar boulevard", 5).is_empty());
        assert!(g.query("", 5).is_empty());
        assert!(g.query("murray", 0).is_empty());
    }

    #[test]
    fn way_hit_uses_centroid() {
        let g = Geocoder::build(&sample_map());
        let hits = g.query("murray ave", 1);
        assert_eq!(hits[0].pos, Point2::new(10.0, 10.0));
        assert!(matches!(hits[0].element, ElementId::Way(_)));
    }

    fn milk_map() -> (MapDocument, ElementId) {
        let mut map = MapDocument::new("m", "t", GeoReference::Unaligned { hint: None });
        let first = map.add_node(Point2::new(0.0, 0.0), Tags::new().with("name", "Oat Milk"));
        map.add_node(Point2::new(5.0, 0.0), Tags::new().with("name", "Oat Milk"));
        map.add_node(Point2::new(9.0, 0.0), Tags::new().with("name", "Milk"));
        (map, ElementId::Node(first))
    }

    #[test]
    fn equal_score_and_label_rank_in_insertion_order() {
        let (map, first) = milk_map();
        let g = Geocoder::build(&map);
        for _ in 0..64 {
            assert_eq!(g.query("oat milk", 1)[0].element, first);
        }
    }

    #[test]
    fn a_repeated_query_token_counts_once() {
        let g = Geocoder::build(&milk_map().0);
        for (repeated, once) in [("milk milk", "milk"), ("oat oat", "oat")] {
            let hits = g.query(repeated, 5);
            assert!(hits.iter().all(|h| h.score <= 1.0), "{repeated}: {hits:?}");
            assert_eq!(hits, g.query(once, 5), "{repeated}");
        }
    }

    #[test]
    fn ranking_is_deterministic() {
        let g = Geocoder::build(&sample_map());
        let a = g.query("ave", 5);
        let b = g.query("ave", 5);
        assert_eq!(a, b);
    }
}
