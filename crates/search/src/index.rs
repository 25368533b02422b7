//! TF-IDF search index over map element metadata.

use openflame_geo::Point2;
use openflame_geocode::tokenize;
use openflame_mapdata::{ElementId, MapDocument, Tags};
use std::collections::HashMap;

/// A search result within one map.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The matched element.
    pub element: ElementId,
    /// Element position in the document frame.
    pub pos: Point2,
    /// Pure text relevance (TF-IDF, length-normalized).
    pub text_score: f64,
    /// Distance from the query center, meters (0 when no center given).
    pub distance_m: f64,
    /// Final ranking score (text × distance decay).
    pub score: f64,
    /// Display label: the element name, or its best descriptive tag.
    pub label: String,
}

/// Tag keys whose *values* describe an element for search purposes.
///
/// Public so content-partitioning layers (the fleet's shard splitter)
/// can decide which nodes carry searchable content — and strip exactly
/// these keys from out-of-shard copies, removing them from that
/// shard's index without touching structural metadata.
pub const SEARCHABLE_VALUE_KEYS: &[&str] = &[
    "name",
    "amenity",
    "shop",
    "cuisine",
    "product",
    "brand",
    "category",
    "flavor",
    "operator",
    "description",
    "tourism",
    "leisure",
];

/// Distance (meters) at which a result's score halves.
const DISTANCE_HALF_LIFE_M: f64 = 400.0;

#[derive(Debug, Clone)]
struct Doc {
    element: ElementId,
    pos: Point2,
    label: String,
    token_count: f64,
}

/// A TF-IDF inverted index over one map document.
///
/// # Examples
///
/// ```
/// use openflame_geo::Point2;
/// use openflame_mapdata::{GeoReference, MapDocument, Tags};
/// use openflame_search::SearchIndex;
///
/// let mut map = MapDocument::new(GeoReference::Unaligned);
/// map.add_node(
///     Point2::new(5.0, 5.0),
///     Tags::new().with("name", "Wasabi Seaweed Snack").with("product", "seaweed"),
/// );
/// let index = SearchIndex::build(&map);
/// let hits = index.query("seaweed", None, f64::INFINITY, 10);
/// assert_eq!(hits.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SearchIndex {
    docs: Vec<Doc>,
    postings: HashMap<String, Vec<(u32, f64)>>,
}

fn searchable_text(tags: &Tags) -> Option<(String, String)> {
    let mut parts: Vec<&str> = Vec::new();
    for key in SEARCHABLE_VALUE_KEYS {
        if let Some(v) = tags.get(key) {
            parts.push(v);
        }
    }
    if parts.is_empty() {
        return None;
    }
    let label = tags
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| parts.join(" "));
    Some((parts.join(" "), label))
}

impl SearchIndex {
    /// Indexes every element of `map` that has searchable metadata.
    pub fn build(map: &MapDocument) -> Self {
        let mut idx = SearchIndex {
            docs: Vec::new(),
            postings: HashMap::new(),
        };
        for node in map.nodes() {
            if let Some((text, label)) = searchable_text(&node.tags) {
                idx.insert(ElementId::Node(node.id), node.pos, &text, label);
            }
        }
        for way in map.ways() {
            if let Some((text, label)) = searchable_text(&way.tags) {
                if let Some(geom) = map.way_geometry(way.id) {
                    if geom.is_empty() {
                        continue;
                    }
                    let centroid =
                        geom.iter().fold(Point2::ZERO, |a, &p| a + p) / geom.len() as f64;
                    idx.insert(ElementId::Way(way.id), centroid, &text, label);
                }
            }
        }
        idx
    }

    fn insert(&mut self, element: ElementId, pos: Point2, text: &str, label: String) {
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return;
        }
        let doc_id = self.docs.len() as u32;
        let mut tf: HashMap<String, f64> = HashMap::new();
        for t in &tokens {
            *tf.entry(t.clone()).or_insert(0.0) += 1.0;
        }
        self.docs.push(Doc {
            element,
            pos,
            label,
            token_count: tokens.len() as f64,
        });
        for (t, count) in tf {
            self.postings.entry(t).or_default().push((doc_id, count));
        }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Searches for `query` near `center` (document frame), keeping
    /// results within `radius_m`, returning at most `k` ranked results.
    ///
    /// With `center = None` ranking is purely textual and `radius_m` is
    /// ignored.
    pub fn query(
        &self,
        query: &str,
        center: Option<Point2>,
        radius_m: f64,
        k: usize,
    ) -> Vec<SearchResult> {
        let q_tokens = tokenize(query);
        if q_tokens.is_empty() || k == 0 || self.docs.is_empty() {
            return Vec::new();
        }
        let n_docs = self.docs.len() as f64;
        let mut scores: HashMap<u32, f64> = HashMap::new();
        for t in &q_tokens {
            if let Some(posting) = self.postings.get(t) {
                let idf = (n_docs / posting.len() as f64).ln().max(0.1);
                for &(doc, tf) in posting {
                    let norm_tf = tf / self.docs[doc as usize].token_count;
                    *scores.entry(doc).or_insert(0.0) += norm_tf * idf;
                }
            }
        }
        let mut out: Vec<(u32, SearchResult)> = scores
            .into_iter()
            .filter_map(|(doc_id, text_score)| {
                let doc = &self.docs[doc_id as usize];
                let distance_m = center.map(|c| c.distance(doc.pos)).unwrap_or(0.0);
                if center.is_some() && distance_m > radius_m {
                    return None;
                }
                let decay = 0.5f64.powf(distance_m / DISTANCE_HALF_LIFE_M);
                let result = SearchResult {
                    element: doc.element,
                    pos: doc.pos,
                    text_score,
                    distance_m,
                    score: text_score * decay,
                    label: doc.label.clone(),
                };
                Some((doc_id, result))
            })
            .collect();
        // `scores` iterates in `RandomState` order, so the ordering must
        // be total: equal score and label fall back to insertion order.
        out.sort_by(|(a_doc, a), (b_doc, b)| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.label.cmp(&b.label))
                .then_with(|| a_doc.cmp(b_doc))
        });
        out.truncate(k);
        out.into_iter().map(|(_, result)| result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_mapdata::GeoReference;

    fn store_map() -> MapDocument {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        map.add_node(
            Point2::new(0.0, 0.0),
            Tags::new()
                .with("name", "Wasabi Seaweed Snack")
                .with("product", "seaweed"),
        );
        map.add_node(
            Point2::new(5.0, 0.0),
            Tags::new()
                .with("name", "Teriyaki Seaweed Snack")
                .with("product", "seaweed"),
        );
        map.add_node(
            Point2::new(800.0, 0.0),
            Tags::new()
                .with("name", "Far Seaweed Stand")
                .with("product", "seaweed"),
        );
        map.add_node(
            Point2::new(10.0, 0.0),
            Tags::new()
                .with("name", "Primanti Bros")
                .with("amenity", "restaurant"),
        );
        map.add_node(
            Point2::new(15.0, 0.0),
            Tags::new().with("highway", "crossing"),
        );
        map
    }

    #[test]
    fn keyword_match_and_ranking() {
        let idx = SearchIndex::build(&store_map());
        let hits = idx.query("seaweed", None, f64::INFINITY, 10);
        assert_eq!(hits.len(), 3);
        assert!(hits
            .iter()
            .all(|h| h.label.to_lowercase().contains("seaweed")));
    }

    #[test]
    fn untagged_elements_not_indexed() {
        let idx = SearchIndex::build(&store_map());
        // The crossing node has no searchable keys.
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn distance_decay_prefers_nearby() {
        let idx = SearchIndex::build(&store_map());
        let hits = idx.query("seaweed", Some(Point2::new(0.0, 0.0)), f64::INFINITY, 10);
        assert_eq!(hits.len(), 3);
        // The 800 m away stand must rank last despite identical text.
        assert_eq!(hits[2].label, "Far Seaweed Stand");
        assert!(hits[2].score < hits[0].score / 2.0);
    }

    #[test]
    fn radius_filters_results() {
        let idx = SearchIndex::build(&store_map());
        let hits = idx.query("seaweed", Some(Point2::new(0.0, 0.0)), 100.0, 10);
        assert_eq!(hits.len(), 2, "the far stand is outside the radius");
    }

    #[test]
    fn specific_query_beats_generic() {
        let idx = SearchIndex::build(&store_map());
        let hits = idx.query("wasabi seaweed", None, f64::INFINITY, 10);
        assert_eq!(hits[0].label, "Wasabi Seaweed Snack");
        assert!(hits[0].text_score > hits[1].text_score);
    }

    #[test]
    fn rare_terms_weighted_higher() {
        let idx = SearchIndex::build(&store_map());
        // "wasabi" appears once, "seaweed" many times: a wasabi query
        // must score the wasabi item far above the rest.
        let wasabi = idx.query("wasabi", None, f64::INFINITY, 10);
        assert_eq!(wasabi.len(), 1);
        let hits = idx.query("restaurant", None, f64::INFINITY, 10);
        assert_eq!(hits[0].label, "Primanti Bros");
    }

    #[test]
    fn empty_query_and_k_zero() {
        let idx = SearchIndex::build(&store_map());
        assert!(idx.query("", None, 100.0, 10).is_empty());
        assert!(idx.query("seaweed", None, 100.0, 0).is_empty());
        assert!(idx.query("zzz unknown", None, 100.0, 10).is_empty());
    }

    #[test]
    fn k_truncates() {
        let idx = SearchIndex::build(&store_map());
        assert_eq!(idx.query("seaweed", None, f64::INFINITY, 2).len(), 2);
    }

    #[test]
    fn equal_score_and_label_fall_back_to_insertion_order() {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        let tags = || Tags::new().with("name", "Oat Milk").with("product", "milk");
        let first = map.add_node(Point2::new(1.0, 0.0), tags());
        let second = map.add_node(Point2::new(0.0, 1.0), tags());
        let idx = SearchIndex::build(&map);
        let elements = |k| -> Vec<ElementId> {
            idx.query("oat milk", Some(Point2::ZERO), f64::INFINITY, k)
                .into_iter()
                .map(|hit| hit.element)
                .collect()
        };
        // Every call builds a freshly keyed `HashMap`; 64 of them must
        // still agree on the one element `k = 1` keeps.
        for _ in 0..64 {
            assert_eq!(elements(1), vec![ElementId::Node(first)]);
        }
        assert_eq!(
            elements(10),
            vec![ElementId::Node(first), ElementId::Node(second)]
        );
    }

    #[test]
    fn deterministic_ordering() {
        let idx = SearchIndex::build(&store_map());
        let a = idx.query("seaweed snack", Some(Point2::ZERO), f64::INFINITY, 10);
        let b = idx.query("seaweed snack", Some(Point2::ZERO), f64::INFINITY, 10);
        assert_eq!(a, b);
    }
}
