//! Client-side fusion of ranked result lists from many map servers.
//!
//! "The client would then rank results from multiple map servers and
//! present them to the application" (paper §5.2). Servers are heterogeneous —
//! their scores are not comparable — so fusion uses reciprocal-rank
//! fusion (RRF), which only relies on per-list ranks, plus label-based
//! deduplication for areas covered by overlapping maps (paper §3).

use crate::index::SearchResult;
use std::collections::HashMap;

/// RRF smoothing constant (the standard value from the literature).
const RRF_K: f64 = 60.0;

/// A fused result with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedResult {
    /// The underlying result (the best-ranked instance if duplicated).
    pub result: SearchResult,
    /// Index of the list (server) the kept instance came from.
    pub source: usize,
    /// Fused RRF score across all lists.
    pub fused_score: f64,
}

/// Fuses per-server ranked lists into one ranking.
///
/// Duplicate detection: two results with the same case-insensitive label
/// are treated as the same real-world entity when they come from
/// *different* servers (overlapping maps describing the same place);
/// within one server, equal labels are distinct items (two shelves of
/// the same product).
///
/// # Examples
///
/// ```
/// use openflame_geo::Point2;
/// use openflame_mapdata::{ElementId, NodeId};
/// use openflame_search::{fuse_ranked, SearchResult};
///
/// let mk = |label: &str| SearchResult {
///     element: ElementId::Node(NodeId(1)),
///     pos: Point2::ZERO,
///     text_score: 1.0,
///     distance_m: 0.0,
///     score: 1.0,
///     label: label.to_string(),
/// };
/// let fused = fuse_ranked(vec![
///     vec![mk("Cafe A"), mk("Cafe B")],
///     vec![mk("Cafe B"), mk("Cafe C")],
/// ], 10);
/// // Cafe B appears in both lists and wins.
/// assert_eq!(fused[0].result.label, "Cafe B");
/// ```
pub fn fuse_ranked(lists: Vec<Vec<SearchResult>>, k: usize) -> Vec<FusedResult> {
    struct Acc {
        best: SearchResult,
        source: usize,
        best_rank: usize,
        fused: f64,
    }
    /// One lower-cased label: the accumulator of its n-th occurrence
    /// within a list is `accs[n]`, and `seen` counts its occurrences in
    /// list `list` so far.
    struct Label {
        list: usize,
        seen: usize,
        accs: Vec<usize>,
    }
    // Accumulators in first-seen order, which is the tie order below.
    let mut fused: Vec<Acc> = Vec::new();
    let mut labels: HashMap<String, Label> = HashMap::new();
    for (list_idx, list) in lists.into_iter().enumerate() {
        for (rank, result) in list.into_iter().enumerate() {
            let label = labels.entry(result.label.to_lowercase()).or_insert(Label {
                list: list_idx,
                seen: 0,
                accs: Vec::new(),
            });
            if label.list != list_idx {
                label.list = list_idx;
                label.seen = 0;
            }
            // Within one list, equal labels are distinct by occurrence.
            let occurrence = label.seen;
            label.seen += 1;
            let contribution = 1.0 / (RRF_K + rank as f64 + 1.0);
            match label.accs.get(occurrence) {
                Some(&idx) => {
                    let acc = &mut fused[idx];
                    acc.fused += contribution;
                    if rank < acc.best_rank {
                        acc.best = result;
                        acc.best_rank = rank;
                        acc.source = list_idx;
                    }
                }
                None => {
                    label.accs.push(fused.len());
                    fused.push(Acc {
                        best: result,
                        source: list_idx,
                        best_rank: rank,
                        fused: contribution,
                    });
                }
            }
        }
    }
    let mut out: Vec<FusedResult> = fused
        .into_iter()
        .map(|acc| FusedResult {
            result: acc.best,
            source: acc.source,
            fused_score: acc.fused,
        })
        .collect();
    // RRF ties are common when each server contributes one top hit;
    // break them by the servers' own scores (not comparable in general,
    // but a far better tiebreak than the alphabet), then by label for
    // determinism.
    out.sort_by(|a, b| {
        b.fused_score
            .total_cmp(&a.fused_score)
            .then_with(|| b.result.score.total_cmp(&a.result.score))
            .then_with(|| a.result.label.cmp(&b.result.label))
    });
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_geo::Point2;
    use openflame_mapdata::{ElementId, NodeId};

    fn r(label: &str, score: f64) -> SearchResult {
        SearchResult {
            element: ElementId::Node(NodeId(1)),
            pos: Point2::ZERO,
            text_score: score,
            distance_m: 0.0,
            score,
            label: label.to_string(),
        }
    }

    #[test]
    fn consensus_items_rank_first() {
        let fused = fuse_ranked(
            vec![
                vec![r("A", 0.9), r("B", 0.8), r("C", 0.7)],
                vec![r("B", 0.5), r("D", 0.4)],
                vec![r("B", 0.99), r("A", 0.1)],
            ],
            10,
        );
        assert_eq!(fused[0].result.label, "B", "B appears in all three lists");
        assert_eq!(fused[1].result.label, "A");
    }

    #[test]
    fn dedupe_is_case_insensitive_and_keeps_best_rank() {
        let fused = fuse_ranked(
            vec![
                vec![r("Cafe X", 0.9)],
                vec![r("cafe x", 0.2), r("Other", 0.1)],
            ],
            10,
        );
        assert_eq!(fused.len(), 2);
        // The kept instance is the rank-0 one from list 0.
        assert_eq!(fused[0].result.label, "Cafe X");
        assert_eq!(fused[0].source, 0);
    }

    #[test]
    fn same_label_within_one_server_not_merged() {
        // A store with two shelves of the same product.
        let fused = fuse_ranked(vec![vec![r("Seaweed", 0.9), r("Seaweed", 0.8)]], 10);
        assert_eq!(fused.len(), 2);
    }

    #[test]
    fn truncation_and_empty_inputs() {
        assert!(fuse_ranked(vec![], 10).is_empty());
        assert!(fuse_ranked(vec![vec![], vec![]], 10).is_empty());
        let fused = fuse_ranked(vec![vec![r("A", 1.0), r("B", 0.5), r("C", 0.2)]], 2);
        assert_eq!(fused.len(), 2);
    }

    #[test]
    fn single_list_preserves_order() {
        let fused = fuse_ranked(vec![vec![r("A", 0.9), r("B", 0.8), r("C", 0.7)]], 10);
        let labels: Vec<&str> = fused.iter().map(|f| f.result.label.as_str()).collect();
        assert_eq!(labels, vec!["A", "B", "C"]);
    }

    #[test]
    fn fused_scores_decrease_with_rank() {
        let fused = fuse_ranked(
            vec![
                vec![r("A", 0.9), r("B", 0.8)],
                vec![r("A", 0.9), r("B", 0.8)],
            ],
            10,
        );
        assert!(fused[0].fused_score > fused[1].fused_score);
    }
}
