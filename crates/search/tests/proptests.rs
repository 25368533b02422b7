//! Property-based tests for search ranking and fusion.

use openflame_geo::Point2;
use openflame_mapdata::{ElementId, GeoReference, MapDocument, NodeId, Tags};
use openflame_search::fusion::FusedResult;
use openflame_search::{fuse_ranked, SearchIndex, SearchResult};
use proptest::prelude::*;
use std::collections::HashMap;

fn result(label: &str, score: f64) -> SearchResult {
    SearchResult {
        element: ElementId::Node(NodeId(1)),
        pos: Point2::ZERO,
        text_score: score,
        distance_m: 0.0,
        score,
        label: label.to_string(),
    }
}

/// The reference fusion: a `format!`ted `label#occurrence` key per
/// result, a linear scan over every fused key to find it, and a fresh
/// occurrence map per list. Quadratic, and the oracle `fuse_ranked`
/// must equal.
fn fuse_ranked_reference(lists: Vec<Vec<SearchResult>>, k: usize) -> Vec<FusedResult> {
    struct Acc {
        best: SearchResult,
        source: usize,
        best_rank: usize,
        fused: f64,
    }
    let mut by_key: Vec<(String, Acc)> = Vec::new();
    for (list_idx, list) in lists.into_iter().enumerate() {
        let mut seen_in_list: HashMap<String, usize> = HashMap::new();
        for (rank, result) in list.into_iter().enumerate() {
            let base = result.label.to_lowercase();
            let occurrence = seen_in_list.entry(base.clone()).or_insert(0);
            let key = format!("{base}#{occurrence}");
            *occurrence += 1;
            let contribution = 1.0 / (60.0 + rank as f64 + 1.0);
            if let Some((_, acc)) = by_key.iter_mut().find(|(existing, _)| *existing == key) {
                acc.fused += contribution;
                if rank < acc.best_rank {
                    acc.best = result;
                    acc.best_rank = rank;
                    acc.source = list_idx;
                }
            } else {
                by_key.push((
                    key,
                    Acc {
                        best: result,
                        source: list_idx,
                        best_rank: rank,
                        fused: contribution,
                    },
                ));
            }
        }
    }
    let mut out: Vec<FusedResult> = by_key
        .into_iter()
        .map(|(_, acc)| FusedResult {
            result: acc.best,
            source: acc.source,
            fused_score: acc.fused,
        })
        .collect();
    out.sort_by(|a, b| {
        b.fused_score
            .total_cmp(&a.fused_score)
            .then_with(|| b.result.score.total_cmp(&a.result.score))
            .then_with(|| a.result.label.cmp(&b.result.label))
    });
    out.truncate(k);
    out
}

proptest! {
    #[test]
    fn fusion_equals_the_reference(
        // Few distinct letters in both cases, so labels repeat within a
        // list, across lists, and in case variants.
        lists in proptest::collection::vec(
            proptest::collection::vec(("[aAbB#0]{1,3}", 0.0f64..2.0), 0..10),
            0..6,
        ),
        k in 1usize..40,
    ) {
        let lists: Vec<Vec<SearchResult>> = lists
            .into_iter()
            .map(|l| l.into_iter().map(|(s, sc)| result(&s, sc)).collect())
            .collect();
        prop_assert_eq!(fuse_ranked(lists.clone(), k), fuse_ranked_reference(lists, k));
    }

    #[test]
    fn fusion_output_bounded_and_sorted(
        lists in proptest::collection::vec(
            proptest::collection::vec(("[a-z]{1,6}", 0.0f64..10.0), 0..8),
            0..6,
        ),
        k in 1usize..20,
    ) {
        let lists: Vec<Vec<SearchResult>> = lists
            .into_iter()
            .map(|l| l.into_iter().map(|(s, sc)| result(&s, sc)).collect())
            .collect();
        let fused = fuse_ranked(lists, k);
        prop_assert!(fused.len() <= k);
        for w in fused.windows(2) {
            prop_assert!(w[0].fused_score >= w[1].fused_score);
        }
    }

    #[test]
    fn fusion_consensus_never_hurts(label in "[a-z]{3,8}", others in proptest::collection::vec("[a-z]{3,8}", 1..5)) {
        // An item present in two lists must rank at least as high as the
        // same item present in one list, all else equal.
        prop_assume!(!others.contains(&label));
        let single = fuse_ranked(
            vec![vec![result(&label, 1.0)], others.iter().map(|o| result(o, 1.0)).collect()],
            20,
        );
        let double = fuse_ranked(
            vec![
                vec![result(&label, 1.0)],
                std::iter::once(result(&label, 1.0))
                    .chain(others.iter().map(|o| result(o, 1.0)))
                    .collect(),
            ],
            20,
        );
        let pos_single = single.iter().position(|f| f.result.label == label).unwrap();
        let pos_double = double.iter().position(|f| f.result.label == label).unwrap();
        prop_assert!(pos_double <= pos_single);
    }

    #[test]
    fn index_finds_every_inserted_product(
        names in proptest::collection::vec("[a-z]{4,10}", 1..20),
    ) {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        for (i, name) in names.iter().enumerate() {
            map.add_node(
                Point2::new(i as f64, 0.0),
                Tags::new().with("product", name.clone()).with("name", format!("item {name}")),
            );
        }
        let index = SearchIndex::build(&map);
        for name in &names {
            let hits = index.query(name, None, f64::INFINITY, names.len());
            prop_assert!(
                hits.iter().any(|h| h.label.contains(name.as_str())),
                "product {name} not found"
            );
        }
    }

    #[test]
    fn radius_filter_monotone(
        r1 in 1.0f64..100.0,
        extra in 1.0f64..100.0,
    ) {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        for i in 0..30 {
            map.add_node(
                Point2::new(i as f64 * 7.0, 0.0),
                Tags::new().with("product", "widget"),
            );
        }
        let index = SearchIndex::build(&map);
        let small = index.query("widget", Some(Point2::ZERO), r1, 100);
        let large = index.query("widget", Some(Point2::ZERO), r1 + extra, 100);
        prop_assert!(large.len() >= small.len());
    }
}
