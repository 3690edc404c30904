//! Alternative link definition: paths of length 3 (§3.2).
//!
//! The paper: "Alternative definitions for links, based on paths of
//! length 3 or more, are certainly possible; however, we do not consider
//! these…" for cost reasons and because "the additional information
//! gained … may not be as valuable". This file implements the length-3
//! variant so that claim can be tested:
//!
//! * `link₃(i, j)` = number of *simple* length-3 neighbor paths
//!   `i → k → l → j` (k, l distinct from each other and from i, j);
//! * [`combine_links`] forms `link₂ + w·link₃` counts for the merge loop,
//!   which runs through the public pair-list entry
//!   `IncrementalState::from_clusters(..).bounded_merge(..)`.
//!
//! `link₃` is computed from the walk count `A³[i][j]` with the standard
//! correction for non-simple walks: for `i ≠ j`,
//! `paths₃ = A³ − A[i][j]·(deg(i) + deg(j) − 1)`
//! (walks revisiting `i` as the second vertex, revisiting `j` as the
//! first intermediate, with the doubly-degenerate `i→j→i→j` walk counted
//! once in each term and present `A[i][j]` times). O(n²·m) time via
//! per-vertex two-hop counting — an analysis tool, not a production
//! kernel.

mod common;

use std::collections::BTreeMap;

use rock::goodness::{ConstantF, Goodness, GoodnessKind};
use rock::incremental::{IncrementalState, MergeBound};
use rock::links_matrix::LinkMatrix;
use rock::neighbors::NeighborGraph;
use rock::similarity::{Jaccard, PointsWith, SimilarityMatrix};
use rock::util::FxBuildHasher;
use rock::{Clustering, OutlierPolicy, RockAlgorithm};

/// Link counts keyed by `(i, j)` with `i < j`; absent pairs have none.
type Links = BTreeMap<(u32, u32), u32>;

/// The count of the pair `{i, j}` (0 if absent or `i == j`).
fn count(links: &Links, i: usize, j: usize) -> u32 {
    let key = (i.min(j) as u32, i.max(j) as u32);
    links.get(&key).copied().unwrap_or(0)
}

/// Number of simple length-3 neighbor paths for every pair.
fn compute_links_l3(graph: &NeighborGraph) -> Links {
    let n = graph.len();
    // For each source i: w2 = row i of A² (two-hop walk counts), then
    // w3[j] = Σ_l w2[l]·A[l][j] accumulated by scanning neighbors of l.
    let mut links = Links::new();
    let mut w2 = vec![0u32; n];
    let mut w3 = vec![0u64; n];
    for i in 0..n {
        w2.iter_mut().for_each(|x| *x = 0);
        w3.iter_mut().for_each(|x| *x = 0);
        for &k in graph.neighbors(i) {
            for &l in graph.neighbors(k as usize) {
                w2[l as usize] += 1;
            }
        }
        for (l, &count) in w2.iter().enumerate() {
            if count == 0 {
                continue;
            }
            for &j in graph.neighbors(l) {
                w3[j as usize] += u64::from(count);
            }
        }
        for (j, &walks) in w3.iter().enumerate().skip(i + 1) {
            let a_ij = u64::from(graph.are_neighbors(i, j));
            let degenerate = a_ij * (graph.degree(i) as u64 + graph.degree(j) as u64 - 1);
            let paths = walks.saturating_sub(degenerate);
            if paths > 0 {
                links.insert(
                    (i as u32, j as u32),
                    u32::try_from(paths).unwrap_or(u32::MAX),
                );
            }
        }
    }
    links
}

/// `base + weight · extra`, rounding each weighted count down — e.g.
/// `link₂ + ½·link₃` (§3.2's hypothetical richer link).
fn combine_links(base: &Links, extra: &Links, weight: f64) -> Links {
    assert!(
        weight.is_finite() && weight >= 0.0,
        "weight must be finite and non-negative"
    );
    let mut out = base.clone();
    for (&pair, &c) in extra {
        let add = (f64::from(c) * weight).floor() as u32;
        if add > 0 {
            *out.entry(pair).or_insert(0) += add;
        }
    }
    out
}

/// The ordinary common-neighbor counts in the same keyed form.
fn links_l2(graph: &NeighborGraph) -> Links {
    LinkMatrix::compute_auto(graph, 1)
        .unwrap()
        .iter_upper()
        .collect()
}

/// Builds a graph from an explicit edge list.
fn graph_of(n: usize, edges: &[(usize, usize)]) -> NeighborGraph {
    let mut m = SimilarityMatrix::new(n);
    for &(a, b) in edges {
        m.set(a, b, 1.0);
    }
    NeighborGraph::build(&m, 0.9, 1).unwrap()
}

/// Exhaustive reference: enumerate simple paths i→k→l→j.
fn brute_paths3(graph: &NeighborGraph, i: usize, j: usize) -> u64 {
    let mut count = 0;
    for &k in graph.neighbors(i) {
        let k = k as usize;
        if k == j {
            continue;
        }
        for &l in graph.neighbors(k) {
            let l = l as usize;
            if l == i || l == j || l == k {
                continue;
            }
            if graph.are_neighbors(l, j) {
                count += 1;
            }
        }
    }
    count
}

/// Merges singletons over `links` down to `k` clusters through the
/// incremental engine's pair-list entry.
fn merge_to(n: usize, links: &Links, goodness: Goodness, k: usize) -> Clustering {
    let singletons: Vec<Vec<u32>> = (0..n as u32).map(|p| vec![p]).collect();
    let pairs: Vec<(u32, u32, u64)> = links
        .iter()
        .map(|(&(i, j), &c)| (i, j, u64::from(c)))
        .collect();
    let mut state =
        IncrementalState::from_clusters(singletons, &pairs, goodness, FxBuildHasher::default());
    state.bounded_merge(&MergeBound {
        min_goodness: f64::NEG_INFINITY,
        min_clusters: k,
        max_merges: usize::MAX,
        max_cluster_size: usize::MAX,
    });
    let clusters = state.live_clusters().into_iter().map(|(_, m)| m).collect();
    Clustering::new(clusters, vec![])
}

#[test]
fn path_of_length_three_on_a_chain() {
    // 0-1-2-3: exactly one simple 3-path between 0 and 3.
    let g = graph_of(4, &[(0, 1), (1, 2), (2, 3)]);
    let t = compute_links_l3(&g);
    assert_eq!(count(&t, 0, 3), 1);
    assert_eq!(count(&t, 0, 2), 0); // only a 2-path
    assert_eq!(count(&t, 0, 1), 0); // direct edge, no 3-path
}

#[test]
fn triangle_plus_edge() {
    // Triangle 0-1-2 plus edge 2-3: 3-paths from 0 to 3: 0→1→2→3.
    let g = graph_of(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
    let t = compute_links_l3(&g);
    assert_eq!(count(&t, 0, 3), 1);
    // Between adjacent triangle vertices 0 and 1: 3-paths need two
    // distinct intermediates ∉ {0,1}: 0→2→3? 3 not adjacent to 1. None.
    assert_eq!(count(&t, 0, 1), 0);
}

#[test]
fn matches_brute_force_on_random_graphs() {
    for seed in 0..5u64 {
        let n = 14;
        let m = SimilarityMatrix::from_fn(n, |i, j| {
            let h = (i as u64 * 2654435761 + j as u64 * 97 + seed * 131) % 100;
            h as f64 / 100.0
        });
        let g = NeighborGraph::build(&m, 0.55, 1).unwrap();
        let t = compute_links_l3(&g);
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(
                    u64::from(count(&t, i, j)),
                    brute_paths3(&g, i, j),
                    "seed {seed}, pair ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn combine_links_weights() {
    let g = graph_of(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
    let l2 = links_l2(&g);
    let l3 = compute_links_l3(&g);
    let combined = combine_links(&l2, &l3, 2.0);
    for i in 0..4 {
        for j in 0..4 {
            if i != j {
                assert_eq!(
                    count(&combined, i, j),
                    count(&l2, i, j) + 2 * count(&l3, i, j),
                    "pair ({i},{j})"
                );
            }
        }
    }
    // Zero weight reduces to the base counts.
    assert_eq!(combine_links(&l2, &l3, 0.0), l2);
}

#[test]
fn l3_links_degrade_figure1() {
    // Reproduction finding supporting §3.2's decision to stop at
    // length 2: on Fig. 1, length-3 paths flow disproportionately
    // *through* the shared {1,2,x} bridge between the two clusters,
    // so mixing them into the link counts makes the big cluster
    // swallow {1,2,6} and {1,2,7} — plain link₂ recovers the correct
    // (10, 4) split, link₂ + ½·link₃ does not. Longer paths are not
    // merely "not as valuable" (§3.2); here they are actively worse.
    let ts = common::figure1();
    let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1).unwrap();
    let goodness = Goodness::new(0.5, ConstantF(1.0), GoodnessKind::Normalized);
    let l2 = links_l2(&g);
    let l3 = compute_links_l3(&g);

    let plain = merge_to(ts.len(), &l2, goodness, 2);
    assert_eq!(plain.sizes(), vec![10, 4]);
    // The pair-list entry agrees with the batch engine on plain links.
    let batch = common::merge(
        &RockAlgorithm::new(goodness, 2, OutlierPolicy::default()),
        &g,
    );
    assert_eq!(plain, batch.clustering);

    let mixed = merge_to(ts.len(), &combine_links(&l2, &l3, 0.5), goodness, 2);
    assert_eq!(mixed.sizes(), vec![12, 2]);
}
