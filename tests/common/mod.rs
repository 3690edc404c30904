//! Shared helpers for the integration tests: the sequential reference
//! kernels every thread count of the library kernels is compared
//! against, the paper's Fig.-1 data set, and a one-call merge over
//! precomputed links.
//!
//! Each test binary includes this module with `mod common;` and uses
//! only part of it.
#![allow(dead_code)]

use std::collections::HashMap;

use rock::algorithm::{RockAlgorithm, RockRun};
use rock::governor::RunGovernor;
use rock::labeling::{Labeler, Labeling};
use rock::links_matrix::LinkMatrix;
use rock::neighbors::NeighborGraph;
use rock::points::Transaction;
use rock::similarity::{PairwiseSimilarity, Similarity};

/// Reference θ-neighbor scan: a plain double loop over the upper
/// triangle, mirrored into sorted adjacency lists.
pub fn neighbors_oracle<S: PairwiseSimilarity>(sim: &S, theta: f64) -> NeighborGraph {
    let n = sim.len();
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, list) in lists.iter_mut().enumerate() {
        for j in (i + 1)..n {
            if sim.sim(i, j) >= theta {
                list.push(j as u32);
            }
        }
    }
    NeighborGraph::from_lists(lists, theta)
}

/// Reference link counts, the paper's Fig. 4 over a hash map: every
/// point credits each pair of its neighbors with one link. Returned as
/// `((i, j), count)` with `i < j`, ascending, so it compares directly
/// with `LinkMatrix::iter_upper()`.
pub fn links_oracle(graph: &NeighborGraph) -> Vec<((u32, u32), u32)> {
    let mut counts: HashMap<(u32, u32), u32> = HashMap::new();
    for i in 0..graph.len() {
        let nbrs = graph.neighbors(i);
        for (a, &j) in nbrs.iter().enumerate() {
            for &l in &nbrs[a + 1..] {
                // Neighbor lists are ascending, so (j, l) has j < l.
                *counts.entry((j, l)).or_insert(0) += 1;
            }
        }
    }
    let mut pairs: Vec<((u32, u32), u32)> = counts.into_iter().collect();
    pairs.sort_unstable();
    pairs
}

/// Reference labeling: every point scored in input order with
/// [`Labeler::label_point`], counts tallied in the same pass.
pub fn labeling_oracle<P: Clone, S: Similarity<P>>(
    labeler: &Labeler<P>,
    data: &[P],
    sim: &S,
) -> Labeling {
    let assignments: Vec<Option<usize>> =
        data.iter().map(|p| labeler.label_point(p, sim)).collect();
    let mut cluster_counts = vec![0usize; labeler.num_clusters()];
    for c in assignments.iter().flatten() {
        cluster_counts[*c] += 1;
    }
    let num_outliers = assignments.iter().filter(|a| a.is_none()).count();
    Labeling {
        assignments,
        cluster_counts,
        num_outliers,
    }
}

/// Fig. 1 / Example 1.2: all 3-subsets of {1..5} (cluster A, ids 0..10)
/// and of {1, 2, 6, 7} (cluster B, ids 10..14).
pub fn figure1() -> Vec<Transaction> {
    let mut ts = Vec::new();
    let a = [1u32, 2, 3, 4, 5];
    for x in 0..a.len() {
        for y in (x + 1)..a.len() {
            for z in (y + 1)..a.len() {
                ts.push(Transaction::from([a[x], a[y], a[z]]));
            }
        }
    }
    let b = [1u32, 2, 6, 7];
    for x in 0..b.len() {
        for y in (x + 1)..b.len() {
            for z in (y + 1)..b.len() {
                ts.push(Transaction::from([b[x], b[y], b[z]]));
            }
        }
    }
    ts
}

/// Links on one thread, then the ungoverned, unjournaled Fig.-3 merge.
pub fn merge(algorithm: &RockAlgorithm, graph: &NeighborGraph) -> RockRun {
    let links = LinkMatrix::compute_auto(graph, 1).expect("one thread is valid");
    algorithm
        .run(graph, &links, &RunGovernor::unlimited(), None)
        .expect("an unlimited governor never trips")
}
