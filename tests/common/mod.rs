//! Shared helpers for the integration tests: the sequential reference
//! kernels every thread count of the library kernels is compared
//! against, plus a one-call merge over precomputed links.
//!
//! Each test binary includes this module with `mod common;` and uses
//! only part of it.
#![allow(dead_code)]

use rock::algorithm::{RockAlgorithm, RockRun};
use rock::governor::RunGovernor;
use rock::labeling::{Labeler, Labeling};
use rock::links_matrix::LinkMatrix;
use rock::neighbors::NeighborGraph;
use rock::similarity::{PairwiseSimilarity, Similarity};

/// Reference θ-neighbor scan: a plain double loop over the upper
/// triangle, mirrored into sorted adjacency lists.
pub fn neighbors_oracle<S: PairwiseSimilarity>(sim: &S, theta: f64) -> NeighborGraph {
    let n = sim.len();
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if sim.sim(i, j) >= theta {
                lists[i].push(j as u32);
            }
        }
    }
    NeighborGraph::from_lists(lists, theta)
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

/// Links on one thread, then the ungoverned, unjournaled Fig.-3 merge.
pub fn merge(algorithm: &RockAlgorithm, graph: &NeighborGraph) -> RockRun {
    let links = LinkMatrix::compute_auto(graph, 1);
    algorithm
        .run(graph, &links, &RunGovernor::unlimited(), None)
        .expect("an unlimited governor never trips")
}
