//! Connected-components clustering over the neighbor graph — the
//! "QROCK" observation: when clusters are well-separated at threshold θ,
//! ROCK's merge loop run to exhaustion produces exactly the connected
//! components of the neighbor graph, and those can be computed in
//! O(n + edges) with a disjoint-set forest instead of O(n² log n).
//!
//! This is *not* a substitute for ROCK in general: components ignore link
//! counts entirely, so a single spurious neighbor edge chains two
//! clusters together (exactly the MST fragility of §1.1). It is provided
//! as the fast path for well-separated data and as a comparison point —
//! `tests` demonstrate both the agreement on separated data and the
//! chaining failure on Fig.-1's overlapping clusters.

use crate::cluster::Clustering;
use crate::neighbors::NeighborGraph;

/// Disjoint-set forest with path halving and union by size.
#[derive(Clone, Debug)]
pub struct DisjointSet {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl DisjointSet {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns false if already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }

    /// Size of `x`'s set.
    pub fn set_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }
}

/// Clusters points as connected components of the θ-neighbor graph.
///
/// Components smaller than `min_size` are reported as outliers (isolated
/// points always are).
pub fn neighbor_components(graph: &NeighborGraph, min_size: usize) -> Clustering {
    let n = graph.len();
    let mut dsu = DisjointSet::new(n);
    for i in 0..n {
        for &j in graph.neighbors(i) {
            dsu.union(i as u32, j);
        }
    }
    let mut by_root: crate::util::FxHashMap<u32, Vec<u32>> = Default::default();
    for p in 0..n as u32 {
        by_root.entry(dsu.find(p)).or_default().push(p);
    }
    let mut clusters = Vec::new();
    let mut outliers = Vec::new();
    // tidy-allow(nondeterministic-iter): cluster and outlier order is canonicalized by Clustering::new (members sorted, clusters by size then smallest member)
    for (_, members) in by_root {
        if members.len() >= min_size.max(2) {
            clusters.push(members);
        } else {
            outliers.extend(members);
        }
    }
    Clustering::new(clusters, outliers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use crate::similarity::{Jaccard, PointsWith};

    #[test]
    fn dsu_basic() {
        let mut d = DisjointSet::new(5);
        assert!(d.union(0, 1));
        assert!(d.union(3, 4));
        assert!(!d.union(1, 0));
        assert_eq!(d.find(0), d.find(1));
        assert_ne!(d.find(0), d.find(3));
        assert_eq!(d.set_size(4), 2);
        assert_eq!(d.set_size(2), 1);
    }

    #[test]
    fn separated_cliques_match_rock() {
        let ts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([1, 3, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([10, 11, 13]),
            Transaction::from([10, 12, 13]),
            Transaction::from([99]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1).unwrap();
        let comp = neighbor_components(&g, 2);
        assert_eq!(comp.sizes(), vec![3, 3]);
        assert_eq!(comp.outliers, vec![6]);
        // Agreement with the full merge loop on separated data.
        let goodness = crate::goodness::Goodness::new(
            0.5,
            crate::goodness::BasketF,
            crate::goodness::GoodnessKind::Normalized,
        );
        let algorithm = crate::algorithm::RockAlgorithm::new(
            goodness,
            1,
            crate::algorithm::OutlierPolicy::default(),
        );
        let rock = crate::testdata::merge(algorithm, &g).unwrap();
        assert_eq!(comp.clusters, rock.clustering.clusters);
    }

    #[test]
    fn overlapping_clusters_chain_together() {
        // Fig.-1 data: the two true clusters share neighbor edges through
        // the {1,2,x} transactions, so components lump everything — the
        // failure mode that motivates links.
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1).unwrap();
        let comp = neighbor_components(&g, 2);
        assert_eq!(comp.num_clusters(), 1, "components cannot separate Fig. 1");
    }

    #[test]
    fn min_size_moves_small_components_to_outliers() {
        let ts = vec![
            Transaction::from([1, 2]),
            Transaction::from([1, 2]),
            Transaction::from([5, 6, 7]),
            Transaction::from([5, 6, 8]),
            Transaction::from([5, 7, 8]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1).unwrap();
        let c = neighbor_components(&g, 3);
        assert_eq!(c.sizes(), vec![3]);
        assert_eq!(c.outliers, vec![0, 1]);
    }
}
