//! Shared test fixtures (compiled only for tests).

use crate::points::Transaction;

/// Fig. 1 / Example 1.2: two overlapping clusters of size-3 subsets.
/// Cluster A (ids 0..10): all 3-subsets of {1..5}; cluster B (ids 10..14):
/// all 3-subsets of {1, 2, 6, 7}. Items 1 and 2 are common to both.
pub(crate) fn figure1_transactions() -> Vec<Transaction> {
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

/// Computes links on one thread and runs the ungoverned, unjournaled
/// Fig.-3 merge loop over `graph`.
pub(crate) fn merge(
    algorithm: crate::algorithm::RockAlgorithm,
    graph: &crate::neighbors::NeighborGraph,
) -> Result<crate::algorithm::RockRun, crate::error::RockError> {
    let links = crate::links_matrix::LinkMatrix::compute_auto(graph, 1)?;
    algorithm.run(
        graph,
        &links,
        &crate::governor::RunGovernor::unlimited(),
        None,
    )
}
