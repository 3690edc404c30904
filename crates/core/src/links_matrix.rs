//! CSR link matrix — the crate's one representation of link counts.
//!
//! `link(pᵢ, pⱼ)` (§3.2) is the number of common neighbors of `pᵢ` and
//! `pⱼ` — equivalently the number of distinct length-2 neighbor paths
//! between them. The Fig.-4 link pass and the §4.4 matrix-square both
//! produce, for every point, the sorted list of partners it shares common
//! neighbors with. [`LinkMatrix`] stores exactly that as compressed
//! sparse rows: one `offsets` array plus parallel `cols`/`counts` arrays
//! holding both directions of every linked pair. Lookups are a binary
//! search in a contiguous row, iteration is a linear scan, and
//! construction is a sort — all cache-friendly and parallelisable.
//!
//! Two construction kernels are provided, run by
//! [`LinkMatrix::compute_kernel`] and selected by cost in
//! [`LinkMatrix::compute_auto`]:
//!
//! * [`LinkKernel::Sparse`] — Fig. 4 reformulated as a pair
//!   stream sharded by **smaller endpoint**: a global O(Σmᵢ) histogram
//!   prices every CSR row by its emitted-pair count, contiguous row
//!   ranges of equal pair mass are handed to workers, and each worker
//!   counting-sorts exactly the pairs whose smaller endpoint falls in
//!   its range (histogram segment, scatter, dense per-segment count).
//!   Because the key space `pack(j, l)` is ordered by smaller endpoint
//!   first, the per-shard sorted runs occupy *disjoint, ascending key
//!   ranges*: the final CSR is assembled by scanning the runs in shard
//!   order with **no merge step and no cross-shard count summing**. The
//!   pair multiset owned by each row is independent of where the shard
//!   boundaries fall, so output is **bit-identical for every thread
//!   count and every shard split** (proptest-pinned in
//!   `tests/kernel_invariance.rs`).
//! * [`LinkKernel::Dense`] — §4.4's boolean `A²` over bit-packed
//!   adjacency rows: worker `t` owns a block of rows and computes
//!   `popcount(rowᵢ & rowⱼ)` for `j > i`, writing into its own block, so
//!   again no merge order can affect the result.
//!
//! See DESIGN.md §"Performance model" for layout diagrams and the
//! measured crossover between the kernels.

use std::ops::Range;

use crate::error::RockError;
use crate::neighbors::NeighborGraph;
use crate::util::{balanced_ranges, BitSet};

/// Which link-construction kernel to run (see
/// [`LinkMatrix::choose_kernel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKernel {
    /// The Fig.-4 counting-sort pair-stream kernel.
    Sparse,
    /// The §4.4 boolean matrix square over bit-packed rows.
    Dense,
}

/// Symmetric link counts in compressed-sparse-row form.
///
/// Row `i` lists, ascending, every `j` with `link(i, j) > 0` together
/// with the count; every linked pair therefore appears twice (once per
/// endpoint).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkMatrix {
    /// Row boundaries: row `i` occupies `cols[offsets[i]..offsets[i+1]]`.
    offsets: Vec<usize>,
    /// Partner ids, ascending within each row.
    cols: Vec<u32>,
    /// Link counts, parallel to `cols`.
    counts: Vec<u32>,
}

impl LinkMatrix {
    /// An empty matrix over `n` points.
    pub fn new(n: usize) -> Self {
        LinkMatrix {
            offsets: vec![0; n + 1],
            cols: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Number of points the matrix is defined over.
    pub fn num_points(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The link count of the pair `{i, j}` (0 if absent or `i == j`).
    #[inline]
    pub fn count(&self, i: usize, j: usize) -> u32 {
        let (cols, counts) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => counts[pos],
            Err(_) => 0,
        }
    }

    /// Row `i` as `(partner ids, counts)` slices, partners ascending.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[u32]) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        (&self.cols[lo..hi], &self.counts[lo..hi])
    }

    /// Number of point pairs with at least one link.
    pub fn num_linked_pairs(&self) -> usize {
        debug_assert!(self.cols.len().is_multiple_of(2));
        self.cols.len() / 2
    }

    /// Total number of links over all pairs.
    pub fn total_links(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum::<u64>() / 2
    }

    /// Iterates over `((i, j), count)` with `i < j`, ascending by `(i, j)`.
    pub fn iter_upper(&self) -> impl Iterator<Item = ((u32, u32), u32)> + '_ {
        (0..self.num_points()).flat_map(move |i| {
            let (cols, counts) = self.row(i);
            let start = cols.partition_point(|&j| (j as usize) <= i);
            cols[start..]
                .iter()
                .zip(&counts[start..])
                .map(move |(&j, &c)| ((i as u32, j), c))
        })
    }

    /// Approximate heap footprint in bytes (for the auto heuristic and
    /// benchmark reports).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.cols.len() * 4
            + self.counts.len() * 4
    }

    /// Pairs whose smaller endpoint is `j`, over the whole graph.
    ///
    /// Point `i`'s ascending neighbor list contributes `mᵢ−1−a` pairs
    /// with smaller endpoint `nbrs[a]`, so one O(Σmᵢ) sweep prices every
    /// CSR row before any pair is materialised. This histogram is both
    /// the shard balancer (mass = emitted pairs) and each worker's
    /// segment layout.
    fn smaller_endpoint_histogram(graph: &NeighborGraph) -> Vec<usize> {
        let n = graph.len();
        let mut hist = vec![0usize; n];
        for i in 0..n {
            let nbrs = graph.neighbors(i);
            let m = nbrs.len();
            for (a, &j) in nbrs.iter().enumerate() {
                hist[j as usize] += m - 1 - a;
            }
        }
        hist
    }

    /// Fig. 4 via the range-sharded pair-stream kernel. `threads == 1`
    /// runs the same kernel on one shard; output is identical for every
    /// `threads`.
    ///
    /// Work is sharded by *smaller endpoint*: shard boundaries balance
    /// emitted-pair mass (not row count — a shard of a few hub rows can
    /// weigh as much as thousands of sparse rows), and each worker owns
    /// a contiguous CSR row range whose sorted `(key, count)` run it
    /// writes outright. Runs occupy disjoint ascending key ranges, so
    /// assembly is a concatenated scan with no merge step.
    fn sparse_kernel(graph: &NeighborGraph, threads: usize) -> Self {
        let hist = Self::smaller_endpoint_histogram(graph);
        let shards = balanced_ranges(graph.len(), threads, |j| hist[j] as u64);
        Self::compute_sparse_on(graph, &hist, &shards)
    }

    /// Runs the sparse kernel over an explicit shard split — the test
    /// seam for adversarial shard-boundary invariance. `shards` must
    /// partition `0..graph.len()` into contiguous, non-overlapping,
    /// ascending ranges (empty ranges are allowed).
    #[doc(hidden)]
    pub fn compute_sparse_ranges(graph: &NeighborGraph, shards: &[Range<usize>]) -> Self {
        let hist = Self::smaller_endpoint_histogram(graph);
        Self::compute_sparse_on(graph, &hist, shards)
    }

    /// The sharded counting-sort body shared by the sparse kernel and
    /// [`Self::compute_sparse_ranges`].
    ///
    /// Each worker counting-sorts exactly the pairs whose smaller
    /// endpoint falls in its row range: a per-`j` segment layout read
    /// off the global histogram, a linear scatter of larger endpoints
    /// (neighbor lists are ascending ⇒ `(j, l)` is already the
    /// normalised pair), then a dense per-segment count into the
    /// shard's sorted run. O(pairs) total, vs O(pairs·log pairs) for a
    /// sort — the difference that makes this kernel beat a hash-map
    /// pair counter instead of losing to it.
    fn compute_sparse_on(
        graph: &NeighborGraph,
        hist: &[usize],
        shards: &[Range<usize>],
    ) -> Self {
        let n = graph.len();
        debug_assert_eq!(shards.iter().map(|r| r.len()).sum::<usize>(), n);
        debug_assert!(shards.windows(2).all(|w| w[0].end == w[1].start));

        let mut runs: Vec<Vec<(u64, u32)>> = Vec::with_capacity(shards.len());
        runs.resize_with(shards.len(), Vec::new);
        rayon::scope(|scope| {
            for (range, out) in shards.iter().zip(runs.iter_mut()) {
                let (lo, hi) = (range.start, range.end);
                if lo == hi {
                    continue;
                }
                scope.spawn(move |_| {
                    // Segment offsets for this shard's rows, straight
                    // from the global histogram.
                    let mut seg = vec![0usize; hi - lo + 1];
                    for j in lo..hi {
                        seg[j - lo + 1] = seg[j - lo] + hist[j];
                    }
                    let mut data = vec![0u32; seg[hi - lo]];
                    let mut cursor: Vec<usize> = seg[..hi - lo].to_vec();
                    // tidy:kernel-hot-loop — scatter larger endpoints into per-row segments
                    for i in 0..n {
                        let nbrs = graph.neighbors(i);
                        let a0 = nbrs.partition_point(|&x| (x as usize) < lo);
                        let a1 = a0 + nbrs[a0..].partition_point(|&x| (x as usize) < hi);
                        for a in a0..a1 {
                            let j = nbrs[a] as usize;
                            let mut c = cursor[j - lo];
                            for &l in &nbrs[a + 1..] {
                                data[c] = l;
                                c += 1;
                            }
                            cursor[j - lo] = c;
                        }
                    }
                    // tidy:end-kernel-hot-loop
                    // Dense count per segment → this shard's sorted run
                    // over its disjoint slice of the key space. Scratch
                    // is allocated once per worker, outside the loop.
                    let mut scratch = vec![0u32; n];
                    let mut partners: Vec<u32> = Vec::new();
                    let mut pairs: Vec<(u64, u32)> = Vec::new();
                    // tidy:kernel-hot-loop — per-segment dense count
                    for j in lo..hi {
                        let segment = &data[seg[j - lo]..seg[j - lo + 1]];
                        if segment.is_empty() {
                            continue;
                        }
                        for &l in segment {
                            if scratch[l as usize] == 0 {
                                partners.push(l);
                            }
                            scratch[l as usize] += 1;
                        }
                        partners.sort_unstable();
                        for &l in &partners {
                            pairs.push((pack(j as u32, l), scratch[l as usize]));
                            scratch[l as usize] = 0;
                        }
                        partners.clear();
                    }
                    // tidy:end-kernel-hot-loop
                    *out = pairs;
                });
            }
        });

        let emitted: usize = hist.iter().sum();
        crate::perf::count_pairs_emitted(emitted as u64);
        let matrix = Self::assemble_runs(n, &runs);
        crate::perf::count_bytes_touched((emitted * 4 + matrix.memory_bytes()) as u64);
        matrix
    }

    /// §4.4's boolean matrix square over bit-packed rows, blocked across
    /// workers. Output is identical to the sparse kernel's.
    fn dense_kernel(graph: &NeighborGraph, threads: usize) -> Self {
        let n = graph.len();
        let mut rows: Vec<BitSet> = Vec::with_capacity(n);
        for i in 0..n {
            let mut row = BitSet::new(n);
            for &j in graph.neighbors(i) {
                row.set(j as usize);
            }
            rows.push(row);
        }
        let rows = &rows;

        // Row i of the upper triangle costs (n − i) popcount-AND sweeps.
        let shards = balanced_ranges(n, threads, |i| (n - i) as u64);
        let mut upper: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        rayon::scope(|scope| {
            let mut rest = upper.as_mut_slice();
            let mut consumed = 0;
            for range in &shards {
                let (block, tail) = rest.split_at_mut(range.end - consumed);
                rest = tail;
                let lo = consumed;
                consumed = range.end;
                scope.spawn(move |_| {
                    for (offset, out) in block.iter_mut().enumerate() {
                        let i = lo + offset;
                        for j in (i + 1)..n {
                            let c = rows[i].intersection_count(&rows[j]);
                            if c > 0 {
                                out.push((j as u32, c as u32));
                            }
                        }
                    }
                });
            }
        });

        let pairs: Vec<(u64, u32)> = upper
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter().map(move |&(j, c)| (pack(i as u32, j), c))
            })
            .collect();
        // Count emitted pairs like the sparse kernel does, so reports
        // stay comparable whichever kernel the auto heuristic picks.
        crate::perf::count_pairs_emitted(pairs.len() as u64);
        crate::perf::count_bytes_touched((n * n / 8) as u64);
        Self::assemble_runs(n, std::slice::from_ref(&pairs))
    }

    /// Chooses between the sparse and dense kernels by estimated cost.
    ///
    /// The pair-stream kernel touches each of its ~`Σᵢ mᵢ²/2` pairs a
    /// constant number of times (histogram, scatter, count); the bitset
    /// square costs `n²/2 · ⌈n/64⌉` word ANDs plus O(n²/8) bytes of row
    /// storage. One counted pair costs ~1.5× a popcount-AND word op
    /// (measured with `bench/benches/rock_parallel.rs` on the §5.3
    /// generator, against ~8× for a hash-map increment), and both
    /// kernels parallelise evenly so `threads` does not shift it. Dense
    /// is refused above 64 MiB of row storage regardless.
    ///
    /// # Errors
    /// [`RockError::InvalidThreads`] if `threads == 0`.
    pub fn compute_auto(graph: &NeighborGraph, threads: usize) -> Result<Self, RockError> {
        Self::compute_kernel(graph, threads, Self::choose_kernel(graph))
    }

    /// The kernel [`compute_auto`](Self::compute_auto) would pick for
    /// `graph`, exposed so budget-aware drivers can veto the dense
    /// kernel's `n²/8` row storage *before* allocating it (see
    /// [`crate::governor::DegradationPolicy::SparseLinks`]).
    pub fn choose_kernel(graph: &NeighborGraph) -> LinkKernel {
        let n = graph.len() as f64;
        let sparse_cost: f64 = (0..graph.len())
            .map(|i| {
                let m = graph.degree(i) as f64;
                m * m
            })
            .sum::<f64>()
            / 2.0
            * 1.5;
        let dense_cost = n * n / 2.0 * (n / 64.0).max(1.0);
        let dense_bytes = n * n / 8.0;
        if dense_cost < sparse_cost && dense_bytes < 64.0 * 1024.0 * 1024.0 {
            LinkKernel::Dense
        } else {
            LinkKernel::Sparse
        }
    }

    /// Transient working-set estimate of the dense kernel over `n`
    /// points: the bit-packed adjacency rows (`n²/8` bytes). The sparse
    /// kernel's working set is the counted pair stream, roughly
    /// proportional to the output CSR instead.
    pub fn estimated_dense_bytes(n: usize) -> u64 {
        let n = n as u64;
        n * n / 8
    }

    /// Runs the named kernel over `threads` workers. Both kernels return
    /// the same matrix, bit for bit, at every thread count.
    ///
    /// # Errors
    /// [`RockError::InvalidThreads`] if `threads == 0`.
    pub fn compute_kernel(
        graph: &NeighborGraph,
        threads: usize,
        kernel: LinkKernel,
    ) -> Result<Self, RockError> {
        if threads == 0 {
            return Err(RockError::InvalidThreads(threads));
        }
        Ok(match kernel {
            LinkKernel::Sparse => Self::sparse_kernel(graph, threads),
            LinkKernel::Dense => Self::dense_kernel(graph, threads),
        })
    }

    /// Builds the symmetric CSR from upper-triangle `(packed key, count)`
    /// runs whose concatenation is ascending and duplicate-free — the
    /// shape the range-sharded kernel produces (each run owns a disjoint
    /// slice of the key space), and trivially also a single sorted run.
    fn assemble_runs(n: usize, runs: &[Vec<(u64, u32)>]) -> Self {
        debug_assert!({
            let keys: Vec<u64> = runs.iter().flatten().map(|&(k, _)| k).collect();
            keys.windows(2).all(|w| w[0] < w[1])
        });
        let mut degree = vec![0usize; n];
        for &(key, _) in runs.iter().flatten() {
            let (i, j) = unpack(key);
            degree[i as usize] += 1;
            degree[j as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let total = offsets[n];
        let mut cols = vec![0u32; total];
        let mut counts = vec![0u32; total];
        let mut cursor = offsets.clone();
        // Scanning pairs in ascending (i, j) order fills every row
        // ascending: row r first receives partners h < r (from pairs
        // (h, r), ascending h), then partners j > r (from pairs (r, j),
        // ascending j) — all lower-partner pairs sort before any
        // upper-partner pair of the same row.
        for &(key, c) in runs.iter().flatten() {
            let (i, j) = unpack(key);
            cols[cursor[i as usize]] = j;
            counts[cursor[i as usize]] = c;
            cursor[i as usize] += 1;
            cols[cursor[j as usize]] = i;
            counts[cursor[j as usize]] = c;
            cursor[j as usize] += 1;
        }
        debug_assert!((0..n).all(|i| {
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            cols[lo..hi].windows(2).all(|w| w[0] < w[1])
        }));
        LinkMatrix {
            offsets,
            cols,
            counts,
        }
    }
}

#[inline]
fn pack(i: u32, j: u32) -> u64 {
    (u64::from(i) << 32) | u64::from(j)
}

#[inline]
fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use crate::similarity::{Jaccard, PointsWith, SimilarityMatrix};
    use crate::testdata::figure1_transactions;

    fn pseudo_graph(n: usize, theta: f64) -> NeighborGraph {
        let m = SimilarityMatrix::from_fn(n, |i, j| {
            ((i * j).wrapping_mul(2654435761) % 1000) as f64 / 1000.0
        });
        NeighborGraph::build(&m, theta, 1).unwrap()
    }

    fn sparse(graph: &NeighborGraph, threads: usize) -> LinkMatrix {
        LinkMatrix::compute_kernel(graph, threads, LinkKernel::Sparse).unwrap()
    }

    fn dense(graph: &NeighborGraph, threads: usize) -> LinkMatrix {
        LinkMatrix::compute_kernel(graph, threads, LinkKernel::Dense).unwrap()
    }

    /// O(n³) textbook square of the 0/1 adjacency matrix: entry (i, j)
    /// is the number of common neighbors of i and j.
    fn adjacency_square(graph: &NeighborGraph) -> Vec<Vec<u32>> {
        let n = graph.len();
        let mut a = vec![vec![0u32; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            for &j in graph.neighbors(i) {
                row[j as usize] = 1;
            }
        }
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            0
                        } else {
                            (0..n).map(|l| a[i][l] * a[l][j]).sum()
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_matches_square(m: &LinkMatrix, graph: &NeighborGraph) {
        let square = adjacency_square(graph);
        assert_eq!(m.num_points(), graph.len());
        for (i, row) in square.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                assert_eq!(m.count(i, j), c, "pair ({i},{j})");
            }
        }
        let linked = square.iter().flatten().filter(|&&c| c > 0).count();
        assert_eq!(m.num_linked_pairs() * 2, linked);
        let total: u64 = square.iter().flatten().map(|&c| u64::from(c)).sum();
        assert_eq!(m.total_links() * 2, total);
    }

    fn find(ts: &[Transaction], items: [u32; 3]) -> usize {
        let t = Transaction::from(items);
        ts.iter()
            .position(|x| *x == t)
            .expect("transaction present")
    }

    #[test]
    fn matches_reference_table() {
        let g = pseudo_graph(90, 0.6);
        assert_matches_square(&sparse(&g, 1), &g);
    }

    #[test]
    fn links_match_adjacency_matrix_square() {
        let m = SimilarityMatrix::from_fn(40, |i, j| ((i * 31 + j * 17) % 10) as f64 / 10.0);
        let g = NeighborGraph::build(&m, 0.5, 1).unwrap();
        for kernel in [LinkKernel::Sparse, LinkKernel::Dense] {
            assert_matches_square(&LinkMatrix::compute_kernel(&g, 2, kernel).unwrap(), &g);
        }
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let g = pseudo_graph(20, 0.5);
        for kernel in [LinkKernel::Sparse, LinkKernel::Dense] {
            assert_eq!(
                LinkMatrix::compute_kernel(&g, 0, kernel),
                Err(RockError::InvalidThreads(0))
            );
        }
        assert_eq!(
            LinkMatrix::compute_auto(&g, 0),
            Err(RockError::InvalidThreads(0))
        );
    }

    #[test]
    fn sparse_kernel_is_thread_count_invariant() {
        let g = pseudo_graph(150, 0.5);
        let one = sparse(&g, 1);
        for threads in [2, 3, 5, 8, 16] {
            assert_eq!(sparse(&g, threads), one, "threads={threads}");
        }
    }

    #[test]
    fn adversarial_shard_splits_are_invariant() {
        let g = pseudo_graph(120, 0.5);
        let n = g.len();
        let reference = sparse(&g, 1);
        let splits: Vec<Vec<Range<usize>>> = vec![
            vec![0..n],
            vec![0..1, 1..2, 2..n],
            vec![0..n / 2, n / 2..n],
            vec![0..0, 0..n, n..n],
            (0..n).map(|i| i..i + 1).collect(),
            vec![0..n - 1, n - 1..n],
        ];
        for (s, split) in splits.iter().enumerate() {
            assert_eq!(
                LinkMatrix::compute_sparse_ranges(&g, split),
                reference,
                "split #{s}"
            );
        }
    }

    #[test]
    fn dense_kernel_matches_sparse_kernel() {
        for theta in [0.2, 0.5, 0.8] {
            let g = pseudo_graph(120, theta);
            let reference = sparse(&g, 3);
            for threads in [1, 4] {
                assert_eq!(
                    dense(&g, threads),
                    reference,
                    "theta={theta} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn auto_matches_explicit_kernels() {
        // Dense regime (low θ) and sparse regime (high θ).
        for theta in [0.15, 0.9] {
            let g = pseudo_graph(140, theta);
            assert_eq!(
                LinkMatrix::compute_auto(&g, 2).unwrap(),
                sparse(&g, 1),
                "theta={theta}"
            );
        }
    }

    #[test]
    fn rows_are_sorted_and_symmetric() {
        let g = pseudo_graph(100, 0.45);
        let m = sparse(&g, 4);
        for i in 0..m.num_points() {
            let (cols, counts) = m.row(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted");
            for (&j, &c) in cols.iter().zip(counts) {
                assert!(c > 0);
                assert_eq!(m.count(j as usize, i), c, "asymmetric ({i},{j})");
            }
        }
    }

    #[test]
    fn iter_upper_is_sorted_and_complete() {
        let g = pseudo_graph(80, 0.5);
        let m = sparse(&g, 2);
        let pairs: Vec<((u32, u32), u32)> = m.iter_upper().collect();
        assert_eq!(pairs.len(), m.num_linked_pairs());
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "unsorted pairs");
        for &((i, j), c) in &pairs {
            assert!(i < j);
            assert_eq!(m.count(i as usize, j as usize), c);
        }
    }

    #[test]
    fn paper_example_links_figure1() {
        // §3.2: with θ = 0.5, {1,2,6} has 5 links with {1,2,7} and 3 links
        // with {1,2,3}; {1,6,7} has 2 links with {1,2,6} and 0 links with
        // transactions of the big cluster not containing 1, 2, 6 or 7.
        let ts = figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1).unwrap();
        let m = LinkMatrix::compute_auto(&g, 2).unwrap();
        assert_eq!(m.count(find(&ts, [1, 2, 6]), find(&ts, [1, 2, 7])), 5);
        assert_eq!(m.count(find(&ts, [1, 2, 6]), find(&ts, [1, 2, 3])), 3);
        assert_eq!(m.count(find(&ts, [1, 6, 7]), find(&ts, [1, 2, 6])), 2);
        assert_eq!(m.count(find(&ts, [1, 6, 7]), find(&ts, [3, 4, 5])), 0);
    }

    #[test]
    fn paper_example_1_2_pair_counts() {
        // §1.2: pairs containing {1,2} in the same cluster have 5 common
        // neighbors; across clusters only 3.
        let ts = figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1).unwrap();
        let m = sparse(&g, 1);
        let t123 = find(&ts, [1, 2, 3]);
        assert_eq!(m.count(t123, find(&ts, [1, 2, 4])), 5);
        assert_eq!(m.count(t123, find(&ts, [1, 2, 6])), 3);
    }

    #[test]
    fn per_point_adjacency_is_consistent() {
        let ts = figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1).unwrap();
        let m = sparse(&g, 1);
        for i in 0..m.num_points() {
            let (cols, counts) = m.row(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "sorted by id");
            for (&j, &c) in cols.iter().zip(counts) {
                assert_eq!(m.count(i, j as usize), c);
                assert!(c > 0);
            }
        }
        // Every linked pair appears exactly twice across the rows.
        let total: usize = (0..m.num_points()).map(|i| m.row(i).0.len()).sum();
        assert_eq!(total, 2 * m.num_linked_pairs());
    }

    #[test]
    fn isolated_point_has_no_links() {
        let ts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([1, 3, 4]),
            Transaction::from([9]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.4, 1).unwrap();
        let m = LinkMatrix::compute_auto(&g, 1).unwrap();
        for i in 0..3 {
            assert_eq!(m.count(3, i), 0);
        }
        assert!(m.row(3).0.is_empty());
    }

    #[test]
    fn count_diagonal_and_missing_are_zero() {
        let m = LinkMatrix::new(5);
        assert_eq!(m.count(2, 2), 0);
        assert_eq!(m.count(0, 1), 0);
        assert_eq!(m.total_links(), 0);
        let g = pseudo_graph(30, 0.3);
        let m = sparse(&g, 1);
        assert!((0..g.len()).all(|i| m.count(i, i) == 0));
    }

    #[test]
    fn empty_and_isolated() {
        let empty = LinkMatrix::new(0);
        assert_eq!(empty.num_points(), 0);
        assert_eq!(empty.iter_upper().count(), 0);
        assert_eq!(
            LinkMatrix::compute_sparse_ranges(&NeighborGraph::from_lists(vec![], 0.5), &[]),
            empty
        );

        let g = NeighborGraph::from_lists(vec![vec![], vec![], vec![]], 0.5);
        let m = sparse(&g, 2);
        assert_eq!(m.num_points(), 3);
        assert_eq!(m.num_linked_pairs(), 0);
        assert_eq!(m.count(0, 1), 0);
    }

    #[test]
    fn histogram_prices_rows_by_emitted_pairs() {
        let g = pseudo_graph(60, 0.5);
        let hist = LinkMatrix::smaller_endpoint_histogram(&g);
        // Total histogram mass equals the number of neighbor pairs.
        let expected: usize = (0..g.len())
            .map(|i| {
                let m = g.degree(i);
                m * m.saturating_sub(1) / 2
            })
            .sum();
        assert_eq!(hist.iter().sum::<usize>(), expected);
    }
}
