//! The labeling phase (§4.6): assigning disk-resident points to the
//! clusters found on the sample.
//!
//! For every cluster `i` a fraction of its sample points is selected as a
//! labeling set `Lᵢ`. Each remaining data point `p` is assigned to the
//! cluster maximising its *normalized* neighbor count
//! `Nᵢ / (|Lᵢ| + 1)^{f(θ)}`, where `Nᵢ` is the number of points of `Lᵢ`
//! within similarity θ of `p`; the denominator is the expected number of
//! neighbors `p` would have in `Lᵢ` if it belonged to cluster `i`. Points
//! with no neighbors in any labeling set are reported as outliers.

use crate::error::RockError;
use crate::governor::{Phase, RunGovernor};
use crate::similarity::Similarity;
use rand::Rng;

/// Minimum labeling cost (points × total labeling-set size — i.e.
/// similarity evaluations) before [`Labeler::label_all`] spawns
/// workers. Below this the whole pass is faster than thread spawn/join.
/// Replaces the old `data.len() < 1024` bailout, which misjudged both
/// huge labeling sets over few points and tiny sets over many.
const PARALLEL_CUTOFF_SCORES: u64 = 16 * 1024;

/// The per-cluster labeling sets drawn from the clustered sample.
#[derive(Clone, Debug)]
pub struct Labeler<P> {
    /// `sets[i]` = the points of `Lᵢ`.
    sets: Vec<Vec<P>>,
    theta: f64,
    /// `f(θ)` used in the normalisation exponent.
    ftheta: f64,
}

/// Result of labeling one data set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Labeling {
    /// Per input point: assigned cluster, or `None` for outliers.
    pub assignments: Vec<Option<usize>>,
    /// Number of points assigned per cluster.
    pub cluster_counts: Vec<usize>,
    /// Number of points with no neighbors in any labeling set.
    pub num_outliers: usize,
}

impl<P: Clone> Labeler<P> {
    /// Builds labeling sets by drawing `fraction` of each cluster's sample
    /// points (at least one per non-empty cluster).
    ///
    /// * `sample` — the points that were clustered;
    /// * `clusters` — the clustering of `sample`, as indices into it;
    /// * `theta`, `ftheta` — the threshold and `f(θ)` used for clustering.
    ///
    /// # Errors
    /// Returns [`RockError::InvalidLabelingFraction`] if
    /// `fraction ∉ (0, 1]` and [`RockError::InvalidTheta`] if
    /// `theta ∉ [0, 1]` — user-supplied parameters surface as typed
    /// errors, never panics.
    pub fn new<R: Rng + ?Sized>(
        sample: &[P],
        clusters: &[Vec<u32>],
        fraction: f64,
        theta: f64,
        ftheta: f64,
        rng: &mut R,
    ) -> Result<Self, RockError> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(RockError::InvalidLabelingFraction(fraction));
        }
        if !(0.0..=1.0).contains(&theta) {
            return Err(RockError::InvalidTheta(theta));
        }
        let sets = clusters
            .iter()
            .map(|members| {
                if members.is_empty() {
                    // An empty cluster gets an empty labeling set (it can
                    // never win a point); clamp(1, 0) below would panic.
                    return Vec::new();
                }
                let want = ((members.len() as f64 * fraction).round() as usize)
                    .clamp(1, members.len());
                crate::sampling::reservoir_sample_r(members.iter().copied(), want, rng)
                    .into_iter()
                    .map(|idx| sample[idx as usize].clone())
                    .collect()
            })
            .collect();
        Ok(Labeler {
            sets,
            theta,
            ftheta,
        })
    }

    /// Uses every clustered sample point for labeling (fraction = 1,
    /// deterministic).
    pub fn full(sample: &[P], clusters: &[Vec<u32>], theta: f64, ftheta: f64) -> Self {
        let sets = clusters
            .iter()
            .map(|members| {
                members
                    .iter()
                    .map(|&idx| sample[idx as usize].clone())
                    .collect()
            })
            .collect();
        Labeler {
            sets,
            theta,
            ftheta,
        }
    }

    /// Rebuilds a labeler from previously drawn labeling sets — the
    /// deserialization path of [`crate::artifact::ModelArtifact`], which
    /// persists the sets so loaded-artifact labeling is bit-identical to
    /// the live run that saved them.
    ///
    /// # Errors
    /// Returns [`RockError::InvalidTheta`] if `theta ∉ [0, 1]` and
    /// [`RockError::InvalidFTheta`] if `ftheta` is non-finite or
    /// negative.
    pub fn from_sets(sets: Vec<Vec<P>>, theta: f64, ftheta: f64) -> Result<Self, RockError> {
        if !(0.0..=1.0).contains(&theta) {
            return Err(RockError::InvalidTheta(theta));
        }
        if !(ftheta.is_finite() && ftheta >= 0.0) {
            return Err(RockError::InvalidFTheta(ftheta));
        }
        Ok(Labeler {
            sets,
            theta,
            ftheta,
        })
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.sets.len()
    }

    /// The labeling sets: `sets()[i]` holds the representatives of
    /// cluster `i`.
    pub fn sets(&self) -> &[Vec<P>] {
        &self.sets
    }

    /// The similarity threshold θ the sets were drawn under.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The `f(θ)` used in the normalisation exponent.
    pub fn ftheta(&self) -> f64 {
        self.ftheta
    }

    /// Size of labeling set `i`.
    pub fn set_size(&self, i: usize) -> usize {
        self.sets[i].len()
    }

    /// Assigns a single point: the cluster with the maximum normalized
    /// neighbor count, or `None` if the point has no neighbors in any set.
    ///
    /// Ties go to the smaller cluster index (deterministic).
    pub fn label_point<S: Similarity<P>>(&self, point: &P, sim: &S) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, set) in self.sets.iter().enumerate() {
            let neighbors = set
                .iter()
                .filter(|l| sim.similarity(point, l) >= self.theta)
                .count();
            if neighbors == 0 {
                continue;
            }
            // (|Li| + 1)^{f(θ)}: expected neighbors of a member point.
            let norm = ((set.len() + 1) as f64).powf(self.ftheta);
            let score = neighbors as f64 / norm;
            let better = match best {
                None => true,
                Some((_, b)) => score > b,
            };
            if better {
                best = Some((i, score));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Like [`Labeler::label_point`], but surfaces a non-finite similarity
    /// value as a typed error instead of silently treating the pair as
    /// non-neighbors.
    ///
    /// This is the per-record entry point of the resilient streaming
    /// driver: a record whose similarity evaluation degenerates (NaN from
    /// a user measure) can be quarantined rather than mislabeled.
    ///
    /// # Errors
    /// Returns [`RockError::NonFiniteSimilarity`] on the first NaN/±∞
    /// similarity encountered.
    pub fn label_point_checked<S: Similarity<P>>(
        &self,
        point: &P,
        sim: &S,
    ) -> Result<Option<usize>, RockError> {
        let mut best: Option<(usize, f64)> = None;
        for (i, set) in self.sets.iter().enumerate() {
            let mut neighbors = 0usize;
            for l in set {
                let s = sim.similarity(point, l);
                if !s.is_finite() {
                    return Err(RockError::NonFiniteSimilarity { value: s });
                }
                if s >= self.theta {
                    neighbors += 1;
                }
            }
            if neighbors == 0 {
                continue;
            }
            let norm = ((set.len() + 1) as f64).powf(self.ftheta);
            let score = neighbors as f64 / norm;
            let better = match best {
                None => true,
                Some((_, b)) => score > b,
            };
            if better {
                best = Some((i, score));
            }
        }
        Ok(best.map(|(i, _)| i))
    }

    /// Labels every point of `data` using `threads` rayon workers
    /// (`threads = 1` scores sequentially on the calling thread), in
    /// batches of [`Labeler::GOVERNED_BATCH`] points with `governor`
    /// consulted between batches, so cancellation, deadlines and injected
    /// kills (`with_kill_at(Phase::Labeling, batch)`) are observed within
    /// one batch. An unlimited governor never interrupts.
    ///
    /// The labeling phase is embarrassingly parallel (each point is
    /// scored against the fixed Lᵢ sets independently); this is the path
    /// for paper-scale data (114,586 transactions in §5.4). Within a batch
    /// worker `t` writes the assignment slots of its own contiguous chunk
    /// of points in place, and the cluster counts are tallied once over
    /// the finished assignments — so the result is bit-identical for
    /// every thread count and batch boundary (pinned against the
    /// fault-injection matrix in `tests/kernel_invariance.rs`).
    ///
    /// Workers engage on a cost basis (points × total labeling-set size,
    /// [`PARALLEL_CUTOFF_SCORES`]) rather than a point-count floor: few
    /// points against huge labeling sets parallelise just as profitably
    /// as many points against small ones.
    ///
    /// # Errors
    /// [`RockError::InvalidThreads`] if `threads == 0`,
    /// [`RockError::Interrupted`] when the governor trips.
    pub fn label_all<S>(
        &self,
        data: &[P],
        sim: &S,
        threads: usize,
        governor: &RunGovernor,
    ) -> Result<Labeling, RockError>
    where
        S: Similarity<P> + Sync,
        P: Sync,
    {
        if threads == 0 {
            return Err(RockError::InvalidThreads(threads));
        }
        governor.check(Phase::Labeling)?;
        let mut assignments: Vec<Option<usize>> = vec![None; data.len()];
        for (batch, (part, slots)) in data
            .chunks(Self::GOVERNED_BATCH)
            .zip(assignments.chunks_mut(Self::GOVERNED_BATCH))
            .enumerate()
        {
            // check_at applies the injected kill point; the unconditional
            // check keeps cancellation latency at one (coarse) batch even
            // for governors with a large merge check interval.
            governor.check_at(Phase::Labeling, batch as u64)?;
            governor.check(Phase::Labeling)?;
            self.label_batch(part, sim, threads, slots);
        }
        let mut cluster_counts = vec![0usize; self.sets.len()];
        let mut num_outliers = 0usize;
        for a in &assignments {
            match a {
                Some(c) => cluster_counts[*c] += 1,
                None => num_outliers += 1,
            }
        }
        Ok(Labeling {
            assignments,
            cluster_counts,
            num_outliers,
        })
    }

    /// Points labeled between two governor checkpoints in
    /// [`Labeler::label_all`].
    pub const GOVERNED_BATCH: usize = 4096;

    /// The scoring kernel behind [`Labeler::label_all`]: writes the label
    /// of `part[i]` into `slots[i]`, fanning contiguous chunks out to
    /// `threads` workers once the batch is costly enough.
    fn label_batch<S>(&self, part: &[P], sim: &S, threads: usize, slots: &mut [Option<usize>])
    where
        S: Similarity<P> + Sync,
        P: Sync,
    {
        let set_points: usize = self.sets.iter().map(Vec::len).sum();
        let cost = part.len() as u64 * set_points.max(1) as u64;
        let score = |points: &[P], out: &mut [Option<usize>]| {
            // tidy:kernel-hot-loop — per-point scoring
            for (p, slot) in points.iter().zip(out.iter_mut()) {
                *slot = self.label_point(p, sim);
            }
            // tidy:end-kernel-hot-loop
        };
        if threads == 1 || cost < PARALLEL_CUTOFF_SCORES {
            score(part, slots);
        } else {
            let chunk = part.len().div_ceil(threads);
            rayon::scope(|scope| {
                for (points, out) in part.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                    let score = &score;
                    scope.spawn(move |_| score(points, out));
                }
            });
        }
        crate::perf::count_sim_evals(part.len() as u64 * set_points as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use crate::similarity::Jaccard;
    use rand::{rngs::StdRng, SeedableRng};

    /// The sequential reference labeling: every point scored in input
    /// order, counts tallied in the same pass.
    fn oracle<P: Clone, S: Similarity<P>>(labeler: &Labeler<P>, data: &[P], sim: &S) -> Labeling {
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

    fn two_cluster_sample() -> (Vec<Transaction>, Vec<Vec<u32>>) {
        let sample = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([2, 3, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([10, 11, 13]),
            Transaction::from([11, 12, 13]),
        ];
        let clusters = vec![vec![0, 1, 2], vec![3, 4, 5]];
        (sample, clusters)
    }

    #[test]
    fn full_labeler_assigns_to_own_cluster() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        assert_eq!(labeler.label_point(&Transaction::from([1, 3, 4]), &Jaccard), Some(0));
        assert_eq!(labeler.label_point(&Transaction::from([10, 12, 13]), &Jaccard), Some(1));
    }

    #[test]
    fn unrelated_point_is_outlier() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        assert_eq!(labeler.label_point(&Transaction::from([77, 88]), &Jaccard), None);
    }

    #[test]
    fn label_all_counts() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        let data = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([2, 3, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([55, 66, 77]),
        ];
        let l = labeler
            .label_all(&data, &Jaccard, 1, &RunGovernor::unlimited())
            .unwrap();
        assert_eq!(l.assignments, vec![Some(0), Some(0), Some(1), None]);
        assert_eq!(l.cluster_counts, vec![2, 1]);
        assert_eq!(l.num_outliers, 1);
    }

    #[test]
    fn fractional_sets_bounded_and_nonempty() {
        let (sample, clusters) = two_cluster_sample();
        let mut rng = StdRng::seed_from_u64(3);
        let labeler = Labeler::new(&sample, &clusters, 0.34, 0.4, 1.0 / 3.0, &mut rng).unwrap();
        for i in 0..labeler.num_clusters() {
            assert_eq!(labeler.set_size(i), 1); // 0.34 * 3 ≈ 1
        }
    }

    #[test]
    fn normalisation_prefers_denser_neighborhood() {
        // A point with 1 neighbor in a tiny set and 1 neighbor in a huge
        // set must prefer the tiny set (higher normalized count).
        let sample = vec![
            Transaction::from([1, 2]),
            // big cluster of unrelated-but-self-similar transactions plus
            // one neighbor of the query
            Transaction::from([1, 3]),
            Transaction::from([5, 6]),
            Transaction::from([5, 7]),
            Transaction::from([5, 8]),
            Transaction::from([5, 9]),
        ];
        let clusters = vec![vec![0], vec![1, 2, 3, 4, 5]];
        let labeler = Labeler::full(&sample, &clusters, 0.3, 0.5);
        // Query {1,2,3}: sim to {1,2} = 2/3 ≥ 0.3 (N₀=1, |L₀|=1);
        // sim to {1,3} = 2/3 (N₁=1, |L₁|=5). Scores 1/2^0.5 vs 1/6^0.5.
        assert_eq!(labeler.label_point(&Transaction::from([1, 2, 3]), &Jaccard), Some(0));
    }

    #[test]
    fn empty_cluster_gets_empty_labeling_set() {
        let (sample, _) = two_cluster_sample();
        let clusters = vec![vec![0, 1, 2], vec![]];
        let mut rng = StdRng::seed_from_u64(8);
        let labeler = Labeler::new(&sample, &clusters, 0.5, 0.4, 1.0 / 3.0, &mut rng).unwrap();
        assert_eq!(labeler.set_size(1), 0);
        // Points can still only land in the non-empty cluster.
        assert_eq!(
            labeler.label_point(&Transaction::from([1, 2, 4]), &Jaccard),
            Some(0)
        );
    }

    #[test]
    fn parallel_labeling_matches_serial() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        let data: Vec<Transaction> = (0..3000u32)
            .map(|i| match i % 3 {
                0 => Transaction::from([1, 2, 3]),
                1 => Transaction::from([10, 11, 12]),
                _ => Transaction::from([70 + i % 5, 90 + i % 7]),
            })
            .collect();
        let serial = oracle(&labeler, &data, &Jaccard);
        for threads in [1, 2, 3, 8] {
            let par = labeler
                .label_all(&data, &Jaccard, threads, &RunGovernor::unlimited())
                .unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn cost_based_cutoff_parallelises_small_data_over_big_sets() {
        // 200 points × 600 set points = 120k score evaluations — well
        // past the cost cutoff even though the old `len < 1024` bailout
        // would have forced this serial.
        let sample: Vec<Transaction> = (0..600u32)
            .map(|i| {
                let base = if i < 300 { 0 } else { 100 };
                Transaction::from([base + i % 7, base + i % 11 + 20, base + i % 13 + 40])
            })
            .collect();
        let clusters = vec![(0..300).collect(), (300..600).collect()];
        let labeler = Labeler::full(&sample, &clusters, 0.2, 1.0 / 3.0);
        let data: Vec<Transaction> = (0..200u32)
            .map(|i| {
                let base = if i % 2 == 0 { 0 } else { 100 };
                Transaction::from([base + i % 7, base + i % 11 + 20])
            })
            .collect();
        let serial = oracle(&labeler, &data, &Jaccard);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                labeler
                    .label_all(&data, &Jaccard, threads, &RunGovernor::unlimited())
                    .unwrap(),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn governed_labeling_matches_parallel_and_observes_kills() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        let data: Vec<Transaction> = (0..Labeler::<Transaction>::GOVERNED_BATCH as u32 + 500)
            .map(|i| match i % 3 {
                0 => Transaction::from([1, 2, 3]),
                1 => Transaction::from([10, 11, 12]),
                _ => Transaction::from([70 + i % 5, 90 + i % 7]),
            })
            .collect();
        let serial = oracle(&labeler, &data, &Jaccard);
        for threads in [1, 2, 3, 8] {
            let governed = labeler
                .label_all(&data, &Jaccard, threads, &RunGovernor::unlimited())
                .unwrap();
            assert_eq!(governed, serial, "threads={threads}");
        }
        // An injected kill at batch 1 stops after the first batch.
        let killer = RunGovernor::unlimited().with_kill_at(Phase::Labeling, 1);
        assert!(matches!(
            labeler.label_all(&data, &Jaccard, 2, &killer),
            Err(RockError::Interrupted {
                phase: Phase::Labeling,
                ..
            })
        ));
    }

    #[test]
    fn bad_parameters_are_typed_errors_not_panics() {
        let (sample, clusters) = two_cluster_sample();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            Labeler::new(&sample, &clusters, 0.0, 0.4, 0.3, &mut rng),
            Err(RockError::InvalidLabelingFraction(_))
        ));
        assert!(matches!(
            Labeler::new(&sample, &clusters, 1.5, 0.4, 0.3, &mut rng),
            Err(RockError::InvalidLabelingFraction(_))
        ));
        assert!(matches!(
            Labeler::new(&sample, &clusters, f64::NAN, 0.4, 0.3, &mut rng),
            Err(RockError::InvalidLabelingFraction(_))
        ));
        assert!(matches!(
            Labeler::new(&sample, &clusters, 0.5, 1.4, 0.3, &mut rng),
            Err(RockError::InvalidTheta(_))
        ));
        let labeler = Labeler::full(&sample, &clusters, 0.4, 0.3);
        assert!(matches!(
            labeler.label_all(&sample, &Jaccard, 0, &RunGovernor::unlimited()),
            Err(RockError::InvalidThreads(0))
        ));
    }

    #[test]
    fn checked_labeling_matches_unchecked_on_finite_measures() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        for p in [
            Transaction::from([1, 3, 4]),
            Transaction::from([10, 12, 13]),
            Transaction::from([77, 88]),
        ] {
            assert_eq!(
                labeler.label_point_checked(&p, &Jaccard).unwrap(),
                labeler.label_point(&p, &Jaccard)
            );
        }
    }

    #[test]
    fn checked_labeling_surfaces_nan_similarity() {
        struct AlwaysNan;
        impl Similarity<Transaction> for AlwaysNan {
            fn similarity(&self, _: &Transaction, _: &Transaction) -> f64 {
                f64::NAN
            }
        }
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        let q = Transaction::from([1, 2, 3]);
        // Unchecked: NaN silently means "no neighbors anywhere" → outlier.
        assert_eq!(labeler.label_point(&q, &AlwaysNan), None);
        // Checked: a typed error instead.
        assert!(matches!(
            labeler.label_point_checked(&q, &AlwaysNan),
            Err(RockError::NonFiniteSimilarity { .. })
        ));
    }
}
