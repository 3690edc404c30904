//! The batch fit, untraced through `Rock::try_run` and traced as the
//! same Fig.-2 stage composition with a span around each stage.

use crate::trace::Tracer;
use crate::workload::FitParams;
use rock_core::engine::{LabelStage, LinksStage, MergeStage, NeighborsStage, SampleStage};
use rock_core::goodness::{ConstantF, Goodness};
use rock_core::labeling::Labeler;
use rock_core::links_matrix::{LinkKernel, LinkMatrix};
use rock_core::perf;
use rock_core::points::Transaction;
use rock_core::{
    CheckedSimilarity, Jaccard, PointsWith, Rock, RockAlgorithm, RockError, RockResult, Similarity,
};
use std::time::Instant;

/// `Rock` configured with `params` at `threads` worker threads.
pub fn rock(params: &FitParams, threads: usize) -> Rock {
    Rock::builder()
        .theta(params.theta)
        .clusters(params.k)
        .sample_size(params.sample_size)
        .seed(params.seed)
        .threads(threads)
        .build()
        .expect("workload parameters are valid")
}

/// One untraced fit; returns its wall time in seconds.
pub fn untraced(
    data: &[Transaction],
    params: &FitParams,
    threads: usize,
) -> (f64, Result<RockResult, RockError>) {
    let rock = rock(params, threads);
    let start = Instant::now();
    let result = rock.try_run(data, &Jaccard).map(|(result, _report)| result);
    (start.elapsed().as_secs_f64(), result)
}

/// Work counts of one traced fit, read outside the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct FitCounts {
    /// Similarities the neighbor scan evaluated.
    pub neighbor_pairs: u64,
    /// θ-neighbor edges found.
    pub neighbor_edges: u64,
    /// Link pairs the link kernel emitted.
    pub link_pairs: u64,
    /// Bytes held by the link matrix.
    pub link_bytes: u64,
    /// 1 when the dense link kernel ran, 0 for the sparse one.
    pub links_dense: u64,
    /// Merges the Fig.-3 loop performed.
    pub merges: u64,
    /// Clusters the merge loop ended with.
    pub clusters: u64,
    /// (point, representative) similarities labeling evaluated.
    pub rep_pairs: u64,
    /// Points labeling left as outliers.
    pub label_outliers: u64,
}

/// The outputs of one traced fit.
pub struct TracedFit {
    /// The fit result, comparable with `Rock::try_run`'s.
    pub result: RockResult,
    /// Work counts of the fit's layers.
    pub counts: FitCounts,
    /// The clustered sample points.
    pub sample: Vec<Transaction>,
    /// The labeling sets Lᵢ the labeling stage drew.
    pub labeler: Labeler<Transaction>,
}

/// One fit composed stage by stage through the library's `Pipeline`,
/// in the order and with the RNG use of `Rock::try_run`, with a span
/// around the whole fit (`fit`) and around each stage. The work counts
/// come from the library's `perf` counters, read between the stages
/// outside the spans; nothing else may run in the process meanwhile.
pub fn traced(
    tracer: &mut Tracer,
    op: u64,
    data: &[Transaction],
    params: &FitParams,
    threads: usize,
) -> Result<TracedFit, RockError> {
    let root = tracer.enter("fit", op);
    let fit = compose(tracer, op, data, params, threads);
    tracer.close_to(root);
    fit
}

fn compose(
    tracer: &mut Tracer,
    op: u64,
    data: &[Transaction],
    params: &FitParams,
    threads: usize,
) -> Result<TracedFit, RockError> {
    let rock = rock(params, threads);
    let config = *rock.config();
    let checked = CheckedSimilarity::new(&Jaccard);
    let mut pipeline = rock.session();

    let id = tracer.enter("sample", op);
    let sample_indices = pipeline.stage(SampleStage {
        data_len: data.len(),
        sample_size: config.sample_size,
    })?;
    let sample: Vec<Transaction> = sample_indices.iter().map(|&i| data[i].clone()).collect();
    tracer.exit(id);

    let pw = PointsWith::new(&sample, &checked);
    let before = perf::snapshot();
    let id = tracer.enter("neighbors", op);
    let graph = pipeline.stage(NeighborsStage {
        sim: &pw,
        theta: config.theta,
        threads,
    })?;
    tracer.exit(id);
    let neighbor_pairs = perf::snapshot().since(&before).sim_evals;
    if let Some(e) = checked.error() {
        return Err(e);
    }

    let before = perf::snapshot();
    let id = tracer.enter("links", op);
    let links = pipeline.stage(LinksStage {
        graph: &graph,
        threads,
    })?;
    tracer.exit(id);
    let link_pairs = perf::snapshot().since(&before).pairs_emitted;

    let goodness = Goodness::new(config.theta, ConstantF(config.ftheta), config.goodness_kind);
    let id = tracer.enter("merge", op);
    let sample_run = pipeline.stage(MergeStage {
        graph: &graph,
        links: Some(&links),
        algorithm: RockAlgorithm::new(goodness, config.k, config.outliers),
        threads,
    })?;
    tracer.exit(id);

    let before = perf::snapshot();
    let id = tracer.enter("label", op);
    let (labeler, labeling) = pipeline.stage(LabelStage {
        sample: &sample,
        clusters: &sample_run.clustering.clusters,
        data,
        measure: &checked,
        fraction: config.labeling_fraction,
        theta: config.theta,
        ftheta: config.ftheta,
        threads,
    })?;
    tracer.exit(id);
    let rep_pairs = perf::snapshot().since(&before).sim_evals;
    if let Some(e) = checked.error() {
        return Err(e);
    }

    let counts = FitCounts {
        neighbor_pairs,
        neighbor_edges: (0..graph.len())
            .map(|i| graph.degree(i) as u64)
            .sum::<u64>()
            / 2,
        link_pairs,
        link_bytes: links.memory_bytes() as u64,
        links_dense: u64::from(LinkMatrix::choose_kernel(&graph) == LinkKernel::Dense),
        merges: sample_run.merges.len() as u64,
        clusters: sample_run.clustering.num_clusters() as u64,
        rep_pairs,
        label_outliers: labeling.num_outliers as u64,
    };
    Ok(TracedFit {
        result: RockResult {
            sample_indices,
            sample_run,
            labeling,
        },
        counts,
        sample,
        labeler,
    })
}

/// Share of `pairs` whose similarity is exactly zero (no shared item) —
/// the work an exact item index could skip.
fn zero_share<'a>(pairs: impl Iterator<Item = (&'a Transaction, &'a Transaction)>) -> f64 {
    let (mut zero, mut all) = (0u64, 0u64);
    for (a, b) in pairs {
        all += 1;
        if Jaccard.similarity(a, b) <= 0.0 {
            zero += 1;
        }
    }
    if all == 0 {
        0.0
    } else {
        zero as f64 / all as f64
    }
}

/// Zero-similarity share of the neighbor scan's sample pairs.
pub fn neighbor_zero_share(sample: &[Transaction]) -> f64 {
    zero_share(
        sample
            .iter()
            .enumerate()
            .flat_map(|(i, a)| sample[i + 1..].iter().map(move |b| (a, b))),
    )
}

/// Zero-similarity share of labeling's (point, representative) pairs.
pub fn label_zero_share(data: &[Transaction], labeler: &Labeler<Transaction>) -> f64 {
    zero_share(
        data.iter()
            .flat_map(|p| labeler.sets().iter().flatten().map(move |r| (p, r))),
    )
}
