//! The two workloads, generated in-process from the run's seed.
//!
//! Both have the same shape: a batch fit (timed at 1 and 2 threads) and
//! an online phase, a closed loop with one caller over
//! `OnlineAssignService` that assigns each batch of arrivals one query
//! at a time and then absorbs it. What differs is which layer dominates:
//!
//! * `basket_sampled` — §5.3 baskets at a fifth of the paper's size,
//!   sampled to 2,000 points under `Jaccard`: the fit is dominated by
//!   §4.6 labeling of all 22,917 baskets. Its arrivals are 40 batches
//!   of 128 from a fresh draw of the same generator, outliers included.
//! * `basket_online` — a ten-cluster drifting stream with the paper's
//!   item counts: a small fit on the first two windows, then the other
//!   eight windows per pass in 208 batches of 64; the online loop
//!   dominates the run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rock_core::points::Transaction;
use rock_core::util::splitmix64;
use rock_data::{generate_baskets, generate_drift_stream, DriftStreamSpec, SyntheticBasketSpec};

/// The workload names, as given to `--workload`.
pub const NAMES: [&str; 2] = ["basket_sampled", "basket_online"];

/// ROCK parameters of a workload's fit.
#[derive(Clone, Copy, Debug)]
pub struct FitParams {
    /// Similarity threshold θ.
    pub theta: f64,
    /// Target cluster count.
    pub k: usize,
    /// Points drawn for clustering; the rest are labeled.
    pub sample_size: usize,
    /// Seed of the fit's sampling and labeling draws.
    pub seed: u64,
}

/// A generated workload.
pub struct Workload {
    /// Baskets the batch fit clusters and the servable model is fitted on.
    pub data: Vec<Transaction>,
    /// Generator truth per basket (`None` = generated outlier).
    pub truth: Vec<Option<usize>>,
    /// Fit parameters.
    pub params: FitParams,
    /// Arrivals of one online pass, a whole number of batches.
    pub arrivals: Vec<Transaction>,
    /// Arrivals per online batch.
    pub batch: usize,
}

/// Mixes the run seed into an independent stream seed.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `count` arrivals from `baskets`, a fresh draw of the generator that
/// the model was not fitted on, outliers included. The generator emits
/// its baskets cluster by cluster with the outliers last, so the draw is
/// shuffled before the first `count` are taken.
fn arrivals_from(
    mut baskets: Vec<Transaction>,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Transaction> {
    for i in (1..baskets.len()).rev() {
        let j = rng.random_range(0..=i);
        baskets.swap(i, j);
    }
    baskets.truncate(count);
    baskets
}

/// Generates workload `name` from `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let mut data_rng = StdRng::seed_from_u64(derive_seed(seed, 1));
    let mut order_rng = StdRng::seed_from_u64(derive_seed(seed, 2));
    let fit_seed = derive_seed(seed, 3);
    let mut arrival_rng = StdRng::seed_from_u64(derive_seed(seed, 4));
    match name {
        "basket_sampled" => {
            let spec = SyntheticBasketSpec::paper_scaled(0.2);
            let data = generate_baskets(&spec, &mut data_rng);
            let fresh = generate_baskets(&spec, &mut arrival_rng);
            // The default staleness policy re-merges once 64 absorbed
            // points are pending. A batch of 64 with any outlier leaves
            // fewer, so 64-arrival batches alternate between absorbs with
            // and without a re-merge, half and half, and the absorb
            // median falls between the two latency modes, on one side or
            // the other depending on the seed. Batches of 128 re-merge
            // on every absorb.
            let batch = 128;
            let arrivals = arrivals_from(fresh.transactions, 40 * batch, &mut order_rng);
            Some(Workload {
                data: data.transactions,
                truth: data.labels,
                params: FitParams {
                    theta: 0.5,
                    k: 10,
                    sample_size: 2000,
                    seed: fit_seed,
                },
                arrivals,
                batch,
            })
        }
        "basket_online" => {
            let paper = SyntheticBasketSpec::paper();
            let weights: Vec<f64> = paper.cluster_sizes.iter().map(|&s| s as f64).collect();
            let spec = DriftStreamSpec {
                cluster_item_counts: paper.cluster_item_counts.clone(),
                shared_fraction: paper.shared_fraction,
                initial_weights: weights.clone(),
                final_weights: weights.into_iter().rev().collect(),
                num_windows: 10,
                window_size: 1664,
                outlier_fraction: 0.05,
                size_dist: paper.size_dist,
                size_bounds: paper.size_bounds,
            };
            let stream = generate_drift_stream(&spec, &mut data_rng);
            let (head, tail) = stream.windows.split_at(2);
            Some(Workload {
                data: head
                    .iter()
                    .flat_map(|w| w.transactions.iter().cloned())
                    .collect(),
                truth: head.iter().flat_map(|w| w.labels.iter().copied()).collect(),
                params: FitParams {
                    theta: 0.5,
                    k: 10,
                    sample_size: 1000,
                    seed: fit_seed,
                },
                arrivals: tail
                    .iter()
                    .flat_map(|w| w.transactions.iter().cloned())
                    .collect(),
                batch: 64,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for name in NAMES {
            let a = generate(name, 7).expect("known workload");
            let b = generate(name, 7).expect("known workload");
            assert_eq!(a.arrivals, b.arrivals);
            assert_eq!(a.data, b.data);
            assert_eq!(a.arrivals.len() % a.batch, 0);
            let c = generate(name, 8).expect("known workload");
            assert_ne!(a.arrivals, c.arrivals);
        }
        assert!(generate("nope", 7).is_none());
    }
}
