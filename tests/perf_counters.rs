//! Work counters count the work done, so their totals are identical at
//! every thread count — including the one-thread path.
//!
//! The counters are process-global. This file is its own test binary
//! holding a single test, so no concurrent test adds to the deltas it
//! measures.

use rock::governor::RunGovernor;
use rock::labeling::Labeler;
use rock::neighbors::NeighborGraph;
use rock::perf;
use rock::points::Transaction;
use rock::rock::Rock;
use rock::similarity::{Jaccard, PointsWith};

#[test]
fn kernel_and_report_counters_match_across_thread_counts() {
    // 400 baskets in four item bands: 79,800 pairs and 160,000 labeling
    // scores, both past the kernels' parallel cutoffs.
    let data: Vec<Transaction> = (0..400u32)
        .map(|i| {
            let base = (i % 4) * 20;
            Transaction::from([
                base + i % 7,
                base + 7 + (i / 7) % 5,
                base + 12 + (i / 3) % 6,
            ])
        })
        .collect();
    let n = data.len() as u64;
    let points = PointsWith::new(&data, Jaccard);
    let clusters = vec![(0..200u32).collect::<Vec<_>>(), (200..400u32).collect()];
    let labeler = Labeler::full(&data, &clusters, 0.5, 1.0 / 3.0);
    let set_points: u64 = labeler.sets().iter().map(|s| s.len() as u64).sum();

    for threads in [1, 2, 8] {
        let before = perf::snapshot();
        NeighborGraph::build(&points, 0.5, threads).unwrap();
        assert_eq!(
            perf::snapshot().since(&before).sim_evals,
            n * (n - 1) / 2,
            "neighbor sim_evals at threads={threads}"
        );

        let before = perf::snapshot();
        labeler
            .label_all(&data, &Jaccard, threads, &RunGovernor::unlimited())
            .unwrap();
        assert_eq!(
            perf::snapshot().since(&before).sim_evals,
            n * set_points,
            "labeling sim_evals at threads={threads}"
        );
    }

    // The fit report attributes the labeling work at one thread exactly
    // as at two.
    let label_sims = |threads: usize| {
        let rock = Rock::builder()
            .theta(0.5)
            .clusters(4)
            .sample_size(120)
            .seed(3)
            .threads(threads)
            .build()
            .unwrap();
        let (_, report) = rock.try_run(&data, &Jaccard).unwrap();
        report
            .phase_counters("label")
            .unwrap_or_else(|| panic!("no label perf line at threads={threads}"))
            .sim_evals
    };
    let one = label_sims(1);
    assert!(one > 0);
    assert_eq!(one, label_sims(2));
}
