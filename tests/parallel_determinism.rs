//! Property tests for the parallel kernels' determinism contract: for any
//! input and ANY thread count, the neighbor, link and labeling kernels
//! return results bit-identical to the sequential reference kernels in
//! `tests/common` (or, for the streaming driver, to its one-thread pass).
//!
//! This is the guarantee that lets `RockConfig::threads` be a pure
//! performance knob — turning it up can never change a clustering, a
//! label, a checkpoint or a quarantine decision. See DESIGN.md
//! ("Performance model") for why each kernel is shard-invariant by
//! construction; these tests enforce it empirically over random inputs.

mod common;

use proptest::collection;
use proptest::prelude::*;
use rock::governor::RunGovernor;
use rock::labeling::Labeler;
use rock::links_matrix::{LinkKernel, LinkMatrix};
use rock::neighbors::NeighborGraph;
use rock::points::Transaction;
use rock::similarity::{Jaccard, PointsWith};
use rock_data::packed::PackedBaskets;
use rock_data::resilient::label_stream_resilient;
use rock_data::ResilientConfig;
use std::io::BufReader;

/// A random basket set: up to `max_n` transactions over a small item
/// universe so θ-neighborhoods are non-trivial.
fn baskets(max_n: usize) -> impl Strategy<Value = Vec<Transaction>> {
    collection::vec(collection::vec(0u32..60, 1..6), 8..max_n)
        .prop_map(|items| items.into_iter().map(Transaction::new).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn neighbors_parallel_is_bit_identical(
        ts in baskets(150),
        theta in 0.05f64..0.95,
        threads in 2usize..9,
    ) {
        let points = PointsWith::new(&ts, Jaccard);
        let serial = common::neighbors_oracle(&points, theta);
        let packed = PackedBaskets::new(&ts);
        for t in [1, 2, 3, 8, threads] {
            let parallel = NeighborGraph::build(&points, theta, t).unwrap();
            prop_assert_eq!(&parallel, &serial, "threads = {}", t);
            // The packed popcount substrate yields the same graph too.
            prop_assert_eq!(
                &NeighborGraph::build(&packed, theta, t).unwrap(),
                &serial,
                "packed, threads = {}", t
            );
        }
    }

    #[test]
    fn link_kernels_are_thread_count_invariant(
        ts in baskets(120),
        theta in 0.1f64..0.9,
        threads in 2usize..9,
    ) {
        let graph = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), theta, 1).unwrap();
        let links = |threads, kernel| LinkMatrix::compute_kernel(&graph, threads, kernel).unwrap();
        let seq = links(1, LinkKernel::Sparse);
        prop_assert_eq!(&links(threads, LinkKernel::Sparse), &seq);
        prop_assert_eq!(&links(threads, LinkKernel::Dense), &seq);
        prop_assert_eq!(&LinkMatrix::compute_auto(&graph, threads).unwrap(), &seq);
        // Cross-check against the Fig.-4 hash-map reference.
        prop_assert_eq!(seq.iter_upper().collect::<Vec<_>>(), common::links_oracle(&graph));
    }

    #[test]
    fn labeling_parallel_is_bit_identical(
        ts in baskets(60),
        repeat in 1usize..30,
        threads in 2usize..9,
    ) {
        // The sample clusters: first half vs second half of the baskets.
        let mid = ts.len() / 2;
        let clusters = vec![
            (0..mid as u32).collect::<Vec<_>>(),
            (mid as u32..ts.len() as u32).collect::<Vec<_>>(),
        ];
        let labeler = Labeler::full(&ts, &clusters, 0.4, 1.0 / 3.0);
        // Tile the data past the serial-fallback cutoff when repeat is
        // large, so both the fallback and the true parallel path run.
        let data: Vec<Transaction> = ts
            .iter()
            .cycle()
            .take(ts.len() * repeat)
            .cloned()
            .collect();
        let serial = common::labeling_oracle(&labeler, &data, &Jaccard);
        for t in [1, 2, 3, 8, threads] {
            let parallel = labeler
                .label_all(&data, &Jaccard, t, &RunGovernor::unlimited())
                .unwrap();
            prop_assert_eq!(&parallel, &serial, "threads = {}", t);
        }
    }

    #[test]
    fn resilient_labeling_parallel_is_bit_identical(
        lines in collection::vec(0u32..6, 1..120),
        threads in 2usize..9,
        checkpoint_every in 1u64..40,
    ) {
        // Encode each draw as a stream line: labels, outliers, comments,
        // blanks and garbage all mixed in.
        let input: String = lines
            .iter()
            .map(|&k| match k {
                0 => "1 2 3\n",
                1 => "10 11 12\n",
                2 => "90 91 92\n", // outlier
                3 => "# comment\n",
                4 => "\n",
                _ => "not a number\n",
            })
            .collect();
        let sample = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([10, 11, 13]),
        ];
        let clusters = vec![vec![0, 1], vec![2, 3]];
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        let config = ResilientConfig {
            checkpoint_every,
            ..ResilientConfig::default()
        };
        let mut seq_cps = Vec::new();
        let seq = label_stream_resilient(
            BufReader::new(input.as_bytes()),
            &labeler,
            &Jaccard,
            &config,
            None,
            |cp| seq_cps.push(cp.clone()),
            1,
            &RunGovernor::unlimited(),
        );
        let mut par_cps = Vec::new();
        let par = label_stream_resilient(
            BufReader::new(input.as_bytes()),
            &labeler,
            &Jaccard,
            &config,
            None,
            |cp| par_cps.push(cp.clone()),
            threads,
            &RunGovernor::unlimited(),
        );
        prop_assert_eq!(&par_cps, &seq_cps);
        match (seq, par) {
            (Ok(s), Ok(p)) => {
                prop_assert_eq!(p.labeling, s.labeling);
                prop_assert_eq!(p.checkpoint, s.checkpoint);
            }
            // Garbage-heavy streams overflow the default quarantine cap;
            // the salvage state must still match exactly.
            (Err(s), Err(p)) => {
                prop_assert_eq!(p.line, s.line);
                prop_assert_eq!(p.checkpoint, s.checkpoint);
                prop_assert_eq!(p.partial_assignments, s.partial_assignments);
            }
            (s, p) => {
                return Err(TestCaseError::fail(format!(
                    "drivers disagree on success: seq ok={} par ok={}",
                    s.is_ok(),
                    p.is_ok()
                )));
            }
        }
    }
}
