//! The correctness gate: every fit of a workload (1 and 2 threads,
//! traced stage composition and `Rock::try_run`) must produce the same
//! result bit for bit, and the traced online replay must assign every
//! query and evolve the model exactly as the untraced service did.

use rock_core::RockResult;

/// Everything a fit decides, in a comparable form. Merge goodness is
/// compared by its bit pattern, so "equal" means bit-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FitImage {
    /// Indices of the clustered sample.
    pub sample_indices: Vec<usize>,
    /// Sample clusters (sample-relative ids).
    pub clusters: Vec<Vec<u32>>,
    /// Sample outliers.
    pub outliers: Vec<u32>,
    /// Merge trace: (left, right, merged, cross links, goodness bits).
    pub merges: Vec<(u32, u32, u32, u64, u64)>,
    /// Per-point labels over the whole input.
    pub labels: Vec<Option<usize>>,
}

impl FitImage {
    /// Captures `result`.
    pub fn of(result: &RockResult) -> Self {
        FitImage {
            sample_indices: result.sample_indices.clone(),
            clusters: result.sample_run.clustering.clusters.clone(),
            outliers: result.sample_run.clustering.outliers.clone(),
            merges: result
                .sample_run
                .merges
                .iter()
                .map(|m| {
                    (
                        m.left,
                        m.right,
                        m.merged,
                        m.cross_links,
                        m.goodness.to_bits(),
                    )
                })
                .collect(),
            labels: result.labeling.assignments.clone(),
        }
    }

    /// `Err` names the first part of `self` that differs from `reference`.
    pub fn check_against(&self, reference: &FitImage, what: &str) -> Result<(), String> {
        check_seq(
            "sample indices",
            &reference.sample_indices,
            &self.sample_indices,
        )
        .and_then(|()| check_seq("sample clusters", &reference.clusters, &self.clusters))
        .and_then(|()| check_seq("sample outliers", &reference.outliers, &self.outliers))
        .and_then(|()| check_seq("merge trace", &reference.merges, &self.merges))
        .and_then(|()| check_seq("labels", &reference.labels, &self.labels))
        .map_err(|e| format!("{what}: {e}"))
    }
}

/// `Err` names the first index at which `got` differs from `want`, or
/// the length mismatch.
pub fn check_seq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    want: &[T],
    got: &[T],
) -> Result<(), String> {
    if let Some(i) = want.iter().zip(got).position(|(a, b)| a != b) {
        return Err(format!(
            "{what} differ at index {i}: expected {:?}, got {:?}",
            want[i], got[i]
        ));
    }
    if want.len() != got.len() {
        return Err(format!(
            "{what} differ in length: expected {}, got {}",
            want.len(),
            got.len()
        ));
    }
    Ok(())
}

/// What one pass of the online loop decided.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OnlineImage {
    /// Assignment of every query, in order (`None` = outlier or failed).
    pub assignments: Vec<Option<usize>>,
    /// Digest of the evolved model after the last absorb.
    pub digest: u32,
}

impl OnlineImage {
    /// `Err` describes the first difference from `reference`.
    pub fn check_against(&self, reference: &OnlineImage, what: &str) -> Result<(), String> {
        check_seq(
            "query assignments",
            &reference.assignments,
            &self.assignments,
        )
        .and_then(|()| {
            if self.digest == reference.digest {
                Ok(())
            } else {
                Err(format!(
                    "final model digests differ: expected {:08x}, got {:08x}",
                    reference.digest, self.digest
                ))
            }
        })
        .map_err(|e| format!("{what}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> FitImage {
        FitImage {
            sample_indices: vec![0, 2, 5],
            clusters: vec![vec![0, 1]],
            outliers: vec![2],
            merges: vec![(0, 1, 3, 4, 0.5f64.to_bits())],
            labels: vec![Some(0), None, Some(0)],
        }
    }

    #[test]
    fn identical_fits_pass() {
        assert_eq!(image().check_against(&image(), "t2"), Ok(()));
    }

    #[test]
    fn label_and_merge_differences_are_named() {
        let mut got = image();
        got.labels[1] = Some(0);
        let err = got.check_against(&image(), "t2").unwrap_err();
        assert!(err.starts_with("t2: labels differ at index 1"), "{err}");

        let mut got = image();
        got.merges[0].4 = 0.5000000000000001f64.to_bits();
        let err = got.check_against(&image(), "traced").unwrap_err();
        assert!(err.contains("merge trace differ at index 0"), "{err}");
    }

    #[test]
    fn a_shorter_sequence_is_a_mismatch() {
        let err = check_seq("labels", &[Some(1), None], &[Some(1)]).unwrap_err();
        assert!(err.contains("length: expected 2, got 1"), "{err}");
    }

    #[test]
    fn online_digest_and_assignments_must_match() {
        let want = OnlineImage {
            assignments: vec![Some(1), None],
            digest: 0xdead_beef,
        };
        assert_eq!(want.check_against(&want, "replay"), Ok(()));
        let other_digest = OnlineImage {
            digest: 0xdead_bee0,
            ..want.clone()
        };
        let err = other_digest.check_against(&want, "replay").unwrap_err();
        assert!(err.contains("digests differ"), "{err}");
        let other_query = OnlineImage {
            assignments: vec![Some(1), Some(0)],
            ..want.clone()
        };
        let err = other_query.check_against(&want, "replay").unwrap_err();
        assert!(err.contains("query assignments differ at index 1"), "{err}");
    }
}
