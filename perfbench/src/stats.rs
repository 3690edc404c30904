//! Order statistics for timings.
//!
//! Percentiles use the nearest-rank rule on integer basis points, so
//! `p99` of 1000 samples is exactly the 990th smallest sample with no
//! floating-point rounding in the rank. A failed operation is recorded
//! as `f64::INFINITY`: it sorts last and so misses every percentile it
//! reaches.

/// Samples that must lie strictly beyond a percentile before it may be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `bp`-basis-point percentile among `n`
/// samples (`bp` = 9900 is p99).
pub fn rank(n: usize, bp: u32) -> usize {
    let r = (n * bp as usize).div_ceil(10_000);
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the `bp` percentile.
pub fn beyond(n: usize, bp: u32) -> usize {
    n.saturating_sub(rank(n, bp))
}

/// The smallest sample count at which the `bp` percentile has
/// [`MIN_BEYOND`] samples beyond it.
pub fn min_samples(bp: u32) -> usize {
    (1..)
        .find(|&n| beyond(n, bp) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// The highest of `candidates` (basis points) that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_admissible(n: usize, candidates: &[u32]) -> Option<u32> {
    candidates
        .iter()
        .copied()
        .filter(|&bp| beyond(n, bp) >= MIN_BEYOND)
        .max()
}

/// Sorts a copy of `samples` (infinities last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank `bp` percentile of already sorted samples; NaN when
/// there are none.
pub fn percentile(sorted: &[f64], bp: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), bp) - 1]
}

/// Median, over consecutive blocks of `samples` taken in the order
/// they were measured, of each block's `bp` percentile. There are as
/// many blocks as can each hold [`min_samples`]`(bp)` samples, their
/// sizes differing by at most one, so every block's percentile obeys
/// the [`MIN_BEYOND`] rule. A burst of load that lands on a few blocks
/// moves the median of the blocks little, where it would move the
/// percentile of all samples pooled. NaN when not one block fits.
pub fn block_percentile(samples: &[f64], bp: u32) -> f64 {
    let n = samples.len();
    let blocks = n / min_samples(bp);
    let per_block: Vec<f64> = (0..blocks)
        .map(|i| percentile(&sorted(&samples[i * n / blocks..(i + 1) * n / blocks]), bp))
        .collect();
    median(&per_block)
}

/// Median (mean of the two middle samples for an even count); NaN when
/// there are none.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_at_round_counts() {
        assert_eq!(rank(1000, 9900), 990);
        assert_eq!(rank(100, 5000), 50);
        assert_eq!(rank(101, 5000), 51);
        assert_eq!(rank(1, 9900), 1);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 9900), 990.0);
        assert_eq!(percentile(&s, 5000), 500.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1000 leaves 10 beyond; of 999, only 9.
        assert_eq!(beyond(1000, 9900), 10);
        assert_eq!(beyond(999, 9900), 9);
        assert_eq!(min_samples(9900), 1000);
        assert_eq!(min_samples(9500), 200);
        assert_eq!(min_samples(5000), 20);
        let grid = [5000, 9000, 9500, 9900, 9990];
        assert_eq!(highest_admissible(208, &grid), Some(9500));
        assert_eq!(highest_admissible(13_312, &grid), Some(9990));
        assert_eq!(highest_admissible(1000, &grid), Some(9900));
        assert_eq!(highest_admissible(19, &grid), None);
    }

    #[test]
    fn failures_miss_every_percentile_they_reach() {
        let mut s: Vec<f64> = (1..=99).map(f64::from).collect();
        s.push(f64::INFINITY);
        let s = sorted(&s);
        assert_eq!(percentile(&s, 9900), 99.0);
        assert_eq!(percentile(&s, 10_000), f64::INFINITY);
    }

    #[test]
    fn block_percentile_takes_the_median_block() {
        // 3,000 samples make three blocks of 1,000 for p99.
        let mut s: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        assert_eq!(block_percentile(&s, 9900), 989.0);
        // A burst that fills the tail of one block leaves the median.
        for x in &mut s[1000..1100] {
            *x = 1e6;
        }
        assert_eq!(block_percentile(&s, 9900), 989.0);
        assert_eq!(percentile(&sorted(&s), 9900), 1e6);
        // Failures miss the percentile of the blocks they fall in.
        for x in &mut s[2000..2020] {
            *x = f64::INFINITY;
        }
        for x in &mut s[0..20] {
            *x = f64::INFINITY;
        }
        assert_eq!(block_percentile(&s, 9900), f64::INFINITY);
    }

    #[test]
    fn block_percentile_needs_one_whole_block() {
        let s: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(block_percentile(&s, 9900).is_nan());
        // 1,999 samples are one block, the same as pooling them.
        let s: Vec<f64> = (0..1999).map(f64::from).collect();
        assert_eq!(block_percentile(&s, 9900), percentile(&s, 9900));
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
