//! Order statistics over per-session timings.

/// Minimum number of samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail percentile with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Whole percentile, 50..=99.
    pub pct: u32,
    /// Nearest-rank value at `pct`.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// The highest whole percentile (from 50 up to 99) whose nearest-rank
/// sample has at least `beyond` samples above it; `None` when even the
/// median has fewer.
pub fn tail(xs: &[f64], beyond: usize) -> Option<Tail> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (50..=99u32).rev().find_map(|pct| {
        let rank = (pct as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= beyond).then(|| Tail {
            pct,
            value: s[rank - 1],
            n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        // 100 samples: p90 is the 90th value, with exactly 10 above it.
        let t = tail(&seq(100), TAIL_BEYOND).unwrap();
        assert_eq!((t.pct, t.value, t.n), (90, 90.0, 100));
        // 1000 samples: p99 has exactly 10 above it.
        let t = tail(&seq(1000), TAIL_BEYOND).unwrap();
        assert_eq!((t.pct, t.value), (99, 990.0));
        // 78 samples: p87 ranks 68 (ceil 67.86), leaving 10 above; p88
        // ranks 69 and would leave only 9.
        let t = tail(&seq(78), TAIL_BEYOND).unwrap();
        assert_eq!((t.pct, t.value), (87, 68.0));
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs = seq(40);
        xs.reverse();
        assert_eq!(tail(&xs, TAIL_BEYOND), tail(&seq(40), TAIL_BEYOND));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert!(tail(&seq(19), TAIL_BEYOND).is_none());
        let t = tail(&seq(20), TAIL_BEYOND).unwrap();
        assert_eq!((t.pct, t.value), (50, 10.0));
    }
}
