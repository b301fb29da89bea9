//! Order statistics the benchmark reports: medians, and the tail as the
//! highest percentile that still has ten samples beyond it.

/// How many samples must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values when the count is even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a sample: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, 0–100 (`rank / n`).
    pub pct: f64,
    /// Whether the sample was too small to leave ten beyond any value;
    /// the tail is then the maximum.
    pub short: bool,
}

/// Sorted ascending, the `k`-th smallest sample has `n - k` samples above
/// it, so the highest rank with ten beyond it is `k = n - 10`. With ten or
/// fewer samples no rank qualifies and the maximum is reported, marked
/// [`Tail::short`].
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: s[n - 1],
            pct: 100.0,
            short: true,
        };
    }
    let k = n - TAIL_BEYOND;
    Tail {
        value: s[k - 1],
        pct: 100.0 * k as f64 / n as f64,
        short: false,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100 shuffled: the tail is the 90th value, p90.
        let xs: Vec<f64> = (1..=100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert!(!t.short);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_of_eleven_samples_is_the_minimum() {
        let xs: Vec<f64> = (0..11).map(f64::from).rev().collect();
        let t = tail(&xs);
        assert_eq!(t.value, 0.0);
        assert!((t.pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn short_sample_reports_the_maximum() {
        let t = tail(&[5.0, 9.0, 1.0]);
        assert_eq!(
            t,
            Tail {
                value: 9.0,
                pct: 100.0,
                short: true
            }
        );
        assert!(tail(&[1.0; 10]).short);
    }

    #[test]
    fn tail_with_ties_counts_ranks() {
        // Twenty equal samples: rank 10 has ten beyond it by position.
        let t = tail(&[4.0; 20]);
        assert_eq!(t.value, 4.0);
        assert_eq!(t.pct, 50.0);
    }
}
