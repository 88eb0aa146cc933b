//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus one tail percentile fixed per
//! workload, with the sample count. The tail is reported only when at
//! least [`TAIL_BEYOND`] samples lie beyond it; a workload runs at least
//! [`samples_for_tail`] iterations so that it is. Quartiles follow
//! Python's `statistics.quantiles(data, n=4)` (the default "exclusive"
//! method), so spreads computed here match the ones computed over a set of
//! result files.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by Python's
/// `statistics.quantiles(xs, n=4)`. `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Nearest rank of the `pct` percentile among `n` samples (1-based).
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Fewest samples for which the `pct` percentile has [`TAIL_BEYOND`]
/// samples beyond it (`pct` < 100).
pub fn samples_for_tail(pct: u32) -> usize {
    (1..)
        .find(|&n| n - rank(n, pct) >= TAIL_BEYOND)
        .unwrap_or(usize::MAX)
}

/// The nearest-rank `pct` percentile of `xs`, or `None` when fewer than
/// [`TAIL_BEYOND`] samples lie beyond it.
pub fn tail(xs: &[f64], pct: u32) -> Option<f64> {
    let v = sorted(xs);
    let r = rank(v.len(), pct);
    (v.len() >= r + TAIL_BEYOND).then(|| v[r - 1])
}

/// Median, tail and count of one timing.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// The tail percentile reported.
    pub tail_pct: u32,
    /// Its value; `None` when too few samples lie beyond it.
    pub tail: Option<f64>,
    /// Distance between the first and third quartiles (0 below two
    /// samples).
    pub iqr: f64,
}

impl Summary {
    /// Summarises a sample set with its `tail_pct` percentile.
    pub fn of(xs: &[f64], tail_pct: u32) -> Summary {
        Summary {
            n: xs.len(),
            median: median(xs),
            tail_pct,
            tail: tail(xs, tail_pct),
            iqr: quartiles(xs).map_or(0.0, |(q1, _, q3)| q3 - q1),
        }
    }

    /// `median=… p90=… iqr=… n=…` in the given scale (e.g. 1e6 for µs
    /// of a seconds sample).
    pub fn describe(&self, scale: f64) -> String {
        let tail = self
            .tail
            .map_or_else(|| "n/a".to_owned(), |v| format!("{:.4}", v * scale));
        format!(
            "median={:.4} p{}={tail} iqr={:.4} n={}",
            self.median * scale,
            self.tail_pct,
            self.iqr * scale,
            self.n
        )
    }

    /// An error line when the tail percentile has too few samples beyond
    /// it to be reported.
    pub fn tail_error(&self, what: &str) -> Option<String> {
        self.tail.is_none().then(|| {
            format!(
                "{what}: {} samples leave fewer than {TAIL_BEYOND} beyond p{} (need {})",
                self.n,
                self.tail_pct,
                samples_for_tail(self.tail_pct)
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: the clamped
        // index extrapolates past the ends.
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 6.0, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 99 samples: p90 has rank 90, only 9 beyond.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs, 90), None);
        // 100 samples: p90 has rank 90 and 10 beyond.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 90), Some(90.0));
        // The percentile stays fixed however many samples there are.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 90), Some(900.0));
        assert_eq!(tail(&xs, 99), Some(990.0));
        // 999 samples: p99 has rank 990 and only 9 beyond.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs, 99), None);
        assert_eq!(tail(&[], 90), None);
    }

    #[test]
    fn samples_for_tail_is_the_first_count_with_ten_beyond() {
        assert_eq!(samples_for_tail(50), 20);
        assert_eq!(samples_for_tail(90), 100);
        assert_eq!(samples_for_tail(99), 1000);
        for pct in [50, 75, 90, 95, 99] {
            let n = samples_for_tail(pct);
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            assert!(tail(&xs, pct).is_some());
            assert!(tail(&xs[1..], pct).is_none());
        }
    }

    #[test]
    fn summary_withholds_a_thin_tail() {
        let s = Summary::of(&[5.0, 1.0, 3.0], 90);
        assert_eq!((s.n, s.median, s.tail), (3, 3.0, None));
        assert!(s.tail_error("run").is_some());
        // statistics.quantiles([1, 3, 5], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(s.iqr, 4.0);
    }
}
