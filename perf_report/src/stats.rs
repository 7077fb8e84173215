//! Sample statistics: medians, percentiles, and the rule for which tail
//! percentile a sample set is large enough to report.

/// Nearest-rank percentile of an ascending-sorted slice, `p` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    // The epsilon keeps 0.9 * 100 = 90.00000000000001 from rounding up a rank.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median_sorted(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample set");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// The highest of p90 / p99 / p99.9 that still has at least ten samples
/// beyond it, or `None` below 100 samples: a tail read from fewer than ten
/// points does not repeat.
pub fn highest_supported_tail(n: usize) -> Option<(&'static str, f64)> {
    // (label, p, p as a fraction): the nearest rank is computed in integers.
    [
        ("p99.9", 0.999, (999, 1000)),
        ("p99", 0.99, (99, 100)),
        ("p90", 0.90, (9, 10)),
    ]
    .into_iter()
    .find(|&(_, _, (num, den))| n - (n * num).div_ceil(den) >= 10)
    .map(|(label, p, _)| (label, p))
}

/// Median plus supported tail of one timing series, with its sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: Option<(&'static str, f64)>,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        p50: median_sorted(&v),
        tail: highest_supported_tail(v.len()).map(|(label, p)| (label, percentile_sorted(&v, p))),
    }
}

impl Summary {
    /// `12.345 (n=40, p90 14.2)` — every median is printed with its count.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((label, v)) => format!("{:.4} (n={}, {label} {v:.4})", self.p50, self.n),
            None => format!("{:.4} (n={})", self.p50, self.n),
        }
    }
}

/// SplitMix64: the harness's only random source (job order, patch order,
/// replay order), so `--seed` fixes every generated input.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.90), 90.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100).map(|t| t.0), Some("p90"));
        assert_eq!(highest_supported_tail(999).map(|t| t.0), Some("p90"));
        assert_eq!(highest_supported_tail(1000).map(|t| t.0), Some("p99"));
        assert_eq!(highest_supported_tail(10_000).map(|t| t.0), Some("p99.9"));
        let s = summarize(&(1..=40).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.n, s.p50, s.tail), (40, 20.5, None));
        let s = summarize(&(1..=200).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, Some(("p90", 180.0)));
    }

    #[test]
    fn splitmix_is_deterministic_and_shuffles_in_place() {
        let mut a = SplitMix64(7);
        let mut b = SplitMix64(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<u32> = (0..16).collect();
        a.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(
            items, sorted,
            "a 16-element shuffle that is the identity is a bug"
        );
    }
}
