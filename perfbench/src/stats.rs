//! Percentiles with an honest sample-count rule.
//!
//! Every timing is reported as a median plus the highest percentile
//! that still has at least [`MIN_BEYOND`] samples beyond it, together
//! with the sample count. Percentiles are nearest-rank over the exact
//! samples (no histogram bucketing), in per-mille so the arithmetic is
//! integer and exact.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the top down, in per-mille.
const TAIL_LADDER: [u32; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// 1-based nearest rank of per-mille percentile `pm` among `n` sorted
/// samples: the smallest rank covering `pm / 1000` of them.
fn rank(n: usize, pm: u32) -> usize {
    (n * pm as usize).div_ceil(1000).max(1)
}

/// Whether percentile `pm` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn qualifies(n: usize, pm: u32) -> bool {
    n > 0 && n - rank(n, pm) >= MIN_BEYOND
}

/// Fewest samples for which percentile `pm` qualifies.
pub fn min_samples(pm: u32) -> usize {
    (1..).find(|&n| qualifies(n, pm)).expect("some sample count qualifies")
}

/// Nearest-rank percentile of ascending `sorted` samples.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pm: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pm) - 1]
}

/// Median of unsorted values (upper median for even counts, matching
/// the nearest-rank rule). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    Some(percentile(&v, 500))
}

/// Distribution summary of one timing.
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarize `samples` (any order).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    /// Sample count.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `pm` if it qualifies under the sample-count rule.
    pub fn get(&self, pm: u32) -> Option<f64> {
        qualifies(self.count(), pm).then(|| percentile(&self.sorted, pm))
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The highest ladder percentile that qualifies, as
    /// `(per-mille, value)`.
    pub fn tail(&self) -> Option<(u32, f64)> {
        TAIL_LADDER.iter().find_map(|&pm| self.get(pm).map(|v| (pm, v)))
    }

    /// One human-readable line: median, the highest qualifying tail
    /// percentile, and the sample count.
    pub fn describe(&self, unit: &str) -> String {
        let n = self.count();
        let p50 = self.get(500).map_or("n/a".into(), |v| format!("{v:.4} {unit}"));
        let tail = self
            .tail()
            .filter(|&(pm, _)| pm > 500)
            .map_or("n/a".into(), |(pm, v)| format!("p{} {v:.4} {unit}", pm as f64 / 10.0));
        format!("p50 {p50}, {tail} (n={n})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_floors_for_named_percentiles() {
        assert_eq!(min_samples(500), 20);
        assert_eq!(min_samples(900), 100);
        assert_eq!(min_samples(990), 1000);
        assert!(qualifies(1000, 990));
        assert!(!qualifies(999, 990));
        assert!(!qualifies(0, 500));
    }

    #[test]
    fn nearest_rank_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_reports_the_highest_qualifying_tail_with_its_count() {
        let s = Summary::new((1..=100).map(f64::from).collect());
        assert_eq!(s.get(990), None, "100 samples cannot support p99");
        assert_eq!(s.get(900), Some(90.0));
        assert_eq!(s.tail(), Some((900, 90.0)));
        assert!(s.describe("ms").contains("p90 90.0000 ms (n=100)"));
        let s = Summary::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.tail(), Some((990, 990.0)));
        assert_eq!(Summary::new(vec![1.0; 5]).tail(), None);
    }
}
