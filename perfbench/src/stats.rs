//! Order statistics and clustering quality shared by the workloads.

/// The percentiles a latency may be reported at, lowest first.
const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile `p` (0–100] of an ascending-sorted, non-empty
/// slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps decimal percentiles such as 99.9 from rounding up a whole rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n)
}

/// The highest of p50, p90, p99, … that has at least ten samples beyond its
/// rank among `n` samples, or `None` when even p50 has fewer than ten.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n - rank(n, p) >= 10)
}

/// The median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// A latency sample summarized the way every timing is reported: median,
/// the highest supported percentile, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    sorted: Vec<f64>,
}

impl Latency {
    /// Summarizes `samples` (any order).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Latency { sorted: samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `p`, or `None` when fewer than ten samples lie beyond it.
    pub fn at(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        (n > 0 && n - rank(n, p) >= 10).then(|| percentile(&self.sorted, p))
    }

    /// One human-readable line: `name: n=… p50=… pXX=…`.
    pub fn describe(&self, name: &str) -> String {
        let mut line = format!("{name}: n={}", self.count());
        if let Some(p50) = self.at(50.0) {
            line.push_str(&format!(" p50={p50:.3}"));
        }
        if let Some(p) = highest_supported_percentile(self.count()).filter(|&p| p > 50.0) {
            line.push_str(&format!(" p{p}={:.3}", percentile(&self.sorted, p)));
        }
        line
    }
}

/// Pairwise confusion counts of a predicted clustering against the true one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCounts {
    /// Pairs together in both clusterings.
    pub tp: u64,
    /// Pairs together only in the prediction.
    pub fp: u64,
    /// Pairs together only in the truth.
    pub fn_: u64,
}

impl PairCounts {
    /// Counts over items labelled by predicted and true cluster ids
    /// (`predicted[i]` and `truth[i]` describe item `i`).
    pub fn of(predicted: &[usize], truth: &[usize]) -> Self {
        assert_eq!(predicted.len(), truth.len(), "one label per item");
        let pairs = |n: u64| n * n.saturating_sub(1) / 2;
        let tally = |keys: &mut dyn Iterator<Item = (usize, usize)>| {
            let mut counts = std::collections::HashMap::new();
            for key in keys {
                *counts.entry(key).or_insert(0u64) += 1;
            }
            counts.values().map(|&n| pairs(n)).sum::<u64>()
        };
        let both = tally(&mut predicted.iter().copied().zip(truth.iter().copied()));
        let predicted_pairs = tally(&mut predicted.iter().map(|&p| (p, 0)));
        let true_pairs = tally(&mut truth.iter().map(|&t| (t, 0)));
        PairCounts {
            tp: both,
            fp: predicted_pairs - both,
            fn_: true_pairs - both,
        }
    }

    /// Sums two sets of counts.
    pub fn add(self, other: PairCounts) -> PairCounts {
        PairCounts {
            tp: self.tp + other.tp,
            fp: self.fp + other.fp,
            fn_: self.fn_ + other.fn_,
        }
    }

    /// Pairwise precision, `TP / (TP + FP)`; 1.0 when nothing was merged.
    pub fn precision(&self) -> f64 {
        ratio_or_one(self.tp, self.tp + self.fp)
    }

    /// Pairwise recall, `TP / (TP + FN)`; 1.0 when nothing should merge.
    pub fn recall(&self) -> f64 {
        ratio_or_one(self.tp, self.tp + self.fn_)
    }

    /// Pairwise F1, `2TP / (2TP + FP + FN)`; 1.0 when neither clustering
    /// has a pair.
    pub fn f1(&self) -> f64 {
        ratio_or_one(2 * self.tp, 2 * self.tp + self.fp + self.fn_)
    }
}

fn ratio_or_one(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        1.0
    } else {
        numerator as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn latency_reports_only_supported_percentiles_with_the_count() {
        let latency = Latency::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(latency.count(), 100);
        assert_eq!(latency.at(50.0), Some(50.0));
        assert_eq!(latency.at(90.0), Some(90.0));
        assert_eq!(latency.at(99.0), None);
        assert_eq!(latency.describe("x"), "x: n=100 p50=50.000 p90=90.000");
        let small = Latency::new(vec![3.0; 15]);
        assert_eq!(small.at(50.0), None);
        assert_eq!(small.describe("y"), "y: n=15");
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn pairwise_f1_on_a_hand_built_clustering() {
        // Truth: {0,1,2} {3,4}. Prediction: {0,1} {2,3,4}.
        // True pairs: 01 02 12 34 (4). Predicted: 01 23 24 34 (4).
        // Shared: 01 34 → TP 2, FP 2, FN 2, F1 = 4 / 8.
        let truth = [0, 0, 0, 1, 1];
        let predicted = [7, 7, 9, 9, 9];
        let counts = PairCounts::of(&predicted, &truth);
        assert_eq!(
            counts,
            PairCounts {
                tp: 2,
                fp: 2,
                fn_: 2
            }
        );
        assert_eq!(counts.f1(), 0.5);
        assert_eq!((counts.precision(), counts.recall()), (0.5, 0.5));
        assert_eq!(PairCounts::of(&truth, &truth).f1(), 1.0);
        let singletons = PairCounts::of(&[0, 1, 2, 3, 4], &truth);
        assert_eq!(
            singletons,
            PairCounts {
                tp: 0,
                fp: 0,
                fn_: 4
            }
        );
        assert_eq!(singletons.f1(), 0.0);
        assert_eq!((singletons.precision(), singletons.recall()), (1.0, 0.0));
        assert_eq!(counts.add(singletons).fn_, 6);
    }
}
