//! Estimators: the per-op quiet envelope and nearest-rank percentiles.
//!
//! On a shared VM the disturbance is one-sided: a noisy neighbour only ever
//! adds time. Every measured round replays the *same* op sequence, so op `i`
//! has one latency sample per round and `min[i]` is its quietest. All timing
//! metrics are read from `min`; the raw rounds survive only as `load.*`.

/// The undisturbed round: per-op minimum latency over rounds that replay one
/// op sequence, plus the quietest non-op remainder of a round.
#[derive(Debug, Default, Clone)]
pub struct Envelope {
    /// `min[i]` = quietest latency (ns) seen for op `i`.
    pub min: Vec<u64>,
    /// Quietest remainder (ns) of a round: what it did besides its ops
    /// (precrawl, invert, save …); 0 for rounds that are nothing but ops.
    pub rest_ns: u64,
    /// Σ op latency of each round, in arrival order.
    pub round_sums: Vec<u64>,
    /// Every round's samples, kept only when asked for (`load.disturbed_share`).
    rounds: Option<Vec<Vec<u64>>>,
}

impl Envelope {
    pub fn new(keep_rounds: bool) -> Self {
        Self {
            rounds: keep_rounds.then(Vec::new),
            ..Self::default()
        }
    }

    /// Folds one round in. Every round must have the same number of ops.
    pub fn add_round(&mut self, latencies: &[u64], rest_ns: u64) {
        if self.round_sums.is_empty() {
            self.min = latencies.to_vec();
            self.rest_ns = rest_ns;
        } else {
            assert_eq!(
                self.min.len(),
                latencies.len(),
                "rounds must replay the same op sequence"
            );
            for (m, &l) in self.min.iter_mut().zip(latencies) {
                *m = (*m).min(l);
            }
            self.rest_ns = self.rest_ns.min(rest_ns);
        }
        self.round_sums.push(latencies.iter().sum());
        if let Some(rounds) = &mut self.rounds {
            rounds.push(latencies.to_vec());
        }
    }

    pub fn rounds(&self) -> usize {
        self.round_sums.len()
    }

    /// Σ `min` — the undisturbed service time of one round's ops.
    pub fn sum(&self) -> u64 {
        self.min.iter().sum()
    }

    /// Undisturbed time of one whole round: Σ `min` + the quietest remainder.
    pub fn total_ns(&self) -> u64 {
        self.sum() + self.rest_ns
    }

    /// The median round's ops + the quietest remainder: what a window
    /// statistic would have reported.
    pub fn median_round_ns(&self) -> u64 {
        let mut sums = self.round_sums.clone();
        sums.sort_unstable();
        percentile(&sums, 50.0) + self.rest_ns
    }

    /// Slowest round ÷ fastest round − 1.
    pub fn round_spread(&self) -> f64 {
        let lo = self.round_sums.iter().copied().min().unwrap_or(0);
        let hi = self.round_sums.iter().copied().max().unwrap_or(0);
        ratio_minus_one(hi, lo)
    }

    /// Σ per-op round-median ÷ Σ `min` − 1: how far a typical round sat above
    /// the envelope. Needs `keep_rounds`.
    pub fn disturbed_share(&self) -> f64 {
        let Some(rounds) = &self.rounds else {
            return 0.0;
        };
        let mut column = Vec::with_capacity(rounds.len());
        let mut medians = 0u64;
        for i in 0..self.min.len() {
            column.clear();
            column.extend(rounds.iter().map(|r| r[i]));
            column.sort_unstable();
            medians += percentile(&column, 50.0);
        }
        ratio_minus_one(medians, self.sum())
    }
}

fn ratio_minus_one(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64 - 1.0
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n ≥ 1` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` % of the samples at or below it. Empty input reads 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// `(p50, p-th percentile)` of unsorted samples.
pub fn p50_and(samples: &[u64], p: f64) -> (u64, u64) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    (percentile(&sorted, 50.0), percentile(&sorted, p))
}

pub fn p50(samples: &[u64]) -> u64 {
    p50_and(samples, 50.0).0
}

/// Median of floats (mean of the middle two for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median
/// — the spread the driver computes. Quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them; 0 for fewer than two
/// values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    let med = median(values);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_keeps_per_op_minimum() {
        let mut env = Envelope::new(true);
        env.add_round(&[10, 50, 30], 7);
        env.add_round(&[12, 20, 90], 5);
        env.add_round(&[11, 25, 31], 9);
        assert_eq!(env.min, vec![10, 20, 30]);
        assert_eq!(env.sum(), 60);
        assert_eq!(env.total_ns(), 65);
        assert_eq!(env.median_round_ns(), 90 + 5);
        assert_eq!(env.round_sums, vec![90, 122, 67]);
        assert_eq!(env.rounds(), 3);
        // Per-op medians are 11, 25, 31 → 67 / 60 − 1.
        assert!((env.disturbed_share() - (67.0 / 60.0 - 1.0)).abs() < 1e-12);
        assert!((env.round_spread() - (122.0 / 67.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn envelope_without_rounds_reports_no_disturbance() {
        let mut env = Envelope::new(false);
        env.add_round(&[5, 5], 0);
        env.add_round(&[9, 1], 0);
        assert_eq!(env.min, vec![5, 1]);
        assert_eq!(env.disturbed_share(), 0.0);
    }

    #[test]
    #[should_panic(expected = "same op sequence")]
    fn envelope_rejects_a_round_of_another_length() {
        let mut env = Envelope::new(false);
        env.add_round(&[1, 2], 0);
        env.add_round(&[1], 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 50.0), 5);
        assert_eq!(percentile(&s, 90.0), 9);
        assert_eq!(percentile(&s, 91.0), 10);
        assert_eq!(percentile(&s, 100.0), 10);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(p50_and(&[9, 1, 5], 100.0), (5, 9));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(300, 95.0), 15);
        assert_eq!(samples_beyond(2_000, 99.0), 20);
        assert_eq!(samples_beyond(20_000, 99.0), 200);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(1, 50.0), 0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((iqr_share(&[16.0, 1.0, 8.0, 2.0, 4.0]) - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr_share(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
        assert_eq!(iqr_share(&[]), 0.0);
    }

    #[test]
    fn float_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
