//! Summary statistics and two-sample tests for experiment post-processing.
//!
//! Two tools live here:
//!
//! * [`RunningStats`] — single-pass mean/variance/min/max (Welford's
//!   algorithm), used wherever we aggregate per-trial scalars (max load,
//!   lookup hops, region areas) without storing every sample.
//! * [`two_proportion_z`] / [`welch_z`] — two-sample test statistics used
//!   by the `run_tables --check` tolerance diff (`geo2c-report`) to decide
//!   whether a fresh run of a table is statistically consistent with the
//!   expectations committed in `EXPERIMENTS.md` / `results/`.

/// Two-sample pooled z statistic for a difference in proportions.
///
/// Given `k1` successes out of `n1` trials and `k2` out of `n2`, returns
/// `|p1 − p2| / √(p̄(1−p̄)(1/n1 + 1/n2))` with `p̄` the pooled proportion.
/// This is the statistic the experiment `--check` mode uses to decide
/// whether a freshly measured max-load distribution is consistent with
/// the committed expectation: each table cell percentage is a binomial
/// proportion over trials, so a large z flags real drift rather than
/// Monte-Carlo noise.
///
/// Degenerate cases: returns `0` when the observed difference is zero
/// (even with no trials), and `+∞` when the pooled variance is zero but
/// the proportions differ (e.g. 0/100 vs 5/100 has positive variance;
/// 0/100 vs 0/100 returns 0; comparing against zero-trial samples with a
/// nonzero difference returns `+∞`).
#[must_use]
pub fn two_proportion_z(k1: u64, n1: u64, k2: u64, n2: u64) -> f64 {
    let p1 = if n1 == 0 { 0.0 } else { k1 as f64 / n1 as f64 };
    let p2 = if n2 == 0 { 0.0 } else { k2 as f64 / n2 as f64 };
    let diff = (p1 - p2).abs();
    if diff == 0.0 {
        return 0.0;
    }
    if n1 == 0 || n2 == 0 {
        return f64::INFINITY;
    }
    let pooled = (k1 + k2) as f64 / (n1 + n2) as f64;
    let var = pooled * (1.0 - pooled) * (1.0 / n1 as f64 + 1.0 / n2 as f64);
    if var <= 0.0 {
        return f64::INFINITY;
    }
    diff / var.sqrt()
}

/// Welch's (unpooled) z statistic for a difference in means.
///
/// `|m1 − m2| / √(v1/n1 + v2/n2)` with sample variances `v1`, `v2`. Used
/// by the `--check` mode to compare per-cell mean max loads. Returns `0`
/// for a zero difference and `+∞` when the standard error is zero but
/// the means differ (a deterministic quantity changed).
#[must_use]
pub fn welch_z(m1: f64, v1: f64, n1: u64, m2: f64, v2: f64, n2: u64) -> f64 {
    let diff = (m1 - m2).abs();
    if diff == 0.0 {
        return 0.0;
    }
    if n1 == 0 || n2 == 0 {
        return f64::INFINITY;
    }
    let se2 = v1 / n1 as f64 + v2 / n2 as f64;
    if se2 <= 0.0 {
        return f64::INFINITY;
    }
    diff / se2.sqrt()
}

/// Single-pass (Welford) accumulator for mean, variance, min and max.
///
/// Numerically stable for long streams; merging two accumulators is
/// supported so per-thread statistics can be combined.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// variance update).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `+inf` if empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` if empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_proportion_z_behaviour() {
        // Identical samples: no signal.
        assert_eq!(two_proportion_z(881, 1000, 881, 1000), 0.0);
        assert_eq!(two_proportion_z(0, 0, 0, 0), 0.0);
        // A 88.1% vs 86.0% shift over 1000 trials is ~1.4 sigma.
        let z = two_proportion_z(881, 1000, 860, 1000);
        assert!(z > 1.0 && z < 2.0, "z = {z}");
        // A gross shift is many sigma.
        assert!(two_proportion_z(881, 1000, 500, 1000) > 10.0);
        // Zero-trial sample with a nonzero difference: infinite signal.
        assert_eq!(two_proportion_z(5, 10, 0, 0), f64::INFINITY);
        // Symmetric.
        assert_eq!(
            two_proportion_z(881, 1000, 860, 1000),
            two_proportion_z(860, 1000, 881, 1000)
        );
    }

    #[test]
    fn welch_z_behaviour() {
        assert_eq!(welch_z(4.1, 0.3, 1000, 4.1, 0.3, 1000), 0.0);
        let z = welch_z(4.10, 0.3, 1000, 4.15, 0.3, 1000);
        assert!(z > 1.0 && z < 3.0, "z = {z}");
        assert!(welch_z(4.1, 0.3, 1000, 6.0, 0.3, 1000) > 10.0);
        // Deterministic quantity changed: infinite signal.
        assert_eq!(welch_z(4.0, 0.0, 1000, 4.1, 0.0, 1000), f64::INFINITY);
        assert_eq!(welch_z(4.0, 0.1, 0, 4.1, 0.1, 10), f64::INFINITY);
    }

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; unbiased sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn running_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        whole.extend(xs.iter().copied());
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        a.extend(xs[..37].iter().copied());
        b.extend(xs[37..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn running_stats_merge_with_empty() {
        let mut a = RunningStats::new();
        a.push(3.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a.count(), before.count());
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 3.0);
    }
}
