//! Executable forms of the paper's arc-length tail bounds (Lemmas 4–6).
//!
//! Theorem 1's layered induction needs two probabilistic facts about the
//! arcs induced by `n` uniform points on the circle:
//!
//! * **Lemma 4** (via negative dependence, Lemma 3): the number `N_c` of
//!   arcs of length ≥ `c/n` satisfies
//!   `Pr(N_c ≥ 2n e^{−c}) ≤ e^{−n e^{−c}/3}` for `2 ≤ c ≤ n`.
//! * **Lemma 5** (martingale/Azuma fallback): the weaker
//!   `Pr(N_c ≥ 2n e^{−c}) ≤ e^{−n e^{−2c}/8}` — same threshold, looser
//!   exponent; kept because the 2-D torus argument only achieves this form.
//! * **Lemma 6**: for `(ln n)² ≤ a ≤ n/64`, the total length of the `a`
//!   longest arcs is at most `2(a/n)·ln(n/a)` except with probability
//!   `o(1/n²)`; additionally the single longest arc is ≤ `4 ln n / n`
//!   except with probability `1/n³`.
//!
//! This module provides the bound formulas and Monte-Carlo experiments that
//! measure the empirical violation rates, which the `lemmas` bench binary
//! reports next to the analytic bounds (experiments E5, E6 in DESIGN.md).

use crate::partition::RingPartition;
use geo2c_util::parallel::run_trials;
use geo2c_util::rng::StreamSeeder;
use geo2c_util::stats::RunningStats;

/// Number of arcs with length ≥ `threshold` (the paper's `N_c` with
/// `threshold = c/n`).
#[must_use]
pub fn count_arcs_at_least(arc_lengths: &[f64], threshold: f64) -> usize {
    arc_lengths.iter().filter(|&&l| l >= threshold).count()
}

/// Sum of the `a` longest arcs (clamped to the number of arcs).
#[must_use]
pub fn sum_longest_arcs(arc_lengths: &[f64], a: usize) -> f64 {
    let mut sorted = arc_lengths.to_vec();
    sorted.sort_unstable_by(|x, y| y.partial_cmp(x).expect("finite arc lengths"));
    sorted.iter().take(a).sum()
}

/// Lemma 4's count threshold `2n e^{−c}`.
#[must_use]
pub fn lemma4_threshold(n: usize, c: f64) -> f64 {
    2.0 * n as f64 * (-c).exp()
}

/// Lemma 4's probability bound `e^{−n e^{−c}/3}` (valid for `2 ≤ c ≤ n`).
#[must_use]
pub fn lemma4_prob_bound(n: usize, c: f64) -> f64 {
    (-(n as f64) * (-c).exp() / 3.0).exp()
}

/// Lemma 5's (weaker, martingale) probability bound `e^{−n e^{−2c}/8}`.
#[must_use]
pub fn lemma5_prob_bound(n: usize, c: f64) -> f64 {
    (-(n as f64) * (-2.0 * c).exp() / 8.0).exp()
}

/// Expected number of arcs of length ≥ `c/n`: exactly
/// `n (1 − c/n)^{n−1}` (≤ `n e^{−c}` for `c ≥ 2`, as used in Lemma 4).
#[must_use]
pub fn expected_long_arcs(n: usize, c: f64) -> f64 {
    let nf = n as f64;
    if c >= nf {
        return 0.0;
    }
    nf * (1.0 - c / nf).powi(n as i32 - 1)
}

/// Lemma 6's bound on the total length of the `a` longest arcs:
/// `2(a/n)·ln(n/a)`.
///
/// # Panics
/// Panics unless `1 ≤ a < n` (the ratio `ln(n/a)` must be positive).
#[must_use]
pub fn lemma6_bound(n: usize, a: usize) -> f64 {
    assert!(
        a >= 1 && a < n,
        "lemma 6 requires 1 <= a < n, got a={a}, n={n}"
    );
    let (af, nf) = (a as f64, n as f64);
    2.0 * (af / nf) * (nf / af).ln()
}

/// The paper's bound on the single longest arc: `4 ln n / n`, violated with
/// probability at most `1/n³`.
#[must_use]
pub fn longest_arc_bound(n: usize) -> f64 {
    4.0 * (n as f64).ln() / n as f64
}

/// Result of a Monte-Carlo check of Lemma 4/5 at one `c` value.
#[derive(Debug, Clone, Copy)]
pub struct LongArcTail {
    /// The `c` parameter (arcs of length ≥ `c/n` are "long").
    pub c: f64,
    /// The count threshold `2n e^{−c}`.
    pub threshold: f64,
    /// Analytic expectation `n (1 − c/n)^{n−1}`.
    pub expected: f64,
    /// Observed mean of `N_c` across trials.
    pub mean_count: f64,
    /// Observed max of `N_c` across trials.
    pub max_count: f64,
    /// Fraction of trials with `N_c ≥ 2n e^{−c}` (what Lemma 4 bounds).
    pub violation_rate: f64,
    /// Lemma 4's analytic bound on that fraction.
    pub lemma4_bound: f64,
    /// Lemma 5's weaker analytic bound.
    pub lemma5_bound: f64,
}

/// Runs `trials` independent placements of `n` points and measures the
/// long-arc count tail at each `c` in `cs` (experiment E5).
#[must_use]
pub fn long_arc_tail_experiment(
    n: usize,
    cs: &[f64],
    trials: usize,
    seeder: &StreamSeeder,
    threads: usize,
) -> Vec<LongArcTail> {
    let per_trial: Vec<Vec<usize>> = run_trials(seeder, trials, threads, |rng| {
        let part = RingPartition::random(n, rng);
        let arcs = part.arc_lengths();
        cs.iter()
            .map(|&c| count_arcs_at_least(&arcs, c / n as f64))
            .collect()
    });

    cs.iter()
        .enumerate()
        .map(|(ci, &c)| {
            let threshold = lemma4_threshold(n, c);
            let mut stats = RunningStats::new();
            let mut violations = 0usize;
            for counts in &per_trial {
                let count = counts[ci] as f64;
                stats.push(count);
                if count >= threshold {
                    violations += 1;
                }
            }
            LongArcTail {
                c,
                threshold,
                expected: expected_long_arcs(n, c),
                mean_count: stats.mean(),
                max_count: stats.max(),
                violation_rate: violations as f64 / trials as f64,
                lemma4_bound: lemma4_prob_bound(n, c).min(1.0),
                lemma5_bound: lemma5_prob_bound(n, c).min(1.0),
            }
        })
        .collect()
}

/// Result of a Monte-Carlo check of Lemma 6 at one `a` value.
#[derive(Debug, Clone, Copy)]
pub struct LongestArcsSum {
    /// How many of the longest arcs are summed.
    pub a: usize,
    /// Lemma 6's bound `2(a/n)ln(n/a)`.
    pub bound: f64,
    /// Observed mean of the top-`a` sum.
    pub mean_sum: f64,
    /// Observed max of the top-`a` sum.
    pub max_sum: f64,
    /// Fraction of trials exceeding the bound (Lemma 6 says `o(1/n²)`).
    pub violation_rate: f64,
}

/// Runs `trials` placements and measures the total length of the `a`
/// longest arcs for each `a` in `sizes` (experiment E6), plus the single
/// longest arc against `4 ln n / n` reported as `a = 1` when requested.
#[must_use]
pub fn longest_arcs_experiment(
    n: usize,
    sizes: &[usize],
    trials: usize,
    seeder: &StreamSeeder,
    threads: usize,
) -> Vec<LongestArcsSum> {
    let max_size = sizes.iter().copied().max().unwrap_or(0).min(n);
    let per_trial: Vec<Vec<f64>> = run_trials(seeder, trials, threads, |rng| {
        let part = RingPartition::random(n, rng);
        let mut arcs = part.arc_lengths();
        arcs.sort_unstable_by(|x, y| y.partial_cmp(x).expect("finite"));
        // Prefix sums of the sorted arcs up to the largest requested size,
        // so `sizes` may arrive in any order.
        let mut prefix = Vec::with_capacity(max_size + 1);
        prefix.push(0.0);
        for i in 0..max_size {
            prefix.push(prefix[i] + arcs[i]);
        }
        sizes.iter().map(|&a| prefix[a.min(max_size)]).collect()
    });

    sizes
        .iter()
        .enumerate()
        .map(|(ai, &a)| {
            let bound = if a == 1 {
                longest_arc_bound(n)
            } else {
                lemma6_bound(n, a)
            };
            let mut stats = RunningStats::new();
            let mut violations = 0usize;
            for sums in &per_trial {
                let s = sums[ai];
                stats.push(s);
                if s > bound {
                    violations += 1;
                }
            }
            LongestArcsSum {
                a,
                bound,
                mean_sum: stats.mean(),
                max_sum: stats.max(),
                violation_rate: violations as f64 / trials as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_sum_helpers() {
        let arcs = [0.5, 0.2, 0.2, 0.1];
        assert_eq!(count_arcs_at_least(&arcs, 0.2), 3);
        assert_eq!(count_arcs_at_least(&arcs, 0.6), 0);
        assert!((sum_longest_arcs(&arcs, 2) - 0.7).abs() < 1e-12);
        assert!((sum_longest_arcs(&arcs, 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_formulas() {
        // threshold: 2 * 100 * e^-2 ≈ 27.07
        assert!((lemma4_threshold(100, 2.0) - 200.0 * (-2.0f64).exp()).abs() < 1e-9);
        assert!(lemma4_prob_bound(1000, 3.0) < 1.0);
        // Lemma 5 is weaker (larger probability bound) than Lemma 4 for the
        // same parameters whenever both exponents are active.
        assert!(lemma5_prob_bound(1000, 3.0) > lemma4_prob_bound(1000, 3.0));
        let b = lemma6_bound(1024, 64);
        assert!((b - 2.0 * (64.0 / 1024.0) * (1024.0f64 / 64.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn expected_long_arcs_matches_closed_form() {
        // For n=2, c=1: 2 * (1 - 1/2)^1 = 1.
        assert!((expected_long_arcs(2, 1.0) - 1.0).abs() < 1e-12);
        assert_eq!(expected_long_arcs(10, 10.0), 0.0);
        // Within the e^{-c} envelope for c >= 2.
        let n = 4096;
        for c in [2.0, 4.0, 8.0] {
            assert!(expected_long_arcs(n, c) <= n as f64 * (-c).exp() + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "lemma 6 requires")]
    fn lemma6_domain_checked() {
        let _ = lemma6_bound(10, 10);
    }

    #[test]
    fn long_arc_tail_experiment_sane() {
        let seeder = StreamSeeder::new(11);
        let rows = long_arc_tail_experiment(1024, &[2.0, 4.0, 6.0], 50, &seeder, 2);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            // Mean is near the analytic expectation (generous tolerance).
            assert!(
                (row.mean_count - row.expected).abs() < 0.3 * row.expected + 3.0,
                "c={}: mean {} vs expected {}",
                row.c,
                row.mean_count,
                row.expected
            );
            // The Chernoff threshold is ~2x the mean, so violations are rare.
            assert!(
                row.violation_rate <= 0.1,
                "c={}: rate {}",
                row.c,
                row.violation_rate
            );
        }
        // Monotone: larger c means fewer long arcs.
        assert!(rows[0].mean_count > rows[1].mean_count);
        assert!(rows[1].mean_count > rows[2].mean_count);
    }

    #[test]
    fn longest_arcs_experiment_handles_unsorted_sizes() {
        let seeder = StreamSeeder::new(14);
        let n = 512;
        let sorted = longest_arcs_experiment(n, &[4, 16, 64], 10, &seeder, 1);
        let shuffled = longest_arcs_experiment(n, &[64, 4, 16], 10, &seeder, 1);
        assert_eq!(sorted[0].mean_sum, shuffled[1].mean_sum);
        assert_eq!(sorted[1].mean_sum, shuffled[2].mean_sum);
        assert_eq!(sorted[2].mean_sum, shuffled[0].mean_sum);
    }

    #[test]
    fn longest_arcs_experiment_sane() {
        let seeder = StreamSeeder::new(12);
        let n = 1024;
        // (ln 1024)^2 ≈ 48; use a ∈ {49, .., 16 = n/64} — pick valid range.
        let sizes = [1usize, 8, 49];
        let rows = longest_arcs_experiment(n, &sizes, 40, &seeder, 2);
        assert_eq!(rows.len(), 3);
        // Top-a sums increase with a; all ≤ 1.
        assert!(rows[0].mean_sum < rows[1].mean_sum);
        assert!(rows[1].mean_sum < rows[2].mean_sum);
        for row in &rows {
            assert!(row.max_sum <= 1.0 + 1e-9);
            assert!(row.mean_sum > 0.0);
        }
        // Lemma 6 bound should essentially never be violated in range
        // (a=49 is within [ (ln n)^2 ≈ 48, n/64 = 16 ]… n/64 < (ln n)^2 here,
        // so the range is formally empty; the bound still holds comfortably).
        assert!(rows[2].violation_rate <= 0.05);
    }

    #[test]
    fn experiment_is_deterministic() {
        let seeder = StreamSeeder::new(13);
        let a = long_arc_tail_experiment(256, &[3.0], 20, &seeder, 1);
        let b = long_arc_tail_experiment(256, &[3.0], 20, &seeder, 4);
        assert_eq!(a[0].mean_count, b[0].mean_count);
        assert_eq!(a[0].violation_rate, b[0].violation_rate);
    }
}
