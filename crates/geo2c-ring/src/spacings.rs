//! The exact distribution theory of uniform spacings on the circle.
//!
//! When `n` points fall uniformly on a circle of circumference 1, the `n`
//! arcs form an exchangeable Dirichlet(1, …, 1) vector: each arc is
//! marginally `Beta(1, n−1)`, the maximum has expectation `H_n / n`
//! (harmonic number), and the `k`-th longest has expectation
//! `(H_n − H_{k−1}) / n` — the Rényi representation. These closed forms
//! are the analytic ground truth behind the paper's Lemmas 3–6:
//!
//! * Lemma 3's indicator marginal is the survival `S(x) = (1 − x)^{n−1}`
//!   at `x = c/n` ([`arc_survival`], the one place it is written), and
//!   Lemmas 4/5 bound the *count* of such arcs, whose mean is `n·S(c/n)`;
//! * Lemma 6 bounds the *top-`a` sum*, whose exact expectation
//!   `(a·H_n − Σ_{k<a} H_k)/n ≈ (a/n)(ln(n/a) + 1)` shows the paper's
//!   `2(a/n)ln(n/a)` carries ≈ 2× slack;
//! * the paper's `4 ln n / n` longest-arc bound is ≈ 4× the exact mean
//!   `H_n/n ≈ ln n / n`.
//!
//! The experiments use these to annotate observed order statistics with
//! their exact expectations (not just the paper's upper bounds).

/// The `n`-th harmonic number `H_n = Σ_{i=1..n} 1/i`.
///
/// Exact summation below 10⁶; Euler–Maclaurin
/// (`ln n + γ + 1/2n − 1/12n²`) above, with error < 1e-12.
#[must_use]
pub fn harmonic(n: u64) -> f64 {
    const EULER_MASCHERONI: f64 = 0.577_215_664_901_532_9;
    if n == 0 {
        return 0.0;
    }
    if n < 1_000_000 {
        return (1..=n).map(|i| 1.0 / i as f64).sum();
    }
    let x = n as f64;
    x.ln() + EULER_MASCHERONI + 1.0 / (2.0 * x) - 1.0 / (12.0 * x * x)
}

/// Survival function of a single arc: `Pr(L ≥ x) = (1 − x)^{n−1}`, and
/// 0 from `x = 1` on (no arc of `n ≥ 2` points spans the whole circle).
///
/// It is the probability that the other `n − 1` uniform points all miss
/// a region of measure `x`. With `x = c/n` that is a placed point's arc
/// being long in the sense of Lemmas 3–5, and `n · arc_survival(n, c/n)`
/// is the expected number of such arcs.
///
/// # Panics
/// Panics unless `n ≥ 1` and `x ≥ 0`.
#[must_use]
pub fn arc_survival(n: usize, x: f64) -> f64 {
    assert!(n >= 1, "need at least one point");
    assert!(x >= 0.0, "x must be non-negative");
    if x >= 1.0 {
        return 0.0;
    }
    (1.0 - x).powi(n as i32 - 1)
}

/// Expected length of the `k`-th longest arc (`k = 1` is the maximum):
/// `(H_n − H_{k−1}) / n` by the Rényi representation of spacings.
///
/// # Panics
/// Panics unless `1 ≤ k ≤ n`.
#[must_use]
pub fn expected_kth_longest(n: usize, k: usize) -> f64 {
    assert!(k >= 1 && k <= n, "need 1 <= k <= n");
    (harmonic(n as u64) - harmonic(k as u64 - 1)) / n as f64
}

/// Expected length of the longest arc: `H_n / n ≈ (ln n + γ)/n`.
#[must_use]
pub fn expected_max_arc(n: usize) -> f64 {
    expected_kth_longest(n, 1)
}

/// Expected total length of the `a` longest arcs:
/// `(a·H_n − Σ_{k=0}^{a−1} H_k) / n`, using the identity
/// `Σ_{k=1}^{m} H_k = (m+1)H_m − m`.
///
/// # Panics
/// Panics unless `1 ≤ a ≤ n`.
#[must_use]
pub fn expected_top_a_sum(n: usize, a: usize) -> f64 {
    assert!(a >= 1 && a <= n, "need 1 <= a <= n");
    let hn = harmonic(n as u64);
    // Σ_{k=0}^{a-1} H_k = Σ_{k=1}^{a-1} H_k = a·H_{a−1} − (a−1).
    let sum_h = a as f64 * harmonic(a as u64 - 1) - (a as f64 - 1.0);
    (a as f64 * hn - sum_h) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RingPartition;
    use geo2c_util::rng::Xoshiro256pp;
    use geo2c_util::stats::RunningStats;

    #[test]
    fn harmonic_small_values() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-15);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-15);
    }

    #[test]
    fn harmonic_asymptotic_seam() {
        // The Euler–Maclaurin branch must agree with direct summation.
        let direct: f64 = (1..=1_000_000u64).map(|i| 1.0 / i as f64).sum();
        let approx = {
            let x = 1_000_000f64;
            x.ln() + 0.577_215_664_901_532_9 + 1.0 / (2.0 * x) - 1.0 / (12.0 * x * x)
        };
        assert!((direct - approx).abs() < 1e-10);
    }

    #[test]
    fn survival_and_quantile_are_inverse() {
        let n = 1024;
        for q in [0.9, 0.5, 0.1, 0.01] {
            // The arc-length quantile: the `x` with `Pr(L ≥ x) = q`.
            let x = 1.0 - f64::powf(q, 1.0 / (n as f64 - 1.0));
            assert!((arc_survival(n, x) - q).abs() < 1e-10, "q={q}");
        }
        assert_eq!(arc_survival(1, 0.7), 1.0);
    }

    #[test]
    fn expected_order_statistics_are_decreasing() {
        let n = 256;
        let mut last = f64::INFINITY;
        for k in 1..=10 {
            let e = expected_kth_longest(n, k);
            assert!(e < last);
            assert!(e > 0.0);
            last = e;
        }
        // Max ≈ ln n / n.
        let max = expected_max_arc(n);
        let nf = n as f64;
        assert!((max - (nf.ln() + 0.5772) / nf).abs() < 0.1 / nf);
    }

    #[test]
    fn top_a_sum_matches_direct_summation() {
        let n = 512;
        for a in [1usize, 2, 16, 100] {
            let direct: f64 = (1..=a).map(|k| expected_kth_longest(n, k)).sum();
            let closed = expected_top_a_sum(n, a);
            assert!(
                (direct - closed).abs() < 1e-10,
                "a={a}: direct {direct} vs closed {closed}"
            );
        }
    }

    #[test]
    fn lemma6_bound_has_about_2x_slack() {
        // The paper's 2(a/n)ln(n/a) versus the exact expectation.
        let n = 1 << 14;
        for a in [64usize, 128, 256] {
            let exact = expected_top_a_sum(n, a);
            let bound = crate::tail::lemma6_bound(n, a);
            let ratio = bound / exact;
            assert!((1.3..=2.2).contains(&ratio), "a={a}: bound/exact = {ratio}");
        }
    }

    #[test]
    fn monte_carlo_agrees_with_expectations() {
        let n = 512;
        let trials = 300;
        let mut max_stats = RunningStats::new();
        let mut top8_stats = RunningStats::new();
        let mut rng = Xoshiro256pp::from_u64(9);
        for _ in 0..trials {
            let part = RingPartition::random(n, &mut rng);
            let mut arcs = part.arc_lengths();
            arcs.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
            max_stats.push(arcs[0]);
            top8_stats.push(arcs[..8].iter().sum());
        }
        let e_max = expected_max_arc(n);
        let e_top8 = expected_top_a_sum(n, 8);
        assert!(
            (max_stats.mean() - e_max).abs() < 0.15 * e_max,
            "max: MC {} vs exact {}",
            max_stats.mean(),
            e_max
        );
        assert!(
            (top8_stats.mean() - e_top8).abs() < 0.1 * e_top8,
            "top-8: MC {} vs exact {}",
            top8_stats.mean(),
            e_top8
        );
    }

    #[test]
    fn no_arc_is_as_long_as_the_circle() {
        // c >= n: the survival is 0 rather than a domain panic.
        assert_eq!(arc_survival(8, 1.0), 0.0);
        assert_eq!(arc_survival(8, 1.5), 0.0);
        assert_eq!(arc_survival(1, 1.0), 0.0);
        // Just inside the circle the closed form still applies.
        assert!(arc_survival(2, 0.999) > 0.0);
    }

    #[test]
    #[should_panic(expected = "need 1 <= k <= n")]
    fn kth_longest_domain() {
        let _ = expected_kth_longest(8, 0);
    }
}
