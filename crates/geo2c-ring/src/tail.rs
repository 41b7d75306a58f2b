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
//! This module provides the count helper and the bound formulas. The
//! `lemma4_5` and `lemma6` members of the `run_tables` suite measure the
//! empirical violation rates next to them (the `EXPERIMENTS.md` tables of
//! the same names); the exact expectations they are read against are in
//! [`crate::spacings`].

/// Number of arcs with length ≥ `threshold` (the paper's `N_c` with
/// `threshold = c/n`).
#[must_use]
pub fn count_arcs_at_least(arc_lengths: &[f64], threshold: f64) -> usize {
    arc_lengths.iter().filter(|&&l| l >= threshold).count()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spacings::arc_survival;

    #[test]
    fn count_and_sum_helpers() {
        let arcs = [0.5, 0.2, 0.2, 0.1];
        assert_eq!(count_arcs_at_least(&arcs, 0.2), 3);
        assert_eq!(count_arcs_at_least(&arcs, 0.6), 0);
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
        // For n = 2, c = 1: 2 · (1 − 1/2)^1 = 1.
        assert!((2.0 * arc_survival(2, 0.5) - 1.0).abs() < 1e-12);
        assert_eq!(10.0 * arc_survival(10, 10.0 / 10.0), 0.0);
        // Within the e^{-c} envelope for c >= 2, as Lemma 4 uses it.
        let n = 4096;
        for c in [2.0, 4.0, 8.0] {
            let expected = n as f64 * arc_survival(n, c / n as f64);
            assert!(expected <= n as f64 * (-c).exp() + 1e-9, "c={c}");
        }
    }

    #[test]
    #[should_panic(expected = "lemma 6 requires")]
    fn lemma6_domain_checked() {
        let _ = lemma6_bound(10, 10);
    }
}
