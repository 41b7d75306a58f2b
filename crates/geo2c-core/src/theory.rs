//! Closed-form predictors from the paper and the literature it builds on.
//!
//! Nothing here simulates: these are the analytic quantities the
//! experiments are compared against in `EXPERIMENTS.md`:
//!
//! * [`two_choice_band`] — the `log log n / log d` leading term of
//!   Theorem 1 (and of Azar et al. in the uniform case). The `O(1)`
//!   additive constant is not predicted by the theory.
//! * [`one_choice_typical`] — the classical `ln n / ln ln n` growth of
//!   the single-choice maximum (what Tables 1–2's `d = 1` columns track).
//! * [`voecking_phi`] / [`voecking_band`] — Vöcking's improved
//!   `log log n / (d ln φ_d)` bound for the split always-go-left scheme,
//!   with `φ_d` the generalized golden ratio (`φ_2 = 1.618…`).
//! * [`fluid_limit_profile`] — the differential-equation (mean-field)
//!   predictor for the uniform `d`-choice load profile mentioned in the
//!   paper's conclusion (`s_i' = s_{i-1}^d − s_i^d`).

/// The leading term of the two-choices bound: `ln ln n / ln d`.
///
/// Returns 0 for `n ≤ e` (the bound is vacuous at tiny sizes).
///
/// # Panics
/// Panics if `d < 2` (the bound only applies with at least two choices).
#[must_use]
pub fn two_choice_band(n: usize, d: usize) -> f64 {
    assert!(d >= 2, "two-choice band needs d >= 2");
    let nf = n as f64;
    if nf <= std::f64::consts::E {
        return 0.0;
    }
    nf.ln().ln().max(0.0) / (d as f64).ln()
}

/// The classical single-choice maximum-load growth rate for `m = n`:
/// `ln n / ln ln n` (up to lower-order terms).
#[must_use]
pub fn one_choice_typical(n: usize) -> f64 {
    let nf = n as f64;
    if nf <= std::f64::consts::E {
        return 1.0;
    }
    let lnln = nf.ln().ln();
    if lnln <= 0.0 {
        return nf.ln();
    }
    nf.ln() / lnln
}

/// The generalized golden ratio `φ_d`: the unique root in `(1, 2)` of
/// `x^d = x^{d-1} + x^{d-2} + … + 1`.
///
/// `φ_1 = 1` by convention (degenerate), `φ_2 = (1+√5)/2`, and
/// `φ_d → 2` as `d → ∞`. Computed by bisection to ~1e-12.
///
/// # Panics
/// Panics if `d == 0`.
#[must_use]
pub fn voecking_phi(d: usize) -> f64 {
    assert!(d >= 1, "phi_d needs d >= 1");
    if d == 1 {
        return 1.0;
    }
    // f(x) = x^d − Σ_{k<d} x^k; f(1) = 1 − d < 0, f(2) = 2^d − (2^d − 1) > 0.
    let f = |x: f64| -> f64 {
        let mut sum = 0.0;
        let mut pow = 1.0;
        for _ in 0..d {
            sum += pow;
            pow *= x;
        }
        pow - sum // pow is now x^d
    };
    let (mut lo, mut hi) = (1.0f64, 2.0f64);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Vöcking's bound leading term: `ln ln n / (d ln φ_d)`.
///
/// # Panics
/// Panics if `d < 2`.
#[must_use]
pub fn voecking_band(n: usize, d: usize) -> f64 {
    assert!(d >= 2, "voecking band needs d >= 2");
    let nf = n as f64;
    if nf <= std::f64::consts::E {
        return 0.0;
    }
    nf.ln().ln().max(0.0) / (d as f64 * voecking_phi(d).ln())
}

/// Integrates the uniform-bins fluid limit `s_i'(t) = s_{i-1}(t)^d − s_i(t)^d`
/// (with `s_0 ≡ 1`, `s_i(0) = 0` for `i ≥ 1`) from `t = 0` to `t = c`,
/// i.e. for `m = c·n` balls, and returns `[s_1(c), …, s_depth(c)]`:
/// the predicted fractions of bins with load ≥ i.
///
/// Classic checks: `d = 1, c = 1` gives `s_1 = 1 − e^{−1}` (Poisson), and
/// `d = 2, c = 1` gives `s_1 = tanh(1)`.
///
/// # Panics
/// Panics if `d == 0`, `depth == 0`, or `c < 0`.
#[must_use]
pub fn fluid_limit_profile(d: usize, c: f64, depth: usize) -> Vec<f64> {
    assert!(d >= 1 && depth >= 1 && c >= 0.0);
    let d = d as i32;
    let steps = ((c / 1e-3).ceil() as usize).max(1);
    let dt = c / steps as f64;
    let mut s = vec![0.0f64; depth + 1];
    s[0] = 1.0;
    let deriv = |s: &[f64], out: &mut [f64]| {
        out[0] = 0.0;
        for i in 1..s.len() {
            out[i] = s[i - 1].powi(d) - s[i].powi(d);
        }
    };
    // RK4.
    let mut k1 = vec![0.0; depth + 1];
    let mut k2 = vec![0.0; depth + 1];
    let mut k3 = vec![0.0; depth + 1];
    let mut k4 = vec![0.0; depth + 1];
    let mut tmp = vec![0.0; depth + 1];
    for _ in 0..steps {
        deriv(&s, &mut k1);
        for i in 0..=depth {
            tmp[i] = s[i] + 0.5 * dt * k1[i];
        }
        deriv(&tmp, &mut k2);
        for i in 0..=depth {
            tmp[i] = s[i] + 0.5 * dt * k2[i];
        }
        deriv(&tmp, &mut k3);
        for i in 0..=depth {
            tmp[i] = s[i] + dt * k3[i];
        }
        deriv(&tmp, &mut k4);
        for i in 0..=depth {
            s[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
    s.remove(0);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_positive_and_decreasing_in_d() {
        let n = 1 << 20;
        let b2 = two_choice_band(n, 2);
        let b3 = two_choice_band(n, 3);
        let b4 = two_choice_band(n, 4);
        assert!(b2 > b3 && b3 > b4, "{b2} {b3} {b4}");
        // ln ln 2^20 / ln 2 ≈ 3.79.
        assert!((b2 - 3.79).abs() < 0.05, "{b2}");
    }

    #[test]
    fn one_choice_growth() {
        // ln(2^20)/lnln(2^20) ≈ 13.86/2.63 ≈ 5.27 … and growing with n.
        assert!(one_choice_typical(1 << 20) > one_choice_typical(1 << 10));
        let v = one_choice_typical(1 << 20);
        assert!((v - 5.27).abs() < 0.1, "{v}");
    }

    #[test]
    fn phi_values() {
        assert!((voecking_phi(2) - 1.618_033_988_75).abs() < 1e-9);
        assert!((voecking_phi(3) - 1.839_286_755_21).abs() < 1e-9);
        assert_eq!(voecking_phi(1), 1.0);
        // Increasing toward 2.
        assert!(voecking_phi(4) > voecking_phi(3));
        assert!(voecking_phi(10) < 2.0);
    }

    #[test]
    fn voecking_band_beats_plain_band() {
        let n = 1 << 20;
        // d ln φ_d > ln d for d ≥ 2, so Vöcking's bound is smaller.
        for d in 2..=4 {
            assert!(voecking_band(n, d) < two_choice_band(n, d));
        }
    }

    #[test]
    fn fluid_limit_poisson_check() {
        // d=1, c=1: s_1 = 1 − e^{−1}.
        let s = fluid_limit_profile(1, 1.0, 5);
        assert!((s[0] - (1.0 - (-1.0f64).exp())).abs() < 1e-6, "{}", s[0]);
        // Poisson: s_2 = 1 − 2e^{−1}.
        assert!(
            (s[1] - (1.0 - 2.0 * (-1.0f64).exp())).abs() < 1e-6,
            "{}",
            s[1]
        );
    }

    #[test]
    fn fluid_limit_tanh_check() {
        // d=2, c=1: s_1' = 1 − s_1² ⇒ s_1 = tanh(1).
        let s = fluid_limit_profile(2, 1.0, 5);
        assert!((s[0] - 1.0f64.tanh()).abs() < 1e-6, "{}", s[0]);
    }

    #[test]
    fn fluid_limit_profile_shape() {
        let s = fluid_limit_profile(2, 1.0, 10);
        // Strictly decreasing, doubly-exponentially fast for d=2.
        for w in s.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!(s[4] < 1e-6, "s_5 = {} should be tiny", s[4]);
        // Mass conservation: Σ s_i = expected load per bin = c = 1.
        let total: f64 = s.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "Σ s_i = {total}");
    }

    #[test]
    fn fluid_limit_heavier_c_shifts_up() {
        let s1 = fluid_limit_profile(2, 1.0, 8);
        let s4 = fluid_limit_profile(2, 4.0, 8);
        for i in 0..8 {
            assert!(s4[i] >= s1[i]);
        }
        let total: f64 = s4.iter().take(8).sum();
        assert!((total - 4.0).abs() < 0.05, "Σ s_i = {total} for c=4");
    }
}
