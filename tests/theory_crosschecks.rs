//! Cross-module consistency between the three analytic layers — exact
//! spacings theory (`geo2c-ring::spacings`), concentration bounds (the
//! [`bounds`] module below), and the Monte-Carlo substrate — the
//! relations the paper's proofs implicitly rely on.

use two_choices::ring::spacings;
use two_choices::ring::tail;
use two_choices::ring::RingPartition;
use two_choices::util::rng::Xoshiro256pp;

/// The concentration bounds the paper's proofs lean on, in executable
/// form: its Lemma 2 Chernoff bound, the sharper Chernoff–Hoeffding KL
/// form, and the exact binomial tail as ground truth.
mod bounds {
    /// Multiplicative Chernoff bound, the paper's Lemma 2 (δ = 1 case):
    /// `Pr(B(n,p) ≥ (1+δ)np) ≤ exp(−np·δ²/(2+δ))`.
    pub fn chernoff_upper(n: u64, p: f64, delta: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(delta >= 0.0, "delta must be nonnegative");
        let np = n as f64 * p;
        (-np * delta * delta / (2.0 + delta)).exp().min(1.0)
    }

    /// Binary Kullback–Leibler divergence `KL(a ‖ p)` in nats.
    pub fn kl_divergence(a: f64, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&p));
        let term = |x: f64, y: f64| -> f64 {
            if x == 0.0 {
                0.0
            } else if y == 0.0 {
                f64::INFINITY
            } else {
                x * (x / y).ln()
            }
        };
        term(a, p) + term(1.0 - a, 1.0 - p)
    }

    /// Sharp Chernoff–Hoeffding upper tail: `Pr(B(n,p) ≥ na) ≤
    /// e^{−n KL(a‖p)}` for `a ≥ p` (1 when `a < p`: vacuous there).
    pub fn chernoff_kl(n: u64, p: f64, a: f64) -> f64 {
        if a < p {
            return 1.0;
        }
        (-(n as f64) * kl_divergence(a, p)).exp().min(1.0)
    }

    /// `ln C(n, k)` by exact summation of `ln((n − j + i) / i)` over
    /// `i ≤ j = min(k, n − k)`.
    pub fn ln_choose(n: u64, k: u64) -> f64 {
        if k > n {
            return f64::NEG_INFINITY;
        }
        let j = k.min(n - k);
        (1..=j).map(|i| ((n - j + i) as f64 / i as f64).ln()).sum()
    }

    /// Exact upper tail `Pr(B(n,p) ≥ k)` by stable forward summation of
    /// the pmf (ratios, no factorials).
    pub fn binomial_tail(n: u64, p: f64, k: u64) -> f64 {
        assert!((0.0..=1.0).contains(&p));
        if k == 0 {
            return 1.0;
        }
        if k > n || p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return 1.0; // k <= n here
        }
        let ln_pmf_k = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
        let mut pmf = ln_pmf_k.exp();
        let mut total = 0.0;
        for i in k..=n {
            total += pmf;
            if pmf < 1e-300 && total > 0.0 {
                break;
            }
            // pmf(i+1)/pmf(i) = (n−i)/(i+1) · p/(1−p)
            pmf *= (n - i) as f64 / (i + 1) as f64 * (p / (1.0 - p));
        }
        total.min(1.0)
    }
}

#[test]
fn chernoff_matches_paper_lemma2_form() {
    // Pr(B(n,p) >= 2np) <= e^{-np/3}.
    let n = 10_000;
    let p = 0.01;
    let bound = bounds::chernoff_upper(n, p, 1.0);
    let expected = (-(n as f64) * p / 3.0).exp();
    assert!((bound - expected).abs() < 1e-12);
}

#[test]
fn chernoff_caps_at_one() {
    assert_eq!(bounds::chernoff_upper(1, 0.0, 1.0), 1.0);
    assert_eq!(bounds::chernoff_upper(0, 0.5, 2.0), 1.0);
}

#[test]
fn kl_properties() {
    assert_eq!(bounds::kl_divergence(0.3, 0.3), 0.0);
    assert!(bounds::kl_divergence(0.6, 0.3) > 0.0);
    assert_eq!(bounds::kl_divergence(0.5, 0.0), f64::INFINITY);
    // KL(0 || p) = ln(1/(1-p)).
    assert!((bounds::kl_divergence(0.0, 0.5) - (2.0f64).ln()).abs() < 1e-12);
}

#[test]
fn kl_bound_dominates_lemma2_and_truth() {
    let n = 2000;
    let p = 0.02;
    let k = (2.0 * n as f64 * p) as u64; // the 2np point
    let exact = bounds::binomial_tail(n, p, k);
    let kl = bounds::chernoff_kl(n, p, k as f64 / n as f64);
    let lemma2 = bounds::chernoff_upper(n, p, 1.0);
    assert!(exact <= kl + 1e-12, "exact {exact} vs KL {kl}");
    assert!(kl <= lemma2 + 1e-12, "KL {kl} vs Lemma 2 {lemma2}");
}

#[test]
fn binomial_tail_exact_small_cases() {
    // B(3, 1/2): Pr(>=2) = 4/8 = 0.5; Pr(>=3) = 1/8.
    assert!((bounds::binomial_tail(3, 0.5, 2) - 0.5).abs() < 1e-12);
    assert!((bounds::binomial_tail(3, 0.5, 3) - 0.125).abs() < 1e-12);
    assert_eq!(bounds::binomial_tail(5, 0.3, 0), 1.0);
    assert_eq!(bounds::binomial_tail(5, 0.3, 6), 0.0);
    assert_eq!(bounds::binomial_tail(5, 0.0, 1), 0.0);
    assert_eq!(bounds::binomial_tail(5, 1.0, 5), 1.0);
}

#[test]
fn binomial_tail_matches_normal_regime() {
    // n = 10^4, p = 0.5: Pr(B >= n/2 + 2σ) ≈ 0.0228 (normal approx).
    let n = 10_000u64;
    let sigma = (n as f64 * 0.25).sqrt();
    let k = (n as f64 / 2.0 + 2.0 * sigma).round() as u64;
    let tail = bounds::binomial_tail(n, 0.5, k);
    assert!((tail - 0.0228).abs() < 0.004, "tail {tail}");
}

#[test]
fn ln_choose_symmetry_and_pascal() {
    assert!((bounds::ln_choose(10, 3) - 120.0f64.ln()).abs() < 1e-10);
    assert!((bounds::ln_choose(10, 3) - bounds::ln_choose(10, 7)).abs() < 1e-10);
    assert_eq!(bounds::ln_choose(10, 0), 0.0);
    assert_eq!(bounds::ln_choose(5, 9), f64::NEG_INFINITY);
    // Pascal: C(n,k) = C(n-1,k-1) + C(n-1,k) — check in linear space.
    let c = |n: u64, k: u64| bounds::ln_choose(n, k).exp();
    assert!((c(20, 8) - (c(19, 7) + c(19, 8))).abs() < 1e-6);
}

#[test]
fn ln_choose_exact_at_large_arguments() {
    // Large arguments stay exact: ln C(300, 150) from the summation
    // against the log-factorial sums it abbreviates.
    let ln_fact = |m: u64| (2..=m).map(|i| (i as f64).ln()).sum::<f64>();
    let direct = ln_fact(300) - 2.0 * ln_fact(150);
    assert!((bounds::ln_choose(300, 150) - direct).abs() < 1e-8);
    assert_eq!(bounds::ln_choose(0, 0), 0.0);
    assert_eq!(bounds::ln_choose(1, 1), 0.0);
    assert!((bounds::ln_choose(5, 2) - 10.0f64.ln()).abs() < 1e-12);
}

/// Lemma 4's Chernoff step concretely: the count N_c is (stochastically
/// below) a Binomial(n, e^{−c}); the exact binomial tail at the 2ne^{−c}
/// threshold must dominate the observed violation rate, and the paper's
/// Lemma 2 form must dominate the exact tail.
#[test]
fn lemma4_bound_chain_holds_empirically() {
    let n = 1 << 12;
    let trials = 400;
    let c = 6.0f64;
    let p = (-c).exp();
    let threshold = tail::lemma4_threshold(n, c);

    let mut rng = Xoshiro256pp::from_u64(17);
    let mut violations = 0usize;
    for _ in 0..trials {
        let part = RingPartition::random(n, &mut rng);
        let count = tail::count_arcs_at_least(&part.arc_lengths(), c / n as f64);
        if count as f64 >= threshold {
            violations += 1;
        }
    }
    let observed = violations as f64 / trials as f64;
    let exact_binomial = bounds::binomial_tail(n as u64, p, threshold.ceil() as u64);
    let lemma2 = bounds::chernoff_upper(n as u64, p, 1.0);
    // observed ≾ exact binomial tail ≤ Lemma 2 bound. The binomial tail
    // is itself conservative for N_c (negative dependence helps), so we
    // allow observational noise of a couple trials.
    assert!(
        observed <= exact_binomial.max(2.5 / trials as f64),
        "observed {observed} vs binomial {exact_binomial}"
    );
    assert!(exact_binomial <= lemma2 + 1e-12);
}

/// The expected number of long arcs three ways: the exact closed form
/// `n·(1 − c/n)^{n−1}` (the spacings survival function), its Poisson
/// limit `n·e^{−c}`, and the mean count the substrate produces.
#[test]
fn expected_count_three_ways() {
    let n = 1 << 10;
    let trials = 200;
    let cs = [1.0, 2.0, 5.0];
    let mut rng = Xoshiro256pp::from_u64(19);
    let mut totals = [0usize; 3];
    for _ in 0..trials {
        let arcs = RingPartition::random(n, &mut rng).arc_lengths();
        for (total, &c) in totals.iter_mut().zip(&cs) {
            *total += tail::count_arcs_at_least(&arcs, c / n as f64);
        }
    }
    for (&total, &c) in totals.iter().zip(&cs) {
        let exact = n as f64 * spacings::arc_survival(n, c / n as f64);
        // (1 − c/n)^{n−1} = e^{−c} · e^{c(1 − c/2)/n + O(1/n²)}.
        let poisson = n as f64 * (-c).exp();
        assert!(
            (exact / poisson - 1.0).abs() < 0.01,
            "c={c}: {exact} vs {poisson}"
        );
        let observed = total as f64 / trials as f64;
        assert!(
            (observed - exact).abs() < 0.05 * exact + 0.5,
            "c={c}: Monte-Carlo {observed} vs closed form {exact}"
        );
    }
}

/// Lemma 6's bound dominates the exact expectation of the top-a sum for
/// every a in its domain, with the documented ~2x slack at the low end.
#[test]
fn lemma6_dominates_exact_expectation() {
    let n = 1 << 16;
    let lnn = (n as f64).ln();
    let lo = (lnn * lnn) as usize;
    for a in [lo, 2 * lo, n / 256, n / 64] {
        let bound = tail::lemma6_bound(n, a);
        let exact = spacings::expected_top_a_sum(n, a);
        assert!(
            bound > exact,
            "a={a}: bound {bound} must exceed exact mean {exact}"
        );
    }
}

/// The paper's longest-arc bound 4 ln n / n is ≈ 4x the exact mean H_n/n.
#[test]
fn longest_arc_bound_slack() {
    for exp in [10u32, 16, 20] {
        let n = 1usize << exp;
        let ratio = tail::longest_arc_bound(n) / spacings::expected_max_arc(n);
        assert!(
            (3.0..=4.5).contains(&ratio),
            "n=2^{exp}: slack ratio {ratio}"
        );
    }
}

/// Azuma with Lipschitz constant 2 (Lemma 5's setting) is always weaker
/// than the negative-dependence Chernoff route (Lemma 4) at the paper's
/// threshold — the quantitative content of the paper's remark that
/// negative dependence "slightly simplifies Theorem 1".
#[test]
fn lemma4_beats_lemma5_throughout() {
    let n = 1 << 14;
    for c in [2.0f64, 3.0, 4.0, 6.0, 8.0] {
        let l4 = tail::lemma4_prob_bound(n, c);
        let l5 = tail::lemma5_prob_bound(n, c);
        assert!(l4 <= l5, "c={c}: Lemma 4 {l4} vs Lemma 5 {l5}");
    }
}

/// KL-form Chernoff ≤ the paper's Lemma 2 form at the 2np point, for the
/// parameter ranges the lemmas use.
#[test]
fn kl_bound_tightens_lemma2() {
    for &(n, p) in &[(1u64 << 12, 0.01f64), (1 << 16, 0.001), (1 << 10, 0.1)] {
        let kl = bounds::chernoff_kl(n, p, 2.0 * p);
        let l2 = bounds::chernoff_upper(n, p, 1.0);
        assert!(kl <= l2 + 1e-12, "n={n} p={p}: KL {kl} vs L2 {l2}");
    }
}
