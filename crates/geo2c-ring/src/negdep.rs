//! Empirical verification of Lemma 3: **negative dependence** of the
//! long-arc indicators.
//!
//! Lemma 3 proves that the indicators `Z_j` ("the arc from the `j`-th
//! placed point has length ≥ `c/n`") satisfy, for any distinct indices,
//!
//! ```text
//! E[Z_{i1} Z_{i2} … Z_{ik}]  ≤  E[Z_{i1}] E[Z_{i2}] … E[Z_{ik}],
//! ```
//!
//! which is what lets the Chernoff upper-tail bound apply to `N_c = Σ Z_j`
//! despite the dependence between arc lengths. The paper proves it by a
//! conditioning argument (shrinking the circle by the reserved arcs);
//! intuitively, one long arc uses up circumference, making other long
//! arcs *less* likely.
//!
//! [`negative_dependence_experiment`] measures the joint probability
//! `E[Z_1 … Z_k]` against the exact marginal `(1 − c/n)^{n−1}` raised to
//! the `k`, reporting the ratio (≤ 1 + sampling noise if the lemma
//! holds). By exchangeability of the placement the specific index set is
//! irrelevant, so each trial contributes `⌊n/k⌋` disjoint index groups as
//! samples.

use crate::partition::RingPartition;
use crate::point::RingPoint;
use geo2c_util::parallel::run_trials;
use geo2c_util::rng::StreamSeeder;
use rand::Rng;

/// Exact marginal probability `Pr(Z_j = 1) = (1 − c/n)^{n−1}`.
#[must_use]
pub fn exact_marginal(n: usize, c: f64) -> f64 {
    let nf = n as f64;
    if c >= nf {
        return 0.0;
    }
    (1.0 - c / nf).powi(n as i32 - 1)
}

/// One row of the negative-dependence experiment.
#[derive(Debug, Clone, Copy)]
pub struct NegDepRow {
    /// Arc-length threshold parameter (`arcs ≥ c/n` are long).
    pub c: f64,
    /// Order of the joint moment tested.
    pub k: usize,
    /// Monte-Carlo estimate of `E[Z_1 … Z_k]`.
    pub joint: f64,
    /// `(1 − c/n)^{k(n−1)}` — the product of exact marginals.
    pub product_of_marginals: f64,
    /// Monte-Carlo estimate of the marginal `E[Z]` (sanity cross-check).
    pub empirical_marginal: f64,
    /// `joint / product_of_marginals`; Lemma 3 says ≤ 1 (up to noise).
    pub ratio: f64,
    /// Number of joint samples behind the estimate.
    pub samples: u64,
}

/// Forward (clockwise) gap of every *placed* point: the arc it "owns" in
/// the paper's Lemma 3 sense. Returned in placement order, not sorted
/// order.
#[must_use]
pub fn forward_gaps(points: &[RingPoint]) -> Vec<f64> {
    let n = points.len();
    assert!(n >= 1);
    if n == 1 {
        return vec![1.0];
    }
    // Sort indices by coordinate; the forward gap of the point at sorted
    // position s is positions[s+1] − positions[s] (wrapped).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .coord()
            .partial_cmp(&points[b].coord())
            .expect("canonical coords")
    });
    let mut gaps = vec![0.0; n];
    for s in 0..n {
        let here = order[s];
        let next = order[(s + 1) % n];
        gaps[here] = points[here].clockwise_to(points[next]);
        if n >= 2 && points[here] == points[next] {
            // Coincident points: gap truly 0 unless all points coincide.
            gaps[here] = points[here].clockwise_to(points[next]);
        }
    }
    // A single full wrap: when all points coincide every gap is 0 except
    // conceptually one; measure-zero, leave as-is.
    gaps
}

/// Runs the Lemma 3 experiment for each `(c, k)` combination.
#[must_use]
pub fn negative_dependence_experiment(
    n: usize,
    cs: &[f64],
    ks: &[usize],
    trials: usize,
    seeder: &StreamSeeder,
    threads: usize,
) -> Vec<NegDepRow> {
    assert!(ks.iter().all(|&k| k >= 1 && k <= n), "1 <= k <= n");
    // Per trial, per (c, k): (joint hits, joint groups, marginal hits).
    let per_trial: Vec<Vec<(u64, u64, u64)>> = run_trials(seeder, trials, threads, |rng| {
        let points: Vec<RingPoint> = (0..n).map(|_| RingPoint::random(rng)).collect();
        let gaps = forward_gaps(&points);
        let mut out = Vec::with_capacity(cs.len() * ks.len());
        for &c in cs {
            let cutoff = c / n as f64;
            let z: Vec<bool> = gaps.iter().map(|&g| g >= cutoff).collect();
            let marginal_hits = z.iter().filter(|&&b| b).count() as u64;
            for &k in ks {
                let groups = n / k;
                let mut hits = 0u64;
                for g in 0..groups {
                    if z[g * k..(g + 1) * k].iter().all(|&b| b) {
                        hits += 1;
                    }
                }
                out.push((hits, groups as u64, marginal_hits));
            }
        }
        out
    });

    let mut rows = Vec::with_capacity(cs.len() * ks.len());
    let mut idx = 0usize;
    for &c in cs {
        for &k in ks {
            let mut hits = 0u64;
            let mut groups = 0u64;
            let mut marginal_hits = 0u64;
            for trial in &per_trial {
                let (h, g, m) = trial[idx];
                hits += h;
                groups += g;
                marginal_hits += m;
            }
            let joint = hits as f64 / groups.max(1) as f64;
            let marginal = exact_marginal(n, c);
            let product = marginal.powi(k as i32);
            rows.push(NegDepRow {
                c,
                k,
                joint,
                product_of_marginals: product,
                empirical_marginal: marginal_hits as f64 / (trials as u64 * n as u64) as f64,
                ratio: if product > 0.0 { joint / product } else { 0.0 },
                samples: groups,
            });
            idx += 1;
        }
    }
    rows
}

/// Direct check that a single uniform point's forward gap has the exact
/// marginal, used by the tests as a self-check.
///
/// Note the subtlety this guards against: the marginal applies to the
/// forward gap of a *placed point* (any fixed placement index, by
/// exchangeability). The arc containing a fixed *location* of the circle
/// (e.g. the coordinate origin — `RingPartition::arc_length(0)`'s wrap
/// arc) is **size-biased** and has a strictly heavier tail,
/// `≈ (1 + c) e^{−c}` instead of `e^{−c}`.
#[must_use]
pub fn marginal_self_check<R: Rng + ?Sized>(n: usize, c: f64, trials: usize, rng: &mut R) -> f64 {
    let cutoff = c / n as f64;
    let mut hits = 0u64;
    for _ in 0..trials {
        let points: Vec<RingPoint> = (0..n).map(|_| RingPoint::random(rng)).collect();
        if forward_gaps(&points)[0] >= cutoff {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

/// The size-biased tail: probability that the arc containing a fixed
/// location (the origin) has length ≥ `c/n`. Exposed so the distinction
/// from [`marginal_self_check`] can be demonstrated explicitly.
#[must_use]
pub fn size_biased_self_check<R: Rng + ?Sized>(
    n: usize,
    c: f64,
    trials: usize,
    rng: &mut R,
) -> f64 {
    let cutoff = c / n as f64;
    let mut hits = 0u64;
    for _ in 0..trials {
        let part = RingPartition::random(n, rng);
        // arc_length(0) is the wrap arc — the one containing coordinate 0.
        if part.arc_length(0) >= cutoff {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo2c_util::rng::Xoshiro256pp;

    #[test]
    fn exact_marginal_formula() {
        // n = 2, c = 1: (1 − 1/2)^1 = 0.5.
        assert!((exact_marginal(2, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(exact_marginal(8, 8.0), 0.0);
        // Approaches e^{-c} for large n.
        assert!((exact_marginal(100_000, 3.0) - (-3.0f64).exp()).abs() < 1e-4);
    }

    #[test]
    fn forward_gaps_partition_unity() {
        let mut rng = Xoshiro256pp::from_u64(1);
        for n in [1usize, 2, 7, 100] {
            let points: Vec<RingPoint> = (0..n).map(|_| RingPoint::random(&mut rng)).collect();
            let total: f64 = forward_gaps(&points).iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n}: {total}");
        }
    }

    #[test]
    fn forward_gaps_explicit() {
        let points = vec![
            RingPoint::new(0.8),
            RingPoint::new(0.1),
            RingPoint::new(0.4),
        ];
        let gaps = forward_gaps(&points);
        // Point at 0.8 wraps to 0.1: gap 0.3; 0.1 → 0.4: 0.3; 0.4 → 0.8: 0.4.
        assert!((gaps[0] - 0.3).abs() < 1e-12);
        assert!((gaps[1] - 0.3).abs() < 1e-12);
        assert!((gaps[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn marginals_match_exact_formula() {
        let seeder = StreamSeeder::new(2);
        let rows = negative_dependence_experiment(256, &[2.0, 4.0], &[1], 400, &seeder, 2);
        for row in rows {
            assert!(
                (row.empirical_marginal - exact_marginal(256, row.c)).abs() < 0.02,
                "c={}: empirical {} vs exact {}",
                row.c,
                row.empirical_marginal,
                exact_marginal(256, row.c)
            );
            // k=1: joint is the marginal itself; ratio ≈ 1.
            assert!(
                (row.ratio - 1.0).abs() < 0.2,
                "c={}: ratio {}",
                row.c,
                row.ratio
            );
        }
    }

    #[test]
    fn joint_moments_are_negatively_dependent() {
        // The lemma's content: ratio ≤ 1 (+ sampling noise; within-trial
        // group samples are correlated, so allow a few percent).
        let seeder = StreamSeeder::new(3);
        let rows = negative_dependence_experiment(512, &[1.0, 2.0], &[2, 3], 2500, &seeder, 2);
        for row in rows {
            assert!(
                row.ratio <= 1.05,
                "c={} k={}: ratio {} exceeds 1 beyond noise",
                row.c,
                row.k,
                row.ratio
            );
            assert!(row.samples > 10_000, "not enough joint samples");
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let seeder = StreamSeeder::new(4);
        let a = negative_dependence_experiment(64, &[2.0], &[2], 50, &seeder, 1);
        let b = negative_dependence_experiment(64, &[2.0], &[2], 50, &seeder, 4);
        assert_eq!(a[0].joint, b[0].joint);
    }

    #[test]
    fn marginal_self_check_agrees() {
        let mut rng = Xoshiro256pp::from_u64(5);
        let got = marginal_self_check(128, 2.0, 600, &mut rng);
        let want = exact_marginal(128, 2.0);
        assert!((got - want).abs() < 0.06, "{got} vs {want}");
    }

    #[test]
    fn size_biased_arc_has_heavier_tail() {
        // The arc containing a fixed location is size-biased: its tail is
        // ≈ (1 + c) e^{−c}, strictly above the point-gap marginal e^{−c}.
        let mut rng = Xoshiro256pp::from_u64(7);
        let c = 2.0;
        let biased = size_biased_self_check(128, c, 800, &mut rng);
        let plain = exact_marginal(128, c);
        assert!(
            biased > 1.5 * plain,
            "size-biased {biased} should exceed plain {plain} markedly"
        );
        let predicted = (1.0 + c) * (-c).exp();
        assert!(
            (biased - predicted).abs() < 0.08,
            "size-biased {biased} vs (1+c)e^-c = {predicted}"
        );
    }

    #[test]
    #[should_panic(expected = "1 <= k <= n")]
    fn k_zero_rejected() {
        let seeder = StreamSeeder::new(6);
        let _ = negative_dependence_experiment(16, &[2.0], &[0], 1, &seeder, 1);
    }
}
