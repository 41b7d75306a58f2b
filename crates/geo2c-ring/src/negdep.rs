//! Lemma 3's object: the long-arc indicators of the **placed points**.
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
//! [`forward_gaps`] gives each placed point the arc it owns, in placement
//! order, so `Z_j` is `gaps[j] ≥ c/n`. The exact marginal
//! `E[Z_j] = (1 − c/n)^{n−1}` is [`crate::spacings::arc_survival`]. The
//! `lemma3` member of the `run_tables` suite measures the joint moments
//! against the product of those marginals.

use crate::point::RingPoint;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RingPartition;
    use crate::spacings::arc_survival;
    use geo2c_util::rng::Xoshiro256pp;
    use rand::Rng;

    /// Fraction of `trials` placements whose first placed point's forward
    /// gap is at least `c/n`: the plain marginal of `Z_1`.
    fn marginal_self_check<R: Rng + ?Sized>(n: usize, c: f64, trials: usize, rng: &mut R) -> f64 {
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

    /// Fraction of `trials` placements whose arc containing the origin is
    /// at least `c/n` long. That arc is picked by a fixed *location*, not
    /// a placed point, so it is size-biased: its tail is heavier than
    /// [`marginal_self_check`]'s.
    fn size_biased_self_check<R: Rng + ?Sized>(
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

    #[test]
    fn exact_marginal_formula() {
        // Lemma 3's marginal E[Z_j] is the spacings survival at c/n.
        // n = 2, c = 1: (1 − 1/2)^1 = 0.5.
        assert!((arc_survival(2, 0.5) - 0.5).abs() < 1e-12);
        assert_eq!(arc_survival(8, 8.0 / 8.0), 0.0);
        // Approaches e^{-c} for large n.
        let n = 100_000;
        assert!((arc_survival(n, 3.0 / n as f64) - (-3.0f64).exp()).abs() < 1e-4);
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
    fn marginal_self_check_agrees() {
        let mut rng = Xoshiro256pp::from_u64(5);
        let got = marginal_self_check(128, 2.0, 600, &mut rng);
        let want = arc_survival(128, 2.0 / 128.0);
        assert!((got - want).abs() < 0.06, "{got} vs {want}");
    }

    #[test]
    fn size_biased_arc_has_heavier_tail() {
        // The arc containing a fixed location is size-biased: its tail is
        // ≈ (1 + c) e^{−c}, strictly above the point-gap marginal e^{−c}.
        let mut rng = Xoshiro256pp::from_u64(7);
        let c = 2.0;
        let biased = size_biased_self_check(128, c, 800, &mut rng);
        let plain = arc_survival(128, c / 128.0);
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
}
