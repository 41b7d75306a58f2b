//! Wrapped coordinate arithmetic on the unit torus.
//!
//! The torus identifies `x` with `x+1` on every axis, so coordinates are
//! canonicalized into `[0, 1)` ([`wrap01`]) and displacements into
//! `[-0.5, 0.5)` per coordinate ([`wrap_delta`]): the wrapped displacement
//! is the *shortest* vector from one point to another, and the toroidal
//! Euclidean distance is its norm (at most `√K/2` on the `K`-torus,
//! `√2/2` on the paper's 2-D torus). [`crate::kd::KdPoint`] is built on
//! these two functions for every dimension.

/// Wraps a coordinate into `[0, 1)`.
///
/// Already-canonical inputs (the overwhelmingly common case) take a
/// branch, not an `fmod` libcall; the fallback matches `rem_euclid`
/// bit-for-bit.
#[inline]
#[must_use]
pub fn wrap01(v: f64) -> f64 {
    if (0.0..1.0).contains(&v) {
        return v;
    }
    let mut w = v.rem_euclid(1.0);
    if w >= 1.0 {
        w = 0.0;
    }
    w
}

/// Canonicalizes a displacement component into `[-0.5, 0.5)`.
///
/// Differences of `[0, 1)` coordinates lie in `(-1, 1)`, where the
/// canonicalization is two *branchless* arithmetic selects (the
/// comparisons convert to `0.0`/`1.0` addends). This is the innermost
/// operation of every toroidal distance; with data-dependent values the
/// two range tests are 50/50 coin flips, and replacing their branch
/// mispredicts with converts is worth more than any instruction saved
/// elsewhere in the scan loops. Adding `0.0` keeps the arithmetic
/// bit-identical to the branchy form (up to the sign of a `-0.0`
/// input). The out-of-range fallback matches `rem_euclid` bit-for-bit.
#[inline]
#[must_use]
pub fn wrap_delta(d: f64) -> f64 {
    if (-1.0..1.0).contains(&d) {
        // Branchless: w = d + [d < 0]; w -= [w ≥ 0.5].
        let w = d + f64::from(u8::from(d < 0.0));
        w - f64::from(u8::from(w >= 0.5))
    } else {
        let mut w = d.rem_euclid(1.0);
        if w >= 0.5 {
            w -= 1.0;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kd::KdPoint;
    use geo2c_util::rng::Xoshiro256pp;
    use rand::Rng;

    #[test]
    fn new_wraps() {
        let p = KdPoint::new([1.25, -0.25]);
        assert!((p.coords[0] - 0.25).abs() < 1e-12);
        assert!((p.coords[1] - 0.75).abs() < 1e-12);
        assert_eq!(KdPoint::new([1.0, 2.0]), KdPoint::new([0.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn new_rejects_infinite() {
        let _ = KdPoint::new([f64::INFINITY, 0.0]);
    }

    #[test]
    fn wrap_delta_canonical_range() {
        assert!((wrap_delta(0.7) - -0.3).abs() < 1e-12);
        assert!((wrap_delta(-0.7) - 0.3).abs() < 1e-12);
        assert_eq!(wrap_delta(0.5), -0.5);
        assert_eq!(wrap_delta(-0.5), -0.5);
        assert_eq!(wrap_delta(0.0), 0.0);
    }

    #[test]
    fn distance_takes_shortest_path() {
        let a = KdPoint::new([0.05, 0.05]);
        let b = KdPoint::new([0.95, 0.95]);
        // Shortest path wraps both axes: (−0.1, −0.1).
        assert!((a.dist(&b) - (0.02f64).sqrt()).abs() < 1e-12);
        assert_eq!(a.dist(&b), b.dist(&a));
    }

    #[test]
    fn max_distance_is_half_diagonal() {
        let a = KdPoint::new([0.0, 0.0]);
        let b = KdPoint::new([0.5, 0.5]);
        assert!((a.dist(&b) - (0.5f64).sqrt()).abs() < 1e-12);
        let mut rng = Xoshiro256pp::from_u64(2);
        for _ in 0..1000 {
            let p = KdPoint::<2>::random(&mut rng);
            let q = KdPoint::<2>::random(&mut rng);
            assert!(p.dist(&q) <= (0.5f64).sqrt() + 1e-12);
        }
    }

    #[test]
    fn delta_consistent_with_offset() {
        let mut rng = Xoshiro256pp::from_u64(3);
        for _ in 0..1000 {
            let p = KdPoint::<2>::random(&mut rng);
            let (dx, dy) = (rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
            let q = p.offset([dx, dy]);
            let [gx, gy] = p.delta(&q);
            // The recovered displacement equals the applied one (both are
            // already canonical), modulo the ±0.5 boundary.
            if dx.abs() < 0.499 && dy.abs() < 0.499 {
                assert!((gx - dx).abs() < 1e-9, "dx {dx} vs {gx}");
                assert!((gy - dy).abs() < 1e-9, "dy {dy} vs {gy}");
            }
        }
    }

    #[test]
    fn random_points_in_unit_square() {
        let mut rng = Xoshiro256pp::from_u64(4);
        for _ in 0..1000 {
            let p = KdPoint::<2>::random(&mut rng);
            assert!((0.0..1.0).contains(&p.coords[0]));
            assert!((0.0..1.0).contains(&p.coords[1]));
        }
    }
}
