//! Positions on the unit circle (circumference 1) with wrapped arithmetic.
//!
//! The paper works on a circle of circumference 1; all positions live in
//! `[0, 1)` and all distances are computed modulo 1. We fix an orientation
//! convention once and use it everywhere:
//!
//! * "**clockwise** from `a` to `b`" means moving in the direction of
//!   *increasing* coordinate, i.e. the distance is `(b − a) mod 1`. This
//!   matches Chord's "key is assigned to the nearest server in the clockwise
//!   direction" with server identifiers increasing clockwise.
//! * The paper's "counterclockwise arc from the jth point" is then the arc
//!   `(p_j − ℓ, p_j]` of the *predecessor* gap. Only the multiset of arc
//!   lengths matters for every result in the paper, so the two conventions
//!   are interchangeable; tests in [`crate::partition`] verify this.

use rand::Rng;

/// A point on the unit circle, stored as a coordinate in `[0, 1)`.
///
/// Construction normalizes any finite `f64` into the canonical range, so
/// wrapped arithmetic (`+ 0.3` past 1.0, negative offsets, …) is safe by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct RingPoint(f64);

impl RingPoint {
    /// Creates a point, wrapping `x` into `[0, 1)`.
    ///
    /// # Panics
    /// Panics if `x` is not finite.
    #[must_use]
    pub fn new(x: f64) -> Self {
        assert!(x.is_finite(), "ring coordinate must be finite, got {x}");
        // Already-canonical inputs (every probe the samplers draw) skip
        // the fmod; the fallback matches rem_euclid bit-for-bit.
        if (0.0..1.0).contains(&x) {
            return Self(x);
        }
        let mut v = x.rem_euclid(1.0);
        // rem_euclid can return exactly 1.0 for tiny negative inputs due to
        // rounding; canonicalize.
        if v >= 1.0 {
            v = 0.0;
        }
        Self(v)
    }

    /// Samples a uniformly random point on the circle.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self(rng.gen::<f64>())
    }

    /// The coordinate in `[0, 1)`.
    #[must_use]
    pub fn coord(self) -> f64 {
        self.0
    }

    /// Clockwise distance from `self` to `other`: `(other − self) mod 1`,
    /// in `[0, 1)`.
    #[must_use]
    pub fn clockwise_to(self, other: RingPoint) -> f64 {
        let d = other.0 - self.0;
        if d < 0.0 {
            d + 1.0
        } else {
            d
        }
    }

    /// Symmetric ring distance: the shorter way around, in `[0, 0.5]`.
    #[must_use]
    pub fn distance(self, other: RingPoint) -> f64 {
        let cw = self.clockwise_to(other);
        cw.min(1.0 - cw)
    }

    /// The point at clockwise offset `delta` from `self` (wraps).
    #[must_use]
    pub fn offset(self, delta: f64) -> RingPoint {
        RingPoint::new(self.0 + delta)
    }
}

impl Eq for RingPoint {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for RingPoint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Coordinates are finite and canonical by construction, so
        // partial_cmp never fails.
        self.0.partial_cmp(&other.0).expect("canonical coordinates")
    }
}

impl From<f64> for RingPoint {
    fn from(x: f64) -> Self {
        RingPoint::new(x)
    }
}

impl std::fmt::Display for RingPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo2c_util::rng::Xoshiro256pp;

    #[test]
    fn new_wraps_into_unit_interval() {
        assert_eq!(RingPoint::new(0.25).coord(), 0.25);
        assert_eq!(RingPoint::new(1.25).coord(), 0.25);
        assert!((RingPoint::new(-0.25).coord() - 0.75).abs() < 1e-12);
        assert_eq!(RingPoint::new(1.0).coord(), 0.0);
        assert_eq!(RingPoint::new(-3.0).coord(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn new_rejects_nan() {
        let _ = RingPoint::new(f64::NAN);
    }

    #[test]
    fn clockwise_distance() {
        let a = RingPoint::new(0.1);
        let b = RingPoint::new(0.4);
        assert!((a.clockwise_to(b) - 0.3).abs() < 1e-12);
        assert!((b.clockwise_to(a) - 0.7).abs() < 1e-12);
        assert_eq!(a.clockwise_to(a), 0.0);
    }

    #[test]
    fn symmetric_distance_takes_shorter_way() {
        let a = RingPoint::new(0.05);
        let b = RingPoint::new(0.95);
        assert!((a.distance(b) - 0.1).abs() < 1e-12);
        assert_eq!(a.distance(b), b.distance(a));
        assert!(a.distance(b) <= 0.5 + 1e-12);
    }

    #[test]
    fn offset_wraps() {
        let p = RingPoint::new(0.9).offset(0.2);
        assert!((p.coord() - 0.1).abs() < 1e-12);
        let q = RingPoint::new(0.1).offset(-0.2);
        assert!((q.coord() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn random_points_are_canonical() {
        let mut rng = Xoshiro256pp::from_u64(1);
        for _ in 0..1000 {
            let p = RingPoint::random(&mut rng);
            assert!((0.0..1.0).contains(&p.coord()));
        }
    }

    #[test]
    fn ordering_is_by_coordinate() {
        let mut pts = [
            RingPoint::new(0.9),
            RingPoint::new(0.1),
            RingPoint::new(0.5),
        ];
        pts.sort();
        let coords: Vec<f64> = pts.iter().map(|p| p.coord()).collect();
        assert_eq!(coords, vec![0.1, 0.5, 0.9]);
    }
}
