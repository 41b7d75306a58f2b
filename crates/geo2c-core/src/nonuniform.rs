//! Non-uniform models: the paper's footnote 2 and the conclusion's open
//! question, as executable spaces.
//!
//! Theorem 1 assumes both the servers and the probes are uniform. Two
//! relaxations matter in practice and are each represented here:
//!
//! * **Clustered servers** ([`RingMix::build_partition`]) — servers
//!   concentrate in part of the space, so a few servers own huge regions.
//!   This is the conclusion's "how much non-uniformity among bins can the
//!   two-choice paradigm stand?" (experiment E15 sweeps it).
//! * **Clustered probes** ([`MixRingSpace`]) — servers are uniform but
//!   *items* probe non-uniformly (footnote 2's bank customers).
//!
//! Both draw from one law, [`RingMix`]: a mixture of the uniform circle
//! and a uniform cluster interval, chosen because every region's probe
//! mass is then *exact* (piecewise-linear in arc overlap), so even the
//! region-size tie-breaks remain well-defined: a "region's size" is its
//! probability of being probed, not its geometric length.

use crate::space::{Space, LANE_BLOCK};
use geo2c_ring::{Ownership, RingPartition, RingPoint};
use geo2c_util::rng::LaneSource;
use rand::Rng;

/// A clustered mixture law on the circle: with probability `q` a point
/// is uniform on the cluster interval `[start, start + width)` (wrapped),
/// otherwise uniform on the circle. It drives both relaxations: probe
/// points through [`MixRingSpace`], server positions through
/// [`RingMix::build_partition`].
#[derive(Debug, Clone, Copy)]
pub struct RingMix {
    /// Probability a point comes from the cluster.
    pub q: f64,
    /// Cluster start coordinate.
    pub start: f64,
    /// Cluster width in `(0, 1]`.
    pub width: f64,
}

impl RingMix {
    /// Creates a mixture; `q = 0` is the uniform law.
    ///
    /// # Panics
    /// Panics unless `0 ≤ q ≤ 1` and `0 < width ≤ 1`.
    #[must_use]
    pub fn new(q: f64, start: f64, width: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "q must be a probability");
        assert!(width > 0.0 && width <= 1.0, "width must be in (0, 1]");
        Self { q, start, width }
    }

    /// Samples one point.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RingPoint {
        if rng.gen::<f64>() < self.q {
            RingPoint::new(self.start + rng.gen::<f64>() * self.width)
        } else {
            RingPoint::random(rng)
        }
    }

    /// Builds an `n`-server partition with every position drawn from the
    /// law (clustered servers).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn build_partition<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> RingPartition {
        assert!(n > 0);
        RingPartition::from_positions((0..n).map(|_| self.sample(rng)).collect())
    }

    /// Length of the overlap between the clockwise arc `(from, to]` and
    /// the cluster interval, handling both wraps exactly.
    fn overlap_with_cluster(&self, from: RingPoint, to: RingPoint) -> f64 {
        // Work on the line by cutting the circle at the cluster start.
        let shift = |p: RingPoint| -> f64 {
            let v = p.coord() - self.start;
            if v < 0.0 {
                v + 1.0
            } else {
                v
            }
        };
        let a = shift(from);
        let b = shift(to);
        let interval = |lo: f64, hi: f64| -> f64 {
            // Overlap of [lo, hi] with [0, width] on the line.
            (hi.min(self.width) - lo.max(0.0)).max(0.0)
        };
        if a <= b {
            interval(a, b)
        } else {
            // The arc wraps past the cut: [a, 1] ∪ [0, b].
            interval(a, 1.0) + interval(0.0, b)
        }
    }

    /// Exact probe mass of the clockwise arc `(from, to]`:
    /// `(1 − q)·len + q·overlap/width`.
    #[must_use]
    pub fn arc_mass(&self, from: RingPoint, to: RingPoint) -> f64 {
        let len = from.clockwise_to(to);
        let overlap = self.overlap_with_cluster(from, to);
        (1.0 - self.q) * len + self.q * overlap / self.width
    }
}

/// A ring space probed by a [`RingMix`] law instead of the uniform law.
///
/// `region_size` returns each server's *probe mass* (exact), which is the
/// quantity the two-choices process actually cares about: the probability
/// the server is hit. Under a non-uniform probe law the geometric arc
/// length and the probe mass diverge; tie-breaking by mass is the natural
/// generalization of Table 3's *arc-smaller*.
#[derive(Debug, Clone)]
pub struct MixRingSpace {
    partition: RingPartition,
    mix: RingMix,
    masses: Vec<f64>,
}

impl MixRingSpace {
    /// Wraps a partition with a probe mixture (successor ownership).
    #[must_use]
    pub fn new(partition: RingPartition, mix: RingMix) -> Self {
        let n = partition.len();
        let masses = (0..n)
            .map(|i| {
                let pred = (i + n - 1) % n;
                if n == 1 {
                    1.0
                } else {
                    mix.arc_mass(partition.position(pred), partition.position(i))
                }
            })
            .collect();
        Self {
            partition,
            mix,
            masses,
        }
    }

    /// The underlying partition.
    #[must_use]
    pub fn partition(&self) -> &RingPartition {
        &self.partition
    }

    /// The probe law.
    #[must_use]
    pub fn mix(&self) -> RingMix {
        self.mix
    }
}

impl Space for MixRingSpace {
    fn num_servers(&self) -> usize {
        self.partition.len()
    }

    fn sample_owner<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.partition
            .owner(self.mix.sample(rng), Ownership::Successor)
    }

    fn sample_owners_lanes<L: LaneSource>(&self, lanes: &L, d: usize, out: &mut [usize]) {
        // Lane contract: ball i draws its d mixture points, in order,
        // from lanes.probe(i) (a mixture probe consumes a variable
        // number of draws — private lanes make that harmless); batched
        // owner lookups per chunk.
        if d == 0 || d > LANE_BLOCK {
            crate::space::lane_owners_generic(self, lanes, d, out);
            return;
        }
        crate::space::lane_owners_chunked(
            lanes,
            d,
            out,
            RingPoint::new(0.0),
            |probe| self.mix.sample(probe),
            |points, chunk| {
                self.partition
                    .owners_into(points, Ownership::Successor, chunk)
            },
        );
    }

    fn sample_owner_in_division<R: Rng + ?Sized>(&self, rng: &mut R, j: usize, d: usize) -> usize {
        assert!(d > 0 && j < d, "division {j} of {d}");
        // Rejection-sample the mixture into the division's interval; the
        // division law is the mixture conditioned on the interval.
        let lo = j as f64 / d as f64;
        let hi = (j + 1) as f64 / d as f64;
        loop {
            let p = self.mix.sample(rng);
            if p.coord() >= lo && p.coord() < hi {
                return self.partition.owner(p, Ownership::Successor);
            }
        }
    }

    fn region_size(&self, server: usize) -> f64 {
        self.masses[server]
    }

    fn position_key(&self, server: usize) -> f64 {
        self.partition.position(server).coord()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run_trial;
    use crate::strategy::{Strategy, TieBreak};
    use geo2c_util::rng::Xoshiro256pp;

    #[test]
    fn clustered_model_respects_q() {
        let model = RingMix::new(0.8, 0.0, 0.1);
        let mut rng = Xoshiro256pp::from_u64(1);
        let mut in_cluster = 0u32;
        let total = 20_000;
        for _ in 0..total {
            if model.sample(&mut rng).coord() < 0.1 {
                in_cluster += 1;
            }
        }
        // 0.8 cluster + 0.2·0.1 background ≈ 0.82.
        let frac = f64::from(in_cluster) / f64::from(total);
        assert!((frac - 0.82).abs() < 0.02, "cluster fraction {frac}");
    }

    #[test]
    fn q_zero_is_uniform() {
        let model = RingMix::new(0.0, 0.3, 0.1);
        let mut rng = Xoshiro256pp::from_u64(2);
        let part = model.build_partition(2000, &mut rng);
        // Quarters of the circle get roughly equal counts.
        let mut quarters = [0u32; 4];
        for p in part.positions() {
            quarters[(p.coord() * 4.0) as usize & 3] += 1;
        }
        for q in quarters {
            assert!((f64::from(q) / 2000.0 - 0.25).abs() < 0.05);
        }
    }

    #[test]
    fn mix_masses_partition_unity() {
        let mut rng = Xoshiro256pp::from_u64(3);
        for q in [0.0, 0.3, 0.9] {
            let part = RingPartition::random(64, &mut rng);
            let space = MixRingSpace::new(part, RingMix::new(q, 0.25, 0.2));
            let total: f64 = (0..64).map(|i| space.region_size(i)).sum();
            assert!((total - 1.0).abs() < 1e-9, "q={q}: masses sum to {total}");
        }
    }

    #[test]
    fn mix_masses_match_hit_rates() {
        let mut rng = Xoshiro256pp::from_u64(4);
        let part = RingPartition::random(16, &mut rng);
        let space = MixRingSpace::new(part, RingMix::new(0.6, 0.7, 0.15));
        let mut hits = [0u64; 16];
        let samples = 300_000;
        for _ in 0..samples {
            hits[space.sample_owner(&mut rng)] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            let rate = h as f64 / f64::from(samples);
            assert!(
                (rate - space.region_size(i)).abs() < 0.01,
                "server {i}: rate {rate} vs mass {}",
                space.region_size(i)
            );
        }
    }

    #[test]
    fn arc_mass_handles_wrapping_arcs() {
        // Cluster [0.9, 1.0) ∪ [0, 0.1).
        let mix = RingMix::new(1.0, 0.9, 0.2);
        // Arc (0.95, 0.05] lies entirely inside the cluster: mass = 0.1/0.2.
        let m = mix.arc_mass(RingPoint::new(0.95), RingPoint::new(0.05));
        assert!((m - 0.5).abs() < 1e-12, "wrapped arc mass {m}");
        // Arc (0.3, 0.6] misses the cluster entirely: mass 0 (q = 1).
        let m2 = mix.arc_mass(RingPoint::new(0.3), RingPoint::new(0.6));
        assert!(m2.abs() < 1e-12);
    }

    #[test]
    fn uniform_mix_mass_equals_arc_length() {
        let mut rng = Xoshiro256pp::from_u64(5);
        let part = RingPartition::random(32, &mut rng);
        let space = MixRingSpace::new(part.clone(), RingMix::new(0.0, 0.0, 1.0));
        for i in 0..32 {
            assert!(
                (space.region_size(i) - part.arc_length(i)).abs() < 1e-12,
                "server {i}"
            );
        }
    }

    #[test]
    fn two_choices_still_help_under_clustered_probes() {
        let mut one_total = 0u64;
        let mut two_total = 0u64;
        for seed in 0..10 {
            let mut rng = Xoshiro256pp::from_u64(100 + seed);
            let part = RingPartition::random(1024, &mut rng);
            let space = MixRingSpace::new(part, RingMix::new(0.7, 0.2, 0.1));
            one_total +=
                u64::from(run_trial(&space, &Strategy::one_choice(), 1024, &mut rng).max_load);
            two_total +=
                u64::from(run_trial(&space, &Strategy::two_choice(), 1024, &mut rng).max_load);
        }
        assert!(
            two_total * 2 < one_total,
            "clustered probes: d=2 {two_total} should be < half of d=1 {one_total}"
        );
    }

    #[test]
    fn mass_tie_break_runs() {
        let mut rng = Xoshiro256pp::from_u64(6);
        let part = RingPartition::random(128, &mut rng);
        let space = MixRingSpace::new(part, RingMix::new(0.5, 0.0, 0.25));
        let strategy = Strategy::with_tie_break(2, TieBreak::SmallerRegion);
        let result = run_trial(&space, &strategy, 256, &mut rng);
        assert_eq!(result.total_balls(), 256);
    }

    #[test]
    fn division_sampling_stays_in_division() {
        let mut rng = Xoshiro256pp::from_u64(7);
        let part =
            RingPartition::from_positions((0..8).map(|i| RingPoint::new(i as f64 / 8.0)).collect());
        let space = MixRingSpace::new(part, RingMix::new(0.5, 0.0, 0.5));
        for j in 0..2 {
            for _ in 0..200 {
                let owner = space.sample_owner_in_division(&mut rng, j, 2);
                // Servers at k/8; division j covers (j·0.5, j·0.5+0.5];
                // successor ownership maps interval [0,0.5) probes to
                // servers 1..=4 and [0.5,1) to 5..=7, 0.
                assert!(owner < 8);
            }
        }
    }

    #[test]
    #[should_panic(expected = "width must be in")]
    fn zero_width_rejected() {
        let _ = RingMix::new(0.5, 0.0, 0.0);
    }
}
