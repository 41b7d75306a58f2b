//! Property tests pinning the bucket-accelerated successor search to the
//! `partition_point` binary-search oracle across adversarial layouts.
//!
//! The `O(1)` fast path ([`RingPartition::successor_index`]) jumps to a
//! coordinate bucket and scans forward, falling back to binary search on
//! dense clusters; any disagreement with
//! [`RingPartition::successor_index_binary`] on *any* input is a bug, not
//! noise, so the comparison is exact index equality.

use geo2c_ring::{Ownership, RingPartition, RingPoint};
use proptest::prelude::*;

/// Uniformly spread positions: the layout the accelerant is tuned for.
fn uniform_positions() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, 1..64)
}

/// Adversarial clusters: many servers packed into a tiny window around an
/// anchor (forces the bounded-scan fallback), plus a few background
/// servers so wrap behaviour still varies.
fn clustered_positions() -> impl Strategy<Value = Vec<f64>> {
    (
        0.0f64..1.0,
        prop::collection::vec(0.0f64..1e-4, 20..60),
        prop::collection::vec(0.0f64..1.0, 0..4),
    )
        .prop_map(|(anchor, offsets, background)| {
            let mut out: Vec<f64> = offsets
                .into_iter()
                .map(|delta| (anchor + delta) % 1.0)
                .collect();
            out.extend(background);
            out
        })
}

/// Probes that matter: arbitrary points, plus points at and immediately
/// around each server (the seams of the half-open arc convention).
fn check_partition(positions: &[f64], probes: &[f64]) {
    let part =
        RingPartition::from_positions(positions.iter().map(|&x| RingPoint::new(x)).collect());
    for &x in probes {
        let p = RingPoint::new(x);
        assert_eq!(
            part.successor_index(p),
            part.successor_index_binary(p),
            "successor mismatch at {x} over {} servers",
            part.len()
        );
    }
    for i in 0..part.len() {
        for delta in [-1e-9, 0.0, 1e-9] {
            let p = part.position(i).offset(delta);
            assert_eq!(
                part.successor_index(p),
                part.successor_index_binary(p),
                "seam mismatch near server {i}"
            );
        }
    }
}

proptest! {
    #[test]
    fn fast_successor_matches_binary_on_uniform_layouts(
        positions in uniform_positions(),
        probes in prop::collection::vec(0.0f64..1.0, 32..33),
    ) {
        check_partition(&positions, &probes);
    }

    #[test]
    fn fast_successor_matches_binary_on_clustered_layouts(
        positions in clustered_positions(),
        probes in prop::collection::vec(0.0f64..1.0, 32..33),
    ) {
        check_partition(&positions, &probes);
    }

    #[test]
    fn fast_successor_matches_binary_with_duplicates(
        base in prop::collection::vec(0.0f64..1.0, 1..12),
        copies in 1usize..5,
        probes in prop::collection::vec(0.0f64..1.0, 16..17),
    ) {
        // Exact duplicate coordinates: partition_point's "first index with
        // coord >= x" answer must be reproduced, not just any duplicate.
        let mut positions = Vec::new();
        for &x in &base {
            for _ in 0..copies {
                positions.push(x);
            }
        }
        check_partition(&positions, &probes);
    }

    #[test]
    fn wrap_seam_probes_agree(positions in uniform_positions()) {
        // Probes hugging both sides of the 0/1 seam, where the successor
        // wraps to server 0.
        let probes = [0.0, 1e-12, 1e-9, 0.999_999_999, 0.999_999_999_999];
        check_partition(&positions, &probes);
    }

    #[test]
    fn single_server_owns_every_probe(probe in 0.0f64..1.0, pos in 0.0f64..1.0) {
        let part = RingPartition::from_positions(vec![RingPoint::new(pos)]);
        prop_assert_eq!(part.successor_index(RingPoint::new(probe)), 0);
        prop_assert_eq!(part.owner(RingPoint::new(probe), Ownership::Nearest), 0);
    }

    #[test]
    fn owner_conventions_agree_with_oracle_derived_owner(
        positions in uniform_positions(),
        probe in 0.0f64..1.0,
    ) {
        // The public owner() entry point must route through the same
        // successor answer the oracle gives.
        let part = RingPartition::from_positions(
            positions.iter().map(|&x| RingPoint::new(x)).collect(),
        );
        let p = RingPoint::new(probe);
        prop_assert_eq!(
            part.owner(p, Ownership::Successor),
            part.successor_index_binary(p)
        );
    }
}

/// The neighbouring `f64`s of a non-negative `x`: one ulp down (none at
/// zero), `x`, one ulp up.
fn ulp_neighbours(x: f64) -> impl Iterator<Item = f64> {
    let bits = x.to_bits();
    let down = (bits > 0).then(|| f64::from_bits(bits - 1));
    down.into_iter()
        .chain([x, f64::from_bits(bits + 1)])
        .filter(|&y| y < 1.0)
}

/// [`RingPartition::nearest_index`] rebuilt on the binary-search oracle.
fn nearest_by_oracle(part: &RingPartition, p: RingPoint) -> usize {
    let n = part.len();
    if n == 1 {
        return 0;
    }
    let succ = part.successor_index_binary(p);
    let pred = (succ + n - 1) % n;
    if p.distance(part.position(pred)) < p.distance(part.position(succ)) {
        pred
    } else {
        succ
    }
}

/// Every query path against the oracle at every probe, exactly.
fn check_every_path(part: &RingPartition, probes: &[f64]) {
    let points: Vec<RingPoint> = probes.iter().map(|&x| RingPoint::new(x)).collect();
    let mut batched = vec![usize::MAX; points.len()];
    part.successor_indices_into(&points, &mut batched);
    for (&p, &batch) in points.iter().zip(&batched) {
        let oracle = part.successor_index_binary(p);
        let n = part.len();
        assert_eq!(part.successor_index(p), oracle, "n={n} successor at {p}");
        assert_eq!(batch, oracle, "n={n} batched successor at {p}");
        assert_eq!(
            part.nearest_index(p),
            nearest_by_oracle(part, p),
            "n={n} nearest at {p}"
        );
    }
}

#[test]
fn bucket_seam_probes_agree_at_every_size() {
    // Servers on the bucket seams fl(k/n) and one ulp either side, probed
    // at the same seams, at 0 and at the largest coordinate below 1.
    let sizes = [1usize, 3, 7, 1000, 4099]
        .into_iter()
        .chain((0..=16).map(|e| 1usize << e));
    for n in sizes {
        let seams: Vec<f64> = (0..n).map(|k| k as f64 / n as f64).collect();
        let mut probes: Vec<f64> = seams.iter().flat_map(|&s| ulp_neighbours(s)).collect();
        probes.extend([0.0, 1.0 - f64::EPSILON / 2.0]);
        // n servers, one per seam, cycling through below / on / above it,
        // so the partition's own n buckets have these seams.
        let one_per_seam: Vec<RingPoint> = seams
            .iter()
            .enumerate()
            .map(|(k, &s)| {
                let bits = s.to_bits();
                let bits = match k % 3 {
                    0 if bits > 0 => bits - 1,
                    1 => bits + 1,
                    _ => bits,
                };
                RingPoint::new(f64::from_bits(bits))
            })
            .collect();
        check_every_path(&RingPartition::from_positions(one_per_seam), &probes);
        // All three per seam: 3n servers, whose buckets include every k/n.
        let three_per_seam: Vec<RingPoint> = probes[..probes.len() - 2]
            .iter()
            .map(|&x| RingPoint::new(x))
            .collect();
        check_every_path(&RingPartition::from_positions(three_per_seam), &probes);
    }
}
