//! Property-based tests (proptest) over the geometric substrates.
//!
//! These check structural invariants for *arbitrary* inputs, not just the
//! uniform-random instances the experiments use: partition-of-unity,
//! oracle agreement between fast and brute-force paths, clipping
//! monotonicity, and ring/interval algebra.

use proptest::prelude::*;
use two_choices::ring::{RingPartition, RingPoint};
use two_choices::torus::polygon::Polygon;
use two_choices::torus::{KdPoint, KdSites};

/// Strategy: a vector of 1..40 canonical ring coordinates.
fn ring_positions() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, 1..40)
}

/// Strategy: 2..30 torus points with pairwise-distinct coordinates
/// (coincident sites are a documented degeneracy of Voronoi cells).
fn torus_sites() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..30).prop_filter(
        "sites must be pairwise distinct",
        |pts| {
            for (i, a) in pts.iter().enumerate() {
                for b in &pts[..i] {
                    if (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9 {
                        return false;
                    }
                }
            }
            true
        },
    )
}

proptest! {
    #[test]
    fn ring_arcs_always_partition_unity(positions in ring_positions()) {
        let part = RingPartition::from_positions(
            positions.into_iter().map(RingPoint::new).collect(),
        );
        let total: f64 = part.arc_lengths().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "arcs sum to {total}");
    }

    #[test]
    fn ring_owner_is_nearest_clockwise(
        positions in ring_positions(),
        probe in 0.0f64..1.0,
    ) {
        let part = RingPartition::from_positions(
            positions.into_iter().map(RingPoint::new).collect(),
        );
        let p = RingPoint::new(probe);
        let owner = part.successor_index(p);
        // No other server lies strictly between the probe and its owner
        // (clockwise).
        let d_owner = p.clockwise_to(part.position(owner));
        for i in 0..part.len() {
            prop_assert!(
                p.clockwise_to(part.position(i)) >= d_owner,
                "server {i} closer clockwise than owner"
            );
        }
    }

    #[test]
    fn torus_grid_matches_brute(
        sites in torus_sites(),
        probes in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..20),
    ) {
        let points: Vec<KdPoint<2>> =
            sites.iter().map(|&(x, y)| KdPoint::new([x, y])).collect();
        let ts = KdSites::from_points(points.clone());
        for (x, y) in probes {
            let p = KdPoint::new([x, y]);
            let fast = ts.owner(&p);
            let slow = ts.owner_brute(&p);
            prop_assert!(
                (p.dist2(&points[fast]) - p.dist2(&points[slow])).abs() < 1e-15,
                "grid/brute disagree at ({x}, {y})"
            );
        }
    }

    #[test]
    fn voronoi_areas_partition_unity(sites in torus_sites()) {
        let points: Vec<KdPoint<2>> =
            sites.iter().map(|&(x, y)| KdPoint::new([x, y])).collect();
        let ts = KdSites::from_points(points);
        let total: f64 = ts.cell_areas().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "areas sum to {total}");
    }

    #[test]
    fn voronoi_fast_cell_equals_brute(sites in torus_sites()) {
        let points: Vec<KdPoint<2>> =
            sites.iter().map(|&(x, y)| KdPoint::new([x, y])).collect();
        let ts = KdSites::from_points(points);
        for i in 0..ts.len().min(5) {
            let fast = ts.cell(i).area();
            let brute = ts.cell_brute(i).area();
            prop_assert!((fast - brute).abs() < 1e-9, "cell {i}: {fast} vs {brute}");
        }
    }

    #[test]
    fn polygon_clipping_shrinks_area(
        cuts in prop::collection::vec((0.0f64..6.3, -0.8f64..0.8), 0..12),
    ) {
        let mut poly = Polygon::centered_square(0.5);
        let mut last = poly.area();
        for (angle, offset) in cuts {
            poly.clip_halfplane(angle.cos(), angle.sin(), offset);
            let area = poly.area();
            prop_assert!(area <= last + 1e-12, "area grew: {last} → {area}");
            prop_assert!(area >= 0.0);
            last = area;
        }
    }

    #[test]
    fn polygon_vertices_respect_all_cuts(
        cuts in prop::collection::vec((0.0f64..6.3, 0.05f64..0.8), 1..8),
    ) {
        let mut poly = Polygon::centered_square(0.5);
        for &(angle, offset) in &cuts {
            poly.clip_halfplane(angle.cos(), angle.sin(), offset);
        }
        for &(x, y) in poly.vertices() {
            for &(angle, offset) in &cuts {
                prop_assert!(
                    angle.cos() * x + angle.sin() * y <= offset + 1e-9,
                    "vertex ({x}, {y}) violates cut"
                );
            }
        }
    }

    #[test]
    fn ring_point_distance_is_metric(
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        c in 0.0f64..1.0,
    ) {
        let (pa, pb, pc) = (RingPoint::new(a), RingPoint::new(b), RingPoint::new(c));
        prop_assert!((pa.distance(pb) - pb.distance(pa)).abs() < 1e-12);
        prop_assert!(pa.distance(pa) == 0.0);
        prop_assert!(pa.distance(pc) <= pa.distance(pb) + pb.distance(pc) + 1e-12);
        prop_assert!(pa.distance(pb) <= 0.5 + 1e-12);
    }

    #[test]
    fn torus_distance_is_metric(
        a in (0.0f64..1.0, 0.0f64..1.0),
        b in (0.0f64..1.0, 0.0f64..1.0),
        c in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let pa = KdPoint::new([a.0, a.1]);
        let pb = KdPoint::new([b.0, b.1]);
        let pc = KdPoint::new([c.0, c.1]);
        prop_assert!((pa.dist(&pb) - pb.dist(&pa)).abs() < 1e-12);
        prop_assert!(pa.dist(&pa) == 0.0);
        prop_assert!(pa.dist(&pc) <= pa.dist(&pb) + pb.dist(&pc) + 1e-12);
    }

    #[test]
    fn chord_interval_partition(a in any::<u64>(), b in any::<u64>(), x in any::<u64>()) {
        use two_choices::dht::id::NodeId;
        let (na, nb, nx) = (NodeId(a), NodeId(b), NodeId(x));
        if a != b {
            // Every point lies in exactly one of (a, b] and (b, a].
            prop_assert!(nx.in_interval(na, nb) != nx.in_interval(nb, na));
        } else {
            prop_assert!(nx.in_interval(na, nb));
        }
    }
}
