//! Property tests pinning the 2-D torus owner query — `TorusSites::owner`
//! on `KdGrid<2>`, with its 3×3 fast path and early-exit certificates —
//! to the 2-D brute-force oracle across adversarial layouts: clustered
//! sites, wrap-seam probes, degenerate tiny grids (built directly with
//! `KdGrid::<2>::with_cells_per_side`), and `n = 1`.
//!
//! Exact coordinate ties may legitimately resolve to different site
//! indices (the tie-break is scan order), so equivalence is asserted on
//! the achieved *distance*, which must match the oracle to FP roundoff.

use geo2c_torus::kd::{KdGrid, KdPoint};
use geo2c_torus::voronoi::nearest_brute;
use geo2c_torus::{TorusPoint, TorusSites};
use proptest::prelude::*;

fn to_points(pts: &[(f64, f64)]) -> Vec<TorusPoint> {
    pts.iter().map(|&(x, y)| TorusPoint::new(x, y)).collect()
}

fn to_kd(p: TorusPoint) -> KdPoint<2> {
    KdPoint { coords: [p.x, p.y] }
}

/// `owner(p)` must reach the oracle's distance for every probe.
fn assert_matches_oracle(
    sites: &[TorusPoint],
    owner: impl Fn(TorusPoint) -> usize,
    probes: &[TorusPoint],
) {
    for &p in probes {
        let fast = owner(p);
        let slow = nearest_brute(p, sites);
        let (df, ds) = (p.dist2(sites[fast]), p.dist2(sites[slow]));
        assert!(
            (df - ds).abs() < 1e-15,
            "grid {fast} (d2 {df}) vs brute {slow} (d2 {ds}) at {p} over {} sites",
            sites.len(),
        );
    }
}

/// The public owner path the experiments drive.
fn assert_owner_matches_oracle(sites: &[TorusPoint], probes: &[TorusPoint]) {
    let torus = TorusSites::from_points(sites.to_vec());
    assert_matches_oracle(sites, |p| torus.owner(p), probes);
}

/// Arbitrary sites anywhere on the torus.
fn free_sites() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..48)
}

/// All sites inside one tiny cluster: most grid cells empty, so the
/// expanding search must keep going and the early exits must stay sound.
fn clustered_sites() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (
        (0.0f64..1.0, 0.0f64..1.0),
        prop::collection::vec((0.0f64..2e-3, 0.0f64..2e-3), 2..40),
    )
        .prop_map(|((cx, cy), offsets)| {
            offsets
                .into_iter()
                .map(|(dx, dy)| ((cx + dx) % 1.0, (cy + dy) % 1.0))
                .collect()
        })
}

/// Probes hugging the wrap seams plus a few free ones.
fn seam_probes() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (
        prop::collection::vec((0.0f64..1e-6, 0.0f64..1.0), 4..5),
        prop::collection::vec((0.0f64..1.0, 0.999_999f64..1.0), 4..5),
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 8..9),
    )
        .prop_map(|(left, top, free)| left.into_iter().chain(top).chain(free).collect())
}

proptest! {
    #[test]
    fn grid_matches_brute_on_free_layouts(
        sites in free_sites(),
        probes in seam_probes(),
    ) {
        assert_owner_matches_oracle(&to_points(&sites), &to_points(&probes));
    }

    #[test]
    fn grid_matches_brute_on_clustered_layouts(
        sites in clustered_sites(),
        probes in seam_probes(),
    ) {
        assert_owner_matches_oracle(&to_points(&sites), &to_points(&probes));
    }

    #[test]
    fn degenerate_grid_sides_stay_exact(
        sites in free_sites(),
        probes in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 12..13),
        g in 1usize..6,
    ) {
        // g ∈ {1, 2, 3} exercises the residual-sweep branch; 4 and 5
        // the smallest 3×3 fast paths with heavy wrapping.
        let sites = to_points(&sites);
        let kd_sites: Vec<KdPoint<2>> = sites.iter().map(|&p| to_kd(p)).collect();
        let grid = KdGrid::with_cells_per_side(&kd_sites, g);
        assert_matches_oracle(&sites, |p| grid.nearest(&to_kd(p)), &to_points(&probes));
    }

    #[test]
    fn single_site_owns_everything(
        site in (0.0f64..1.0, 0.0f64..1.0),
        probes in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 8..9),
    ) {
        let sites = TorusSites::from_points(to_points(&[site]));
        for &p in &to_points(&probes) {
            prop_assert_eq!(sites.owner(p), 0);
        }
    }

    #[test]
    fn torus_sites_owner_agrees_with_its_brute_oracle(
        sites in free_sites(),
        probes in seam_probes(),
    ) {
        // Pin TorusSites::owner to its own TorusSites::owner_brute too.
        let sites = TorusSites::from_points(to_points(&sites));
        for &p in &to_points(&probes) {
            let fast = sites.owner(p);
            let slow = sites.owner_brute(p);
            let (df, ds) = (p.dist2(sites.point(fast)), p.dist2(sites.point(slow)));
            prop_assert!((df - ds).abs() < 1e-15, "owner {fast} vs brute {slow} at {p}");
        }
    }

    #[test]
    fn probes_exactly_on_sites_resolve_to_zero_distance(
        sites in free_sites(),
        pick in 0usize..48,
    ) {
        // A probe exactly at a site must resolve to distance 0 (the site
        // itself or an exact duplicate).
        let sites = TorusSites::from_points(to_points(&sites));
        let p = sites.point(pick % sites.len());
        let fast = sites.owner(p);
        prop_assert!(p.dist2(sites.point(fast)) < 1e-30);
    }
}
