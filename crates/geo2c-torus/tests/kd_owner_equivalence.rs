//! Property tests pinning the `K`-torus grid's nearest-site search —
//! the near-orthant fast path with its exact per-cell pruning bounds,
//! the cell/far-face/block-boundary early exits, the monomorphized
//! shell walker, and the batched `nearest_batch`/`owners_into` entry
//! point — to the brute-force oracle across adversarial layouts:
//! clustered sites, wrap-seam probes, degenerate tiny grids (`g = 1`),
//! and `n = 1`, for `K ∈ {1, 2, 3, 4}` (`K = 2` is the paper's torus).
//! The radius query `KdGrid::within` is pinned to a brute `dist2 ≤ r²`
//! filter for `K ∈ {2, 3}`, radii up to past half the torus included.
//!
//! Exact coordinate ties may legitimately resolve to different site
//! indices (the tie-break is scan order), so equivalence is asserted on
//! the achieved *distance*, which must match the oracle to FP roundoff.

use geo2c_torus::kd::{kd_nearest_brute, KdGrid, KdPoint, KdSites};
use proptest::prelude::*;

fn to_points<const K: usize>(pts: &[Vec<f64>]) -> Vec<KdPoint<K>> {
    pts.iter()
        .map(|c| {
            let mut coords = [0.0; K];
            coords.copy_from_slice(c);
            KdPoint::new(coords)
        })
        .collect()
}

fn assert_matches_oracle<const K: usize>(
    sites: &[KdPoint<K>],
    grid: &KdGrid<K>,
    probes: &[KdPoint<K>],
) {
    for p in probes {
        let fast = grid.nearest(p);
        let slow = kd_nearest_brute(p, sites);
        let (df, ds) = (p.dist2(&sites[fast]), p.dist2(&sites[slow]));
        assert!(
            (df - ds).abs() < 1e-15,
            "K={K}: grid {fast} (d2 {df}) vs brute {slow} (d2 {ds}) over {} sites",
            sites.len(),
        );
    }
}

fn assert_batch_matches_singles<const K: usize>(grid: &KdGrid<K>, probes: &[KdPoint<K>]) {
    let mut batched = vec![0usize; probes.len()];
    grid.nearest_batch(probes, &mut batched);
    let singles: Vec<usize> = probes.iter().map(|p| grid.nearest(p)).collect();
    assert_eq!(batched, singles, "K={K}: batch diverged from singles");
}

/// Arbitrary sites anywhere on the `K`-torus.
fn free_sites(k: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, k..k + 1), 1..48)
}

/// All sites inside one tiny cluster: most grid cells empty, so the
/// expanding search must keep going and every certificate (orthant,
/// block boundary, shell radius, residual sweep) must stay sound.
fn clustered_sites(k: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        prop::collection::vec(0.0f64..1.0, k..k + 1),
        prop::collection::vec(prop::collection::vec(0.0f64..2e-3, k..k + 1), 2..40),
    )
        .prop_map(|(center, offsets)| {
            offsets
                .into_iter()
                .map(|off| {
                    center
                        .iter()
                        .zip(off)
                        .map(|(&c, o)| (c + o) % 1.0)
                        .collect()
                })
                .collect()
        })
}

/// Probes hugging the wrap seams (first coordinate ~0, last ~1) plus a
/// few free ones.
fn seam_probes(k: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        prop::collection::vec(prop::collection::vec(0.0f64..1e-6, k..k + 1), 4..5),
        prop::collection::vec(prop::collection::vec(0.999_999f64..1.0, k..k + 1), 4..5),
        prop::collection::vec(prop::collection::vec(0.0f64..1.0, k..k + 1), 8..9),
    )
        .prop_map(|(low, high, free)| low.into_iter().chain(high).chain(free).collect())
}

macro_rules! kd_equivalence_suite {
    ($mod_name:ident, $k:literal) => {
        mod $mod_name {
            use super::*;

            proptest! {
                #[test]
                fn grid_matches_brute_on_free_layouts(
                    sites in free_sites($k),
                    probes in seam_probes($k),
                ) {
                    let sites = to_points::<$k>(&sites);
                    let grid = KdGrid::build(&sites);
                    let probes = to_points::<$k>(&probes);
                    assert_matches_oracle(&sites, &grid, &probes);
                    assert_batch_matches_singles(&grid, &probes);
                }

                #[test]
                fn grid_matches_brute_on_clustered_layouts(
                    sites in clustered_sites($k),
                    probes in seam_probes($k),
                ) {
                    let sites = to_points::<$k>(&sites);
                    let grid = KdGrid::build(&sites);
                    let probes = to_points::<$k>(&probes);
                    assert_matches_oracle(&sites, &grid, &probes);
                    assert_batch_matches_singles(&grid, &probes);
                }

                #[test]
                fn degenerate_grid_sides_stay_exact(
                    sites in free_sites($k),
                    probes in prop::collection::vec(
                        prop::collection::vec(0.0f64..1.0, $k..$k + 1), 12..13),
                    g in 1usize..6,
                ) {
                    // g ∈ {1, 2, 3} exercises the residual-sweep branch;
                    // 4 and 5 the smallest orthant fast paths with heavy
                    // wrapping.
                    let sites = to_points::<$k>(&sites);
                    let grid = KdGrid::with_cells_per_side(&sites, g);
                    let probes = to_points::<$k>(&probes);
                    assert_matches_oracle(&sites, &grid, &probes);
                    assert_batch_matches_singles(&grid, &probes);
                }

                #[test]
                fn single_site_owns_everything(
                    site in prop::collection::vec(0.0f64..1.0, $k..$k + 1),
                    probes in prop::collection::vec(
                        prop::collection::vec(0.0f64..1.0, $k..$k + 1), 8..9),
                ) {
                    let sites = to_points::<$k>(&[site]);
                    let grid = KdGrid::build(&sites);
                    for p in &to_points::<$k>(&probes) {
                        prop_assert_eq!(grid.nearest(p), 0);
                    }
                }

                #[test]
                fn kd_sites_owner_agrees_with_its_brute_oracle(
                    sites in free_sites($k),
                    probes in seam_probes($k),
                ) {
                    // The public KdSites::owner / owners_into paths (what
                    // the experiments drive) wrap the same grid; pin them
                    // to KdSites::owner_brute too.
                    let sites = KdSites::<$k>::from_points(to_points::<$k>(&sites));
                    let probes = to_points::<$k>(&probes);
                    let mut batched = vec![0usize; probes.len()];
                    sites.owners_into(&probes, &mut batched);
                    for (p, &owner) in probes.iter().zip(&batched) {
                        prop_assert_eq!(sites.owner(p), owner);
                        let slow = sites.owner_brute(p);
                        let (df, ds) =
                            (p.dist2(sites.point(owner)), p.dist2(sites.point(slow)));
                        prop_assert!(
                            (df - ds).abs() < 1e-15,
                            "owner {} vs brute {}", owner, slow
                        );
                    }
                }

                #[test]
                fn probes_exactly_on_sites_resolve_to_zero_distance(
                    sites in free_sites($k),
                    pick in 0usize..48,
                ) {
                    // A probe exactly at a site must resolve to distance 0
                    // (the site itself or an exact duplicate).
                    let sites = to_points::<$k>(&sites);
                    let grid = KdGrid::build(&sites);
                    let p = sites[pick % sites.len()];
                    let fast = grid.nearest(&p);
                    prop_assert!(p.dist2(&sites[fast]) < 1e-30);
                }
            }
        }
    };
}

kd_equivalence_suite!(k1, 1);
kd_equivalence_suite!(k2, 2);
kd_equivalence_suite!(k3, 3);
kd_equivalence_suite!(k4, 4);

/// Brute `dist2 ≤ r²` filter: the oracle for `KdGrid::within`.
fn within_brute<const K: usize>(p: &KdPoint<K>, sites: &[KdPoint<K>], radius: f64) -> Vec<usize> {
    (0..sites.len())
        .filter(|&i| p.dist2(&sites[i]) <= radius * radius)
        .collect()
}

macro_rules! kd_within_suite {
    ($mod_name:ident, $k:literal) => {
        mod $mod_name {
            use super::*;

            proptest! {
                #[test]
                fn within_matches_the_brute_filter(
                    sites in free_sites($k),
                    probes in seam_probes($k),
                    radius in 0.0f64..0.9,
                    g in 1usize..12,
                ) {
                    // Radii ≥ 0.5 (and small g) hit the self-wrapping
                    // residual sweep; small radii on the larger g stay on
                    // the plain shell walk.
                    let sites = to_points::<$k>(&sites);
                    for grid in [KdGrid::build(&sites), KdGrid::with_cells_per_side(&sites, g)] {
                        for p in &to_points::<$k>(&probes) {
                            prop_assert_eq!(grid.within(p, radius), within_brute(p, &sites, radius));
                        }
                    }
                }

                #[test]
                fn within_zero_radius_finds_exactly_the_coincident_sites(
                    sites in free_sites($k),
                    pick in 0usize..48,
                ) {
                    let sites = to_points::<$k>(&sites);
                    let grid = KdGrid::build(&sites);
                    let pick = pick % sites.len();
                    let p = sites[pick];
                    let hit = grid.within(&p, 0.0);
                    prop_assert!(hit.contains(&pick));
                    prop_assert_eq!(hit, within_brute(&p, &sites, 0.0));
                    prop_assert!(grid.within(&p, -1e-9).is_empty());
                }
            }
        }
    };
}

kd_within_suite!(within_k2, 2);
kd_within_suite!(within_k3, 3);
