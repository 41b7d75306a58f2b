//! Exact Voronoi cells on the 2-D torus.
//!
//! The Section-3 substrate is [`KdSites<2>`]: `n` servers at uniform
//! random positions, where a probe point belongs to its nearest server —
//! i.e. the servers' Voronoi cells are the bins. Ownership and radius
//! queries are the ones every torus dimension shares ([`crate::kd`]);
//! this module adds the geometry only the 2-D torus has, an exact
//! construction of each cell.
//!
//! ## Exact cells on a torus
//!
//! The Voronoi cell of site `u` is computed in `u`'s local frame: it always
//! lies inside the fundamental square `[−½, ½]²` (a point farther than that
//! in some axis is closer to a periodic image of `u` itself), so we clip
//! that square against the perpendicular bisector of every *relevant image*
//! of every other site. A site image at displacement `δ` produces a
//! bisector at distance `‖δ‖/2` from the origin; since no vertex of the
//! square is farther than `√2/2 ≈ 0.707` from the origin, images with
//! `‖δ‖ > √2` can never cut, and the 3×3 block of images (components in
//! `δ₀ + {−1,0,1}`, `δ₀` the canonical displacement) is always sufficient.
//!
//! Two constructions are provided:
//! * [`KdSites::cell_brute`] — clips against all `9(n−1)` image
//!   bisectors; the oracle.
//! * [`KdSites::cell`] — grid-accelerated: processes candidate sites in
//!   expanding radius `r` and stops once `2·max_vertex_radius ≤ r`, at
//!   which point no unprocessed site (all at distance `> r`) can cut the
//!   polygon. Expected `O(1)` neighbours per cell for uniform sites.
//!
//! Cell areas are the paper's "bin sizes" on the torus; they are validated
//! three ways in the tests (against the brute oracle, against Monte-Carlo
//! hit rates, and by the partition-of-unity property Σ areas = 1).

use crate::kd::KdSites;
use crate::polygon::Polygon;

/// The 2-D torus's exact Voronoi geometry.
impl KdSites<2> {
    /// Clips `poly` (in site `i`'s local frame) against all nine images of
    /// site `j`.
    fn clip_against_site(&self, poly: &mut Polygon, i: usize, j: usize) {
        let [dx0, dy0] = self.point(i).delta(self.point(j));
        for ix in -1i32..=1 {
            for iy in -1i32..=1 {
                let dx = dx0 + f64::from(ix);
                let dy = dy0 + f64::from(iy);
                let d2 = dx * dx + dy * dy;
                if d2 == 0.0 {
                    // Coincident sites: the bisector is undefined; by the
                    // tie convention the lower index keeps the cell.
                    continue;
                }
                // A bisector at distance ‖δ‖/2 from the origin only cuts if
                // some vertex is at least that far out.
                if d2 / 4.0 <= poly.max_r2() {
                    poly.clip_bisector(dx, dy);
                }
                if poly.is_empty() {
                    return;
                }
            }
        }
    }

    /// Exact Voronoi cell of site `i` by clipping against every other
    /// site's images: the `O(n)` oracle.
    #[must_use]
    pub fn cell_brute(&self, i: usize) -> Polygon {
        let mut poly = Polygon::centered_square(0.5);
        for j in 0..self.len() {
            if j != i {
                self.clip_against_site(&mut poly, i, j);
            }
        }
        poly
    }

    /// Exact Voronoi cell of site `i`, grid-accelerated.
    ///
    /// Processes candidate neighbours in expanding radius; stops once every
    /// unprocessed site is too far for its bisector to reach the current
    /// polygon. Equal to [`Self::cell_brute`] up to FP roundoff.
    #[must_use]
    pub fn cell(&self, i: usize) -> Polygon {
        let n = self.len();
        let mut poly = Polygon::centered_square(0.5);
        if n == 1 {
            return poly;
        }
        let p = *self.point(i);
        let mut processed = vec![false; n];
        processed[i] = true;
        // Start near the expected nearest-neighbour distance (~1/√n) and
        // double until the termination certificate holds.
        let mut r = (1.0 / (n as f64).sqrt()).max(1e-3);
        loop {
            for j in self.within(&p, r) {
                if !processed[j] {
                    processed[j] = true;
                    self.clip_against_site(&mut poly, i, j);
                }
            }
            // Any unprocessed site is at distance > r; its nearest image
            // bisector is at distance > r/2 from the origin. If the whole
            // polygon is within r/2 of the origin, we are done.
            if 4.0 * poly.max_r2() <= r * r {
                break;
            }
            if r > std::f64::consts::FRAC_1_SQRT_2 {
                // All sites processed (torus diameter is √2/2): exact now.
                break;
            }
            r *= 2.0;
        }
        poly
    }

    /// Area of site `i`'s Voronoi cell.
    #[must_use]
    pub fn cell_area(&self, i: usize) -> f64 {
        self.cell(i).area()
    }

    /// Areas of all cells (sequential). Sums to 1 up to FP roundoff.
    #[must_use]
    pub fn cell_areas(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.cell_area(i)).collect()
    }

    /// The Delaunay neighbours of site `i`: sites whose Voronoi cells
    /// share an edge with `i`'s cell.
    ///
    /// Computed by witness points: for each edge of `i`'s cell, the edge
    /// midpoint is equidistant from `i` and exactly the neighbour that
    /// contributed the edge (vertices — triple points — are avoided by
    /// using midpoints). On the torus the resulting graph is a
    /// triangulation of a genus-1 surface, so its **average degree is
    /// exactly 6** (Euler's formula `V − E + F = 0`) — a strong
    /// whole-structure validator used by the tests.
    ///
    /// Degenerate (co-circular) configurations have measure zero under
    /// random placement; ties are resolved by the distance tolerance.
    #[must_use]
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        let cell = self.cell(i);
        let verts = cell.vertices();
        let mut out: Vec<usize> = Vec::new();
        if verts.len() < 2 {
            return out;
        }
        let site = *self.point(i);
        for e in 0..verts.len() {
            let (x1, y1) = verts[e];
            let (x2, y2) = verts[(e + 1) % verts.len()];
            // Skip degenerate zero-length edges from clipping roundoff.
            if ((x2 - x1).powi(2) + (y2 - y1).powi(2)).sqrt() < 1e-12 {
                continue;
            }
            let (mx, my) = ((x1 + x2) / 2.0, (y1 + y2) / 2.0);
            let witness = site.offset([mx, my]);
            let d_site = witness.dist(&site);
            let tol = 1e-9_f64.max(d_site * 1e-9);
            for j in self.within(&witness, d_site + tol) {
                if j != i
                    && (witness.dist(self.point(j)) - d_site).abs() <= tol
                    && !out.contains(&j)
                {
                    out.push(j);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Mean Delaunay degree over all sites (≈ 6 on the torus).
    #[must_use]
    pub fn mean_degree(&self) -> f64 {
        let total: usize = (0..self.len()).map(|i| self.neighbors(i).len()).sum();
        total as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use crate::kd::{KdPoint, KdSites};
    use geo2c_util::rng::Xoshiro256pp;

    #[test]
    fn single_site_owns_unit_cell() {
        let sites = KdSites::<2>::from_points(vec![KdPoint::new([0.3, 0.3])]);
        assert!((sites.cell_area(0) - 1.0).abs() < 1e-12);
        assert_eq!(sites.owner(&KdPoint::new([0.9, 0.1])), 0);
    }

    #[test]
    fn two_sites_split_torus_in_half() {
        // Opposite sites: each cell is a half-torus band of area 1/2.
        let sites =
            KdSites::<2>::from_points(vec![KdPoint::new([0.25, 0.5]), KdPoint::new([0.75, 0.5])]);
        assert!((sites.cell_area(0) - 0.5).abs() < 1e-9);
        assert!((sites.cell_area(1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn four_sites_in_grid_pattern() {
        // Sites at the centres of the four quadrants: each cell is a
        // quarter square of area 1/4.
        let sites = KdSites::<2>::from_points(vec![
            KdPoint::new([0.25, 0.25]),
            KdPoint::new([0.75, 0.25]),
            KdPoint::new([0.25, 0.75]),
            KdPoint::new([0.75, 0.75]),
        ]);
        for i in 0..4 {
            assert!(
                (sites.cell_area(i) - 0.25).abs() < 1e-9,
                "cell {i}: {}",
                sites.cell_area(i)
            );
        }
    }

    #[test]
    fn areas_partition_unity() {
        let mut rng = Xoshiro256pp::from_u64(41);
        for &n in &[2usize, 3, 10, 64, 257] {
            let sites = KdSites::<2>::random(n, &mut rng);
            let total: f64 = sites.cell_areas().iter().sum();
            assert!((total - 1.0).abs() < 1e-7, "n={n}: areas sum to {total}");
        }
    }

    #[test]
    fn fast_cell_matches_brute_oracle() {
        let mut rng = Xoshiro256pp::from_u64(42);
        let sites = KdSites::<2>::random(100, &mut rng);
        for i in (0..100).step_by(7) {
            let fast = sites.cell(i).area();
            let brute = sites.cell_brute(i).area();
            assert!(
                (fast - brute).abs() < 1e-10,
                "cell {i}: fast {fast} vs brute {brute}"
            );
        }
    }

    #[test]
    fn monte_carlo_agrees_with_exact_areas() {
        let mut rng = Xoshiro256pp::from_u64(44);
        let sites = KdSites::<2>::random(16, &mut rng);
        let exact = sites.cell_areas();
        let mc = sites.mc_cell_volumes(200_000, &mut rng);
        for (i, (e, m)) in exact.iter().zip(&mc).enumerate() {
            // s.e. of a proportion at 2e5 samples is ≤ ~0.0012.
            assert!((e - m).abs() < 0.01, "cell {i}: exact {e} vs MC {m}");
        }
    }

    #[test]
    fn cell_contains_own_site_region() {
        // The origin (the site itself, in local frame) is inside its cell.
        let mut rng = Xoshiro256pp::from_u64(45);
        let sites = KdSites::<2>::random(50, &mut rng);
        for i in 0..50 {
            assert!(sites.cell(i).contains(0.0, 0.0), "cell {i}");
        }
    }

    #[test]
    fn owner_matches_cell_membership() {
        // Sample points; the owner's cell (in the owner's local frame)
        // must contain the probe's displacement.
        let mut rng = Xoshiro256pp::from_u64(46);
        let sites = KdSites::<2>::random(30, &mut rng);
        for _ in 0..300 {
            let p = KdPoint::random(&mut rng);
            let o = sites.owner(&p);
            let [dx, dy] = sites.point(o).delta(&p);
            assert!(
                sites.cell(o).contains(dx, dy),
                "probe {p:?} owner {o} displacement ({dx}, {dy})"
            );
        }
    }

    #[test]
    fn max_cell_area_scales_like_log_n_over_n() {
        // Loose sanity: max area is within [1/n, C log n / n] for random
        // placements (Section 3 says Θ(log n / n) w.h.p.).
        let mut rng = Xoshiro256pp::from_u64(47);
        let n = 512;
        let sites = KdSites::<2>::random(n, &mut rng);
        let max = sites.cell_areas().into_iter().fold(0.0, f64::max);
        let nf = n as f64;
        assert!(max >= 1.0 / nf, "max {max}");
        assert!(max <= 12.0 * nf.ln() / nf, "max {max}");
    }

    #[test]
    fn owner_brute_and_grid_agree() {
        let mut rng = Xoshiro256pp::from_u64(48);
        let sites = KdSites::<2>::random(200, &mut rng);
        for _ in 0..500 {
            let p = KdPoint::random(&mut rng);
            let a = sites.owner(&p);
            let b = sites.owner_brute(&p);
            assert!((p.dist2(sites.point(a)) - p.dist2(sites.point(b))).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn zero_sites_rejected() {
        let mut rng = Xoshiro256pp::from_u64(1);
        let _ = KdSites::<2>::random(0, &mut rng);
    }

    #[test]
    fn delaunay_neighbors_are_symmetric() {
        let mut rng = Xoshiro256pp::from_u64(60);
        let sites = KdSites::<2>::random(60, &mut rng);
        for i in 0..60 {
            for &j in &sites.neighbors(i) {
                assert!(
                    sites.neighbors(j).contains(&i),
                    "asymmetric edge {i} -> {j}"
                );
            }
        }
    }

    #[test]
    fn delaunay_mean_degree_is_six() {
        // Euler's formula on the torus: average Delaunay degree exactly 6
        // for a simplicial triangulation (a.s. for random sites).
        let mut rng = Xoshiro256pp::from_u64(61);
        for n in [32usize, 100, 300] {
            let sites = KdSites::<2>::random(n, &mut rng);
            let mean = sites.mean_degree();
            assert!(
                (mean - 6.0).abs() < 0.2,
                "n={n}: mean Delaunay degree {mean}"
            );
        }
    }

    #[test]
    fn four_site_grid_neighbors() {
        // Quadrant grid: each site's cell is a square meeting the other
        // three cells (two across edges, one only at corners — but on the
        // torus each pair shares TWO parallel edges, so all are edge
        // neighbours except the diagonal, which meets only at corners).
        let sites = KdSites::<2>::from_points(vec![
            KdPoint::new([0.25, 0.25]),
            KdPoint::new([0.75, 0.25]),
            KdPoint::new([0.25, 0.75]),
            KdPoint::new([0.75, 0.75]),
        ]);
        let n0 = sites.neighbors(0);
        assert!(n0.contains(&1), "horizontal neighbour");
        assert!(n0.contains(&2), "vertical neighbour");
        assert!(!n0.contains(&0));
    }

    #[test]
    fn two_sites_neighbor_each_other() {
        let sites =
            KdSites::<2>::from_points(vec![KdPoint::new([0.2, 0.5]), KdPoint::new([0.7, 0.5])]);
        assert_eq!(sites.neighbors(0), vec![1]);
        assert_eq!(sites.neighbors(1), vec![0]);
    }

    #[test]
    fn single_site_has_no_neighbors() {
        let sites = KdSites::<2>::from_points(vec![KdPoint::new([0.5, 0.5])]);
        assert!(sites.neighbors(0).is_empty());
    }
}
