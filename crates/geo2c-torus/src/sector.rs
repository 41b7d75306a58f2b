//! The six-sector argument (Lemma 8 / Figure 1) and the Voronoi tail bound
//! (Lemma 9), as executable geometry and formulas.
//!
//! **Lemma 8.** Divide the disc of area `c/n` centred at site `u` into six
//! 60° sectors (sector 1 spans 0°–60° from the positive x-axis, etc.). If
//! the Voronoi cell of `u` has area ≥ `c/n`, then at least one sector
//! contains none of the other `n−1` sites. Contrapositive: if all six
//! sectors are occupied, the cell is contained in the disc — because any
//! point `w` making an angle within a sector's span is closer to that
//! sector's occupant `v` than to `u` once `d(u,w) > d(u,v)` and the angle
//! `∠(v,u,w) ≤ 60°` (law of cosines with `cos a > 1/2`).
//!
//! **Lemma 9.** Consequently the number of cells of area ≥ `c/n` is at most
//! `Z = Σ_{i,j} Z_{i,j}` (site `i`, sector `j` empty), whose expectation is
//! `6n(1 − c/6n)^{n−1} < 6n e^{−c/6}`, and
//! `Pr(#cells ≥ c/n > 12 n e^{−c/6}) = o(1/n⁴)` for `ln n ≥ c ≥ 12`
//! (via a Doob martingale with an `ln³n` Lipschitz correction).
//!
//! This module provides the sector-occupancy primitive, the Lemma 9
//! threshold and the expectation of `Z`, and a direct check of Lemma 8 on
//! random instances. The `lemma8_9` member of the `run_tables` suite runs
//! the Lemma 9 Monte-Carlo experiment on top of them.

use crate::kd::KdSites;
use geo2c_ring::spacings::arc_survival;

/// Radius of the disc of area `a`: `√(a/π)`.
#[must_use]
pub fn disc_radius(area: f64) -> f64 {
    (area / std::f64::consts::PI).sqrt()
}

/// Sector index (0–5) of the displacement `(dx, dy)`: sector `k` spans
/// angles `[60k°, 60(k+1)°)` counter-clockwise from the positive x-axis.
#[must_use]
pub fn sector_of(dx: f64, dy: f64) -> usize {
    let angle = dy.atan2(dx); // (−π, π]
    let angle = if angle < 0.0 {
        angle + 2.0 * std::f64::consts::PI
    } else {
        angle
    };
    let k = (angle / (std::f64::consts::PI / 3.0)) as usize;
    k.min(5)
}

/// Occupancy of the six sectors of the disc of area `c/n` around site `i`:
/// `occupied[k]` is true iff some *other* site lies in sector `k` within
/// the disc.
#[must_use]
pub fn sector_occupancy(sites: &KdSites<2>, i: usize, c: f64) -> [bool; 6] {
    let n = sites.len();
    let radius = disc_radius(c / n as f64);
    let p = *sites.point(i);
    let mut occupied = [false; 6];
    for j in sites.within(&p, radius) {
        if j == i {
            continue;
        }
        let [dx, dy] = p.delta(sites.point(j));
        occupied[sector_of(dx, dy)] = true;
    }
    occupied
}

/// True if at least one of the six sectors around site `i` (disc of area
/// `c/n`) is empty — the event whose count upper-bounds the number of
/// large cells in Lemma 9.
#[must_use]
pub fn has_empty_sector(sites: &KdSites<2>, i: usize, c: f64) -> bool {
    sector_occupancy(sites, i, c).iter().any(|&occ| !occ)
}

/// Lemma 9's count threshold `12 n e^{−c/6}`.
#[must_use]
pub fn lemma9_threshold(n: usize, c: f64) -> f64 {
    12.0 * n as f64 * (-c / 6.0).exp()
}

/// Expected value of the sector-based upper bound `Z`:
/// `6n (1 − c/(6n))^{n−1}` (< `6n e^{−c/6}`). Each of the `6n` sectors
/// has area `c/(6n)` and is empty when the other `n − 1` sites all miss
/// it, which is the ring's arc survival function at that measure.
#[must_use]
pub fn expected_empty_sectors(n: usize, c: f64) -> f64 {
    let sectors = 6.0 * n as f64;
    sectors * arc_survival(n, c / sectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kd::KdPoint;
    use geo2c_util::rng::Xoshiro256pp;

    #[test]
    fn sector_of_cardinal_directions() {
        assert_eq!(sector_of(1.0, 0.001), 0); // just above +x axis
        assert_eq!(sector_of(0.3, 0.6), 1); // ~63°
        assert_eq!(sector_of(-0.5, 0.5), 2); // 135°
        assert_eq!(sector_of(-1.0, -0.001), 3); // just below −x axis
        assert_eq!(sector_of(-0.001, -1.0), 4); // ~270° − ε
        assert_eq!(sector_of(0.5, -0.5), 5); // 315°
    }

    #[test]
    fn sector_boundaries() {
        // Exactly on the +x axis: angle 0 → sector 0.
        assert_eq!(sector_of(1.0, 0.0), 0);
        // Exactly 60°: belongs to sector 1 (half-open sectors).
        let a = std::f64::consts::PI / 3.0;
        assert_eq!(sector_of(a.cos(), a.sin()), 1);
    }

    #[test]
    fn disc_radius_formula() {
        let r = disc_radius(std::f64::consts::PI);
        assert!((r - 1.0).abs() < 1e-12);
        assert!((disc_radius(0.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_detects_placed_neighbours() {
        // c = 16 with n = 4 sites → disc area 4/4… keep explicit.
        let n_area = 16.0;
        // Site 0 at centre; one neighbour in sector 0, one in sector 3.
        let sites = KdSites::<2>::from_points(vec![
            KdPoint::new([0.5, 0.5]),
            KdPoint::new([0.52, 0.501]), // east: sector 0
            KdPoint::new([0.47, 0.499]), // west: sector 3
            KdPoint::new([0.1, 0.1]),    // far away
        ]);
        let c = n_area; // radius = sqrt(c/(n π)) = sqrt(16/(4π)) ≈ 1.128 → clipped by torus, all close sites in disc
        let occ = sector_occupancy(&sites, 0, c);
        assert!(occ[0], "east neighbour in sector 0");
        assert!(occ[3], "west neighbour in sector 3");
        assert!(has_empty_sector(&sites, 0, c) || occ.iter().all(|&o| o));
    }

    #[test]
    fn lemma8_holds_on_random_instances() {
        // Direct check: any cell of area ≥ c/n must have an empty sector.
        let mut rng = Xoshiro256pp::from_u64(51);
        for trial in 0..10 {
            let n = 128;
            let sites = KdSites::<2>::random(n, &mut rng);
            let areas = sites.cell_areas();
            for c in [2.0, 4.0, 8.0] {
                let cutoff = c / n as f64;
                for (i, &area) in areas.iter().enumerate() {
                    if area >= cutoff {
                        assert!(
                            has_empty_sector(&sites, i, c),
                            "trial {trial}, c={c}, cell {i} area {area} violates Lemma 8",
                        );
                    }
                }
            }
        }
    }
}
