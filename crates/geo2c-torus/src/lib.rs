//! The torus substrate for the geometric two-choices paper.
//!
//! Section 3 of *Geometric Generalizations of the Power of Two Choices*
//! places `n` servers uniformly at random on the unit torus `[0,1)²` (with
//! wraparound on both axes); the bins are the servers' Voronoi cells under
//! toroidal Euclidean distance, and a ball probes `d` uniform points, going
//! to the least-loaded owning server. This crate builds that geometry from
//! scratch, for every dimension at once:
//!
//! * [`point`] — the wrapped coordinate and displacement arithmetic.
//! * [`kd`] — [`KdPoint<K>`] and [`KdSites<K>`], the one point type and
//!   the one server set of every torus dimension (the paper's torus is
//!   `K = 2`), on [`KdGrid<K>`](kd::KdGrid): the exact, grid-accelerated
//!   nearest-neighbour and radius index (expanding-shell search with a
//!   provable termination radius), checked against the brute-force
//!   [`kd::kd_nearest_brute`].
//! * [`polygon`] — convex polygons with half-plane clipping and shoelace
//!   areas; the computational-geometry kernel for Voronoi cells.
//! * [`voronoi`] — *exact* Voronoi cells of a [`KdSites<2>`] (clipping
//!   the fundamental square against perpendicular bisectors of
//!   neighbouring sites and their relevant periodic images), validated
//!   against Monte-Carlo areas.
//! * [`sector`] — the six-sector geometric argument of Lemma 8 / Figure 1
//!   and the Lemma 9 threshold on the number of large cells. The crate
//!   runs no trials: the `lemma8_9` member of the `run_tables` suite
//!   (`geo2c_bench::experiments`) measures the tail on top of it.
//!
//! The paper's argument generalizes to any constant dimension; this crate
//! implements the 2-D case the paper evaluates (Table 2) with exact
//! Voronoi geometry, and treats the dimension as a parameter of the
//! shared point, site set and index.
//!
//! ```
//! use geo2c_torus::{KdPoint, KdSites};
//! use geo2c_util::rng::Xoshiro256pp;
//!
//! // n random sites induce n Voronoi cells (§3's bins). The exact
//! // half-plane-clipped cell areas partition the unit torus...
//! let mut rng = Xoshiro256pp::from_u64(2);
//! let sites = KdSites::<2>::random(24, &mut rng);
//! let total: f64 = sites.cell_areas().iter().sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! // ...and the grid-accelerated owner query matches brute force.
//! let p = KdPoint::new([0.25, 0.75]);
//! assert_eq!(sites.owner(&p), sites.owner_brute(&p));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kd;
pub mod point;
pub mod polygon;
pub mod sector;
pub mod voronoi;

pub use kd::{KdPoint, KdSites};
pub use polygon::Polygon;
