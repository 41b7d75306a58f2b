//! The 1-dimensional ring substrate for the geometric two-choices paper.
//!
//! Theorem 1 of *Geometric Generalizations of the Power of Two Choices*
//! (Byers, Considine, Mitzenmacher) places `n` servers uniformly at random
//! on a circle of circumference 1. The `n` induced arcs are the bins: a
//! ball probes a uniform point of the circle and is charged to the server
//! owning the arc containing that point. This crate implements that space:
//!
//! * [`point`] — positions on the unit circle with wrapped arithmetic.
//! * [`partition`] — [`RingPartition`]: the sorted server set with
//!   `O(1)`-expected point-to-owner lookup (a division-free integer
//!   bucket pick, then a branch-free count over the bucket's first
//!   slots; `O(log n)` worst case) under the clockwise-successor
//!   convention of Chord and consistent hashing, plus arc-length queries
//!   used by the region-aware tie-breaking strategies of the paper's
//!   Table 3. (The nearest-site circle, 1-D Voronoi cells, is
//!   `geo2c_torus::KdSites<1>`.)
//! * [`tail`] — executable versions of the paper's Lemmas 4, 5 and 6:
//!   tail bounds on the number of long arcs and on the total length of the
//!   `a` longest arcs. These are the load-bearing probabilistic facts behind
//!   Theorem 1, and the `lemma4_5` and `lemma6` members of the `run_tables`
//!   suite validate them empirically.
//!
//! The same structure doubles as the consistent-hashing ring for the
//! Chord-style DHT application crate (`geo2c-dht`).
//!
//! ```
//! use geo2c_ring::{RingPartition, RingPoint};
//! use geo2c_util::rng::Xoshiro256pp;
//!
//! // n random servers induce n arcs that exactly partition the circle
//! // (the paper's bins)...
//! let mut rng = Xoshiro256pp::from_u64(7);
//! let ring = RingPartition::random(64, &mut rng);
//! let total: f64 = ring.arc_lengths().iter().sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! // ...and every probe point is owned by its clockwise successor, as
//! // in consistent hashing (Theorem 1's charging rule).
//! let owner = ring.successor_index(RingPoint::new(0.5));
//! assert!(ring.arc_length(owner) > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod negdep;
pub mod partition;
pub mod point;
pub mod spacings;
pub mod tail;

pub use partition::RingPartition;
pub use point::RingPoint;
