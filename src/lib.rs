//! # two-choices — geometric generalizations of the power of two choices
//!
//! A faithful, from-scratch Rust reproduction of *Geometric Generalizations
//! of the Power of Two Choices* (Byers, Considine, Mitzenmacher; BU TR
//! 2003 / SPAA 2004).
//!
//! The classic two-choices result says that placing each of `n` balls into
//! the less loaded of `d ≥ 2` uniformly random bins drives the maximum load
//! down to `log log n / log d + O(1)`. The paper — and this workspace —
//! extends that guarantee to *geometric* settings where bins are regions of
//! a space and the probability of probing a bin is proportional to its
//! (non-uniform, random) size:
//!
//! * arcs induced by random server points on the **unit ring**
//!   (consistent hashing / Chord), and
//! * Voronoi cells of random server points on the **2-D unit torus**.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`util`] | deterministic RNG streams, parallel trial runner, statistics, histograms, CRC-guarded framing |
//! | [`ring`] | the 1-D ring substrate: arc partition, ownership queries, Lemma 4–6 tail bounds |
//! | [`torus`] | the k-D torus substrate: exact nearest neighbour, Voronoi cells, Lemma 8–9 |
//! | [`core`] | the allocation framework: spaces, `d`-choice strategies, tie-breaking, simulation engine, theory predictors, uniform baselines |
//! | [`dht`] | the Chord-style DHT application: finger tables, lookups, virtual servers vs two-choice placement |
//! | [`serve`] | the online serving engine: arrivals, session departures, server churn, capacity-bounded admission control |
//! | [`report`] | experiment reporting: JSON `ResultSet`s with provenance, tolerance diffing, markdown rendering (`EXPERIMENTS.md`) |
//!
//! ## Quickstart
//!
//! ```
//! use two_choices::core::{sim, space::RingSpace, strategy::Strategy};
//! use two_choices::util::rng::Xoshiro256pp;
//!
//! let mut rng = Xoshiro256pp::from_u64(42);
//! let n = 1 << 10;
//! let space = RingSpace::random(n, &mut rng);
//! let one = sim::run_trial(&space, &Strategy::one_choice(), n, &mut rng);
//! let two = sim::run_trial(&space, &Strategy::two_choice(), n, &mut rng);
//! assert!(two.max_load <= one.max_load);
//! ```

pub use geo2c_core as core;
pub use geo2c_dht as dht;
pub use geo2c_report as report;
pub use geo2c_ring as ring;
pub use geo2c_serve as serve;
pub use geo2c_torus as torus;
pub use geo2c_util as util;
