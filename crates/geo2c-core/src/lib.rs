//! The paper's primary contribution: the *geometric power of two choices*
//! allocation framework.
//!
//! In the classical balanced-allocations model (Azar, Broder, Karlin,
//! Upfal), each of `m` balls probes `d` bins chosen uniformly at random
//! and joins the least-loaded one. The geometric generalization replaces
//! "uniform over bins" with "uniform over a *space*": the ball probes `d`
//! uniformly random *locations* and each location is charged to the server
//! owning the surrounding region — an arc on the ring, a Voronoi cell on
//! the torus. Region sizes are random and non-uniform, so bins are probed
//! with non-uniform probability; the paper proves the
//! `log log n / log d + O(1)` maximum-load guarantee survives.
//!
//! Module map:
//!
//! * [`space`] — the [`space::Space`] abstraction ("sample a probe, get an
//!   owner") and its three implementations: [`space::RingSpace`] (§2),
//!   [`space::TorusSpace`] (§3) and [`space::UniformSpace`] (the classical
//!   baseline the paper compares against).
//! * [`strategy`] — `d`-choice placement with the paper's tie-breaking
//!   policies (Table 3: random / leftmost / smaller region / larger
//!   region) and Vöcking's split-interval always-go-left variant (§2
//!   remark 4).
//! * [`sim`] — the sequential insertion engine producing per-server loads
//!   and load profiles.
//! * [`load`] — pluggable load-state backings behind the
//!   [`load::LoadRead`]/[`load::LoadState`] traits: the flat `Vec<u32>`
//!   reference plus packed nibble/byte arrays with overflow spill
//!   ([`load::PackedLoads`]) for streaming-scale trials — all
//!   placement-identical by construction and by proptest.
//! * [`experiment`] — parallel multi-trial sweeps producing the paper's
//!   max-load distributions (Tables 1–3) and the `m ≠ n` extension (E9).
//! * [`theory`] — closed-form predictors: the `log log n / log d` band,
//!   Vöcking's `log log n / (d ln φ_d)`, the one-choice
//!   `Θ(log n / log log n)` growth, and the fluid-limit load profile for
//!   the uniform case.
//!
//! One Table-1 cell, end to end — a parallel multi-trial sweep whose
//! result is a pure function of `(seed, configuration)`:
//!
//! ```
//! use geo2c_core::experiment::{sweep_kind, SweepConfig};
//! use geo2c_core::space::SpaceKind;
//! use geo2c_core::strategy::Strategy;
//!
//! let config = SweepConfig::new(10).with_seed(1).with_threads(2);
//! let cell = sweep_kind(SpaceKind::Ring, Strategy::two_choice(), 128, 128, &config);
//! assert_eq!(cell.distribution.total(), 10); // one max load per trial
//! assert!(cell.stats.mean() >= 1.0);
//! // Thread count never changes the numbers, only the wall clock.
//! let serial = sweep_kind(
//!     SpaceKind::Ring,
//!     Strategy::two_choice(),
//!     128,
//!     128,
//!     &config.with_threads(1),
//! );
//! assert_eq!(serial.distribution, cell.distribution);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiment;
pub mod load;
pub mod nonuniform;
pub mod sim;
pub mod space;
pub mod strategy;
pub mod theory;

pub use experiment::{sweep_max_load, SweepConfig};
pub use load::{LoadRead, LoadState, PackedLoads};
pub use sim::{run_trial, TrialResult};
pub use space::{AnySpace, KdTorusSpace, RingSpace, Space, SpaceKind, TorusSpace, UniformSpace};
pub use strategy::{Strategy, TieBreak};
