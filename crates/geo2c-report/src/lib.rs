//! Experiment reporting for the geometric two-choices reproduction.
//!
//! The paper's claims live in its tables (max-load distributions on the
//! ring and torus as `d` grows); this crate is the substrate that makes
//! those tables *reproducible and diffable* instead of scrollback text:
//!
//! * [`json`] — a hand-rolled, vendor-shim-friendly JSON value type with
//!   a stable renderer (insertion-ordered keys, shortest-round-trip
//!   numbers), so committed artifacts regenerate byte-identically.
//! * [`spec`] — [`ExperimentSpec`] (what was run), [`Cell`] /
//!   [`ExperimentResult`] (what was measured) and [`ResultSet`] (the
//!   persisted unit, stamped with seed and git-revision [`Provenance`]).
//!   These are the files under `results/` in the repository root.
//! * [`tolerance`] — statistical diffing between a fresh run and the
//!   committed expectations (`run_tables --check`), built on the
//!   two-sample statistics in [`geo2c_util::stats`].
//! * [`markdown`] — flat and paper-layout (pivot) rendering to markdown
//!   for `EXPERIMENTS.md`.
//!
//! Every `geo2c-bench` binary declares a spec and emits its numbers
//! through these types; the `run_tables` driver persists them and keeps
//! `EXPERIMENTS.md` honest in CI.
//!
//! ```
//! use geo2c_report::{Cell, ExperimentResult, ExperimentSpec, Json, ResultSet, Provenance};
//! use geo2c_util::hist::Counter;
//!
//! // Declare what is being run...
//! let spec = ExperimentSpec::new("demo", "Demo sweep").trials(3).seed(7);
//! let mut result = ExperimentResult::new(spec);
//! // ...record a measured cell...
//! let dist: Counter = [4u64, 4, 5].into_iter().collect();
//! result.push(Cell::new().coord("n", Json::from_usize(256)).dist(dist));
//! // ...and persist with provenance. The JSON round-trips losslessly.
//! let mut set = ResultSet::new(Provenance::capture(7));
//! set.push(result);
//! let reloaded = ResultSet::parse(&set.render()).unwrap();
//! assert_eq!(reloaded, set);
//! assert_eq!(reloaded.experiment("demo").unwrap().cells.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod markdown;
pub mod spec;
pub mod tolerance;

pub use json::{Json, JsonError};
pub use spec::{
    Cell, ExperimentResult, ExperimentSpec, Provenance, ReportError, ResultSet, FORMAT,
};
pub use tolerance::{compare_results, compare_sets, Discrepancy};
