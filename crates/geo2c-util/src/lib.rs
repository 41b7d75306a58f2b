//! Shared infrastructure for the *geometric power of two choices* workspace.
//!
//! This crate provides the non-geometric substrate that every experiment in
//! the reproduction relies on:
//!
//! * [`rng`] — deterministic, splittable random-number generation. Every
//!   experiment in the paper is a Monte-Carlo trial; reproducibility across
//!   threads requires that trial `i` sees the same stream regardless of which
//!   worker executes it. We implement SplitMix64 (seeding / stream
//!   derivation) and xoshiro256++ (bulk generation) in-tree so results are
//!   stable across platforms and `rand` versions.
//! * [`parallel`] — [`run_trials`], the one seeded trial runner: trial `t`
//!   runs on its own stream `seeder.stream(t)` on a fork-join pool built on
//!   `crossbeam::scope`. The paper's tables are 1000-trial sweeps; trials
//!   are embarrassingly parallel.
//! * [`stats`] — streaming summary statistics (Welford) and the two-sample
//!   z statistics behind `run_tables --check`.
//! * [`hist`] — integer-valued distributions. The paper reports *maximum
//!   load* as a percentage distribution over trials (Tables 1–3); this module
//!   collects those distributions.
//! * [`frame`] — length-prefixed, CRC-guarded binary framing (plus
//!   magic/version file headers) for the serving engine's durable
//!   checkpoint and journal files, with torn-tail vs real-corruption
//!   discrimination for crash recovery.
//!
//! The reproducibility contract in one example — independent streams per
//! `(experiment, trial)`, identical on every platform and thread count
//! (the committed `EXPERIMENTS.md` numbers rely on exactly this):
//!
//! ```
//! use geo2c_util::{Counter, StreamSeeder};
//! use rand::Rng;
//!
//! let seeder = StreamSeeder::new(0).child("demo-experiment");
//! // Trial 3's stream is the same no matter who runs it, or when.
//! let mut rng = seeder.stream(3);
//! let dist: Counter = (0..100).map(|_| rng.gen_range(0u64..4)).collect();
//! assert_eq!(dist.total(), 100);
//! assert!(dist.max() < Some(4));
//! assert_eq!(
//!     seeder.stream(3).gen::<u64>(),
//!     StreamSeeder::new(0).child("demo-experiment").stream(3).gen::<u64>(),
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod frame;
pub mod hist;
pub mod parallel;
pub mod rng;
pub mod stats;

pub use hist::Counter;
pub use parallel::{num_threads, run_trials};
pub use rng::{SplitMix64, StreamSeeder, Xoshiro256pp};
pub use stats::RunningStats;
