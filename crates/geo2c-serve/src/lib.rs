//! The online serving engine: the paper's process, run forever.
//!
//! The paper inserts `n` balls once and stops, but its own motivation
//! (§1.1) is *online server selection*: a stream of users arrives on a
//! geometric substrate and each is routed to the least loaded of `d`
//! nearby servers. This crate closes that loop. A [`engine::ServeEngine`]
//! consumes a deterministic event stream in which every step is one
//! arrival, interleaved with the departures of previously admitted
//! sessions (fixed-TTL or memoryless lifetimes), optional server
//! failures, and capacity-bounded admission control that sheds an
//! arrival when even its least-loaded probed server is full — the
//! production `p2c` + load-shed idiom.
//!
//! **RNG stream contract v2 for event streams.** The engine is keyed by
//! one `u64` root. Event `t` draws its `d` probe locations from its
//! private probe lane, resolves load ties on its private tie lane,
//! samples its session lifetime on its private *life* lane, and — only
//! when every primary probe is failed or at capacity — redraws up to
//! [`engine::ServeConfig::retries`] fresh probe sets from its private
//! *retry* lane ([`geo2c_util::rng::EventLanes`]). Because every lane is
//! a pure function of `(root, t)`, the engine state after any prefix of
//! the stream is byte-identical no matter how the run is chunked,
//! paused, or resumed — and the engine can pre-draw probe owners for a
//! whole block of future arrivals
//! ([`geo2c_core::sim::EventOwnerBlocks`]) while departures interleave
//! between the per-arrival resolutions, exactly equivalent to the
//! one-event-at-a-time process. The `tests/steady_state.rs` property
//! suite pins both equivalences.
//!
//! **Scheduling.** Departure deadlines live in a hierarchical timing
//! wheel ([`wheel::DepartureWheel`]): O(1) schedule, O(due) drain, and
//! O(1) epoch-based lazy purge when a server fails. The engine is
//! generic over the [`wheel::DepartureQueue`] trait, and the binary
//! heap the wheel replaced stays on as [`wheel::HeapQueue`], the oracle
//! the `tests/wheel_oracle.rs` property suite proves the wheel against.
//!
//! **Faults and recovery.** Servers crash ([`engine::ServeEngine::fail_server`])
//! and come back ([`engine::ServeEngine::recover_server`]); the
//! [`fault`] module schedules such events deterministically on the
//! `FAULT_TAG` lane so a whole outage scenario replays byte-identically,
//! and [`engine::ServeEngine::try_restore_with_scheduler`] resumes a
//! checkpointed engine as if it had never stopped. The engine holds each
//! piece of state once: a server is failed exactly when its load is
//! [`engine::FAILED_LOAD`], and its [`engine::Counters`] and
//! [`engine::RetryStats`] are the ones a checkpoint carries. The
//! `tests/fault_recovery.rs` chaos suite pins prefix replay,
//! conservation, recovery, and checkpoint/restore under arbitrary fault
//! schedules.
//!
//! **Durability.** The [`journal`] module puts checkpoints on disk: a
//! [`journal::DurableEngine`] appends CRC-guarded progress frames to a
//! write-ahead journal and periodically snapshots the engine, then
//! builds the versioned [`engine::EngineState`] codec from the snapshot
//! in stages — one fixed work budget per journaled chunk, so a large
//! engine's checkpoint is spread over a few chunks instead of stalling
//! one, and a small engine's completes at once — writes it into a
//! reused spare file, rotates it in by renames that never replace a
//! file, and compacts the journal to the frames after it.
//! [`journal::Recovery::resume`] rebuilds an engine after a crash — torn
//! tails truncated, real corruption rejected loudly, and the replayed
//! state *byte-equal* to the uninterrupted run (the
//! `tests/crash_recovery.rs` suite injects arbitrary crash points, a
//! pending staged checkpoint's included, to pin exactly that).
//!
//! ```
//! use geo2c_core::{space::RingSpace, strategy::Strategy};
//! use geo2c_serve::engine::{ServeConfig, ServeEngine, SessionLife};
//! use geo2c_util::rng::Xoshiro256pp;
//!
//! let mut rng = Xoshiro256pp::from_u64(5);
//! let space = RingSpace::random(64, &mut rng);
//! let config = ServeConfig {
//!     strategy: Strategy::two_choice(),
//!     capacity: Some(8),
//!     life: SessionLife::Exponential { mean: 256.0 },
//!     retries: 0,
//! };
//! let mut engine = ServeEngine::new(space, config, 42);
//! engine.run(4096);
//! // Conservation: every arrival is live, departed, shed, or evicted.
//! assert_eq!(
//!     engine.in_service(),
//!     engine.arrivals() - engine.departed() - engine.shed() - engine.evicted()
//! );
//! assert!(engine.load_stats().max <= 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod journal;
pub mod wheel;

pub use engine::{
    Counters, EngineState, LoadStats, Placement, RestoreError, RetryStats, ServeConfig,
    ServeEngine, SessionLife,
};
pub use fault::{FaultAction, FaultPlan};
pub use journal::{DurableEngine, JournalError, Recovery, Resumed};
pub use wheel::{DepartureQueue, DepartureWheel, HeapQueue};
