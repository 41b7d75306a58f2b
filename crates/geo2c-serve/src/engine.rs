//! The event loop: arrivals, departures, failures, recovery, admission
//! control.
//!
//! Time is measured in *arrival events*: [`ServeEngine::step`] is one
//! arrival, and a session admitted at event `t` with lifetime `l`
//! departs at the start of event `t + l`. A failed server
//! ([`ServeEngine::fail_server`]) has its sessions evicted, its pending
//! departure entries purged from the schedule (the wheel does this
//! lazily by bumping the server's epoch), and its load pinned at
//! [`FAILED_LOAD`] so that any live probed server always wins the
//! least-loaded comparison; [`ServeEngine::recover_server`] clears the
//! sentinel and re-admits the server to placement at load zero. An
//! arrival whose probes all land on failed or at-capacity servers may
//! redraw up to [`ServeConfig::retries`] fresh probe sets from its
//! private retry lane before it is finally shed (see
//! [`crate::fault`] for scheduling faults deterministically).

use crate::wheel::{DepartureQueue, DepartureWheel};
use geo2c_core::load::LoadState;
use geo2c_core::sim::EventOwnerBlocks;
use geo2c_core::space::Space;
use geo2c_core::strategy::Strategy;
use geo2c_util::hist::Histogram;
use geo2c_util::rng::{EventLanes, LaneSource as _};
use rand::RngCore as _;
use std::fmt;

/// Load sentinel marking a failed server, and the only record of the
/// failure: a server is failed exactly when its load is this value. Live
/// loads are bounded far below it, so a live probe always beats a
/// failed one.
pub const FAILED_LOAD: u32 = u32::MAX;

/// How long an admitted session holds a slot, in arrival events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionLife {
    /// Every session lasts exactly this many events (must be ≥ 1).
    Fixed(u64),
    /// Memoryless sessions: lifetime `⌈Exp(mean)⌉` drawn on the event's
    /// private life lane (so the draw replays with the event).
    Exponential {
        /// Mean lifetime in arrival events (must be positive, finite).
        mean: f64,
    },
}

/// Static configuration of a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Placement strategy. Must support cross-ball batching (every
    /// independent-probe strategy does; Vöcking's split scheme has no
    /// lane form and is rejected at construction).
    pub strategy: Strategy,
    /// Admission bound: an arrival whose chosen server already carries
    /// this many sessions is shed. `None` admits unconditionally.
    pub capacity: Option<u32>,
    /// Session lifetime model.
    pub life: SessionLife,
    /// Probe-retry budget `r`: when every primary probe is failed or at
    /// capacity, redraw up to `r` fresh `d`-probe sets from the event's
    /// private [`RETRY_TAG`](geo2c_util::rng::RETRY_TAG) lane before
    /// shedding. `0` never touches the retry lane, replaying the
    /// retry-free engine byte-identically.
    pub retries: u32,
}

/// What [`ServeEngine::step`] did with its arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The session was admitted to this server (on the primary probes or
    /// on a retry attempt — [`ServeEngine::admitted_on_retry`] splits
    /// the two).
    Admitted(usize),
    /// The least-loaded probed server was at capacity on the final
    /// attempt; shed.
    ShedCapacity(usize),
    /// Every probed server had failed on the final attempt; shed.
    ShedUnavailable,
}

/// Point-in-time load statistics over the *live* servers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Maximum live load.
    pub max: u32,
    /// 99th-percentile live load (max over the lowest `⌈0.99k⌉` of `k`).
    pub p99: u32,
    /// Mean live load.
    pub mean: f64,
    /// Number of live servers.
    pub live_servers: usize,
}

/// The engine's session-flow counters, named so equality tests cannot
/// silently pass on transposed fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Arrival events processed.
    pub arrivals: u64,
    /// Sessions that ran to completion and departed.
    pub departed: u64,
    /// Arrivals rejected by admission control (capacity or unavailable).
    pub shed: u64,
    /// Sessions killed by server failures.
    pub evicted: u64,
}

/// Per-outcome accounting for the shed/retry paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Sheds whose final attempt found a live server at capacity.
    pub shed_capacity: u64,
    /// Sheds whose final attempt landed every probe on a failed server.
    pub shed_unavailable: u64,
    /// Arrivals admitted on a retry attempt (primary probes exhausted).
    pub admitted_on_retry: u64,
    /// Retry histogram: `by_attempt[j]` arrivals were admitted on retry
    /// attempt `j + 1`. Length equals [`ServeConfig::retries`].
    pub by_attempt: Vec<u64>,
}

/// A complete, comparable image of the engine's mutable state — the unit
/// of the replay-prefix byte-identity contract: two engines with equal
/// construction inputs that have processed the same event prefix (and
/// the same fault schedule) have equal `EngineState`s. It is the test
/// and codec view of a checkpoint: [`encode_state`](crate::journal::encode_state)
/// and [`decode_state`](crate::journal::decode_state) map it to the
/// image bytes, and [`ServeEngine::try_restore_with_scheduler`] rebuilds
/// an engine from it that continues byte-identically to one that never
/// stopped. A durable checkpoint never builds one: the writer encodes
/// the same bytes from a snapshot of the engine's loads and departures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineState {
    /// Per-server loads; a failed server holds [`FAILED_LOAD`].
    pub loads: Vec<u32>,
    /// Outstanding departures as sorted `(event, server)` pairs. Every
    /// entry references a live server: a failing server's entries are
    /// purged with its sessions (and never appear in a checkpoint).
    pub departures: Vec<(u64, u32)>,
    /// Session-flow counters.
    pub counters: Counters,
    /// Shed-split and retry accounting.
    pub retry: RetryStats,
    /// Highest load any server reached while live.
    pub peak_load: u32,
}

/// Why [`ServeEngine::try_restore_with_scheduler`] rejected a checkpoint.
/// Every state the engine produces satisfies each of these invariants,
/// so a violation marks a corrupt or foreign image: input to reject, not
/// a reason to abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The load vector is sized for a different space.
    SpaceSize {
        /// Servers in the engine's space.
        expected: usize,
        /// Entries in the checkpoint's vector.
        found: usize,
    },
    /// The retry histogram was taken under a different retry budget.
    RetryBudget {
        /// The engine's retry budget.
        expected: usize,
        /// The checkpoint's histogram length.
        found: usize,
    },
    /// The shed counter differs from its capacity/unavailable split.
    ShedSplit,
    /// The counters book more exits (departed + shed + evicted) than
    /// arrivals.
    ExitsExceedArrivals,
    /// The live loads do not sum to `arrivals − departed − shed −
    /// evicted`.
    Conservation {
        /// Σ live loads.
        live_sum: u64,
        /// In-service sessions the counters book.
        in_service: u64,
    },
    /// The departure map does not hold exactly one entry per in-service
    /// session.
    DepartureCount {
        /// Departure entries in the checkpoint.
        entries: u64,
        /// In-service sessions the counters book.
        in_service: u64,
    },
    /// A departure entry names a server outside the space.
    DepartureOutsideSpace {
        /// The entry's server.
        server: u32,
    },
    /// A departure entry sits on a failed server.
    DepartureOnFailedServer {
        /// The entry's server.
        server: u32,
    },
    /// A departure entry was already due before the checkpoint clock.
    DepartureBeforeClock {
        /// The entry's deadline.
        when: u64,
    },
    /// A live server's departure entries do not number exactly its load,
    /// so replay would drive some server's load below zero.
    DeparturesDisagreeWithLoad {
        /// The live server.
        server: usize,
        /// Departure entries on it.
        entries: u32,
        /// Its checkpointed load.
        load: u32,
    },
    /// The recorded peak load is below a live server's current load.
    PeakBelowLiveLoad {
        /// The checkpoint's peak load.
        peak: u32,
        /// Its largest live load.
        live: u32,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::SpaceSize { expected, found } => write!(
                f,
                "checkpoint sized for another space ({found} servers, the engine has {expected})"
            ),
            Self::RetryBudget { expected, found } => write!(
                f,
                "checkpoint taken under a different retry budget ({found}, the engine has {expected})"
            ),
            Self::ShedSplit => write!(
                f,
                "shed counter must equal its capacity/unavailable split"
            ),
            Self::ExitsExceedArrivals => {
                write!(f, "checkpoint counters book more exits than arrivals")
            }
            Self::Conservation {
                live_sum,
                in_service,
            } => write!(
                f,
                "checkpoint violates session conservation (live loads sum to {live_sum}, \
                 arrivals - departed - shed - evicted = {in_service})"
            ),
            Self::DepartureCount {
                entries,
                in_service,
            } => write!(
                f,
                "checkpoint must hold exactly one departure entry per in-service session \
                 ({entries} entries, {in_service} sessions)"
            ),
            Self::DepartureOutsideSpace { server } => {
                write!(f, "departure entry on server {server}, outside the space")
            }
            Self::DepartureOnFailedServer { server } => {
                write!(f, "departure entry on failed server {server}")
            }
            Self::DepartureBeforeClock { when } => write!(
                f,
                "departure entry at event {when}, already due before the checkpoint clock"
            ),
            Self::DeparturesDisagreeWithLoad {
                server,
                entries,
                load,
            } => write!(
                f,
                "server {server} holds {entries} departure entries but a load of {load}"
            ),
            Self::PeakBelowLiveLoad { peak, live } => write!(
                f,
                "checkpoint peak load {peak} is below its largest live load {live}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// The long-running placement engine. See the crate docs for the event
/// model and the stream contract.
///
/// Generic over the [`LoadState`] backing of its live-load vector: the
/// default `Vec<u32>` is the committed-results reference, and the packed
/// backings of [`geo2c_core::load`] serve the same event stream
/// byte-identically at a fraction of the memory
/// ([`ServeEngine::with_scheduler`]; pinned by the `packed_equivalence`
/// property suite). Also generic over the [`DepartureQueue`] scheduler:
/// the default [`DepartureWheel`] is the production timing wheel, and
/// [`crate::wheel::HeapQueue`] is the binary-heap oracle the
/// `wheel_oracle` property suite drives the same streams through.
#[derive(Debug, Clone)]
pub struct ServeEngine<S: Space, L: LoadState = Vec<u32>, Q: DepartureQueue = DepartureWheel> {
    space: S,
    config: ServeConfig,
    lanes: EventLanes,
    blocks: EventOwnerBlocks,
    /// Per-server loads; [`FAILED_LOAD`] marks a failed server.
    loads: L,
    /// Pending `(departure event, server)` entries.
    departures: Q,
    /// Session-flow counters; `counters.arrivals` is the event clock.
    counters: Counters,
    /// Shed split and retry histogram.
    retry: RetryStats,
    peak_load: u32,
    /// Reusable probe buffer for the retry path (d entries).
    retry_scratch: Vec<usize>,
}

/// Why an attempt's destination cannot admit.
enum ShedKind {
    Capacity(usize),
    Unavailable,
}

impl<S: Space> ServeEngine<S> {
    /// A fresh engine over `space`, keyed by the lane `root`, tracking
    /// loads in the flat `Vec<u32>` reference backing.
    ///
    /// # Panics
    /// Panics if the strategy has no lane form (split scheme), if a
    /// fixed lifetime is zero, or if an exponential mean is not a
    /// positive finite number.
    #[must_use]
    pub fn new(space: S, config: ServeConfig, root: u64) -> Self {
        let n = space.num_servers();
        Self::with_scheduler(space, config, root, vec![0; n])
    }
}

impl<S: Space, L: LoadState, Q: DepartureQueue> ServeEngine<S, L, Q> {
    /// [`ServeEngine::new`] on an explicit all-zero [`LoadState`]
    /// backing (e.g. [`geo2c_core::load::PackedLoads`] for large `n`)
    /// and [`DepartureQueue`] type — how the `wheel_oracle` suite runs
    /// whole engines on the [`crate::wheel::HeapQueue`] oracle.
    ///
    /// # Panics
    /// As [`ServeEngine::new`], plus if `loads` is sized for a different
    /// space or not all-zero (the engine's counters assume an empty
    /// start).
    #[must_use]
    pub fn with_scheduler(space: S, config: ServeConfig, root: u64, loads: L) -> Self {
        assert!(
            !config.strategy.is_split(),
            "serving requires a lane-form strategy (not the split scheme)"
        );
        match config.life {
            SessionLife::Fixed(ttl) => assert!(ttl >= 1, "zero-length sessions never occupy"),
            SessionLife::Exponential { mean } => {
                assert!(
                    mean.is_finite() && mean > 0.0,
                    "mean lifetime must be positive"
                );
            }
        }
        let n = space.num_servers();
        assert_eq!(
            loads.num_servers(),
            n,
            "load state sized for a different space"
        );
        assert!(
            (0..n).all(|s| loads.load(s) == 0),
            "load state must start empty"
        );
        Self {
            blocks: EventOwnerBlocks::new(config.strategy.d()),
            lanes: EventLanes::new(root),
            loads,
            departures: Q::with_origin(n, 0),
            counters: Counters::default(),
            retry: RetryStats {
                by_attempt: vec![0; config.retries as usize],
                ..RetryStats::default()
            },
            peak_load: 0,
            retry_scratch: vec![0; config.strategy.d()],
            space,
            config,
        }
    }

    /// [`ServeEngine::try_restore_with_scheduler`], panicking on a
    /// rejected checkpoint. It exists only because the repo benchmark
    /// (`perfbench/src/serve.rs`) calls it; everything else restores
    /// through the fallible form.
    ///
    /// # Panics
    /// As [`ServeEngine::with_scheduler`], plus on any [`RestoreError`].
    #[must_use]
    pub fn restore_with_scheduler(
        space: S,
        config: ServeConfig,
        root: u64,
        state: &EngineState,
        loads: L,
    ) -> Self {
        Self::try_restore_with_scheduler(space, config, root, state, loads)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Rebuilds an engine from a checkpoint taken with
    /// [`ServeEngine::state`] onto an all-zero `loads` backing (the
    /// checkpointed loads are written into it) and the scheduler `Q`.
    /// The restored engine continues byte-identically to one that
    /// processed the whole stream uninterrupted, provided `space`,
    /// `config`, and `root` equal the checkpointed engine's construction
    /// inputs. Returns an error instead of panicking on a checkpoint no
    /// engine could have produced — the entry point for checkpoints read
    /// from outside the process.
    ///
    /// # Errors
    /// [`RestoreError`] when the checkpoint is sized for a different
    /// space, was taken under a different retry budget, is internally
    /// inconsistent (shed counter differing from its capacity/unavailable
    /// split, more exits than arrivals, live loads violating session
    /// conservation `Σ live = arrivals − departed − shed − evicted`, a
    /// departure count differing from the in-service session count, or
    /// a peak load below some live load), carries a departure entry
    /// outside the space, on a failed server, or already due before the
    /// checkpoint clock, or gives some live server a departure-entry
    /// count different from its load.
    ///
    /// # Panics
    /// As [`ServeEngine::with_scheduler`]: `config` and `loads` are the
    /// caller's inputs, not the checkpoint's.
    pub fn try_restore_with_scheduler(
        space: S,
        config: ServeConfig,
        root: u64,
        state: &EngineState,
        loads: L,
    ) -> Result<Self, RestoreError> {
        let mut engine = Self::with_scheduler(space, config, root, loads);
        let n = engine.space.num_servers();
        if state.loads.len() != n {
            return Err(RestoreError::SpaceSize {
                expected: n,
                found: state.loads.len(),
            });
        }
        let budget = config.retries as usize;
        if state.retry.by_attempt.len() != budget {
            return Err(RestoreError::RetryBudget {
                expected: budget,
                found: state.retry.by_attempt.len(),
            });
        }
        let split = (state.retry.shed_capacity).checked_add(state.retry.shed_unavailable);
        if split != Some(state.counters.shed) {
            return Err(RestoreError::ShedSplit);
        }
        // Session conservation: every admitted session is in service,
        // departed, or evicted, so the live loads must sum to exactly
        // arrivals − departed − shed − evicted — and each in-service
        // session holds exactly one departure entry. A checkpoint that
        // books sessions nowhere (or twice) is corrupt, not restorable.
        let c = &state.counters;
        let in_service = (c.departed)
            .checked_add(c.shed)
            .and_then(|exits| exits.checked_add(c.evicted))
            .and_then(|exits| c.arrivals.checked_sub(exits))
            .ok_or(RestoreError::ExitsExceedArrivals)?;
        let live = || state.loads.iter().copied().filter(|&l| l != FAILED_LOAD);
        let live_sum: u64 = live().map(u64::from).sum();
        if live_sum != in_service {
            return Err(RestoreError::Conservation {
                live_sum,
                in_service,
            });
        }
        let entries = state.departures.len() as u64;
        if entries != in_service {
            return Err(RestoreError::DepartureCount {
                entries,
                in_service,
            });
        }
        let max_live = live().max().unwrap_or(0);
        if state.peak_load < max_live {
            return Err(RestoreError::PeakBelowLiveLoad {
                peak: state.peak_load,
                live: max_live,
            });
        }
        for (s, &load) in state.loads.iter().enumerate() {
            if load != 0 {
                engine.loads.set(s, load);
            }
        }
        // Re-key the queue to the checkpoint clock before re-filing:
        // every outstanding deadline is ≥ arrivals (earlier ones already
        // drained), and a wheel origined mid-stream files by delta.
        engine.departures = Q::with_origin(n, state.counters.arrivals);
        // Per-server bookkeeping: the totals above can balance while one
        // server holds another's entry, and replay would then decrement
        // the receiving server past zero.
        let mut entries_on = vec![0u32; n];
        for &(when, server) in &state.departures {
            let s = server as usize;
            if s >= n {
                return Err(RestoreError::DepartureOutsideSpace { server });
            }
            if state.loads[s] == FAILED_LOAD {
                return Err(RestoreError::DepartureOnFailedServer { server });
            }
            if when < state.counters.arrivals {
                return Err(RestoreError::DepartureBeforeClock { when });
            }
            entries_on[s] = entries_on[s].saturating_add(1);
            engine.departures.schedule(when, server);
        }
        let disagreeing =
            (0..n).find(|&s| state.loads[s] != FAILED_LOAD && entries_on[s] != state.loads[s]);
        if let Some(server) = disagreeing {
            return Err(RestoreError::DeparturesDisagreeWithLoad {
                server,
                entries: entries_on[server],
                load: state.loads[server],
            });
        }
        drop(entries_on);
        engine.counters = state.counters;
        engine.retry.clone_from(&state.retry);
        engine.peak_load = state.peak_load;
        Ok(engine)
    }

    /// Processes one arrival event: sessions due to depart leave first,
    /// then the arrival probes `d` owners on its private lanes and is
    /// admitted to the least loaded — or, once the primary probes and up
    /// to [`ServeConfig::retries`] redrawn probe sets are exhausted,
    /// shed by admission control.
    ///
    /// # Panics
    /// Panics if the event clock is already at `u64::MAX`.
    pub fn step(&mut self) -> Placement {
        let t = self.counters.arrivals;
        self.counters.arrivals = self.clock_after(1);
        {
            let loads = &mut self.loads;
            let departed = &mut self.counters.departed;
            self.departures.drain_due(t, |server| {
                let server = server as usize;
                debug_assert!(
                    loads.load(server) != FAILED_LOAD,
                    "purged entries never reach the drain"
                );
                loads.dec(server);
                *departed += 1;
            });
        }
        let owners = self.blocks.owners(&self.space, &self.lanes, t);
        let mut tie = self.lanes.tie(t);
        let dest =
            self.config
                .strategy
                .place_from_loads(&self.space, &self.loads, owners, &mut tie);
        let mut verdict = match self.shed_verdict(dest) {
            None => return self.admit(dest, t),
            Some(kind) => kind,
        };
        // Primary probes exhausted: redraw fresh probe sets from the
        // event's private retry lane. Attempt j draws its d probes and
        // any tie randomness sequentially from that one lane, so the
        // happy path (and a zero budget) never touches it.
        if self.config.retries > 0 {
            let mut retry = self.lanes.retry(t);
            for attempt in 1..=self.config.retries {
                for slot in &mut self.retry_scratch {
                    *slot = self.space.sample_owner(&mut retry);
                }
                let dest = self.config.strategy.place_from_loads(
                    &self.space,
                    &self.loads,
                    &self.retry_scratch,
                    &mut retry,
                );
                match self.shed_verdict(dest) {
                    None => {
                        self.retry.admitted_on_retry += 1;
                        self.retry.by_attempt[(attempt - 1) as usize] += 1;
                        return self.admit(dest, t);
                    }
                    Some(kind) => verdict = kind,
                }
            }
        }
        // Shed, classified by the final attempt's destination.
        self.counters.shed += 1;
        match verdict {
            ShedKind::Capacity(dest) => {
                self.retry.shed_capacity += 1;
                Placement::ShedCapacity(dest)
            }
            ShedKind::Unavailable => {
                self.retry.shed_unavailable += 1;
                Placement::ShedUnavailable
            }
        }
    }

    /// Why `dest` cannot admit, or `None` if it can: one load read
    /// answers both the failure and the capacity test.
    fn shed_verdict(&self, dest: usize) -> Option<ShedKind> {
        let load = self.loads.load(dest);
        if load == FAILED_LOAD {
            return Some(ShedKind::Unavailable);
        }
        match self.config.capacity {
            Some(cap) if load >= cap => Some(ShedKind::Capacity(dest)),
            _ => None,
        }
    }

    /// Admits event `t`'s session to `dest` and schedules its departure.
    fn admit(&mut self, dest: usize, t: u64) -> Placement {
        let new_load = self.loads.bump(dest);
        self.peak_load = self.peak_load.max(new_load);
        let life = self.sample_life(t);
        // A huge lifetime (a `Fixed(u64::MAX)`, or an exponential mean so
        // large the draw saturates) ends at the end of time rather than
        // wrapping into a deadline in the past.
        self.departures
            .schedule(t.saturating_add(life), dest as u32);
        Placement::Admitted(dest)
    }

    /// Runs `events` arrival events, batched along the 64-event aligned
    /// [`EventOwnerBlocks`] the owner pre-draw already materializes: each
    /// run sweeps a load-warming pass over the block's owners (the
    /// `sim::run_trial` idiom — read-only, so the stream is
    /// untouched) before stepping through its drain-then-place events.
    /// Byte-identical to calling [`ServeEngine::step`] `events` times.
    ///
    /// # Panics
    /// Panics if the event clock would pass `u64::MAX`.
    pub fn run(&mut self, events: u64) {
        let end = self.clock_after(events);
        while self.counters.arrivals < end {
            let clock = self.counters.arrivals;
            let block = EventOwnerBlocks::BLOCK_EVENTS;
            let start = clock - clock % block;
            let run_end = (start + block).min(end);
            let d = self.blocks.d();
            let lo = (clock - start) as usize * d;
            let hi = (run_end - start) as usize * d;
            let owners = self.blocks.block(&self.space, &self.lanes, clock);
            let mut warm = 0u32;
            for &owner in &owners[lo..hi] {
                warm = warm.wrapping_add(self.loads.warm(owner));
            }
            std::hint::black_box(warm);
            let steps = run_end - clock;
            for _ in 0..steps {
                self.step();
            }
        }
    }

    /// The event clock after `events` more arrivals.
    ///
    /// # Panics
    /// Panics if that would pass `u64::MAX`: `events` is caller input, and
    /// a restored clock may sit anywhere below the limit.
    pub(crate) fn clock_after(&self, events: u64) -> u64 {
        self.counters
            .arrivals
            .checked_add(events)
            .expect("event clock overflow: arrivals + events exceeds u64::MAX")
    }

    /// Fails `server`: its sessions are evicted, its pending departure
    /// entries are purged from the queue (the wheel bumps the server's
    /// epoch — O(1), not a rebuild — and drops the stale entries as the
    /// drain reaches them), its load is pinned at the sentinel, and
    /// future probes that land
    /// on it lose to any live alternative (until
    /// [`ServeEngine::recover_server`]). Idempotent.
    pub fn fail_server(&mut self, server: usize) {
        let load = self.loads.load(server);
        if load == FAILED_LOAD {
            return;
        }
        self.counters.evicted += u64::from(load);
        self.loads.set(server, FAILED_LOAD);
        self.departures.purge_server(server as u32);
    }

    /// Recovers a failed `server`: clears the sentinel and re-admits it
    /// to placement at load zero (its evicted sessions are gone for
    /// good). No-op on a live server.
    pub fn recover_server(&mut self, server: usize) {
        if self.is_failed(server) {
            self.loads.set(server, 0);
        }
    }

    /// The event `t`'s session lifetime, drawn on its private life lane.
    fn sample_life(&self, t: u64) -> u64 {
        match self.config.life {
            SessionLife::Fixed(ttl) => ttl,
            SessionLife::Exponential { mean } => {
                // 53-bit uniform in (0, 1]: ln is finite, life ≥ 1.
                let raw = self.lanes.life(t).next_u64();
                let u = ((raw >> 11) + 1) as f64 / (1u64 << 53) as f64;
                let life = (-mean * u.ln()).ceil();
                if life < 1.0 {
                    1
                } else {
                    life as u64
                }
            }
        }
    }

    /// Arrival events processed so far.
    #[must_use]
    pub fn arrivals(&self) -> u64 {
        self.counters.arrivals
    }

    /// Sessions that ran to completion and departed.
    #[must_use]
    pub fn departed(&self) -> u64 {
        self.counters.departed
    }

    /// Arrivals rejected by admission control (capacity or unavailable).
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.counters.shed
    }

    /// Sheds whose final attempt found a live server at capacity.
    #[must_use]
    pub fn shed_capacity(&self) -> u64 {
        self.retry.shed_capacity
    }

    /// Sheds whose final attempt landed every probe on a failed server.
    #[must_use]
    pub fn shed_unavailable(&self) -> u64 {
        self.retry.shed_unavailable
    }

    /// Arrivals admitted on a retry attempt (primary probes exhausted).
    #[must_use]
    pub fn admitted_on_retry(&self) -> u64 {
        self.retry.admitted_on_retry
    }

    /// Retry histogram: entry `j` counts admissions on retry attempt
    /// `j + 1`. Length equals [`ServeConfig::retries`].
    #[must_use]
    pub fn retry_by_attempt(&self) -> &[u64] {
        &self.retry.by_attempt
    }

    /// Sessions killed by server failures.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.counters.evicted
    }

    /// Arrivals admitted: `arrivals − shed`.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.counters.arrivals - self.counters.shed
    }

    /// Sessions currently occupying a live server:
    /// `admitted − departed − evicted`.
    #[must_use]
    pub fn in_service(&self) -> u64 {
        self.admitted() - self.counters.departed - self.counters.evicted
    }

    /// Fraction of arrivals shed (`0` before the first event).
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.counters.arrivals == 0 {
            0.0
        } else {
            self.counters.shed as f64 / self.counters.arrivals as f64
        }
    }

    /// Highest load any server reached while live.
    #[must_use]
    pub fn peak_load(&self) -> u32 {
        self.peak_load
    }

    /// Whether `server` has failed (its load is [`FAILED_LOAD`]).
    #[must_use]
    pub fn is_failed(&self, server: usize) -> bool {
        self.loads.load(server) == FAILED_LOAD
    }

    /// The loads of the live servers, in server order.
    pub fn live_loads(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.loads.num_servers())
            .map(|s| self.loads.load(s))
            .filter(|&load| load != FAILED_LOAD)
    }

    /// The substrate the engine routes on.
    #[must_use]
    pub fn space(&self) -> &S {
        &self.space
    }

    /// The engine's static configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Point-in-time statistics over the live loads: one counting pass
    /// into a dense [`Histogram`] instead of the old clone-and-sort — no
    /// O(n log n), and the max/p99/mean read straight off the counts.
    /// The bucket array grows to the largest load it records, never to
    /// a size taken from elsewhere, so it stays tiny. The mean is
    /// *exactly* the sorted-sum mean: both are integer sums below 2^53,
    /// each exactly representable in an `f64`.
    #[must_use]
    pub fn load_stats(&self) -> LoadStats {
        let mut hist = Histogram::new();
        for load in self.live_loads() {
            hist.record(load);
        }
        let k = hist.total();
        if k == 0 {
            return LoadStats {
                max: 0,
                p99: 0,
                mean: 0.0,
                live_servers: 0,
            };
        }
        let p99_index = ((k as f64 * 0.99).ceil() as u64).max(1) - 1;
        LoadStats {
            max: hist.max(),
            p99: hist.value_at_sorted_index(p99_index),
            mean: hist.sum() as f64 / k as f64,
            live_servers: k as usize,
        }
    }

    /// A comparable image of the full mutable state (replay tests), and
    /// the checkpoint format [`ServeEngine::try_restore_with_scheduler`]
    /// accepts.
    #[must_use]
    pub fn state(&self) -> EngineState {
        // Departures first: the wheel's sort scratch is freed before the
        // loads are copied, so the copy can reuse that memory.
        let departures = self.departures.entries();
        EngineState {
            loads: self.loads.to_vec(),
            departures,
            counters: self.counters,
            retry: self.retry.clone(),
            peak_load: self.peak_load,
        }
    }

    /// The checkpoint image's inputs, borrowed for a snapshot: the
    /// counters, retry statistics, peak load and load backing, and the
    /// departure queue mutably, for its sliced gather.
    pub(crate) fn image_inputs_mut(&mut self) -> (&Counters, &RetryStats, u32, &L, &mut Q) {
        (
            &self.counters,
            &self.retry,
            self.peak_load,
            &self.loads,
            &mut self.departures,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use geo2c_core::space::{RingSpace, UniformSpace};
    use geo2c_util::rng::Xoshiro256pp;

    fn config(capacity: Option<u32>, life: SessionLife) -> ServeConfig {
        ServeConfig {
            strategy: Strategy::two_choice(),
            capacity,
            life,
            retries: 0,
        }
    }

    #[test]
    fn fixed_ttl_sessions_depart_on_schedule() {
        // Life 1: the session admitted at t departs at the start of
        // t + 1, so at most one session is ever in service.
        let space = UniformSpace::new(8);
        let mut engine = ServeEngine::new(space, config(None, SessionLife::Fixed(1)), 7);
        for _ in 0..100 {
            engine.step();
            assert!(engine.in_service() <= 1);
        }
        assert_eq!(engine.arrivals(), 100);
        assert_eq!(engine.shed(), 0);
        assert_eq!(engine.departed(), 99);
        assert_eq!(engine.in_service(), 1);
        assert_eq!(engine.load_stats().max, 1);
    }

    #[test]
    fn zero_capacity_sheds_every_arrival() {
        let space = UniformSpace::new(4);
        let mut engine = ServeEngine::new(space, config(Some(0), SessionLife::Fixed(5)), 3);
        for _ in 0..50 {
            assert!(matches!(engine.step(), Placement::ShedCapacity(_)));
        }
        assert_eq!(engine.shed(), 50);
        assert_eq!(engine.in_service(), 0);
        assert_eq!(engine.shed_rate(), 1.0);
        assert_eq!(engine.load_stats().max, 0);
    }

    #[test]
    fn capacity_bounds_every_live_load() {
        let mut rng = Xoshiro256pp::from_u64(11);
        let space = RingSpace::random(16, &mut rng);
        let mut engine = ServeEngine::new(space, config(Some(3), SessionLife::Fixed(1000)), 99);
        engine.run(500);
        assert!(engine.load_stats().max <= 3);
        assert!(engine.shed() > 0, "16 servers x cap 3 < 500 held sessions");
        assert_eq!(
            engine.in_service(),
            engine.live_loads().map(u64::from).sum::<u64>()
        );
    }

    #[test]
    fn all_servers_failed_sheds_as_unavailable() {
        let space = UniformSpace::new(4);
        let mut engine = ServeEngine::new(space, config(None, SessionLife::Fixed(9)), 1);
        engine.run(20);
        let held = engine.in_service();
        assert!(held > 0);
        for s in 0..4 {
            engine.fail_server(s);
        }
        assert_eq!(engine.evicted(), held);
        assert_eq!(engine.in_service(), 0);
        for _ in 0..10 {
            assert_eq!(engine.step(), Placement::ShedUnavailable);
        }
        assert_eq!(engine.load_stats().live_servers, 0);
        assert_eq!(engine.load_stats().max, 0);
    }

    #[test]
    fn live_probe_beats_failed_probe() {
        // With d covering the whole 2-server space every arrival probes
        // both; failing one server must route everything to the other.
        let space = UniformSpace::new(2);
        let cfg = ServeConfig {
            strategy: Strategy::d_choice(8),
            capacity: None,
            life: SessionLife::Fixed(1_000_000),
            retries: 0,
        };
        let mut engine = ServeEngine::new(space, cfg, 5);
        engine.fail_server(0);
        for _ in 0..30 {
            // d = 8 probes over 2 servers: P(all on server 0) = 2^-8,
            // and this seed never rolls it.
            assert_eq!(engine.step(), Placement::Admitted(1));
        }
        assert_eq!(engine.in_service(), 30);
    }

    #[test]
    fn failing_a_server_is_idempotent_and_evicts_its_sessions() {
        let mut rng = Xoshiro256pp::from_u64(13);
        let space = RingSpace::random(8, &mut rng);
        let mut engine = ServeEngine::new(space, config(None, SessionLife::Fixed(400)), 21);
        engine.run(100);
        let before = engine.state();
        let loads = before.loads.clone();
        engine.fail_server(3);
        assert_eq!(engine.evicted(), u64::from(loads[3]));
        engine.fail_server(3);
        assert_eq!(engine.evicted(), u64::from(loads[3]), "idempotent");
        assert!(engine.is_failed(3));
        assert_eq!(
            engine.in_service(),
            engine.live_loads().map(u64::from).sum::<u64>()
        );
    }

    #[test]
    fn exponential_lifetimes_replay_with_the_event() {
        // The life draw is keyed by (root, t): two engines with the same
        // root agree byte-for-byte, a different root disagrees.
        let mut rng = Xoshiro256pp::from_u64(17);
        let space = RingSpace::random(32, &mut rng);
        let life = SessionLife::Exponential { mean: 40.0 };
        let mut a = ServeEngine::new(space.clone(), config(Some(6), life), 1000);
        let mut b = ServeEngine::new(space.clone(), config(Some(6), life), 1000);
        let mut c = ServeEngine::new(space, config(Some(6), life), 1001);
        a.run(2000);
        b.run(2000);
        c.run(2000);
        assert_eq!(a.state(), b.state());
        assert_ne!(a.state(), c.state());
        assert!(a.departed() > 0, "mean 40 over 2000 events must cycle");
    }

    #[test]
    fn split_scheme_is_rejected() {
        let result = std::panic::catch_unwind(|| {
            let space = UniformSpace::new(4);
            let cfg = ServeConfig {
                strategy: Strategy::voecking(2),
                capacity: None,
                life: SessionLife::Fixed(1),
                retries: 0,
            };
            ServeEngine::new(space, cfg, 0)
        });
        assert!(result.is_err());
    }

    #[test]
    fn failing_a_server_purges_its_departure_entries() {
        let space = UniformSpace::new(4);
        let mut engine = ServeEngine::new(space, config(None, SessionLife::Fixed(1_000)), 8);
        engine.run(64);
        let before = engine.state();
        assert!(
            before.departures.iter().any(|&(_, s)| s == 2),
            "seed must route sessions to server 2"
        );
        engine.fail_server(2);
        let after = engine.state();
        assert!(after.departures.iter().all(|&(_, s)| s != 2), "purged");
        assert_eq!(
            after.departures.len() as u64,
            engine.in_service(),
            "exactly one heap entry per in-service session"
        );
    }

    #[test]
    fn recovery_readmits_at_load_zero_and_is_a_noop_on_live_servers() {
        let space = UniformSpace::new(2);
        let cfg = ServeConfig {
            strategy: Strategy::d_choice(8),
            capacity: None,
            life: SessionLife::Fixed(1_000_000),
            retries: 0,
        };
        let mut engine = ServeEngine::new(space, cfg, 5);
        engine.fail_server(0); // d = 8 covers both servers: all load on 1
        engine.run(10);
        engine.fail_server(1);
        assert_eq!(engine.evicted(), 10);
        assert_eq!(engine.step(), Placement::ShedUnavailable);
        engine.recover_server(1);
        assert!(!engine.is_failed(1));
        assert_eq!(engine.state().loads[1], 0, "recovered at load zero");
        // Server 0 is still down, so placements flow back to 1.
        assert!(matches!(engine.step(), Placement::Admitted(1)));
        // No-op on a live server: state is untouched.
        let before = engine.state();
        engine.recover_server(1);
        assert_eq!(engine.state(), before);
    }

    #[test]
    fn fully_failed_cluster_sheds_unavailable_despite_retries() {
        let space = UniformSpace::new(4);
        let mut cfg = config(None, SessionLife::Fixed(9));
        cfg.retries = 3;
        let mut engine = ServeEngine::new(space, cfg, 1);
        for s in 0..4 {
            engine.fail_server(s);
        }
        for _ in 0..10 {
            assert_eq!(engine.step(), Placement::ShedUnavailable);
        }
        assert_eq!(engine.shed_unavailable(), 10);
        assert_eq!(engine.shed_capacity(), 0);
        assert_eq!(engine.admitted_on_retry(), 0);
        assert_eq!(engine.retry_by_attempt(), &[0, 0, 0]);
    }

    #[test]
    fn capacity_sheds_stay_capacity_sheds_on_the_retry_path() {
        // Every server live but at capacity 0: all retry attempts find
        // live-but-full destinations, so the shed stays ShedCapacity and
        // the two shed counters never mix.
        let space = UniformSpace::new(4);
        let mut cfg = config(Some(0), SessionLife::Fixed(5));
        cfg.retries = 2;
        let mut engine = ServeEngine::new(space, cfg, 3);
        for _ in 0..25 {
            assert!(matches!(engine.step(), Placement::ShedCapacity(_)));
        }
        assert_eq!(engine.shed_capacity(), 25);
        assert_eq!(engine.shed_unavailable(), 0);
    }

    #[test]
    fn retries_rescue_arrivals_whose_primary_probes_all_failed() {
        // d = 1 on a 2-server space with server 0 failed: roughly half
        // of the primary probes land on the failed server, and a retry
        // budget of 8 redraws until server 1 turns up — so nearly every
        // arrival is admitted, many of them on the retry path.
        let space = UniformSpace::new(2);
        let cfg = ServeConfig {
            strategy: Strategy::d_choice(1),
            capacity: None,
            life: SessionLife::Fixed(1_000_000),
            retries: 8,
        };
        let mut engine = ServeEngine::new(space, cfg, 77);
        engine.fail_server(0);
        engine.run(200);
        assert!(engine.admitted_on_retry() > 30, "retries must rescue");
        assert_eq!(
            engine.retry_by_attempt().iter().sum::<u64>(),
            engine.admitted_on_retry(),
            "histogram sums to the rescue count"
        );
        assert!(
            engine.shed() < 5,
            "P(9 straight probes on the failed half) is ~2^-9 per event"
        );
        // Zero-budget control on the same root: the primary lanes are
        // untouched by retries, so primary placements agree event for
        // event — every rescued arrival here was a shed there.
        let mut control =
            ServeEngine::new(UniformSpace::new(2), ServeConfig { retries: 0, ..cfg }, 77);
        control.fail_server(0);
        control.run(200);
        // With d = 1, no capacity, and no departures in 200 events the
        // primary outcome of every event is identical across budgets, so
        // the controls' sheds split exactly into rescued + still-shed.
        assert_eq!(control.shed(), engine.shed() + engine.admitted_on_retry());
    }

    /// A checkpoint with ~200 events of real history, for tamper tests.
    fn tamper_base() -> (RingSpace, ServeConfig, EngineState) {
        let mut rng = Xoshiro256pp::from_u64(29);
        let space = RingSpace::random(16, &mut rng);
        let cfg = config(Some(5), SessionLife::Exponential { mean: 25.0 });
        let mut engine = ServeEngine::new(space.clone(), cfg, 77);
        engine.run(150);
        engine.fail_server(2);
        engine.run(50);
        (space, cfg, engine.state())
    }

    /// The error the fallible restore returns for a tampered `state`.
    fn restore_error(state: EngineState) -> RestoreError {
        let (space, cfg, _) = tamper_base();
        let restored = ServeEngine::<_, Vec<u32>, DepartureWheel>::try_restore_with_scheduler(
            space,
            cfg,
            77,
            &state,
            vec![0; 16],
        );
        match restored {
            Ok(_) => panic!("tampered checkpoint must be rejected"),
            Err(err) => err,
        }
    }

    #[test]
    fn restore_rejects_loads_that_violate_session_conservation() {
        let (_, _, mut state) = tamper_base();
        let live = state.loads.iter().position(|&l| l != FAILED_LOAD).unwrap();
        state.loads[live] += 1; // books a session that never arrived
        assert!(matches!(
            restore_error(state),
            RestoreError::Conservation { .. }
        ));
    }

    #[test]
    fn restore_rejects_counters_that_book_more_exits_than_arrivals() {
        let (space, cfg, mut state) = tamper_base();
        state.counters.departed = state.counters.arrivals + 1;
        assert_eq!(
            restore_error(state.clone()),
            RestoreError::ExitsExceedArrivals
        );
        // The infallible restore reports the same reason in its panic.
        let err = std::panic::catch_unwind(|| {
            let _: ServeEngine<_> =
                ServeEngine::restore_with_scheduler(space, cfg, 77, &state, vec![0; 16]);
        })
        .expect_err("the panicking restore must reject it too");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("more exits than arrivals"), "{msg:?}");
    }

    #[test]
    fn restore_rejects_a_session_map_missing_a_departure_entry() {
        let (_, _, mut state) = tamper_base();
        // Loads and counters stay conserved; only the entry is gone.
        state.departures.pop().unwrap();
        assert!(matches!(
            restore_error(state),
            RestoreError::DepartureCount { .. }
        ));
    }

    #[test]
    fn restore_rejects_a_session_map_referencing_a_failed_server() {
        let (_, _, mut state) = tamper_base();
        // Re-point one entry at the failed server 2: loads are untouched,
        // so conservation and the entry count still hold — isolating the
        // failed-server check.
        let (when, _) = state.departures[0];
        state.departures[0] = (when, 2);
        assert_eq!(
            restore_error(state),
            RestoreError::DepartureOnFailedServer { server: 2 }
        );
    }

    #[test]
    fn restore_rejects_departure_entries_moved_between_live_servers() {
        let (_, _, mut state) = tamper_base();
        // Move one entry from server a to another live server b: every
        // total (conservation, entry count) still balances, but replay
        // would take b's load below zero once b's extra session departs.
        let (when, a) = state.departures[0];
        let b = (0..16u32)
            .find(|&b| b != a && state.loads[b as usize] != FAILED_LOAD)
            .unwrap();
        state.departures[0] = (when, b);
        let (a, b) = (a as usize, b as usize);
        // The lower-numbered of the two is reported: a lost an entry, b
        // gained one.
        let (server, entries) = if a < b {
            (a, state.loads[a] - 1)
        } else {
            (b, state.loads[b] + 1)
        };
        let load = state.loads[server];
        assert_eq!(
            restore_error(state),
            RestoreError::DeparturesDisagreeWithLoad {
                server,
                entries,
                load
            }
        );
    }

    #[test]
    fn restore_rejects_a_peak_load_below_a_live_load() {
        let (_, _, mut state) = tamper_base();
        let live = state.loads.iter().copied().filter(|&l| l != FAILED_LOAD);
        let max_live = live.max().unwrap();
        assert!(max_live > 0, "the base image must hold sessions");
        state.peak_load = max_live - 1;
        assert_eq!(
            restore_error(state),
            RestoreError::PeakBelowLiveLoad {
                peak: max_live - 1,
                live: max_live
            }
        );
    }

    #[test]
    fn load_stats_sizes_its_histogram_from_the_live_loads() {
        // A peak near u32::MAX is a valid checkpoint (the peak bounds the
        // live loads only from above); sizing the histogram from it would
        // ask for 32 GiB of buckets.
        let (space, cfg, mut state) = tamper_base();
        state.peak_load = FAILED_LOAD - 1;
        let engine: ServeEngine<_> =
            ServeEngine::try_restore_with_scheduler(space, cfg, 77, &state, vec![0; 16])
                .expect("a high peak is restorable");
        let stats = engine.load_stats();
        assert_eq!(stats.live_servers, 15, "server 2 failed");
        assert_eq!(
            u64::from(stats.max),
            engine.live_loads().map(u64::from).max().unwrap()
        );
    }

    #[test]
    fn huge_lifetimes_saturate_the_deadline_instead_of_wrapping() {
        // A mean of 1e300 saturates every ⌈Exp(mean)⌉ draw at u64::MAX,
        // as does a fixed u64::MAX lifetime: from event 1 on, `t + life`
        // would wrap into a deadline in the past.
        for life in [
            SessionLife::Exponential { mean: 1e300 },
            SessionLife::Fixed(u64::MAX),
        ] {
            let cfg = config(None, life);
            let mut engine = ServeEngine::new(UniformSpace::new(4), cfg, 3);
            engine.run(100);
            assert_eq!(engine.in_service(), 100, "no session ever departs");
            let state = engine.state();
            assert!(state.departures.iter().all(|&(when, _)| when == u64::MAX));
            let mut resumed: ServeEngine<_> = ServeEngine::restore_with_scheduler(
                UniformSpace::new(4),
                cfg,
                3,
                &state,
                vec![0; 4],
            );
            resumed.run(50);
            engine.run(50);
            assert_eq!(resumed.state(), engine.state());
        }
    }

    /// A 4-server engine restored one event short of the clock limit:
    /// every arrival so far was shed at capacity, so sessions are
    /// conserved with nothing in service.
    pub(crate) fn engine_at_the_clock_limit(cfg: ServeConfig) -> ServeEngine<UniformSpace> {
        let near_end = u64::MAX - 1;
        let state = EngineState {
            loads: vec![0; 4],
            departures: Vec::new(),
            counters: Counters {
                arrivals: near_end,
                shed: near_end,
                ..Counters::default()
            },
            retry: RetryStats {
                shed_capacity: near_end,
                ..RetryStats::default()
            },
            peak_load: 0,
        };
        ServeEngine::try_restore_with_scheduler(UniformSpace::new(4), cfg, 3, &state, vec![0; 4])
            .expect("a conserved clock is restorable")
    }

    #[test]
    #[should_panic(expected = "event clock overflow")]
    fn run_rejects_an_event_count_that_overflows_the_clock() {
        let mut engine = engine_at_the_clock_limit(config(None, SessionLife::Fixed(5)));
        engine.run(2);
    }

    #[test]
    #[should_panic(expected = "event clock overflow")]
    fn step_rejects_the_event_after_the_clock_limit() {
        let mut engine = engine_at_the_clock_limit(config(None, SessionLife::Fixed(5)));
        engine.step();
        engine.step();
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let mut rng = Xoshiro256pp::from_u64(23);
        let space = RingSpace::random(16, &mut rng);
        let mut cfg = config(Some(4), SessionLife::Exponential { mean: 30.0 });
        cfg.retries = 1;
        let mut full = ServeEngine::new(space.clone(), cfg, 900);
        let mut first = ServeEngine::new(space.clone(), cfg, 900);
        first.run(300);
        first.fail_server(5);
        first.run(100);
        full.run(300);
        full.fail_server(5);
        full.run(100);
        let checkpoint = first.state();
        let mut resumed: ServeEngine<_> =
            ServeEngine::restore_with_scheduler(space, cfg, 900, &checkpoint, vec![0; 16]);
        assert_eq!(resumed.state(), checkpoint, "restore is lossless");
        resumed.recover_server(5);
        full.recover_server(5);
        resumed.run(400);
        full.run(400);
        assert_eq!(resumed.state(), full.state());
    }
}
