//! Property tests pinning the serving engine's steady-state invariants
//! and its replay contract — **exactly**, not statistically, mirroring
//! `geo2c-core/tests/lane_equivalence.rs` for the online setting.
//!
//! Three layers:
//!
//! 1. **Conservation.** After any arrival/departure/failure sequence,
//!    every arrival is accounted for exactly once: live in a server,
//!    departed, shed, or evicted — and no live load exceeds the
//!    admission capacity.
//! 2. **Replay-prefix byte-identity.** The engine state after `p` events
//!    is a pure function of `(space, config, root, failure schedule)`:
//!    chunking the run, pausing and resuming, or re-running the prefix
//!    from scratch all yield the same [`EngineState`].
//! 3. **Batched ≡ event-sequential.** The engine pre-draws probe owners
//!    in aligned blocks (`EventOwnerBlocks`); a from-scratch reference
//!    that draws each event's owners singly from its probe lane,
//!    resolves ties by its own reservoir on the tie lane, samples
//!    lifetimes on the life lane, redraws shed-bound arrivals singly
//!    from the retry lane, and keeps departures in a sorted list (no
//!    heap) must produce the identical state trajectory.

use geo2c_core::space::{RingSpace, Space, UniformSpace};
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::{
    Counters, EngineState, Placement, RetryStats, ServeConfig, ServeEngine, SessionLife,
    FAILED_LOAD,
};
use geo2c_util::rng::{EventLanes, LaneSource, SplitMix64, Xoshiro256pp};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use rand::{Rng, RngCore};

/// A deterministic churn schedule: server `fail_at[i].1` fails just
/// before event `fail_at[i].0` is processed.
type FailSchedule = Vec<(u64, usize)>;

/// `(kind, ttl, mean)` → a [`SessionLife`] (the shim proptest has no
/// `prop_oneof!`, so variant selection is an explicit generated flag).
fn lives() -> impl proptest::strategy::Strategy<Value = SessionLife> {
    (0u8..2, 1u64..200, 0.5f64..200.0).prop_map(|(kind, ttl, mean)| {
        if kind == 0 {
            SessionLife::Fixed(ttl)
        } else {
            SessionLife::Exponential { mean }
        }
    })
}

/// `0..=12`, with the top value standing in for "unbounded".
fn capacities() -> impl proptest::strategy::Strategy<Value = Option<u32>> {
    (0u32..13).prop_map(|cap| if cap == 12 { None } else { Some(cap) })
}

fn schedules(events: u64, n: usize) -> impl proptest::strategy::Strategy<Value = FailSchedule> {
    proptest::collection::vec((0..events.max(1), 0..n), 0..4)
}

/// Runs `engine` for `events` steps, failing servers per `schedule`.
fn run_with_failures<S: Space>(engine: &mut ServeEngine<S>, events: u64, schedule: &FailSchedule) {
    let offset = engine.arrivals();
    for t in 0..events {
        for &(when, server) in schedule {
            if when == t + offset {
                engine.fail_server(server);
            }
        }
        engine.step();
    }
}

/// The event-sequential reference: no owner blocks, no heap, its own
/// reservoir tie-break. Only the `(root, t)` lane keying is shared with
/// the engine — that keying *is* the contract under test.
struct Reference {
    lanes: EventLanes,
    d: usize,
    capacity: Option<u32>,
    life: SessionLife,
    retries: u32,
    loads: Vec<u32>,
    failed: Vec<bool>,
    /// Outstanding departures, kept sorted ascending by (event, server).
    pending: Vec<(u64, u32)>,
    clock: u64,
    departed: u64,
    shed_capacity: u64,
    shed_unavailable: u64,
    evicted: u64,
    admitted_on_retry: u64,
    by_attempt: Vec<u64>,
    peak: u32,
}

impl Reference {
    fn new(n: usize, config: ServeConfig, root: u64) -> Self {
        Self {
            lanes: EventLanes::new(root),
            d: config.strategy.d(),
            capacity: config.capacity,
            life: config.life,
            retries: config.retries,
            loads: vec![0; n],
            failed: vec![false; n],
            pending: Vec::new(),
            clock: 0,
            departed: 0,
            shed_capacity: 0,
            shed_unavailable: 0,
            evicted: 0,
            admitted_on_retry: 0,
            by_attempt: vec![0; config.retries as usize],
            peak: 0,
        }
    }

    fn fail_server(&mut self, server: usize) {
        if !self.failed[server] {
            self.evicted += u64::from(self.loads[server]);
            self.loads[server] = FAILED_LOAD;
            self.failed[server] = true;
            // Eager purge, mirroring the engine's heap discipline.
            self.pending.retain(|&(_, s)| s as usize != server);
        }
    }

    /// From-scratch reservoir over the min-load owners, in scan order,
    /// consuming one `gen_range` per tied candidate past the first.
    fn choose(&self, owners: &[usize], rng: &mut SplitMix64) -> usize {
        let min_load = owners.iter().map(|&s| self.loads[s]).min().expect("d >= 1");
        let tied: Vec<usize> = owners
            .iter()
            .copied()
            .filter(|&s| self.loads[s] == min_load)
            .collect();
        let mut dest = tied[0];
        for (extra, &s) in tied[1..].iter().enumerate() {
            if rng.gen_range(0..extra + 2) == 0 {
                dest = s;
            }
        }
        dest
    }

    /// Whether `dest` sheds, and if so whether as unavailable (`true`).
    fn sheds(&self, dest: usize) -> Option<bool> {
        if self.failed[dest] {
            return Some(true);
        }
        if let Some(cap) = self.capacity {
            if self.loads[dest] >= cap {
                return Some(false);
            }
        }
        None
    }

    fn step<S: Space>(&mut self, space: &S) {
        let t = self.clock;
        self.clock += 1;
        while let Some(&(when, server)) = self.pending.first() {
            if when > t {
                break;
            }
            self.pending.remove(0);
            self.loads[server as usize] -= 1;
            self.departed += 1;
        }
        let mut probe = self.lanes.probe(t);
        let owners: Vec<usize> = (0..self.d)
            .map(|_| space.sample_owner(&mut probe))
            .collect();
        let mut tie_rng = self.lanes.tie(t);
        let dest = self.choose(&owners, &mut tie_rng);
        let mut verdict = self.sheds(dest);
        let mut admitted = dest;
        let mut rescue_attempt = None;
        if verdict.is_some() && self.retries > 0 {
            // Retry: attempt j draws d fresh owners and its tie draws
            // sequentially from the event's single retry lane.
            let mut retry = self.lanes.retry(t);
            for attempt in 1..=self.retries {
                let owners: Vec<usize> = (0..self.d)
                    .map(|_| space.sample_owner(&mut retry))
                    .collect();
                let dest = self.choose(&owners, &mut retry);
                verdict = self.sheds(dest);
                if verdict.is_none() {
                    admitted = dest;
                    rescue_attempt = Some(attempt);
                    break;
                }
            }
        }
        match verdict {
            Some(true) => {
                self.shed_unavailable += 1;
                return;
            }
            Some(false) => {
                self.shed_capacity += 1;
                return;
            }
            None => {}
        }
        let dest = admitted;
        if let Some(attempt) = rescue_attempt {
            self.admitted_on_retry += 1;
            self.by_attempt[(attempt - 1) as usize] += 1;
        }
        self.loads[dest] += 1;
        self.peak = self.peak.max(self.loads[dest]);
        let life = match self.life {
            SessionLife::Fixed(ttl) => ttl,
            SessionLife::Exponential { mean } => {
                let raw = self.lanes.life(t).next_u64();
                let u = ((raw >> 11) + 1) as f64 / (1u64 << 53) as f64;
                let life = (-mean * u.ln()).ceil();
                if life < 1.0 {
                    1
                } else {
                    life as u64
                }
            }
        };
        let entry = (t + life, dest as u32);
        let at = self.pending.partition_point(|&p| p <= entry);
        self.pending.insert(at, entry);
    }

    fn state(&self) -> EngineState {
        EngineState {
            loads: self.loads.clone(),
            departures: self.pending.clone(),
            counters: Counters {
                arrivals: self.clock,
                departed: self.departed,
                shed: self.shed_capacity + self.shed_unavailable,
                evicted: self.evicted,
            },
            retry: RetryStats {
                shed_capacity: self.shed_capacity,
                shed_unavailable: self.shed_unavailable,
                admitted_on_retry: self.admitted_on_retry,
                by_attempt: self.by_attempt.clone(),
            },
            peak_load: self.peak,
        }
    }
}

fn check_conservation<S: Space>(engine: &ServeEngine<S>, capacity: Option<u32>) {
    let live_total: u64 = engine.live_loads().map(u64::from).sum();
    assert_eq!(
        live_total,
        engine.arrivals() - engine.departed() - engine.shed() - engine.evicted(),
        "conservation: live = arrivals - departed - shed - evicted"
    );
    assert_eq!(engine.in_service(), live_total);
    if let Some(cap) = capacity {
        assert!(
            engine.live_loads().all(|l| l <= cap),
            "a live load exceeds the admission capacity"
        );
    }
    assert!(engine.live_loads().all(|l| l <= engine.peak_load()));
}

proptest! {
    /// Layer 1: conservation + capacity bound after arbitrary runs.
    #[test]
    fn arrivals_are_conserved_under_churn(
        seed in 0u64..1 << 48,
        n in 1usize..48,
        events in 0u64..400,
        d in 1usize..4,
        capacity in capacities(),
        life in lives(),
        retries in 0u32..3,
        schedule in schedules(400, 48),
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0xC0DE);
        let space = RingSpace::random(n, &mut rng);
        let schedule: FailSchedule =
            schedule.into_iter().filter(|&(_, s)| s < n).collect();
        let config = ServeConfig { strategy: Strategy::d_choice(d), capacity, life, retries };
        let mut engine = ServeEngine::new(space, config, rng.next_u64());
        run_with_failures(&mut engine, events, &schedule);
        check_conservation(&engine, capacity);
    }

    /// Layer 2: the state after `p` events is a pure function of the
    /// construction inputs — chunked, resumed, and from-scratch runs of
    /// the same prefix are byte-identical, and the continuation beyond
    /// the prefix is too.
    #[test]
    fn replaying_any_event_prefix_is_byte_identical(
        seed in 0u64..1 << 48,
        n in 1usize..40,
        p in 0u64..200,
        q in 0u64..200,
        d in 1usize..4,
        capacity in capacities(),
        life in lives(),
        retries in 0u32..3,
        schedule in schedules(400, 40),
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0xBEEF);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let schedule: FailSchedule =
            schedule.into_iter().filter(|&(_, s)| s < n).collect();
        let config = ServeConfig { strategy: Strategy::d_choice(d), capacity, life, retries };

        // One-shot run of the full p + q stream.
        let mut oneshot = ServeEngine::new(space.clone(), config, root);
        run_with_failures(&mut oneshot, p + q, &schedule);

        // Chunked run: pause at p (snapshot), then resume through q.
        let mut chunked = ServeEngine::new(space.clone(), config, root);
        run_with_failures(&mut chunked, p, &schedule);
        let at_p = chunked.state();

        // From-scratch replay of just the prefix.
        let mut replay = ServeEngine::new(space, config, root);
        run_with_failures(&mut replay, p, &schedule);
        prop_assert_eq!(replay.state(), at_p, "prefix replay diverged");

        run_with_failures(&mut chunked, q, &schedule);
        prop_assert_eq!(chunked.state(), oneshot.state(), "resume diverged");
    }

    /// Layer 3: the block-batched engine is byte-identical to the
    /// event-sequential reference at every checkpoint of the run.
    #[test]
    fn engine_matches_event_sequential_reference(
        seed in 0u64..1 << 48,
        n in 1usize..40,
        events in 0u64..300,
        d in 1usize..4,
        capacity in capacities(),
        life in lives(),
        retries in 0u32..3,
        schedule in schedules(300, 40),
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0xFACE);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let schedule: FailSchedule =
            schedule.into_iter().filter(|&(_, s)| s < n).collect();
        let config = ServeConfig { strategy: Strategy::d_choice(d), capacity, life, retries };
        let mut engine = ServeEngine::new(space.clone(), config, root);
        let mut reference = Reference::new(n, config, root);
        for t in 0..events {
            for &(when, server) in &schedule {
                if when == t {
                    engine.fail_server(server);
                    reference.fail_server(server);
                }
            }
            engine.step();
            reference.step(&space);
            // Checkpoints straddling block boundaries, plus the end.
            if t % 63 == 0 || t + 1 == events {
                prop_assert_eq!(engine.state(), reference.state(), "event {}", t);
            }
        }
        check_conservation(&engine, capacity);
    }
}

#[test]
fn shed_arrivals_leave_no_trace_in_the_load_state() {
    // A capacity-shed arrival must not change loads or schedule a
    // departure — only the shed counter moves.
    let space = UniformSpace::new(2);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: Some(1),
        life: SessionLife::Fixed(1_000),
        retries: 0,
    };
    let mut engine = ServeEngine::new(space, config, 9);
    let mut sheds = 0u64;
    for _ in 0..64 {
        let before = engine.state();
        if let Placement::ShedCapacity(_) = engine.step() {
            sheds += 1;
            let after = engine.state();
            assert_eq!(after.loads, before.loads);
            assert_eq!(after.departures, before.departures);
        }
    }
    assert_eq!(engine.shed(), sheds);
    assert!(sheds > 0, "2 servers x cap 1 must shed within 64 arrivals");
}
