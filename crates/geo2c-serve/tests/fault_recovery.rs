//! Chaos property suite for the resilience layer: arbitrary fault
//! schedules (crashes, recoveries, region outages) interleaved with the
//! event stream must preserve the engine's exact contracts.
//!
//! Four pinned properties:
//!
//! 1. **Fault-schedule prefix replay.** The state after `p` events under
//!    a [`FaultPlan`] is a pure function of `(space, config, root,
//!    plan)`: one-shot, chunked, and from-scratch runs agree
//!    byte-identically.
//! 2. **Conservation under fail/recover churn.** live = arrivals −
//!    departed − shed − evicted after any schedule, the departure heap
//!    holds exactly one entry per in-service session (the session-map
//!    leak guard), and every entry references a live server.
//! 3. **Recovery restores availability.** Once a region outage heals,
//!    unavailability sheds stop: the post-recovery shed rate returns to
//!    the no-fault baseline.
//! 4. **Checkpoint/restore ≡ uninterrupted.** An engine restored from
//!    [`ServeEngine::state`] — onto the flat or a packed backing —
//!    continues byte-identically to one that never stopped.

use geo2c_core::load::PackedLoads;
use geo2c_core::space::{RingSpace, UniformSpace};
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::{Placement, ServeConfig, ServeEngine, SessionLife};
use geo2c_serve::fault::{FaultAction, FaultPlan};
use geo2c_serve::wheel::HeapQueue;
use geo2c_util::rng::Xoshiro256pp;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use rand::RngCore;

/// `(kind, ttl, mean)` → a [`SessionLife`] (the shim proptest has no
/// `prop_oneof!`, so variant selection is an explicit generated flag).
fn lives() -> impl proptest::strategy::Strategy<Value = SessionLife> {
    (0u8..2, 1u64..120, 0.5f64..120.0).prop_map(|(kind, ttl, mean)| {
        if kind == 0 {
            SessionLife::Fixed(ttl)
        } else {
            SessionLife::Exponential { mean }
        }
    })
}

/// `0..=10`, with the top value standing in for "unbounded".
fn capacities() -> impl proptest::strategy::Strategy<Value = Option<u32>> {
    (0u32..11).prop_map(|cap| if cap == 10 { None } else { Some(cap) })
}

/// Raw `(event, server, kind)` triples → a [`FaultPlan`] over `n`
/// servers (out-of-range victims dropped, `kind == 1` recovers).
fn plan_from(raw: &[(u64, usize, u8)], n: usize) -> FaultPlan {
    FaultPlan::new(
        raw.iter()
            .filter(|&&(_, s, _)| s < n)
            .map(|&(at, s, kind)| {
                let action = if kind == 1 {
                    FaultAction::Recover(s)
                } else {
                    FaultAction::Crash(s)
                };
                (at, action)
            })
            .collect(),
    )
}

fn check_books<S: geo2c_core::space::Space, L: geo2c_core::load::LoadState>(
    engine: &ServeEngine<S, L>,
    capacity: Option<u32>,
) {
    let live_total: u64 = engine.live_loads().map(u64::from).sum();
    assert_eq!(
        live_total,
        engine.arrivals() - engine.departed() - engine.shed() - engine.evicted(),
        "conservation under churn"
    );
    assert_eq!(
        engine.shed(),
        engine.shed_capacity() + engine.shed_unavailable()
    );
    if let Some(cap) = capacity {
        assert!(engine.live_loads().all(|l| l <= cap));
    }
    let state = engine.state();
    // The leak guard: exactly one heap entry per in-service session,
    // every one of them on a live server.
    assert_eq!(state.departures.len() as u64, engine.in_service());
    for &(_, server) in &state.departures {
        assert!(!engine.is_failed(server as usize), "entry on failed server");
    }
}

proptest! {
    /// Property 1: prefix replay under arbitrary fault schedules.
    #[test]
    fn fault_schedule_prefix_replay_is_byte_identical(
        seed in 0u64..1 << 48,
        n in 1usize..40,
        p in 0u64..200,
        q in 0u64..200,
        d in 1usize..4,
        capacity in capacities(),
        life in lives(),
        retries in 0u32..3,
        raw_plan in proptest::collection::vec((0u64..400, 0usize..40, 0u8..2), 0..10),
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0xFA17);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let plan = plan_from(&raw_plan, n);
        let config = ServeConfig { strategy: Strategy::d_choice(d), capacity, life, retries };

        let mut oneshot = ServeEngine::new(space.clone(), config, root);
        oneshot.run_with_faults(p + q, &plan);

        let mut chunked = ServeEngine::new(space.clone(), config, root);
        chunked.run_with_faults(p, &plan);
        let at_p = chunked.state();

        let mut replay = ServeEngine::new(space, config, root);
        replay.run_with_faults(p, &plan);
        prop_assert_eq!(replay.state(), at_p, "prefix replay diverged");

        chunked.run_with_faults(q, &plan);
        prop_assert_eq!(chunked.state(), oneshot.state(), "resume diverged");
    }

    /// Property 2: conservation + the session-map leak guard after any
    /// crash/recover schedule, randomized plans included.
    #[test]
    fn arrivals_are_conserved_under_fail_recover_churn(
        seed in 0u64..1 << 48,
        n in 1usize..48,
        events in 0u64..400,
        d in 1usize..4,
        capacity in capacities(),
        life in lives(),
        retries in 0u32..3,
        faults in 0usize..8,
        mean_downtime in 1u64..80,
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0xC4A5);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let plan = FaultPlan::random_churn(root ^ 0xD0, n, events.max(1), faults, mean_downtime);
        let config = ServeConfig { strategy: Strategy::d_choice(d), capacity, life, retries };
        let mut engine = ServeEngine::new(space, config, root);
        engine.run_with_faults(events, &plan);
        check_books(&engine, capacity);
    }

    /// Property 4: checkpoint at an arbitrary cut under an arbitrary
    /// fault schedule, restore onto flat and packed backings, continue —
    /// all three agree with the engine that never stopped.
    #[test]
    fn checkpoint_restore_equals_uninterrupted_run(
        seed in 0u64..1 << 48,
        n in 1usize..32,
        p in 0u64..200,
        q in 0u64..200,
        d in 1usize..4,
        capacity in capacities(),
        life in lives(),
        retries in 0u32..3,
        raw_plan in proptest::collection::vec((0u64..400, 0usize..32, 0u8..2), 0..8),
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0xC8EC);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let plan = plan_from(&raw_plan, n);
        let config = ServeConfig { strategy: Strategy::d_choice(d), capacity, life, retries };

        let mut uninterrupted = ServeEngine::new(space.clone(), config, root);
        uninterrupted.run_with_faults(p + q, &plan);

        let mut first = ServeEngine::new(space.clone(), config, root);
        first.run_with_faults(p, &plan);
        let checkpoint = first.state();

        let mut flat: ServeEngine<_> = ServeEngine::restore_with_scheduler(
            space.clone(), config, root, &checkpoint, vec![0; n]);
        prop_assert_eq!(flat.state(), checkpoint.clone(), "restore must be lossless");
        flat.run_with_faults(q, &plan);
        prop_assert_eq!(flat.state(), uninterrupted.state(), "flat resume diverged");

        let mut packed: ServeEngine<_, PackedLoads> = ServeEngine::restore_with_scheduler(
            space.clone(), config, root, &checkpoint, PackedLoads::byte(n));
        prop_assert_eq!(packed.state(), checkpoint.clone(), "packed restore must be lossless");
        packed.run_with_faults(q, &plan);
        prop_assert_eq!(packed.state(), uninterrupted.state(), "packed resume diverged");

        // The wheel path is not special: restoring onto the heap-backed
        // scheduler resumes the same bytes (same check the wheel_oracle
        // suite makes from the queue side).
        let mut on_heap = ServeEngine::<_, Vec<u32>, HeapQueue>::restore_with_scheduler(
            space, config, root, &checkpoint, vec![0; n]);
        prop_assert_eq!(on_heap.state(), checkpoint, "heap restore must be lossless");
        on_heap.run_with_faults(q, &plan);
        prop_assert_eq!(on_heap.state(), uninterrupted.state(), "heap resume diverged");
    }
}

/// Property 3, deterministically: a region outage sheds while it lasts,
/// and healing it returns the shed rate to the no-fault baseline (zero,
/// with unbounded capacity) — new sheds stop the moment the region is
/// back.
#[test]
fn recovery_restores_availability_after_a_region_outage() {
    let mut rng = Xoshiro256pp::from_u64(31);
    let n = 64;
    let space = RingSpace::random(n, &mut rng);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: None,
        life: SessionLife::Exponential { mean: 128.0 },
        retries: 0,
    };
    // Crash half the ring (a contiguous arc: positions are sorted at
    // construction) at event 512, recover it at 1024.
    let plan = FaultPlan::region_outage(n, n / 4, n / 2, 512, Some(1024));
    let mut engine = ServeEngine::new(space, config, rng.next_u64());

    engine.run_with_faults(512, &plan);
    assert_eq!(engine.shed(), 0, "healthy phase never sheds (no capacity)");

    engine.run_with_faults(512, &plan);
    let outage_sheds = engine.shed();
    assert!(
        outage_sheds > 0,
        "half the ring down must shed d=2 arrivals"
    );
    assert_eq!(
        engine.shed_unavailable(),
        outage_sheds,
        "all unavailability"
    );

    engine.run_with_faults(1024, &plan);
    assert_eq!(
        engine.shed(),
        outage_sheds,
        "post-recovery shedding returns to the zero baseline"
    );
    assert_eq!(engine.load_stats().live_servers, n);
}

/// A retry budget beats none during the outage: same stream, same
/// faults, r = 2 shed strictly fewer arrivals than r = 0 and rescues
/// them on recorded retry attempts.
#[test]
fn retry_budget_reduces_outage_sheds_on_the_same_stream() {
    let mut rng = Xoshiro256pp::from_u64(47);
    let n = 64;
    let space = RingSpace::random(n, &mut rng);
    let root = rng.next_u64();
    let plan = FaultPlan::region_outage(n, 0, n / 2, 0, None);
    let shed_with = |retries: u32| {
        let config = ServeConfig {
            strategy: Strategy::two_choice(),
            capacity: None,
            life: SessionLife::Exponential { mean: 64.0 },
            retries,
        };
        let mut engine = ServeEngine::new(space.clone(), config, root);
        engine.run_with_faults(2048, &plan);
        (engine.shed(), engine.admitted_on_retry())
    };
    let (shed_r0, rescued_r0) = shed_with(0);
    let (shed_r2, rescued_r2) = shed_with(2);
    assert_eq!(rescued_r0, 0);
    assert!(rescued_r2 > 0, "retries must rescue during the outage");
    assert!(
        shed_r2 < shed_r0,
        "r=2 ({shed_r2}) must shed fewer than r=0 ({shed_r0})"
    );
}

/// Satellite guard: repeated fail/recover churn on the same servers must
/// not accumulate heap entries — the heap size equals the in-service
/// session count at every checkpoint, bounded by capacity × n forever.
#[test]
fn departure_heap_stays_bounded_under_repeated_fail_recover_churn() {
    let n = 16;
    let cap = 4;
    let space = UniformSpace::new(n);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: Some(cap),
        life: SessionLife::Fixed(10_000), // sessions outlive every cycle
        retries: 1,
    };
    let mut engine = ServeEngine::new(space, config, 13);
    for cycle in 0..200 {
        let victim = cycle % n;
        engine.run(32);
        engine.fail_server(victim);
        engine.recover_server(victim);
        let state = engine.state();
        assert_eq!(
            state.departures.len() as u64,
            engine.in_service(),
            "cycle {cycle}: heap must hold exactly the in-service sessions"
        );
        assert!(
            state.departures.len() as u64 <= u64::from(cap) * n as u64,
            "cycle {cycle}: heap exceeded the capacity bound"
        );
    }
    assert!(engine.evicted() > 0, "cycles must evict in-flight sessions");
}

/// Restoring onto a packed backing and mid-heap timestamps: a session
/// admitted before the checkpoint departs on schedule after restore.
#[test]
fn restored_sessions_depart_on_their_original_schedule() {
    let space = UniformSpace::new(4);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: None,
        life: SessionLife::Fixed(7),
        retries: 0,
    };
    let mut engine = ServeEngine::new(space, config, 3);
    engine.run(5);
    let checkpoint = engine.state();
    assert_eq!(checkpoint.departures.len(), 5);
    let mut resumed: ServeEngine<_, PackedLoads> = ServeEngine::restore_with_scheduler(
        UniformSpace::new(4),
        config,
        3,
        &checkpoint,
        PackedLoads::nibble(4),
    );
    // Events 5..12: the five held sessions depart at events 7..11.
    for _ in 0..7 {
        assert!(matches!(resumed.step(), Placement::Admitted(_)));
    }
    assert_eq!(resumed.departed(), 5);
    engine.run(7);
    assert_eq!(resumed.state(), engine.state());
}
