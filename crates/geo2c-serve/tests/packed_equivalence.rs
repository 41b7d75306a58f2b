//! Property tests pinning [`ServeEngine`] on a packed [`LoadState`]
//! backing to the flat `Vec<u32>` engine — byte-identical on the same
//! event stream, mirroring `tests/steady_state.rs` for the backing axis.
//!
//! Three guarantees per generated scenario:
//!
//! 1. **Step-for-step equality.** The packed and flat engines return the
//!    same [`Placement`] for every event and the same [`EngineState`]
//!    (via `to_vec`) at every checkpoint — prefix replay included, since
//!    state equality at event `t` *is* the replay contract.
//! 2. **Conservation on the packed path.** live = arrivals − departed −
//!    shed − evicted, with every live load under the admission capacity.
//! 3. **`FAILED_LOAD` exclusion.** Failed servers carry the
//!    [`FAILED_LOAD`] sentinel (spilled, in a packed backing) yet never appear in
//!    `live_loads()` and always lose the least-loaded comparison to any
//!    live probe.

use geo2c_core::load::{LoadState, PackedLoads};
use geo2c_core::space::{RingSpace, Space, UniformSpace};
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::{Placement, ServeConfig, ServeEngine, SessionLife, FAILED_LOAD};
use geo2c_util::rng::Xoshiro256pp;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use rand::RngCore;

/// `(event, server, recover)`: fail — or, when `recover` is set,
/// recover — `server` just before `event` is processed. Recover entries
/// on live servers are no-ops, which the generator exploits freely.
type FailSchedule = Vec<(u64, usize, bool)>;

/// `(kind, ttl, mean)` → a [`SessionLife`] (the shim proptest has no
/// `prop_oneof!`, so variant selection is an explicit generated flag).
fn lives() -> impl proptest::strategy::Strategy<Value = SessionLife> {
    (0u8..2, 1u64..60, 0.5f64..80.0).prop_map(|(kind, ttl, mean)| {
        if kind == 0 {
            SessionLife::Fixed(ttl)
        } else {
            SessionLife::Exponential { mean }
        }
    })
}

/// `0..=8`, with the top value standing in for "unbounded". Small caps
/// keep loads near the nibble cap's neighbourhood under long lifetimes.
fn capacities() -> impl proptest::strategy::Strategy<Value = Option<u32>> {
    (0u32..9).prop_map(|cap| if cap == 8 { None } else { Some(cap) })
}

fn check_conservation<S: Space, L: LoadState>(engine: &ServeEngine<S, L>, capacity: Option<u32>) {
    let live_total: u64 = engine.live_loads().map(u64::from).sum();
    assert_eq!(
        live_total,
        engine.arrivals() - engine.departed() - engine.shed() - engine.evicted(),
        "conservation on the packed path"
    );
    assert_eq!(engine.in_service(), live_total);
    if let Some(cap) = capacity {
        assert!(engine.live_loads().all(|l| l <= cap));
    }
}

/// Locksteps a packed-backing engine against the flat reference engine
/// over one generated scenario: same placements, same states, same
/// failure handling.
fn check_backing<S: Space + Clone, L: LoadState>(
    space: &S,
    config: ServeConfig,
    root: u64,
    events: u64,
    schedule: &FailSchedule,
    loads: L,
    name: &str,
) {
    let mut flat = ServeEngine::new(space.clone(), config, root);
    let mut packed: ServeEngine<S, L> =
        ServeEngine::with_scheduler(space.clone(), config, root, loads);
    for t in 0..events {
        for &(when, server, recover) in schedule {
            if when == t {
                if recover {
                    flat.recover_server(server);
                    packed.recover_server(server);
                } else {
                    flat.fail_server(server);
                    packed.fail_server(server);
                }
            }
        }
        let a = flat.step();
        let b = packed.step();
        assert_eq!(a, b, "{name}: placement diverged at event {t}");
        // A failed destination must never admit, however it is stored.
        if let Placement::Admitted(dest) = b {
            assert!(!packed.is_failed(dest), "{name}: admitted to failed");
        }
        if t % 63 == 0 || t + 1 == events {
            assert_eq!(
                packed.state(),
                flat.state(),
                "{name}: state diverged at event {t}"
            );
        }
    }
    assert_eq!(packed.state(), flat.state(), "{name}: final state");
    check_conservation(&packed, config.capacity);
    // Sentinel exclusion: failed servers are spilled at FAILED_LOAD in
    // the packed backing but never surface as live loads.
    let n = space.num_servers();
    let image = packed.state().loads;
    for (s, &load) in image.iter().enumerate() {
        if packed.is_failed(s) {
            assert_eq!(load, FAILED_LOAD, "{name}: failed sentinel");
        }
    }
    assert_eq!(
        packed.live_loads().count(),
        (0..n).filter(|&s| !packed.is_failed(s)).count(),
        "{name}: live_loads must exclude exactly the failed servers"
    );
    assert!(packed.live_loads().all(|l| l < FAILED_LOAD));
}

proptest! {
    #[test]
    fn packed_engines_replay_the_flat_engine(
        seed in 0u64..1 << 48,
        n in 1usize..40,
        events in 0u64..300,
        d in 1usize..4,
        capacity in capacities(),
        life in lives(),
        retries in 0u32..3,
        schedule in proptest::collection::vec((0u64..300, 0usize..40, 0u8..2), 0..6),
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x9ACC);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let schedule: FailSchedule = schedule
            .into_iter()
            .filter(|&(_, s, _)| s < n)
            .map(|(when, s, kind)| (when, s, kind == 1))
            .collect();
        let config = ServeConfig { strategy: Strategy::d_choice(d), capacity, life, retries };
        check_backing(&space, config, root, events, &schedule,
            PackedLoads::nibble(n), "packed-nibble");
        check_backing(&space, config, root, events, &schedule,
            PackedLoads::byte(n), "packed-byte");
    }

    /// Unbounded capacity + long lifetimes on a tiny space: live loads
    /// climb past the nibble cap, so departures decrement *spilled*
    /// bins (the un-spill path) while the stream stays byte-identical.
    #[test]
    fn saturated_live_loads_still_replay(
        seed in 0u64..1 << 48,
        n in 1usize..4,
        events in 100u64..400,
        life in lives(),
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x5A7F);
        let space = UniformSpace::new(n);
        let root = rng.next_u64();
        let config = ServeConfig {
            strategy: Strategy::two_choice(),
            capacity: None,
            life,
            retries: 0,
        };
        check_backing(&space, config, root, events, &Vec::new(),
            PackedLoads::nibble(n), "packed-nibble");
    }
}
