//! The wheel-vs-heap oracle suite: [`DepartureWheel`] must be
//! observationally equal to the [`HeapQueue`] it replaced, under
//! arbitrary interleavings of every operation the engine performs.
//!
//! Two layers:
//!
//! 1. **Queue-level.** A generated op script (schedule at arbitrary
//!    deltas spanning every wheel level and the overflow, range drains,
//!    lazy purges, checkpoint/reincarnate round-trips) drives both
//!    implementations in lockstep; after every op they must agree on
//!    `len` and the sorted [`DepartureQueue::entries`] image, and every
//!    drain must deliver the same server multiset. (Within one deadline
//!    the order may differ — LIFO slot lists vs heap order — which is
//!    exactly the commuting-departures contract the engine relies on.)
//!    Further scripts pin the wheel's packed-key sort where it is
//!    fragile: offsets up to the end of the clock, and offsets on either
//!    side of the widest one that packs beside the server bits, for
//!    server counts that are not powers of two.
//! 2. **Engine-level.** A [`ServeEngine`] running on the wheel and one
//!    running on the heap, fed the same root and fault plan, must
//!    produce byte-identical [`ServeEngine::state`] checkpoints at
//!    arbitrary cuts — the whole-system restatement of (1), covering
//!    the drain/schedule/purge call sites the engine actually uses.

use geo2c_core::space::RingSpace;
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::{ServeConfig, ServeEngine, SessionLife};
use geo2c_serve::fault::{FaultAction, FaultPlan};
use geo2c_serve::wheel::{DepartureQueue, DepartureWheel, HeapQueue};
use geo2c_util::rng::Xoshiro256pp;
use proptest::prelude::*;
use rand::RngCore;

/// Drains `(..=t]` from both queues and checks the multisets match;
/// returns how many entries were delivered.
fn drain_both(wheel: &mut DepartureWheel, heap: &mut HeapQueue, t: u64) -> usize {
    let mut from_wheel = Vec::new();
    let mut from_heap = Vec::new();
    wheel.drain_due(t, |s| from_wheel.push(s));
    heap.drain_due(t, |s| from_heap.push(s));
    from_wheel.sort_unstable();
    from_heap.sort_unstable();
    assert_eq!(from_wheel, from_heap, "drain multiset diverged at t={t}");
    from_wheel.len()
}

proptest! {
    /// Queue-level lockstep: schedules (short, mid, cross-level, and
    /// overflow deltas), drains, lazy purges, and checkpoint
    /// reincarnations, in any order, leave wheel and heap agreeing on
    /// every observable.
    #[test]
    fn wheel_matches_heap_on_arbitrary_op_scripts(
        n in 1usize..12,
        origin in 0u64..2_000_000,
        ops in proptest::collection::vec(
            (0u8..8, 0u64..2_200_000, 0usize..12),
            1..40,
        ),
    ) {
        let mut wheel = DepartureWheel::with_origin(n, origin);
        let mut heap = HeapQueue::with_origin(n, origin);
        let mut now = origin;
        for &(kind, a, b) in &ops {
            let server = (b % n) as u32;
            match kind {
                // Schedules biased toward level 0/1 deltas; kind == 2
                // keeps the raw delta so overflow (≥ 2^20) is reachable.
                0..=2 => {
                    let delta = match kind {
                        0 => a % 64,
                        1 => a % 4096,
                        _ => a,
                    };
                    wheel.schedule(now + delta, server);
                    heap.schedule(now + delta, server);
                }
                // Range drain: both deliver the same multiset.
                3 | 4 => {
                    let t = now + a % 4096;
                    drain_both(&mut wheel, &mut heap, t);
                    now = t + 1;
                }
                // Lazy purge vs eager rebuild: same count.
                5 | 6 => {
                    prop_assert_eq!(
                        wheel.purge_server(server),
                        heap.purge_server(server),
                        "purge count diverged"
                    );
                }
                // Checkpoint/reincarnate: rebuild both from the wheel's
                // entry image, clocks re-keyed to `now` — the restore
                // path of `ServeEngine::restore`.
                _ => {
                    let image = wheel.entries();
                    prop_assert_eq!(&image, &heap.entries());
                    wheel = DepartureWheel::with_origin(n, now);
                    heap = HeapQueue::with_origin(n, now);
                    for &(when, s) in &image {
                        wheel.schedule(when, s);
                        heap.schedule(when, s);
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len(), "len diverged");
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
            prop_assert_eq!(wheel.entries(), heap.entries(), "entry image diverged");
        }
        // Drain everything left: the final multisets must also agree.
        let remaining = wheel.len();
        let horizon = wheel
            .entries()
            .last()
            .map_or(now, |&(when, _)| when);
        prop_assert_eq!(
            drain_both(&mut wheel, &mut heap, horizon),
            remaining,
            "full drain must deliver every live entry"
        );
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }

    /// The wheel's radix-sorted checkpoint image equals the heap's plain
    /// sort at spans the lockstep script never reaches: any origin,
    /// offsets up to `u64::MAX − origin`, runs of shared deadlines,
    /// duplicate pairs and purged servers.
    #[test]
    fn wheel_entries_match_a_plain_sort_at_any_span(
        n in 1usize..40,
        origin_shift in 0u32..64,
        origin_raw in any::<u64>(),
        ops in proptest::collection::vec((any::<u64>(), 0u32..64, 0usize..40, 0u8..16), 0..300),
    ) {
        let origin = origin_raw >> origin_shift;
        let mut wheel = DepartureWheel::with_origin(n, origin);
        let mut heap = HeapQueue::with_origin(n, origin);
        for &(raw, shift, s, kind) in &ops {
            let server = (s % n) as u32;
            if kind == 0 {
                prop_assert_eq!(wheel.purge_server(server), heap.purge_server(server));
            } else {
                let when = origin + (raw >> shift).min(u64::MAX - origin);
                wheel.schedule(when, server);
                heap.schedule(when, server);
            }
        }
        prop_assert_eq!(wheel.entries(), heap.entries());
    }

    /// The sorted visit stays exact at the packing boundary: server
    /// counts that are not powers of two, deadlines on either side of
    /// the widest offset that packs beside the server bits
    /// (`2^(64 − server_bits)`) and at the end of the clock, under
    /// arbitrary schedule/drain/purge interleavings. After every op the
    /// wheel's `for_each_sorted` and `entries` equal the heap's sort.
    #[test]
    fn wheel_visit_matches_heap_past_the_packing_boundary(
        n_pick in 0usize..8,
        origin in 0u64..3_000_000,
        ops in proptest::collection::vec((0u8..10, any::<u64>(), 0usize..70_000), 1..60),
    ) {
        let n = [1, 3, 5, 6, 7, 100, 1000, 65_537][n_pick];
        let server_bits = u64::BITS - ((n - 1) as u64).leading_zeros();
        let widest = u64::MAX >> server_bits;
        let mut wheel = DepartureWheel::with_origin(n, origin);
        let mut heap = HeapQueue::with_origin(n, origin);
        let mut now = origin;
        for &(kind, a, b) in &ops {
            let server = (b % n) as u32;
            let room = u64::MAX - now;
            match kind {
                // Short, cross-level and overflow offsets.
                0 => {
                    let delta = a % (1 << 22);
                    wheel.schedule(now + delta, server);
                    heap.schedule(now + delta, server);
                }
                // Offsets within a few events of the packing boundary,
                // on either side.
                1..=3 => {
                    let delta = (widest - 3).saturating_add(a % 7).min(room);
                    wheel.schedule(now + delta, server);
                    heap.schedule(now + delta, server);
                }
                // Deadlines at the end of the clock.
                4 | 5 => {
                    let delta = room - (a % 4).min(room);
                    wheel.schedule(now + delta, server);
                    heap.schedule(now + delta, server);
                }
                6 | 7 => {
                    let t = now + a % 4096;
                    drain_both(&mut wheel, &mut heap, t);
                    now = t + 1;
                }
                _ => {
                    prop_assert_eq!(wheel.purge_server(server), heap.purge_server(server));
                }
            }
            let expected = heap.entries();
            let mut visited = Vec::new();
            wheel.for_each_sorted(|when, s| visited.push((when, s)));
            prop_assert_eq!(&visited, &expected, "sorted visit diverged");
            prop_assert_eq!(wheel.entries(), expected, "entry image diverged");
        }
    }

    /// Engine-level lockstep: the wheel-backed and heap-backed engines
    /// are byte-identical at every cut of a faulted run — including the
    /// same-deadline batches where their internal drain orders differ.
    #[test]
    fn engine_on_wheel_equals_engine_on_heap(
        seed in 0u64..1 << 48,
        n in 1usize..32,
        p in 0u64..200,
        q in 0u64..200,
        d in 1usize..4,
        life in (0u8..2, 1u64..120, 0.5f64..120.0),
        retries in 0u32..3,
        raw_plan in proptest::collection::vec((0u64..400, 0usize..32, 0u8..2), 0..8),
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x0B5E);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let life = match life {
            (0, ttl, _) => SessionLife::Fixed(ttl),
            (_, _, mean) => SessionLife::Exponential { mean },
        };
        let plan = FaultPlan::new(
            raw_plan
                .iter()
                .filter(|&&(_, s, _)| s < n)
                .map(|&(at, s, kind)| {
                    (at, if kind == 1 { FaultAction::Recover(s) } else { FaultAction::Crash(s) })
                })
                .collect(),
        );
        let config = ServeConfig {
            strategy: Strategy::d_choice(d),
            capacity: None,
            life,
            retries,
        };

        let mut on_wheel = ServeEngine::new(space.clone(), config, root);
        let mut on_heap =
            ServeEngine::<_, Vec<u32>, HeapQueue>::with_scheduler(space, config, root, vec![0; n]);
        on_wheel.run_with_faults(p, &plan);
        on_heap.run_with_faults(p, &plan);
        prop_assert_eq!(on_wheel.state(), on_heap.state(), "diverged at the cut");
        on_wheel.run_with_faults(q, &plan);
        on_heap.run_with_faults(q, &plan);
        prop_assert_eq!(on_wheel.state(), on_heap.state(), "diverged at the end");
    }
}
