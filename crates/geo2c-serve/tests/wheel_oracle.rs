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
//!    server counts that are not powers of two. The sliced gather is
//!    pinned the same way: marked at a random point of a script, carried
//!    through schedules, drains across cascades, repeated purges of one
//!    server, node reuse, and slices of any budget, it must gather
//!    exactly the heap's entries at the mark. So must a chain of marks
//!    on one wheel, each image gathering only what was filed since the
//!    previous one and merging the rest from it. One arm runs at the
//!    engine's scale, where each level-1 slot fills all eight of its
//!    interleaved lists: ~2^14 sessions in flight through 128 level-1
//!    cascades, the overflow re-filing into itself, random purges, and
//!    sliced gathers that straddle a cascade.
//! 2. **Engine-level.** A [`ServeEngine`] running on the wheel and one
//!    running on the heap, fed the same root and fault plan, must
//!    produce byte-identical [`ServeEngine::state`] checkpoints at
//!    arbitrary cuts — the whole-system restatement of (1), covering
//!    the drain/schedule/purge call sites the engine actually uses.

use geo2c_core::space::RingSpace;
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::{ServeConfig, ServeEngine, SessionLife};
use geo2c_serve::fault::{FaultAction, FaultPlan};
use geo2c_serve::wheel::{DepartureKeys, DepartureQueue, DepartureWheel, HeapQueue};
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

    /// A sliced gather marked anywhere in a lockstep script gathers
    /// exactly the heap's entries at the mark, however the script goes
    /// on between its slices: schedules that reuse drained nodes or grow
    /// the arena, drains across level-1 cascades, repeated purges of one
    /// victim server and purges of any other, and slices of 1 unit up to
    /// unbounded. The wheel and the heap still agree after it.
    #[test]
    fn sliced_gather_matches_the_heap_at_its_mark(
        n in 1usize..12,
        origin in 0u64..2_000_000,
        victim in 0usize..12,
        before in proptest::collection::vec((0u8..5, 0u64..2_200_000, 0usize..12), 0..40),
        after in proptest::collection::vec((0u8..10, 0u64..2_200_000, 0usize..12), 1..60),
    ) {
        let mut wheel = DepartureWheel::with_origin(n, origin);
        let mut heap = HeapQueue::with_origin(n, origin);
        let mut now = origin;
        // Runs one schedule, drain or purge on both queues.
        let mut step = |wheel: &mut DepartureWheel, heap: &mut HeapQueue, kind: u8, a: u64, server: u32| {
            match kind {
                0 | 1 => {
                    let delta = if kind == 0 { a % 4096 } else { a };
                    wheel.schedule(now + delta, server);
                    heap.schedule(now + delta, server);
                }
                2 | 3 => {
                    let t = now + a % if kind == 2 { 600 } else { 5000 };
                    drain_both(wheel, heap, t);
                    now = t + 1;
                }
                _ => assert_eq!(wheel.purge_server(server), heap.purge_server(server)),
            }
        };
        for &(kind, a, b) in &before {
            step(&mut wheel, &mut heap, kind, a, (b % n) as u32);
        }
        let expected = heap.entries();
        let mut keys = DepartureKeys::default();
        wheel.begin_gather(&mut keys);
        let mut done = false;
        for &(kind, a, b) in &after {
            match kind {
                // A slice of 1 to 64 units, or unbounded.
                0..=2 => {
                    let mut budget = if kind == 2 { usize::MAX } else { 1 + a as usize % 64 };
                    done = done || wheel.gather_some(&mut keys, &mut budget);
                }
                // The victim is purged again and again.
                3 => step(&mut wheel, &mut heap, 4, a, (victim % n) as u32),
                _ => step(&mut wheel, &mut heap, kind - 4, a, (b % n) as u32),
            }
        }
        while !done {
            done = wheel.gather_some(&mut keys, &mut 1);
        }
        keys.sort();
        let gathered: Vec<_> = keys.sorted_from(0).collect();
        prop_assert_eq!(gathered, expected, "gathered keys differ from the image at the mark");
        prop_assert_eq!(wheel.len(), heap.len());
        prop_assert_eq!(wheel.entries(), heap.entries(), "entry image diverged after the walk");
    }

    /// A chain of three to five marks on one wheel and one set of keys,
    /// so that every image after the first gathers only the entries
    /// filed since the previous mark and merges the rest from the
    /// previous image: at every mark the merged keys are the heap's
    /// entries at that mark. Between the marks and during the sliced
    /// walks run schedules that reuse drained nodes or grow the arena,
    /// drains across level-1 cascades, purges of any server and repeated
    /// purges of one victim server (before a mark and after it), and
    /// slices of 1 unit up to unbounded.
    #[test]
    fn chained_gathers_match_the_heap_at_every_mark(
        n in 1usize..12,
        origin in 0u64..2_000_000,
        victim in 0usize..12,
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..6, 0u64..2_200_000, 0usize..12), 0..25),
                proptest::collection::vec((0u8..10, 0u64..2_200_000, 0usize..12), 1..25),
            ),
            3..6,
        ),
    ) {
        let mut wheel = DepartureWheel::with_origin(n, origin);
        let mut heap = HeapQueue::with_origin(n, origin);
        let mut now = origin;
        let victim = (victim % n) as u32;
        // Runs one schedule, drain or purge on both queues: kinds 0–1
        // schedule, 2–3 drain, 4 purges the victim, 5 any server.
        let mut step = |wheel: &mut DepartureWheel, heap: &mut HeapQueue, kind: u8, a: u64, b: usize| {
            let server = if kind == 4 { victim } else { (b % n) as u32 };
            match kind {
                0 | 1 => {
                    let delta = if kind == 0 { a % 4096 } else { a };
                    wheel.schedule(now + delta, server);
                    heap.schedule(now + delta, server);
                }
                2 | 3 => {
                    let t = now + a % if kind == 2 { 600 } else { 5000 };
                    drain_both(wheel, heap, t);
                    now = t + 1;
                }
                _ => assert_eq!(wheel.purge_server(server), heap.purge_server(server)),
            }
        };
        let mut keys = DepartureKeys::default();
        for (mark, (between, during)) in rounds.iter().enumerate() {
            for &(kind, a, b) in between {
                step(&mut wheel, &mut heap, kind, a, b);
            }
            let expected = heap.entries();
            wheel.begin_gather(&mut keys);
            let mut done = false;
            for &(kind, a, b) in during {
                match kind {
                    // A slice of 1 to 64 units, or unbounded.
                    0..=3 => {
                        let mut budget = if kind == 3 { usize::MAX } else { 1 + a as usize % 64 };
                        done = done || wheel.gather_some(&mut keys, &mut budget);
                    }
                    _ => step(&mut wheel, &mut heap, kind - 4, a, b),
                }
            }
            while !done {
                done = wheel.gather_some(&mut keys, &mut 1);
            }
            keys.sort();
            let merged: Vec<_> = keys.sorted_from(0).collect();
            prop_assert_eq!(merged, expected, "mark {} differs from the heap at the mark", mark);
            prop_assert_eq!(wheel.entries(), heap.entries(), "entry image diverged after mark {}", mark);
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

/// The wheel at the engine's scale, where a level-1 slot holds hundreds
/// of nodes on each of its interleaved lists: one session an event on
/// 2^10 servers with exponential lives of mean 2^14 (about 2^14 in
/// flight), through 2^17 events and so 128 level-1 cascades, with a few
/// sessions filed 2^21 and more ahead that the overflow cascade at the
/// next multiple of 2^20 re-files into the overflow. A random server is
/// purged every 509 events. Every 4096 events a sliced gather is marked
/// a few events before a level-1 cascade and finished after it, building
/// on the previous mark's image. Against the heap: every drain's
/// multiset, every purge's count and `len` after every event, the
/// gathered image at each mark, and the entry image at each mark and at
/// the end; then a drain to the last deadline delivers the rest.
#[test]
fn wheel_matches_heap_at_scale_through_many_cascades() {
    const SERVERS: usize = 1 << 10;
    const MEAN_LIFE: f64 = (1u64 << 14) as f64;
    const EVENTS: u64 = 1 << 17;
    const OVERFLOW_SPAN: u64 = 1 << 20;
    for seed in [1u64, 2] {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x5CA1E);
        // The run crosses a multiple of 2^20 after 2^16 events.
        let origin = (3 + seed) * OVERFLOW_SPAN - (1 << 16);
        let mut wheel = DepartureWheel::with_origin(SERVERS, origin);
        let mut heap = HeapQueue::with_origin(SERVERS, origin);
        let mut keys = DepartureKeys::default();
        let mut marked: Option<Vec<(u64, u32)>> = None;
        let (mut marks, mut far) = (0, 0);
        for t in origin..origin + EVENTS {
            let raw = rng.next_u64();
            let server = (raw % SERVERS as u64) as u32;
            let u = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            let life = (-u.ln() * MEAN_LIFE).ceil() as u64;
            wheel.schedule(t + life, server);
            heap.schedule(t + life, server);
            if raw >> 54 == 0 {
                // About one event in 1024, before the overflow boundary
                // and after it: a session 2^21 to 2^22 events ahead.
                let when = t + (1 << 21) + (rng.next_u64() >> 42);
                wheel.schedule(when, server);
                heap.schedule(when, server);
                far += 1;
            }
            if (t - origin) % 509 == 0 {
                let victim = (rng.next_u64() % SERVERS as u64) as u32;
                assert_eq!(wheel.purge_server(victim), heap.purge_server(victim));
            }
            if t % 4096 == 4096 - 5 {
                marked = Some(heap.entries());
                wheel.begin_gather(&mut keys);
            }
            if let Some(expected) = &marked {
                // Slices of 1024 units take tens of events, so the
                // gather runs across the cascade at the next 4096.
                if wheel.gather_some(&mut keys, &mut 1024) {
                    keys.sort();
                    assert!(
                        keys.sorted_from(0).eq(expected.iter().copied()),
                        "seed {seed}: the image gathered from t={t} differs from the heap at its mark"
                    );
                    assert!(t % 4096 > 0 && t % 4096 < 512, "finished after the cascade");
                    assert_eq!(wheel.entries(), heap.entries(), "seed {seed}, t={t}");
                    marked = None;
                    marks += 1;
                }
            }
            drain_both(&mut wheel, &mut heap, t);
            assert_eq!(wheel.len(), heap.len(), "seed {seed}, t={t}");
        }
        assert!(
            marks >= 30 && far >= 64,
            "seed {seed}: {marks} marks, {far} far"
        );
        assert!(
            wheel.len() >= 1 << 13,
            "seed {seed}: {} in flight",
            wheel.len()
        );
        let image = wheel.entries();
        assert_eq!(image, heap.entries(), "seed {seed}: at the end");
        let horizon = image.last().map_or(0, |&(when, _)| when);
        assert_eq!(drain_both(&mut wheel, &mut heap, horizon), image.len());
        assert!(wheel.is_empty() && heap.is_empty());
    }
}
