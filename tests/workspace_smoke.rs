//! Workspace-wiring smoke test: the facade re-exports must resolve, and a
//! tiny end-to-end simulation must run deterministically from a fixed
//! seed. This is the test that breaks first if a manifest, re-export, or
//! module path is miswired.

use two_choices::core::sim::run_trial;
use two_choices::core::space::{RingSpace, Space};
use two_choices::core::strategy::Strategy;
use two_choices::util::rng::{StreamSeeder, Xoshiro256pp};

/// Every facade module must resolve to its member crate, and the paths the
/// README advertises must keep compiling.
#[test]
fn facade_reexports_resolve() {
    let _ = two_choices::util::rng::Xoshiro256pp::from_u64(0);
    let _ = two_choices::ring::RingPoint::new(0.25);
    let _ = two_choices::torus::KdPoint::new([0.25, 0.75]);
    let _ = two_choices::core::strategy::Strategy::two_choice();
    let _ = two_choices::dht::id::NodeId(42);
}

/// A miniature version of the crate-level doctest: two choices beats one
/// choice on a random ring, end to end, from one fixed seed.
#[test]
fn end_to_end_ring_simulation_is_deterministic() {
    let run = || {
        let mut rng = Xoshiro256pp::from_u64(1234);
        let n = 512;
        let space = RingSpace::random(n, &mut rng);
        let one = run_trial(&space, &Strategy::one_choice(), n, &mut rng);
        let two = run_trial(&space, &Strategy::two_choice(), n, &mut rng);
        (one, two)
    };
    let (one_a, two_a) = run();
    let (one_b, two_b) = run();

    // Deterministic: identical seeds give bit-identical trial results.
    assert_eq!(one_a, one_b);
    assert_eq!(two_a, two_b);

    // Sound: balls are conserved and the paper's headline ordering holds.
    assert_eq!(one_a.total_balls(), 512);
    assert_eq!(two_a.total_balls(), 512);
    assert!(
        two_a.max_load <= one_a.max_load,
        "two-choice max load {} exceeded one-choice {}",
        two_a.max_load,
        one_a.max_load
    );
}

/// The parallel trial runner must agree with a sequential run of the same
/// seeded trials — scheduling must never leak into results.
#[test]
fn parallel_trials_match_sequential() {
    let seeder = StreamSeeder::new(7);
    let trial = |rng: &mut Xoshiro256pp| {
        let space = RingSpace::random(128, rng);
        debug_assert_eq!(space.num_servers(), 128);
        run_trial(&space, &Strategy::two_choice(), 128, rng).max_load
    };
    let sequential: Vec<u32> = (0..16).map(|t| trial(&mut seeder.stream(t))).collect();
    let parallel = two_choices::util::parallel::run_trials(&seeder, 16, 4, trial);
    assert_eq!(sequential, parallel);
}
