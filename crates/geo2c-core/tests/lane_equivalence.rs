//! Property tests pinning the cross-ball batched insertion engine to the
//! un-batched lane-sequential process — **exactly**, not statistically.
//!
//! RNG stream contract v2 makes this equivalence well-defined for every
//! independent-probe strategy, the paper-default random tie-break
//! included: ball `b` draws its `d` probe owners, in order, from its
//! private probe lane (`BallLanes::probe(b)`) and resolves load ties on
//! its private tie lane (`BallLanes::tie(b)`; reservoir sampling, one
//! `gen_range(0..j)` draw per tied candidate beyond the first). The
//! reference below implements that contract directly — its own minimum
//! scan, its own reservoir, no engine code — so any batching bug in
//! `sample_owners_lanes` overrides, `EventOwnerBlocks` block reuse,
//! chunking, or `place_from_loads` shows up as a placement mismatch.
//!
//! Coverage: all spaces (uniform bins, ring arcs, 2-D Voronoi torus,
//! K-torus for K ∈ {1, 2, 3}, and the non-uniform probe mixture) ×
//! d ∈ {1, 2, 3} × every tie policy.

use geo2c_core::nonuniform::{MixRingSpace, RingMix};
use geo2c_core::sim::{run_trial, run_trial_with_lanes};
use geo2c_core::space::{KdTorusSpace, RingSpace, Space, TorusSpace, UniformSpace};
use geo2c_core::strategy::{Strategy, TieBreak};
use geo2c_ring::RingPartition;
use geo2c_util::rng::{BallLanes, LaneSource, Xoshiro256pp};
use proptest::prelude::*;
use rand::{Rng, RngCore};

const TIES: [TieBreak; 5] = [
    TieBreak::Random,
    TieBreak::Leftmost,
    TieBreak::SmallerRegion,
    TieBreak::LargerRegion,
    TieBreak::LowestIndex,
];

/// The contract-v2 lane-sequential reference: one ball at a time, probe
/// owners drawn singly from the ball's probe lane, ties resolved by a
/// from-scratch implementation of each policy on the ball's tie lane.
fn reference_loads<S: Space>(space: &S, d: usize, tie: TieBreak, m: usize, root: u64) -> Vec<u32> {
    let lanes = BallLanes::new(root);
    let mut loads = vec![0u32; space.num_servers()];
    for ball in 0..m as u64 {
        let mut probe = lanes.probe(ball);
        let owners: Vec<usize> = (0..d).map(|_| space.sample_owner(&mut probe)).collect();
        let min_load = owners.iter().map(|&s| loads[s]).min().expect("d >= 1");
        let tied: Vec<usize> = owners
            .iter()
            .copied()
            .filter(|&s| loads[s] == min_load)
            .collect();
        let dest = match tie {
            TieBreak::Random => {
                let mut tie_rng = lanes.tie(ball);
                let mut chosen = tied[0];
                // Reservoir over the tied candidates, in scan order: the
                // j-th candidate (j >= 2, 1-based) replaces with prob 1/j.
                if tied.len() >= 2 {
                    for (extra, &s) in tied[1..].iter().enumerate() {
                        if tie_rng.gen_range(0..extra + 2) == 0 {
                            chosen = s;
                        }
                    }
                }
                chosen
            }
            TieBreak::LowestIndex => tied.iter().copied().min().expect("nonempty"),
            TieBreak::Leftmost => tied.iter().copied().fold(tied[0], |best, s| {
                if space.position_key(s) < space.position_key(best) {
                    s
                } else {
                    best
                }
            }),
            TieBreak::SmallerRegion => tied.iter().copied().fold(tied[0], |best, s| {
                if space.region_size(s) < space.region_size(best) {
                    s
                } else {
                    best
                }
            }),
            TieBreak::LargerRegion => tied.iter().copied().fold(tied[0], |best, s| {
                if space.region_size(s) > space.region_size(best) {
                    s
                } else {
                    best
                }
            }),
        };
        loads[dest] += 1;
    }
    loads
}

/// Batched engine (both entry points) ≡ the reference, and the trial
/// consumes exactly one `u64` of the shared stream.
fn check_space<S: Space>(space: &S, m: usize, seed: u64) {
    for d in 1..=3usize {
        for tie in TIES {
            let strategy = Strategy::with_tie_break(d, tie);
            let mut trial_rng = Xoshiro256pp::from_u64(seed);
            let root = trial_rng.clone().next_u64();
            let expected = reference_loads(space, d, tie, m, root);

            let result = run_trial(space, &strategy, m, &mut trial_rng);
            assert_eq!(
                result.loads, expected,
                "run_trial diverged (d={d}, tie={tie:?}, m={m})"
            );
            let mut probe = Xoshiro256pp::from_u64(seed);
            probe.next_u64();
            assert_eq!(
                trial_rng.next_u64(),
                probe.next_u64(),
                "trial must consume exactly the lane root (d={d}, tie={tie:?})"
            );

            let lanes_result = run_trial_with_lanes(space, &strategy, m, &BallLanes::new(root));
            assert_eq!(
                lanes_result.loads, expected,
                "run_trial_with_lanes diverged (d={d}, tie={tie:?}, m={m})"
            );
        }
    }
}

proptest! {
    #[test]
    fn uniform_bins_batched_equals_lane_sequential(
        seed in 0u64..1 << 48,
        n in 1usize..48,
        m in 0usize..150,
    ) {
        check_space(&UniformSpace::new(n), m, seed);
    }

    #[test]
    fn ring_batched_equals_lane_sequential(
        seed in 0u64..1 << 48,
        n in 1usize..48,
        m in 0usize..150,
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0xABCD);
        check_space(&RingSpace::random(n, &mut rng), m, seed);
    }

    #[test]
    fn torus_batched_equals_lane_sequential(
        seed in 0u64..1 << 48,
        n in 1usize..40,
        m in 0usize..150,
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x1234);
        check_space(&TorusSpace::random(n, &mut rng), m, seed);
    }

    #[test]
    fn kd_torus_batched_equals_lane_sequential(
        seed in 0u64..1 << 48,
        n in 1usize..32,
        m in 0usize..120,
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x5678);
        check_space(&KdTorusSpace::<1>::random(n, &mut rng), m, seed);
        check_space(&KdTorusSpace::<2>::random(n, &mut rng), m, seed);
        check_space(&KdTorusSpace::<3>::random(n, &mut rng), m, seed);
    }

    #[test]
    fn mix_ring_batched_equals_lane_sequential(
        seed in 0u64..1 << 48,
        n in 1usize..40,
        m in 0usize..120,
        q in 0.0f64..1.0,
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x9999);
        let part = RingPartition::random(n, &mut rng);
        let space = MixRingSpace::new(part, RingMix::new(q, 0.3, 0.2));
        check_space(&space, m, seed);
    }
}
