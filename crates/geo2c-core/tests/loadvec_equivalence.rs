//! Property tests pinning every packed [`LoadState`] backing to
//! the flat `Vec<u32>` reference — **exactly**, not statistically.
//!
//! The insertion engine is generic over its load state
//! ([`geo2c_core::sim::run_trial_into`]); under RNG stream contract v2 a
//! backing is correct iff a trial run against it produces byte-identical
//! placements to the same trial on the flat vector. That reduces to
//! three per-probe-set agreements, which these tests exercise through
//! full trials: the exact per-bin load, the minimum over the probe
//! window (the packed backings' lane-gather compare included), and the
//! membership of the tied set (which drives the tie-lane draw pattern).
//!
//! Coverage: all spaces (uniform bins, ring arcs, 2-D Voronoi torus,
//! K-torus for K ∈ {1, 2, 3}, and the non-uniform probe mixture) ×
//! d ∈ {1, 2, 3} × every tie policy × both packed widths —
//! plus heavy-load cases that force nibble saturation, byte saturation,
//! and spill/un-spill churn, and the n = 1 degenerate layout.

use geo2c_core::load::{LoadState, PackedLoads};
use geo2c_core::nonuniform::{MixRingSpace, RingMix};
use geo2c_core::sim::{run_trial_into, run_trial_with_lanes};
use geo2c_core::space::{KdTorusSpace, RingSpace, Space, TorusSpace, UniformSpace};
use geo2c_core::strategy::{Strategy, TieBreak};
use geo2c_ring::RingPartition;
use geo2c_util::rng::{BallLanes, Xoshiro256pp};
use proptest::prelude::*;

const TIES: [TieBreak; 5] = [
    TieBreak::Random,
    TieBreak::Leftmost,
    TieBreak::SmallerRegion,
    TieBreak::LargerRegion,
    TieBreak::LowestIndex,
];

/// The packed backings under test, all-zero over `n` bins.
fn backings(n: usize) -> Vec<(&'static str, Box<dyn LoadState>)> {
    vec![
        ("packed-nibble", Box::new(PackedLoads::nibble(n))),
        ("packed-byte", Box::new(PackedLoads::byte(n))),
    ]
}

/// Every backing must reproduce the flat trial bit for bit: same final
/// load image, same max load — for every d and tie policy.
fn check_space<S: Space>(space: &S, m: usize, root: u64) {
    for d in 1..=3usize {
        for tie in TIES {
            let strategy = Strategy::with_tie_break(d, tie);
            let lanes = BallLanes::new(root);
            let flat = run_trial_with_lanes(space, &strategy, m, &lanes);
            for (name, mut loads) in backings(space.num_servers()) {
                let max = run_trial_into(space, &strategy, m, &lanes, loads.as_mut());
                assert_eq!(
                    loads.to_vec(),
                    flat.loads,
                    "{name} diverged (d={d}, tie={tie:?}, m={m})"
                );
                assert_eq!(max, flat.max_load, "{name} max (d={d}, tie={tie:?})");
            }
        }
    }
}

proptest! {
    #[test]
    fn uniform_bins_backings_match_flat(
        seed in 0u64..1 << 48,
        n in 1usize..48,
        m in 0usize..150,
    ) {
        check_space(&UniformSpace::new(n), m, seed);
    }

    #[test]
    fn ring_backings_match_flat(
        seed in 0u64..1 << 48,
        n in 1usize..48,
        m in 0usize..150,
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x10AD);
        check_space(&RingSpace::random(n, &mut rng), m, seed);
    }

    #[test]
    fn torus_backings_match_flat(
        seed in 0u64..1 << 48,
        n in 1usize..40,
        m in 0usize..150,
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x70B5);
        check_space(&TorusSpace::random(n, &mut rng), m, seed);
    }

    #[test]
    fn kd_torus_backings_match_flat(
        seed in 0u64..1 << 48,
        n in 1usize..24,
        m in 0usize..100,
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x6B0D);
        check_space(&KdTorusSpace::<1>::random(n, &mut rng), m, seed);
        check_space(&KdTorusSpace::<2>::random(n, &mut rng), m, seed);
        check_space(&KdTorusSpace::<3>::random(n, &mut rng), m, seed);
    }

    #[test]
    fn mix_ring_backings_match_flat(
        seed in 0u64..1 << 48,
        n in 1usize..32,
        m in 0usize..100,
        q in 0.0f64..1.0,
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x3117);
        let part = RingPartition::random(n, &mut rng);
        let space = MixRingSpace::new(part, RingMix::new(q, 0.3, 0.2));
        check_space(&space, m, seed);
    }

    /// Heavy trials on tiny spaces: loads blow through the nibble cap
    /// (14) and, at the smallest n, the byte cap (254) too, so the
    /// in-line → spill transition, spilled bumps, and spilled minimum
    /// comparisons all sit on the placement path.
    #[test]
    fn saturating_loads_spill_and_still_match_flat(
        seed in 0u64..1 << 48,
        n in 1usize..6,
        m in 200usize..500,
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x5A7A);
        check_space(&UniformSpace::new(n), m, seed);
        check_space(&RingSpace::random(n, &mut rng), m, seed);
    }
}

#[test]
fn single_bin_layout_spills_past_every_cap() {
    // n = 1: every ball lands in bin 0, driving one cell from in-line
    // zero through nibble saturation (15), byte saturation (255), and
    // deep into spill territory — the fully degenerate layout.
    let space = UniformSpace::new(1);
    let strategy = Strategy::two_choice();
    let lanes = BallLanes::new(99);
    for (name, mut loads) in backings(1) {
        let max = run_trial_into(&space, &strategy, 1000, &lanes, loads.as_mut());
        assert_eq!(max, 1000, "{name}");
        assert_eq!(loads.to_vec(), vec![1000], "{name}");
    }
}
