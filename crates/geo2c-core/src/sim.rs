//! The sequential insertion engine.
//!
//! Balls are placed one at a time (the paper's process is inherently
//! sequential: each placement depends on the loads left by its
//! predecessors). A trial is: build a space, insert `m` balls with a
//! [`Strategy`], report the final loads.
//!
//! Besides the headline maximum load, [`TrialResult`] retains the full
//! load vector so experiments can reconstruct the quantities the proof
//! reasons about: `ν_i` (number of bins with load ≥ i — the layered
//! induction variable) and load/region-size correlations.

use crate::load::LoadState;
use crate::space::Space;
use crate::strategy::Strategy;
use geo2c_util::hist::Counter;
use geo2c_util::rng::{BallLanes, LaneSource};
use rand::Rng;

/// The outcome of one simulation trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialResult {
    /// Final number of balls on each server.
    pub loads: Vec<u32>,
    /// `max(loads)` — the paper's reported statistic.
    pub max_load: u32,
}

impl TrialResult {
    /// Number of servers with load ≥ `i` (the proof's `ν_i`).
    #[must_use]
    pub fn bins_with_load_at_least(&self, i: u32) -> usize {
        self.loads.iter().filter(|&&l| l >= i).count()
    }

    /// The load distribution over servers as a counter
    /// (value = load, count = #servers).
    #[must_use]
    pub fn load_profile(&self) -> Counter {
        self.loads.iter().map(|&l| u64::from(l)).collect()
    }

    /// Total number of balls placed (Σ loads).
    #[must_use]
    pub fn total_balls(&self) -> u64 {
        self.loads.iter().map(|&l| u64::from(l)).sum()
    }
}

/// Balls per cross-ball probe block: big enough to amortize the batched
/// draw and the owner lookups, small enough that the owner block stays
/// in L1 for the resolution pass.
const BALL_BLOCK: usize = 64;

/// The insertion loop behind [`run_trial`]: places `m` balls and
/// returns the maximum load.
///
/// **RNG stream contract v2.** For every independent-probe strategy
/// (everything but [`Strategy::is_split`] — the paper-default random
/// tie-break included), the trial draws exactly *one* `u64` from the
/// shared stream: the root of the trial's [`BallLanes`], which
/// [`insert_balls_lanes`] then places from. Only Vöcking's split scheme
/// (division-conditioned probes, no lane form) places ball by ball on
/// the shared stream, through [`Strategy::place_split`].
fn insert_balls<S: Space, R: Rng + ?Sized, LS: LoadState + ?Sized>(
    space: &S,
    strategy: &Strategy,
    m: usize,
    rng: &mut R,
    loads: &mut LS,
) -> u32 {
    if !strategy.is_split() {
        let lanes = BallLanes::new(rng.next_u64());
        return insert_balls_lanes(space, strategy, m, &lanes, loads);
    }
    let mut max_load = 0;
    for _ in 0..m {
        let dest = strategy.place_split(space, &*loads, rng);
        max_load = max_load.max(loads.bump(dest));
    }
    max_load
}

/// The cross-ball batched insertion loop on an explicit [`LaneSource`]
/// (contract v2): places `m` balls and returns the maximum load. Ball
/// `b` draws its `d` probe owners from `lanes.probe(b)` and resolves
/// load ties on `lanes.tie(b)`, so probe generation is independent of
/// tie resolution and of every other ball. That is what lets the loop
/// draw the owners of 64 balls at a time (one aligned
/// [`EventOwnerBlocks`] block, one [`Space::sample_owners_lanes`] call)
/// and then resolve the block against the evolving loads ball by ball
/// through [`Strategy::place_from_loads`].
///
/// Between the batched draw and the resolution pass the engine makes one
/// summing sweep over the block's load entries: the sweep's loads are
/// mutually independent, so the out-of-order core overlaps their cache
/// misses and the (sequentially dependent) resolution pass then runs
/// against warm lines — a safe-code prefetch that matters at `n` where
/// the load vector far exceeds L2.
///
/// The loop is generic over the [`LoadState`] backing: the flat
/// `Vec<u32>` reference the committed tables run on, or the packed
/// backings of [`crate::load`] for streaming-scale trials —
/// placement-identical by the `loadvec_equivalence` proptest suite.
///
/// # Panics
/// Panics for the split scheme, whose probes are division-conditioned
/// and have no lane form.
pub fn insert_balls_lanes<S: Space, L: LaneSource, LS: LoadState + ?Sized>(
    space: &S,
    strategy: &Strategy,
    m: usize,
    lanes: &L,
    loads: &mut LS,
) -> u32 {
    assert!(
        !strategy.is_split(),
        "split-scheme strategies have no lane form"
    );
    let d = strategy.d();
    let mut blocks = EventOwnerBlocks::new(d);
    let mut max_load = 0;
    let mut placed = 0;
    while placed < m {
        let balls = BALL_BLOCK.min(m - placed);
        let first = placed as u64;
        let block = &blocks.block(space, lanes, first)[..balls * d];
        let mut warm = 0u32;
        for &owner in block {
            warm = warm.wrapping_add(loads.warm(owner));
        }
        std::hint::black_box(warm);
        for (ball, window) in block.chunks_exact(d).enumerate() {
            let mut tie = lanes.tie(first + ball as u64);
            let dest = strategy.place_from_loads(space, &*loads, window, &mut tie);
            max_load = max_load.max(loads.bump(dest));
        }
        placed += balls;
    }
    max_load
}

/// Pre-drawn owner blocks for an *online* event stream.
///
/// A long-running serving process interleaves arrivals with departures,
/// so it cannot batch a whole trial's placements up front the way
/// [`run_trial`] does — but under RNG stream contract v2 probe draws are
/// load-*independent*, so it can still pre-draw the owner sets of a
/// whole block of future arrivals in one [`Space::sample_owners_lanes`]
/// call and resolve them one event at a time as the loads evolve.
///
/// Blocks are aligned to multiples of the internal block size counted
/// from event 0, so the owners of event `t` are a pure function of the
/// lane source and `t` — never of when (or in what order) the block was
/// materialised. That alignment is what makes replaying any prefix of
/// the event stream byte-identical.
///
/// ```
/// use geo2c_core::{sim::EventOwnerBlocks, space::UniformSpace, space::Space};
/// use geo2c_util::rng::{EventLanes, LaneSource};
///
/// let space = UniformSpace::new(16);
/// let lanes = EventLanes::new(7);
/// let mut blocks = EventOwnerBlocks::new(2);
/// let owners: Vec<usize> = blocks.owners(&space, &lanes, 5).to_vec();
/// // Same draws as the event's private probe lane, by construction.
/// let mut probe = lanes.probe(5);
/// assert_eq!(owners[0], space.sample_owner(&mut probe));
/// assert_eq!(owners[1], space.sample_owner(&mut probe));
/// ```
#[derive(Debug, Clone)]
pub struct EventOwnerBlocks {
    buf: Vec<usize>,
    d: usize,
    /// First event of the cached block (`u64::MAX` = nothing cached).
    block_start: u64,
}

impl EventOwnerBlocks {
    /// A block cache for `d` probes per event.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    #[must_use]
    pub fn new(d: usize) -> Self {
        assert!(d >= 1, "at least one probe per event");
        Self {
            buf: Vec::new(),
            d,
            block_start: u64::MAX,
        }
    }

    /// Probes per event, as passed to [`EventOwnerBlocks::new`].
    #[must_use]
    pub fn d(&self) -> usize {
        self.d
    }

    /// The `d` owners probed by `event`, drawing the event's aligned
    /// block through `space` on first touch. Identical to sampling `d`
    /// owners from `lanes.probe(event)` directly, at block cost.
    pub fn owners<S: Space, L: LaneSource>(
        &mut self,
        space: &S,
        lanes: &L,
        event: u64,
    ) -> &[usize] {
        let start = event - event % BALL_BLOCK as u64;
        if start != self.block_start {
            self.buf.resize(BALL_BLOCK * self.d, 0);
            let block_lanes = lanes.block(start);
            space.sample_owners_lanes(&block_lanes, self.d, &mut self.buf);
            self.block_start = start;
        }
        let offset = (event - start) as usize * self.d;
        &self.buf[offset..offset + self.d]
    }

    /// Events per aligned block — the cross-ball batch width shared with
    /// [`run_trial`]'s insertion loop.
    pub const BLOCK_EVENTS: u64 = BALL_BLOCK as u64;

    /// The full aligned owner block containing `event`
    /// ([`EventOwnerBlocks::BLOCK_EVENTS`]` * d` owners, event-major),
    /// materialised on first touch: the warming-sweep companion to
    /// [`EventOwnerBlocks::owners`], for callers that want to touch a
    /// block's load entries before resolving its events one at a time.
    pub fn block<S: Space, L: LaneSource>(&mut self, space: &S, lanes: &L, event: u64) -> &[usize] {
        let _ = self.owners(space, lanes, event);
        &self.buf
    }
}

/// [`run_trial`] on an explicit [`LaneSource`] instead of the default
/// SplitMix64 lanes: the entry point for alternative probe sources such
/// as [`geo2c_util::rng::TabulationLanes`] (the Dahlgaard et al. weak-
/// hashing ablation). The caller keys the lanes; two calls with the same
/// source are identical.
///
/// # Panics
/// Panics for the split scheme, which has no lane form.
///
/// ```
/// use geo2c_core::{sim, space::UniformSpace, strategy::Strategy};
/// use geo2c_util::rng::{BallLanes, TabulationHash, TabulationLanes};
///
/// let space = UniformSpace::new(64);
/// let hash = TabulationHash::from_seed(1);
/// let r = sim::run_trial_with_lanes(
///     &space,
///     &Strategy::two_choice(),
///     64,
///     &TabulationLanes::new(&hash, 2),
/// );
/// assert_eq!(r.total_balls(), 64);
/// // SplitMix64 lanes with the same root are the engine default.
/// let _ = sim::run_trial_with_lanes(&space, &Strategy::two_choice(), 64, &BallLanes::new(2));
/// ```
#[must_use]
pub fn run_trial_with_lanes<S: Space, L: LaneSource>(
    space: &S,
    strategy: &Strategy,
    m: usize,
    lanes: &L,
) -> TrialResult {
    let mut loads = vec![0u32; space.num_servers()];
    let max_load = insert_balls_lanes(space, strategy, m, lanes, &mut loads);
    TrialResult { loads, max_load }
}

/// Runs one trial *into* a caller-supplied [`LoadState`] backing and
/// returns the maximum load: the streaming-scale entry point, where
/// materialising a `Vec<u32>` per trial is exactly the cost the packed
/// backings exist to avoid. `loads` must start all-zero to model the
/// paper's process; the final load image is left in `loads` for
/// inspection via [`LoadState::to_vec`] / [`LoadState::heap_bytes`].
///
/// Placement-identical to [`run_trial_with_lanes`] on the same lanes,
/// whatever the backing (the `loadvec_equivalence` suite pins this).
///
/// # Panics
/// Panics if `loads` is sized for a different space or `strategy` has no
/// lane form.
///
/// ```
/// use geo2c_core::load::{LoadState, PackedLoads};
/// use geo2c_core::{sim, space::UniformSpace, strategy::Strategy};
/// use geo2c_util::rng::BallLanes;
///
/// let space = UniformSpace::new(256);
/// let mut loads = PackedLoads::nibble(256);
/// let max = sim::run_trial_into(&space, &Strategy::two_choice(), 256, &BallLanes::new(7), &mut loads);
/// let flat = sim::run_trial_with_lanes(&space, &Strategy::two_choice(), 256, &BallLanes::new(7));
/// assert_eq!(loads.to_vec(), flat.loads);
/// assert_eq!(max, flat.max_load);
/// ```
pub fn run_trial_into<S: Space, L: LaneSource, LS: LoadState + ?Sized>(
    space: &S,
    strategy: &Strategy,
    m: usize,
    lanes: &L,
    loads: &mut LS,
) -> u32 {
    assert_eq!(
        loads.num_servers(),
        space.num_servers(),
        "load state sized for a different space"
    );
    insert_balls_lanes(space, strategy, m, lanes, loads)
}

/// Inserts `m` balls into `space` using `strategy` and returns the final
/// loads.
///
/// Under RNG stream contract v2 the trial draws one `u64` from `rng` as
/// the root of its per-ball [`BallLanes`], and every independent-probe
/// strategy — the paper-default random tie-break included — then runs
/// the cross-ball batched engine: probe blocks for 64 balls per
/// [`Space::sample_owners_lanes`] call into scratch reused across the
/// whole trial, per-ball tie resolution on private tie lanes, no
/// per-ball allocation, monomorphized over the concrete space. The
/// batched path is *exactly* equivalent (not statistically — the
/// `lane_equivalence` suite pins byte equality) to placing balls one at
/// a time from their lanes, so committed table expectations survive
/// hot-path refactors as long as the lane keying
/// ([`geo2c_util::rng::SplitMix64::mixed`]) is untouched.
///
/// ```
/// use geo2c_core::{sim, space::UniformSpace, strategy::Strategy};
/// use geo2c_util::rng::Xoshiro256pp;
///
/// let mut rng = Xoshiro256pp::from_u64(7);
/// let space = UniformSpace::new(256);
/// let result = sim::run_trial(&space, &Strategy::two_choice(), 256, &mut rng);
/// assert_eq!(result.total_balls(), 256);
/// ```
#[must_use]
pub fn run_trial<S: Space, R: Rng + ?Sized>(
    space: &S,
    strategy: &Strategy,
    m: usize,
    rng: &mut R,
) -> TrialResult {
    let mut loads = vec![0u32; space.num_servers()];
    let max_load = insert_balls(space, strategy, m, rng, &mut loads);
    TrialResult { loads, max_load }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{RingSpace, UniformSpace};
    use geo2c_util::rng::Xoshiro256pp;

    #[test]
    fn conservation_of_balls() {
        let mut rng = Xoshiro256pp::from_u64(1);
        let space = UniformSpace::new(64);
        for m in [0usize, 1, 64, 500] {
            let r = run_trial(&space, &Strategy::two_choice(), m, &mut rng);
            assert_eq!(r.total_balls(), m as u64);
            assert_eq!(r.loads.len(), 64);
            assert_eq!(
                r.max_load,
                r.loads.iter().copied().max().unwrap_or(0),
                "max_load consistent"
            );
        }
    }

    #[test]
    fn zero_balls_zero_loads() {
        let mut rng = Xoshiro256pp::from_u64(2);
        let space = UniformSpace::new(8);
        let r = run_trial(&space, &Strategy::one_choice(), 0, &mut rng);
        assert_eq!(r.max_load, 0);
        assert!(r.loads.iter().all(|&l| l == 0));
        assert_eq!(r.bins_with_load_at_least(1), 0);
        assert_eq!(r.bins_with_load_at_least(0), 8);
    }

    #[test]
    fn single_server_takes_everything() {
        let mut rng = Xoshiro256pp::from_u64(3);
        let space = UniformSpace::new(1);
        let r = run_trial(&space, &Strategy::d_choice(3), 100, &mut rng);
        assert_eq!(r.max_load, 100);
        assert_eq!(r.loads, vec![100]);
    }

    #[test]
    fn two_choices_beat_one_on_average() {
        // The paper's headline effect, in miniature: mean max load over
        // trials is strictly lower with d=2 on both spaces.
        let n = 512;
        let trials = 20;
        for build_ring in [false, true] {
            let mut one_total = 0u64;
            let mut two_total = 0u64;
            for t in 0..trials {
                let mut rng = Xoshiro256pp::from_u64(100 + t);
                if build_ring {
                    let space = RingSpace::random(n, &mut rng);
                    one_total +=
                        u64::from(run_trial(&space, &Strategy::one_choice(), n, &mut rng).max_load);
                    two_total +=
                        u64::from(run_trial(&space, &Strategy::two_choice(), n, &mut rng).max_load);
                } else {
                    let space = UniformSpace::new(n);
                    one_total +=
                        u64::from(run_trial(&space, &Strategy::one_choice(), n, &mut rng).max_load);
                    two_total +=
                        u64::from(run_trial(&space, &Strategy::two_choice(), n, &mut rng).max_load);
                }
            }
            assert!(
                two_total < one_total,
                "ring={build_ring}: d=2 total {two_total} !< d=1 total {one_total}"
            );
        }
    }

    #[test]
    fn load_profile_counts_servers() {
        let mut rng = Xoshiro256pp::from_u64(5);
        let space = UniformSpace::new(32);
        let r = run_trial(&space, &Strategy::two_choice(), 64, &mut rng);
        let profile = r.load_profile();
        assert_eq!(profile.total(), 32);
        let reconstructed: u64 = profile.iter().map(|(load, count)| load * count).sum();
        assert_eq!(reconstructed, 64);
    }

    #[test]
    fn batched_engine_matches_lane_sequential_reference() {
        // Contract v2: the cross-ball batched engine must place every
        // ball exactly where the un-batched lane-sequential process
        // would — ball b draws d owners from its probe lane, resolves
        // on its tie lane — and must consume exactly one u64 (the lane
        // root) from the trial stream. This byte-level invariant is what
        // keeps committed table distributions stable.
        use crate::strategy::TieBreak;
        use geo2c_util::rng::BallLanes;
        use rand::RngCore as _;
        let mut seed_rng = Xoshiro256pp::from_u64(40);
        let space = RingSpace::random(128, &mut seed_rng);
        for strategy in [
            Strategy::one_choice(),
            Strategy::two_choice(),
            Strategy::d_choice(3),
            Strategy::with_tie_break(2, TieBreak::Leftmost),
            Strategy::with_tie_break(3, TieBreak::SmallerRegion),
            Strategy::with_tie_break(4, TieBreak::LowestIndex),
        ] {
            // 333 balls: multiple cross-ball blocks plus a ragged tail.
            let mut a = Xoshiro256pp::from_u64(41);
            let mut b = a.clone();
            let result = run_trial(&space, &strategy, 333, &mut a);
            let lanes = BallLanes::new(b.next_u64());
            let d = strategy.d();
            let mut loads = vec![0u32; 128];
            let mut max_load = 0u32;
            for ball in 0..333u64 {
                let mut probe = lanes.probe(ball);
                let owners: Vec<usize> = (0..d).map(|_| space.sample_owner(&mut probe)).collect();
                let mut tie = lanes.tie(ball);
                let dest = strategy.place_from_loads(&space, &loads, &owners, &mut tie);
                loads[dest] += 1;
                max_load = max_load.max(loads[dest]);
            }
            assert_eq!(result.loads, loads, "{}", strategy.label());
            assert_eq!(result.max_load, max_load, "{}", strategy.label());
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "{}: trial must draw exactly the lane root",
                strategy.label()
            );
        }
    }

    #[test]
    fn split_scheme_keeps_the_per_ball_stream() {
        // Vöcking's split probes are division-conditioned: no lane form,
        // so the trial places ball by ball on the shared stream. Pin it
        // to a from-scratch reference: probe j from division j, and only
        // a strictly smaller load replaces the best, so ties stay with
        // the lowest division.
        use crate::space::TorusSpace;
        use rand::RngCore as _;
        fn check<S: Space>(space: &S, label: &str) {
            for d in [2usize, 3] {
                let strategy = Strategy::voecking(d);
                let mut a = Xoshiro256pp::from_u64(45);
                let mut b = a.clone();
                let result = run_trial(space, &strategy, 200, &mut a);
                let mut loads = vec![0u32; space.num_servers()];
                for _ in 0..200 {
                    let mut best = usize::MAX;
                    for j in 0..d {
                        let s = space.sample_owner_in_division(&mut b, j, d);
                        if best == usize::MAX || loads[s] < loads[best] {
                            best = s;
                        }
                    }
                    loads[best] += 1;
                }
                assert_eq!(result.loads, loads, "{label} d={d}");
                assert_eq!(
                    a.next_u64(),
                    b.next_u64(),
                    "{label} d={d}: rng states diverged"
                );
            }
        }
        let mut seed_rng = Xoshiro256pp::from_u64(44);
        check(&UniformSpace::new(64), "uniform");
        check(&RingSpace::random(64, &mut seed_rng), "ring");
        check(&TorusSpace::random(64, &mut seed_rng), "torus");
    }

    #[test]
    fn run_trial_with_lanes_is_pure_in_the_source() {
        use geo2c_util::rng::{BallLanes, TabulationHash, TabulationLanes};
        let mut rng = Xoshiro256pp::from_u64(46);
        let space = RingSpace::random(64, &mut rng);
        let strategy = Strategy::two_choice();
        let a = run_trial_with_lanes(&space, &strategy, 200, &BallLanes::new(9));
        let b = run_trial_with_lanes(&space, &strategy, 200, &BallLanes::new(9));
        assert_eq!(a, b);
        assert_eq!(a.total_balls(), 200);
        // A different lane family with the same root is a different
        // (but equally valid) process.
        let hash = TabulationHash::from_seed(1);
        let c = run_trial_with_lanes(&space, &strategy, 200, &TabulationLanes::new(&hash, 9));
        assert_eq!(c.total_balls(), 200);
        assert_ne!(a.loads, c.loads);
    }

    #[test]
    fn event_owner_blocks_match_per_event_probe_draws() {
        // Block alignment means the owners of event t are a pure
        // function of (lanes, t) — independent of access order and of
        // block boundaries. Pin against from-scratch per-event draws.
        use geo2c_util::rng::EventLanes;
        let mut rng = Xoshiro256pp::from_u64(47);
        let space = RingSpace::random(96, &mut rng);
        let lanes = EventLanes::new(1234);
        for d in [1usize, 2, 3] {
            let mut blocks = EventOwnerBlocks::new(d);
            assert_eq!(blocks.d(), d);
            // Out-of-order access, block revisits, boundary straddles.
            for event in [0u64, 5, 63, 64, 65, 3, 200, 64, 127, 128] {
                let got = blocks.owners(&space, &lanes, event).to_vec();
                let mut probe = lanes.probe(event);
                let want: Vec<usize> = (0..d).map(|_| space.sample_owner(&mut probe)).collect();
                assert_eq!(got, want, "d={d} event={event}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let space = UniformSpace::new(100);
        let mut a = Xoshiro256pp::from_u64(6);
        let mut b = Xoshiro256pp::from_u64(6);
        let ra = run_trial(&space, &Strategy::two_choice(), 500, &mut a);
        let rb = run_trial(&space, &Strategy::two_choice(), 500, &mut b);
        assert_eq!(ra, rb);
    }
}
