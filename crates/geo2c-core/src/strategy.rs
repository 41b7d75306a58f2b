//! Placement strategies: `d` choices and tie-breaking policies.
//!
//! The paper's process inserts each ball by sampling `d` probe locations,
//! mapping each to its owning server, and placing the ball on the
//! least-loaded candidate. When several candidates share the minimum load
//! a *tie-break* decides — and Section 4 (Table 3) shows the choice
//! matters:
//!
//! * [`TieBreak::Random`] — uniform among tied candidates (the paper's
//!   default for Tables 1 and 2).
//! * [`TieBreak::SmallerRegion`] — prefer the candidate owning the
//!   *smaller* arc / cell. Rationale: the theoretical analysis bounds the
//!   total size of heavily-loaded regions, so steering growth toward small
//!   regions directly attacks the bound. Empirically the best policy in
//!   Table 3 ("even slightly better than Vöcking's scheme").
//! * [`TieBreak::LargerRegion`] — the adversarial ablation (worst policy).
//! * [`TieBreak::Leftmost`] — a fixed global asymmetry: prefer the
//!   candidate with the smaller position coordinate (Table 3's
//!   *arc-left*). Note this must be a *global* asymmetry (server
//!   position): breaking ties by probe order is distribution-neutral for
//!   exchangeable candidates and would match `Random`.
//! * [`TieBreak::LowestIndex`] — deterministic fallback used by tests.
//!
//! [`Strategy::voecking`] implements the split-interval always-go-left
//! scheme (§2 remark 4): probe `j` is drawn from the `j`-th of `d` equal
//! divisions of the space and ties always go to the lowest division,
//! which for uniform bins improves the bound to
//! `log log n / (d ln φ_d) + O(1)`.

use crate::load::LoadRead;
use crate::space::Space;
use rand::Rng;

/// Policy for resolving ties among minimum-load candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// Uniformly random among the tied candidates (paper default).
    #[default]
    Random,
    /// The candidate owning the smallest region (Table 3 *arc-smaller*).
    SmallerRegion,
    /// The candidate owning the largest region (Table 3 *arc-larger*).
    LargerRegion,
    /// The candidate with the smallest position key (Table 3 *arc-left*).
    Leftmost,
    /// The candidate with the smallest server index (deterministic).
    LowestIndex,
}

impl TieBreak {
    /// Human-readable name matching the paper's Table 3 column headers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TieBreak::Random => "arc-random",
            TieBreak::SmallerRegion => "arc-smaller",
            TieBreak::LargerRegion => "arc-larger",
            TieBreak::Leftmost => "arc-left",
            TieBreak::LowestIndex => "lowest-index",
        }
    }
}

impl std::str::FromStr for TieBreak {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "random" | "arc-random" => Ok(TieBreak::Random),
            "smaller" | "arc-smaller" => Ok(TieBreak::SmallerRegion),
            "larger" | "arc-larger" => Ok(TieBreak::LargerRegion),
            "left" | "leftmost" | "arc-left" => Ok(TieBreak::Leftmost),
            "index" | "lowest-index" => Ok(TieBreak::LowestIndex),
            other => Err(format!("unknown tie-break: {other}")),
        }
    }
}

/// How the `d` candidates are drawn and ties resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChoiceRule {
    /// `d` independent uniform probes over the whole space.
    Independent { d: usize, tie: TieBreak },
    /// Vöcking: one probe per division, ties to the lowest division.
    SplitAlwaysLeft { d: usize },
}

/// A complete placement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strategy {
    rule: ChoiceRule,
}

/// Probe candidates held on the stack for the common `d ≤ 8`.
const INLINE_PROBES: usize = 8;

/// Reusable per-trial scratch for a strategy's probe block.
///
/// [`crate::sim::run_trial`] allocates one of these per trial and reuses
/// it for every ball, so the per-ball path stays allocation-free for any
/// `d` and the probe block stays hot in cache. For tie-break-free
/// strategies the engine additionally draws *cross-ball* probe blocks
/// (many balls' probes in one batched draw) through
/// [`ProbeScratch::cross_ball_block`].
#[derive(Debug, Clone)]
pub struct ProbeScratch {
    owners: Vec<usize>,
    block: Vec<usize>,
}

impl ProbeScratch {
    /// Scratch sized for `strategy`'s probes-per-ball.
    #[must_use]
    pub fn for_strategy(strategy: &Strategy) -> Self {
        Self {
            owners: vec![0; strategy.d()],
            block: Vec::new(),
        }
    }

    /// The cross-ball owner block, grown (once) to at least `len` slots.
    /// The engine fills it via [`crate::space::Space::sample_owners_into`]
    /// and resolves one ball's `d`-probe window at a time with
    /// [`Strategy::place_from_loads`].
    pub fn cross_ball_block(&mut self, len: usize) -> &mut [usize] {
        if self.block.len() < len {
            self.block.resize(len, 0);
        }
        &mut self.block[..len]
    }
}

impl Strategy {
    /// Single uniform choice (`d = 1`): the classical hashing baseline.
    #[must_use]
    pub fn one_choice() -> Self {
        Self::d_choice(1)
    }

    /// Two independent choices with random tie-breaking (paper default).
    #[must_use]
    pub fn two_choice() -> Self {
        Self::d_choice(2)
    }

    /// `d` independent choices with random tie-breaking.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    #[must_use]
    pub fn d_choice(d: usize) -> Self {
        Self::with_tie_break(d, TieBreak::Random)
    }

    /// `d` independent choices with an explicit tie-break policy.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    #[must_use]
    pub fn with_tie_break(d: usize, tie: TieBreak) -> Self {
        assert!(d >= 1, "need at least one choice");
        Self {
            rule: ChoiceRule::Independent { d, tie },
        }
    }

    /// Vöcking's split-interval always-go-left scheme with `d` divisions.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    #[must_use]
    pub fn voecking(d: usize) -> Self {
        assert!(d >= 1, "need at least one division");
        Self {
            rule: ChoiceRule::SplitAlwaysLeft { d },
        }
    }

    /// The number of probes per ball.
    #[must_use]
    pub fn d(&self) -> usize {
        match self.rule {
            ChoiceRule::Independent { d, .. } | ChoiceRule::SplitAlwaysLeft { d } => d,
        }
    }

    /// True for the split-interval (Vöcking) variant.
    #[must_use]
    pub fn is_split(&self) -> bool {
        matches!(self.rule, ChoiceRule::SplitAlwaysLeft { .. })
    }

    /// True when the strategy's probe locations are plain independent
    /// uniform draws — i.e. every independent-probe (non-split) strategy,
    /// whatever its tie-break. Under RNG stream contract v2 each ball
    /// owns a private probe lane *and* a private tie lane
    /// ([`geo2c_util::rng::BallLanes`]), so tie resolution — random
    /// included — can never perturb another ball's probe draws, and the
    /// insertion engine batches probe blocks across balls for all of
    /// them ([`crate::sim::run_trial`]). Only Vöcking's split scheme is
    /// excluded: its probes are division-conditioned, not one uniform
    /// block.
    #[must_use]
    pub fn supports_cross_ball_batching(&self) -> bool {
        !self.is_split()
    }

    /// Chooses the destination for one ball whose `d` probe owners were
    /// already drawn (one window of a cross-ball block), resolving load
    /// ties through `tie_rng` — under contract v2, the ball's private
    /// tie lane. Deterministic tie-breaks and the `d = 1` baseline never
    /// touch `tie_rng`; [`TieBreak::Random`] reservoir-samples uniformly
    /// among the tied candidates from it (and draws nothing when the
    /// minimum is unique).
    ///
    /// Generic over the [`LoadRead`] backing (flat `[u32]` or packed
    /// states). The minimum scan goes through [`LoadRead::min_load_of`]
    /// (a register-wide lane compare on packed backings) and tie
    /// filtering through
    /// [`LoadRead::load`]; both agree exactly with the flat reference,
    /// so the tie-lane draw pattern — and hence the RNG stream — is
    /// backing-independent.
    ///
    /// # Panics
    /// Panics if `owners.len() != d`, or for the split scheme, whose
    /// probes cannot be pre-drawn as one uniform block.
    #[must_use]
    pub fn place_from_loads<S: Space, L: LoadRead + ?Sized, R: Rng + ?Sized>(
        &self,
        space: &S,
        loads: &L,
        owners: &[usize],
        tie_rng: &mut R,
    ) -> usize {
        match self.rule {
            ChoiceRule::Independent { d, tie } => {
                assert_eq!(owners.len(), d, "owner block sized for wrong d");
                if let [only] = owners {
                    return *only;
                }
                let min_load = loads.min_load_of(owners);
                if tie == TieBreak::Random {
                    Self::random_tie(loads, owners, min_load, tie_rng)
                } else {
                    Self::deterministic_tie(space, loads, owners, min_load, tie)
                }
            }
            ChoiceRule::SplitAlwaysLeft { .. } => {
                panic!("split-scheme probes cannot be pre-drawn as one uniform block")
            }
        }
    }

    /// Short label for table headers, e.g. `"d=2"`, `"d=2 arc-smaller"`,
    /// `"voecking d=2"`.
    #[must_use]
    pub fn label(&self) -> String {
        match self.rule {
            ChoiceRule::Independent { d, tie } => {
                if tie == TieBreak::Random {
                    format!("d={d}")
                } else {
                    format!("d={d} {}", tie.name())
                }
            }
            ChoiceRule::SplitAlwaysLeft { d } => format!("voecking d={d}"),
        }
    }

    /// Chooses the destination server for one ball, given current `loads`.
    ///
    /// Samples the candidates (as one probe block through
    /// [`Space::sample_owners_into`]), selects the minimum load, and
    /// applies the tie-break. Duplicate candidates (the same server probed
    /// twice) are legal and equivalent to a single candidate, as in the
    /// paper's model.
    ///
    /// Loops placing many balls should prefer [`Strategy::choose_with`]
    /// with a reused [`ProbeScratch`]; this convenience entry point keeps
    /// `d ≤ 8` on the stack and allocates per call beyond that. Both
    /// consume the identical RNG stream.
    ///
    /// # Panics
    /// Panics if `loads.len() != space.num_servers()`.
    pub fn choose<S: Space, L: LoadRead + ?Sized, R: Rng + ?Sized>(
        &self,
        space: &S,
        loads: &L,
        rng: &mut R,
    ) -> usize {
        if let ChoiceRule::Independent { d, tie } = self.rule {
            if d <= INLINE_PROBES {
                debug_assert_eq!(loads.num_servers(), space.num_servers());
                let mut candidates = [0usize; INLINE_PROBES];
                return self.place_block(space, loads, &mut candidates[..d], tie, rng);
            }
        }
        self.choose_with(space, loads, &mut ProbeScratch::for_strategy(self), rng)
    }

    /// [`Strategy::choose`] with caller-owned scratch: the allocation-free
    /// per-ball path the insertion engine runs.
    ///
    /// # Panics
    /// Panics if `loads.len() != space.num_servers()` or `scratch` was
    /// built for a different probe count.
    pub fn choose_with<S: Space, L: LoadRead + ?Sized, R: Rng + ?Sized>(
        &self,
        space: &S,
        loads: &L,
        scratch: &mut ProbeScratch,
        rng: &mut R,
    ) -> usize {
        debug_assert_eq!(loads.num_servers(), space.num_servers());
        match self.rule {
            ChoiceRule::Independent { d, tie } => {
                assert_eq!(scratch.owners.len(), d, "scratch sized for wrong d");
                self.place_block(space, loads, &mut scratch.owners, tie, rng)
            }
            ChoiceRule::SplitAlwaysLeft { d } => {
                // One probe per division; ties to the lowest division index.
                let mut best = usize::MAX;
                let mut best_load = u32::MAX;
                for j in 0..d {
                    let s = space.sample_owner_in_division(rng, j, d);
                    if loads.load(s) < best_load {
                        best_load = loads.load(s);
                        best = s;
                    }
                }
                best
            }
        }
    }

    /// Draws one probe block, finds the minimum load, applies the
    /// tie-break.
    fn place_block<S: Space, L: LoadRead + ?Sized, R: Rng + ?Sized>(
        &self,
        space: &S,
        loads: &L,
        cand: &mut [usize],
        tie: TieBreak,
        rng: &mut R,
    ) -> usize {
        space.sample_owners_into(rng, cand);
        let min_load = loads.min_load_of(cand);
        self.break_tie(space, loads, cand, min_load, tie, rng)
    }

    fn break_tie<S: Space, L: LoadRead + ?Sized, R: Rng + ?Sized>(
        &self,
        space: &S,
        loads: &L,
        candidates: &[usize],
        min_load: u32,
        tie: TieBreak,
        rng: &mut R,
    ) -> usize {
        if tie != TieBreak::Random {
            return Self::deterministic_tie(space, loads, candidates, min_load, tie);
        }
        Self::random_tie(loads, candidates, min_load, rng)
    }

    /// Uniform tie resolution among minimum-load candidates via
    /// reservoir sampling — the [`TieBreak::Random`] arm shared by the
    /// per-ball path ([`Strategy::choose_with`], drawing from the trial
    /// stream) and the cross-ball path ([`Strategy::place_from_loads`],
    /// drawing from the ball's tie lane). The draw pattern is part of
    /// stream contract v2: with `k ≥ 2` tied candidates, one
    /// `gen_range(0..j)` draw per `j ∈ {2..=k}`, in candidate order; a
    /// unique minimum draws nothing.
    fn random_tie<L: LoadRead + ?Sized, R: Rng + ?Sized>(
        loads: &L,
        candidates: &[usize],
        min_load: u32,
        rng: &mut R,
    ) -> usize {
        // Fast path: a single candidate or a unique minimum.
        let mut tied = candidates
            .iter()
            .copied()
            .filter(|&s| loads.load(s) == min_load);
        let first = tied.next().expect("at least one candidate");
        let second = match tied.next() {
            None => return first,
            Some(s) => s,
        };
        // Reservoir-sample uniformly among all tied candidates.
        // `first` and `second` are already drawn; continue the scan.
        let mut chosen = first;
        for (extra, s) in std::iter::once(second).chain(tied).enumerate() {
            // `extra + 2` candidates seen so far, counting `first`.
            if rng.gen_range(0..extra + 2) == 0 {
                chosen = s;
            }
        }
        chosen
    }

    /// Tie resolution for the RNG-free policies (everything except
    /// [`TieBreak::Random`]) — shared by the per-ball path and the
    /// cross-ball [`Strategy::place_from_loads`] path, so the two can
    /// never disagree.
    fn deterministic_tie<S: Space, L: LoadRead + ?Sized>(
        space: &S,
        loads: &L,
        candidates: &[usize],
        min_load: u32,
        tie: TieBreak,
    ) -> usize {
        let mut tied = candidates
            .iter()
            .copied()
            .filter(|&s| loads.load(s) == min_load);
        let first = tied.next().expect("at least one candidate");
        match tie {
            TieBreak::Random => unreachable!("random tie-break consumes randomness"),
            TieBreak::LowestIndex => std::iter::once(first).chain(tied).min().expect("nonempty"),
            TieBreak::Leftmost => tied.fold(first, |best, s| {
                if space.position_key(s) < space.position_key(best) {
                    s
                } else {
                    best
                }
            }),
            TieBreak::SmallerRegion => tied.fold(first, |best, s| {
                if space.region_size(s) < space.region_size(best) {
                    s
                } else {
                    best
                }
            }),
            TieBreak::LargerRegion => tied.fold(first, |best, s| {
                if space.region_size(s) > space.region_size(best) {
                    s
                } else {
                    best
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{RingSpace, UniformSpace};
    use geo2c_util::rng::Xoshiro256pp;

    #[test]
    fn labels() {
        assert_eq!(Strategy::one_choice().label(), "d=1");
        assert_eq!(Strategy::two_choice().label(), "d=2");
        assert_eq!(
            Strategy::with_tie_break(2, TieBreak::SmallerRegion).label(),
            "d=2 arc-smaller"
        );
        assert_eq!(Strategy::voecking(3).label(), "voecking d=3");
        assert_eq!(Strategy::voecking(3).d(), 3);
        assert!(Strategy::voecking(3).is_split());
        assert!(!Strategy::two_choice().is_split());
    }

    #[test]
    fn tie_break_parsing() {
        assert_eq!(
            "arc-smaller".parse::<TieBreak>().unwrap(),
            TieBreak::SmallerRegion
        );
        assert_eq!("random".parse::<TieBreak>().unwrap(), TieBreak::Random);
        assert_eq!("arc-left".parse::<TieBreak>().unwrap(), TieBreak::Leftmost);
        assert!("bogus".parse::<TieBreak>().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one choice")]
    fn zero_choices_rejected() {
        let _ = Strategy::d_choice(0);
    }

    #[test]
    fn one_choice_ignores_loads() {
        // With d=1 the load vector must not influence the placement
        // distribution; the choice is just the probe's owner.
        let space = UniformSpace::new(4);
        let strategy = Strategy::one_choice();
        let mut rng = Xoshiro256pp::from_u64(1);
        let skewed = [1000u32, 0, 0, 0];
        let mut hits = [0u32; 4];
        for _ in 0..40_000 {
            hits[strategy.choose(&space, &skewed, &mut rng)] += 1;
        }
        for h in hits {
            assert!((f64::from(h) / 40_000.0 - 0.25).abs() < 0.02);
        }
    }

    #[test]
    fn d_choice_prefers_lower_load() {
        let space = UniformSpace::new(2);
        let strategy = Strategy::two_choice();
        let mut rng = Xoshiro256pp::from_u64(2);
        let loads = [5u32, 0];
        let mut to_light = 0u32;
        let trials = 10_000;
        for _ in 0..trials {
            if strategy.choose(&space, &loads, &mut rng) == 1 {
                to_light += 1;
            }
        }
        // Only when both probes hit bin 0 (prob 1/4) does the heavy bin win.
        let frac = f64::from(to_light) / f64::from(trials);
        assert!((frac - 0.75).abs() < 0.02, "light-bin fraction {frac}");
    }

    #[test]
    fn random_tie_break_is_uniform_over_tied() {
        let space = UniformSpace::new(2);
        let strategy = Strategy::two_choice();
        let mut rng = Xoshiro256pp::from_u64(3);
        let loads = [7u32, 7];
        let mut first = 0u32;
        let trials = 40_000;
        for _ in 0..trials {
            if strategy.choose(&space, &loads, &mut rng) == 0 {
                first += 1;
            }
        }
        let frac = f64::from(first) / f64::from(trials);
        assert!((frac - 0.5).abs() < 0.02, "bin-0 fraction {frac}");
    }

    #[test]
    fn lowest_index_tie_break_deterministic() {
        let space = UniformSpace::new(8);
        let strategy = Strategy::with_tie_break(4, TieBreak::LowestIndex);
        let mut rng = Xoshiro256pp::from_u64(4);
        let loads = [0u32; 8];
        for _ in 0..100 {
            // All loads zero: the lowest-index candidate must win.
            let mut probe_rng = rng.clone();
            let mut expected = usize::MAX;
            for _ in 0..4 {
                expected = expected.min(space.sample_owner(&mut probe_rng));
            }
            let got = strategy.choose(&space, &loads, &mut rng);
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn smaller_region_tie_break_prefers_small_arcs() {
        // Ring with one huge arc and small arcs: on ties, the small arc
        // owner must be selected over the huge one.
        use geo2c_ring::{RingPartition, RingPoint};
        let part = RingPartition::from_positions(vec![
            RingPoint::new(0.0),
            RingPoint::new(0.1),
            RingPoint::new(0.2),
        ]);
        // arcs: server0 ← (0.2, 0.0]: 0.8; server1 ← 0.1; server2 ← 0.1.
        let space = RingSpace::with_ownership(part, geo2c_ring::Ownership::Successor);
        let strategy = Strategy::with_tie_break(2, TieBreak::SmallerRegion);
        let loads = [0u32; 3];
        let mut rng = Xoshiro256pp::from_u64(5);
        let mut big_arc_hits = 0u32;
        let trials = 20_000;
        for _ in 0..trials {
            if strategy.choose(&space, &loads, &mut rng) == 0 {
                big_arc_hits += 1;
            }
        }
        // Server 0 is chosen only when both probes land on its own arc:
        // 0.8² = 0.64 (otherwise the tie goes to a smaller region).
        let frac = f64::from(big_arc_hits) / f64::from(trials);
        assert!((frac - 0.64).abs() < 0.02, "big-arc fraction {frac}");
    }

    #[test]
    fn larger_region_is_opposite_of_smaller() {
        use geo2c_ring::{RingPartition, RingPoint};
        let part = RingPartition::from_positions(vec![RingPoint::new(0.0), RingPoint::new(0.5)]);
        let space = RingSpace::with_ownership(part, geo2c_ring::Ownership::Successor);
        let loads = [0u32; 2];
        let mut rng = Xoshiro256pp::from_u64(6);
        // Arcs are exactly 0.5/0.5 — sizes tie, so both policies reduce to
        // first-candidate; just verify they run and stay in range.
        for tie in [TieBreak::SmallerRegion, TieBreak::LargerRegion] {
            let strategy = Strategy::with_tie_break(2, tie);
            for _ in 0..100 {
                assert!(strategy.choose(&space, &loads, &mut rng) < 2);
            }
        }
    }

    #[test]
    fn voecking_breaks_ties_left() {
        // Uniform 4 bins, d=2 divisions: division 0 = bins {0,1},
        // division 1 = bins {2,3}. On equal loads the division-0 bin wins.
        let space = UniformSpace::new(4);
        let strategy = Strategy::voecking(2);
        let loads = [0u32; 4];
        let mut rng = Xoshiro256pp::from_u64(7);
        for _ in 0..200 {
            let s = strategy.choose(&space, &loads, &mut rng);
            assert!(s < 2, "expected division-0 bin, got {s}");
        }
    }

    #[test]
    fn voecking_still_prefers_lower_load() {
        let space = UniformSpace::new(4);
        let strategy = Strategy::voecking(2);
        // Division 0 bins heavily loaded: division 1 must win.
        let loads = [9u32, 9, 0, 0];
        let mut rng = Xoshiro256pp::from_u64(8);
        for _ in 0..200 {
            let s = strategy.choose(&space, &loads, &mut rng);
            assert!(s >= 2, "expected division-1 bin, got {s}");
        }
    }

    #[test]
    fn large_d_uses_heap_path() {
        let space = UniformSpace::new(64);
        let strategy = Strategy::d_choice(12);
        let loads = [0u32; 64];
        let mut rng = Xoshiro256pp::from_u64(9);
        for _ in 0..50 {
            assert!(strategy.choose(&space, &loads, &mut rng) < 64);
        }
    }

    #[test]
    fn choose_and_choose_with_share_the_stream() {
        // The scratch-reusing engine path and the convenience path must
        // produce identical placements from identical RNG states.
        let mut rng = Xoshiro256pp::from_u64(10);
        let space = RingSpace::random(64, &mut rng);
        for strategy in [
            Strategy::one_choice(),
            Strategy::two_choice(),
            Strategy::d_choice(12),
            Strategy::with_tie_break(3, TieBreak::SmallerRegion),
            Strategy::voecking(2),
        ] {
            let mut a = Xoshiro256pp::from_u64(77);
            let mut b = a.clone();
            let mut scratch = ProbeScratch::for_strategy(&strategy);
            let mut loads = vec![0u32; 64];
            for _ in 0..200 {
                let x = strategy.choose(&space, &loads, &mut a);
                let y = strategy.choose_with(&space, &loads, &mut scratch, &mut b);
                assert_eq!(x, y, "{}", strategy.label());
                loads[x] += 1;
            }
        }
    }

    #[test]
    fn cross_ball_batching_eligibility() {
        // Contract v2: every independent-probe strategy batches — the
        // paper-default random tie-break included. Only the split scheme
        // (division-conditioned probes) stays per-ball.
        assert!(Strategy::one_choice().supports_cross_ball_batching());
        assert!(Strategy::two_choice().supports_cross_ball_batching());
        assert!(Strategy::d_choice(5).supports_cross_ball_batching());
        for tie in [
            TieBreak::Random,
            TieBreak::Leftmost,
            TieBreak::SmallerRegion,
            TieBreak::LargerRegion,
            TieBreak::LowestIndex,
        ] {
            assert!(Strategy::with_tie_break(3, tie).supports_cross_ball_batching());
        }
        assert!(!Strategy::voecking(2).supports_cross_ball_batching());
    }

    #[test]
    fn place_from_owners_matches_choose_with_on_predrawn_probes() {
        // For deterministic-tie strategies, resolving a pre-drawn owner
        // window must equal choose_with fed from an RNG that yields the
        // same probes (and consume no tie randomness: the tie lane's
        // state is asserted untouched via a sentinel clone).
        use rand::RngCore as _;
        let mut rng = Xoshiro256pp::from_u64(12);
        let space = RingSpace::random(32, &mut rng);
        for strategy in [
            Strategy::one_choice(),
            Strategy::with_tie_break(2, TieBreak::Leftmost),
            Strategy::with_tie_break(4, TieBreak::SmallerRegion),
        ] {
            let mut scratch = ProbeScratch::for_strategy(&strategy);
            let mut loads = vec![0u32; 32];
            let mut probe_rng = Xoshiro256pp::from_u64(13);
            for _ in 0..100 {
                let mut owners = vec![0usize; strategy.d()];
                let mut peek = probe_rng.clone();
                space.sample_owners_into(&mut peek, &mut owners);
                let mut tie_rng = geo2c_util::rng::SplitMix64::new(99);
                let sentinel = tie_rng.clone();
                let batched = strategy.place_from_loads(&space, &loads, &owners, &mut tie_rng);
                assert_eq!(
                    tie_rng.next_u64(),
                    sentinel.clone().next_u64(),
                    "{}: deterministic tie consumed tie randomness",
                    strategy.label()
                );
                let sequential = strategy.choose_with(&space, &loads, &mut scratch, &mut probe_rng);
                assert_eq!(batched, sequential, "{}", strategy.label());
                loads[batched] += 1;
            }
        }
    }

    #[test]
    fn place_from_owners_random_tie_is_uniform_over_tied() {
        // Contract v2: the random tie-break resolves from the supplied
        // tie lane, uniformly among tied candidates.
        let space = UniformSpace::new(4);
        let loads = [3u32, 0, 0, 7];
        let strategy = Strategy::with_tie_break(3, TieBreak::Random);
        let mut tie_rng = Xoshiro256pp::from_u64(5);
        let mut hits = [0u32; 4];
        let trials = 40_000;
        for _ in 0..trials {
            hits[strategy.place_from_loads(&space, &loads, &[1, 2, 3], &mut tie_rng)] += 1;
        }
        assert_eq!(hits[0], 0);
        assert_eq!(hits[3], 0, "non-minimum candidate chosen");
        for s in [1, 2] {
            let frac = f64::from(hits[s]) / f64::from(trials);
            assert!((frac - 0.5).abs() < 0.02, "server {s}: {frac}");
        }
        // A unique minimum never touches the tie lane.
        use rand::RngCore as _;
        let mut tie_rng = geo2c_util::rng::SplitMix64::new(1);
        let sentinel = tie_rng.clone();
        assert_eq!(
            strategy.place_from_loads(&space, &loads, &[0, 1, 3], &mut tie_rng),
            1
        );
        assert_eq!(tie_rng.next_u64(), sentinel.clone().next_u64());
    }

    #[test]
    #[should_panic(expected = "scratch sized for wrong d")]
    fn mismatched_scratch_rejected() {
        let space = UniformSpace::new(4);
        let mut rng = Xoshiro256pp::from_u64(11);
        let mut scratch = ProbeScratch::for_strategy(&Strategy::d_choice(3));
        let _ = Strategy::two_choice().choose_with(&space, &[0; 4], &mut scratch, &mut rng);
    }
}
