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

    /// Chooses the destination for one ball whose `d` probe owners were
    /// already drawn (one window of a cross-ball block), resolving load
    /// ties through `tie_rng` — under contract v2, the ball's private
    /// tie lane. This is how every independent-probe ball is placed.
    /// Deterministic tie-breaks and the `d = 1` baseline never touch
    /// `tie_rng`; [`TieBreak::Random`] reservoir-samples uniformly among
    /// the tied candidates from it (and draws nothing when the minimum
    /// is unique). Duplicate owners (the same server probed twice) are
    /// legal and count as one candidate, as in the paper's model.
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

    /// Places one ball by Vöcking's split scheme, drawing from `rng`:
    /// probe `j` is [`Space::sample_owner_in_division`]`(rng, j, d)` for
    /// `j` in `0..d`, and only a strictly smaller load replaces the best
    /// so far, so ties stay with the lowest division. The split scheme's
    /// probes are division-conditioned and have no lane form, so
    /// [`crate::sim::run_trial`] places its balls here, one at a time on
    /// the trial stream.
    ///
    /// # Panics
    /// Panics for an independent-probe strategy, which is placed through
    /// [`Strategy::place_from_loads`].
    pub(crate) fn place_split<S: Space, L: LoadRead + ?Sized, R: Rng + ?Sized>(
        &self,
        space: &S,
        loads: &L,
        rng: &mut R,
    ) -> usize {
        let ChoiceRule::SplitAlwaysLeft { d } = self.rule else {
            panic!("independent probes are placed through place_from_loads")
        };
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

    /// Uniform tie resolution among minimum-load candidates via
    /// reservoir sampling — the [`TieBreak::Random`] arm of
    /// [`Strategy::place_from_loads`], drawing from the ball's tie lane.
    /// The draw pattern is part of stream contract v2: with `k ≥ 2` tied
    /// candidates, one `gen_range(0..j)` draw per `j ∈ {2..=k}`, in
    /// candidate order; a unique minimum draws nothing.
    ///
    /// Both tie arms stay out of line: inlined into
    /// [`Strategy::place_from_loads`], they bloat the engines' per-ball
    /// resolution loop, which then ran 6–14% slower on 2^20-bin uniform
    /// trials (2-vCPU Xeon).
    #[inline(never)]
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
    /// [`TieBreak::Random`]) in [`Strategy::place_from_loads`].
    #[inline(never)]
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

    /// Places one ball: Vöcking's split probes through
    /// [`Strategy::place_split`]; otherwise `d` owners drawn with
    /// `sample_owner` and resolved by [`Strategy::place_from_loads`] with
    /// ties drawn from the same `rng`.
    fn place<S: Space>(
        strategy: &Strategy,
        space: &S,
        loads: &[u32],
        rng: &mut Xoshiro256pp,
    ) -> usize {
        if strategy.is_split() {
            return strategy.place_split(space, loads, rng);
        }
        let owners: Vec<usize> = (0..strategy.d()).map(|_| space.sample_owner(rng)).collect();
        strategy.place_from_loads(space, loads, &owners, rng)
    }

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
            hits[place(&strategy, &space, &skewed, &mut rng)] += 1;
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
            if place(&strategy, &space, &loads, &mut rng) == 1 {
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
            if place(&strategy, &space, &loads, &mut rng) == 0 {
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
            let got = place(&strategy, &space, &loads, &mut rng);
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
        let space = RingSpace::from_partition(part);
        let strategy = Strategy::with_tie_break(2, TieBreak::SmallerRegion);
        let loads = [0u32; 3];
        let mut rng = Xoshiro256pp::from_u64(5);
        let mut big_arc_hits = 0u32;
        let trials = 20_000;
        for _ in 0..trials {
            if place(&strategy, &space, &loads, &mut rng) == 0 {
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
        let space = RingSpace::from_partition(part);
        let loads = [0u32; 2];
        let mut rng = Xoshiro256pp::from_u64(6);
        // Arcs are exactly 0.5/0.5 — sizes tie, so both policies reduce to
        // first-candidate; just verify they run and stay in range.
        for tie in [TieBreak::SmallerRegion, TieBreak::LargerRegion] {
            let strategy = Strategy::with_tie_break(2, tie);
            for _ in 0..100 {
                assert!(place(&strategy, &space, &loads, &mut rng) < 2);
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
            let s = place(&strategy, &space, &loads, &mut rng);
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
            let s = place(&strategy, &space, &loads, &mut rng);
            assert!(s >= 2, "expected division-1 bin, got {s}");
        }
    }

    #[test]
    fn large_d_uses_heap_path() {
        // Twelve probes per ball, more than any table uses.
        let space = UniformSpace::new(64);
        let strategy = Strategy::d_choice(12);
        let loads = [0u32; 64];
        let mut rng = Xoshiro256pp::from_u64(9);
        for _ in 0..50 {
            assert!(place(&strategy, &space, &loads, &mut rng) < 64);
        }
    }

    #[test]
    fn deterministic_ties_draw_nothing_from_the_tie_lane() {
        // Every policy but the random one resolves ties from the loads
        // and the geometry alone: the tie lane is left untouched, and
        // the winner is always a minimum-load owner of the window.
        use rand::RngCore as _;
        let mut rng = Xoshiro256pp::from_u64(12);
        let space = RingSpace::random(32, &mut rng);
        for strategy in [
            Strategy::one_choice(),
            Strategy::with_tie_break(2, TieBreak::Leftmost),
            Strategy::with_tie_break(4, TieBreak::SmallerRegion),
            Strategy::with_tie_break(3, TieBreak::LargerRegion),
            Strategy::with_tie_break(3, TieBreak::LowestIndex),
        ] {
            let mut loads = vec![0u32; 32];
            for _ in 0..100 {
                let owners: Vec<usize> = (0..strategy.d())
                    .map(|_| space.sample_owner(&mut rng))
                    .collect();
                let mut tie_rng = geo2c_util::rng::SplitMix64::new(99);
                let sentinel = tie_rng.clone();
                let dest = strategy.place_from_loads(&space, &loads, &owners, &mut tie_rng);
                assert_eq!(
                    tie_rng.next_u64(),
                    sentinel.clone().next_u64(),
                    "{}: deterministic tie consumed tie randomness",
                    strategy.label()
                );
                let min = owners.iter().map(|&s| loads[s]).min().unwrap();
                assert!(
                    owners.contains(&dest) && loads[dest] == min,
                    "{}",
                    strategy.label()
                );
                loads[dest] += 1;
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
    #[should_panic(expected = "owner block sized for wrong d")]
    fn wrong_owner_window_rejected() {
        let space = UniformSpace::new(4);
        let mut tie_rng = Xoshiro256pp::from_u64(11);
        let _ =
            Strategy::two_choice().place_from_loads(&space, &[0u32; 4], &[0, 1, 2], &mut tie_rng);
    }
}
