//! The paper-substrate bench suite behind `results/bench/`, driven by
//! the `run_benches` binary: owner lookups, least-of-`d` resolution and
//! `m = n` trials. Serving is timed by the repository benchmark
//! (`perfbench/`), one harness per question.
//!
//! Each bench is timed the way criterion does it (adaptive doubling
//! until a ~20 ms window, best of three windows), and the numbers are
//! persisted as a provenance-stamped [`geo2c_report::ResultSet`], so a
//! perf PR proves a speedup against a committed baseline instead of
//! asserting it.
//!
//! The suite deliberately benches only *public, stable* entry points
//! (`RingPartition::successor_index` via [`geo2c_core::space::RingSpace`],
//! `KdSites::owner`, `sim::run_trial`) so a baseline captured before a
//! refactor stays comparable with one captured after: same ids, same
//! workloads, different implementation. Implementation-level ablations
//! (grid vs brute force, fast successor vs binary search) are not
//! benched live: the oracles stay as the references of the
//! owner-equivalence proptests, and their speed evidence is archived in
//! `results/bench/before_pr3.json` and `before_pr4.json`.
//!
//! See the "Performance methodology" section of the README for the
//! workflow and the regression gate.

use geo2c_core::load::LoadRead;
use geo2c_core::sim::run_trial;
use geo2c_core::space::{KdTorusSpace, RingSpace, TorusSpace, UniformSpace};
use geo2c_core::strategy::{Strategy, TieBreak};
use geo2c_report::{Cell, ExperimentResult, ExperimentSpec, Json};
use geo2c_ring::RingPoint;
use geo2c_torus::kd::{KdPoint, KdSites};
use geo2c_util::rng::Xoshiro256pp;
use rand::RngCore as _;
use std::time::{Duration, Instant};

/// Target measurement window per repeat (criterion's default scale).
pub const MEASURE_WINDOW: Duration = Duration::from_millis(20);

/// Timed windows per benchmark; the best (lowest ns/iter) wins, which is
/// the standard defence against scheduler noise on a busy box.
pub const REPEATS: usize = 3;

/// One measurement: mean ns per iteration over the best window.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Nanoseconds per iteration (best window).
    pub ns_per_iter: f64,
    /// Iterations in the measured window.
    pub iters: u64,
}

/// Times `routine` adaptively: doubles the iteration count until a window
/// exceeds `window`, repeats `repeats` times, keeps the fastest window.
pub fn time_with<O, F: FnMut() -> O>(window: Duration, repeats: usize, mut routine: F) -> Timing {
    // Warm-up (and a correctness smoke run).
    std::hint::black_box(routine());
    let mut best = Timing {
        ns_per_iter: f64::INFINITY,
        iters: 0,
    };
    let mut iters: u64 = 1;
    for _ in 0..repeats.max(1) {
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= window || iters >= (1 << 24) {
                let ns = elapsed.as_nanos() as f64 / iters as f64;
                if ns < best.ns_per_iter {
                    best = Timing {
                        ns_per_iter: ns,
                        iters,
                    };
                }
                break;
            }
            iters = iters.saturating_mul(2);
        }
    }
    best
}

/// Which workload a benchmark runs (setup happens inside [`BenchDef::run`]
/// so suite construction stays free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BenchKind {
    /// Batch of successor-owner lookups on a random ring partition.
    RingOwner,
    /// Batch of nearest-site lookups on the `K`-torus (`K` ∈ {2, 3, 4};
    /// `K = 2` is the paper's torus).
    KdOwner { k: usize },
    /// Batch of [`geo2c_core::load::LoadRead::min_load_of`] least-of-d
    /// resolutions over a populated load vector — [`MIN_LOAD_D`] probes
    /// per query, wide enough to exercise the full unrolled lane-gather
    /// fold — against the flat `Vec<u32>` backing.
    MinLoad,
    /// One full `run_trial` (m = n insertions) on a fixed ring space.
    TrialRing { d: usize },
    /// One full `run_trial` on a fixed torus space.
    TrialTorus { d: usize },
    /// One full `run_trial` on a fixed 3-torus space (random tie-break:
    /// the per-ball probe-block engine path).
    TrialKd { d: usize },
    /// One full `run_trial` on a fixed 3-torus space with the arc-left
    /// tie-break (tie-break-free: the cross-ball batched engine path).
    TrialKdLeft { d: usize },
    /// One full `run_trial` on uniform bins (the RNG + load-vector floor).
    TrialUniform { d: usize },
}

/// Probes per `min_load_of` query in the [`BenchKind::MinLoad`] benches:
/// one full lane-gather block, the widest unrolled path.
const MIN_LOAD_D: usize = 8;

/// One batch of least-of-d resolutions on the flat backing.
fn min_load_queries(loads: &[u32], probes: &[usize]) -> u64 {
    probes
        .chunks_exact(MIN_LOAD_D)
        .map(|q| u64::from(loads.min_load_of(q)))
        .sum::<u64>()
}

/// Owner-lookup workload on the `K`-torus (monomorphized per dimension).
fn kd_owner_bench<const K: usize>(
    n: usize,
    elems: u64,
    rng: &mut Xoshiro256pp,
    window: Duration,
    repeats: usize,
) -> Timing {
    let sites = KdSites::<K>::random(n, rng);
    let queries: Vec<KdPoint<K>> = (0..elems).map(|_| KdPoint::random(rng)).collect();
    time_with(window, repeats, || {
        queries.iter().map(|q| sites.owner(q)).sum::<usize>()
    })
}

/// One benchmark of the persisted suite.
#[derive(Debug, Clone, Copy)]
pub struct BenchDef {
    /// Coordinate: bench family (`"substrate"` or `"trial"`).
    pub group: &'static str,
    /// Coordinate: bench name within the family.
    pub name: &'static str,
    /// Servers (`n = 2^exp`).
    pub exp: u32,
    /// Work items per iteration (owner lookups, or balls placed).
    pub elems: u64,
    kind: BenchKind,
}

impl BenchDef {
    /// `n = 2^exp`.
    #[must_use]
    pub fn n(&self) -> usize {
        1usize << self.exp
    }

    /// Stable human id, e.g. `substrate/ring_owner/2^20`.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}",
            self.group,
            self.name,
            crate::pow2_label(self.n())
        )
    }

    /// Runs the benchmark (setup + measurement) deterministically in
    /// `seed` up to timing noise.
    #[must_use]
    pub fn run(&self, seed: u64, window: Duration, repeats: usize) -> Timing {
        let n = self.n();
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        match self.kind {
            BenchKind::RingOwner => {
                let space = RingSpace::random(n, &mut rng);
                let queries: Vec<RingPoint> = (0..self.elems)
                    .map(|_| RingPoint::random(&mut rng))
                    .collect();
                time_with(window, repeats, || {
                    queries.iter().map(|&q| space.owner_of(q)).sum::<usize>()
                })
            }
            BenchKind::KdOwner { k } => match k {
                2 => kd_owner_bench::<2>(n, self.elems, &mut rng, window, repeats),
                3 => kd_owner_bench::<3>(n, self.elems, &mut rng, window, repeats),
                4 => kd_owner_bench::<4>(n, self.elems, &mut rng, window, repeats),
                other => panic!("no K = {other} owner bench instantiated"),
            },
            BenchKind::MinLoad => {
                // Loads 0..=14: the load vector the committed cells measured.
                let loads: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 15) as u32).collect();
                let probes: Vec<usize> = (0..self.elems as usize * MIN_LOAD_D)
                    .map(|_| (rng.next_u64() % n as u64) as usize)
                    .collect();
                time_with(window, repeats, || min_load_queries(&loads, &probes))
            }
            BenchKind::TrialRing { d } => {
                let space = RingSpace::random(n, &mut rng);
                let strategy = Strategy::d_choice(d);
                time_with(window, repeats, || {
                    run_trial(&space, &strategy, n, &mut rng).max_load
                })
            }
            BenchKind::TrialTorus { d } => {
                let space = TorusSpace::random(n, &mut rng);
                let strategy = Strategy::d_choice(d);
                time_with(window, repeats, || {
                    run_trial(&space, &strategy, n, &mut rng).max_load
                })
            }
            BenchKind::TrialKd { d } => {
                let space = KdTorusSpace::<3>::random(n, &mut rng);
                let strategy = Strategy::d_choice(d);
                time_with(window, repeats, || {
                    run_trial(&space, &strategy, n, &mut rng).max_load
                })
            }
            BenchKind::TrialKdLeft { d } => {
                let space = KdTorusSpace::<3>::random(n, &mut rng);
                let strategy = Strategy::with_tie_break(d, TieBreak::Leftmost);
                time_with(window, repeats, || {
                    run_trial(&space, &strategy, n, &mut rng).max_load
                })
            }
            BenchKind::TrialUniform { d } => {
                let space = UniformSpace::new(n);
                let strategy = Strategy::d_choice(d);
                time_with(window, repeats, || {
                    run_trial(&space, &strategy, n, &mut rng).max_load
                })
            }
        }
    }
}

/// A named parameter set for the persisted bench suite. The two scales
/// write different baseline files (`results/bench/baseline.json` vs
/// `results/bench/quick.json`) and are never compared with each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchScale {
    /// Scale name (also the baseline file stem).
    pub name: &'static str,
    /// Ring owner-lookup size exponent.
    pub ring_exp: u32,
    /// Torus owner-lookup size exponent.
    pub torus_exp: u32,
    /// `K`-torus owner-lookup size exponent (K ∈ {3, 4}).
    pub kd_exp: u32,
    /// End-to-end ring trial size exponent.
    pub trial_ring_exp: u32,
    /// End-to-end torus trial size exponent.
    pub trial_torus_exp: u32,
    /// End-to-end 3-torus trial size exponent.
    pub trial_kd_exp: u32,
    /// Owner lookups per iteration for the substrate benches.
    pub queries: u64,
}

/// CI scale: runs in a few seconds on one core.
pub const QUICK: BenchScale = BenchScale {
    name: "quick",
    ring_exp: 12,
    torus_exp: 10,
    kd_exp: 10,
    trial_ring_exp: 12,
    trial_torus_exp: 10,
    trial_kd_exp: 9,
    queries: 4096,
};

/// Baseline scale: the committed before/after evidence (`n` large enough
/// that the owner-lookup asymptotics dominate; tens of seconds).
pub const FULL: BenchScale = BenchScale {
    name: "full",
    ring_exp: 20,
    torus_exp: 16,
    kd_exp: 16,
    trial_ring_exp: 20,
    trial_torus_exp: 16,
    trial_kd_exp: 13,
    queries: 4096,
};

impl BenchScale {
    /// Looks a scale up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<&'static BenchScale> {
        [&QUICK, &FULL].into_iter().find(|s| s.name == name)
    }

    /// The benchmark suite at this scale, in run order.
    #[must_use]
    pub fn suite(&self) -> Vec<BenchDef> {
        vec![
            BenchDef {
                group: "substrate",
                name: "ring_owner",
                exp: self.ring_exp,
                elems: self.queries,
                kind: BenchKind::RingOwner,
            },
            BenchDef {
                group: "substrate",
                name: "torus_owner",
                exp: self.torus_exp,
                elems: self.queries,
                kind: BenchKind::KdOwner { k: 2 },
            },
            BenchDef {
                group: "substrate",
                name: "kd3_owner",
                exp: self.kd_exp,
                elems: self.queries,
                kind: BenchKind::KdOwner { k: 3 },
            },
            BenchDef {
                group: "substrate",
                name: "kd4_owner",
                exp: self.kd_exp,
                elems: self.queries,
                kind: BenchKind::KdOwner { k: 4 },
            },
            // The least-of-d resolver in isolation: 8-wide `min_load_of`
            // queries over a populated load vector at the big-trial n.
            BenchDef {
                group: "substrate",
                name: "min_load_flat",
                exp: self.trial_ring_exp,
                elems: self.queries,
                kind: BenchKind::MinLoad,
            },
            BenchDef {
                group: "trial",
                name: "ring_d2_random",
                exp: self.trial_ring_exp,
                elems: 1u64 << self.trial_ring_exp,
                kind: BenchKind::TrialRing { d: 2 },
            },
            BenchDef {
                group: "trial",
                name: "torus_d2_random",
                exp: self.trial_torus_exp,
                elems: 1u64 << self.trial_torus_exp,
                kind: BenchKind::TrialTorus { d: 2 },
            },
            BenchDef {
                group: "trial",
                name: "kd3_d2_random",
                exp: self.trial_kd_exp,
                elems: 1u64 << self.trial_kd_exp,
                kind: BenchKind::TrialKd { d: 2 },
            },
            BenchDef {
                group: "trial",
                name: "kd3_d2_left",
                exp: self.trial_kd_exp,
                elems: 1u64 << self.trial_kd_exp,
                kind: BenchKind::TrialKdLeft { d: 2 },
            },
            BenchDef {
                group: "trial",
                name: "uniform_d2_random",
                exp: self.trial_ring_exp,
                elems: 1u64 << self.trial_ring_exp,
                kind: BenchKind::TrialUniform { d: 2 },
            },
        ]
    }
}

/// Whether a bench id matches a comma-separated substring filter
/// (`None` matches everything) — the `--only` semantics shared by the
/// diff gate and the run mode.
#[must_use]
pub fn matches_only(id: &str, only: Option<&str>) -> bool {
    match only {
        None => true,
        Some(patterns) => patterns
            .split(',')
            .any(|pat| !pat.is_empty() && id.contains(pat)),
    }
}

/// Runs the benches at `scale` whose id matches the comma-separated
/// `only` filter (`None` runs the whole suite — a filter is for
/// iterating on one hot path and for subset `--check`s) and packages
/// them as an [`ExperimentResult`] (spec id `"bench"`), one cell per
/// benchmark with `ns_per_iter`, `elems_per_s`, and `iters` metrics.
#[must_use]
pub fn run_bench_suite_only(
    scale: &BenchScale,
    seed: u64,
    window: Duration,
    repeats: usize,
    only: Option<&str>,
) -> ExperimentResult {
    let suite: Vec<BenchDef> = scale
        .suite()
        .into_iter()
        .filter(|b| matches_only(&b.id(), only))
        .collect();
    let spec = ExperimentSpec::new(
        "bench",
        "Hot-path micro-benchmarks (criterion-shim-style ns/iter)",
    )
    .trials(repeats)
    .seed(seed)
    .param("scale", Json::str(scale.name))
    .param("window_ms", Json::from_u64(window.as_millis() as u64))
    .param(
        "benches",
        Json::Arr(suite.iter().map(|b| Json::str(b.id())).collect()),
    );
    let mut result = ExperimentResult::new(spec);
    for bench in &suite {
        eprintln!("  running {} ...", bench.id());
        let timing = bench.run(seed, window, repeats);
        let elems_per_s = bench.elems as f64 / (timing.ns_per_iter / 1e9);
        result.push(
            Cell::new()
                .coord("group", Json::str(bench.group))
                .coord("name", Json::str(bench.name))
                .coord("n", Json::from_usize(bench.n()))
                .metric("elems", Json::from_u64(bench.elems))
                .metric("ns_per_iter", Json::num(timing.ns_per_iter))
                .metric("elems_per_s", Json::num(elems_per_s))
                .metric("iters", Json::from_u64(timing.iters)),
        );
    }
    result
}

/// Reads a named `f64` metric off a cell.
#[must_use]
pub fn metric_f64(cell: &Cell, key: &str) -> Option<f64> {
    cell.metrics
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_f64())
}

/// One before/after (or fresh/committed) pairing of the same benchmark.
#[derive(Debug, Clone)]
pub struct BenchComparison {
    /// Cell label (`group=…, name=…, n=…`).
    pub id: String,
    /// ns/iter on the left side (fresh run, or "after" file).
    pub left_ns: f64,
    /// ns/iter on the right side (committed baseline, or "before" file).
    pub right_ns: f64,
}

impl BenchComparison {
    /// `right / left`: >1 means the left side is faster (a speedup).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.right_ns / self.left_ns
    }

    /// `(left - right) / right` in percent: >0 means the left side is
    /// slower (a regression against the right side).
    #[must_use]
    pub fn regression_pct(&self) -> f64 {
        (self.left_ns - self.right_ns) / self.right_ns * 100.0
    }
}

/// Pairs the cells of two bench results by coordinates. Returns the
/// pairings plus the labels present on only one side (either direction is
/// a structural mismatch the caller should surface).
#[must_use]
pub fn pair_benches(
    left: &ExperimentResult,
    right: &ExperimentResult,
) -> (Vec<BenchComparison>, Vec<String>) {
    let mut pairs = Vec::new();
    let mut unmatched = Vec::new();
    for lcell in &left.cells {
        match right.cells.iter().find(|r| r.coords == lcell.coords) {
            Some(rcell) => {
                if let (Some(l), Some(r)) = (
                    metric_f64(lcell, "ns_per_iter"),
                    metric_f64(rcell, "ns_per_iter"),
                ) {
                    pairs.push(BenchComparison {
                        id: lcell.label(),
                        left_ns: l,
                        right_ns: r,
                    });
                } else {
                    unmatched.push(format!("{}: missing ns_per_iter metric", lcell.label()));
                }
            }
            None => unmatched.push(format!("{}: only on one side", lcell.label())),
        }
    }
    for rcell in &right.cells {
        if !left.cells.iter().any(|l| l.coords == rcell.coords) {
            unmatched.push(format!("{}: only on one side", rcell.label()));
        }
    }
    (pairs, unmatched)
}

/// Human-readable ns with sensible precision.
#[must_use]
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scale tiny enough to measure in milliseconds.
    const TINY: BenchScale = BenchScale {
        name: "tiny",
        ring_exp: 4,
        torus_exp: 3,
        kd_exp: 3,
        trial_ring_exp: 4,
        trial_torus_exp: 3,
        trial_kd_exp: 3,
        queries: 16,
    };

    fn tiny_run(seed: u64) -> ExperimentResult {
        run_bench_suite_only(&TINY, seed, Duration::from_micros(200), 1, None)
    }

    #[test]
    fn timer_measures_something() {
        let mut x = 0u64;
        let t = time_with(Duration::from_micros(100), 2, || {
            x = x.wrapping_add(1);
            x
        });
        assert!(t.ns_per_iter > 0.0);
        assert!(t.iters > 0);
    }

    #[test]
    fn suite_produces_one_cell_per_bench() {
        let result = tiny_run(1);
        assert_eq!(result.spec.id, "bench");
        assert_eq!(result.cells.len(), TINY.suite().len());
        for cell in &result.cells {
            let ns = metric_f64(cell, "ns_per_iter").expect("ns metric");
            assert!(ns.is_finite() && ns > 0.0, "{}: {ns}", cell.label());
            assert!(metric_f64(cell, "elems_per_s").expect("rate") > 0.0);
        }
    }

    #[test]
    fn bench_ids_are_stable_and_scoped() {
        let ids: Vec<String> = FULL.suite().iter().map(BenchDef::id).collect();
        assert!(ids.contains(&"substrate/ring_owner/2^20".to_string()));
        assert!(ids.contains(&"trial/ring_d2_random/2^20".to_string()));
        assert!(ids.contains(&"trial/torus_d2_random/2^16".to_string()));
        assert!(ids.contains(&"substrate/kd3_owner/2^16".to_string()));
        assert!(ids.contains(&"substrate/kd4_owner/2^16".to_string()));
        assert!(ids.contains(&"substrate/min_load_flat/2^20".to_string()));
        assert!(ids.contains(&"trial/kd3_d2_random/2^13".to_string()));
        assert!(ids.contains(&"trial/kd3_d2_left/2^13".to_string()));
        assert_eq!(BenchScale::by_name("quick"), Some(&QUICK));
        assert_eq!(BenchScale::by_name("full"), Some(&FULL));
        assert_eq!(BenchScale::by_name("nope"), None);
        // Quick and full share bench (group, name) pairs so the two
        // baseline files stay structurally parallel.
        let names = |s: &BenchScale| {
            s.suite()
                .iter()
                .map(|b| (b.group, b.name))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&QUICK), names(&FULL));
    }

    #[test]
    fn pairing_matches_by_coords_and_flags_mismatch() {
        let a = tiny_run(2);
        let b = tiny_run(3);
        let (pairs, unmatched) = pair_benches(&a, &b);
        assert_eq!(pairs.len(), a.cells.len());
        assert!(unmatched.is_empty(), "{unmatched:?}");
        for p in &pairs {
            assert!(p.speedup() > 0.0);
            assert!(p.regression_pct().is_finite());
        }

        let mut truncated = b.clone();
        truncated.cells.pop();
        let (pairs, unmatched) = pair_benches(&a, &truncated);
        assert_eq!(pairs.len(), a.cells.len() - 1);
        assert_eq!(unmatched.len(), 1);
    }

    #[test]
    fn comparison_math() {
        let c = BenchComparison {
            id: "x".into(),
            left_ns: 50.0,
            right_ns: 100.0,
        };
        assert!((c.speedup() - 2.0).abs() < 1e-12);
        assert!((c.regression_pct() + 50.0).abs() < 1e-12);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
    }
}
