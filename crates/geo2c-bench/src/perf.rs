//! The hot-path bench suite behind `results/bench/`, driven by the
//! `run_benches` binary — the workspace's only bench harness.
//!
//! Each bench is timed the way criterion does it (adaptive doubling
//! until a ~20 ms window, best of three windows), and the numbers are
//! persisted as a provenance-stamped [`geo2c_report::ResultSet`], so a
//! perf PR proves a speedup against a committed baseline instead of
//! asserting it.
//!
//! The suite deliberately benches only *public, stable* entry points
//! (`RingPartition::owner` via [`geo2c_core::space::RingSpace`],
//! `TorusSites::owner`, `sim::run_trial`) so a baseline captured before a
//! refactor stays comparable with one captured after: same ids, same
//! workloads, different implementation. Implementation-level ablations
//! (grid vs brute force, fast successor vs binary search) are not
//! benched live: the oracles stay as the references of the
//! owner-equivalence proptests, and their speed evidence is archived in
//! `results/bench/before_pr3.json` and `before_pr4.json`.
//!
//! See the "Performance methodology" section of the README for the
//! workflow and the regression gate.

use geo2c_core::load::{LoadRead, LoadState, PackedLoads, ShardedLoads};
use geo2c_core::sim::{run_trial, run_trial_into};
use geo2c_core::space::{KdTorusSpace, RingSpace, TorusSpace, UniformSpace};
use geo2c_core::strategy::{Strategy, TieBreak};
use geo2c_report::{Cell, ExperimentResult, ExperimentSpec, Json};
use geo2c_ring::RingPoint;
use geo2c_serve::{DurableEngine, FaultPlan, ServeConfig, ServeEngine, SessionLife};
use geo2c_torus::kd::{KdPoint, KdSites};
use geo2c_torus::TorusPoint;
use geo2c_util::rng::{BallLanes, Xoshiro256pp};
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

/// [`time_with`] at the standard window and repeat count.
pub fn time<O, F: FnMut() -> O>(routine: F) -> Timing {
    time_with(MEASURE_WINDOW, REPEATS, routine)
}

/// Which workload a benchmark runs (setup happens inside [`BenchDef::run`]
/// so suite construction stays free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BenchKind {
    /// Batch of successor-owner lookups on a random ring partition.
    RingOwner,
    /// Batch of nearest-site lookups on random torus sites.
    TorusOwner,
    /// Batch of nearest-site lookups on the `K`-torus (`K` ∈ {3, 4}).
    KdOwner { k: usize },
    /// Batch of [`geo2c_core::load::LoadRead::min_load_of`] least-of-d
    /// resolutions over a populated load vector — [`MIN_LOAD_D`] probes
    /// per query, wide enough to exercise the full unrolled lane-gather
    /// fold — against the flat or the nibble-packed backing.
    MinLoad { packed: bool },
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
    /// One serving run (`geo2c-serve`): 4n arrival events with
    /// exponential departures (mean life n) on a fixed ring space —
    /// the heap-draining, admission-controlled variant of `TrialRing`.
    TrialServe { d: usize },
    /// The `TrialServe` workload under a region outage: a quarter of the
    /// ring crashes at `n` events and recovers at `3n`, with a retry
    /// budget of 1 — the fault-application, eager-purge, and retry-lane
    /// overheads on top of `serving_d2_random`.
    TrialServeFaults { d: usize },
    /// The `TrialServe` workload under the durability discipline
    /// (`geo2c_serve::DurableEngine`): engine creation (seed checkpoint
    /// and journal header), the write-ahead journal frames, and one
    /// full steady-state checkpoint at the run's end boundary — the
    /// fsync-free journaling overhead on top of `serving_d2_random`,
    /// gated in `ci.sh`.
    TrialServeJournaled { d: usize },
    /// One full laned trial on uniform bins against an alternative
    /// load-state backing (`run_trial_into`): the `TrialUniform` workload
    /// with the flat `Vec<u32>` swapped for a packed/sharded backing.
    TrialScaling { d: usize, backing: ScalingBacking },
}

/// Probes per `min_load_of` query in the [`BenchKind::MinLoad`] benches:
/// one full lane-gather block, the widest unrolled path.
const MIN_LOAD_D: usize = 8;

/// One batch of least-of-d resolutions, monomorphized per backing so the
/// bench times the real (inlined) fast path, not a vtable.
fn min_load_queries<S: LoadRead>(state: &S, probes: &[usize]) -> u64 {
    probes
        .chunks_exact(MIN_LOAD_D)
        .map(|q| u64::from(state.min_load_of(q)))
        .sum::<u64>()
}

/// Which load-state backing a `TrialScaling` bench drives. `Flat` runs
/// the same `Vec<u32>` engine as `uniform_d2_random` so the `scaling_*`
/// trio diffs self-contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalingBacking {
    Flat,
    PackedNibble,
    Sharded,
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
            BenchKind::TorusOwner => {
                let space = TorusSpace::random(n, &mut rng);
                let queries: Vec<TorusPoint> = (0..self.elems)
                    .map(|_| TorusPoint::random(&mut rng))
                    .collect();
                time_with(window, repeats, || {
                    queries
                        .iter()
                        .map(|&q| space.sites().owner(q))
                        .sum::<usize>()
                })
            }
            BenchKind::KdOwner { k } => match k {
                3 => kd_owner_bench::<3>(n, self.elems, &mut rng, window, repeats),
                4 => kd_owner_bench::<4>(n, self.elems, &mut rng, window, repeats),
                other => panic!("no K = {other} owner bench instantiated"),
            },
            BenchKind::MinLoad { packed } => {
                // Loads stay below the nibble ceiling so both backings
                // resolve the identical vector.
                let loads: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 15) as u32).collect();
                let probes: Vec<usize> = (0..self.elems as usize * MIN_LOAD_D)
                    .map(|_| (rng.next_u64() % n as u64) as usize)
                    .collect();
                if packed {
                    let mut state = PackedLoads::nibble(n);
                    for (s, &l) in loads.iter().enumerate() {
                        if l != 0 {
                            state.set(s, l);
                        }
                    }
                    time_with(window, repeats, || min_load_queries(&state, &probes))
                } else {
                    time_with(window, repeats, || min_load_queries(&loads, &probes))
                }
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
            BenchKind::TrialServe { d } => {
                let space = RingSpace::random(n, &mut rng);
                let config = ServeConfig {
                    strategy: Strategy::d_choice(d),
                    capacity: None,
                    life: SessionLife::Exponential { mean: n as f64 },
                    retries: 0,
                };
                let events = self.elems;
                let root = rng.next_u64();
                time_with(window, repeats, || {
                    let mut engine = ServeEngine::new(space.clone(), config, root);
                    engine.run(events);
                    engine.peak_load()
                })
            }
            BenchKind::TrialServeFaults { d } => {
                let space = RingSpace::random(n, &mut rng);
                let config = ServeConfig {
                    strategy: Strategy::d_choice(d),
                    capacity: None,
                    life: SessionLife::Exponential { mean: n as f64 },
                    retries: 1,
                };
                let events = self.elems;
                let plan = FaultPlan::region_outage(
                    n,
                    0,
                    (n / 4).max(1),
                    events / 4,
                    Some(3 * events / 4),
                );
                let root = rng.next_u64();
                time_with(window, repeats, || {
                    let mut engine = ServeEngine::new(space.clone(), config, root);
                    engine.run_with_faults(events, &plan);
                    engine.peak_load()
                })
            }
            BenchKind::TrialServeJournaled { d } => {
                let space = RingSpace::random(n, &mut rng);
                let config = ServeConfig {
                    strategy: Strategy::d_choice(d),
                    capacity: None,
                    life: SessionLife::Exponential { mean: n as f64 },
                    retries: 0,
                };
                let events = self.elems;
                // One checkpoint interval per run: each iteration pays
                // the seed image, `events / every = 1` full checkpoint
                // of ~n in-flight sessions, and the journal frames —
                // the per-interval durability cost, amortized over a
                // whole interval of serving, exactly as deployed.
                let every = events;
                let root = rng.next_u64();
                // The bench times the fsync-free journaling discipline
                // (codec + framing + atomic-rename protocol), not the
                // host's disk dentry latency, so scratch space prefers
                // a memory-backed filesystem when one is mounted.
                let shm = std::path::Path::new("/dev/shm");
                let scratch = if shm.is_dir() {
                    shm.to_path_buf()
                } else {
                    std::env::temp_dir()
                };
                let dir = scratch.join(format!(
                    "geo2c-bench-journal-{}-{root:016x}",
                    std::process::id()
                ));
                let timing = time_with(window, repeats, || {
                    let mut engine =
                        DurableEngine::create(&dir, space.clone(), config, root, every)
                            .expect("journal dir");
                    engine
                        .run_journaled(events, &FaultPlan::empty())
                        .expect("journaled run");
                    engine.engine().peak_load()
                });
                let _ = std::fs::remove_dir_all(&dir);
                timing
            }
            BenchKind::TrialScaling { d, backing } => {
                let space = UniformSpace::new(n);
                let strategy = Strategy::d_choice(d);
                match backing {
                    ScalingBacking::Flat => time_with(window, repeats, || {
                        run_trial(&space, &strategy, n, &mut rng).max_load
                    }),
                    ScalingBacking::PackedNibble => time_with(window, repeats, || {
                        let lanes = BallLanes::new(rng.next_u64());
                        let mut loads = PackedLoads::nibble(n);
                        run_trial_into(&space, &strategy, n, &lanes, &mut loads)
                    }),
                    ScalingBacking::Sharded => time_with(window, repeats, || {
                        let lanes = BallLanes::new(rng.next_u64());
                        let mut loads = ShardedLoads::byte(n);
                        run_trial_into(&space, &strategy, n, &lanes, &mut loads)
                    }),
                }
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
    /// Serving trial size exponent (4n events per iteration).
    pub trial_serve_exp: u32,
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
    trial_serve_exp: 10,
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
    trial_serve_exp: 14,
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
                kind: BenchKind::TorusOwner,
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
            // The least-of-d resolver in isolation, flat vs nibble-packed
            // (the ROADMAP "SIMD-width compare" item, measured): 8-wide
            // `min_load_of` queries over a populated load vector at the
            // big-trial n.
            BenchDef {
                group: "substrate",
                name: "min_load_flat",
                exp: self.trial_ring_exp,
                elems: self.queries,
                kind: BenchKind::MinLoad { packed: false },
            },
            BenchDef {
                group: "substrate",
                name: "min_load_packed",
                exp: self.trial_ring_exp,
                elems: self.queries,
                kind: BenchKind::MinLoad { packed: true },
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
            // The load-state backing trio at the same n as
            // `uniform_d2_random`, so flat-vs-packed diffs directly.
            BenchDef {
                group: "trial",
                name: "scaling_flat",
                exp: self.trial_ring_exp,
                elems: 1u64 << self.trial_ring_exp,
                kind: BenchKind::TrialScaling {
                    d: 2,
                    backing: ScalingBacking::Flat,
                },
            },
            BenchDef {
                group: "trial",
                name: "scaling_packed",
                exp: self.trial_ring_exp,
                elems: 1u64 << self.trial_ring_exp,
                kind: BenchKind::TrialScaling {
                    d: 2,
                    backing: ScalingBacking::PackedNibble,
                },
            },
            BenchDef {
                group: "trial",
                name: "scaling_sharded",
                exp: self.trial_ring_exp,
                elems: 1u64 << self.trial_ring_exp,
                kind: BenchKind::TrialScaling {
                    d: 2,
                    backing: ScalingBacking::Sharded,
                },
            },
            BenchDef {
                group: "trial",
                name: "serving_d2_random",
                exp: self.trial_serve_exp,
                elems: 4u64 << self.trial_serve_exp,
                kind: BenchKind::TrialServe { d: 2 },
            },
            // The same serving workload under a region outage + retry
            // budget, so the resilience layer's overhead diffs directly
            // against serving_d2_random.
            BenchDef {
                group: "trial",
                name: "serving_faults_d2",
                exp: self.trial_serve_exp,
                elems: 4u64 << self.trial_serve_exp,
                kind: BenchKind::TrialServeFaults { d: 2 },
            },
            // The same serving workload under the checkpoint/journal
            // discipline (4 checkpoints per run), so the durability
            // layer's overhead diffs directly against serving_d2_random;
            // ci.sh gates the ratio at 1.25x.
            BenchDef {
                group: "trial",
                name: "serving_d2_journaled",
                exp: self.trial_serve_exp,
                elems: 4u64 << self.trial_serve_exp,
                kind: BenchKind::TrialServeJournaled { d: 2 },
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

/// Runs the suite at `scale` and packages it as an [`ExperimentResult`]
/// (spec id `"bench"`), one cell per benchmark with `ns_per_iter`,
/// `elems_per_s`, and `iters` metrics.
#[must_use]
pub fn run_bench_suite(
    scale: &BenchScale,
    seed: u64,
    window: Duration,
    repeats: usize,
) -> ExperimentResult {
    run_bench_suite_only(scale, seed, window, repeats, None)
}

/// [`run_bench_suite`] restricted to the benches whose id matches the
/// comma-separated `only` filter — for iterating on one hot path (and
/// for subset `--check`s) without paying for the whole suite.
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
        trial_serve_exp: 3,
        queries: 16,
    };

    fn tiny_run(seed: u64) -> ExperimentResult {
        run_bench_suite(&TINY, seed, Duration::from_micros(200), 1)
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
        assert!(ids.contains(&"substrate/min_load_packed/2^20".to_string()));
        assert!(ids.contains(&"trial/kd3_d2_random/2^13".to_string()));
        assert!(ids.contains(&"trial/kd3_d2_left/2^13".to_string()));
        assert!(ids.contains(&"trial/serving_d2_random/2^14".to_string()));
        assert!(ids.contains(&"trial/serving_faults_d2/2^14".to_string()));
        assert!(ids.contains(&"trial/serving_d2_journaled/2^14".to_string()));
        assert!(ids.contains(&"trial/scaling_flat/2^20".to_string()));
        assert!(ids.contains(&"trial/scaling_packed/2^20".to_string()));
        assert!(ids.contains(&"trial/scaling_sharded/2^20".to_string()));
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
