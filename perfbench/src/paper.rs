//! `paper_trials`: the body of `sweep_max_load` on one thread. Each
//! operation is one trial pair: a fresh `SpaceKind::Ring` space of
//! `2^ring_exp` servers and a fresh `SpaceKind::Torus` space of
//! `2^torus_exp`, each followed by `run_trial` with `Strategy::d_choice(2)`
//! and `m = n` — the traffic behind Tables 1 and 2.
//!
//! `BENCHMARK.json` does not list this workload: its timings follow a
//! shared host's memory contention too closely to gate on
//! (`perfbench/METRICS.md`). It stays runnable by name, and
//! [`push_trial_rows`] times the same trials in the serving workloads'
//! traced runs.

use crate::layers::{self, push_attribution};
use crate::report::{mean, median, ns, quantile, tail, Outcome};
use crate::{serve, Args, Scale};
use geo2c_core::load::LoadState;
use geo2c_core::sim::run_trial;
use geo2c_core::space::{AnySpace, SpaceKind, UniformSpace};
use geo2c_core::strategy::Strategy;
use geo2c_util::rng::{BallLanes, EventLanes, StreamSeeder};
use rand::RngCore as _;
use std::time::Instant;

/// One fresh-space trial, timed in its two public calls.
struct Trial {
    build_ns: f64,
    run_ns: f64,
    max_load: u32,
    /// Why the trial failed its correctness check, if it did.
    error: Option<String>,
    /// The space, lane root and final loads, kept for the layer probes.
    inputs: Option<(AnySpace, u64, Vec<u32>)>,
}

/// The `sweep_max_load` stream label of `kind` at `n` servers, `m = n`.
fn label(kind: SpaceKind, n: usize) -> String {
    format!("{}/n{n}/m{n}/d=2", kind.name())
}

/// Trial `i` of `kind`, on the stream `sweep_max_load` would give it.
fn trial(kind: SpaceKind, n: usize, seeds: &StreamSeeder, i: u64, keep: bool) -> Trial {
    let strategy = Strategy::d_choice(2);
    let mut rng = seeds.stream(i);
    let t0 = Instant::now();
    let space = kind.build(n, &mut rng);
    let t1 = Instant::now();
    // `run_trial` keys its ball lanes from the first word it draws.
    let root = rng.clone().next_u64();
    let result = run_trial(&space, &strategy, n, &mut rng);
    let t2 = Instant::now();
    // Every ball lands exactly once: Σ loads = m, and the load profile
    // (servers per load value) covers all n servers and m balls.
    let profile = result.load_profile();
    let profile_balls: u64 = profile.iter().map(|(load, servers)| load * servers).sum();
    let m = n as u64;
    let error = (result.total_balls() != m || profile.total() != m || profile_balls != m).then(|| {
        format!(
            "{} trial {i}: {} balls placed, profile covers {} servers / {profile_balls} balls, want {m}",
            kind.name(),
            result.total_balls(),
            profile.total()
        )
    });
    Trial {
        build_ns: ns(t1 - t0),
        run_ns: ns(t2 - t1),
        max_load: result.max_load,
        error,
        inputs: keep.then_some((space, root, result.loads)),
    }
}

pub fn run(args: &Args) -> Outcome {
    let sc = args.scale;
    let (n_ring, n_torus) = (1usize << sc.ring_exp, 1usize << sc.torus_exp);
    let seeder = StreamSeeder::new(args.seed);
    let ring_seeds = seeder.child(&label(SpaceKind::Ring, n_ring));
    let torus_seeds = seeder.child(&label(SpaceKind::Torus, n_torus));
    let mut out = Outcome::default();

    // No state outlives a trial, so set-up is the warm-up trial pair that
    // fills the allocator and caches before timing.
    let warm = seeder.child("warm-up");
    let mut setup_s = Vec::new();
    for rep in 0..sc.setup_reps as u64 {
        let t = Instant::now();
        let r = trial(SpaceKind::Ring, n_ring, &warm.child("ring"), rep, false);
        let s = trial(SpaceKind::Torus, n_torus, &warm.child("torus"), rep, false);
        setup_s.push(t.elapsed().as_secs_f64());
        for t in [r, s] {
            out.check(t.error.is_none(), || t.error.unwrap_or_default());
        }
    }

    let mut pair_ns = Vec::new(); // untraced pairs
    let mut traced_pair_ns = Vec::new();
    let (mut ring_build, mut torus_build, mut ring_trial, mut torus_trial) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ring_max, mut torus_max) = (Vec::new(), Vec::new());
    let mut kept = None;
    let mut gaps = Vec::new();
    let start = Instant::now();
    let mut prev_end = start;
    let mut i = 0u64;
    while (i as usize) < sc.min_pairs || start.elapsed().as_secs_f64() < args.seconds {
        // Traced runs alternate untraced and traced pairs; a traced pair
        // also keeps its inputs for the layer probes.
        let traced = args.trace && i % 2 == 1;
        let t0 = Instant::now();
        if i > 0 {
            gaps.push(ns(t0 - prev_end));
        }
        let r = trial(SpaceKind::Ring, n_ring, &ring_seeds, i, traced);
        let s = trial(SpaceKind::Torus, n_torus, &torus_seeds, i, traced);
        let total = ns(t0.elapsed());
        if traced {
            traced_pair_ns.push(total);
        } else {
            pair_ns.push(total);
        }
        ring_build.push(r.build_ns);
        torus_build.push(s.build_ns);
        ring_trial.push(r.build_ns + r.run_ns);
        torus_trial.push(s.build_ns + s.run_ns);
        if (i as usize) < sc.quality_pairs {
            ring_max.push(f64::from(r.max_load));
            torus_max.push(f64::from(s.max_load));
        }
        let ok = r.error.is_none() && s.error.is_none();
        let why = [r.error, s.error].into_iter().flatten().collect::<Vec<_>>();
        out.check(ok, || why.join("; "));
        if let (Some(ring), Some(torus)) = (r.inputs, s.inputs) {
            kept = Some((ring, torus));
        }
        i += 1;
        prev_end = Instant::now();
    }

    let balls = (n_ring + n_torus) as f64;
    out.e2e("setup_s", median(&mut setup_s), "s");
    out.e2e(
        "events_per_s",
        balls * pair_ns.len() as f64 / (pair_ns.iter().sum::<f64>() / 1e9),
        "1/s",
    );
    let untraced_mean = mean(&pair_ns);
    out.e2e("batch_p50_us", median(&mut pair_ns) / 1e3, "us");
    let (p75, note) = tail(&mut pair_ns, 0.75, "batch_tail_us (trial pair)");
    out.note(note);
    out.e2e("batch_tail_us", p75 / 1e3, "us");
    let quality: Vec<f64> = ring_max.iter().chain(&torus_max).copied().collect();
    out.e2e("max_load", mean(&quality), "count");
    out.note(format!(
        "max_load: mean of {} ring and {} torus trial max loads (first {} pairs)",
        ring_max.len(),
        torus_max.len(),
        sc.quality_pairs
    ));
    // Every ball of every trial is placed (checked per trial above).
    out.e2e("availability", 1.0, "ratio");
    out.layer(
        "engine.peak_load",
        quality.iter().copied().fold(0.0, f64::max),
        "count",
    );

    if !args.trace {
        return out;
    }
    let ((ring_space, ring_root, ring_loads), (torus_space, torus_root, _)) =
        kept.expect("a traced run keeps its last traced pair");
    let ring_lanes = BallLanes::new(ring_root);
    let torus_lanes = BallLanes::new(torus_root);
    let probe_lanes = layers::owners_ns(&UniformSpace::new(n_ring), &ring_lanes, 0, 256);
    let ring_owners = layers::owners_ns(&ring_space, &ring_lanes, 0, 256);
    let torus_owners = layers::owners_ns(&torus_space, &torus_lanes, 0, 256);
    let owners = layers::event_owners(&ring_space, &ring_lanes, 0, 1 << 14);
    let strategy = Strategy::d_choice(2);
    let costs = layers::load_costs(&ring_space, &strategy, &ring_loads, &owners, &ring_lanes, 0);
    out.layer("rng.probe_lanes_ns", probe_lanes, "ns");
    out.layer("ring.owners_ns", ring_owners, "ns");
    out.layer("torus.owners_ns", torus_owners, "ns");
    let ring_build_ms = median(&mut ring_build) / 1e6;
    let torus_build_ms = median(&mut torus_build) / 1e6;
    out.layer("space.ring_build_ms", ring_build_ms, "ms");
    out.layer("space.torus_build_ms", torus_build_ms, "ms");
    out.layer("strategy.place_ns", costs.place_ns, "ns");
    out.layer("load.min_load_ns", costs.min_load_ns, "ns");
    out.layer("load.bump_dec_ns", costs.bump_dec_ns, "ns");
    out.layer(
        "load.bytes_per_bin",
        ring_loads.heap_bytes() as f64 / n_ring as f64,
        "bytes",
    );
    out.layer("load.spilled_bins", 0.0, "count");
    out.layer("trial.ring_ms", median(&mut ring_trial) / 1e6, "ms");
    out.layer("trial.torus_ms", median(&mut torus_trial) / 1e6, "ms");
    out.layer("trial.ring_max_load", mean(&ring_max), "count");
    out.layer("trial.torus_max_load", mean(&torus_max), "count");
    out.layer(
        "harness.gen_lag_p99_us",
        quantile(&mut gaps, 0.99) / 1e3,
        "us",
    );

    // Serving layers are off this workload's path: time them on the
    // workload's own ring with its own lanes where the call takes only a
    // space and lanes, and on the reference journaled engine otherwise.
    // None of these enters the attribution sum below.
    out.layer(
        "sim.owner_block_ns",
        layers::owner_block_ns(&ring_space, &ring_lanes, 0, 256),
        "ns",
    );
    out.layer(
        "rng.life_lane_ns",
        layers::life_lane_ns(&EventLanes::new(ring_root), 0, 1 << 16),
        "ns",
    );
    serve::reference_probe(args, &mut out, true);
    serve::push_counter_rows(&mut out, &serve::Flow::default(), 0.0);

    // Per pair: both builds (spanned directly) plus, per ball, d owner
    // lookups, one placement and one bump (half a bump+dec pair).
    let parts = [
        ("space.build", mean(&ring_build) + mean(&torus_build)),
        ("ring.owners", 2.0 * n_ring as f64 * ring_owners),
        ("torus.owners", 2.0 * n_torus as f64 * torus_owners),
        ("strategy.place", balls * costs.place_ns),
        ("load.bump", balls * costs.bump_dec_ns / 2.0),
    ];
    push_attribution(
        &mut out,
        untraced_mean,
        &parts,
        "the per-trial load-vector allocation, the load-warming sweep before each 64-ball \
         block, and cache misses on the 2^20 load vector that the isolated probes do not see",
    );
    let traced_mean = mean(&traced_pair_ns);
    out.layer(
        "trace_overhead_pct",
        (traced_mean / untraced_mean - 1.0) * 100.0,
        "%",
    );
    out.note(format!(
        "trace overhead: {} traced pairs at {traced_mean:.0} ns vs {} untraced at {untraced_mean:.0} ns",
        traced_pair_ns.len(),
        pair_ns.len()
    ));
    out
}

/// The Tables 1–2 rows for a workload that does not run these trials:
/// `pairs` fresh-space trial pairs at the `paper_trials` sizes, on the
/// streams `sweep_max_load` gives `seed`, each checked as in
/// `paper_trials`. Pushes `torus.owners_ns` (on the last torus), the
/// `space.*_build_ms` and `trial.*_ms` medians and the mean
/// `trial.*_max_load`.
pub fn push_trial_rows(out: &mut Outcome, sc: Scale, seed: u64, pairs: u64) {
    let (n_ring, n_torus) = (1usize << sc.ring_exp, 1usize << sc.torus_exp);
    let seeder = StreamSeeder::new(seed);
    let ring_seeds = seeder.child(&label(SpaceKind::Ring, n_ring));
    let torus_seeds = seeder.child(&label(SpaceKind::Torus, n_torus));
    let (mut ring_build, mut torus_build, mut ring_trial, mut torus_trial) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ring_max, mut torus_max) = (Vec::new(), Vec::new());
    let mut last_torus = None;
    for i in 0..pairs {
        let r = trial(SpaceKind::Ring, n_ring, &ring_seeds, i, false);
        let s = trial(SpaceKind::Torus, n_torus, &torus_seeds, i, i + 1 == pairs);
        ring_build.push(r.build_ns);
        torus_build.push(s.build_ns);
        ring_trial.push(r.build_ns + r.run_ns);
        torus_trial.push(s.build_ns + s.run_ns);
        ring_max.push(f64::from(r.max_load));
        torus_max.push(f64::from(s.max_load));
        for t in [r.error, s.error] {
            out.check(t.is_none(), || t.unwrap_or_default());
        }
        last_torus = s.inputs;
    }
    let torus_owners = last_torus.map_or(0.0, |(space, root, _)| {
        layers::owners_ns(&space, &BallLanes::new(root), 0, 256)
    });
    out.layer("torus.owners_ns", torus_owners, "ns");
    out.layer("space.ring_build_ms", median(&mut ring_build) / 1e6, "ms");
    out.layer("space.torus_build_ms", median(&mut torus_build) / 1e6, "ms");
    out.layer("trial.ring_ms", median(&mut ring_trial) / 1e6, "ms");
    out.layer("trial.torus_ms", median(&mut torus_trial) / 1e6, "ms");
    out.layer("trial.ring_max_load", mean(&ring_max), "count");
    out.layer("trial.torus_max_load", mean(&torus_max), "count");
}
