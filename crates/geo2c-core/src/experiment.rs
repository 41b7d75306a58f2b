//! Multi-trial sweeps: the machinery behind the paper's Tables 1–3.
//!
//! Each table cell in the paper is "the distribution of the maximum load
//! over 1000 independent trials" for one `(space, n, m, strategy)`
//! configuration. A trial re-draws *both* the server placement and the
//! ball probes (the theorems quantify over both sources of randomness).
//! [`max_load_cell`] runs those trials in parallel through
//! [`geo2c_util::parallel::run_trials`], which hands every trial its own
//! deterministic stream, so any cell of any table is reproducible from
//! `(seed, label, trial index)` alone, independent of thread count.
//! [`sweep_max_load`] and [`sweep_kind`] are its space-building fronts.
//! An experiment whose trials report something other than a maximum load
//! (the lemma tables, the load profile) calls `run_trials` itself, in its
//! member of the `run_tables` suite (`geo2c_bench::experiments`).

use crate::sim::run_trial;
use crate::space::{Space, SpaceKind};
use crate::strategy::Strategy;
use geo2c_util::hist::Counter;
use geo2c_util::parallel::run_trials;
use geo2c_util::rng::{StreamSeeder, Xoshiro256pp};
use geo2c_util::stats::RunningStats;
#[cfg(test)]
use rand::RngCore as _;

/// Shared sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Number of independent trials per configuration (paper: 1000).
    pub trials: usize,
    /// Worker threads for the trial loop.
    pub threads: usize,
    /// Root seed; every `(configuration, trial)` derives its own stream.
    pub seed: u64,
}

impl SweepConfig {
    /// A sweep with the given trial count, automatic thread count, seed 0.
    #[must_use]
    pub fn new(trials: usize) -> Self {
        Self {
            trials,
            threads: geo2c_util::parallel::num_threads(),
            seed: 0,
        }
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The outcome of one sweep cell: the max-load distribution over trials.
#[derive(Debug, Clone)]
pub struct MaxLoadCell {
    /// Distribution of the per-trial maximum load.
    pub distribution: Counter,
    /// Summary statistics of the per-trial maximum load.
    pub stats: RunningStats,
}

/// The one max-load primitive: runs `config.trials` trials of `trial`,
/// each on its own stream `(config.seed, label, trial index)` through
/// [`run_trials`], and collects the per-trial maximum loads it returns.
/// [`sweep_max_load`], [`sweep_kind`] and any experiment with its own
/// per-trial recipe (e.g. a different probe source) all go through here.
/// Results are independent of `config.threads`.
#[must_use]
pub fn max_load_cell<F>(label: &str, config: &SweepConfig, trial: F) -> MaxLoadCell
where
    F: Fn(&mut Xoshiro256pp) -> u32 + Sync,
{
    let seeder = StreamSeeder::new(config.seed).child(label);
    let mut distribution = Counter::new();
    let mut stats = RunningStats::new();
    for ml in run_trials(&seeder, config.trials, config.threads, trial) {
        distribution.add(u64::from(ml));
        stats.push(f64::from(ml));
    }
    MaxLoadCell {
        distribution,
        stats,
    }
}

/// Runs `config.trials` independent trials of "`space_factory` then insert
/// `m` balls with `strategy`" and collects the max-load distribution.
///
/// `space_factory` receives the trial's private RNG and must build a fresh
/// space from it; the same RNG then drives the ball placement. Results are
/// independent of `config.threads`.
#[must_use]
pub fn sweep_max_load<S, F>(
    space_factory: F,
    strategy: Strategy,
    m: usize,
    label: &str,
    config: &SweepConfig,
) -> MaxLoadCell
where
    S: Space,
    F: Fn(&mut Xoshiro256pp) -> S + Sync,
{
    max_load_cell(label, config, |rng| {
        let space = space_factory(rng);
        run_trial(&space, &strategy, m, rng).max_load
    })
}

/// Convenience: a sweep cell for one of the named geometries.
///
/// `label` feeds stream derivation, so e.g. Table 1 and Table 3 sweeps of
/// the same `(kind, n, d)` stay statistically independent.
#[must_use]
pub fn sweep_kind(
    kind: SpaceKind,
    strategy: Strategy,
    n: usize,
    m: usize,
    config: &SweepConfig,
) -> MaxLoadCell {
    let label = format!("{}/n{}/m{}/{}", kind.name(), n, m, strategy.label());
    sweep_max_load(
        move |rng: &mut Xoshiro256pp| kind.build(n, rng),
        strategy,
        m,
        &label,
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::UniformSpace;

    fn quick_config() -> SweepConfig {
        SweepConfig::new(30).with_seed(42).with_threads(2)
    }

    #[test]
    fn sweep_counts_all_trials() {
        let cell = sweep_kind(
            SpaceKind::Uniform,
            Strategy::two_choice(),
            128,
            128,
            &quick_config(),
        );
        assert_eq!(cell.distribution.total(), 30);
        assert_eq!(cell.stats.count(), 30);
        assert!(cell.stats.mean() >= 1.0);
    }

    #[test]
    fn parallel_trials_byte_identical_to_sequential() {
        // The trial runner must reproduce the sequential trial loop
        // exactly — full load vectors, not just summaries — for any
        // thread count.
        use crate::space::RingSpace;
        let seeder = StreamSeeder::new(99).child("parallel-trials");
        let strategy = Strategy::two_choice();
        let trial = |rng: &mut Xoshiro256pp| {
            let space = RingSpace::random(96, rng);
            run_trial(&space, &strategy, 96, rng)
        };
        let sequential: Vec<crate::sim::TrialResult> =
            (0..12).map(|t| trial(&mut seeder.stream(t))).collect();
        for threads in [1usize, 2, 5] {
            let parallel = run_trials(&seeder, 12, threads, trial);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn sweep_deterministic_across_threads() {
        let a = sweep_kind(
            SpaceKind::Ring,
            Strategy::two_choice(),
            64,
            64,
            &SweepConfig::new(10).with_seed(7).with_threads(1),
        );
        let b = sweep_kind(
            SpaceKind::Ring,
            Strategy::two_choice(),
            64,
            64,
            &SweepConfig::new(10).with_seed(7).with_threads(4),
        );
        assert_eq!(a.distribution, b.distribution);
    }

    #[test]
    fn different_labels_differ() {
        let config = quick_config();
        let a = sweep_max_load(
            |rng: &mut Xoshiro256pp| {
                let _ = rng.next_u64();
                UniformSpace::new(64)
            },
            Strategy::one_choice(),
            64,
            "label-a",
            &config,
        );
        let b = sweep_max_load(
            |rng: &mut Xoshiro256pp| {
                let _ = rng.next_u64();
                UniformSpace::new(64)
            },
            Strategy::one_choice(),
            64,
            "label-b",
            &config,
        );
        // Same config, different stream labels → (almost surely) different
        // empirical distributions. Equality would indicate stream reuse.
        assert_ne!(a.distribution, b.distribution);
    }

    #[test]
    fn heavy_load_rows_track_m_over_n() {
        let n = 64;
        let rows: Vec<(f64, f64)> = [64, 256, 1024]
            .into_iter()
            .map(|m| {
                let cell = sweep_kind(
                    SpaceKind::Uniform,
                    Strategy::two_choice(),
                    n,
                    m,
                    &quick_config(),
                );
                (cell.stats.mean(), m as f64 / n as f64)
            })
            .collect();
        // Max load grows with m, and stays ≥ the average m/n.
        assert!(rows[0].0 < rows[1].0);
        assert!(rows[1].0 < rows[2].0);
        for &(mean_max, average_load) in &rows {
            assert!(mean_max >= average_load);
        }
        // With d=2, max load should hug the average: within
        // m/n + O(log log n) — generous check.
        let slack = rows[2].0 - rows[2].1;
        assert!(slack < 10.0, "slack {slack}");
    }
}
