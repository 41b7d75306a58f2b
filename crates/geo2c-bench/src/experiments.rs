//! Spec-declared experiment constructors behind the `run_tables` driver.
//!
//! Each function here runs one experiment of the gated suite and returns
//! a [`geo2c_report::ExperimentResult`]: the spec (id, title, paper
//! reference, trials, seed, parameters) plus one cell per sweep
//! configuration. [`Member::run`] builds every spec's header; a function
//! only appends its parameters and cells. `run_tables`
//! persists them under `results/`, checks fresh runs against the
//! committed files, and renders `EXPERIMENTS.md` from them, so the
//! committed expectations and any ad-hoc `run_tables --only ID` run are
//! provably the same computation.
//!
//! [`SUITE`] declares each member once: its id, title and paper
//! reference, its `EXPERIMENTS.md` [`Layout`] and its [`Size`] at each of
//! the three named [`Scale`]s:
//! `quick` (CI / smoke), `reference` (the committed `EXPERIMENTS.md` numbers; sized so the
//! whole suite regenerates in about a minute and a half on one core) and
//! `full` (the paper's own 1000-trial sweep — hours of CPU; run it
//! deliberately).

use geo2c_core::experiment::{max_load_cell, sweep_kind, sweep_max_load, MaxLoadCell, SweepConfig};
use geo2c_core::load::{LoadState as _, PackedLoads};
use geo2c_core::nonuniform::{MixRingSpace, RingMix};
use geo2c_core::sim::{run_trial, run_trial_into, run_trial_with_lanes};
use geo2c_core::space::{KdTorusSpace, RingSpace, SpaceKind, UniformSpace};
use geo2c_core::strategy::{Strategy, TieBreak};
use geo2c_core::theory::fluid_limit_profile;
use geo2c_dht::chord::ChordRing;
use geo2c_dht::churn::churn_experiment;
use geo2c_dht::placement::{evaluate, PlacementPolicy};
use geo2c_dht::replication::{availability_after_failures, place_replicated};
use geo2c_report::{Cell, ExperimentResult, ExperimentSpec, Json};
use geo2c_ring::negdep::forward_gaps;
use geo2c_ring::spacings::{arc_survival, expected_top_a_sum};
use geo2c_ring::tail::{
    count_arcs_at_least, lemma4_prob_bound, lemma4_threshold, lemma5_prob_bound, lemma6_bound,
    longest_arc_bound,
};
use geo2c_ring::{RingPartition, RingPoint};
use geo2c_serve::{
    DepartureWheel, DurableEngine, FaultPlan, Recovery, Resumed, ServeConfig, ServeEngine,
    SessionLife,
};
use geo2c_torus::sector::{expected_empty_sectors, has_empty_sector, lemma9_threshold};
use geo2c_torus::KdSites;
use geo2c_util::frame::Header;
use geo2c_util::hist::Counter;
use geo2c_util::parallel::run_trials;
use geo2c_util::rng::{BallLanes, StreamSeeder, TabulationHash, TabulationLanes, Xoshiro256pp};
use geo2c_util::stats::RunningStats;
use rand::Rng as _;
use rand::RngCore as _;

/// A named parameter set for the table suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI / smoke-test scale: regenerates in seconds, even unoptimized.
    Quick,
    /// The committed-expectation scale behind `EXPERIMENTS.md` (~1.5
    /// minutes of single-core CPU for the whole suite).
    Reference,
    /// The paper's own scale (1000 trials, `n` up to `2^24` / `2^20`).
    /// Budget hours of CPU; nothing in CI runs this.
    Full,
}

impl Scale {
    /// Every scale, cheapest first (the order of [`Member::sizes`]).
    pub const ALL: [Scale; 3] = [Scale::Quick, Scale::Reference, Scale::Full];

    /// Name used in output paths (`results/` vs `results/quick/`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Reference => "reference",
            Scale::Full => "full",
        }
    }

    /// Looks a scale up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// How big one suite member runs at one scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Sweep sizes as `n = 2^k` exponents; single-`n` members have one.
    pub exps: &'static [u32],
    /// Trials per cell.
    pub trials: usize,
}

impl Size {
    /// The sweep sizes (`n` values).
    #[must_use]
    pub fn ns(&self) -> Vec<usize> {
        self.exps.iter().map(|&e| 1usize << e).collect()
    }
}

/// How a member renders in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// A distribution grid: one row per `rows` coordinate, one column
    /// per `cols` coordinate.
    Pivot {
        /// Coordinate on the rows.
        rows: &'static str,
        /// Coordinate on the columns.
        cols: &'static str,
    },
    /// One row per cell: scalar columns plus the aggregated load
    /// distribution where present (the metric-bearing experiments).
    Flat,
}

/// One experiment of the gated suite.
#[derive(Debug, Clone, Copy)]
pub struct Member {
    /// Spec id, also the basename of the committed `results/` file.
    pub id: &'static str,
    /// Spec title, also its `EXPERIMENTS.md` heading.
    pub title: &'static str,
    /// Which artifact of the paper it reproduces (`"Table 1"`, …).
    pub paper_ref: &'static str,
    /// Its `EXPERIMENTS.md` table layout.
    pub layout: Layout,
    /// Its size at each of [`Scale::ALL`], in that order.
    pub sizes: [Size; 3],
    /// Runs it over the sweep sizes with the given configuration,
    /// appending its params and cells to the spec header it is handed.
    pub sweep: fn(&[usize], &SweepConfig, ExperimentSpec) -> ExperimentResult,
}

impl Member {
    /// Its size at `scale`.
    #[must_use]
    pub fn size(&self, scale: Scale) -> Size {
        self.sizes[scale as usize]
    }

    /// Runs it over `ns` with `config`. The spec header is built here
    /// and only here: `id`, `title` and `paper_ref` from this
    /// declaration, `trials` and `seed` from `config`.
    #[must_use]
    pub fn run(&self, ns: &[usize], config: &SweepConfig) -> ExperimentResult {
        let header = ExperimentSpec::new(self.id, self.title)
            .paper_ref(self.paper_ref)
            .trials(config.trials)
            .seed(config.seed);
        (self.sweep)(ns, config, header)
    }
}

const fn size(exps: &'static [u32], trials: usize) -> Size {
    Size { exps, trials }
}

const fn pivot(rows: &'static str, cols: &'static str) -> Layout {
    Layout::Pivot { rows, cols }
}

/// Tables 1 and 3 sweep the same ring sizes, so they share one ladder.
const RING: [Size; 3] = [
    size(&[8, 10], 40),
    size(&[8, 12, 16], 300),
    size(&[8, 12, 16, 20, 24], 1000),
];

/// The experiments `run_tables` drives, in run and render order: every
/// consumer (the driver, `--only`, [`experiments_markdown`], the tests)
/// reads the suite from here. Adding a member is one entry plus its
/// function.
pub const SUITE: [Member; 21] = [
    Member {
        id: "table1",
        title: "Table 1: maximum load with random arcs on the ring (m = n)",
        paper_ref: "Table 1",
        layout: pivot("n", "d"),
        sizes: RING,
        sweep: |ns, c, h| table1_2(SpaceKind::Ring, ns, c, h),
    },
    Member {
        id: "table2",
        title: "Table 2: maximum load with random Voronoi cells on the torus (m = n)",
        paper_ref: "Table 2",
        layout: pivot("n", "d"),
        sizes: [
            size(&[8, 10], 25),
            size(&[8, 12, 14], 150),
            size(&[8, 12, 16, 20], 1000),
        ],
        sweep: |ns, c, h| table1_2(SpaceKind::Torus, ns, c, h),
    },
    Member {
        id: "table3",
        title: "Table 3: maximum load by tie-breaking strategy on random arcs (d = 2, m = n)",
        paper_ref: "Table 3",
        layout: pivot("n", "tie_break"),
        sizes: RING,
        sweep: table3,
    },
    Member {
        id: "dimension",
        title: "Higher dimensions: maximum load on the K-torus as d grows (m = n)",
        paper_ref: "§3 footnote 3",
        layout: pivot("d", "K"),
        // Paper-scale n for the K-torus: 2^13 is the size the K-d owner path
        // could previously reach only at --full scale (and appears as a
        // mid column of the paper's Table 1). The K ∈ {3, 4} × d ∈ {1..8}
        // sweep costs ~0.5 s per trial row on the reference core after the
        // K-d grid port, so 32 trials keeps the whole suite regenerating in
        // about a minute and a half single-core.
        sizes: [size(&[9], 8), size(&[13], 32), size(&[16], 200)],
        sweep: |ns, c, h| dimension(ns[0], c, h),
    },
    Member {
        id: "ring_chart",
        title: "Diminishing returns: maximum load on the ring as d grows (m = n)",
        paper_ref: "§2 Theorem 1 (d ≥ 2)",
        layout: pivot("d", "n"),
        // The largest n whose d ∈ {2..8} sweep stays inside the single-core
        // CI budget now that the ring owner path is O(1) (the ROADMAP's
        // 2^20+ chart is the --full scale).
        sizes: [size(&[12], 10), size(&[18], 40), size(&[20], 200)],
        sweep: |ns, c, h| ring_chart(ns[0], c, h),
    },
    Member {
        id: "tabulation",
        title:
            "Weak hashing: max load with simple-tabulation vs SplitMix64 probe lanes (ring, m = n)",
        paper_ref: "Dahlgaard et al. SODA 2016 (PAPERS.md)",
        layout: pivot("d", "sampler"),
        // The Dahlgaard et al. weak-hashing comparison stays at quick scale
        // even in the committed expectations: the question is whether the
        // max-load distribution survives 3-independent hashing at all, and
        // 2^10 servers × 200 trials answers it for pennies of CPU.
        sizes: [size(&[9], 25), size(&[10], 200), size(&[12], 1000)],
        sweep: |ns, c, h| tabulation(ns[0], c, h),
    },
    Member {
        id: "heavy",
        title: "Heavily loaded: two-choice max load as m/n grows (d = 2)",
        paper_ref: "§2 remark 3",
        layout: Layout::Flat,
        // The m/n ratio sweep runs 21.25n balls per trial pair of spaces;
        // 2^12 servers × 60 trials keeps the whole family around a second
        // while the slack column stabilizes to a few hundredths.
        sizes: [size(&[8], 10), size(&[12], 60), size(&[16], 200)],
        sweep: |ns, c, h| heavy(ns[0], c, h),
    },
    Member {
        id: "serving",
        title: "Online serving: steady-state load and shed rate under arrivals and departures",
        paper_ref: "§1.1 (online placement)",
        layout: Layout::Flat,
        // The serving steady state churns 16n sessions through n servers per
        // trial; 2^10 servers × 25 trials per scenario keeps it well under
        // the table sweeps' cost while the shed-rate columns stay stable to
        // a fraction of a percent.
        sizes: [size(&[8], 6), size(&[10], 25), size(&[13], 100)],
        sweep: |ns, c, h| serving(ns[0], c, h),
    },
    Member {
        id: "resilience",
        title: "Resilience: availability under correlated outages, recovery, and probe retries",
        paper_ref: "§1.1 (online placement); conclusion (reliability)",
        layout: Layout::Flat,
        // The resilience cells rerun the serving workload under correlated
        // outages; the grid is wider (fail × d × retry budget) so fewer
        // trials per cell keep the family's cost near the serving table's.
        sizes: [size(&[8], 4), size(&[10], 15), size(&[13], 60)],
        sweep: |ns, c, h| resilience(ns[0], c, h),
    },
    Member {
        id: "churn",
        title: "Churn: node failures and re-placement (items = 16n)",
        paper_ref: "conclusion (reliability)",
        layout: Layout::Flat,
        sizes: [size(&[8], 5), size(&[10], 20), size(&[12], 100)],
        sweep: |ns, c, h| churn(ns[0], c, h),
    },
    Member {
        id: "replication",
        title:
            "Replication: successor-list replicas x placement policy (items = 16n, 30% failures)",
        paper_ref: "conclusion (reliability)",
        layout: Layout::Flat,
        sizes: [size(&[8], 5), size(&[10], 20), size(&[12], 100)],
        sweep: |ns, c, h| replication(ns[0], c, h),
    },
    Member {
        id: "dht",
        title: "E11: Chord DHT load balance by placement scheme",
        paper_ref: "§1.1",
        layout: Layout::Flat,
        // The Chord comparison places 16n items per trial and samples 2000
        // lookups per configuration; 2^10 physical nodes × 20 trials keeps
        // the family at the churn/replication cost while the max-load and
        // hop-count means settle to a fraction of a unit.
        sizes: [size(&[8], 5), size(&[10], 20), size(&[14], 100)],
        sweep: |ns, c, h| dht(ns[0], c, h),
    },
    Member {
        id: "scaling",
        title: "Streaming scale: load-state backings at large n (m = n)",
        paper_ref: "§1 (scaling to large n)",
        layout: Layout::Flat,
        // The streaming-scale backing comparison runs at 2^24 bins — the
        // paper's own largest ring n, and far past L2 for every backing —
        // so bytes/bin and balls/sec are measured where they matter. The
        // uniform space keeps a trial to ~1 s single-core, so 3 trials fit
        // the suite budget.
        sizes: [size(&[14], 3), size(&[24], 3), size(&[26], 5)],
        sweep: |ns, c, h| scaling(ns[0], c, h),
    },
    Member {
        id: "durability",
        title: "Durability: crash-point recovery cost vs checkpoint interval",
        paper_ref: "§1.1 (online serving, made durable)",
        layout: Layout::Flat,
        // Each durability trial runs the serving workload three times (the
        // uninterrupted reference, the journaled run up to the crash, and
        // the recovery replay), touching the filesystem for checkpoints and
        // journal frames; 2^10 servers × 10 trials per checkpoint interval
        // keeps the family around the serving table's cost.
        sizes: [size(&[8], 3), size(&[10], 10), size(&[12], 30)],
        sweep: |ns, c, h| durability(ns[0], c, h),
    },
    // The lemma validations run at the sizes their former standalone
    // binary defaulted to: the arc tails at 2^14, the Voronoi tail at
    // 2^12 (cell construction dominates), and the negative-dependence
    // check at 2^10 with many trials, since its joint events are rare.
    // Together they cost about five seconds single-core.
    Member {
        id: "lemma3",
        title: "Lemma 3: negative dependence of long-arc indicators",
        paper_ref: "Lemma 3",
        layout: Layout::Flat,
        sizes: [size(&[10], 1000), size(&[10], 2000), size(&[10], 10_000)],
        sweep: |ns, c, h| lemma3(ns[0], &[1.0, 2.0, 3.0], &[2, 3], c, h),
    },
    Member {
        id: "lemma4_5",
        title: "Lemmas 4/5: long-arc count tail on the ring",
        paper_ref: "Lemmas 4 and 5",
        layout: Layout::Flat,
        sizes: [size(&[10], 20), size(&[14], 200), size(&[16], 1000)],
        sweep: |ns, c, h| lemma4_5(ns[0], &[2.0, 3.0, 4.0, 6.0, 8.0, 10.0], c, h),
    },
    Member {
        id: "lemma6",
        title: "Lemma 6: sum of the a longest arcs",
        paper_ref: "Lemma 6",
        layout: Layout::Flat,
        sizes: [size(&[10], 20), size(&[14], 200), size(&[16], 1000)],
        sweep: |ns, c, h| lemma6(ns[0], &lemma6_sizes(ns[0]), c, h),
    },
    Member {
        id: "lemma8_9",
        title: "Lemmas 8/9: Voronoi cell-area tail on the torus",
        paper_ref: "Lemmas 8 and 9",
        layout: Layout::Flat,
        sizes: [size(&[10], 20), size(&[12], 100), size(&[14], 400)],
        sweep: |ns, c, h| {
            let n = ns[0];
            lemma8_9(n, &[2.0, 3.0, 4.0, 6.0, 12.0, (n as f64).ln()], c, h)
        },
    },
    // The conclusion's two open questions, at their former binaries'
    // defaults (about a second together).
    Member {
        id: "nonuniform_servers",
        title: "E15a: clustered servers, uniform probes (ring)",
        paper_ref: "conclusion / footnote 2",
        layout: Layout::Flat,
        sizes: [size(&[10], 20), size(&[12], 100), size(&[16], 1000)],
        sweep: |ns, c, h| nonuniform_servers(ns[0], c, h),
    },
    Member {
        id: "nonuniform_probes",
        title: "E15b: uniform servers, clustered probes (ring)",
        paper_ref: "conclusion / footnote 2",
        layout: Layout::Flat,
        sizes: [size(&[10], 20), size(&[12], 100), size(&[16], 1000)],
        sweep: |ns, c, h| nonuniform_probes(ns[0], c, h),
    },
    Member {
        id: "profile",
        title: "E14: mean load profile vs the fluid limit",
        paper_ref: "conclusion (open question)",
        layout: Layout::Flat,
        sizes: [size(&[10], 20), size(&[12], 100), size(&[16], 1000)],
        sweep: |ns, c, h| profile(ns[0], c, h),
    },
];

fn sizes_json(ns: &[usize]) -> Json {
    Json::Arr(ns.iter().map(|&n| Json::from_usize(n)).collect())
}

fn progress(msg: &str) {
    // Progress goes to stderr so stdout stays clean rendered output.
    eprintln!("--- {msg} ---");
}

/// Converts a sweep cell into a report cell with the given coordinates.
fn report_cell(coords: Vec<(String, Json)>, cell: &MaxLoadCell) -> Cell {
    Cell {
        coords,
        distribution: Some(cell.distribution.clone()),
        metrics: Vec::new(),
    }
}

/// Per-column summary statistics of per-trial metric rows: column `k`
/// sees every row's `k`-th value, pushed in trial order.
fn column_stats<const K: usize>(rows: impl IntoIterator<Item = [f64; K]>) -> [RunningStats; K] {
    let mut stats = [RunningStats::new(); K];
    for row in rows {
        for (slot, v) in stats.iter_mut().zip(row) {
            slot.push(v);
        }
    }
    stats
}

/// The max-load tables' one body: for each `n`, one `sweep_kind` cell
/// of `m = n` balls per column strategy, at coordinates `(n, col)`. The
/// column values are the last param, appended to `spec`.
fn max_load_table(
    spec: ExperimentSpec,
    kind: SpaceKind,
    ns: &[usize],
    col: &str,
    columns: &[(Json, Strategy)],
    config: &SweepConfig,
) -> ExperimentResult {
    let values = columns.iter().map(|(value, _)| value.clone()).collect();
    let mut result = ExperimentResult::new(spec.param(col, Json::Arr(values)));
    for &n in ns {
        for (value, strategy) in columns {
            let cell = sweep_kind(kind, *strategy, n, n, config);
            result.push(report_cell(
                vec![
                    ("n".into(), Json::from_usize(n)),
                    (col.into(), value.clone()),
                ],
                &cell,
            ));
        }
        progress(&format!("{}: n = {n} done", result.spec.id));
    }
    result
}

/// The `d`-choice columns `(d, random tie-break)` for each of `ds`.
fn d_columns(ds: impl IntoIterator<Item = usize>) -> Vec<(Json, Strategy)> {
    ds.into_iter()
        .map(|d| (Json::from_usize(d), Strategy::d_choice(d)))
        .collect()
}

/// The paper's **Tables 1 and 2**: max-load distribution with random
/// arcs on the ring or random Voronoi cells on the 2-D torus, `m = n`,
/// `d ∈ {1, 2, 3, 4}`.
fn table1_2(
    kind: SpaceKind,
    ns: &[usize],
    config: &SweepConfig,
    header: ExperimentSpec,
) -> ExperimentResult {
    let spec = header
        .param("space", Json::str(kind.name()))
        .param("m", Json::str("n"))
        .param("tie_break", Json::str("random"))
        .param("n", sizes_json(ns));
    max_load_table(spec, kind, ns, "d", &d_columns(1..=4), config)
}

/// The paper's **Table 3**: max load by tie-breaking strategy with
/// random arcs, `d = 2`, `m = n`. The columns are the paper's, in its
/// order, plus Vöcking's split always-go-left scheme.
fn table3(ns: &[usize], config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let columns = [
        (
            "arc-larger",
            Strategy::with_tie_break(2, TieBreak::LargerRegion),
        ),
        ("arc-random", Strategy::with_tie_break(2, TieBreak::Random)),
        ("arc-left", Strategy::with_tie_break(2, TieBreak::Leftmost)),
        (
            "arc-smaller",
            Strategy::with_tie_break(2, TieBreak::SmallerRegion),
        ),
        ("voecking", Strategy::voecking(2)),
    ]
    .map(|(name, strategy)| (Json::str(name), strategy));
    let spec = header
        .param("space", Json::str("ring"))
        .param("m", Json::str("n"))
        .param("d", Json::from_usize(2))
        .param("n", sizes_json(ns));
    max_load_table(spec, SpaceKind::Ring, ns, "tie_break", &columns, config)
}

/// Dimension-sweep cells for one `K` (const generic: the space type is
/// monomorphized per dimension).
fn dimension_cells<const K: usize>(
    n: usize,
    ds: &[usize],
    config: &SweepConfig,
    result: &mut ExperimentResult,
) {
    for &d in ds {
        let label = format!("dim{K}/n{n}/d{d}");
        let cell = sweep_max_load(
            move |rng: &mut Xoshiro256pp| KdTorusSpace::<K>::random(n, rng),
            Strategy::d_choice(d),
            n,
            &label,
            config,
        );
        result.push(report_cell(
            vec![
                ("K".into(), Json::from_usize(K)),
                ("d".into(), Json::from_usize(d)),
            ],
            &cell,
        ));
    }
    progress(&format!("dimension: K = {K} done"));
}

/// The higher-dimension sweep (§3, footnote 3, seeding the ROADMAP
/// "`d > 2` sweeps" item): max load on the `K`-torus for `K ∈ {3, 4}`
/// across `d ∈ {1} ∪ {2..8}`, `m = n`. The `d ≥ 2` distributions should
/// be essentially flat in `K` (the bound is dimension-free) and show the
/// diminishing returns of larger `d` that the paper predicts.
fn dimension(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let ds: Vec<usize> = (1..=8).collect();
    let ks = [3usize, 4];
    let spec = header
        .param("space", Json::str("K-torus"))
        .param("m", Json::str("n"))
        .param("n", Json::from_usize(n))
        .param(
            "K",
            Json::Arr(ks.iter().map(|&k| Json::from_usize(k)).collect()),
        )
        .param(
            "d",
            Json::Arr(ds.iter().map(|&d| Json::from_usize(d)).collect()),
        );
    let mut result = ExperimentResult::new(spec);
    dimension_cells::<3>(n, &ds, config, &mut result);
    dimension_cells::<4>(n, &ds, config, &mut result);
    result
}

/// The ring diminishing-returns chart (the ROADMAP's "`d > 2` sweeps on
/// the *ring*" item): max-load distribution on random arcs for
/// `d ∈ {2..8}`, `m = n`, at one large `n`. The `log log n / log d`
/// bound predicts sharply diminishing returns past `d = 2`; this is the
/// data behind that curve. Feasible at large `n` only because of the
/// `O(1)` bucket-accelerated owner lookup.
fn ring_chart(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let spec = header
        .param("space", Json::str("ring"))
        .param("m", Json::str("n"))
        .param("tie_break", Json::str("random"))
        .param("n", Json::from_usize(n));
    max_load_table(spec, SpaceKind::Ring, &[n], "d", &d_columns(2..=8), config)
}

/// The two probe sources the `tabulation` experiment compares, in cell
/// order: the engine-default SplitMix64 lanes and the simple-tabulation
/// lanes (Dahlgaard et al., SODA 2016).
pub const TABULATION_SAMPLERS: [&str; 2] = ["splitmix-lane", "tabulation-lane"];

/// The simple-tabulation comparison (ROADMAP "weak hashing" item): the
/// max-load distribution on random ring arcs, `m = n`, `d ∈ {1, 2}`,
/// with per-ball lanes driven either by SplitMix64 (contract v2 default)
/// or by a per-trial simple tabulation hash in counter mode. Dahlgaard,
/// Knudsen, Rotenberg & Thorup prove two-choices max load survives
/// simple tabulation's mere 3-independence; the two columns should be
/// statistically indistinguishable, while both `d = 1` columns show the
/// usual `Θ(log n / log log n)` spread.
fn tabulation(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let ds = [1usize, 2];
    let spec = header
        .param("space", Json::str("ring"))
        .param("m", Json::str("n"))
        .param("tie_break", Json::str("random"))
        .param("n", Json::from_usize(n))
        .param(
            "sampler",
            Json::Arr(TABULATION_SAMPLERS.iter().map(|&s| Json::str(s)).collect()),
        )
        .param(
            "d",
            Json::Arr(ds.iter().map(|&d| Json::from_usize(d)).collect()),
        );
    let mut result = ExperimentResult::new(spec);
    for sampler in TABULATION_SAMPLERS {
        let tabulate = sampler == "tabulation-lane";
        for &d in &ds {
            let strategy = Strategy::d_choice(d);
            let label = format!("tabulation/{sampler}/n{n}/d{d}");
            let cell = max_load_cell(&label, config, |rng| {
                let space = RingSpace::random(n, rng);
                if tabulate {
                    // Fresh tables per trial (the theorems quantify over
                    // the hash draw too), then the same laned engine.
                    let hash = TabulationHash::from_seed(rng.gen());
                    let lanes = TabulationLanes::new(&hash, rng.gen());
                    run_trial_with_lanes(&space, &strategy, n, &lanes).max_load
                } else {
                    run_trial(&space, &strategy, n, rng).max_load
                }
            });
            result.push(report_cell(
                vec![
                    ("sampler".into(), Json::str(sampler)),
                    ("d".into(), Json::from_usize(d)),
                ],
                &cell,
            ));
        }
        progress(&format!("tabulation: {sampler} done"));
    }
    result
}

/// The two substrates the `heavy` experiment sweeps, in cell order: the
/// classical uniform baseline and the paper's ring.
pub const HEAVY_SPACES: [SpaceKind; 2] = [SpaceKind::Uniform, SpaceKind::Ring];

/// The heavily-loaded case (§2 remark 3): with `m` balls and `n` bins
/// the two-choice maximum is `m/n + O(log log n / log d)` w.h.p., so the
/// *slack* above the `m/n` floor should stay `O(log log n)` as the ratio
/// `m/n ∈ {1/4, 1, 4, 16}` grows — it may even shrink, since absolute
/// loads smooth out. Each cell reports the mean max load, the exact
/// `m/n` floor, the measured slack, and the max-load distribution, on
/// both the ring and the uniform baseline.
fn heavy(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let ms = [n / 4, n, 4 * n, 16 * n];
    let spec = header
        .param("n", Json::from_usize(n))
        .param("d", Json::from_usize(2))
        .param(
            "m",
            Json::Arr(ms.iter().map(|&m| Json::from_usize(m)).collect()),
        );
    let mut result = ExperimentResult::new(spec);
    for kind in HEAVY_SPACES {
        for &m in &ms {
            let cell = sweep_kind(kind, Strategy::two_choice(), n, m, config);
            let m_over_n = m as f64 / n as f64;
            let mean_max = cell.stats.mean();
            result.push(
                Cell::new()
                    .coord("space", Json::str(kind.name()))
                    .coord("m", Json::from_usize(m))
                    .metric("m_over_n", Json::num(m_over_n))
                    .metric("mean_max", Json::num(mean_max))
                    .metric("slack", Json::num(mean_max - m_over_n))
                    .dist(cell.distribution),
            );
        }
        progress(&format!("heavy: {} done", kind.name()));
    }
    result
}

/// The online-serving scenarios, in cell order: a probe-count sweep at
/// unbounded capacity (the serving analogue of Table 1's `d` columns),
/// then an admission-control sweep at `d = 2` as the per-server capacity
/// tightens toward the steady-state mean load of 4.
pub const SERVING_SCENARIOS: [(usize, Option<u32>); 7] = [
    (1, None),
    (2, None),
    (3, None),
    (4, None),
    (2, Some(5)),
    (2, Some(6)),
    (2, Some(8)),
];

/// The online-serving steady state (`geo2c-serve`): sessions arrive on
/// random ring arcs, route to the least-loaded of `d` probed owners,
/// live an exponential number of arrivals (mean `4n`, so the stationary
/// mean load is 4 sessions per server), and depart. Capacity-bounded
/// scenarios shed arrivals whose destination is full. Each cell reports
/// the end-state load profile after `16n` events — four mean lifetimes,
/// comfortably past mixing — as exact scalar metrics (mean of max, p99,
/// mean load, shed percentage over the trials) plus the aggregated
/// per-server load distribution across all trials.
fn serving(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let mean_life = 4.0 * n as f64;
    let horizon = 16 * n as u64;
    let spec = header
        .param("space", Json::str("ring"))
        .param("servers", Json::from_usize(n))
        .param("events", Json::from_u64(horizon))
        .param("mean_life", Json::num(mean_life))
        .param("tie_break", Json::str("random"));
    let mut result = ExperimentResult::new(spec);
    for (d, capacity) in SERVING_SCENARIOS {
        let cap_label = match capacity {
            Some(cap) => cap.to_string(),
            None => "unbounded".to_string(),
        };
        let seeder = StreamSeeder::new(config.seed).child(&format!("serving/d{d}/cap{cap_label}"));
        let rows = run_trials(&seeder, config.trials, config.threads, |rng| {
            let space = RingSpace::random(n, rng);
            let cfg = ServeConfig {
                strategy: Strategy::d_choice(d),
                capacity,
                life: SessionLife::Exponential { mean: mean_life },
                retries: 0,
            };
            let mut engine = ServeEngine::new(space, cfg, rng.gen::<u64>());
            engine.run(horizon);
            let stats = engine.load_stats();
            (
                [
                    f64::from(stats.max),
                    f64::from(stats.p99),
                    stats.mean,
                    100.0 * engine.shed_rate(),
                ],
                engine.live_loads().collect::<Vec<u32>>(),
            )
        });
        let [max, p99, mean, shed] = column_stats(rows.iter().map(|(row, _)| *row));
        let distribution: Counter = rows
            .iter()
            .flat_map(|(_, loads)| loads)
            .map(|&load| u64::from(load))
            .collect();
        result.push(
            Cell::new()
                .coord("d", Json::from_usize(d))
                .coord("capacity", Json::str(&cap_label))
                .metric("max_load", Json::num(max.mean()))
                .metric("p99_load", Json::num(p99.mean()))
                .metric("mean_load", Json::num(mean.mean()))
                .metric("shed_pct", Json::num(shed.mean()))
                .dist(distribution),
        );
        progress(&format!("serving: d = {d}, capacity = {cap_label} done"));
    }
    result
}

/// Retry budgets the resilience grid sweeps: `r = 0` is the plain PR-6
/// engine (the byte-identity control), `r ∈ {1, 2}` redraw that many
/// fresh probe sets from the `RETRY_TAG` lane before shedding.
pub const RESILIENCE_RETRIES: [u32; 3] = [0, 1, 2];

/// The serving resilience family (`geo2c-serve` + [`FaultPlan`]):
/// the serving workload under deterministic correlated outages.
///
/// Two kinds of cells, distinguished by the `phase` coordinate:
///
/// * **`steady`** — a contiguous region of the ring (10% or 30% of the
///   servers — a geometrically correlated outage, since `RingSpace`
///   sorts servers by position) is down for the whole run. The grid is
///   failure fraction × d ∈ {2, 3} × retry budget
///   ([`RESILIENCE_RETRIES`]), and the cell reports whole-run
///   availability, the shed split (capacity vs unavailable), the
///   fraction of arrivals rescued by retries, and the end-state live
///   load profile.
/// * **`pre-outage` / `outage` / `recovered`** — one transient
///   scenario per retry budget at d = 2: the region crashes at `4n`,
///   recovers at `8n`, and the run continues to `16n`
///   ([`ServeEngine::run_with_faults`] applies the plan in chunks).
///   Each phase cell reports the *per-phase* rates (counter deltas
///   across the phase boundary) — the outage-and-recovery curve: shed
///   spikes while the region is dark, then returns to the pre-outage
///   baseline after recovery.
///
/// All randomness is laned: the fault schedule is part of the
/// experiment spec (a [`FaultPlan`], not a random draw), the retry
/// redraws come from each event's `RETRY_TAG` lane, and `r = 0` never
/// touches that lane — so the `r = 0` column is byte-identical to the
/// engine the committed `serving` table runs.
fn resilience(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let mean_life = 4.0 * n as f64;
    let horizon = 16 * n as u64;
    let capacity = 6u32;
    let spec = header
        .param("space", Json::str("ring"))
        .param("servers", Json::from_usize(n))
        .param("events", Json::from_u64(horizon))
        .param("mean_life", Json::num(mean_life))
        .param("capacity", Json::from_u64(u64::from(capacity)))
        .param("tie_break", Json::str("random"))
        .param(
            "retries",
            Json::Arr(
                RESILIENCE_RETRIES
                    .iter()
                    .map(|&r| Json::from_u64(u64::from(r)))
                    .collect(),
            ),
        );
    let mut result = ExperimentResult::new(spec);
    let fractions = [0.1f64, 0.3];
    // One aggregate row: [shed_pct, unavail_pct, retry_admit_pct,
    // availability_pct, max_load, p99_load].
    type Row = [f64; 6];
    let push_cell =
        |result: &mut ExperimentResult, phase: &str, fail: f64, d: usize, r: u32, rows: &[Row]| {
            let stats = column_stats(rows.iter().copied());
            result.push(
                Cell::new()
                    .coord("phase", Json::str(phase))
                    .coord("fail_pct", Json::num(fail * 100.0))
                    .coord("d", Json::from_usize(d))
                    .coord("r", Json::from_u64(u64::from(r)))
                    .metric("availability_pct", Json::num(stats[3].mean()))
                    .metric("shed_pct", Json::num(stats[0].mean()))
                    .metric("unavail_pct", Json::num(stats[1].mean()))
                    .metric("retry_admit_pct", Json::num(stats[2].mean()))
                    .metric("max_load", Json::num(stats[4].mean()))
                    .metric("p99_load", Json::num(stats[5].mean())),
            );
        };
    // Rates over a window of `events` arrivals, from counter deltas.
    let window_row =
        |engine: &ServeEngine<RingSpace, Vec<u32>>, base: (u64, u64, u64, u64)| -> Row {
            let (arrivals0, cap0, unavail0, rescued0) = base;
            let events = engine.arrivals() - arrivals0;
            let pct = |x: u64| 100.0 * x as f64 / events as f64;
            let shed_cap = engine.shed_capacity() - cap0;
            let shed_unavail = engine.shed_unavailable() - unavail0;
            let stats = engine.load_stats();
            [
                pct(shed_cap + shed_unavail),
                pct(shed_unavail),
                pct(engine.admitted_on_retry() - rescued0),
                100.0 - pct(shed_cap + shed_unavail),
                f64::from(stats.max),
                f64::from(stats.p99),
            ]
        };
    let snap = |engine: &ServeEngine<RingSpace, Vec<u32>>| {
        (
            engine.arrivals(),
            engine.shed_capacity(),
            engine.shed_unavailable(),
            engine.admitted_on_retry(),
        )
    };
    let engine_config = |d: usize, r: u32| ServeConfig {
        strategy: Strategy::d_choice(d),
        capacity: Some(capacity),
        life: SessionLife::Exponential { mean: mean_life },
        retries: r,
    };

    // Steady cells: the region is dark for the entire run.
    for &fail in &fractions {
        let down = ((fail * n as f64).round() as usize).max(1);
        for d in [2usize, 3] {
            for r in RESILIENCE_RETRIES {
                let label = format!("resilience/steady/fail{}/d{d}/r{r}", fail * 100.0);
                let seeder = StreamSeeder::new(config.seed).child(&label);
                let plan = FaultPlan::region_outage(n, 0, down, 0, None);
                let rows: Vec<Row> = run_trials(&seeder, config.trials, config.threads, |rng| {
                    let space = RingSpace::random(n, rng);
                    let mut engine = ServeEngine::new(space, engine_config(d, r), rng.gen::<u64>());
                    let base = snap(&engine);
                    engine.run_with_faults(horizon, &plan);
                    window_row(&engine, base)
                });
                push_cell(&mut result, "steady", fail, d, r, &rows);
            }
        }
        progress(&format!(
            "resilience: steady, fail = {}% done",
            fail * 100.0
        ));
    }

    // Transient cells: crash at 4n, recover at 8n, run to 16n; one cell
    // per (phase, r) at d = 2 and the larger outage.
    let fail = fractions[1];
    let down = ((fail * n as f64).round() as usize).max(1);
    let chunks = [4 * n as u64, 4 * n as u64, 8 * n as u64];
    for r in RESILIENCE_RETRIES {
        let label = format!("resilience/transient/fail{}/d2/r{r}", fail * 100.0);
        let seeder = StreamSeeder::new(config.seed).child(&label);
        let plan = FaultPlan::region_outage(n, 0, down, 4 * n as u64, Some(8 * n as u64));
        let rows: Vec<[Row; 3]> = run_trials(&seeder, config.trials, config.threads, |rng| {
            let space = RingSpace::random(n, rng);
            let mut engine = ServeEngine::new(space, engine_config(2, r), rng.gen::<u64>());
            chunks.map(|events| {
                let base = snap(&engine);
                engine.run_with_faults(events, &plan);
                window_row(&engine, base)
            })
        });
        for (i, phase) in ["pre-outage", "outage", "recovered"].iter().enumerate() {
            let phase_rows: Vec<Row> = rows.iter().map(|r| r[i]).collect();
            push_cell(&mut result, phase, fail, 2, r, &phase_rows);
        }
        progress(&format!("resilience: transient, r = {r} done"));
    }
    result
}

/// The DHT churn experiment (previously the stdout-only `churn` binary,
/// folded into the gated suite): place `16n` items on an `n`-node Chord
/// ring under each scheme, fail a fraction of the nodes, re-place the
/// orphans under the same scheme, and report the before/after maximum
/// load plus the fraction of items that moved. Metric-only cells,
/// compared exactly by `--check`.
fn churn(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let m = (16 * n) as u64;
    let seeder = StreamSeeder::new(config.seed).child("churn");
    let spec = header
        .param("nodes", Json::from_usize(n))
        .param("items", Json::from_u64(m));
    let mut result = ExperimentResult::new(spec);
    for (name, policy, v) in [
        ("consistent", PlacementPolicy::Consistent, 1usize),
        (
            "virtual(log n)",
            PlacementPolicy::Consistent,
            (n as f64).log2().ceil() as usize,
        ),
        ("2-choice", PlacementPolicy::DChoice { d: 2 }, 1),
    ] {
        for &fail in &[0.1f64, 0.3, 0.5] {
            let trial_seeder = seeder.child(&format!("{name}/{fail}"));
            let rows = run_trials(&trial_seeder, config.trials, config.threads, |rng| {
                let report = churn_experiment(n, v, policy, m, fail, rng);
                [
                    f64::from(report.max_before),
                    f64::from(report.max_after),
                    report.moved_items as f64 / m as f64,
                ]
            });
            let [before, after, moved] = column_stats(rows);
            result.push(
                Cell::new()
                    .coord("scheme", Json::str(name))
                    .coord("fail_pct", Json::num(fail * 100.0))
                    .metric("max_before", Json::num(before.mean()))
                    .metric("max_after", Json::num(after.mean()))
                    .metric("moved_pct", Json::num(100.0 * moved.mean())),
            );
        }
        progress(&format!("churn: {name} done"));
    }
    result
}

/// The replication × placement trade-off (previously the stdout-only
/// `replication` binary, folded into the gated suite): place `16n` items
/// on an `n`-node Chord ring with `r` successor-list replicas under each
/// placement policy, fail 30% of the nodes, and report the three-way
/// trade-off — storage load (`max_load_mean`), the storage price
/// (`mean_load = r·m/n`), and post-failure availability (≈ 1 − fail^r).
/// Availability is set by `r` and balance by the placement policy; the
/// two mechanisms compose, which is the practical claim behind §1.1.
/// Metric-only cells, compared exactly by `--check`. The seeder paths
/// are those of the former binary, so its historical numbers reproduce
/// under the same seed and trial count.
fn replication(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let m = (16 * n) as u64;
    let fail = 0.3;
    let seeder = StreamSeeder::new(config.seed).child("replication");
    let spec = header
        .param("nodes", Json::from_usize(n))
        .param("items", Json::from_u64(m))
        .param("fail_fraction", Json::num(fail));
    let mut result = ExperimentResult::new(spec);
    for (name, policy) in [
        ("consistent", PlacementPolicy::Consistent),
        ("2-choice", PlacementPolicy::DChoice { d: 2 }),
    ] {
        for r in [1usize, 2, 3] {
            let trial_seeder = seeder.child(&format!("{name}/r{r}"));
            let rows = run_trials(&trial_seeder, config.trials, config.threads, |rng| {
                let ring = ChordRing::new(n, rng);
                let placement = place_replicated(&ring, policy, m, r);
                let avail = availability_after_failures(&placement, n, fail, rng);
                [f64::from(placement.max_load()), avail.available]
            });
            let [max_load, avail] = column_stats(rows);
            result.push(
                Cell::new()
                    .coord("scheme", Json::str(name))
                    .coord("replicas", Json::from_usize(r))
                    .metric("max_load_mean", Json::num(max_load.mean()))
                    .metric("mean_load", Json::num(r as f64 * m as f64 / n as f64))
                    .metric("availability_pct", Json::num(100.0 * avail.mean())),
            );
        }
        progress(&format!("replication: {name} done"));
    }
    result
}

/// The §1.1 Chord application (previously the stdout-only `dht` binary,
/// folded into the gated suite): place `16n` items on an `n`-node
/// Chord-style DHT under the three ways to balance item load — plain
/// consistent hashing, `v = ⌈log₂ n⌉` virtual servers (Chord's own
/// mitigation), and `d`-choice placement with redirection pointers (the
/// paper's proposal) — and report max/mean/σ of the per-server load plus
/// the lookup-hop cost of each configuration. Metric-only cells,
/// compared exactly by `--check`. The seeder paths are those of the
/// former binary, so its historical numbers reproduce under the same
/// seed and trial count.
fn dht(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let m = (16 * n) as u64;
    let v = (n as f64).log2().ceil() as usize;
    let lookup_samples = 2000;
    let seeder = StreamSeeder::new(config.seed).child("dht");
    let spec = header
        .param("nodes", Json::from_usize(n))
        .param("items", Json::from_u64(m))
        .param("virtual_servers", Json::from_usize(v))
        .param("lookup_samples", Json::from_usize(lookup_samples));
    let mut result = ExperimentResult::new(spec);
    for (name, virtual_servers, policy) in [
        ("consistent", 1usize, PlacementPolicy::Consistent),
        ("virtual(log n)", v, PlacementPolicy::Consistent),
        ("2-choice", 1, PlacementPolicy::DChoice { d: 2 }),
        ("4-choice", 1, PlacementPolicy::DChoice { d: 4 }),
    ] {
        // Each trial: fresh ring + placement + sampled lookups.
        let rows = run_trials(&seeder.child(name), config.trials, config.threads, |rng| {
            let ring = ChordRing::with_virtual_servers(n, virtual_servers, rng);
            let report = evaluate(&ring, policy, m, lookup_samples, rng);
            let lookup = report.lookup.expect("lookups sampled");
            [
                f64::from(report.load.max),
                report.load.stddev,
                lookup.mean_hops,
                f64::from(lookup.max_hops),
                lookup.redirect_rate,
            ]
        });
        let [max_load, sigma, hops, max_hops, redirect] = column_stats(rows);
        // Finger-table state per physical node: 64 entries per virtual node.
        let state = virtual_servers * 64;
        result.push(
            Cell::new()
                .coord("scheme", Json::str(name))
                .metric("max_load_mean", Json::num(max_load.mean()))
                .metric("load_sigma", Json::num(sigma.mean()))
                .metric("mean_hops", Json::num(hops.mean()))
                .metric("max_hops", Json::num(max_hops.max()))
                .metric("redirect_pct", Json::num(100.0 * redirect.mean()))
                .metric("fingers_per_node", Json::from_usize(state)),
        );
        progress(&format!("dht: {name} done"));
    }
    result
}

/// The load-state backings the `scaling` experiment compares, in cell
/// order: the flat `Vec<u32>` reference and the two packed widths.
pub const SCALING_BACKINGS: [&str; 3] = ["flat-u32", "packed-nibble", "packed-byte"];

/// The streaming-scale backing comparison (the former stdout-only
/// `scaling` binary, promoted into the gated suite): `m = n` random-tie
/// insertions on uniform bins for every [`geo2c_core::load::LoadState`]
/// backing × d ∈ {1, 2}, at the largest `n` the suite touches. Uniform
/// bins isolate the load-state data path — the geometry substrates have
/// their own `trial/*` benches.
///
/// Cells are metric-only. `max_load` (mean over trials) is deterministic
/// in the seed and **asserted equal across backings** per `d`: every
/// backing replays the flat trial's exact lane streams, so a packed
/// backing that moved a single placement would panic here before
/// `--check` ever saw it. `bytes_per_bin` is the end-state
/// `heap_bytes / n` of trial 0 — exactly 4 for the flat vector, ~0.5 /
/// ~1 for the nibble / byte packings (plus spill, which `m = n` trials
/// never reach at these sizes). `~balls_per_s` is wall-clock placement
/// throughput; the `~` prefix marks it informational, so `--check`
/// renders it but excludes it from the exact metric compare.
fn scaling(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let ds = [1usize, 2];
    let spec = header
        .param("space", Json::str("uniform"))
        .param("m", Json::str("n"))
        .param("tie_break", Json::str("random"))
        .param("n", Json::from_usize(n))
        .param(
            "backing",
            Json::Arr(SCALING_BACKINGS.iter().map(|&b| Json::str(b)).collect()),
        )
        .param(
            "d",
            Json::Arr(ds.iter().map(|&d| Json::from_usize(d)).collect()),
        );
    let mut result = ExperimentResult::new(spec);
    for &d in &ds {
        let strategy = Strategy::d_choice(d);
        // One seeder child per d, shared by every backing: each packed
        // trial replays the flat trial's lane streams bit for bit.
        let seeder = StreamSeeder::new(config.seed).child(&format!("scaling/n{n}/d{d}"));
        let mut flat_maxes: Vec<u32> = Vec::new();
        for backing in SCALING_BACKINGS {
            let started = std::time::Instant::now();
            let rows = run_trials(&seeder, config.trials, config.threads, |rng| {
                let space = UniformSpace::new(n);
                match backing {
                    "flat-u32" => {
                        let r = run_trial(&space, &strategy, n, rng);
                        (r.max_load, r.loads.heap_bytes())
                    }
                    packed => {
                        let lanes = BallLanes::new(rng.next_u64());
                        let mut loads = if packed == "packed-nibble" {
                            PackedLoads::nibble(n)
                        } else {
                            PackedLoads::byte(n)
                        };
                        let max = run_trial_into(&space, &strategy, n, &lanes, &mut loads);
                        (max, loads.heap_bytes())
                    }
                }
            });
            let elapsed = started.elapsed().as_secs_f64();
            let maxes: Vec<u32> = rows.iter().map(|&(m, _)| m).collect();
            if backing == "flat-u32" {
                flat_maxes.clone_from(&maxes);
            } else {
                assert_eq!(
                    maxes, flat_maxes,
                    "{backing} diverged from flat-u32 at d = {d}"
                );
            }
            let [max_stats] = column_stats(maxes.iter().map(|&ml| [f64::from(ml)]));
            let bytes_per_bin = rows.first().map_or(0.0, |&(_, b)| b as f64 / n as f64);
            let balls_per_s = if elapsed > 0.0 {
                ((config.trials * n) as f64 / elapsed).round()
            } else {
                0.0
            };
            result.push(
                Cell::new()
                    .coord("backing", Json::str(backing))
                    .coord("d", Json::from_usize(d))
                    .metric("max_load", Json::num(max_stats.mean()))
                    .metric("bytes_per_bin", Json::num(bytes_per_bin))
                    .metric("~balls_per_s", Json::num(balls_per_s)),
            );
            progress(&format!("scaling: {backing}, d = {d} done"));
        }
    }
    result
}

/// The checkpoint intervals (events between durable checkpoints) the
/// `durability` experiment sweeps, in cell order.
pub const DURABILITY_INTERVALS: [u64; 3] = [64, 256, 1024];

/// The durability recovery-cost experiment: run the serving workload
/// under the journal discipline (`geo2c_serve::DurableEngine`), crash it
/// at a deterministically drawn event with a deterministically drawn
/// torn journal tail, resume through `geo2c_serve::Recovery`, and
/// measure what recovery cost — events replayed from the last durable
/// checkpoint and journal bytes per event — as a function of the
/// checkpoint interval.
///
/// Every trial **asserts** that the crashed-and-recovered engine,
/// run forward to the horizon, is byte-identical to an uninterrupted
/// reference run (the same `recovered ≡ uninterrupted` pin as the
/// `crash_recovery` proptest suite, here exercised at suite scale on
/// every regeneration). Cells are metric-only and fully deterministic in
/// the seed — the journal writes to a scratch directory but every
/// reported number is a pure function of the streams — so `--check`
/// compares them exactly.
fn durability(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    use std::sync::atomic::{AtomicU64, Ordering};
    static UNIQUE: AtomicU64 = AtomicU64::new(0);

    let events = (16 * n) as u64;
    let serve_config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: Some(8),
        life: SessionLife::Exponential { mean: n as f64 },
        retries: 1,
    };
    let seeder = StreamSeeder::new(config.seed).child("durability");
    let spec = header
        .param("servers", Json::from_usize(n))
        .param("events", Json::from_u64(events))
        .param(
            "interval",
            Json::Arr(
                DURABILITY_INTERVALS
                    .iter()
                    .map(|&c| Json::from_u64(c))
                    .collect(),
            ),
        );
    let mut result = ExperimentResult::new(spec);
    for &every in &DURABILITY_INTERVALS {
        // The app-side chunking between checkpoints: eight progress
        // frames per interval, so a crash usually tears a journal with
        // durable frames to resume past.
        let chunk = (every / 8).max(1);
        let trial_seeder = seeder.child(&format!("c{every}"));
        let rows = run_trials(&trial_seeder, config.trials, config.threads, |rng| {
            let root = rng.gen::<u64>();
            let plan = FaultPlan::random_churn(rng.gen::<u64>(), n, events, 4, events / 8);
            let crash_at = rng.gen_range(1..=events);
            let cut: f64 = rng.gen_range(0.0..1.0);
            let space = UniformSpace::new(n);

            // The uninterrupted reference: same pure function.
            let mut reference = ServeEngine::new(space.clone(), serve_config, root);
            reference.run_with_faults(events, &plan);

            let dir = std::env::temp_dir().join(format!(
                "geo2c-durability-{}-{}",
                std::process::id(),
                UNIQUE.fetch_add(1, Ordering::Relaxed)
            ));
            let mut durable: DurableEngine<_> = DurableEngine::create_with(
                &dir,
                space.clone(),
                serve_config,
                root,
                every,
                vec![0; n],
            )
            .expect("create journal dir");
            while durable.engine().arrivals() < crash_at {
                let step = chunk.min(crash_at - durable.engine().arrivals());
                durable.run_journaled(step, &plan).expect("journaled run");
            }
            let journal_bytes = durable.journal_bytes();
            let checkpoints = durable.checkpoints();
            drop(durable);

            // Crash: tear the journal at a random byte of its body.
            let journal_path = dir.join(geo2c_serve::journal::JOURNAL_FILE);
            let bytes = std::fs::read(&journal_path).expect("read journal");
            let body = bytes.len() - Header::LEN;
            let keep = Header::LEN + (body as f64 * cut) as usize;
            std::fs::write(&journal_path, &bytes[..keep]).expect("tear journal");

            let resumed: Resumed<_, Vec<u32>, DepartureWheel> =
                Recovery::resume(&dir, space, serve_config, root, &plan, vec![0u32; n])
                    .expect("recovery");
            let replayed = resumed.replayed;
            let mut engine = resumed.engine;
            engine.run_with_faults(events - engine.arrivals(), &plan);
            assert_eq!(
                engine.state(),
                reference.state(),
                "recovered run diverged from the uninterrupted run \
                 (interval {every}, crash at {crash_at})"
            );
            let _ = std::fs::remove_dir_all(&dir);
            [
                replayed as f64,
                journal_bytes as f64 / crash_at as f64,
                checkpoints as f64,
            ]
        });
        let [replay, bytes_per_event, checkpoints] = column_stats(rows);
        result.push(
            Cell::new()
                .coord("interval", Json::from_u64(every))
                .metric("replay_mean", Json::num(replay.mean()))
                .metric("replay_max", Json::num(replay.max()))
                .metric("journal_bytes_per_event", Json::num(bytes_per_event.mean()))
                .metric("checkpoints_mean", Json::num(checkpoints.mean())),
        );
        progress(&format!("durability: interval {every} done"));
    }
    result
}

/// **Lemma 3** (negative dependence): for the indicators `Z_j` that the
/// arc owned by placed point `j` is at least `c/n` long, the joint
/// probability that `k` given arcs are all long never exceeds the product
/// of the exact marginals, `E[Z_1⋯Z_k] ≤ E[Z]^k` with
/// `E[Z] = (1 − c/n)^{n−1}`. Each cell reports both sides and their ratio
/// (≤ 1 up to sampling noise). By exchangeability the index set is
/// irrelevant, so each trial contributes `⌊n/k⌋` disjoint index groups as
/// samples; at `k = 1` the joint is the empirical marginal.
/// The seeder paths of the lemma and non-uniformity members are those
/// of their former standalone binaries, so historical runs reproduce.
fn lemma3(
    n: usize,
    cs: &[f64],
    ks: &[usize],
    config: &SweepConfig,
    header: ExperimentSpec,
) -> ExperimentResult {
    assert!(ks.iter().all(|&k| k >= 1 && k <= n), "1 <= k <= n");
    let seeder = StreamSeeder::new(config.seed).child("lemma3");
    // Per trial, per (c, k) in cell order: the groups of `k` long arcs.
    let per_trial: Vec<Vec<u64>> = run_trials(&seeder, config.trials, config.threads, |rng| {
        let points: Vec<RingPoint> = (0..n).map(|_| RingPoint::random(rng)).collect();
        let gaps = forward_gaps(&points);
        let mut out = Vec::with_capacity(cs.len() * ks.len());
        for &c in cs {
            let cutoff = c / n as f64;
            let z: Vec<bool> = gaps.iter().map(|&g| g >= cutoff).collect();
            for &k in ks {
                let hits = (0..n / k)
                    .filter(|g| z[g * k..(g + 1) * k].iter().all(|&b| b))
                    .count();
                out.push(hits as u64);
            }
        }
        out
    });
    let spec = header
        .param("n", Json::from_usize(n))
        .param("claim", Json::str("E[Z_1..Z_k] <= E[Z]^k"));
    let mut result = ExperimentResult::new(spec);
    let grid = cs.iter().flat_map(|&c| ks.iter().map(move |&k| (c, k)));
    for (idx, (c, k)) in grid.enumerate() {
        let hits: u64 = per_trial.iter().map(|trial| trial[idx]).sum();
        let groups = (config.trials * (n / k)) as u64;
        let joint = hits as f64 / groups.max(1) as f64;
        let product = arc_survival(n, c / n as f64).powi(k as i32);
        let ratio = if product > 0.0 { joint / product } else { 0.0 };
        result.push(
            Cell::new()
                .coord("c", Json::num(c))
                .coord("k", Json::from_usize(k))
                .metric("marginal_product", Json::num(product))
                .metric("joint_observed", Json::num(joint))
                .metric("ratio", Json::num(ratio))
                .metric("samples", Json::from_u64(groups)),
        );
    }
    progress("lemma3 done");
    result
}

/// **Lemmas 4 and 5** (long-arc count tail): the observed rate of
/// `N_c ≥ 2n e^{−c}`, where `N_c` counts arcs of length at least `c/n`,
/// next to the analytic bounds `e^{−n e^{−c}/3}` (Lemma 4, negative
/// dependence) and `e^{−n e^{−2c}/8}` (Lemma 5, martingale), and the
/// exact mean count `n (1 − c/n)^{n−1}`.
fn lemma4_5(
    n: usize,
    cs: &[f64],
    config: &SweepConfig,
    header: ExperimentSpec,
) -> ExperimentResult {
    let seeder = StreamSeeder::new(config.seed).child("lemma4");
    let per_trial: Vec<Vec<usize>> = run_trials(&seeder, config.trials, config.threads, |rng| {
        let arcs = RingPartition::random(n, rng).arc_lengths();
        cs.iter()
            .map(|&c| count_arcs_at_least(&arcs, c / n as f64))
            .collect()
    });
    let spec = header
        .param("n", Json::from_usize(n))
        .param("threshold", Json::str("N_c >= 2 n e^-c"));
    let mut result = ExperimentResult::new(spec);
    for (ci, &c) in cs.iter().enumerate() {
        let threshold = lemma4_threshold(n, c);
        let [counts] = column_stats(per_trial.iter().map(|t| [t[ci] as f64]));
        let violations = per_trial
            .iter()
            .filter(|t| t[ci] as f64 >= threshold)
            .count();
        result.push(
            Cell::new()
                .coord("c", Json::num(c))
                .metric(
                    "expected_count",
                    Json::num(n as f64 * arc_survival(n, c / n as f64)),
                )
                .metric("mean_count", Json::num(counts.mean()))
                .metric("max_count", Json::num(counts.max()))
                .metric("threshold", Json::num(threshold))
                .metric(
                    "violation_rate",
                    Json::num(violations as f64 / config.trials as f64),
                )
                .metric("lemma4_bound", Json::num(lemma4_prob_bound(n, c).min(1.0)))
                .metric("lemma5_bound", Json::num(lemma5_prob_bound(n, c).min(1.0))),
        );
    }
    progress("lemma4_5 done");
    result
}

/// Lemma 6's `a` grid at `n`: the single longest arc, the bottom of the
/// lemma's range `(ln n)²` and twice it, and `n/256` and `n/64`.
fn lemma6_sizes(n: usize) -> Vec<usize> {
    let lnn = (n as f64).ln();
    let a_floor = (lnn * lnn) as usize;
    let mut sizes = vec![
        1usize,
        a_floor.max(2),
        (2 * a_floor).max(4),
        n / 256,
        n / 64,
    ];
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// **Lemma 6** (longest arcs): the sum of the `a` longest arcs against
/// the bound `2(a/n) ln(n/a)`, and the single longest arc (`a = 1`)
/// against `4 ln n / n`. The `exact_expected_sum` column is the exact
/// expectation from the Rényi spacings representation, which shows the
/// slack the paper's bound carries (about 2×).
fn lemma6(
    n: usize,
    sizes: &[usize],
    config: &SweepConfig,
    header: ExperimentSpec,
) -> ExperimentResult {
    let max_size = sizes.iter().copied().max().unwrap_or(0).min(n);
    let seeder = StreamSeeder::new(config.seed).child("lemma6");
    let per_trial: Vec<Vec<f64>> = run_trials(&seeder, config.trials, config.threads, |rng| {
        let mut arcs = RingPartition::random(n, rng).arc_lengths();
        arcs.sort_unstable_by(|x, y| y.partial_cmp(x).expect("finite"));
        // Prefix sums of the sorted arcs up to the largest requested size,
        // so `sizes` may arrive in any order.
        let mut prefix = Vec::with_capacity(max_size + 1);
        prefix.push(0.0);
        for i in 0..max_size {
            prefix.push(prefix[i] + arcs[i]);
        }
        sizes.iter().map(|&a| prefix[a.min(max_size)]).collect()
    });
    let spec = header
        .param("n", Json::from_usize(n))
        .param("bound", Json::str("2 (a/n) ln(n/a); a = 1 row: 4 ln n / n"));
    let mut result = ExperimentResult::new(spec);
    for (ai, &a) in sizes.iter().enumerate() {
        let bound = if a == 1 {
            longest_arc_bound(n)
        } else {
            lemma6_bound(n, a)
        };
        let [sums] = column_stats(per_trial.iter().map(|t| [t[ai]]));
        let violations = per_trial.iter().filter(|t| t[ai] > bound).count();
        result.push(
            Cell::new()
                .coord("a", Json::from_usize(a))
                .metric("bound", Json::num(bound))
                .metric("exact_expected_sum", Json::num(expected_top_a_sum(n, a)))
                .metric("mean_sum", Json::num(sums.mean()))
                .metric("max_sum", Json::num(sums.max()))
                .metric(
                    "violation_rate",
                    Json::num(violations as f64 / config.trials as f64),
                ),
        );
    }
    progress("lemma6 done");
    result
}

/// **Lemmas 8 and 9** (Voronoi cell-area tail on the torus): the number
/// of cells of area at least `c/n` against the `12 n e^{−c/6}` threshold,
/// and the empty-sector count `Z` against its expectation
/// `6n(1 − c/6n)^{n−1}`. The formal Lemma 9 range is `12 ≤ c ≤ ln n`,
/// where the empirical tail is already all zeros, so small `c` rows keep
/// the observed counts non-trivial.
///
/// Lemma 8 is deterministic (every cell of area at least `c/n` has an
/// empty sector), so the constructor **asserts** zero violations across
/// all trials, the same way [`scaling`] asserts placement equality.
fn lemma8_9(
    n: usize,
    cs: &[f64],
    config: &SweepConfig,
    header: ExperimentSpec,
) -> ExperimentResult {
    let seeder = StreamSeeder::new(config.seed).child("lemma9");
    // Per trial, per c: (large cells, empty-sector sites Z, Lemma 8
    // violations).
    let per_trial: Vec<Vec<(usize, usize, u64)>> =
        run_trials(&seeder, config.trials, config.threads, |rng| {
            let sites = KdSites::<2>::random(n, rng);
            let areas = sites.cell_areas();
            cs.iter()
                .map(|&c| {
                    let cutoff = c / n as f64;
                    let mut large = 0usize;
                    let mut z = 0usize;
                    let mut violations = 0u64;
                    for (i, &area) in areas.iter().enumerate() {
                        let empty = has_empty_sector(&sites, i, c);
                        if empty {
                            z += 1;
                        }
                        if area >= cutoff {
                            large += 1;
                            if !empty {
                                violations += 1;
                            }
                        }
                    }
                    (large, z, violations)
                })
                .collect()
        });
    let spec = header.param("n", Json::from_usize(n)).param(
        "threshold",
        Json::str("#cells(area >= c/n) vs 12 n e^{-c/6}"),
    );
    let mut result = ExperimentResult::new(spec);
    for (ci, &c) in cs.iter().enumerate() {
        let lemma8_violations: u64 = per_trial.iter().map(|t| t[ci].2).sum();
        assert_eq!(lemma8_violations, 0, "Lemma 8 violated at n = {n}, c = {c}");
        let threshold = lemma9_threshold(n, c);
        let [large, z] = column_stats(per_trial.iter().map(|t| [t[ci].0 as f64, t[ci].1 as f64]));
        let violations = per_trial
            .iter()
            .filter(|t| t[ci].0 as f64 > threshold)
            .count();
        result.push(
            Cell::new()
                .coord("c", Json::num(c))
                .metric("expected_z", Json::num(expected_empty_sectors(n, c)))
                .metric("mean_z", Json::num(z.mean()))
                .metric("mean_large_cells", Json::num(large.mean()))
                .metric("threshold", Json::num(threshold))
                .metric(
                    "violation_rate",
                    Json::num(violations as f64 / config.trials as f64),
                )
                .metric("lemma8_violations", Json::from_u64(lemma8_violations)),
        );
    }
    progress("lemma8_9 done");
    result
}

/// Cluster probabilities `q` the non-uniform sweeps cover, in cell order;
/// `q = 0` is Theorem 1's uniform setting.
pub const NONUNIFORM_QS: [f64; 4] = [0.0, 0.5, 0.9, 0.99];

/// Width of the ring interval the non-uniform cluster occupies.
const NONUNIFORM_WIDTH: f64 = 0.1;

/// One non-uniformity axis: per cluster probability `q`, the mean max
/// load at `d = 1`, `d = 2`, and `d = 2` with smaller-region tie-breaking,
/// plus the `d = 2` max-load distribution. `make_factory(q)` builds the
/// per-`q` space factory.
fn nonuniform_axis<S, F, G>(
    header: ExperimentSpec,
    label_prefix: &str,
    n: usize,
    config: &SweepConfig,
    make_factory: G,
) -> ExperimentResult
where
    S: geo2c_core::space::Space,
    F: Fn(&mut Xoshiro256pp) -> S + Sync,
    G: Fn(f64) -> F,
{
    let spec = header
        .param("n", Json::from_usize(n))
        .param("m", Json::str("n"))
        .param("cluster_width", Json::num(NONUNIFORM_WIDTH))
        .param(
            "q",
            Json::Arr(NONUNIFORM_QS.iter().map(|&q| Json::num(q)).collect()),
        );
    let mut result = ExperimentResult::new(spec);
    for q in NONUNIFORM_QS {
        let factory = make_factory(q);
        let sweep = |strategy: Strategy, tag: &str| {
            let label = format!("{label_prefix}/q{q}/{tag}");
            sweep_max_load(&factory, strategy, n, &label, config)
        };
        let one = sweep(Strategy::one_choice(), "d1");
        let two = sweep(Strategy::two_choice(), "d2");
        let smaller = sweep(Strategy::with_tie_break(2, TieBreak::SmallerRegion), "d2s");
        result.push(
            Cell::new()
                .coord("q", Json::num(q))
                .metric("mean_d1", Json::num(one.stats.mean()))
                .metric("mean_d2", Json::num(two.stats.mean()))
                .metric("mean_d2_smaller", Json::num(smaller.stats.mean()))
                .dist(two.distribution),
        );
        progress(&format!("{}: q = {q} done", result.spec.id));
    }
    result
}

/// The conclusion's open question, server side: how much non-uniformity
/// among bins can two choices stand? With probability `q` a server lands
/// in a cluster of width 0.1, so the few servers outside it own huge
/// arcs; probes stay uniform. Even `d = 2` grows with `q`, but it keeps a
/// constant-factor edge over `d = 1` throughout.
fn nonuniform_servers(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    nonuniform_axis(header, "nonuniform/server", n, config, |q| {
        move |rng: &mut Xoshiro256pp| {
            RingSpace::from_partition(
                RingMix::new(q, 0.0, NONUNIFORM_WIDTH).build_partition(n, rng),
            )
        }
    })
}

/// The conclusion's open question, probe side (footnote 2: customers are
/// not uniform): servers uniform, probes drawn from a uniform-plus-
/// cluster mixture, so about `q` of the balls land on about `0.1·n`
/// servers and the max-load floor is `q/0.1` times the average.
/// Region-size tie-breaking uses each arc's exact probe mass. Two choices
/// stay within about 2× of that floor while `d = 1` overshoots it
/// several-fold.
fn nonuniform_probes(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    nonuniform_axis(header, "nonuniform/probe", n, config, |q| {
        move |rng: &mut Xoshiro256pp| {
            MixRingSpace::new(
                RingPartition::random(n, rng),
                RingMix::new(q, 0.0, NONUNIFORM_WIDTH),
            )
        }
    })
}

/// The conclusion's other open question: does the fluid limit (the
/// differential-equation method, exact for uniform bins) predict the load
/// distribution in the geometric settings? Each cell is one load level
/// `i`: the mean number of servers with load at least `i` for uniform
/// bins, the ring and the torus (`d = 2`, `m = n`), next to the fluid
/// prediction `n·s_i`. The uniform column tracks the prediction; the
/// geometric columns leave more servers empty but carry a heavier tail
/// from load 2 up.
fn profile(n: usize, config: &SweepConfig, header: ExperimentSpec) -> ExperimentResult {
    let two = Strategy::two_choice();
    // Per space, level `i` is the mean number of servers with load at
    // least `i + 1`: summed in trial order, then divided once.
    let [uniform, ring, torus] =
        [SpaceKind::Uniform, SpaceKind::Ring, SpaceKind::Torus].map(|kind| {
            let seeder = StreamSeeder::new(config.seed).child(&format!("profile/{}", kind.name()));
            let profiles: Vec<Vec<u32>> =
                run_trials(&seeder, config.trials, config.threads, |rng| {
                    let space = kind.build(n, rng);
                    let result = run_trial(&space, &two, n, rng);
                    (1..=result.max_load)
                        .map(|i| result.bins_with_load_at_least(i) as u32)
                        .collect()
                });
            let mut mean = vec![0.0; profiles.iter().map(Vec::len).max().unwrap_or(0)];
            for profile in &profiles {
                for (slot, &count) in mean.iter_mut().zip(profile) {
                    *slot += f64::from(count);
                }
            }
            for v in &mut mean {
                *v /= config.trials as f64;
            }
            mean
        });
    let depth = uniform.len().max(ring.len()).max(torus.len()).max(6);
    let fluid = fluid_limit_profile(2, 1.0, depth);
    let spec = header
        .param("n", Json::from_usize(n))
        .param("d", Json::from_usize(2))
        .param("m", Json::str("n"));
    let mut result = ExperimentResult::new(spec);
    let get = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.0);
    for (i, &fluid_share) in fluid.iter().enumerate().take(depth) {
        result.push(
            Cell::new()
                .coord("load_at_least", Json::from_usize(i + 1))
                .metric("fluid_n_si", Json::num(n as f64 * fluid_share))
                .metric("uniform", Json::num(get(&uniform, i)))
                .metric("ring", Json::num(get(&ring, i)))
                .metric("torus", Json::num(get(&torus, i))),
        );
    }
    progress("profile done");
    result
}

/// Renders `EXPERIMENTS.md` from the reference result set.
///
/// The output is a pure function of the results (no timestamps, no git
/// revisions), so `./tables.sh` regenerates it byte-identically from the
/// committed seeds as long as the algorithms are unchanged.
#[must_use]
pub fn experiments_markdown(set: &geo2c_report::ResultSet) -> String {
    use geo2c_report::markdown::{render_markdown, render_markdown_pivot};
    use std::fmt::Write as _;

    let mut out = String::new();
    out.push_str("# EXPERIMENTS — committed expectations for the table suite\n\n");
    out.push_str("<!-- Generated by `./tables.sh`. Do not edit by hand: rerun the script. -->\n\n");
    let _ = writeln!(
        out,
        "Every number below is a deterministic function of the committed root \
seed (`{}`): all randomness flows through `geo2c_util::rng::StreamSeeder`, \
which derives an independent stream per `(experiment, cell, trial)`, so any \
cell reproduces bit-for-bit on any platform and thread count.",
        set.provenance.seed
    );
    out.push('\n');
    out.push_str(
        "* **Regenerate:** `./tables.sh` (≈1.5 minutes single-core) rewrites this file \
byte-identically, and the `ResultSet` JSON under [`results/`](results/) identically \
except for the provenance `git_rev` stamp (which records the producing checkout) — \
with one carve-out: the `~`-prefixed wall-clock columns (the scaling table's \
`~balls_per_s`) record the producing machine's throughput and change with every \
rewrite, which is why `--check` excludes them.\n\
* **Check:** `./tables.sh --check` reruns the suite and diffs it against the committed \
expectations with the two-sample statistics in `geo2c_util::stats` \
(`two_proportion_z` per distribution bucket, Welch's z for means; a difference fails at \
z > 4 *and* more than a 2-percentage-point / 0.05-mean absolute shift), and verifies \
this file is the exact rendering of `results/*.json`. `ci.sh` gates every build on \
both `./tables.sh --quick --check` (seconds, against \
[`results/quick/`](results/quick/)) and the reference-scale `./tables.sh --check` \
(≈1.5 minutes).\n\
* **Paper scale:** `./tables.sh --full` runs the paper's own parameters \
(1000 trials, ring `n` up to 2^24, torus up to 2^20, K-torus up to 2^16 — hours \
of CPU) and writes `results/full/`.\n\n",
    );
    out.push_str(
        "Each cell shows the distribution of the **maximum load** over the trials, \
in the paper's `value: percent` format, with the distribution mean beneath. \
The heavily-loaded, serving, resilience, churn, replication, Chord DHT, \
streaming-scale, and durability \
tables at the end instead report scalar metric columns (means over the trials, compared \
*exactly* by `--check` — they are deterministic in the seed); the serving \
distribution column aggregates the end-state per-server loads across all \
trials. Metric columns \
whose name starts with `~` (the scaling table's `~balls_per_s`) are \
*informational* — wall-clock measurements that vary by machine — and are \
excluded from `--check`'s exact compare.\n\n",
    );

    for member in &SUITE {
        if let Some(result) = set.experiment(member.id) {
            out.push_str(&match member.layout {
                Layout::Pivot { rows, cols } => render_markdown_pivot(result, rows, cols),
                Layout::Flat => render_markdown(result),
            });
            out.push('\n');
        }
    }
    out.push_str(
        "## Reading the lemma and open-question tables\n\n\
* **Lemmas 3–6 (ring) and 8–9 (torus)** check the probabilistic tools \
behind Theorem 1 directly. Lemma 3's `ratio` column (joint over product of \
marginals) should sit at or below 1 up to sampling noise. The \
`violation_rate` columns of Lemmas 4–6 and 9 should stay below their \
analytic bounds, and Lemma 6's `exact_expected_sum` shows the roughly 2× \
slack in the paper's bound. Lemma 8 is deterministic: the suite \
**asserts** `lemma8_violations == 0` in every trial before it writes the \
table.\n\
* **E15 (non-uniformity)** answers the conclusion's question of how much \
non-uniformity two choices can stand. Clustered servers (E15a) leave 90% of \
the circle to a vanishing share of the servers, so even `d = 2` grows with \
`q`, but it keeps a constant-factor edge over `d = 1` throughout. \
Clustered probes (E15b) send about `q` of the balls to about `0.1·n` \
servers, so the max-load floor is `q/0.1` times the average. Two choices \
stay within about 2× of that floor while `d = 1` overshoots it several-fold \
(footnote 2's claim).\n\
* **E14 (load profile)** asks whether the fluid limit predicts geometric \
load profiles. The fluid prediction `n·s_i` matches the uniform column. \
The ring and torus columns leave more servers empty but carry a heavier \
tail from load 2 up, the ring most of all.\n\n",
    );

    out.push_str(
        "## Stream contract, performance and durability\n\n\
README.md documents once what these numbers rest on: RNG stream contract v2 \
(per-ball lanes), the bench harness, the committed `results/bench/` evidence and \
the packed load states in [Performance methodology](README.md#performance-methodology); \
the serving engine's event lanes and departure timing wheel in \
[Online serving](README.md#online-serving), its fault and retry lanes in \
[Fault injection & recovery](README.md#fault-injection--recovery), and the \
checkpoint and journal format in \
[Durability & crash recovery](README.md#durability--crash-recovery). The \
pre-lane-contract numbers are archived under [`results/v1/`](results/v1/) and \
checked with `./tables.sh --check --against results/v1`.\n\n",
    );
    out.push_str(
        "## Reading the JSON\n\n\
Each `results/*.json` file is a `geo2c_report::ResultSet`: a `provenance` \
block (tool, version, git revision of the producing checkout, root seed) \
plus one experiment with its `spec` (id, trials, seed, sweep parameters — \
compared verbatim by `--check`, so stale expectations are flagged as *spec \
drift* rather than silently diffed) and its `cells`. A cell's \
`distribution` is a sorted `[max_load, trial_count]` array; `coords` \
locates the cell in the sweep.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig::new(5).with_seed(3).with_threads(2)
    }

    /// Runs suite member `id` the way `run_tables` does.
    fn run(id: &str, ns: &[usize], config: &SweepConfig) -> ExperimentResult {
        let member = SUITE.iter().find(|m| m.id == id).expect("suite member");
        member.run(ns, config)
    }

    #[test]
    fn scales_are_consistent_and_named() {
        for scale in Scale::ALL {
            assert_eq!(Scale::by_name(scale.name()), Some(scale));
        }
        assert_eq!(Scale::by_name("nope"), None);
        for (i, member) in SUITE.iter().enumerate() {
            assert!(
                SUITE[..i].iter().all(|other| other.id != member.id),
                "{} is declared twice",
                member.id
            );
            // quick ≤ reference ≤ full in every member's cost.
            for size in member.sizes {
                assert!(!size.exps.is_empty() && size.trials > 0, "{}", member.id);
            }
            for pair in member.sizes.windows(2) {
                assert!(pair[0].exps.last() <= pair[1].exps.last(), "{}", member.id);
                assert!(pair[0].trials <= pair[1].trials, "{}", member.id);
            }
        }
        let reference = |id: &str| {
            let member = SUITE.iter().find(|m| m.id == id).unwrap();
            member.size(Scale::Reference).exps[0]
        };
        // The K-torus sweep runs at paper-scale n from the reference
        // scale up (the K-d owner port made this a ~0.5 s/trial sweep).
        assert!(reference("dimension") >= 13);
        // The streaming-scale comparison runs at the paper's largest
        // ring n (2^24) in the committed expectations.
        assert!(reference("scaling") >= 24);
    }

    #[test]
    fn table1_produces_a_cell_per_configuration() {
        let result = run("table1", &[32, 64], &tiny_config());
        assert_eq!(result.spec.id, "table1");
        assert_eq!(result.cells.len(), 8); // 2 sizes x 4 d values
        for cell in &result.cells {
            let dist = cell.distribution.as_ref().expect("distribution");
            assert_eq!(dist.total(), 5);
        }
        assert_eq!(result.cells[0].label(), "n=32, d=1");
    }

    #[test]
    fn table3_orders_strategies_like_the_paper() {
        let result = run("table3", &[32], &tiny_config());
        let names: Vec<&str> = result
            .cells
            .iter()
            .filter_map(|c| c.coords.iter().find(|(k, _)| k == "tie_break")?.1.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "arc-larger",
                "arc-random",
                "arc-left",
                "arc-smaller",
                "voecking"
            ]
        );
    }

    #[test]
    fn dimension_covers_d_2_through_8_for_k_3_and_4() {
        let result = run("dimension", &[32], &tiny_config());
        // d ∈ {1..8} for K ∈ {3, 4}.
        assert_eq!(result.cells.len(), 16);
        for k in [3u64, 4] {
            for d in 2u64..=8 {
                assert!(
                    result.cells.iter().any(|c| {
                        c.coords
                            .iter()
                            .any(|(key, v)| key == "K" && v.as_u64() == Some(k))
                            && c.coords
                                .iter()
                                .any(|(key, v)| key == "d" && v.as_u64() == Some(d))
                    }),
                    "missing cell K={k} d={d}"
                );
            }
        }
    }

    #[test]
    fn ring_chart_sweeps_d_2_through_8() {
        let result = run("ring_chart", &[64], &tiny_config());
        assert_eq!(result.spec.id, "ring_chart");
        assert_eq!(result.cells.len(), 7);
        for (cell, d) in result.cells.iter().zip(2u64..=8) {
            assert!(cell
                .coords
                .iter()
                .any(|(k, v)| k == "d" && v.as_u64() == Some(d)));
            assert_eq!(cell.distribution.as_ref().expect("dist").total(), 5);
        }
    }

    #[test]
    fn tabulation_compares_both_samplers_cell_per_d() {
        let result = run("tabulation", &[64], &tiny_config());
        assert_eq!(result.spec.id, "tabulation");
        // 2 samplers × d ∈ {1, 2}.
        assert_eq!(result.cells.len(), 4);
        for sampler in TABULATION_SAMPLERS {
            for d in [1u64, 2] {
                let cell = result
                    .cells
                    .iter()
                    .find(|c| {
                        c.coords
                            .iter()
                            .any(|(k, v)| k == "sampler" && v.as_str() == Some(sampler))
                            && c.coords
                                .iter()
                                .any(|(k, v)| k == "d" && v.as_u64() == Some(d))
                    })
                    .unwrap_or_else(|| panic!("missing cell {sampler} d={d}"));
                assert_eq!(cell.distribution.as_ref().expect("distribution").total(), 5);
            }
        }
        // The two samplers are genuinely different processes (almost
        // surely different empirical distributions at some cell).
        let dist = |sampler: &str, d: u64| {
            result
                .cells
                .iter()
                .find(|c| {
                    c.coords
                        .iter()
                        .any(|(k, v)| k == "sampler" && v.as_str() == Some(sampler))
                        && c.coords
                            .iter()
                            .any(|(k, v)| k == "d" && v.as_u64() == Some(d))
                })
                .and_then(|c| c.distribution.clone())
        };
        assert!(
            (1..=2).any(|d| dist("splitmix-lane", d) != dist("tabulation-lane", d)),
            "samplers produced identical empirical distributions — stream reuse?"
        );
    }

    #[test]
    fn serving_covers_every_scenario_with_conserving_cells() {
        let n = 32;
        let config = tiny_config();
        let result = run("serving", &[n], &config);
        assert_eq!(result.spec.id, "serving");
        assert_eq!(result.cells.len(), SERVING_SCENARIOS.len());
        for (cell, (d, capacity)) in result.cells.iter().zip(SERVING_SCENARIOS) {
            assert!(cell
                .coords
                .iter()
                .any(|(k, v)| k == "d" && v.as_u64() == Some(d as u64)));
            // The distribution aggregates every server of every trial.
            let dist = cell.distribution.as_ref().expect("load distribution");
            assert_eq!(dist.total(), (config.trials * n) as u64);
            let metric = |key: &str| {
                cell.metrics
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.as_f64())
                    .unwrap_or_else(|| panic!("missing metric {key}"))
            };
            assert!(metric("max_load") >= metric("p99_load"));
            assert!(metric("p99_load") >= metric("mean_load"));
            match capacity {
                Some(cap) => {
                    assert!(metric("max_load") <= f64::from(cap));
                    assert!(metric("shed_pct") >= 0.0);
                }
                None => assert_eq!(metric("shed_pct"), 0.0),
            }
        }
        // Deterministic in the seed: the metrics are compared exactly.
        assert_eq!(run("serving", &[n], &config), result);
    }

    #[test]
    fn resilience_covers_the_steady_grid_and_the_transient_curve() {
        let n = 64;
        let config = tiny_config();
        let result = run("resilience", &[n], &config);
        assert_eq!(result.spec.id, "resilience");
        // Steady: 2 fractions × d ∈ {2, 3} × 3 retry budgets; transient:
        // 3 phases × 3 retry budgets. All metric-only.
        assert_eq!(result.cells.len(), 12 + 9);
        let metric = |cell: &Cell, key: &str| {
            cell.metrics
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_f64())
                .unwrap_or_else(|| panic!("missing metric {key}"))
        };
        let coord = |cell: &Cell, key: &str| {
            cell.coords
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing coord {key}"))
        };
        for cell in &result.cells {
            assert!(cell.distribution.is_none());
            // The books must balance within every cell: admitted +
            // shed = 100% of arrivals, and the unavailable sheds are a
            // subset of all sheds.
            let shed = metric(cell, "shed_pct");
            assert!((metric(cell, "availability_pct") + shed - 100.0).abs() < 1e-9);
            assert!(metric(cell, "unavail_pct") <= shed + 1e-9);
            assert!(metric(cell, "max_load") >= metric(cell, "p99_load"));
            // r = 0 never draws the retry lane, so it can rescue nothing.
            if coord(cell, "r").as_u64() == Some(0) {
                assert_eq!(metric(cell, "retry_admit_pct"), 0.0);
            }
        }
        // A 30% outage at d = 2 sheds unavailable arrivals; retries
        // strictly help at the same fault plan and stream.
        let steady = |r: u64| {
            result
                .cells
                .iter()
                .find(|c| {
                    coord(c, "phase").as_str() == Some("steady")
                        && coord(c, "fail_pct").as_f64() == Some(30.0)
                        && coord(c, "d").as_u64() == Some(2)
                        && coord(c, "r").as_u64() == Some(r)
                })
                .expect("steady cell")
        };
        assert!(metric(steady(0), "unavail_pct") > 0.0);
        assert!(metric(steady(2), "shed_pct") < metric(steady(0), "shed_pct"));
        assert!(metric(steady(2), "retry_admit_pct") > 0.0);
        // The transient curve: shedding spikes during the outage and
        // falls back after recovery, at every retry budget.
        let transient = |phase: &str, r: u64| {
            result
                .cells
                .iter()
                .find(|c| {
                    coord(c, "phase").as_str() == Some(phase) && coord(c, "r").as_u64() == Some(r)
                })
                .expect("transient cell")
        };
        for r in [0u64, 1, 2] {
            let outage = metric(transient("outage", r), "shed_pct");
            assert!(outage > metric(transient("pre-outage", r), "shed_pct"));
            assert!(outage > metric(transient("recovered", r), "shed_pct"));
        }
        // Deterministic in the seed: exact metric replay.
        assert_eq!(run("resilience", &[n], &config), result);
    }

    #[test]
    fn replication_matches_the_former_binary_cell_grid() {
        let config = tiny_config();
        let result = run("replication", &[32], &config);
        assert_eq!(result.spec.id, "replication");
        // 2 schemes × r ∈ {1, 2, 3}, metric-only cells.
        assert_eq!(result.cells.len(), 6);
        let metric = |cell: &Cell, key: &str| {
            cell.metrics
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_f64())
                .unwrap_or_else(|| panic!("missing metric {key}"))
        };
        for cell in &result.cells {
            assert!(cell.distribution.is_none());
            assert!(metric(cell, "availability_pct") > 0.0);
            assert!(metric(cell, "max_load_mean") >= metric(cell, "mean_load") / 2.0);
        }
        assert_eq!(result.cells[0].label(), "scheme=\"consistent\", replicas=1");
        // More replicas buy availability (≈ 1 − 0.3^r) under either
        // placement policy: r = 3 beats r = 1 by a wide margin.
        for scheme_cells in result.cells.chunks(3) {
            assert!(
                metric(&scheme_cells[2], "availability_pct")
                    > metric(&scheme_cells[0], "availability_pct")
            );
        }
        assert_eq!(run("replication", &[32], &config), result);
    }

    #[test]
    fn churn_matches_the_former_binary_cell_grid() {
        let config = tiny_config();
        let result = run("churn", &[16], &config);
        assert_eq!(result.spec.id, "churn");
        // 3 schemes × 3 failure fractions, metric-only cells.
        assert_eq!(result.cells.len(), 9);
        for cell in &result.cells {
            assert!(cell.distribution.is_none());
            for key in ["max_before", "max_after", "moved_pct"] {
                assert!(
                    cell.metrics.iter().any(|(k, _)| k == key),
                    "missing metric {key}"
                );
            }
        }
        assert_eq!(
            result.cells[0].label(),
            "scheme=\"consistent\", fail_pct=10"
        );
        assert_eq!(run("churn", &[16], &config), result);
    }

    #[test]
    fn dht_matches_the_former_binary_cell_grid() {
        let config = tiny_config();
        let result = run("dht", &[32], &config);
        assert_eq!(result.spec.id, "dht");
        // 4 placement schemes, metric-only cells.
        assert_eq!(result.cells.len(), 4);
        let metric = |cell: &Cell, key: &str| {
            cell.metrics
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_f64())
                .unwrap_or_else(|| panic!("missing metric {key}"))
        };
        for cell in &result.cells {
            assert!(cell.distribution.is_none());
            for key in [
                "max_load_mean",
                "load_sigma",
                "mean_hops",
                "max_hops",
                "redirect_pct",
                "fingers_per_node",
            ] {
                assert!(
                    cell.metrics.iter().any(|(k, _)| k == key),
                    "missing metric {key}"
                );
            }
            // Every scheme stores at least the mean load somewhere.
            assert!(metric(cell, "max_load_mean") >= 16.0);
        }
        assert_eq!(result.cells[0].label(), "scheme=\"consistent\"");
        // Only the redirecting d-choice schemes pay redirect hops, and
        // only the virtual-server scheme multiplies the routing state.
        assert_eq!(metric(&result.cells[0], "redirect_pct"), 0.0);
        assert_eq!(metric(&result.cells[1], "redirect_pct"), 0.0);
        assert!(metric(&result.cells[2], "redirect_pct") > 0.0);
        assert_eq!(metric(&result.cells[0], "fingers_per_node"), 64.0);
        assert_eq!(metric(&result.cells[1], "fingers_per_node"), 5.0 * 64.0);
        // Both mitigations beat plain consistent hashing on max load.
        let consistent = metric(&result.cells[0], "max_load_mean");
        assert!(metric(&result.cells[1], "max_load_mean") < consistent);
        assert!(metric(&result.cells[2], "max_load_mean") < consistent);
        assert_eq!(run("dht", &[32], &config), result);
    }

    #[test]
    fn durability_recovers_exactly_at_every_interval() {
        let config = tiny_config();
        let result = run("durability", &[32], &config);
        assert_eq!(result.spec.id, "durability");
        // One metric-only cell per checkpoint interval. (The constructor
        // itself asserts recovered ≡ uninterrupted in every trial.)
        assert_eq!(result.cells.len(), DURABILITY_INTERVALS.len());
        let metric = |cell: &Cell, key: &str| {
            cell.metrics
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_f64())
                .unwrap_or_else(|| panic!("missing metric {key}"))
        };
        for (cell, every) in result.cells.iter().zip(DURABILITY_INTERVALS) {
            assert!(cell.distribution.is_none());
            assert!(cell
                .coords
                .iter()
                .any(|(k, v)| k == "interval" && v.as_u64() == Some(every)));
            // Replay never exceeds the events since the last checkpoint.
            assert!(metric(cell, "replay_max") < every as f64);
            assert!(metric(cell, "replay_mean") <= metric(cell, "replay_max"));
            // 17-byte frames, eight chunks per interval: ~136/C bytes
            // per event, and never more than one frame per event.
            let bytes = metric(cell, "journal_bytes_per_event");
            assert!(bytes > 0.0 && bytes <= 17.0, "{bytes} bytes/event");
            assert!(metric(cell, "checkpoints_mean") >= 0.0);
        }
        // Larger intervals shift cost from checkpoint writes to replay.
        let first = &result.cells[0];
        let last = &result.cells[result.cells.len() - 1];
        assert!(metric(last, "replay_mean") > metric(first, "replay_mean"));
        assert!(metric(last, "checkpoints_mean") < metric(first, "checkpoints_mean"));
        assert!(metric(last, "journal_bytes_per_event") < metric(first, "journal_bytes_per_event"));
        // Deterministic in the seed: exact metric replay (the scratch
        // directory never leaks into the numbers).
        assert_eq!(run("durability", &[32], &config), result);
    }

    fn metric(cell: &Cell, key: &str) -> f64 {
        cell.metrics
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("missing metric {key}"))
    }

    #[test]
    fn lemma_validations_cover_their_grids_and_hold() {
        let config = tiny_config();
        // Lemma 3: c ∈ {1, 2, 3} × k ∈ {2, 3}.
        let l3 = run("lemma3", &[64], &config);
        assert_eq!(l3.cells.len(), 6);
        // Lemmas 4/5: six values of c; the observed mean tracks n e^{-c}.
        let l45 = run("lemma4_5", &[256], &config);
        assert_eq!(l45.cells.len(), 6);
        for cell in &l45.cells {
            assert!(metric(cell, "mean_count") <= metric(cell, "max_count"));
        }
        // Lemma 6: a = 1 first, the bound dominating the mean sum.
        let l6 = run("lemma6", &[256], &config);
        assert!(l6.cells[0]
            .coords
            .iter()
            .any(|(k, v)| k == "a" && v.as_u64() == Some(1)));
        for cell in &l6.cells {
            assert!(metric(cell, "exact_expected_sum") <= metric(cell, "bound"));
        }
        // Lemmas 8/9: the constructor asserts zero Lemma 8 violations.
        let l89 = run("lemma8_9", &[64], &config);
        assert_eq!(l89.cells.len(), 6);
        for result in [&l3, &l45, &l6, &l89] {
            assert!(result.cells.iter().all(|c| c.distribution.is_none()));
        }
        assert_eq!(run("lemma3", &[64], &config), l3);
        assert_eq!(run("lemma8_9", &[64], &config), l89);
    }

    #[test]
    fn nonuniform_axes_sweep_q_and_keep_the_two_choice_edge() {
        let config = tiny_config();
        for result in [
            run("nonuniform_servers", &[128], &config),
            run("nonuniform_probes", &[128], &config),
        ] {
            assert_eq!(result.cells.len(), NONUNIFORM_QS.len());
            for cell in &result.cells {
                let dist = cell.distribution.as_ref().expect("d = 2 distribution");
                assert_eq!(dist.total(), 5);
                assert!(metric(cell, "mean_d2") <= metric(cell, "mean_d1"));
            }
        }
        assert_eq!(
            run("nonuniform_probes", &[64], &config),
            run("nonuniform_probes", &[64], &config)
        );
    }

    #[test]
    fn profile_levels_are_monotone_and_start_at_n() {
        let n = 64;
        let result = run("profile", &[n], &tiny_config());
        assert!(result.cells.len() >= 6);
        // Every server has load ≥ 0, and m = n balls leave at most n
        // servers with load ≥ 1.
        for column in ["fluid_n_si", "uniform", "ring", "torus"] {
            let values: Vec<f64> = result.cells.iter().map(|c| metric(c, column)).collect();
            assert!(values[0] <= n as f64, "{column}");
            assert!(values.windows(2).all(|w| w[1] <= w[0]), "{column}");
        }
    }

    #[test]
    fn mean_profile_is_decreasing() {
        let config = SweepConfig::new(30).with_seed(42).with_threads(2);
        let result = run("profile", &[256], &config);
        let profile: Vec<f64> = result.cells.iter().map(|c| metric(c, "uniform")).collect();
        for w in profile.windows(2) {
            assert!(w[0] >= w[1], "ν_i must be non-increasing: {profile:?}");
        }
        // ν_1 ≤ n and ≥ n/4 (with m=n, a constant fraction of bins is hit).
        assert!(profile[0] <= 256.0);
        assert!(profile[0] >= 64.0);
    }

    #[test]
    fn lemma6_and_profile_are_deterministic_across_thread_counts() {
        let one = SweepConfig::new(6).with_seed(8).with_threads(1);
        let three = one.with_threads(3);
        assert_eq!(run("lemma6", &[256], &one), run("lemma6", &[256], &three));
        assert_eq!(run("profile", &[64], &one), run("profile", &[64], &three));
    }

    /// A bare spec header, for calling a member body with its own grid.
    fn header(id: &str) -> ExperimentSpec {
        ExperimentSpec::new(id, id)
    }

    fn coord(cell: &Cell, key: &str) -> f64 {
        cell.coords
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("missing coord {key}"))
    }

    /// The `lemma3` body (Lemma 3, negative dependence).
    mod negdep {
        use super::*;

        #[test]
        fn marginals_match_exact_formula() {
            let config = SweepConfig::new(400).with_seed(2).with_threads(2);
            let result = lemma3(256, &[2.0, 4.0], &[1], &config, header("lemma3"));
            for cell in &result.cells {
                let c = coord(cell, "c");
                let exact = arc_survival(256, c / 256.0);
                // k = 1: the joint is the empirical marginal itself.
                let empirical = metric(cell, "joint_observed");
                assert!(
                    (empirical - exact).abs() < 0.02,
                    "c={c}: empirical {empirical} vs exact {exact}"
                );
                let ratio = metric(cell, "ratio");
                assert!((ratio - 1.0).abs() < 0.2, "c={c}: ratio {ratio}");
            }
        }

        #[test]
        fn joint_moments_are_negatively_dependent() {
            // The lemma's content: ratio ≤ 1 (+ sampling noise; within-trial
            // group samples are correlated, so allow a few percent).
            let config = SweepConfig::new(2500).with_seed(3).with_threads(2);
            let result = lemma3(512, &[1.0, 2.0], &[2, 3], &config, header("lemma3"));
            assert_eq!(result.cells.len(), 4);
            for cell in &result.cells {
                let (c, k) = (coord(cell, "c"), coord(cell, "k"));
                let ratio = metric(cell, "ratio");
                assert!(
                    ratio <= 1.05,
                    "c={c} k={k}: ratio {ratio} exceeds 1 beyond noise"
                );
                assert!(
                    metric(cell, "samples") > 10_000.0,
                    "not enough joint samples"
                );
            }
        }

        #[test]
        fn experiment_is_deterministic() {
            let one = SweepConfig::new(50).with_seed(4).with_threads(1);
            let run = |config: &SweepConfig| lemma3(64, &[2.0], &[2], config, header("lemma3"));
            assert_eq!(run(&one), run(&one.with_threads(4)));
        }

        #[test]
        #[should_panic(expected = "1 <= k <= n")]
        fn k_zero_rejected() {
            let config = SweepConfig::new(1).with_seed(6).with_threads(1);
            let _ = lemma3(16, &[2.0], &[0], &config, header("lemma3"));
        }
    }

    /// The `lemma4_5` and `lemma6` bodies (Lemmas 4–6, the arc tails).
    mod tail {
        use super::*;

        #[test]
        fn long_arc_tail_experiment_sane() {
            let config = SweepConfig::new(50).with_seed(11).with_threads(2);
            let result = lemma4_5(1024, &[2.0, 4.0, 6.0], &config, header("lemma4_5"));
            assert_eq!(result.cells.len(), 3);
            let means: Vec<f64> = result
                .cells
                .iter()
                .map(|c| metric(c, "mean_count"))
                .collect();
            for (cell, &mean) in result.cells.iter().zip(&means) {
                let (c, expected) = (coord(cell, "c"), metric(cell, "expected_count"));
                // Mean is near the analytic expectation (generous tolerance).
                assert!(
                    (mean - expected).abs() < 0.3 * expected + 3.0,
                    "c={c}: mean {mean} vs expected {expected}"
                );
                // The Chernoff threshold is ~2x the mean, so violations are rare.
                let rate = metric(cell, "violation_rate");
                assert!(rate <= 0.1, "c={c}: rate {rate}");
            }
            // Monotone: larger c means fewer long arcs.
            assert!(means[0] > means[1]);
            assert!(means[1] > means[2]);
        }

        #[test]
        fn longest_arcs_experiment_handles_unsorted_sizes() {
            let config = SweepConfig::new(10).with_seed(14).with_threads(1);
            let mean_sums = |sizes: &[usize]| -> Vec<f64> {
                let result = lemma6(512, sizes, &config, header("lemma6"));
                result.cells.iter().map(|c| metric(c, "mean_sum")).collect()
            };
            let sorted = mean_sums(&[4, 16, 64]);
            let shuffled = mean_sums(&[64, 4, 16]);
            assert_eq!(sorted[0], shuffled[1]);
            assert_eq!(sorted[1], shuffled[2]);
            assert_eq!(sorted[2], shuffled[0]);
        }

        #[test]
        fn longest_arcs_experiment_sane() {
            let config = SweepConfig::new(40).with_seed(12).with_threads(2);
            // (ln 1024)^2 ≈ 48; use a ∈ {1, 8, 49}.
            let result = lemma6(1024, &[1, 8, 49], &config, header("lemma6"));
            assert_eq!(result.cells.len(), 3);
            // Top-a sums increase with a; all ≤ 1.
            let means: Vec<f64> = result.cells.iter().map(|c| metric(c, "mean_sum")).collect();
            assert!(means[0] < means[1]);
            assert!(means[1] < means[2]);
            for cell in &result.cells {
                assert!(metric(cell, "max_sum") <= 1.0 + 1e-9);
                assert!(metric(cell, "mean_sum") > 0.0);
            }
            // Lemma 6 bound should essentially never be violated in range
            // (a=49 is within [ (ln n)^2 ≈ 48, n/64 = 16 ]… n/64 < (ln n)^2 here,
            // so the range is formally empty; the bound still holds comfortably).
            assert!(metric(&result.cells[2], "violation_rate") <= 0.05);
        }

        #[test]
        fn experiment_is_deterministic() {
            let one = SweepConfig::new(20).with_seed(13).with_threads(1);
            let run = |config: &SweepConfig| lemma4_5(256, &[3.0], config, header("lemma4_5"));
            assert_eq!(run(&one), run(&one.with_threads(4)));
        }
    }

    /// The `lemma8_9` body (Lemmas 8 and 9, the Voronoi cell tail).
    mod sector {
        use super::*;

        #[test]
        fn z_dominates_large_cell_count() {
            // Lemma 8 implies #large cells ≤ Z for every instance.
            let config = SweepConfig::new(10).with_seed(52).with_threads(2);
            let result = lemma8_9(64, &[3.0, 6.0], &config, header("lemma8_9"));
            for cell in &result.cells {
                assert_eq!(metric(cell, "lemma8_violations"), 0.0);
                let (large, z) = (metric(cell, "mean_large_cells"), metric(cell, "mean_z"));
                let c = coord(cell, "c");
                assert!(large <= z + 1e-9, "c={c}: large {large} > Z {z}");
            }
        }

        #[test]
        fn tail_experiment_monotone_in_c() {
            let config = SweepConfig::new(10).with_seed(53).with_threads(2);
            let result = lemma8_9(128, &[2.0, 6.0, 12.0], &config, header("lemma8_9"));
            let large: Vec<f64> = result
                .cells
                .iter()
                .map(|c| metric(c, "mean_large_cells"))
                .collect();
            assert!(large[0] >= large[1]);
            assert!(large[1] >= large[2]);
            // Z tracks its expectation loosely.
            for cell in &result.cells {
                let (z, expected) = (metric(cell, "mean_z"), metric(cell, "expected_z"));
                let c = coord(cell, "c");
                assert!(z <= 2.0 * expected + 5.0, "c={c}: Z {z} vs E[Z] {expected}");
            }
        }

        #[test]
        fn experiment_deterministic_across_thread_counts() {
            let one = SweepConfig::new(6).with_seed(54).with_threads(1);
            let run = |config: &SweepConfig| lemma8_9(32, &[4.0], config, header("lemma8_9"));
            assert_eq!(run(&one), run(&one.with_threads(3)));
        }
    }

    /// Strips the `~`-prefixed informational metrics (wall-clock
    /// throughput) so the rest of the result can be compared exactly.
    fn strip_informational(mut result: ExperimentResult) -> ExperimentResult {
        for cell in &mut result.cells {
            cell.metrics.retain(|(k, _)| !k.starts_with('~'));
        }
        result
    }

    #[test]
    fn scaling_pins_every_backing_to_the_flat_reference() {
        let n = 256;
        let config = tiny_config();
        let result = run("scaling", &[n], &config);
        assert_eq!(result.spec.id, "scaling");
        // 4 backings × d ∈ {1, 2}, metric-only cells. (The constructor
        // itself asserts max-load equality with flat-u32 per d.)
        assert_eq!(result.cells.len(), SCALING_BACKINGS.len() * 2);
        let metric = |cell: &Cell, key: &str| {
            cell.metrics
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_f64())
                .unwrap_or_else(|| panic!("missing metric {key}"))
        };
        for cell in &result.cells {
            assert!(cell.distribution.is_none());
            assert!(metric(cell, "max_load") >= 1.0);
            assert!(metric(cell, "~balls_per_s") > 0.0);
            let backing = cell
                .coords
                .iter()
                .find(|(k, _)| k == "backing")
                .and_then(|(_, v)| v.as_str())
                .expect("backing coord");
            let bytes = metric(cell, "bytes_per_bin");
            if backing == "flat-u32" {
                assert_eq!(bytes, 4.0);
            } else {
                // The headline memory claim: every compact backing stays
                // at or under 1.25 bytes/bin (nibble 0.5, byte 1.0, plus
                // any spill — absent at m = n scales).
                assert!(bytes <= 1.25, "{backing}: {bytes} bytes/bin");
            }
        }
        assert_eq!(result.cells[0].label(), "backing=\"flat-u32\", d=1");
        // Deterministic in the seed once the wall-clock column is
        // stripped — the contract `--check` relies on.
        assert_eq!(
            strip_informational(run("scaling", &[n], &config)),
            strip_informational(result)
        );
    }

    #[test]
    fn experiments_markdown_has_all_sections() {
        use geo2c_report::{Provenance, ResultSet};
        let config = tiny_config();
        let mut set = ResultSet::new(Provenance {
            tool: "t".into(),
            version: "v".into(),
            git_rev: "deadbeefcafe0123".into(),
            seed: config.seed,
        });
        set.push(run("table1", &[32], &config));
        set.push(run("table2", &[32], &config));
        set.push(run("table3", &[32], &config));
        set.push(run("dimension", &[32], &config));
        set.push(run("ring_chart", &[32], &config));
        set.push(run("tabulation", &[32], &config));
        set.push(run("heavy", &[32], &config));
        set.push(run("serving", &[32], &config));
        set.push(run("resilience", &[64], &config));
        set.push(run("churn", &[16], &config));
        set.push(run("replication", &[16], &config));
        set.push(run("dht", &[16], &config));
        set.push(run("scaling", &[64], &config));
        set.push(run("durability", &[16], &config));
        set.push(run("lemma3", &[64], &config));
        set.push(run("lemma4_5", &[64], &config));
        set.push(run("lemma6", &[256], &config));
        set.push(run("lemma8_9", &[64], &config));
        set.push(run("nonuniform_servers", &[32], &config));
        set.push(run("nonuniform_probes", &[32], &config));
        set.push(run("profile", &[32], &config));
        let md = experiments_markdown(&set);
        assert!(md.starts_with("# EXPERIMENTS"));
        for heading in [
            "## Table 1",
            "## Table 2",
            "## Table 3",
            "## Higher dimensions",
            "## Diminishing returns",
            "## Weak hashing",
            "## Heavily loaded",
            "## Online serving",
            "## Resilience",
            "## Churn",
            "## Replication",
            "## E11: Chord DHT",
            "## Streaming scale",
            "## Durability",
            "## Lemma 3",
            "## Lemmas 4/5",
            "## Lemma 6",
            "## Lemmas 8/9",
            "## E15a",
            "## E15b",
            "## E14",
            "## Reading the lemma and open-question tables",
            "## Stream contract, performance and durability",
            "## Reading the JSON",
        ] {
            assert!(md.contains(heading), "missing {heading}");
        }
        // The resilience section must land between serving and churn
        // (suite order), and the prose after the tables points at
        // README's sections instead of repeating them.
        let pos = |needle: &str| {
            md.find(needle)
                .unwrap_or_else(|| panic!("missing {needle}"))
        };
        assert!(pos("## Heavily loaded") < pos("## Online serving"));
        assert!(pos("## Online serving") < pos("## Resilience"));
        assert!(pos("## Resilience") < pos("## Churn"));
        assert!(pos("## Churn") < pos("## Replication"));
        assert!(pos("## Replication") < pos("## E11: Chord DHT"));
        assert!(pos("## E11: Chord DHT") < pos("## Streaming scale"));
        assert!(pos("## Streaming scale") < pos("## Durability"));
        assert!(pos("## Durability") < pos("## Lemma 3"));
        assert!(pos("## E14") < pos("## Stream contract, performance and durability"));
        for section in [
            "online-serving",
            "fault-injection--recovery",
            "durability--crash-recovery",
            "performance-methodology",
        ] {
            assert!(md.contains(&format!("(README.md#{section})")), "{section}");
        }
        assert!(md.contains("`./tables.sh --check`"));
        assert!(md.contains("seed (`3`)"));
        // Byte-identical regeneration: the git revision must not leak in
        // (it changes every commit; the numbers do not).
        assert!(!md.contains("deadbeefcafe0123"));
        // Rendering is a pure function of the set.
        assert_eq!(md, experiments_markdown(&set));
    }

    #[test]
    fn results_are_deterministic_in_the_seed() {
        let a = run("table1", &[32], &tiny_config());
        let b = run("table1", &[32], &tiny_config());
        assert_eq!(a, b);
        let c = run(
            "table1",
            &[32],
            &SweepConfig::new(5).with_seed(4).with_threads(2),
        );
        assert_ne!(a.spec.seed, c.spec.seed);
    }
}
