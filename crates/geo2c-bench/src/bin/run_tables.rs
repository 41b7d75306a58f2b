//! The experiment driver and the only way to run one: runs the gated
//! suite (`experiments::SUITE_IDS`: the paper's tables, lemma
//! validations, open-question probes and the serving/DHT/durability
//! families), persists every run as a provenance-stamped
//! `geo2c_report::ResultSet` under `results/`, and renders
//! `EXPERIMENTS.md` — the committed expectations every doc comment in
//! the workspace refers to. Normally invoked as `./tables.sh` from the
//! repository root; `./tables.sh --full --only table1` reproduces one
//! paper table at the paper's own scale.
//!
//! ```text
//! run_tables [--quick | --full] [--check [--against DIR]] [--render]
//!            [--only ID,ID] [--dir DIR] [--seed S] [--threads T]
//! ```
//!
//! Bad input (an unknown flag or experiment id, a missing value, an
//! unparsable number) prints the usage line to stderr and exits with
//! status 2.
//!
//! * *(no flags)* — run the **reference** scale (the committed
//!   `EXPERIMENTS.md` numbers, ≈1.5 minutes single-core), write
//!   `results/<id>.json` per suite member and regenerate
//!   `EXPERIMENTS.md` byte-identically.
//! * `--quick` — the CI / smoke scale (seconds); writes
//!   `results/quick/*.json` and leaves `EXPERIMENTS.md` alone.
//! * `--full` — the paper's own parameters (1000 trials, `n` up to
//!   `2^24`; hours of CPU); writes `results/full/*.json`.
//! * `--check` — *compare instead of write*: rerun the selected scale
//!   and diff it against the committed JSON within statistical
//!   tolerance (`geo2c_util::stats::{two_proportion_z, welch_z}`;
//!   z ≤ 4 plus small absolute slack). Exits non-zero on any
//!   discrepancy, including spec drift. CI runs `--quick --check`.
//! * `--check --against DIR` — diff against the expectation files in
//!   `DIR` instead (e.g. the archived `results/v1/` pre-lane-contract
//!   numbers: the statistical-equivalence evidence for the one-time
//!   stream migration). Experiments missing from `DIR` are skipped
//!   with a note instead of failing, and the `EXPERIMENTS.md`
//!   rendering check is skipped (it belongs to the committed set).
//! * `--render` — no suite run: verify `EXPERIMENTS.md` is byte-
//!   identical to the rendering of the committed `results/*.json`
//!   (the cheap half of the reference-scale check; CI runs it on
//!   every build).
//! * `--only ID,ID` — run (and check or write) just the named suite
//!   members, e.g. `--only serving,churn`. The `EXPERIMENTS.md`
//!   rendering check/write is skipped (the document is a function of
//!   the *whole* committed set).

use geo2c_bench::experiments::{self, Scale, FULL, QUICK, REFERENCE};
use geo2c_core::experiment::SweepConfig;
use geo2c_report::{compare_sets, ExperimentResult, Provenance, ResultSet, Tolerance};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: run_tables [--quick | --full] [--check [--against DIR]] [--render] \
                     [--only ID,ID] [--dir DIR] [--seed S] [--threads T]";

struct Args {
    scale: &'static Scale,
    check: bool,
    render: bool,
    against: Option<PathBuf>,
    only: Option<Vec<String>>,
    dir: PathBuf,
    seed: u64,
    threads: usize,
}

/// Parses the command line; `Err` carries the message to print above
/// the usage line.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        scale: &REFERENCE,
        check: false,
        render: false,
        against: None,
        only: None,
        dir: PathBuf::from("."),
        seed: 0,
        threads: geo2c_util::parallel::num_threads(),
    };
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--quick" => args.scale = &QUICK,
            "--full" => args.scale = &FULL,
            "--check" => args.check = true,
            "--render" => args.render = true,
            "--against" => args.against = Some(PathBuf::from(value()?)),
            "--only" => {
                let ids: Vec<String> = value()?.split(',').map(str::to_string).collect();
                if let Some(id) = ids
                    .iter()
                    .find(|id| !experiments::SUITE_IDS.contains(&id.as_str()))
                {
                    return Err(format!(
                        "--only: unknown experiment '{id}' (suite: {})",
                        experiments::SUITE_IDS.join(", ")
                    ));
                }
                args.only = Some(ids);
            }
            "--dir" => args.dir = PathBuf::from(value()?),
            "--seed" => args.seed = number(flag, &value()?)?,
            "--threads" => args.threads = number(flag, &value()?)?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse '{text}' as a number"))
}

/// `results/` for the reference scale, `results/<scale>/` otherwise.
fn results_dir(base: &Path, scale: &Scale) -> PathBuf {
    let root = base.join("results");
    if scale.name == REFERENCE.name {
        root
    } else {
        root.join(scale.name)
    }
}

fn run_suite(
    scale: &Scale,
    seed: u64,
    threads: usize,
    only: Option<&[String]>,
) -> Vec<ExperimentResult> {
    eprintln!("running the {} scale", scale.name);
    let n = |exp: u32| 1usize << exp;
    let mut results = Vec::new();
    for &id in &experiments::SUITE_IDS {
        if !only.map_or(true, |ids| ids.iter().any(|want| want == id)) {
            continue;
        }
        // The member's sweep configuration, echoed to stderr as run
        // provenance.
        let config = |trials: usize| {
            let config = SweepConfig {
                trials,
                threads,
                seed,
            };
            let pairs: Vec<String> = config
                .describe()
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            eprintln!("  {id}: {}", pairs.join(" "));
            config
        };
        results.push(match id {
            "table1" => experiments::table1(&scale.ring_sizes(), &config(scale.ring_trials)),
            "table2" => experiments::table2(&scale.torus_sizes(), &config(scale.torus_trials)),
            "table3" => experiments::table3(&scale.ring_sizes(), &config(scale.ring_trials)),
            "dimension" => experiments::dimension(n(scale.dim_exp), &config(scale.dim_trials)),
            "ring_chart" => {
                experiments::ring_chart(n(scale.chart_exp), &config(scale.chart_trials))
            }
            "tabulation" => experiments::tabulation(n(scale.tab_exp), &config(scale.tab_trials)),
            "heavy" => experiments::heavy(n(scale.heavy_exp), &config(scale.heavy_trials)),
            "serving" => experiments::serving(n(scale.serve_exp), &config(scale.serve_trials)),
            "resilience" => {
                experiments::resilience(n(scale.resil_exp), &config(scale.resil_trials))
            }
            "churn" => experiments::churn(n(scale.churn_exp), &config(scale.churn_trials)),
            "replication" => {
                experiments::replication(n(scale.repl_exp), &config(scale.repl_trials))
            }
            "dht" => experiments::dht(n(scale.dht_exp), &config(scale.dht_trials)),
            "scaling" => experiments::scaling(n(scale.scaling_exp), &config(scale.scaling_trials)),
            "durability" => {
                experiments::durability(n(scale.durability_exp), &config(scale.durability_trials))
            }
            "lemma3" => experiments::lemma3(n(scale.lemma3_exp), &config(scale.lemma3_trials)),
            "lemma4_5" => {
                experiments::lemma4_5(n(scale.lemma4_5_exp), &config(scale.lemma4_5_trials))
            }
            "lemma6" => experiments::lemma6(n(scale.lemma6_exp), &config(scale.lemma6_trials)),
            "lemma8_9" => {
                experiments::lemma8_9(n(scale.lemma8_9_exp), &config(scale.lemma8_9_trials))
            }
            "nonuniform_servers" => experiments::nonuniform_servers(
                n(scale.nu_servers_exp),
                &config(scale.nu_servers_trials),
            ),
            "nonuniform_probes" => experiments::nonuniform_probes(
                n(scale.nu_probes_exp),
                &config(scale.nu_probes_trials),
            ),
            "profile" => experiments::profile(n(scale.profile_exp), &config(scale.profile_trials)),
            other => unreachable!("suite member {other} has no driver arm"),
        });
    }
    results
}

/// Loads every committed expectation file *before* the (potentially long)
/// suite run, so a missing or corrupt file fails instantly. Also returns
/// the source file of each loaded experiment, so a later `--check`
/// failure can say *which file's* cell drifted instead of leaving a
/// multi-file run ambiguous.
fn load_expected(
    dir: &Path,
    seed: u64,
    lenient: bool,
    only: Option<&[String]>,
) -> Result<(ResultSet, Vec<(String, PathBuf)>), ExitCode> {
    let mut expected = ResultSet::new(Provenance::capture(seed));
    let mut sources = Vec::new();
    let mut missing = Vec::new();
    for id in experiments::SUITE_IDS {
        if !only.map_or(true, |ids| ids.iter().any(|want| want == id)) {
            continue;
        }
        let path = dir.join(format!("{id}.json"));
        match ResultSet::load(&path) {
            Ok(set) => {
                for result in &set.experiments {
                    sources.push((result.spec.id.clone(), path.clone()));
                }
                expected.experiments.extend(set.experiments);
            }
            Err(e) => missing.push(format!("{}: {e}", path.display())),
        }
    }
    // `--against` archives may legitimately predate newer experiments
    // (e.g. results/v1/ has no `tabulation`): skip those with a note as
    // long as something is comparable.
    if missing.is_empty() || (lenient && !expected.experiments.is_empty()) {
        for m in &missing {
            eprintln!("note: skipping (not in the archive): {m}");
        }
        Ok((expected, sources))
    } else {
        eprintln!("cannot load committed expectations:");
        for m in &missing {
            eprintln!("  {m}");
        }
        eprintln!("run `./tables.sh` (or `./tables.sh --quick`) to generate them first");
        Err(ExitCode::from(2))
    }
}

fn check(
    fresh: &ResultSet,
    expected: &ResultSet,
    sources: &[(String, PathBuf)],
    args: &Args,
    dir: &Path,
    scale: &Scale,
) -> ExitCode {
    // Against an explicit archive, compare only the experiments the
    // archive holds (it may predate newer suite members).
    let mut fresh_view = ResultSet::new(fresh.provenance.clone());
    for result in &fresh.experiments {
        if expected.experiment(&result.spec.id).is_some() {
            fresh_view.experiments.push(result.clone());
        } else if args.against.is_some() {
            eprintln!("note: {} not in the archive; skipped", result.spec.id);
        } else {
            fresh_view.experiments.push(result.clone());
        }
    }
    let mut diffs = compare_sets(&fresh_view, expected, &Tolerance::default());
    // At the reference scale, EXPERIMENTS.md is part of the committed
    // expectations too: it must be exactly what the committed results
    // render to, or the headline document has drifted from the data.
    // (Not when diffing against an archive or a `--only` subset: the
    // document is a function of the whole committed set.)
    if scale.name == REFERENCE.name && args.against.is_none() && args.only.is_none() {
        let md_path = args.dir.join("EXPERIMENTS.md");
        let committed_md = std::fs::read_to_string(&md_path).unwrap_or_default();
        if committed_md != experiments::experiments_markdown(expected) {
            diffs.push(geo2c_report::Discrepancy {
                experiment: "EXPERIMENTS.md".into(),
                cell: String::new(),
                message: format!(
                    "{} is not the rendering of the committed results/*.json — \
                     it was hand-edited or not regenerated",
                    md_path.display()
                ),
            });
        }
    }
    if diffs.is_empty() {
        println!(
            "check OK: {} experiments consistent with {}",
            fresh_view.experiments.len(),
            dir.display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "check FAILED: {} discrepancies against {}",
            diffs.len(),
            dir.display()
        );
        let source_of = |experiment: &str| {
            sources.iter().find(|(id, _)| id == experiment).map_or_else(
                || "<no committed file>".to_string(),
                |(_, p)| p.display().to_string(),
            )
        };
        for d in &diffs {
            eprintln!("  {d}");
        }
        // Per-experiment summary: exactly which cells drifted, and which
        // committed file holds the expectation they drifted from.
        eprintln!("drift summary (cell -> expectation file):");
        let mut seen: Vec<&str> = Vec::new();
        for d in &diffs {
            if !seen.contains(&d.experiment.as_str()) {
                seen.push(&d.experiment);
            }
        }
        for experiment in seen {
            let cells: Vec<&str> = diffs
                .iter()
                .filter(|d| d.experiment == experiment)
                .map(|d| {
                    if d.cell.is_empty() {
                        "<spec>"
                    } else {
                        d.cell.as_str()
                    }
                })
                .collect();
            eprintln!(
                "  {experiment}: {} drifted ({}) vs {}",
                cells.len(),
                cells.join("; "),
                source_of(experiment)
            );
        }
        let flag = if scale.name == REFERENCE.name {
            String::new()
        } else {
            format!(" --{}", scale.name)
        };
        eprintln!(
            "if the change is intentional, regenerate the expectations with \
             `./tables.sh{flag}` and commit the diff"
        );
        ExitCode::FAILURE
    }
}

fn write(set: &ResultSet, args: &Args, dir: &Path) -> ExitCode {
    for result in &set.experiments {
        let mut single = ResultSet::new(set.provenance.clone());
        single.push(result.clone());
        let path = dir.join(format!("{}.json", result.spec.id));
        if let Err(e) = single.save(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    // A `--only` subset never rewrites EXPERIMENTS.md: the document
    // renders the whole committed set, not a slice of it.
    if args.scale.name == REFERENCE.name && args.only.is_none() {
        let md_path = args.dir.join("EXPERIMENTS.md");
        if let Err(e) = std::fs::write(&md_path, experiments::experiments_markdown(set)) {
            eprintln!("cannot write {}: {e}", md_path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", md_path.display());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("run_tables: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.render {
        // No suite run: EXPERIMENTS.md must be the exact rendering of
        // the committed reference results.
        let dir = results_dir(&args.dir, &REFERENCE);
        let (expected, _) = match load_expected(&dir, args.seed, false, None) {
            Ok(loaded) => loaded,
            Err(code) => return code,
        };
        let md_path = args.dir.join("EXPERIMENTS.md");
        let committed = std::fs::read_to_string(&md_path).unwrap_or_default();
        return if committed == experiments::experiments_markdown(&expected) {
            println!(
                "render OK: {} is byte-identical to the rendering of {}",
                md_path.display(),
                dir.display()
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "render FAILED: {} is not the rendering of {} — \
                 it was hand-edited or not regenerated (run `./tables.sh`)",
                md_path.display(),
                dir.display()
            );
            ExitCode::FAILURE
        };
    }
    let dir = match &args.against {
        Some(archive) => archive.clone(),
        None => results_dir(&args.dir, args.scale),
    };
    // Fail fast on missing/corrupt expectations before the long run.
    let expected = if args.check {
        match load_expected(
            &dir,
            args.seed,
            args.against.is_some(),
            args.only.as_deref(),
        ) {
            Ok(expected) => Some(expected),
            Err(code) => return code,
        }
    } else {
        None
    };

    let results = run_suite(args.scale, args.seed, args.threads, args.only.as_deref());
    let mut set = ResultSet::new(Provenance::capture(args.seed));
    set.experiments = results;

    match expected {
        Some((expected, sources)) => check(&set, &expected, &sources, &args, &dir, args.scale),
        None => write(&set, &args, &dir),
    }
}
