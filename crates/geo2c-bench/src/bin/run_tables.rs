//! The experiment driver and the only way to run one: runs the gated
//! suite (`experiments::SUITE`: the paper's tables, lemma
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
//! unparsable number, `--against` without `--check`, `--render` with a
//! scale, `--check`, `--against`, `--only`, `--seed` or `--threads`)
//! prints the usage line to stderr and exits with status 2.
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

use geo2c_bench::experiments::{self, Member, Scale, SUITE};
use geo2c_core::experiment::SweepConfig;
use geo2c_report::{compare_sets, ExperimentResult, Provenance, ResultSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: run_tables [--quick | --full] [--check [--against DIR]] [--render] \
                     [--only ID,ID] [--dir DIR] [--seed S] [--threads T]";

struct Args {
    scale: Scale,
    check: bool,
    render: bool,
    against: Option<PathBuf>,
    only: Option<Vec<String>>,
    dir: PathBuf,
    /// `None` until `--seed`/`--threads` is given: seed 0 and the
    /// machine's available parallelism.
    seed: Option<u64>,
    threads: Option<usize>,
}

/// Parses the command line; `Err` carries the message to print above
/// the usage line.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Reference,
        check: false,
        render: false,
        against: None,
        only: None,
        dir: PathBuf::from("."),
        seed: None,
        threads: None,
    };
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--quick" => args.scale = Scale::Quick,
            "--full" => args.scale = Scale::Full,
            "--check" => args.check = true,
            "--render" => args.render = true,
            "--against" => args.against = Some(PathBuf::from(value()?)),
            "--only" => {
                let ids: Vec<String> = value()?.split(',').map(str::to_string).collect();
                if let Some(id) = ids.iter().find(|id| SUITE.iter().all(|m| m.id != *id)) {
                    let suite: Vec<&str> = SUITE.iter().map(|m| m.id).collect();
                    return Err(format!(
                        "--only: unknown experiment '{id}' (suite: {})",
                        suite.join(", ")
                    ));
                }
                args.only = Some(ids);
            }
            "--dir" => args.dir = PathBuf::from(value()?),
            "--seed" => args.seed = Some(number(flag, &value()?)?),
            "--threads" => args.threads = Some(number(flag, &value()?)?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    // A flag its mode would ignore is rejected, not dropped: without
    // `--check` a run writes, so `--against` would overwrite the archive
    // it names, and `--render` runs nothing, so a scale, check, subset,
    // seed or thread count beside it would be silently ignored (or, for
    // the seed, compared against the committed seed-0 rendering).
    if args.against.is_some() && !args.check {
        return Err("--against names the files --check compares with; add --check".into());
    }
    if args.render
        && (args.scale != Scale::Reference
            || args.check
            || args.against.is_some()
            || args.only.is_some()
            || args.seed.is_some()
            || args.threads.is_some())
    {
        return Err(
            "--render runs nothing; drop --quick, --full, --check, --against, \
                    --only, --seed and --threads"
                .into(),
        );
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse '{text}' as a number"))
}

/// `results/` for the reference scale, `results/<scale>/` otherwise.
fn results_dir(base: &Path, scale: Scale) -> PathBuf {
    let root = base.join("results");
    if scale == Scale::Reference {
        root
    } else {
        root.join(scale.name())
    }
}

/// The suite members `--only` selects (all of them without it), in
/// suite order.
fn selected(only: Option<&[String]>) -> impl Iterator<Item = &'static Member> + '_ {
    SUITE
        .iter()
        .filter(move |m| only.map_or(true, |ids| ids.iter().any(|want| want == m.id)))
}

fn run_suite(
    scale: Scale,
    seed: u64,
    threads: usize,
    only: Option<&[String]>,
) -> Vec<ExperimentResult> {
    eprintln!("running the {} scale", scale.name());
    selected(only)
        .map(|member| {
            let size = member.size(scale);
            let config = SweepConfig {
                trials: size.trials,
                threads,
                seed,
            };
            eprintln!("  {}: trials={} seed={seed}", member.id, size.trials);
            member.run(&size.ns(), &config)
        })
        .collect()
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
    for member in selected(only) {
        let path = dir.join(format!("{}.json", member.id));
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
    scale: Scale,
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
    let mut diffs = compare_sets(&fresh_view, expected);
    // At the reference scale, EXPERIMENTS.md is part of the committed
    // expectations too: it must be exactly what the committed results
    // render to, or the headline document has drifted from the data.
    // (Not when diffing against an archive or a `--only` subset: the
    // document is a function of the whole committed set.)
    if scale == Scale::Reference && args.against.is_none() && args.only.is_none() {
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
        let flag = if scale == Scale::Reference {
            String::new()
        } else {
            format!(" --{}", scale.name())
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
    if args.scale == Scale::Reference && args.only.is_none() {
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
        let dir = results_dir(&args.dir, Scale::Reference);
        let (expected, _) = match load_expected(&dir, 0, false, None) {
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
    let seed = args.seed.unwrap_or(0);
    let threads = args
        .threads
        .unwrap_or_else(geo2c_util::parallel::num_threads);
    let dir = match &args.against {
        Some(archive) => archive.clone(),
        None => results_dir(&args.dir, args.scale),
    };
    // Fail fast on missing/corrupt expectations before the long run.
    let expected = if args.check {
        match load_expected(&dir, seed, args.against.is_some(), args.only.as_deref()) {
            Ok(expected) => Some(expected),
            Err(code) => return code,
        }
    } else {
        None
    };

    let results = run_suite(args.scale, seed, threads, args.only.as_deref());
    let mut set = ResultSet::new(Provenance::capture(seed));
    set.experiments = results;

    match expected {
        Some((expected, sources)) => check(&set, &expected, &sources, &args, &dir, args.scale),
        None => write(&set, &args, &dir),
    }
}
