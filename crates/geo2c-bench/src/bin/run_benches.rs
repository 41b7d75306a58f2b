//! The persisted-benchmark driver for the paper substrate: runs the
//! owner-lookup, least-of-`d` and trial bench suite
//! (`geo2c_bench::perf`), maintains the committed baselines under
//! `results/bench/`, and gates perf regressions and committed evidence
//! in CI. Serving performance is measured by `perfbench/` instead.
//!
//! ```text
//! run_benches [--quick] [--check] [--tolerance PCT]
//!             [--dir DIR] [--out PATH] [--against PATH] [--archive [LABEL]]
//!             [--only SUBSTR[,SUBSTR]] [--repeats N]
//! run_benches --diff AFTER.json BEFORE.json [--min-speedup R --only SUBSTR[,SUBSTR]]
//! run_benches --ratio FILE.json NUM_NAME DEN_NAME MAX
//! ```
//!
//! Bad input (an unknown flag, a missing value, an unparsable number, a
//! NaN or infinite threshold, a non-positive speedup or ratio limit,
//! zero repeats, contradictory modes) prints the usage line to stderr and
//! exits with status 2.
//!
//! Every run uses seed 0 and ~20 ms windows. `--repeats` overrides the
//! number of best-of windows (default 3): raise it on a noisy host. The
//! persisted spec records the repeats (`trials`), the seed and the
//! `window_ms` param, so runs carry their methodology with them.
//!
//! * *(no flags)* — run the **full** scale and write
//!   `results/bench/baseline.json` (the committed "after" evidence and
//!   the regression-gate reference).
//! * `--quick` — the CI scale (seconds); file stem `quick.json`.
//! * `--check` — rerun the selected scale and fail if any benchmark is
//!   more than `--tolerance` percent (default 50) slower than the
//!   committed baseline. Improvements never fail; structural drift
//!   (bench added/removed/renamed) always does.
//! * `--out PATH` — write somewhere else.
//! * `--check --against PATH` — check against an explicit baseline file
//!   (without `--check` it is rejected: nothing else reads a baseline).
//! * `--archive [LABEL]` — capture pre-optimization evidence: run the
//!   selected scale and write `results/bench/before_<LABEL>.json`.
//!   Without a label the next `prN` is chosen automatically (one past
//!   the highest committed `before_prN.json`), so each PR's "before"
//!   lands in its own file and the trajectory of archives stays
//!   comparable instead of a rolling `before.json` being overwritten.
//! * `--only SUBSTR[,SUBSTR]` *(run mode)* — run only the benches whose
//!   id contains a pattern. A filtered run is a subset, so it must name
//!   its own destination with `--out` — it never overwrites a committed
//!   baseline or archive. For iterating on one hot path.
//! * `--diff A B` — no benches run: load two persisted runs and print
//!   the per-bench speedup of `A` over `B` (e.g. the committed
//!   `baseline.json` over `before_pr5.json`). With `--min-speedup R`
//!   the diff *gates*: every pair whose id contains `--only SUBSTR`
//!   (default: all pairs) must show a speedup of at least `R`, or the
//!   exit status is non-zero — this is how ci.sh pins a perf PR's
//!   headline claim to the committed evidence.
//! * `--ratio FILE NUM DEN MAX` — no benches run: a *cross-bench* gate
//!   within one persisted run. The bench named `NUM` must show at most
//!   `MAX` times the ns/iter of the bench named `DEN` (names are the
//!   `name` coordinate, e.g. `serving_d2_journaled`). Because both sides
//!   were measured back-to-back on the same host, the ratio is
//!   machine-independent evidence — this is how ci.sh bounds the
//!   journaling overhead against the plain serving trial in the frozen
//!   `results/bench/serving_pr10*.json` archives.

use geo2c_bench::perf::{self, fmt_ns, pair_benches, run_bench_suite_only, Scale, FULL, QUICK};
use geo2c_report::{ExperimentResult, Provenance, ResultSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    scale: Scale,
    check: bool,
    tolerance_pct: f64,
    dir: PathBuf,
    out: Option<PathBuf>,
    against: Option<PathBuf>,
    diff: Option<(PathBuf, PathBuf)>,
    ratio: Option<(PathBuf, String, String, f64)>,
    archive: Option<Option<String>>,
    min_speedup: Option<f64>,
    only: Option<String>,
    repeats: usize,
}

/// The one root seed every bench run uses (recorded in the spec and the
/// provenance).
const SEED: u64 = 0;

const USAGE: &str = "usage: run_benches [--quick] [--check] [--tolerance PCT] \
                     [--dir DIR] [--out PATH] [--against PATH] [--archive [LABEL]] \
                     [--only SUBSTR[,SUBSTR]] [--repeats N] \
                     | --diff AFTER BEFORE [--min-speedup R --only SUBSTR[,SUBSTR]] \
                     | --ratio FILE NUM_NAME DEN_NAME MAX";

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse '{text}' as a number"))
}

/// Parses the command line; `Err` carries the message to print above
/// the usage line.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        scale: FULL,
        check: false,
        tolerance_pct: 50.0,
        dir: PathBuf::from("."),
        out: None,
        against: None,
        diff: None,
        ratio: None,
        archive: None,
        min_speedup: None,
        only: None,
        repeats: perf::REPEATS,
    };
    let mut rest = argv.iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--quick" => args.scale = QUICK,
            "--check" => args.check = true,
            "--tolerance" => {
                args.tolerance_pct = number(flag, &value()?)?;
                // NaN compares false against every bench, so it would
                // turn the regression gate into a silent pass.
                if !args.tolerance_pct.is_finite() {
                    return Err("--tolerance must be a finite percentage".into());
                }
            }
            "--dir" => args.dir = PathBuf::from(value()?),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--against" => args.against = Some(PathBuf::from(value()?)),
            "--diff" => args.diff = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--ratio" => {
                let file = PathBuf::from(value()?);
                let num = value()?;
                let den = value()?;
                let max: f64 = number(flag, &value()?)?;
                if !(max.is_finite() && max > 0.0) {
                    return Err("--ratio limit must be finite and positive".into());
                }
                args.ratio = Some((file, num, den, max));
            }
            // The label is optional: consume the next token only if it
            // is not a flag.
            "--archive" => {
                args.archive = Some(rest.next_if(|next| !next.starts_with("--")).cloned())
            }
            "--min-speedup" => {
                let min: f64 = number(flag, &value()?)?;
                if !(min.is_finite() && min > 0.0) {
                    return Err("--min-speedup must be finite and positive".into());
                }
                args.min_speedup = Some(min);
            }
            "--only" => args.only = Some(value()?),
            "--repeats" => {
                args.repeats = number(flag, &value()?)?;
                // The spec records the repeats as `trials`; a run times
                // at least one window, so 0 would misstate the method.
                if args.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    // Contradictory destinations/modes are rejected rather than silently
    // resolved: --check writes nothing (an --archive capture would be
    // skipped), and --archive has its own output-naming scheme.
    if args.archive.is_some() && args.check {
        return Err("--archive runs write an archive; --check writes nothing — pick one".into());
    }
    // Only --check reads a baseline: anywhere else --against would be
    // silently ignored.
    if args.against.is_some() && !args.check {
        return Err("--against names the baseline --check compares with; add --check".into());
    }
    if args.archive.is_some() && args.out.is_some() {
        return Err("--archive names its own output (before_<LABEL>.json); drop --out".into());
    }
    // A filtered measurement is a subset of the suite: letting it land in
    // baseline/archive/check paths would shrink the committed coverage.
    if args.only.is_some()
        && args.diff.is_none()
        && (args.check || args.archive.is_some() || args.out.is_none())
    {
        return Err("--only runs a subset; write it to an explicit --out \
                    (not a baseline, archive, or --check)"
            .into());
    }
    Ok(args)
}

fn bench_dir(args: &Args) -> PathBuf {
    args.dir.join("results").join("bench")
}

fn baseline_path(args: &Args) -> PathBuf {
    bench_dir(args).join(format!(
        "{}.json",
        if args.scale == QUICK {
            "quick"
        } else {
            "baseline"
        }
    ))
}

/// The per-PR archive file for `--archive`: `before_<LABEL>.json`, or —
/// with no label — `before_prN.json` for the smallest `N` one past every
/// committed `before_pr*.json` (so successive PRs never overwrite each
/// other's "before" evidence).
fn archive_path(args: &Args, label: Option<&str>) -> PathBuf {
    let dir = bench_dir(args);
    let label = match label {
        Some(l) => l.to_string(),
        None => {
            let mut next = 1u32;
            if let Ok(entries) = std::fs::read_dir(&dir) {
                for entry in entries.flatten() {
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if let Some(num) = name
                        .strip_prefix("before_pr")
                        .and_then(|rest| rest.strip_suffix(".json"))
                    {
                        if let Ok(n) = num.parse::<u32>() {
                            next = next.max(n + 1);
                        }
                    }
                }
            }
            format!("pr{next}")
        }
    };
    dir.join(format!("before_{label}.json"))
}

fn load_bench(path: &Path) -> Result<ExperimentResult, ExitCode> {
    match ResultSet::load(path) {
        Ok(set) => match set.experiment("bench") {
            Some(result) => Ok(result.clone()),
            None => {
                eprintln!("{}: no 'bench' experiment in file", path.display());
                Err(ExitCode::from(2))
            }
        },
        Err(e) => {
            eprintln!("cannot load {}: {e}", path.display());
            Err(ExitCode::from(2))
        }
    }
}

fn print_table(result: &ExperimentResult) {
    println!(
        "{:<34} {:>12} {:>16} {:>10}",
        "bench", "ns/iter", "throughput", "iters"
    );
    for cell in &result.cells {
        let ns = perf::metric_f64(cell, "ns_per_iter").unwrap_or(f64::NAN);
        let rate = perf::metric_f64(cell, "elems_per_s").unwrap_or(f64::NAN);
        let iters = cell
            .metrics
            .iter()
            .find(|(k, _)| k == "iters")
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0);
        println!(
            "{:<34} {:>12} {:>14.3e}/s {:>10}",
            cell.label(),
            fmt_ns(ns),
            rate,
            iters
        );
    }
}

fn diff(
    after_path: &Path,
    before_path: &Path,
    min_speedup: Option<f64>,
    only: Option<&str>,
) -> ExitCode {
    let (after, before) = match (load_bench(after_path), load_bench(before_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(c), _) | (_, Err(c)) => return c,
    };
    let (pairs, unmatched) = pair_benches(&after, &before);
    println!(
        "speedup of {} over {}:",
        after_path.display(),
        before_path.display()
    );
    println!(
        "{:<34} {:>12} {:>12} {:>9}",
        "bench", "before", "after", "speedup"
    );
    // `--only` takes a comma-separated list of id substrings.
    let matches_only = |id: &str| perf::matches_only(id, only);
    let mut failures = Vec::new();
    for p in &pairs {
        let gated = matches_only(&p.id);
        println!(
            "{:<34} {:>12} {:>12} {:>8.2}x{}",
            p.id,
            fmt_ns(p.right_ns),
            fmt_ns(p.left_ns),
            p.speedup(),
            if gated && min_speedup.is_some() {
                "  [gated]"
            } else {
                ""
            }
        );
        if let Some(min) = min_speedup {
            if gated && p.speedup() < min {
                failures.push(format!("{}: {:.2}x < required {min}x", p.id, p.speedup()));
            }
        }
    }
    for u in &unmatched {
        println!("  (unpaired) {u}");
    }
    if let Some(min) = min_speedup {
        let gated = pairs.iter().filter(|p| matches_only(&p.id)).count();
        // Every --only pattern must cover at least one pair: a gated
        // bench silently falling out of either file (rename, partial
        // regeneration) must fail the gate, not shrink it.
        if let Some(patterns) = only {
            for pat in patterns.split(',').filter(|pat| !pat.is_empty()) {
                if !pairs.iter().any(|p| p.id.contains(pat)) {
                    failures.push(format!(
                        "--only pattern {pat:?} matches no paired bench — \
                         gated coverage shrank"
                    ));
                }
            }
        }
        if gated == 0 {
            eprintln!(
                "speedup gate FAILED: no bench matches --only {:?}",
                only.unwrap_or("")
            );
            return ExitCode::FAILURE;
        }
        if failures.is_empty() {
            println!(
                "speedup gate OK: {gated} gated benches all at least {min}x faster than {}",
                before_path.display()
            );
        } else {
            eprintln!("speedup gate FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The `--ratio` cross-bench gate: within one persisted run, the bench
/// named `num` must cost at most `max` times the ns/iter of the bench
/// named `den`. Both sides come from the same back-to-back measurement,
/// so the bound holds machine-independently.
fn ratio(path: &Path, num: &str, den: &str, max: f64) -> ExitCode {
    let result = match load_bench(path) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let find = |name: &str| {
        let mut hits = result.cells.iter().filter(|c| {
            c.coords
                .iter()
                .any(|(k, v)| k == "name" && v.as_str() == Some(name))
        });
        match (hits.next(), hits.next()) {
            (Some(cell), None) => perf::metric_f64(cell, "ns_per_iter"),
            _ => None,
        }
    };
    let (Some(num_ns), Some(den_ns)) = (find(num), find(den)) else {
        eprintln!(
            "ratio gate FAILED: {} must hold exactly one bench named {num:?} and one named {den:?}",
            path.display()
        );
        return ExitCode::from(2);
    };
    let observed = num_ns / den_ns;
    if observed <= max {
        println!(
            "ratio gate OK: {num} is {observed:.3}x {den} (limit {max}x) in {}",
            path.display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ratio gate FAILED: {num} is {observed:.3}x {den}, over the {max}x limit in {} — \
             the overhead grew; fix it or re-justify the bound",
            path.display()
        );
        ExitCode::FAILURE
    }
}

fn check(
    fresh: &ExperimentResult,
    committed: &ExperimentResult,
    baseline_file: &Path,
    tolerance_pct: f64,
) -> ExitCode {
    let (pairs, unmatched) = pair_benches(fresh, committed);
    let mut failures = Vec::new();
    for u in &unmatched {
        failures.push(format!(
            "structural drift vs {}: {u}",
            baseline_file.display()
        ));
    }
    println!(
        "{:<34} {:>12} {:>12} {:>9}",
        "bench", "baseline", "fresh", "delta"
    );
    for p in &pairs {
        let delta = p.regression_pct();
        println!(
            "{:<34} {:>12} {:>12} {:>+8.1}%",
            p.id,
            fmt_ns(p.right_ns),
            fmt_ns(p.left_ns),
            delta
        );
        if delta > tolerance_pct {
            failures.push(format!(
                "{}: {} -> {} ({delta:+.1}%, tolerance {tolerance_pct}%)",
                p.id,
                fmt_ns(p.right_ns),
                fmt_ns(p.left_ns)
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "bench check OK: {} benches within {tolerance_pct}% of {}",
            pairs.len(),
            baseline_file.display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("bench check FAILED against {}:", baseline_file.display());
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!(
            "if the slowdown is intentional, regenerate the baseline with `run_benches{}` \
             and commit the diff",
            if baseline_file.ends_with("quick.json") {
                " --quick"
            } else {
                ""
            }
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("run_benches: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((after, before)) = &args.diff {
        return diff(after, before, args.min_speedup, args.only.as_deref());
    }
    if let Some((file, num, den, max)) = &args.ratio {
        return ratio(file, num, den, *max);
    }

    // Fail fast on a missing/corrupt baseline before the measurement run.
    let committed = if args.check {
        let baseline_file = args.against.clone().unwrap_or_else(|| baseline_path(&args));
        match load_bench(&baseline_file) {
            Ok(result) => Some((result, baseline_file)),
            Err(code) => {
                eprintln!(
                    "run `run_benches` (or `run_benches --quick`) to create the baseline first"
                );
                return code;
            }
        }
    } else {
        None
    };

    eprintln!(
        "running the {} bench scale (seed {SEED}, {} repeats of {} ms windows)",
        args.scale.name,
        args.repeats,
        perf::MEASURE_WINDOW.as_millis()
    );
    let fresh = run_bench_suite_only(
        args.scale,
        SEED,
        perf::MEASURE_WINDOW,
        args.repeats,
        args.only.as_deref(),
    );

    if let Some((committed, baseline_file)) = committed {
        return check(&fresh, &committed, &baseline_file, args.tolerance_pct);
    }

    print_table(&fresh);
    let path = match &args.archive {
        Some(label) => archive_path(&args, label.as_deref()),
        None => args.out.clone().unwrap_or_else(|| baseline_path(&args)),
    };
    let mut set = ResultSet::new(Provenance::capture(SEED));
    set.push(fresh);
    if let Err(e) = set.save(&path) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}
