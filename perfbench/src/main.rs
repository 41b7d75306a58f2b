//! The geo2c benchmark runner: one workload per process, one thread,
//! every input generated from `--seed`.
//!
//! ```text
//! geo2c-perfbench --workload <paper_trials|serve_steady|serve_durable_churn>
//!                 --seed <n> --seconds <s> --trace <0|1>
//!                 [--scratch <dir>] [--scale full|tiny]
//! ```
//!
//! The last stdout line is the result object (`correct`, `attempted`,
//! `failed`, `metrics`): the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it is the full
//! report of the run (every metric it measured, sample counts, and the
//! attribution split). `perfbench/run.py` builds and runs this binary;
//! `perfbench/METRICS.md` maps every metric to its layer and workload.

mod layers;
mod paper;
mod report;
mod serve;

use std::path::PathBuf;

/// Sizes of one benchmark scale. `FULL` is what `BENCHMARK.json` runs;
/// `TINY` is the self-test's few-batch scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `paper_trials` ring size exponent.
    pub ring_exp: u32,
    /// `paper_trials` torus size exponent.
    pub torus_exp: u32,
    /// Serving workloads' ring size exponent.
    pub serve_exp: u32,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// `paper_trials` runs at least this many trial pairs (40 gives its
    /// p75 ten samples beyond it).
    pub min_pairs: usize,
    /// `paper_trials` reports the mean max load of this many first pairs,
    /// so it is a pure function of the seed.
    pub quality_pairs: usize,
    /// Serving workloads read `max_load` at 16 evenly spaced points over
    /// this many events of the timed loop, and `availability` at its end,
    /// so both are pure functions of the seed.
    pub milestone: u64,
    /// Serving workloads run at least this many timed batches.
    pub min_batches: u64,
    /// Traced runs alternate untraced and traced segments of this many
    /// batches.
    pub segment: u64,
    /// Closed-loop batches of the reference journaled engine that times
    /// the durability layers on workloads that do not journal.
    pub probe_batches: u64,
    /// `Recovery::resume` repetitions per run.
    pub recoveries: usize,
    /// Events the churn fault plan covers.
    pub horizon: u64,
}

pub const FULL: Scale = Scale {
    ring_exp: 20,
    torus_exp: 16,
    serve_exp: 16,
    setup_reps: 7,
    min_pairs: 40,
    quality_pairs: 16,
    milestone: 1 << 22,
    min_batches: 1000,
    segment: 1024,
    probe_batches: 256,
    recoveries: 5,
    horizon: 1 << 26,
};

pub const TINY: Scale = Scale {
    ring_exp: 12,
    torus_exp: 10,
    serve_exp: 10,
    setup_reps: 2,
    min_pairs: 4,
    quality_pairs: 2,
    milestone: 1 << 12,
    min_batches: 64,
    segment: 16,
    probe_batches: 130,
    recoveries: 2,
    horizon: 1 << 18,
};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scratch: PathBuf,
    pub scale: Scale,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scratch = PathBuf::from(".bench_scratch");
        let mut scale = FULL;
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    });
                }
                "--scratch" => scratch = PathBuf::from(value()?),
                "--scale" => {
                    scale = match value()?.as_str() {
                        "full" => FULL,
                        "tiny" => TINY,
                        other => return Err(format!("unknown scale {other}")),
                    };
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err("--seconds must be a non-negative number".into());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            scratch,
            scale,
        })
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("geo2c-perfbench: {msg}");
            std::process::exit(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("geo2c-perfbench: scratch {}: {err}", args.scratch.display());
        std::process::exit(2);
    }
    let mut out = match args.workload.as_str() {
        "paper_trials" => paper::run(&args),
        "serve_steady" => serve::run_steady(&args),
        "serve_durable_churn" => serve::run_churn(&args),
        other => {
            eprintln!("geo2c-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    // Read last, after every allocation of the run.
    out.e2e("peak_rss_mb", report::peak_rss_mb(), "MB");
    let (report, result) = out.render(&args.workload, args.trace);
    println!("{report}");
    println!("{result}");
}
