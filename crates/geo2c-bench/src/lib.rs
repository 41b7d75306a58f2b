//! The experiment and benchmark drivers.
//!
//! This crate builds exactly two binaries, run from the repository root:
//!
//! * **`run_tables`** (normally via `./tables.sh`) is the only way to run
//!   an experiment. It drives the gated suite ([`experiments::SUITE`]):
//!   the paper's Tables 1–3, the Lemma 3–6 and 8–9 validations, the
//!   conclusion's open questions (non-uniform servers and probes, load
//!   profiles against the fluid limit), and the serving, DHT, scaling and
//!   durability families. It persists every run under `results/`, checks
//!   fresh runs against the committed numbers, and renders
//!   `EXPERIMENTS.md`. `--quick`/`--full` pick the scale, `--only ID,ID`
//!   a subset: `./tables.sh --full --only table1` reproduces Table 1 at
//!   the paper's own 1000-trial scale.
//! * **`run_benches`** is the paper-substrate bench harness. It times
//!   the owner-lookup, least-of-`d` and `m = n` trial suite ([`perf`]),
//!   maintains the committed baselines under `results/bench/`, and gates
//!   perf regressions and speedup claims. Serving is timed by the
//!   repository benchmark in `perfbench/`: one harness per question.
//!
//! [`experiments`] hosts the experiment constructors and the suite
//! registry, which declares each member's id, table layout and size at
//! every [`experiments::Scale`] once; [`perf`] hosts the bench suite.
//!
//! ```
//! // Row labels in the paper's `2^k` format.
//! assert_eq!(geo2c_bench::pow2_label(65536), "2^16");
//! assert_eq!(geo2c_bench::pow2_label(100), "100");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod perf;

/// Formats `n` as `2^k` when `n` is a power of two (the paper's row
/// labels), else decimal.
#[must_use]
pub fn pow2_label(n: usize) -> String {
    if n.is_power_of_two() {
        format!("2^{}", n.trailing_zeros())
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_labels() {
        assert_eq!(pow2_label(256), "2^8");
        assert_eq!(pow2_label(1 << 20), "2^20");
        assert_eq!(pow2_label(100), "100");
    }
}
