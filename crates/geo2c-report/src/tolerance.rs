//! Statistical tolerance diffing between a fresh run and committed
//! expectations.
//!
//! The committed tables are Monte-Carlo estimates, so `run_tables
//! --check` cannot demand byte equality against a run with a different
//! seed or a legitimately refactored sampler — but with the *same* seed
//! and an unchanged algorithm the comparison is exact, and with an
//! intentional algorithm change the diff must flag every cell whose
//! distribution moved beyond noise. The middle ground implemented here:
//!
//! * **Spec drift is an error, not a tolerance question.** If the
//!   committed file was produced by a different `(id, trials, seed,
//!   params)` than the current harness would run, the expectations are
//!   stale and every number comparison would be meaningless.
//! * **Distributions** are compared per support value with the pooled
//!   two-proportion z statistic ([`geo2c_util::stats::two_proportion_z`]):
//!   each table percentage is a binomial proportion over `trials`.
//! * **Means** are compared with Welch's z
//!   ([`geo2c_util::stats::welch_z`]) over the per-trial max-load
//!   samples reconstructed from the distributions.
//! * **Scalar metrics** compare exactly: they are deterministic
//!   functions of the seed, so any difference is a real change, not
//!   noise. The one carve-out is metrics whose key starts with `~`
//!   (informational wall-clock measurements such as the scaling table's
//!   `~balls_per_s`): machine-dependent by nature, they render in the
//!   tables but never participate in the compare.
//!
//! A difference must exceed *both* the z threshold and a small absolute
//! slack to count: the absolute slack keeps one-trial flickers in a
//! 0.1%-tail bucket from failing CI, the z threshold scales correctly
//! with trial count everywhere else.

use crate::spec::{Cell, ExperimentResult, ResultSet};
use geo2c_util::stats::{two_proportion_z, welch_z};

/// Maximum allowed z statistic, for both the proportion and the mean
/// test: a one-in-~16000 two-sided false-positive rate per bucket.
const MAX_Z: f64 = 4.0;

/// Absolute proportion slack: bucket differences below this never fail.
const PROPORTION_SLACK: f64 = 0.02;

/// Absolute mean slack: mean differences below this never fail.
const MEAN_SLACK: f64 = 0.05;

/// One detected inconsistency between a fresh run and an expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrepancy {
    /// Spec id of the experiment.
    pub experiment: String,
    /// Cell label (empty for experiment-level problems such as spec drift).
    pub cell: String,
    /// What differed.
    pub message: String,
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.cell.is_empty() {
            write!(f, "[{}] {}", self.experiment, self.message)
        } else {
            write!(f, "[{} @ {}] {}", self.experiment, self.cell, self.message)
        }
    }
}

fn drift(experiment: &str, message: impl Into<String>) -> Discrepancy {
    Discrepancy {
        experiment: experiment.to_string(),
        cell: String::new(),
        message: message.into(),
    }
}

/// Compares a fresh [`ExperimentResult`] against a committed expectation.
///
/// Returns every discrepancy found (empty means the fresh run is
/// consistent with the expectation).
#[must_use]
pub fn compare_results(fresh: &ExperimentResult, expected: &ExperimentResult) -> Vec<Discrepancy> {
    let id = &fresh.spec.id;
    let mut out = Vec::new();

    if fresh.spec != expected.spec {
        out.push(drift(
            id,
            format!(
                "spec drift: fresh spec {} != committed spec {} — regenerate the expectations",
                fresh.spec.to_json().render(),
                expected.spec.to_json().render()
            ),
        ));
        return out;
    }
    if fresh.cells.len() != expected.cells.len() {
        out.push(drift(
            id,
            format!(
                "cell count changed: fresh {} != committed {}",
                fresh.cells.len(),
                expected.cells.len()
            ),
        ));
        return out;
    }

    for (fresh_cell, expected_cell) in fresh.cells.iter().zip(&expected.cells) {
        compare_cells(id, fresh_cell, expected_cell, &mut out);
    }
    out
}

fn compare_cells(experiment: &str, fresh: &Cell, expected: &Cell, out: &mut Vec<Discrepancy>) {
    let mut push = |cell: &Cell, message: String| {
        out.push(Discrepancy {
            experiment: experiment.to_string(),
            cell: cell.label(),
            message,
        });
    };

    if fresh.coords != expected.coords {
        push(
            fresh,
            format!("cell coordinates changed (committed: {})", expected.label()),
        );
        return;
    }

    // Scalar metrics are deterministic functions of the seed (unlike the
    // trial distributions, there is no legitimate noise between a fresh
    // run and the committed expectation), so they compare exactly: the
    // JSON round-trip is lossless and thread count never changes them.
    // Metrics whose key starts with `~` are *informational* — wall-clock
    // measurements (the scaling table's `~balls_per_s`) that legitimately
    // differ between machines and runs — and are excluded on both sides.
    let checked = |cell: &Cell| -> Vec<(String, crate::json::Json)> {
        cell.metrics
            .iter()
            .filter(|(k, _)| !k.starts_with('~'))
            .cloned()
            .collect()
    };
    if checked(fresh) != checked(expected) {
        let describe = |cell: &Cell| {
            cell.metrics
                .iter()
                .map(|(k, v)| format!("{k}={}", v.render()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        push(
            fresh,
            format!(
                "metrics changed: fresh {{{}}} vs committed {{{}}}",
                describe(fresh),
                describe(expected)
            ),
        );
    }

    match (&fresh.distribution, &expected.distribution) {
        (None, None) => {}
        (Some(_), None) | (None, Some(_)) => {
            push(fresh, "distribution presence changed".to_string());
        }
        (Some(fresh_dist), Some(expected_dist)) => {
            let (n1, n2) = (fresh_dist.total(), expected_dist.total());
            // Union of the supports, in increasing value order.
            let mut values: Vec<u64> = fresh_dist
                .iter()
                .map(|(v, _)| v)
                .chain(expected_dist.iter().map(|(v, _)| v))
                .collect();
            values.sort_unstable();
            values.dedup();
            for value in values {
                let (k1, k2) = (fresh_dist.count(value), expected_dist.count(value));
                let p1 = if n1 == 0 { 0.0 } else { k1 as f64 / n1 as f64 };
                let p2 = if n2 == 0 { 0.0 } else { k2 as f64 / n2 as f64 };
                let z = two_proportion_z(k1, n1, k2, n2);
                if z > MAX_Z && (p1 - p2).abs() > PROPORTION_SLACK {
                    push(
                        fresh,
                        format!(
                            "P(max load = {value}) moved: fresh {:.1}% vs committed {:.1}% (z = {z:.1})",
                            100.0 * p1,
                            100.0 * p2
                        ),
                    );
                }
            }

            let (s1, s2) = (fresh.dist_stats(), expected.dist_stats());
            let z = welch_z(
                s1.mean(),
                s1.variance(),
                s1.count(),
                s2.mean(),
                s2.variance(),
                s2.count(),
            );
            if z > MAX_Z && (s1.mean() - s2.mean()).abs() > MEAN_SLACK {
                push(
                    fresh,
                    format!(
                        "mean max load moved: fresh {:.3} vs committed {:.3} (z = {z:.1})",
                        s1.mean(),
                        s2.mean()
                    ),
                );
            }
        }
    }
}

/// Compares every experiment of a fresh [`ResultSet`] against the
/// matching (by spec id) experiment of the committed set. Experiments
/// present on only one side are discrepancies; provenance differences
/// (git revision, tool version) are deliberately ignored.
#[must_use]
pub fn compare_sets(fresh: &ResultSet, expected: &ResultSet) -> Vec<Discrepancy> {
    let mut out = Vec::new();
    for fresh_result in &fresh.experiments {
        match expected.experiment(&fresh_result.spec.id) {
            Some(expected_result) => {
                out.extend(compare_results(fresh_result, expected_result));
            }
            None => out.push(drift(
                &fresh_result.spec.id,
                "missing from the committed expectations",
            )),
        }
    }
    for expected_result in &expected.experiments {
        if fresh.experiment(&expected_result.spec.id).is_none() {
            out.push(drift(
                &expected_result.spec.id,
                "committed expectation was not produced by the fresh run",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::spec::{ExperimentSpec, Provenance};
    use geo2c_util::hist::Counter;

    fn dist(pairs: &[(u64, u64)]) -> Counter {
        let mut c = Counter::new();
        for &(v, k) in pairs {
            c.add_n(v, k);
        }
        c
    }

    fn result(pairs: &[(u64, u64)]) -> ExperimentResult {
        let spec = ExperimentSpec::new("table1", "t")
            .trials(1000)
            .seed(0)
            .param("space", Json::str("ring"));
        let mut r = ExperimentResult::new(spec);
        r.push(
            Cell::new()
                .coord("n", Json::from_usize(4096))
                .coord("d", Json::from_usize(2))
                .dist(dist(pairs)),
        );
        r
    }

    #[test]
    fn identical_results_are_accepted() {
        let a = result(&[(4, 881), (5, 118), (6, 1)]);
        let b = a.clone();
        assert!(compare_results(&a, &b).is_empty());
    }

    #[test]
    fn noise_level_differences_are_accepted() {
        // ~1% reshuffle between adjacent buckets: well inside z = 4 at
        // 1000 trials.
        let a = result(&[(4, 881), (5, 118), (6, 1)]);
        let b = result(&[(4, 873), (5, 126), (6, 1)]);
        let diffs = compare_results(&a, &b);
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn gross_distribution_shift_is_rejected() {
        let a = result(&[(4, 881), (5, 118), (6, 1)]);
        let b = result(&[(4, 300), (5, 600), (6, 100)]);
        let diffs = compare_results(&a, &b);
        assert!(!diffs.is_empty());
        let rendered = diffs[0].to_string();
        assert!(rendered.contains("table1"), "{rendered}");
        assert!(rendered.contains("n=4096"), "{rendered}");
    }

    #[test]
    fn shifted_support_is_rejected() {
        // Same shape, support moved by one — mean test must catch it
        // even though each bucket pair is (p, 0) vs (0, p).
        let a = result(&[(4, 900), (5, 100)]);
        let b = result(&[(5, 900), (6, 100)]);
        let diffs = compare_results(&a, &b);
        assert!(!diffs.is_empty());
    }

    #[test]
    fn spec_drift_short_circuits() {
        let a = result(&[(4, 1000)]);
        let mut b = result(&[(4, 1000)]);
        b.spec.seed = 1;
        let diffs = compare_results(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].to_string().contains("spec drift"));
    }

    #[test]
    fn cell_count_and_coord_changes_are_flagged() {
        let a = result(&[(4, 1000)]);
        let mut b = result(&[(4, 1000)]);
        b.cells.push(Cell::new());
        assert!(compare_results(&a, &b)[0]
            .to_string()
            .contains("cell count"));

        let mut c = result(&[(4, 1000)]);
        c.cells[0].coords[0].1 = Json::from_usize(8192);
        assert!(compare_results(&a, &c)[0]
            .to_string()
            .contains("coordinates"));
    }

    #[test]
    fn set_comparison_matches_by_id_and_flags_missing() {
        let prov = Provenance {
            tool: "t".into(),
            version: "v".into(),
            git_rev: "r1".into(),
            seed: 0,
        };
        let mut fresh = ResultSet::new(prov.clone());
        fresh.push(result(&[(4, 1000)]));
        let mut committed = ResultSet::new(Provenance {
            git_rev: "r2".into(), // provenance differences are ignored
            ..prov
        });
        committed.push(result(&[(4, 1000)]));
        assert!(compare_sets(&fresh, &committed).is_empty());

        let mut extra = ExperimentResult::new(ExperimentSpec::new("table9", "x"));
        extra.push(Cell::new());
        committed.push(extra);
        let diffs = compare_sets(&fresh, &committed);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].to_string().contains("not produced"));
    }

    #[test]
    fn metric_only_drift_is_flagged() {
        // Cells without distributions (dht/churn-style) must still be
        // comparable: metrics are deterministic, so exact match required.
        let cell = |hops: f64| {
            Cell::new()
                .coord("scheme", Json::str("2-choice"))
                .metric("mean_hops", Json::num(hops))
        };
        let spec = ExperimentSpec::new("dht", "t").trials(20).seed(0);
        let mut a = ExperimentResult::new(spec.clone());
        a.push(cell(4.25));
        let mut b = ExperimentResult::new(spec);
        b.push(cell(4.25));
        assert!(compare_results(&a, &b).is_empty());

        b.cells[0].metrics[0].1 = Json::num(5.0);
        let diffs = compare_results(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert!(
            diffs[0].to_string().contains("metrics changed"),
            "{diffs:?}"
        );
        assert!(diffs[0].to_string().contains("mean_hops"), "{diffs:?}");
    }

    #[test]
    fn tilde_metrics_are_informational_and_never_compared() {
        // `~`-prefixed metrics are wall-clock measurements: they differ
        // between any two runs and must not fail the exact compare —
        // whether they moved, appeared, or disappeared.
        let cell = |rate: f64| {
            Cell::new()
                .coord("backing", Json::str("packed-nibble"))
                .metric("bytes_per_bin", Json::num(0.5))
                .metric("~balls_per_s", Json::num(rate))
        };
        let spec = ExperimentSpec::new("scaling", "t").trials(3).seed(0);
        let mut a = ExperimentResult::new(spec.clone());
        a.push(cell(41_000_000.0));
        let mut b = ExperimentResult::new(spec.clone());
        b.push(cell(37_500_000.0));
        assert!(compare_results(&a, &b).is_empty());

        // Missing on one side entirely: still not a discrepancy.
        let mut c = ExperimentResult::new(spec);
        c.push(
            Cell::new()
                .coord("backing", Json::str("packed-nibble"))
                .metric("bytes_per_bin", Json::num(0.5)),
        );
        assert!(compare_results(&a, &c).is_empty());

        // The deterministic metric beside it still compares exactly.
        b.cells[0].metrics[0].1 = Json::num(1.0);
        let diffs = compare_results(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].to_string().contains("bytes_per_bin"), "{diffs:?}");
    }

    #[test]
    fn tiny_tail_flicker_is_within_slack() {
        // One trial moving in/out of a 0.1% bucket must not fail.
        let a = result(&[(4, 999), (5, 1)]);
        let b = result(&[(4, 1000)]);
        assert!(compare_results(&a, &b).is_empty());
    }
}
