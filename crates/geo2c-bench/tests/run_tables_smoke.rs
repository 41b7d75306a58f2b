//! End-to-end smoke test for the `run_tables` driver: a `--quick` run
//! must produce parseable `ResultSet` JSON for every experiment, and the
//! `--check` mode must accept what was just written and reject a
//! tampered expectation.

use geo2c_bench::experiments::{Scale, SUITE};
use geo2c_bench::perf::{FULL, QUICK};
use geo2c_report::{Json, ResultSet};
use std::path::PathBuf;
use std::process::Command;

fn run(dir: &PathBuf, extra: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_tables"));
    cmd.arg("--quick").arg("--dir").arg(dir).args(extra);
    cmd.output().expect("run_tables executes")
}

#[test]
fn quick_run_produces_parseable_result_sets_and_check_works() {
    let dir = std::env::temp_dir().join(format!("geo2c-run-tables-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Write mode: every experiment lands as its own ResultSet file.
    let output = run(&dir, &[]);
    assert!(output.status.success(), "write run failed: {output:?}");
    let results_dir = dir.join("results").join("quick");
    for id in SUITE.map(|m| m.id) {
        let path = results_dir.join(format!("{id}.json"));
        let set =
            ResultSet::load(&path).unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        let experiment = set.experiment(id).expect("experiment under its own id");
        assert!(!experiment.cells.is_empty(), "{id} has no cells");
        assert_eq!(experiment.spec.seed, 0);
        assert!(experiment.spec.trials > 0);
        // Table cells carry max-load distributions with one entry per
        // trial; serving aggregates per-server loads (n per trial) and
        // churn is metric-only.
        let cell = &experiment.cells[0];
        match id {
            "dimension" => {}
            "churn" => assert!(cell.distribution.is_none(), "churn cells are metric-only"),
            "replication" => assert!(
                cell.distribution.is_none(),
                "replication cells are metric-only"
            ),
            "dht" => assert!(cell.distribution.is_none(), "dht cells are metric-only"),
            "lemma3" | "lemma4_5" | "lemma6" | "lemma8_9" | "profile" => {
                assert!(cell.distribution.is_none(), "{id} cells are metric-only");
                assert!(!cell.metrics.is_empty(), "{id} cells carry metrics");
            }
            "nonuniform_servers" | "nonuniform_probes" => {
                // The d = 2 max-load distribution, one entry per trial,
                // next to the d = 1 / d = 2 / smaller-region means.
                let dist = cell.distribution.as_ref().expect("distribution");
                assert_eq!(dist.total(), experiment.spec.trials as u64);
                assert!(
                    cell.metrics.iter().any(|(k, _)| k == "mean_d1"),
                    "{id} cells carry the one-choice mean"
                );
            }
            "durability" => {
                assert!(
                    cell.distribution.is_none(),
                    "durability cells are metric-only"
                );
                assert!(
                    cell.metrics.iter().any(|(k, _)| k == "replay_mean"),
                    "durability cells carry the replay-cost metric"
                );
            }
            "resilience" => {
                assert!(
                    cell.distribution.is_none(),
                    "resilience cells are metric-only"
                );
                assert!(
                    cell.metrics.iter().any(|(k, _)| k == "availability_pct"),
                    "resilience cells carry the availability metric"
                );
            }
            "scaling" => {
                assert!(cell.distribution.is_none(), "scaling cells are metric-only");
                // The wall-clock throughput column must be present (it
                // renders) but `~`-prefixed (so `--check` skips it).
                assert!(
                    cell.metrics.iter().any(|(k, _)| k == "~balls_per_s"),
                    "scaling cells carry the informational throughput metric"
                );
            }
            "serving" => {
                let n = experiment
                    .spec
                    .params
                    .iter()
                    .find(|(k, _)| k == "servers")
                    .and_then(|(_, v)| v.as_u64())
                    .expect("servers param");
                let dist = cell.distribution.as_ref().expect("distribution");
                assert_eq!(dist.total(), experiment.spec.trials as u64 * n);
            }
            _ => {
                let dist = cell.distribution.as_ref().expect("distribution");
                assert_eq!(dist.total(), experiment.spec.trials as u64);
            }
        }
    }
    // The quick scale never touches EXPERIMENTS.md (reference scale only).
    assert!(!dir.join("EXPERIMENTS.md").exists());

    // Check mode: a fresh identical run passes against what was written.
    let output = run(&dir, &["--check"]);
    assert!(
        output.status.success(),
        "self-check failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // A subset check via --only runs (and compares) just those members.
    let output = run(&dir, &["--check", "--only", "serving,churn"]);
    assert!(
        output.status.success(),
        "--only self-check failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("2 experiments"), "stdout: {stdout}");

    // Tamper with one committed distribution: the check must fail loudly.
    let victim = results_dir.join("table1.json");
    let mut set = ResultSet::load(&victim).unwrap();
    let cell = &mut set.experiments[0].cells[0];
    let trials = cell.distribution.as_ref().unwrap().total();
    let mut skewed = geo2c_util::hist::Counter::new();
    skewed.add_n(40, trials); // an absurd max load in every trial
    cell.distribution = Some(skewed);
    set.save(&victim).unwrap();

    let output = run(&dir, &["--check"]);
    assert!(!output.status.success(), "tampered check must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("check FAILED"), "stderr: {stderr}");
    assert!(stderr.contains("table1"), "stderr: {stderr}");

    // A missing expectation file is reported as such, not as a diff.
    std::fs::remove_file(&victim).unwrap();
    let output = run(&dir, &["--check"]);
    assert!(!output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("cannot load committed expectations"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the driver `bin` with `args`, asserts it rejected them as bad
/// input (exit status 2, the usage line, no panic) and returns its
/// stderr.
fn rejected_by(bin: &str, args: &[&str]) -> String {
    let output = Command::new(bin)
        .args(args)
        .output()
        .expect("driver executes");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: run_"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

fn rejected(args: &[&str]) -> String {
    rejected_by(env!("CARGO_BIN_EXE_run_tables"), args)
}

#[test]
fn run_benches_rejects_bad_input_without_panicking() {
    let bench = |args: &[&str]| rejected_by(env!("CARGO_BIN_EXE_run_benches"), args);
    assert!(bench(&["--quick", "--bogus"]).contains("unknown flag '--bogus'"));
    assert!(bench(&["--repeats", "x"]).contains("cannot parse 'x'"));
    // Every run uses seed 0 and the standard window; neither is a flag.
    for flag in ["--seed", "--window-ms"] {
        assert!(bench(&[flag, "1"]).contains(&format!("unknown flag '{flag}'")));
    }
    assert!(bench(&["--ratio", "f.json", "a"]).contains("--ratio requires a value"));
    assert!(bench(&["--check", "--archive"]).contains("pick one"));
    assert!(bench(&["--quick", "--only", "ring"]).contains("explicit --out"));
    // A NaN or non-positive threshold would turn a gate into a silent
    // pass: every comparison against NaN is false.
    assert!(bench(&["--quick", "--check", "--tolerance", "nan"]).contains("--tolerance must be"));
    assert!(bench(&["--check", "--tolerance", "inf"]).contains("--tolerance must be"));
    for min in ["nan", "inf", "-1", "0"] {
        let stderr = bench(&["--diff", "a.json", "b.json", "--min-speedup", min]);
        assert!(stderr.contains("--min-speedup must be"), "{min}: {stderr}");
    }
    for max in ["nan", "inf", "0"] {
        let stderr = bench(&["--ratio", "f.json", "a", "b", max]);
        assert!(stderr.contains("--ratio limit must be"), "{max}: {stderr}");
    }
}

#[test]
fn only_flag_rejects_unknown_experiment_ids() {
    // `--only` must fail fast on a typo'd id — before any suite work —
    // and name the valid suite members in the error.
    let stderr = rejected(&["--quick", "--only", "bogus"]);
    assert!(
        stderr.contains("unknown experiment 'bogus'"),
        "stderr: {stderr}"
    );
    for id in SUITE.map(|m| m.id) {
        assert!(
            stderr.contains(id),
            "error must name suite id {id}: {stderr}"
        );
    }
    // Unknown flags, missing values and unparsable numbers are bad input
    // too: reported, never a panic, never a silently ignored typo.
    assert!(rejected(&["--quick", "--trials", "5"]).contains("unknown flag '--trials'"));
    assert!(rejected(&["--seed", "x"]).contains("cannot parse 'x'"));
    assert!(rejected(&["--quick", "--dir"]).contains("--dir requires a value"));
}

#[test]
fn quick_expectations_in_the_repository_match_the_current_scale() {
    // The committed results/quick/*.json and results/*.json must carry
    // the spec each SUITE member would run today at their scale —
    // otherwise ci.sh's `--check` steps compare apples to stale oranges
    // and their failure message will blame the numbers instead of the
    // spec. (The full comparison runs in CI; this test just pins the
    // committed spec shape so drift is caught even when tests run
    // without the CI script.)
    let results: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "results"]
        .iter()
        .collect();
    for (scale, dir) in [
        (Scale::Quick, results.join("quick")),
        (Scale::Reference, results.clone()),
    ] {
        for member in &SUITE {
            let (id, size) = (member.id, member.size(scale));
            let path = dir.join(format!("{id}.json"));
            let set = ResultSet::load(&path)
                .unwrap_or_else(|e| panic!("{} must exist and parse: {e}", path.display()));
            let spec = &set.experiment(id).expect("experiment present").spec;
            assert_eq!(spec.trials, size.trials, "{id} ({scale:?}): stale trials");
            // The size parameter is the sweep's `n` (one value or a
            // list), or the serving/DHT families' `servers`/`nodes`.
            let param = spec
                .params
                .iter()
                .find(|(k, _)| ["n", "servers", "nodes"].contains(&k.as_str()))
                .map(|(_, v)| v)
                .expect("size param");
            let committed: Vec<usize> = match param.as_array() {
                Some(ns) => ns.iter().filter_map(Json::as_usize).collect(),
                None => param.as_usize().into_iter().collect(),
            };
            assert_eq!(committed, size.ns(), "{id} ({scale:?}): stale size");
        }
    }
}

/// The `group/name/2^k` ids of a committed `results/bench/` file's
/// cells, after checking that its spec's `benches` list names the same.
fn committed_bench_ids(file: &str) -> Vec<String> {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "..",
        "..",
        "results",
        "bench",
        file,
    ]
    .iter()
    .collect();
    let set = ResultSet::load(&path)
        .unwrap_or_else(|e| panic!("{} must exist and parse: {e}", path.display()));
    let result = set.experiment("bench").expect("bench experiment");
    let ids: Vec<String> = result
        .cells
        .iter()
        .map(|cell| {
            let coord = |key: &str| &cell.coords.iter().find(|(k, _)| k == key).expect(key).1;
            format!(
                "{}/{}/{}",
                coord("group").as_str().expect("group"),
                coord("name").as_str().expect("name"),
                geo2c_bench::pow2_label(coord("n").as_usize().expect("n"))
            )
        })
        .collect();
    let listed: Vec<&str> = result
        .spec
        .params
        .iter()
        .find(|(k, _)| k == "benches")
        .and_then(|(_, v)| v.as_array())
        .expect("benches param")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(
        listed, ids,
        "{file}: the spec's benches list drifted from its cells"
    );
    ids
}

#[test]
fn committed_bench_files_match_the_suite() {
    // CI re-times only the quick file, so a full-scale row left behind by
    // a suite change would otherwise go unnoticed.
    for (scale, file) in [(&QUICK, "quick.json"), (&FULL, "baseline.json")] {
        let suite: Vec<String> = scale.suite().iter().map(|b| b.id()).collect();
        assert_eq!(committed_bench_ids(file), suite, "{file}");
    }
    // The frozen serving evidence holds exactly the rows that ci.sh's
    // PR-9 diff gate and journaling ratio gates read.
    for (file, n) in [("serving_pr10.json", 14), ("serving_pr10_quick.json", 10)] {
        let expected: Vec<String> = [
            "serving_d2_random",
            "serving_faults_d2",
            "serving_d2_journaled",
        ]
        .iter()
        .map(|name| format!("trial/{name}/2^{n}"))
        .collect();
        assert_eq!(committed_bench_ids(file), expected, "{file}");
    }
}
