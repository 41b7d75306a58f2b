#!/usr/bin/env bash
# CI gate for the two-choices workspace. Every check must pass; run from
# the repository root. Mirrors what a GitHub Actions workflow would run
# (kept as a script because the build environment is offline).
set -euo pipefail

say() { printf '\n== %s ==\n' "$*"; }

say "rustfmt"
cargo fmt --all --check

say "clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

say "build (release)"
cargo build --release

say "tests (workspace unit + integration + doctests)"
cargo test -q

# The serving engine's property layer (conservation, prefix-replay
# byte-identity, event-sequential reference equality) is the contract
# the serving experiment family rests on; run it by name so a failure
# is attributed to the engine rather than to a drifted expectation.
say "serving engine (geo2c-serve unit + property tests)"
cargo test -q -p geo2c-serve

# The packed/sharded load states are byte-for-byte replacements for the
# flat Vec<u32> — every committed number rests on that equivalence. Run
# the pinning proptest layers by name (the offline batch engine across
# all spaces x d x tie policies, and the serving engine with departures,
# failures, and spill/un-spill churn) so a divergence is attributed to
# the load-state layer, not to a drifted expectation downstream.
say "load-state equivalence (packed/sharded == flat, offline + serving)"
cargo test -q -p geo2c-core --test loadvec_equivalence
cargo test -q -p geo2c-serve --test packed_equivalence

# The resilience layer's chaos suite: fault plans replay byte-identically
# (one-shot == chunked == resumed), arrivals are conserved under
# arbitrary fail/recover churn, recovery restores availability, the
# departure heap stays bounded (the leak fix's oracle), and
# checkpoint/restore resumes byte-identically on flat, packed, and
# sharded backings. Run by name so a failure is attributed to the fault
# path rather than to a drifted expectation downstream.
say "fault injection & recovery (chaos proptests incl. checkpoint/restore)"
cargo test -q -p geo2c-serve --test fault_recovery

# The durability layer's crash suite: checkpoint/journal round trips,
# torn-tail truncation vs loud corruption, mid-rename crash residue, and
# the headline pin — resume + replay is byte-identical to the
# uninterrupted run at arbitrary crash points, across load backings and
# both schedulers. Run by name so a failure is attributed to the
# journal/recovery path itself.
say "durable checkpoint/journal (crash-point recovery proptests)"
cargo test -q -p geo2c-serve --test crash_recovery

# The repo benchmark's self-test at tiny scale (~3 s once built): every
# BENCHMARK.json workload in both modes, with the benchmark's own
# correctness checks — recovered state byte-equal to the crashed engine,
# the journaled engine equal to its plain twin, load conservation —
# which exercise exactly the durable checkpoint/journal path.
say "benchmark self-test (perfbench/selftest.py, tiny scale)"
python3 perfbench/selftest.py

# The timing wheel replaced the departure heap on the serving hot path;
# the heap stays on as the oracle. The wheel must be observationally
# equal to it under arbitrary op scripts (queue level) and produce
# byte-identical engine checkpoints under faults (engine level). Run by
# name so a failure is attributed to the scheduler swap itself.
say "departure wheel vs heap oracle (queue-level + engine-level proptests)"
cargo test -q -p geo2c-serve --test wheel_oracle

say "docs (no warnings allowed)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

say "benches compile"
cargo bench -p geo2c-bench --no-run

say "bench smoke (substrate ablation bench, incl. the K-d orthant path; ~4 s)"
cargo bench -p geo2c-bench --bench substrate

# The committed baseline records absolute ns/iter from one reference
# machine, so this cross-machine gate is a catastrophe catch (accidental
# O(n) scans, debug asserts in release), not a micro-regression gate —
# run `run_benches --check --tolerance 50` locally for that. A host
# persistently slower than 3x the reference should regenerate and commit
# results/bench/quick.json. The quick suite includes the kd3/kd4 owner
# benches and the end-to-end random-tie-break trials (trial/*_random —
# the cross-ball lane engine's headline path) plus the arc-left
# ablation, so both engine paths are gated.
say "bench regression gate (quick scale vs results/bench/quick.json, 200% tolerance)"
cargo run --release -q -p geo2c-bench --bin run_benches -- --quick --check --tolerance 200

# The PR-5 lane engine's headline claim, pinned as data: the committed
# baseline must show >= 1.5x on the random-tie trial benches over the
# committed pre-lane archive. Pure file comparison — nothing is re-run —
# so this cannot flake; it fails only if someone regenerates baseline.json
# on a change that gives the speedup back.
say "committed speedup evidence (baseline.json >= 1.5x before_pr5.json on trial/*_random)"
cargo run --release -q -p geo2c-bench --bin run_benches -- \
  --diff results/bench/baseline.json results/bench/before_pr5.json \
  --min-speedup 1.5 --only ring_d2_random,torus_d2_random,kd3_d2_random

# The load-state abstraction's contract is *no slower*, not faster: the
# generic engine must not cost the headline trial benches anything
# against the pre-abstraction archive. 0.95 allows bench noise only.
say "committed no-regression evidence (baseline.json >= 0.95x before_pr7.json on trial/*_random)"
cargo run --release -q -p geo2c-bench --bin run_benches -- \
  --diff results/bench/baseline.json results/bench/before_pr7.json \
  --min-speedup 0.95 --only ring_d2_random,torus_d2_random,kd3_d2_random

# The PR-9 scheduler swap's headline claim, pinned the same way: the
# committed baseline must show >= 1.5x on the serving trials over the
# committed pre-wheel archive (heap scheduler + one-event-at-a-time
# loop). File comparison only — it fails only if someone regenerates
# baseline.json on a change that gives the wheel's speedup back.
say "committed speedup evidence (baseline.json >= 1.5x before_pr9.json on trial/serving_*)"
cargo run --release -q -p geo2c-bench --bin run_benches -- \
  --diff results/bench/baseline.json results/bench/before_pr9.json \
  --min-speedup 1.5 --only serving_d2_random,serving_faults_d2

# The durability discipline's overhead bound, pinned as data: in the
# committed baseline (both sides measured back-to-back on the reference
# host) the journaled serving trial must cost at most 1.25x the plain
# one. A cross-bench ratio within one file, so it cannot flake on a slow
# CI host; it fails only if a baseline regeneration shows the journal
# layer got expensive. The quick-scale run is 16x shorter, so the
# per-interval fixed costs (seed image, checkpoint syscalls) weigh
# proportionally more there — its bound is a loose structural catch,
# not the methodology claim.
say "committed overhead evidence (serving_d2_journaled <= 1.25x serving_d2_random)"
cargo run --release -q -p geo2c-bench --bin run_benches -- \
  --ratio results/bench/baseline.json serving_d2_journaled serving_d2_random 1.25
cargo run --release -q -p geo2c-bench --bin run_benches -- \
  --ratio results/bench/quick.json serving_d2_journaled serving_d2_random 2.0

say "EXPERIMENTS.md renders byte-identically from the committed results/*.json"
cargo run --release -q -p geo2c-bench --bin run_tables -- --render

say "table expectations (quick scale vs results/quick/, statistical tolerance)"
cargo run --release -q -p geo2c-bench --bin run_tables -- --quick --check

# The serving + churn + scaling cells are exact-compared scalar metrics
# (fully deterministic in the seed; scaling's ~balls_per_s wall-clock
# column is excluded by its ~ prefix), so this subset gate re-verifies
# them via the --only path — which also keeps that flag itself exercised
# in CI. The scaling member additionally asserts, inside the experiment,
# that every packed/sharded backing places identically to flat.
say "serving + churn + scaling expectations (quick scale, --only subset)"
cargo run --release -q -p geo2c-bench --bin run_tables -- --quick --check --only serving,churn,scaling

# The resilience and replication families are exact-compared too; their
# own subset gate keeps the fault-injection numbers (availability, shed
# split, retry rescues) pinned even when the full quick check is what
# drifted — a resilience-only failure points straight at the fault path.
say "resilience + replication expectations (quick scale, --only subset)"
cargo run --release -q -p geo2c-bench --bin run_tables -- --quick --check --only resilience,replication

# The heavily-loaded (m != n) family joined the gated suite in PR-9
# (previously an ungated orphan binary); its cells are exact-compared
# scalar metrics plus a max-load distribution, so its own subset gate
# keeps the §2-remark-3 numbers pinned and attributable.
say "heavily-loaded expectations (quick scale, --only subset)"
cargo run --release -q -p geo2c-bench --bin run_tables -- --quick --check --only heavy

# The DHT family (the §1.1 Chord application, folded in from its orphan
# binary) and the durability family (journal/recovery cost, which also
# asserts recovered == uninterrupted inside every trial) are exact-
# compared scalar metrics; their own subset gate keeps them pinned and
# attributable.
say "dht + durability expectations (quick scale, --only subset)"
cargo run --release -q -p geo2c-bench --bin run_tables -- --quick --check --only dht,durability

# A freshly written quick-scale suite must accept itself under --check:
# this round-trips the current specs (notably the resized paper-scale
# dimension sweep) through write mode and the tolerance diff, in a temp
# dir so the committed expectations stay untouched.
say "spec round-trip (quick scale write then --check in a temp dir)"
roundtrip_dir="$(mktemp -d)"
trap 'rm -rf "$roundtrip_dir"' EXIT
cargo run --release -q -p geo2c-bench --bin run_tables -- --quick --dir "$roundtrip_dir"
cargo run --release -q -p geo2c-bench --bin run_tables -- --quick --check --dir "$roundtrip_dir"

say "table expectations (reference scale vs results/ + EXPERIMENTS.md; ~1.5 min single-core)"
cargo run --release -q -p geo2c-bench --bin run_tables -- --check

say "all green"
