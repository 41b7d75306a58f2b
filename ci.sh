#!/usr/bin/env bash
# CI gate for the two-choices workspace. Every check must pass; run from
# the repository root. Mirrors what a GitHub Actions workflow would run
# (kept as a script because the build environment is offline).
set -euo pipefail

say() { printf '\n== %s ==\n' "$*"; }

say "rustfmt"
cargo fmt --all --check

# Both lock files are tracked: Cargo.lock for the workspace and
# perfbench/Cargo.lock for the benchmark, which only a change to the
# benchmark may rewrite. --locked fails (exit 101) when a manifest edit
# would change either, before any cargo build below could rewrite it.
say "lock files (Cargo.lock and perfbench/Cargo.lock match their manifests)"
cargo metadata --locked --offline --format-version 1 >/dev/null
cargo metadata --locked --offline --format-version 1 --manifest-path perfbench/Cargo.toml >/dev/null

say "clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

say "build (release)"
cargo build --release

# Every crate is a default member, so this one run covers the pinning
# property suites too: the serving engine's conservation and replay
# identity, packed == flat load states, the fault-injection
# chaos suite, crash-point recovery (torn journal tails; a crash in
# each checkpoint-rotation window: mid spare write, after
# checkpoint.bin -> checkpoint.old, after checkpoint.tmp ->
# checkpoint.bin, before compaction; and a crash in each
# staged-checkpoint window: right after the boundary while the
# departure gather is pending, while the image is pending, after its
# rotation but before the compaction, after the compaction's rewrite
# but before its set_len), decoder robustness (hostile residue files
# included), the checkpoint writer's byte identity against a reference
# codec and a bit-at-a-time reference CRC (staged images included, the
# load section's 8-load word edges, durability-size images durable at
# their boundary, and the two-scheduler chain: wheel and heap engines
# writing identical checkpoint.bin files through crashes and a resume),
# the checkpoint image pins (a 103-byte image, and a multi-lane image of
# 2^13 servers far past the CRC's lane threshold, staged writer
# included), the four-lane CRC (against the bytewise reference up to
# 256 KiB at every start offset, split on and beside its lane seams, and
# its lane shift against a run over zero bytes), the wheel-vs-heap
# oracle (the sliced gather against the heap's entries at its mark, and
# the chain-of-marks arm: every merged image of three to five marks on
# one wheel against the heap's entries at that mark), and torus owner
# equivalence
# (KdGrid::nearest / nearest_batch and KdSites::owner against the
# brute-force oracle for K in {1, 2, 3, 4}; KdGrid::within against a
# brute radius filter for K in {2, 3}). A failure names its suite and
# test, so none of them is re-run by name.
say "tests (workspace unit + integration + doctests)"
cargo test -q

# The wheel-vs-heap oracle again, at 16x the default 128 proptest cases
# (about 4 s in release on a 2-vCPU host, against 0.5 s at the default):
# the wheel's interleaved slot lists, cascades and sliced gather are
# where a rare interleaving hides.
say "wheel oracle at 2048 proptest cases (release)"
PROPTEST_CASES=2048 cargo test --release -q -p geo2c-serve --test wheel_oracle

# The repo benchmark's self-test at tiny scale (~3 s once built): every
# BENCHMARK.json workload in both modes, with the benchmark's own
# correctness checks — recovered state byte-equal to the crashed engine,
# the journaled engine equal to its plain twin, load conservation —
# which exercise exactly the durable checkpoint/journal path.
say "benchmark self-test (perfbench/selftest.py, tiny scale)"
python3 perfbench/selftest.py

say "docs, crate-private items included (no warnings allowed)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --document-private-items

# results/bench/quick.json records absolute ns/iter from one host: it
# was re-recorded on a shared 2-vCPU Xeon after the ring owner lookup's
# last speedup (results/bench/README.md names the commit; the reference
# machine, which baseline.json and the before_* archives still come
# from, read 2-3x faster). So this cross-machine gate is a
# catastrophe catch (accidental O(n) scans, debug asserts in release),
# not a micro-regression gate — run `run_benches --check --tolerance 50`
# locally for that. A host persistently slower than 3x the recording
# host should regenerate and commit results/bench/quick.json, and so
# should a change that speeds up a row, or the gate stops guarding the
# new speed. The quick suite times the paper substrate only, ten rows:
# the ring, torus, kd3 and kd4 owner lookups, min_load_flat, the
# end-to-end random-tie-break trials (trial/{ring,torus,kd3,uniform}_
# d2_random, the cross-ball lane engine's headline path) and the kd3
# arc-left ablation, which runs the same engine with positional
# tie-breaks. Serving is timed by perfbench, not here. The gate
# measures the way quick.json was recorded, best of 15 windows: best of
# the default 3 could not ride out a stall of the shared vCPUs and read
# a row 3-5x slow on unchanged code.
say "bench regression gate (quick scale vs results/bench/quick.json, 200% tolerance)"
cargo run --release -q -p geo2c-bench --bin run_benches -- --quick --check --tolerance 200 --repeats 15

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
# serving trials must show >= 1.5x over the committed pre-wheel archive
# (heap scheduler + one-event-at-a-time loop). A file comparison of
# frozen PR-10 evidence: the serving rows left run_benches, and their
# last full-scale cells are kept verbatim in serving_pr10.json, which
# nothing regenerates.
say "committed speedup evidence (serving_pr10.json >= 1.5x before_pr9.json on trial/serving_*)"
cargo run --release -q -p geo2c-bench --bin run_benches -- \
  --diff results/bench/serving_pr10.json results/bench/before_pr9.json \
  --min-speedup 1.5 --only serving_d2_random,serving_faults_d2

# The durability discipline's overhead bound, pinned as data: in the
# frozen PR-10 serving evidence (both sides measured back-to-back on
# the reference host) the journaled serving trial must cost at most
# 1.25x the plain one. A cross-bench ratio within one frozen file, so it
# cannot flake on a slow CI host. The quick-scale file
# (serving_pr10_quick.json) is 16x shorter, so the per-interval fixed
# costs (seed image, checkpoint syscalls) weigh proportionally more
# there — its bound is a loose structural catch, not the methodology
# claim. The live durable-path cost is measured by perfbench's
# serve_durable_churn workload.
say "committed overhead evidence (serving_d2_journaled <= 1.25x serving_d2_random)"
cargo run --release -q -p geo2c-bench --bin run_benches -- \
  --ratio results/bench/serving_pr10.json serving_d2_journaled serving_d2_random 1.25
cargo run --release -q -p geo2c-bench --bin run_benches -- \
  --ratio results/bench/serving_pr10_quick.json serving_d2_journaled serving_d2_random 2.0

say "EXPERIMENTS.md renders byte-identically from the committed results/*.json"
cargo run --release -q -p geo2c-bench --bin run_tables -- --render

# Every member of geo2c_bench::experiments::SUITE runs; scalar-metric
# cells (the members with a Flat layout) are compared exactly, and the
# scaling, durability and lemma8_9 members assert their invariants
# inside the experiment. On failure the drift summary
# names each drifted experiment and its expectation file.
say "table expectations (quick scale vs results/quick/, statistical tolerance)"
cargo run --release -q -p geo2c-bench --bin run_tables -- --quick --check

say "table expectations (reference scale vs results/ + EXPERIMENTS.md; ~1.5 min single-core)"
cargo run --release -q -p geo2c-bench --bin run_tables -- --check

say "all green"
