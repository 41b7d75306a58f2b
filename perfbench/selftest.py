#!/usr/bin/env python3
"""Tiny-scale self-test of the geo2c benchmark.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json, and `paper_trials`, which the
binary still runs by name, for a few batches or trials (`--scale tiny`),
untraced and traced. It asserts that each result line
has exactly the result keys and carries every named metric of its mode
with the declared unit and a finite value, that end-to-end values are
non-zero, and that every correctness check passed. It also checks that
the benchmark refuses to run, without printing a result, in a tree holding
only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runnable by name but not in BENCHMARK.json (perfbench/METRICS.md says why).
UNLISTED = ["paper_trials"]


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.2",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def check_result(bench, workload, trace, done):
    where = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}"
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{where}: checks failed\n{done.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    wanted = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, \
        f"{where}: metric names differ: {set(got) ^ {m['name'] for m in wanted}}"
    for m in wanted:
        value = got[m["name"]]
        assert set(value) == {"value", "unit"}, f"{where}: {m['name']} keys"
        assert value["unit"] == m["unit"], f"{where}: {m['name']} unit {value['unit']} != {m['unit']}"
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"]), \
            f"{where}: {m['name']} = {value['value']}"
        if not trace:
            assert value["value"] != 0, f"{where}: end-to-end {m['name']} is 0"
    print(f"ok  {where}: {len(got)} metrics, {result['attempted']} checked ops")


def check_refuses_partial_tree(bench):
    """A tree with only BENCHMARK.json and the benchmark's own paths must
    fail without a result line."""
    tree = os.path.join(ROOT, ".bench_scratch", "selftest-partial-tree")
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(tree, path),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
        done = run(tree, bench["workloads"][0]["name"], 0)
        assert done.returncode != 0, "partial tree: benchmark exited 0"
        assert '"correct"' not in done.stdout, "partial tree: printed a result"
        print("ok  partial tree refused")
    finally:
        shutil.rmtree(tree, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tree))
        except OSError:
            pass


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]] + UNLISTED:
        for trace in (0, 1):
            check_result(bench, workload, trace, run(ROOT, workload, trace))
    check_refuses_partial_tree(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
