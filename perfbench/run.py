#!/usr/bin/env python3
"""Build and run the geo2c benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. It builds the `geo2c-perfbench`
package (perfbench/Cargo.toml, a workspace of its own that depends on the
repository's crates by path) in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), runs it, and prints its report line, a line of
host and build facts, and, last, the result object. Journal scratch lives
in `.bench_scratch/` and is removed afterwards.

Extra flags (`--scale tiny`) pass through to the
binary; perfbench/selftest.py uses them.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark compiles the repository's crates from source.
NEEDED = [
    "crates/geo2c-util/Cargo.toml",
    "crates/geo2c-core/Cargo.toml",
    "crates/geo2c-serve/Cargo.toml",
    "vendor/rand/Cargo.toml",
    "Cargo.toml",
]
BINARY = "geo2c-perfbench"
BINARY_TIMEOUT_S = 170


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cache_sizes():
    """Unified/data cache sizes of cpu0 by level, e.g. {"L2": "2048K"}."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read(os.path.join(base, entry, "level"))
        kind = read(os.path.join(base, entry, "type"))
        size = read(os.path.join(base, entry, "size"))
        if level and size and kind in ("Unified", "Data"):
            sizes["L" + level] = size
    return sizes


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    for line in (read("/proc/mounts") or "").splitlines():
        fields = line.split()
        if len(fields) >= 3:
            mount = fields[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


def host_facts(scratch):
    model = next(
        (line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) or "not a git checkout",
        "build_profile": "release (perfbench/Cargo.toml: opt-level 3, debug = true)",
        "scratch_fs": filesystem_of(scratch),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a full source tree, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    scratch = os.path.join(ROOT, ".bench_scratch")
    cmd = [os.path.join(target, "release", BINARY),
           "--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--scratch", scratch] + extra
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {BINARY} exceeded {BINARY_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: {BINARY} exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host_facts(scratch)}))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
