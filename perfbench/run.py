#!/usr/bin/env python3
"""Build and run one workload of the FLARE repo benchmark.

Usage (from the repo root):

    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 12 --trace 0

Builds perfbench/ (the FLARE libraries, the `flare` CLI and the `flarebench`
program) as a Release CMake tree in $CARGO_TARGET_DIR, or .bench_build when
unset, then runs the workload. Build output goes to stderr. Stdout carries
the run's human-readable lines and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are every `end_to_end` metric of BENCHMARK.json (--trace 0) or
every `per_layer` metric (--trace 1). A per-layer metric the workload's path
does not reach reads 0. Exits 1 when a build or a correctness check fails,
2 on bad usage. --trace 1 also writes the run's spans as Chrome trace-event
JSON to .bench_out/trace-<workload>-seed<seed>.json.

Extra flags (--serve-rate, --limit-*-ms) are passed through to flarebench
as given. BENCHMARK.json's command sets them once for every run; serve_mixed
refuses to run without them.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the Release tree."""
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(build_dir, "CMakeCache.txt")
        if not os.path.exists(cache):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs, "--target", "flarebench", "flare"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
        with open(cache) as f:
            build_type = next((line.split("=", 1)[1].strip() for line in f
                               if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        log(f"refusing a {build_type or 'untyped'} build; benchmark numbers need Release")
        sys.exit(2)


def source_id():
    """git SHA when the checkout is a repository, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "none; src sha256 " + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, passthrough = parser.parse_known_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    trace_out = os.path.join(".bench_out",
                             f"trace-{args.workload}-seed{args.seed}.json")
    cmd = [os.path.join(build_dir, "flarebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--flare-bin", os.path.join(build_dir, "flare", "cli", "flare"),
           "--run-dir", os.path.join(".bench_run", f"{args.workload}-{os.getpid()}"),
           "--git-sha", source_id()] + passthrough
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1

    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            raw = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if raw is None:
        log(f"{args.workload} exited {proc.returncode} without a result")
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = bool(raw["correct"]) and proc.returncode == 0
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log(f"end-to-end metric {m['name']} was not measured")
                correct = False
                continue
            got = {"value": 0, "unit": m["unit"]}  # layer not on this path
        if got["unit"] != m["unit"] or got["value"] is None:
            log(f"metric {m['name']}: {got} does not match unit {m['unit']}")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
