#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout. It builds the benchmark crate in
perfbench/ (release, offline) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs one workload in a child process with the
executor's worker count pinned. The last line of its output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1`, its per-layer metrics. `--workload all` runs every
workload, each in its own process, and prints one table.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["churn", "remote-free", "graph-update", "serve"]
# One run must end within 180 s; leave room for start-up and parsing.
RUN_TIMEOUT_S = 170
# The executor's worker count, capped by the machine's cores.
MAX_WORKERS = 2


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Builds the benchmark; returns the path of its executable."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(ROOT, target, "release", "pim-perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(seed, workers):
    """The environment a result was measured in."""
    toplevel = command_output(["git", "rev-parse", "--show-toplevel"])
    commit = None
    if toplevel and os.path.realpath(toplevel) == os.path.realpath(ROOT):
        commit = command_output(["git", "rev-parse", "HEAD"])
    rustc = command_output(["rustc", "--version"]) or "unknown"
    print(
        f"seed={seed} PIM_EXEC_WORKERS={workers} nproc={os.cpu_count()} "
        f"commit={commit or 'unknown (not a git checkout)'} rustc={rustc}"
    )


def run_one(binary, workload, args, spec, workers):
    """Runs one workload in its own process; returns its result object."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = dict(os.environ, PIM_EXEC_WORKERS=str(workers))
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result")
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"{workload}: metrics differ from BENCHMARK.json (missing {missing}, extra {extra})")
    if not result["correct"]:
        fail(f"{workload}: output check failed")
    return result


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    workers = min(MAX_WORKERS, os.cpu_count() or 1)
    stamp(args.seed, workers)
    if args.workload != "all":
        result = run_one(binary, args.workload, args, spec, workers)
        print(json.dumps(result))
        return

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, workload, args, spec, workers)
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    names = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    print(f"{'metric':<44} {'unit':<8} " + " ".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = merged["metrics"][f"{WORKLOADS[0]}.{name}"]["unit"]
        cells = " ".join(f"{merged['metrics'][f'{w}.{name}']['value']:>16.6g}" for w in WORKLOADS)
        print(f"{name:<44} {unit:<8} {cells}")
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
