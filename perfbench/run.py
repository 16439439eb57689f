#!/usr/bin/env python3
"""End-to-end benchmark of the simulator over the paper's experiment grids.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig6-dm --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the simulator libraries under src/) into
.bench_build/perfbench on first use, then:

  --trace 0  times fresh-process set-up several times, runs whole untraced
             passes over the workload's grid, checks every experiment
             against tests/golden, and prints the end-to-end metrics;
  --trace 1  runs one untraced pass and then traced passes stage by stage,
             and prints the per-layer metrics.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every output was correct.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "gridbench"
# Fresh processes timed before and again after the passes; setup_s is
# the median of both groups, which sample different moments of a host
# whose speed drifts.
SETUP_PROBES = 8
# Longest a measuring process may run before it is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench:", message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "gridbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def declared_metrics(key):
    """name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def setup_samples(workload, seed):
    """Times from spawning a fresh process until the grid's jobs have
    been handed to the runner (which here runs none of them)."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        probe = subprocess.run(
            [str(BINARY), "setup", "--workload", workload,
             "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=60)
        word, handoff = probe.stdout.split()
        if word != "handoff":
            fail(f"unexpected setup probe output {probe.stdout!r}")
        samples.append(float(handoff) - start)
    return samples


def host_block(child_info):
    git_sha = "unknown (checkout has no .git)"
    if (ROOT / ".git").exists():
        git_sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, text=True).stdout.strip() or git_sha
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            sources.update(path.relative_to(ROOT).as_posix().encode())
            sources.update(path.read_bytes())
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": child_info.get("compiler"),
        "build_type": child_info.get("build_type"),
        "git_sha": git_sha,
        "src_sha256": sources.hexdigest()[:16],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    expected = declared_metrics("per_layer" if args.trace else "end_to_end")
    setup = [] if args.trace else setup_samples(args.workload, args.seed)

    out_dir = BUILD / "out"
    out_dir.mkdir(exist_ok=True)
    child = subprocess.run(
        [str(BINARY), "trace" if args.trace else "run",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--golden-dir", str(ROOT / "tests" / "golden"),
         "--out-dir", str(out_dir)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = child.stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        fail(f"gridbench exited with {child.returncode}")
    result = json.loads(lines[-1])
    info = result["info"]
    metrics = dict(result["metrics"])
    if not args.trace:
        setup += setup_samples(args.workload, args.seed)
        metrics["setup_s"] = statistics.median(setup)

    print("host", json.dumps(host_block(info), sort_keys=True))
    mode = "traced" if args.trace else "untraced"
    passes = info.get("traced_passes", info.get("passes"))
    print(f"workload {args.workload}, seed {args.seed}, {mode}: "
          f"{passes} passes of {info['experiments']} experiments, "
          f"{info['workers']} worker(s)")
    if "samples" in info:
        print(f"  experiment samples: {info['samples']}")
    for error in result["errors"]:
        print("  WRONG", error)
    if result["correct"] and set(metrics) != set(expected):
        fail(f"metrics {sorted(metrics)} differ from the declared "
             f"{sorted(expected)}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6g} {expected.get(name, '')}")
    if not args.trace:
        print(f"  {'wrong_frac':28s} {info['wrong_frac']:16.6g} ratio")
    for key in ("spans", "experiment_times"):
        if key in info:
            print(f"  {key}: {info[key]}")

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": expected[name]}
                    for name, value in metrics.items()
                    if name in expected},
    }))
    return 0 if result["correct"] and child.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
