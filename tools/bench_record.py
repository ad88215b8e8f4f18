"""Record the benchmark of a change against its base into BENCH_<n>.json.

usage: python3 tools/bench_record.py --base REV --change REV|DIR --out BENCH_1.json
           [--pairs 10] [--seed0 301]

Each side is either a git revision, exported with ``git archive``, or a
checkout directory, whose tracked and untracked non-ignored files are
copied; both land in a fresh temporary directory, so the benchmark
builds what it runs from those files alone. For every workload in
BENCHMARK.json the script runs ``python3 bench/run.py --workload W
--seed S --seconds T --trace 0`` on both sides, with T the benchmark's
own ``run_seconds``, ``--pairs`` times, with the seed of pair i
being seed0 + i on both sides and the side that runs first alternating
from pair to pair. The runs are sequential, one process at a time.

The output holds, per workload and end-to-end metric, each side's runs,
median and quartiles, how many pairs the change won (ties count for
neither side), and a noise band: the pairs split into two back-to-back
recordings of half the pairs each, and the band is the largest relative
difference between the two halves' medians on either side. Each metric
also states its verdict: ``claim_rule_met`` when the change won at least
nine pairs in ten and its median is better than the parent's by more
than the parent's interquartile range, and ``worse_than_bound`` when its
median is worse than the parent's by more than the metric's bound in
BENCHMARK.json (both as shares of the parent's median). It also
records nproc, the Python, numpy and scipy versions, and the thread
count and build of each OpenBLAS, as the benchmark reports them, the
OPENBLAS_NUM_THREADS and PYTHONDONTWRITEBYTECODE settings, and
each side's line count of src/tracksim/*.py (as ``wc -l`` counts), so
the size of the code is kept next to its speed.

A broken run does not disappear into the medians: after writing the
file, the script exits 1 and names the workload, side and pair of every
run that exited nonzero, reported ``correct: false`` or had failed
operations.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision or checkout directory")
    parser.add_argument("--change", required=True, help="git revision or checkout directory")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=301)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    return args


def git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(spec: str, dest: str) -> dict:
    """Copy one side's files into dest; returns how it was obtained."""
    os.makedirs(dest)
    if os.path.isdir(spec):
        files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                    cwd=spec).split("\0")
        for name in filter(None, files):
            source = os.path.join(spec, name)
            if os.path.isfile(source):
                os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
                shutil.copy2(source, os.path.join(dest, name))
        return {"directory": spec, "head": git("rev-parse", "HEAD", cwd=spec),
                "dirty": bool(git("status", "--porcelain", cwd=spec))}
    archive = subprocess.run(["git", "archive", spec], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return {"revision": spec, "commit": git("rev-parse", spec)}


def src_lines(checkout: str) -> int:
    """Newlines in the checkout's src/tracksim/*.py, the total of wc -l."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "tracksim", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def summary(values: list[float]) -> dict:
    return {"median": float(np.median(values)), "q1": float(np.percentile(values, 25)),
            "q3": float(np.percentile(values, 75)), "runs": values}


def noise_band(values: list[float]) -> float:
    """Relative difference between the medians of the two halves."""
    half = len(values) // 2
    first, second = np.median(values[:half]), np.median(values[half:])
    return float(abs(first - second) / np.median(values))


def environment(checkout: str) -> dict:
    """The benchmark's own record of nproc, versions and BLAS threads."""
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(checkout, "bench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, os.path.join(checkout, "bench"))
    try:
        spec.loader.exec_module(module)
        info = module.environment()
    finally:
        sys.path.pop(0)
    # the BLAS threads, and whether each CLI stage compiles the sources it
    # imports at start (compiling src/tracksim took 23 ms on a 2-vCPU machine)
    for name in ("OPENBLAS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE"):
        info[name] = os.environ.get(name)
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    work = tempfile.mkdtemp(prefix="bench_record_")
    try:
        sides = {side: os.path.join(work, side) for side in ("base", "change")}
        origin = {side: export(getattr(args, side), path) for side, path in sides.items()}
        record = {
            "command": "python3 tools/bench_record.py " + " ".join(argv or sys.argv[1:]),
            "base": origin["base"],
            "change": origin["change"],
            "environment": environment(sides["change"]),
            "src_lines": {side: src_lines(path) for side, path in sides.items()},
            "pairs": args.pairs,
            "seeds": [args.seed0 + i for i in range(args.pairs)],
            "run_seconds": seconds,
            "order": "pair i runs the base first when i is even, the change first when odd",
            "workloads": {},
        }
        broken = []
        for workload in workloads:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    result = run_once(sides[side], workload, args.seed0 + i, seconds)
                    runs[side].append(result)
                    print(f"{workload} pair {i} {side}: "
                          + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                          file=sys.stderr, flush=True)
                    if result["exit_code"] != 0 or not result["correct"] or result["failed"]:
                        broken.append(f"{workload} {side} pair {i}: exit code "
                                      f"{result['exit_code']}, correct {result['correct']}, "
                                      f"{result['failed']} failed operations")
            metrics = {}
            for name, direction in better.items():
                values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
                sign = 1.0 if direction == "lower" else -1.0
                wins = sum(sign * (c - b) < 0 for b, c in zip(values["base"], values["change"]))
                base, change = summary(values["base"]), summary(values["change"])
                # the change's median gain (> 0 when better) and the parent's
                # interquartile range, both as shares of the parent's median
                gain = sign * (base["median"] - change["median"]) / base["median"]
                iqr = (base["q3"] - base["q1"]) / base["median"]
                metrics[name] = {
                    "unit": runs["base"][0]["metrics"][name]["unit"],
                    "better": direction,
                    "base": base,
                    "change": change,
                    "change_vs_base_pct": 100.0 * (change["median"] / base["median"] - 1.0),
                    "base_iqr_pct": 100.0 * iqr,
                    "change_wins": int(wins),
                    "noise_band_pct": 100.0 * max(noise_band(values["base"]),
                                                  noise_band(values["change"])),
                    "claim_rule_met": bool(wins >= math.ceil(0.9 * args.pairs) and gain > iqr),
                    "worse_than_bound": bool(-gain > bounds[name]),
                }
            record["workloads"][workload] = {
                "all_correct": all(r["correct"] for s in runs for r in runs[s]),
                "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
                "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "metrics": metrics,
            }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in broken:
        print(f"broken run: {line}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
