"""tracksim benchmark: one workload, timed for a fixed number of seconds.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout without installing anything: it
puts ``src`` on the path itself and starts CLI stages with ``src`` on
PYTHONPATH. It sets no BLAS thread variable, so threading stays the
program's own policy. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Traced runs write their spans and a per-name summary to bench/out/trace/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import workloads
from tracer import Tracer, read_spans, summarize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(name: str, seed: int, seconds: float, trace: bool, size=None, out=OUT):
    """Set up, run whole rounds for `seconds`, check; returns (result, workload)."""
    size = size or workloads.FULL
    wl = workloads.WORKLOADS[name](os.path.join(out, "work", name), seed, size, traced=trace)
    if trace:
        wl.span_dir = os.path.join(out, "trace", name)
        shutil.rmtree(wl.span_dir, ignore_errors=True)
        os.makedirs(wl.span_dir)
        tracer = Tracer()
        tracer.install()
    wl.prepare()
    setups = []
    for _ in range(wl.setup_repeats):
        start = time.monotonic()
        wl.setup()
        setups.append(time.monotonic() - start)
    timed = []
    start = time.monotonic()
    while not timed or time.monotonic() - start < seconds:
        timed.append(wl.round())
    rss = wl.peak_rss_mb()
    attempted, failed, fits = wl.attempted, wl.failed, len(wl.fit_reports)
    if trace:
        # one more round untraced, the baseline of the tracing overhead
        tracer.uninstall()
        wl.traced = False
        untraced = wl.round()
    wl.finish()
    for msg in wl.problems:
        print(f"CHECK FAILED [{name}]: {msg}", file=sys.stderr)

    med = workloads.median
    if not trace:
        phases = {k: med(v) for k, v in wl.times.items()}
        metrics = {
            "setup_s": (med(setups), "s"),
            "recipe_s": (sum(phases.values()), "s"),
            "train_s": (phases["train_s"], "s"),
            "evaluate_s": (phases["evaluate_s"], "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        spans = list(tracer.spans)
        for path in sorted(glob.glob(os.path.join(wl.span_dir, "spans-cli*.jsonl"))):
            spans += read_spans(path)[1]
        tracer.write(os.path.join(wl.span_dir, "spans-main.jsonl"))
        metrics = layer_metrics(spans, wl, wl.fit_reports[:fits])
        metrics["trace.overhead_pct"] = (100.0 * (med(timed) / untraced - 1.0), "%")
        with open(os.path.join(wl.span_dir, "summary.json"), "w") as fh:
            json.dump({"workload": name, "seed": seed, "environment": environment(),
                       "untraced_round_s": untraced,
                       "traced_rounds_s": timed, "setups_s": setups,
                       "metrics": {k: v for k, (v, _) in metrics.items()},
                       "spans": summarize(spans)}, fh, indent=1)
    result = {
        "correct": not wl.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, wl


def environment() -> dict:
    """nproc, versions, and the thread count of each OpenBLAS the GP calls."""
    import scipy

    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}
    site = os.path.dirname(os.path.dirname(np.__file__))
    # the numpy and scipy wheels each bundle their own OpenBLAS
    for owner, suffix in (("numpy", "64_"), ("scipy", "")):
        for path in glob.glob(os.path.join(site, f"{owner}.libs", "libscipy_openblas*.so")):
            lib = ctypes.CDLL(path)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                info[f"{owner}_blas"] = {"threads": threads(), "config": config().decode()}
    return info


def layer_metrics(spans, wl, fit_reports) -> dict:
    """Per-layer figures from the spans of every traced process and the
    reports of the traced fits."""
    durations = defaultdict(list)
    names = {}
    rejected = 0
    for pid, span_id, parent, name, start, end, error in spans:
        durations[name].append(end - start)
        names[(pid, span_id)] = name
        rejected += name == "gp.nll_and_grad" and error == "ConditioningError"
    kernel_in_nll = [
        end - start
        for pid, _, parent, name, start, end, _ in spans
        if name == "gp.kernel_matrix" and names.get((pid, parent)) == "gp.nll_and_grad"
    ]

    def pooled(*keys):
        return [d for k in keys for d in durations.get(k, [])]

    def mean(values, scale=1.0):
        return scale * float(np.mean(values)) if values else 0.0

    def pct(values, q, scale=1.0):
        return scale * float(np.percentile(values, q)) if values else 0.0

    fits = pooled("cli.fit", "gp.fit")
    nll = pooled("gp.nll_and_grad")
    iterations = [
        sum(start["iterations"] for out in report["outputs"] for start in out["starts"])
        for report in fit_reports
    ]
    slip = pooled("sim.slip_ratios", "sim.slip_forward")
    steps = len(durations.get("sim.slip_forward", []))
    queries = pooled("sim.predict")
    theta, xs, zs = wl.nll_probe()
    from tracksim import gp

    # peak bytes numpy allocates inside one objective evaluation
    tracemalloc.start()
    gp.nll_and_grad(theta, xs, zs)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "cli.startup_s": (mean(getattr(wl, "startups", [])), "s"),
        "config.load_config_ms": (mean(pooled("cli.load_config", "config.load_config"), 1e3), "ms"),
        "sim.rollout_closed_form_ms": (mean(pooled("cli.rollout.closed_form", "sim.rollout.closed_form"), 1e3), "ms"),
        "sim.rollout_learned_ms": (mean(pooled("cli.rollout.learned", "sim.rollout.learned"), 1e3), "ms"),
        "kinematics.inverse_second_order_us": (mean(pooled("control.inverse_second_order"), 1e6), "us"),
        "terrain3d.slip_step_us": (1e6 * sum(slip) / steps if steps else 0.0, "us"),
        "gp.predict_single_us": (mean(queries, 1e6), "us"),
        "sim.learned_query_p50_ms": (pct(queries, 50, 1e3), "ms"),
        "sim.learned_query_p99_ms": (pct(queries, 99, 1e3), "ms"),
        "gp.predict_batch_ms": (mean(pooled("cli.held_out_error", "gp.held_out_error"), 1e3), "ms"),
        "gp.fit_s": (mean(fits), "s"),
        "gp.nll_calls": (len(nll) / len(fits) if fits else 0.0, "count"),
        "gp.fit_iterations": (mean(iterations), "count"),
        "gp.accepted_per_eval": (sum(iterations) / len(nll) if nll else 0.0, "ratio"),
        "gp.nll_rejected": (rejected, "count"),
        "gp.nll_ms": (mean(nll, 1e3), "ms"),
        "gp.kernel_matrix_ms": (mean(kernel_in_nll, 1e3), "ms"),
        "gp.nll_peak_alloc_mb": (peak / 2**20, "MB"),
        "sim.save_log_ms": (mean(pooled("cli.save_log"), 1e3), "ms"),
        "sim.save_dataset_ms": (mean(pooled("cli.save_dataset"), 1e3), "ms"),
        "sim.load_dataset_ms": (mean(pooled("cli.load_dataset"), 1e3), "ms"),
        "gp.save_model_ms": (mean(pooled("cli.save_model"), 1e3), "ms"),
        "gp.load_model_ms": (mean(pooled("cli.load_model"), 1e3), "ms"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tracksim", "__init__.py")):
        print(f"error: no tracksim sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
