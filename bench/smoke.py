"""Quick smoke run of every workload at a tiny size.

usage: python3 bench/smoke.py

Runs the oracle self-check, then one untraced and one traced round of each
workload at the TINY size and requires its checks to pass. Then it feeds
every output check one deliberately corrupted output and requires the
check to reject it. Exits 0 when all of that holds. Outputs go to
bench/out/smoke/.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

TINY = W.Size(period_steps=300, max_train=300, clean_period_steps=401,
              clean_max_train=150, clean_checked=40)
OUT = os.path.join(BENCH_DIR, "out", "smoke")


def edit_json(path: str, change) -> None:
    with open(path) as fh:
        payload = json.load(fh)
    change(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def edit_text(path: str, change) -> None:
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(change(text))


def raise_first_gp_error(text: str) -> str:
    lines = text.split("\n")
    fields = lines[1].split(",")
    fields[-1] = repr(float(fields[-1]) + 0.5)
    lines[1] = ",".join(fields)
    return "\n".join(lines)


def recipe_corruptions(seeds: list[int]):
    """(what, corrupt(dir)) pairs, one per check in check_recipe."""
    s = seeds[0]

    def report_seed(change):
        def corrupt(d):
            edit_json(os.path.join(d, "eval", "report.json"),
                      lambda p: change(p["per_seed"][0]))
        return corrupt

    def bump_gp(row):
        row["gp"]["mean_error"] = 2.0 * row["nominal"]["mean_error"]

    def bump_nominal(row):
        row["nominal"]["mean_error"] = 3.0

    return [
        ("collect sample count", lambda d: edit_json(
            os.path.join(d, "d0", "collect.json"), lambda p: p.update(samples=p["samples"] + 1))),
        ("dataset row dropped", lambda d: edit_text(
            os.path.join(d, "d1", "train.csv"), lambda t: t[: t.rstrip("\n").rfind("\n") + 1])),
        ("train sample count", lambda d: edit_json(
            os.path.join(d, "model", "train_report.json"), lambda p: p.update(train_used=p["train_used"] - 1))),
        ("model hash", lambda d: edit_json(
            os.path.join(d, "model", "train_report.json"), lambda p: p.update(model_sha256="0" * 64))),
        ("reported log-likelihood", lambda d: edit_json(
            os.path.join(d, "model", "train_report.json"),
            lambda p: p["outputs"][0].update(final_log_likelihood=p["outputs"][0]["final_log_likelihood"] + 1.0))),
        ("fitted hyperparameter", lambda d: edit_json(
            os.path.join(d, "model", "model.json"),
            lambda p: p["outputs"][1].update(log_noise_variance=p["outputs"][1]["log_noise_variance"] + 1e-3))),
        ("learned error above closed form", report_seed(bump_gp)),
        ("closed-form error out of range", report_seed(bump_nominal)),
        ("per-step error CSV", lambda d: edit_text(
            os.path.join(d, "eval", f"errors_seed{s}.csv"), raise_first_gp_error)),
        ("evaluation seed missing", lambda d: edit_json(
            os.path.join(d, "eval", "report.json"), lambda p: p["per_seed"].pop())),
    ]


def check_recipe_rejects(wl) -> list[str]:
    seeds = W.eval_seeds(wl.seed)
    failures = []
    if W.check_recipe(wl.last_round, wl.size, seeds):
        return ["recipe: clean copy already fails its checks"]
    for what, corrupt in recipe_corruptions(seeds):
        bad = os.path.join(OUT, "corrupt")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(wl.last_round, bad)
        corrupt(bad)
        if not W.check_recipe(bad, wl.size, seeds):
            failures.append(f"recipe: corrupted {what} passed the checks")
    return failures


def check_learned_rejects(wl) -> list[str]:
    failures = []
    payload = wl.model_payload()
    queries = np.asarray(wl.queries[:20])
    commands = np.asarray(wl.commands[:20])
    if W.check_commands(payload, queries, commands):
        return ["learned_loop: clean commands already fail the oracle check"]
    bad = commands.copy()
    bad[7, 0] *= 1.0 + 1e-6
    if not W.check_commands(payload, queries, bad):
        failures.append("learned_loop: a command off by 1e-6 passed the oracle check")
    s, (nominal, learned) = next(iter(wl.errors.items()))
    if not W.check_slot_errors({s: (nominal, 1.5 * nominal)}):
        failures.append("learned_loop: learned error above closed form passed")
    if not W.check_slot_errors({s: (0.005, 0.001)}):
        failures.append("learned_loop: closed-form error below 0.01 m passed")
    shifted = copy.deepcopy(payload)
    shifted["report"]["outputs"][0]["final_nll"] += 1e-3 * abs(shifted["report"]["outputs"][0]["final_nll"])
    if not oracle.check_fit(shifted):
        failures.append("learned_loop: a reported NLL off by 1e-3 passed the oracle check")
    return failures


def check_clean_rejects(wl) -> list[str]:
    from tracksim import gp

    failures = []
    payload = wl.models[-1]
    model = gp.model_from_dict(payload)
    rows = wl.checked
    norms, mean_norm = gp.held_out_error(model, wl.eval_inputs, wl.eval_targets)
    if W.check_held_out(norms, mean_norm, wl.eval_targets, rows):
        return ["fit_clean: clean fit already fails the held-out check"]
    worse = wl.eval_targets.copy()
    worse[rows, 0] += 0.01
    norms_bad, mean_bad = gp.held_out_error(model, wl.eval_inputs, worse)
    if not W.check_held_out(norms_bad, mean_bad, worse, rows):
        failures.append("fit_clean: held-out targets off by 0.01 m/s passed the held-out check")
    if not W.check_held_out(norms, 0.5 * mean_norm, wl.eval_targets, rows):
        failures.append("fit_clean: a mean error not matching its per-point errors passed")
    # hyperparameters moved back to the optimizer's start: NLL no longer matches
    start = copy.deepcopy(payload)
    xs = oracle.OracleModel(payload).xs
    zs = oracle.OracleModel(payload).zs[:, 0]
    theta = oracle.data_scaled_start(xs, zs)
    start["outputs"][0].update(log_lengthscales=theta[:6].tolist(),
                               log_signal_variance=float(theta[6]),
                               log_noise_variance=float(theta[7]))
    if not oracle.check_fit(start):
        failures.append("fit_clean: start hyperparameters passed the oracle check")
    return failures


REJECTS = {
    "recipe_fig8_slip": check_recipe_rejects,
    "learned_loop": check_learned_rejects,
    "fit_clean_n500": check_clean_rejects,
}


def main() -> int:
    failures = [f"oracle: {msg}" for msg in oracle.selfcheck()]
    shutil.rmtree(OUT, ignore_errors=True)
    for name in W.WORKLOADS:
        for trace in (False, True):
            result, wl = run.run(name, seed=3, seconds=0, trace=trace, size=TINY, out=OUT)
            missing = sorted(set(expected_metrics(trace)) - set(result["metrics"]))
            if not result["correct"] or result["failed"] or missing:
                failures.append(f"{name} trace={trace}: correct={result['correct']} "
                                f"failed={result['failed']} missing metrics {missing}")
        failures += REJECTS[name](wl)
        print(f"smoke {name}: done", flush=True)
    for msg in failures:
        print(f"SMOKE FAIL: {msg}", file=sys.stderr)
    print("smoke", "FAIL" if failures else "ok")
    return 1 if failures else 0


def expected_metrics(trace: bool) -> list[str]:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
