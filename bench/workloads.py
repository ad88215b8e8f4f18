"""The benchmark's workloads: set-up, one timed round, and output checks.

Every workload is a collect -> train -> evaluate pipeline of a different
shape; which phases fall in set-up and which in the timed rounds is what
sets the workloads apart (see bench/README.md). The program's outputs are
checked against properties and against the GP oracle in oracle.py, never
against stored copies of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import yaml

import oracle
import tracer as tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# the README's 35-degree slip plane
SLIP_WORLD = {
    "alpha": 0.6108652,
    "d_b": 0.1,
    "n": 1.0,
    "base_slip": 0.1,
    "mu": 0.6,
    "beta0": 0.05,
    "noise_sigma": 0.0005,
}
RECIPE_AMPLITUDES = (1.4, 1.5, 1.6)
RECIPE_WORLD_SEEDS = (100, 101, 102)
# --seed picks three consecutive evaluation seeds from this verified range
EVAL_SEED_BASE, EVAL_SEED_BLOCKS = 50, 30
# fit_clean_n500 times the median of this many batch queries per fit
EVALUATE_REPEATS = 25


def eval_seeds(seed: int) -> list[int]:
    base = EVAL_SEED_BASE + 3 * (seed % EVAL_SEED_BLOCKS)
    return [base, base + 1, base + 2]


@dataclass(frozen=True)
class Size:
    period_steps: int = 700  # recipe figure-8 period, one lap
    max_train: int = 1000  # recipe fit cap
    clean_period_steps: int = 2001  # clean figure-8 period (C5)
    clean_max_train: int = 500
    clean_checked: int = 200  # held-out rows checked per fit


FULL = Size()


def recipe_config(size: Size, amplitude: float, world_seed: int, seeds: list[int]) -> dict:
    """One collection variant of the README's full experiment."""
    return {
        "plant": "slip",
        "world": dict(SLIP_WORLD, seed=world_seed),
        "controller": {"order": 2, "slot": "nominal"},
        "gains": {"kp": [0.1, 0.1], "kd": [0.3, 0.3]},
        "trajectory": {"kind": "figure8", "amplitude": amplitude,
                       "period_steps": size.period_steps, "laps": 1},
        "gp": {"restarts": 1, "seed": 0, "max_train": size.max_train},
        "evaluation": {"seeds": seeds},
    }


def clean_config(size: Size) -> dict:
    """The C5 problem: noise-free figure-8 data from the nominal plant."""
    return {
        "plant": "nominal",
        "controller": {"order": 2, "slot": "nominal"},
        "gains": {"kp": [0.1, 0.1], "kd": [0.3, 0.3]},
        "trajectory": {"kind": "figure8", "amplitude": 2.0,
                       "period_steps": size.clean_period_steps, "laps": 1},
        "gp": {"restarts": 1, "seed": 0, "max_train": size.clean_max_train,
               "train_fraction": 0.8},
    }


def write_yaml(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh, sort_keys=True)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.asarray(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def rollout(sim, cfg, seed: int, inverse=None):
    world = cfg.world if cfg.plant == "slip" else None
    return sim.rollout(cfg.trajectory(), cfg.gains, cfg.order, cfg.params,
                       plant=cfg.plant, world=world, seed=seed, inverse_model=inverse)


def mean_error(log) -> float:
    """Mean Cartesian tracking error, recomputed from the log's columns."""
    return float(np.mean(np.hypot(log.ref_x - log.x_b, log.ref_y - log.y_b)))


def check_slot_errors(errors: dict) -> list[str]:
    """errors: eval seed -> (closed-form mean error, learned mean error)."""
    problems = []
    for s, (nominal, learned) in errors.items():
        if not 0.01 <= nominal <= 1.0:
            problems.append(f"seed {s}: closed-form error {nominal!r} outside [0.01, 1.0] m")
        if not learned <= nominal:
            problems.append(f"seed {s}: learned error {learned!r} above closed form {nominal!r}")
    return problems


def check_commands(model_payload: dict, queries: np.ndarray, commands: np.ndarray,
                   tol: float = 1e-8) -> list[str]:
    """Learned-slot commands against the oracle posterior mean."""
    expect = oracle.OracleModel(model_payload).mean(queries)
    gap = np.linalg.norm(commands - expect, axis=1)
    bad = np.flatnonzero(gap > tol * np.linalg.norm(expect, axis=1))
    if bad.size:
        i = int(bad[0])
        return [f"{bad.size} of {len(queries)} learned commands differ from the oracle mean, "
                f"e.g. {commands[i].tolist()} vs {expect[i].tolist()}"]
    return []


class Workload:
    """Base: the run loop calls setup() several times, then round() until
    the run's seconds are used, then finish(). Phase times accumulate in
    self.times; check failures in self.problems."""

    name = ""
    setup_repeats = 3

    def __init__(self, workdir: str, seed: int, size: Size = FULL, traced: bool = False):
        self.workdir = workdir
        self.seed = seed
        self.size = size
        self.traced = traced
        self.times: dict[str, list[float]] = {"collect_s": [], "train_s": [], "evaluate_s": []}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.fit_reports: list[dict] = []  # model.report of every fit made
        self.span_dir: str | None = None  # where traced child processes write spans

    def fresh_dir(self, path: str) -> str:
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def prepare(self) -> None:
        """Untimed: an empty work directory."""
        self.fresh_dir(self.workdir)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> float:
        """One round of the workload's operations; returns its timed seconds."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that are too heavy to repeat every round."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def nll_probe(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(theta, standardized inputs, targets) of output 0 of a fitted model."""
        payload = self.model_payload()
        model = oracle.OracleModel(payload)
        return model.thetas[0], model.xs, model.zs[:, 0]

    def model_payload(self) -> dict:
        raise NotImplementedError


class Recipe(Workload):
    """The README's full experiment through the CLI, one process per stage."""

    name = "recipe_fig8_slip"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, self.env.get("PYTHONPATH")) if p
        )
        self.rounds = 0
        self.startups: list[float] = []
        self.configs: list[str] = []

    def setup(self) -> None:
        """Write the three collection configs and gains-check them via the CLI."""
        self.configs = []
        for i, (amp, ws) in enumerate(zip(RECIPE_AMPLITUDES, RECIPE_WORLD_SEEDS)):
            path = os.path.join(self.workdir, f"fig8_{i}.yaml")
            write_yaml(path, recipe_config(self.size, amp, ws, eval_seeds(self.seed)))
            self.configs.append(path)
        self.cli(["gains-check", "--config", self.configs[1]], self.workdir)

    def cli(self, args: list[str], cwd: str) -> float:
        self.attempted += 1
        if self.traced:
            spans = os.path.join(self.span_dir, f"spans-cli{self.attempted:03d}.jsonl")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_shim.py"), spans] + args
        else:
            cmd = [sys.executable, "-m", "tracksim.cli"] + args
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True, text=True, timeout=170)
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            self.failed += 1
            self.problems.append(f"tracksim {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        elif self.traced:
            meta, _ = tracing.read_spans(spans)
            self.startups.append(meta["import_done"] - start)
        return elapsed

    def round(self) -> float:
        out = self.fresh_dir(os.path.join(self.workdir, f"round{self.rounds}"))
        collect = sum(
            self.cli(["collect", "--config", cfg, "--out", f"d{i}"], out)
            for i, cfg in enumerate(self.configs)
        )
        datasets = [f"d{i}/dataset.csv" for i in range(len(self.configs))]
        train = self.cli(["train", *datasets, "--config", self.configs[1], "--out", "model"], out)
        evaluate = self.cli(["evaluate", "--config", self.configs[1], "--out", "eval",
                             "--model", "model/model.json"], out)
        self.times["collect_s"].append(collect)
        self.times["train_s"].append(train)
        self.times["evaluate_s"].append(evaluate)
        self.problems += check_recipe(out, self.size, eval_seeds(self.seed))
        self.last_round = out
        self.rounds += 1
        if os.path.exists(os.path.join(out, "model", "model.json")):
            self.fit_reports.append(self.model_payload().get("report", {}))
        return collect + train + evaluate

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def model_payload(self) -> dict:
        with open(os.path.join(self.last_round, "model", "model.json")) as fh:
            return json.load(fh)


def check_recipe(out: str, size: Size, seeds: list[int]) -> list[str]:
    """Property checks of one recipe round's files."""
    problems = []
    samples = size.period_steps - 1  # a P-step lap logs P+1 rows, L-2 samples
    n_train = int(round(0.8 * samples))
    for i in range(len(RECIPE_AMPLITUDES)):
        d = os.path.join(out, f"d{i}")
        try:
            with open(os.path.join(d, "collect.json")) as fh:
                rep = json.load(fh)
            rows = {name: read_csv(os.path.join(d, f"{name}.csv"))[1].shape[0]
                    for name in ("dataset", "train", "test")}
        except (OSError, ValueError) as exc:
            problems.append(f"collect d{i}: unreadable output: {exc}")
            continue
        want = (samples, n_train, samples - n_train)
        got = (rep.get("samples"), rep.get("train_samples"), rep.get("test_samples"))
        if got != want or (rows["dataset"], rows["train"], rows["test"]) != want:
            problems.append(f"collect d{i}: samples {got}, rows {rows}, want {want}")
    try:
        with open(os.path.join(out, "model", "train_report.json")) as fh:
            train = json.load(fh)
        with open(os.path.join(out, "model", "model.json")) as fh:
            model = json.load(fh)
        with open(os.path.join(out, "eval", "report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"train/evaluate: unreadable output: {exc}"]
    pooled = 3 * samples
    if train.get("samples") != pooled or train.get("train_used") != min(pooled, size.max_train):
        problems.append(f"train: samples {train.get('samples')} used {train.get('train_used')}, "
                        f"want {pooled} and {min(pooled, size.max_train)}")
    if train.get("model_sha256") != sha256_file(os.path.join(out, "model", "model.json")):
        problems.append("train: report's model_sha256 does not match model.json")
    reported = [-o["final_log_likelihood"] for o in train.get("outputs", [])]
    in_model = [o["final_nll"] for o in model.get("report", {}).get("outputs", [])]
    if reported != in_model:
        problems.append(f"train: report log-likelihoods {reported} vs model {in_model}")
    problems += [f"train: {p}" for p in oracle.check_fit(model)]
    errors = {}
    for row in report.get("per_seed", []):
        s = row["seed"]
        try:
            header, csv_rows = read_csv(os.path.join(out, "eval", f"errors_seed{s}.csv"))
        except (OSError, ValueError) as exc:
            problems.append(f"evaluate seed {s}: unreadable error CSV: {exc}")
            continue
        for slot, col in (("nominal", "err_nominal"), ("gp", "err_gp")):
            recomputed = float(np.mean(csv_rows[:, header.index(col)]))
            if not rel_close(recomputed, row[slot]["mean_error"], 1e-12):
                problems.append(f"evaluate seed {s}: {slot} mean error {row[slot]['mean_error']!r} "
                                f"but its CSV column averages {recomputed!r}")
        errors[s] = (row["nominal"]["mean_error"], row["gp"]["mean_error"])
    if sorted(errors) != seeds:
        problems.append(f"evaluate: seeds {sorted(errors)}, want {seeds}")
    return problems + [f"evaluate: {p}" for p in check_slot_errors(errors)]


class LearnedLoop(Workload):
    """Closed-loop rollouts of both slots in-process; collect and fit are set-up."""

    name = "learned_loop"

    def setup(self) -> None:
        from tracksim import config, gp, sim

        start = time.monotonic()
        cfgs = []
        for i, (amp, ws) in enumerate(zip(RECIPE_AMPLITUDES, RECIPE_WORLD_SEEDS)):
            path = os.path.join(self.workdir, f"fig8_{i}.yaml")
            write_yaml(path, recipe_config(self.size, amp, ws, eval_seeds(self.seed)))
            cfgs.append(config.load_config(path))
        parts = [sim.extract_dataset(rollout(sim, c, c.seed)) for c in cfgs]
        inputs = np.vstack([p.inputs for p in parts])
        targets = np.vstack([p.targets for p in parts])
        collected = time.monotonic()
        self.model = gp.fit(inputs, targets, cfgs[1].fit)
        done = time.monotonic()
        self.fit_reports.append(self.model.report)
        self.times["collect_s"].append(collected - start)
        self.times["train_s"].append(done - collected)
        self.cfg = cfgs[1]
        self.inverse = sim.learned_inverse(self.model)
        self.errors: dict[int, tuple[float, float]] = {}
        self.queries: list = []
        self.commands: list = []

    def round(self) -> float:
        from tracksim import sim

        record = not self.queries
        queries, commands, inverse = self.queries, self.commands, self.inverse

        def recording_inverse(u, delta, phi):
            cmd = inverse(u, delta, phi)
            if record:
                queries.append((u[0], u[1], delta.dx, delta.dy, delta.dphi, phi))
                commands.append((cmd.left, cmd.right))
            return cmd

        elapsed = 0.0
        for s in eval_seeds(self.seed):
            self.attempted += 2
            start = time.monotonic()
            log_cf = rollout(sim, self.cfg, s)
            log_gp = rollout(sim, self.cfg, s, recording_inverse)
            elapsed += time.monotonic() - start
            errors = (mean_error(log_cf), mean_error(log_gp))
            if self.errors.setdefault(s, errors) != errors:
                self.problems.append(f"seed {s}: rollout errors changed between rounds")
        self.times["evaluate_s"].append(elapsed)
        return elapsed

    def finish(self) -> None:
        self.problems += check_slot_errors(self.errors)
        payload = self.model_payload()
        self.problems += oracle.check_fit(payload)
        pick = np.random.default_rng(self.seed).choice(len(self.queries), size=60, replace=False)
        self.problems += check_commands(payload, np.asarray(self.queries)[pick],
                                        np.asarray(self.commands)[pick])

    def model_payload(self) -> dict:
        from tracksim import gp

        return gp.model_to_dict(self.model)


class FitClean(Workload):
    """Repeated gp.fit of the clean-data (C5) problem capped at N = 500."""

    name = "fit_clean_n500"
    setup_repeats = 25

    def setup(self) -> None:
        from tracksim import config, sim

        start = time.monotonic()
        path = os.path.join(self.workdir, "clean.yaml")
        write_yaml(path, clean_config(self.size))
        cfg = config.load_config(path)
        data = sim.extract_dataset(rollout(sim, cfg, cfg.seed))
        self.train, test = sim.split_dataset(data, cfg.train_fraction, seed=cfg.fit.seed)
        self.times["collect_s"].append(time.monotonic() - start)
        self.fit_config = cfg.fit
        # evaluation predicts every row; --seed picks the held-out rows checked
        self.eval_inputs = np.vstack([self.train.inputs, test.inputs])
        self.eval_targets = np.vstack([self.train.targets, test.targets])
        self.checked = len(self.train) + np.sort(np.random.default_rng(self.seed).choice(
            len(test), size=min(self.size.clean_checked, len(test)), replace=False))
        self.models: list[dict] = []

    def round(self) -> float:
        from tracksim import gp

        self.attempted += 1
        start = time.monotonic()
        model = gp.fit(self.train.inputs, self.train.targets, self.fit_config)
        train = time.monotonic() - start
        # one batch query takes a tenth of a second, so time the median of several
        evaluate = []
        for _ in range(EVALUATE_REPEATS):
            start = time.monotonic()
            norms, mean_norm = gp.held_out_error(model, self.eval_inputs, self.eval_targets)
            evaluate.append(time.monotonic() - start)
        self.times["train_s"].append(train)
        self.times["evaluate_s"].append(median(evaluate))
        self.problems += check_held_out(norms, mean_norm, self.eval_targets, self.checked)
        self.models.append(gp.model_to_dict(model))
        self.fit_reports.append(model.report)
        return train + median(evaluate)

    def finish(self) -> None:
        for payload in self.models:
            self.problems += oracle.check_fit(payload)

    def model_payload(self) -> dict:
        return self.models[-1]


def check_held_out(norms: np.ndarray, mean_norm: float, targets: np.ndarray,
                   rows: np.ndarray) -> list[str]:
    """Command error on the held-out rows below 1e-3 of their mean command norm (C5)."""
    problems = []
    if not rel_close(float(np.mean(norms)), mean_norm, 1e-12):
        problems.append(f"mean error {mean_norm!r} is not the mean of its per-point errors")
    held = float(np.mean(norms[rows]))
    scale = float(np.mean(np.linalg.norm(targets[rows], axis=1)))
    if not held < 1e-3 * scale:
        problems.append(f"held-out command error {held!r} not below 1e-3 of {scale!r}")
    return problems


WORKLOADS = {w.name: w for w in (Recipe, LearnedLoop, FitClean)}


def median(values: list[float]) -> float:
    return float(statistics.median(values))
