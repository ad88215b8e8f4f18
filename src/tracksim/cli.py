"""Command-line harness: simulate, collect, train, evaluate, gains-check.

Exit codes form a stable scripting contract:
    0  success
    2  configuration or run-request rejected (schema, types, domains,
       too-small datasets)
    3  numerical failure (kernel conditioning, non-finite simulation state)
    4  artifact problems (missing, corrupt, or incompatible dataset/model
       files)
    1  anything else

Reports embed the fully resolved config plus content hashes of their file
inputs and carry no timestamps, so a rerun with the same config and seed
produces byte-identical output. train, evaluate and a gp-slot simulate
run on one OpenBLAS thread, so with the wheels' OpenBLAS their files do
not depend on the thread count either.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
from typing import Optional

import numpy as np

from .config import ConfigError, ExperimentConfig, _checked, load_config
from .control import InverseModelFn, assert_stable, validate_gains
from .gp import (
    ConditioningError,
    GpModel,
    _single_blas_thread,
    atomic_write_text,
    fit,
    held_out_error,
    load_model,
    save_model,
)
from .sim import (
    NumericsError,
    RolloutLog,
    cartesian_error,
    extract_dataset,
    learned_inverse,
    load_dataset,
    rollout,
    save_dataset,
    save_log,
    split_dataset,
    write_csv,
)


class ArtifactError(Exception):
    """A dataset or model file is missing, corrupt, or incompatible."""


def _write_report(path: str, cfg: ExperimentConfig, payload: dict) -> None:
    """Write payload as JSON with the resolved config and its hash added."""
    payload = {**payload, "config": cfg.resolved, "config_hash": cfg.content_hash()}
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_inverse(path: str) -> tuple[GpModel, InverseModelFn]:
    """Load a trained model and adapt it to the learned control slot."""
    if not os.path.exists(path):
        raise ArtifactError(f"model file not found: {path}")
    try:
        model = load_model(path)
        return model, learned_inverse(model)
    except (ValueError, KeyError, TypeError) as exc:  # TypeError: wrong JSON types
        raise ArtifactError(f"model file {path} is not usable: {exc}") from exc


def _rollout_for(cfg: ExperimentConfig, seed: int, inverse_model=None) -> RolloutLog:
    # unstable gains are a rejected run request, not a failed run
    _checked("gains", assert_stable, cfg.gains, cfg.order)
    world = cfg.world if cfg.plant == "slip" else None
    return rollout(
        cfg.trajectory(),
        cfg.gains,
        cfg.order,
        cfg.params,
        plant=cfg.plant,
        world=world,
        seed=seed,
        inverse_model=inverse_model,
    )


def cmd_simulate(cfg: ExperimentConfig, out: str, seed: Optional[int],
                 model_path: Optional[str]) -> int:
    """One closed-loop run; writes log.csv and metrics.json."""
    run_seed = cfg.seed if seed is None else seed
    inverse = None
    model_hash = None
    if cfg.slot == "gp":
        if model_path is None:
            raise ConfigError("controller.slot 'gp' requires --model")
        _, inverse = _load_inverse(model_path)
        model_hash = _sha256_file(model_path)
    log = _rollout_for(cfg, run_seed, inverse)
    metrics = cartesian_error(log)
    save_log(log, os.path.join(out, "log.csv"))
    payload = {
        "command": "simulate",
        "seed": run_seed,
        "steps": int(log.dx.shape[0]),
        "mean_error": metrics.mean_error,
        "max_error": metrics.max_error,
    }
    if model_hash is not None:
        payload["model_sha256"] = model_hash
    _write_report(os.path.join(out, "metrics.json"), cfg, payload)
    print(
        f"simulate: {payload['steps']} steps, mean error "
        f"{metrics.mean_error:.6g} m, max {metrics.max_error:.6g} m"
    )
    return 0


def cmd_collect(cfg: ExperimentConfig, out: str, seed: Optional[int]) -> int:
    """Rollout + dataset extraction + seeded split.

    Always drives the closed-form slot: the dataset pairs realized motion
    with the commands the nominal controller issued, which is what the
    learned inverse trains on.
    """
    run_seed = cfg.seed if seed is None else seed
    log = _rollout_for(cfg, run_seed)
    data = extract_dataset(log)
    train, test = split_dataset(data, cfg.train_fraction, seed=cfg.fit.seed)
    save_log(log, os.path.join(out, "log.csv"))
    save_dataset(data, os.path.join(out, "dataset.csv"))
    save_dataset(train, os.path.join(out, "train.csv"))
    save_dataset(test, os.path.join(out, "test.csv"))
    payload = {
        "command": "collect",
        "seed": run_seed,
        "samples": int(data.inputs.shape[0]),
        "train_samples": int(train.inputs.shape[0]),
        "test_samples": int(test.inputs.shape[0]),
        "split_seed": cfg.fit.seed,
    }
    _write_report(os.path.join(out, "collect.json"), cfg, payload)
    print(
        f"collect: {payload['samples']} samples "
        f"({payload['train_samples']} train / {payload['test_samples']} test)"
    )
    return 0


def cmd_train(dataset_paths: list[str], cfg: ExperimentConfig, out: str,
              seed: Optional[int], model_path: Optional[str]) -> int:
    """Fit the inverse-model GP on one or more dataset files.

    Several datasets (typically variants of one trajectory class) are
    pooled by concatenation before fitting.
    """
    parts = []
    for path in dataset_paths:
        if not os.path.exists(path):
            raise ArtifactError(f"dataset file not found: {path}")
        try:
            parts.append(load_dataset(path))
        except ValueError as exc:
            raise ArtifactError(f"dataset {path} is not usable: {exc}") from exc
    inputs = np.vstack([p.inputs for p in parts])
    targets = np.vstack([p.targets for p in parts])
    if inputs.shape[0] < 2:
        raise ConfigError(
            f"training needs at least 2 samples, got {inputs.shape[0]}"
        )
    fit_config = cfg.fit if seed is None else dataclasses.replace(cfg.fit, seed=seed)
    model = fit(inputs, targets, fit_config)
    target = model_path or os.path.join(out, "model.json")
    save_model(model, target)
    outputs = [
        {
            "output": j,
            "final_log_likelihood": -info["final_nll"],
            "iterations": info["starts"][info["chosen_start"]]["iterations"],
            "chosen_start": info["chosen_start"],
            "jitter": info["jitter"],
            "starts": [
                {key: start[key] for key in ("iterations", "evaluations", "rejected_probes", "stop")}
                for start in info["starts"]
            ],
        }
        for j, info in enumerate(model.report["outputs"])
    ]
    payload = {
        "command": "train",
        "datasets": [
            {
                "file": os.path.basename(path),
                "sha256": _sha256_file(path),
                "samples": int(part.inputs.shape[0]),
            }
            for path, part in zip(dataset_paths, parts)
        ],
        "samples": int(inputs.shape[0]),
        "train_used": model.report["n_train"],
        "restarts": model.report["restarts"],
        "max_iter": model.report["max_iter"],
        "fit_seed": fit_config.seed,
        "outputs": outputs,
        "model": os.path.basename(target),
        "model_sha256": _sha256_file(target),
    }
    _write_report(os.path.join(out, "train_report.json"), cfg, payload)
    lls = ", ".join(f"{o['final_log_likelihood']:.3f}" for o in outputs)
    print(f"train: {payload['train_used']} samples, log-likelihood per output [{lls}]")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, out: str, seed: Optional[int],
                 model_path: str) -> int:
    """Compare the closed-form and learned slots on identical runs.

    For every evaluation seed both slots track the same reference through
    the same plant noise. The model's prediction quality is measured on the
    dataset extracted from the nominal-slot run, data the model never saw:
    along that rollout the closed form produced the logged commands, so the
    prediction error doubles as a slot-equivalence measure.
    """
    if cfg.order != 2:
        raise ConfigError("evaluate runs the learned slot, which requires controller.order 2")
    model, inverse = _load_inverse(model_path)
    seeds = [seed] if seed is not None else list(cfg.eval_seeds)
    per_seed = []
    for s in seeds:
        log_nom = _rollout_for(cfg, s)
        log_gp = _rollout_for(cfg, s, inverse)
        m_nom = cartesian_error(log_nom)
        m_gp = cartesian_error(log_gp)
        eval_data = extract_dataset(log_nom)
        norms, held_mean = held_out_error(model, eval_data.inputs, eval_data.targets)
        rmse = float(np.sqrt(np.mean(norms**2)))
        per_seed.append(
            {
                "seed": s,
                "nominal": {"mean_error": m_nom.mean_error, "max_error": m_nom.max_error},
                "gp": {"mean_error": m_gp.mean_error, "max_error": m_gp.max_error},
                "gp_prediction_mean_error": held_mean,
                "gp_prediction_rmse": rmse,
            }
        )
        write_csv(
            os.path.join(out, f"errors_seed{s}.csv"),
            ("t", "ref_x", "ref_y", "err_nominal", "err_gp"),
            zip(range(len(log_nom)), log_nom.ref_x, log_nom.ref_y, m_nom.errors, m_gp.errors),
        )
    agg = {
        "nominal_mean_error": float(np.mean([r["nominal"]["mean_error"] for r in per_seed])),
        "nominal_max_error": float(np.max([r["nominal"]["max_error"] for r in per_seed])),
        "gp_mean_error": float(np.mean([r["gp"]["mean_error"] for r in per_seed])),
        "gp_max_error": float(np.max([r["gp"]["max_error"] for r in per_seed])),
        "gp_prediction_rmse": float(np.mean([r["gp_prediction_rmse"] for r in per_seed])),
    }
    payload = {
        "command": "evaluate",
        "trajectory_kind": cfg.resolved["trajectory"]["kind"],
        "plant": cfg.plant,
        "seeds": seeds,
        "per_seed": per_seed,
        "aggregate": agg,
        "model": os.path.basename(model_path),
        "model_sha256": _sha256_file(model_path),
    }
    _write_report(os.path.join(out, "report.json"), cfg, payload)
    for r in per_seed:
        print(
            f"evaluate seed {r['seed']}: nominal {r['nominal']['mean_error']:.6g} m, "
            f"gp {r['gp']['mean_error']:.6g} m"
        )
    return 0


def cmd_gains_check(cfg: ExperimentConfig) -> int:
    """Print closed-loop pole magnitudes; exit 0 iff the trackers accept them."""
    mags = validate_gains(cfg.gains, cfg.order)
    try:
        assert_stable(cfg.gains, cfg.order)
        stable = True
    except ValueError:
        stable = False
    print(
        f"order {cfg.order} pole magnitudes: "
        + ", ".join(f"{m:.6f}" for m in mags)
        + f" -> {'stable' if stable else 'UNSTABLE'}"
    )
    return 0 if stable else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracksim",
        description="Trajectory-tracking experiments for tracked vehicles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_help=None):
        p.add_argument("--config", required=True, help="experiment config (YAML)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=".", help="output directory")
        if model_help is not None:
            p.add_argument("--model", default=None, help=model_help)

    p_sim = sub.add_parser("simulate", help="run one closed-loop rollout")
    common(p_sim, "trained model (required when controller.slot is 'gp')")

    p_col = sub.add_parser("collect", help="rollout + dataset extraction + split")
    common(p_col)

    p_tr = sub.add_parser("train", help="fit the inverse-model GP on datasets")
    p_tr.add_argument("dataset", nargs="+", help="training dataset CSVs (pooled)")
    common(p_tr, "output path for the model (default <out>/model.json)")

    p_ev = sub.add_parser("evaluate", help="compare nominal and learned slots")
    common(p_ev, "trained model to evaluate")

    p_gc = sub.add_parser("gains-check", help="closed-loop pole magnitudes")
    p_gc.add_argument("--config", required=True, help="experiment config (YAML)")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        cfg = load_config(args.config)
        # every GP command runs on one BLAS thread, so its files do not
        # depend on the thread count; the others are left alone, since
        # finding the thread controls loads both OpenBLAS copies (~5 ms)
        gp_command = args.command in ("train", "evaluate") or (
            args.command == "simulate" and cfg.slot == "gp")
        with _single_blas_thread() if gp_command else contextlib.nullcontext():
            if args.command == "simulate":
                return cmd_simulate(cfg, args.out, args.seed, args.model)
            if args.command == "collect":
                return cmd_collect(cfg, args.out, args.seed)
            if args.command == "train":
                return cmd_train(args.dataset, cfg, args.out, args.seed, args.model)
            if args.command == "evaluate":
                if args.model is None:
                    raise ConfigError("evaluate requires --model")
                return cmd_evaluate(cfg, args.out, args.seed, args.model)
            return cmd_gains_check(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConditioningError, NumericsError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
