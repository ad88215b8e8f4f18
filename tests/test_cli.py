"""End-to-end tests for the command-line harness.

Everything runs in-process through main(argv), on deliberately small
trajectories so the whole file stays fast; only the BLAS thread-count
tests and the import and library-load tests start subprocesses, since
OpenBLAS reads OPENBLAS_NUM_THREADS when it loads and a module or library
stays loaded once any test loaded it. The determinism tests compare file bytes
across reruns: reports embed no timestamps, so identical config and seed
must mean identical artifacts.
"""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
import yaml
from conftest import blas_thread_counts, wheel_openblas_count

from tracksim import cli, gp
from tracksim.cli import main
from tracksim.gp import FitConfig, fit, held_out_error, load_model, save_model
from tracksim.sim import SLOT_INPUTS, SLOT_TARGETS, load_dataset, load_log

FAST_GP = {"restarts": 1, "max_iter": 80, "max_train": 200}


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def tiny_config(tmp_path, name="cfg.yaml", **overrides):
    doc = {
        "trajectory": {"kind": "figure8", "amplitude": 0.5, "period_steps": 120},
        "gp": dict(FAST_GP),
        "evaluation": {"seeds": [50]},
    }
    doc.update(overrides)
    return write_config(tmp_path, doc, name)


def small_model(where, value):
    """A two-sample model file for the learned slot, with the entry at
    the key path where set to value."""
    payload = {
        "format": gp.MODEL_FORMAT, "version": gp.MODEL_FORMAT_VERSION,
        "kernel_kind": gp.KERNEL_KIND, "n_train": 2,
        "input_dim": 6, "inputs": [[0.0] * 6, [1.0] * 6], "targets": [[0.0, 0.0], [1.0, 1.0]],
        "standardization": {"input_mean": [0.5] * 6, "input_std": [0.5] * 6,
                            "target_mean": [0.5, 0.5], "target_std": [0.5, 0.5]},
        "outputs": [{"log_lengthscales": [0.0] * 6, "log_signal_variance": 0.0,
                     "log_noise_variance": -2.0, "alpha": [-0.5, 0.5]} for _ in range(2)],
    }
    entry = payload
    for key in where[:-1]:
        entry = entry[key]
    entry[where[-1]] = value
    return payload


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGainsCheck:
    def test_stable_gains_exit_zero(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        assert main(["gains-check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "stable" in out
        assert "0.917891" in out

    def test_unstable_gains_exit_one(self, tmp_path):
        cfg = tiny_config(tmp_path, gains={"kp": [2.5, 2.5], "kd": [0.3, 0.3]})
        assert main(["gains-check", "--config", cfg]) == 1

    def test_malformed_gains_exit_two(self, tmp_path):
        cfg = tiny_config(tmp_path, gains={"kp": [0.1, 0.1], "kd": None})
        assert main(["gains-check", "--config", cfg]) == 2

    def test_overflowing_gains_exit_two(self, tmp_path, capsys):
        # the pole check squares kd - 1, which overflows
        cfg = tiny_config(tmp_path, gains={"kp": [0.1, 0.1], "kd": [1.0e200, 1.0e200]})
        assert main(["gains-check", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: gains: ")

    def test_first_order_poles(self, tmp_path, capsys):
        cfg = tiny_config(
            tmp_path, controller={"order": 1}, gains={"kp": [0.2, 0.4], "kd": None}
        )
        assert main(["gains-check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "0.800000" in out and "0.600000" in out

    def test_pole_within_the_trackers_margin_is_unstable(self, tmp_path, capsys):
        # |1 - 2e-10| lies inside the unit circle but not inside the
        # stability margin the trackers demand
        cfg = tiny_config(
            tmp_path, controller={"order": 1}, gains={"kp": [2e-10, 0.1], "kd": None}
        )
        assert main(["gains-check", "--config", cfg]) == 1
        assert "UNSTABLE" in capsys.readouterr().out
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("trajectory", [
        {"kind": "figure8", "amplitude": -1.0},
        {"kind": "figure8", "period_steps": 2},
        {"kind": "figure8", "laps": 0},
        {"kind": "circle", "radius": 0.0},
        {"kind": "waypoints", "cruise_speed": 0.0},
        {"kind": "waypoints", "points": [[0, 0], [0, 0]]},
    ], ids=["amplitude", "period_steps", "laps", "radius", "cruise_speed", "points"])
    def test_rejects_the_references_the_run_commands_reject(self, tmp_path, capsys,
                                                            trajectory):
        cfg = write_config(tmp_path, {"trajectory": trajectory})
        assert main(["collect", "--config", cfg, "--out", str(tmp_path / "c")]) == 2
        rejected = capsys.readouterr().err
        assert rejected.startswith("config error: trajectory: ")
        assert main(["gains-check", "--config", cfg]) == 2
        assert capsys.readouterr().err == rejected


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.yaml")]) == 2

    def test_invalid_config(self, tmp_path):
        cfg = write_config(tmp_path, {"plant": "warp"})
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["simulate", "collect"])
    def test_unstable_gains_rejected(self, tmp_path, command):
        cfg = tiny_config(tmp_path, gains={"kp": [2.5, 2.5], "kd": [0.3, 0.3]})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (
                {"trajectory": {"kind": "circle", "radius": float("nan"),
                                "period_steps": 120}},
                "trajectory.radius",
            ),
            ({"plant": "slip", "world": {"beta0": float("nan")}}, "world.beta0"),
            ({"vehicle": {"max_track_speed": float("inf")}}, "vehicle.max_track_speed"),
            ({"vehicle": {"tread": 10**400}}, "vehicle.tread"),
            # a waypoint profile whose duration overflows to infinity
            ({"trajectory": {"kind": "waypoints", "cruise_speed": 5e-324}}, "trajectory"),
            ({"trajectory": {"kind": "waypoints", "ramp_time": 1e308}}, "trajectory"),
            # a value of the wrong type, unhashable, used to escape as TypeError
            ({"trajectory": {"kind": ["figure8"]}}, "trajectory.kind"),
            # finite, but the reference deltas overflow to infinity
            ({"trajectory": {"kind": "figure8", "amplitude": 1.0e308, "period_steps": 40}},
             "amplitude"),
            # finite, but the error sums over the rollout overflow
            ({"trajectory": {"kind": "figure8", "amplitude": 1.0e307, "period_steps": 40}},
             "amplitude"),
            ({"vehicle": {"sample_time": 1.0e-310}}, "sample_time"),
            # finite, but the pole check overflows squaring kd - 1
            ({"gains": {"kp": [0.1, 0.1], "kd": [1.0e200, 1.0e200]}}, "gains"),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, overrides, key):
        cfg = tiny_config(tmp_path, **overrides)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "trajectory, key",
        [
            ({"kind": "waypoints", "cruise_speed": 1e-3}, "cruise_speed"),
            ({"kind": "waypoints", "cruise_speed": 1e-6}, "cruise_speed"),
            ({"kind": "figure8", "period_steps": 100_000}, "period_steps"),
            ({"kind": "circle", "period_steps": 50_000, "laps": 2}, "laps"),
            # the dense spline the waypoint path is traced with has its own cap
            ({"kind": "waypoints", "points": [[0.0, 0.0], [1e5, 0.0]], "cruise_speed": 1e3},
             "points"),
        ],
    )
    def test_reference_over_the_sample_cap_rejected(self, tmp_path, capsys, trajectory, key):
        cfg = tiny_config(tmp_path, trajectory=trajectory)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"plant": "slip", "world": {"seed": -1}}, "world.seed"),
            ({"gp": dict(FAST_GP, seed=-3)}, "gp.seed"),
            ({"evaluation": {"seeds": [50, -2]}}, "evaluation.seeds[1]"),
            # the restart draws' standard deviation must not be negative either
            ({"gp": dict(FAST_GP, restart_spread=-0.5)}, "restart_spread"),
            # nor the gradient tolerance, and a fit needs two samples
            ({"gp": dict(FAST_GP, grad_tol=-1.0)}, "grad_tol"),
            ({"gp": dict(FAST_GP, max_train=1)}, "max_train"),
        ],
    )
    def test_negative_config_seed_rejected(self, tmp_path, capsys, overrides, key):
        cfg = tiny_config(tmp_path, **overrides)
        assert main(["collect", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    def test_restarts_over_the_cap_rejected(self, tmp_path, capsys):
        # every start is drawn before the fit runs, so this would exhaust memory
        cfg = tiny_config(tmp_path, gp=dict(FAST_GP, restarts=1_000_000_000))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "gp: restarts must be at most" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "collect", "train", "evaluate"])
    def test_negative_seed_flag_rejected(self, tmp_path, capsys, command):
        cfg = tiny_config(tmp_path, plant="slip")
        argv = [command, "--config", cfg, "--out", str(tmp_path), "--seed", "-5"]
        if command == "train":
            argv.insert(1, str(tmp_path / "dataset.csv"))
        if command == "evaluate":
            argv += ["--model", str(tmp_path / "model.json")]
        assert main(argv) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "collect", "train", "evaluate",
                                         "gains-check"])
    def test_learned_slot_under_the_order_1_law_rejected(self, tmp_path, capsys, command):
        # a learned inverse plugs into the order-2 law only; the run used to
        # fail with exit 1, evaluate after its first closed-form rollout
        model = tmp_path / "model.json"  # a valid two-sample model
        model.write_text(json.dumps(small_model(("kernel_kind",), gp.KERNEL_KIND)))
        if command == "train":
            assert main(["collect", "--config", tiny_config(tmp_path), "--out",
                         str(tmp_path / "d")]) == 0
        cfg = tiny_config(tmp_path, name="order1.yaml", controller={"order": 1, "slot": "gp"},
                          gains={"kp": [0.2, 0.4], "kd": None})
        argv = {
            "simulate": ["simulate", "--model", str(model)],
            "collect": ["collect"],
            "train": ["train", str(tmp_path / "d" / "dataset.csv")],
            "evaluate": ["evaluate", "--model", str(model)],
            "gains-check": ["gains-check"],
        }[command] + ["--config", cfg]
        if command != "gains-check":
            argv += ["--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 2
        assert "controller.slot" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "collect", "train", "evaluate",
                                         "gains-check"])
    @pytest.mark.parametrize("end, ramp_time, samples", [(0.002, 0.01, 2), (0.01, 0.05, 3)])
    def test_reference_too_short_to_collect_rejected(self, tmp_path, capsys, command, end,
                                                     ramp_time, samples):
        # such a log yields too few samples to split, which used to exit 1;
        # the config rejects the reference, so every command agrees with
        # collect, and train's missing dataset is never opened
        model = tmp_path / "model.json"  # a valid two-sample model
        model.write_text(json.dumps(small_model(("kernel_kind",), gp.KERNEL_KIND)))
        cfg = tiny_config(tmp_path, plant="nominal", trajectory={
            "kind": "waypoints", "points": [[0.0, 0.0], [end, 0.0]], "cruise_speed": 0.3,
            "ramp_time": ramp_time})
        out = tmp_path / "out"
        argv = {
            "simulate": ["simulate", "--config", cfg, "--out", str(out)],
            "collect": ["collect", "--config", cfg, "--out", str(out)],
            "train": ["train", str(tmp_path / "missing.csv"), "--config", cfg,
                      "--out", str(out)],
            "evaluate": ["evaluate", "--config", cfg, "--out", str(out), "--model", str(model)],
            "gains-check": ["gains-check", "--config", cfg],
        }[command]
        assert main(argv) == 2
        assert (f"trajectory: the reference has {samples} samples, fewer than the 4 every "
                "command needs" in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_subcommand_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["teleport", "--config", "x"])


class TestNumericsErrors:
    @pytest.mark.parametrize("command", ["simulate", "collect"])
    def test_overflowing_slip_ratio_exits_3(self, tmp_path, capsys, command):
        # |v_l / v_r| ** n overflows a float for a huge slip exponent
        cfg = tiny_config(tmp_path, plant="slip",
                          world={"n": 1.0e300, "base_slip": 0.1, "alpha": 0.61})
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert "numeric error: loop state went non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_nominal_run_writes_artifacts(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        log = load_log(str(out / "log.csv"))
        assert len(log) == 121
        metrics = json.loads((out / "metrics.json").read_text())
        # exact inverse on the nominal plant tracks to machine precision
        assert metrics["mean_error"] < 1e-12
        assert metrics["steps"] == 121
        assert metrics["config"]["trajectory"]["amplitude"] == 0.5
        assert len(metrics["config_hash"]) == 64
        assert "simulate" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tiny_config(tmp_path, plant="slip",
                          world={"base_slip": 0.1, "noise_sigma": 1e-3})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        first = {p.name: sha256(p) for p in out.iterdir()}
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        second = {p.name: sha256(p) for p in out.iterdir()}
        assert first == second

    def test_seed_flag_changes_noisy_rollout(self, tmp_path):
        cfg = tiny_config(tmp_path, plant="slip",
                          world={"base_slip": 0.1, "noise_sigma": 1e-3})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b),
                     "--seed", "77"]) == 0
        ma = json.loads((out_a / "metrics.json").read_text())
        mb = json.loads((out_b / "metrics.json").read_text())
        assert ma["seed"] == 0 and mb["seed"] == 77
        assert ma["mean_error"] != mb["mean_error"]

    def test_gp_slot_requires_model(self, tmp_path):
        cfg = tiny_config(tmp_path, controller={"slot": "gp"})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_gp_slot_runs_with_model(self, tmp_path):
        cfg = tiny_config(tmp_path)
        data_dir, model_dir, run_dir = (
            tmp_path / "d", tmp_path / "m", tmp_path / "r"
        )
        assert main(["collect", "--config", cfg, "--out", str(data_dir)]) == 0
        assert main(["train", str(data_dir / "dataset.csv"), "--config", cfg,
                     "--out", str(model_dir)]) == 0
        cfg_gp = tiny_config(tmp_path, controller={"slot": "gp"}, name="gp.yaml")
        assert main(["simulate", "--config", cfg_gp, "--out", str(run_dir),
                     "--model", str(model_dir / "model.json")]) == 0
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert len(metrics["model_sha256"]) == 64


class TestCollect:
    def test_artifacts_and_partition(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "data"
        assert main(["collect", "--config", cfg, "--out", str(out)]) == 0
        log = load_log(str(out / "log.csv"))
        full = load_dataset(str(out / "dataset.csv"))
        train = load_dataset(str(out / "train.csv"))
        test = load_dataset(str(out / "test.csv"))
        assert len(full) == len(log) - 2
        assert len(train) + len(test) == len(full)
        report = json.loads((out / "collect.json").read_text())
        assert report["samples"] == len(full)
        assert report["train_samples"] == len(train)

    def test_split_respects_train_fraction(self, tmp_path):
        cfg = tiny_config(tmp_path, gp={**FAST_GP, "train_fraction": 0.5})
        out = tmp_path / "data"
        assert main(["collect", "--config", cfg, "--out", str(out)]) == 0
        train = load_dataset(str(out / "train.csv"))
        full = load_dataset(str(out / "dataset.csv"))
        assert len(train) == int(round(len(full) * 0.5))


class TestTrain:
    def fixture_dataset(self, tmp_path, cfg):
        out = tmp_path / "data"
        assert main(["collect", "--config", cfg, "--out", str(out)]) == 0
        return out / "dataset.csv"

    def test_writes_model_and_report(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ds = self.fixture_dataset(tmp_path, cfg)
        out = tmp_path / "model"
        assert main(["train", str(ds), "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["samples"] == 119
        assert report["datasets"][0]["file"] == "dataset.csv"
        assert len(report["outputs"]) == 2
        assert report["model_sha256"] == sha256(out / "model.json")

    def test_deterministic_across_reruns(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ds = self.fixture_dataset(tmp_path, cfg)
        out = tmp_path / "model"
        assert main(["train", str(ds), "--config", cfg, "--out", str(out)]) == 0
        first = sha256(out / "model.json")
        assert main(["train", str(ds), "--config", cfg, "--out", str(out)]) == 0
        assert sha256(out / "model.json") == first

    def test_pooling_concatenates(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ds = self.fixture_dataset(tmp_path, cfg)
        out = tmp_path / "model"
        assert main(["train", str(ds), str(ds), "--config", cfg,
                     "--out", str(out)]) == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["samples"] == 2 * 119
        assert len(report["datasets"]) == 2

    def test_model_flag_sets_output_path(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ds = self.fixture_dataset(tmp_path, cfg)
        target = tmp_path / "elsewhere" / "m.json"
        target.parent.mkdir()
        assert main(["train", str(ds), "--config", cfg, "--out",
                     str(tmp_path / "model"), "--model", str(target)]) == 0
        assert target.exists()

    def test_model_flag_creates_missing_directories(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ds = self.fixture_dataset(tmp_path, cfg)
        target = tmp_path / "a" / "b" / "model.json"
        assert main(["train", str(ds), "--config", cfg, "--out",
                     str(tmp_path / "model"), "--model", str(target)]) == 0
        assert len(load_model(str(target)).outputs) == 2

    def test_clean_dataset_trains_an_accurate_model(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "data"
        assert main(["collect", "--config", cfg, "--out", str(out)]) == 0
        model_dir = tmp_path / "model"
        assert main(["train", str(out / "train.csv"), "--config", cfg,
                     "--out", str(model_dir)]) == 0
        model = load_model(str(model_dir / "model.json"))
        test = load_dataset(str(out / "test.csv"))
        _, held = held_out_error(model, test.inputs, test.targets)
        command_scale = float(np.mean(np.linalg.norm(test.targets, axis=1)))
        assert held < 1e-3 * command_scale

    def test_model_identical_across_blas_thread_counts(self, tmp_path):
        if not gp._bundled_openblas():
            pytest.skip("numpy and scipy bundle no OpenBLAS here")
        # at 200 samples threaded BLAS already sums in another order
        cfg = tiny_config(
            tmp_path, trajectory={"kind": "figure8", "amplitude": 0.5, "period_steps": 200}
        )
        ds = self.fixture_dataset(tmp_path, cfg)
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"model{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "tracksim.cli", "train", str(ds),
                 "--config", cfg, "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            digests.append(sha256(out / "model.json"))
        assert digests[0] == digests[1]

    def test_report_surfaces_fit_counters(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ds = self.fixture_dataset(tmp_path, cfg)
        out = tmp_path / "model"
        assert main(["train", str(ds), "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "train_report.json").read_text())
        fitted = json.loads((out / "model.json").read_text())["report"]["outputs"]
        for row, info in zip(report["outputs"], fitted):
            assert row["jitter"] == info["jitter"] > 0.0
            assert [s["evaluations"] for s in row["starts"]] == [
                s["evaluations"] for s in info["starts"]
            ]
            assert all(s["evaluations"] >= s["iterations"] for s in row["starts"])
            assert [s["rejected_probes"] for s in row["starts"]] == [0, 0]
            assert [s["stop"] for s in row["starts"]] == [s["stop"] for s in info["starts"]]
            assert all(s["stop"] in ("ftol", "gtol", "max_iter", "line_search")
                       for s in row["starts"])

    def test_conditioning_error_in_a_worker_exits_3(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        ds = self.fixture_dataset(tmp_path, cfg)
        parent, minimize = os.getpid(), scipy.optimize.minimize

        def failing_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                raise gp.ConditioningError("raised in a worker")
            return minimize(*args, **kwargs)

        monkeypatch.setattr(gp, "_CPU_MAX", str(tmp_path / "no_cpu_max"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(scipy.optimize, "minimize", failing_in_workers)
        assert main(["train", str(ds), "--config", cfg, "--out", str(tmp_path / "m")]) == 3

    def test_single_sample_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ds = self.fixture_dataset(tmp_path, cfg)
        tiny = tmp_path / "tiny.csv"
        lines = ds.read_text().splitlines()
        tiny.write_text("\n".join(lines[:2]) + "\n")
        assert main(["train", str(tiny), "--config", cfg,
                     "--out", str(tmp_path / "m")]) == 2

    def test_missing_dataset(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert main(["train", str(tmp_path / "none.csv"), "--config", cfg,
                     "--out", str(tmp_path / "m")]) == 4

    def test_directory_as_dataset(self, tmp_path, capsys):
        # used to escape as IsADirectoryError and exit 1
        cfg = tiny_config(tmp_path)
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main(["train", str(folder), "--config", cfg, "--out", str(tmp_path / "m")]) == 4
        assert capsys.readouterr().err.startswith("artifact error: ")

    def test_corrupt_dataset(self, tmp_path):
        cfg = tiny_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("w1,w2\n1,2\n")
        assert main(["train", str(bad), "--config", cfg,
                     "--out", str(tmp_path / "m")]) == 4


class TestEvaluate:
    def trained_model(self, tmp_path, cfg):
        data_dir, model_dir = tmp_path / "d", tmp_path / "m"
        assert main(["collect", "--config", cfg, "--out", str(data_dir)]) == 0
        assert main(["train", str(data_dir / "dataset.csv"), "--config", cfg,
                     "--out", str(model_dir)]) == 0
        return model_dir / "model.json"

    def test_report_structure(self, tmp_path):
        cfg = tiny_config(tmp_path)
        model = self.trained_model(tmp_path, cfg)
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", cfg, "--out", str(out),
                     "--model", str(model)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["trajectory_kind"] == "figure8"
        assert report["seeds"] == [50]
        row = report["per_seed"][0]
        assert row["nominal"]["mean_error"] < 1e-12
        assert row["gp_prediction_rmse"] > 0.0
        assert set(report["aggregate"]) == {
            "nominal_mean_error", "nominal_max_error",
            "gp_mean_error", "gp_max_error", "gp_prediction_rmse",
        }
        errors = (out / "errors_seed50.csv").read_text().splitlines()
        assert errors[0] == "t,ref_x,ref_y,err_nominal,err_gp"
        assert len(errors) == 122

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tiny_config(tmp_path)
        model = self.trained_model(tmp_path, cfg)
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", cfg, "--out", str(out),
                     "--model", str(model)]) == 0
        first = {p.name: sha256(p) for p in out.iterdir()}
        assert main(["evaluate", "--config", cfg, "--out", str(out),
                     "--model", str(model)]) == 0
        assert {p.name: sha256(p) for p in out.iterdir()} == first

    def test_nominal_plant_slot_equivalence(self, tmp_path):
        # On the exact plant the closed form tracks to machine precision,
        # and the model must predict the commands that rollout actually
        # issued about as well as it predicted held-out training pairs.
        # Closed-loop error of the learned slot is reported, not bounded:
        # data gathered while tracking perfectly never exercises the
        # model's response to tracking errors, so its loop can drift.
        cfg = tiny_config(tmp_path)
        model_path = self.trained_model(tmp_path, cfg)
        model = load_model(str(model_path))
        test = load_dataset(str(tmp_path / "d" / "test.csv"))
        norms, _ = held_out_error(model, test.inputs, test.targets)
        held_rmse = float(np.sqrt(np.mean(norms**2)))
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", cfg, "--out", str(out),
                     "--model", str(model_path)]) == 0
        report = json.loads((out / "report.json").read_text())
        row = report["per_seed"][0]
        assert row["nominal"]["mean_error"] < 1e-6
        assert row["gp_prediction_rmse"] <= 10.0 * held_rmse
        assert np.isfinite(row["gp"]["mean_error"])

    def test_missing_model(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path),
                     "--model", str(tmp_path / "none.json")]) == 4

    @pytest.mark.parametrize("model", ["valid", "missing"])
    def test_order_1_law_rejected_before_the_model_is_read(self, tmp_path, capsys, model):
        # evaluate always runs the learned slot, which needs the order-2 law
        path = tmp_path / "model.json"
        if model == "valid":
            path.write_text(json.dumps(small_model(("kernel_kind",), gp.KERNEL_KIND)))
        cfg = tiny_config(tmp_path, controller={"order": 1}, gains={"kp": [0.2, 0.4], "kd": None})
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", cfg, "--out", str(out), "--model", str(path)]) == 2
        assert "controller.order" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_directory_as_model(self, tmp_path, capsys, command):
        # used to escape as IsADirectoryError and exit 1
        cfg = tiny_config(tmp_path, controller={"slot": "gp"})
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--model", str(folder)]) == 4
        assert capsys.readouterr().err.startswith("artifact error: ")

    def test_model_flag_required(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_corrupt_model(self, tmp_path):
        cfg = tiny_config(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text('{"broken": true}')
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path),
                     "--model", str(bad)]) == 4

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    @pytest.mark.parametrize("payload", [
        5,
        {"format": gp.MODEL_FORMAT, "version": gp.MODEL_FORMAT_VERSION,
         "kernel_kind": gp.KERNEL_KIND, "inputs": [[0.0] * 6] * 2,
         "targets": [[0.0, 0.0]] * 2, "n_train": 2, "input_dim": 6, "standardization": [],
         "outputs": []},
        # the rest used to exit 1 (IndexError, OverflowError) or to run a
        # model the file does not describe: a short array was broadcast, a
        # negative std flipped its output
        small_model(("standardization", "target_std"), [0.5]),
        small_model(("standardization", "target_mean"), [0.5]),
        small_model(("standardization", "input_std"), [0.5]),
        small_model(("standardization", "target_std"), [0.5, -0.5]),
        small_model(("outputs", 0, "log_lengthscales"), [0.0]),
        small_model(("outputs", 0, "log_noise_variance"), 800.0),
        small_model(("outputs", 1, "log_signal_variance"), 800.0),
        # json writes these as NaN and Infinity, which json.load reads back;
        # the in-place factorization would not notice them
        small_model(("inputs", 0), [math.nan] + [0.0] * 5),
        small_model(("targets", 1), [math.inf, 1.0]),
        # a file holds the weights the learned slot reads from version 2 on;
        # any other version, or weights that are not N finite numbers, must
        # be retrained, not run
        small_model(("version",), 1),
        small_model(("version",), 3),
        small_model(("version",), "2"),
        {key: value for key, value in small_model(("version",), 2).items() if key != "version"},
        small_model(("outputs", 0, "alpha"), None),
        small_model(("outputs", 1, "alpha"), [0.5]),
        small_model(("outputs", 0, "alpha"), [0.5, math.nan]),
        small_model(("outputs", 1, "alpha"), [math.inf, 0.5]),
        small_model(("outputs", 0, "alpha"), ["0.5", 0.5]),
        small_model(("outputs", 0, "alpha"), 0.5),
    ], ids=["number", "standardization_list", "target_std_short", "target_mean_short",
            "input_std_short", "target_std_negative", "lengthscales_short", "noise_variance_800",
            "signal_variance_800", "inputs_nan", "targets_infinity", "version_1", "version_3",
            "version_string", "version_missing", "alpha_missing", "alpha_short", "alpha_nan",
            "alpha_infinity", "alpha_string", "alpha_number"])
    def test_model_of_the_wrong_json_types(self, tmp_path, capsys, command, payload):
        # the first two used to escape from model_from_dict as a TypeError and exit 1
        cfg = tiny_config(tmp_path, controller={"slot": "gp"})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main([command, "--config", cfg, "--out", str(tmp_path),
                     "--model", str(bad)]) == 4
        assert capsys.readouterr().err.startswith("artifact error: ")

    def test_wrong_shape_model(self, tmp_path):
        # a valid model file whose input layout cannot drive the controller
        rng = np.random.default_rng(0)
        model = fit(
            rng.normal(size=(12, 4)), rng.normal(size=(12, 2)),
            FitConfig(restarts=1, max_iter=20),
        )
        path = tmp_path / "narrow.json"
        save_model(model, str(path))
        cfg = tiny_config(tmp_path)
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path),
                     "--model", str(path)]) == 4

    def test_five_input_model_exits_4_naming_the_slot(self, tmp_path, capsys):
        # one input short of the slot: a file that loads, then cannot be queried
        rng = np.random.default_rng(1)
        model = fit(rng.normal(size=(12, 5)), rng.normal(size=(12, 2)),
                    FitConfig(restarts=0, max_iter=5))
        path = tmp_path / "five.json"
        save_model(model, str(path))
        assert load_model(str(path)).inputs.shape == (12, 5)
        cfg = tiny_config(tmp_path)
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path),
                     "--model", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("artifact error: ")
        assert str(SLOT_INPUTS) in err and str(SLOT_TARGETS) in err
        assert "inputs (12, 5), outputs 2" in err


# Run one command in a fresh interpreter, then name the scipy submodules
# it left in sys.modules.
IMPORT_PROBE = """
import json, sys
from tracksim.cli import main
code = main(sys.argv[1:])
loaded = [m for m in ("scipy", "scipy.linalg", "scipy.optimize") if m in sys.modules]
print(json.dumps({"exit": code, "loaded": loaded}))
"""


def subprocess_env(**extra):
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gp.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Configs for both slots, one collected dataset and a model trained on it."""
    root = tmp_path_factory.mktemp("pipeline")
    tiny_config(root)
    tiny_config(root, controller={"slot": "gp"}, name="gp.yaml")
    assert main(["collect", "--config", str(root / "cfg.yaml"), "--out", str(root / "d")]) == 0
    assert main(["train", str(root / "d" / "dataset.csv"), "--config", str(root / "cfg.yaml"),
                 "--out", str(root / "m")]) == 0
    return root


# no command but train imports any of scipy; gp imports it where it calls it
SCIPY = ["scipy", "scipy.linalg", "scipy.optimize"]


class TestImports:
    @pytest.mark.parametrize("argv, absent", [
        (["gains-check", "--config", "cfg.yaml"], SCIPY),
        (["collect", "--config", "cfg.yaml", "--out", "c"], SCIPY),
        (["simulate", "--config", "cfg.yaml", "--out", "s"], SCIPY),
        (["evaluate", "--config", "cfg.yaml", "--model", "m/model.json", "--out", "e"], SCIPY),
        (["simulate", "--config", "gp.yaml", "--model", "m/model.json", "--out", "g"], SCIPY),
    ], ids=["gains-check", "collect", "simulate", "evaluate", "simulate-gp"])
    def test_command_loads_only_the_scipy_it_runs(self, pipeline_dir, argv, absent):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *argv], cwd=pipeline_dir,
            env=subprocess_env(), check=True, capture_output=True, text=True,
        )
        probe = json.loads(proc.stdout.splitlines()[-1])
        assert probe["exit"] == 0
        assert not set(absent) & set(probe["loaded"])


# Run one command in a fresh interpreter, then name the wheel directories
# (numpy.libs, scipy.libs) of the bundled OpenBLAS libraries mapped into it.
MAPS_PROBE = """
import json, sys
from tracksim.cli import main
code = main(sys.argv[1:])
with open("/proc/self/maps") as fh:
    mapped = {line.split()[-1].split("/")[-2] for line in fh if "/libscipy_openblas" in line}
print(json.dumps({"exit": code, "mapped": sorted(mapped)}))
"""


# thread counts of the bundled OpenBLAS libraries as numpy alone loads them
NUMPY_THREADS_PROBE = """
import json
import numpy
from tracksim import gp
print(json.dumps([count.value for count, _ in gp._bundled_openblas()]))
"""

# the same counts once importing the CLI has loaded numpy, and where the
# command starts its work
CLI_THREADS_PROBE = """
import json, sys
from tracksim import cli, gp
counts = lambda: [count.value for count, _ in gp._bundled_openblas()]
at_load, in_command = counts(), []
def recording(*args, _fn=cli.validate_gains):
    in_command.append(counts())
    return _fn(*args)
cli.validate_gains = recording
code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "at_load": at_load, "in_command": in_command}))
"""


class TestOpenblasLoads:
    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs Linux /proc")
    @pytest.mark.parametrize("argv, scipy_loaded", [
        (["gains-check", "--config", "cfg.yaml"], False),
        (["collect", "--config", "cfg.yaml", "--out", "mc"], False),
        (["simulate", "--config", "cfg.yaml", "--out", "ms"], False),
        (["evaluate", "--config", "cfg.yaml", "--model", "m/model.json", "--out", "me"], False),
        (["simulate", "--config", "gp.yaml", "--model", "m/model.json", "--out", "mg"], False),
        (["train", "d/dataset.csv", "--config", "cfg.yaml", "--out", "mt"], True),
    ], ids=["gains-check", "collect", "simulate", "evaluate", "simulate-gp", "train"])
    def test_only_the_fit_loads_scipys_openblas(self, pipeline_dir, argv, scipy_loaded):
        # pinning a library's threads needs no load of a library nothing calls
        if wheel_openblas_count() < 2:
            pytest.skip("numpy and scipy do not both bundle an OpenBLAS here")
        proc = subprocess.run(
            [sys.executable, "-c", MAPS_PROBE, *argv], cwd=pipeline_dir,
            env=subprocess_env(), check=True, capture_output=True, text=True,
        )
        probe = json.loads(proc.stdout.splitlines()[-1])
        assert probe["exit"] == 0
        assert ("scipy.libs" in probe["mapped"]) == scipy_loaded, probe["mapped"]


# the commands that write files besides train, whose model has its own
# thread-count test (TestTrain), with the output directory last
FILE_COMMANDS = {
    "collect": ["collect", "--config", "cfg.yaml", "--out", "c"],
    "simulate": ["simulate", "--config", "cfg.yaml", "--out", "s"],
    "evaluate": ["evaluate", "--config", "cfg.yaml", "--model", "m/model.json", "--out", "e"],
    "simulate-gp": ["simulate", "--config", "gp.yaml", "--model", "m/model.json", "--out", "g"],
}


class TestBlasThreads:
    @pytest.mark.parametrize("argv", [
        ["gains-check", "--config", "cfg.yaml"],
        FILE_COMMANDS["collect"],
        FILE_COMMANDS["simulate"],
        ["train", "d/dataset.csv", "--config", "cfg.yaml", "--out", "t"],
        FILE_COMMANDS["evaluate"],
        FILE_COMMANDS["simulate-gp"],
    ], ids=["gains-check", "collect", "simulate", "train", "evaluate", "simulate-gp"])
    def test_every_command_runs_on_one_thread(self, pipeline_dir, two_blas_threads,
                                              monkeypatch, argv):
        # record the thread counts where each command starts its work
        seen = []
        for name in ("validate_gains", "rollout", "load_dataset"):
            def recording(*args, _fn=getattr(cli, name), **kwargs):
                seen.append(blas_thread_counts())
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, recording)
        monkeypatch.chdir(pipeline_dir)
        assert main(argv) == 0
        assert seen and all(counts == [1] * len(two_blas_threads) for counts in seen)
        assert blas_thread_counts() == two_blas_threads

    @pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "two"])
    def test_openblas_starts_on_one_thread_unless_asked(self, pipeline_dir, threads):
        # the CLI's default applies only where OPENBLAS_NUM_THREADS is unset;
        # a set count is numpy's own at load, and the pin still runs the
        # command on one thread
        if not gp._bundled_openblas():
            pytest.skip("numpy and scipy bundle no OpenBLAS here")
        env = subprocess_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads

        def probe(script, *argv):
            proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=pipeline_dir,
                                  env=env, check=True, capture_output=True, text=True)
            return json.loads(proc.stdout.splitlines()[-1])

        numpy_alone = probe(NUMPY_THREADS_PROBE)
        cli_probe = probe(CLI_THREADS_PROBE, "gains-check", "--config", "cfg.yaml")
        assert cli_probe["exit"] == 0
        assert cli_probe["at_load"] == ([1] if threads is None else numpy_alone)
        assert cli_probe["in_command"] == [[1]]

    def test_gp_command_files_identical_across_thread_counts(self, pipeline_dir, tmp_path):
        if not gp._bundled_openblas():
            pytest.skip("numpy and scipy bundle no OpenBLAS here")
        digests = {}
        for threads in ("1", "2"):
            for name, argv in FILE_COMMANDS.items():
                out = tmp_path / f"{name}{threads}"
                subprocess.run(
                    [sys.executable, "-m", "tracksim.cli", *argv[:-1], str(out)],
                    cwd=pipeline_dir, env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
                    check=True, capture_output=True,
                )
                digests.setdefault(threads, {}).update(
                    {f"{name}/{p.name}": sha256(p) for p in out.iterdir()})
        # collect's log, three datasets and report, the log and metrics of
        # each simulate, and evaluate's error CSV and report
        assert len(digests["1"]) == 11
        assert digests["1"] == digests["2"]

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                        reason="the OpenBLAS core type named here is x86-64's")
    def test_closed_form_files_identical_across_blas_kernels(self, tmp_path):
        # OpenBLAS picks its kernels by CPU, and a kernel decides whether
        # its multiply-adds are fused; Prescott's kernels have no FMA. The
        # closed-form slot and both plants make no BLAS call, so collect's
        # files and a nominal-slot simulate's do not depend on the kernel
        if not gp._bundled_openblas():
            pytest.skip("numpy bundles no OpenBLAS here")
        tiny_config(tmp_path)
        tiny_config(tmp_path, name="slip.yaml", plant="slip",
                    world={"alpha": 0.6, "base_slip": 0.1, "noise_sigma": 0.0005, "seed": 100})
        default = subprocess_env()
        default.pop("OPENBLAS_CORETYPE", None)
        digests = {}
        for kernel, env in (("default", default), ("Prescott", dict(default, OPENBLAS_CORETYPE="Prescott"))):
            for cfg in ("cfg.yaml", "slip.yaml"):
                for command in ("collect", "simulate"):
                    out = tmp_path / f"{kernel}-{cfg}-{command}"
                    subprocess.run(
                        [sys.executable, "-m", "tracksim.cli", command, "--config", cfg,
                         "--out", str(out)],
                        cwd=tmp_path, env=env, check=True, capture_output=True,
                    )
                    digests.setdefault(kernel, {}).update(
                        {f"{cfg}/{command}/{p.name}": sha256(p) for p in out.iterdir()})
        # per config, collect's log, three datasets and report, and the
        # simulate's log and metrics
        assert len(digests["default"]) == 14
        assert digests["default"] == digests["Prescott"]
