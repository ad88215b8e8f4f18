"""Tests for tools/recipe_bytes.py's comparison of the recipe's files.

The CLI is replaced by a stub that writes one file per command, so these
tests check only what the script runs, how it compares the two sides'
files, and how it reacts to a failed run.
"""

import importlib.util
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "recipe_bytes", os.path.join(ROOT, "tools", "recipe_bytes.py"))
recipe_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(recipe_bytes)


@pytest.fixture
def compare(monkeypatch, capsys):
    """Run the script on stub sides; returns (exit code, stdout, stderr,
    the (side, arguments) of every CLI run).

    Each command writes <its --out>/out.txt holding the command line, or
    the text that contents gives for (side, --out); failing maps (side,
    subcommand) to an exit code."""
    def run(contents=None, failing=None):
        contents, failing = contents or {}, failing or {}
        runs = []

        def run_cli(checkout, args, cwd):
            side, out = os.path.basename(checkout), args[args.index("--out") + 1]
            runs.append((side, args))
            code = failing.get((side, args[0]), 0)
            if code == 0:
                os.makedirs(os.path.join(cwd, out))
                with open(os.path.join(cwd, out, "out.txt"), "w") as fh:
                    fh.write(contents.get((side, out), " ".join(args[:1] + args[2:])))
            return subprocess.CompletedProcess(args, code, "", f"{args[0]} broke")

        monkeypatch.setattr(recipe_bytes.bench_record, "export",
                            lambda spec, dest: os.makedirs(dest))
        monkeypatch.setattr(recipe_bytes, "run_cli", run_cli)
        code = recipe_bytes.main(["--base", "a", "--change", "b"])
        out, err = capsys.readouterr()
        return code, out, err, runs

    return run


def test_runs_the_recipe_and_both_simulations_on_each_side(compare):
    code, out, _, runs = compare()
    assert code == 0
    commands = [args[0] for side, args in runs if side == "change"]
    assert commands == ["collect"] * 3 + ["train", "evaluate", "simulate", "simulate"]
    assert [args for side, args in runs if side == "base"] == [
        args for side, args in runs if side == "change"]
    assert out.splitlines()[-1] == "0 of 7 files differ"
    assert "DIFFERS" not in out


def test_configs_are_the_benchmarks_recipe_with_a_gp_slot_copy():
    configs = recipe_bytes.recipe_configs()
    assert sorted(configs) == ["fig8_0.yaml", "fig8_1.yaml", "fig8_1_gp.yaml", "fig8_2.yaml"]
    amplitudes = [configs[f"fig8_{i}.yaml"]["trajectory"]["amplitude"] for i in range(3)]
    assert amplitudes == [1.4, 1.5, 1.6]
    assert all(c["evaluation"]["seeds"] == [50, 51, 52] for c in configs.values())
    gp_slot, nominal = configs["fig8_1_gp.yaml"], configs["fig8_1.yaml"]
    assert gp_slot["controller"]["slot"] == "gp" and nominal["controller"]["slot"] == "nominal"
    assert {**gp_slot, "controller": nominal["controller"]} == nominal


def test_a_differing_file_is_marked_and_counted(compare):
    code, out, _, _ = compare(contents={("change", "model"): "other bytes"})
    assert code == 0  # a difference is reported, not a failure
    marked = [line for line in out.splitlines() if line.endswith("DIFFERS")]
    assert len(marked) == 1 and marked[0].startswith(os.path.join("model", "out.txt"))
    assert out.splitlines()[-1] == "1 of 7 files differ"


def test_a_failed_run_exits_one_and_is_named(compare):
    code, out, err, _ = compare(failing={("change", "train"): 2})
    assert code == 1
    assert "failed run: change: tracksim train d0/dataset.csv" in err
    assert "exited 2:\ntrain broke" in err
    assert err.count("failed run:") == 1
    # the file the failed run did not write counts as differing
    missing = [line for line in out.splitlines() if "missing" in line]
    assert len(missing) == 1 and missing[0].startswith(os.path.join("model", "out.txt"))
    assert out.splitlines()[-1] == "1 of 7 files differ"
