"""Compare the files the README recipe writes at two revisions, byte for byte.

usage: python3 tools/recipe_bytes.py --base REV --change REV|DIR

Each side is exported as tools/bench_record.py exports it (a git
revision through ``git archive``, a checkout directory by copying its
tracked and untracked non-ignored files) into a fresh temporary
directory. On each side, through that side's own CLI (``python -m
tracksim.cli`` with its src/ first on PYTHONPATH), the script runs the
README recipe with the recipe configs of this checkout's benchmark
(bench/workloads.recipe_config: figure-8 amplitudes 1.4/1.5/1.6 on world
seeds 100/101/102, evaluation seeds 50-52), in a folder next to them:

    collect --config fig8_0.yaml --out d0      (and d1, d2)
    train d0/dataset.csv d1/dataset.csv d2/dataset.csv --config fig8_1.yaml --out model
    evaluate --config fig8_1.yaml --out eval --model model/model.json
    simulate --config fig8_1.yaml --out sim_nominal
    simulate --config fig8_1_gp.yaml --out sim_gp --model model/model.json

fig8_1_gp.yaml is fig8_1.yaml with controller.slot "gp". That is 25
files. The script prints each file's sha256 on both sides, marks the
ones that differ or exist on one side only, and ends with their count.
The runs inherit the environment, OPENBLAS_NUM_THREADS included, so a
file that depends on the BLAS thread count shows it when the script is
run once with OPENBLAS_NUM_THREADS=1 and once without.

Exit status: 1 when a CLI run fails on either side (the failed command
and its stderr are printed), otherwise 0, whether or not files differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EVAL_SEEDS = [50, 51, 52]


def _load(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load("bench_record", os.path.join(ROOT, "tools", "bench_record.py"))


def recipe_configs() -> dict[str, dict]:
    """The recipe's configs by file name, from the benchmark's own builder."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        workloads = _load("bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    finally:
        sys.path.pop(0)
    configs = {
        f"fig8_{i}.yaml": workloads.recipe_config(workloads.FULL, amplitude, world_seed,
                                                  EVAL_SEEDS)
        for i, (amplitude, world_seed) in enumerate(zip(workloads.RECIPE_AMPLITUDES,
                                                        workloads.RECIPE_WORLD_SEEDS))
    }
    gp_slot = dict(configs["fig8_1.yaml"])
    gp_slot["controller"] = dict(gp_slot["controller"], slot="gp")
    configs["fig8_1_gp.yaml"] = gp_slot
    return configs


# the CLI argument lists of one recipe run, in order, run in a folder
# next to the one the configs are written to
RECIPE_COMMANDS = [
    *(["collect", "--config", f"../configs/fig8_{i}.yaml", "--out", f"d{i}"] for i in range(3)),
    ["train", "d0/dataset.csv", "d1/dataset.csv", "d2/dataset.csv",
     "--config", "../configs/fig8_1.yaml", "--out", "model"],
    ["evaluate", "--config", "../configs/fig8_1.yaml", "--out", "eval",
     "--model", "model/model.json"],
    ["simulate", "--config", "../configs/fig8_1.yaml", "--out", "sim_nominal"],
    ["simulate", "--config", "../configs/fig8_1_gp.yaml", "--out", "sim_gp",
     "--model", "model/model.json"],
]


def run_cli(checkout: str, args: list[str], cwd: str) -> subprocess.CompletedProcess:
    """One command through the checkout's own CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(checkout, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "tracksim.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def digests(root: str) -> dict[str, str]:
    """sha256 of every file under root, by path relative to it."""
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision or checkout directory")
    parser.add_argument("--change", required=True, help="git revision or checkout directory")
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="recipe_bytes_")
    try:
        config_dir = os.path.join(work, "configs")
        os.makedirs(config_dir)
        for name, payload in recipe_configs().items():
            with open(os.path.join(config_dir, name), "w") as fh:
                yaml.safe_dump(payload, fh, sort_keys=True)
        failed, files = [], {}
        for side in ("base", "change"):
            checkout, out = os.path.join(work, side), os.path.join(work, f"{side}_out")
            bench_record.export(getattr(args, side), checkout)
            os.makedirs(out)
            for command in RECIPE_COMMANDS:
                proc = run_cli(checkout, command, out)
                if proc.returncode != 0:
                    failed.append(f"{side}: tracksim {' '.join(command)} exited "
                                  f"{proc.returncode}:\n{proc.stderr.strip()}")
            files[side] = digests(out)
        paths, differ = sorted(set(files["base"]) | set(files["change"])), 0
        for path in paths:
            base, change = (files[s].get(path, "missing") for s in ("base", "change"))
            differ += base != change
            print(f"{path}  {base}  {change}{'' if base == change else '  DIFFERS'}")
        print(f"{differ} of {len(paths)} files differ")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in failed:
        print(f"failed run: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
