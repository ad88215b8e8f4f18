"""Tests for tools/bench_record.py's verdict on the runs it records.

The benchmark itself is replaced by a stub result per run, so these
tests check only how the recorder reacts to broken runs and what
verdict it writes for given run values.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


def stub_result(exit_code=0, correct=True, failed=0, value=1.0):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in DECLARED["end_to_end"]}
    return {"exit_code": exit_code, "correct": correct, "attempted": 3, "failed": failed,
            "metrics": metrics}


@pytest.fixture
def record(monkeypatch, tmp_path):
    """Run the recorder on stub sides; returns (exit code, stderr, record)."""
    def run(broken, pairs=2):
        def run_once(checkout, workload, seed, seconds):
            pair = seed - 301
            return broken.get((workload, os.path.basename(checkout), pair), stub_result())

        def export(spec, dest):
            # base: one module of 3 lines; change: two modules, 4 lines in all
            package = os.path.join(dest, "src", "tracksim")
            os.makedirs(package)
            modules = {"base": ["a\nb\nc\n"], "change": ["a\n", "b\nc\nd\n"]}
            for i, text in enumerate(modules[os.path.basename(dest)]):
                with open(os.path.join(package, f"m{i}.py"), "w") as fh:
                    fh.write(text)
            return {"revision": spec}

        monkeypatch.setattr(bench_record, "export", export)
        monkeypatch.setattr(bench_record, "environment", lambda checkout: {})
        monkeypatch.setattr(bench_record, "run_once", run_once)
        out = tmp_path / "bench.json"
        code = bench_record.main(["--base", "a", "--change", "b", "--out", str(out),
                                  "--pairs", str(pairs)])
        return code, json.loads(out.read_text())

    return run


def test_clean_runs_exit_zero(record):
    code, written = record({})
    assert code == 0
    assert all(w["all_correct"] for w in written["workloads"].values())


@pytest.mark.parametrize("value", ["1", None])
def test_environment_records_the_settings_runs_depend_on(monkeypatch, value):
    for name in ("OPENBLAS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE"):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    info = bench_record.environment(ROOT)
    assert info["OPENBLAS_NUM_THREADS"] == info["PYTHONDONTWRITEBYTECODE"] == value


def test_records_each_sides_source_line_count(record):
    _, written = record({})
    assert written["src_lines"] == {"base": 3, "change": 4}


@pytest.mark.parametrize("result, shown", [
    (stub_result(exit_code=1), "exit code 1"),
    (stub_result(correct=False), "correct False"),
    (stub_result(failed=2), "2 failed operations"),
])
def test_broken_run_exits_one_and_is_named(record, capsys, result, shown):
    workload = DECLARED["workloads"][1]["name"]
    code, written = record({(workload, "change", 1): result})
    assert code == 1
    assert workload in written["workloads"]  # the file is written first
    err = capsys.readouterr().err
    assert f"broken run: {workload} change pair 1: " in err
    assert shown in err
    assert err.count("broken run:") == 1


def runs_of(base, change):
    """Stub runs giving every metric the values base[i] and change[i] in pair i."""
    workload = DECLARED["workloads"][0]["name"]
    return workload, {
        **{(workload, "base", i): stub_result(value=v) for i, v in enumerate(base)},
        **{(workload, "change", i): stub_result(value=v) for i, v in enumerate(change)},
    }


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR 3.5%


@pytest.mark.parametrize("change, met", [
    ([0.90] * 10, True),                # every pair won, gap 10% > IQR
    ([0.90] * 9 + [1.10], True),        # nine of ten is enough
    ([0.90] * 8 + [1.10] * 2, False),   # eight of ten is not
    ([v - 0.02 for v in BASE], False),  # every pair won, gap 2% inside the IQR
])
def test_claim_rule_needs_nine_wins_and_a_gap_beyond_the_iqr(record, change, met):
    workload, runs = runs_of(BASE, change)
    _, written = record(runs, pairs=10)
    for name, metric in written["workloads"][workload]["metrics"].items():
        lower = metric["better"] == "lower"
        assert metric["claim_rule_met"] is (met and lower), name
        assert metric["worse_than_bound"] is False, name


def test_worse_than_bound_reads_the_declared_bound(record):
    # each metric's change median is its bound plus or minus 1% worse
    workload = DECLARED["workloads"][0]["name"]
    for over in (0.01, -0.01):
        runs = {}
        for i in range(2):
            runs[workload, "base", i] = stub_result()
            change = stub_result()
            for m in DECLARED["end_to_end"]:
                worse = m["bound"] + over
                change["metrics"][m["name"]]["value"] = (
                    1.0 + worse if m["better"] == "lower" else 1.0 - worse)
            runs[workload, "change", i] = change
        _, written = record(runs)
        for name, metric in written["workloads"][workload]["metrics"].items():
            assert metric["worse_than_bound"] is (over > 0), name
            assert metric["claim_rule_met"] is False, name
