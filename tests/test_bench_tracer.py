"""Tests that bench/tracer.py still sees the per-step layers it names.

The benchmark reads `gp.predict_single_us` from the `sim.predict` spans,
`terrain3d.slip_step_us` from `sim.slip_ratios` and `sim.slip_forward`,
and `kinematics.inverse_second_order_us` from `control.inverse_second_order`.
A refactor that stops calling these by those module names would zero the
metrics silently, so one span per control step is pinned here.
"""

import importlib.util
import os
from collections import Counter

import pytest

from tracksim import sim
from tracksim.control import Gains
from tracksim.gp import FitConfig, fit
from tracksim.kinematics import VehicleParams
from tracksim.terrain3d import SlipPlaneWorld

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("tracer", os.path.join(ROOT, "bench", "tracer.py"))
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

PARAMS = VehicleParams()
GAINS2 = Gains(kp=(0.02, 0.02), kd=(0.05, 0.05))
WORLD = SlipPlaneWorld(slope=0.3, base_slip=0.1)
STEPS = 60


def reference(steps):
    traj = sim.make_figure8(amplitude=1.0, period_steps=200, sample_time=0.05)
    return sim.ReferenceTrajectory(traj.samples[:steps])


def traced_span_counts(**kwargs):
    """Span calls per name over one traced slip rollout of STEPS steps."""
    traj = reference(STEPS)
    spans = tracer.Tracer()
    spans.install()
    try:
        # looked up through the module, as the benchmark's workloads call it
        sim.rollout(traj, GAINS2, 2, PARAMS, plant="slip", world=WORLD, seed=5, **kwargs)
    finally:
        spans.uninstall()
    return Counter(name for _, _, _, name, _, _, _ in spans.spans)


@pytest.fixture(scope="module")
def learned_slot():
    data = sim.extract_dataset(
        sim.rollout(reference(200), GAINS2, 2, PARAMS, plant="slip", world=WORLD, seed=4))
    return sim.learned_inverse(fit(data.inputs, data.targets, FitConfig(max_iter=20, restarts=0)))


def test_learned_rollout_traces_one_query_and_one_plant_step_per_step(learned_slot):
    calls = traced_span_counts(inverse_model=learned_slot)
    assert calls["sim.rollout.learned"] == 1
    assert calls["sim.predict"] == STEPS
    assert calls["sim.slip_ratios"] == STEPS
    assert calls["sim.slip_forward"] == STEPS


def test_closed_form_rollout_traces_one_inverse_per_step():
    calls = traced_span_counts()
    assert calls["sim.rollout.closed_form"] == 1
    assert calls["control.inverse_second_order"] == STEPS
    assert calls["sim.predict"] == 0

