"""Control-law tests against inline nominal-plant loops.

The plant used here is written out locally (Euler step of the offset
model plus the actuator low-pass) so the closed-loop error recurrences
are checked against an implementation the controller code never sees.
"""

import cmath
import math

import numpy as np
import pytest

from tracksim.control import (
    FirstOrderTracker,
    Gains,
    ReferencePoint,
    SecondOrderTracker,
    assert_stable,
    first_order_step,
    second_order_step,
    validate_gains,
)
from tracksim.kinematics import (
    PoseDelta,
    TrackCommand,
    VehicleParams,
    checked_pose,
    forward_first_order,
    inverse_second_order,
    offset_model_matrix,
)

PARAMS = VehicleParams()  # tread 0.5, chi 0.9, offset 0.25, Ts 0.05, alpha 0.1


def reference_points(positions):
    """Build consistent ReferencePoints from an (M+2, 2) position table."""
    pts = []
    for k in range(len(positions) - 2):
        d0 = positions[k + 1] - positions[k]
        d1 = positions[k + 2] - positions[k + 1]
        pts.append(ReferencePoint(*positions[k], *d0, *d1))
    return pts


def curve_positions(n, ts=PARAMS.sample_time):
    t = np.arange(n) * ts
    return np.stack([0.8 * np.sin(0.5 * t), 0.5 * np.cos(0.7 * t)], axis=1)


def run_first_order(refs, gains, initial_error):
    """Closed loop of FirstOrderTracker around the first-order plant."""
    tracker = FirstOrderTracker(gains, PARAMS)
    phi = math.atan2(refs[0].dy, refs[0].dx)
    pose = np.array([*(refs[0].position() - initial_error), phi])
    errors = []
    for ref in refs:
        pose_b = checked_pose(*pose.tolist())
        errors.append(ref.position() - pose_b[:2])
        cmd = tracker.command(ref, pose_b)
        delta = forward_first_order(pose[2], cmd, PARAMS)
        pose = pose + delta.as_array()
        tracker.observe((delta.dx, delta.dy, delta.dphi))
    return np.array(errors)


def run_second_order(refs, gains, initial_error, tracker=None):
    """Closed loop of SecondOrderTracker around the low-passed plant."""
    if tracker is None:
        tracker = SecondOrderTracker(gains, PARAMS)
    ts, a = PARAMS.sample_time, PARAMS.actuator_alpha
    phi = math.atan2(refs[0].dy, refs[0].dx)
    pose = np.array([*(refs[0].position() - initial_error), phi])
    vel = np.zeros(2)
    errors = []
    for ref in refs:
        pose_b = checked_pose(*pose.tolist())
        errors.append(ref.position() - pose_b[:2])
        cmd = tracker.command(ref, pose_b)
        vel = a * vel + (1.0 - a) * cmd.as_array()
        delta = ts * (offset_model_matrix(pose[2], PARAMS) @ vel)
        pose = pose + delta
        tracker.observe(tuple(delta.tolist()))
    return np.array(errors)


# ---------------------------------------------------------------------------
# pole computation and gain validation


def test_pole_magnitudes_order_one():
    mags = validate_gains(Gains(kp=(0.02, 0.02)), order=1)
    assert np.allclose(mags, [0.98, 0.98], atol=1e-15)


def test_pole_magnitudes_order_two_match_quadratic_oracle():
    kp, kd = 0.02, 0.05
    mags = np.sort(validate_gains(Gains(kp=(kp, kp), kd=(kd, kd)), order=2))
    disc = cmath.sqrt((kd - 1.0) ** 2 - 4.0 * (kp - kd))
    oracle = sorted(
        [abs((1.0 - kd + disc) / 2.0), abs((1.0 - kd - disc) / 2.0)] * 2
    )
    assert np.allclose(mags, oracle, atol=1e-14)
    # four-decimal values: 0.0306 and 0.9806
    assert mags[0] == pytest.approx(0.0306, abs=5e-5)
    assert mags[-1] == pytest.approx(0.9806, abs=5e-5)


def test_deadbeat_gains_have_zero_poles():
    mags = validate_gains(Gains(kp=(1.0, 1.0), kd=(1.0, 1.0)), order=2)
    assert np.allclose(mags, 0.0, atol=1e-15)


def test_complex_pole_magnitudes():
    # kd=0.2, kp=0.5: z^2 - 0.8 z + 0.3, complex roots, |z| = sqrt(0.3)
    mags = validate_gains(Gains(kp=(0.5, 0.5), kd=(0.2, 0.2)), order=2)
    assert np.allclose(mags, math.sqrt(0.3), atol=1e-14)


def test_unstable_gains_rejected_at_construction():
    with pytest.raises(ValueError):
        FirstOrderTracker(Gains(kp=(2.5, 0.02)), PARAMS)
    with pytest.raises(ValueError):
        FirstOrderTracker(Gains(kp=(0.0, 0.0)), PARAMS)  # pole exactly on circle
    with pytest.raises(ValueError):
        SecondOrderTracker(Gains(kp=(0.02, 0.02), kd=(2.2, 2.2)), PARAMS)
    with pytest.raises(ValueError):
        SecondOrderTracker(Gains(kp=(0.02, 0.02)), PARAMS)  # kd missing
    assert_stable(Gains(kp=(0.02, 0.02), kd=(0.05, 0.05)), 2)


def test_validate_gains_bad_order():
    with pytest.raises(ValueError):
        validate_gains(Gains(kp=(0.1, 0.1)), order=3)


# ---------------------------------------------------------------------------
# closed-loop error dynamics on the nominal plant


def test_first_order_error_recurrence_exact():
    refs = reference_points(curve_positions(302))
    kp = 0.02
    errors = run_first_order(refs, Gains(kp=(kp, kp)), np.array([0.5, -0.5]))
    for t in range(len(errors) - 1):
        assert np.allclose(errors[t + 1], (1.0 - kp) * errors[t], atol=1e-12)
    # after 100 steps the error has shrunk by 0.98^100 ~ 0.1326
    assert np.allclose(errors[100], 0.98**100 * errors[0], atol=1e-10)
    assert abs(errors[100][0] / errors[0][0]) == pytest.approx(0.1326, abs=1e-4)


def test_second_order_error_recurrence_exact():
    refs = reference_points(curve_positions(502))
    kp, kd = 0.02, 0.05
    errors = run_second_order(
        refs, Gains(kp=(kp, kp), kd=(kd, kd)), np.array([0.5, -0.5])
    )
    # first step only sees the proportional term (vehicle and reference at rest)
    assert np.allclose(errors[1], (1.0 - kp) * errors[0], atol=1e-12)
    # from then on the homogeneous recurrence seeded by (e0, e1) holds
    predicted = [errors[0], errors[1]]
    for t in range(2, len(errors)):
        predicted.append((1.0 - kd) * predicted[-1] + (kd - kp) * predicted[-2])
        assert np.allclose(errors[t], predicted[t], atol=1e-10)


def test_mixed_gains_per_axis_recurrence():
    refs = reference_points(curve_positions(200))
    gains = Gains(kp=(0.02, 0.04), kd=(0.05, 0.1))
    errors = run_second_order(refs, gains, np.array([0.3, 0.2]))
    for axis, (kp, kd) in enumerate(zip(gains.kp, gains.kd)):
        e = errors[:, axis]
        for t in range(1, len(e) - 1):
            assert e[t + 1] == pytest.approx(
                (1.0 - kd) * e[t] + (kd - kp) * e[t - 1], abs=1e-10
            )


def test_identical_gains_make_axes_evolve_identically():
    refs = reference_points(curve_positions(300))
    errors = run_second_order(
        refs, Gains(kp=(0.02, 0.02), kd=(0.05, 0.05)), np.array([0.4, 0.4])
    )
    assert np.allclose(errors[:, 0], errors[:, 1], atol=1e-12)


def test_on_reference_start_stays_exact():
    refs = reference_points(curve_positions(80))
    e1 = run_first_order(refs, Gains(kp=(0.02, 0.02)), np.zeros(2))
    e2 = run_second_order(
        refs, Gains(kp=(0.02, 0.02), kd=(0.05, 0.05)), np.zeros(2)
    )
    assert np.max(np.abs(e1)) < 1e-12
    assert np.max(np.abs(e2)) < 1e-10


# ---------------------------------------------------------------------------
# step functions


def test_zero_gains_give_pure_feedforward():
    ref = ReferencePoint(1.0, 2.0, 0.01, -0.02, 0.015, -0.01)
    measured = (0.7, 2.2, 0.3)
    delta = PoseDelta(0.012, -0.018, 0.02)
    zero = Gains(kp=(0.0, 0.0), kd=(0.0, 0.0))
    got = second_order_step(ref, measured, delta, zero, PARAMS)
    want = inverse_second_order(ref.next_delta(), delta, measured[2], PARAMS)
    assert got.left == pytest.approx(want.left, abs=1e-15)
    assert got.right == pytest.approx(want.right, abs=1e-15)

    got1 = first_order_step(ref, measured, Gains(kp=(0.0, 0.0)), PARAMS)
    from tracksim.kinematics import inverse_first_order

    want1 = inverse_first_order(ref.delta(), measured[2], PARAMS)
    assert got1.left == pytest.approx(want1.left, abs=1e-15)


def test_second_order_step_requires_kd():
    ref = ReferencePoint(0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        second_order_step(
            ref, (0.0, 0.0, 0.0), PoseDelta(0.0, 0.0, 0.0), Gains(kp=(0.1, 0.1)), PARAMS
        )


def test_pluggable_inverse_model_receives_control_terms():
    calls = {}

    def fake_inverse(u, delta, phi):
        calls["u"] = u
        calls["delta"] = delta
        calls["phi"] = phi
        return TrackCommand(0.11, -0.22)

    gains = Gains(kp=(0.02, 0.02), kd=(0.05, 0.05))
    tracker = SecondOrderTracker(gains, PARAMS, inverse_model=fake_inverse)
    ref = ReferencePoint(1.0, 1.0, 0.01, 0.0, 0.01, 0.0)
    pose_b = (0.9, 1.05, 0.2)
    cmd = tracker.command(ref, pose_b)
    assert (cmd.left, cmd.right) == (0.11, -0.22)
    # first call runs against the virtual at-rest sample
    expect_u = ref.delta() + np.array(gains.kp) * (ref.position() - np.array(pose_b[:2]))
    # the desired translation arrives as a pair of plain floats
    assert type(calls["u"]) is tuple and all(type(v) is float for v in calls["u"])
    assert np.allclose(calls["u"], expect_u, atol=1e-15)
    assert calls["phi"] == pytest.approx(pose_b[2])
    assert calls["delta"].as_array() == pytest.approx([0.0, 0.0, 0.0])
