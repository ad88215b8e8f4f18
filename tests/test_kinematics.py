"""Unit tests for the closed-form track kinematics.

Expected values are computed inside the tests from independent oracles
(elementwise trig formulas, explicit matrix products), never from the
functions under test.
"""

import math

import numpy as np
import pytest

from tracksim.kinematics import (
    PoseDelta,
    TrackCommand,
    VehicleParams,
    center_model_matrix,
    center_model_pinv,
    center_pose,
    check_delta,
    checked_pose,
    consistency_condition,
    forward_first_order,
    forward_second_order,
    inverse_first_order,
    inverse_second_order,
    offset_model_matrix,
    offset_model_pinv,
    offset_point,
    wrap_angle,
)


def random_params(rng):
    return VehicleParams(
        tread=float(rng.uniform(0.2, 1.0)),
        steering_efficiency=float(rng.uniform(0.3, 1.0)),
        offset=float(rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])),
        sample_time=float(rng.uniform(0.01, 0.1)),
        actuator_alpha=float(rng.uniform(0.0, 0.9)),
    )


# ---------------------------------------------------------------------------
# angles and value types


def test_wrap_angle_range_and_boundaries():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0
    rng = np.random.default_rng(0)
    for a in rng.uniform(-50, 50, size=500):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        # same direction: difference is an exact multiple of 2*pi
        k = (a - w) / (2 * math.pi)
        assert abs(k - round(k)) < 1e-9


def test_pose_wraps_phi():
    x, y, phi = checked_pose(1.0, 2.0, 7.0)
    assert (x, y) == (1.0, 2.0)
    assert -math.pi < phi <= math.pi
    assert math.cos(phi) == pytest.approx(math.cos(7.0))
    for bad in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, math.nan)):
        with pytest.raises(ValueError):
            checked_pose(*bad)


def test_pose_delta_rejects_half_turn_and_nan():
    # the dataclass and the plants' float check are one check
    for check in (PoseDelta, check_delta):
        with pytest.raises(ValueError):
            check(0.0, 0.0, math.pi)
        with pytest.raises(ValueError):
            check(float("nan"), 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_value_types_reject_non_finite_components(bad):
    for i in range(3):
        parts = [0.1, -0.2, 0.3]
        parts[i] = bad
        with pytest.raises(ValueError, match="delta components must be finite"):
            PoseDelta(*parts)
    for parts in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="track speeds must be finite"):
            TrackCommand(*parts)


def test_pose_delta_rejects_every_half_turn_or_more():
    for dphi in (math.pi, -math.pi, 4.0, -4.0):
        with pytest.raises(ValueError, match=r"\|dphi\| must be < pi"):
            PoseDelta(0.0, 0.0, dphi)
    assert PoseDelta(0.0, 0.0, math.nextafter(math.pi, 0.0)).dphi < math.pi


def test_value_types_keep_their_fields_and_compare_by_value():
    delta = PoseDelta(0.1, -0.2, 0.3)
    assert (delta.dx, delta.dy, delta.dphi) == (0.1, -0.2, 0.3)
    assert delta == PoseDelta(0.1, -0.2, 0.3)
    assert delta != PoseDelta(0.1, -0.2, 0.30000000000000004)
    assert np.array_equal(delta.as_array(), [0.1, -0.2, 0.3])
    assert np.array_equal(delta.xy(), [0.1, -0.2])
    cmd = TrackCommand(0.5, -1.5)
    assert (cmd.left, cmd.right) == (0.5, -1.5)
    assert cmd == TrackCommand(0.5, -1.5) and cmd != TrackCommand(-1.5, 0.5)
    assert np.array_equal(cmd.as_array(), [0.5, -1.5])
    # slotted: no per-instance dict, and no field can be added by a typo
    for value in (delta, cmd):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.left_speed = 0.0


def test_vehicle_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(steering_efficiency=0.0)
    with pytest.raises(ValueError):
        VehicleParams(steering_efficiency=1.2)
    with pytest.raises(ValueError):
        VehicleParams(offset=0.0)
    with pytest.raises(ValueError):
        VehicleParams(tread=-0.5)
    with pytest.raises(ValueError):
        VehicleParams(sample_time=0.0)
    with pytest.raises(ValueError):
        VehicleParams(actuator_alpha=1.0)


# ---------------------------------------------------------------------------
# offset point


def test_offset_point_matches_trig_oracle():
    params = VehicleParams(offset=0.15)
    pose = (0.3, -0.4, math.pi / 4)
    x, y, phi = offset_point(pose, params)
    assert x == pytest.approx(0.3 + 0.15 * math.cos(math.pi / 4), abs=1e-15)
    assert y == pytest.approx(-0.4 + 0.15 * math.sin(math.pi / 4), abs=1e-15)
    assert phi == pose[2]


def test_offset_point_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        params = random_params(rng)
        pose = checked_pose(*rng.uniform(-5, 5, size=2).tolist(), float(rng.uniform(-4, 4)))
        back = center_pose(offset_point(pose, params), params)
        assert back == pytest.approx(pose, abs=1e-12)


# ---------------------------------------------------------------------------
# model matrices and the consistency condition


def test_model_matrices_match_elementwise_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        params = random_params(rng)
        phi = float(rng.uniform(-math.pi, math.pi))
        c, s = math.cos(phi), math.sin(phi)
        chi, d, b = params.steering_efficiency, params.tread, params.offset

        g_center = np.array([[c / 2, c / 2], [s / 2, s / 2], [-chi / d, chi / d]])
        assert np.allclose(center_model_matrix(phi, params), g_center, atol=1e-15)

        g_offset = np.array(
            [
                [c / 2 + chi * b * s / d, c / 2 - chi * b * s / d],
                [s / 2 - chi * b * c / d, s / 2 + chi * b * c / d],
                [-chi / d, chi / d],
            ]
        )
        assert np.allclose(offset_model_matrix(phi, params), g_offset, atol=1e-15)


def test_pinvs_are_left_inverses():
    rng = np.random.default_rng(3)
    for _ in range(200):
        params = random_params(rng)
        phi = float(rng.uniform(-10, 10))
        eye = np.eye(2)
        prod_center = center_model_pinv(phi, params) @ center_model_matrix(phi, params)
        prod_offset = offset_model_pinv(phi, params) @ offset_model_matrix(phi, params)
        assert np.allclose(prod_center, eye, atol=1e-12)
        assert np.allclose(prod_offset, eye, atol=1e-12)


def test_consistency_condition_offset_yes_center_no():
    rng = np.random.default_rng(4)
    for _ in range(100):
        params = random_params(rng)
        phi = float(rng.uniform(-math.pi, math.pi))
        assert consistency_condition(
            offset_model_matrix(phi, params), offset_model_pinv(phi, params)
        )
    # the center pair fails except at headings where cos^2(phi) == 1 exactly
    params = VehicleParams()
    assert not consistency_condition(
        center_model_matrix(0.7, params), center_model_pinv(0.7, params)
    )


def test_consistency_condition_padded_identity_oracle():
    g = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    g_pinv = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    prod = g @ g_pinv  # direct block computation
    assert np.allclose(prod[:2, :2], np.eye(2))
    assert np.allclose(prod[:2, 2], 0.0)
    assert consistency_condition(g, g_pinv)


def test_consistency_condition_shape_check():
    with pytest.raises(ValueError):
        consistency_condition(np.eye(3), np.eye(3))


# ---------------------------------------------------------------------------
# first-order model


def test_forward_first_order_spin_in_place_example():
    # d=0.5, chi=1, b=0.2, Ts=0.05, tracks at -1/+1 m/s, heading 0:
    # no center motion, dphi = Ts*2*chi/d = 0.2, dy = Ts*2*chi*b/d = 0.04.
    params = VehicleParams(
        tread=0.5, steering_efficiency=1.0, offset=0.2, sample_time=0.05
    )
    delta = forward_first_order(0.0, TrackCommand(-1.0, 1.0), params)
    assert delta.dx == pytest.approx(0.0, abs=1e-15)
    assert delta.dy == pytest.approx(0.04, abs=1e-15)
    assert delta.dphi == pytest.approx(0.2, abs=1e-15)


def test_inverse_first_order_straight_line_example():
    # desired (0.05, 0) over Ts=0.05 at phi=0 -> both tracks at 1 m/s
    params = VehicleParams(
        tread=0.5, steering_efficiency=1.0, offset=0.1, sample_time=0.05
    )
    cmd = inverse_first_order(np.array([0.05, 0.0]), 0.0, params)
    assert cmd.left == pytest.approx(1.0, abs=1e-12)
    assert cmd.right == pytest.approx(1.0, abs=1e-12)


def test_first_order_round_trips():
    rng = np.random.default_rng(5)
    for _ in range(300):
        params = random_params(rng)
        phi = float(rng.uniform(-math.pi, math.pi))
        # desired delta -> command -> delta
        desired = rng.uniform(-0.1, 0.1, size=2)
        delta = forward_first_order(
            phi, inverse_first_order(desired, phi, params), params
        )
        assert np.allclose(delta.xy(), desired, atol=1e-12)
        # command -> delta -> command
        cmd = TrackCommand(*rng.uniform(-2, 2, size=2))
        back = inverse_first_order(
            forward_first_order(phi, cmd, params).xy(), phi, params
        )
        assert back.left == pytest.approx(cmd.left, abs=1e-12)
        assert back.right == pytest.approx(cmd.right, abs=1e-12)


def test_forward_first_order_se2_equivariance():
    rng = np.random.default_rng(6)
    for _ in range(100):
        params = random_params(rng)
        phi = float(rng.uniform(-math.pi, math.pi))
        theta = float(rng.uniform(-math.pi, math.pi))
        cmd = TrackCommand(*rng.uniform(-2, 2, size=2))
        d0 = forward_first_order(phi, cmd, params)
        d1 = forward_first_order(phi + theta, cmd, params)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        assert np.allclose(rot @ d0.xy(), d1.xy(), atol=1e-12)
        assert d0.dphi == pytest.approx(d1.dphi, abs=1e-15)


def test_pure_rotation_moves_only_the_offset_point():
    # equal and opposite tracks: the center stays put, the offset point
    # sweeps an arc of radius |offset| around it.
    rng = np.random.default_rng(7)
    for _ in range(100):
        params = VehicleParams(
            tread=float(rng.uniform(0.2, 1.0)),
            steering_efficiency=1.0,
            offset=float(rng.uniform(0.05, 0.5)),
            sample_time=float(rng.uniform(0.01, 0.1)),
        )
        w = float(rng.uniform(0.1, 2.0))
        phi = float(rng.uniform(-math.pi, math.pi))
        cmd = TrackCommand(-w, w)
        center_delta = params.sample_time * (
            center_model_matrix(phi, params) @ cmd.as_array()
        )
        assert np.allclose(center_delta[:2], 0.0, atol=1e-15)
        omega = 2.0 * params.steering_efficiency * w / params.tread
        expect = params.sample_time * omega * params.offset
        delta = forward_first_order(phi, cmd, params)
        assert delta.dx == pytest.approx(-expect * math.sin(phi), abs=1e-13)
        assert delta.dy == pytest.approx(expect * math.cos(phi), abs=1e-13)


def test_float_inverses_match_the_pinv_oracle():
    # the inverses multiply in floats; offset_model_pinv is their oracle,
    # to 1e-14 of the magnitudes each product sums
    rng = np.random.default_rng(13)
    for _ in range(300):
        params = random_params(rng)
        ts, a = params.sample_time, params.actuator_alpha
        phi = float(rng.uniform(-math.pi, math.pi))
        desired = rng.uniform(-0.1, 0.1, size=2)
        pair = tuple(desired.tolist())
        rate = np.append(desired, 0.0) / ts

        first = inverse_first_order(pair, phi, params)
        assert type(first.left) is float and type(first.right) is float
        pinv = offset_model_pinv(phi, params)
        got = np.array([first.left, first.right])
        assert np.all(np.abs(got - pinv @ rate) <= 1e-14 * (np.abs(pinv) @ np.abs(rate)))
        # an array gives the bits of the float pair
        assert inverse_first_order(desired, phi, params) == first

        current = PoseDelta(*rng.uniform(-0.05, 0.05, size=2), float(rng.uniform(-0.3, 0.3)))
        second = inverse_second_order(pair, current, phi, params)
        now_rate = current.as_array() / ts
        pinv_next = offset_model_pinv(phi + current.dphi, params)
        want = (pinv_next @ rate - a * (pinv @ now_rate)) / (1.0 - a)
        scale = (np.abs(pinv_next) @ np.abs(rate) + a * (np.abs(pinv) @ np.abs(now_rate))) / (1.0 - a)
        got = np.array([second.left, second.right])
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
        assert inverse_second_order(desired, current, phi, params) == second


def test_first_order_rejects_bad_input():
    params = VehicleParams()
    with pytest.raises(ValueError):
        forward_first_order(float("inf"), TrackCommand(1.0, 1.0), params)
    with pytest.raises(ValueError):
        inverse_first_order(np.array([1.0, 2.0, 3.0]), 0.0, params)
    with pytest.raises(ValueError):
        inverse_first_order(np.array([float("nan"), 0.0]), 0.0, params)


# ---------------------------------------------------------------------------
# second-order model


def test_second_order_round_trip_reproduces_desired_delta():
    rng = np.random.default_rng(8)
    for _ in range(300):
        params = random_params(rng)
        phi = float(rng.uniform(-math.pi, math.pi))
        current = PoseDelta(*rng.uniform(-0.05, 0.05, size=2), float(rng.uniform(-0.3, 0.3)))
        desired = rng.uniform(-0.1, 0.1, size=2)
        cmd = inverse_second_order(desired, current, phi, params)
        realized = forward_second_order(current, phi, cmd, params)
        assert np.allclose(realized.xy(), desired, atol=1e-12)


def test_second_order_with_alpha_zero_matches_first_order():
    rng = np.random.default_rng(9)
    for _ in range(100):
        params = VehicleParams(
            tread=float(rng.uniform(0.2, 1.0)),
            steering_efficiency=float(rng.uniform(0.3, 1.0)),
            offset=float(rng.uniform(0.05, 0.5)),
            sample_time=float(rng.uniform(0.01, 0.1)),
            actuator_alpha=0.0,
        )
        phi = float(rng.uniform(-math.pi, math.pi))
        desired = rng.uniform(-0.1, 0.1, size=2)
        still = PoseDelta(0.0, 0.0, 0.0)  # no heading change: both orders see phi
        second = inverse_second_order(desired, still, phi, params)
        first = inverse_first_order(desired, phi, params)
        assert second.left == pytest.approx(first.left, abs=1e-12)
        assert second.right == pytest.approx(first.right, abs=1e-12)

        cmd = TrackCommand(*rng.uniform(-2, 2, size=2))
        fwd2 = forward_second_order(still, phi, cmd, params)
        fwd1 = forward_first_order(phi, cmd, params)
        assert np.allclose(fwd2.as_array(), fwd1.as_array(), atol=1e-14)


def test_second_order_alpha_one_keeps_prior_velocity():
    # alpha -> 1 would make the command irrelevant; the forward model must
    # then just propagate the current velocity to the new heading.
    params = VehicleParams(actuator_alpha=0.999999)
    phi = 0.3
    current = PoseDelta(0.02, 0.01, 0.05)
    d_a = forward_second_order(current, phi, TrackCommand(5.0, -5.0), params)
    d_b = forward_second_order(current, phi, TrackCommand(-5.0, 5.0), params)
    assert np.allclose(d_a.as_array(), d_b.as_array(), atol=1e-4)


def test_second_order_heading_advances_by_measured_dphi():
    # the realized delta must be expressed at phi + dphi, not at phi
    params = VehicleParams(actuator_alpha=0.0)
    phi = 0.0
    current = PoseDelta(0.0, 0.0, 0.5)
    cmd = TrackCommand(1.0, 1.0)
    got = forward_second_order(current, phi, cmd, params)
    expect = forward_first_order(0.5, cmd, params)
    assert np.allclose(got.as_array(), expect.as_array(), atol=1e-14)
