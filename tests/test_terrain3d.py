"""Tilted-plane geometry and slip model tests.

Plane-contact claims are verified against explicit rotation matrices and
dot products built inside the tests; the slip plant is cross-checked
against an independently assembled plane-frame unicycle plus the rate
transform.
"""

import math

import numpy as np
import pytest

from tracksim.kinematics import (
    VehicleParams,
    center_model_matrix,
    checked_pose,
)
from tracksim.terrain3d import (
    MAX_SLIP_RATIO,
    Pose3,
    SlipPlaneWorld,
    lift_pose,
    pitch_on_plane,
    plane_height,
    plane_to_world_rates,
    plane_yaw_to_world,
    roll_on_plane,
    slip_forward,
    slip_ratios,
    world_yaw_to_plane,
)

PARAMS = VehicleParams()
NO_SLIP = (0.0, 0.0, 0.0)


def rotation_zyx(yaw, pitch, roll):
    cz, sz = math.cos(yaw), math.sin(yaw)
    cy, sy = math.cos(pitch), math.sin(pitch)
    cx, sx = math.cos(roll), math.sin(roll)
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    return rz @ ry @ rx


# ---------------------------------------------------------------------------
# pose lift


def test_lift_pose_satisfies_plane_constraints():
    rng = np.random.default_rng(10)
    for _ in range(300):
        world = SlipPlaneWorld(
            slope=float(rng.uniform(-1.2, 1.2)),
            ride_height=float(rng.uniform(0.0, 0.5)),
        )
        pose = checked_pose(*rng.uniform(-5, 5, size=2).tolist(), float(rng.uniform(-4, 4)))
        p3 = lift_pose(pose, world)
        normal = np.array([-math.sin(world.slope), 0.0, math.cos(world.slope)])
        # center stays at ride_height along the normal from the plane
        assert normal @ np.array([p3.x, p3.y, p3.z]) == pytest.approx(
            world.ride_height, abs=1e-12
        )
        # body x and y axes lie in the plane
        rot = rotation_zyx(p3.yaw, p3.pitch, p3.roll)
        assert abs(normal @ rot[:, 0]) < 1e-12
        assert abs(normal @ rot[:, 1]) < 1e-12


def test_lift_pose_flat_world_is_planar():
    world = SlipPlaneWorld(slope=0.0, ride_height=0.07)
    p3 = lift_pose((1.0, -2.0, 0.8), world)
    assert p3 == Pose3(1.0, -2.0, 0.07, 0.8, 0.0, 0.0)


def test_pitch_and_roll_special_headings():
    alpha = math.radians(35.0)
    # facing straight up the slope: pure pitch
    assert pitch_on_plane(alpha, 0.0) == pytest.approx(-alpha, abs=1e-15)
    assert roll_on_plane(alpha, 0.0) == pytest.approx(0.0, abs=1e-15)
    # facing along the level lines: pure roll
    assert pitch_on_plane(alpha, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert roll_on_plane(alpha, math.pi / 2) == pytest.approx(-alpha, abs=1e-15)


def test_plane_height_slope_geometry():
    world = SlipPlaneWorld(slope=0.3, ride_height=0.1)
    # moving dx up the slope raises the center by dx*tan(slope)
    z0 = plane_height(0.0, world)
    z1 = plane_height(1.0, world)
    assert z1 - z0 == pytest.approx(math.tan(0.3), abs=1e-12)
    assert z0 == pytest.approx(0.1 / math.cos(0.3), abs=1e-15)


# ---------------------------------------------------------------------------
# yaw conversion and rate transform


def test_yaw_conversion_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(300):
        world = SlipPlaneWorld(slope=float(rng.uniform(-1.3, 1.3)))
        yaw_p = float(rng.uniform(-math.pi, math.pi))
        back = world_yaw_to_plane(plane_yaw_to_world(yaw_p, world), world)
        assert math.sin(back) == pytest.approx(math.sin(yaw_p), abs=1e-12)
        assert math.cos(back) == pytest.approx(math.cos(yaw_p), abs=1e-12)


def test_yaw_conversion_thirty_five_degree_example():
    world = SlipPlaneWorld(slope=math.radians(35.0))
    yaw = plane_yaw_to_world(math.radians(45.0), world)
    # oracle: atan(tan(45 deg) / cos(35 deg))
    assert yaw == pytest.approx(math.atan(1.0 / math.cos(math.radians(35.0))), abs=1e-14)
    assert math.degrees(yaw) == pytest.approx(50.68, abs=5e-3)


def test_rate_transform_projection_structure():
    rng = np.random.default_rng(12)
    for _ in range(200):
        world = SlipPlaneWorld(slope=float(rng.uniform(-1.2, 1.2)))
        rates_p = rng.uniform(-2, 2, size=3)
        yaw_p = float(rng.uniform(-math.pi, math.pi))
        out = plane_to_world_rates(rates_p, yaw_p, world)
        # vertical rate comes only from upslope motion: zdot = xdot_p sin a
        assert out[2] == pytest.approx(rates_p[0] * math.sin(world.slope), abs=1e-12)
        assert out[0] == pytest.approx(rates_p[0] * math.cos(world.slope), abs=1e-12)
        assert out[1] == pytest.approx(rates_p[1], abs=1e-15)
        # speed along the plane is preserved in 3D
        v3 = math.hypot(out[0], out[2])
        assert v3 == pytest.approx(abs(rates_p[0]), abs=1e-12)


def test_rate_transform_shape_check():
    with pytest.raises(ValueError):
        plane_to_world_rates(np.zeros(4), 0.0, SlipPlaneWorld())


# ---------------------------------------------------------------------------
# slip ratios


def test_slip_ratio_relation_exact():
    rng = np.random.default_rng(13)
    for _ in range(500):
        world = SlipPlaneWorld(
            slope=float(rng.uniform(-1.0, 1.0)),
            base_slip=float(rng.uniform(0.01, 0.5)),
            friction=float(rng.uniform(0.2, 1.5)),
            slip_exponent=float(rng.uniform(0.5, 3.0)),
        )
        vl, vr = (rng.uniform(0.05, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)).tolist()
        a_l, a_r, _ = slip_ratios(vl, vr, world)
        want_ratio = -math.copysign(1.0, vl * vr) * abs(vl / vr) ** world.slip_exponent
        assert a_r / a_l == pytest.approx(want_ratio, rel=1e-10)
        assert abs(a_l) <= MAX_SLIP_RATIO + 1e-15
        assert abs(a_r) <= MAX_SLIP_RATIO + 1e-15


def test_slip_ratio_examples():
    world = SlipPlaneWorld(base_slip=0.1, slip_exponent=1.0)
    a_l, a_r, _ = slip_ratios(1.0, 0.5, world)
    assert a_r / a_l == pytest.approx(-2.0, abs=1e-12)
    a_l, a_r, _ = slip_ratios(1.0, -0.5, world)
    assert a_r / a_l == pytest.approx(2.0, abs=1e-12)
    world2 = SlipPlaneWorld(base_slip=0.1, slip_exponent=2.0)
    a_l, a_r, _ = slip_ratios(1.0, 0.5, world2)
    assert a_r / a_l == pytest.approx(-4.0, abs=1e-12)


def test_slip_magnitude_grade_scaling():
    flat = SlipPlaneWorld(slope=0.0, base_slip=0.1, friction=0.6)
    assert slip_ratios(1.0, 1.0, flat)[0] == pytest.approx(0.1)
    alpha = math.radians(35.0)
    tilted = SlipPlaneWorld(slope=alpha, base_slip=0.1, friction=0.6)
    want = 0.1 * (1.0 + math.sin(alpha) / 0.6)
    assert slip_ratios(1.0, 1.0, tilted)[0] == pytest.approx(
        want, abs=1e-12
    )
    # steep + slippery saturates at the clamp
    extreme = SlipPlaneWorld(slope=alpha, base_slip=0.5, friction=0.6)
    assert slip_ratios(1.0, 1.0, extreme)[0] == pytest.approx(
        MAX_SLIP_RATIO
    )


def test_zero_and_single_track_commands():
    world = SlipPlaneWorld(base_slip=0.2)
    assert slip_ratios(0.0, 0.0, world) == NO_SLIP
    a_l, a_r, _ = slip_ratios(0.0, 1.0, world)
    assert a_l == 0.0 and a_r == pytest.approx(0.2)
    a_l, a_r, _ = slip_ratios(1.0, 0.0, world)
    assert a_r == 0.0 and a_l == pytest.approx(0.2)


def test_beta_sign_and_saturation():
    world = SlipPlaneWorld(base_slip=0.0, beta_gain=0.05)
    # hard left turn (right track faster): positive speed difference
    beta = slip_ratios(-1.0, 1.0, world)[2]
    assert beta == pytest.approx(0.05)
    beta = slip_ratios(1.0, -1.0, world)[2]
    assert beta == pytest.approx(-0.05)
    # gentle turn stays below the saturated angle
    beta = slip_ratios(0.95, 1.0, world)[2]
    assert 0.0 < beta < 0.05
    assert beta == pytest.approx(0.05 * 0.05 / 0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# slip plant step


def test_zero_slip_flat_step_equals_center_unicycle():
    rng = np.random.default_rng(14)
    world = SlipPlaneWorld(slope=0.0, base_slip=0.0, beta_gain=0.0)
    ideal = VehicleParams(steering_efficiency=1.0)
    for _ in range(200):
        rng.uniform(-3, 3, size=2)  # a position: the slip step reads only the heading
        phi = float(rng.uniform(-3, 3))
        vl, vr = rng.uniform(-2, 2, size=2).tolist()
        got = slip_forward(phi, vl, vr, slip_ratios(vl, vr, world), world, ideal)
        oracle = ideal.sample_time * (center_model_matrix(phi, ideal) @ np.array([vl, vr]))
        assert np.allclose(got, oracle, atol=1e-12)


def test_slip_step_matches_plane_frame_route():
    # independent oracle: unicycle written in the plane frame, pushed
    # through the rate transform, must equal the direct world-frame step
    rng = np.random.default_rng(15)
    for _ in range(300):
        world = SlipPlaneWorld(
            slope=float(rng.uniform(-1.0, 1.0)), base_slip=0.0, beta_gain=0.0
        )
        rng.uniform(-3, 3, size=2)  # a position: the slip step reads only the heading
        phi = float(rng.uniform(-math.pi, math.pi))
        vl, vr = rng.uniform(-2, 2, size=2).tolist()
        dx, dy, dphi = slip_forward(phi, vl, vr, NO_SLIP, world, PARAMS)

        yaw_p = world_yaw_to_plane(phi, world)
        speed = 0.5 * (vl + vr)
        turn = (vr - vl) / PARAMS.tread
        rates_p = np.array(
            [speed * math.cos(yaw_p), speed * math.sin(yaw_p), turn]
        )
        world_rates = plane_to_world_rates(rates_p, yaw_p, world)
        ts = PARAMS.sample_time
        assert dx == pytest.approx(ts * world_rates[0], abs=1e-12)
        assert dy == pytest.approx(ts * world_rates[1], abs=1e-12)
        assert dphi == pytest.approx(ts * world_rates[3], abs=1e-12)


def test_lateral_slip_rotates_translation_only():
    world = SlipPlaneWorld(slope=0.0)
    base = slip_forward(0.0, 1.0, 1.0, NO_SLIP, world, PARAMS)
    beta = 0.3
    skewed = slip_forward(0.0, 1.0, 1.0, (0.0, 0.0, beta), world, PARAMS)
    rot = np.array(
        [[math.cos(beta), -math.sin(beta)], [math.sin(beta), math.cos(beta)]]
    )
    assert np.allclose(skewed[:2], rot @ np.array(base[:2]), atol=1e-15)
    assert skewed[2] == base[2]


def test_grade_widens_forward_displacement_gap():
    # equal track speeds, facing upslope: the realized advance shrinks
    # monotonically as the grade rises (beta off: the claim is longitudinal)
    world_kwargs = dict(base_slip=0.1, friction=0.6, beta_gain=0.0)
    commanded = PARAMS.sample_time * 1.0
    gaps = []
    for slope in np.linspace(0.0, 1.2, 25):
        world = SlipPlaneWorld(slope=float(slope), **world_kwargs)
        dx, _, _ = slip_forward(0.0, 1.0, 1.0, slip_ratios(1.0, 1.0, world), world, PARAMS)
        gaps.append(commanded - dx)
    assert gaps[0] == pytest.approx(0.0, abs=1e-12)  # flat, equal speeds: no gap
    assert all(b >= a - 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] > 1e-3


def test_world_validation():
    with pytest.raises(ValueError):
        SlipPlaneWorld(slope=math.pi / 2)
    with pytest.raises(ValueError):
        SlipPlaneWorld(base_slip=0.96)
    with pytest.raises(ValueError):
        SlipPlaneWorld(friction=0.0)
    with pytest.raises(ValueError):
        SlipPlaneWorld(slip_exponent=0.0)
    with pytest.raises(ValueError):
        SlipPlaneWorld(noise_sigma=-0.1)
