"""Gating properties for the whole pipeline, one test per criterion.

Each test is self-contained: oracles (finite differences, dense solves,
explicit rotation matrices, analytic recurrences) are rebuilt here rather
than imported from the unit-test files, so a pass means two independent
implementations agree. Criteria with a runtime budget assert it.
"""

import math
import time

import numpy as np
import pytest

from tracksim.control import (
    FirstOrderTracker,
    Gains,
    ReferencePoint,
    SecondOrderTracker,
    assert_stable,
    validate_gains,
)
from tracksim.gp import (
    FitConfig,
    fit,
    held_out_error,
    kernel_matrix,
    load_model,
    nll_and_grad,
    predict,
    save_model,
)
from tracksim.kinematics import (
    OffsetPose,
    Pose2,
    PoseDelta,
    TrackCommand,
    VehicleParams,
    center_model_matrix,
    forward_first_order,
    forward_second_order,
    inverse_first_order,
    inverse_second_order,
    offset_model_matrix,
    offset_model_pinv,
)
from tracksim.sim import (
    cartesian_error,
    extract_dataset,
    learned_inverse,
    make_circle,
    make_figure8,
    make_waypoint_path,
    rollout,
    split_dataset,
)
from tracksim.terrain3d import (
    SlipPlaneWorld,
    lift_pose,
    slip_forward,
    slip_ratios,
)

PARAMS = VehicleParams()
SLOW_GAINS = Gains(kp=(0.02, 0.02), kd=(0.05, 0.05))
MID_GAINS = Gains(kp=(0.1, 0.1), kd=(0.3, 0.3))
WAYPOINTS = [(0.0, 0.0), (1.5, 0.6), (2.5, -0.4), (3.5, 0.8), (4.5, 0.0)]


def random_params(rng):
    return VehicleParams(
        tread=float(rng.uniform(0.2, 1.0)),
        steering_efficiency=float(rng.uniform(0.5, 1.0)),
        offset=float(rng.uniform(0.05, 0.5)),
        sample_time=float(rng.uniform(0.02, 0.1)),
        actuator_alpha=float(rng.uniform(0.0, 0.8)),
    )


@pytest.mark.criterion("C1", "inverse-forward consistency and pinv identity")
def test_c1_model_consistency_over_random_pairs():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(1000):
        params = random_params(rng)
        phi = float(rng.uniform(-math.pi, math.pi))
        desired = rng.uniform(-0.1, 0.1, size=2)

        # first-order pair: inverse then forward reproduces the request
        cmd = inverse_first_order(desired, phi, params)
        realized = forward_first_order(phi, cmd, params)
        assert np.max(np.abs(realized.xy() - desired)) < 1e-10

        # second-order pair, from an arbitrary measured state
        current = PoseDelta(*rng.uniform(-0.08, 0.08, size=2), float(rng.uniform(-1.0, 1.0)))
        cmd2 = inverse_second_order(desired, current, phi, params)
        realized2 = forward_second_order(current, phi, cmd2, params)
        assert np.max(np.abs(realized2.xy() - desired)) < 1e-10

        # left-inverse identity of the offset output map
        product = offset_model_pinv(phi, params) @ offset_model_matrix(phi, params)
        assert np.max(np.abs(product - np.eye(2))) < 1e-12
    assert time.perf_counter() - start < 1.0


def reference_points(positions):
    pts = []
    for k in range(len(positions) - 2):
        d0 = positions[k + 1] - positions[k]
        d1 = positions[k + 2] - positions[k + 1]
        pts.append(ReferencePoint(*positions[k], *d0, *d1))
    return pts


def curve_positions(n):
    t = np.arange(n) * PARAMS.sample_time
    return np.stack([0.8 * np.sin(0.5 * t), 0.5 * np.cos(0.7 * t)], axis=1)


@pytest.mark.criterion("C2", "closed-loop error recurrences on the exact plant")
def test_c2_error_dynamics_match_analytic_recurrences():
    start = time.perf_counter()
    kp, kd = 0.02, 0.05
    initial = np.array([0.5, -0.5])

    # first-order loop: e_{t+1} = (1 - kp) e_t
    refs = reference_points(curve_positions(504))
    tracker = FirstOrderTracker(Gains(kp=(kp, kp)), PARAMS)
    phi = math.atan2(refs[0].dy, refs[0].dx)
    pose = np.array([*(refs[0].position() - initial), phi])
    errors1 = []
    for ref in refs:
        pose_b = OffsetPose(*pose)
        errors1.append(ref.position() - pose_b.xy())
        cmd = tracker.command(ref, pose_b)
        delta = forward_first_order(pose[2], cmd, PARAMS)
        pose = pose + delta.as_array()
        tracker.observe(delta)
    errors1 = np.array(errors1)
    for t in range(500):
        assert np.max(np.abs(errors1[t + 1] - (1.0 - kp) * errors1[t])) < 1e-9

    # second-order loop around the low-passed plant:
    # e_{t+2} + (kd - 1) e_{t+1} + (kp - kd) e_t = 0
    tracker2 = SecondOrderTracker(Gains(kp=(kp, kp), kd=(kd, kd)), PARAMS)
    ts, a = PARAMS.sample_time, PARAMS.actuator_alpha
    pose = np.array([*(refs[0].position() - initial), phi])
    vel = np.zeros(2)
    errors2 = []
    for ref in refs:
        pose_b = OffsetPose(*pose)
        errors2.append(ref.position() - pose_b.xy())
        cmd = tracker2.command(ref, pose_b)
        vel = a * vel + (1.0 - a) * cmd.as_array()
        delta = ts * (offset_model_matrix(pose[2], PARAMS) @ vel)
        pose = pose + delta
        tracker2.observe(PoseDelta(*delta))
    errors2 = np.array(errors2)
    for t in range(500):
        residual = errors2[t + 2] + (kd - 1.0) * errors2[t + 1] + (kp - kd) * errors2[t]
        assert np.max(np.abs(residual)) < 1e-9
    assert time.perf_counter() - start < 1.0


@pytest.mark.criterion("C3", "pole magnitudes and stability gate")
def test_c3_pole_gate():
    mags = np.sort(validate_gains(SLOW_GAINS, order=2))
    # quadratic oracle for z^2 + (kd-1) z + (kp-kd)
    disc = math.sqrt((0.05 - 1.0) ** 2 - 4.0 * (0.02 - 0.05))
    oracle = sorted([abs((1.0 - 0.05 - disc) / 2.0), abs((1.0 - 0.05 + disc) / 2.0)] * 2)
    assert np.allclose(mags, oracle, atol=1e-14)
    assert mags[0] == pytest.approx(0.0306, abs=5e-5)
    assert mags[-1] == pytest.approx(0.9806, abs=5e-5)
    assert np.all(mags < 1.0)

    assert_stable(SLOW_GAINS, 2)  # accepted
    with pytest.raises(ValueError):
        assert_stable(Gains(kp=(2.5, 0.02)), 1)  # |1-kp| = 1.5
    with pytest.raises(ValueError):
        assert_stable(Gains(kp=(0.0, 0.0)), 1)  # pole exactly on the circle
    with pytest.raises(ValueError):
        assert_stable(Gains(kp=(0.0, 0.0), kd=(0.0, 0.0)), 2)  # roots {0, 1}


def dense_kernel(log_ls, log_sf2, a, b):
    ls = np.exp(np.asarray(log_ls))
    sf2 = math.exp(log_sf2)
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            d = (a[i] - b[j]) / ls
            out[i, j] = sf2 * math.exp(-0.5 * float(d @ d))
    return out


@pytest.mark.criterion("C4", "likelihood gradients, prediction oracle, JSON round-trip")
def test_c4_gp_correctness(tmp_path):
    # analytic likelihood gradients against central differences
    for n in (5, 20, 50):
        rng = np.random.default_rng(300 + n)
        w = rng.normal(size=(n, 6))
        y = np.sin(w[:, 0]) - 0.4 * w[:, 2] + rng.normal(0.0, 0.05, size=n)
        theta = np.concatenate([rng.normal(0.0, 0.3, size=6), [0.2], [math.log(0.05)]])
        _, grad = nll_and_grad(theta, w, y)
        h = 1e-5
        for k in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd = (nll_and_grad(up, w, y)[0] - nll_and_grad(dn, w, y)[0]) / (2 * h)
            rel = abs(fd - grad[k]) / max(abs(fd), abs(grad[k]), 1e-8)
            assert rel < 1e-4, f"n={n} component {k}: analytic {grad[k]}, fd {fd}"

    # fitted-model predictions against a dense solve in standardized space
    rng = np.random.default_rng(42)
    w = rng.normal(size=(40, 6))
    z = np.column_stack(
        [np.sin(w[:, 0] + 0.5 * w[:, 3]), np.cos(0.7 * w[:, 1]) - 0.3 * w[:, 2]]
    ) + rng.normal(0.0, 0.05, size=(40, 2))
    model = fit(w, z, FitConfig(restarts=1, max_iter=60, seed=0))
    queries = rng.normal(size=(9, 6))
    mean, _ = predict(model, queries)
    w_std = (w - model.input_mean) / model.input_std
    q_std = (queries - model.input_mean) / model.input_std
    z_std = (z - model.target_mean) / model.target_std
    for j, out in enumerate(model.outputs):
        theta = out.theta
        gram = dense_kernel(theta[:6], theta[6], w_std, w_std)
        ky = gram + (math.exp(theta[7]) + out.jitter) * np.eye(40)
        ks = dense_kernel(theta[:6], theta[6], q_std, w_std)
        mean_oracle = model.target_mean[j] + model.target_std[j] * (
            ks @ np.linalg.solve(ky, z_std[:, j])
        )
        assert np.allclose(mean[:, j], mean_oracle, atol=1e-10)

    # serialization round-trip
    path = str(tmp_path / "model.json")
    save_model(model, path)
    restored = load_model(path)
    mean2, var2 = predict(restored, queries)
    _, var1 = predict(model, queries)
    assert np.allclose(mean, mean2, atol=1e-12)
    assert np.allclose(var1, var2, atol=1e-12)


@pytest.mark.criterion("C5", "inverse-model recovery from a clean figure-8 dataset")
def test_c5_gp_recovery_on_nominal_dataset():
    start = time.perf_counter()
    traj = make_figure8(amplitude=2.0, period_steps=2001, sample_time=0.05)
    log = rollout(traj, MID_GAINS, 2, PARAMS, plant="nominal")
    data = extract_dataset(log)
    assert len(data) == 2000
    train, test = split_dataset(data, train_fraction=0.8, seed=0)
    model = fit(train.inputs, train.targets, FitConfig(restarts=1, seed=0, max_train=1600))
    _, held = held_out_error(model, test.inputs, test.targets)
    command_scale = float(np.mean(np.linalg.norm(test.targets, axis=1)))
    assert held < 1e-3 * command_scale
    assert time.perf_counter() - start < 120.0


@pytest.mark.criterion("C6", "slope-and-slip data is harder to learn than flat data")
def test_c6_terrain_dataset_ordering():
    traj = make_figure8(amplitude=1.5, period_steps=700, sample_time=0.05)
    config = FitConfig(restarts=1, seed=0, max_train=1000)
    flat_world = SlipPlaneWorld(
        slope=0.0, base_slip=0.01, friction=0.6,
        beta_gain=0.05, noise_sigma=0.0,
    )
    tilted_world = SlipPlaneWorld(
        slope=35.0 * math.pi / 180.0, base_slip=0.1, friction=0.6,
        beta_gain=0.05, noise_sigma=0.0,
    )
    held = {}
    for name, world in (("flat", flat_world), ("tilted", tilted_world)):
        log = rollout(traj, MID_GAINS, 2, PARAMS, plant="slip", world=world, seed=100)
        train, test = split_dataset(extract_dataset(log), train_fraction=0.8, seed=0)
        model = fit(train.inputs, train.targets, config)
        _, held[name] = held_out_error(model, test.inputs, test.targets)
    assert held["tilted"] > held["flat"]


@pytest.mark.criterion("C7", "learned slot beats closed form on slip terrain")
def test_c7_hybrid_beats_nominal_on_slip_plant():
    start = time.perf_counter()
    world = SlipPlaneWorld(
        slope=35.0 * math.pi / 180.0, base_slip=0.1, friction=0.6,
        beta_gain=0.05, noise_sigma=5e-4,
    )
    fig8 = lambda a: make_figure8(amplitude=a, period_steps=700, sample_time=0.05)
    circle = lambda r: make_circle(radius=r, period_steps=700, sample_time=0.05)
    waypath = lambda v: make_waypoint_path(WAYPOINTS, cruise_speed=v, sample_time=0.05)
    # each class trains on three scaled variants of its own reference,
    # which thickens the data tube around the evaluation manifold
    plan = {
        "figure8": ([fig8(1.4), fig8(1.5), fig8(1.6)], fig8(1.5)),
        "circle": ([circle(0.9), circle(1.0), circle(1.1)], circle(1.0)),
        "waypoints": ([waypath(0.27), waypath(0.30), waypath(0.33)], waypath(0.30)),
    }
    for name, (variants, eval_traj) in plan.items():
        parts = [
            extract_dataset(
                rollout(traj, MID_GAINS, 2, PARAMS, plant="slip", world=world, seed=100 + i)
            )
            for i, traj in enumerate(variants)
        ]
        inputs = np.vstack([p.inputs for p in parts])
        targets = np.vstack([p.targets for p in parts])
        model = fit(inputs, targets, FitConfig(restarts=1, seed=0, max_train=1000))
        inverse = learned_inverse(model)
        for seed in (50, 51, 52):
            log_nominal = rollout(
                eval_traj, MID_GAINS, 2, PARAMS, plant="slip", world=world, seed=seed
            )
            log_gp = rollout(
                eval_traj, MID_GAINS, 2, PARAMS, plant="slip", world=world,
                seed=seed, inverse_model=inverse,
            )
            nominal = cartesian_error(log_nominal).mean_error
            learned = cartesian_error(log_gp).mean_error
            assert learned <= nominal, f"{name} seed {seed}: {learned} > {nominal}"
            # problem scale sits in the desk-scale band; the learned slot
            # must not leave it upward
            assert 0.01 <= nominal <= 1.0, f"{name} seed {seed}: nominal {nominal}"
            assert learned <= 1.0, f"{name} seed {seed}: learned {learned}"
    assert time.perf_counter() - start < 600.0


def rotation_zyx(yaw, pitch, roll):
    cz, sz = math.cos(yaw), math.sin(yaw)
    cy, sy = math.cos(pitch), math.sin(pitch)
    cx, sx = math.cos(roll), math.sin(roll)
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    return rz @ ry @ rx


@pytest.mark.criterion("C8", "plane contact geometry and slip-plant reductions")
def test_c8_plane_geometry_and_slip_relations():
    rng = np.random.default_rng(8)

    # lifted poses: center at ride height along the normal, both body
    # axes inside the plane
    for _ in range(300):
        world = SlipPlaneWorld(
            slope=float(rng.uniform(-1.2, 1.2)),
            ride_height=float(rng.uniform(0.0, 0.5)),
        )
        pose = Pose2(*rng.uniform(-5, 5, size=2), float(rng.uniform(-4, 4)))
        p3 = lift_pose(pose, world)
        normal = np.array([-math.sin(world.slope), 0.0, math.cos(world.slope)])
        assert abs(normal @ np.array([p3.x, p3.y, p3.z]) - world.ride_height) < 1e-12
        rot = rotation_zyx(p3.yaw, p3.pitch, p3.roll)
        assert abs(normal @ rot[:, 0]) < 1e-12
        assert abs(normal @ rot[:, 1]) < 1e-12

    # slip-ratio relation: opposite signs for same-sign tracks, magnitude
    # ratio |vl/vr|^n
    for _ in range(500):
        world = SlipPlaneWorld(
            slope=float(rng.uniform(-1.0, 1.0)),
            base_slip=float(rng.uniform(0.01, 0.4)),
            friction=float(rng.uniform(0.3, 1.5)),
            slip_exponent=float(rng.uniform(0.5, 3.0)),
        )
        vl, vr = rng.uniform(0.05, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        slip = slip_ratios(TrackCommand(vl, vr), world)
        want = -math.copysign(1.0, vl * vr) * abs(vl / vr) ** world.slip_exponent
        assert slip.right_ratio / slip.left_ratio == pytest.approx(want, rel=1e-10)

    # zero-slip flat world: one plant step equals the planar unicycle
    ideal = VehicleParams(steering_efficiency=1.0)
    flat = SlipPlaneWorld(slope=0.0, base_slip=0.0, beta_gain=0.0)
    for _ in range(200):
        pose = Pose2(*rng.uniform(-3, 3, size=2), float(rng.uniform(-3, 3)))
        cmd = TrackCommand(*rng.uniform(-2, 2, size=2))
        step = slip_forward(pose, cmd, slip_ratios(cmd, flat), flat, ideal)
        oracle = ideal.sample_time * (center_model_matrix(pose.phi, ideal) @ cmd.as_array())
        assert np.max(np.abs(step.as_array() - oracle)) < 1e-12
