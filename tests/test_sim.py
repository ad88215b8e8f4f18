"""Tests for trajectories, rollouts, metrics, and dataset extraction.

The load-bearing oracle: on nominal-plant logs the closed-form inverse
model must reproduce every logged command from the extracted samples,
which pins the log convention, the plant sequencing, and the dataset
pairing against each other.
"""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from tracksim import sim
from tracksim.control import Gains
from tracksim.gp import Dataset, FitConfig, fit
from tracksim.kinematics import (
    PoseDelta,
    TrackCommand,
    VehicleParams,
    forward_first_order,
    inverse_second_order,
    offset_model_matrix,
    offset_point,
)
from tracksim.sim import (
    DATASET_COLUMNS,
    LOG_COLUMNS,
    Metrics,
    NominalPlant,
    NumericsError,
    RolloutLog,
    SlipPlant,
    cartesian_error,
    catmull_rom_point,
    extract_dataset,
    load_dataset,
    load_log,
    make_circle,
    make_figure8,
    make_waypoint_path,
    path_spline,
    rollout,
    save_dataset,
    save_log,
    split_dataset,
)
from tracksim.terrain3d import SlipPlaneWorld, slip_ratios

PARAMS = VehicleParams()
GAINS2 = Gains(kp=(0.02, 0.02), kd=(0.05, 0.05))
GAINS1 = Gains(kp=(0.2, 0.2))


def manual_log(ref, pose_b):
    """Minimal log with given reference and offset-point tracks."""
    n = ref.shape[0]
    zeros = np.zeros(n)
    return RolloutLog(
        ref_x=ref[:, 0].astype(float),
        ref_y=ref[:, 1].astype(float),
        x=pose_b[:, 0].astype(float),
        y=pose_b[:, 1].astype(float),
        phi=zeros.copy(),
        x_b=pose_b[:, 0].astype(float),
        y_b=pose_b[:, 1].astype(float),
        dx=zeros.copy(),
        dy=zeros.copy(),
        dphi=zeros.copy(),
        vl_cmd=zeros.copy(),
        vr_cmd=zeros.copy(),
        vl_real=zeros.copy(),
        vr_real=zeros.copy(),
        a_l=zeros.copy(),
        a_r=zeros.copy(),
        beta=zeros.copy(),
        err=np.hypot(ref[:, 0] - pose_b[:, 0], ref[:, 1] - pose_b[:, 1]),
    )


class TestClosedCurves:
    def test_figure8_passes_origin_and_quarter_point(self):
        traj = make_figure8(amplitude=2.0, period_steps=800, sample_time=0.05)
        assert len(traj) == 801
        assert np.allclose(traj.samples[0].position(), [0.0, 0.0], atol=1e-12)
        assert np.allclose(traj.samples[200].position(), [2.0, 0.0], atol=1e-9)
        assert np.allclose(
            traj.samples[800].position(), traj.samples[0].position(), atol=1e-9
        )

    def test_circle_anchor_points_and_closure(self):
        traj = make_circle(radius=1.5, period_steps=400, sample_time=0.05)
        assert np.allclose(traj.samples[0].position(), [1.5, 0.0], atol=1e-12)
        assert np.allclose(traj.samples[200].position(), [-1.5, 0.0], atol=1e-9)
        assert np.allclose(
            traj.samples[400].position(), traj.samples[0].position(), atol=1e-9
        )

    def test_circle_speed_is_uniform(self):
        period, ts, r = 400, 0.05, 1.5
        traj = make_circle(radius=r, period_steps=period, sample_time=ts)
        speeds = np.array(
            [np.linalg.norm(p.delta()) / ts for p in traj.samples[:-1]]
        )
        expected = 2.0 * math.pi * r / (period * ts)
        assert np.allclose(speeds, expected, rtol=1e-4)

    def test_deltas_are_consistent_with_positions(self):
        for traj in (make_figure8(period_steps=200), make_circle(period_steps=200)):
            for a, b in zip(traj.samples[:-1], traj.samples[1:]):
                assert np.allclose(
                    a.position() + a.delta(), b.position(), atol=1e-12
                )
                assert a.dx_next == b.dx and a.dy_next == b.dy

    def test_laps_tile_the_period(self):
        one = make_figure8(period_steps=100, laps=1)
        two = make_figure8(period_steps=100, laps=2)
        assert len(two) == 201
        assert np.allclose(
            two.samples[150].position(), one.samples[50].position(), atol=1e-9
        )

    def test_degenerate_arguments_rejected(self):
        with pytest.raises(ValueError):
            make_figure8(amplitude=0.0)
        with pytest.raises(ValueError):
            make_figure8(period_steps=3)
        with pytest.raises(ValueError):
            make_circle(radius=-1.0)
        with pytest.raises(ValueError):
            make_circle(period_steps=100, laps=0)


class TestWaypointPath:
    def test_two_waypoints_give_straight_constant_speed_segment(self):
        traj = make_waypoint_path(
            [(0.0, 0.0), (4.0, 3.0)], cruise_speed=0.5, sample_time=0.05
        )
        pos = traj.positions()
        direction = np.array([4.0, 3.0]) / 5.0
        cross = pos[:, 0] * direction[1] - pos[:, 1] * direction[0]
        assert np.max(np.abs(cross)) < 1e-9
        # cruise phase: speed holds the commanded value
        speeds = np.linalg.norm(np.diff(pos, axis=0), axis=1) / 0.05
        mid = speeds[60:-60]
        assert np.allclose(mid, 0.5, atol=1e-6)

    def test_collinear_waypoints_degenerate_to_a_line(self):
        traj = make_waypoint_path(
            [(0.0, 0.0), (1.0, 1.0), (2.5, 2.5), (4.0, 4.0)], cruise_speed=0.4
        )
        pos = traj.positions()
        assert np.max(np.abs(pos[:, 0] - pos[:, 1])) < 1e-9

    def test_spline_interpolates_every_waypoint(self):
        rng = np.random.default_rng(5)
        wps = np.cumsum(rng.uniform(0.5, 1.5, size=(5, 2)), axis=0)
        spline = path_spline(wps)
        hit = spline.point_at(spline.waypoint_arclengths)
        assert np.max(np.linalg.norm(hit - wps, axis=1)) < 1e-6

    def test_trajectory_starts_and_ends_on_waypoints_at_rest(self):
        wps = [(0.0, 0.0), (2.0, 1.0), (3.5, -0.5)]
        traj = make_waypoint_path(wps, cruise_speed=0.3, sample_time=0.05)
        assert np.allclose(traj.samples[0].position(), wps[0], atol=1e-12)
        assert np.allclose(traj.samples[-1].position(), wps[-1], atol=1e-9)
        assert np.linalg.norm(traj.samples[-1].delta()) < 1e-12
        assert np.linalg.norm(traj.samples[-1].next_delta()) < 1e-12

    def test_deltas_change_smoothly(self):
        wps = [(0.0, 0.0), (2.0, 0.5), (4.0, 0.0), (5.0, 1.5)]
        traj = make_waypoint_path(wps, cruise_speed=0.3, sample_time=0.05)
        deltas = np.array([p.delta() for p in traj.samples])
        jumps = np.linalg.norm(np.diff(deltas, axis=0), axis=1)
        assert np.max(jumps) < 0.2 * 0.3 * 0.05
        assert np.max(np.linalg.norm(deltas, axis=1)) < 0.3 * 0.05 * 1.01

    def test_short_path_uses_triangular_profile(self):
        traj = make_waypoint_path(
            [(0.0, 0.0), (0.2, 0.0)], cruise_speed=1.0, sample_time=0.05, ramp_time=2.0
        )
        speeds = np.linalg.norm(np.diff(traj.positions(), axis=0), axis=1) / 0.05
        peak = speeds.max()
        # v_peak = sqrt(accel * length) with accel = 0.5 m/s^2
        assert peak < 1.0
        assert abs(peak - math.sqrt(0.5 * 0.2)) < 0.02

    def test_catmull_rom_hits_segment_endpoints(self):
        rng = np.random.default_rng(6)
        p0, p1, p2, p3 = rng.normal(size=(4, 2))
        assert np.allclose(catmull_rom_point(p0, p1, p2, p3, 0.0), p1, atol=1e-15)
        assert np.allclose(catmull_rom_point(p0, p1, p2, p3, 1.0), p2, atol=1e-12)

    def test_bad_waypoint_arguments_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            make_waypoint_path([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            make_waypoint_path([(0.0, 0.0)])
        with pytest.raises(ValueError):
            make_waypoint_path([(0.0, 0.0), (1.0, 0.0)], cruise_speed=0.0)


class TestPlants:
    def test_nominal_plant_single_step_matches_kinematic_model(self):
        start = (0.3, -0.2, 0.4)
        plant = NominalPlant(replace(PARAMS, actuator_alpha=0.0), start)
        dx, dy, dphi = plant.step(0.3, 0.5)
        want = forward_first_order(0.4, TrackCommand(0.3, 0.5), PARAMS)
        assert dx == pytest.approx(want.dx, abs=1e-15)
        assert dy == pytest.approx(want.dy, abs=1e-15)
        assert dphi == pytest.approx(want.dphi, abs=1e-15)

    def test_nominal_plant_actuator_lag_filters_commands(self):
        plant = NominalPlant(replace(PARAMS, actuator_alpha=0.1), (0.0, 0.0, 0.0))
        plant.step(1.0, 1.0)
        assert plant.vel[0] == pytest.approx(0.9, abs=1e-15)
        plant.step(1.0, 1.0)
        assert plant.vel[0] == pytest.approx(0.99, abs=1e-15)

    def test_nominal_plant_saturates_track_speeds(self):
        plant = NominalPlant(replace(PARAMS, actuator_alpha=0.0), (0.0, 0.0, 0.0))
        plant.step(10.0, -10.0)
        assert plant.vel == (PARAMS.max_track_speed, -PARAMS.max_track_speed)

    def test_slip_plant_flat_no_slip_drives_straight(self):
        world = SlipPlaneWorld()
        rng = np.random.default_rng(0)
        plant = SlipPlant(PARAMS, world, (1.0, 2.0, 0.3), rng)
        v = 0.4
        dx, dy, dphi = plant.step(v, v)
        realized = (1.0 - PARAMS.actuator_alpha) * v
        want = realized * PARAMS.sample_time
        assert dx == pytest.approx(want * math.cos(0.3), abs=1e-12)
        assert dy == pytest.approx(want * math.sin(0.3), abs=1e-12)
        assert dphi == pytest.approx(0.0, abs=1e-15)
        a_l, _, beta = plant.slip
        assert a_l == 0.0 and beta == 0.0

    def test_slip_plant_reports_offset_point_differences(self):
        world = SlipPlaneWorld(slope=0.3, base_slip=0.1, friction=0.6, beta_gain=0.05)
        plant = SlipPlant(PARAMS, world, (0.0, 0.0, 0.7), np.random.default_rng(1))
        before_b = plant.offset
        before_c = plant.center
        dx, dy, _ = plant.step(0.5, 0.3)
        after_b = plant.offset
        want = offset_point(plant.center, PARAMS)
        assert after_b[0] == pytest.approx(want[0], abs=1e-15)
        assert dx == pytest.approx(after_b[0] - before_b[0], abs=1e-15)
        assert dy == pytest.approx(after_b[1] - before_b[1], abs=1e-15)
        assert plant.center[0] != before_c[0]

    def test_slip_plant_measures_the_offset_point_once_per_step(self, monkeypatch):
        calls = []

        def counted(pose, params):
            calls.append(pose)
            return offset_point(pose, params)

        monkeypatch.setattr(sim, "offset_point", counted)
        world = SlipPlaneWorld(slope=0.3, base_slip=0.1, noise_sigma=1e-3)
        plant = SlipPlant(PARAMS, world, (0.0, 0.0, 0.7), np.random.default_rng(1))
        assert calls == [(0.0, 0.0, 0.7)]
        for k in range(1, 6):
            plant.step(0.5, 0.3)
            assert len(calls) == 1 + k
            assert calls[-1] == plant.center

    def test_nominal_plant_step_matches_the_model_matrix(self):
        # the step multiplies in floats; offset_model_matrix is its oracle
        rng = np.random.default_rng(14)
        for _ in range(300):
            params = VehicleParams(
                tread=float(rng.uniform(0.2, 1.0)),
                steering_efficiency=float(rng.uniform(0.3, 1.0)),
                offset=float(rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])),
                sample_time=float(rng.uniform(0.01, 0.1)),
                actuator_alpha=0.0,
            )
            phi = float(rng.uniform(-math.pi, math.pi))
            speeds = rng.uniform(-params.max_track_speed, params.max_track_speed, size=2)
            plant = NominalPlant(params, (0.0, 0.0, phi))
            got = np.array(plant.step(*speeds.tolist()))
            m = offset_model_matrix(phi, params)
            want = params.sample_time * (m @ speeds)
            scale = params.sample_time * (np.abs(m) @ np.abs(speeds))
            assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_slip_plant_noise_blocks_are_the_per_step_draws(self, monkeypatch):
        # the noise is drawn NOISE_BLOCK steps at a time; across a block
        # boundary it is, to the bit, one normal(size=3) draw per step.
        # Without the slip model's motion the center moves by the noise alone
        monkeypatch.setattr(sim, "slip_forward", lambda *args: (0.0, 0.0, 0.0))
        world = SlipPlaneWorld(slope=0.3, base_slip=0.1, noise_sigma=1e-3)
        plant = SlipPlant(PARAMS, world, (0.0, 0.0, 0.0), np.random.default_rng(3))
        rng = np.random.default_rng(3)
        x = y = phi = 0.0
        for _ in range(sim.NOISE_BLOCK + 5):
            plant.step(0.5, 0.3)
            nx, ny, nphi = rng.normal(0.0, 1e-3, size=3).tolist()
            x, y, phi = x + nx, y + ny, phi + nphi
            assert plant.center == (x, y, phi)

    def test_slip_plant_noise_is_seeded(self):
        world = SlipPlaneWorld(noise_sigma=1e-3)
        mk = lambda seed: SlipPlant(
            PARAMS, world, (0.0, 0.0, 0.0), np.random.default_rng(seed)
        )
        a, b, c = mk(7), mk(7), mk(8)
        da = a.step(0.5, 0.4)
        db = b.step(0.5, 0.4)
        dc = c.step(0.5, 0.4)
        assert da == db
        assert da[0] != dc[0]


class TestRollout:
    def test_nominal_loop_tracks_exactly_from_zero_error(self):
        traj = make_figure8(amplitude=1.5, period_steps=400, sample_time=0.05)
        for order, gains in ((1, GAINS1), (2, GAINS2)):
            log = rollout(traj, gains, order, PARAMS, plant="nominal")
            metrics = cartesian_error(log)
            assert metrics.mean_error < 1e-6, f"order {order}"
            assert metrics.max_error < 1e-5, f"order {order}"

    def test_slip_plant_leaves_nominal_controller_with_error(self):
        traj = make_figure8(amplitude=1.5, period_steps=400, sample_time=0.05)
        world = SlipPlaneWorld(slope=0.4, base_slip=0.15, friction=0.6)
        log = rollout(traj, GAINS2, 2, PARAMS, plant="slip", world=world, seed=0)
        assert cartesian_error(log).mean_error > 1e-3

    def test_identical_seeds_give_bit_identical_logs(self):
        traj = make_circle(radius=1.0, period_steps=200, sample_time=0.05)
        world = SlipPlaneWorld(slope=0.3, base_slip=0.1, noise_sigma=5e-4)
        kw = dict(plant="slip", world=world, seed=42)
        log1 = rollout(traj, GAINS2, 2, PARAMS, **kw)
        log2 = rollout(traj, GAINS2, 2, PARAMS, **kw)
        log3 = rollout(traj, GAINS2, 2, PARAMS, plant="slip", world=world, seed=43)
        for name in ("x", "y", "phi", "dx", "dy", "dphi", "vl_cmd", "err"):
            assert np.array_equal(getattr(log1, name), getattr(log2, name)), name
        assert not np.array_equal(log1.x, log3.x)

    def test_log_deltas_integrate_the_offset_point(self):
        traj = make_figure8(amplitude=1.0, period_steps=300, sample_time=0.05)
        world = SlipPlaneWorld(slope=0.3, base_slip=0.1)
        for kw in (dict(plant="nominal"), dict(plant="slip", world=world)):
            log = rollout(traj, GAINS2, 2, PARAMS, seed=3, **kw)
            assert np.allclose(log.x_b[1:], log.x_b[:-1] + log.dx[:-1], atol=1e-12)
            assert np.allclose(log.y_b[1:], log.y_b[:-1] + log.dy[:-1], atol=1e-12)

    def test_err_column_is_reference_to_offset_distance(self):
        traj = make_circle(radius=1.0, period_steps=150, sample_time=0.05)
        world = SlipPlaneWorld(slope=0.2, base_slip=0.1)
        log = rollout(traj, GAINS2, 2, PARAMS, plant="slip", world=world, seed=1)
        want = np.hypot(log.ref_x - log.x_b, log.ref_y - log.y_b)
        assert np.allclose(log.err, want, atol=1e-14)

    def test_plugged_inverse_sees_the_realized_delta_and_drives_the_tracks(self):
        # the contract a learned slot, and the benchmark's recording wrapper
        # around it, rely on: a PoseDelta in, a TrackCommand out
        traj = make_figure8(amplitude=1.0, period_steps=120, sample_time=0.05)
        world = SlipPlaneWorld(slope=0.3, base_slip=0.1, noise_sigma=1e-3)
        seen, issued = [], []

        def plugged(u, delta, phi):
            seen.append((delta.dx, delta.dy, delta.dphi))
            closed = inverse_second_order(u, delta, phi, PARAMS)
            cmd = TrackCommand(0.9 * closed.left, closed.right + 1e-3)
            issued.append((cmd.left, cmd.right))
            return cmd

        log = rollout(traj, GAINS2, 2, PARAMS, plant="slip", world=world, seed=5,
                      inverse_model=plugged)
        assert len(seen) == len(log)
        realized = np.column_stack([log.dx, log.dy, log.dphi])
        assert seen[0] == (0.0, 0.0, 0.0)  # nothing realized before the first step
        assert np.array_equal(np.array(seen[1:]), realized[:-1])
        assert np.array_equal(np.array(issued), np.column_stack([log.vl_cmd, log.vr_cmd]))

    def test_a_slot_that_mutates_its_delta_changes_nothing(self):
        # the value types are not frozen: the tracker builds the delta anew
        # from its own floats at every step, so a slot that writes into the
        # one it was handed cannot reach the next step or the log
        traj = make_figure8(amplitude=1.0, period_steps=120, sample_time=0.05)
        world = SlipPlaneWorld(slope=0.3, base_slip=0.1, noise_sigma=1e-3)
        handed = []

        def closed(u, delta, phi):
            return inverse_second_order(u, delta, phi, PARAMS)

        def mutating(u, delta, phi):
            cmd = closed(u, delta, phi)
            handed.append(delta)
            delta.dx, delta.dy, delta.dphi = 1e3, -1e3, 3.0
            return cmd

        kw = dict(plant="slip", world=world, seed=5)
        want = rollout(traj, GAINS2, 2, PARAMS, inverse_model=closed, **kw)
        got = rollout(traj, GAINS2, 2, PARAMS, inverse_model=mutating, **kw)
        assert len(handed) == len(got) and len({id(d) for d in handed}) == len(handed)
        for name in sim._LOG_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_non_finite_state_aborts_with_step_index(self):
        traj = make_circle(radius=1.0, period_steps=100, sample_time=0.05)
        bad = lambda u, delta, phi: TrackCommand(math.nan, math.nan)
        with pytest.raises(NumericsError, match="step 0"):
            rollout(traj, GAINS2, 2, PARAMS, plant="nominal", inverse_model=bad)

    @pytest.mark.parametrize("plant", ["nominal", "slip"])
    def test_infinite_command_aborts_at_its_step(self, plant):
        # the command check, not the actuator's clip, must see the inf
        traj = make_circle(radius=1.0, period_steps=100, sample_time=0.05)
        calls = []

        def diverging(u, delta, phi):
            calls.append(1)
            if len(calls) == 8:
                return TrackCommand(math.inf, 0.0)
            return inverse_second_order(u, delta, phi, PARAMS)

        world = SlipPlaneWorld(slope=0.3, base_slip=0.1)
        with pytest.raises(NumericsError, match="step 7"):
            rollout(traj, GAINS2, 2, PARAMS, plant=plant, world=world, inverse_model=diverging)
        assert len(calls) == 8

    def test_overflowing_slip_ratio_aborts_at_its_step(self, monkeypatch):
        # the plant, not the command, fails: |v_l / v_r| ** n overflows a
        # float for a huge slip exponent at the first step whose left track
        # runs faster than its right, after steps that turned the other way
        traj = make_figure8(amplitude=0.5, period_steps=120, sample_time=0.05)
        world = SlipPlaneWorld(slope=0.61, base_slip=0.1, slip_exponent=1.0e300)
        speeds = []

        def recorded(vl, vr, world):
            speeds.append((vl, vr))
            return slip_ratios(vl, vr, world)

        monkeypatch.setattr(sim, "slip_ratios", recorded)
        with pytest.raises(NumericsError) as info:
            rollout(traj, GAINS2, 2, PARAMS, plant="slip", world=world)
        assert isinstance(info.value.__cause__, OverflowError)
        *ran, (vl, vr) = speeds
        assert len(ran) > 0
        assert all(abs(a / b) <= 1.0 for a, b in ran if b != 0.0)
        assert abs(vl / vr) > 1.0
        assert str(info.value).startswith(f"loop state went non-finite at step {len(ran)}:")

    def test_argument_validation(self):
        traj = make_circle(radius=1.0, period_steps=100)
        with pytest.raises(ValueError, match="world"):
            rollout(traj, GAINS2, 2, PARAMS, plant="slip")
        with pytest.raises(ValueError, match="order"):
            rollout(traj, GAINS2, 3, PARAMS)
        with pytest.raises(ValueError, match="order-2"):
            rollout(traj, GAINS1, 1, PARAMS, inverse_model=lambda u, d, p: None)
        with pytest.raises(ValueError, match="plant"):
            rollout(traj, GAINS2, 2, PARAMS, plant="mud")


class TestMetrics:
    def test_perfect_tracking_gives_zero_errors(self):
        ref = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])
        metrics = cartesian_error(manual_log(ref, ref.copy()))
        assert np.array_equal(metrics.errors, np.zeros(3))
        assert metrics.mean_error == 0.0 and metrics.max_error == 0.0

    def test_constant_offset_gives_three_four_five_error(self):
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        metrics = cartesian_error(manual_log(ref, ref + np.array([0.3, 0.4])))
        assert np.allclose(metrics.errors, 0.5, atol=1e-15)
        assert metrics.mean_error == pytest.approx(0.5)
        assert metrics.max_error == pytest.approx(0.5)

    def test_matches_direct_recomputation_on_random_log(self):
        rng = np.random.default_rng(9)
        ref = rng.normal(size=(50, 2))
        pose = rng.normal(size=(50, 2))
        metrics = cartesian_error(manual_log(ref, pose))
        want = np.linalg.norm(ref - pose, axis=1)
        assert np.allclose(metrics.errors, want, atol=1e-14)
        assert metrics.mean_error <= metrics.max_error
        assert np.all(metrics.errors >= 0.0)

    def test_aggregate_consistency_is_enforced(self):
        with pytest.raises(ValueError):
            Metrics(np.array([1.0]), mean_error=2.0, max_error=1.0)


class TestDatasetExtraction:
    def test_log_of_length_l_yields_l_minus_2_samples(self):
        traj = make_circle(radius=1.0, period_steps=100, sample_time=0.05)
        log = rollout(traj, GAINS2, 2, PARAMS)
        data = extract_dataset(log)
        assert len(data) == len(log) - 2
        assert data.inputs.shape == (len(log) - 2, 6)
        assert data.targets.shape == (len(log) - 2, 2)

    def test_sample_layout_reads_adjacent_rows(self):
        traj = make_circle(radius=1.0, period_steps=80, sample_time=0.05)
        log = rollout(traj, GAINS2, 2, PARAMS)
        data = extract_dataset(log)
        assert np.array_equal(data.inputs[:, 0], log.dx[2:])
        assert np.array_equal(data.inputs[:, 1], log.dy[2:])
        assert np.array_equal(data.inputs[:, 2], log.dx[1:-1])
        assert np.array_equal(data.inputs[:, 3], log.dy[1:-1])
        assert np.array_equal(data.inputs[:, 4], log.dphi[1:-1])
        assert np.array_equal(data.inputs[:, 5], log.phi[1:-1])
        assert np.array_equal(data.targets[:, 0], log.vl_cmd[2:])
        assert np.array_equal(data.targets[:, 1], log.vr_cmd[2:])

    def test_closed_form_inverse_reproduces_logged_commands(self):
        """On nominal logs the extraction pairing must be exactly invertible."""
        traj = make_figure8(amplitude=1.5, period_steps=400, sample_time=0.05)
        log = rollout(traj, GAINS2, 2, PARAMS, plant="nominal")
        data = extract_dataset(log)
        worst = 0.0
        for w, z in zip(data.inputs, data.targets):
            cmd = inverse_second_order(
                w[:2], PoseDelta(w[2], w[3], w[4]), w[5], PARAMS
            )
            worst = max(worst, abs(cmd.left - z[0]), abs(cmd.right - z[1]))
        assert worst < 1e-9

    def test_short_log_rejected(self):
        ref = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="3 log rows"):
            extract_dataset(manual_log(ref, ref.copy()))

    def test_split_is_disjoint_exhaustive_and_seeded(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.normal(size=(100, 6)), rng.normal(size=(100, 2)))
        train, test = split_dataset(data, train_fraction=0.8, seed=4)
        assert len(train) == 80 and len(test) == 20
        joined = np.vstack([train.inputs, test.inputs])
        assert np.array_equal(
            np.sort(joined, axis=0), np.sort(data.inputs, axis=0)
        )
        train2, _ = split_dataset(data, train_fraction=0.8, seed=4)
        assert np.array_equal(train.inputs, train2.inputs)
        train3, _ = split_dataset(data, train_fraction=0.8, seed=5)
        assert not np.array_equal(train.inputs, train3.inputs)

    def test_split_rejects_degenerate_requests(self):
        data = Dataset(np.zeros((1, 6)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            split_dataset(data)
        big = Dataset(np.zeros((10, 6)), np.zeros((10, 2)))
        with pytest.raises(ValueError):
            split_dataset(big, train_fraction=1.5)


class TestLearnedSlot:
    """The slot reads the layout extraction writes: sim.SLOT_INPUTS."""

    def test_query_rows_have_the_extracted_layout(self, monkeypatch):
        # the row the slot hands predict at step t+1 is that step's desired
        # translation, then the columns extraction takes from log row t
        traj = make_figure8(amplitude=1.0, period_steps=120, sample_time=0.05)
        world = SlipPlaneWorld(slope=0.3, base_slip=0.1, noise_sigma=1e-3)
        data = extract_dataset(rollout(traj, GAINS2, 2, PARAMS, plant="slip", world=world,
                                       seed=4))
        inverse = sim.learned_inverse(fit(data.inputs, data.targets,
                                          FitConfig(max_iter=20, restarts=0)))
        rows, desired = [], []

        def recording_predict(model, w, _fn=sim.predict):
            rows.append(w)
            return _fn(model, w)

        def slot(u, delta, phi):
            desired.append(u)
            return inverse(u, delta, phi)

        monkeypatch.setattr(sim, "predict", recording_predict)
        log = rollout(traj, GAINS2, 2, PARAMS, plant="slip", world=world, seed=5,
                      inverse_model=slot)
        inputs = extract_dataset(log).inputs
        assert len(rows) == len(desired) == len(log)
        assert all(len(row) == len(sim.SLOT_INPUTS) for row in rows)
        for t in range(1, len(log) - 1):
            row = rows[t + 1]
            assert tuple(row[:2]) == tuple(desired[t + 1])
            assert tuple(row[2:5]) == tuple(inputs[t - 1][2:5])
            # the heading at the delta's start is the pose's heading less
            # the delta, equal to the logged one up to rounding
            assert row[5] == pytest.approx(inputs[t - 1][5], rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("inputs, outputs", [(5, 2), (6, 3)])
    def test_a_model_of_another_width_is_rejected_by_name(self, inputs, outputs):
        rng = np.random.default_rng(3)
        model = fit(rng.normal(size=(12, inputs)), rng.normal(size=(12, outputs)),
                    FitConfig(restarts=0, max_iter=5))
        with pytest.raises(ValueError) as caught:
            sim.learned_inverse(model)
        message = str(caught.value)
        assert str(sim.SLOT_INPUTS) in message and str(sim.SLOT_TARGETS) in message
        assert f"inputs {model.inputs.shape}, outputs {outputs}" in message


class TestCsvPersistence:
    def test_log_round_trip_is_exact(self, tmp_path):
        traj = make_circle(radius=1.0, period_steps=120, sample_time=0.05)
        world = SlipPlaneWorld(slope=0.3, base_slip=0.1, noise_sigma=1e-3)
        log = rollout(traj, GAINS2, 2, PARAMS, plant="slip", world=world, seed=5)
        path = tmp_path / "run.csv"
        save_log(log, str(path))
        loaded = load_log(str(path))
        for name in (
            "ref_x", "ref_y", "x", "y", "phi", "x_b", "y_b",
            "dx", "dy", "dphi", "vl_cmd", "vr_cmd", "vl_real", "vr_real",
            "a_l", "a_r", "beta", "err",
        ):
            assert np.array_equal(getattr(log, name), getattr(loaded, name)), name

    def test_log_header_is_pinned(self, tmp_path):
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        path = tmp_path / "log.csv"
        save_log(manual_log(ref, ref.copy()), str(path))
        first = path.read_text().splitlines()[0]
        assert first == ",".join(LOG_COLUMNS)
        assert first.startswith("t,x_d,y_d,x,y,phi,x_B,y_B,dx,dy,dphi")

    def test_dataset_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        data = Dataset(rng.normal(size=(40, 6)), rng.normal(size=(40, 2)))
        path = tmp_path / "data.csv"
        save_dataset(data, str(path))
        loaded = load_dataset(str(path))
        assert np.array_equal(loaded.inputs, data.inputs)
        assert np.array_equal(loaded.targets, data.targets)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(DATASET_COLUMNS) == "w1,w2,w3,w4,w5,w6,z1,z2"

    def test_rows_are_the_bytes_csv_writer_gives(self, tmp_path):
        # the oracle is the csv module fed repr(float(v)), the way rows were
        # written before they were joined by hand
        header = ("t", "a", "b")
        rows = [(0, 0.1, -0.0), (1, 5e-324, 1.7976931348623157e308), (12, 1e-05, -2.5e16),
                (10**6, 1 / 3, 123456789.0)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
        path = tmp_path / "rows.csv"
        sim.write_csv(str(path), header, rows)
        assert path.read_text() == buf.getvalue()
        with pytest.raises(ValueError, match="row has 2 fields, want 3"):
            sim.write_csv(str(path), header, [(0, 1.0)])

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_log(str(path))
        with pytest.raises(ValueError, match="header"):
            load_dataset(str(path))

    def test_no_temp_files_left_behind(self, tmp_path):
        rng = np.random.default_rng(14)
        data = Dataset(rng.normal(size=(5, 6)), rng.normal(size=(5, 2)))
        save_dataset(data, str(tmp_path / "d.csv"))
        save_dataset(data, str(tmp_path / "d.csv"))
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []
