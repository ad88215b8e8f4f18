"""Reference trajectories, closed-loop rollouts, and dataset extraction.

The rollout engine wires a tracker from the control module to one of two
plants at a fixed sample time: the nominal plant integrates the offset
pose under the exact difference model (so nominal control is exact on
it), while the slip plant integrates the vehicle center through the
tilted-plane slip equations and reports offset-pose deltas by
differencing, the way odometry would. Each plant keeps its state as
plain floats: both poses, offset and center, as (x, y, phi) tuples, the
filtered track speeds and the slip state, all updated once per step; a
step returns the realized offset delta as (dx, dy, dphi). Per step the
loop builds only what the inverse-model slot's signature asks for: the
newest delta as a PoseDelta and the TrackCommand the inverse returns;
the desired translation is a float pair. No plant step and no
closed-form inverse makes a BLAS call, so their bits do not depend on the
BLAS library or its kernel; only the learned slot's GP query does.

Log rows follow one convention throughout: row k holds the pose read at
step k (before moving), the command issued at step k, and the offset
delta realized by that step. Dataset extraction pairs each interior row
with its successor to invert the actuator recursion.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .control import (
    FirstOrderTracker,
    Gains,
    InverseModelFn,
    ReferencePoint,
    SecondOrderTracker,
)
from .gp import Dataset, GpModel, atomic_write_text, predict
from .kinematics import (
    Pose,
    PoseDelta,
    TrackCommand,
    VehicleParams,
    center_pose,
    check_delta,
    checked_pose,
    offset_point,
    wrap_angle,
)
from .terrain3d import SlipPlaneWorld, slip_forward, slip_ratios

# dense polyline spacing used to represent the waypoint spline; small
# enough that chord error is far below the waypoint-hit tolerance
SPLINE_SPACING = 1e-3

# longest reference the builders will sample: 5,000 s at the default
# 20 Hz, and about 40 MB of reference points, checked before any sample
# is built so that a tiny speed or sample time cannot exhaust memory
MAX_REFERENCE_SAMPLES = 100_000

# farthest a reference may reach from the origin, in meters; far enough
# for any vehicle run, and near enough that the reference speeds and the
# error sums over MAX_REFERENCE_SAMPLES steps stay finite floats
MAX_REFERENCE_EXTENT = 1e6

# most points a waypoint spline is traced with: a 1 km path at
# SPLINE_SPACING, 16 MB of points
MAX_SPLINE_POINTS = 1_000_000

# steps of slip-plant noise drawn at a time; a block of rows is the same
# sequence of draws as one normal(size=3) per step
NOISE_BLOCK = 256


class NumericsError(RuntimeError):
    """Rollout state became non-finite (diverged loop or bad config)."""


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Reference for the offset point, one sample per sample time."""

    samples: tuple[ReferencePoint, ...]

    def __post_init__(self) -> None:
        if len(self.samples) < 1:
            raise ValueError("trajectory needs at least one sample")

    def __len__(self) -> int:
        return len(self.samples)

    def positions(self) -> np.ndarray:
        return np.array([[p.x, p.y] for p in self.samples])


def _trajectory_from_positions(
    positions: np.ndarray, sample_time: float, size_key: str
) -> ReferenceTrajectory:
    """Build M reference points from M+2 positions (forward deltas).

    size_key names the parameter that scales the positions, for the
    error raised when they reach beyond MAX_REFERENCE_EXTENT.
    """
    if not np.max(np.abs(positions)) <= MAX_REFERENCE_EXTENT:
        raise ValueError(
            f"{size_key} puts the reference more than {MAX_REFERENCE_EXTENT:g} m "
            "from the origin"
        )
    deltas = np.diff(positions, axis=0)
    if not math.isfinite(float(np.max(np.abs(deltas))) / sample_time):
        raise ValueError(f"sample_time {sample_time} is too small: the reference speeds overflow")
    # plain floats, which the control law reads every step
    points, steps = positions.tolist(), deltas.tolist()
    samples = tuple(
        ReferencePoint(*points[k], *steps[k], *steps[k + 1])
        for k in range(len(points) - 2)
    )
    return ReferenceTrajectory(samples)


def _angle_grid(period_steps: int, laps: int) -> np.ndarray:
    """Angles of a closed curve sampled period_steps times per turn.

    Covers laps turns plus the two points past the end that the forward
    deltas of the last reference sample need.
    """
    if period_steps < 4:
        raise ValueError(f"period_steps must be at least 4, got {period_steps}")
    if laps < 1:
        raise ValueError(f"laps must be at least 1, got {laps}")
    if period_steps * laps + 1 > MAX_REFERENCE_SAMPLES:
        raise ValueError(
            f"period_steps {period_steps} times laps {laps} asks for "
            f"{period_steps * laps + 1} samples, more than {MAX_REFERENCE_SAMPLES}"
        )
    return 2.0 * math.pi * np.arange(period_steps * laps + 3) / period_steps


def make_figure8(
    amplitude: float = 2.0,
    period_steps: int = 800,
    sample_time: float = 0.05,
    laps: int = 1,
) -> ReferenceTrajectory:
    """Closed figure-8 (Gerono lemniscate), one point per sample time.

    x = A sin(theta), y = A sin(theta) cos(theta); theta sweeps one turn
    per period. Starts and ends at the origin crossing.
    """
    if amplitude <= 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    theta = _angle_grid(period_steps, laps)
    s = np.sin(theta)
    positions = amplitude * np.stack([s, s * np.cos(theta)], axis=1)
    return _trajectory_from_positions(positions, sample_time, "amplitude")


def make_circle(
    radius: float = 1.5,
    period_steps: int = 800,
    sample_time: float = 0.05,
    laps: int = 1,
) -> ReferenceTrajectory:
    """Closed circle starting at (radius, 0), counterclockwise."""
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    theta = _angle_grid(period_steps, laps)
    positions = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return _trajectory_from_positions(positions, sample_time, "radius")


def catmull_rom_point(
    p0: np.ndarray, p1: np.ndarray, p2: np.ndarray, p3: np.ndarray,
    u: float | np.ndarray,
) -> np.ndarray:
    """Uniform Catmull-Rom segment between p1 and p2 at parameter u.

    A column of parameters (shape (n, 1)) gives the n points as rows.
    """
    u2 = u * u
    u3 = u2 * u
    return 0.5 * (
        2.0 * p1
        + (p2 - p0) * u
        + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * u2
        + (3.0 * p1 - 3.0 * p2 + p3 - p0) * u3
    )


@dataclass(frozen=True)
class PathSpline:
    """Dense arc-length representation of a waypoint spline.

    points is a polyline tracing the Catmull-Rom curve through the
    waypoints; arclengths is the matching cumulative arc length, and
    waypoint_arclengths locates each waypoint on that parameterization.
    """

    waypoints: np.ndarray
    points: np.ndarray
    arclengths: np.ndarray
    waypoint_arclengths: np.ndarray

    @property
    def length(self) -> float:
        return float(self.arclengths[-1])

    def point_at(self, s: float | np.ndarray) -> np.ndarray:
        s = np.clip(np.asarray(s, dtype=float), 0.0, self.length)
        x = np.interp(s, self.arclengths, self.points[:, 0])
        y = np.interp(s, self.arclengths, self.points[:, 1])
        return np.stack([x, y], axis=-1)


def path_spline(waypoints: Sequence[Sequence[float]]) -> PathSpline:
    """Catmull-Rom spline through the waypoints, densely traced.

    Endpoint tangents come from mirrored phantom points, so a two-point
    path degenerates to the straight segment. Consecutive duplicate
    waypoints are rejected.
    """
    pts = np.asarray(waypoints, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two 2-D waypoints")
    if not np.all(np.isfinite(pts)):
        raise ValueError("waypoints contain non-finite values")
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if np.any(gaps < 1e-12):
        raise ValueError("points: consecutive waypoints coincide")
    control = np.vstack([2.0 * pts[0] - pts[1], pts, 2.0 * pts[-1] - pts[-2]])
    counts = [
        max(8, int(math.ceil(float(np.linalg.norm(p2 - p1)) / SPLINE_SPACING)))
        for p1, p2 in zip(pts[:-1], pts[1:])
    ]
    if sum(counts) > MAX_SPLINE_POINTS:
        raise ValueError(
            f"points: tracing the path every {SPLINE_SPACING} m takes {sum(counts)} "
            f"points, more than {MAX_SPLINE_POINTS}"
        )
    dense = [pts[0]]
    junction_idx = [0]
    for seg, n in enumerate(counts):
        p0, p1, p2, p3 = control[seg : seg + 4]
        u = np.arange(1, n + 1) / n
        dense.extend(catmull_rom_point(p0, p1, p2, p3, u[:, None]))
        junction_idx.append(len(dense) - 1)
    points = np.asarray(dense)
    arclengths = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))]
    )
    return PathSpline(
        waypoints=pts,
        points=points,
        arclengths=arclengths,
        waypoint_arclengths=arclengths[junction_idx],
    )


def _ramp_profile(length: float, cruise: float, ramp_time: float):
    """Arc length as a function of time under a trapezoidal speed profile.

    Accelerates at cruise/ramp_time, cruises, then decelerates; short
    paths take the triangular profile, which is the trapezoid with a
    shorter ramp and a peak below cruise. Returns (total_time, s_of_t).
    """
    accel = cruise / ramp_time
    if length >= cruise * ramp_time:
        total = length / cruise + ramp_time
    else:
        ramp_time = math.sqrt(length / accel)
        cruise = accel * ramp_time
        total = 2.0 * ramp_time

    def s_of_t(t: float) -> float:
        if t <= 0.0:
            return 0.0
        if t >= total:
            return length
        if t < ramp_time:
            return 0.5 * accel * t * t
        if t <= total - ramp_time:
            return 0.5 * cruise * ramp_time + cruise * (t - ramp_time)
        return length - 0.5 * accel * (total - t) ** 2

    return total, s_of_t


def make_waypoint_path(
    points: Sequence[Sequence[float]],
    cruise_speed: float = 0.3,
    sample_time: float = 0.05,
    ramp_time: float = 2.0,
) -> ReferenceTrajectory:
    """Free-form trajectory through waypoints at a cruising speed.

    The spline is resampled by arc length under a trapezoidal speed
    profile (ramp in, cruise, ramp out), so the reference starts and
    ends at rest exactly on the first and last waypoints.
    """
    if cruise_speed <= 0.0:
        raise ValueError(f"cruise_speed must be positive, got {cruise_speed}")
    if ramp_time <= 0.0:
        raise ValueError(f"ramp_time must be positive, got {ramp_time}")
    spline = path_spline(points)
    total, s_of_t = _ramp_profile(spline.length, cruise_speed, ramp_time)
    steps = int(math.ceil(total / sample_time))
    if steps + 1 > MAX_REFERENCE_SAMPLES:
        raise ValueError(
            f"cruise_speed {cruise_speed}, ramp_time {ramp_time} and sample_time "
            f"{sample_time} ask for {steps + 1} samples, more than {MAX_REFERENCE_SAMPLES}"
        )
    times = np.arange(steps + 3) * sample_time
    s = np.array([s_of_t(float(t)) for t in times])
    positions = spline.point_at(s)
    return _trajectory_from_positions(positions, sample_time, "points")


# ---------------------------------------------------------------------------
# plants


def _actuate(vel: tuple[float, float], left: float, right: float,
            params: VehicleParams) -> tuple[float, float]:
    """Clip the command (left, right) at the track-speed bound, then
    low-pass it from the (left, right) speeds vel with the pole
    params.actuator_alpha."""
    vmax, alpha = params.max_track_speed, params.actuator_alpha
    left, right = min(max(left, -vmax), vmax), min(max(right, -vmax), vmax)
    return alpha * vel[0] + (1.0 - alpha) * left, alpha * vel[1] + (1.0 - alpha) * right


class NominalPlant:
    """Integrates the offset pose under the exact difference model.

    Its tracks lag by params.actuator_alpha; a plant without lag is given
    params with actuator_alpha 0. It has no slip, so slip stays zero.
    """

    def __init__(self, params: VehicleParams, start: Pose):
        self.params = params
        self.offset = checked_pose(*start)
        self.center = center_pose(self.offset, params)
        self.vel = (0.0, 0.0)
        self.slip = (0.0, 0.0, 0.0)

    def step(self, left: float, right: float) -> tuple[float, float, float]:
        """Drive one interval under the command; the realized offset delta."""
        params = self.params
        self.vel = vl, vr = _actuate(self.vel, left, right, params)
        x, y, phi = self.offset
        # offset_model_matrix(phi, params) times the speeds, in floats
        c, s = math.cos(phi), math.sin(phi)
        chi, d, ts = params.steering_efficiency, params.tread, params.sample_time
        k = chi * params.offset / d
        dx = ts * ((0.5 * c + k * s) * vl + (0.5 * c - k * s) * vr)
        dy = ts * ((0.5 * s - k * c) * vl + (0.5 * s + k * c) * vr)
        dphi = ts * (-chi / d * vl + chi / d * vr)
        check_delta(dx, dy, dphi)
        self.offset = checked_pose(x + dx, y + dy, phi + dphi)
        self.center = center_pose(self.offset, params)
        return dx, dy, dphi


class SlipPlant:
    """Integrates the vehicle center through the tilted-plane slip model.

    The controller's offset point is measured on the world x-y
    projection of the center pose; offset deltas are reported by
    differencing those measurements, the way odometry would see them.
    The center-motion noise is drawn from rng NOISE_BLOCK steps at a time.
    """

    def __init__(
        self,
        params: VehicleParams,
        world: SlipPlaneWorld,
        start: Pose,
        rng: np.random.Generator,
    ):
        self.params = params
        self.world = world
        self.center = checked_pose(*start)
        self.offset = offset_point(self.center, params)
        self.vel = (0.0, 0.0)
        self.slip = (0.0, 0.0, 0.0)
        self._rng = rng
        self._noise: list[list[float]] = []  # drawn rows, next one last

    def step(self, left: float, right: float) -> tuple[float, float, float]:
        """Drive one interval under the command; the realized offset delta."""
        params, world = self.params, self.world
        self.vel = vl, vr = _actuate(self.vel, left, right, params)
        self.slip = slip_ratios(vl, vr, world)
        x, y, phi = self.center
        dx, dy, dphi = slip_forward(phi, vl, vr, self.slip, world, params)
        check_delta(dx, dy, dphi)
        if world.noise_sigma > 0.0:
            if not self._noise:
                block = self._rng.normal(0.0, world.noise_sigma, size=(NOISE_BLOCK, 3))
                self._noise = block.tolist()[::-1]
            nx, ny, nphi = self._noise.pop()
            dx, dy, dphi = dx + nx, dy + ny, dphi + nphi
        bx, by, bphi = self.offset
        self.center = checked_pose(x + dx, y + dy, phi + dphi)
        self.offset = ax, ay, aphi = offset_point(self.center, params)
        delta = ax - bx, ay - by, wrap_angle(aphi - bphi)
        check_delta(*delta)
        return delta


# ---------------------------------------------------------------------------
# rollout and logs

LOG_COLUMNS = (
    "t",
    "x_d",
    "y_d",
    "x",
    "y",
    "phi",
    "x_B",
    "y_B",
    "dx",
    "dy",
    "dphi",
    "vl_cmd",
    "vr_cmd",
    "vl_real",
    "vr_real",
    "a_l",
    "a_r",
    "beta",
    "err",
)


@dataclass(frozen=True)
class RolloutLog:
    """Columnar per-step record of one closed-loop run.

    Row k: reference sample k, center pose and offset point read before
    moving, the offset delta realized by step k, the command issued at
    step k, the filtered track speeds, and the slip state.
    """

    ref_x: np.ndarray
    ref_y: np.ndarray
    x: np.ndarray
    y: np.ndarray
    phi: np.ndarray
    x_b: np.ndarray
    y_b: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dphi: np.ndarray
    vl_cmd: np.ndarray
    vr_cmd: np.ndarray
    vl_real: np.ndarray
    vr_real: np.ndarray
    a_l: np.ndarray
    a_r: np.ndarray
    beta: np.ndarray
    err: np.ndarray

    def __post_init__(self) -> None:
        n = self.ref_x.shape[0]
        for name in _LOG_FIELDS:
            col = getattr(self, name)
            if col.ndim != 1 or col.shape[0] != n:
                raise ValueError(f"log column {name} has shape {col.shape}, want ({n},)")

    def __len__(self) -> int:
        return self.ref_x.shape[0]


# the per-step columns, in LOG_COLUMNS order after "t"
_LOG_FIELDS = tuple(f.name for f in fields(RolloutLog))


def rollout(
    traj: ReferenceTrajectory,
    gains: Gains,
    order: int,
    params: VehicleParams,
    plant: str = "nominal",
    world: Optional[SlipPlaneWorld] = None,
    seed: int = 0,
    inverse_model: Optional[InverseModelFn] = None,
) -> RolloutLog:
    """Run the closed loop over the whole reference trajectory.

    The run starts on the reference: the offset point sits on the first
    sample with heading taken from the first nonzero reference delta,
    and the vehicle is at rest. Deterministic given the seed.

    Raises NumericsError if the state ever goes non-finite or overflows,
    and ValueError for inconsistent arguments (slip plant without a world,
    learned inverse with a first-order law, unstable gains).
    """
    if plant not in ("nominal", "slip"):
        raise ValueError(f"plant must be 'nominal' or 'slip', got {plant!r}")
    if plant == "slip" and world is None:
        raise ValueError("slip plant requires a world")
    if order == 1:
        if inverse_model is not None:
            raise ValueError("a learned inverse model requires the order-2 law")
        tracker = FirstOrderTracker(gains, params)
    elif order == 2:
        tracker = SecondOrderTracker(gains, params, inverse_model=inverse_model)
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")

    phi0 = 0.0
    for p in traj.samples:
        if math.hypot(p.dx, p.dy) > 1e-12:
            phi0 = math.atan2(p.dy, p.dx)
            break
    start_b = checked_pose(traj.samples[0].x, traj.samples[0].y, phi0)
    # Actuator lag: the nominal plant mirrors the model the controller
    # inverts, so it lags only under the order-2 law; the slip plant is
    # the world, so its tracks always lag by params.actuator_alpha.
    if plant == "nominal":
        plant_params = params if order == 2 else replace(params, actuator_alpha=0.0)
        machine = NominalPlant(plant_params, start_b)
    else:
        machine = SlipPlant(
            params, world, center_pose(start_b, params), np.random.default_rng(seed)
        )

    rows = []
    for k, ref in enumerate(traj.samples):
        (x, y, phi), (x_b, y_b, _) = machine.center, machine.offset
        # the plants and the command and delta types reject non-finite
        # values, so divergence surfaces as ValueError inside the step; a
        # float power that overflows (a large slip exponent) raises
        # OverflowError
        try:
            cmd = tracker.command(ref, machine.offset)
            delta = machine.step(cmd.left, cmd.right)
        except (ValueError, OverflowError) as exc:
            raise NumericsError(
                f"loop state went non-finite at step {k}: {exc}"
            ) from exc
        # one value per _LOG_FIELDS entry, in order
        rows.append((
            ref.x, ref.y, x, y, phi, x_b, y_b, *delta, cmd.left, cmd.right,
            *machine.vel, *machine.slip, math.hypot(ref.x - x_b, ref.y - y_b),
        ))
        tracker.observe(delta)
    width = len(_LOG_FIELDS)
    flat = np.fromiter(itertools.chain.from_iterable(rows), float, count=len(rows) * width)
    return RolloutLog(*flat.reshape(-1, width).T.copy())  # one contiguous array per column


def learned_inverse(model: GpModel) -> InverseModelFn:
    """Adapt a trained regression model to the controller's inverse slot:
    each step's SLOT_INPUTS, built as extract_dataset builds a log row's,
    to the SLOT_TARGETS command."""
    if model.inputs.shape[1] != len(SLOT_INPUTS) or len(model.outputs) != len(SLOT_TARGETS):
        raise ValueError(
            f"model does not match the inverse slot's inputs {SLOT_INPUTS} and targets "
            f"{SLOT_TARGETS}: inputs {model.inputs.shape}, outputs {len(model.outputs)}"
        )

    def fn(u: tuple[float, float], delta: PoseDelta, phi: float) -> TrackCommand:
        row = _slot_inputs(u, (delta.dx, delta.dy, delta.dphi), phi)
        return TrackCommand(*predict(model, row).tolist())

    return fn


# ---------------------------------------------------------------------------
# metrics and dataset extraction


@dataclass(frozen=True)
class Metrics:
    """Cartesian tracking error along a rollout."""

    errors: np.ndarray
    mean_error: float
    max_error: float

    def __post_init__(self) -> None:
        if self.errors.size == 0:
            raise ValueError("metrics need at least one step")
        if self.mean_error < 0.0 or self.mean_error > self.max_error + 1e-15:
            raise ValueError("inconsistent error aggregates")


def cartesian_error(log: RolloutLog) -> Metrics:
    """Per-step distance between the reference and the offset point."""
    if len(log) == 0:
        raise ValueError("empty rollout log")
    errors = np.hypot(log.ref_x - log.x_b, log.ref_y - log.y_b)
    return Metrics(errors, float(errors.mean()), float(errors.max()))


# the learned inverse slot's inputs (w1, ...) and targets (z1, ...), in
# dataset column order; _slot_inputs alone writes the input order
SLOT_INPUTS = ("next_dx", "next_dy", "dx", "dy", "dphi", "phi")
SLOT_TARGETS = ("left", "right")


def _slot_inputs(u, delta, phi) -> tuple:
    """SLOT_INPUTS of the next offset translation u (dx, dy), realized in
    a log and desired at run time, the current offset delta (dx, dy, dphi)
    and the heading phi at its start: one step's floats or a log's columns."""
    return (*u, *delta, phi)


def extract_dataset(log: RolloutLog) -> Dataset:
    """Inverse-model training pairs from a rollout log.

    Anchored at interior rows t in [1, L-2]: the inputs are the offset
    translation realized by row t+1 and row t's delta and heading; the
    targets, the command issued at row t+1, which produced that
    translation. A length-L log therefore yields L-2 samples.
    """
    n = len(log)
    if n < 3:
        raise ValueError(f"need at least 3 log rows to extract samples, got {n}")
    t = np.arange(1, n - 1)
    w = np.column_stack(_slot_inputs((log.dx[t + 1], log.dy[t + 1]),
                                     (log.dx[t], log.dy[t], log.dphi[t]), log.phi[t]))
    z = np.column_stack([log.vl_cmd[t + 1], log.vr_cmd[t + 1]])
    return Dataset(w, z)


def split_dataset(
    data: Dataset, train_fraction: float = 0.8, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Seeded shuffle into disjoint, exhaustive train/test parts."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(data)
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = min(max(int(round(train_fraction * n)), 1), n - 1)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return (
        Dataset(data.inputs[train_idx], data.targets[train_idx]),
        Dataset(data.inputs[test_idx], data.targets[test_idx]),
    )


# ---------------------------------------------------------------------------
# CSV persistence


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write rows of Python ints and floats (as tolist() gives them) under
    header atomically; repr keeps every digit of a float."""
    ncols = len(header)
    lines = [",".join(header)]
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row has {len(row)} fields, want {ncols}")
        lines.append(",".join(map(repr, row)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path: str, header: Sequence[str]) -> np.ndarray:
    """The rows of a CSV under exactly this header, as an (n, columns) array."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = tuple(next(reader, ()))
        if found != tuple(header):
            raise ValueError(f"unexpected header in {path}: {found}, want {tuple(header)}")
        data = [[float(v) for v in row] for row in reader]
    return np.asarray(data, dtype=float).reshape(len(data), len(header))


def save_log(log: RolloutLog, path: str) -> None:
    columns = (getattr(log, name).tolist() for name in _LOG_FIELDS)
    write_csv(path, LOG_COLUMNS, zip(range(len(log)), *columns))


def load_log(path: str) -> RolloutLog:
    return RolloutLog(*read_csv(path, LOG_COLUMNS)[:, 1:].T.copy())


DATASET_COLUMNS = (*(f"w{i + 1}" for i in range(len(SLOT_INPUTS))),
                   *(f"z{i + 1}" for i in range(len(SLOT_TARGETS))))


def save_dataset(data: Dataset, path: str) -> None:
    write_csv(path, DATASET_COLUMNS, np.hstack([data.inputs, data.targets]).tolist())


def load_dataset(path: str) -> Dataset:
    arr = read_csv(path, DATASET_COLUMNS)
    return Dataset(*(part.copy() for part in np.hsplit(arr, [len(SLOT_INPUTS)])))
