"""Closed-form kinematics of a skid-steered tracked vehicle.

The vehicle is driven by left/right track speeds. Its center obeys a
unicycle-like model whose turn rate is derated by a steering efficiency
factor (tracks shear the ground when turning). Tracking is done on an
offset point ahead of the track centers; the offset removes the
nonholonomic constraint from the output coordinates, so the offset-point
model is square-invertible in the sense needed by the controllers.

Two model orders are provided. The first-order model maps commanded track
speeds straight to a pose delta over one sample interval. The second-order
model puts a one-pole low-pass (exponential moving average) between the
commanded and realized track speeds, so a command shapes the *next*
interval's delta.

All pose deltas produced here live on the offset pose (x_B, y_B, phi)
unless a function says otherwise.

The inverses, which a control loop calls every step, take the desired
translation as a pair of floats and form their pseudoinverse products in
plain float arithmetic (_pinv_times), one rounding per multiply and per
add. So a closed-form command has the same bits on any machine: a BLAS
gemv would leave it to the CPU's kernel whether its multiply-adds are
fused. The matrix builders (offset_model_pinv, offset_model_matrix) and
the forward models stay on numpy; they are the oracles the tests check
the inverses against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = (angle + math.pi) % TAU - math.pi
    if wrapped == -math.pi:
        return math.pi
    return wrapped


@dataclass(frozen=True)
class VehicleParams:
    """Geometry and actuation constants of the vehicle.

    Attributes:
        tread: distance between track centers [m], > 0.
        steering_efficiency: turn-rate derating in (0, 1]; 1 means ideal
            skid steering, values below 1 model track shear losses.
        offset: signed distance of the tracked output point ahead of the
            vehicle center [m]; must be nonzero or the offset model loses
            rank and the controllers cannot invert it.
        sample_time: control interval [s], > 0.
        actuator_alpha: pole of the track-speed low-pass in [0, 1); 0 means
            commands take effect within the same interval (first-order
            behavior), values near 1 mean sluggish tracks.
        max_track_speed: saturation bound applied by plants [m/s], > 0.
    """

    tread: float = 0.5
    steering_efficiency: float = 0.9
    offset: float = 0.25
    sample_time: float = 0.05
    actuator_alpha: float = 0.1
    max_track_speed: float = 2.0

    def __post_init__(self) -> None:
        if not (self.tread > 0.0 and math.isfinite(self.tread)):
            raise ValueError(f"tread must be positive, got {self.tread}")
        if not (0.0 < self.steering_efficiency <= 1.0):
            raise ValueError(
                "steering_efficiency must lie in (0, 1], got "
                f"{self.steering_efficiency}"
            )
        if self.offset == 0.0 or not math.isfinite(self.offset):
            raise ValueError("offset must be nonzero and finite")
        if not (self.sample_time > 0.0 and math.isfinite(self.sample_time)):
            raise ValueError(f"sample_time must be positive, got {self.sample_time}")
        if not (0.0 <= self.actuator_alpha < 1.0):
            raise ValueError(
                f"actuator_alpha must lie in [0, 1), got {self.actuator_alpha}"
            )
        if not (self.max_track_speed > 0.0):
            raise ValueError(
                f"max_track_speed must be positive, got {self.max_track_speed}"
            )


# planar pose (x, y, phi) of the vehicle center or of the offset point,
# phi wrapped to (-pi, pi]; both points share the heading
Pose = tuple[float, float, float]


def checked_pose(x: float, y: float, phi: float) -> Pose:
    """The pose (x, y, phi) with phi wrapped; ValueError unless all are finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"pose components must be finite, got {(x, y, phi)}")
    return x, y, wrap_angle(phi)


def check_delta(dx: float, dy: float, dphi: float) -> None:
    """Raise ValueError unless (dx, dy, dphi) is a finite one-interval
    increment: a single step can never rotate by half a turn."""
    if not (math.isfinite(dx) and math.isfinite(dy) and math.isfinite(dphi)):
        raise ValueError(f"delta components must be finite, got {(dx, dy, dphi)}")
    if abs(dphi) >= math.pi:
        raise ValueError(f"|dphi| must be < pi, got {dphi}")


@dataclass(slots=True)
class PoseDelta:
    """One-interval pose increment (dx, dy, dphi).

    dphi is a genuine per-step increment, not a wrapped angle, checked by
    check_delta. Slotted, not frozen (a frozen init costs more than a
    control step's arithmetic): the tracker builds a new one per step, so
    a slot that mutates the one it is handed changes nothing.
    """

    dx: float
    dy: float
    dphi: float

    def __post_init__(self) -> None:
        check_delta(self.dx, self.dy, self.dphi)

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dphi])

    def xy(self) -> np.ndarray:
        return np.array([self.dx, self.dy])


@dataclass(slots=True)
class TrackCommand:
    """Left/right track speed pair [m/s], slotted like PoseDelta. Its own
    finiteness check is what stops an infinite command: the plants clip it
    to max_track_speed before check_delta sees the realized delta."""

    left: float
    right: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.left) and math.isfinite(self.right)):
            raise ValueError(f"track speeds must be finite, got {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.left, self.right])


def offset_point(pose: Pose, params: VehicleParams) -> Pose:
    """Project the center pose to the offset output point.

    The point sits `offset` meters along the heading axis:
    x_B = x + offset*cos(phi), y_B = y + offset*sin(phi).
    """
    x, y, phi = pose
    b = params.offset
    return checked_pose(x + b * math.cos(phi), y + b * math.sin(phi), phi)


def center_pose(pose_b: Pose, params: VehicleParams) -> Pose:
    """Inverse of offset_point: recover the center pose."""
    x, y, phi = pose_b
    b = params.offset
    return checked_pose(x - b * math.cos(phi), y - b * math.sin(phi), phi)


def center_model_matrix(phi: float, params: VehicleParams) -> np.ndarray:
    """3x2 matrix mapping track speeds to center pose rates (x, y, phi).

    Columns correspond to (left, right). The turn-rate row carries the
    steering-efficiency derating.
    """
    c, s = math.cos(phi), math.sin(phi)
    chi, d = params.steering_efficiency, params.tread
    return np.array(
        [
            [0.5 * c, 0.5 * c],
            [0.5 * s, 0.5 * s],
            [-chi / d, chi / d],
        ]
    )


def center_model_pinv(phi: float, params: VehicleParams) -> np.ndarray:
    """Closed-form left inverse of center_model_matrix (2x3).

    A left inverse only: it does not satisfy the block consistency
    condition needed for exact output tracking (see
    consistency_condition), which is why control runs on the offset model.
    """
    c, s = math.cos(phi), math.sin(phi)
    chi, d = params.steering_efficiency, params.tread
    half = 0.5 * d / chi
    return np.array(
        [
            [c, s, -half],
            [c, s, half],
        ]
    )


def offset_model_matrix(phi: float, params: VehicleParams) -> np.ndarray:
    """3x2 matrix mapping track speeds to offset pose rates (x_B, y_B, phi)."""
    c, s = math.cos(phi), math.sin(phi)
    chi, d, b = params.steering_efficiency, params.tread, params.offset
    k = chi * b / d
    return np.array(
        [
            [0.5 * c + k * s, 0.5 * c - k * s],
            [0.5 * s - k * c, 0.5 * s + k * c],
            [-chi / d, chi / d],
        ]
    )


def offset_model_pinv(phi: float, params: VehicleParams) -> np.ndarray:
    """Closed-form pseudoinverse of offset_model_matrix (2x3).

    Its third column is zero: track speeds are recovered from the
    translational part of the offset-point rate alone. Unlike the center
    model, this inverse satisfies the block consistency condition, so any
    desired offset-point translation is exactly reachable.
    """
    c, s = math.cos(phi), math.sin(phi)
    chi, d, b = params.steering_efficiency, params.tread, params.offset
    r = 0.5 * d / (chi * b)
    return np.array(
        [
            [c + r * s, s - r * c, 0.0],
            [c - r * s, s + r * c, 0.0],
        ]
    )


def consistency_condition(g: np.ndarray, g_pinv: np.ndarray, tol: float = 1e-10) -> bool:
    """Check the exact-tracking condition on a model/inverse pair.

    The product g @ g_pinv must have an identity top-left 2x2 block and a
    zero top-right 2x1 block; the heading row is unconstrained (heading is
    not a tracked output). Pairs passing this check make the forward model
    reproduce any commanded translational delta exactly.
    """
    g = np.asarray(g, dtype=float)
    g_pinv = np.asarray(g_pinv, dtype=float)
    if g.shape != (3, 2) or g_pinv.shape != (2, 3):
        raise ValueError(
            f"expected shapes (3, 2) and (2, 3), got {g.shape} and {g_pinv.shape}"
        )
    prod = g @ g_pinv
    top_left_ok = np.allclose(prod[:2, :2], np.eye(2), rtol=0.0, atol=tol)
    top_right_ok = np.allclose(prod[:2, 2], 0.0, rtol=0.0, atol=tol)
    return bool(top_left_ok and top_right_ok)


def forward_first_order(
    phi: float, cmd: TrackCommand, params: VehicleParams
) -> PoseDelta:
    """First-order model: offset pose delta produced by one interval of cmd."""
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    delta = params.sample_time * (offset_model_matrix(phi, params) @ cmd.as_array())
    return PoseDelta(delta[0], delta[1], delta[2])


def _pinv_times(phi: float, vx: float, vy: float, params: VehicleParams) -> tuple[float, float]:
    """Track speeds (left, right): offset_model_pinv(phi, params) times the
    offset-point translation rate (vx, vy, .), in floats. The pinv's third
    column is zero, so the heading rate does not enter."""
    c, s = math.cos(phi), math.sin(phi)
    r = 0.5 * params.tread / (params.steering_efficiency * params.offset)
    return (c + r * s) * vx + (s - r * c) * vy, (c - r * s) * vx + (s + r * c) * vy


def inverse_first_order(
    desired: tuple[float, float], phi: float, params: VehicleParams
) -> TrackCommand:
    """First-order inverse: track speeds realizing a desired offset delta.

    Args:
        desired: the (dx, dy) offset-point delta wanted over one interval,
            two reals (a float pair, or any length-2 sequence).
        phi: current heading [rad].
    """
    ux, uy = map(float, desired)
    if not (math.isfinite(phi) and math.isfinite(ux) and math.isfinite(uy)):
        raise ValueError("inverse_first_order requires finite inputs")
    ts = params.sample_time
    return TrackCommand(*_pinv_times(phi, ux / ts, uy / ts, params))


def forward_second_order(
    prev_delta: PoseDelta, phi: float, ref_cmd: TrackCommand, params: VehicleParams
) -> PoseDelta:
    """Second-order model: next offset delta under the actuator low-pass.

    Args:
        prev_delta: offset delta realized over the interval starting at phi.
        phi: heading at the start of prev_delta [rad].
        ref_cmd: commanded track speeds issued after prev_delta was measured.

    Returns:
        The offset delta over the following interval, realized at heading
        phi + prev_delta.dphi.
    """
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    ts = params.sample_time
    a = params.actuator_alpha
    phi_next = phi + prev_delta.dphi
    vel_prev = offset_model_pinv(phi, params) @ (prev_delta.as_array() / ts)
    vel_next = a * vel_prev + (1.0 - a) * ref_cmd.as_array()
    delta = ts * (offset_model_matrix(phi_next, params) @ vel_next)
    return PoseDelta(delta[0], delta[1], delta[2])


def inverse_second_order(
    desired_next: tuple[float, float],
    current_delta: PoseDelta,
    phi: float,
    params: VehicleParams,
) -> TrackCommand:
    """Second-order inverse: command whose filtered effect yields desired_next.

    Args:
        desired_next: the (dx, dy) offset delta wanted over the next
            interval (realized at heading phi + current_delta.dphi), two
            reals (a float pair, or any length-2 sequence).
        current_delta: offset delta realized over the interval starting at
            phi; encodes the current track-speed state.
        phi: heading at the start of current_delta [rad].
    """
    ux, uy = map(float, desired_next)
    if not (math.isfinite(phi) and math.isfinite(ux) and math.isfinite(uy)):
        raise ValueError("inverse_second_order requires finite inputs")
    ts, a, d = params.sample_time, params.actuator_alpha, current_delta
    now_l, now_r = _pinv_times(phi, d.dx / ts, d.dy / ts, params)
    next_l, next_r = _pinv_times(phi + d.dphi, ux / ts, uy / ts, params)
    return TrackCommand((next_l - a * now_l) / (1.0 - a), (next_r - a * now_r) / (1.0 - a))
