"""Feedback-linearizing trajectory trackers on the offset output point.

Both controllers compute a desired offset-point translation for the next
interval and push it through an inverse model to get track speeds. On the
matching nominal plant the loop is exactly linear, with per-axis error
dynamics:

  first order:   e[t+1] = (1 - kp) e[t]
  second order:  e[t+2] + (kd - 1) e[t+1] + (kp - kd) e[t] = 0

The second-order law compensates the actuator low-pass, and its inverse
model is pluggable: either the closed-form kinematic inverse or a learned
replacement with the same call signature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kinematics import (
    Pose,
    PoseDelta,
    TrackCommand,
    VehicleParams,
    checked_pose,
    inverse_first_order,
    inverse_second_order,
)

# pole magnitudes must clear 1 by at least this much
STABILITY_MARGIN = 1e-9

# signature shared by the closed-form inverse and learned replacements:
# (desired next offset translation (dx, dy), the PoseDelta the plant
# realized at the previous step (zeros at the first), heading at the start
# of that delta) -> the TrackCommand whose .left/.right the plant runs,
# logged as vl_cmd/vr_cmd. Wrappers around a slot read these attributes.
# A non-finite output stops the run in TrackCommand's own check, as the
# plants clip +-inf to max_track_speed.
InverseModelFn = Callable[[tuple[float, float], PoseDelta, float], TrackCommand]


@dataclass(frozen=True)
class Gains:
    """Per-axis proportional (and, for order 2, derivative-like) gains."""

    kp: tuple[float, float]
    kd: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        if len(self.kp) != 2 or not all(math.isfinite(g) for g in self.kp):
            raise ValueError(f"kp must be two finite values, got {self.kp}")
        if self.kd is not None:
            if len(self.kd) != 2 or not all(math.isfinite(g) for g in self.kd):
                raise ValueError(f"kd must be two finite values, got {self.kd}")


@dataclass(frozen=True)
class ReferencePoint:
    """One sample of the reference for the offset point.

    (dx, dy) is the translation from this sample to the next one;
    (dx_next, dy_next) the translation one interval further out. The
    second-order law needs both because it shapes the delta one interval
    ahead of the newest measurement.
    """

    x: float
    y: float
    dx: float
    dy: float
    dx_next: float
    dy_next: float

    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def delta(self) -> np.ndarray:
        return np.array([self.dx, self.dy])

    def next_delta(self) -> np.ndarray:
        return np.array([self.dx_next, self.dy_next])


def validate_gains(gains: Gains, order: int) -> np.ndarray:
    """Closed-loop pole magnitudes for the nominal loop of the given order.

    Pure computation: returns magnitudes, never raises on unstable gains.
    Order 1 yields one pole per axis (|1 - kp|); order 2 yields the two
    roots per axis of z^2 + (kd - 1) z + (kp - kd).
    """
    if order == 1:
        return np.array([abs(1.0 - k) for k in gains.kp])
    if order == 2:
        if gains.kd is None:
            raise ValueError("order-2 gains require kd")
        mags = []
        for kp, kd in zip(gains.kp, gains.kd):
            disc = cmath.sqrt((kd - 1.0) ** 2 - 4.0 * (kp - kd))
            mags.append(abs((-(kd - 1.0) + disc) / 2.0))
            mags.append(abs((-(kd - 1.0) - disc) / 2.0))
        return np.array(mags)
    raise ValueError(f"order must be 1 or 2, got {order}")


def assert_stable(gains: Gains, order: int) -> None:
    """Reject gains whose closed-loop poles touch or leave the unit circle."""
    mags = validate_gains(gains, order)
    if not np.all(mags < 1.0 - STABILITY_MARGIN):
        raise ValueError(
            f"unstable order-{order} gains {gains}: pole magnitudes {mags}"
        )


def first_order_step(
    ref: ReferencePoint,
    measured: Pose,
    gains: Gains,
    params: VehicleParams,
) -> TrackCommand:
    """One first-order control step: feedforward plus proportional feedback."""
    kpx, kpy = gains.kp
    x, y, phi = measured
    u = ref.dx + kpx * (ref.x - x), ref.dy + kpy * (ref.y - y)
    return inverse_first_order(u, phi, params)


def second_order_step(
    ref: ReferencePoint,
    measured: Pose,
    measured_delta: PoseDelta,
    gains: Gains,
    params: VehicleParams,
    inverse_model: Optional[InverseModelFn] = None,
) -> TrackCommand:
    """One second-order control step.

    Every term is evaluated at a single time instant: `measured` is the
    offset pose at the *start* of `measured_delta` (the newest realized
    delta), and `ref` is the reference sample for that same instant. The
    produced command shapes the delta of the following interval.

    Args:
        inverse_model: drop-in replacement for the closed-form kinematic
            inverse (e.g. a trained regression model); None uses the
            closed form.
    """
    if gains.kd is None:
        raise ValueError("second-order control requires kd gains")
    (kpx, kpy), (kdx, kdy) = gains.kp, gains.kd
    x, y, phi = measured
    u = (
        ref.dx_next + kdx * (ref.dx - measured_delta.dx) + kpx * (ref.x - x),
        ref.dy_next + kdy * (ref.dy - measured_delta.dy) + kpy * (ref.y - y),
    )
    if inverse_model is None:
        return inverse_second_order(u, measured_delta, phi, params)
    return inverse_model(u, measured_delta, phi)


class FirstOrderTracker:
    """Stateless first-order tracker; rejects unstable gains up front."""

    def __init__(self, gains: Gains, params: VehicleParams):
        assert_stable(gains, 1)
        self.gains = gains
        self.params = params

    def command(self, ref: ReferencePoint, pose_b: Pose) -> TrackCommand:
        return first_order_step(ref, pose_b, self.gains, self.params)

    def observe(self, realized_delta: tuple[float, float, float]) -> None:
        # first-order law carries no velocity state
        pass


class SecondOrderTracker:
    """Second-order tracker holding the newest realized offset delta.

    The control law is anchored at the start of that delta, so the step
    reconstructs the one-interval-old pose and reference from its stored
    state; callers just hand in the current pose and current reference
    sample. The vehicle is assumed at rest on the first step (zero delta,
    reference held still). The delta is kept as the (dx, dy, dphi) floats
    a plant step returns; the PoseDelta the inverse reads is built from
    them once per command.
    """

    def __init__(
        self,
        gains: Gains,
        params: VehicleParams,
        inverse_model: Optional[InverseModelFn] = None,
    ):
        assert_stable(gains, 2)
        self.gains = gains
        self.params = params
        self.inverse_model = inverse_model
        self.last_delta = (0.0, 0.0, 0.0)
        self._prev_ref: Optional[ReferencePoint] = None

    def command(self, ref: ReferencePoint, pose_b: Pose) -> TrackCommand:
        if self._prev_ref is None:
            # virtual pre-start sample: reference at rest where it begins
            self._prev_ref = ReferencePoint(ref.x, ref.y, 0.0, 0.0, ref.dx, ref.dy)
        x, y, phi = pose_b
        dx, dy, dphi = self.last_delta
        pose_then = checked_pose(x - dx, y - dy, phi - dphi)
        cmd = second_order_step(
            self._prev_ref, pose_then, PoseDelta(dx, dy, dphi), self.gains, self.params,
            self.inverse_model,
        )
        self._prev_ref = ref
        return cmd

    def observe(self, realized_delta: tuple[float, float, float]) -> None:
        self.last_delta = realized_delta
