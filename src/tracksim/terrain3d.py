"""Tilted-plane geometry and track slip for the simulation plant.

The vehicle drives on an inclined plane whose steepest-ascent direction
lies in the world x-z plane (rotation of the ground plane about the world
y axis by `slope`). The vehicle state is kept as a planar world-frame
pose (x, y, yaw); height, pitch and roll are functions of that state
because the tracks stay on the plane.

Track slip follows the classic skid-steer phenomenology: longitudinal
slip ratios on both tracks, coupled through a sign/magnitude relation
driven by the commanded speed ratio, plus a small lateral slip angle that
rotates the realized translation. Slip magnitudes grow with the grade and
shrink with friction; the exact scaling is a modeling knob, not a claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import Pose, VehicleParams

# slip ratios are kept strictly below 1 so that realized speeds never
# reverse sign relative to the command
MAX_SLIP_RATIO = 0.95

# track-speed difference [m/s] at which the slip angle saturates to beta_gain
BETA_SPEED_REF = 0.5


@dataclass(frozen=True)
class SlipPlaneWorld:
    """Terrain description: an inclined plane with slip parameters.

    Attributes:
        slope: inclination of the plane [rad], |slope| < pi/2.
        ride_height: distance from the vehicle center to the plane along
            the plane normal [m].
        slip_exponent: exponent of the left/right slip-ratio relation.
        base_slip: slip-ratio magnitude on flat ground, in [0, 0.95].
        friction: dynamic friction coefficient, > 0; lower friction
            amplifies the grade-driven slip growth.
        beta_gain: lateral slip angle reached during hard turns [rad].
        noise_sigma: standard deviation of zero-mean Gaussian noise the
            slip plant adds to each step's realized center motion, to x
            and y [m] and to yaw [rad] (0 disables).
    """

    slope: float = 0.0
    ride_height: float = 0.1
    slip_exponent: float = 1.0
    base_slip: float = 0.0
    friction: float = 0.6
    beta_gain: float = 0.05
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not (abs(self.slope) < math.pi / 2):
            raise ValueError(f"|slope| must be < pi/2, got {self.slope}")
        if not (self.ride_height >= 0.0 and math.isfinite(self.ride_height)):
            raise ValueError(f"ride_height must be >= 0, got {self.ride_height}")
        if not (self.slip_exponent > 0.0):
            raise ValueError(f"slip_exponent must be > 0, got {self.slip_exponent}")
        if not (0.0 <= self.base_slip <= MAX_SLIP_RATIO):
            raise ValueError(
                f"base_slip must lie in [0, {MAX_SLIP_RATIO}], got {self.base_slip}"
            )
        if not (self.friction > 0.0):
            raise ValueError(f"friction must be > 0, got {self.friction}")
        if not (self.noise_sigma >= 0.0):
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class Pose3:
    """Full world-frame pose of the vehicle center on the plane."""

    x: float
    y: float
    z: float
    yaw: float
    pitch: float
    roll: float


def pitch_on_plane(slope: float, yaw: float) -> float:
    """Vehicle pitch imposed by the plane at a given world yaw."""
    return math.atan(-math.tan(slope) * math.cos(yaw))


def roll_on_plane(slope: float, yaw: float) -> float:
    """Vehicle roll imposed by the plane at a given world yaw."""
    theta = pitch_on_plane(slope, yaw)
    ta = math.tan(slope)
    num = ta * math.sin(yaw)
    den = ta * math.cos(yaw) * math.sin(theta) - math.cos(theta)
    return math.atan(num / den)


def plane_height(x: float, world: SlipPlaneWorld) -> float:
    """Center height above world z=0 as a function of world x."""
    return (world.ride_height + x * math.sin(world.slope)) / math.cos(world.slope)


def lift_pose(pose: Pose, world: SlipPlaneWorld) -> Pose3:
    """Extend a planar world pose (x, y, yaw) to the full 3D pose on the plane."""
    x, y, yaw = pose
    return Pose3(
        x=x,
        y=y,
        z=plane_height(x, world),
        yaw=yaw,
        pitch=pitch_on_plane(world.slope, yaw),
        roll=roll_on_plane(world.slope, yaw),
    )


def plane_yaw_to_world(plane_yaw: float, world: SlipPlaneWorld) -> float:
    """Heading measured on the plane -> heading of its world projection."""
    return math.atan2(
        math.sin(plane_yaw), math.cos(plane_yaw) * math.cos(world.slope)
    )


def world_yaw_to_plane(yaw: float, world: SlipPlaneWorld) -> float:
    """Inverse of plane_yaw_to_world."""
    return math.atan2(math.sin(yaw) * math.cos(world.slope), math.cos(yaw))


def plane_to_world_rates(
    plane_rates: np.ndarray, plane_yaw: float, world: SlipPlaneWorld
) -> np.ndarray:
    """Map plane-frame rates (xdot_p, ydot_p, yawdot_p) to world rates.

    Returns (xdot, ydot, zdot, yawdot). The translational map is a pure
    projection of the tilted plane axes; the yaw-rate map carries the
    pitch-dependent distortion of projecting a turn on the plane.
    """
    plane_rates = np.asarray(plane_rates, dtype=float)
    if plane_rates.shape != (3,):
        raise ValueError(f"plane_rates must have shape (3,), got {plane_rates.shape}")
    ca, sa = math.cos(world.slope), math.sin(world.slope)
    yaw = plane_yaw_to_world(plane_yaw, world)
    theta = pitch_on_plane(world.slope, yaw)
    return np.array(
        [
            plane_rates[0] * ca,
            plane_rates[1],
            plane_rates[0] * sa,
            plane_rates[2] * ca / math.cos(theta) ** 2,
        ]
    )


def slip_ratios(vl: float, vr: float, world: SlipPlaneWorld) -> tuple[float, float, float]:
    """Slip state (a_l, a_r, beta) of the track speeds (vl, vr) on this
    terrain: the longitudinal slip ratios and the lateral slip angle.

    The left ratio magnitude is base_slip * (1 + sin|slope| / friction),
    clamped to [0, 0.95]; the right ratio follows the coupling relation
        a_r / a_l = -sign(v_l * v_r) * |v_l / v_r| ** slip_exponent.
    If that pushes |a_r| past the clamp, both ratios are rescaled jointly
    so the relation itself stays exact. A track commanded to stand still
    has no defined slip ratio and gets 0.
    """
    mag = world.base_slip * (1.0 + math.sin(abs(world.slope)) / world.friction)
    mag = min(mag, MAX_SLIP_RATIO)
    if mag == 0.0 or (vl == 0.0 and vr == 0.0):
        a_l, a_r = 0.0, 0.0
    elif vl == 0.0:
        a_l, a_r = 0.0, mag
    elif vr == 0.0:
        a_l, a_r = mag, 0.0
    else:
        a_l = mag
        a_r = a_l * (-math.copysign(1.0, vl * vr)) * abs(vl / vr) ** world.slip_exponent
        if abs(a_r) > MAX_SLIP_RATIO:
            scale = MAX_SLIP_RATIO / abs(a_r)
            a_l *= scale
            a_r *= scale
    dv = vr * (1.0 - a_r) - vl * (1.0 - a_l)
    beta = (
        world.beta_gain
        * math.copysign(1.0, dv)
        * min(1.0, abs(dv) / BETA_SPEED_REF)
        if dv != 0.0
        else 0.0
    )
    return a_l, a_r, beta


def slip_forward(
    phi: float,
    vl: float,
    vr: float,
    slip: tuple[float, float, float],
    world: SlipPlaneWorld,
    params: VehicleParams,
) -> tuple[float, float, float]:
    """One Euler step of the slip-afflicted plant at world yaw phi, under
    track speeds (vl, vr) and the slip state (a_l, a_r, beta) of
    slip_ratios; center delta (dx, dy, dphi), world frame.

    Realized per-track ground speeds are cmd * (1 - ratio). Their mean
    advances the vehicle along its heading (foreshortened by the pitch the
    plane imposes), their difference turns it (distorted by slope and
    pitch), and the lateral slip angle rotates the realized translation.
    """
    a_l, a_r, beta = slip
    theta = pitch_on_plane(world.slope, phi)
    v_left = vl * (1.0 - a_l)
    v_right = vr * (1.0 - a_r)
    speed = 0.5 * (v_left + v_right)
    yaw_rate = (
        (v_right - v_left)
        / params.tread
        * math.cos(world.slope)
        / math.cos(theta) ** 2
    )
    ts = params.sample_time
    step = ts * speed * math.cos(theta)
    dx = step * math.cos(phi)
    dy = step * math.sin(phi)
    cb, sb = math.cos(beta), math.sin(beta)
    return cb * dx - sb * dy, sb * dx + cb * dy, ts * yaw_rate
