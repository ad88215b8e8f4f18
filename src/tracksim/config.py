"""Experiment configuration: schema-validated YAML for the CLI harness.

A config file is a nested mapping with sections for the vehicle, the world,
the controller, the reference trajectory, the plant selection, and the GP
fit settings. Every invented default is materialized into the resolved
dictionary that reports embed, so a run can be audited from its output
alone.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
from dataclasses import dataclass, fields
from typing import Any, Mapping

import yaml

from .control import Gains, validate_gains
from .gp import FitConfig
from .kinematics import VehicleParams
from .sim import (
    ReferenceTrajectory,
    make_circle,
    make_figure8,
    make_waypoint_path,
)
from .terrain3d import SlipPlaneWorld


class ConfigError(Exception):
    """Raised for malformed, mistyped, or out-of-domain configuration."""


_VEHICLE_DEFAULTS = {f.name: f.default for f in fields(VehicleParams)}

# Key names of the world block are a published interface; each maps onto
# a SlipPlaneWorld field. "seed" seeds the plant noise stream and doubles
# as the default rollout seed.
_WORLD_KEYS = {
    "alpha": "slope",
    "d_b": "ride_height",
    "n": "slip_exponent",
    "base_slip": "base_slip",
    "mu": "friction",
    "beta0": "beta_gain",
    "noise_sigma": "noise_sigma",
}
_WORLD_DEFAULTS = {
    **{key: getattr(SlipPlaneWorld, name) for key, name in _WORLD_KEYS.items()},
    "seed": 0,
}

# the gp block is FitConfig's fields plus the train share of the split
_GP_DEFAULTS = {
    **{f.name: f.default for f in fields(FitConfig)},
    "train_fraction": 0.8,
}

_CONTROLLER_DEFAULTS = {"order": 2, "slot": "nominal"}

_GAINS_DEFAULTS = {"kp": [0.1, 0.1], "kd": [0.3, 0.3]}

_TRAJECTORY_BUILDERS = {
    "figure8": make_figure8,
    "circle": make_circle,
    "waypoints": make_waypoint_path,
}

# the one builder parameter without a default of its own
_DEFAULT_WAYPOINTS = [[0.0, 0.0], [1.5, 0.6], [2.5, -0.4], [3.5, 0.8], [4.5, 0.0]]

# each kind's keys and defaults are its builder's parameters but
# sample_time, which the vehicle block sets
_TRAJECTORY_DEFAULTS: dict[str, dict[str, Any]] = {
    kind: {
        name: _DEFAULT_WAYPOINTS if name == "points" else p.default
        for name, p in inspect.signature(build).parameters.items()
        if name != "sample_time"
    }
    for kind, build in _TRAJECTORY_BUILDERS.items()
}

_EVALUATION_DEFAULTS = {"seeds": [50, 51, 52]}

_TOP_LEVEL_KEYS = (
    "vehicle",
    "world",
    "controller",
    "gains",
    "trajectory",
    "plant",
    "gp",
    "evaluation",
)


def _require_mapping(value: Any, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _section(raw: Mapping, name: str, defaults: Mapping) -> dict:
    """Overlay section raw[name] on defaults, rejecting keys outside the schema."""
    section = _require_mapping(raw.get(name), name)
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    return {**defaults, **section}


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    # also rejects NaN, and integers too large to become a float
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _seed(value: Any, where: str) -> int:
    seed = _integer(value, where)
    if seed < 0:
        raise ConfigError(f"{where} must be a non-negative integer, got {seed}")
    return seed


def _like(default: Any, value: Any, where: str) -> Any:
    """value parsed as the type of its default: integer, else number."""
    return (_integer if isinstance(default, int) else _number)(value, where)


def _checked(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), its domain errors raised as ConfigError."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError) as exc:  # e.g. a huge gain squared
        raise ConfigError(f"{where}: {exc}") from exc


def _pair(value: Any, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a 2-element list")
    return (_number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description.

    Attributes:
        resolved: the materialized configuration (every default echoed),
            suitable for embedding in reports.
        params: vehicle geometry and actuator settings.
        world: terrain description; meaningful when plant == "slip".
        gains: controller gains.
        order: control scheme order, 1 or 2.
        slot: inverse-model slot, "nominal" or "gp".
        plant: plant selection, "nominal" or "slip".
        fit: GP fit settings.
        train_fraction: train share of the collected dataset split.
        seed: base seed for simulate/collect rollouts (world block "seed").
        eval_seeds: plant seeds the evaluate command compares slots on.
        reference: the reference trajectory the trajectory block describes.
    """

    resolved: dict
    params: VehicleParams
    world: SlipPlaneWorld
    gains: Gains
    order: int
    slot: str
    plant: str
    fit: FitConfig
    train_fraction: float
    seed: int
    eval_seeds: tuple[int, ...]
    reference: ReferenceTrajectory

    def trajectory(self) -> ReferenceTrajectory:
        """The reference trajectory described by the config."""
        return self.reference

    def content_hash(self) -> str:
        """sha256 over the canonical JSON form of the resolved config."""
        text = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _resolve_trajectory(raw: Mapping) -> dict:
    kind = _require_mapping(raw.get("trajectory"), "trajectory").get("kind", "figure8")
    if not isinstance(kind, str) or kind not in _TRAJECTORY_DEFAULTS:
        raise ConfigError(
            f"trajectory.kind must be one of figure8, circle, waypoints; got {kind!r}"
        )
    merged = _section(raw, "trajectory", {"kind": kind, **_TRAJECTORY_DEFAULTS[kind]})
    for key, default in _TRAJECTORY_DEFAULTS[kind].items():
        if key == "points":
            pts = merged["points"]
            if not isinstance(pts, list) or len(pts) < 2:
                raise ConfigError("trajectory.points must list at least 2 waypoints")
            merged["points"] = [list(_pair(p, "trajectory.points[i]")) for p in pts]
        else:
            merged[key] = _like(default, merged[key], f"trajectory.{key}")
    return merged


def parse_config(raw: Any) -> ExperimentConfig:
    """Validate a parsed YAML document and resolve it against the defaults.

    Raises:
        ConfigError: unknown keys, wrong types, out-of-domain values, or a
            reference of fewer than 4 samples (the message names the key).
    """
    raw = _require_mapping(raw, "config")
    unknown = sorted(set(raw) - set(_TOP_LEVEL_KEYS))
    if unknown:
        raise ConfigError(f"unknown top-level section(s): {', '.join(unknown)}")

    vehicle = _section(raw, "vehicle", _VEHICLE_DEFAULTS)
    world_raw = _section(raw, "world", _WORLD_DEFAULTS)
    controller = _section(raw, "controller", _CONTROLLER_DEFAULTS)
    gains_raw = _section(raw, "gains", _GAINS_DEFAULTS)
    gp_raw = _section(raw, "gp", _GP_DEFAULTS)
    evaluation = _section(raw, "evaluation", _EVALUATION_DEFAULTS)

    plant = raw.get("plant", "nominal")
    if plant not in ("nominal", "slip"):
        raise ConfigError(f"plant must be 'nominal' or 'slip', got {plant!r}")

    order = _integer(controller["order"], "controller.order")
    if order not in (1, 2):
        raise ConfigError(f"controller.order must be 1 or 2, got {order}")
    slot = controller["slot"]
    if slot not in ("nominal", "gp"):
        raise ConfigError(f"controller.slot must be 'nominal' or 'gp', got {slot!r}")
    if slot == "gp" and order != 2:
        raise ConfigError("controller.slot 'gp' requires controller.order 2, the law it plugs into")

    trajectory = _resolve_trajectory(raw)

    vehicle_args = {k: _number(vehicle[k], f"vehicle.{k}") for k in _VEHICLE_DEFAULTS}
    params = _checked("vehicle", VehicleParams, **vehicle_args)

    world_args = {
        name: _number(world_raw[key], f"world.{key}")
        for key, name in _WORLD_KEYS.items()
    }
    world = _checked("world", SlipPlaneWorld, **world_args)

    kp = _pair(gains_raw["kp"], "gains.kp")
    kd = _pair(gains_raw["kd"], "gains.kd") if gains_raw["kd"] is not None else None
    gains = _checked("gains", Gains, kp=kp, kd=kd)
    _checked("gains", validate_gains, gains, order)

    train_fraction = _number(gp_raw["train_fraction"], "gp.train_fraction")
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(
            f"gp.train_fraction must be in (0, 1), got {train_fraction}"
        )
    fit_args = {
        f.name: _like(f.default, gp_raw[f.name], f"gp.{f.name}") for f in fields(FitConfig)
    }
    fit_args["seed"] = _seed(gp_raw["seed"], "gp.seed")
    fit = _checked("gp", FitConfig, **fit_args)

    seed = _seed(world_raw["seed"], "world.seed")
    seeds_raw = evaluation["seeds"]
    if not isinstance(seeds_raw, list) or not seeds_raw:
        raise ConfigError("evaluation.seeds must be a non-empty list")
    eval_seeds = tuple(
        _seed(s, f"evaluation.seeds[{i}]") for i, s in enumerate(seeds_raw)
    )
    # evaluate writes one error file per seed and averages over the seeds
    if len(set(eval_seeds)) != len(eval_seeds):
        raise ConfigError(f"evaluation.seeds must not repeat a seed, got {list(eval_seeds)}")

    # built last, so that the other sections' errors come first
    spec = dict(trajectory)
    build = _TRAJECTORY_BUILDERS[spec.pop("kind")]
    reference = _checked("trajectory", build, sample_time=params.sample_time, **spec)
    # collect's dataset has one sample per interior log row, and its split needs two
    if len(reference) < 4:
        raise ConfigError(f"trajectory: the reference has {len(reference)} samples, "
                          "fewer than the 4 every command needs")

    resolved = {
        "vehicle": vehicle,
        "world": world_raw,
        "controller": {"order": order, "slot": slot},
        "gains": {"kp": list(kp), "kd": list(kd) if kd is not None else None},
        "trajectory": trajectory,
        "plant": plant,
        "gp": gp_raw,
        "evaluation": {"seeds": list(eval_seeds)},
    }
    return ExperimentConfig(
        resolved=resolved,
        params=params,
        world=world,
        gains=gains,
        order=order,
        slot=slot,
        plant=plant,
        fit=fit,
        train_fraction=train_fraction,
        seed=seed,
        eval_seeds=eval_seeds,
        reference=reference,
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a YAML experiment config from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return parse_config(raw)
