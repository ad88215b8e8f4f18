"""Tests for YAML experiment-config parsing and resolution."""

import collections
import math
import os
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracksim import config
from tracksim.cli import main
from tracksim.config import ConfigError, load_config, parse_config
from tracksim.gp import FitConfig, fit, save_model
from tracksim.kinematics import VehicleParams
from tracksim.sim import make_figure8


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestDefaults:
    def test_empty_document_resolves_to_full_experiment(self):
        cfg = parse_config({})
        assert cfg.params == VehicleParams()
        assert cfg.order == 2
        assert cfg.slot == "nominal"
        assert cfg.plant == "nominal"
        assert cfg.gains.kp == (0.1, 0.1)
        assert cfg.gains.kd == (0.3, 0.3)
        assert cfg.resolved["trajectory"]["kind"] == "figure8"
        assert cfg.eval_seeds == (50, 51, 52)
        assert cfg.seed == 0

    def test_none_document_treated_as_empty(self):
        # yaml.safe_load of an empty file returns None
        cfg = parse_config(None)
        assert cfg.plant == "nominal"

    def test_defaults_build_a_usable_trajectory(self):
        cfg = parse_config({})
        traj = cfg.trajectory()
        assert cfg.resolved["trajectory"]["kind"] == "figure8"
        assert traj.samples == make_figure8(sample_time=cfg.params.sample_time).samples
        assert len(traj) > 100

    def test_world_defaults_are_flat_and_noiseless(self):
        cfg = parse_config({})
        assert cfg.world.slope == 0.0
        assert cfg.world.base_slip == 0.0
        assert cfg.world.noise_sigma == 0.0


class TestWorldMapping:
    def test_world_keys_reach_the_plane_model(self):
        cfg = parse_config(
            {
                "world": {
                    "alpha": 0.5,
                    "d_b": 0.2,
                    "n": 2.0,
                    "base_slip": 0.15,
                    "mu": 0.4,
                    "beta0": 0.07,
                    "noise_sigma": 1e-3,
                    "seed": 9,
                }
            }
        )
        assert cfg.world.slope == 0.5
        assert cfg.world.ride_height == 0.2
        assert cfg.world.slip_exponent == 2.0
        assert cfg.world.base_slip == 0.15
        assert cfg.world.friction == 0.4
        assert cfg.world.beta_gain == 0.07
        assert cfg.world.noise_sigma == 1e-3
        assert cfg.seed == 9

    def test_unknown_world_key_rejected(self):
        with pytest.raises(ConfigError, match="world"):
            parse_config({"world": {"gravity": 9.8}})

    def test_world_domain_errors_surface_with_section_name(self):
        with pytest.raises(ConfigError, match="world"):
            parse_config({"world": {"mu": -0.5}})


class TestSchema:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="physics"):
            parse_config({"physics": {}})

    def test_unknown_vehicle_key_rejected(self):
        with pytest.raises(ConfigError, match="wheelbase"):
            parse_config({"vehicle": {"wheelbase": 1.0}})

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ConfigError, match="vehicle"):
            parse_config({"vehicle": 7})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="tread"):
            parse_config({"vehicle": {"tread": True}})

    def test_string_is_not_a_number(self):
        with pytest.raises(ConfigError, match="tread"):
            parse_config({"vehicle": {"tread": "wide"}})

    def test_fractional_integer_rejected(self):
        with pytest.raises(ConfigError, match="max_iter"):
            parse_config({"gp": {"max_iter": 10.5}})

    def test_plant_domain(self):
        assert parse_config({"plant": "slip"}).plant == "slip"
        with pytest.raises(ConfigError, match="plant"):
            parse_config({"plant": "warp"})

    def test_controller_domains(self):
        assert parse_config({"controller": {"order": 1}}).order == 1
        with pytest.raises(ConfigError, match="order"):
            parse_config({"controller": {"order": 3}})
        with pytest.raises(ConfigError, match="slot"):
            parse_config({"controller": {"slot": "magic"}})

    def test_train_fraction_bounds(self):
        with pytest.raises(ConfigError, match="train_fraction"):
            parse_config({"gp": {"train_fraction": 1.0}})
        with pytest.raises(ConfigError, match="train_fraction"):
            parse_config({"gp": {"train_fraction": 0.0}})


class TestGains:
    def test_scalar_pair_layouts(self):
        cfg = parse_config({"gains": {"kp": [0.2, 0.3], "kd": [0.4, 0.5]}})
        assert cfg.gains.kp == (0.2, 0.3)
        assert cfg.gains.kd == (0.4, 0.5)

    def test_order2_without_kd_rejected(self):
        with pytest.raises(ConfigError, match="kd"):
            parse_config({"controller": {"order": 2}, "gains": {"kd": None}})

    def test_order1_without_kd_accepted(self):
        cfg = parse_config({"controller": {"order": 1}, "gains": {"kd": None}})
        assert cfg.gains.kd is None

    def test_wrong_pair_length_rejected(self):
        with pytest.raises(ConfigError, match="kp"):
            parse_config({"gains": {"kp": [0.1, 0.1, 0.1]}})


class TestTrajectory:
    def test_kind_domain(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config({"trajectory": {"kind": "spiral"}})

    def test_figure8_keys(self):
        cfg = parse_config(
            {"trajectory": {"kind": "figure8", "amplitude": 1.5, "period_steps": 80}}
        )
        traj = cfg.trajectory()
        assert cfg.resolved["trajectory"]["kind"] == "figure8"
        want = make_figure8(amplitude=1.5, period_steps=80, sample_time=cfg.params.sample_time)
        assert traj.samples == want.samples
        assert len(traj) == 81

    def test_circle_radius_reaches_builder(self):
        cfg = parse_config(
            {"trajectory": {"kind": "circle", "radius": 2.0, "period_steps": 100}}
        )
        pts = [(p.x, p.y) for p in cfg.trajectory().samples]
        cx = sum(x for x, _ in pts) / len(pts)
        cy = sum(y for _, y in pts) / len(pts)
        radii = [math.hypot(x - cx, y - cy) for x, y in pts]
        assert math.isclose(max(radii), 2.0, rel_tol=1e-2)

    def test_waypoints_need_two_points(self):
        with pytest.raises(ConfigError, match="points"):
            parse_config({"trajectory": {"kind": "waypoints", "points": [[0, 0]]}})

    def test_circle_key_invalid_for_figure8(self):
        with pytest.raises(ConfigError, match="radius"):
            parse_config({"trajectory": {"kind": "figure8", "radius": 1.0}})

    def test_domain_error_wrapped(self):
        with pytest.raises(ConfigError, match="trajectory"):
            parse_config({"trajectory": {"kind": "figure8", "amplitude": -1.0}})

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"trajectory": {"kind": "figure8", "amplitude": 0.0}}, "amplitude"),
            ({"trajectory": {"kind": "figure8", "period_steps": 3}}, "period_steps"),
            ({"trajectory": {"kind": "circle", "laps": 0}}, "laps"),
            ({"trajectory": {"kind": "circle", "radius": 0.0}}, "radius"),
            ({"trajectory": {"kind": "waypoints", "cruise_speed": 0.0}}, "cruise_speed"),
            ({"trajectory": {"kind": "waypoints", "ramp_time": 0.0}}, "ramp_time"),
            ({"trajectory": {"kind": "waypoints", "points": [[0, 0], [0, 0]]}}, "points"),
            # the sample cap, the extent cap and reference speeds that overflow
            ({"trajectory": {"kind": "figure8", "period_steps": 100_000}}, "period_steps"),
            ({"trajectory": {"kind": "circle", "radius": 2.0e6}}, "radius"),
            ({"vehicle": {"sample_time": 1.0e-320}}, "sample_time"),
        ],
        ids=["amplitude", "period_steps", "laps", "radius", "cruise_speed", "ramp_time",
             "points", "sample_cap", "extent_cap", "sample_time"],
    )
    def test_builder_domain_error_names_the_key(self, doc, key):
        with pytest.raises(ConfigError, match=f"^trajectory: {key}"):
            parse_config(doc)

    @pytest.mark.parametrize("kind", ["figure8", "circle", "waypoints"])
    def test_default_reference_is_the_builders(self, kind):
        cfg = parse_config({"trajectory": {"kind": kind}})
        # the builder on its own defaults; only the waypoints have none
        args = [cfg.resolved["trajectory"]["points"]] if kind == "waypoints" else []
        want = config._TRAJECTORY_BUILDERS[kind](*args, sample_time=cfg.params.sample_time)
        assert cfg.trajectory().samples == want.samples


class TestEvaluation:
    def test_seeds_override(self):
        cfg = parse_config({"evaluation": {"seeds": [7]}})
        assert cfg.eval_seeds == (7,)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config({"evaluation": {"seeds": []}})

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config({"evaluation": {"seeds": [1.5]}})

    def test_repeated_seed_rejected(self):
        # evaluate would run the seed twice, overwrite its error file and
        # count it twice in the aggregate means
        with pytest.raises(ConfigError, match=r"evaluation\.seeds must not repeat"):
            parse_config({"evaluation": {"seeds": [1, 1]}})


class TestContentHash:
    def test_equal_configs_equal_hash(self):
        a = parse_config({"plant": "slip", "world": {"alpha": 0.3}})
        b = parse_config({"world": {"alpha": 0.3}, "plant": "slip"})
        assert a.content_hash() == b.content_hash()

    def test_explicit_defaults_hash_like_omitted_ones(self):
        assert (
            parse_config({"vehicle": {"tread": 0.5}}).content_hash()
            == parse_config({}).content_hash()
        )

    def test_different_configs_differ(self):
        assert (
            parse_config({"world": {"alpha": 0.3}}).content_hash()
            != parse_config({"world": {"alpha": 0.4}}).content_hash()
        )


class TestLoadConfig:
    def test_round_trip_from_disk(self, tmp_path):
        path = write_config(tmp_path, {"plant": "slip", "world": {"base_slip": 0.1}})
        cfg = load_config(path)
        assert cfg.plant == "slip"
        assert cfg.world.base_slip == 0.1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cfg.yaml"):
            load_config(str(tmp_path / "cfg.yaml"))

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("plant: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_empty_file_is_default_experiment(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(str(path)).plant == "nominal"


# Every key the schema knows, per section; each section also gets an unknown key.
SCHEMA_KEYS = {
    "vehicle": set(config._VEHICLE_DEFAULTS),
    "world": set(config._WORLD_DEFAULTS),
    "controller": set(config._CONTROLLER_DEFAULTS),
    "gains": set(config._GAINS_DEFAULTS),
    "trajectory": {"kind"}.union(*config._TRAJECTORY_DEFAULTS.values()),
    "gp": set(config._GP_DEFAULTS),
    "evaluation": set(config._EVALUATION_DEFAULTS),
}

# Mostly small numbers, so that about one document in seven resolves, plus
# extremes that the reference sample cap and extent bound must turn away.
NUMBERS = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(-10.0, 0.0),
    st.floats(0.1, 10.0),
    st.sampled_from([5e-324, 1e-300, 1e-6, 1e-3, 1e6, 1e300, 1.7e308, 10**6, 10**12]),
)
VALUES = st.recursive(
    NUMBERS | st.booleans() | st.none() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
SHAPES = {
    "kind": st.sampled_from(sorted(config._TRAJECTORY_DEFAULTS)),
    "points": st.lists(PAIRS, max_size=4),
    "kp": PAIRS,
    "kd": PAIRS,
    "seeds": st.lists(st.integers(-3, 12), max_size=3),
    "slot": st.sampled_from(["nominal", "gp"]),
    "plant": st.sampled_from(["nominal", "slip"]),
}


def mostly(likely, other):
    """Draw from likely three times in four, else from other."""
    return st.integers(0, 3).flatmap(lambda i: other if i == 0 else likely)


def entries(keys, value_for):
    """Mappings of up to three keys drawn from keys plus one unknown key."""
    key = st.sampled_from(sorted(keys) + ["unknown"])
    pairs = key.flatmap(lambda k: st.tuples(st.just(k), value_for(k)))
    return st.lists(pairs, max_size=3).map(dict)


def value(key):
    """Mostly the shape the schema expects for key, else anything."""
    return mostly(SHAPES.get(key, NUMBERS), VALUES)


def section(name):
    if name not in SCHEMA_KEYS:
        return value(name)
    keyed = entries(SCHEMA_KEYS[name], value)
    if name == "trajectory":
        # mostly one kind with keys of that kind only
        keyed = mostly(
            st.sampled_from(sorted(config._TRAJECTORY_DEFAULTS)).flatmap(
                lambda kind: entries(config._TRAJECTORY_DEFAULTS[kind], value).map(
                    lambda d: {**d, "kind": kind}
                )
            ),
            keyed,
        )
    return mostly(keyed, VALUES)


# every document gets a trajectory section, so that accepted ones build
# references of each kind
SCHEMA_DOCUMENTS = st.tuples(
    entries(set(SCHEMA_KEYS) | {"plant"}, section), section("trajectory")
).map(lambda parts: {**parts[0], "trajectory": parts[1]})

# Documents valid in every key, for the two rules a resolved config can
# still break, which the documents above almost never reach: a waypoint
# path of a centimeter or less, which ramps through in under 4 samples
# unless its ramp is long, and gains either side of the stability bound
# (with the default kd, an order-2 axis is stable for kp in (0, 1.3))
SMALL = st.floats(0.0, 0.01)
EDGE_DOCUMENTS = st.fixed_dictionaries({
    "trajectory": st.fixed_dictionaries({
        "kind": st.just("waypoints"),
        "points": st.lists(st.lists(SMALL, min_size=2, max_size=2), min_size=2, max_size=3),
        "ramp_time": st.floats(0.001, 0.5),
    }),
    "gains": st.fixed_dictionaries({"kp": st.lists(st.floats(-0.5, 2.0), min_size=2, max_size=2)}),
})

DOCUMENTS = mostly(SCHEMA_DOCUMENTS, EDGE_DOCUMENTS)


# waypoint references of 2 and 3 samples and unstable gains, run whatever
# the draws hold
SHORT_2 = {"trajectory": {"kind": "waypoints", "points": [[0, 0], [0.002, 0]], "ramp_time": 0.01}}
SHORT_3 = {"trajectory": {"kind": "waypoints", "points": [[0, 0], [0.01, 0]], "ramp_time": 0.05}}
UNSTABLE = {"gains": {"kp": [3.0, 3.0]}}


class TestFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(DOCUMENTS)
    @example(SHORT_2)
    @example(SHORT_3)
    def test_only_config_errors_escape(self, doc):
        # a document either resolves, reference included, or raises ConfigError
        try:
            cfg = parse_config(doc)
        except ConfigError:
            return
        assert len(cfg.trajectory()) >= 4

    def test_gains_check_rejects_what_simulate_rejects(self, learned_model):
        # both read the same file; gains-check reports unstable gains, which
        # simulate refuses as a bad run request, with exit 1 instead of 2
        drawn = collections.Counter()

        @settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @given(DOCUMENTS)
        @example(SHORT_2)
        @example(SHORT_3)
        @example(UNSTABLE)
        def agree(doc):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "cfg.yaml")
                with open(path, "w", encoding="utf-8") as fh:
                    yaml.safe_dump(doc, fh)
                checked = main(["gains-check", "--config", path])
                simulated = main(["simulate", "--config", path, "--model", learned_model,
                                  "--out", os.path.join(tmp, "out")])
            assert checked in (0, 1, 2)
            assert (simulated == 2) == (checked != 0), (checked, simulated)
            if doc not in (SHORT_2, SHORT_3, UNSTABLE):
                drawn[outcome(doc, checked)] += 1

        agree()
        # the drawn documents, not only the examples, reach both rules
        assert drawn["short reference"] >= 5 and drawn["unstable gains"] >= 5, drawn


def outcome(doc, checked):
    """Which rule, if any, turned doc away, given gains-check's exit code."""
    if checked == 1:
        return "unstable gains"
    try:
        parse_config(doc)
    except ConfigError as exc:
        return "short reference" if "fewer than the 4" in str(exc) else "other error"
    return "accepted"


@pytest.fixture(scope="module")
def learned_model(tmp_path_factory):
    """A model file for documents that put the learned inverse in the slot."""
    rng = np.random.default_rng(0)
    model = fit(rng.normal(size=(20, 6)), rng.normal(size=(20, 2)),
                FitConfig(restarts=0, max_iter=20))
    path = str(tmp_path_factory.mktemp("model") / "model.json")
    save_model(model, path)
    return path
