import math
import re
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from contactplan.errors import ScenarioError
from contactplan.scenario import (_DEFAULTS, _from_dict, _merge, default_scenario,
                                  load_scenario, save_scenario)

# Every key whose default is a single number, as "section.key" (or "key").
SCALAR_KEYS = [f"{section}.{key}"
               for section, values in _DEFAULTS.items() if isinstance(values, dict)
               for key, value in values.items() if isinstance(value, (int, float))] \
    + [key for key, value in _DEFAULTS.items() if isinstance(value, (int, float))]


def _load_override(tmp_path, key, value):
    section, _, name = key.rpartition(".")
    path = tmp_path / "override.yaml"
    path.write_text(yaml.safe_dump({section: {name: value}} if section
                                   else {name: value}))
    return load_scenario(str(path))


class TestDefaults:
    def test_weights(self, default_config):
        assert default_config.weight_position == 1e3
        assert default_config.weight_displacement == 1e2
        assert default_config.weight_slack == 1e6

    def test_object_wrench_matches_object_weight(self, default_config):
        assert default_config.object_wrench[2] == pytest.approx(-117.72)
        assert default_config.object_wrench[2] == pytest.approx(
            -default_config.object_mass * default_config.gravity)
        np.testing.assert_allclose(default_config.object_wrench[3:], 0.0)

    def test_path(self, default_config):
        waypoints = default_config.waypoints()
        assert waypoints.shape == (9, 2)
        np.testing.assert_allclose(waypoints[-1] - waypoints[0], [0.0, 0.40],
                                   atol=1e-12)
        np.testing.assert_allclose(np.diff(waypoints, axis=0)[:, 1], 0.05,
                                   atol=1e-12)

    def test_masses_and_radii(self, default_config):
        assert default_config.robot_mass == pytest.approx(54.0)
        assert default_config.object_mass == pytest.approx(12.0)
        assert default_config.safe_radius == pytest.approx(0.15)
        assert default_config.object_radius == pytest.approx(0.10)

    def test_grasp_offsets_default_to_bar_ends(self, default_config):
        np.testing.assert_allclose(default_config.grasp_offsets, [-0.30, 0.30])
        assert default_config.grasp_separation == pytest.approx(0.60)


class TestLoadScenario:
    def test_empty_file_gives_defaults(self, tmp_path, default_config):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        config = load_scenario(str(path))
        assert config.to_dict() == default_config.to_dict()

    def test_negative_safe_radius_names_the_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("balance:\n  safe_radius: -1.0\n")
        with pytest.raises(ScenarioError, match="balance.safe_radius must be > 0"):
            load_scenario(str(path))

    def test_waypoint_override_changes_spacing(self, tmp_path):
        path = tmp_path / "five.yaml"
        path.write_text("task:\n  waypoint_count: 5\n")
        config = load_scenario(str(path))
        waypoints = config.waypoints()
        assert waypoints.shape == (5, 2)
        np.testing.assert_allclose(np.diff(waypoints, axis=0)[:, 1], 0.10,
                                   atol=1e-12)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "typo.yaml"
        path.write_text("robot:\n  torso_masss: 40.0\n")
        with pytest.raises(ScenarioError, match="unknown key: robot.torso_masss"):
            load_scenario(str(path))

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("robot: [unclosed\n")
        with pytest.raises(ScenarioError, match="cannot parse"):
            load_scenario(str(path))

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(str(tmp_path / "nope.yaml"))

    def test_scenario_dir_environment_fallback(self, tmp_path, monkeypatch):
        (tmp_path / "exp.yaml").write_text("object:\n  mass: 10.0\n")
        monkeypatch.setenv("CONTACTPLAN_SCENARIO_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path / "..")
        config = load_scenario("exp.yaml")
        assert config.object_mass == pytest.approx(10.0)

    def test_unreachable_waypoints_rejected(self, tmp_path):
        path = tmp_path / "far.yaml"
        path.write_text("task:\n  path_length: 1.5\n")
        with pytest.raises(ScenarioError, match="out of reach"):
            load_scenario(str(path))

    def test_safe_circle_must_fit_support_polygon(self, tmp_path):
        path = tmp_path / "tight.yaml"
        path.write_text("balance:\n  safe_radius: 0.5\n")
        with pytest.raises(ScenarioError, match="safe circle"):
            load_scenario(str(path))

    @pytest.mark.parametrize("polygon", [
        [[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]],
        [[-0.2, -0.16], [0.2, -0.16], [0.2, -0.16], [0.2, 0.16], [-0.2, 0.16]],
    ], ids=["one-point", "repeated-vertex"])
    def test_zero_length_polygon_edge_rejected(self, tmp_path, polygon):
        with pytest.raises(ScenarioError, match="balance"):
            _load_override(tmp_path, "balance.sp_polygon", polygon)

    @pytest.mark.parametrize("key, value", [
        ("task.path_direction", [1e200, 1e200]),
        ("balance.sp_polygon", [[-1e200, -1e200], [1e200, -1e200],
                                [1e200, 1e200], [-1e200, 1e200]]),
        ("balance.sp_polygon", [[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]]),
    ], ids=["huge-direction", "huge-polygon", "one-point-polygon"])
    def test_overflowing_input_rejected_without_warnings(self, tmp_path, key, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match=key.split(".")[0]):
                _load_override(tmp_path, key, value)


class TestScalarKeys:
    def test_scalar_keys_cover_the_schema(self):
        assert len(SCALAR_KEYS) == 23
        assert "gravity" in SCALAR_KEYS and "solver.slack_max" in SCALAR_KEYS

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, None, "x"],
                             ids=["nan", "inf", "true", "null", "text"])
    @pytest.mark.parametrize("key", SCALAR_KEYS)
    def test_malformed_value_names_the_key(self, tmp_path, key, value):
        with pytest.raises(ScenarioError, match=re.escape(key)):
            _load_override(tmp_path, key, value)

    @pytest.mark.parametrize("key, value", [
        ("task.path_length", -0.1),
        ("task.waypoint_count", 0),
        ("task.waypoint_count", 2.0),
        ("contact.link_index", 4),
        ("contact.support_force_scale", -1.0),
        ("object.mass", 0.0),
        ("solver.max_iterations", 1.5),
        ("solver.max_iterations", 0),
        ("solver.armijo_c1", 1.0),
        ("solver.penalty_growth", 0.5),
        ("solver.penalty_growth", 1.0),
        ("solver.slack_max", -1),
        ("balance.sp_polygon", "abc"),
        ("balance.sp_polygon", [[float("nan"), 0.0], [1.0, 0.0], [0.0, 1.0]]),
        ("task.path_direction", [0.0, 0.0]),
        ("task.path_direction", [1e308, 1e308]),
        ("task.path_direction", [1e-160, 1e-160]),
        ("task.waypoint_count", 10_001),
        pytest.param("task.waypoint_count", 10**400, id="task.waypoint_count-huge-int"),
        pytest.param("object.mass", 10**400, id="object.mass-huge-int"),
        pytest.param("robot.link_lengths", [10**400, 0.3, 0.3, 0.2],
                     id="robot.link_lengths-huge-int"),
    ])
    def test_out_of_range_value_names_the_key(self, tmp_path, key, value):
        with pytest.raises(ScenarioError, match=re.escape(key)):
            _load_override(tmp_path, key, value)

    def test_integer_valued_float_keys_accept_ints(self, tmp_path):
        config = _load_override(tmp_path, "object.mass", 8)
        assert config.object_mass == 8.0 and isinstance(config.object_mass, float)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, default_config):
        path = tmp_path / "saved.yaml"
        save_scenario(default_config, str(path))
        loaded = load_scenario(str(path))
        assert loaded.to_dict() == default_config.to_dict()

    def test_round_trip_preserves_overrides(self, tmp_path):
        path = tmp_path / "custom.yaml"
        path.write_text("object:\n  mass: 7.5\n"
                        "weights:\n  slack: 2.0e6\n")
        config = load_scenario(str(path))
        save_scenario(config, str(tmp_path / "resaved.yaml"))
        again = load_scenario(str(tmp_path / "resaved.yaml"))
        assert again.object_mass == pytest.approx(7.5)
        assert again.weight_slack == pytest.approx(2.0e6)
        assert again.to_dict() == config.to_dict()


def test_default_scenario_is_validated():
    config = default_scenario()
    assert config.waypoint_count >= 1
    assert config.solver.tol_kkt > 0


# Leaf keys of the schema as (section, key); section None for top-level keys.
LEAF_KEYS = [(section, key)
             for section, values in _DEFAULTS.items() if isinstance(values, dict)
             for key in values] \
    + [(None, key) for key, value in _DEFAULTS.items() if not isinstance(value, dict)]
# The keys the property's invariants read get half of the draws.
INVARIANT_KEYS = [("task", "path_direction"), ("balance", "sp_polygon"),
                  ("balance", "sp_center"), ("balance", "safe_radius")]

# Around the limits of float64 and of its squares (1e-154 .. 1e154).
_EXTREME_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e-200, -1e-160, 1e-160,
                                   1e-150, 1e150, 1e160, 1e308, -1e308,
                                   1.7976931348623157e308])
_FLOATS = st.floats() | _EXTREME_FLOATS
_SCALARS = _FLOATS | st.integers() | st.booleans() | st.none() | st.text(max_size=6)
_NESTED = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4),
                       max_leaves=10)
_POINT_LISTS = st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=6)


def _shaped(shape):
    if not shape:
        return _FLOATS
    return st.lists(_shaped(shape[1:]), min_size=shape[0], max_size=shape[0])


def _override(key):
    """A value for one key: half the time numbers shaped like its default
    (grasp_offsets defaults to None and takes two), else any junk."""
    section, name = key
    default = _DEFAULTS[name] if section is None else _DEFAULTS[section][name]
    shape = np.shape(default) if default is not None else (2,)
    return st.tuples(st.just(key), _shaped(shape) | st.one_of(_SCALARS, _NESTED,
                                                              _POINT_LISTS))


@settings(derandomize=True, deadline=None, max_examples=400)
@example([(("balance", "sp_polygon"), [[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]])])
@example([(("task", "path_direction"), [1e308, 1e308])])
@example([(("task", "path_direction"), [1e-160, 1e-160])])
@example([(("object", "mass"), 10**400), (("task", "waypoint_count"), 10**400)])
@given(st.lists((st.sampled_from(LEAF_KEYS) | st.sampled_from(INVARIANT_KEYS))
                .flatmap(_override), min_size=1, max_size=2))
def test_any_override_loads_valid_or_raises_scenario_error(overrides):
    raw = {}
    for (section, key), value in overrides:
        if section is None:
            raw[key] = value
        else:
            raw.setdefault(section, {})[key] = value
    try:
        config = _from_dict(_merge(_DEFAULTS, raw))
    except ScenarioError:
        return
    assert abs(math.hypot(*config.path_direction) - 1.0) <= 1e-12
    center, radius = config.sp_center, config.safe_radius
    polygon = config.sp_polygon
    for a, b in zip(polygon, np.roll(polygon, -1, axis=0)):
        edge = b - a
        length = math.hypot(*edge)
        assert 0.0 < length < math.inf
        inward = (edge[0] * (center[1] - a[1]) - edge[1] * (center[0] - a[0])) / length
        assert inward >= radius - 1e-12
