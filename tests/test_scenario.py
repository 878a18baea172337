import math
import re
import warnings
from dataclasses import astuple, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from contactplan.errors import ScenarioError
from contactplan.scenario import (_DEFAULTS, _KEYS, ScenarioConfig,
                                  default_scenario, load_scenario)
from test_sweep import CASES, perturbed

# Every key whose default is a single number, as "section.key" (or "key").
SCALAR_KEYS = [f"{section}.{key}"
               for section, values in _DEFAULTS.items() if isinstance(values, dict)
               for key, value in values.items() if isinstance(value, (int, float))] \
    + [key for key, value in _DEFAULTS.items() if isinstance(value, (int, float))]

MALFORMED = [float("nan"), float("inf"), True, None, "x"]
MALFORMED_IDS = ["nan", "inf", "true", "null", "text"]

# Values of the right type out of their key's range, or of the wrong shape.
OUT_OF_RANGE = [
    ("task.path_length", -0.1),
    ("task.waypoint_count", 0),
    ("task.waypoint_count", 2.0),
    ("contact.link_index", 4),
    ("object.mass", 0.0),
    ("solver.max_iterations", 1.5),
    ("solver.max_iterations", 0),
    ("solver.slack_max", -1),
    ("balance.sp_polygon", "abc"),
    pytest.param("balance.sp_polygon",
                 [[float("nan"), 0.0], [1.0, 0.0], [0.0, 1.0]],
                 id="balance.sp_polygon-nan"),
    ("task.path_direction", [0.0, 0.0]),
    ("task.path_direction", [1e308, 1e308]),
    ("task.path_direction", [1e-160, 1e-160]),
    ("task.waypoint_count", 10_001),
    pytest.param("task.waypoint_count", 10**400, id="task.waypoint_count-huge-int"),
    pytest.param("object.mass", 10**400, id="object.mass-huge-int"),
    pytest.param("robot.link_lengths", [10**400, 0.3, 0.3, 0.2],
                 id="robot.link_lengths-huge-int"),
]


def assert_same_config(config, expected):
    """Every field equal, arrays bit for bit."""
    for f in fields(ScenarioConfig):
        value, want = getattr(config, f.name), getattr(expected, f.name)
        if isinstance(want, np.ndarray):
            assert value.shape == want.shape, f.name
            assert value.tobytes() == want.tobytes(), f.name
        else:
            assert value == want, f.name


def _load_override(tmp_path, key, value):
    section, _, name = key.rpartition(".")
    path = tmp_path / "override.yaml"
    path.write_text(yaml.safe_dump({section: {name: value}} if section
                                   else {name: value}))
    return load_scenario(str(path))


def _replace_key(key, value):
    """``default_scenario()`` with ``key`` set to ``value`` by
    ``dataclasses.replace``: the key's field, or its entry in a field of
    several keys (a stack's rows or the solver's settings, in key order)."""
    config = default_scenario()
    name = next(name for k, name, _, _ in _KEYS if k == key)
    keys = [k for k, other, _, _ in _KEYS if other == name]
    if len(keys) > 1:
        parts = list(astuple(config.solver) if name == "solver"
                     else getattr(config, name))
        parts[keys.index(key)] = value
        value = parts
    return replace(config, **{name: value})


def _error(make) -> str:
    with pytest.raises(ScenarioError) as excinfo:
        make()
    return str(excinfo.value)


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
        assert_same_config(load_scenario(str(path)), default_config)

    def test_file_values_replace_defaults(self, tmp_path, default_config):
        path = tmp_path / "custom.yaml"
        path.write_text("object:\n  mass: 7.5\n"
                        "weights:\n  slack: 2.0e6\n")
        config = load_scenario(str(path))
        assert config.object_mass == 7.5
        assert config.weight_slack == 2.0e6
        assert config.weight_position == default_config.weight_position

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

    @pytest.mark.parametrize("key", [
        "contact.support_force_scale", "solver.armijo_c1",
        "solver.backtrack_ratio", "solver.penalty_growth"])
    def test_removed_key_rejected(self, tmp_path, key):
        # Each held its default only: the force balance assumes a support
        # force scale of 1, and the line-search constants are fixed in sqp.
        value = 1.0 if key == "contact.support_force_scale" else 0.5
        with pytest.raises(ScenarioError, match=re.escape(f"unknown key: {key}")):
            _load_override(tmp_path, key, value)

    @pytest.mark.parametrize("text, match", [
        ("task: {path_length: 0.3, path_length: 0.5}\n",
         "duplicate key: path_length at line 1"),
        ("task:\n  path_length: 0.3\nrobot:\n  torso_mass: 40.0\n"
         "task:\n  waypoint_count: 5\n", "duplicate key: task at line 5"),
        ("balance:\n  sp_polygon: [{x: 1, x: 2}]\n",
         "duplicate key: x at line 2"),
    ])
    def test_repeated_key_rejected(self, tmp_path, text, match):
        # YAML itself keeps the last of two equal keys: the first case would
        # plan a 0.5 m path.
        path = tmp_path / "twice.yaml"
        path.write_text(text)
        with pytest.raises(ScenarioError, match=re.escape(match)):
            load_scenario(str(path))

    def test_repeated_anchor_loads(self, tmp_path):
        # An alias repeats a node, not a key.
        path = tmp_path / "alias.yaml"
        path.write_text("weights:\n  position: &w 500.0\n  displacement: *w\n")
        config = load_scenario(str(path))
        assert config.weight_position == config.weight_displacement == 500.0

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

    @pytest.mark.parametrize("key, value", [
        ("object.initial_center", [0.1, 0.05]),
        ("task.object_wrench", [0.0, 10.0, 600.0, 0.0, 0.0, 0.0]),
        ("robot.torso_mass", 1e308),
        ("robot.link_mass", 1e308),
        ("gravity", 1e308),
    ], ids=["dead-zone", "lifting-wrench", "huge-torso", "huge-links",
            "huge-gravity"])
    def test_unplannable_start_names_the_key(self, tmp_path, key, value):
        # Each value passes its own key's checks; the first puts the left
        # grasp 0.05 m from its base, inside |0.6 - 0.5| m, the second
        # outweighs the robot's 529.74 N, and the last three make the
        # robot's weight overflow.
        with pytest.raises(ScenarioError, match=re.escape(key)):
            _load_override(tmp_path, key, value)

    def test_clockwise_polygon_rejected(self, tmp_path):
        clockwise = [[-0.2, 0.16], [0.2, 0.16], [0.2, -0.16], [-0.2, -0.16]]
        with pytest.raises(ScenarioError,
                           match="balance: sp_polygon must be convex with CCW winding"):
            _load_override(tmp_path, "balance.sp_polygon", clockwise)

    @pytest.mark.parametrize("polygon", [
        [[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]],
        [[-0.2, -0.16], [0.2, -0.16], [0.2, -0.16], [0.2, 0.16], [-0.2, 0.16]],
        # The second edge's length underflows to 0: this loaded, with
        # numpy's divide-by-zero warning, as its inward distance was +inf.
        [[1.0, -1.0], [1.0, 0.0], [1.0, 5e-324], [-1.0, 1.0], [-1.0, -1.0]],
    ], ids=["one-point", "repeated-vertex", "underflowing-edge"])
    def test_zero_length_polygon_edge_rejected(self, tmp_path, polygon):
        with pytest.raises(ScenarioError, match="balance"):
            _load_override(tmp_path, "balance.sp_polygon", polygon)

    @pytest.mark.parametrize("key, value, match", [
        ("task.path_direction", [1e200, 1e200], "task.path_direction"),
        ("balance.sp_polygon", [[-1e200, -1e200], [1e200, -1e200],
                                [1e200, 1e200], [-1e200, 1e200]],
         r"balance\.sp_polygon coordinates must lie in \[-1e150, 1e150\]"),
        ("balance.sp_polygon", [[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]], "balance"),
    ], ids=["huge-direction", "huge-polygon", "one-point-polygon"])
    def test_overflowing_input_rejected_without_warnings(self, tmp_path, key, value,
                                                         match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match=match):
                _load_override(tmp_path, key, value)

    def test_polygon_at_the_coordinate_bound_loads(self, tmp_path):
        # At the bound the balance check stays finite and still passes.
        big = [[-1e150, -1e150], [1e150, -1e150], [1e150, 1e150], [-1e150, 1e150]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = _load_override(tmp_path, "balance.sp_polygon", big)
        np.testing.assert_array_equal(config.sp_polygon, big)


class TestScalarKeys:
    def test_scalar_keys_cover_the_schema(self):
        assert len(SCALAR_KEYS) == 19
        assert "gravity" in SCALAR_KEYS and "solver.slack_max" in SCALAR_KEYS

    @pytest.mark.parametrize("value", MALFORMED, ids=MALFORMED_IDS)
    @pytest.mark.parametrize("key", SCALAR_KEYS)
    def test_malformed_value_names_the_key(self, tmp_path, key, value):
        with pytest.raises(ScenarioError, match=re.escape(key)):
            _load_override(tmp_path, key, value)

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE)
    def test_out_of_range_value_names_the_key(self, tmp_path, key, value):
        with pytest.raises(ScenarioError, match=re.escape(key)):
            _load_override(tmp_path, key, value)

    def test_integer_valued_float_keys_accept_ints(self, tmp_path):
        config = _load_override(tmp_path, "object.mass", 8)
        assert config.object_mass == 8.0 and isinstance(config.object_mass, float)


class TestReplaceMatchesLoading:
    """``dataclasses.replace`` rejects a value exactly when a file that
    gives it does, with the same message."""

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE)
    def test_out_of_range_value(self, tmp_path, key, value):
        assert _error(lambda: _replace_key(key, value)) \
            == _error(lambda: _load_override(tmp_path, key, value))

    @pytest.mark.parametrize("value", MALFORMED, ids=MALFORMED_IDS)
    @pytest.mark.parametrize("key", SCALAR_KEYS)
    def test_malformed_value(self, tmp_path, key, value):
        assert _error(lambda: _replace_key(key, value)) \
            == _error(lambda: _load_override(tmp_path, key, value))

    @pytest.mark.parametrize("key, value, message", [
        ("contact.link_index", 7, "contact.link_index must be in [0, 3], got 7"),
        ("task.waypoint_count", 0, "task.waypoint_count must be in [1, 10000], got 0"),
        ("task.waypoint_count", 2.5, "task.waypoint_count must be an integer, got 2.5"),
        ("robot.link_radius", -0.04, "robot.link_radius must be > 0, got -0.04"),
        ("balance.safe_radius", -1.0, "balance.safe_radius must be > 0, got -1.0"),
        ("gravity", -9.81, "gravity must be > 0, got -9.81"),
    ])
    def test_value_that_once_reached_planning(self, tmp_path, key, value, message):
        # Through replace these planned into an IndexError (link 7), an empty
        # plan (no waypoints), a typed failure seconds later (a negative
        # radius, a fractional count), or a lifting load blamed on
        # task.object_wrench (negative gravity).
        assert _error(lambda: _replace_key(key, value)) == message
        assert _error(lambda: _load_override(tmp_path, key, value)) == message

    def test_grasp_offsets_none_takes_the_bar_ends(self, tmp_path):
        config = replace(default_scenario(), bar_length=0.5, grasp_offsets=None)
        assert_same_config(config, _load_override(tmp_path, "object.bar_length", 0.5))
        np.testing.assert_array_equal(config.grasp_offsets, [-0.25, 0.25])

    @pytest.mark.parametrize("value, message", [
        (np.zeros((3, 2)), "arm_bases must hold 2 values: robot.arm_base_left, "
                           "robot.arm_base_right"),
        (5.0, "arm_bases must hold 2 values"),
        (np.zeros(2), "robot.arm_base_left must have shape (2,), got ()"),
    ], ids=["three-rows", "scalar", "one-row"])
    def test_stack_takes_one_row_per_key(self, value, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            replace(default_scenario(), arm_bases=value)

    def test_copy_is_bit_identical(self, default_config):
        assert_same_config(replace(default_config), default_config)

    @pytest.mark.parametrize("overrides, budget, fails_at, reason", CASES)
    def test_sweep_copies_are_bit_identical(self, overrides, budget, fails_at,
                                            reason):
        # Normalizing the unit path direction a second time would move it
        # and re-draw slant-full.
        config = default_scenario(overrides)
        for copy in [config] + [perturbed(config, seed) for seed in range(10)]:
            assert_same_config(replace(copy), copy)

    def test_path_direction_is_normalized_once(self, tmp_path):
        # The config keeps the vector as given; its waypoints, and its
        # copy's, run along the vector over its norm.  Normalizing [0.3, 1]
        # a second time moves it by an ulp, and moves the waypoints.
        direction = np.array([0.3, 1.0])
        once = direction / float(np.linalg.norm(direction))
        twice = once / float(np.linalg.norm(once))
        config = _load_override(tmp_path, "task.path_direction", [0.3, 1.0])
        assert config.path_direction.tobytes() == direction.tobytes()
        steps = np.arange(9) / 8 * config.path_length
        expected = config.initial_center + np.outer(steps, once)
        assert (config.initial_center + np.outer(steps, twice)).tobytes() \
            != expected.tobytes()
        assert config.waypoints().tobytes() == expected.tobytes()
        assert replace(config).waypoints().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("direction", [
        [0.0, 1.5], [0.0, 2.0], [0.3, 1.0], [-1e-150, 2e-150], [3e149, 4e149],
    ], ids=["0,1.5", "0,2", "0.3,1", "tiny", "huge"])
    def test_path_direction_plans_one_path(self, tmp_path, direction):
        # The constructor, default_scenario overrides, loading and replace
        # give the same waypoints for one vector, a path_length long.
        default = default_scenario()
        init = {f.name: getattr(default, f.name)
                for f in fields(ScenarioConfig) if f.init}
        configs = [
            ScenarioConfig(**{**init, "path_direction": np.array(direction)}),
            default_scenario({"task": {"path_direction": direction}}),
            _load_override(tmp_path, "task.path_direction", direction),
            replace(default, path_direction=np.array(direction)),
        ]
        expected = configs[2].waypoints()
        for config in configs:
            assert config.waypoints().tobytes() == expected.tobytes()
        assert np.hypot(*(expected[-1] - expected[0])) == pytest.approx(0.4)

    @pytest.mark.parametrize("direction", [[0.0, 2.0], [0.0, 0.5]],
                             ids=["0,2", "0,0.5"])
    def test_path_direction_rejected_alike(self, tmp_path, direction):
        # A path too long for the arms, whatever the direction's norm.
        path = tmp_path / "long.yaml"
        path.write_text(yaml.safe_dump(
            {"task": {"path_direction": direction, "path_length": 1.2}}))
        message = _error(lambda: load_scenario(str(path)))
        assert message.startswith("task: waypoint 5 ")
        assert _error(lambda: replace(default_scenario(), path_length=1.2,
                                      path_direction=np.array(direction))) \
            == message


def test_default_scenario_is_validated():
    config = default_scenario()
    assert config.waypoint_count >= 1
    assert config.solver.tol_kkt > 0


@pytest.mark.parametrize("changes, match", [
    ({"path_length": 1.2}, "task: waypoint 5 "),
    ({"sp_center": np.array([0.1, 0.0])}, "balance: safe circle"),
    ({"initial_center": np.array([0.1, 0.05])}, "object.initial_center"),
    ({"object_wrench": np.array([0.0, 10.0, 600.0, 0.0, 0.0, 0.0])},
     "task.object_wrench"),
    ({"torso_mass": 1e308}, "robot.torso_mass: the robot weight"),
    ({"link_mass": 1e308}, "robot.link_mass: the robot weight"),
    ({"gravity": 1e308}, "gravity: the robot weight"),
    ({"link_lengths": np.array([0.3, 1e-200, 0.3, 0.2])}, "robot.link_lengths"),
], ids=["reach", "balance", "dead-zone", "lifting-wrench", "huge-torso",
        "huge-links", "huge-gravity", "short-link"])
def test_replace_runs_the_checks(changes, match):
    # A config made with dataclasses.replace is checked like a loaded one.
    with pytest.raises(ScenarioError, match=match):
        replace(default_scenario(), **changes)


def test_array_fields_are_read_only_copies():
    # A config's checks hold for its lifetime: replace copies the caller's
    # array, and writing into a config's array raises instead of building a
    # config whose load lifts the robot.
    wrench = np.array([0.0, 10.0, -117.72, 0.0, 0.0, 0.0])
    config = replace(default_scenario(), object_wrench=wrench)
    assert config.object_wrench is not wrench
    wrench[2] = 600.0
    assert config.object_wrench[2] == -117.72
    with pytest.raises(ValueError, match="read-only"):
        config.object_wrench[2] = 600.0
    for f in fields(ScenarioConfig):
        value = getattr(config, f.name)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, f.name


def short_link(length):
    """Overrides: link 2 ``length`` m long, two waypoints 5 cm apart."""
    return {"robot": {"link_lengths": [0.3, length, 0.3, 0.2]},
            "task": {"path_length": 0.05, "waypoint_count": 2}}


# A link this short adds nothing to a joint point of order 0.1 m, so the
# contact link's two end points coincide; these loaded, and failed planning
# with an untyped error, before the least link length was checked.
SHORT_LINKS = {f"link-{length:g}": short_link(length) for length in (1e-200, 1e-160)}


@pytest.mark.parametrize("length, loads", [
    (2e-9, True), (5e-10, False), (1e-160, False), (1e-200, False)])
def test_least_link_length(length, loads):
    # The bases' largest coordinate is 0.2 m and the reach 0.8 m + length,
    # so the least length is 1e-9 * (1.0 m + length).
    if loads:
        assert default_scenario(short_link(length)).link_lengths[1] == length
    else:
        with pytest.raises(ScenarioError, match="robot.link_lengths"):
            default_scenario(short_link(length))


def test_default_scenario_overrides():
    config = default_scenario({"task": {"waypoint_count": 4}})
    assert config.waypoint_count == 4
    assert_same_config(config, replace(default_scenario(), waypoint_count=4))
    with pytest.raises(ScenarioError, match="task.waypoint_count"):
        default_scenario({"task": {"waypoint_count": 0}})


# Leaf keys of the schema as (section, key); section None for top-level keys.
LEAF_KEYS = [(section, key)
             for section, values in _DEFAULTS.items() if isinstance(values, dict)
             for key in values] \
    + [(None, key) for key, value in _DEFAULTS.items() if not isinstance(value, dict)]
# The keys the property's invariants read get half of the draws.
INVARIANT_KEYS = [("task", "path_direction"), ("balance", "sp_polygon"),
                  ("balance", "sp_center"), ("balance", "safe_radius"),
                  ("object", "initial_center"), ("task", "object_wrench")]

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
@example([(("object", "initial_center"), [0.1, 0.05])])
@example([(("task", "object_wrench"), [0.0, 10.0, 600.0, 0.0, 0.0, 0.0])])
@example([(("robot", "torso_mass"), 1e308)])
@example([(("robot", "link_mass"), 1e308)])
@example([((None, "gravity"), 1e308)])
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
        config = default_scenario(raw)
    except ScenarioError:
        return
    # A copy runs the checks again and changes nothing, and the waypoints
    # step along a unit vector: those of a unit path from the origin.
    assert_same_config(replace(config), config)
    unit_path = SimpleNamespace(initial_center=np.zeros(2), path_length=1.0,
                                waypoint_count=2,
                                path_direction=config.path_direction)
    step = ScenarioConfig.waypoints(unit_path)[1]
    assert abs(math.hypot(*step) - 1.0) <= 1e-12
    center, radius = config.sp_center, config.safe_radius
    polygon = config.sp_polygon
    for a, b in zip(polygon, np.roll(polygon, -1, axis=0)):
        edge = b - a
        length = math.hypot(*edge)
        assert 0.0 < length < math.inf
        inward = (edge[0] * (center[1] - a[1]) - edge[1] * (center[0] - a[0])) / length
        assert inward >= radius - 1e-12
    # Both start grasp points have a bent pose, the robot's weight is
    # finite, and the load cannot lift the robot.
    lengths = config.link_lengths
    dead_zone = abs((lengths[0] + lengths[1]) - (lengths[2] + lengths[3]))
    for base, grasp in zip(config.arm_bases,
                           config.grasp_points(config.initial_center)):
        assert np.linalg.norm(grasp - base) >= dead_zone
    assert np.all(np.isfinite(config.robot_weight))
    assert config.robot_weight[2] + config.object_wrench[2] < 0.0
