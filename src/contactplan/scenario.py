"""Scenario description: geometry, masses, task, and solver settings.

A scenario is a nested key/value YAML file; every omitted key falls back to
the built-in default experiment (a 54 kg dual-arm robot sliding a 12 kg bar
40 cm forward through two glovebox ports).  Unknown keys, and a key given
twice in one mapping, are hard errors so typos cannot silently change an
experiment.

Sections and keys (SI units throughout):

    robot:
      torso_mass            kg, default 40.0
      torso_position        [x, y, z] m, default [0, 0, 0.5]
      link_mass             kg per link (8 links), default 1.75
      arm_base_left         [x, y] m, default [-0.20, 0.0]
      arm_base_right        [x, y] m, default [0.20, 0.0]
      link_lengths          4 floats, m, default [0.30, 0.30, 0.30, 0.20]; each
                            >= 1e-150 m and >= 1e-9 (largest |base coordinate|
                            + reach), the joint coordinates' bound, so no link
                            vanishes in their rounding (end points coincide)
      link_radius           m, default 0.04
    glovebox:
      plane_height          m, default 0.90
      port_edges_left       two [x, y] points, default [[-0.275, 0.30], [-0.525, 0.30]]
      port_edges_right      two [x, y] points, default [[0.275, 0.30], [0.525, 0.30]]
    object:
      mass                  kg, default 12.0; kept in the schema but not read
                            by the planner: the load is task.object_wrench
      bar_length            m, default 0.60
      initial_center        [x, y] m, default [0.0, 0.45]
      grasp_offsets         two increasing floats, m along the bar; default
                            (null) the bar's ends, [-0.30, 0.30]
    balance:
      sp_polygon            convex CCW vertices, edges of positive length,
                            coordinates in [-1e150, 1e150], default
                            0.40 x 0.32 rectangle
      sp_center             [x, y] m, default [0.0, 0.0]
      safe_radius           m, default 0.15; the safe circle must lie
                            inside sp_polygon
      object_radius         m, default 0.10
    task:
      path_direction        [x, y], default [0.0, 1.0]; the path runs along
                            its unit vector, and its norm must lie in
                            [1e-150, 1e150]
      path_length           m, default 0.40
      waypoint_count        int in [1, 10000], default 9
      object_wrench         6 floats, default [0, 10, -117.72, 0, 0, 0]
                            (the load wrench the object transmits to the hands)
    weights:
      position              default 1.0e3
      displacement          default 1.0e2
      slack                 default 1.0e6
    contact:
      link_index            which link touches the ports, default 1
    solver:
      tol_kkt, tol_con, max_iterations, slack_max  (SolverSettings defaults)
    gravity:                m/s^2, default 9.81

The former keys ``contact.support_force_scale``, ``solver.armijo_c1``,
``solver.backtrack_ratio`` and ``solver.penalty_growth`` are rejected as
unknown: only a support-force scale of 1 keeps the force balance consistent,
and the other three are fixed constants of the SQP line search.

Every key is checked when a ``ScenarioConfig`` is built, by loading, by
``default_scenario(overrides)`` and by ``dataclasses.replace`` alike, and a
value is rejected with the same ``ScenarioError`` naming the key whichever
way it arrives.  Each key's own check (type, finiteness, shape, range,
integer-ness) runs first; each key is written once, in ``_KEYS``, with its
default and its check.  No value is transformed on the way: a config holds
``task.path_direction`` as given, and its waypoints use the direction's unit
vector, so one vector plans one path however the config was built.

A ``ScenarioConfig`` is then plannable by construction: building one raises
a ``ScenarioError`` naming the key when the robot's weight, mass times
gravity, overflows (the key of the larger factor: ``gravity``,
``robot.torso_mass`` or ``robot.link_mass``), a link is below its least
length (``robot.link_lengths``, see above), the support polygon does not
hold the safe circle (``balance``), a waypoint's grasp point lies beyond
shoulder (links 1-2) plus forearm (links 3-4) reach (``task``), a start
grasp point lies closer to its arm base than |shoulder - forearm|
(``object.initial_center``), or ``robot_weight[2] + object_wrench[2] >= 0``
lifts the robot (``task.object_wrench``; support forces are horizontal, so
the ground reaction's z is the same in every pose).
Planning never checks reach or balance again.

The environment variable ``CONTACTPLAN_SCENARIO_DIR`` names a directory that
relative scenario paths are resolved against when they do not exist locally.
"""

import math
import os
from dataclasses import astuple, dataclass, field, fields as dataclass_fields
from functools import partial

import numpy as np
import yaml

from . import kinematics as kin
from .errors import ScenarioError
from .kinematics import NUM_LINKS
from .sqp import SolverSettings
from .statics import check_support_region

# Waypoints are materialized at construction for the reach check.
MAX_WAYPOINTS = 10_000


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _vec(raw, key: str, shape: tuple) -> np.ndarray:
    """A finite float array of ``shape``, a read-only copy of ``raw``; None
    in ``shape`` matches any length."""
    try:
        v = _read_only(np.array(raw, dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{key} must be numbers of shape {shape}") from exc
    if v.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, v.shape)):
        raise ScenarioError(f"{key} must have shape {shape}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ScenarioError(f"{key} must be finite")
    return v


def _vector(*shape):
    return partial(_vec, shape=shape)


def _number(raw, key: str, lower: float = 0.0, upper: float = math.inf, *,
            closed: bool = False, integer: bool = False):
    """A finite scalar in (lower, upper), or in [lower, upper] when ``closed``.

    Booleans, None, non-numeric strings and non-finite values are rejected,
    and so is anything but an int for an ``integer`` key.  Numeric strings
    are accepted for float keys: PyYAML reads ``2.0e6`` (no exponent sign)
    as a string.  Every error names the key.
    """
    kind = "an integer" if integer else "a finite number"
    if isinstance(raw, bool) or (integer and not isinstance(raw, int)):
        raise ScenarioError(f"{key} must be {kind}, got {raw!r}")
    try:
        value = raw if integer else float(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{key} must be {kind}, got {raw!r}") from exc
    # Python ints are exact and finite; math.isfinite cannot take huge ones.
    if not integer and not math.isfinite(value):
        raise ScenarioError(f"{key} must be finite, got {raw!r}")
    if lower <= value <= upper if closed else lower < value < upper:
        return value
    if upper == math.inf:
        bound = f"{'>=' if closed else '>'} {lower:g}"
    else:
        bound = f"in {'[' if closed else '('}{lower:g}, {upper:g}{']' if closed else ')'}"
    raise ScenarioError(f"{key} must be {bound}, got {raw!r}")


def _offsets(raw, key: str) -> np.ndarray:
    offsets = _vec(raw, key, (2,))
    if not offsets[1] > offsets[0]:
        raise ScenarioError(f"{key} must be increasing")
    return offsets


@np.errstate(over="ignore")
def _direction(raw, key: str) -> np.ndarray:
    direction = _vec(raw, key, (2,))
    norm = float(np.linalg.norm(direction))
    # Beyond this range the squares in the norm overflow or underflow, and
    # direction / norm is zero, NaN or off unit length.
    if not 1e-150 <= norm <= 1e150:
        raise ScenarioError(f"{key} must have a norm in [1e-150, 1e150], got {norm!r}")
    return direction


def _polygon(raw, key: str) -> np.ndarray:
    polygon = _vec(raw, key, (None, 2))
    # Beyond this bound the edge lengths and cross products of the balance
    # check overflow, and it would report a misplaced safe circle instead.
    if not np.all(np.abs(polygon) <= 1e150):
        raise ScenarioError(f"{key} coordinates must lie in [-1e150, 1e150]")
    return polygon


# Each scenario key once: its YAML name ("section.key", or "key" at the top
# level), the ScenarioConfig field it fills, its default and its check, a
# callable (raw value, key) -> value that raises a ScenarioError naming the
# key.  Keys that share a field fill it in this order: the left and right
# rows of a stack, or SolverSettings' fields.
_KEYS = (
    ("robot.torso_mass", "torso_mass", 40.0, _number),
    ("robot.torso_position", "torso_position", [0.0, 0.0, 0.5], _vector(3)),
    ("robot.link_mass", "link_mass", 1.75, _number),
    ("robot.arm_base_left", "arm_bases", [-0.20, 0.0], _vector(2)),
    ("robot.arm_base_right", "arm_bases", [0.20, 0.0], _vector(2)),
    ("robot.link_lengths", "link_lengths", [0.30, 0.30, 0.30, 0.20],
     _vector(NUM_LINKS)),
    ("robot.link_radius", "link_radius", 0.04, _number),
    ("glovebox.plane_height", "plane_height", 0.90, _number),
    ("glovebox.port_edges_left", "port_edges", [[-0.275, 0.30], [-0.525, 0.30]],
     _vector(2, 2)),
    ("glovebox.port_edges_right", "port_edges", [[0.275, 0.30], [0.525, 0.30]],
     _vector(2, 2)),
    ("object.mass", "object_mass", 12.0, _number),
    ("object.bar_length", "bar_length", 0.60, _number),
    ("object.initial_center", "initial_center", [0.0, 0.45], _vector(2)),
    # None: the bar's ends, -/+ bar_length / 2.
    ("object.grasp_offsets", "grasp_offsets", None, _offsets),
    ("balance.sp_polygon", "sp_polygon",
     [[-0.20, -0.16], [0.20, -0.16], [0.20, 0.16], [-0.20, 0.16]], _polygon),
    ("balance.sp_center", "sp_center", [0.0, 0.0], _vector(2)),
    ("balance.safe_radius", "safe_radius", 0.15, _number),
    ("balance.object_radius", "object_radius", 0.10, _number),
    ("task.path_direction", "path_direction", [0.0, 1.0], _direction),
    ("task.path_length", "path_length", 0.40, partial(_number, closed=True)),
    ("task.waypoint_count", "waypoint_count", 9,
     partial(_number, lower=1, upper=MAX_WAYPOINTS, closed=True, integer=True)),
    ("task.object_wrench", "object_wrench", [0.0, 10.0, -117.72, 0.0, 0.0, 0.0],
     _vector(6)),
    ("weights.position", "weight_position", 1.0e3, _number),
    ("weights.displacement", "weight_displacement", 1.0e2, _number),
    ("weights.slack", "weight_slack", 1.0e6, _number),
    ("contact.link_index", "contact_link_index", 1,
     partial(_number, lower=0, upper=NUM_LINKS - 1, closed=True, integer=True)),
    # Types and finiteness here, defaults and ranges in SolverSettings.
    *((f"solver.{f.name}", "solver", f.default,
       partial(_number, lower=-math.inf, integer=f.name == "max_iterations"))
      for f in dataclass_fields(SolverSettings)),
    ("gravity", "gravity", 9.81, _number),
)

# The YAML schema, section -> key -> default, and each field's keys with
# their checks, both in the order of _KEYS.
_DEFAULTS: dict = {}
_FIELD_KEYS: dict = {}
for _key, _field, _default, _check in _KEYS:
    _section, _, _leaf = _key.rpartition(".")
    (_DEFAULTS.setdefault(_section, {}) if _section else _DEFAULTS)[_leaf] = _default
    _FIELD_KEYS.setdefault(_field, []).append((_key, _check))


def _check_field(name: str, raw, keys: list):
    """Field ``name``'s value from ``raw``, each of its ``keys`` checked."""
    if len(keys) == 1:
        key, check = keys[0]
        return check(raw, key)
    parts = astuple(raw) if isinstance(raw, SolverSettings) else raw
    try:
        count = len(parts)
    except TypeError:
        count = None
    if count != len(keys):
        raise ScenarioError(f"{name} must hold {len(keys)} values: "
                            + ", ".join(key for key, _ in keys))
    values = [check(part, key) for part, (key, check) in zip(parts, keys)]
    if name != "solver":
        return _read_only(np.array(values))
    try:
        return SolverSettings(*values)
    except ValueError as exc:
        raise ScenarioError(f"solver.{exc}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, immutable description of one experiment.

    Each field takes its key's value as a scenario file gives it, and
    construction checks it: ``arm_bases`` and ``port_edges`` take the left
    and the right key's value, ``solver`` a ``SolverSettings`` or its four
    values, and a ``grasp_offsets`` of None is the bar's ends.  Each array
    field holds a read-only copy of the value given, so a config cannot
    change after its checks.
    """

    torso_mass: float
    torso_position: np.ndarray
    link_mass: float
    arm_bases: np.ndarray          # (2, 2): left, right
    link_lengths: np.ndarray       # (4,)
    link_radius: float
    plane_height: float
    port_edges: np.ndarray         # (2, 2, 2): per arm, two edge points
    object_mass: float
    bar_length: float
    initial_center: np.ndarray     # (2,)
    grasp_offsets: np.ndarray      # (2,) along the bar x-axis; None: the ends
    sp_polygon: np.ndarray
    sp_center: np.ndarray
    safe_radius: float
    object_radius: float
    path_direction: np.ndarray     # (2,) as given; waypoints() normalize it
    path_length: float
    waypoint_count: int
    object_wrench: np.ndarray      # (6,)
    weight_position: float
    weight_displacement: float
    weight_slack: float
    contact_link_index: int
    solver: SolverSettings
    gravity: float
    # Derived once per config: every pass of the ZMP chain reads the weight,
    # and the start pose the (shoulder, forearm) link-pair sums.
    robot_mass: float = field(init=False, repr=False, compare=False)
    robot_weight: np.ndarray = field(init=False, repr=False, compare=False)
    segment_lengths: tuple = field(init=False, repr=False, compare=False)

    # Extreme inputs overflow to inf or NaN; the NaN-safe "not x <= bound"
    # checks reject them, so numpy's warnings would only repeat the error.
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        # Each key's own check first, in the order of _KEYS, so a
        # grasp_offsets of None reads a checked bar_length.
        for name, keys in _FIELD_KEYS.items():
            raw = getattr(self, name)
            if name == "grasp_offsets" and raw is None:
                raw = [-self.bar_length / 2.0, self.bar_length / 2.0]
            object.__setattr__(self, name, _check_field(name, raw, keys))
        mass = self.torso_mass + 2 * NUM_LINKS * self.link_mass
        object.__setattr__(self, "robot_mass", mass)
        object.__setattr__(self, "robot_weight", _read_only(
            mass * np.array([0.0, 0.0, -self.gravity])))
        if not np.all(np.isfinite(self.robot_weight)):
            # Blame the larger factor of mass * gravity, and of the mass
            # the larger term.
            links = 2 * NUM_LINKS * self.link_mass
            key = ("gravity" if self.gravity > mass else "robot.torso_mass"
                   if self.torso_mass >= links else "robot.link_mass")
            raise ScenarioError(
                f"{key}: the robot weight, {mass:.6g} kg times "
                f"{self.gravity:.6g} m/s^2, is not finite")
        lengths = self.link_lengths
        shoulder = float(lengths[0] + lengths[1])
        forearm = float(lengths[2] + lengths[3])
        object.__setattr__(self, "segment_lengths", (shoulder, forearm))
        reach, dead_zone = shoulder + forearm, abs(shoulder - forearm)
        # The floor keeps a link's squared length from underflowing.
        shortest = max(1e-9 * (float(np.abs(self.arm_bases).max()) + reach), 1e-150)
        if not lengths.min() >= shortest:
            raise ScenarioError(f"robot.link_lengths: a link of {lengths.min():.6g} m "
                                f"is below the least length, {shortest:.3g} m")
        try:
            check_support_region(self.sp_polygon, self.sp_center,
                                 self.safe_radius)
        except ValueError as exc:
            raise ScenarioError(f"balance: {exc}") from exc
        for index, waypoint in enumerate(self.waypoints()):
            for arm_index, grasp in enumerate(self.grasp_points(waypoint)):
                dist = float(np.linalg.norm(grasp - self.arm_bases[arm_index]))
                if not dist <= reach:
                    raise ScenarioError(
                        f"task: waypoint {index} at {waypoint} is out of reach "
                        f"for arm {arm_index} ({dist:.3f} m > {reach:.3f} m)")
                # Waypoint 0 is the start: initial_center itself.
                if index == 0 and not dist >= dead_zone:
                    raise ScenarioError(
                        f"object.initial_center: the start grasp point of arm "
                        f"{arm_index} is {dist:.3f} m from its base, inside "
                        f"|shoulder - forearm| = {dead_zone:.3f} m")
        if not self.robot_weight[2] + self.object_wrench[2] < 0.0:
            raise ScenarioError(
                f"task.object_wrench: z-component {self.object_wrench[2]:.6g} N "
                f"lifts the robot, whose weight is {self.robot_weight[2]:.6g} N")

    @property
    def grasp_separation(self) -> float:
        return float(self.grasp_offsets[1] - self.grasp_offsets[0])

    def joint_points(self, theta) -> tuple:
        """Both arms' ``forward_kinematics`` joint-point arrays (left then
        right) at the 8 joint angles ``theta``."""
        return tuple(kin.forward_kinematics(
            self.arm_bases[i], self.link_lengths,
            theta[i * NUM_LINKS:(i + 1) * NUM_LINKS]) for i in range(2))

    def grasp_points(self, object_center) -> np.ndarray:
        """World positions of the two grasp points for a bar centre."""
        center = np.asarray(object_center, dtype=float)
        return np.array([center + [self.grasp_offsets[0], 0.0],
                         center + [self.grasp_offsets[1], 0.0]])

    def waypoints(self) -> np.ndarray:
        """Equally spaced waypoints from the initial centre, inclusive, along
        the unit vector of ``path_direction``."""
        if self.waypoint_count == 1:
            return self.initial_center[None, :].copy()
        unit = self.path_direction / float(np.linalg.norm(self.path_direction))
        steps = np.arange(self.waypoint_count) / (self.waypoint_count - 1)
        return self.initial_center + np.outer(steps * self.path_length, unit)


def _merge(defaults: dict, overrides: dict, path: str = "") -> dict:
    merged = {}
    for key, default in defaults.items():
        full = f"{path}.{key}" if path else key
        if key in overrides:
            value = overrides[key]
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ScenarioError(f"{full} must be a mapping")
                merged[key] = _merge(default, value, full)
            else:
                merged[key] = value
        else:
            merged[key] = default if not isinstance(default, dict) \
                else _merge(default, {}, full)
    for key in overrides:
        if key not in defaults:
            full = f"{path}.{key}" if path else key
            raise ScenarioError(f"unknown key: {full}")
    return merged


def _from_dict(data: dict) -> ScenarioConfig:
    """The config of a merged scenario mapping: each key's value as given,
    for the config to check."""
    values = {}
    for key, name, _, _ in _KEYS:
        section, _, leaf = key.rpartition(".")
        raw = (data[section] if section else data)[leaf]
        if len(_FIELD_KEYS[name]) == 1:
            values[name] = raw
        else:
            values.setdefault(name, []).append(raw)
    return ScenarioConfig(**values)


def default_scenario(overrides: dict | None = None) -> ScenarioConfig:
    """The built-in experiment with all default constants; ``overrides``
    replace defaults before the one validation, as in ``load_scenario``."""
    return _from_dict(_merge(_DEFAULTS, overrides or {}))


class _UniqueKeyLoader(yaml.SafeLoader):
    """YAML's safe loader, except that a key repeated in one mapping, a
    section included, is a ``ScenarioError`` naming the key and the line of
    the repeat (plain YAML keeps the last value)."""

    def construct_mapping(self, node, deep=False):
        for index, (key, _) in enumerate(node.value):
            if key.value in [seen.value for seen, _ in node.value[:index]]:
                raise ScenarioError(f"duplicate key: {key.value} at line "
                                    f"{key.start_mark.line + 1}")
        return super().construct_mapping(node, deep)


def load_scenario(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Load and validate a scenario file.

    An empty file yields the full default scenario.  Relative paths that do
    not exist are retried against ``$CONTACTPLAN_SCENARIO_DIR``.
    ``overrides``, a mapping in the file's schema, replaces the file's
    values before the one validation (the command line's flags).
    """
    resolved = path
    if not os.path.exists(resolved) and not os.path.isabs(resolved):
        base = os.environ.get("CONTACTPLAN_SCENARIO_DIR")
        if base:
            candidate = os.path.join(base, resolved)
            if os.path.exists(candidate):
                resolved = candidate
    try:
        with open(resolved, "r", encoding="utf-8") as handle:
            raw = yaml.load(handle, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse scenario file {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario file {path} must contain a mapping")
    return _from_dict(_merge(_merge(_DEFAULTS, raw), overrides or {}))
