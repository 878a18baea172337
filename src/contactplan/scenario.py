"""Scenario description: geometry, masses, task, and solver settings.

A scenario is a nested key/value YAML file; every omitted key falls back to
the built-in default experiment (a 54 kg dual-arm robot sliding a 12 kg bar
40 cm forward through two glovebox ports).  Unknown keys are hard errors so
typos cannot silently change an experiment.

Sections and keys (SI units throughout):

    robot:
      torso_mass            kg, default 40.0
      torso_position        [x, y, z] m, default [0, 0, 0.5]
      link_mass             kg per link (8 links), default 1.75
      arm_base_left         [x, y] m, default [-0.20, 0.0]
      arm_base_right        [x, y] m, default [0.20, 0.0]
      link_lengths          4 floats, m, default [0.30, 0.30, 0.30, 0.20]
      link_radius           m, default 0.04
    glovebox:
      plane_height          m, default 0.90
      port_edges_left       two [x, y] points, default [[-0.275, 0.30], [-0.525, 0.30]]
      port_edges_right      two [x, y] points, default [[0.275, 0.30], [0.525, 0.30]]
    object:
      mass                  kg, default 12.0
      bar_length            m, default 0.60
      initial_center        [x, y] m, default [0.0, 0.45]
      grasp_offsets         two floats, m along the bar, default [-0.30, 0.30]
    balance:
      sp_polygon            convex CCW vertices, edges of positive length,
                            default 0.40 x 0.32 rectangle
      sp_center             [x, y] m, default [0.0, 0.0]
      safe_radius           m, default 0.15
      object_radius         m, default 0.10
    task:
      path_direction        [x, y], default [0.0, 1.0] (normalized on load;
                            its norm must lie in [1e-150, 1e150])
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
      support_force_scale   scale on the planar support force, default 1.0
    solver:
      tol_kkt, tol_con, max_iterations, armijo_c1, backtrack_ratio,
      penalty_growth, slack_max  (see SolverSettings defaults)
    gravity:                m/s^2, default 9.81

The environment variable ``CONTACTPLAN_SCENARIO_DIR`` names a directory that
relative scenario paths are resolved against when they do not exist locally.
"""

import math
import os
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np
import yaml

from .errors import ReachabilityError, ScenarioError
from .kinematics import NUM_LINKS, PlanarArm, forward_kinematics
from .sqp import SolverSettings
from .statics import RobotMassModel, RobotStaticsState, robot_center_of_mass

# Waypoints are materialized at load time for the reach check.
MAX_WAYPOINTS = 10_000

_DEFAULTS = {
    "robot": {
        "torso_mass": 40.0,
        "torso_position": [0.0, 0.0, 0.5],
        "link_mass": 1.75,
        "arm_base_left": [-0.20, 0.0],
        "arm_base_right": [0.20, 0.0],
        "link_lengths": [0.30, 0.30, 0.30, 0.20],
        "link_radius": 0.04,
    },
    "glovebox": {
        "plane_height": 0.90,
        "port_edges_left": [[-0.275, 0.30], [-0.525, 0.30]],
        "port_edges_right": [[0.275, 0.30], [0.525, 0.30]],
    },
    "object": {
        "mass": 12.0,
        "bar_length": 0.60,
        "initial_center": [0.0, 0.45],
        "grasp_offsets": None,  # defaults to +/- bar_length / 2
    },
    "balance": {
        "sp_polygon": [[-0.20, -0.16], [0.20, -0.16], [0.20, 0.16], [-0.20, 0.16]],
        "sp_center": [0.0, 0.0],
        "safe_radius": 0.15,
        "object_radius": 0.10,
    },
    "task": {
        "path_direction": [0.0, 1.0],
        "path_length": 0.40,
        "waypoint_count": 9,
        "object_wrench": [0.0, 10.0, -117.72, 0.0, 0.0, 0.0],
    },
    "weights": {
        "position": 1.0e3,
        "displacement": 1.0e2,
        "slack": 1.0e6,
    },
    "contact": {
        "link_index": 1,
        "support_force_scale": 1.0,
    },
    "solver": {
        "tol_kkt": 1e-6,
        "tol_con": 1e-6,
        "max_iterations": 200,
        "armijo_c1": 1e-4,
        "backtrack_ratio": 0.5,
        "penalty_growth": 2.0,
        "slack_max": 1e-4,
    },
    "gravity": 9.81,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, immutable description of one experiment."""

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
    grasp_offsets: np.ndarray      # (2,) along the bar x-axis
    sp_polygon: np.ndarray
    sp_center: np.ndarray
    safe_radius: float
    object_radius: float
    path_direction: np.ndarray     # (2,), unit
    path_length: float
    waypoint_count: int
    object_wrench: np.ndarray      # (6,)
    weight_position: float
    weight_displacement: float
    weight_slack: float
    contact_link_index: int
    support_force_scale: float
    solver: SolverSettings
    gravity: float

    @property
    def grasp_separation(self) -> float:
        return float(self.grasp_offsets[1] - self.grasp_offsets[0])

    @property
    def mass_model(self) -> RobotMassModel:
        return RobotMassModel(torso_mass=self.torso_mass,
                              torso_position=self.torso_position,
                              link_mass=self.link_mass)

    @property
    def robot_mass(self) -> float:
        return self.mass_model.total_mass(2 * NUM_LINKS)

    def arm(self, arm_index: int, joint_angles) -> PlanarArm:
        return PlanarArm(base_position=self.arm_bases[arm_index],
                         link_lengths=self.link_lengths,
                         link_radius=self.link_radius,
                         joint_angles=joint_angles)

    def grasp_points(self, object_center) -> np.ndarray:
        """World positions of the two grasp points for a bar centre."""
        center = np.asarray(object_center, dtype=float)
        return np.array([center + [self.grasp_offsets[0], 0.0],
                         center + [self.grasp_offsets[1], 0.0]])

    def statics_state(self, points) -> RobotStaticsState:
        """Balance state for both arms, given their ``forward_kinematics``
        joint-point arrays (left then right)."""
        com = robot_center_of_mass(self.mass_model, points, self.plane_height)
        return RobotStaticsState(
            total_mass=self.robot_mass, com=com, sp_center=self.sp_center,
            sp_polygon=self.sp_polygon, safe_radius=self.safe_radius,
            gravity=np.array([0.0, 0.0, -self.gravity]))

    def waypoints(self) -> np.ndarray:
        """Equally spaced waypoints from the initial centre, inclusive."""
        if self.waypoint_count == 1:
            return self.initial_center[None, :].copy()
        steps = np.arange(self.waypoint_count) / (self.waypoint_count - 1)
        return self.initial_center + np.outer(steps * self.path_length,
                                              self.path_direction)

    def check_reach(self) -> None:
        """Both grasp points must lie within total arm reach at every waypoint.

        Raises:
            ReachabilityError: naming the first waypoint out of reach.
        """
        reach = float(np.sum(self.link_lengths))
        for index, waypoint in enumerate(self.waypoints()):
            for arm_index, grasp in enumerate(self.grasp_points(waypoint)):
                dist = float(np.linalg.norm(grasp - self.arm_bases[arm_index]))
                if dist > reach:
                    raise ReachabilityError(
                        f"waypoint {index} at {waypoint} is out of reach for "
                        f"arm {arm_index} ({dist:.3f} m > {reach:.3f} m)",
                        waypoint_index=index)

    def to_dict(self) -> dict:
        """Plain nested dict in the scenario-file schema (round-trips)."""
        solver = {f.name: getattr(self.solver, f.name)
                  for f in dataclass_fields(SolverSettings)}
        return {
            "robot": {
                "torso_mass": self.torso_mass,
                "torso_position": self.torso_position.tolist(),
                "link_mass": self.link_mass,
                "arm_base_left": self.arm_bases[0].tolist(),
                "arm_base_right": self.arm_bases[1].tolist(),
                "link_lengths": self.link_lengths.tolist(),
                "link_radius": self.link_radius,
            },
            "glovebox": {
                "plane_height": self.plane_height,
                "port_edges_left": self.port_edges[0].tolist(),
                "port_edges_right": self.port_edges[1].tolist(),
            },
            "object": {
                "mass": self.object_mass,
                "bar_length": self.bar_length,
                "initial_center": self.initial_center.tolist(),
                "grasp_offsets": self.grasp_offsets.tolist(),
            },
            "balance": {
                "sp_polygon": self.sp_polygon.tolist(),
                "sp_center": self.sp_center.tolist(),
                "safe_radius": self.safe_radius,
                "object_radius": self.object_radius,
            },
            "task": {
                "path_direction": self.path_direction.tolist(),
                "path_length": self.path_length,
                "waypoint_count": self.waypoint_count,
                "object_wrench": self.object_wrench.tolist(),
            },
            "weights": {
                "position": self.weight_position,
                "displacement": self.weight_displacement,
                "slack": self.weight_slack,
            },
            "contact": {
                "link_index": self.contact_link_index,
                "support_force_scale": self.support_force_scale,
            },
            "solver": solver,
            "gravity": self.gravity,
        }


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


def _vec(raw, shape, key: str) -> np.ndarray:
    """A finite float array of ``shape``: an int is a vector length, and
    None in a tuple matches any length."""
    shape = (shape,) if isinstance(shape, int) else shape
    try:
        v = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{key} must be numbers of shape {shape}") from exc
    if v.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, v.shape)):
        raise ScenarioError(f"{key} must have shape {shape}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ScenarioError(f"{key} must be finite")
    return v


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


# Extreme inputs overflow to inf or NaN in the norms and cross products of
# validation; the NaN-safe "not x >= bound" checks reject them, so numpy's
# warnings would only repeat the ScenarioError.
@np.errstate(over="ignore", invalid="ignore")
def _from_dict(data: dict) -> ScenarioConfig:
    robot = data["robot"]
    glovebox = data["glovebox"]
    obj = data["object"]
    balance = data["balance"]
    task = data["task"]
    weights = data["weights"]
    contact = data["contact"]

    bar_length = _number(obj["bar_length"], "object.bar_length")
    grasp_offsets = obj["grasp_offsets"]
    if grasp_offsets is None:
        grasp_offsets = [-bar_length / 2.0, bar_length / 2.0]
    grasp_offsets = _vec(grasp_offsets, 2, "object.grasp_offsets")
    if not grasp_offsets[1] > grasp_offsets[0]:
        raise ScenarioError("object.grasp_offsets must be increasing")

    link_lengths = _vec(robot["link_lengths"], NUM_LINKS, "robot.link_lengths")
    if not np.all(link_lengths > 0.0):
        raise ScenarioError("robot.link_lengths must be > 0")

    direction = _vec(task["path_direction"], 2, "task.path_direction")
    norm = float(np.linalg.norm(direction))
    # Beyond this range the squares in the norm overflow or underflow, and
    # direction / norm is zero, NaN or off unit length.
    if not 1e-150 <= norm <= 1e150:
        raise ScenarioError(
            f"task.path_direction must have a norm in [1e-150, 1e150], got {norm!r}")

    # Types and finiteness here, ranges in SolverSettings.
    solver_raw = data["solver"]
    try:
        solver = SolverSettings(**{
            f.name: _number(solver_raw[f.name], f"solver.{f.name}", -math.inf,
                            integer=f.name == "max_iterations")
            for f in dataclass_fields(SolverSettings)})
    except ValueError as exc:
        raise ScenarioError(f"solver.{exc}") from exc

    config = ScenarioConfig(
        torso_mass=_number(robot["torso_mass"], "robot.torso_mass"),
        torso_position=_vec(robot["torso_position"], 3, "robot.torso_position"),
        link_mass=_number(robot["link_mass"], "robot.link_mass"),
        arm_bases=np.array([_vec(robot["arm_base_left"], 2, "robot.arm_base_left"),
                            _vec(robot["arm_base_right"], 2, "robot.arm_base_right")]),
        link_lengths=link_lengths,
        link_radius=_number(robot["link_radius"], "robot.link_radius"),
        plane_height=_number(glovebox["plane_height"], "glovebox.plane_height"),
        port_edges=np.array([_vec(glovebox[f"port_edges_{side}"], (2, 2),
                                  f"glovebox.port_edges_{side}")
                             for side in ("left", "right")]),
        object_mass=_number(obj["mass"], "object.mass"),
        bar_length=bar_length,
        initial_center=_vec(obj["initial_center"], 2, "object.initial_center"),
        grasp_offsets=grasp_offsets,
        sp_polygon=_vec(balance["sp_polygon"], (None, 2), "balance.sp_polygon"),
        sp_center=_vec(balance["sp_center"], 2, "balance.sp_center"),
        safe_radius=_number(balance["safe_radius"], "balance.safe_radius"),
        object_radius=_number(balance["object_radius"], "balance.object_radius"),
        path_direction=direction / norm,
        path_length=_number(task["path_length"], "task.path_length", closed=True),
        waypoint_count=_number(task["waypoint_count"], "task.waypoint_count", 1,
                               MAX_WAYPOINTS, closed=True, integer=True),
        object_wrench=_vec(task["object_wrench"], 6, "task.object_wrench"),
        weight_position=_number(weights["position"], "weights.position"),
        weight_displacement=_number(weights["displacement"], "weights.displacement"),
        weight_slack=_number(weights["slack"], "weights.slack"),
        contact_link_index=_number(contact["link_index"], "contact.link_index", 0,
                                   NUM_LINKS - 1, closed=True, integer=True),
        support_force_scale=_number(contact["support_force_scale"],
                                    "contact.support_force_scale"),
        solver=solver,
        gravity=_number(data["gravity"], "gravity"),
    )
    _validate(config)
    return config


def _validate(config: ScenarioConfig) -> None:
    # The statics state constructor checks the polygon and the safe circle.
    try:
        config.statics_state([forward_kinematics(config.arm(i, np.zeros(NUM_LINKS)))
                              for i in range(2)])
    except ValueError as exc:
        raise ScenarioError(f"balance: {exc}") from exc
    try:
        config.check_reach()
    except ReachabilityError as exc:
        raise ScenarioError(str(exc)) from exc


def default_scenario() -> ScenarioConfig:
    """The built-in experiment with all default constants."""
    return _from_dict(_merge(_DEFAULTS, {}))


def load_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario file.

    An empty file yields the full default scenario.  Relative paths that do
    not exist are retried against ``$CONTACTPLAN_SCENARIO_DIR``.
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
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse scenario file {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario file {path} must contain a mapping")
    return _from_dict(_merge(_DEFAULTS, raw))


def save_scenario(config: ScenarioConfig, path: str) -> None:
    """Serialize a config so that loading it back gives an identical config."""
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(config.to_dict(), handle, sort_keys=False)
