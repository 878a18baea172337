"""Static force/moment balance, ZMP, and grasp wrench distribution.

The ground reaction force balances gravity and all external wrenches; the
zero-moment point (ZMP) is the ground point at which the horizontal moment
components vanish.  The fictitious ZMP (FZMP) is the same quantity computed
while ignoring the environment-support wrenches; it may leave the support
polygon.  Ground height is z = 0.

The balance state of a configuration is only its mass, centre of mass and
gravity (``RobotStaticsState``).  The support region it is judged against,
a convex CCW polygon holding the safe circle, is fixed per scenario and is
checked once, when the scenario loads (``check_support_region``); the ZMP
solve itself reports only the point and the ground reaction.

Sign conventions: every ``AppliedWrench`` is a wrench acting *on the robot*
at a world-frame position.  The object's load enters through the wrenches at
the end effectors (the arms carry the object); support forces enter through
the wrenches at the port contact points.  Contact moments are kept as fields
but are always zero here: contacts are frictionless points.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kinematics as kin
from .errors import DegenerateGraspError, UnbalancedStateError

GRAVITY_ACCEL = 9.81


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix such that skew(v) @ u == cross(v, u)."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


@dataclass(frozen=True)
class AppliedWrench:
    """A force and moment acting on the robot at a world position."""

    position: np.ndarray
    force: np.ndarray
    moment: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("position", "force", "moment"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)


def check_support_region(vertices, center, radius: float) -> None:
    """Check the balance geometry: a convex CCW support polygon that holds
    the safe circle of ``radius`` around ``center``.

    Scenario loading runs this once; the ZMP solves assume it.

    Raises:
        ValueError: fewer than 3 planar vertices, a reflex or clockwise
            corner, or an edge line closer to the centre than the radius
            (including a zero-length or overflowing edge, whose distance
            is NaN).
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[0] < 3 or vertices.shape[1] != 2:
        raise ValueError("sp_polygon needs at least 3 planar vertices")
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        c = vertices[(i + 2) % n]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if cross < -1e-12:
            raise ValueError("sp_polygon must be convex with CCW winding")
    for i in range(n):
        a = vertices[i]
        edge = vertices[(i + 1) % n] - a
        # CCW polygon: the inward distance is the left-perp projection.
        inward = (edge[0] * (center[1] - a[1])
                  - edge[1] * (center[0] - a[0])) / np.linalg.norm(edge)
        # NaN-safe: a zero-length edge gives NaN and fails.
        if not inward >= radius - 1e-12:
            raise ValueError("safe circle must lie inside the support polygon")


@dataclass(frozen=True)
class RobotStaticsState:
    """Mass and centre of mass of the robot at one configuration.

    Attributes:
        total_mass: robot mass, kg.
        com: centre of mass, metres, world frame.
        gravity: gravity vector, m/s^2 (default (0, 0, -9.81)).
    """

    total_mass: float
    com: np.ndarray
    gravity: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, -GRAVITY_ACCEL]))

    def __post_init__(self):
        if not self.total_mass > 0.0:
            raise ValueError("total_mass must be positive")
        com = np.asarray(self.com, dtype=float)
        if com.shape != (3,):
            raise ValueError("com must be a 3-vector")
        object.__setattr__(self, "com", com)
        g = np.asarray(self.gravity, dtype=float)
        if g.shape != (3,):
            raise ValueError("gravity must be a 3-vector")
        object.__setattr__(self, "gravity", g)


@dataclass(frozen=True)
class ZmpResult:
    """ZMP location plus the balancing ground reaction force."""

    zmp: np.ndarray
    ground_force: np.ndarray


def compute_zmp(state: RobotStaticsState,
                externals: list[AppliedWrench]) -> ZmpResult:
    """Solve the static force and horizontal moment balance for the ZMP.

    The ground reaction force is whatever balances gravity plus all external
    wrenches; its application point on the ground (z = 0) is placed so the
    x and y components of the total moment about the origin vanish.  The two
    horizontal moment equations are solved in closed form.

    Raises:
        UnbalancedStateError: if the required ground reaction does not point
            upward (the robot cannot be supported).
    """
    weight = state.total_mass * state.gravity
    force_sum = weight.copy()
    moment_sum = np.cross(state.com, weight)
    for wrench in externals:
        force_sum += wrench.force
        moment_sum += np.cross(wrench.position, wrench.force) + wrench.moment
    ground_force = -force_sum
    fz = ground_force[2]
    if fz <= 0.0:
        raise UnbalancedStateError(
            f"ground reaction z-component {fz:.6g} N is not positive; "
            "the robot cannot be supported")
    # cross((x, y, 0), f) has horizontal rows (y*fz, -x*fz); zeroing the
    # total horizontal moment gives the ZMP directly.
    zmp = np.array([moment_sum[1] / fz, -moment_sum[0] / fz])
    return ZmpResult(zmp=zmp, ground_force=ground_force)


def wrench_matrix(r_c) -> np.ndarray:
    """Map a contact wrench to the object-origin wrench.

    ``r_c`` is the vector from the contact point to the object origin.  The
    6x6 block structure is [[I, 0], [-skew(r_c), I]].
    """
    r_c = np.asarray(r_c, dtype=float)
    if r_c.shape != (3,) or not np.all(np.isfinite(r_c)):
        raise ValueError("r_c must be a finite 3-vector")
    w = np.zeros((6, 6))
    w[:3, :3] = np.eye(3)
    w[3:, :3] = -skew(r_c)
    w[3:, 3:] = np.eye(3)
    return w


@dataclass(frozen=True)
class GraspMap:
    """Two-contact grasp: offsets from each contact to the object origin."""

    r_c1: np.ndarray
    r_c2: np.ndarray
    w_c: np.ndarray = field(init=False)

    def __post_init__(self):
        r1 = np.asarray(self.r_c1, dtype=float)
        r2 = np.asarray(self.r_c2, dtype=float)
        if r1.shape != (3,) or r2.shape != (3,):
            raise ValueError("grasp offsets must be 3-vectors")
        object.__setattr__(self, "r_c1", r1)
        object.__setattr__(self, "r_c2", r2)
        object.__setattr__(self, "w_c",
                           np.hstack([wrench_matrix(r1), wrench_matrix(r2)]))

    @staticmethod
    def from_points(contact_1, contact_2, object_origin) -> "GraspMap":
        """Build the map from world positions of the contacts and origin."""
        origin = np.asarray(object_origin, dtype=float)
        return GraspMap(r_c1=origin - np.asarray(contact_1, dtype=float),
                        r_c2=origin - np.asarray(contact_2, dtype=float))


def distribute_object_wrench(grasp: GraspMap, h_o) -> np.ndarray:
    """Minimum-norm contact wrenches realizing an object wrench.

    Returns the stacked 12-vector (force, moment per contact) whose image
    under the grasp map reproduces ``h_o``: the pseudo-inverse solution
    W' (W W')^-1 h_o of the full-row-rank grasp map W.

    Raises:
        DegenerateGraspError: if the two grasp points coincide.
    """
    h_o = np.asarray(h_o, dtype=float)
    if h_o.shape != (6,):
        raise ValueError("object wrench must be a 6-vector")
    if np.linalg.norm(grasp.r_c1 - grasp.r_c2) < 1e-12:
        raise DegenerateGraspError("grasp points coincide")
    w = grasp.w_c
    return w.T @ np.linalg.solve(w @ w.T, h_o)


@dataclass(frozen=True)
class RobotMassModel:
    """Lumped mass model: a torso point mass plus per-link point masses.

    Link masses sit at link midpoints, so the centre of mass moves with the
    arm configuration.
    """

    torso_mass: float
    torso_position: np.ndarray
    link_mass: float

    def __post_init__(self):
        if not self.torso_mass > 0.0 or not self.link_mass > 0.0:
            raise ValueError("masses must be positive")
        pos = np.asarray(self.torso_position, dtype=float)
        if pos.shape != (3,):
            raise ValueError("torso_position must be a 3-vector")
        object.__setattr__(self, "torso_position", pos)

    def total_mass(self, num_links: int) -> float:
        return self.torso_mass + num_links * self.link_mass


def robot_center_of_mass(mass_model: RobotMassModel, points,
                         plane_height: float) -> np.ndarray:
    """Configuration-dependent centre of mass of torso plus arm links.

    ``points`` holds one ``kinematics.forward_kinematics`` joint-point array
    per arm, so callers that already ran the kinematics reuse it.
    """
    weighted = mass_model.torso_mass * mass_model.torso_position
    num_links = 0
    for arm_points in points:
        for i in range(kin.NUM_LINKS):
            mid = 0.5 * (arm_points[i] + arm_points[i + 1])
            weighted = weighted + mass_model.link_mass * np.array(
                [mid[0], mid[1], plane_height])
            num_links += 1
    return weighted / mass_model.total_mass(num_links)
