"""Static force/moment balance, ZMP, and grasp wrench distribution.

The ground reaction force balances gravity and all external forces; the
zero-moment point (ZMP) is the ground point at which the horizontal moment
components vanish.  The fictitious ZMP (FZMP) is the same quantity computed
while ignoring the environment-support forces; it may leave the support
polygon.  Ground height is z = 0.

The balance state of a configuration is only the robot's weight vector and
centre of mass.  The support region it is judged against, a convex CCW
polygon holding the safe circle, is fixed per scenario and is checked once,
when the scenario loads (``check_support_region``); the ZMP solve itself
reports only the point and the ground reaction.

Sign conventions: the external loads are two (k, 3) arrays, world-frame
application points and the forces acting *on the robot* there.  The
object's load enters through rows at the end effectors (the arms carry the
object); support forces enter through rows at the port contact points.
Contacts are frictionless points, so no external moments enter the balance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnbalancedStateError


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
class ZmpResult:
    """ZMP location plus the balancing ground reaction force."""

    zmp: np.ndarray
    ground_force: np.ndarray


def compute_zmp(weight: np.ndarray, com: np.ndarray, positions: np.ndarray,
                forces: np.ndarray) -> ZmpResult:
    """Solve the static force and horizontal moment balance for the ZMP.

    ``weight`` is the robot's weight vector acting at ``com``; row i of
    ``forces`` acts at row i of ``positions``, both (k, 3) arrays or lists
    of [x, y, z] rows.  The ground reaction force is whatever balances
    gravity plus all external forces; its application point on the ground
    (z = 0) is placed so the x and y components of the total moment about
    the origin vanish.  The two horizontal moment equations are solved in
    closed form.

    Raises:
        UnbalancedStateError: if the required ground reaction does not point
            upward (the robot cannot be supported).
    """
    sx, sy, sz = np.asarray(weight, dtype=float).tolist()
    cx, cy, cz = np.asarray(com, dtype=float).tolist()
    # cross(com, weight), then each row's cross(position, force), summed
    # row by row in order; only the horizontal moment rows are needed.
    mx = cy * sz - cz * sy
    my = cz * sx - cx * sz
    for (px, py, pz), (gx, gy, gz) in zip(positions, forces):
        sx += gx
        sy += gy
        sz += gz
        mx += py * gz - pz * gy
        my += pz * gx - px * gz
    fz = -sz
    ground_force = np.array([-sx, -sy, fz])
    if fz <= 0.0:
        raise UnbalancedStateError(
            f"ground reaction z-component {fz:.6g} N is not positive; "
            "the robot cannot be supported")
    # cross((x, y, 0), f) has horizontal rows (y*fz, -x*fz); zeroing the
    # total horizontal moment gives the ZMP directly.
    zmp = np.array([my / fz, -mx / fz])
    return ZmpResult(zmp=zmp, ground_force=ground_force)


def _grasp_template() -> np.ndarray:
    """The grasp map's fixed entries: each contact's identity blocks and
    the diagonal of its -skew(r_c) block, which is -0.0."""
    w = np.zeros((6, 12))
    for col in (0, 6):
        w[:3, col:col + 3] = np.eye(3)
        w[3:, col + 3:col + 6] = np.eye(3)
        w[(3, 4, 5), (col, col + 1, col + 2)] = -0.0
    return w


_GRASP_TEMPLATE = _grasp_template()
# Flat indices of each contact's off-diagonal -skew(r_c) entries, in the
# order ``bar_grasp`` lists them.
_SKEW_INDEX = [row * 12 + col + offset for offset in (0, 6)
               for row, col in ((3, 1), (3, 2), (4, 0), (4, 2), (5, 0), (5, 1))]


def bar_grasp(end_effectors, plane_height: float,
              h_o) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A bar held by two planar end effectors, about their midpoint, and
    the hands' share of the object wrench ``h_o``.

    Returns the hands' (2, 3) points on the work plane, the 6x12 grasp map
    W of the bar's origin at the midpoint between them, and the minimum-norm
    contact wrenches W' (W W')^-1 h_o: a 12-vector, force then moment per
    hand, whose image under W is ``h_o``.  Each contact's 6x6 block of W,
    mapping its wrench to the object-origin wrench, is [[I, 0],
    [-skew(r_c), I]] with r_c the vector from the hand to the origin.
    Columns 0-5 of W form a block-triangular matrix with identity diagonal
    blocks, so W has full row rank and W W' is invertible for any hand
    positions, coincident ones included.
    """
    (x0, y0), (x1, y1) = (ee.tolist() for ee in end_effectors)
    ox, oy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    dz = plane_height - plane_height
    entries = []
    for x, y, z in ((ox - x0, oy - y0, dz), (ox - x1, oy - y1, dz)):
        entries += [z, -y, -z, x, y, -x]
    w = _GRASP_TEMPLATE.copy()
    w.flat[_SKEW_INDEX] = entries
    return (np.array([[x0, y0, plane_height], [x1, y1, plane_height]]), w,
            w.T @ np.linalg.solve(w @ w.T, h_o))


def robot_center_of_mass(torso_mass: float, torso_position: np.ndarray,
                         link_mass: float, points,
                         plane_height: float) -> np.ndarray:
    """Configuration-dependent centre of mass of torso plus arm links.

    The torso is a point mass; each link is a point mass at its midpoint on
    the work plane, so the centre of mass moves with the arm configuration.
    ``points`` holds one ``kinematics.forward_kinematics`` joint-point array
    per arm, so callers that already ran the kinematics reuse it.
    """
    x, y, z = (torso_mass * v for v in torso_position.tolist())
    num_links = 0
    for arm_points in points:
        rows = arm_points.tolist()
        for (ax, ay), (bx, by) in zip(rows, rows[1:]):
            x = x + link_mass * (0.5 * (ax + bx))
            y = y + link_mass * (0.5 * (ay + by))
            z = z + link_mass * plane_height
            num_links += 1
    total = torso_mass + num_links * link_mass
    return np.array([x / total, y / total, z / total])
