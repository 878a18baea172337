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

from . import _lapack
from .errors import UnbalancedStateError


def check_support_region(vertices, center, radius: float) -> None:
    """Check the balance geometry: a convex CCW support polygon that holds
    the safe circle of ``radius`` around ``center``.

    Scenario loading runs this once; the ZMP solves assume it.

    Raises:
        ValueError: fewer than 3 planar vertices, a reflex or clockwise
            corner, or an edge line closer to the centre than the radius
            (including an edge whose length is zero or underflows to zero,
            whose distance is NaN, and an overflowing edge).
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
        length = np.linalg.norm(edge)
        # CCW polygon: the inward distance is the left-perp projection.  An
        # edge whose length is zero, or underflows to zero, has none: NaN,
        # which fails the NaN-safe test below.
        inward = (edge[0] * (center[1] - a[1])
                  - edge[1] * (center[0] - a[0])) / length if length > 0.0 else np.nan
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


# Flat indices of each contact's -skew(r_c) block in the 6x12 grasp map:
# its diagonal, then its off-diagonal entries in ``_skew_entries`` order.
_SKEW_DIAGONAL = [row * 12 + row - 3 + offset for offset in (0, 6)
                  for row in (3, 4, 5)]
_SKEW_INDEX = [row * 12 + col + offset for offset in (0, 6)
               for row, col in ((3, 1), (3, 2), (4, 0), (4, 2), (5, 0), (5, 1))]
# The grasp map's fixed entries: each contact's identity blocks, and the
# diagonal of its -skew(r_c) block, which is -0.0.
_GRASP_TEMPLATE = np.hstack([np.eye(6), np.eye(6)])
_GRASP_TEMPLATE.flat[_SKEW_DIAGONAL] = -0.0


def _skew_entries(r0, r1) -> list:
    """-skew(r)'s off-diagonal entries for r = r0, r1, each (x, y, z)."""
    return [e for x, y, z in (r0, r1) for e in (z, -y, -z, x, y, -x)]


@dataclass(frozen=True)
class BarGrasp:
    """``bar_grasp``'s result: the 6x12 grasp map W, W W', (W W')^-1 h_o
    and the hands' wrenches."""

    grasp_map: np.ndarray
    gram: np.ndarray
    gram_solve: np.ndarray
    wrenches: np.ndarray


def bar_origin(end_effectors) -> np.ndarray:
    """The origin (2,) of a bar held by two planar end effectors: their
    midpoint."""
    (x0, y0), (x1, y1) = (ee.tolist() for ee in end_effectors)
    return np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])


@_lapack.raising
def bar_grasp(end_effectors, h_o) -> BarGrasp:
    """The grasp of a bar held by two planar end effectors about its
    origin, their midpoint, and the hands' share of the object wrench
    ``h_o``: the minimum-norm wrenches W' (W W')^-1 h_o, a 12-vector, force
    then moment per hand, whose image under W is ``h_o``.

    Each contact's 6x6 block of W is [[I, 0], [-skew(r_c), I]], r_c the
    vector from the hand to the origin (the hands and the origin share the
    work plane, so its z is 0).  Columns 0-5 of W are block-triangular with
    identity diagonal blocks, so W W' is invertible for any hand positions,
    coincident ones included.
    """
    (x0, y0), (x1, y1) = (ee.tolist() for ee in end_effectors)
    ox, oy = bar_origin(end_effectors).tolist()
    w = _GRASP_TEMPLATE.copy()
    w.flat[_SKEW_INDEX] = _skew_entries((ox - x0, oy - y0, 0.0),
                                        (ox - x1, oy - y1, 0.0))
    gram = w @ w.T
    gram_solve = _lapack.solve(gram, h_o)
    return BarGrasp(w, gram, gram_solve, w.T @ gram_solve)


@_lapack.raising
def bar_grasp_gradients(grasp: BarGrasp, d_ee0, d_ee1) -> np.ndarray:
    """(2, 3, n) gradients of the hands' forces in ``grasp``, from the end
    effectors' (2, n) Jacobians, through the value's W W' and its solve.

    dW is laid out as ``bar_grasp`` lays out W.  The n variables' dW are one
    (n, 6, 12) stack, and each stacked numpy call below makes, per
    variable, the BLAS/LAPACK call of the 2-D form (one gemm, gemv or
    one-column gesv), so the results are bit-identical to a loop.
    """
    n = d_ee0.shape[1]
    dr0 = np.vstack([0.5 * (d_ee1 - d_ee0), np.zeros(n)])
    dw = np.zeros((n, 6, 12))
    flat = dw.reshape(n, 72)
    flat[:, _SKEW_DIAGONAL] = -0.0
    flat[:, _SKEW_INDEX] = np.array(_skew_entries(dr0, -dr0)).T
    dw_t = dw.transpose(0, 2, 1)
    w, gram_solve = grasp.grasp_map, grasp.gram_solve
    ds = dw @ w.T + w @ dw_t
    solved = _lapack.solve(np.broadcast_to(grasp.gram, ds.shape),
                           -(ds @ gram_solve)[..., None])
    dh = dw_t @ gram_solve + (w.T @ solved)[..., 0]
    return np.stack([dh[:, 0:3].T, dh[:, 6:9].T])


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
