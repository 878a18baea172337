"""Planar serial-chain kinematics and capsule distance queries.

The arms are 4-link revolute chains moving in a horizontal plane.  A pose is
the array of joint points that ``forward_kinematics`` returns, base first
and end effector last: links are consecutive rows, and point Jacobians are
read from the same array, so one kinematics pass serves every query at a
pose.  Links are modelled as capsules (segments with a radius), so a
point-versus-segment distance gives a proper signed gap for the contact
model.  Joint angles are stored un-normalised; only their sines/cosines are
consumed downstream.
"""

from dataclasses import dataclass

import numpy as np

NUM_LINKS = 4


def _as_vec(x, n: int) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"expected shape ({n},), got {v.shape}")
    return v


@dataclass(frozen=True)
class GapResult:
    """Signed distance from a capsule surface to a point.

    ``gap`` is negative when the point penetrates the capsule.
    ``normal_angle`` is the direction of the force the point applies on the
    link: from the point toward the closest point on the link axis.
    ``axis_param`` is the closest point's parameter along the segment.
    """

    gap: float
    closest_point: np.ndarray
    normal_angle: float
    axis_param: float


def forward_kinematics(base, link_lengths, angles) -> np.ndarray:
    """Joint points of one arm as a (NUM_LINKS + 1, 2) array.

    ``base`` is the (2,) base joint position, ``link_lengths`` and
    ``angles`` the (NUM_LINKS,) link lengths and relative joint angles.
    Row ``i`` is the proximal joint of link ``i``; the last row is the end
    effector (the distal end of the last link).
    """
    # Elementwise arithmetic on Python floats, one cos and one sin call per
    # arm: the exactness rule in the planner's docstring.
    angles = np.cumsum(angles)
    x, y = float(base[0]), float(base[1])
    points = [[x, y]]
    for length, c, s in zip(np.asarray(link_lengths, dtype=float).tolist(),
                            np.cos(angles).tolist(), np.sin(angles).tolist()):
        x = x + length * c
        y = y + length * s
        points.append([x, y])
    return np.array(points)


def point_jacobian(points: np.ndarray, link_index: int,
                   point_param: float) -> np.ndarray:
    """Translational Jacobian (2x4) of a material point on a link.

    ``points`` is the joint-point array of ``forward_kinematics``, so one
    kinematics pass serves every point of an arm.  Column ``j`` is the
    perpendicular of the lever arm from joint ``j`` to the point for all
    joints at or proximal to the link; columns for joints distal to the
    point are zero.  With ``link_index=3, point_param=1`` this is the
    end-effector Jacobian.
    """
    if not 0 <= link_index < NUM_LINKS:
        raise ValueError(f"link_index must be in 0..{NUM_LINKS - 1}, got {link_index}")
    if not 0.0 <= point_param <= 1.0:
        raise ValueError(f"point_param must be in [0, 1], got {point_param}")
    rows = points.tolist()
    ax, ay = rows[link_index]
    bx, by = rows[link_index + 1]
    px = ax + point_param * (bx - ax)
    py = ay + point_param * (by - ay)
    jac = [[0.0] * NUM_LINKS, [0.0] * NUM_LINKS]
    for j in range(link_index + 1):
        jx, jy = rows[j]
        jac[0][j] = -(py - jy)
        jac[1][j] = px - jx
    return np.array(jac)


def signed_gap(point, a: np.ndarray, b: np.ndarray,
               link_radius: float) -> GapResult:
    """Signed distance between a point and the capsule around segment a-b.

    ``a`` and ``b`` are (2,) arrays, typically two consecutive rows of a
    ``forward_kinematics`` array.  Returns the gap (point-to-axis distance
    minus the radius), the closest point on the axis, and the angle of the
    force the point would apply on the link.  Negative gap means
    penetration.
    """
    point = _as_vec(point, 2)
    edge = b - a
    length_sq = float(edge @ edge)
    if length_sq <= 0.0:
        raise ValueError("segment must have positive length")
    # min/max clamp as np.clip does, NaN passing through.
    t = min(max(float((point - a) @ edge) / length_sq, 0.0), 1.0)
    (ax, ay), (ex, ey) = a.tolist(), edge.tolist()
    closest = np.array([ax + t * ex, ay + t * ey])
    toward_axis = closest - point
    dist = float(np.linalg.norm(toward_axis))
    if dist > 0.0:
        normal_angle = float(np.arctan2(toward_axis[1], toward_axis[0]))
    else:
        # Point exactly on the axis: fall back to the left perpendicular of
        # the segment direction so the result stays deterministic.
        root = np.sqrt(length_sq)
        normal_angle = float(np.arctan2(ex / root, -ey / root))
    return GapResult(gap=dist - link_radius, closest_point=closest,
                     normal_angle=normal_angle, axis_param=t)
