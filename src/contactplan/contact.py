"""Contact geometry: active port edges and contact gaps.

Each arm's support contact pairs one port-edge point with that arm's contact
link (``ScenarioConfig.contact_link_index``).  The active edges are a (2, 2)
array, one row per arm (``active_edges``), and a contact is the
``GapResult`` of ``edge_gap``, the signed distance from the edge point to
the link's capsule (a segment with a radius): its gap, the normal angle of
the force the edge applies on the link, and the closest point's parameter
along the link.  ``edge_gap_gradients`` differentiates a gap and its normal
angle in the arm's joints, from the same result.  Force magnitudes are
decision variables and live beside the contacts, never in them: the
planner's ZMP chain turns each into its support force, and its inequality
rows hold the complementarity bounds.
"""

from dataclasses import dataclass

import numpy as np

from . import kinematics as kin


@dataclass(frozen=True)
class GapResult:
    """Signed distance from a capsule surface to a point.

    ``gap`` is negative when the point penetrates the capsule.
    ``separation`` runs from the point to the closest point on the link
    axis, ``distance`` is its length and ``normal_angle`` its direction,
    that of the force the point applies on the link.  ``axis_param`` is the
    closest point's parameter along the segment.
    """

    gap: float
    separation: np.ndarray
    distance: float
    normal_angle: float
    axis_param: float


def edge_gap(arm_points, link_index: int, link_radius: float,
             edge) -> GapResult:
    """Signed distance between an edge point and the capsule of radius
    ``link_radius`` around link ``link_index`` of an arm, from its
    ``kinematics.forward_kinematics`` joint points: the one gap evaluation,
    shared by the NLP, the settle and the edge choice.

    Raises:
        ValueError: the link's end points coincide.
    """
    a = arm_points[link_index]
    axis = arm_points[link_index + 1] - a
    length_sq = float(axis @ axis)
    if length_sq <= 0.0:
        raise ValueError("segment must have positive length")
    # min/max clamp as np.clip does, NaN passing through.
    t = min(max(float((edge - a) @ axis) / length_sq, 0.0), 1.0)
    (ax, ay), (ex, ey) = a.tolist(), axis.tolist()
    toward_axis = np.array([ax + t * ex, ay + t * ey]) - edge
    # np.linalg.norm's own computation for a 1-D float vector.
    dist = float(np.sqrt(toward_axis.dot(toward_axis)))
    if dist > 0.0:
        normal_angle = float(np.arctan2(toward_axis[1], toward_axis[0]))
    else:
        # Edge exactly on the axis: fall back to the left perpendicular of
        # the link direction so the result stays deterministic.
        root = np.sqrt(length_sq)
        normal_angle = float(np.arctan2(ex / root, -ey / root))
    return GapResult(gap=dist - link_radius, separation=toward_axis,
                     distance=dist, normal_angle=normal_angle, axis_param=t)


def edge_gap_gradients(arm_points, link_index: int, edge,
                       res: GapResult) -> tuple[list, list]:
    """Joint gradients (a float per joint of the arm) of the gap and of the
    normal angle of ``res``, ``edge_gap``'s result for the same arguments.

    The closest point's parameter along the link moves the material point
    and slides it along the axis; the sliding term vanishes from the gap
    gradient (the axis is orthogonal to the separation) but not from the
    normal-angle gradient.
    """
    a = arm_points[link_index]
    jac_a = kin.point_jacobian(arm_points, link_index, 0.0)
    jac_b = kin.point_jacobian(arm_points, link_index, 1.0)
    t = res.axis_param
    # d_closest = (1 - t) jac_a + t jac_b (+ outer(axis, dt) inside the link).
    d_closest = [[(1.0 - t) * pa + t * pb for pa, pb in zip(row_a, row_b)]
                 for row_a, row_b in zip(jac_a.tolist(), jac_b.tolist())]
    if 0.0 < t < 1.0:
        axis = arm_points[link_index + 1] - a
        dt = ((-(axis @ jac_a) + (edge - a) @ (jac_b - jac_a))
              / float(axis @ axis)).tolist()
        d_closest = [[value + component * d for value, d in zip(row, dt)]
                     for row, component in zip(d_closest, axis.tolist())]
    v = res.separation
    dist = max(res.distance, 1e-12)
    d_gap = ((v / dist) @ np.array(d_closest)).tolist()
    vx, vy = v.tolist()
    d_beta = [(vx * dy - vy * dx) / (dist * dist)
              for dx, dy in zip(*d_closest)]
    return d_gap, d_beta


def active_edges(points, link_index: int, link_radius: float,
                 edge_points_per_arm) -> np.ndarray:
    """Each arm's active edge point as a (2, 2) array, row = arm: of the
    arm's edges, the one with the smaller gap to link ``link_index``.

    Ties break toward the edge with the smaller x-coordinate, which keeps
    re-planning deterministic.
    """
    return np.array([
        min(edges, key=lambda edge: (
            edge_gap(arm_points, link_index, link_radius, edge).gap, edge[0]))
        for arm_points, edges in zip(points, edge_points_per_arm)])

