"""Active port edges, contact gaps and complementarity bookkeeping.

Each arm's support contact pairs one port-edge point with that arm's contact
link (``ScenarioConfig.contact_link_index``).  The active edges are a (2, 2)
array, one row per arm (``active_edges``), and a contact is the
``GapResult`` of ``edge_gap``, the signed distance from the edge point to
the link's capsule (a segment with a radius): its gap, the normal angle of
the force the edge applies on the link, and the closest point's parameter
along the link.  Force magnitudes are decision variables and live beside the
contacts, never in them.  Forces are admissible only when gaps are closed, up
to the configured slack: gap >= 0, force >= 0 and force . gap <= slack.  A
support force is the full normal force of its magnitude.
"""

from dataclasses import dataclass

import numpy as np


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
    closest = np.array([ax + t * ex, ay + t * ey])
    toward_axis = closest - edge
    dist = float(np.linalg.norm(toward_axis))
    if dist > 0.0:
        normal_angle = float(np.arctan2(toward_axis[1], toward_axis[0]))
    else:
        # Edge exactly on the axis: fall back to the left perpendicular of
        # the link direction so the result stays deterministic.
        root = np.sqrt(length_sq)
        normal_angle = float(np.arctan2(ex / root, -ey / root))
    return GapResult(gap=dist - link_radius, closest_point=closest,
                     normal_angle=normal_angle, axis_param=t)


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


def complementarity_residual(phi, gamma, slack: float, tol_gap: float,
                             tol: float) -> tuple[bool, float]:
    """Check the relaxed complementarity conditions.

    Feasible iff gaps >= -tol_gap, forces >= -tol, slack >= -tol and
    slack - gamma . phi >= -tol.  Returns (feasible, violation) where
    violation is the largest constraint shortfall (0 when feasible).
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    violation = 0.0
    feasible = True
    checks = [
        (float(np.min(phi, initial=0.0)), -tol_gap),
        (float(np.min(gamma, initial=0.0)), -tol),
        (float(slack), -tol),
        (float(slack - gamma @ phi), -tol),
    ]
    for value, lower in checks:
        if value < lower:
            feasible = False
        violation = max(violation, -value if value < 0.0 else 0.0)
    return feasible, violation


def support_force_vector(force_magnitude: float, normal_angle: float) -> np.ndarray:
    """Planar support force as a 3-vector (zero z-component): the magnitude
    is the full normal force."""
    if force_magnitude < 0.0:
        raise ValueError("force magnitude must be non-negative")
    return force_magnitude * np.array(
        [np.cos(normal_angle), np.sin(normal_angle), 0.0])
