"""Support-contact candidates and complementarity bookkeeping.

Candidate contacts pair a port-edge point with one arm link (the second link
by default).  A contact carries a gap, a force magnitude, and the normal
angle of the force the edge applies on the link.  Forces are admissible only
when gaps are closed, up to the configured slack: gap >= 0, force >= 0 and
force . gap <= slack.  ``candidate_gap`` is the one gap evaluation, shared
with the planner; a support force is the full normal force of its magnitude.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import kinematics as kin


@dataclass(frozen=True)
class ContactCandidate:
    """A potential support contact: one port-edge point against one link."""

    arm_index: int
    edge_point: np.ndarray
    link_index: int = 1

    def __post_init__(self):
        point = np.asarray(self.edge_point, dtype=float)
        if point.shape != (2,):
            raise ValueError("edge_point must be a 2-vector")
        object.__setattr__(self, "edge_point", point)
        if self.arm_index not in (0, 1):
            raise ValueError("arm_index must be 0 or 1")
        if not 0 <= self.link_index < kin.NUM_LINKS:
            raise ValueError("link_index out of range")


@dataclass(frozen=True)
class ContactState:
    """Evaluated contact: geometry plus (optionally) a force magnitude."""

    candidate: ContactCandidate
    gap: float
    normal_angle: float
    contact_point: np.ndarray
    axis_param: float
    force_magnitude: float = 0.0

    def with_force(self, force_magnitude: float) -> "ContactState":
        return replace(self, force_magnitude=float(force_magnitude))


def candidate_gap(arm_points, link_radius: float, candidate) -> kin.GapResult:
    """``kinematics.signed_gap`` of a candidate's edge point against its link,
    from its arm's ``kinematics.forward_kinematics`` joint points."""
    link = candidate.link_index
    return kin.signed_gap(candidate.edge_point, arm_points[link],
                          arm_points[link + 1], link_radius)


def contact_state(candidate, res: kin.GapResult, link_radius: float) -> ContactState:
    """A candidate's state, at zero force, from its ``candidate_gap`` result.

    ``contact_point`` is the point on the capsule surface closest to the edge
    point (the edge point itself at zero gap).  The normal angle varies
    smoothly with the arm pose except when the closest point jumps between a
    link's interior and an endpoint.
    """
    toward_axis = res.closest_point - candidate.edge_point
    dist = np.linalg.norm(toward_axis)
    if dist > 0.0:
        surface = res.closest_point - link_radius * toward_axis / dist
    else:
        surface = res.closest_point
    return ContactState(candidate=candidate, gap=res.gap,
                        normal_angle=res.normal_angle, contact_point=surface,
                        axis_param=res.axis_param)


def select_active_candidates(points, link_radius: float, edge_points_per_arm,
                             link_index: int = 1) -> list[ContactCandidate]:
    """Pick one active candidate per arm: the edge with the smaller gap.

    Ties break toward the edge with the smaller x-coordinate, which keeps
    re-planning deterministic.
    """
    active = []
    for arm_index, edges in enumerate(edge_points_per_arm):
        candidates = [ContactCandidate(arm_index=arm_index, edge_point=e,
                                       link_index=link_index)
                      for e in edges]
        gaps = [candidate_gap(points[arm_index], link_radius, cand).gap
                for cand in candidates]
        best = min(range(len(candidates)),
                   key=lambda i: (gaps[i], candidates[i].edge_point[0]))
        active.append(candidates[best])
    return active


def complementarity_residual(phi, gamma, slack: float,
                             tol_gap: float = 1e-6, tol_force: float = 1e-9,
                             tol_comp: float = 1e-9) -> tuple[bool, float]:
    """Check the relaxed complementarity conditions.

    Feasible iff gaps >= -tol_gap, forces >= -tol_force, slack >= -tol_force
    and slack - gamma . phi >= -tol_comp.  Returns (feasible, violation)
    where violation is the largest constraint shortfall (0 when feasible).
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    violation = 0.0
    feasible = True
    checks = [
        (float(np.min(phi, initial=0.0)), -tol_gap),
        (float(np.min(gamma, initial=0.0)), -tol_force),
        (float(slack), -tol_force),
        (float(slack - gamma @ phi), -tol_comp),
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
