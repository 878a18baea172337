"""Prioritized joint torques: support forces first, object wrench second.

The torques are tau = J_s' f_s + N tau_obj with N = I - J_s' (J_s')+
(Nakamura, Hanafusa & Yoshikawa 1987): the support-force torques come from
the contact-point Jacobians at each contact's support force, and the torques
for the object's load on the hands are projected into the null space of the
support Jacobian, so realizing the object wrench can never disturb the
planned support forces.  Each arm's contact loads only that arm's four
joints, so J_s is block-diagonal by arm and so is N: each arm's object
torques are projected against its own 4x2 transposed contact Jacobian
alone.  Everything here is planar: only the x and y components of each load
act on the 2x4 arm Jacobians, while z components are reacted by the elevated
work plane.  Arm poses are the ``kinematics.forward_kinematics`` joint-point
arrays, one per arm (left then right).  Contacts are the planner's
``contact.GapResult`` per arm, on link ``link_index``: each acts at the
material point its ``axis_param`` names, and ``gamma`` holds their force
magnitudes.  Loads are the ZMP chain's (4, 3) load rows
(``PlanStep.loads``): the forces the object wrench puts on the two hands
(``statics.bar_grasp``), then the two support forces.  Zeroing the hands'
rows gives the support part alone, zeroing the supports' rows the projected
object part alone: the projection reads ``gamma``, not those rows.
"""

import numpy as np

from . import _lapack
from . import kinematics as kin

# Contacts with a force magnitude at or below this carry no support priority.
ACTIVE_FORCE_TOL = 1e-6

# Pseudo-inverse cutoff: singular values at or below this fraction of the
# largest are treated as zero.
PINV_RCOND = 1e-10


@_lapack.raising
def combined_torques(points, link_index: int, contacts, gamma,
                     loads) -> np.ndarray:
    """The (8,) joint torques: support torques plus the null-space projected
    object-wrench torques.

    When an arm's transposed contact Jacobian has full column rank,
    recovering that arm's support force from the combined torques by its
    pseudo-inverse returns exactly the planned force: the projection cannot
    leak into it.
    """
    support, projected = [], []
    for arm_points, contact, force, load, support_load in zip(
            points, contacts, gamma, loads[:2], loads[2:], strict=True):
        jt = kin.point_jacobian(arm_points, link_index, contact.axis_param).T
        support.append(jt @ support_load[:2])
        tau = kin.point_jacobian(arm_points, kin.NUM_LINKS - 1, 1.0).T @ load[:2]
        if force > ACTIVE_FORCE_TOL:
            tau = tau - jt @ _lapack.lstsq(jt, tau, PINV_RCOND)
        projected.append(tau)
    return np.concatenate(support) + np.concatenate(projected)
