"""Prioritized joint torques: support forces first, object wrench second.

The torques are tau = J_s' f_s + N tau_obj with N = I - J_s' (J_s')+
(Nakamura, Hanafusa & Yoshikawa 1987): the support-force torques come from
the contact-point Jacobians at each contact's full normal force
(``contact.support_force_vector``), and the torques for the object's load on
the hands are projected into the null space of the support Jacobian, so
realizing the object wrench can never disturb the planned support forces.
Each arm's contact loads only that arm's four joints, so J_s is
block-diagonal by arm and so is N: each arm's object torques are projected
against its own 4x2 transposed contact Jacobian alone.  Everything here is
planar: only the x and y components of each hand's load act on the 2x4 arm
Jacobians, while z components are reacted by the elevated work plane.  Arm
poses are the ``kinematics.forward_kinematics`` joint-point arrays, one per
arm (left then right).  Contacts are the planner's ``contact.GapResult`` per
arm, on link ``link_index``: each acts at the material point its
``axis_param`` names, with the normal angle it stores, and ``gamma`` holds
their force magnitudes.  Hand loads are the (2, 3) forces the object wrench
puts on the hands, as the planner distributes it (``statics.bar_grasp``).
"""

from dataclasses import dataclass

import numpy as np

from . import kinematics as kin
from .contact import support_force_vector

# Contacts with a force magnitude at or below this carry no support priority.
ACTIVE_FORCE_TOL = 1e-6

# Pseudo-inverse cutoff: singular values at or below this fraction of the
# largest are treated as zero.
PINV_RCOND = 1e-10


@dataclass(frozen=True)
class TorqueCommand:
    """Combined torques plus the pieces they were assembled from."""

    torques: np.ndarray              # tau = support + projected object part
    support_torques: np.ndarray
    object_torques_projected: np.ndarray


def combined_torques(points, link_index: int, contacts, gamma,
                     hand_loads) -> TorqueCommand:
    """Support torques plus the null-space projected object-wrench torques.

    When an arm's transposed contact Jacobian has full column rank,
    recovering that arm's support force from the combined torques by its
    pseudo-inverse returns exactly the planned force: the projection cannot
    leak into it.
    """
    support, projected = [], []
    for arm_points, contact, force, load in zip(points, contacts, gamma,
                                                hand_loads, strict=True):
        jt = kin.point_jacobian(arm_points, link_index, contact.axis_param).T
        support.append(jt @ support_force_vector(force, contact.normal_angle)[:2])
        tau = kin.point_jacobian(arm_points, kin.NUM_LINKS - 1, 1.0).T @ load[:2]
        if force > ACTIVE_FORCE_TOL:
            tau = tau - jt @ np.linalg.lstsq(jt, tau, rcond=PINV_RCOND)[0]
        projected.append(tau)
    tau_support, tau_object = np.concatenate(support), np.concatenate(projected)
    return TorqueCommand(torques=tau_support + tau_object,
                         support_torques=tau_support,
                         object_torques_projected=tau_object)
