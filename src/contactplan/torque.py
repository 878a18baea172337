"""Prioritized joint torques: support forces first, object wrench second.

The support-force torques are computed from the contact-point Jacobians at
each contact's full normal force (``contact.support_force_vector``); the
torques for the object's load on the hands are projected into the null
space of the stacked support Jacobian, so realizing the object wrench can
never disturb the planned support forces.  Everything here is planar: only
the x and y components of each hand's load act on the 2x4 arm Jacobians,
while z components are reacted by the elevated work plane.  Arm poses are
the ``kinematics.forward_kinematics`` joint-point arrays, one per arm (left
then right).  Contacts are the planner's ``contact.GapResult`` per arm,
on link ``link_index``: each acts at the material point its ``axis_param``
names, with the normal angle it stores, and ``gamma`` holds their force
magnitudes.  Hand loads are the (2, 3) forces the object wrench puts on the
hands, as the planner distributes it (``statics.bar_grasp``).
"""

from dataclasses import dataclass

import numpy as np

from . import kinematics as kin
from .contact import support_force_vector

NUM_JOINTS = 2 * kin.NUM_LINKS

# Contacts with a force magnitude below this carry no support priority.
ACTIVE_FORCE_TOL = 1e-6

# Pseudo-inverse cutoff: singular values below this fraction of the largest
# are treated as zero.
PINV_RCOND = 1e-10


@dataclass(frozen=True)
class TorqueCommand:
    """Combined torques plus the pieces they were assembled from."""

    torques: np.ndarray              # tau = support + projected object part
    support_torques: np.ndarray
    object_torques_projected: np.ndarray


def object_wrench_torques(points, hand_loads) -> np.ndarray:
    """Joint torques that generate the object wrench through the hands.

    Each hand's planar load components load that arm's end-effector
    Jacobian.
    """
    torques = np.zeros(NUM_JOINTS)
    for arm_index, (arm_points, load) in enumerate(zip(points, hand_loads)):
        jac = kin.point_jacobian(arm_points, kin.NUM_LINKS - 1, 1.0)
        torques[4 * arm_index:4 * arm_index + 4] = jac.T @ load[:2]
    return torques


def support_torques(points, link_index: int, contacts, gamma) -> np.ndarray:
    """Joint torques generating the planar support forces at the contacts."""
    torques = np.zeros(NUM_JOINTS)
    for arm_index, (contact, force) in enumerate(zip(contacts, gamma)):
        jac = kin.point_jacobian(points[arm_index], link_index, contact.axis_param)
        vector = support_force_vector(force, contact.normal_angle)
        torques[4 * arm_index:4 * arm_index + 4] += jac.T @ vector[:2]
    return torques


def stacked_support_jacobian(points, link_index: int, contacts, gamma) -> np.ndarray:
    """Support Jacobian with one 2-row block per active contact (8 columns).

    Contacts whose force magnitude is below ``ACTIVE_FORCE_TOL`` do not
    constrain the torque null space.
    """
    blocks = []
    for arm_index, (contact, force) in enumerate(zip(contacts, gamma)):
        if force <= ACTIVE_FORCE_TOL:
            continue
        row = np.zeros((2, NUM_JOINTS))
        row[:, 4 * arm_index:4 * arm_index + 4] = kin.point_jacobian(
            points[arm_index], link_index, contact.axis_param)
        blocks.append(row)
    if not blocks:
        return np.zeros((0, NUM_JOINTS))
    return np.vstack(blocks)


def nullspace_projector(j_support: np.ndarray) -> np.ndarray:
    """Projector onto torque directions that leave support forces untouched:
    I - J' (J')+."""
    j_support = np.atleast_2d(np.asarray(j_support, dtype=float))
    if j_support.shape[0] == 0 or not np.any(j_support):
        return np.eye(NUM_JOINTS)
    jt = j_support.T
    return np.eye(NUM_JOINTS) - jt @ np.linalg.pinv(jt, rcond=PINV_RCOND)


def combined_torques(points, link_index: int, contacts, gamma,
                     hand_loads) -> TorqueCommand:
    """Support torques plus the null-space projected object-wrench torques.

    When the transposed support Jacobian has full column rank, recovering
    forces from the combined torques by its pseudo-inverse returns exactly
    the planned support forces: the projection cannot leak into them.
    """
    tau_support = support_torques(points, link_index, contacts, gamma)
    tau_object = object_wrench_torques(points, hand_loads)
    j_support = stacked_support_jacobian(points, link_index, contacts, gamma)
    projector = nullspace_projector(j_support)
    tau_object_projected = projector @ tau_object
    return TorqueCommand(torques=tau_support + tau_object_projected,
                         support_torques=tau_support,
                         object_torques_projected=tau_object_projected)
