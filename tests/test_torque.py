from dataclasses import replace

import numpy as np
import pytest

from contactplan.cli import records_from_steps
from contactplan.contact import edge_gap
from contactplan.kinematics import forward_kinematics, point_jacobian
from contactplan.planner import plan_path
from contactplan.scenario import default_scenario
from contactplan.statics import bar_grasp
from contactplan.torque import ACTIVE_FORCE_TOL, PINV_RCOND, combined_torques

from test_statics import reference_grasp_map

RADIUS = 0.04
LINK = 1  # the contact link of every arm below


def make_arms(theta8):
    """Joint points of both arms (bases at x = -0.2 and 0.2)."""
    theta8 = np.asarray(theta8, dtype=float)
    lengths = np.array([0.3, 0.3, 0.3, 0.2])
    return (forward_kinematics(np.array([-0.2, 0.0]), lengths, theta8[:4]),
            forward_kinematics(np.array([0.2, 0.0]), lengths, theta8[4:]))


def touching_contact(arms, arm_index, param=0.5):
    """The contact of an edge point that sits exactly on the capsule surface
    of the arm's contact link, at ``param`` along it."""
    a, b = arms[arm_index][LINK], arms[arm_index][LINK + 1]
    axis_point = a + param * (b - a)
    direction = b - a
    normal = np.array([-direction[1], direction[0]])
    normal = normal / np.linalg.norm(normal)
    edge = axis_point - RADIUS * normal
    return edge_gap(arms[arm_index], LINK, RADIUS, edge)


def both_contacts(arms, params=(0.5, 0.5)):
    return [touching_contact(arms, i, param) for i, param in enumerate(params)]


def penrose_conditions(matrix, pinv):
    checks = [matrix @ pinv @ matrix - matrix,
              pinv @ matrix @ pinv - pinv,
              (matrix @ pinv).T - matrix @ pinv,
              (pinv @ matrix).T - pinv @ matrix]
    scale = 1.0 + max(np.abs(matrix).max(initial=0.0),
                      np.abs(pinv).max(initial=0.0))
    return max(np.abs(c).max(initial=0.0) for c in checks) / scale


def pseudo_inverse(matrix):
    return np.linalg.lstsq(matrix, np.eye(matrix.shape[0]), rcond=PINV_RCOND)[0]


class TestPseudoInverse:
    """The pseudo-inverse the torque module takes: the minimum-norm
    least-squares solve np.linalg.lstsq with a cutoff of PINV_RCOND times
    the largest singular value."""

    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3),
                                   atol=1e-12)

    def test_rank_deficient_diagonal(self):
        np.testing.assert_allclose(pseudo_inverse(np.diag([2.0, 0.0])),
                                   np.diag([0.5, 0.0]), atol=1e-12)

    def test_rank_one_formula(self):
        matrix = np.array([[1.0, 2.0], [2.0, 4.0]])
        np.testing.assert_allclose(pseudo_inverse(matrix), matrix / 25.0,
                                   atol=1e-12)

    def test_penrose_conditions_random(self, rng):
        for _ in range(25):
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            matrix = rng.normal(size=shape)
            assert penrose_conditions(matrix, pseudo_inverse(matrix)) <= 1e-9


def support_rows(contacts, gamma):
    """Each contact's support force gamma (cos beta, sin beta, 0) at its
    normal angle beta."""
    return [g * np.array([np.cos(c.normal_angle), np.sin(c.normal_angle), 0.0])
            for g, c in zip(gamma, contacts)]


def chain_loads(arms, contacts, gamma, h_o):
    """The (4, 3) load rows of the planner's chain: the hand forces of the
    object wrench ``h_o``, as the planner splits it between the hands, then
    the two support forces."""
    h_c = bar_grasp((arms[0][-1], arms[1][-1]), h_o).wrenches
    return np.array([h_c[0:3], h_c[6:9], *support_rows(contacts, gamma)])


def arm_block(arm_index, jac):
    """A 2x4 arm Jacobian placed in that arm's columns of a 2x8 row block."""
    block = np.zeros((2, 8))
    block[:, 4 * arm_index:4 * arm_index + 4] = jac
    return block


def stacked_torques(arms, link, contacts, gamma, loads):
    """The prioritized torques as one formula over all eight joints:
    tau_s = J_s' f_s, tau_o = J_h' h and (I - J' J'^+) tau_o, where J
    stacks the support rows of the contacts whose force exceeds
    ACTIVE_FORCE_TOL; returns the three."""
    support = [arm_block(i, point_jacobian(arm, link, c.axis_param))
               for i, (arm, c) in enumerate(zip(arms, contacts))]
    hands = [arm_block(i, point_jacobian(arm, 3, 1.0))
             for i, arm in enumerate(arms)]
    forces = np.concatenate([
        g * np.array([np.cos(c.normal_angle), np.sin(c.normal_angle)])
        for g, c in zip(gamma, contacts)])
    tau_support = np.vstack(support).T @ forces
    tau_object = np.vstack(hands).T @ np.concatenate(
        [load[:2] for load in loads[:2]])
    projected = tau_object
    active = [rows for rows, g in zip(support, gamma) if g > ACTIVE_FORCE_TOL]
    if active:
        jt = np.vstack(active).T
        projected = (np.eye(8) - jt @ np.linalg.pinv(jt, rcond=PINV_RCOND)) @ tau_object
    return tau_support, tau_object, projected


def object_part(arms, h_o):
    """The unprojected object torques of the object wrench ``h_o``:
    combined_torques with no support force, so that nothing is projected."""
    contacts = both_contacts(arms)
    gamma = np.zeros(2)
    return combined_torques(arms, LINK, contacts, gamma,
                            chain_loads(arms, contacts, gamma, h_o)).torques


def support_part(arms, contacts, gamma):
    """The support torques of combined_torques, with no load on the hands."""
    return combined_torques(arms, LINK, contacts, gamma,
                            chain_loads(arms, contacts, gamma,
                                        np.zeros(6))).support_torques


class TestObjectWrenchTorques:
    def test_zero_wrench_zero_torque(self):
        arms = make_arms([0.4, 0.2, -0.3, 0.1, 2.7, -0.2, 0.3, -0.1])
        np.testing.assert_allclose(
            object_part(arms, np.zeros(6)), 0.0)

    def test_single_joint_lever_arm(self):
        # Straight right arm along +x; unit +y force at the end effector
        # loads every joint with its lever arm.
        arms = make_arms([np.pi / 2, 0, 0, 0, 0, 0, 0, 0])
        # Wrench that distributes to a pure +y force per hand is doubled.
        h_o = np.array([0.0, 2.0, 0.0, 0.0, 0.0, 0.0])
        tau = object_part(arms, h_o)
        # Right arm columns: lever arms 1.1, 0.8, 0.5, 0.2 about each joint.
        np.testing.assert_allclose(tau[4:], [1.1, 0.8, 0.5, 0.2], atol=1e-9)

    def test_matches_hand_assembled_chain(self):
        arms = make_arms([2.0, 0.3, -0.4, 0.2, 1.1, -0.3, 0.4, -0.2])
        h_o = np.array([0.0, 10.0, -117.72, 0.0, 0.0, 0.0])
        tau = object_part(arms, h_o)
        grasp = bar_grasp((arms[0][-1], arms[1][-1]), h_o).grasp_map
        h_c = np.linalg.pinv(grasp) @ h_o
        expected = np.concatenate([
            point_jacobian(arms[0], 3, 1.0).T @ h_c[0:2],
            point_jacobian(arms[1], 3, 1.0).T @ h_c[6:8]])
        np.testing.assert_allclose(tau, expected, atol=1e-9)


class TestSupportTorques:
    def test_zero_forces_zero_torques(self):
        arms = make_arms([0.5, 0.1, 0.2, -0.1, 1.0, -0.2, 0.3, 0.4])
        np.testing.assert_allclose(
            support_part(arms, both_contacts(arms), [0.0, 0.0]), 0.0)

    def test_distal_joints_unloaded(self):
        arms = make_arms([0.5, 0.1, 0.2, -0.1, 1.0, -0.2, 0.3, 0.4])
        tau = support_part(arms, both_contacts(arms), [0.0, 20.0])
        np.testing.assert_allclose(tau[:4], 0.0)
        np.testing.assert_allclose(tau[6:], 0.0)  # joints 3, 4 of that arm
        assert np.any(tau[4:6] != 0.0)

    def test_matches_virtual_work_oracle(self, rng):
        # tau_j = d(f . p_contact(theta)) / d theta_j with the force frozen
        # and the contact's material point fixed on the link.
        step = 1e-6
        for _ in range(10):
            theta = rng.normal(scale=0.8, size=8)
            arms = make_arms(theta)
            arm_index = int(rng.integers(0, 2))
            param = float(rng.uniform(0.1, 0.9))
            contacts = both_contacts(arms, (param, param))
            contact = contacts[arm_index]
            gamma = np.zeros(2)
            gamma[arm_index] = rng.uniform(1, 50)
            tau = support_part(arms, contacts, gamma)
            force = gamma[arm_index] * np.array(
                [np.cos(contact.normal_angle), np.sin(contact.normal_angle)])
            expected = np.zeros(8)
            for j in range(8):
                bump = np.zeros(8)
                bump[j] = step
                t = contact.axis_param
                plus = make_arms(theta + bump)[arm_index]
                minus = make_arms(theta - bump)[arm_index]
                p_plus = plus[1] + t * (plus[2] - plus[1])
                p_minus = minus[1] + t * (minus[2] - minus[1])
                expected[j] = force @ (p_plus - p_minus) / (2 * step)
            np.testing.assert_allclose(tau, expected,
                                       atol=1e-5 * max(1.0, np.abs(tau).max()))


class TestCombinedTorques:
    H_O = np.array([0.0, 10.0, -117.72, 0.0, 0.0, 0.0])

    def setup_scene(self, gammas=(25.0, 30.0), h_o=H_O):
        arms = make_arms([2.2, 0.3, -0.5, 0.1, 0.9, -0.3, 0.5, -0.1])
        contacts = both_contacts(arms, (0.4, 0.6))
        gamma = np.array(gammas)
        return arms, contacts, gamma, chain_loads(arms, contacts, gamma, h_o)

    def test_zero_forces_pass_object_torques_through(self):
        arms, contacts, gamma, loads = self.setup_scene(gammas=(0.0, 0.0))
        command = combined_torques(arms, LINK, contacts, gamma, loads)
        expected = np.concatenate([point_jacobian(arm, 3, 1.0).T @ load[:2]
                                   for arm, load in zip(arms, loads[:2])])
        np.testing.assert_array_equal(command.torques, expected)
        np.testing.assert_array_equal(command.object_torques_projected, expected)
        np.testing.assert_allclose(command.support_torques, 0.0)

    def test_zero_wrench_gives_support_torques(self):
        arms, contacts, gamma, loads = self.setup_scene(h_o=np.zeros(6))
        command = combined_torques(arms, LINK, contacts, gamma, loads)
        np.testing.assert_allclose(command.torques, command.support_torques)
        np.testing.assert_allclose(command.object_torques_projected, 0.0)

    def test_decomposition_identity(self):
        arms, contacts, gamma, loads = self.setup_scene()
        command = combined_torques(arms, LINK, contacts, gamma, loads)
        np.testing.assert_allclose(
            command.torques,
            command.support_torques + command.object_torques_projected)

    def test_support_priority_recovery(self):
        arms, contacts, gamma, loads = self.setup_scene()
        command = combined_torques(arms, LINK, contacts, gamma, loads)
        j_support = np.vstack([arm_block(i, point_jacobian(arm, LINK, c.axis_param))
                               for i, (arm, c) in enumerate(zip(arms, contacts))])
        assert np.linalg.matrix_rank(j_support.T) == j_support.shape[0]
        recovered = pseudo_inverse(j_support.T) @ command.torques
        planned = np.concatenate([
            g * np.array([np.cos(c.normal_angle), np.sin(c.normal_angle)])
            for g, c in zip(gamma, contacts)])
        np.testing.assert_allclose(recovered, planned, atol=1e-8)

    def test_linear_in_object_wrench(self, rng):
        arms, contacts, gamma, _ = self.setup_scene()
        h_a = rng.normal(scale=20.0, size=6)
        h_b = rng.normal(scale=20.0, size=6)

        def torques(h_o):
            return combined_torques(arms, LINK, contacts, gamma,
                                    chain_loads(arms, contacts, gamma, h_o)).torques

        tau_a, tau_b, tau_sum = torques(h_a), torques(h_b), torques(h_a + h_b)
        support = support_part(arms, contacts, gamma)
        np.testing.assert_allclose(tau_sum - support,
                                   (tau_a - support) + (tau_b - support),
                                   atol=1e-9)

    def test_per_arm_matches_stacked_formula(self, rng):
        # The projection split by arm equals the 8-joint one, including a
        # contact at ACTIVE_FORCE_TOL (not projected against) and one at
        # axis_param 0, whose Jacobian has rank 1.  The projection cancels
        # the support directions of the object torques, so errors are
        # relative to the torques that enter it.
        for trial in range(20):
            arms = make_arms(rng.normal(scale=0.8, size=8))
            contacts = both_contacts(arms, rng.uniform(0.05, 0.95, size=2))
            gamma = rng.uniform(1.0, 50.0, size=2)
            if trial == 0:
                gamma[1] = ACTIVE_FORCE_TOL
            if trial == 1:
                contacts[0] = replace(contacts[0], axis_param=0.0)
                assert np.linalg.matrix_rank(
                    point_jacobian(arms[0], LINK, 0.0)) == 1
            loads = chain_loads(arms, contacts, gamma,
                                rng.normal(scale=20.0, size=6))
            command = combined_torques(arms, LINK, contacts, gamma, loads)
            support, unprojected, projected = stacked_torques(
                arms, LINK, contacts, gamma, loads)
            scale = max(np.abs(support).max(), np.abs(unprojected).max())
            for actual, expected in ((command.support_torques, support),
                                     (command.object_torques_projected, projected),
                                     (command.torques, support + projected)):
                assert np.abs(actual - expected).max() <= 1e-12 * scale


class TestRecordTorques:
    def test_records_use_the_hands_grasp(self):
        # With asymmetric grasp offsets the bar's nominal grasp points sit
        # 0.05 m from the hands; the reported torques must load the hands
        # the way the planner's balance does, about the hands' midpoint.
        config = default_scenario({"object": {"grasp_offsets": [-0.25, 0.35]}})
        steps = plan_path(config)
        records = records_from_steps(steps, config)
        assert len(records) == config.waypoint_count
        for step, record in zip(steps, records):
            # The step's joint points are the forward kinematics of its
            # joint angles, bit for bit.
            points = config.joint_points(step.theta_after)
            for planned, recomputed in zip(step.joint_points, points):
                np.testing.assert_array_equal(planned, recomputed)
            hands = [np.append(arm[-1], config.plane_height) for arm in points]
            w = reference_grasp_map(hands)
            h_c = w.T @ np.linalg.solve(w @ w.T, config.object_wrench)
            loads = [h_c[0:3], h_c[6:9],
                     *support_rows(step.contacts, step.decision.gamma)]
            command = combined_torques(points, config.contact_link_index,
                                       step.contacts, step.decision.gamma,
                                       loads)
            assert record.torque_norm == pytest.approx(
                np.linalg.norm(command.torques), rel=1e-12, abs=0.0)
