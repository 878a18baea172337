import mpmath
import numpy as np
import pytest

from contactplan.contact import edge_gap
from contactplan.errors import ScenarioError
from contactplan.kinematics import forward_kinematics, point_jacobian
from contactplan.planner import StepContext, plan_path
from contactplan.scenario import default_scenario

LENGTHS = [0.3, 0.3, 0.25, 0.15]


def joint_points(theta, base=(0.2, 0.0)):
    return forward_kinematics(np.array(base, dtype=float),
                              np.array(LENGTHS, dtype=float),
                              np.array(theta, dtype=float))


def fk_oracle(base, lengths, theta):
    """End effector from 50-digit trigonometry, rounded back to float."""
    with mpmath.workdps(50):
        x, y = mpmath.mpf(base[0]), mpmath.mpf(base[1])
        angle = mpmath.mpf(0)
        for length, joint in zip(lengths, theta):
            angle += mpmath.mpf(repr(joint))
            x += mpmath.mpf(repr(length)) * mpmath.cos(angle)
            y += mpmath.mpf(repr(length)) * mpmath.sin(angle)
        return np.array([float(x), float(y)])


class TestForwardKinematics:
    def test_straight_chain(self):
        ee = joint_points([0, 0, 0, 0])[-1]
        np.testing.assert_allclose(ee, [1.2, 0.0], atol=1e-15)

    def test_rigid_rotation(self):
        ee = joint_points([np.pi / 2, 0, 0, 0])[-1]
        np.testing.assert_allclose(ee, [0.2, 1.0], atol=1e-12)

    def test_generic_pose_matches_high_precision_oracle(self):
        theta = [0.1, 0.2, -0.3, 0.4]
        ee = joint_points(theta)[-1]
        np.testing.assert_allclose(ee, fk_oracle([0.2, 0.0], LENGTHS, theta),
                                   atol=1e-14)

    def test_frames_chain(self):
        theta = [0.3, -0.2, 0.5, 0.1]
        points = joint_points(theta)
        assert points.shape == (5, 2)
        np.testing.assert_allclose(points[0], [0.2, 0.0])
        cumulative = np.cumsum(theta)
        for i, angle in enumerate(cumulative):
            step = points[i + 1] - points[i]
            np.testing.assert_allclose(step, LENGTHS[i] * np.array(
                [np.cos(angle), np.sin(angle)]), atol=1e-15)
        np.testing.assert_allclose(points[-1], fk_oracle([0.2, 0.0], LENGTHS, theta),
                                   atol=1e-14)

    def test_base_translation_equivariance(self, rng):
        theta = rng.normal(size=4)
        shift = np.array([0.7, -1.3])
        points_a = joint_points(theta)
        points_b = joint_points(theta, base=(0.9, -1.3))
        np.testing.assert_allclose(points_b, points_a + shift, atol=1e-12)

    def test_nonfinite_angles_rejected(self, default_config):
        # Joint angles enter from outside through a plan's start pose; the
        # waypoint context rejects them before any kinematics runs.
        for bad in (np.nan, np.inf):
            theta = np.zeros(8)
            theta[1] = bad
            with pytest.raises(ValueError, match="finite"):
                plan_path(default_config, theta0=theta)
            with pytest.raises(ValueError, match="finite"):
                StepContext(default_config, theta, default_config.initial_center)

    def test_bad_geometry_rejected(self):
        # Link geometry enters from the scenario and is checked at load.
        for key, value in (("link_lengths", [0.3, 0.0, 0.25, 0.15]),
                           ("link_radius", 0.0)):
            with pytest.raises(ScenarioError, match=f"robot.{key}"):
                default_scenario({"robot": {key: value}})


class TestPointJacobian:
    def test_straight_chain_lever_arms(self):
        jac = point_jacobian(joint_points([0, 0, 0, 0]), 3, 1.0)
        np.testing.assert_allclose(jac[:, 0], [0.0, 1.0], atol=1e-15)
        assert jac[0, 0] == pytest.approx(0.0)

    def test_distal_joints_do_not_move_proximal_points(self):
        jac = point_jacobian(joint_points([0, 0, 0, 0]), 1, 0.5)
        np.testing.assert_allclose(jac[:, 2:], 0.0)
        assert np.any(jac[:, :2] != 0.0)

    def test_matches_finite_differences(self, rng):
        step = 1e-6
        for _ in range(100):
            theta = rng.normal(scale=1.5, size=4)
            link = int(rng.integers(0, 4))
            param = float(rng.uniform())
            jac = point_jacobian(joint_points(theta), link, param)
            for j in range(4):
                bump = np.zeros(4)
                bump[j] = step
                plus, minus = (joint_points(theta + bump), joint_points(theta - bump))
                fd = ((plus[link] + param * (plus[link + 1] - plus[link]))
                      - (minus[link] + param * (minus[link + 1] - minus[link]))
                      ) / (2 * step)
                np.testing.assert_allclose(
                    jac[:, j], fd, atol=1e-5 * max(1.0, np.abs(fd).max()))

    def test_end_effector_jacobian_identity(self, rng):
        # The distal end of the last link is the end effector itself.
        step = 1e-6
        theta = rng.normal(scale=1.0, size=4)
        jac = point_jacobian(joint_points(theta), 3, 1.0)
        for j in range(4):
            bump = np.zeros(4)
            bump[j] = step
            fd = (joint_points(theta + bump)[-1]
                  - joint_points(theta - bump)[-1]) / (2 * step)
            np.testing.assert_allclose(jac[:, j], fd, atol=1e-6)

    def test_range_checks(self):
        points = joint_points([0] * 4)
        with pytest.raises(ValueError):
            point_jacobian(points, 4, 0.5)
        with pytest.raises(ValueError):
            point_jacobian(points, -1, 0.5)
        with pytest.raises(ValueError):
            point_jacobian(points, 1, 1.5)


def signed_gap(point, a, b, link_radius):
    """``contact.edge_gap`` of a point against the segment a-b, as the one
    link of a two-point arm."""
    return edge_gap(np.array([a, b]), 0, link_radius, np.asarray(point, dtype=float))


class TestSignedGap:
    def test_penetration_equals_radius_on_axis(self):
        res = signed_gap([0.4, 0.0], [0.0, 0.0], [1.0, 0.0], 0.04)
        assert res.gap == pytest.approx(-0.04)

    def test_perpendicular_distance(self):
        res = signed_gap([0.5, 0.10], [0.0, 0.0], [1.0, 0.0], 0.04)
        assert res.gap == pytest.approx(0.06)
        # The closest point on the axis is (0.5, 0).
        np.testing.assert_allclose(res.separation, [0.0, -0.10], atol=1e-12)
        # Force on the link points from the point toward the axis.
        assert res.normal_angle == pytest.approx(-np.pi / 2)

    def test_lipschitz_in_the_point(self, rng):
        a, b = np.array([-0.3, 0.1]), np.array([0.5, 0.4])
        for _ in range(50):
            point = rng.uniform(-1, 1, size=2)
            delta = rng.normal(scale=1e-3, size=2)
            g0 = signed_gap(point, a, b, 0.04).gap
            g1 = signed_gap(point + delta, a, b, 0.04).gap
            assert abs(g1 - g0) <= np.linalg.norm(delta) + 1e-12

    def test_zero_length_segment_rejected(self):
        with pytest.raises(ValueError):
            signed_gap([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], 0.04)
