import mpmath
import numpy as np
import pytest

from contactplan.kinematics import (PlanarArm, Segment, end_effector,
                                    forward_kinematics, link_segment,
                                    point_jacobian, point_on_link, signed_gap)

LENGTHS = [0.3, 0.3, 0.25, 0.15]


def make_arm(theta, base=(0.2, 0.0), lengths=LENGTHS, radius=0.04):
    return PlanarArm(base_position=np.array(base, dtype=float),
                     link_lengths=np.array(lengths, dtype=float),
                     link_radius=radius, joint_angles=np.array(theta, dtype=float))


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
        ee = end_effector(make_arm([0, 0, 0, 0]))
        np.testing.assert_allclose(ee, [1.2, 0.0], atol=1e-15)

    def test_rigid_rotation(self):
        ee = end_effector(make_arm([np.pi / 2, 0, 0, 0]))
        np.testing.assert_allclose(ee, [0.2, 1.0], atol=1e-12)

    def test_generic_pose_matches_high_precision_oracle(self):
        theta = [0.1, 0.2, -0.3, 0.4]
        ee = end_effector(make_arm(theta))
        np.testing.assert_allclose(ee, fk_oracle([0.2, 0.0], LENGTHS, theta),
                                   atol=1e-14)

    def test_frames_chain(self):
        arm = make_arm([0.3, -0.2, 0.5, 0.1])
        points = forward_kinematics(arm)
        assert points.shape == (5, 2)
        np.testing.assert_allclose(points[0], arm.base_position)
        cumulative = np.cumsum(arm.joint_angles)
        for i, angle in enumerate(cumulative):
            step = points[i + 1] - points[i]
            np.testing.assert_allclose(step, arm.link_lengths[i] * np.array(
                [np.cos(angle), np.sin(angle)]), atol=1e-15)
        np.testing.assert_array_equal(points[-1], end_effector(arm))
        seg = link_segment(arm, 3)
        np.testing.assert_allclose(seg.b, points[-1])

    def test_base_translation_equivariance(self, rng):
        theta = rng.normal(size=4)
        shift = np.array([0.7, -1.3])
        points_a = forward_kinematics(make_arm(theta))
        points_b = forward_kinematics(make_arm(theta, base=(0.9, -1.3)))
        np.testing.assert_allclose(points_b, points_a + shift, atol=1e-12)

    def test_nonfinite_angles_rejected(self):
        with pytest.raises(ValueError):
            make_arm([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            make_arm([0.0, np.inf, 0.0, 0.0])

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            make_arm([0] * 4, lengths=[0.3, 0.0, 0.25, 0.15])
        with pytest.raises(ValueError):
            make_arm([0] * 4, radius=0.0)


class TestPointJacobian:
    def test_straight_chain_lever_arms(self):
        jac = point_jacobian(forward_kinematics(make_arm([0, 0, 0, 0])), 3, 1.0)
        np.testing.assert_allclose(jac[:, 0], [0.0, 1.0], atol=1e-15)
        assert jac[0, 0] == pytest.approx(0.0)

    def test_distal_joints_do_not_move_proximal_points(self):
        jac = point_jacobian(forward_kinematics(make_arm([0, 0, 0, 0])), 1, 0.5)
        np.testing.assert_allclose(jac[:, 2:], 0.0)
        assert np.any(jac[:, :2] != 0.0)

    def test_matches_finite_differences(self, rng):
        step = 1e-6
        for _ in range(100):
            theta = rng.normal(scale=1.5, size=4)
            link = int(rng.integers(0, 4))
            param = float(rng.uniform())
            arm = make_arm(theta)
            jac = point_jacobian(forward_kinematics(arm), link, param)
            for j in range(4):
                bump = np.zeros(4)
                bump[j] = step
                plus = point_on_link(make_arm(theta + bump), link, param)
                minus = point_on_link(make_arm(theta - bump), link, param)
                fd = (plus - minus) / (2 * step)
                np.testing.assert_allclose(
                    jac[:, j], fd, atol=1e-5 * max(1.0, np.abs(fd).max()))

    def test_end_effector_jacobian_identity(self, rng):
        # The distal end of the last link is the end effector itself.
        step = 1e-6
        theta = rng.normal(scale=1.0, size=4)
        jac = point_jacobian(forward_kinematics(make_arm(theta)), 3, 1.0)
        for j in range(4):
            bump = np.zeros(4)
            bump[j] = step
            fd = (end_effector(make_arm(theta + bump))
                  - end_effector(make_arm(theta - bump))) / (2 * step)
            np.testing.assert_allclose(jac[:, j], fd, atol=1e-6)

    def test_range_checks(self):
        points = forward_kinematics(make_arm([0] * 4))
        with pytest.raises(ValueError):
            point_jacobian(points, 4, 0.5)
        with pytest.raises(ValueError):
            point_jacobian(points, -1, 0.5)
        with pytest.raises(ValueError):
            point_jacobian(points, 1, 1.5)


class TestSignedGap:
    def test_penetration_equals_radius_on_axis(self):
        seg = Segment(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        res = signed_gap([0.4, 0.0], seg, 0.04)
        assert res.gap == pytest.approx(-0.04)

    def test_perpendicular_distance(self):
        seg = Segment(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        res = signed_gap([0.5, 0.10], seg, 0.04)
        assert res.gap == pytest.approx(0.06)
        np.testing.assert_allclose(res.closest_point, [0.5, 0.0], atol=1e-12)
        # Force on the link points from the point toward the axis.
        assert res.normal_angle == pytest.approx(-np.pi / 2)

    def test_matches_dense_sampling_oracle(self, rng):
        params = np.linspace(0.0, 1.0, 1_000_001)
        for _ in range(5):
            a = rng.uniform(-1, 1, size=2)
            b = a + rng.uniform(0.2, 1.0) * np.array(
                [np.cos(rng.uniform(0, 2 * np.pi)),
                 np.sin(rng.uniform(0, 2 * np.pi))])
            point = rng.uniform(-1.5, 1.5, size=2)
            seg = Segment(a, b)
            res = signed_gap(point, seg, 0.04)
            samples = a[None, :] + params[:, None] * (b - a)[None, :]
            dense = np.min(np.linalg.norm(samples - point, axis=1)) - 0.04
            assert abs(res.gap - dense) <= 1e-6

    def test_lipschitz_in_the_point(self, rng):
        seg = Segment(np.array([-0.3, 0.1]), np.array([0.5, 0.4]))
        for _ in range(50):
            point = rng.uniform(-1, 1, size=2)
            delta = rng.normal(scale=1e-3, size=2)
            g0 = signed_gap(point, seg, 0.04).gap
            g1 = signed_gap(point + delta, seg, 0.04).gap
            assert abs(g1 - g0) <= np.linalg.norm(delta) + 1e-12

    def test_zero_length_segment_rejected(self):
        with pytest.raises(ValueError):
            signed_gap([0.0, 0.0], Segment(np.array([1.0, 1.0]),
                                           np.array([1.0, 1.0])), 0.04)
