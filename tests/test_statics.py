import numpy as np
import pytest

from contactplan.errors import DegenerateGraspError, UnbalancedStateError
from contactplan.statics import (AppliedWrench, GraspMap, RobotStaticsState,
                                 check_support_region, compute_zmp,
                                 distribute_object_wrench, wrench_matrix)

SP = np.array([[-0.2, -0.16], [0.2, -0.16], [0.2, 0.16], [-0.2, 0.16]])


def make_state(com=(0.0, 0.0, 0.8), mass=54.0):
    return RobotStaticsState(total_mass=mass, com=np.array(com, dtype=float))


def wrench(position, force, moment=(0.0, 0.0, 0.0)):
    return AppliedWrench(position=np.array(position, dtype=float),
                         force=np.array(force, dtype=float),
                         moment=np.array(moment, dtype=float))


def horizontal_moment(state, externals, zmp, ground_force):
    """Direct cross-product summation of every term in the balance."""
    total = np.cross(np.array([zmp[0], zmp[1], 0.0]), ground_force)
    total = total + np.cross(state.com, state.total_mass * state.gravity)
    for w in externals:
        total = total + np.cross(w.position, w.force) + w.moment
    return total[:2]


def zmp_oracle(state, externals):
    """Solve the horizontal moment balance by fitting its affine form.

    The total horizontal moment is affine in the assumed ZMP position, so
    three evaluations determine it; an independent path from the closed-form
    solution under test.
    """
    weight = state.total_mass * state.gravity
    force_sum = weight + sum((w.force for w in externals), np.zeros(3))
    ground = -force_sum

    def moment_at(p):
        return horizontal_moment(state, externals, p, ground)

    m0 = moment_at(np.zeros(2))
    a = np.column_stack([moment_at(np.array([1.0, 0.0])) - m0,
                         moment_at(np.array([0.0, 1.0])) - m0])
    return np.linalg.solve(a, -m0), ground


class TestComputeZmp:
    def test_zmp_under_com_without_externals(self):
        state = make_state(com=(0.03, -0.05, 0.8))
        result = compute_zmp(state, [])
        np.testing.assert_allclose(result.zmp, [0.03, -0.05], atol=1e-12)
        assert result.ground_force[2] == pytest.approx(54.0 * 9.81)

    def test_mirrored_externals_cancel_x(self):
        state = make_state(com=(0.0, 0.02, 0.8))
        externals = [wrench([0.3, 0.4, 0.9], [5.0, -2.0, -30.0]),
                     wrench([-0.3, 0.4, 0.9], [-5.0, -2.0, -30.0])]
        result = compute_zmp(state, externals)
        assert result.zmp[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(100):
            state = make_state(com=rng.normal(scale=0.05, size=3) + [0, 0, 0.8],
                               mass=float(rng.uniform(30, 80)))
            externals = [wrench(rng.normal(scale=0.4, size=3),
                                rng.normal(scale=30.0, size=3))
                         for _ in range(int(rng.integers(1, 5)))]
            # Keep the net vertical load downward.
            externals.append(wrench([0.1, 0.2, 0.9], [0.0, 0.0, -50.0]))
            result = compute_zmp(state, externals)
            expected, ground = zmp_oracle(state, externals)
            np.testing.assert_allclose(result.zmp, expected, atol=1e-9)
            np.testing.assert_allclose(result.ground_force, ground, atol=1e-9)
            # Force and horizontal moment residuals of the full balance.
            force_residual = (result.ground_force
                              + state.total_mass * state.gravity
                              + sum((w.force for w in externals), np.zeros(3)))
            np.testing.assert_allclose(force_residual, 0.0, atol=1e-9)
            residual = horizontal_moment(state, externals, result.zmp,
                                         result.ground_force)
            np.testing.assert_allclose(residual, 0.0, atol=1e-9)

    def test_zero_magnitude_support_does_not_move_zmp(self):
        state = make_state(com=(0.01, 0.03, 0.7))
        externals = [wrench([0.2, 0.5, 0.9], [3.0, -8.0, -40.0])]
        base = compute_zmp(state, externals)
        with_zero = compute_zmp(state, externals + [
            wrench([0.5, 0.3, 0.9], [0.0, 0.0, 0.0])])
        np.testing.assert_allclose(with_zero.zmp, base.zmp, atol=1e-15)

    def test_unbalanced_state_raises(self):
        state = make_state()
        lift = [wrench([0.0, 0.0, 1.0], [0.0, 0.0, 54.0 * 9.81 + 1.0])]
        with pytest.raises(UnbalancedStateError):
            compute_zmp(state, lift)


class TestComputeFzmp:
    """The FZMP is compute_zmp on the wrenches without the supports."""

    def test_equals_com_projection_without_loads(self):
        state = make_state(com=(0.04, -0.02, 0.75))
        result = compute_zmp(state, [])
        np.testing.assert_allclose(result.zmp, [0.04, -0.02], atol=1e-12)

    def test_forward_load_moves_fzmp_ahead_of_supported_zmp(self):
        state = make_state(com=(0.0, 0.0, 0.8))
        load = [wrench([0.0, 0.6, 0.9], [0.0, 0.0, -120.0])]
        rear_push = [wrench([0.0, 0.3, 0.9], [0.0, -40.0, 0.0])]
        fzmp = compute_zmp(state, load)
        zmp = compute_zmp(state, load + rear_push)
        assert fzmp.zmp[1] > zmp.zmp[1]


class TestWrenchMatrix:
    def test_zero_offset_gives_identity(self):
        np.testing.assert_allclose(wrench_matrix(np.zeros(3)), np.eye(6))

    def test_moment_matches_hand_cross_product(self):
        w = wrench_matrix([0.3, 0.0, 0.0])
        contact_wrench = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        result = w @ contact_wrench
        np.testing.assert_allclose(result[:3], [0.0, 1.0, 0.0])
        # moment = -r x f
        np.testing.assert_allclose(result[3:], [0.0, 0.0, -0.3], atol=1e-15)

    def test_top_right_block_is_zero(self, rng):
        for _ in range(10):
            w = wrench_matrix(rng.normal(size=3))
            np.testing.assert_allclose(w[:3, 3:], 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            wrench_matrix([np.nan, 0.0, 0.0])


class TestDistributeObjectWrench:
    def grasp(self, r=0.3):
        return GraspMap(r_c1=np.array([r, 0.0, 0.0]),
                        r_c2=np.array([-r, 0.0, 0.0]))

    def test_zero_wrench_gives_zero(self):
        h_c = distribute_object_wrench(self.grasp(), np.zeros(6))
        np.testing.assert_allclose(h_c, 0.0)

    def test_symmetric_grasp_halves_vertical_force(self):
        h_o = np.array([0.0, 0.0, -100.0, 0.0, 0.0, 0.0])
        h_c = distribute_object_wrench(self.grasp(), h_o)
        np.testing.assert_allclose(h_c[0:3], [0.0, 0.0, -50.0], atol=1e-12)
        np.testing.assert_allclose(h_c[6:9], [0.0, 0.0, -50.0], atol=1e-12)
        np.testing.assert_allclose(h_c[3:6], 0.0, atol=1e-12)
        np.testing.assert_allclose(h_c[9:12], 0.0, atol=1e-12)

    def test_reconstructs_task_wrench(self):
        h_o = np.array([0.0, 10.0, -117.72, 0.0, 0.0, 0.0])
        grasp = self.grasp()
        h_c = distribute_object_wrench(grasp, h_o)
        np.testing.assert_allclose(grasp.w_c @ h_c, h_o, atol=1e-9)

    def test_minimum_norm_solution(self, rng):
        grasp = GraspMap(r_c1=rng.normal(size=3), r_c2=rng.normal(size=3))
        h_o = rng.normal(scale=20.0, size=6)
        h_c = distribute_object_wrench(grasp, h_o)
        # Any null-space perturbation must not shrink the norm.
        _, _, vt = np.linalg.svd(grasp.w_c)
        null_basis = vt[6:]
        for direction in null_basis:
            for eps in (1e-3, -1e-3):
                alt = h_c + eps * direction
                assert np.linalg.norm(alt) >= np.linalg.norm(h_c) - 1e-12

    def test_coincident_grasp_points_rejected(self):
        grasp = GraspMap(r_c1=np.array([0.1, 0.2, 0.0]),
                         r_c2=np.array([0.1, 0.2, 0.0]))
        with pytest.raises(DegenerateGraspError):
            distribute_object_wrench(grasp, np.zeros(6))

    def test_grasp_map_from_points(self):
        grasp = GraspMap.from_points([-0.3, 0.5, 0.9], [0.3, 0.5, 0.9],
                                     [0.0, 0.5, 0.9])
        np.testing.assert_allclose(grasp.r_c1, [0.3, 0.0, 0.0])
        np.testing.assert_allclose(grasp.r_c2, [-0.3, 0.0, 0.0])
        assert grasp.w_c.shape == (6, 12)


class TestStateValidation:
    def test_circle_must_fit_in_polygon(self):
        check_support_region(SP, np.zeros(2), 0.16)
        with pytest.raises(ValueError, match="safe circle"):
            check_support_region(SP, np.zeros(2), 0.17)

    def test_needs_three_planar_vertices(self):
        with pytest.raises(ValueError, match="at least 3 planar vertices"):
            check_support_region(SP[:2], np.zeros(2), 0.1)

    def test_polygon_must_be_convex_ccw(self):
        bad = np.array([[-0.2, -0.16], [0.2, -0.16], [-0.2, 0.16], [0.2, 0.16]])
        with pytest.raises(ValueError, match="convex"):
            check_support_region(bad, np.zeros(2), 0.1)
        with pytest.raises(ValueError, match="convex"):
            check_support_region(SP[::-1], np.zeros(2), 0.1)

    def test_mass_must_be_positive(self):
        with pytest.raises(ValueError):
            make_state(mass=0.0)
