import numpy as np
import pytest

from contactplan.errors import ScenarioError, UnbalancedStateError
from contactplan.scenario import default_scenario
from contactplan.statics import (bar_grasp, bar_grasp_gradients, bar_origin,
                                 check_support_region, compute_zmp)

from derivatives import finite_difference_jacobian

SP = np.array([[-0.2, -0.16], [0.2, -0.16], [0.2, 0.16], [-0.2, 0.16]])
GRAVITY = np.array([0.0, 0.0, -9.81])


def balance(com=(0.0, 0.0, 0.8), mass=54.0):
    """Weight vector and centre of mass of a robot."""
    return mass * GRAVITY, np.array(com, dtype=float)


def loads(*rows):
    """(k, 3) position and force arrays from (position, force) pairs."""
    positions = np.array([p for p, _ in rows], dtype=float).reshape(-1, 3)
    forces = np.array([f for _, f in rows], dtype=float).reshape(-1, 3)
    return positions, forces


def horizontal_moment(weight, com, positions, forces, zmp, ground_force):
    """Direct cross-product summation of every term in the balance."""
    total = np.cross(np.array([zmp[0], zmp[1], 0.0]), ground_force)
    total = total + np.cross(com, weight)
    for position, force in zip(positions, forces):
        total = total + np.cross(position, force)
    return total[:2]


def zmp_oracle(weight, com, positions, forces):
    """Solve the horizontal moment balance by fitting its affine form.

    The total horizontal moment is affine in the assumed ZMP position, so
    three evaluations determine it; an independent path from the closed-form
    solution under test.
    """
    force_sum = weight + sum(forces, np.zeros(3))
    ground = -force_sum

    def moment_at(p):
        return horizontal_moment(weight, com, positions, forces, p, ground)

    m0 = moment_at(np.zeros(2))
    a = np.column_stack([moment_at(np.array([1.0, 0.0])) - m0,
                         moment_at(np.array([0.0, 1.0])) - m0])
    return np.linalg.solve(a, -m0), ground


class TestComputeZmp:
    def test_zmp_under_com_without_externals(self):
        weight, com = balance(com=(0.03, -0.05, 0.8))
        result = compute_zmp(weight, com, *loads())
        np.testing.assert_allclose(result.zmp, [0.03, -0.05], atol=1e-12)
        assert result.ground_force[2] == pytest.approx(54.0 * 9.81)

    def test_mirrored_externals_cancel_x(self):
        weight, com = balance(com=(0.0, 0.02, 0.8))
        result = compute_zmp(weight, com, *loads(
            ([0.3, 0.4, 0.9], [5.0, -2.0, -30.0]),
            ([-0.3, 0.4, 0.9], [-5.0, -2.0, -30.0])))
        assert result.zmp[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(100):
            weight, com = balance(
                com=rng.normal(scale=0.05, size=3) + [0, 0, 0.8],
                mass=float(rng.uniform(30, 80)))
            rows = [(rng.normal(scale=0.4, size=3), rng.normal(scale=30.0, size=3))
                    for _ in range(int(rng.integers(1, 5)))]
            # Keep the net vertical load downward.
            rows.append(([0.1, 0.2, 0.9], [0.0, 0.0, -50.0]))
            positions, forces = loads(*rows)
            result = compute_zmp(weight, com, positions, forces)
            expected, ground = zmp_oracle(weight, com, positions, forces)
            np.testing.assert_allclose(result.zmp, expected, atol=1e-9)
            np.testing.assert_allclose(result.ground_force, ground, atol=1e-9)
            # Force and horizontal moment residuals of the full balance.
            force_residual = (result.ground_force + weight
                              + sum(forces, np.zeros(3)))
            np.testing.assert_allclose(force_residual, 0.0, atol=1e-9)
            residual = horizontal_moment(weight, com, positions, forces,
                                         result.zmp, result.ground_force)
            np.testing.assert_allclose(residual, 0.0, atol=1e-9)

    def test_zero_magnitude_support_does_not_move_zmp(self):
        weight, com = balance(com=(0.01, 0.03, 0.7))
        load = ([0.2, 0.5, 0.9], [3.0, -8.0, -40.0])
        base = compute_zmp(weight, com, *loads(load))
        with_zero = compute_zmp(weight, com, *loads(
            load, ([0.5, 0.3, 0.9], [0.0, 0.0, 0.0])))
        np.testing.assert_allclose(with_zero.zmp, base.zmp, atol=1e-15)

    def test_unbalanced_state_raises(self):
        weight, com = balance()
        with pytest.raises(UnbalancedStateError):
            compute_zmp(weight, com, *loads(
                ([0.0, 0.0, 1.0], [0.0, 0.0, 54.0 * 9.81 + 1.0])))


class TestComputeFzmp:
    """The FZMP is compute_zmp on the loads without the supports."""

    def test_equals_com_projection_without_loads(self):
        weight, com = balance(com=(0.04, -0.02, 0.75))
        result = compute_zmp(weight, com, *loads())
        np.testing.assert_allclose(result.zmp, [0.04, -0.02], atol=1e-12)

    def test_forward_load_moves_fzmp_ahead_of_supported_zmp(self):
        weight, com = balance(com=(0.0, 0.0, 0.8))
        load = ([0.0, 0.6, 0.9], [0.0, 0.0, -120.0])
        rear_push = ([0.0, 0.3, 0.9], [0.0, -40.0, 0.0])
        fzmp = compute_zmp(weight, com, *loads(load))
        zmp = compute_zmp(weight, com, *loads(load, rear_push))
        assert fzmp.zmp[1] > zmp.zmp[1]


def reference_grasp_map(hands):
    """The 6x12 map [[I, 0, I, 0], [-S1, I, -S2, I]] of two hands, rows of
    [x, y, z], about their midpoint; S_i x = r_i x x with r_i the vector
    from hand i to the midpoint."""
    hands = np.asarray(hands, dtype=float)
    origin = hands.mean(axis=0)
    w = np.zeros((6, 12))
    for col, hand in zip((0, 6), hands):
        w[:3, col:col + 3] = np.eye(3)
        w[3:, col:col + 3] = -np.cross(origin - hand, np.eye(3)).T
        w[3:, col + 3:col + 6] = np.eye(3)
    return w


def grasp(hand0, hand1, h_o=np.zeros(6)):
    """The hands on a 0.9 m plane, and ``bar_grasp``'s grasp map and hand
    wrenches for two planar hand positions."""
    result = bar_grasp((np.asarray(hand0, dtype=float),
                        np.asarray(hand1, dtype=float)), h_o)
    hands = np.array([[*hand0, 0.9], [*hand1, 0.9]], dtype=float)
    return hands, result.grasp_map, result.wrenches


class TestWrenchMatrix:
    """``bar_grasp``'s map: one [[I, 0], [-skew(r_c), I]] block per hand."""

    def test_zero_offset_gives_identity(self):
        # Coincident hands sit at the origin: both blocks are the identity.
        _, w, _ = grasp([0.1, 0.2], [0.1, 0.2])
        np.testing.assert_array_equal(w[:, :6], np.eye(6))
        np.testing.assert_array_equal(w[:, 6:], np.eye(6))

    def test_moment_matches_hand_cross_product(self):
        _, w, _ = grasp([0.3, 0.0], [-0.3, 0.0])
        contact_wrench = np.zeros(12)
        contact_wrench[7] = 1.0        # unit +y force at the second contact
        result = w @ contact_wrench
        np.testing.assert_allclose(result[:3], [0.0, 1.0, 0.0])
        # moment = -r x f
        np.testing.assert_allclose(result[3:], [0.0, 0.0, -0.3], atol=1e-15)

    def test_top_right_block_is_zero(self, rng):
        for _ in range(10):
            _, w, _ = grasp(rng.normal(size=2), rng.normal(size=2))
            np.testing.assert_allclose(w[:3, 3:6], 0.0)
            np.testing.assert_allclose(w[:3, 9:12], 0.0)


class TestDistributeObjectWrench:
    """``bar_grasp``'s hand wrenches: the pseudo-inverse of the map."""

    def hand_wrenches(self, h_o, r=0.3):
        return grasp([-r, 0.0], [r, 0.0], h_o)[2]

    def test_zero_wrench_gives_zero(self):
        h_c = self.hand_wrenches(np.zeros(6))
        np.testing.assert_allclose(h_c, 0.0)

    def test_symmetric_grasp_halves_vertical_force(self):
        h_o = np.array([0.0, 0.0, -100.0, 0.0, 0.0, 0.0])
        h_c = self.hand_wrenches(h_o)
        np.testing.assert_allclose(h_c[0:3], [0.0, 0.0, -50.0], atol=1e-12)
        np.testing.assert_allclose(h_c[6:9], [0.0, 0.0, -50.0], atol=1e-12)
        np.testing.assert_allclose(h_c[3:6], 0.0, atol=1e-12)
        np.testing.assert_allclose(h_c[9:12], 0.0, atol=1e-12)

    def test_reconstructs_task_wrench(self):
        h_o = np.array([0.0, 10.0, -117.72, 0.0, 0.0, 0.0])
        _, w, h_c = grasp([-0.3, 0.0], [0.3, 0.0], h_o)
        np.testing.assert_allclose(w @ h_c, h_o, atol=1e-9)

    def test_minimum_norm_solution(self, rng):
        h_o = rng.normal(scale=20.0, size=6)
        _, w, h_c = grasp(rng.normal(size=2), rng.normal(size=2), h_o)
        # Any null-space perturbation must not shrink the norm.
        _, _, vt = np.linalg.svd(w)
        null_basis = vt[6:]
        for direction in null_basis:
            for eps in (1e-3, -1e-3):
                alt = h_c + eps * direction
                assert np.linalg.norm(alt) >= np.linalg.norm(h_c) - 1e-12

    def test_matches_pseudo_inverse_with_moments(self, rng):
        # Every scenario the planner runs has a zero object moment; the
        # split must also hold for wrenches with moments.
        for _ in range(50):
            hand0, hand1 = rng.normal(scale=0.5, size=(2, 2))
            h_o = rng.normal(scale=20.0, size=6)
            hands, w, h_c = grasp(hand0, hand1, h_o)
            reference = reference_grasp_map(hands)
            np.testing.assert_allclose(w, reference, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(h_c, np.linalg.pinv(reference) @ h_o,
                                       rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(w @ h_c, h_o, rtol=1e-10, atol=1e-10)

    def test_coincident_hands_share_the_wrench(self):
        # The map keeps full row rank with the hands together: each takes
        # half of the wrench.
        h_o = np.array([1.0, 10.0, -117.72, 1.5, -2.0, 3.0])
        _, w, h_c = grasp([0.1, 0.5], [0.1, 0.5], h_o)
        np.testing.assert_allclose(h_c, np.concatenate([h_o, h_o]) / 2.0,
                                   atol=1e-12)

    def test_grasp_map_from_points(self):
        # bar_grasp: the hands on the plane, about their midpoint.
        hands, w, _ = grasp([-0.3, 0.5], [0.3, 0.5])
        ends = (np.array([-0.3, 0.5]), np.array([0.3, 0.5]))
        np.testing.assert_array_equal(bar_origin(ends), [0.0, 0.5])
        assert w.shape == (6, 12)
        np.testing.assert_array_equal(w, reference_grasp_map(hands))

    def test_gradients_match_finite_differences(self, rng):
        # The hands' forces in the four hand coordinates (x0, y0, x1, y1),
        # for wrenches with moments.
        d_ee0, d_ee1 = np.eye(4)[:2], np.eye(4)[2:]
        for _ in range(20):
            ees = rng.normal(scale=0.5, size=4)
            h_o = rng.normal(scale=20.0, size=6)

            def forces(v):
                h_c = bar_grasp(v.reshape(2, 2), h_o).wrenches
                return np.concatenate([h_c[0:3], h_c[6:9]])

            numeric = finite_difference_jacobian(forces, ees, 1e-6)
            analytic = bar_grasp_gradients(bar_grasp(ees.reshape(2, 2), h_o),
                                           d_ee0, d_ee1)
            np.testing.assert_allclose(analytic.reshape(6, 4), numeric,
                                       rtol=1e-6, atol=1e-6)


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
        # Masses are checked when the scenario loads, like the region.
        for key in ("torso_mass", "link_mass"):
            with pytest.raises(ScenarioError, match=f"robot.{key} must be > 0"):
                default_scenario({"robot": {key: 0.0}})
