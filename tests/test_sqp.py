import numpy as np
import pytest

from contactplan.errors import InfeasibleStepError
from contactplan.sqp import (NlpProblem, SolverSettings,
                             finite_difference_jacobian, solve_qp, solve_sqp)


def quadratic_problem(target):
    target = np.asarray(target, dtype=float)
    return NlpProblem(dim=target.size,
                      cost=lambda x: float((x - target) @ (x - target)),
                      cost_grad=lambda x: 2.0 * (x - target))


def halfspace_qp():
    return NlpProblem(dim=2, cost=lambda x: float(x @ x),
                      cost_grad=lambda x: 2.0 * x,
                      inequalities=lambda x: np.array([x[0] + x[1] - 1.0]),
                      inequality_jac=lambda x: np.array([[1.0, 1.0]]))


def toy_mpcc():
    def ineq(z):
        return np.array([z[0], z[1], z[2], z[2] - z[0] * z[1]])

    def ineq_jac(z):
        return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                         [-z[1], -z[0], 1.0]])

    return NlpProblem(
        dim=3,
        cost=lambda z: float((z[0] - 1.0) ** 2 + (z[1] - 1.0) ** 2 + 1e6 * z[2]),
        cost_grad=lambda z: np.array([2.0 * (z[0] - 1.0), 2.0 * (z[1] - 1.0),
                                      1e6]),
        inequalities=ineq, inequality_jac=ineq_jac)


def mpcc_grid_oracle(step=1e-3, upper=2.0):
    """Brute-force minimum over an (x, gamma) grid with s = x * gamma."""
    grid = np.arange(0.0, upper + step / 2, step)
    x, g = np.meshgrid(grid, grid, indexing="ij")
    cost = (x - 1.0) ** 2 + (g - 1.0) ** 2 + 1e6 * x * g
    index = np.unravel_index(np.argmin(cost), cost.shape)
    return float(cost[index]), np.array([x[index], g[index]])


class TestSolveSqp:
    def test_unconstrained_quadratic_two_iterations(self):
        target = np.array([0.3, -1.2, 2.0])
        result = solve_sqp(quadratic_problem(target), np.zeros(3),
                           SolverSettings())
        assert result.converged
        assert result.iterations <= 2
        np.testing.assert_allclose(result.x, target, atol=1e-10)

    def test_halfspace_qp_analytic_solution(self):
        result = solve_sqp(halfspace_qp(), np.zeros(2), SolverSettings())
        assert result.converged
        np.testing.assert_allclose(result.x, [0.5, 0.5], atol=1e-8)

    def test_equality_constrained(self):
        problem = NlpProblem(dim=2, cost=lambda x: float(x @ x),
                             cost_grad=lambda x: 2.0 * x,
                             equalities=lambda x: np.array([x[0] + x[1] - 2.0]),
                             equality_jac=lambda x: np.array([[1.0, 1.0]]))
        result = solve_sqp(problem, np.zeros(2), SolverSettings())
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-9)

    def test_toy_mpcc_matches_grid_oracle(self):
        oracle_cost, _ = mpcc_grid_oracle()
        result = solve_sqp(toy_mpcc(), np.array([0.5, 0.1, 0.1]),
                           SolverSettings())
        assert result.converged
        assert result.x[0] * result.x[1] <= 1e-6
        assert abs(result.cost - oracle_cost) <= 2e-3
        # The optimum sits on one of the two complementarity corners.
        corners = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        assert min(np.linalg.norm(result.x - c) for c in corners) <= 2e-3

    def test_toy_mpcc_zero_start_is_first_order_point(self):
        # The all-zero start is exchange-symmetric, so the iteration stays on
        # the symmetric path and lands on the symmetric stationary point.
        result = solve_sqp(toy_mpcc(), np.zeros(3), SolverSettings())
        assert result.converged
        assert result.x[0] * result.x[1] <= 1e-6
        assert result.x[0] == pytest.approx(result.x[1], abs=1e-9)

    def test_merit_non_increasing_on_accepted_steps(self):
        for problem, start in ((halfspace_qp(), np.zeros(2)),
                               (toy_mpcc(), np.array([0.5, 0.1, 0.1]))):
            result = solve_sqp(problem, start, SolverSettings())
            for mu, before, after in result.merit_history:
                assert after <= before + 1e-9 * (1.0 + abs(before))

    def test_deterministic(self):
        a = solve_sqp(toy_mpcc(), np.array([0.5, 0.1, 0.1]), SolverSettings())
        b = solve_sqp(toy_mpcc(), np.array([0.5, 0.1, 0.1]), SolverSettings())
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations

    def test_rosenbrock_with_constraint(self):
        def cost(x):
            return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

        def grad(x):
            return np.array([
                -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                200.0 * (x[1] - x[0] ** 2)])

        problem = NlpProblem(
            dim=2, cost=cost, cost_grad=grad,
            inequalities=lambda x: np.array([1.5 - x[0] - x[1]]),
            inequality_jac=lambda x: np.array([[-1.0, -1.0]]))
        result = solve_sqp(problem, np.array([-1.0, 1.0]), SolverSettings())
        assert result.converged
        assert result.constraint_violation <= 1e-8

    def test_bad_start_rejected(self):
        with pytest.raises(ValueError):
            solve_sqp(quadratic_problem([1.0]), np.array([np.nan]),
                      SolverSettings())


class TestSolverSettings:
    @pytest.mark.parametrize("field, value", [
        ("tol_kkt", float("nan")), ("tol_con", 0.0), ("max_iterations", 0),
        ("armijo_c1", float("nan")), ("backtrack_ratio", 1.0),
        ("penalty_growth", 1.0), ("penalty_growth", float("nan")),
        ("slack_max", 0.0), ("slack_max", float("nan")),
    ])
    def test_invalid_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverSettings(**{field: value})


class TestSolveQp:
    def test_inequality_activates(self):
        sol = solve_qp(np.eye(2), np.zeros(2), None, None,
                       np.array([[1.0, 1.0]]), np.array([1.0]))
        np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-9)
        # stationarity: H x = lam * a with H = I at (0.5, 0.5)
        assert sol.lam_in[0] == pytest.approx(0.5, abs=1e-8)
        assert sol.elastic == pytest.approx(0.0, abs=1e-9)

    def test_inactive_constraint_ignored(self):
        sol = solve_qp(np.eye(2), np.array([2.0, 0.0]), None, None,
                       np.array([[1.0, 0.0]]), np.array([-10.0]))
        np.testing.assert_allclose(sol.x, [-2.0, 0.0], atol=1e-9)
        assert sol.lam_in[0] == 0.0

    def test_equalities_only(self):
        sol = solve_qp(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]),
                       np.array([2.0]), None, None)
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-10)

    def test_contradictory_rows_absorbed_by_elastic(self):
        sol = solve_qp(np.eye(1), np.zeros(1), None, None,
                       np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        assert sol.elastic >= 0.9  # genuinely infeasible by 1

    def test_inconsistent_equalities_raise(self):
        with pytest.raises(InfeasibleStepError):
            solve_qp(np.eye(1), np.zeros(1),
                     np.array([[1.0], [1.0]]), np.array([0.0, 1.0]),
                     None, None)


class TestFiniteDifference:
    def test_linear_map_exact(self):
        matrix = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.0]])
        jac = finite_difference_jacobian(lambda x: matrix @ x,
                                         np.array([0.3, -0.7]))
        np.testing.assert_allclose(jac, matrix, atol=1e-9)
