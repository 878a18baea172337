import math
import re

import numpy as np
import pytest

from collections import Counter

from contactplan import _lapack, sqp
from contactplan.errors import InfeasibleStepError, UnbalancedStateError
from contactplan.sqp import NlpProblem, SolverSettings, solve_qp, solve_sqp

from derivatives import finite_difference_jacobian


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

    def test_qp_iterations_sum_every_qp(self, monkeypatch):
        counts = []

        def counted(*args, **kwargs):
            solution = solve_qp(*args, **kwargs)
            counts.append(solution.iterations)
            return solution

        monkeypatch.setattr(sqp, "solve_qp", counted)
        result = solve_sqp(toy_mpcc(), np.array([0.5, 0.1, 0.1]),
                           SolverSettings())
        assert len(counts) >= result.iterations > 0
        assert result.qp_iterations == sum(counts) > 0

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

    @staticmethod
    def bounded_region_problem(target, bound, outside):
        """(x - target)^2 for |x| <= 5, ``outside(x)`` beyond, and the
        inequality x <= bound unless ``bound`` is None."""
        def cost(x):
            if abs(x[0]) > 5.0:
                return outside(x)
            return float((x[0] - target) ** 2)

        problem = NlpProblem(dim=1, cost=cost,
                             cost_grad=lambda x: np.array([2.0 * (x[0] - target)]))
        if bound is not None:
            problem.inequalities = lambda x: np.array([bound - x[0]])
            problem.inequality_jac = lambda x: np.array([[-1.0]])
        return problem

    @pytest.mark.parametrize("target, bound, expected", [
        (3.0, None, 3.0),    # the full step to 6 is infinite; backtracks to 3
        (10.0, 4.0, 4.0),    # accepted step to 4; the expansion to 8 is infinite
    ], ids=["backtrack", "expansion"])
    def test_unbalanced_trial_is_rejected(self, target, bound, expected):
        # A trial beyond the balanced region has an infinite merit, which
        # the line search rejects like any other worse point.
        problem = self.bounded_region_problem(target, bound, lambda x: np.inf)
        result = solve_sqp(problem, np.zeros(1), SolverSettings(),
                           initial_hessian=np.eye(1))
        assert result.converged
        np.testing.assert_allclose(result.x, [expected], atol=1e-12)

    def test_trial_exception_propagates(self):
        # The solver catches no model error: the full step to 10 leaves the
        # region, and its exception reaches the caller.
        def outside(x):
            raise UnbalancedStateError("trial beyond the balanced region")

        problem = self.bounded_region_problem(10.0, None, outside)
        with pytest.raises(UnbalancedStateError, match="balanced region"):
            solve_sqp(problem, np.zeros(1), SolverSettings(),
                      initial_hessian=np.eye(1))

    def test_line_search_stall_reuses_the_iterate(self):
        # A gradient of the wrong sign: no step along the QP direction
        # lowers the merit, so the line search stalls at the start point.
        calls = Counter()

        def counted(name, fn):
            def call(x):
                calls[name, x.tobytes()] += 1
                return fn(x)
            return call

        problem = NlpProblem(
            dim=1,
            cost=counted("cost", lambda x: float(x[0] ** 2)),
            cost_grad=counted("cost_grad", lambda x: np.array([-2.0 * x[0] - 2.0])),
            inequalities=counted("inequalities", lambda x: np.array([10.0 - x[0]])),
            inequality_jac=counted("inequality_jac", lambda x: np.array([[-1.0]])))
        x0 = np.zeros(1)
        result = solve_sqp(problem, x0, SolverSettings(), initial_hessian=np.eye(1))
        assert result.status == "line search stalled"
        assert not result.converged
        assert result.x.tobytes() == x0.tobytes()
        assert result.cost == 0.0
        at_start = {name: n for (name, key), n in calls.items()
                    if key == x0.tobytes()}
        # Each once, at the top of the loop: the line search only evaluates
        # trial points.
        assert at_start == {"cost": 1, "cost_grad": 1, "inequalities": 1,
                            "inequality_jac": 1}

    def test_unchanged_merit_stagnates(self):
        # A constant cost whose gradient promises descent: every accepted
        # step leaves the merit at 1e6, so the run ends after the first
        # iteration and 20 stagnant ones instead of at the 200 cap.
        seen = []

        def cost(x):
            seen.append(x.copy())
            return 1e6

        problem = NlpProblem(dim=2, cost=cost,
                             cost_grad=lambda x: np.array([1.0, 0.5]))
        result = solve_sqp(problem, np.zeros(2), SolverSettings())
        assert (result.status, result.iterations, result.converged) == \
            ("stagnated", 21, False)
        assert len(result.merit_history) == 21
        # The result describes the last accepted iterate.
        assert result.cost == 1e6
        assert result.x.tobytes() == seen[-1].tobytes()
        assert not np.array_equal(result.x, np.zeros(2))

    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_iteration_limit_result_describes_its_x(self, max_iterations):
        # min |x|^2 s.t. x0^2 + x1 = 2 from (3, -1).  The cost, violation and
        # KKT residual are those of the returned x, not of the iterate
        # before the last step (after one step: 6.0 there, 2.13 at x).
        def eq(x):
            return np.array([x[0] ** 2 + x[1] - 2.0])

        def eq_jac(x):
            return np.array([[2.0 * x[0], 1.0]])

        problem = NlpProblem(dim=2, cost=lambda x: float(x @ x),
                             cost_grad=lambda x: 2.0 * x,
                             equalities=eq, equality_jac=eq_jac)
        settings = SolverSettings(max_iterations=max_iterations)
        result = solve_sqp(problem, np.array([3.0, -1.0]), settings)
        x = result.x
        assert result.status == "iteration limit reached"
        assert result.iterations == max_iterations
        assert result.cost == float(x @ x)
        assert result.constraint_violation == abs(eq(x)[0])
        act_tol = 10.0 * settings.tol_con
        assert result.kkt_residual == sqp._kkt_residual(
            2.0 * x, eq_jac(x), np.zeros((0, 2)), eq(x), np.zeros(0), act_tol)

    def test_bad_start_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            solve_sqp(quadratic_problem([1.0]), np.array([np.nan]),
                      SolverSettings())

    def test_start_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=re.escape("shape (2,)")):
            solve_sqp(quadratic_problem([1.0, 2.0]), np.zeros(3),
                      SolverSettings())

    def test_infeasible_qp_subproblem_raises(self):
        # x >= 1 and x <= -1: no step closes the violation of 1 at x = 0.
        problem = NlpProblem(
            dim=1, cost=lambda x: float(x @ x), cost_grad=lambda x: 2.0 * x,
            inequalities=lambda x: np.array([x[0] - 1.0, -1.0 - x[0]]),
            inequality_jac=lambda x: np.array([[1.0], [-1.0]]))
        with pytest.raises(InfeasibleStepError, match=re.escape(
                "QP subproblem infeasible (residual 1 vs violation 1 ")):
            solve_sqp(problem, np.zeros(1), SolverSettings())

    @staticmethod
    def constrained_problem():
        """min |x|^2 s.t. x0 + x1 == 1 and x0 >= 0.2."""
        return NlpProblem(
            dim=2, cost=lambda x: float(x @ x), cost_grad=lambda x: 2.0 * x,
            equalities=lambda x: np.array([x[0] + x[1] - 1.0]),
            equality_jac=lambda x: np.array([[1.0, 1.0]]),
            inequalities=lambda x: np.array([x[0] - 0.2]),
            inequality_jac=lambda x: np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("field, name", [
        ("cost", "cost"), ("equalities", "equality rows"),
        ("inequalities", "inequality rows"), ("cost_grad", "cost gradient"),
        ("equality_jac", "equality Jacobian"),
        ("inequality_jac", "inequality Jacobian"), (None, "Hessian"),
        # Two at once: the message names the first in the check's order.
        pytest.param((None, "inequalities"), "inequality rows",
                     id="Hessian+inequalities-inequality rows"),
        pytest.param(("equality_jac", "cost_grad"), "cost gradient",
                     id="equality_jac+cost_grad-cost gradient")])
    def test_non_finite_data_raises_before_lapack(self, field, name,
                                                   monkeypatch):
        problem = self.constrained_problem()
        hessian = np.eye(2)
        for one in field if isinstance(field, tuple) else (field,):
            if one is None:
                hessian[0, 0] = np.inf
            else:
                real = getattr(problem, one)
                setattr(problem, one, lambda x, real=real: real(x) + np.inf)

        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on non-finite data")

        for routine in ("lstsq", "eigvalsh"):
            monkeypatch.setattr(_lapack, routine, lapack)
        with pytest.raises(InfeasibleStepError, match=f"non-finite {name} "):
            solve_sqp(problem, np.zeros(2), SolverSettings(),
                      initial_hessian=hessian)

    def test_non_finite_gradient_at_a_later_iterate_raises(self):
        # The gradient turns to inf once x leaves the start: the check runs
        # at every iterate, not only at x0.
        problem = self.constrained_problem()
        problem.cost_grad = lambda x: 2.0 * x + (np.inf if x.any() else 0.0)
        with np.errstate(all="ignore"), pytest.raises(
                InfeasibleStepError, match="non-finite cost gradient"):
            solve_sqp(problem, np.zeros(2), SolverSettings())


def curved_equality_problem():
    """min |x|^2 s.t. x0^2 + x1 = 2: infeasible at (3, -1)."""
    return NlpProblem(dim=2, cost=lambda x: float(x @ x),
                      cost_grad=lambda x: 2.0 * x,
                      equalities=lambda x: np.array([x[0] ** 2 + x[1] - 2.0]),
                      equality_jac=lambda x: np.array([[2.0 * x[0], 1.0]]))


def constant_row_problem(cost, cost_grad, dim):
    """``cost`` s.t. a row that stays at -1 while its Jacobian promises that
    a unit step in x0 closes it: no iterate is ever feasible."""
    return NlpProblem(dim=dim, cost=cost, cost_grad=cost_grad,
                      inequalities=lambda x: np.array([-1.0]),
                      inequality_jac=lambda x: np.eye(1, dim))


# Each exit status from a start that violates a row; all but the converged
# run end at an x that still does.
EXIT_CASES = {
    "converged": (curved_equality_problem(), [3.0, -1.0], {}, None),
    "iteration limit reached": (curved_equality_problem(), [3.0, -1.0],
                                {"max_iterations": 2}, None),
    # A constant cost: accepted steps leave the merit unchanged.
    "stagnated": (constant_row_problem(
        lambda x: 1e6, lambda x: np.array([1.0, 0.5]), 2), [0.0, 0.0], {},
        None),
    # A gradient of the wrong sign: no trial lowers the merit.
    "line search stalled": (constant_row_problem(
        lambda x: float(x[0] ** 2), lambda x: np.array([-2.0 * x[0] - 2.0]),
        1), [0.0], {}, np.eye(1)),
    # A row fixed at -5e-4 that no step moves: the elastic variable absorbs
    # it, within the infeasibility test's margin, and the QP's direction at
    # the cost's minimum is zero.
    "stalled at zero step": (NlpProblem(
        dim=1, cost=lambda x: float(x[0] ** 2),
        cost_grad=lambda x: np.array([2.0 * x[0]]),
        inequalities=lambda x: np.array([-5e-4]),
        inequality_jac=lambda x: np.zeros((1, 1))), [0.0], {}, np.eye(1)),
}


def test_zero_step_ends_the_run_at_once(monkeypatch):
    # The next iteration would solve the same QP (same x, gradient,
    # Jacobians and Hessian; the QP reads no penalty) and get the same
    # zero direction: one iteration of 4 elastic tries, not 3 of them.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_qp(*args, **kwargs)

    monkeypatch.setattr(sqp, "solve_qp", counted)
    problem, x0, _, hessian = EXIT_CASES["stalled at zero step"]
    result = solve_sqp(problem, np.array(x0), SolverSettings(),
                       initial_hessian=hessian)
    assert (result.status, result.iterations, len(calls)) == \
        ("stalled at zero step", 1, 4)
    assert result.x.tobytes() == np.array(x0).tobytes()


class TestLazyCertificate:
    """The KKT certificate runs only at iterates within ``tol_con``, where it
    can decide convergence, and once more at exit when the loop did not."""

    @staticmethod
    def recorded(monkeypatch) -> list:
        """The violation at each ``_kkt_residual`` call from now on."""
        violations = []
        real = sqp._kkt_residual

        def counted(grad, a_eq, a_in, ce, ci, act_tol):
            violations.append(sqp._max_violation(ce, ci))
            return real(grad, a_eq, a_in, ce, ci, act_tol)

        monkeypatch.setattr(sqp, "_kkt_residual", counted)
        return violations

    def test_no_certificate_at_an_infeasible_iterate(self, monkeypatch):
        violations = self.recorded(monkeypatch)
        settings = SolverSettings()
        result = solve_sqp(curved_equality_problem(), np.array([3.0, -1.0]),
                           settings)
        assert result.converged
        assert violations and max(violations) <= settings.tol_con
        # The iterates before the last few violated the constraint.
        assert len(violations) < result.iterations + 1

    @pytest.mark.parametrize("status", EXIT_CASES)
    def test_result_certificate_describes_its_x(self, status, monkeypatch):
        problem, x0, overrides, hessian = EXIT_CASES[status]
        settings = SolverSettings(**overrides)
        violations = self.recorded(monkeypatch)
        result = solve_sqp(problem, np.array(x0), settings,
                           initial_hessian=hessian)
        monkeypatch.undo()
        assert result.status == status
        assert all(v <= settings.tol_con for v in violations[:-1])
        assert violations[-1] == result.constraint_violation
        assert (result.constraint_violation <= settings.tol_con) == \
            result.converged
        x = result.x
        assert result.kkt_residual == sqp._kkt_residual(
            problem.cost_grad(x), problem.equality_jac(x),
            problem.inequality_jac(x), problem.equalities(x),
            problem.inequalities(x), max(10.0 * settings.tol_con, 1e-10))


class TestMeritBound:
    """A line-search trial other than the full step is rejected on the cost
    plus mu |c_E|_1, a lower bound of its merit, before the inequalities
    run."""

    X0 = np.array([0.9, 0.5])
    BOWL_MIN = np.array([1.0, 2.0])
    # The unpatched merit, for the full-merit reruns.
    TRIAL_MERIT = staticmethod(sqp._trial_merit)

    @staticmethod
    def circle_problem(calls: list) -> NlpProblem:
        """min x0 + 0.1 x1^2 on the unit circle, with two inactive rows
        whose evaluation points ``calls`` records."""
        def inequalities(x):
            calls.append(x.tobytes())
            return np.array([x[1] + 2.0, 3.0 - x[0]])

        return NlpProblem(
            dim=2, cost=lambda x: float(x[0] + 0.1 * x[1] ** 2),
            cost_grad=lambda x: np.array([1.0, 0.2 * x[1]]),
            equalities=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
            equality_jac=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
            inequalities=inequalities,
            inequality_jac=lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @classmethod
    def bowl_problem(cls, calls: list) -> NlpProblem:
        """min |x - (1, 2)|^2 with two inactive rows whose evaluation points
        ``calls`` records.  From the origin with the Hessian 2 I the first
        step lands on the minimizer; a Hessian scaled up shortens the
        steps."""
        def inequalities(x):
            calls.append(x.tobytes())
            return np.array([10.0 - x[0] - x[1], x[0] + 5.0])

        return NlpProblem(
            dim=2, cost=lambda x: float((x - cls.BOWL_MIN) @ (x - cls.BOWL_MIN)),
            cost_grad=lambda x: 2.0 * (x - cls.BOWL_MIN),
            inequalities=inequalities,
            inequality_jac=lambda x: np.array([[-1.0, -1.0], [1.0, 0.0]]))

    @staticmethod
    def spy_trials(monkeypatch, calls: list) -> list:
        """Record every line-search trial from now on: its point, its
        threshold, its returned merit, whether its bound exceeded the
        threshold and whether the inequalities ran."""
        trials = []
        real = sqp._trial_merit

        def spy(problem, mu, x, threshold=math.inf):
            before = len(calls)
            merit = real(problem, mu, x, threshold)
            bound = float(problem.cost(x)) + mu * float(
                np.abs(problem.equalities(x)).sum())
            trials.append((x.tobytes(), threshold, merit,
                           bool(bound > threshold), len(calls) > before))
            return merit

        monkeypatch.setattr(sqp, "_trial_merit", spy)
        return trials

    @classmethod
    def assert_full_merit_agrees(cls, monkeypatch, make_problem, result,
                                 *args, **kwargs) -> list:
        """Rerun with the full merit at every trial (the threshold ignored):
        it must decide the same run.  Returns its inequality calls."""
        monkeypatch.setattr(sqp, "_trial_merit",
                            lambda problem, mu, x, threshold=math.inf:
                            cls.TRIAL_MERIT(problem, mu, x))
        calls = []
        full = solve_sqp(make_problem(calls), *args, **kwargs)
        assert full.x.tobytes() == result.x.tobytes()
        assert (full.status, full.iterations) == (result.status,
                                                  result.iterations)
        assert full.merit_history == result.merit_history
        return calls

    def test_trial_above_its_threshold_runs_no_inequalities(self, monkeypatch):
        calls = []
        result = solve_sqp(self.circle_problem(calls), self.X0,
                           SolverSettings())
        assert (result.status, result.iterations) == ("converged", 11)
        # 52 when every trial runs the inequalities (below).
        assert len(calls) == 35

        # 17 trials, expansions among them, are rejected on the bound, and
        # none of them calls the inequalities.
        trials = self.spy_trials(monkeypatch, calls)
        spied = solve_sqp(self.circle_problem(calls), self.X0,
                          SolverSettings())
        assert spied.x.tobytes() == result.x.tobytes()
        assert Counter(t[3:] for t in trials) == {(False, True): 17,
                                                  (True, False): 17}

        full_calls = self.assert_full_merit_agrees(
            monkeypatch, self.circle_problem, result, self.X0,
            SolverSettings())
        assert len(full_calls) == 52

    def test_expansion_above_the_bound_runs_no_inequalities(self,
                                                            monkeypatch):
        # The full step lands on the minimizer, so the expansion, at twice
        # the step, has a cost above the accepted trial's merit: it stops
        # at the bound, and the inequalities never see its point.
        calls = []
        trials = self.spy_trials(monkeypatch, calls)
        args = (np.zeros(2), SolverSettings())
        result = solve_sqp(self.bowl_problem(calls), *args,
                           initial_hessian=2.0 * np.eye(2))
        assert (result.status, result.iterations) == ("converged", 1)
        (step, _, merit, _, _), expansion = trials
        assert step == self.BOWL_MIN.tobytes() and merit == 0.0
        assert expansion[1:] == (0.0, math.inf, True, False)
        assert expansion[0] not in calls

        full_calls = self.assert_full_merit_agrees(
            monkeypatch, self.bowl_problem, result, *args,
            initial_hessian=2.0 * np.eye(2))
        assert expansion[0] in full_calls
        assert len(full_calls) == len(calls) + 1

    def test_improving_expansions_all_pass_the_bound(self, monkeypatch):
        # A Hessian 100 times too large shrinks each step, and the line
        # search doubles it back while the merit strictly improves: 7, 4
        # and 2 times in the three iterations.  Each expansion's threshold
        # is the merit it must beat, so the bound blocks none of them.
        calls = []
        trials = self.spy_trials(monkeypatch, calls)
        args = (np.zeros(2), SolverSettings())
        result = solve_sqp(self.bowl_problem(calls), *args,
                           initial_hessian=200.0 * np.eye(2))
        assert (result.status, result.iterations) == ("converged", 3)
        # Each iteration tries the full step, its 7, 4 and 2 doublings and
        # one expansion more, and accepts its last doubling.
        assert len(trials) == 3 + 13 + 3
        assert [merit for _, _, merit in result.merit_history] \
            == [trials[i][2] for i in (7, 13, 17)]

        self.assert_full_merit_agrees(monkeypatch, self.bowl_problem, result,
                                      *args, initial_hessian=200.0 * np.eye(2))

    def test_bound_is_at_most_the_merit(self, rng):
        # Bit for bit, over magnitudes where the inequality term is lost in
        # the rounding of the sum, and with NaN, inf and -inf rows.  At any
        # threshold the trial is accepted exactly when its merit is, with
        # that merit's value.
        x = np.zeros(1)
        for _ in range(3000):
            f = float(rng.normal() * 10.0 ** rng.integers(-3, 9))
            mu = float(10.0 ** rng.uniform(0.0, 15.0))
            ce = rng.normal(size=2) * 10.0 ** rng.integers(-16, 3, size=2)
            ci = rng.normal(size=3) * 10.0 ** rng.integers(-24, 3, size=3)
            if rng.random() < 0.3:
                ci[rng.integers(3)] = rng.choice([np.nan, np.inf, -np.inf])
            problem = NlpProblem(dim=1, cost=lambda x, f=f: f,
                                 cost_grad=lambda x: np.zeros(1),
                                 equalities=lambda x, ce=ce: ce,
                                 inequalities=lambda x, ci=ci: ci)
            merit = sqp._trial_merit(problem, mu, x)
            bound = f + mu * float(np.abs(ce).sum())
            assert bound <= merit
            for threshold in (merit, bound, np.nextafter(bound, -np.inf),
                              np.nextafter(merit, -np.inf)):
                trial = sqp._trial_merit(problem, mu, x, float(threshold))
                assert (trial <= threshold) == (merit <= threshold)
                if trial <= threshold:
                    assert trial == merit


class TestNlpProblem:
    def test_omitted_constraint_sets_are_empty(self):
        problem = quadratic_problem([0.3, -1.2, 2.0])
        x = np.zeros(3)
        for rows, jac in (("equalities", "equality_jac"),
                          ("inequalities", "inequality_jac")):
            values, jacobian = getattr(problem, rows)(x), getattr(problem, jac)(x)
            assert (values.shape, values.dtype) == ((0,), np.float64)
            assert (jacobian.shape, jacobian.dtype) == ((0, 3), np.float64)


class TestSolverSettings:
    @pytest.mark.parametrize("field, value", [
        ("tol_kkt", float("nan")), ("tol_con", 0.0), ("max_iterations", 0),
        ("slack_max", 0.0), ("slack_max", float("nan")),
        ("tol_kkt", float("inf")), ("tol_con", float("inf")),
        ("slack_max", float("inf")),
    ])
    def test_invalid_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverSettings(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("tol_kkt", True, "tol_kkt must be a number, got True"),
        ("tol_con", True, "tol_con must be a number, got True"),
        ("slack_max", False, "slack_max must be a number, got False"),
        ("tol_kkt", "1e-6", "tol_kkt must be a number, got '1e-6'"),
        ("max_iterations", True, "max_iterations must be an integer, got True"),
        ("max_iterations", 2.5, "max_iterations must be an integer, got 2.5"),
        ("max_iterations", 200.0, "max_iterations must be an integer, got 200.0"),
    ])
    def test_wrong_type_rejected_by_name(self, field, value, message):
        # To Python True is an int above 0, and 2.5 would reach range() in
        # solve_sqp as an untyped TypeError.
        with pytest.raises(ValueError, match=re.escape(message)):
            SolverSettings(**{field: value})

    def test_numpy_scalars_accepted(self):
        settings = SolverSettings(tol_kkt=np.float64(1e-6),
                                  max_iterations=np.int64(5))
        result = solve_sqp(quadratic_problem([0.3, -1.2]), np.zeros(2), settings)
        assert result.converged


class TestSolveQp:
    def test_inequality_activates(self):
        sol = solve_qp(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0),
                       np.array([[1.0, 1.0]]), np.array([1.0]))
        np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-9)
        # stationarity: H x = lam * a with H = I at (0.5, 0.5)
        assert sol.lam_in[0] == pytest.approx(0.5, abs=1e-8)
        assert sol.elastic == pytest.approx(0.0, abs=1e-9)

    def test_inactive_constraint_ignored(self):
        sol = solve_qp(np.eye(2), np.array([2.0, 0.0]), np.zeros((0, 2)),
                       np.zeros(0), np.array([[1.0, 0.0]]), np.array([-10.0]))
        np.testing.assert_allclose(sol.x, [-2.0, 0.0], atol=1e-9)
        assert sol.lam_in[0] == 0.0

    def test_equalities_only(self):
        sol = solve_qp(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]),
                       np.array([2.0]), np.zeros((0, 2)), np.zeros(0))
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-10)

    def test_contradictory_rows_absorbed_by_elastic(self):
        sol = solve_qp(np.eye(1), np.zeros(1), np.zeros((0, 1)), np.zeros(0),
                       np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        assert sol.elastic >= 0.9  # genuinely infeasible by 1

    def test_active_set_iterations_counted(self):
        # Each pass of the working-set loop counts; without inequality rows
        # there is no such loop.
        sol = solve_qp(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0),
                       np.array([[1.0, 1.0]]), np.array([1.0]))
        assert sol.iterations == 2
        sol = solve_qp(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]),
                       np.array([2.0]), np.zeros((0, 2)), np.zeros(0))
        assert sol.iterations == 0

    @pytest.mark.parametrize("bound, enters", [
        (-1.0, 0), (-(1.0 - 1e-15), 0), (-(1.0 - 1e-6), 1)],
        ids=["tie", "within-1e-15", "earlier"])
    def test_ratio_test_keeps_the_first_blocking_row(self, bound, enters):
        # From x = 0 the step toward the minimizer (2, 0) meets two rows
        # x0 <= 1 and x0 <= -bound.  The row that enters the working set
        # holds the only multiplier: on a tie the lower index, and a later
        # row replaces it only when it blocks more than 1e-15 earlier.
        sol = solve_qp(np.eye(2), np.array([-2.0, 0.0]), np.zeros((0, 2)),
                       np.zeros(0), np.array([[-1.0, 0.0], [-1.0, 0.0]]),
                       np.array([-1.0, bound]))
        assert sol.x[0] == (1.0, -bound)[enters]
        assert sol.lam_in[enters] > 0.9
        assert sol.lam_in[1 - enters] == 0.0

    def test_inconsistent_equalities_raise(self):
        with pytest.raises(InfeasibleStepError):
            solve_qp(np.eye(1), np.zeros(1),
                     np.array([[1.0], [1.0]]), np.array([0.0, 1.0]),
                     np.zeros((0, 1)), np.zeros(0))

    def test_inconsistent_equalities_raise_beside_inequality_rows(self):
        # The elastic path's own check of the equality start.
        with pytest.raises(InfeasibleStepError,
                           match="inconsistent equality constraints in QP"):
            solve_qp(np.eye(2), np.zeros(2),
                     np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0]),
                     np.array([[0.0, 1.0]]), np.array([-1.0]))

    @staticmethod
    def thin_band():
        """A seeded QP whose two inequality rows a x >= b and -a x >= -b - 1e-7
        leave a band 1e-7 wide, and whose gradient pushes x out of it."""
        rng = np.random.default_rng(25)
        a = rng.standard_normal((3, 3))
        hess = a @ a.T + 1e-3 * np.eye(3)
        grad = 100.0 * rng.standard_normal(3)
        row, bound = rng.standard_normal(3), rng.standard_normal()
        return (hess, grad, np.zeros((0, 3)), np.zeros(0),
                np.array([row, -row]), np.array([bound, -bound - 1e-7]))

    def test_thin_band_keeps_the_elastic_solution(self, monkeypatch):
        # The polish's active set holds both rows, which no x meets with
        # equality, so it returns the elastic phase's solution.  Its x meets
        # both rows, and the net multiplier on a x = b is the equality QP's.
        hess, grad, a_eq, b_eq, a_in, b_in = self.thin_band()
        polishes = []
        equality_qp = sqp._equality_qp

        def spy(*args):
            polishes.append(equality_qp(*args))
            return polishes[-1]

        monkeypatch.setattr(sqp, "_equality_qp", spy)
        sol = solve_qp(hess, grad, a_eq, b_eq, a_in, b_in, elastic_weight=1e4)
        assert polishes == [None]
        assert np.all(a_in @ sol.x - b_in >= 0.0)
        kkt = np.block([[hess, -a_in[:1].T], [a_in[:1], np.zeros((1, 1))]])
        lam = np.linalg.solve(kkt, np.append(-grad, b_in[0]))[-1]
        assert lam == pytest.approx(200.42, abs=5e-3)
        assert sol.lam_in[0] - sol.lam_in[1] == pytest.approx(lam, rel=1e-8)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 6: on the thin band the elastic QP returns elastic "
        "-5.0e-8, breaking its own t >= 0 row, and multipliers of about 9.7e5 "
        "on both rows, although only a x >= b can be active"))
    def test_thin_band_elastic_is_a_kkt_point(self):
        sol = solve_qp(*self.thin_band(), elastic_weight=1e4)
        assert sol.elastic >= 0.0
        assert min(sol.lam_in) == 0.0

    @pytest.mark.parametrize("index, value, name", [
        (1, np.nan, "gradient"), (0, np.inf, "Hessian"),
        (2, np.inf, "equality matrix"), (3, -np.inf, "equality bound"),
        (4, np.nan, "inequality matrix"), (5, np.nan, "inequality bound"),
        (6, np.inf, "elastic weight"),
        # Two at once: the message names the first in the check's order.
        pytest.param((6, 3), np.nan, "equality bound",
                     id="6+3-nan-equality bound"),
        pytest.param((5, 0), np.inf, "Hessian", id="5+0-inf-Hessian")])
    def test_non_finite_input_raises_before_lapack(self, index, value, name,
                                                    monkeypatch):
        # Without the check a NaN gradient ran the whole active-set loop
        # into its iteration limit, and an inf Hessian warned in the
        # normalization.
        args = [np.eye(2), np.array([1.0, -1.0]), np.array([[1.0, 1.0]]),
                np.array([1.0]), np.array([[1.0, 0.0]]), np.array([0.2]), 1e4]
        for one in index if isinstance(index, tuple) else (index,):
            if one == 6:
                args[6] = value
            else:
                args[one] = args[one].copy()
                args[one].flat[0] = value

        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on non-finite data")

        for routine in ("lstsq", "eigvalsh"):
            monkeypatch.setattr(_lapack, routine, lapack)
        with pytest.raises(InfeasibleStepError,
                           match=f"^non-finite {name} in QP$"):
            solve_qp(*args)


class TestFiniteDifference:
    def test_linear_map_exact(self):
        matrix = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.0]])
        jac = finite_difference_jacobian(lambda x: matrix @ x,
                                         np.array([0.3, -0.7]))
        np.testing.assert_allclose(jac, matrix, atol=1e-9)
