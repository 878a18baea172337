from dataclasses import replace

import numpy as np
import pytest

from contactplan import planner as pl
from contactplan.errors import (InfeasibleStepError, PlanStepError,
                                ReachabilityError, UnbalancedStateError)
from contactplan.kinematics import end_effector
from contactplan.planner import (PlanDecision, evaluate_nlp, gradient_check,
                                 initial_joint_angles, plan_path,
                                 plan_waypoint, relative_error)
from contactplan.scenario import _DEFAULTS, _from_dict, _merge


def light_config():
    """Variant with no load wrench: the start state is feasible at rest."""
    return _from_dict(_merge(_DEFAULTS, {
        "task": {"object_wrench": [0.0] * 6}}))


def object_position(config, theta):
    arms = (config.arm(0, theta[:4]), config.arm(1, theta[4:]))
    return 0.5 * (end_effector(arms[0]) + end_effector(arms[1]))


class TestInitialPose:
    def test_hands_on_grasp_points(self, default_config):
        theta = initial_joint_angles(default_config)
        grasps = default_config.grasp_points(default_config.initial_center)
        arms = (default_config.arm(0, theta[:4]),
                default_config.arm(1, theta[4:]))
        np.testing.assert_allclose(end_effector(arms[0]), grasps[0], atol=1e-8)
        np.testing.assert_allclose(end_effector(arms[1]), grasps[1], atol=1e-8)

    def test_contact_links_rest_on_ports(self, default_config):
        from contactplan.contact import evaluate_gaps
        theta = initial_joint_angles(default_config)
        ctx = pl.build_context(default_config, theta)
        states = evaluate_gaps(ctx.arms_at(), ctx.candidates)
        for state in states:
            assert abs(state.gap) <= 1e-8

    def test_unreachable_initial_center(self, default_config):
        config = replace(default_config,
                         initial_center=np.array([0.0, 2.5]))
        with pytest.raises(ReachabilityError):
            initial_joint_angles(config)


class TestCost:
    def test_zero_at_target(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.build_context(config, theta)
        problem = pl.problem_for_waypoint(config, object_position(config, theta))
        cost = evaluate_nlp(problem, ctx, PlanDecision.zeros().to_vector())["cost"]
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_position_error_term(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.build_context(config, theta)
        target = object_position(config, theta) + np.array([0.1, 0.0])
        problem = pl.problem_for_waypoint(config, target)
        cost = evaluate_nlp(problem, ctx, PlanDecision.zeros().to_vector())["cost"]
        assert cost == pytest.approx(10.0, abs=1e-9)  # 1e3 * 0.1^2

    def test_slack_term(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.build_context(config, theta)
        problem = pl.problem_for_waypoint(config, object_position(config, theta))
        decision = PlanDecision(dtheta=np.zeros(8), gamma=np.zeros(2),
                                slack=1e-4)
        cost = evaluate_nlp(problem, ctx, decision.to_vector())["cost"]
        assert cost == pytest.approx(100.0, abs=1e-9)  # 1e6 * 1e-4


class TestConstraints:
    def test_feasible_rest_state(self):
        config = light_config()
        theta = initial_joint_angles(config)
        ctx = pl.build_context(config, theta)
        problem = pl.problem_for_waypoint(config, object_position(config, theta))
        values = evaluate_nlp(problem, ctx, PlanDecision.zeros().to_vector())
        np.testing.assert_allclose(values["equalities"], 0.0, atol=1e-9)
        assert np.all(values["inequalities"] >= -1e-9)

    def test_negative_gamma_flags_its_row(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.build_context(config, theta)
        problem = pl.problem_for_waypoint(config, object_position(config, theta))
        decision = PlanDecision(dtheta=np.zeros(8),
                                gamma=np.array([-1.0, 0.0]), slack=0.0)
        values = evaluate_nlp(problem, ctx, decision.to_vector())
        assert values["inequalities"][0] < 0.0
        assert values["inequalities"][1] >= 0.0

    def test_safe_circle_row_equals_radius_at_target(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.build_context(config, theta)
        decision = PlanDecision.zeros()
        chain = pl._chain_values(ctx, decision.to_vector())
        problem = replace(
            pl.problem_for_waypoint(config, object_position(config, theta)),
            zmp_target=chain["zmp_result"].zmp)
        values = evaluate_nlp(problem, ctx, decision.to_vector())
        assert values["inequalities"][4] == pytest.approx(config.safe_radius,
                                                          abs=1e-9)

    def test_inequality_row_count_and_order(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.build_context(config, theta)
        problem = pl.problem_for_waypoint(config, object_position(config, theta))
        decision = PlanDecision(dtheta=np.zeros(8),
                                gamma=np.array([2.0, 3.0]), slack=0.5)
        rows = evaluate_nlp(problem, ctx, decision.to_vector())["inequalities"]
        assert rows.shape == (8,)
        assert rows[0] == pytest.approx(2.0)   # gamma_1
        assert rows[1] == pytest.approx(3.0)   # gamma_2
        assert rows[2] == pytest.approx(0.5)   # slack
        # complementarity: s - gamma . phi with both gaps ~0 at the start
        assert rows[3] == pytest.approx(0.5, abs=1e-6)


class TestGradientCheck:
    def test_full_problem_matches_finite_differences(self, default_config, rng):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.build_context(config, theta)
        problem = pl.problem_for_waypoint(config, config.waypoints()[1])
        worst = 0.0
        for _ in range(10):
            decision = PlanDecision(
                dtheta=rng.normal(scale=0.02, size=8),
                gamma=rng.uniform(0.0, 30.0, size=2),
                slack=float(rng.uniform(0.0, 1e-4)))
            worst = max(worst, gradient_check(problem, ctx, decision))
        assert worst <= 1e-5

    def test_corrupted_jacobian_detected(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.build_context(config, theta)
        problem = pl.problem_for_waypoint(config, config.waypoints()[1])
        decision = PlanDecision.zeros()
        x = decision.to_vector()
        analytic = evaluate_nlp(problem, ctx, x)["inequality_jac"]
        from contactplan.sqp import finite_difference_jacobian
        numeric = finite_difference_jacobian(
            lambda v: evaluate_nlp(problem, ctx, v)["inequalities"], x, 1e-6)
        corrupted = analytic.copy()
        corrupted[4, 0] += 1.0
        assert relative_error(analytic, numeric) <= 1e-5
        assert relative_error(corrupted, numeric) > 1e-2


def count_passes(monkeypatch):
    """Count the ZMP chain's value and derivative passes from now on."""
    passes = {"values": 0, "derivatives": 0}
    for name, key in (("_chain_values", "values"),
                      ("_chain_derivatives", "derivatives")):
        def counted(*args, real=getattr(pl, name), key=key):
            passes[key] += 1
            return real(*args)
        monkeypatch.setattr(pl, name, counted)
    return passes


class TestStepNlp:
    FIELDS = ("cost", "cost_grad", "equalities", "equality_jac",
              "inequalities", "inequality_jac")
    VALUE_FIELDS = ("cost", "equalities", "inequalities")

    @pytest.fixture()
    def setup(self, default_config):
        theta = initial_joint_angles(default_config)
        ctx = pl.build_context(default_config, theta)
        problem = pl.problem_for_waypoint(default_config,
                                          default_config.waypoints()[1])
        return problem, ctx

    @staticmethod
    def nearby(x, offset):
        x_next = x.copy()
        x_next[0] += offset
        return x_next

    def test_one_evaluation_per_point(self, setup, monkeypatch):
        problem, ctx = setup
        nlp = pl.build_step_nlp(problem, ctx)
        passes = count_passes(monkeypatch)
        x = np.zeros(pl.DECISION_DIM)
        first = {name: getattr(nlp, name)(x) for name in self.FIELDS}
        assert passes == {"values": 1, "derivatives": 1}
        for name in self.FIELDS:
            getattr(nlp, name)(self.nearby(x, 1e-3))
        assert passes == {"values": 2, "derivatives": 2}
        expected = evaluate_nlp(problem, ctx, x)
        for name in self.FIELDS:
            np.testing.assert_array_equal(first[name], expected[name])
            if isinstance(first[name], np.ndarray):
                assert not first[name].flags.writeable
                with pytest.raises(ValueError):
                    first[name][0] = 1.0

    def test_value_fields_run_no_derivative_pass(self, setup, monkeypatch):
        problem, ctx = setup
        nlp = pl.build_step_nlp(problem, ctx)
        passes = count_passes(monkeypatch)
        x = self.nearby(np.zeros(pl.DECISION_DIM), 2e-3)
        values = {name: getattr(nlp, name)(x) for name in self.VALUE_FIELDS}
        assert passes == {"values": 1, "derivatives": 0}
        expected = evaluate_nlp(problem, ctx, x)
        for name in self.VALUE_FIELDS:
            np.testing.assert_array_equal(values[name], expected[name])

    def test_jacobians_after_a_later_trial_reuse_the_value_pass(self, setup,
                                                                monkeypatch):
        # The line search's expansion loop: values at x, then at x2, then
        # the Jacobians at the accepted x.
        problem, ctx = setup
        nlp = pl.build_step_nlp(problem, ctx)
        passes = count_passes(monkeypatch)
        x = np.zeros(pl.DECISION_DIM)
        x2 = self.nearby(x, 1e-3)
        for point in (x, x2):
            for name in self.VALUE_FIELDS:
                getattr(nlp, name)(point)
        jacobians = {name: getattr(nlp, name)(x)
                     for name in ("cost_grad", "equality_jac", "inequality_jac")}
        assert passes == {"values": 2, "derivatives": 1}
        expected = evaluate_nlp(problem, ctx, x)
        for name, value in jacobians.items():
            np.testing.assert_array_equal(value, expected[name])

    def test_memo_holds_at_most_two_points(self, setup):
        problem, ctx = setup
        nlp = pl.build_step_nlp(problem, ctx)
        points = [self.nearby(np.zeros(pl.DECISION_DIM), k * 1e-3)
                  for k in range(5)]
        for count, x in enumerate(points, start=1):
            nlp.cost(x)
            nlp.cost_grad(x)
            assert len(ctx.memo) == min(count, 2)
        assert list(ctx.memo) == [x.tobytes() for x in points[-2:]]

    def test_raising_evaluation_caches_nothing(self, setup, monkeypatch):
        problem, ctx = setup
        nlp = pl.build_step_nlp(problem, ctx)

        def unbalanced(*args):
            raise UnbalancedStateError("test")

        monkeypatch.setattr(pl.st, "compute_zmp", unbalanced)
        with pytest.raises(UnbalancedStateError):
            nlp.cost(np.zeros(pl.DECISION_DIM))
        assert ctx.memo == {}

    def test_later_stages_reuse_the_last_chain(self, default_config, monkeypatch):
        # Stages 2 and 3 start where stage 1 ended; their seed Hessian and
        # first iterate, and the post-solve observables, hit the memo.
        theta = initial_joint_angles(default_config)
        ctx = pl.build_context(default_config, theta)
        problem = pl.problem_for_waypoint(default_config,
                                          default_config.waypoints()[1])
        settings = default_config.solver
        weights = []
        stage_passes = []
        passes = count_passes(monkeypatch)
        real_solve = pl.solve_sqp

        def solve(nlp, x0, settings, initial_hessian=None):
            before = dict(passes)
            result = real_solve(nlp, x0, settings, initial_hessian=initial_hessian)
            # The slack entry of the cost gradient is the stage's weight.
            weights.append(nlp.cost_grad(result.x)[-1])
            stage_passes.append({k: passes[k] - before[k] for k in passes})
            return result

        monkeypatch.setattr(pl, "solve_sqp", solve)
        decision = pl.solve_step(problem, ctx, settings)
        assert weights == [1e2, 1e4, 1e6]
        assert stage_passes[0]["values"] > 0
        assert stage_passes[1:] == [{"values": 0, "derivatives": 0}] * 2
        assert decision.converged


class TestPlanWaypoint:
    def test_stationary_waypoint_keeps_configuration(self):
        config = light_config()
        theta = initial_joint_angles(config)
        ctx = pl.build_context(config, theta)
        step = plan_waypoint(ctx, object_position(config, theta), config.solver)
        assert np.linalg.norm(step.decision.dtheta) <= 1e-4
        assert step.decision.converged

    def test_rejected_step_carries_diagnostics(self, default_config):
        # A one-iteration budget cannot converge a real step.
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.build_context(config, theta)
        waypoint = config.initial_center + np.array([0.0, 0.1])
        solver = replace(config.solver, max_iterations=1)
        with pytest.raises(PlanStepError) as excinfo:
            plan_waypoint(ctx, waypoint, solver)
        assert excinfo.value.diagnostics["failures"]


class TestPlanPath:
    def test_default_run_properties(self, default_config, planned_steps):
        config = default_config
        waypoints = config.waypoints()
        assert len(planned_steps) == 9
        spacing = np.diff(waypoints, axis=0)
        np.testing.assert_allclose(np.linalg.norm(spacing, axis=1), 0.05,
                                   atol=1e-12)
        theta = initial_joint_angles(config)
        for step in planned_steps:
            np.testing.assert_allclose(step.theta_after,
                                       theta + step.decision.dtheta, atol=1e-12)
            theta = step.theta_after

    def test_default_plan_work_counts(self, default_config, planned_steps,
                                      monkeypatch):
        # Pinned so that a caching regression fails loudly: 113 distinct
        # solver points over 29 continuation stages plus 6 waypoints whose
        # clamped decision is a new point (one value pass each); derivatives
        # at each stage-1 start and each accepted iterate (9 + 52).  The FK
        # count adds the start pose, context building and contact gaps.
        passes = count_passes(monkeypatch)
        fk_calls = []
        real_fk = pl.kin.forward_kinematics

        def counted_fk(arm):
            fk_calls.append(arm)
            return real_fk(arm)

        monkeypatch.setattr(pl.kin, "forward_kinematics", counted_fk)
        steps = plan_path(default_config)
        for step, expected in zip(steps, planned_steps):
            np.testing.assert_array_equal(step.decision.to_vector(),
                                          expected.decision.to_vector())
        assert (len(fk_calls), passes["values"], passes["derivatives"]) == \
            (432, 119, 61)

    def test_zero_length_path(self):
        config = _from_dict(_merge(_DEFAULTS, {
            "task": {"waypoint_count": 1, "object_wrench": [0.0] * 6}}))
        steps = plan_path(config)
        assert len(steps) == 1
        assert np.linalg.norm(steps[0].decision.dtheta) <= 1e-4

    def test_unreachable_waypoint_names_index(self, default_config):
        config = replace(default_config, path_length=1.2)
        with pytest.raises(ReachabilityError) as excinfo:
            plan_path(config)
        assert excinfo.value.waypoint_index is not None
        assert excinfo.value.waypoint_index > 0

    def test_failure_keeps_partial_trace(self, default_config):
        solver = replace(default_config.solver, max_iterations=1)
        config = replace(default_config, solver=solver)
        with pytest.raises(PlanStepError) as excinfo:
            plan_path(config)
        assert excinfo.value.waypoint_index == 0
        assert excinfo.value.partial_steps == []

    def test_solver_failure_is_typed_with_index(self, default_config,
                                                monkeypatch):
        def infeasible(*args, **kwargs):
            raise InfeasibleStepError("active-set QP iteration limit reached")

        monkeypatch.setattr(pl, "solve_sqp", infeasible)
        with pytest.raises(PlanStepError) as excinfo:
            plan_path(default_config, theta0=np.zeros(pl.NUM_JOINTS))
        assert excinfo.value.waypoint_index == 0
        assert excinfo.value.partial_steps == []
        assert isinstance(excinfo.value.__cause__, InfeasibleStepError)
        assert "iteration limit" in str(excinfo.value)
        # The failing stage is the first of the continuation.
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["waypoint"] == default_config.waypoints()[0].tolist()
        assert diagnostics["slack_weight"] == 1e2
        assert diagnostics["stage_iterations"] == []

    def test_late_stage_failure_reports_completed_stages(self, default_config,
                                                         monkeypatch):
        theta0 = initial_joint_angles(default_config)
        real = pl.solve_sqp
        calls = []

        def fail_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise InfeasibleStepError("QP subproblem infeasible")
            return real(*args, **kwargs)

        monkeypatch.setattr(pl, "solve_sqp", fail_third)
        with pytest.raises(PlanStepError) as excinfo:
            plan_path(default_config, theta0=theta0)
        assert excinfo.value.waypoint_index == 0
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["slack_weight"] == default_config.weight_slack
        assert len(diagnostics["stage_iterations"]) == 2

    def test_deterministic(self, default_config, planned_steps):
        again = plan_path(default_config)
        for a, b in zip(planned_steps, again):
            assert np.array_equal(a.theta_after, b.theta_after)
            assert np.array_equal(a.decision.gamma, b.decision.gamma)
            assert a.decision.slack == b.decision.slack

    def test_support_force_scale_rescales_magnitudes(self, default_config,
                                                     planned_steps):
        # Halving the per-unit force doubles the magnitudes that realize the
        # same balance.
        config = replace(default_config, support_force_scale=0.5)
        steps = plan_path(config)
        reference = max(float(s.decision.gamma.max()) for s in planned_steps)
        rescaled = max(float(s.decision.gamma.max()) for s in steps)
        assert rescaled == pytest.approx(2.0 * reference, rel=0.05)
