from dataclasses import replace

import numpy as np
import pytest

from contactplan import planner as pl
from contactplan.errors import (InfeasibleStepError, PlanStepError,
                                ReachabilityError)
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
        chain = pl._zmp_chain(ctx, ctx.arms_at(), decision.gamma)
        problem = replace(
            pl.problem_for_waypoint(config, object_position(config, theta)),
            zmp_target=chain["zmp"])
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


class TestStepNlp:
    FIELDS = ("cost", "cost_grad", "equalities", "equality_jac",
              "inequalities", "inequality_jac")

    def test_one_evaluation_per_point(self, default_config, monkeypatch):
        theta = initial_joint_angles(default_config)
        ctx = pl.build_context(default_config, theta)
        problem = pl.problem_for_waypoint(default_config,
                                          default_config.waypoints()[1])
        nlp = pl.build_step_nlp(problem, ctx)
        chains = []
        real = pl._zmp_chain

        def counted(*args):
            chains.append(args)
            return real(*args)

        monkeypatch.setattr(pl, "_zmp_chain", counted)
        x = np.zeros(pl.DECISION_DIM)
        first = {name: getattr(nlp, name)(x) for name in self.FIELDS}
        assert len(chains) == 1
        x_next = x.copy()
        x_next[0] = 1e-3
        for name in self.FIELDS:
            getattr(nlp, name)(x_next)
        assert len(chains) == 2
        expected = evaluate_nlp(problem, ctx, x)
        for name in self.FIELDS:
            np.testing.assert_array_equal(first[name], expected[name])
            if isinstance(first[name], np.ndarray):
                assert not first[name].flags.writeable
                with pytest.raises(ValueError):
                    first[name][0] = 1.0


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
