from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contactplan import planner as pl
from contactplan import scenario
from contactplan.errors import (ContactPlanError, InfeasibleStepError,
                                PlanStepError, ScenarioError,
                                UnbalancedStateError)
from contactplan.planner import (PlanDecision, evaluate_nlp, gradient_check,
                                 initial_joint_angles, plan_path,
                                 plan_waypoint, relative_error)
from contactplan.scenario import _DEFAULTS, default_scenario

from test_scenario import SHORT_LINKS


def light_config():
    """Variant with no load wrench: the start state is feasible at rest."""
    return default_scenario({"task": {"object_wrench": [0.0] * 6}})


def object_position(config, theta):
    points = config.joint_points(theta)
    return 0.5 * (points[0][-1] + points[1][-1])


class TestInitialPose:
    def test_hands_on_grasp_points(self, default_config):
        theta = initial_joint_angles(default_config)
        grasps = default_config.grasp_points(default_config.initial_center)
        points = default_config.joint_points(theta)
        np.testing.assert_allclose(points[0][-1], grasps[0], atol=1e-8)
        np.testing.assert_allclose(points[1][-1], grasps[1], atol=1e-8)

    def test_contact_links_rest_on_ports(self, default_config):
        theta = initial_joint_angles(default_config)
        ctx = pl.StepContext(default_config, theta, default_config.initial_center)
        points = default_config.joint_points(theta)
        assert ctx.edges.shape == (2, 2)
        for arm_points, edge in zip(points, ctx.edges):
            res = pl.ct.edge_gap(arm_points, default_config.contact_link_index,
                                 default_config.link_radius, edge)
            assert abs(res.gap) <= 1e-8

    def test_settle_asks_one_jacobian_per_pose(self, default_config,
                                               monkeypatch):
        # The settle's SQP asks for the Jacobian at its start pose and at
        # each accepted pose; each accepted pose's Jacobian, asked for by
        # the BFGS update, is carried into the next iteration.
        poses = []
        real = pl._gap_gradients

        def counted(points, link, edge, res):
            poses.append(points.tobytes())
            return real(points, link, edge, res)

        monkeypatch.setattr(pl, "_gap_gradients", counted)
        initial_joint_angles(default_config)
        assert poses
        assert len(poses) == len(set(poses))

    def test_unreachable_initial_center(self, default_config):
        # The config cannot be built, so no start pose is ever asked for.
        with pytest.raises(ScenarioError, match="waypoint 0 "):
            replace(default_config, initial_center=np.array([0.0, 2.5]))


class TestCost:
    def test_zero_at_target(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.StepContext(config, theta, object_position(config, theta))
        cost = evaluate_nlp(ctx, np.zeros(pl.DECISION_DIM))["cost"]
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_position_error_term(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        waypoint = object_position(config, theta) + np.array([0.1, 0.0])
        ctx = pl.StepContext(config, theta, waypoint)
        cost = evaluate_nlp(ctx, np.zeros(pl.DECISION_DIM))["cost"]
        assert cost == pytest.approx(10.0, abs=1e-9)  # 1e3 * 0.1^2

    def test_slack_term(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.StepContext(config, theta, object_position(config, theta))
        decision = PlanDecision(dtheta=np.zeros(8), gamma=np.zeros(2),
                                slack=1e-4)
        cost = evaluate_nlp(ctx, decision.to_vector())["cost"]
        assert cost == pytest.approx(100.0, abs=1e-9)  # 1e6 * 1e-4


class TestConstraints:
    def test_feasible_rest_state(self):
        config = light_config()
        theta = initial_joint_angles(config)
        ctx = pl.StepContext(config, theta, object_position(config, theta))
        values = evaluate_nlp(ctx, np.zeros(pl.DECISION_DIM))
        np.testing.assert_allclose(values["equalities"], 0.0, atol=1e-9)
        assert np.all(values["inequalities"] >= -1e-9)

    def test_negative_gamma_flags_its_row(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.StepContext(config, theta, object_position(config, theta))
        decision = PlanDecision(dtheta=np.zeros(8),
                                gamma=np.array([-1.0, 0.0]), slack=0.0)
        values = evaluate_nlp(ctx, decision.to_vector())
        assert values["inequalities"][0] < 0.0
        assert values["inequalities"][1] >= 0.0

    def test_safe_circle_row_equals_radius_at_target(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        waypoint = object_position(config, theta)
        ctx = pl.StepContext(config, theta, waypoint)
        x = np.zeros(pl.DECISION_DIM)
        chain = pl._chain_values(ctx, x)
        # The polygon widens with the moved centre so the safe circle still
        # fits, as every config requires.
        ctx = pl.StepContext(replace(config, sp_center=chain["zmp_result"].zmp,
                                     sp_polygon=4.0 * config.sp_polygon),
                             theta, waypoint)
        values = evaluate_nlp(ctx, x)
        assert values["inequalities"][4] == pytest.approx(config.safe_radius,
                                                          abs=1e-9)

    def test_inequality_row_count_and_order(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.StepContext(config, theta, object_position(config, theta))
        decision = PlanDecision(dtheta=np.zeros(8),
                                gamma=np.array([2.0, 3.0]), slack=0.5)
        rows = evaluate_nlp(ctx, decision.to_vector())["inequalities"]
        assert rows.shape == (8,)
        assert rows[0] == pytest.approx(2.0)   # gamma_1
        assert rows[1] == pytest.approx(3.0)   # gamma_2
        assert rows[2] == pytest.approx(0.5)   # slack
        # complementarity: s - gamma . phi with both gaps ~0 at the start
        assert rows[3] == pytest.approx(0.5, abs=1e-6)


def worst_gradient_error(config, rng) -> float:
    """Largest ``gradient_check`` error over 10 random decisions at the
    start pose, against the second waypoint."""
    ctx = pl.StepContext(config, initial_joint_angles(config),
                         config.waypoints()[1])
    worst = 0.0
    for _ in range(10):
        decision = PlanDecision(
            dtheta=rng.normal(scale=0.02, size=8),
            gamma=rng.uniform(0.0, 30.0, size=2),
            slack=float(rng.uniform(0.0, 1e-4)))
        worst = max(worst, gradient_check(ctx, decision))
    return worst


class TestGradientCheck:
    def test_full_problem_matches_finite_differences(self, default_config, rng):
        assert worst_gradient_error(default_config, rng) <= 1e-5

    def test_object_moment_matches_finite_differences(self, rng):
        # A zero object moment leaves the hand forces' joint derivative at
        # rounding noise; a moment makes it carry weight.
        config = default_scenario({"task": {
            "object_wrench": [0.0, 10.0, -117.72, 1.5, -2.0, 3.0]}})
        ctx = pl.StepContext(config, initial_joint_angles(config),
                             config.initial_center)
        chain = pl._chain(ctx, np.zeros(pl.DECISION_DIM), derivatives=True)
        d_forces = pl._grasp_force_gradients(
            config.object_wrench, chain["grasp"], *chain["ee_jacobians"])
        assert np.abs(d_forces).max() > 0.1
        assert worst_gradient_error(config, rng) <= 1e-5

    def test_corrupted_jacobian_detected(self, default_config):
        config = default_config
        theta = initial_joint_angles(config)
        ctx = pl.StepContext(config, theta, config.waypoints()[1])
        x = np.zeros(pl.DECISION_DIM)
        analytic = evaluate_nlp(ctx, x)["inequality_jac"]
        from contactplan.sqp import finite_difference_jacobian
        numeric = finite_difference_jacobian(
            lambda v: evaluate_nlp(ctx, v)["inequalities"], x, 1e-6)
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
    def ctx(self, default_config):
        theta = initial_joint_angles(default_config)
        return pl.StepContext(default_config, theta, default_config.waypoints()[1])

    @staticmethod
    def nearby(x, offset):
        x_next = x.copy()
        x_next[0] += offset
        return x_next

    @staticmethod
    def fresh(ctx):
        """A new context for the same waypoint, with an empty memo."""
        return pl.StepContext(ctx.config, ctx.theta, ctx.waypoint)

    def test_one_evaluation_per_point(self, ctx, monkeypatch):
        nlp = pl.build_step_nlp(ctx, ctx.config.weight_slack)
        passes = count_passes(monkeypatch)
        x = np.zeros(pl.DECISION_DIM)
        first = {name: getattr(nlp, name)(x) for name in self.FIELDS}
        assert passes == {"values": 1, "derivatives": 1}
        for name in self.FIELDS:
            getattr(nlp, name)(self.nearby(x, 1e-3))
        assert passes == {"values": 2, "derivatives": 2}
        expected = evaluate_nlp(self.fresh(ctx), x)
        for name in self.FIELDS:
            np.testing.assert_array_equal(first[name], expected[name])
            if isinstance(first[name], np.ndarray):
                assert not first[name].flags.writeable
                with pytest.raises(ValueError):
                    first[name][0] = 1.0

    def test_value_fields_run_no_derivative_pass(self, ctx, monkeypatch):
        nlp = pl.build_step_nlp(ctx, ctx.config.weight_slack)
        passes = count_passes(monkeypatch)
        x = self.nearby(np.zeros(pl.DECISION_DIM), 2e-3)
        values = {name: getattr(nlp, name)(x) for name in self.VALUE_FIELDS}
        assert passes == {"values": 1, "derivatives": 0}
        expected = evaluate_nlp(self.fresh(ctx), x)
        for name in self.VALUE_FIELDS:
            np.testing.assert_array_equal(values[name], expected[name])

    def test_jacobians_after_a_later_trial_reuse_the_value_pass(self, ctx,
                                                                monkeypatch):
        # The line search's expansion loop: values at x, then at x2, then
        # the Jacobians at the accepted x.
        nlp = pl.build_step_nlp(ctx, ctx.config.weight_slack)
        passes = count_passes(monkeypatch)
        x = np.zeros(pl.DECISION_DIM)
        x2 = self.nearby(x, 1e-3)
        for point in (x, x2):
            for name in self.VALUE_FIELDS:
                getattr(nlp, name)(point)
        jacobians = {name: getattr(nlp, name)(x)
                     for name in ("cost_grad", "equality_jac", "inequality_jac")}
        assert passes == {"values": 2, "derivatives": 1}
        expected = evaluate_nlp(self.fresh(ctx), x)
        for name, value in jacobians.items():
            np.testing.assert_array_equal(value, expected[name])

    def test_stages_share_one_memo_entry(self, ctx):
        # The constraint rows do not depend on the slack weight: every
        # continuation stage hands the solver the memo's own arrays.
        x = self.nearby(np.zeros(pl.DECISION_DIM), 1e-3)
        first, last = (pl.build_step_nlp(ctx, weight) for weight in (1e2, 1e6))
        for name in ("inequalities", "equalities", "inequality_jac"):
            assert getattr(first, name)(x) is getattr(last, name)(x)
        assert len(ctx.memo) == 1

    @pytest.mark.parametrize("weight", [1e2, 1e4, 1e6])
    def test_stage_cost_is_one_expression(self, ctx, weight, rng):
        # The memo stores the cost without its slack term, and the stage
        # adds it last: the sum rounds as the whole expression does.
        config = ctx.config
        x = np.concatenate([rng.normal(scale=0.02, size=pl.NUM_JOINTS),
                            rng.uniform(0.0, 30.0, size=pl.NUM_CONTACTS),
                            [rng.uniform(0.0, 1e-4)]])
        dtheta = x[:pl.NUM_JOINTS]
        err = ctx.waypoint - object_position(config, ctx.theta + dtheta)
        expected = (config.weight_position * float(err @ err)
                    + config.weight_displacement * float(dtheta @ dtheta)
                    + weight * float(x[-1]))
        nlp = pl.build_step_nlp(ctx, weight)
        assert nlp.cost(x) == expected
        assert nlp.cost_grad(x)[-1] == weight

    def test_memo_holds_at_most_two_points(self, ctx):
        nlp = pl.build_step_nlp(ctx, ctx.config.weight_slack)
        points = [self.nearby(np.zeros(pl.DECISION_DIM), k * 1e-3)
                  for k in range(5)]
        for count, x in enumerate(points, start=1):
            nlp.cost(x)
            nlp.cost_grad(x)
            assert len(ctx.memo) == min(count, 2)
        assert list(ctx.memo) == [x.tobytes() for x in points[-2:]]

    def test_raising_evaluation_caches_nothing(self, ctx, monkeypatch):
        nlp = pl.build_step_nlp(ctx, ctx.config.weight_slack)

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
        ctx = pl.StepContext(default_config, theta, default_config.waypoints()[1])
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
        decision = pl.solve_step(ctx)
        assert weights == [1e2, 1e4, 1e6]
        assert stage_passes[0]["values"] > 0
        assert stage_passes[1:] == [{"values": 0, "derivatives": 0}] * 2
        assert decision.converged


@pytest.mark.parametrize("waypoint", [
    [0.0, np.nan], [np.inf, 0.45], [0.45], [0.0, 0.45, 0.0], [[0.0, 0.45]]],
    ids=["nan", "inf", "one", "three", "nested"])
def test_context_rejects_a_bad_waypoint(default_config, waypoint):
    with pytest.raises(ValueError, match="waypoint must be 2 finite numbers"):
        pl.StepContext(default_config, initial_joint_angles(default_config),
                       waypoint)


class TestPlanWaypoint:
    def test_stationary_waypoint_keeps_configuration(self):
        config = light_config()
        theta = initial_joint_angles(config)
        ctx = pl.StepContext(config, theta, object_position(config, theta))
        step = plan_waypoint(ctx)
        assert np.linalg.norm(step.decision.dtheta) <= 1e-4
        assert step.decision.converged

    def test_rejected_step_carries_diagnostics(self, default_config):
        # A one-iteration budget cannot converge a real step.
        config = replace(default_config,
                         solver=replace(default_config.solver, max_iterations=1))
        theta = initial_joint_angles(default_config)
        waypoint = config.initial_center + np.array([0.0, 0.1])
        ctx = pl.StepContext(config, theta, waypoint)
        with pytest.raises(PlanStepError) as excinfo:
            plan_waypoint(ctx)
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
        # Pinned so that a caching regression fails loudly: 74 SQP
        # iterations over 29 solves (2 start-up settles, 27 continuation
        # stages), all converged, none stagnated; 113 distinct solver points
        # over the 27 stages plus 6 waypoints whose clamped decision is a new
        # point (one value pass each); derivatives at each stage-1 start and
        # each accepted iterate (9 + 52); 329 QP active-set iterations (the
        # settles' QPs have no inequality rows and take none).  FK runs
        # twice per value pass (238), once per distinct pose in the start-up
        # settle (60) and twice per active-edge choice (20: start-up and 9
        # waypoints); the post-solve contacts read the chain.  The support
        # region is checked when a scenario loads, never while planning.
        passes = count_passes(monkeypatch)
        fk_calls = []
        region_checks = []
        stages = []
        real_solve = pl.solve_sqp
        real_fk = pl.kin.forward_kinematics
        real_check = pl.st.check_support_region

        def solve(*args, **kwargs):
            result = real_solve(*args, **kwargs)
            stages.append((result.status, result.iterations,
                           result.qp_iterations))
            return result

        def counted_fk(*args):
            fk_calls.append(args)
            return real_fk(*args)

        def counted_check(*args):
            region_checks.append(args)
            return real_check(*args)

        monkeypatch.setattr(pl, "solve_sqp", solve)
        monkeypatch.setattr(pl.kin, "forward_kinematics", counted_fk)
        for module in (pl.st, scenario):
            monkeypatch.setattr(module, "check_support_region", counted_check)
        steps = plan_path(default_config)
        for step, expected in zip(steps, planned_steps):
            np.testing.assert_array_equal(step.decision.to_vector(),
                                          expected.decision.to_vector())
        assert {status for status, _, _ in stages} == {"converged"}
        assert (len(stages), sum(n for _, n, _ in stages),
                sum(n for _, _, n in stages)) == (29, 74, 329)
        assert (len(fk_calls), passes["values"], passes["derivatives"],
                len(region_checks)) == (318, 119, 61, 0)
        default_scenario()
        assert len(region_checks) == 1

    def test_zero_length_path(self):
        config = default_scenario({
            "task": {"waypoint_count": 1, "object_wrench": [0.0] * 6}})
        steps = plan_path(config)
        assert len(steps) == 1
        assert np.linalg.norm(steps[0].decision.dtheta) <= 1e-4

    def test_unreachable_waypoint_names_index(self, default_config):
        # Waypoint 5 (y = 1.2 m) is the first past the 1.1 m reach.
        with pytest.raises(ScenarioError, match="waypoint 5 "):
            replace(default_config, path_length=1.2)

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

    def test_degenerate_corner_stage_stagnates(self, monkeypatch):
        # On the slant path the first stage of waypoints 1 and 2 stops
        # moving a few iterations in; it ends "stagnated" instead of at the
        # 200-iteration cap, and the later stages converge from its point.
        config = default_scenario({"task": {
            "path_direction": [0.3, 1.0], "path_length": 0.1,
            "waypoint_count": 3}})
        stages = []
        real = pl.solve_sqp

        def solve(*args, **kwargs):
            result = real(*args, **kwargs)
            stages.append((result.status, result.iterations))
            return result

        monkeypatch.setattr(pl, "solve_sqp", solve)
        steps = plan_path(config)
        assert len(steps) == 3
        # Two start-up settles, then three continuation stages per waypoint.
        per_waypoint = [stages[i:i + 3] for i in range(2, len(stages), 3)]
        assert len(per_waypoint) == 3
        assert [status for status, _ in per_waypoint[0]] == ["converged"] * 3
        for waypoint in per_waypoint[1:]:
            (status, iterations), *later = waypoint
            assert status == "stagnated"
            assert iterations <= 30
            assert [status for status, _ in later] == ["converged"] * 2

    def test_deterministic(self, default_config, planned_steps):
        again = plan_path(default_config)
        for a, b in zip(planned_steps, again):
            assert np.array_equal(a.theta_after, b.theta_after)
            assert np.array_equal(a.decision.gamma, b.decision.gamma)
            assert a.decision.slack == b.decision.slack


# Loads whose NLP data overflow at the first iterate of step 0, with the
# piece the solver names: a huge vertical load overflows the ZMP row's
# Jacobian, a far torso the ZMP row itself, and a huge cost weight the
# gradient (and the Gauss-Newton seed Hessian).
NON_FINITE = {
    "wrench-z-1e155": ({"task": {"object_wrench": [0, 10, -1e155, 0, 0, 0]}},
                       "inequality Jacobian"),
    "wrench-z-1e308": ({"task": {"object_wrench": [0, 10, -1e308, 0, 0, 0]}},
                       "inequality Jacobian"),
    "torso-x-1e308": ({"robot": {"torso_position": [1e308, 0.0, 0.5]}},
                      "inequality rows"),
    "weight-position-1e308": ({"weights": {"position": 1e308}}, "cost gradient"),
    "weight-displacement-1e308": ({"weights": {"displacement": 1e308}},
                                  "cost gradient"),
}
for overrides, _ in NON_FINITE.values():
    overrides.setdefault("task", {})["waypoint_count"] = 2


@pytest.mark.parametrize("overrides, name", NON_FINITE.values(),
                         ids=list(NON_FINITE))
def test_non_finite_nlp_data_is_a_typed_failure(overrides, name):
    config = default_scenario(overrides)
    with np.errstate(all="ignore"), pytest.raises(PlanStepError) as excinfo:
        plan_path(config)
    assert excinfo.value.waypoint_index == 0
    assert f"non-finite {name} at an SQP iterate" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, InfeasibleStepError)


# Keys a plan reads, drawn as their default with one entry replaced by a
# value of any magnitude, the extremes of float64 included.
PLAN_KEYS = [("task", "object_wrench"), ("task", "path_direction"),
             ("task", "path_length"), ("robot", "torso_position"),
             ("robot", "torso_mass"), ("robot", "link_mass"),
             ("robot", "link_lengths"), ("robot", "link_radius"),
             ("robot", "arm_base_left"), ("glovebox", "plane_height"),
             ("glovebox", "port_edges_right"), ("object", "initial_center"),
             ("balance", "safe_radius"), ("balance", "object_radius"),
             ("weights", "position"), ("weights", "displacement"),
             ("weights", "slack"), ("contact", "link_index"), (None, "gravity")]
_MAGNITUDES = st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 1e-9, 1e-3, 0.5,
                               3.0, 1e3, 1e9, 1e150, 1e155, 1e160, 1e300,
                               1e308, 1.7976931348623157e308])


@st.composite
def _plan_override(draw):
    section, key = draw(st.sampled_from(PLAN_KEYS))
    value = np.array(_DEFAULTS[key] if section is None else _DEFAULTS[section][key])
    if value.dtype.kind == "i":
        value = np.array(draw(st.integers(-1, 4)))
    else:
        flat = value.reshape(-1)
        flat[draw(st.integers(0, flat.size - 1))] = \
            draw(st.sampled_from([1.0, -1.0])) * draw(_MAGNITUDES)
    return section, key, value.tolist()


def _with_examples(test):
    """``test`` with the overrides above as explicit two-waypoint examples."""
    for overrides in [o for o, _ in NON_FINITE.values()] + list(SHORT_LINKS.values()):
        test = example([(section, key, value) for section, values in overrides.items()
                        for key, value in values.items()], 2)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=40)
@_with_examples
@given(st.lists(_plan_override(), min_size=1, max_size=2),
       st.integers(1, 2))
def test_any_loaded_config_plans_or_fails_typed(triples, waypoint_count):
    # Every config that loads plans, or fails with a ContactPlanError: one
    # or two waypoints along 5 cm, so the examples take about a second.
    # numpy's overflow warnings are errors under pytest and are silenced;
    # the exception a plan ends in must come from the program either way.
    raw = {"task": {"path_length": 0.05}}
    for section, key, value in triples:
        if section is None:
            raw[key] = value
        else:
            raw.setdefault(section, {})[key] = value
    raw["task"]["waypoint_count"] = waypoint_count
    with np.errstate(all="ignore"):
        try:
            config = default_scenario(raw)
        except ScenarioError:
            return
        try:
            plan_path(config)
        except ContactPlanError:
            pass
