import re
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
        real = pl.ct.edge_gap_gradients

        def counted(points, link, edge, res):
            poses.append(points.tobytes())
            return real(points, link, edge, res)

        monkeypatch.setattr(pl.ct, "edge_gap_gradients", counted)
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
        forces = pl._forces(ctx, x)
        # The polygon widens with the moved centre so the safe circle still
        # fits, as every config requires.
        ctx = pl.StepContext(replace(config, sp_center=forces["zmp_result"].zmp,
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


@pytest.mark.parametrize("overrides", [
    {},
    {"contact": {"link_index": 2}},
    {"task": {"object_wrench": [3.0, -7.0, -90.0, 1.5, -2.0, 0.7]}},
    {"object": {"grasp_offsets": [-0.35, 0.2]}},
], ids=["default", "link2", "wrench", "grasp-offsets"])
def test_vertical_support_is_fixed_by_the_load(overrides):
    # The hands carry exactly the object wrench and the supports push
    # horizontally, so the ground reaction's z is the load check's
    # -(weight_z + wrench_z) in every pose: the ZMP chain differentiates
    # the moments only, never fz.
    config = default_scenario(overrides)
    ctx = pl.StepContext(config, initial_joint_angles(config),
                         config.waypoints()[1])
    expected = -(config.robot_weight[2] + config.object_wrench[2])
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = np.zeros(pl.DECISION_DIM)
        x[:pl.NUM_JOINTS] = rng.normal(scale=0.05, size=pl.NUM_JOINTS)
        x[pl.NUM_JOINTS:-1] = rng.uniform(-1.0, 30.0, size=pl.NUM_CONTACTS)
        x[-1] = rng.uniform(0.0, 1e-3)
        forces = pl._forces(ctx, x)
        assert forces["zmp_result"].ground_force[2] == pytest.approx(
            expected, rel=1e-12, abs=0.0)
        assert [row[2] for row in forces["loads"][2:]] == [0.0, 0.0]


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
        joint = pl._joint(ctx, np.zeros(pl.NUM_JOINTS))
        zero = np.zeros((2, 4))
        j0, j1 = (pl.kin.point_jacobian(arm, 3, 1.0) for arm in joint["points"])
        d_forces = pl.st.bar_grasp_gradients(
            joint["grasp"], np.hstack([j0, zero]), np.hstack([zero, j1]))
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


PASSES = ("_joint_values", "_joint_derivatives", "_force_values",
          "_force_derivatives")


def count_passes(monkeypatch):
    """Count the ZMP chain's value and derivative passes, of its joint and
    force halves, from now on; keyed by ``PASSES``' names."""
    passes = dict.fromkeys(PASSES, 0)
    for name in PASSES:
        def counted(*args, real=getattr(pl, name), name=name):
            passes[name] += 1
            return real(*args)
        monkeypatch.setattr(pl, name, counted)
    return passes


def count_fk(monkeypatch) -> list:
    """Record the arguments of every ``forward_kinematics`` call from now
    on."""
    calls = []
    real = pl.kin.forward_kinematics

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pl.kin, "forward_kinematics", counted)
    return calls


def passes_of(joint_values, joint_derivatives, force_values, force_derivatives):
    """A ``count_passes`` dict, in ``PASSES``' order."""
    return dict(zip(PASSES, (joint_values, joint_derivatives, force_values,
                             force_derivatives)))


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
        assert passes == passes_of(1, 1, 1, 1)
        for name in self.FIELDS:
            getattr(nlp, name)(self.nearby(x, 1e-3))
        assert passes == passes_of(2, 2, 2, 2)
        expected = evaluate_nlp(self.fresh(ctx), x)
        for name in self.FIELDS:
            np.testing.assert_array_equal(first[name], expected[name])
            if isinstance(first[name], np.ndarray):
                assert not first[name].flags.writeable
                with pytest.raises(ValueError):
                    first[name][0] = 1.0

    def test_grasp_gram_solved_once_per_pose(self, ctx, monkeypatch):
        # The value pass solves W W' for the hands' wrenches; the derivative
        # pass reuses that solve and makes only the stacked dW solve.
        shapes = []
        real = np.linalg.solve

        def counted(a, b):
            shapes.append(a.shape)
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        pl._joint(ctx, np.zeros(pl.NUM_JOINTS))
        assert shapes == [(6, 6)]
        pl._joint(ctx, np.zeros(pl.NUM_JOINTS), derivatives=True)
        assert shapes == [(6, 6), (pl.NUM_JOINTS, 6, 6)]

    def test_value_fields_run_no_derivative_pass(self, ctx, monkeypatch):
        # The cost and the equalities read the kinematic tier alone: a
        # line-search trial rejected on them runs no value pass.
        nlp = pl.build_step_nlp(ctx, ctx.config.weight_slack)
        passes = count_passes(monkeypatch)
        fk_calls = count_fk(monkeypatch)
        x = self.nearby(np.zeros(pl.DECISION_DIM), 2e-3)
        values = {}
        for name, expected in zip(self.VALUE_FIELDS, (passes_of(0, 0, 0, 0),
                                                      passes_of(0, 0, 0, 0),
                                                      passes_of(1, 0, 1, 0))):
            values[name] = getattr(nlp, name)(x)
            assert passes == expected, name
        assert len(fk_calls) == 2
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
        assert passes == passes_of(2, 1, 2, 1)
        expected = evaluate_nlp(self.fresh(ctx), x)
        for name, value in jacobians.items():
            np.testing.assert_array_equal(value, expected[name])

    def test_joint_half_hit_equals_a_miss(self, ctx, monkeypatch):
        # x2 shares x's joint displacement, with other gamma and s: the line
        # search backtracking along one joint direction.  Its fields read
        # x's joint half and equal a fresh evaluation byte for byte.
        nlp = pl.build_step_nlp(ctx, ctx.config.weight_slack)
        x = self.nearby(np.zeros(pl.DECISION_DIM), 1e-3)
        x[pl.NUM_JOINTS:] = [3.0, 4.0, 1e-5]
        x2 = x.copy()
        x2[pl.NUM_JOINTS:] = [5.0, 2.5, 2e-5]
        for name in self.FIELDS:
            getattr(nlp, name)(x)
        calls = []
        for name in ("forward_kinematics", "point_jacobian"):
            def counted(*args, real=getattr(pl.kin, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(pl.kin, name, counted)
        hit = {name: getattr(nlp, name)(x2)
               for name in self.VALUE_FIELDS + ("cost_grad", "equality_jac",
                                                "inequality_jac")}
        assert calls == []
        monkeypatch.undo()
        expected = evaluate_nlp(self.fresh(ctx), x2)
        for name in self.FIELDS:
            assert np.asarray(hit[name]).tobytes() == \
                np.asarray(expected[name]).tobytes(), name

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

    def test_pose_hit_equals_a_miss(self, ctx, monkeypatch):
        # x2's joint displacement differs from x's by less than half an ulp
        # of theta, so both reach the same pose: a line-search trial whose
        # step is far below one ulp of theta.  x2 reads x's memo entry, adds
        # its own dtheta terms to the cost and its gradient, and equals a
        # fresh evaluation byte for byte.
        nlp = pl.build_step_nlp(ctx, ctx.config.weight_slack)
        x = self.nearby(np.zeros(pl.DECISION_DIM), 1e-3)
        x[pl.NUM_JOINTS:] = [3.0, 4.0, 1e-5]
        x2 = x.copy()
        x2[0] += 0.25 * np.spacing(ctx.theta[0] + x[0])
        assert x2[0] != x[0]
        assert (ctx.theta + x2[:pl.NUM_JOINTS]).tobytes() == \
            (ctx.theta + x[:pl.NUM_JOINTS]).tobytes()
        first = {name: getattr(nlp, name)(x) for name in self.FIELDS}
        passes = count_passes(monkeypatch)
        fk_calls = count_fk(monkeypatch)
        hit = {name: getattr(nlp, name)(x2) for name in self.FIELDS}
        assert passes == passes_of(0, 0, 0, 0)
        assert fk_calls == []
        assert len(ctx.memo) == 1
        monkeypatch.undo()
        expected = evaluate_nlp(self.fresh(ctx), x2)
        for name in self.FIELDS:
            assert np.asarray(hit[name]).tobytes() == \
                np.asarray(expected[name]).tobytes(), name
        # The displacement term is x2's own: here it moves the gradient.
        assert hit["cost_grad"][0] != first["cost_grad"][0]

    def test_memo_holds_at_most_64_poses(self, ctx):
        # One entry per pose theta + dtheta, first in first out: a hit does
        # not move its entry, and a 65th pose evicts the oldest.
        nlp = pl.build_step_nlp(ctx, ctx.config.weight_slack)
        points = [self.nearby(np.zeros(pl.DECISION_DIM), k * 1e-4)
                  for k in range(66)]
        keys = [(ctx.theta + x[:pl.NUM_JOINTS]).tobytes() for x in points]
        for count, x in enumerate(points[:65], start=1):
            nlp.cost(x)
            nlp.inequalities(x)
            assert len(ctx.memo) == min(count, 64)
        assert list(ctx.memo) == keys[1:65]
        nlp.cost(points[1])
        nlp.cost(points[65])
        assert list(ctx.memo) == keys[2:66]

    def test_raising_evaluation_caches_nothing(self, ctx, monkeypatch):
        # The ZMP is the force half's: the inequalities raise and cache no
        # force half, while the cost reads the joint half only.
        nlp = pl.build_step_nlp(ctx, ctx.config.weight_slack)
        x = np.zeros(pl.DECISION_DIM)
        expected = evaluate_nlp(self.fresh(ctx), x)["cost"]

        def unbalanced(*args):
            raise UnbalancedStateError("test")

        monkeypatch.setattr(pl.st, "compute_zmp", unbalanced)
        with pytest.raises(UnbalancedStateError):
            nlp.inequalities(x)
        assert nlp.cost(x) == expected
        pose = (ctx.theta + x[:pl.NUM_JOINTS]).tobytes()
        assert list(ctx.memo) == [pose]
        assert "forces" not in ctx.memo[pose]

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
        assert stage_passes[0]["_force_values"] > 0
        assert stage_passes[1:] == [passes_of(0, 0, 0, 0)] * 2
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


class TestCheckStep:
    """``_check_step`` on the default plan's first accepted step, with one
    thing changed: a decision field, or the waypoint (moved 0.5 m in x).
    The ZMP rests on the safe circle's rim there, so the negative force
    moves it out too."""

    ZMP = r"ZMP \d\.\d{6} m from target exceeds safe radius 0\.15 m"

    @staticmethod
    def first_step(config, planned_steps, shift=0.0):
        ctx = pl.StepContext(config, initial_joint_angles(config),
                             config.waypoints()[0] + [shift, 0.0])
        return ctx, planned_steps[0].decision

    @pytest.mark.parametrize("change, shift, expected", [
        ({"converged": False}, 0.0, ["solver did not converge"]),
        ({}, 0.5, [r"object deviation 0\.500000 m exceeds 0\.1 m"]),
        ({"gamma": np.array([200.0, 200.0])}, 0.0, [ZMP]),
        ({"gamma": np.array([-1.0, 0.0])}, 0.0,
         [ZMP, "complementarity violated by 1"]),
        ({"slack": 1e-3}, 0.0, [r"slack 0\.001 exceeds 0\.0001"]),
    ], ids=["converged", "deviation", "zmp", "complementarity", "slack"])
    def test_messages(self, default_config, planned_steps, change, shift,
                      expected):
        ctx, decision = self.first_step(default_config, planned_steps)
        rows = pl._forces(ctx, decision.to_vector())["inequalities"]
        assert pl._check_step(ctx, decision, rows) == []
        ctx, _ = self.first_step(default_config, planned_steps, shift)
        decision = replace(decision, **change)
        rows = pl._forces(ctx, decision.to_vector())["inequalities"]
        failures = pl._check_step(ctx, decision, rows)
        assert len(failures) == len(expected)
        for failure, pattern in zip(failures, expected):
            assert re.fullmatch(pattern, failure), failure

    @pytest.mark.parametrize("row", [0, 1, 2, 3, 6, 7],
                             ids=["gamma_1", "gamma_2", "s", "s-gamma.phi",
                                  "phi_1", "phi_2"])
    def test_complementarity_rows_at_tol_con(self, default_config,
                                             planned_steps, row):
        # Every complementarity row, the gaps included, is checked at
        # tol_con (1e-6 by default): a shortfall of 0.5e-6 passes, 2e-6
        # fails with the row's shortfall as the violation.
        ctx, decision = self.first_step(default_config, planned_steps)
        accepted = pl._forces(ctx, decision.to_vector())["inequalities"]
        for shortfall, expected in ((0.5e-6, []),
                                    (2e-6, ["complementarity violated by 2e-06"])):
            rows = accepted.copy()
            rows[row] = -shortfall
            assert pl._check_step(ctx, decision, rows) == expected


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
        # over the 27 stages (9 stage-1 starts, 52 full steps and their 52
        # expansion trials), each running the kinematic tier.  49 of the
        # expansions fail the Armijo test on the cost and the equalities
        # alone and stop there, so one joint and one force value pass run
        # at the other 64 points, plus a force value pass at each of 6
        # waypoints whose clamped decision is a new point at its solver
        # point's joint displacement; derivatives of both halves at each
        # stage-1 start and each accepted iterate (9 + 52); 329 QP
        # active-set iterations (the settles' QPs have no inequality rows
        # and take none).  FK runs twice per pose of the kinematic tier
        # (226), once per distinct pose in the start-up settle (60) and
        # twice per active-edge choice (20: start-up and 9 waypoints); the
        # post-solve contacts read the chain.  The support region is checked
        # when a scenario loads, never while planning.
        passes = count_passes(monkeypatch)
        fk_calls = count_fk(monkeypatch)
        region_checks = []
        stages = []
        real_solve = pl.solve_sqp
        real_check = pl.st.check_support_region

        def solve(*args, **kwargs):
            result = real_solve(*args, **kwargs)
            stages.append((result.status, result.iterations,
                           result.qp_iterations))
            return result

        def counted_check(*args):
            region_checks.append(args)
            return real_check(*args)

        monkeypatch.setattr(pl, "solve_sqp", solve)
        for module in (pl.st, scenario):
            monkeypatch.setattr(module, "check_support_region", counted_check)
        steps = plan_path(default_config)
        for step, expected in zip(steps, planned_steps):
            np.testing.assert_array_equal(step.decision.to_vector(),
                                          expected.decision.to_vector())
        assert {status for status, _, _ in stages} == {"converged"}
        assert (len(stages), sum(n for _, n, _ in stages),
                sum(n for _, _, n in stages)) == (29, 74, 329)
        assert passes == passes_of(64, 61, 70, 61)
        assert (len(fk_calls), len(region_checks)) == (306, 0)
        default_scenario()
        assert len(region_checks) == 1

    def test_slant_plan_work_counts(self, monkeypatch):
        # Pinned like the default plan's counts.  The slant path's first
        # stages stagnate at waypoints 1 and 2, and their line searches
        # halve steps far below one ulp of theta, at 169 poses.  Most
        # backtracking trials and 19 expansion trials fail the Armijo test
        # on the cost and the equalities alone, so the force half's value
        # pass runs 347 times and the joint half's 55 times, at the poses of
        # the trials that reach the inequalities; its derivative pass runs
        # 31 times.  FK runs twice per pose (338), 60 times in the start-up
        # settle and twice per active-edge choice (8).
        config = default_scenario({"task": {
            "path_direction": [0.3, 1.0], "path_length": 0.1,
            "waypoint_count": 3}})
        passes = count_passes(monkeypatch)
        fk_calls = count_fk(monkeypatch)
        assert len(plan_path(config)) == 3
        assert passes == passes_of(55, 31, 347, 64)
        assert len(fk_calls) == 406

    def test_loads_are_the_support_forces(self, planned_steps, step_records):
        # The chain's support rows are gamma (cos beta, sin beta, 0), and the
        # record's fs_norm is their norm, |gamma|.
        for step, record in zip(planned_steps, step_records):
            gamma = step.decision.gamma
            assert step.loads.shape == (4, 3)
            for row, g, res in zip(step.loads[2:], gamma, step.contacts):
                beta = res.normal_angle
                np.testing.assert_allclose(
                    row, g * np.array([np.cos(beta), np.sin(beta), 0.0]),
                    rtol=1e-15, atol=0.0)
            assert record.support_force_norm == pytest.approx(
                np.linalg.norm(gamma), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [1e-2, 1e2, 1e4])
    def test_scaled_weights_keep_the_plan(self, default_config, planned_steps,
                                          k):
        # Scaling all three cost weights by k leaves the minimizer where it
        # is, and the continuation stages scale with the position weight.
        # The support force gamma is not compared: where the safe-circle row
        # is inactive and both gaps are closed, a range of gamma is optimal.
        config = replace(default_config,
                         weight_position=k * default_config.weight_position,
                         weight_displacement=k * default_config.weight_displacement,
                         weight_slack=k * default_config.weight_slack)
        steps = plan_path(config)
        assert len(steps) == len(planned_steps)
        for step, expected in zip(steps, planned_steps):
            np.testing.assert_allclose(step.theta_after, expected.theta_after,
                                       rtol=0.0, atol=1e-6)
            np.testing.assert_allclose(step.object_position,
                                       expected.object_position,
                                       rtol=0.0, atol=1e-6)

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
