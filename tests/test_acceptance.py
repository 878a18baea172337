"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one PASS line when its criterion holds (visible with
``pytest -s``; ``pytest -v`` shows one line per criterion through the test
names).  The default-scenario run is shared through session fixtures.
"""

import numpy as np

from contactplan import planner as pl
from contactplan.cli import read_csv, run
from contactplan.kinematics import forward_kinematics, point_jacobian
from contactplan.planner import PlanDecision
from contactplan.sqp import SolverSettings, solve_sqp
from contactplan.statics import compute_zmp
from contactplan.torque import ACTIVE_FORCE_TOL, PINV_RCOND, combined_torques

from derivatives import finite_difference_jacobian, gradient_check
from test_kinematics import link_point
from test_sqp import halfspace_qp, mpcc_grid_oracle, toy_mpcc
from test_statics import GRAVITY, horizontal_moment, zmp_oracle
from test_torque import arm_block, torque_parts


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_1_default_run_tracks_and_balances(default_config,
                                                     planned_steps):
    assert len(planned_steps) == default_config.waypoint_count == 9
    for step in planned_steps:
        assert step.decision.converged
        deviation = float(np.linalg.norm(step.object_position - step.waypoint))
        assert deviation <= default_config.object_radius + 1e-6
        zmp_dist = float(np.linalg.norm(step.zmp.zmp - default_config.sp_center))
        assert zmp_dist <= default_config.safe_radius + 1e-6
    _report(1, "9 converged steps, deviation <= 0.1 m, ZMP within 0.15 m")


def test_criterion_2_complementarity_at_accepted_steps(planned_steps):
    for step in planned_steps:
        gamma = step.decision.gamma
        phi = np.array([c.gap for c in step.contacts])
        slack = step.decision.slack
        assert np.all(gamma >= 0.0)
        assert np.all(phi >= -1e-6)
        assert float(gamma @ phi) <= slack + 1e-9
        assert slack <= 1e-4
    _report(2, "gamma >= 0, phi >= -1e-6, gamma.phi <= s <= 1e-4 throughout")


def test_criterion_3_fzmp_exits_while_zmp_stays(default_config, planned_steps):
    qualifying = []
    for index, step in enumerate(planned_steps):
        fzmp_dist = float(np.linalg.norm(step.fzmp.zmp - default_config.sp_center))
        zmp_dist = float(np.linalg.norm(step.zmp.zmp - default_config.sp_center))
        if (fzmp_dist > default_config.safe_radius + 1e-6
                and zmp_dist <= default_config.safe_radius + 1e-6
                and float(step.decision.gamma.max()) > 1.0):
            qualifying.append(index)
    assert qualifying, "no step shows the FZMP-out / ZMP-in contact pattern"
    _report(3, f"FZMP outside safe circle with ZMP inside and gamma > 1 N at "
               f"steps {qualifying}")


def test_criterion_4_force_and_torque_grow_with_distance(step_records):
    active = [r for r in step_records if np.max(r.gamma) > 1e-6]
    assert len(active) >= 2
    distances = [r.distance for r in active]
    assert all(b >= a for a, b in zip(distances, distances[1:]))
    for series_name in ("support_force_norm", "torque_norm"):
        values = [getattr(r, series_name) for r in active]
        slack = 0.01 * max(values)
        for previous, current in zip(values, values[1:]):
            assert current >= previous - slack, (
                f"{series_name} decreased: {previous} -> {current}")
    _report(4, "support-force and torque magnitudes nondecreasing in "
               "object-to-base distance (1% slack)")


def test_criterion_5_statics_matches_brute_force(rng):
    for _ in range(100):
        weight = float(rng.uniform(30, 80)) * GRAVITY
        com = rng.normal(scale=0.05, size=3) + np.array([0, 0, 0.8])
        rows = [(rng.normal(scale=0.4, size=3), rng.normal(scale=30.0, size=3))
                for _ in range(int(rng.integers(1, 5)))]
        rows.append((np.array([0.1, 0.2, 0.9]), np.array([0.0, 0.0, -60.0])))
        positions = np.array([p for p, _ in rows])
        forces = np.array([f for _, f in rows])
        result = compute_zmp(weight, com, positions, forces)
        expected, ground = zmp_oracle(weight, com, positions, forces)
        assert np.abs(result.zmp - expected).max() <= 1e-9
        force_residual = (result.ground_force + weight
                          + sum(forces, np.zeros(3)))
        assert np.abs(force_residual).max() <= 1e-9
        moment_residual = horizontal_moment(weight, com, positions, forces,
                                            result.zmp, result.ground_force)
        assert np.abs(moment_residual).max() <= 1e-9
    _report(5, "ZMP matches the brute-force moment balance on 100 random "
               "wrench sets within 1e-9")


def test_criterion_6_derivatives_match_finite_differences(default_config, rng):
    # Kinematic Jacobians at random configurations.
    def left_arm(angles):
        return forward_kinematics(default_config.arm_bases[0],
                                  default_config.link_lengths, angles)

    for _ in range(100):
        theta = rng.normal(scale=1.2, size=4)
        link = int(rng.integers(0, 4))
        param = float(rng.uniform())
        jac = point_jacobian(left_arm(theta), link, param)
        numeric = finite_difference_jacobian(
            lambda q: link_point(left_arm(q), link, param), theta, 1e-6)
        for analytic, fd in zip(jac.T, numeric.T):
            assert np.abs(analytic - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())
    # Cost and constraint Jacobians of the waypoint NLP at random decisions.
    theta0 = pl.initial_joint_angles(default_config)
    ctx = pl.StepContext(default_config, theta0, default_config.waypoints()[1])
    worst = 0.0
    for _ in range(100):
        decision = PlanDecision(dtheta=rng.normal(scale=0.02, size=8),
                                gamma=rng.uniform(0.0, 40.0, size=2),
                                slack=float(rng.uniform(0.0, 1e-4)))
        worst = max(worst, gradient_check(ctx, decision))
    assert worst <= 1e-5
    _report(6, f"kinematics/cost/constraint derivatives match central FD "
               f"(worst relative error {worst:.2e})")


def test_criterion_7_torque_priority_on_contact_steps(default_config,
                                                      planned_steps,
                                                      step_records):
    checked = 0
    for step, record in zip(planned_steps, step_records):
        if float(step.decision.gamma.max()) <= ACTIVE_FORCE_TOL:
            continue
        points = default_config.joint_points(step.theta_after)
        link = default_config.contact_link_index
        gamma = step.decision.gamma
        # The support Jacobian over all eight joints: one 2-row block per
        # arm whose force exceeds ACTIVE_FORCE_TOL.
        j_support = np.vstack([
            arm_block(i, point_jacobian(arm, link, c.axis_param))
            for i, (arm, c) in enumerate(zip(points, step.contacts))
            if gamma[i] > ACTIVE_FORCE_TOL])
        assert np.linalg.matrix_rank(j_support.T) == j_support.shape[0]
        torques = combined_torques(points, link, step.contacts, gamma,
                                   step.loads)
        projected = torque_parts(points, link, step.contacts, gamma,
                                 step.loads)[1]
        pinv = np.linalg.pinv(j_support.T, rcond=PINV_RCOND)
        assert np.abs(pinv @ projected).max() <= 1e-9
        recovered = pinv @ torques
        planned = np.concatenate(
            [g * np.array([np.cos(c.normal_angle), np.sin(c.normal_angle)])
             for g, c in zip(gamma, step.contacts) if g > ACTIVE_FORCE_TOL])
        assert np.abs(recovered - planned).max() <= 1e-8
        checked += 1
    assert checked >= 2
    _report(7, f"support forces recovered from combined torques within 1e-8 "
               f"on {checked} contact-active steps")


def test_criterion_8_solver_unit_suite():
    settings = SolverSettings()
    qp = solve_sqp(halfspace_qp(), np.zeros(2), settings)
    assert qp.converged
    assert np.abs(qp.x - 0.5).max() <= 1e-8
    oracle_cost, _ = mpcc_grid_oracle()
    mpcc = solve_sqp(toy_mpcc(), np.array([0.5, 0.1, 0.1]), settings)
    assert mpcc.converged
    assert mpcc.x[0] * mpcc.x[1] <= 1e-6
    assert abs(mpcc.cost - oracle_cost) <= 2e-3
    for result in (qp, mpcc):
        for _, before, after in result.merit_history:
            assert after <= before + 1e-9 * (1.0 + abs(before))
    _report(8, "analytic QP exact to 1e-8, toy MPCC matches grid oracle "
               "within 2e-3, merit non-increasing")


def test_criterion_9_deterministic_csv(tmp_path):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert run(["--csv", str(path_a)]) == 0
    assert run(["--csv", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()
    assert len(read_csv(str(path_a))) == 9
    _report(9, "two default-scenario runs emit byte-identical CSV")
