"""Bit-for-bit checks of the ZMP chain's and the QP's Python-float forms.

The chain's small-array functions do their elementwise + - * / on Python
floats, and the active-set QP, the SQP driver and its KKT certificate
their reductions over short vectors.  Each
test below compares one of them with the numpy form it replaced, on seeded
inputs, and requires the same bytes (so the signs of zeros too, but for a
zero minimum, whose sign the QP cannot see).  The references call the same
numpy routines for everything that is not elementwise (trigonometry,
``@``, norms, solves), so the comparisons cover elementwise IEEE
arithmetic and ordering only and hold on any host.
The grasp-map derivative is compared with its per-joint loop instead: its
stacked ``matmul`` and ``solve`` calls must make the loop's BLAS/LAPACK
call for each joint, and running this file on each supported numpy
version checks that they do.  The same holds for the numpy forms the
solver's trial path and the gap use in place of the usual calls (a stacked
product for row-by-row dots, ``sqrt(v.dot(v))`` for ``norm``, ``a.sum()``
for ``np.sum``, the QP's working-set rows gathered from one array for
the stacked rows they replace, and its ratio test's stacked products with
the step and the iterate): each pair must run the same kernel on the same
data.
"""

import numpy as np
import pytest

from contactplan import planner as pl
from contactplan import sqp
from contactplan.contact import edge_gap, edge_gap_gradients
from contactplan.kinematics import NUM_LINKS, forward_kinematics, point_jacobian
from contactplan.statics import (bar_grasp, bar_grasp_gradients, bar_origin,
                                 compute_zmp, robot_center_of_mass)

DRAWS = 200


def assert_bitwise(new, old):
    new = np.asarray(new, dtype=float)
    old = np.asarray(old, dtype=float)
    assert new.shape == old.shape
    np.testing.assert_array_equal(new, old)
    assert new.tobytes() == old.tobytes()


# ---------------------------------------------------------------------------
# The numpy forms the chain used before
# ---------------------------------------------------------------------------

def skew(v):
    """Skew-symmetric matrix such that skew(v) @ u == cross(v, u)."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def numpy_zmp(weight, com, positions, forces):
    force_sum = weight.copy()
    moment_sum = np.cross(com, weight)
    for force, moment in zip(forces, np.cross(positions, forces)):
        force_sum += force
        moment_sum += moment
    ground_force = -force_sum
    fz = ground_force[2]
    return np.array([moment_sum[1] / fz, -moment_sum[0] / fz]), ground_force


def numpy_fk(base, lengths, angles):
    angles = np.cumsum(angles)
    cos, sin = np.cos(angles), np.sin(angles)
    points = np.empty((NUM_LINKS + 1, 2))
    origin = base
    points[0] = origin
    for i in range(NUM_LINKS):
        origin = origin + lengths[i] * np.array([cos[i], sin[i]])
        points[i + 1] = origin
    return points


def numpy_com(torso_mass, torso_position, link_mass, points, plane_height):
    weighted = torso_mass * torso_position
    num_links = 0
    for arm_points in points:
        for i in range(len(arm_points) - 1):
            mid = 0.5 * (arm_points[i] + arm_points[i + 1])
            weighted = weighted + link_mass * np.array(
                [mid[0], mid[1], plane_height])
            num_links += 1
    return weighted / (torso_mass + num_links * link_mass)


def numpy_point_jacobian(points, link_index, point_param):
    a = points[link_index]
    point = a + point_param * (points[link_index + 1] - a)
    jac = np.zeros((2, NUM_LINKS))
    for j in range(link_index + 1):
        lever = point - points[j]
        jac[0, j] = -lever[1]
        jac[1, j] = lever[0]
    return jac


def numpy_grasp_matrix(r_c1, r_c2):
    w = np.zeros((6, 12))
    for col, r in zip((0, 6), (r_c1, r_c2)):
        w[:3, col:col + 3] = np.eye(3)
        w[3:, col:col + 3] = -skew(r)
        w[3:, col + 3:col + 6] = np.eye(3)
    return w


def numpy_bar_grasp(ee0, ee1, plane_height, h_o):
    origin = 0.5 * (ee0 + ee1)
    hands = np.array([[ee0[0], ee0[1], plane_height],
                      [ee1[0], ee1[1], plane_height]])
    o3 = np.array([origin[0], origin[1], plane_height])
    w = numpy_grasp_matrix(o3 - hands[0], o3 - hands[1])
    return hands, w, w.T @ np.linalg.solve(w @ w.T, h_o)


def numpy_signed_gap(point, a, b, link_radius):
    edge = b - a
    length_sq = float(edge @ edge)
    t = float(np.clip((point - a) @ edge / length_sq, 0.0, 1.0))
    closest = a + t * edge
    toward_axis = closest - point
    dist = float(np.linalg.norm(toward_axis))
    normal_angle = float(np.arctan2(toward_axis[1], toward_axis[0]))
    return dist - link_radius, closest, normal_angle, t


def numpy_embed(jac, arm_index):
    out = np.zeros((jac.shape[0], pl.NUM_JOINTS))
    out[:, arm_index * NUM_LINKS:(arm_index + 1) * NUM_LINKS] = jac
    return out


def numpy_com_gradient(config, points):
    d_com = np.zeros((3, pl.NUM_JOINTS))
    for arm_index, arm_points in enumerate(points):
        for link in range(NUM_LINKS):
            jac = numpy_embed(numpy_point_jacobian(arm_points, link, 0.5),
                              arm_index)
            d_com[:2] += (config.link_mass / config.robot_mass) * jac
    return d_com


def point_jacobian_com_gradient(config, points):
    """The centre of mass gradient as a sum of embedded link-midpoint
    Jacobians from ``point_jacobian``, accumulated on Python floats."""
    scale = config.link_mass / config.robot_mass
    d_com = [[0.0] * pl.NUM_JOINTS, [0.0] * pl.NUM_JOINTS]
    for arm_index, arm_points in enumerate(points):
        offset = arm_index * NUM_LINKS
        for link in range(NUM_LINKS):
            jac = point_jacobian(arm_points, link, 0.5).tolist()
            for row, jac_row in zip(d_com, jac):
                for j, value in enumerate(jac_row, offset):
                    row[j] += scale * value
    return d_com


def loop_grasp_force_gradients(h_o, w, j0, j1):
    """The hand-force gradients one joint column at a time: 2-D products
    and one-right-hand-side solves."""
    s_mat = w @ w.T
    s_inv_h = np.linalg.solve(s_mat, h_o)
    dr0 = np.zeros((3, pl.NUM_JOINTS))
    dr0[:2] = 0.5 * (j1 - j0)
    dr1 = -dr0
    d_forces = np.zeros((2, 3, pl.NUM_JOINTS))
    for j in range(pl.NUM_JOINTS):
        dw = np.zeros((6, 12))
        dw[3:, 0:3] = -skew(dr0[:, j])
        dw[3:, 6:9] = -skew(dr1[:, j])
        ds = dw @ w.T + w @ dw.T
        dh = dw.T @ s_inv_h + w.T @ np.linalg.solve(s_mat, -(ds @ s_inv_h))
        d_forces[0, :, j] = dh[0:3]
        d_forces[1, :, j] = dh[6:9]
    return d_forces


def numpy_gap_gradients(points, link, edge):
    a = points[link]
    jac_a = numpy_point_jacobian(points, link, 0.0)
    jac_b = numpy_point_jacobian(points, link, 1.0)
    axis = points[link + 1] - a
    _, closest, _, t = numpy_signed_gap(edge, a, points[link + 1], 0.0)
    d_closest = (1.0 - t) * jac_a + t * jac_b
    if 0.0 < t < 1.0:
        dt = (-(axis @ jac_a) + (edge - a) @ (jac_b - jac_a)) / float(axis @ axis)
        d_closest = d_closest + np.outer(axis, dt)
    v = closest - edge
    dist = max(float(np.linalg.norm(v)), 1e-12)
    d_gap = (v / dist) @ d_closest
    d_beta = (v[0] * d_closest[1] - v[1] * d_closest[0]) / (dist * dist)
    return d_gap, d_beta


def numpy_zmp_gradients(ctx, joint, forces, d_forces, gap_grads, j0, j1):
    """The derivative passes' moment bookkeeping: the ZMP's joint and force
    gradients from the hand-force and gap gradients."""
    config = ctx.config
    fz = float(forces["zmp_result"].ground_force[2])
    d_com = numpy_com_gradient(config, joint["points"])
    weight_z = config.robot_weight[2]
    d_moment = np.zeros((2, pl.NUM_JOINTS))
    d_moment_gamma = np.zeros((2, pl.NUM_CONTACTS))
    d_moment[0] += weight_z * d_com[1]
    d_moment[1] += -weight_z * d_com[0]
    load_points = np.array(joint["load_points"])
    loads = np.array(forces["loads"])
    for pos, force, ee_jac, df in zip(load_points, loads, (j0, j1), d_forces):
        d_pos = np.zeros((3, pl.NUM_JOINTS))
        d_pos[:2] = ee_jac
        d_moment[0] += d_pos[1] * force[2] - pos[2] * df[1] + pos[1] * df[2] \
            - d_pos[2] * force[1]
        d_moment[1] += d_pos[2] * force[0] + pos[2] * df[0] - d_pos[0] * force[2] \
            - pos[0] * df[2]
    for i, (res, (d_gap, d_beta), g) in enumerate(
            zip(joint["gaps"], gap_grads, forces["gamma"])):
        pos = load_points[2 + i]
        unit = np.array([np.cos(res.normal_angle), np.sin(res.normal_angle), 0.0])
        d_unit = np.outer(np.array([-unit[1], unit[0], 0.0]), d_beta)
        df_theta = numpy_embed((float(g) * d_unit)[:2], i)
        d_moment[0] += -pos[2] * df_theta[1]
        d_moment[1] += pos[2] * df_theta[0]
        d_moment_gamma[0, i] = -pos[2] * unit[1]
        d_moment_gamma[1, i] = pos[2] * unit[0]
    # fz is the same in every pose: the quotient rule keeps only its
    # moment term.
    d_zmp_theta = np.zeros((2, pl.NUM_JOINTS))
    d_zmp_theta[0] = d_moment[1] * fz / (fz * fz)
    d_zmp_theta[1] = -d_moment[0] * fz / (fz * fz)
    d_zmp_gamma = np.zeros((2, pl.NUM_CONTACTS))
    d_zmp_gamma[0] = d_moment_gamma[1] / fz
    d_zmp_gamma[1] = -d_moment_gamma[0] / fz
    return d_zmp_theta, d_zmp_gamma


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def random_arm(rng):
    base = rng.uniform(-0.5, 0.5, size=2)
    lengths = rng.uniform(0.05, 0.4, size=NUM_LINKS)
    angles = rng.normal(scale=2.0, size=NUM_LINKS)
    return base, lengths, angles


@pytest.fixture(scope="module")
def chain_points(default_config):
    """A context at the start-up pose and decision vectors around it."""
    ctx = pl.StepContext(default_config, pl.initial_joint_angles(default_config),
                         default_config.waypoints()[1])
    rng = np.random.default_rng(7)
    xs = []
    for _ in range(50):
        x = np.zeros(pl.DECISION_DIM)
        x[:pl.NUM_JOINTS] = rng.normal(scale=0.05, size=pl.NUM_JOINTS)
        x[pl.NUM_JOINTS:-1] = rng.uniform(-1.0, 30.0, size=pl.NUM_CONTACTS)
        x[-1] = rng.uniform(0.0, 1e-3)
        xs.append(x)
    return ctx, xs


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def test_compute_zmp_matches_cross_products(rng):
    for k in range(DRAWS):
        weight = np.array([*rng.normal(size=2), -rng.uniform(100.0, 900.0)])
        com = rng.normal(size=3)
        positions = rng.normal(size=(k % 5, 3))
        forces = rng.normal(scale=20.0, size=(k % 5, 3))
        result = compute_zmp(weight, com, positions, forces)
        zmp, ground_force = numpy_zmp(weight, com, positions, forces)
        assert_bitwise(result.zmp, zmp)
        assert_bitwise(result.ground_force, ground_force)


def test_forward_kinematics_matches_link_by_link_accumulation(rng):
    for _ in range(DRAWS):
        base, lengths, angles = random_arm(rng)
        assert_bitwise(forward_kinematics(base, lengths, angles),
                       numpy_fk(base, lengths, angles))


def test_center_of_mass_matches_array_sum(rng):
    for _ in range(DRAWS):
        points = [forward_kinematics(*random_arm(rng)) for _ in range(2)]
        args = (rng.uniform(10.0, 60.0), rng.normal(size=3),
                rng.uniform(0.5, 3.0), points, rng.uniform(0.5, 1.5))
        assert_bitwise(robot_center_of_mass(*args), numpy_com(*args))


def test_point_jacobian_matches_lever_arms(rng):
    for _ in range(DRAWS):
        points = forward_kinematics(*random_arm(rng))
        for link in range(NUM_LINKS):
            for param in (0.0, 0.5, 1.0, rng.uniform()):
                assert_bitwise(point_jacobian(points, link, param),
                               numpy_point_jacobian(points, link, param))


def test_grasp_matrix_matches_identity_and_skew_blocks(rng):
    for _ in range(DRAWS):
        ee0, ee1 = rng.normal(size=2), rng.normal(size=2)
        plane = rng.uniform(0.5, 1.5)
        h_o = rng.normal(scale=20.0, size=6)
        grasp = bar_grasp((ee0, ee1), h_o)
        _, w, h_c = numpy_bar_grasp(ee0, ee1, plane, h_o)
        assert_bitwise(bar_origin((ee0, ee1)), 0.5 * (ee0 + ee1))
        assert_bitwise(grasp.grasp_map, w)
        assert_bitwise(grasp.gram, w @ w.T)
        assert_bitwise(grasp.gram_solve, np.linalg.solve(w @ w.T, h_o))
        assert_bitwise(grasp.wrenches, h_c)


def test_signed_gap_matches_array_form(rng):
    for _ in range(DRAWS):
        a, b, point = (rng.normal(size=2) for _ in range(3))
        res = edge_gap(np.array([a, b]), 0, 0.04, point)
        gap, closest, normal_angle, t = numpy_signed_gap(point, a, b, 0.04)
        assert_bitwise([res.gap, res.normal_angle, res.axis_param],
                       [gap, normal_angle, t])
        assert_bitwise(res.separation, closest - point)
        assert_bitwise(res.distance, np.linalg.norm(closest - point))


def test_com_gradient_matches_embedded_jacobian_sum(chain_points, rng):
    ctx, xs = chain_points
    poses = [ctx.config.joint_points(ctx.theta + x[:pl.NUM_JOINTS]) for x in xs]
    poses += [[forward_kinematics(*random_arm(rng)) for _ in range(2)]
              for _ in range(DRAWS)]
    for points in poses:
        d_com = numpy_com_gradient(ctx.config, points)
        new = pl._com_gradient(ctx.config, points)
        assert_bitwise(new, d_com[:2])
        assert_bitwise(new, point_jacobian_com_gradient(ctx.config, points))
        assert_bitwise(d_com[2], np.zeros(pl.NUM_JOINTS))


def test_grasp_force_gradients_match_per_joint_loop(chain_points, rng):
    ctx, xs = chain_points
    config = ctx.config
    moments = np.array([0.0, 10.0, -117.72, 1.5, -2.0, 3.0])
    inputs = []
    for x in xs:
        points = pl._joint(ctx, x[:pl.NUM_JOINTS])["points"]
        ees = (points[0][-1], points[1][-1])
        j0, j1 = (numpy_embed(numpy_point_jacobian(arm, NUM_LINKS - 1, 1.0), i)
                  for i, arm in enumerate(points))
        inputs += [(bar_grasp(ees, h_o), h_o, j0, j1)
                   for h_o in (config.object_wrench, moments)]
    for k in range(DRAWS):
        h_o = rng.normal(scale=20.0, size=6)
        grasp = bar_grasp(rng.normal(size=(2, 2)), h_o)
        j0, j1 = rng.normal(size=(2, 2, pl.NUM_JOINTS))
        if k % 2:
            # Each hand moves with its own arm's joints only.
            j0[:, NUM_LINKS:] = 0.0
            j1[:, :NUM_LINKS] = 0.0
        inputs.append((grasp, h_o, j0, j1))
    for grasp, h_o, j0, j1 in inputs:
        assert_bitwise(bar_grasp_gradients(grasp, j0, j1),
                       loop_grasp_force_gradients(h_o, grasp.grasp_map, j0, j1))


def test_gap_gradients_match_array_form(chain_points):
    ctx, xs = chain_points
    link = ctx.config.contact_link_index
    for x in xs:
        joint = pl._joint(ctx, x[:pl.NUM_JOINTS])
        for points, edge, res in zip(joint["points"], ctx.edges, joint["gaps"]):
            for new, old in zip(edge_gap_gradients(points, link, edge, res),
                                numpy_gap_gradients(points, link, edge)):
                assert_bitwise(new, old)


def test_zmp_gradients_match_array_bookkeeping(chain_points):
    ctx, xs = chain_points
    config = ctx.config
    for x in xs:
        forces = pl._forces(ctx, x, derivatives=True)
        joint = pl._joint(ctx, x[:pl.NUM_JOINTS])
        points = joint["points"]
        j0 = numpy_embed(numpy_point_jacobian(points[0], NUM_LINKS - 1, 1.0), 0)
        j1 = numpy_embed(numpy_point_jacobian(points[1], NUM_LINKS - 1, 1.0), 1)
        assert_bitwise(joint["d_obj"], 0.5 * (j0 + j1))
        assert_bitwise(joint["equality_jac"][:, :pl.NUM_JOINTS], j0 - j1)
        d_forces = loop_grasp_force_gradients(config.object_wrench,
                                              joint["grasp"].grasp_map, j0, j1)
        gap_grads = [numpy_gap_gradients(arm_points, config.contact_link_index,
                                         edge)
                     for arm_points, edge in zip(points, ctx.edges)]
        d_phi = np.vstack([numpy_embed(d_gap[None, :], i)
                           for i, (d_gap, _) in enumerate(gap_grads)])
        assert_bitwise(joint["d_phi"], d_phi)
        d_zmp_theta, d_zmp_gamma = numpy_zmp_gradients(
            ctx, joint, forces, d_forces, gap_grads, j0, j1)
        assert_bitwise(forces["d_zmp_theta"], d_zmp_theta)
        assert_bitwise(forces["d_zmp_gamma"], d_zmp_gamma)


def test_value_pass_matches_array_form(chain_points):
    ctx, xs = chain_points
    config = ctx.config
    for x in xs:
        joint, forces = pl._joint(ctx, x[:pl.NUM_JOINTS]), pl._forces(ctx, x)
        points = [numpy_fk(config.arm_bases[i], config.link_lengths,
                           ctx.theta[i * NUM_LINKS:(i + 1) * NUM_LINKS]
                           + x[i * NUM_LINKS:(i + 1) * NUM_LINKS])
                  for i in range(2)]
        for new, old in zip(joint["points"], points):
            assert_bitwise(new, old)
        hands, grasp, h_c = numpy_bar_grasp(points[0][-1], points[1][-1],
                                            config.plane_height,
                                            config.object_wrench)
        assert_bitwise(joint["grasp"].grasp_map, grasp)
        assert_bitwise(joint["object_position"],
                       0.5 * (points[0][-1] + points[1][-1]))
        link = config.contact_link_index
        gaps = [numpy_signed_gap(edge, arm_points[link], arm_points[link + 1],
                                 config.link_radius)
                for arm_points, edge in zip(points, ctx.edges)]
        assert_bitwise(joint["phi"], [gap for gap, *_ in gaps])
        angles = np.array([angle for _, _, angle, _ in gaps])
        load_points = np.array([
            hands[0], hands[1],
            *([edge[0], edge[1], config.plane_height] for edge in ctx.edges)])
        loads = np.array([
            h_c[0:3], h_c[6:9],
            *(float(g) * np.array([c, s, 0.0]) for g, c, s in zip(
                x[pl.NUM_JOINTS:-1], np.cos(angles), np.sin(angles)))])
        assert_bitwise(joint["load_points"], load_points)
        assert_bitwise(forces["loads"], loads)
        com = numpy_com(config.torso_mass, config.torso_position,
                        config.link_mass, points, config.plane_height)
        assert_bitwise(joint["com"], com)
        zmp, ground_force = numpy_zmp(config.robot_weight, com, load_points, loads)
        assert_bitwise(forces["zmp_result"].zmp, zmp)
        assert_bitwise(forces["zmp_result"].ground_force, ground_force)


def test_stacked_row_products_match_row_by_row(rng):
    # solve_qp's ratio test: the elastic QP's inequality rows are (m + 1,
    # n + 1), 9 by 12 in the planner's subproblems, times the step p for
    # the denominators and times the iterate z for the numerators.
    for k in range(DRAWS):
        rows = rng.normal(size=(1 + k % 12, 2 + k % 13))
        rows[:, -1] = 1.0
        p = rng.normal(scale=10.0 ** rng.integers(-12, 3), size=rows.shape[1])
        z = signed_draw(rng, rows.shape[1]) + rng.normal(
            scale=10.0 ** rng.integers(-6, 2), size=rows.shape[1]) * (k % 2)
        for v in (p, z):
            stacked = (rows[:, None, :] @ v[:, None]).ravel()
            assert_bitwise(stacked, [row @ v for row in rows])


def test_sqrt_of_dot_matches_norm(rng):
    # contact.edge_gap's distance between 2-vectors, and longer vectors.
    for k in range(DRAWS):
        v = rng.normal(scale=10.0 ** rng.integers(-9, 3), size=2 + k % 11)
        assert_bitwise(np.sqrt(v.dot(v)), np.linalg.norm(v))
        assert_bitwise(np.sqrt(v[:2].dot(v[:2])), np.linalg.norm(v[:2]))


def test_array_sum_matches_np_sum(rng):
    # The SQP's l1 violation sums |equality rows| (2) and the violated
    # parts of the inequality rows (8).
    for k in range(DRAWS):
        a = rng.normal(scale=10.0 ** rng.integers(-12, 4), size=k % 16)
        for part in (np.abs(a), np.maximum(0.0, -a)):
            assert_bitwise(part.sum(), np.sum(part))


# ---------------------------------------------------------------------------
# The active-set QP's bookkeeping (sqp.solve_qp)
# ---------------------------------------------------------------------------

def signed_draw(rng, size):
    """Values with repeats and signed zeros over many decades."""
    values = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0], size=size)
    return values * 10.0 ** rng.integers(-12, 4)


def test_abs_max_of_list_matches_np_abs_max(rng):
    assert_bitwise(sqp._abs_max([]), np.abs(np.zeros(0)).max(initial=0.0))
    for k in range(DRAWS):
        for v in (signed_draw(rng, k % 14),
                  rng.normal(scale=10.0 ** rng.integers(-12, 4), size=k % 14),
                  np.array([-0.0] * (k % 4))):
            assert_bitwise(sqp._abs_max(v.tolist()),
                           np.abs(v).max(initial=0.0))


def test_list_min_and_index_match_np_min_and_argmin(rng):
    # The QP drops the working row of the most negative multiplier.  The
    # sign of a zero minimum may differ (numpy keeps the later of -0.0 and
    # 0.0, Python the earlier); the QP compares it with a negative bound
    # only, so the comparison adds 0.0, which turns -0.0 into 0.0.
    for k in range(DRAWS):
        for v in (signed_draw(rng, 1 + k % 12),
                  rng.normal(size=1 + k % 12)):
            values = v.tolist()
            low = min(values)
            assert values.index(low) == np.argmin(v)
            assert_bitwise(low + 0.0, v.min() + 0.0)
            if low != 0.0:
                assert_bitwise(low, v.min())


def numpy_solve_eqp(hess, grad_at_z, rows):
    """solve_qp's KKT solve with lstsq's default cutoff; returns (p,
    multipliers, the KKT matrix)."""
    n, k = hess.shape[0], rows.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = hess
    kkt[:n, n:] = -rows.T
    kkt[n:, :n] = rows
    rhs = np.concatenate([-grad_at_z, np.zeros(k)])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    sol = sol + np.linalg.lstsq(kkt, rhs - kkt @ sol, rcond=None)[0]
    return sol[:n], sol[n:], kkt


def test_gathered_rows_match_stacked_rows(rng, monkeypatch):
    # One pass of the active-set loop and the polish: rows gathered from
    # the one constraint array against the vstack of the rows they replace,
    # the KKT matrix lstsq receives, and the products with those rows.
    kkts = []
    lstsq = np.linalg.lstsq

    def spy(a, b, rcond):
        kkts.append(a.tobytes())
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    for k in range(DRAWS):
        n, m_eq, m_in = 1 + k % 12, k % 4, 1 + k % 9
        a_eq, a_in = signed_draw(rng, (m_eq, n)), signed_draw(rng, (m_in, n))
        rows = np.zeros((m_eq + m_in + 1, n + 1))
        rows[:m_eq, :n] = a_eq
        rows[m_eq:-1, :n] = a_in
        rows[m_eq:, n] = 1.0
        eq_rows = np.hstack([a_eq, np.zeros((m_eq, 1))])
        in_rows = np.vstack([np.hstack([a_in, np.ones((m_in, 1))]),
                             np.concatenate([np.zeros(n), [1.0]])[None, :]])
        working = sorted(rng.choice(m_in + 1, size=rng.integers(0, m_in + 2),
                                    replace=False).tolist())
        gathered = rows.take(list(range(m_eq)) + [m_eq + i for i in working],
                             axis=0)
        stacked = np.vstack([eq_rows, in_rows[working]])
        assert_bitwise(gathered, stacked)
        z = rng.normal(size=n + 1)
        assert_bitwise(rows[m_eq:] @ z, in_rows @ z)

        root = rng.normal(size=(n + 1, n + 1))
        hess = root @ root.T + np.eye(n + 1)
        q = rng.normal(scale=10.0 ** rng.integers(-3, 5), size=n + 1)
        p_ref, lam_ref, kkt = numpy_solve_eqp(hess, q, stacked)
        kkts.clear()
        p, lam = sqp._solve_eqp(hess, q, gathered)
        assert kkts == [kkt.tobytes()] * 2
        assert_bitwise(p, p_ref)
        assert_bitwise(lam, lam_ref)

        active = [i for i in working if i < m_in]
        polish = rows[:, :n].take(list(range(m_eq)) + [m_eq + i for i in active],
                                  axis=0)
        assert polish.flags.c_contiguous
        assert_bitwise(polish, np.vstack([a_eq, a_in[active]]))
        assert_bitwise(polish @ z[:n], np.vstack([a_eq, a_in[active]]) @ z[:n])


# ---------------------------------------------------------------------------
# The SQP driver's and the KKT certificate's maxima (sqp.solve_sqp)
# ---------------------------------------------------------------------------

def numpy_max_violation(ce, ci):
    return max(float(np.abs(ce).max(initial=0.0)),
               float(np.maximum(0.0, -ci).max(initial=0.0)))


def numpy_kkt_residual(grad, a_eq, a_in, ci, act_tol):
    """The certificate multipliers' fit and the scaled residual on numpy
    reductions and element reads."""
    m_eq = a_eq.shape[0]
    active = [i for i in range(a_in.shape[0]) if ci[i] <= act_tol]
    for _ in range(len(active) + 1):
        rows = np.vstack([a_eq, a_in[active]])
        lam = np.linalg.lstsq(rows.T, grad, rcond=None)[0]
        lam_act = lam[m_eq:]
        if lam_act.size == 0 or lam_act.min() >= 0.0:
            break
        active = [row for row, value in zip(active, lam_act) if value >= 0.0]
    lam_eq = lam[:m_eq]
    lam_in = np.zeros(a_in.shape[0])
    for row, value in zip(active, lam_act):
        lam_in[row] = value
    r = grad - a_eq.T @ lam_eq - a_in.T @ lam_in
    r_stat = float(np.abs(r).max(initial=0.0))
    r_comp = float(np.abs(lam_in * ci).max(initial=0.0))
    lam_mag = max(np.abs(lam_eq).max(initial=0.0),
                  np.abs(lam_in).max(initial=0.0))
    scale = max(1.0, lam_mag / 1000.0)
    return max(r_stat, r_comp) / scale


def test_max_violation_matches_numpy_form(rng):
    # Signed zeros, repeats, and empty equality or inequality rows.
    for k in range(DRAWS):
        for ce, ci in ((signed_draw(rng, k % 4), signed_draw(rng, k % 11)),
                       (np.array([-0.0] * (k % 3)),
                        np.array([0.0, -0.0] * (k % 5))),
                       (rng.normal(size=k % 3), rng.normal(size=k % 9))):
            assert_bitwise(sqp._max_violation(ce, ci),
                           numpy_max_violation(ce, ci))


def test_kkt_residual_matches_numpy_form(rng):
    # Rows within act_tol of zero may carry a multiplier; a negative one
    # is dropped and the fit repeated.  The multipliers' magnitude in the
    # driver is the same maximum as the certificate's.
    act_tol = 1e-5
    for k in range(DRAWS):
        n, m_eq, m_in = 2 + k % 10, k % 3, k % 9
        grad = rng.normal(scale=10.0 ** rng.integers(-3, 7), size=n)
        a_eq, a_in = rng.normal(size=(m_eq, n)), signed_draw(rng, (m_in, n))
        ci = rng.choice([-act_tol, -0.0, 0.0, act_tol, 2 * act_tol, 0.3],
                        size=m_in) * rng.choice([1.0, 0.5], size=m_in)
        ce = rng.normal(size=m_eq)
        assert_bitwise(sqp._kkt_residual(grad, a_eq, a_in, ce, ci, act_tol),
                       numpy_kkt_residual(grad, a_eq, a_in, ci, act_tol))
        lam_eq, lam_in = rng.normal(size=m_eq), signed_draw(rng, m_in)
        assert_bitwise(max(sqp._abs_max(lam_eq.tolist()),
                           sqp._abs_max(lam_in.tolist())),
                       max(np.abs(lam_eq).max(initial=0.0),
                           np.abs(lam_in).max(initial=0.0)))
