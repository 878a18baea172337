"""Per-waypoint planning: the relaxed complementarity NLP and the path loop.

Each waypoint is planned by one NLP over the decision vector

    x = [dtheta (8), gamma (2), s (1)]

where dtheta are joint displacements for both arms (left then right), gamma
are the support-force magnitudes at the two active port edges, and s
is the complementarity relaxation slack.  The cost weighs object-position
error, joint displacement, and the slack; the constraints keep the grasp
closed, the forces admissible (gamma, s >= 0, gamma . phi <= s, phi >= 0),
the ZMP inside the safe circle, and the object within its allowed deviation.
All constraints are evaluated at the post-step configuration theta + dtheta.

The object is a rigid bar held at both ends: the grasp equality fixes the
end-effector difference to the bar's span (orientation locked to the x-axis)
and the object position is the midpoint of the end effectors.  The load
wrench is distributed to the hands through the grasp map pseudo-inverse and
enters the balance at the end effectors; support forces enter at the port
edges.  Every constraint Jacobian is analytic (the ZMP row differentiates
the closed-form moment balance); ``gradient_check`` validates them against
central finite differences.

The ZMP chain behind cost and constraints has a value pass
(``_chain_values``: forward kinematics once per arm, loads, gaps, centre
of mass, ZMP, then the cost without its slack term, the equalities and the
inequalities) and a derivative pass (``_chain_derivatives``: the Jacobians,
from the value pass's joint points, then the cost gradient and the
constraint Jacobians).  A ``StepContext`` is built for one waypoint, and
its memo holds the chains of its last two points, NLP rows included: the
one cache of the waypoint's NLP (the evaluate-once interface of IPOPT and
CasADi).  Each continuation stage reads it and adds only its slack term,
so every stage and the post-solve observables share one chain per point.
The solver's value callbacks read the value pass only; its Jacobian
callbacks add the derivative pass at their point, which the SQP asks for at
start points and accepted iterates.

Exactness rule: the SQP is sensitive to the last bit of the chain (an ulp
can flip a marginal solve), so the chain's small-array code (forward
kinematics, point Jacobians, gaps, grasp map, centre of mass, ZMP and the
derivative bookkeeping) does only its elementwise + - * / on Python floats,
in the order the numpy form did them: CPython and numpy both round each of
these once, without fused multiply-adds, so the bits stay the same.  Every
other operation stays a numpy call: ``@``, ``np.linalg.solve`` and ``norm``
(BLAS may fuse or reorder, so a 2-vector ``u @ v`` is not always
``u0*v0 + u1*v1``), ``np.cos``/``np.sin``/``np.arctan2`` (``math`` may round
differently) and reductions such as ``np.cumsum``.  ``tests/test_exactness.py``
holds the numpy forms and compares them bit for bit.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import contact as ct
from . import kinematics as kin
from . import statics as st
from .errors import ContactPlanError, PlanStepError
from .scenario import ScenarioConfig
from .sqp import NlpProblem, SolverSettings, finite_difference_jacobian, solve_sqp

NUM_JOINTS = 2 * kin.NUM_LINKS
NUM_CONTACTS = 2
DECISION_DIM = NUM_JOINTS + NUM_CONTACTS + 1

# Smoothing for norm-type constraint rows: keeps the gradient defined when a
# point sits exactly on its target while shifting values by less than 1e-12.
_NORM_EPS = 1e-12


@dataclass(frozen=True)
class PlanDecision:
    """NLP decision variables plus solver diagnostics."""

    dtheta: np.ndarray
    gamma: np.ndarray
    slack: float
    cost: float = float("nan")
    kkt_residual: float = float("nan")
    iterations: int = 0
    converged: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dtheta",
                           np.asarray(self.dtheta, dtype=float))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        if self.dtheta.shape != (NUM_JOINTS,):
            raise ValueError(f"dtheta must have shape ({NUM_JOINTS},)")
        if self.gamma.shape != (NUM_CONTACTS,):
            raise ValueError(f"gamma must have shape ({NUM_CONTACTS},)")

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.dtheta, self.gamma, [self.slack]])

    @staticmethod
    def from_vector(x, **diag) -> "PlanDecision":
        x = np.asarray(x, dtype=float)
        return PlanDecision(dtheta=x[:NUM_JOINTS],
                            gamma=x[NUM_JOINTS:NUM_JOINTS + NUM_CONTACTS],
                            slack=float(x[-1]), **diag)


@dataclass(frozen=True)
class StepContext:
    """Scenario state the solve of one waypoint works against.

    ``edges`` are the active port edges at ``theta``, a (2, 2) array with
    one row per arm (the arm's edge with the smaller gap to its contact
    link), chosen on construction and frozen for the solve.
    ``memo`` holds the ZMP chain, with the NLP rows, of the last points
    evaluated against this context (see ``_chain``); the chain depends on
    the context and the decision vector only, so every continuation stage
    and the post-solve observables share it.

    Raises:
        ValueError: ``theta`` is not 8 finite joint angles, or ``waypoint``
            is not 2 finite numbers.
    """

    config: ScenarioConfig
    theta: np.ndarray                      # (8,) current joint angles
    waypoint: np.ndarray                   # (2,) object target
    edges: np.ndarray = field(init=False)  # (2, 2) active edge point per arm
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (NUM_JOINTS,):
            raise ValueError(f"theta must have shape ({NUM_JOINTS},)")
        if not np.all(np.isfinite(theta)):
            raise ValueError("joint angles must be finite")
        waypoint = np.asarray(self.waypoint, dtype=float)
        if waypoint.shape != (2,) or not np.all(np.isfinite(waypoint)):
            raise ValueError("waypoint must be 2 finite numbers")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "waypoint", waypoint)
        object.__setattr__(self, "edges", ct.active_edges(
            self.config.joint_points(theta), self.config.contact_link_index,
            self.config.link_radius, self.config.port_edges))


@dataclass(frozen=True)
class PlanStep:
    """Accepted result of one waypoint: new configuration and observables.

    ``contacts`` are the two arms' ``contact.GapResult`` of their active
    edges against the contact link, ``joint_points`` both arms' joint points
    at ``theta_after`` and ``hand_loads`` the (2, 3) forces the object puts
    on the hands there, all from the ZMP chain at the accepted point.  The
    support forces' magnitudes are ``decision.gamma``.
    """

    waypoint: np.ndarray
    decision: PlanDecision
    theta_after: np.ndarray
    object_position: np.ndarray
    contacts: tuple
    zmp: st.ZmpResult
    fzmp: st.ZmpResult
    joint_points: tuple
    hand_loads: np.ndarray


# ---------------------------------------------------------------------------
# The ZMP chain: a value pass and a derivative pass
# ---------------------------------------------------------------------------

# Points a memo keeps (a context's chain, the start-up settle's poses): the
# line search's expansion loop evaluates its rejected trial after the
# accepted one.
_MEMO_POINTS = 2


def _embed(jac: np.ndarray, arm_index: int) -> np.ndarray:
    """Lift a per-arm 2x4 Jacobian into the 8 joint columns."""
    out = np.zeros((jac.shape[0], NUM_JOINTS))
    cols = slice(0, kin.NUM_LINKS) if arm_index == 0 else \
        slice(kin.NUM_LINKS, NUM_JOINTS)
    out[:, cols] = jac
    return out


def _smooth_norm(v: np.ndarray) -> tuple[float, np.ndarray]:
    """sqrt(|v|^2 + eps^2) - eps and its gradient (zero at v = 0)."""
    root = float(np.sqrt(v @ v + _NORM_EPS * _NORM_EPS))
    return root - _NORM_EPS, v / root


def _gap_gradients(points: np.ndarray, link: int, edge: np.ndarray,
                   res: ct.GapResult) -> tuple[list, list]:
    """Joint gradients (4 floats each) of an edge's gap to link ``link`` of
    one arm and of its normal angle, from its ``contact.edge_gap`` result.

    The closest-point parameter along the link both moves the material point
    and slides along the axis; the sliding term vanishes from the gap
    gradient (the axis direction is orthogonal to the separation) but not
    from the normal-angle gradient.
    """
    a = points[link]
    jac_a = kin.point_jacobian(points, link, 0.0)
    jac_b = kin.point_jacobian(points, link, 1.0)
    t = res.axis_param
    # d_closest = (1 - t) jac_a + t jac_b (+ outer(axis, dt) inside the link).
    d_closest = [[(1.0 - t) * pa + t * pb for pa, pb in zip(row_a, row_b)]
                 for row_a, row_b in zip(jac_a.tolist(), jac_b.tolist())]
    if 0.0 < t < 1.0:
        axis = points[link + 1] - a
        dt = ((-(axis @ jac_a) + (edge - a) @ (jac_b - jac_a))
              / float(axis @ axis)).tolist()
        d_closest = [[value + component * d for value, d in zip(row, dt)]
                     for row, component in zip(d_closest, axis.tolist())]
    v = res.closest_point - edge
    dist = max(float(np.linalg.norm(v)), 1e-12)
    d_gap = ((v / dist) @ np.array(d_closest)).tolist()
    vx, vy = v.tolist()
    d_beta = [(vx * dy - vy * dx) / (dist * dist)
              for dx, dy in zip(*d_closest)]
    return d_gap, d_beta


def _grasp_force_gradients(h_o: np.ndarray, w: np.ndarray, j0, j1) -> np.ndarray:
    """(2, 3, 8) joint gradients of the per-hand load forces.

    The pseudo-inverse of the grasp matrix ``w`` is differentiated through
    W+ = W' (W W')^-1; ``j0``/``j1`` are the end-effector Jacobians.  The
    eight joints' derivatives dW are one (8, 6, 12) stack, so each product
    and solve below is one stacked numpy call that makes, per joint, the
    same BLAS/LAPACK call as the 2-D form (one gemm, gemv or one-column
    gesv): the results are bit-identical to a loop over the joints.
    """
    s_mat = w @ w.T
    s_inv_h = np.linalg.solve(s_mat, h_o)

    dr0 = np.zeros((3, NUM_JOINTS))
    dr0[:2] = 0.5 * (j1 - j0)
    dw = np.zeros((NUM_JOINTS, 6, 12))
    zero = np.zeros(NUM_JOINTS)
    for col, (x, y, z) in ((0, dr0), (6, -dr0)):
        # Each joint's -skew(r), r its column: the skew-symmetric matrix of
        # r, then negated entry by entry, as the per-joint form did, so the
        # signs of its zeros match too.
        skew = np.array([[zero, -z, y], [z, zero, -x], [-y, x, zero]])
        dw[:, 3:, col:col + 3] = -skew.transpose(2, 0, 1)
    dw_t = dw.transpose(0, 2, 1)

    ds = dw @ w.T + w @ dw_t
    rhs = -(ds @ s_inv_h)
    solved = np.linalg.solve(np.broadcast_to(s_mat, ds.shape), rhs[..., None])
    dh = dw_t @ s_inv_h + (w.T @ solved)[..., 0]
    return np.stack([dh[:, 0:3].T, dh[:, 6:9].T])


def _com_gradient(config: ScenarioConfig, points) -> list:
    """Joint gradients (8 floats each) of the centre of mass's x and y; its
    z is fixed."""
    scale = config.link_mass / config.robot_mass
    d_com_x, d_com_y = [0.0] * NUM_JOINTS, [0.0] * NUM_JOINTS
    for arm_index, arm_points in enumerate(points):
        rows = arm_points.tolist()
        for link, ((ax, ay), (bx, by)) in enumerate(zip(rows, rows[1:])):
            # The link midpoint's Jacobian entries, computed as
            # kinematics.point_jacobian(points, link, 0.5) computes them.
            # Its zero columns (distal joints, the other arm) would add
            # scale * 0.0, which leaves a sum that starts at 0.0 unchanged.
            px = ax + 0.5 * (bx - ax)
            py = ay + 0.5 * (by - ay)
            for j, (jx, jy) in enumerate(rows[:link + 1],
                                         arm_index * kin.NUM_LINKS):
                d_com_x[j] += scale * -(py - jy)
                d_com_y[j] += scale * (px - jx)
    return [d_com_x, d_com_y]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _chain_values(ctx: StepContext, x: np.ndarray) -> dict:
    """Value pass of the ZMP chain at decision vector ``x``.

    Forward kinematics runs once per arm; the end effectors, the grasp
    matrix, the hand load forces, the contact gaps, the centre of mass and
    the ZMP all come from those joint points.  ``load_points`` and ``loads``
    are four [x, y, z] lists, the hands' rows, then the supports'; the ZMP
    is ``statics.compute_zmp`` of all four, the FZMP of the hands' two.
    ``normals`` holds each support's (cos, sin) of its normal angle.

    The NLP rows follow: ``cost`` without its slack term, ``equalities``
    (grasp closure) and ``inequalities``: gamma (2), s, s - gamma.phi, safe
    circle, object deviation, phi (2).  Their arrays are read-only.
    """
    config = ctx.config
    plane = config.plane_height
    dtheta, gamma, slack = x[:NUM_JOINTS], x[NUM_JOINTS:-1], float(x[-1])
    points = config.joint_points(ctx.theta + dtheta)
    ee0, ee1 = points[0][-1], points[1][-1]

    hands, grasp, h_c = st.bar_grasp((ee0, ee1), plane, config.object_wrench)
    gaps = [ct.edge_gap(arm_points, config.contact_link_index,
                        config.link_radius, edge)
            for arm_points, edge in zip(points, ctx.edges)]
    angles = [res.normal_angle for res in gaps]
    normals = list(zip(np.cos(angles).tolist(), np.sin(angles).tolist()))
    load_points = [*hands.tolist(),
                   *([*edge.tolist(), plane] for edge in ctx.edges)]
    # Built without the non-negativity guard of support_force_vector so that
    # intermediate iterates with small negative gamma stay differentiable.
    loads = [h_c[0:3].tolist(), h_c[6:9].tolist(),
             *([g * c, g * s, g * 0.0] for g, (c, s) in zip(gamma.tolist(), normals))]

    com = st.robot_center_of_mass(config.torso_mass, config.torso_position,
                                  config.link_mass, points, plane)
    zmp_result = st.compute_zmp(config.robot_weight, com, load_points, loads)

    p_obj = 0.5 * (ee0 + ee1)
    err = ctx.waypoint - p_obj
    phi = np.array([res.gap for res in gaps])
    safe_dist, safe_dir = _smooth_norm(zmp_result.zmp - config.sp_center)
    dev_dist, dev_dir = _smooth_norm(p_obj - ctx.waypoint)
    rows = np.zeros(6 + NUM_CONTACTS)
    rows[0:2] = gamma
    rows[2] = slack
    rows[3] = slack - float(gamma @ phi)
    rows[4] = config.safe_radius - safe_dist
    rows[5] = config.object_radius - dev_dist
    rows[6:] = phi
    return {
        "points": points, "dtheta": dtheta.copy(), "gamma": gamma.copy(),
        "object_position": p_obj, "grasp": grasp, "gaps": gaps, "phi": phi,
        "normals": normals, "load_points": load_points, "loads": loads,
        "com": com, "zmp_result": zmp_result,
        "safe_dir": safe_dir, "dev_dir": dev_dir,
        "cost": (config.weight_position * float(err @ err)
                 + config.weight_displacement * float(dtheta @ dtheta)),
        "equalities": _read_only(
            ee0 - ee1 + np.array([config.grasp_separation, 0.0])),
        "inequalities": _read_only(rows),
    }


def _chain_derivatives(ctx: StepContext, chain: dict) -> dict:
    """Derivative pass: joint and force gradients of a value pass's results.

    Returns the end-effector Jacobians (2, 8) each, the gap gradients
    ``d_phi`` (2, 8), the ZMP gradients w.r.t. joints (2, 8) and forces
    (2, 2), and the NLP's ``cost_grad`` (its slack entry 0),
    ``equality_jac`` and ``inequality_jac``, the last two read-only.  Works
    from the value pass's joint points and never reruns forward kinematics.
    """
    config = ctx.config
    points = chain["points"]
    j0 = _embed(kin.point_jacobian(points[0], kin.NUM_LINKS - 1, 1.0), 0)
    j1 = _embed(kin.point_jacobian(points[1], kin.NUM_LINKS - 1, 1.0), 1)
    d_forces = _grasp_force_gradients(config.object_wrench, chain["grasp"],
                                      j0, j1).tolist()
    gap_grads = [_gap_gradients(arm_points, config.contact_link_index, edge, res)
                 for arm_points, edge, res in zip(points, ctx.edges, chain["gaps"])]
    fz = float(chain["zmp_result"].ground_force[2])
    weight_z = float(config.robot_weight[2])
    d_com_x, d_com_y = _com_gradient(config, points)

    # Horizontal moment (x, y) and vertical force gradients, one entry per
    # joint.  CoM term: cross(com, (0, 0, weight_z)) has horizontal part
    # (com_y * weight_z, -com_x * weight_z); adding it to 0.0 turns a -0.0
    # into 0.0, so no sum below can be -0.0.
    d_mx = [0.0 + weight_z * d for d in d_com_y]
    d_my = [0.0 + -weight_z * d for d in d_com_x]
    d_fz = [0.0] * NUM_JOINTS

    # The hands' rows of the loads come first, then the supports'.
    load_points, loads = chain["load_points"], chain["loads"]
    for (px, py, pz), (fx, fy, f_z), ee_jac, (dfx, dfy, dfz) in zip(
            load_points[:2], loads[:2], (j0, j1), d_forces):
        jx, jy = ee_jac.tolist()
        # d cross(p, f) = cross(dp, f) + cross(p, df), horizontal rows, with
        # the terms of dp_z = 0.0 (the hands stay on the plane) written out.
        for j in range(NUM_JOINTS):
            d_mx[j] += jy[j] * f_z - pz * dfy[j] + py * dfz[j] - 0.0 * fy
            d_my[j] += 0.0 * fx + pz * dfx[j] - jx[j] * f_z - px * dfz[j]
            # ground_force = -(weight + sum f): d fz = -d sum f_z.
            d_fz[j] += -dfz[j]

    d_phi = np.zeros((NUM_CONTACTS, NUM_JOINTS))
    d_mx_gamma, d_my_gamma = [], []
    for i, ((d_gap, d_beta), g, (c, s), (_, _, pz)) in enumerate(zip(
            gap_grads, chain["gamma"].tolist(), chain["normals"],
            load_points[2:])):
        offset = i * kin.NUM_LINKS
        d_phi[i, offset:offset + kin.NUM_LINKS] = d_gap
        # The support force g (cos beta, sin beta, 0) turns with beta:
        # cross(p, df) horizontal rows with p constant and df planar.  The
        # other arm's columns would add +-0.0, which changes no sum that is
        # not -0.0.
        for j, d in enumerate(d_beta, offset):
            d_mx[j] += -pz * (g * (c * d))
            d_my[j] += pz * (g * (-s * d))
        d_mx_gamma.append(-pz * s)
        d_my_gamma.append(pz * c)

    # zmp = (M_y / fz, -M_x / fz); invert to reuse the computed value.
    zx, zy = chain["zmp_result"].zmp.tolist()
    moment_x, moment_y = -zy * fz, zx * fz
    fz_sq = fz * fz
    d_zmp_theta = np.array([
        [(my * fz - moment_y * dz) / fz_sq for my, dz in zip(d_my, d_fz)],
        [(-mx * fz + moment_x * dz) / fz_sq for mx, dz in zip(d_mx, d_fz)]])
    d_zmp_gamma = np.array([[my / fz for my in d_my_gamma],
                            [-mx / fz for mx in d_mx_gamma]])

    d_obj = 0.5 * (j0 + j1)
    err = ctx.waypoint - chain["object_position"]
    cost_grad = np.zeros(DECISION_DIM)
    cost_grad[:NUM_JOINTS] = (-2.0 * config.weight_position * (err @ d_obj)
                              + 2.0 * config.weight_displacement * chain["dtheta"])
    equality_jac = np.zeros((2, DECISION_DIM))
    equality_jac[:, :NUM_JOINTS] = j0 - j1

    safe_dir = chain["safe_dir"]
    jac = np.zeros((6 + NUM_CONTACTS, DECISION_DIM))
    jac[0, NUM_JOINTS] = 1.0
    jac[1, NUM_JOINTS + 1] = 1.0
    jac[2, -1] = 1.0
    jac[3, :NUM_JOINTS] = -(chain["gamma"] @ d_phi)
    jac[3, NUM_JOINTS:NUM_JOINTS + NUM_CONTACTS] = -chain["phi"]
    jac[3, -1] = 1.0
    jac[4, :NUM_JOINTS] = -(safe_dir @ d_zmp_theta)
    jac[4, NUM_JOINTS:NUM_JOINTS + NUM_CONTACTS] = -(safe_dir @ d_zmp_gamma)
    jac[5, :NUM_JOINTS] = -(chain["dev_dir"] @ d_obj)
    jac[6:6 + NUM_CONTACTS, :NUM_JOINTS] = d_phi
    return {"ee_jacobians": (j0, j1), "d_phi": d_phi,
            "d_zmp_theta": d_zmp_theta, "d_zmp_gamma": d_zmp_gamma,
            "cost_grad": cost_grad, "equality_jac": _read_only(equality_jac),
            "inequality_jac": _read_only(jac)}


def _remember(memo: dict, x: np.ndarray, compute):
    """``memo``'s entry for ``x``, computed on a miss; the memo keeps the
    last ``_MEMO_POINTS`` points, keyed on ``x.tobytes()``.  A ``compute``
    that raises caches nothing."""
    key = x.tobytes()
    if key not in memo:
        memo[key] = compute()
        if len(memo) > _MEMO_POINTS:
            del memo[next(iter(memo))]
    return memo[key]


def _chain(ctx: StepContext, x: np.ndarray, derivatives: bool = False) -> dict:
    """The ZMP chain at ``x``, read from the context's memo when it holds x.

    The value pass runs once per point; the derivative pass runs the first
    time derivatives are asked for there.
    """
    x = np.asarray(x, dtype=float)
    chain = _remember(ctx.memo, x, lambda: _chain_values(ctx, x))
    if derivatives and "d_zmp_theta" not in chain:
        chain.update(_chain_derivatives(ctx, chain))
    return chain


# ---------------------------------------------------------------------------
# Cost, constraints, and their Jacobians over the decision vector
# ---------------------------------------------------------------------------

def build_step_nlp(ctx: StepContext, weight_slack: float) -> NlpProblem:
    """The NLP of the context's waypoint at slack weight ``weight_slack``.

    Each field reads the context's chain memo: value fields the value pass
    only, Jacobian fields the derivative pass too.  The stage adds its slack
    term, ``weight_slack * s`` to the cost and ``weight_slack`` as the cost
    gradient's last entry, and caches nothing of its own.
    """
    def cost(x):
        return _chain(ctx, x)["cost"] + weight_slack * float(x[-1])

    def cost_grad(x):
        grad = _chain(ctx, x, derivatives=True)["cost_grad"].copy()
        grad[-1] = weight_slack
        return _read_only(grad)

    def read(name, derivatives=False):
        return lambda x: _chain(ctx, x, derivatives)[name]

    return NlpProblem(
        dim=DECISION_DIM, cost=cost, cost_grad=cost_grad,
        equalities=read("equalities"), equality_jac=read("equality_jac", True),
        inequalities=read("inequalities"),
        inequality_jac=read("inequality_jac", True))


def evaluate_nlp(ctx: StepContext, x) -> dict:
    """The six ``NlpProblem`` fields at one decision vector, keyed by their
    names, at the configured slack weight; read through the context's
    memo, and read-only where they are arrays."""
    nlp = build_step_nlp(ctx, ctx.config.weight_slack)
    return {f.name: getattr(nlp, f.name)(x) for f in fields(NlpProblem)
            if f.name != "dim"}


def gradient_check(ctx: StepContext, decision: PlanDecision) -> float:
    """Largest relative error of the analytic derivatives vs central FD
    (``finite_difference_jacobian``'s step of 1e-6)."""
    x = decision.to_vector()
    values = evaluate_nlp(ctx, x)
    analytic = np.vstack([values["cost_grad"][None, :], values["equality_jac"],
                          values["inequality_jac"]])

    def stacked(v: np.ndarray) -> np.ndarray:
        values = evaluate_nlp(ctx, v)
        return np.concatenate([[values["cost"]], values["equalities"],
                               values["inequalities"]])

    numeric = finite_difference_jacobian(stacked, x)
    return relative_error(analytic, numeric)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a - n| / max(1, |n|), reduced to the maximum."""
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# Waypoint and path planning
# ---------------------------------------------------------------------------

def _seed_hessian(ctx: StepContext, x0: np.ndarray) -> np.ndarray:
    """Gauss-Newton matrix of the cost at the start of a solve.

    The force and slack variables enter the cost linearly (or not at all);
    their blocks get a small positive scale so the first QP steps stay
    constraint-limited rather than curvature-limited.
    """
    j0, j1 = _chain(ctx, x0, derivatives=True)["ee_jacobians"]
    d_obj = 0.5 * (j0 + j1)
    hess = np.eye(DECISION_DIM) * 1e-2
    hess[:NUM_JOINTS, :NUM_JOINTS] = (
        2.0 * ctx.config.weight_position * d_obj.T @ d_obj
        + 2.0 * ctx.config.weight_displacement * np.eye(NUM_JOINTS))
    return hess


def solve_step(ctx: StepContext) -> PlanDecision:
    """Solve the NLP of the context's waypoint from zero initial values.

    The slack weight is driven to its configured value through a short
    continuation (1e2, 1e4, ..., target), each stage warm-starting the next.
    A mild first stage lets force appear at a still-open gap, after which
    the bilinear complementarity coupling steers the gap shut; solving at
    the full weight from a cold start routinely stalls instead.  The
    reported decision is the final stage's solution of the target problem.

    Raises:
        ContactPlanError: from a stage's solve, with the waypoint, that
            stage's slack weight and the completed stages' iterations added
            to its diagnostics.
    """
    config = ctx.config
    x = np.zeros(DECISION_DIM)
    stages = [w for w in (1e2, 1e4) if w < config.weight_slack]
    stages.append(config.weight_slack)
    stage_iterations = []
    result = None
    for weight in stages:
        nlp = build_step_nlp(ctx, weight)
        try:
            result = solve_sqp(nlp, x, config.solver,
                               initial_hessian=_seed_hessian(ctx, x))
        except ContactPlanError as exc:
            exc.diagnostics.update(
                waypoint=ctx.waypoint.tolist(),
                slack_weight=weight, stage_iterations=stage_iterations)
            raise
        stage_iterations.append(result.iterations)
        x = result.x
    return PlanDecision.from_vector(
        result.x, cost=result.cost, kkt_residual=result.kkt_residual,
        iterations=sum(stage_iterations), converged=result.converged)


def _check_step(ctx: StepContext, decision: PlanDecision,
                chain: dict) -> list[str]:
    """The acceptance bounds a decision and its chain violate, as messages."""
    config = ctx.config
    tol = config.solver.tol_con
    failures = []
    if not decision.converged:
        failures.append("solver did not converge")
    deviation = float(np.linalg.norm(chain["object_position"] - ctx.waypoint))
    if deviation > config.object_radius + tol:
        failures.append(f"object deviation {deviation:.6f} m exceeds "
                        f"{config.object_radius} m")
    zmp_dist = float(np.linalg.norm(chain["zmp_result"].zmp - config.sp_center))
    if zmp_dist > config.safe_radius + tol:
        failures.append(f"ZMP {zmp_dist:.6f} m from target exceeds safe "
                        f"radius {config.safe_radius} m")
    feasible, violation = ct.complementarity_residual(
        chain["phi"], decision.gamma, decision.slack, tol_gap=1e-6, tol=tol)
    if not feasible:
        failures.append(f"complementarity violated by {violation:.3g}")
    if decision.slack > config.solver.slack_max + tol:
        failures.append(f"slack {decision.slack:.3g} exceeds "
                        f"{config.solver.slack_max:.3g}")
    return failures


def plan_waypoint(ctx: StepContext) -> PlanStep:
    """Plan the context's waypoint from its configuration.

    Raises:
        PlanStepError: solver non-convergence or a violated acceptance bound,
            with diagnostics attached.
    """
    config = ctx.config
    decision = solve_step(ctx)

    # Clamp solver noise on the bound-constrained variables: a magnitude
    # within tolerance of zero is an exactly-zero force or slack.
    tol = config.solver.tol_con
    gamma = np.where((decision.gamma < 0.0) & (decision.gamma > -tol),
                     0.0, decision.gamma)
    slack = 0.0 if -tol < decision.slack < 0.0 else decision.slack
    decision = replace(decision, gamma=gamma, slack=float(slack))

    # The solver's last point when the clamp changed nothing: a memo hit.
    chain = _chain(ctx, decision.to_vector())
    fzmp = st.compute_zmp(config.robot_weight, chain["com"],
                          chain["load_points"][:2], chain["loads"][:2])
    failures = _check_step(ctx, decision, chain)
    if failures:
        raise PlanStepError(
            "waypoint rejected: " + "; ".join(failures),
            diagnostics={
                "waypoint": ctx.waypoint.tolist(),
                "failures": failures,
                "iterations": decision.iterations,
                "kkt_residual": decision.kkt_residual,
                "cost": decision.cost,
                "slack": decision.slack,
            })
    return PlanStep(waypoint=ctx.waypoint, decision=decision,
                    theta_after=ctx.theta + decision.dtheta,
                    object_position=chain["object_position"],
                    contacts=tuple(chain["gaps"]), zmp=chain["zmp_result"],
                    fzmp=fzmp, joint_points=chain["points"],
                    hand_loads=np.array(chain["loads"][:2]))


def _two_segment_angles(config: ScenarioConfig, arm_index: int,
                        grasp: np.ndarray) -> np.ndarray:
    """Elbow-out bent-arm pose: links pair into shoulder and forearm
    segments, which ``ScenarioConfig`` has checked can reach ``grasp``."""
    base = config.arm_bases[arm_index]
    target = grasp - base
    dist = float(np.linalg.norm(target))
    upper, fore = config.segment_lengths
    cos_elbow = (dist * dist - upper * upper - fore * fore) / (2 * upper * fore)
    cos_elbow = min(max(cos_elbow, -1.0), 1.0)
    sign = 1.0 if base[0] >= 0.0 else -1.0
    elbow = sign * float(np.arccos(cos_elbow))
    shoulder = float(np.arctan2(target[1], target[0])) - float(
        np.arctan2(fore * np.sin(elbow), upper + fore * np.cos(elbow)))
    angles = np.zeros(kin.NUM_LINKS)
    angles[0] = shoulder
    angles[2] = elbow
    return angles


def _settle_on_edge(config: ScenarioConfig, arm_index: int, edge: np.ndarray,
                    grasp: np.ndarray, start: np.ndarray) -> np.ndarray | None:
    """Refine one arm's pose so its contact link rests on the edge point.

    Minimizes the distance to the starting pose subject to the hand staying
    on the grasp point and the link capsule touching the edge (gap zero).
    Returns None when no touching pose is found.
    """
    base = config.arm_bases[arm_index]
    link = config.contact_link_index
    # The residuals and their Jacobian share one forward kinematics per pose.
    memo = {}

    def pose(q: np.ndarray) -> tuple:
        def compute():
            points = kin.forward_kinematics(base, config.link_lengths, q)
            return points, ct.edge_gap(points, link, config.link_radius, edge)
        return _remember(memo, q, compute)

    def residuals(q: np.ndarray) -> np.ndarray:
        points, res = pose(q)
        ee = points[-1]
        return np.array([ee[0] - grasp[0], ee[1] - grasp[1], res.gap])

    def residual_jac(q: np.ndarray) -> np.ndarray:
        points, res = pose(q)
        jac = np.zeros((3, kin.NUM_LINKS))
        jac[:2] = kin.point_jacobian(points, kin.NUM_LINKS - 1, 1.0)
        jac[2], _ = _gap_gradients(points, link, edge, res)
        return jac

    nlp = NlpProblem(
        dim=kin.NUM_LINKS,
        cost=lambda q: float((q - start) @ (q - start)),
        cost_grad=lambda q: 2.0 * (q - start),
        equalities=residuals, equality_jac=residual_jac)
    result = solve_sqp(nlp, start, SolverSettings())
    if result.converged and result.constraint_violation <= 1e-8:
        return result.x
    return None


def initial_joint_angles(config: ScenarioConfig) -> np.ndarray:
    """Starting configuration: hands on the bar, contact links on the ports.

    Each arm first takes an elbow-out bent pose reaching its grasp point,
    then is settled so the contact link rests against the nearer port edge
    (the natural entry state for arms inserted through the ports, and the
    posture from which support forces can build up symmetrically).  If no
    touching pose exists the bent pose is kept.  Every ``ScenarioConfig``
    has a bent pose: its construction rejects start grasp points out of
    reach or inside the shoulder-forearm dead zone.
    """
    grasps = config.grasp_points(config.initial_center)
    bent = [_two_segment_angles(config, i, grasps[i]) for i in range(2)]
    edges = ct.active_edges(
        config.joint_points(np.concatenate(bent)), config.contact_link_index,
        config.link_radius, config.port_edges)
    theta = np.zeros(NUM_JOINTS)
    for arm_index, edge in enumerate(edges):
        offset = arm_index * kin.NUM_LINKS
        settled = _settle_on_edge(config, arm_index, edge, grasps[arm_index],
                                  bent[arm_index])
        theta[offset:offset + kin.NUM_LINKS] = \
            bent[arm_index] if settled is None else settled
    return theta


def plan_path(config: ScenarioConfig, theta0=None) -> list[PlanStep]:
    """Plan the configured straight path, one step per waypoint.

    Each step is warm-started from the previous configuration with zero
    initial decision values.  The first failing step aborts the plan.
    Reach, balance geometry and the vertical load were checked when the
    config was constructed; planning does not check them again.

    Raises:
        PlanStepError: a step failed; ``partial_steps`` holds the trace so
            far and ``waypoint_index`` names the step.
        ValueError: ``theta0`` is not 8 finite joint angles.
    """
    theta = np.asarray(theta0, dtype=float) if theta0 is not None \
        else initial_joint_angles(config)
    steps: list[PlanStep] = []
    for index, waypoint in enumerate(config.waypoints()):
        try:
            step = plan_waypoint(StepContext(config, theta, waypoint))
        except ContactPlanError as exc:
            raise PlanStepError(
                f"step {index} failed: {exc}", waypoint_index=index,
                diagnostics=exc.diagnostics,
                partial_steps=steps) from exc
        steps.append(step)
        theta = step.theta_after
    return steps
