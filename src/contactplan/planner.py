"""Per-waypoint planning: the relaxed complementarity NLP and the path loop.

Each waypoint is planned by one NLP over the decision vector

    x = [dtheta (8), gamma (2), s (1)]

where dtheta are joint displacements for both arms (left then right), gamma
are the support-force magnitudes of the two active contact candidates, and s
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
(``_chain_values``: forward kinematics once per arm, loads, gaps, statics
state, ZMP) and a derivative pass (``_chain_derivatives``: the Jacobians,
from the value pass's joint points).  The solver's value callbacks read the
value pass only; its Jacobian callbacks add the derivative pass at their
point, which the SQP asks for at start points and accepted iterates.  Each
``StepContext`` memoizes the chains of its last two points, shared by every
continuation stage and the post-solve observables (the evaluate-once
interface of IPOPT and CasADi).
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import contact as ct
from . import kinematics as kin
from . import statics as st
from .errors import ContactPlanError, PlanStepError, ReachabilityError
from .scenario import ScenarioConfig
from .sqp import NlpProblem, SolverSettings, finite_difference_jacobian, solve_sqp

NUM_JOINTS = 2 * kin.NUM_LINKS
NUM_CONTACTS = 2
DECISION_DIM = NUM_JOINTS + NUM_CONTACTS + 1

# Smoothing for norm-type constraint rows: keeps the gradient defined when a
# point sits exactly on its target while shifting values by less than 1e-12.
_NORM_EPS = 1e-12


@dataclass(frozen=True)
class PlanningProblem:
    """Weights and targets of one waypoint solve."""

    weight_position: float
    weight_displacement: float
    weight_slack: float
    safe_radius: float
    object_radius: float
    target_object_position: np.ndarray
    zmp_target: np.ndarray
    grasp_separation: float

    def __post_init__(self):
        for name in ("weight_position", "weight_displacement", "weight_slack",
                     "safe_radius", "object_radius"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "target_object_position",
                           np.asarray(self.target_object_position, dtype=float))
        object.__setattr__(self, "zmp_target",
                           np.asarray(self.zmp_target, dtype=float))


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

    @staticmethod
    def zeros() -> "PlanDecision":
        return PlanDecision(dtheta=np.zeros(NUM_JOINTS),
                            gamma=np.zeros(NUM_CONTACTS), slack=0.0)

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
    """Scenario state a single waypoint solve works against.

    ``memo`` holds the ZMP chain of the last points evaluated against this
    context (see ``_chain``); the chain depends on the context and the
    decision vector only, so every continuation stage and the post-solve
    observables share it.
    """

    config: ScenarioConfig
    theta: np.ndarray                      # (8,) current joint angles
    candidates: tuple                      # one active ContactCandidate per arm
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if self.theta.shape != (NUM_JOINTS,):
            raise ValueError(f"theta must have shape ({NUM_JOINTS},)")

    def arms_at(self, dtheta=None) -> tuple:
        theta = self.theta if dtheta is None else self.theta + dtheta
        return (self.config.arm(0, theta[:kin.NUM_LINKS]),
                self.config.arm(1, theta[kin.NUM_LINKS:]))


@dataclass(frozen=True)
class PlanStep:
    """Accepted result of one waypoint: new configuration and observables."""

    waypoint: np.ndarray
    decision: PlanDecision
    theta_after: np.ndarray
    object_position: np.ndarray
    contacts: tuple
    zmp: st.ZmpResult
    fzmp: st.ZmpResult


def build_context(config: ScenarioConfig, theta) -> StepContext:
    """Select the active port edges at ``theta`` and freeze them for a solve."""
    arms = (config.arm(0, np.asarray(theta)[:kin.NUM_LINKS]),
            config.arm(1, np.asarray(theta)[kin.NUM_LINKS:]))
    candidates = ct.select_active_candidates(
        arms, config.port_edges, link_index=config.contact_link_index)
    return StepContext(config=config, theta=np.asarray(theta, dtype=float),
                       candidates=tuple(candidates))


def problem_for_waypoint(config: ScenarioConfig, waypoint) -> PlanningProblem:
    return PlanningProblem(
        weight_position=config.weight_position,
        weight_displacement=config.weight_displacement,
        weight_slack=config.weight_slack,
        safe_radius=config.safe_radius,
        object_radius=config.object_radius,
        target_object_position=waypoint,
        zmp_target=config.sp_center,
        grasp_separation=config.grasp_separation)


# ---------------------------------------------------------------------------
# The ZMP chain: a value pass and a derivative pass
# ---------------------------------------------------------------------------

# Points a context's chain memo keeps: the line search's expansion loop
# evaluates its rejected trial after the accepted one.
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


def _contact_gap(points: np.ndarray, link_radius: float, candidate) -> kin.GapResult:
    """Gap and normal angle of one candidate from its arm's joint points."""
    link = candidate.link_index
    return kin.signed_gap(candidate.edge_point,
                          kin.Segment(points[link], points[link + 1]), link_radius)


def _gap_gradients(points: np.ndarray, candidate,
                   res: kin.GapResult) -> tuple[np.ndarray, np.ndarray]:
    """Joint gradients (4,) of a candidate's gap and normal angle.

    The closest-point parameter along the link both moves the material point
    and slides along the axis; the sliding term vanishes from the gap
    gradient (the axis direction is orthogonal to the separation) but not
    from the normal-angle gradient.
    """
    link = candidate.link_index
    edge = candidate.edge_point
    a = points[link]
    jac_a = kin.point_jacobian(points, link, 0.0)
    jac_b = kin.point_jacobian(points, link, 1.0)
    axis = points[link + 1] - a
    t = res.axis_param
    d_closest = (1.0 - t) * jac_a + t * jac_b
    if 0.0 < t < 1.0:
        dt = (-(axis @ jac_a) + (edge - a) @ (jac_b - jac_a)) / float(axis @ axis)
        d_closest = d_closest + np.outer(axis, dt)
    v = res.closest_point - edge
    dist = max(float(np.linalg.norm(v)), 1e-12)
    d_gap = (v / dist) @ d_closest
    d_beta = (v[0] * d_closest[1] - v[1] * d_closest[0]) / (dist * dist)
    return d_gap, d_beta


def _grasp_force_gradients(h_o: np.ndarray, grasp: st.GraspMap, j0, j1) -> np.ndarray:
    """(2, 3, 8) joint gradients of the per-hand load forces.

    The pseudo-inverse of the grasp map is differentiated through
    W+ = W' (W W')^-1; ``j0``/``j1`` are the end-effector Jacobians.
    """
    w = grasp.w_c
    s_mat = w @ w.T
    s_inv_h = np.linalg.solve(s_mat, h_o)

    dr0 = np.zeros((3, NUM_JOINTS))
    dr0[:2] = 0.5 * (j1 - j0)
    dr1 = -dr0

    d_forces = np.zeros((2, 3, NUM_JOINTS))
    for j in range(NUM_JOINTS):
        dw = np.zeros((6, 12))
        dw[3:, 0:3] = -st.skew(dr0[:, j])
        dw[3:, 6:9] = -st.skew(dr1[:, j])
        ds = dw @ w.T + w @ dw.T
        dh = dw.T @ s_inv_h + w.T @ np.linalg.solve(s_mat, -(ds @ s_inv_h))
        d_forces[0, :, j] = dh[0:3]
        d_forces[1, :, j] = dh[6:9]
    return d_forces


def _com_gradient(ctx: StepContext, points) -> np.ndarray:
    """(3, 8) joint gradient of the centre of mass (z fixed)."""
    model = ctx.config.mass_model
    total = ctx.config.robot_mass
    d_com = np.zeros((3, NUM_JOINTS))
    for arm_index, arm_points in enumerate(points):
        for link in range(kin.NUM_LINKS):
            jac = _embed(kin.point_jacobian(arm_points, link, 0.5), arm_index)
            d_com[:2] += (model.link_mass / total) * jac
    return d_com


def _split(x: np.ndarray):
    return x[:NUM_JOINTS], x[NUM_JOINTS:NUM_JOINTS + NUM_CONTACTS], float(x[-1])


def _chain_values(ctx: StepContext, x: np.ndarray) -> dict:
    """Value pass of the ZMP chain at decision vector ``x``.

    Forward kinematics runs once per arm; the end effectors, hand load
    forces, contact gaps, wrench lists, statics state and ZMP all come from
    those joint points.  The ZMP is ``statics.compute_zmp`` of the same
    wrench list the derivative pass differentiates.
    """
    config = ctx.config
    plane = config.plane_height
    dtheta, gamma, _ = _split(x)
    points = [kin.forward_kinematics(arm) for arm in ctx.arms_at(dtheta)]
    ee0, ee1 = points[0][-1], points[1][-1]

    origin = 0.5 * (ee0 + ee1)
    p0 = np.array([ee0[0], ee0[1], plane])
    p1 = np.array([ee1[0], ee1[1], plane])
    o3 = np.array([origin[0], origin[1], plane])
    grasp = st.GraspMap(r_c1=o3 - p0, r_c2=o3 - p1)
    h_c = st.distribute_object_wrench(grasp, config.object_wrench)
    forces = np.array([h_c[0:3], h_c[6:9]])
    gaps = [_contact_gap(points[cand.arm_index], config.link_radius, cand)
            for cand in ctx.candidates]

    object_wrenches = [
        st.AppliedWrench(position=np.array([ee[0], ee[1], plane]),
                         force=forces[i])
        for i, ee in enumerate((ee0, ee1))]
    # Built without the non-negativity guard of support_force_vector so that
    # intermediate iterates with small negative gamma stay differentiable.
    support_wrenches = [
        st.AppliedWrench(
            position=np.array([cand.edge_point[0], cand.edge_point[1], plane]),
            force=config.support_force_scale * float(g) * np.array(
                [np.cos(res.normal_angle), np.sin(res.normal_angle), 0.0]))
        for cand, res, g in zip(ctx.candidates, gaps, gamma)]

    state = config.statics_state(points)
    zmp_result = st.compute_zmp(state, object_wrenches + support_wrenches)
    return {
        "points": points, "gamma": gamma.copy(), "end_effectors": (ee0, ee1),
        "grasp": grasp, "gaps": gaps, "phi": np.array([res.gap for res in gaps]),
        "object_wrenches": object_wrenches, "state": state,
        "zmp_result": zmp_result,
    }


def _chain_derivatives(ctx: StepContext, chain: dict) -> dict:
    """Derivative pass: joint and force gradients of a value pass's results.

    Returns the end-effector Jacobians (2, 8) each, the gap gradients
    ``d_phi`` (2, 8) and the ZMP gradients w.r.t. joints (2, 8) and forces
    (2, 2).  Works from the value pass's joint points and never reruns
    forward kinematics.
    """
    config = ctx.config
    plane = config.plane_height
    points = chain["points"]
    j0 = _embed(kin.point_jacobian(points[0], kin.NUM_LINKS - 1, 1.0), 0)
    j1 = _embed(kin.point_jacobian(points[1], kin.NUM_LINKS - 1, 1.0), 1)
    d_forces = _grasp_force_gradients(config.object_wrench, chain["grasp"], j0, j1)
    gap_grads = [_gap_gradients(points[cand.arm_index], cand, res)
                 for cand, res in zip(ctx.candidates, chain["gaps"])]
    zmp_result = chain["zmp_result"]
    fz = float(zmp_result.ground_force[2])

    d_com = _com_gradient(ctx, points)
    weight_z = -config.robot_mass * config.gravity

    # Horizontal moment (x, y) and vertical force gradients.
    d_moment = np.zeros((2, NUM_JOINTS))
    d_fz = np.zeros(NUM_JOINTS)
    d_moment_gamma = np.zeros((2, NUM_CONTACTS))

    # CoM term: cross(com, (0, 0, weight_z)) has horizontal part
    # (com_y * weight_z, -com_x * weight_z).
    d_moment[0] += weight_z * d_com[1]
    d_moment[1] += -weight_z * d_com[0]

    ee_jacs = (j0, j1)
    for i, wrench in enumerate(chain["object_wrenches"]):
        pos, force = wrench.position, wrench.force
        d_pos = np.zeros((3, NUM_JOINTS))
        d_pos[:2] = ee_jacs[i]
        df = d_forces[i]
        # d cross(p, f) = cross(dp, f) + cross(p, df), horizontal rows.
        d_moment[0] += d_pos[1] * force[2] - pos[2] * df[1] + pos[1] * df[2] \
            - d_pos[2] * force[1]
        d_moment[1] += d_pos[2] * force[0] + pos[2] * df[0] - d_pos[0] * force[2] \
            - pos[0] * df[2]
        # ground_force = -(weight + sum f): d fz = -d sum f_z.
        d_fz += -df[2]

    scale = config.support_force_scale
    d_phi = np.zeros((NUM_CONTACTS, NUM_JOINTS))
    for i, (cand, res, (d_gap, d_beta), g) in enumerate(
            zip(ctx.candidates, chain["gaps"], gap_grads, chain["gamma"])):
        d_phi[i] = _embed(d_gap[None, :], cand.arm_index)[0]
        pos = np.array([cand.edge_point[0], cand.edge_point[1], plane])
        unit = np.array([np.cos(res.normal_angle), np.sin(res.normal_angle), 0.0])
        d_unit = np.outer(np.array([-unit[1], unit[0], 0.0]), d_beta)
        df_theta = scale * float(g) * d_unit          # (3, 4) in arm columns
        df_theta = _embed(df_theta[:2], cand.arm_index)  # planar rows only
        # cross(p, f) horizontal rows with p constant, f planar (f_z = 0).
        d_moment[0] += -pos[2] * df_theta[1]
        d_moment[1] += pos[2] * df_theta[0]
        d_moment_gamma[0, i] = -pos[2] * scale * unit[1]
        d_moment_gamma[1, i] = pos[2] * scale * unit[0]

    # zmp = (M_y / fz, -M_x / fz); invert to reuse the computed value.
    moment = np.array([-zmp_result.zmp[1] * fz, zmp_result.zmp[0] * fz])

    d_zmp_theta = np.zeros((2, NUM_JOINTS))
    d_zmp_theta[0] = (d_moment[1] * fz - moment[1] * d_fz) / (fz * fz)
    d_zmp_theta[1] = (-d_moment[0] * fz + moment[0] * d_fz) / (fz * fz)
    d_zmp_gamma = np.zeros((2, NUM_CONTACTS))
    d_zmp_gamma[0] = d_moment_gamma[1] / fz
    d_zmp_gamma[1] = -d_moment_gamma[0] / fz

    return {"ee_jacobians": (j0, j1), "d_phi": d_phi,
            "d_zmp_theta": d_zmp_theta, "d_zmp_gamma": d_zmp_gamma}


def _chain(ctx: StepContext, x: np.ndarray, derivatives: bool = False) -> dict:
    """The ZMP chain at ``x``, read from the context's memo when it holds x.

    The value pass runs once per point; the derivative pass runs the first
    time derivatives are asked for there.  The memo keeps the last
    ``_MEMO_POINTS`` points, keyed on ``x.tobytes()``; a pass that raises
    caches nothing.
    """
    key = x.tobytes()
    chain = ctx.memo.get(key)
    if chain is None:
        chain = _chain_values(ctx, x)
        ctx.memo[key] = chain
        if len(ctx.memo) > _MEMO_POINTS:
            del ctx.memo[next(iter(ctx.memo))]
    if derivatives and "d_zmp_theta" not in chain:
        chain.update(_chain_derivatives(ctx, chain))
    return chain


# ---------------------------------------------------------------------------
# Cost, constraints, and their Jacobians over the decision vector
# ---------------------------------------------------------------------------

def _read_only(values: dict) -> dict:
    for value in values.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return values


def _nlp_values(problem: PlanningProblem, x: np.ndarray, chain: dict) -> dict:
    """Cost, equalities and inequalities from a value pass."""
    dtheta, gamma, slack = _split(x)
    ee0, ee1 = chain["end_effectors"]
    p_obj = 0.5 * (ee0 + ee1)
    err = problem.target_object_position - p_obj
    cost = (problem.weight_position * float(err @ err)
            + problem.weight_displacement * float(dtheta @ dtheta)
            + problem.weight_slack * slack)

    phi = chain["phi"]
    safe_dist, _ = _smooth_norm(chain["zmp_result"].zmp - problem.zmp_target)
    dev_dist, _ = _smooth_norm(p_obj - problem.target_object_position)
    rows = np.zeros(6 + NUM_CONTACTS)
    rows[0:2] = gamma
    rows[2] = slack
    rows[3] = slack - float(gamma @ phi)
    rows[4] = problem.safe_radius - safe_dist
    rows[5] = problem.object_radius - dev_dist
    rows[6:] = phi
    return _read_only({
        "cost": cost,
        "equalities": ee0 - ee1 + np.array([problem.grasp_separation, 0.0]),
        "inequalities": rows})


def _nlp_jacobians(problem: PlanningProblem, x: np.ndarray, chain: dict) -> dict:
    """Cost gradient and constraint Jacobians from a chain with derivatives."""
    dtheta, gamma, _ = _split(x)
    ee0, ee1 = chain["end_effectors"]
    j0, j1 = chain["ee_jacobians"]
    p_obj = 0.5 * (ee0 + ee1)
    d_obj = 0.5 * (j0 + j1)
    err = problem.target_object_position - p_obj

    cost_grad = np.zeros(DECISION_DIM)
    cost_grad[:NUM_JOINTS] = (-2.0 * problem.weight_position * (err @ d_obj)
                              + 2.0 * problem.weight_displacement * dtheta)
    cost_grad[-1] = problem.weight_slack

    equality_jac = np.zeros((2, DECISION_DIM))
    equality_jac[:, :NUM_JOINTS] = j0 - j1

    d_phi = chain["d_phi"]
    _, safe_dir = _smooth_norm(chain["zmp_result"].zmp - problem.zmp_target)
    _, dev_dir = _smooth_norm(p_obj - problem.target_object_position)
    jac = np.zeros((6 + NUM_CONTACTS, DECISION_DIM))
    jac[0, NUM_JOINTS] = 1.0
    jac[1, NUM_JOINTS + 1] = 1.0
    jac[2, -1] = 1.0
    jac[3, :NUM_JOINTS] = -(gamma @ d_phi)
    jac[3, NUM_JOINTS:NUM_JOINTS + NUM_CONTACTS] = -chain["phi"]
    jac[3, -1] = 1.0
    jac[4, :NUM_JOINTS] = -(safe_dir @ chain["d_zmp_theta"])
    jac[4, NUM_JOINTS:NUM_JOINTS + NUM_CONTACTS] = -(safe_dir @ chain["d_zmp_gamma"])
    jac[5, :NUM_JOINTS] = -(dev_dir @ d_obj)
    jac[6:6 + NUM_CONTACTS, :NUM_JOINTS] = d_phi
    return _read_only({"cost_grad": cost_grad, "equality_jac": equality_jac,
                       "inequality_jac": jac})


def evaluate_nlp(problem: PlanningProblem, ctx: StepContext, x) -> dict:
    """Cost, constraints and all their derivatives at one decision vector.

    The keys are the ``NlpProblem`` field names: ``cost``, ``cost_grad``,
    ``equalities`` (grasp closure), ``equality_jac``, ``inequalities`` and
    ``inequality_jac``.  Inequality rows: gamma (2), s, s - gamma.phi, safe
    circle, object deviation, phi (2).  One value pass and one derivative
    pass of the ZMP chain, outside the context's memo; the arrays are
    read-only.
    """
    x = np.asarray(x, dtype=float)
    chain = _chain_values(ctx, x)
    chain.update(_chain_derivatives(ctx, chain))
    return {**_nlp_values(problem, x, chain), **_nlp_jacobians(problem, x, chain)}


_VALUE_FIELDS = ("cost", "equalities", "inequalities")


def build_step_nlp(problem: PlanningProblem, ctx: StepContext) -> NlpProblem:
    """The waypoint NLP over the context's chain memo.

    Value fields read only the value pass; Jacobian fields add the
    derivative pass at their point.  Each half of the assembly (values,
    Jacobians) is cached for the last point it was asked for.
    """
    last = {}

    def field(name):
        derivatives = name not in _VALUE_FIELDS
        assemble = _nlp_jacobians if derivatives else _nlp_values

        def read(x):
            x = np.asarray(x, dtype=float)
            key = x.tobytes()
            cached = last.get(derivatives)
            if cached is None or cached[0] != key:
                cached = last[derivatives] = (
                    key, assemble(problem, x, _chain(ctx, x, derivatives)))
            return cached[1][name]
        return read

    names = [f.name for f in fields(NlpProblem) if f.name != "dim"]
    return NlpProblem(dim=DECISION_DIM, **{name: field(name) for name in names})


def gradient_check(problem: PlanningProblem, ctx: StepContext,
                   decision: PlanDecision, fd_step: float = 1e-6) -> float:
    """Largest relative error of the analytic derivatives vs central FD."""
    x = decision.to_vector()
    values = evaluate_nlp(problem, ctx, x)
    analytic = np.vstack([values["cost_grad"][None, :], values["equality_jac"],
                          values["inequality_jac"]])

    def stacked(v: np.ndarray) -> np.ndarray:
        values = evaluate_nlp(problem, ctx, v)
        return np.concatenate([[values["cost"]], values["equalities"],
                               values["inequalities"]])

    numeric = finite_difference_jacobian(stacked, x, step=fd_step)
    return relative_error(analytic, numeric)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a - n| / max(1, |n|), reduced to the maximum."""
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# Waypoint and path planning
# ---------------------------------------------------------------------------

def _seed_hessian(problem: PlanningProblem, ctx: StepContext,
                  x0: np.ndarray) -> np.ndarray:
    """Gauss-Newton matrix of the cost at the start of a solve.

    The force and slack variables enter the cost linearly (or not at all);
    their blocks get a small positive scale so the first QP steps stay
    constraint-limited rather than curvature-limited.
    """
    j0, j1 = _chain(ctx, x0, derivatives=True)["ee_jacobians"]
    d_obj = 0.5 * (j0 + j1)
    hess = np.eye(DECISION_DIM) * 1e-2
    hess[:NUM_JOINTS, :NUM_JOINTS] = (
        2.0 * problem.weight_position * d_obj.T @ d_obj
        + 2.0 * problem.weight_displacement * np.eye(NUM_JOINTS))
    return hess


def solve_step(problem: PlanningProblem, ctx: StepContext,
               settings: SolverSettings,
               initial: PlanDecision | None = None) -> PlanDecision:
    """Solve one waypoint NLP; zero initial values unless given.

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
    initial = initial if initial is not None else PlanDecision.zeros()
    x = initial.to_vector()
    stages = [w for w in (1e2, 1e4) if w < problem.weight_slack]
    stages.append(problem.weight_slack)
    stage_iterations = []
    result = None
    for weight in stages:
        staged = replace(problem, weight_slack=weight)
        nlp = build_step_nlp(staged, ctx)
        try:
            result = solve_sqp(nlp, x, settings,
                               initial_hessian=_seed_hessian(staged, ctx, x))
        except ContactPlanError as exc:
            exc.diagnostics.update(
                waypoint=problem.target_object_position.tolist(),
                slack_weight=weight, stage_iterations=stage_iterations)
            raise
        stage_iterations.append(result.iterations)
        x = result.x
    return PlanDecision.from_vector(
        result.x, cost=result.cost, kkt_residual=result.kkt_residual,
        iterations=sum(stage_iterations), converged=result.converged)


def _check_step(problem: PlanningProblem, config: ScenarioConfig,
                decision: PlanDecision, contacts, zmp: st.ZmpResult,
                object_position: np.ndarray) -> list[str]:
    tol = config.solver.tol_con
    failures = []
    if not decision.converged:
        failures.append("solver did not converge")
    deviation = float(np.linalg.norm(
        object_position - problem.target_object_position))
    if deviation > problem.object_radius + tol:
        failures.append(f"object deviation {deviation:.6f} m exceeds "
                        f"{problem.object_radius} m")
    zmp_dist = float(np.linalg.norm(zmp.zmp - problem.zmp_target))
    if zmp_dist > problem.safe_radius + tol:
        failures.append(f"ZMP {zmp_dist:.6f} m from target exceeds safe "
                        f"radius {problem.safe_radius} m")
    phi = np.array([c.gap for c in contacts])
    feasible, violation = ct.complementarity_residual(
        phi, decision.gamma, decision.slack, tol_gap=1e-6, tol_force=tol,
        tol_comp=tol)
    if not feasible:
        failures.append(f"complementarity violated by {violation:.3g}")
    if decision.slack > config.solver.slack_max + tol:
        failures.append(f"slack {decision.slack:.3g} exceeds "
                        f"{config.solver.slack_max:.3g}")
    return failures


def plan_waypoint(ctx: StepContext, waypoint, settings: SolverSettings,
                  initial: PlanDecision | None = None) -> PlanStep:
    """Plan one waypoint from the context's configuration.

    Raises:
        PlanStepError: solver non-convergence or a violated acceptance bound,
            with diagnostics attached.
    """
    config = ctx.config
    problem = problem_for_waypoint(config, waypoint)
    decision = solve_step(problem, ctx, settings, initial)

    # Clamp solver noise on the bound-constrained variables: a magnitude
    # within tolerance of zero is an exactly-zero force or slack.
    gamma = np.where((decision.gamma < 0.0) & (decision.gamma > -settings.tol_con),
                     0.0, decision.gamma)
    slack = 0.0 if -settings.tol_con < decision.slack < 0.0 else decision.slack
    decision = replace(decision, gamma=gamma, slack=float(slack))

    theta_after = ctx.theta + decision.dtheta
    contacts = [state.with_force(float(g)) for state, g in zip(
        ct.evaluate_gaps(ctx.arms_at(decision.dtheta), ctx.candidates),
        decision.gamma)]
    # The solver's last point when the clamp changed nothing: a memo hit.
    chain = _chain(ctx, decision.to_vector())
    zmp = chain["zmp_result"]
    fzmp = st.compute_zmp(chain["state"], chain["object_wrenches"])
    ee0, ee1 = chain["end_effectors"]
    object_position = 0.5 * (ee0 + ee1)

    failures = _check_step(problem, config, decision, contacts, zmp,
                           object_position)
    if failures:
        raise PlanStepError(
            "waypoint rejected: " + "; ".join(failures),
            diagnostics={
                "waypoint": np.asarray(waypoint, dtype=float).tolist(),
                "failures": failures,
                "iterations": decision.iterations,
                "kkt_residual": decision.kkt_residual,
                "cost": decision.cost,
                "slack": decision.slack,
            })
    return PlanStep(waypoint=np.asarray(waypoint, dtype=float),
                    decision=decision, theta_after=theta_after,
                    object_position=object_position, contacts=tuple(contacts),
                    zmp=zmp, fzmp=fzmp)


def _two_segment_angles(config: ScenarioConfig, arm_index: int,
                        grasp: np.ndarray) -> np.ndarray:
    """Elbow-out bent-arm pose: links pair into shoulder and forearm
    segments."""
    base = config.arm_bases[arm_index]
    target = grasp - base
    dist = float(np.linalg.norm(target))
    upper = float(config.link_lengths[0] + config.link_lengths[1])
    fore = float(config.link_lengths[2] + config.link_lengths[3])
    if dist > upper + fore or dist < abs(upper - fore):
        raise ReachabilityError(
            f"initial grasp point {grasp} unreachable from base {base} "
            f"(distance {dist:.3f} m)")
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


def _settle_on_edge(config: ScenarioConfig, candidate: ct.ContactCandidate,
                    grasp: np.ndarray, start: np.ndarray) -> np.ndarray | None:
    """Refine one arm's pose so its contact link rests on the candidate edge.

    Minimizes the distance to the starting pose subject to the hand staying
    on the grasp point and the link capsule touching the edge (gap zero).
    Returns None when no touching pose is found.
    """
    arm_index = candidate.arm_index

    def residuals(q: np.ndarray) -> np.ndarray:
        points = kin.forward_kinematics(config.arm(arm_index, q))
        ee = points[-1]
        gap = _contact_gap(points, config.link_radius, candidate).gap
        return np.array([ee[0] - grasp[0], ee[1] - grasp[1], gap])

    def residual_jac(q: np.ndarray) -> np.ndarray:
        points = kin.forward_kinematics(config.arm(arm_index, q))
        jac = np.zeros((3, kin.NUM_LINKS))
        jac[:2] = kin.point_jacobian(points, kin.NUM_LINKS - 1, 1.0)
        jac[2], _ = _gap_gradients(
            points, candidate, _contact_gap(points, config.link_radius, candidate))
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
    touching pose exists the bent pose is kept.

    Raises:
        ReachabilityError: a grasp point outside the arm's workspace.
    """
    grasps = config.grasp_points(config.initial_center)
    bent = [_two_segment_angles(config, i, grasps[i]) for i in range(2)]
    arms = [config.arm(i, bent[i]) for i in range(2)]
    candidates = ct.select_active_candidates(
        arms, config.port_edges, link_index=config.contact_link_index)
    theta = np.zeros(NUM_JOINTS)
    for arm_index, candidate in enumerate(candidates):
        offset = arm_index * kin.NUM_LINKS
        settled = _settle_on_edge(config, candidate, grasps[arm_index],
                                  bent[arm_index])
        theta[offset:offset + kin.NUM_LINKS] = \
            bent[arm_index] if settled is None else settled
    return theta


def plan_path(config: ScenarioConfig, settings: SolverSettings | None = None,
              theta0=None) -> list[PlanStep]:
    """Plan the configured straight path, one step per waypoint.

    Each step is warm-started from the previous configuration with zero
    initial decision values.  The first failing step aborts the plan.

    Raises:
        ReachabilityError: a waypoint's grasp points exceed total arm reach.
        PlanStepError: a step failed; ``partial_steps`` holds the trace so
            far and ``waypoint_index`` names the step.
    """
    settings = settings if settings is not None else config.solver
    config.check_reach()
    theta = np.asarray(theta0, dtype=float) if theta0 is not None \
        else initial_joint_angles(config)
    steps: list[PlanStep] = []
    for index, waypoint in enumerate(config.waypoints()):
        ctx = build_context(config, theta)
        try:
            step = plan_waypoint(ctx, waypoint, settings)
        except ContactPlanError as exc:
            raise PlanStepError(
                f"step {index} failed: {exc}", waypoint_index=index,
                diagnostics=exc.diagnostics,
                partial_steps=steps) from exc
        steps.append(step)
        theta = step.theta_after
    return steps
