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
edges.  ``statics`` and ``contact`` own the grasp's and the gaps' values and
derivatives, which the chain composes.  Every constraint Jacobian is
analytic (the ZMP row differentiates the closed-form moment balance);
``gradient_check`` validates them against central finite differences.

The ZMP chain behind cost and constraints has two halves.  The joint half
(``_joint``) depends on the pose theta + dtheta alone and has three tiers:
the kinematic tier, forward kinematics once per arm, the bar's origin (the
object position), its error, the cost's position term and the equalities
(``_kinematic_values``); the value pass, the grasp (hand loads), the gaps,
the centre of mass and the object's deviation (``_joint_values``); and the
derivative pass, the Jacobians from those points and values, the position
term's gradient, the equality Jacobian and the hands' sums of the ZMP's
moment gradients (``_joint_derivatives``).  The force half (``_forces``)
adds gamma and s, with a value pass, the support loads, the ZMP and the
inequalities (``_force_values``), and a derivative pass, the supports'
terms added to a copy of the hands' sums for the inequality Jacobian
(``_force_derivatives``).  A ``StepContext``'s memo is the one cache of its
waypoint's NLP (the evaluate-once interface of IPOPT and CasADi): an entry
for each of its last 64 poses, with the joint half's tiers and the force
half of the last gamma and s there, each run the first time it is asked
for.  Every continuation stage and the post-solve observables read it.  A
line search that backtracks along one joint direction while only gamma and
s move reruns only the force half, and so does a trial whose step is below
an ulp of theta: its dtheta differs, its pose does not.  A trial the SQP
rejects on its cost and equalities alone runs only the kinematic tier.  The
cost and its gradient add their dtheta terms at the call.  Each NLP field
reads only what it depends on; Jacobians add the derivative passes, which
the SQP asks for at start points and accepted iterates.

Exactness rule: the SQP is sensitive to the last bit of the chain (an ulp
can flip a marginal solve), so the chain's small-array code (forward
kinematics, point Jacobians, gaps, grasp map, centre of mass, ZMP and the
derivative bookkeeping) does only its elementwise + - * / on Python floats,
in the order the numpy form did them: CPython and numpy both round each of
these once, without fused multiply-adds, so the bits stay the same.  Every
other operation stays a numpy call: ``@``, ``np.linalg.solve`` and ``norm``
(BLAS may fuse or reorder, so a 2-vector ``u @ v`` is not always
``u0*v0 + u1*v1``), ``np.cos``/``np.sin``/``np.arctan2`` (``math`` may round
differently) and reductions such as ``np.cumsum``; a numpy call may be
swapped only for the form numpy itself runs (``np.sqrt(v.dot(v))`` for a
1-D ``norm``).  ``tests/test_exactness.py`` holds the numpy forms and
compares them bit for bit.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import contact as ct
from . import kinematics as kin
from . import statics as st
from .errors import ContactPlanError, PlanStepError
from .scenario import ScenarioConfig, _read_only
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
    ``memo`` holds the ZMP chain, with the NLP rows, at the last poses
    theta + dtheta evaluated against this context, keyed on the pose's
    bytes: each one's joint half, in three tiers (kinematics, value pass,
    derivative pass) that each run the first time they are asked for, and
    the force half of its last gamma and s (see ``_joint`` and
    ``_forces``).  The chain depends on the context,
    the pose, gamma and s only, so every continuation stage, the
    post-solve observables and joint displacements that round to one pose
    share it.

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
    at ``theta_after`` and ``loads`` the chain's (4, 3) load rows there: the
    forces the object puts on the two hands, then the two support forces
    gamma (cos beta, sin beta, 0).  All come from the ZMP chain at the
    accepted point.
    """

    waypoint: np.ndarray
    decision: PlanDecision
    theta_after: np.ndarray
    object_position: np.ndarray
    contacts: tuple
    zmp: st.ZmpResult
    fzmp: st.ZmpResult
    joint_points: tuple
    loads: np.ndarray


# ---------------------------------------------------------------------------
# The ZMP chain: a joint half and a force half, each with a value pass and a
# derivative pass
# ---------------------------------------------------------------------------

# Poses a memo keeps: a stage that stagnates backtracks along one joint
# direction (up to 42 trials) at consecutive iterations, while only gamma
# and s move.
_POSES = 64


def _smooth_norm(v: np.ndarray) -> tuple[float, np.ndarray]:
    """sqrt(|v|^2 + eps^2) - eps and its gradient (zero at v = 0)."""
    root = float(np.sqrt(v @ v + _NORM_EPS * _NORM_EPS))
    return root - _NORM_EPS, v / root


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


def _kinematic_values(ctx: StepContext, pose: np.ndarray) -> dict:
    """Kinematic tier of the joint half at joint angles ``pose`` (theta +
    dtheta): all that the cost and the equalities read.

    Forward kinematics runs once per arm; the bar's origin (the object
    position) and its waypoint ``error`` come from the end effectors.
    ``position_cost`` is the cost's object-position term, and
    ``equalities`` (grasp closure) is read-only.
    """
    config = ctx.config
    points = config.joint_points(pose)
    ee0, ee1 = points[0][-1], points[1][-1]
    p_obj = st.bar_origin((ee0, ee1))
    err = ctx.waypoint - p_obj
    return {
        "points": points, "object_position": p_obj, "error": err,
        "position_cost": config.weight_position * float(err @ err),
        "equalities": _read_only(
            ee0 - ee1 + np.array([config.grasp_separation, 0.0])),
    }


def _joint_values(ctx: StepContext, joint: dict) -> dict:
    """Value pass of the joint half, from its kinematic tier ``joint``.

    The grasp (hand load forces), the contact gaps, the centre of mass and
    the object's deviation all come from the tier's joint points.
    ``load_points`` are four [x, y, z] lists, the hands' rows, then the
    supports'; ``hand_loads`` the hands' two force rows.  ``normals`` holds
    each support's (cos, sin) of its normal angle.
    """
    config = ctx.config
    plane = config.plane_height
    points = joint["points"]
    ee0, ee1 = points[0][-1], points[1][-1]

    grasp = st.bar_grasp((ee0, ee1), config.object_wrench)
    gaps = [ct.edge_gap(arm_points, config.contact_link_index,
                        config.link_radius, edge)
            for arm_points, edge in zip(points, ctx.edges)]
    angles = [res.normal_angle for res in gaps]
    com = st.robot_center_of_mass(config.torso_mass, config.torso_position,
                                  config.link_mass, points, plane)
    dev_dist, dev_dir = _smooth_norm(joint["object_position"] - ctx.waypoint)
    return {
        "grasp": grasp, "gaps": gaps, "phi": np.array([res.gap for res in gaps]),
        "normals": list(zip(np.cos(angles).tolist(), np.sin(angles).tolist())),
        "load_points": [[*point.tolist(), plane]
                        for point in (ee0, ee1, *ctx.edges)],
        "hand_loads": [grasp.wrenches[0:3].tolist(),
                       grasp.wrenches[6:9].tolist()],
        "com": com, "dev_dist": dev_dist, "dev_dir": dev_dir,
    }


def _joint_derivatives(ctx: StepContext, joint: dict) -> dict:
    """Derivative pass of the joint half, from its value pass's joint points.

    Returns the gap gradients ``d_phi`` (2, 8) and the normal angles'
    ``d_beta`` (4 floats per arm), the object position's ``d_obj`` (2, 8),
    the sums ``d_mx`` and ``d_my`` of the centre of mass's and the hands'
    terms of the horizontal moment gradients (8 floats each), the position
    cost's joint gradient ``position_grad`` (8,) and the read-only
    ``equality_jac``.
    """
    config = ctx.config
    points = joint["points"]
    # Each end effector's Jacobian in the 8 joint columns.
    zero = np.zeros((2, kin.NUM_LINKS))
    j0 = np.hstack([kin.point_jacobian(points[0], kin.NUM_LINKS - 1, 1.0), zero])
    j1 = np.hstack([zero, kin.point_jacobian(points[1], kin.NUM_LINKS - 1, 1.0)])
    d_forces = st.bar_grasp_gradients(joint["grasp"], j0, j1).tolist()
    (d_gap0, d_beta0), (d_gap1, d_beta1) = (
        ct.edge_gap_gradients(arm_points, config.contact_link_index, edge, res)
        for arm_points, edge, res in zip(points, ctx.edges, joint["gaps"]))
    weight_z = float(config.robot_weight[2])
    d_com_x, d_com_y = _com_gradient(config, points)

    # Moment gradients (x, y), one entry per joint.  CoM term: cross(com,
    # (0, 0, weight_z)) is (com_y * weight_z, -com_x * weight_z, 0); adding it
    # to 0.0 turns a -0.0 into 0.0, so no sum below can be -0.0.
    d_mx = [0.0 + weight_z * d for d in d_com_y]
    d_my = [0.0 + -weight_z * d for d in d_com_x]
    for (px, py, pz), (fx, fy, f_z), ee_jac, (dfx, dfy, dfz) in zip(
            joint["load_points"][:2], joint["hand_loads"], (j0, j1), d_forces):
        jx, jy = ee_jac.tolist()
        # d cross(p, f) = cross(dp, f) + cross(p, df), horizontal rows, with
        # the terms of dp_z = 0.0 (the hands stay on the plane) written out.
        for j in range(NUM_JOINTS):
            d_mx[j] += jy[j] * f_z - pz * dfy[j] + py * dfz[j] - 0.0 * fy
            d_my[j] += 0.0 * fx + pz * dfx[j] - jx[j] * f_z - px * dfz[j]

    d_phi = np.array([d_gap0 + [0.0] * kin.NUM_LINKS,
                      [0.0] * kin.NUM_LINKS + d_gap1])
    d_obj = 0.5 * (j0 + j1)
    equality_jac = np.hstack([j0 - j1, np.zeros((2, DECISION_DIM - NUM_JOINTS))])
    return {"d_phi": d_phi, "d_beta": [d_beta0, d_beta1], "d_obj": d_obj,
            "d_mx": d_mx, "d_my": d_my,
            "position_grad": -2.0 * config.weight_position * (joint["error"] @ d_obj),
            "equality_jac": _read_only(equality_jac)}


def _force_values(ctx: StepContext, joint: dict, x: np.ndarray) -> dict:
    """Value pass of the force half at decision vector ``x``, from the
    joint half ``joint`` at x's pose.

    ``loads`` are the hands' rows, then the supports', and ``zmp_result``
    is ``statics.compute_zmp`` of all four.  ``inequalities`` (read-only):
    gamma (2), s, s - gamma.phi, safe circle, object deviation, phi (2).
    """
    config = ctx.config
    gamma, slack = x[NUM_JOINTS:-1], float(x[-1])
    phi = joint["phi"]
    # A support force is the full normal force of its magnitude; a negative
    # magnitude at an intermediate iterate stays differentiable.
    loads = [*joint["hand_loads"],
             *([g * c, g * s, g * 0.0]
               for g, (c, s) in zip(gamma.tolist(), joint["normals"]))]
    zmp_result = st.compute_zmp(config.robot_weight, joint["com"],
                                joint["load_points"], loads)

    safe_dist, safe_dir = _smooth_norm(zmp_result.zmp - config.sp_center)
    rows = np.array([*gamma.tolist(), slack, slack - float(gamma @ phi),
                     config.safe_radius - safe_dist,
                     config.object_radius - joint["dev_dist"], *phi.tolist()])
    return {"gamma": gamma.copy(), "loads": loads, "zmp_result": zmp_result,
            "safe_dir": safe_dir, "inequalities": _read_only(rows)}


def _force_derivatives(ctx: StepContext, joint: dict, forces: dict) -> dict:
    """Derivative pass of the force half, from its value pass ``forces``
    and the derivative pass of its joint half ``joint``.

    Returns the ZMP gradients w.r.t. joints (2, 8) and forces (2, 2) and
    the read-only ``inequality_jac``.  The supports' terms are added to a
    copy of the joint half's moment sums; forward kinematics never reruns.
    """
    fz = float(forces["zmp_result"].ground_force[2])
    d_mx, d_my = joint["d_mx"].copy(), joint["d_my"].copy()
    d_mx_gamma, d_my_gamma = [], []
    for i, (d_beta, g, (c, s), (_, _, pz)) in enumerate(zip(
            joint["d_beta"], forces["gamma"].tolist(), joint["normals"],
            joint["load_points"][2:])):
        # The support force g (cos beta, sin beta, 0) turns with beta:
        # cross(p, df) horizontal rows with p constant and df planar.  The
        # other arm's columns would add +-0.0, which changes no sum that is
        # not -0.0.
        for j, d in enumerate(d_beta, i * kin.NUM_LINKS):
            d_mx[j] += -pz * (g * (c * d))
            d_my[j] += pz * (g * (-s * d))
        d_mx_gamma.append(-pz * s)
        d_my_gamma.append(pz * c)

    # zmp = (M_y / fz, -M_x / fz), and fz = -(weight_z + wrench_z) is the
    # same in every pose, so only the moments vary.  Kept in the quotient
    # rule's form: my / fz rounds differently and moves every plan.
    fz_sq = fz * fz
    d_zmp_theta = np.array([[my * fz / fz_sq for my in d_my],
                            [-mx * fz / fz_sq for mx in d_mx]])
    d_zmp_gamma = np.array([[my / fz for my in d_my_gamma],
                            [-mx / fz for mx in d_mx_gamma]])

    d_phi, safe_dir = joint["d_phi"], forces["safe_dir"]
    jac = np.zeros((6 + NUM_CONTACTS, DECISION_DIM))
    jac[0:3, NUM_JOINTS:] = np.eye(3)
    jac[3, :NUM_JOINTS] = -(forces["gamma"] @ d_phi)
    jac[3, NUM_JOINTS:NUM_JOINTS + NUM_CONTACTS] = -joint["phi"]
    jac[3, -1] = 1.0
    jac[4, :NUM_JOINTS] = -(safe_dir @ d_zmp_theta)
    jac[4, NUM_JOINTS:NUM_JOINTS + NUM_CONTACTS] = -(safe_dir @ d_zmp_gamma)
    jac[5, :NUM_JOINTS] = -(joint["dev_dir"] @ joint["d_obj"])
    jac[6:6 + NUM_CONTACTS, :NUM_JOINTS] = d_phi
    return {"d_zmp_theta": d_zmp_theta, "d_zmp_gamma": d_zmp_gamma,
            "inequality_jac": _read_only(jac)}


def _remember(memo: dict, x: np.ndarray, compute):
    """``memo``'s entry for ``x``, computed on a miss; the memo keeps the
    last ``_POSES`` points, keyed on ``x.tobytes()``, and drops the oldest
    first.  A ``compute`` that raises caches nothing."""
    key = x.tobytes()
    if key not in memo:
        memo[key] = compute()
        if len(memo) > _POSES:
            del memo[next(iter(memo))]
    return memo[key]


def _kinematic(ctx: StepContext, dtheta) -> dict:
    """The context's memo entry for the pose theta + dtheta, with at least
    its kinematic tier, which runs once per pose.  Joint displacements that
    round to the same pose share the entry; the entry holds no dtheta term,
    which the NLP's cost and gradient add at the call."""
    pose = ctx.theta + np.asarray(dtheta, dtype=float)
    return _remember(ctx.memo, pose, lambda: _kinematic_values(ctx, pose))


def _joint(ctx: StepContext, dtheta, derivatives: bool = False) -> dict:
    """The joint half at ``dtheta``: the memo entry of its pose, whose three
    tiers each run once per pose, the first time they are asked for.  The
    kinematic tier (``_kinematic``) runs first, the value pass the first
    time a value beyond it is asked for, and the derivative pass the first
    time derivatives are."""
    joint = _kinematic(ctx, dtheta)
    if "grasp" not in joint:
        joint.update(_joint_values(ctx, joint))
    if derivatives and "d_phi" not in joint:
        joint.update(_joint_derivatives(ctx, joint))
    return joint


def _forces(ctx: StepContext, x, derivatives: bool = False) -> dict:
    """The force half at ``x``, which the memo entry of x's pose keeps for
    the last gamma and s evaluated there: the value pass runs when x's
    differ, the derivative pass (after the joint half's) the first time
    derivatives are asked for at them."""
    x = np.asarray(x, dtype=float)
    joint = _joint(ctx, x[:NUM_JOINTS], derivatives)
    key = x[NUM_JOINTS:].tobytes()
    if joint.get("forces_at") != key:
        joint["forces"] = _force_values(ctx, joint, x)
        joint["forces_at"] = key
    forces = joint["forces"]
    if derivatives and "inequality_jac" not in forces:
        forces.update(_force_derivatives(ctx, joint, forces))
    return forces


# ---------------------------------------------------------------------------
# Cost, constraints, and their Jacobians over the decision vector
# ---------------------------------------------------------------------------

def build_step_nlp(ctx: StepContext, weight_slack: float) -> NlpProblem:
    """The NLP of the context's waypoint at slack weight ``weight_slack``.

    Each field reads the context's memo, and only the part of the chain it
    depends on: the cost and the equalities the joint half's kinematic
    tier, the inequalities the force half.  Value fields read no
    derivative pass, Jacobian fields the derivative passes too.  The cost
    adds the displacement term ``weight_displacement * |dtheta|^2`` to the
    memo's position term, then the stage's slack term ``weight_slack * s``; the
    gradient adds ``2 weight_displacement dtheta`` to the memo's position
    gradient and has ``weight_slack`` as its last entry.  Each sum runs in
    the order of the whole expression, and the stage caches nothing of its
    own.
    """
    weight_displacement = ctx.config.weight_displacement

    def cost(x):
        dtheta = x[:NUM_JOINTS]
        return (_kinematic(ctx, dtheta)["position_cost"]
                + weight_displacement * float(dtheta @ dtheta)
                + weight_slack * float(x[-1]))

    def cost_grad(x):
        dtheta = x[:NUM_JOINTS]
        grad = np.zeros(DECISION_DIM)
        grad[:NUM_JOINTS] = (_joint(ctx, dtheta, True)["position_grad"]
                             + 2.0 * weight_displacement * dtheta)
        grad[-1] = weight_slack
        return _read_only(grad)

    return NlpProblem(
        dim=DECISION_DIM, cost=cost, cost_grad=cost_grad,
        equalities=lambda x: _kinematic(ctx, x[:NUM_JOINTS])["equalities"],
        equality_jac=lambda x: _joint(ctx, x[:NUM_JOINTS], True)["equality_jac"],
        inequalities=lambda x: _forces(ctx, x)["inequalities"],
        inequality_jac=lambda x: _forces(ctx, x, True)["inequality_jac"])


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
    d_obj = _joint(ctx, x0[:NUM_JOINTS], derivatives=True)["d_obj"]
    hess = np.eye(DECISION_DIM) * 1e-2
    hess[:NUM_JOINTS, :NUM_JOINTS] = (
        2.0 * ctx.config.weight_position * d_obj.T @ d_obj
        + 2.0 * ctx.config.weight_displacement * np.eye(NUM_JOINTS))
    return hess


def solve_step(ctx: StepContext) -> PlanDecision:
    """Solve the NLP of the context's waypoint from zero initial values.

    The slack weight is driven to its configured value through a short
    continuation (0.1 and 10 times the position weight if below the
    target, then the target), each stage warm-starting the next; scaling
    all three cost weights together keeps the plan.
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
    position = config.weight_position
    stages = [w for w in (position / 10, position * 10) if w < config.weight_slack]
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
                rows: np.ndarray) -> list[str]:
    """The acceptance bounds a decision and its inequality rows violate, as
    messages: the rows at ``tol_con``, convergence and the slack cap."""
    config = ctx.config
    tol = config.solver.tol_con
    failures = []
    if not decision.converged:
        failures.append("solver did not converge")
    if rows[5] < -tol:
        failures.append(f"object deviation {config.object_radius - rows[5]:.6f}"
                        f" m exceeds {config.object_radius} m")
    if rows[4] < -tol:
        failures.append(f"ZMP {config.safe_radius - rows[4]:.6f} m from target "
                        f"exceeds safe radius {config.safe_radius} m")
    # gamma (2), s, s - gamma.phi and phi (2): the complementarity rows.
    violation = -float(min(rows[:4].min(), rows[6:].min()))
    if violation > tol:
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
    # The clamp keeps dtheta, so otherwise only the force half runs.
    joint = _joint(ctx, decision.dtheta)
    forces = _forces(ctx, decision.to_vector())
    fzmp = st.compute_zmp(config.robot_weight, joint["com"],
                          joint["load_points"][:2], joint["hand_loads"])
    failures = _check_step(ctx, decision, forces["inequalities"])
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
                    object_position=joint["object_position"],
                    contacts=tuple(joint["gaps"]), zmp=forces["zmp_result"],
                    fzmp=fzmp, joint_points=joint["points"],
                    loads=np.array(forces["loads"]))


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
        return np.vstack([kin.point_jacobian(points, kin.NUM_LINKS - 1, 1.0),
                          ct.edge_gap_gradients(points, link, edge, res)[0]])

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
    Every scenario key, reach, balance geometry and the vertical load were
    checked when the config was constructed, by loading and by
    ``dataclasses.replace`` alike; planning does not check them again.

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
