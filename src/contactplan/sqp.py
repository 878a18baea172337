"""Self-contained SQP solver for small dense nonlinear programs.

Recipe: damped BFGS approximation of the Lagrangian Hessian, a primal
active-set solver for the convex QP subproblems, and a backtracking Armijo
line search on an l1 merit function whose penalty grows past the largest
multiplier seen.  QP subproblems carry a single elastic variable bounding
the worst linearized-inequality violation; a step is declared infeasible
only when even the elastic subproblem cannot close the violation.

Problems are supplied as callables over a flat decision vector:
cost/gradient, equality constraints (== 0), inequality constraints (>= 0),
and their Jacobians.  All operations are deterministic for identical inputs.

The line search evaluates the full step in full, since a rejected full
step goes on to the second-order correction, which reads its
inequalities.  Every other trial is evaluated in three steps, the cost,
then the equalities, then the inequalities, and is rejected without its
inequalities once the cost plus the penalty times the equality violation,
a lower bound of its merit, already exceeds its threshold: the Armijo
threshold for a second-order-correction or backtracking trial, and the
merit of the accepted trial it must beat for an expansion.  The bound
never rejects a trial the merit would accept, so every accepted trial is
the one the merit alone picks.

A run ends with one of these statuses: ``"converged"``; ``"iteration limit
reached"``; ``"line search stalled"`` or ``"stalled at zero step"`` (x
cannot move: no trial lowers the merit, or the QP's direction is
negligible, which the next QP at the same x would repeat); or
``"stagnated"``: 20 accepted iterations in a row at an unchanged penalty
left the merit unchanged to 1e-12 relative, which happens at degenerate
complementarity corners (Fletcher & Leyffer 2004), where further
iterations only spend line-search evaluations.

Exactness rule for the QP, the planner's rule (``contactplan.planner``)
extended: an ulp can flip a marginal solve, so ``solve_qp`` keeps every
BLAS/LAPACK call, ``lstsq``, ``eigvalsh`` and each ``@``, in its numpy form
with the same operands in the same order, and does only its bookkeeping on
Python floats from ``tolist()``: the |.|-max of a vector, the multipliers'
minimum and its first index, the initial slacks and the elastic value.  On
finite values these give numpy's bits (a zero minimum may differ in sign,
which the QP's comparisons cannot see); Python's ``max`` and ``min`` order
NaN differently, so non-finite input is rejected first.  The working-set
rows are gathered by index from one array of every constraint row, and the
square KKT solves pass lstsq's own default cutoff, eps (n + k), as a
number.  ``tests/test_exactness.py`` compares these forms bit for bit.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InfeasibleStepError


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and iteration budget of the SQP loop.

    ``tol_kkt`` bounds the scaled stationarity/complementarity residual,
    ``tol_con`` the raw constraint violation (SI units).  ``slack_max`` is
    the largest complementarity slack a caller should accept in a plan step.
    """

    tol_kkt: float = 1e-6
    tol_con: float = 1e-6
    max_iterations: int = 200
    slack_max: float = 1e-4

    def __post_init__(self):
        # Written as "not x > bound" so that NaN fails every check.  A bool
        # is an int to Python, so the type checks name it first.
        for name in ("tol_kkt", "tol_con", "slack_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if isinstance(self.max_iterations, bool) \
                or not isinstance(self.max_iterations, numbers.Integral):
            raise ValueError("max_iterations must be an integer, "
                             f"got {self.max_iterations!r}")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class NlpProblem:
    """A dense NLP: minimize cost(x) s.t. equalities(x) == 0, inequalities(x) >= 0.

    ``cost`` returns a float; the other callables return float arrays:
    ``cost_grad`` of shape (dim,), the rows of shape (m,) and their
    Jacobians of shape (m, dim).  An omitted constraint set is empty.
    """

    dim: int
    cost: Callable[[np.ndarray], float]
    cost_grad: Callable[[np.ndarray], np.ndarray]
    equalities: Optional[Callable[[np.ndarray], np.ndarray]] = None
    equality_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inequalities: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inequality_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        for rows, jac in (("equalities", "equality_jac"),
                          ("inequalities", "inequality_jac")):
            if getattr(self, rows) is None:
                setattr(self, rows, lambda x: np.zeros(0))
            if getattr(self, jac) is None:
                setattr(self, jac, lambda x: np.zeros((0, self.dim)))


@dataclass
class QpSolution:
    """A QP's minimizer and multipliers; ``iterations`` counts the passes
    of the active-set loop (0 when there are no inequality rows)."""

    x: np.ndarray
    lam_eq: np.ndarray
    lam_in: np.ndarray
    elastic: float
    iterations: int = 0


@dataclass
class SqpResult:
    """Solution plus diagnostics of one SQP run.

    ``status`` is one of the statuses in the module docstring; only
    ``"converged"`` sets ``converged``.  Whatever the status, ``cost``,
    ``kkt_residual`` and ``constraint_violation`` are evaluated at ``x``,
    the last accepted iterate (at the iteration limit too: a last step that
    lands on a KKT point reports ``"converged"``).  ``qp_iterations`` sums
    the active-set iterations of every QP the run solved.
    """

    x: np.ndarray
    cost: float
    kkt_residual: float
    constraint_violation: float
    iterations: int
    converged: bool
    status: str
    qp_iterations: int = 0
    merit_history: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# QP subproblem: primal active set with one elastic variable
# ---------------------------------------------------------------------------

_QP_TOL = 1e-10
# lstsq's own cutoff for rcond=None is eps * max(rows, columns); the square
# KKT solves pass it as a number.
_EPS = np.finfo(float).eps


def _abs_max(values) -> float:
    """max |v| over finite Python floats, 0.0 when there are none: the bits
    of ``np.abs(v).max(initial=0.0)``."""
    return max(map(abs, values), default=0.0)


def _solve_eqp(hess, grad_at_z, rows):
    """min 0.5 p'Hp + q'p s.t. rows @ p = 0; returns (p, multipliers).

    Solved through the KKT system with an SVD least-squares factorization so
    linearly dependent working sets yield the minimum-norm multipliers.  One
    iterative-refinement pass keeps the step noise well below the active-set
    tolerances even when the gradient spans many decades.
    """
    n = hess.shape[0]
    k = rows.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = hess
    kkt[:n, n:] = -rows.T
    kkt[n:, :n] = rows
    rhs = np.concatenate([-grad_at_z, np.zeros(k)])
    rcond = _EPS * (n + k)
    sol = np.linalg.lstsq(kkt, rhs, rcond=rcond)[0]
    residual = rhs - kkt @ sol
    sol = sol + np.linalg.lstsq(kkt, residual, rcond=rcond)[0]
    return sol[:n], sol[n:]


def _equality_start(rows, rhs):
    """Least-squares solution of rows @ x = rhs, or None when it misses an
    equation by more than 1e-8 relative (the rows are inconsistent)."""
    x0 = np.linalg.lstsq(rows, rhs, rcond=None)[0]
    rhs = rhs.tolist()
    tol = 1e-8 * (1.0 + _abs_max(rhs))
    if _abs_max(v - b for v, b in zip((rows @ x0).tolist(), rhs)) > tol:
        return None
    return x0


def _equality_qp(hess, grad, rows, rhs):
    """min 0.5 x'Hx + g'x s.t. rows @ x = rhs; returns (x, multipliers), or
    None when the rows are inconsistent."""
    x0 = _equality_start(rows, rhs)
    if x0 is None:
        return None
    p, lam = _solve_eqp(hess, hess @ x0 + grad, rows)
    return x0 + p, lam


def solve_qp(hess, grad, a_eq, b_eq, a_in, b_in,
             elastic_weight: float = 1e4) -> QpSolution:
    """Solve min 0.5 x'Hx + g'x s.t. a_eq x = b_eq, a_in x >= b_in.

    The inputs are finite float arrays; a constraint set without rows has a
    (0, n) matrix and a (0,) bound.  H must be symmetric positive definite.
    Infeasible inequality systems are absorbed by an elastic variable t >= 0
    relaxing every inequality row by t at cost ``elastic_weight * t``; the
    returned ``elastic`` is its optimum (zero whenever the original QP is
    feasible and the weight dominates the multipliers).  ``elastic_weight``
    is interpreted in the units of the normalized objective, i.e. relative
    to max(1, |grad|, |hess|).

    Raises:
        InfeasibleStepError: a non-finite input (checked before any LAPACK
            call), inconsistent equality rows, or no progress in the
            active-set iteration.
    """
    for name, value in (("Hessian", hess), ("gradient", grad),
                        ("equality matrix", a_eq), ("equality bound", b_eq),
                        ("inequality matrix", a_in), ("inequality bound", b_in),
                        ("elastic weight", elastic_weight)):
        if not np.isfinite(value).all():
            raise InfeasibleStepError(f"non-finite {name} in QP")
    n = grad.shape[0]
    m_eq, m_in = a_eq.shape[0], a_in.shape[0]

    # Normalize the objective so all KKT data stays O(1): the minimizer is
    # unchanged and the multipliers scale back by sigma.  Without this, cost
    # weights of 1e6 push least-squares noise above the step tolerances.
    sigma = max(1.0, float(np.abs(grad).max(initial=0.0)),
                float(np.abs(hess).max(initial=0.0)))
    hess = hess / sigma
    grad = grad / sigma
    # Lift near-singular spectra so the KKT solves stay well conditioned;
    # well-conditioned problems pass through exactly.
    eigenvalues = np.linalg.eigvalsh(hess)
    floor = 1e-8 * max(eigenvalues[-1], 1e-8)
    if eigenvalues[0] < floor:
        hess = hess + (floor - eigenvalues[0]) * np.eye(n)

    if m_in == 0:
        solved = _equality_qp(hess, grad, a_eq, b_eq)
        if solved is None:
            raise InfeasibleStepError("inconsistent equality constraints in QP")
        x, lam = solved
        return QpSolution(x=x, lam_eq=lam * sigma, lam_in=np.zeros(0),
                          elastic=0.0)

    # Elastic formulation over z = (x, t).  Its constraint rows, built once:
    # the equalities, the inequalities a_in x + t >= b_in, then t >= 0; the
    # working set's KKT rows are gathered from them by index.
    nz = n + 1
    hz = np.zeros((nz, nz))
    hz[:n, :n] = hess
    hz[n, n] = max(1e-8 * elastic_weight, 1e-4)
    gz = np.concatenate([grad, [elastic_weight]])
    rows = np.zeros((m_eq + m_in + 1, nz))
    rows[:m_eq, :n] = a_eq
    rows[m_eq:-1, :n] = a_in
    rows[m_eq:, n] = 1.0
    in_rows = rows[m_eq:]
    eq_index = list(range(m_eq))
    b_in_list = b_in.tolist()
    in_rhs = b_in_list + [0.0]
    b_scale = _abs_max(b_in_list)

    # Feasible start: least-squares equality solution, elastic covering the
    # worst inequality violation.
    x0 = _equality_start(a_eq, b_eq)
    if x0 is None:
        raise InfeasibleStepError("inconsistent equality constraints in QP")
    t0 = max(0.0, *(b - v for b, v in zip(b_in_list, (a_in @ x0).tolist())))
    z = np.concatenate([x0, [t0]])
    z_list = z.tolist()

    # Tolerances scale with constraint-space magnitudes, never with the
    # gradient (which the elastic weight inflates).
    tol = _QP_TOL * (1.0 + b_scale + _abs_max(z_list))
    working = [i for i, (v, b) in enumerate(zip((in_rows @ z).tolist(), in_rhs))
               if v - b <= tol]

    max_qp_iters = 50 * (m_in + 1 + nz)
    for iterations in range(1, max_qp_iters + 1):
        q = hz @ z + gz
        p, lam = _solve_eqp(hz, q, rows.take(
            eq_index + [m_eq + i for i in working], axis=0))
        # Thresholds track the least-squares noise floor, which grows with
        # the gradient magnitude (the elastic weight dominates it).
        noise = 1e-12 * (1.0 + _abs_max(q.tolist()))
        p_max = _abs_max(p.tolist())
        if p_max <= _QP_TOL * (1.0 + _abs_max(z_list)) + 10 * noise:
            lam_work = lam[m_eq:].tolist()
            if not lam_work or min(lam_work) >= -10 * noise:
                break
            working.pop(lam_work.index(min(lam_work)))
            continue
        # Step length limited by the nearest blocking inactive constraint;
        # on a tie the lower row blocks.  The stacked products make each
        # row's own (1, n) @ (n, 1) dot, as row @ p would.
        alpha = 1.0
        blocking = -1
        step_scale = 1.0 + p_max
        denoms = (in_rows[:, None, :] @ p[:, None]).ravel().tolist()
        for i, denom in enumerate(denoms):
            if denom < -_QP_TOL * step_scale and i not in working:
                bound = float(in_rhs[i] - in_rows[i] @ z) / denom
                if bound < alpha - 1e-15:
                    alpha = max(bound, 0.0)
                    blocking = i
        z = z + alpha * p
        z_list = z.tolist()
        if blocking >= 0:
            working.append(blocking)
    else:
        raise InfeasibleStepError("active-set QP iteration limit reached")

    lam_in_out = np.zeros(m_in)
    for idx, row in enumerate(working):
        if row < m_in:
            lam_in_out[row] = max(lam_work[idx], 0.0) * sigma
    solution = QpSolution(x=z[:n], lam_eq=lam[:m_eq] * sigma, lam_in=lam_in_out,
                          elastic=z_list[n], iterations=iterations)

    # Polish: once the elastic is inactive, re-solve on the identified active
    # set in the original variables.  This strips the elastic weight out of
    # the KKT system, which otherwise leaves its noise in the multipliers.
    if solution.elastic <= 1e-9 * (1.0 + b_scale):
        active = sorted(r for r in working if r < m_in)
        polished = _equality_qp(
            hess, grad,
            rows[:, :n].take(eq_index + [m_eq + r for r in active], axis=0),
            np.concatenate([b_eq, b_in[active]]))
        if polished is None:
            return solution
        x_p, lam_p = polished
        inactive = [i for i in range(m_in) if i not in active]
        feas_tol = 1e-9 * (1.0 + b_scale + _abs_max(x_p.tolist()))
        if inactive:
            products = (a_in[inactive] @ x_p).tolist()
            if min(v - b_in_list[i] for i, v in zip(inactive, products)) \
                    < -feas_tol:
                return solution
        lam_p_in = lam_p[m_eq:].tolist()
        if lam_p_in and min(lam_p_in) < -1e-7 * (1.0 + _abs_max(lam_p_in)):
            return solution
        lam_in_out = np.zeros(m_in)
        for idx, row in enumerate(active):
            lam_in_out[row] = max(lam_p_in[idx], 0.0) * sigma
        return QpSolution(x=x_p, lam_eq=lam_p[:m_eq] * sigma,
                          lam_in=lam_in_out, elastic=solution.elastic,
                          iterations=iterations)
    return solution


# ---------------------------------------------------------------------------
# SQP driver
# ---------------------------------------------------------------------------

def _l1_violation(ce: np.ndarray, ci: np.ndarray) -> float:
    return float(np.abs(ce).sum() + np.maximum(0.0, -ci).sum())


def _trial_merit(problem: NlpProblem, mu: float, x: np.ndarray,
                 threshold: float = math.inf) -> float:
    """The l1 merit f + mu (|c_E|_1 + |min(0, c_I)|_1) at a line-search
    trial ``x``, or inf where it is not finite.

    The cost is evaluated first, then the equalities, then the
    inequalities.  f + mu |c_E|_1 is a lower bound of the merit as computed
    in floats: every l1 term is >= 0, and IEEE addition and multiplication
    by mu > 0 are monotone.  So when the bound exceeds ``threshold`` the
    merit would too, and the trial is rejected with inf before the
    inequalities run; an exception they would raise there is never raised.
    A NaN bound falls through to the merit.
    """
    f = float(problem.cost(x))
    ce = problem.equalities(x)
    if f + mu * float(np.abs(ce).sum()) > threshold:
        return math.inf
    merit = f + mu * _l1_violation(ce, problem.inequalities(x))
    return merit if math.isfinite(merit) else math.inf


def _max_violation(ce: np.ndarray, ci: np.ndarray) -> float:
    return max(float(np.abs(ce).max(initial=0.0)),
               float(np.maximum(0.0, -ci).max(initial=0.0)))


def _certificate_multipliers(grad, a_eq, a_in, ci, act_tol):
    """Least-squares multipliers certifying first-order stationarity.

    Only near-active inequality rows may carry a multiplier; rows whose
    least-squares multiplier comes out negative are dropped and the fit is
    repeated.  This keeps the convergence test independent of the BFGS
    matrix baked into the QP's own multipliers.
    """
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
    return lam_eq, lam_in


def _kkt_residual(grad, a_eq, a_in, ce, ci, act_tol) -> float:
    """Scaled stationarity + complementarity residual with certificate
    multipliers.

    The raw residual is divided by max(1, |lambda|_inf / 1000) so that the
    convergence test stays meaningful when cost weights push multipliers to
    1e6, while still rejecting genuinely non-stationary points.
    """
    lam_eq, lam_in = _certificate_multipliers(grad, a_eq, a_in, ci, act_tol)
    r = grad - a_eq.T @ lam_eq - a_in.T @ lam_in
    r_stat = float(np.abs(r).max(initial=0.0))
    r_comp = float(np.abs(lam_in * ci).max(initial=0.0))
    lam_mag = max(np.abs(lam_eq).max(initial=0.0), np.abs(lam_in).max(initial=0.0))
    scale = max(1.0, lam_mag / 1000.0)
    return max(r_stat, r_comp) / scale


# Accepted iterations in a row at an unchanged penalty and merit (to
# _STAGNANT_RTOL relative) after which a run ends as "stagnated".  Converged
# stages of the sweep never exceed a run of 1; a stage that later moved on
# reached 15.
_STAGNANT_ITERATIONS = 20
_STAGNANT_RTOL = 1e-12

# Line search and penalty update (Nocedal & Wright 2006, sections 3.1 and
# 18.3): the Armijo sufficient-decrease constant, the backtracking factor,
# and the factor on the largest multiplier that the penalty must exceed.
_ARMIJO_C1 = 1e-4
_BACKTRACK_RATIO = 0.5
_PENALTY_GROWTH = 2.0


def solve_sqp(problem: NlpProblem, x0, settings: SolverSettings,
              initial_hessian=None) -> SqpResult:
    """Run the SQP loop from ``x0`` until the KKT test passes.

    ``initial_hessian`` seeds the damped-BFGS approximation (for example a
    Gauss-Newton matrix of the cost); without it the identity is rescaled
    after the first accepted step.  Deterministic for identical inputs.  A
    result with ``converged=False`` is returned when the iteration budget
    runs out, the line search stalls or the merit stagnates; the caller
    decides whether that is fatal.  An exception the problem's callables
    raise, at an iterate or a line-search trial, propagates; but a trial
    rejected on its cost and equalities (see the module docstring), an
    expansion included, never evaluates its inequalities, so an exception
    they would raise there is never raised.

    Raises:
        InfeasibleStepError: a QP stays infeasible, or the cost, the rows,
            the gradient, a Jacobian or the Hessian approximation at an
            iterate is not finite (checked before any LAPACK call).
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.dim,):
        raise ValueError(f"x0 must have shape ({problem.dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")

    if initial_hessian is not None:
        hess = 0.5 * (np.asarray(initial_hessian, dtype=float)
                      + np.asarray(initial_hessian, dtype=float).T)
        scaled_once = True
    else:
        hess = np.eye(problem.dim)
        scaled_once = False
    mu = 1.0
    act_tol = max(10.0 * settings.tol_con, 1e-10)
    merit_history: list[tuple[float, float, float]] = []
    status = "iteration limit reached"
    iterations = 0
    qp_iterations = 0
    stagnant = 0
    last_mu = None
    # The Jacobians at x: asked for at the start point, then carried over
    # from the accepted trial, where the BFGS update already asked for them.
    grad = None

    # One pass more than the budget: the last only evaluates the final x,
    # so the result describes the point it returns.
    for _ in range(settings.max_iterations + 1):
        f = float(problem.cost(x))
        ce, ci = problem.equalities(x), problem.inequalities(x)
        if grad is None:
            grad = problem.cost_grad(x)
            a_eq, a_in = problem.equality_jac(x), problem.inequality_jac(x)
        # LAPACK fails untyped, or loops, on inf and NaN: check its inputs.
        for name, value in (("cost", f), ("equality rows", ce),
                            ("inequality rows", ci), ("cost gradient", grad),
                            ("equality Jacobian", a_eq),
                            ("inequality Jacobian", a_in), ("Hessian", hess)):
            if not np.isfinite(value).all():
                raise InfeasibleStepError(f"non-finite {name} at an SQP iterate")
        viol = _max_violation(ce, ci)
        # The certificate can only decide convergence at a feasible x.
        kkt = None
        if viol <= settings.tol_con:
            kkt = _kkt_residual(grad, a_eq, a_in, ce, ci, act_tol)
            if kkt <= settings.tol_kkt:
                status = "converged"
                break
        if stagnant >= _STAGNANT_ITERATIONS:
            status = "stagnated"
            break
        if iterations == settings.max_iterations:
            break

        elastic_weight = 1e4
        for _ in range(4):
            qp = solve_qp(hess, grad, a_eq, -ce, a_in, -ci,
                          elastic_weight=elastic_weight)
            qp_iterations += qp.iterations
            if qp.elastic <= 1e-8 * (1.0 + viol):
                break
            elastic_weight *= 100.0
        # A small positive elastic value only means the linearization cannot
        # restore feasibility in one step; the merit still makes progress.
        # Give up only when the step cannot reduce the violation at all.
        if qp.elastic > 0.99 * viol + 10.0 * settings.tol_con:
            raise InfeasibleStepError(
                f"QP subproblem infeasible (residual {qp.elastic:.3g} vs "
                f"violation {viol:.3g} after elastic relaxation)")

        d = qp.x
        lam_eq, lam_in = qp.lam_eq, qp.lam_in
        lam_mag = max(np.abs(lam_eq).max(initial=0.0),
                      np.abs(lam_in).max(initial=0.0))
        mu = max(mu, _PENALTY_GROWTH * lam_mag + 1.0)

        l1 = _l1_violation(ce, ci)
        merit0 = f + mu * l1
        descent = float(grad @ d) - mu * l1
        # The acceptance threshold must never allow a merit increase.
        descent = min(descent, -1e-16)
        # A negligible direction does not move x, which failed the
        # convergence test above.  The next QP would read the same x,
        # gradient, Jacobians and Hessian, and return the same direction.
        if np.abs(d).max(initial=0.0) <= 1e-14 * (1.0 + np.abs(x).max()):
            status = "stalled at zero step"
            iterations += 1
            break

        # A trial whose merit is not finite is rejected like any other worse
        # point; an exception from the problem propagates.  The full step
        # runs the full merit, whose finiteness decides whether a rejected
        # step tries the second-order correction; every other trial is
        # tested against its threshold, and only an accepted one's merit is
        # read.
        alpha = 1.0
        accepted = False
        x_trial = x + d
        merit_trial = _trial_merit(problem, mu, x_trial)
        if merit_trial <= merit0 + _ARMIJO_C1 * alpha * descent:
            accepted = True
            # Expand while the merit keeps strictly improving: recovers fast
            # progress when a stale Hessian approximation shrinks the step.
            # An expansion whose bound exceeds merit_trial has a merit above
            # it too; one whose bound equals it falls through to the merit.
            for _ in range(40):
                x_next = x + 2.0 * alpha * d
                merit_next = _trial_merit(problem, mu, x_next, merit_trial)
                if merit_next < merit_trial:
                    alpha *= 2.0
                    x_trial, merit_trial = x_next, merit_next
                else:
                    break
        if not accepted and np.isfinite(merit_trial):
            # Second-order correction: curved active constraints reject full
            # steps under an l1 merit with a large penalty (Maratos effect).
            # Restore the active rows at the trial point and retest.
            rows = [a_eq[i] for i in range(ce.size)]
            rhs = list(-problem.equalities(x + d))
            ci_trial = problem.inequalities(x + d)
            for i in range(ci.size):
                if lam_in[i] > 1e-8 * (1.0 + lam_mag) and ci_trial[i] < 0.0:
                    rows.append(a_in[i])
                    rhs.append(-ci_trial[i])
            if rows:
                a_act = np.vstack(rows)
                correction = a_act.T @ np.linalg.lstsq(
                    a_act @ a_act.T, np.asarray(rhs), rcond=None)[0]
                x_soc = x + d + correction
                threshold = merit0 + _ARMIJO_C1 * descent
                merit_soc = _trial_merit(problem, mu, x_soc, threshold)
                if merit_soc <= threshold:
                    accepted = True
                    x_trial, merit_trial = x_soc, merit_soc
        if not accepted:
            while alpha >= 1e-12:
                alpha *= _BACKTRACK_RATIO
                x_trial = x + alpha * d
                threshold = merit0 + _ARMIJO_C1 * alpha * descent
                merit_trial = _trial_merit(problem, mu, x_trial, threshold)
                if merit_trial <= threshold:
                    accepted = True
                    break
        if not accepted:
            # x has not moved, and it failed the convergence test above.
            status = "line search stalled"
            iterations += 1
            break

        merit_history.append((mu, merit0, merit_trial))
        if mu == last_mu and \
                abs(merit0 - merit_trial) <= _STAGNANT_RTOL * abs(merit0):
            stagnant += 1
        else:
            stagnant = 0
        last_mu = mu

        grad_l_old = grad - a_eq.T @ lam_eq - a_in.T @ lam_in
        grad_new = problem.cost_grad(x_trial)
        a_eq_new = problem.equality_jac(x_trial)
        a_in_new = problem.inequality_jac(x_trial)
        grad_l_new = grad_new - a_eq_new.T @ lam_eq - a_in_new.T @ lam_in

        step = x_trial - x
        y = grad_l_new - grad_l_old
        sy = float(step @ y)
        if not scaled_once and sy > 1e-12:
            factor = min(max(float(y @ y) / sy, 1e-4), 1e6)
            hess = factor * np.eye(problem.dim)
            scaled_once = True
        s_bs = float(step @ hess @ step)
        if s_bs > 1e-16:
            bs = hess @ step
            # Powell damping keeps the approximation positive definite.
            if sy < 0.2 * s_bs:
                theta = 0.8 * s_bs / (s_bs - sy)
                r = theta * y + (1.0 - theta) * bs
            else:
                r = y
            sr = float(step @ r)
            # Skip updates whose rank-one term would inject absurd curvature
            # (tiny steps against 1e6-scale multiplier gradients otherwise
            # blow the approximation up and poison the QP conditioning).
            if sr > 1e-16 and float(r @ r) / sr <= 1e9:
                hess = hess - np.outer(bs, bs) / s_bs + np.outer(r, r) / sr

        x = x_trial
        grad, a_eq, a_in = grad_new, a_eq_new, a_in_new
        iterations += 1

    if kkt is None:
        # Every exit follows the evaluation of x at the top of the loop.
        kkt = _kkt_residual(grad, a_eq, a_in, ce, ci, act_tol)
    return SqpResult(x=x, cost=f, kkt_residual=float(kkt),
                     constraint_violation=float(viol), iterations=iterations,
                     converged=status == "converged", status=status,
                     qp_iterations=qp_iterations, merit_history=merit_history)

