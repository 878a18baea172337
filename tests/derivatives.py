"""The one central finite difference of the derivative tests, and the check
of the waypoint NLP's analytic derivatives against it."""

from dataclasses import fields
from typing import Callable

import numpy as np

from contactplan.planner import PlanDecision, StepContext, build_step_nlp
from contactplan.sqp import NlpProblem


def finite_difference_jacobian(fn: Callable[[np.ndarray], np.ndarray], x,
                               step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fn(x), dtype=float))
    jac = np.zeros((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        dx = np.zeros_like(x)
        dx[j] = step
        f_plus = np.atleast_1d(np.asarray(fn(x + dx), dtype=float))
        f_minus = np.atleast_1d(np.asarray(fn(x - dx), dtype=float))
        jac[:, j] = (f_plus - f_minus) / (2.0 * step)
    return jac


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
