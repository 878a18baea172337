"""The planner's own QP subproblems, re-solved and judged by their own
optimality conditions.

``tests/data/qp_corpus.npz`` holds every ``sqp.solve_qp`` input of the
default plan (the start-up pose's settle solves included) and the objective
of each solution at recording.  The test re-solves each QP with today's
``solve_qp`` and checks the result against that QP alone: stationarity,
feasibility, complementarity and nonnegative inequality multipliers, in the
elastic form where the elastic variable is active, and the objective
against the recorded one.  It judges the QP on the planner's degenerate
subproblems without asking the SQP to take the same path.  The tolerances
sit above the worst figures at recording (ROADMAP Baseline).

Regenerate the file from the repository root, when the planner's
subproblems change and never to make a QP pass:

    PYTHONPATH=src python tests/test_qp_corpus.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from contactplan import sqp

CORPUS = Path(__file__).parent / "data" / "qp_corpus.npz"
FIELDS = ("hess", "grad", "a_eq", "b_eq", "a_in", "b_in")

# Worst figures at recording: stationarity 2.6e-9, feasibility 2.0e-13 and
# complementarity 2.0e-15; the objectives were equal.
TOL_STATIONARITY = 1e-8
TOL_FEASIBILITY = 1e-11
TOL_COMPLEMENTARITY = 1e-12
TOL_OBJECTIVE = 1e-9


def objective(hess, grad, x) -> float:
    return float(0.5 * x @ hess @ x + grad @ x)


def violations(qp: dict, solution) -> list[str]:
    """The optimality conditions ``solution`` misses on ``qp``, as
    messages.  Stationarity and complementarity are relative to
    1 + max|g| + max|H|, feasibility to 1 + max|b| + max|x|.  The elastic
    form applies where the elastic exceeds solve_qp's own threshold for an
    inactive elastic, 1e-9 (1 + max|b_in|): its rows are a_in x + t >= b_in."""
    hess, grad, a_eq, b_eq, a_in, b_in = (qp[name] for name in FIELDS)
    x = solution.x
    b_scale = 1.0 + max(np.abs(b_eq).max(initial=0.0), np.abs(b_in).max(initial=0.0))
    scale = 1.0 + np.abs(grad).max() + np.abs(hess).max()
    feasibility_scale = b_scale + np.abs(x).max()
    elastic = solution.elastic
    if elastic <= 1e-9 * (1.0 + np.abs(b_in).max(initial=0.0)):
        elastic = 0.0
    rows = a_in @ x + elastic - b_in
    figures = {
        "stationarity": np.abs(hess @ x + grad - a_eq.T @ solution.lam_eq
                               - a_in.T @ solution.lam_in).max() / scale,
        "feasibility": max(np.abs(a_eq @ x - b_eq).max(initial=0.0),
                           -rows.min(initial=0.0), -elastic) / feasibility_scale,
        "complementarity": np.abs(solution.lam_in * rows).max(initial=0.0) / scale,
        "multiplier sign": -solution.lam_in.min(initial=0.0) / scale,
        "objective": abs(objective(hess, grad, x) - qp["objective"])
                     / (1.0 + abs(qp["objective"])),
    }
    tolerances = {"stationarity": TOL_STATIONARITY,
                  "feasibility": TOL_FEASIBILITY,
                  "complementarity": TOL_COMPLEMENTARITY,
                  "multiplier sign": TOL_COMPLEMENTARITY,
                  "objective": TOL_OBJECTIVE}
    return [f"{name} {figures[name]:.3g} > {tol:.0e}"
            for name, tol in tolerances.items() if not figures[name] <= tol]


@pytest.fixture(scope="module")
def corpus() -> list[dict]:
    with np.load(CORPUS) as data:
        count = len(data["objective"])
        return [{**{name: data[f"{i:03d}_{name}"] for name in FIELDS},
                 "elastic_weight": float(data["elastic_weight"][i]),
                 "objective": float(data["objective"][i])}
                for i in range(count)]


def test_corpus_covers_the_default_plan(corpus):
    with_rows = [qp for qp in corpus if qp["a_in"].shape[0]]
    # The settle solves have no inequality rows; the planner's have eight.
    assert len(with_rows) >= 50
    assert {qp["a_in"].shape for qp in with_rows} == {(8, 11)}


def test_solutions_meet_their_own_conditions(corpus):
    failures = []
    for index, qp in enumerate(corpus):
        solution = sqp.solve_qp(*(qp[name] for name in FIELDS),
                                elastic_weight=qp["elastic_weight"])
        failures += [f"QP {index}: {problem}"
                     for problem in violations(qp, solution)]
    assert not failures, "\n".join(failures)


def record() -> dict:
    """The arrays of the corpus file: every ``solve_qp`` input of the
    default plan, its elastic weight and its solution's objective."""
    from contactplan.planner import plan_path
    from contactplan.scenario import default_scenario

    arrays, weights, objectives = {}, [], []
    real = sqp.solve_qp

    def recorder(*args, elastic_weight=1e4):
        solution = real(*args, elastic_weight=elastic_weight)
        index = len(objectives)
        for name, value in zip(FIELDS, args):
            arrays[f"{index:03d}_{name}"] = np.array(value, copy=True)
        weights.append(elastic_weight)
        objectives.append(objective(args[0], args[1], solution.x))
        return solution

    sqp.solve_qp = recorder
    try:
        plan_path(default_scenario())
    finally:
        sqp.solve_qp = real
    return {**arrays, "elastic_weight": np.array(weights),
            "objective": np.array(objectives)}


if __name__ == "__main__":
    np.savez_compressed(CORPUS, **record())
    print(f"{CORPUS}: {CORPUS.stat().st_size} bytes", file=sys.stderr)
