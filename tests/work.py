"""One spy on the planner's work, for the tests and ``.github/plan_digest.py``:
the ZMP chain's kinematic tier and four passes, the forward-kinematics calls
and every SQP solve."""

from typing import NamedTuple

from contactplan import planner as pl
from contactplan.sqp import NlpProblem, SqpResult

# The joint half's value and derivative passes, then the force half's.
PASSES = ("_joint_values", "_joint_derivatives", "_force_values",
          "_force_derivatives")


class Solve(NamedTuple):
    """One ``solve_sqp`` call: its NLP and result, and ``Work.passes`` as it
    returned."""

    nlp: NlpProblem
    result: SqpResult
    passes: dict


class Work:
    """The planner's work since ``watch``: the runs of the kinematic tier
    (``_kinematic_values``) and of ``forward_kinematics``, ``passes`` keyed
    by ``PASSES``' names, and the ``solves`` in order."""

    def __init__(self):
        self.kinematic_tier = self.fk_calls = 0
        self.passes = dict.fromkeys(PASSES, 0)
        self.solves: list[Solve] = []

    @property
    def iterations(self) -> int:
        """SQP iterations over every solve."""
        return sum(solve.result.iterations for solve in self.solves)


def passes_of(*counts) -> dict:
    """A ``Work.passes`` dict of four counts, in ``PASSES``' order."""
    return dict(zip(PASSES, counts, strict=True))


def watch(monkeypatch) -> Work:
    """Count the planner's work from now on, through ``monkeypatch``."""
    work = Work()

    def tier(*args, real=pl._kinematic_values):
        work.kinematic_tier += 1
        return real(*args)

    def fk(*args, real=pl.kin.forward_kinematics):
        work.fk_calls += 1
        return real(*args)

    def solve(nlp, *args, real=pl.solve_sqp, **kwargs):
        result = real(nlp, *args, **kwargs)
        work.solves.append(Solve(nlp, result, dict(work.passes)))
        return result

    for name in PASSES:
        def counted(*args, real=getattr(pl, name), name=name):
            work.passes[name] += 1
            return real(*args)
        monkeypatch.setattr(pl, name, counted)
    monkeypatch.setattr(pl, "_kinematic_values", tier)
    monkeypatch.setattr(pl.kin, "forward_kinematics", fk)
    monkeypatch.setattr(pl, "solve_sqp", solve)
    return work
