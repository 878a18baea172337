"""Scenario sweep with recorded outcomes.

Each case is the default experiment with a few keys changed, the outcome it
is expected to reach and a budget in SQP iterations.  The outcome is either
a whole plan or a ``PlanStepError`` at a given waypoint index; known
failures stay in the sweep as expected typed failures.  The budget bounds
the iterations of every SQP solve the plan makes (the start-up settle and
each continuation stage), so it does not depend on the speed of the host.
Budgets sit about 15 % above the measured totals.

Most failing or marginal outcomes flip on the last bit of the load, so each
case also runs perturbed copies (``perturbed``) and pins their counts:
tier-1 runs 3 copies of every case that plans in under a second, and
``pytest -m slow tests/test_sweep.py`` runs 10 copies of every case (about
2 minutes).
"""

from dataclasses import replace

import numpy as np
import pytest

from contactplan.errors import PlanStepError
from contactplan.planner import plan_path
from contactplan.scenario import ScenarioConfig, default_scenario

from work import watch

GRAVITY = 9.81


def wrench(pull: float, mass: float = 12.0) -> dict:
    """Task override: the bar's weight plus a lateral pull, in newtons."""
    return {"object_wrench": [0.0, pull, -mass * GRAVITY, 0.0, 0.0, 0.0]}


def case(overrides, budget, fails_at=None, reason=None, id=None):
    """A sweep case; ``fails_at`` is the failing waypoint index and
    ``reason`` a fragment of the error message."""
    return pytest.param(overrides, budget, fails_at, reason, id=id)


CASES = [
    # The benchmark's six sweep parameters at fixed mid-range values.
    case({"object": {"mass": 14.0}, "task": wrench(10.0, mass=14.0)}, 95,
         id="mass-14kg"),                                   # 82 iterations
    case({"task": wrench(5.0)}, 85, id="pull-5N"),          # 73
    case({"task": {"path_length": 0.35}}, 85, id="path-0.35m"),  # 74
    case({"balance": {"safe_radius": 0.135}}, 85, id="radius-0.135m"),  # 75
    case({"task": {"waypoint_count": 19}}, 155, id="waypoints-19"),  # 135
    case({"weights": {"slack": 1e5}}, 85, id="slack-1e5"),  # 74
    # The benchmark's stall workload.  Slant's first stage at waypoints 1
    # and 2 stagnates (iterations per step 8, 27, 26; 430 in all before
    # the stagnation stop); link2's stagnates at waypoint 1 (262 before).
    case({"task": {"path_direction": [0.3, 1.0], "path_length": 0.1,
                   "waypoint_count": 3}}, 95, id="slant"),  # 83
    case({"contact": {"link_index": 2}, "task": {"waypoint_count": 3}}, 160,
         fails_at=2, reason="solver did not converge", id="link2"),  # 139
    # Isolated values: pull 18 N exhausts the active-set QP at waypoint 1
    # (an InfeasibleStepError, whose message only solve_qp raises); the two
    # others failed the same way in earlier versions.
    case({"task": wrench(18.0)}, 36, fails_at=1,
         reason="active-set QP iteration limit reached", id="pull-18N"),  # 31
    case({"task": wrench(19.14)}, 90, id="pull-19.14N"),    # 79
    case({"balance": {"safe_radius": 0.138}}, 90, id="radius-0.138m"),  # 78
    # An open fault: a looser object-deviation bound leaves its row
    # inactive, yet waypoint 2 fails, likely because solve_qp's tolerances
    # scale with the largest |b_in| (here about 1e3).
    case({"balance": {"object_radius": 1e3}}, 53, fails_at=2,
         reason="solver did not converge", id="object-radius-1e3"),  # 45
    # Diverging: waypoint 7's capped stages keep lowering the merit while
    # the slack grows, so they do not stagnate.  About 5 s.
    case({"task": {"path_length": 0.5}}, 455, fails_at=7,
         reason="object deviation", id="path-0.5m"),         # 395 (557 before)
    # The full slant path: stages stagnate at waypoints 1-5; waypoint 6 has
    # a run of 15 unchanged merits and then moves on; at waypoint 8 the
    # capped 1e4 stage moves the point to where the target stage converges.
    # A knife edge in the last bit: renormalizing the already-unit path
    # direction, rounding-level changes to the grasp derivative, or
    # deleting the step expansion turns it into a PlanStepError at step 8.
    # About 6 s.
    case({"task": {"path_direction": [0.3, 1.0]}}, 970,
         id="slant-full"),                                  # 841 (2061 before)
]


@pytest.mark.parametrize("overrides, budget, fails_at, reason", CASES)
def test_sweep_case(overrides, budget, fails_at, reason, monkeypatch):
    config = default_scenario(overrides)
    work = watch(monkeypatch)
    if fails_at is None:
        assert len(plan_path(config)) == config.waypoint_count
    else:
        with pytest.raises(PlanStepError) as excinfo:
            plan_path(config)
        assert excinfo.value.waypoint_index == fails_at
        assert len(excinfo.value.partial_steps) == fails_at
        assert reason in str(excinfo.value)
    assert work.iterations <= budget


def perturbed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    """``config`` with ``task.object_wrench`` scaled entrywise by
    1 + k 2^-52, k = ``np.random.default_rng(seed).integers(-4, 5, size=6)``:
    a copy one rounding away, whose outcome a robust planner would share."""
    k = np.random.default_rng(seed).integers(-4, 5, size=6)
    return replace(config, object_wrench=config.object_wrench * (1 + k * 2.0**-52))


# The outcome of each case's perturbed copies, seeds 0-9 (fixed before any
# result was seen): None for a full plan, else the failing waypoint index.
# Every case not listed plans fully in all 10.  Seed 6 leaves the wrench
# unchanged (k is 0 on its y and z, its only non-zero entries).
PERTURBED = {
    "link2": [2, 2, 2, 1, None, 2, 2, None, None, 2],
    "pull-18N": [None, 1, None, None, None, None, 1, 1, None, None],
    "path-0.5m": [7] * 10,
    "slant-full": [8, 8, 8, 8, 8, 8, None, 8, 8, 8],
    "object-radius-1e3": [2] * 10,
}
SLOW = {"path-0.5m", "slant-full"}  # about 5 s a copy


def perturbed_case(case_param, copies, **kwargs):
    overrides = case_param.values[0]
    return pytest.param(overrides, case_param.id, copies,
                        id=f"{case_param.id}-x{copies}", **kwargs)


@pytest.mark.parametrize("overrides, case_id, copies", [
    *(perturbed_case(p, 3) for p in CASES if p.id not in SLOW),
    *(perturbed_case(p, 10, marks=pytest.mark.slow) for p in CASES)])
def test_perturbed_counts(overrides, case_id, copies):
    # A change may not lower the number of copies that plan fully, nor make
    # a copy fail at an index not recorded for the case.
    recorded = PERTURBED.get(case_id, [None] * 10)
    config = default_scenario(overrides)
    outcomes = []
    for seed in range(copies):
        try:
            plan_path(perturbed(config, seed))
            outcomes.append(None)
        except PlanStepError as exc:
            outcomes.append(exc.waypoint_index)
    assert outcomes.count(None) >= recorded[:copies].count(None), outcomes
    assert set(outcomes) - {None} <= set(recorded) - {None}, outcomes
