"""Workload inputs and operations of the contactplan benchmark.

Every workload is a list of cases; one operation plans one case, and one
pass runs every case once, in order.  Inputs depend on the seed alone.

- ``paper``: the built-in experiment (9 waypoints, 0.40 m in +y), the run
  the paper reports.  Every continuation stage converges, so it exercises
  NLP evaluation and bypasses any stall handling.  The seed is ignored.
- ``sweep``: scenario files drawn from the converging neighbourhood of the
  default experiment, each run through ``cli.run`` with CSV and SVG output:
  the user-facing path, and the only workload that reaches ``scenario``,
  ``torque``, ``cli`` and ``plots``.  Draws are stratified, so every pass
  spans each parameter range and its work varies little from seed to seed.
- ``stall``: two fixed scenarios whose first continuation stage hits the
  SQP iteration cap; one ends in a typed ``PlanStepError``, the other
  converges slowly.  They exercise the line search and fail-fast paths.
  The seed is ignored.
"""

import os
import time
from dataclasses import dataclass

import numpy as np
import yaml

from contactplan import cli, planner
from contactplan.errors import ContactPlanError
from contactplan.scenario import ScenarioConfig, default_scenario, load_scenario

import gate

SWEEP_PER_PARAMETER = 3
GRAVITY = 9.81

STALL_OVERRIDES = {
    "link2": {"contact": {"link_index": 2}, "task": {"waypoint_count": 3}},
    "slant": {"task": {"path_direction": [0.3, 1.0], "path_length": 0.1,
                       "waypoint_count": 3}},
}


@dataclass
class Case:
    """One scenario of a workload: its name, validated config and file."""

    name: str
    config: ScenarioConfig
    path: str | None = None


@dataclass
class Outcome:
    """Verdict and cost of one operation."""

    case: str
    wall: tuple             # perf_counter() at the call and at the verdict
    cpu: tuple              # process_time() at the call and at the verdict
    accepted: bool          # a whole plan was accepted and passed the gate
    typed_error: str | None  # class name of a ContactPlanError verdict
    waypoints: int          # steps the planner accepted, partial plans too
    problems: list          # failed output checks and untyped exceptions


def _stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform draw in each of ``count`` equal strata of [0, 1), shuffled."""
    return (rng.permutation(count) + rng.random(count)) / count


def _with_mass(mass: float) -> dict:
    return {"object": {"mass": mass},
            "task": {"object_wrench": [0.0, 10.0, -mass * GRAVITY, 0.0, 0.0, 0.0]}}


def sweep_overrides(seed: int) -> list[dict]:
    """Scenario overrides for one sweep pass, drawn from ``seed``.

    Each case changes one parameter of the default experiment, as in the
    converging neighbourhood of the ROADMAP baseline; drawing several at
    once reaches scenarios that stall for ~20 s or fail.  Every parameter
    gets ``SWEEP_PER_PARAMETER`` cases.  Mass, lateral pull, path length and
    safe radius take one seeded value in each equal stratum of their range.
    Waypoint count and slack weight take fixed grids spanning theirs, so
    every pass plans the same number of waypoints and holds a slack weight of
    exactly 1e4, which runs two continuation stages where the others run
    three.  The seed also shuffles the order.
    """
    rng = np.random.default_rng(seed)
    k = SWEEP_PER_PARAMETER
    cases = [_with_mass(float(m)) for m in 8.0 + 8.0 * _stratified(rng, k)]
    cases += [{"task": {"object_wrench": [0.0, float(pull), -117.72, 0.0, 0.0, 0.0]}}
              for pull in 20.0 * _stratified(rng, k)]
    cases += [{"task": {"path_length": float(length)}}
              for length in 0.30 + 0.10 * _stratified(rng, k)]
    cases += [{"balance": {"safe_radius": float(radius)}}
              for radius in 0.12 + 0.03 * _stratified(rng, k)]
    cases += [{"task": {"waypoint_count": int(count)}}
              for count in np.linspace(5, 33, k).round()]
    cases += [{"weights": {"slack": float(weight)}} for weight in np.logspace(4, 6, k)]
    return [cases[i] for i in rng.permutation(len(cases))]


def _write_case(workdir: str, name: str, overrides: dict) -> Case:
    path = os.path.join(workdir, f"{name}.yaml")
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(overrides, handle, sort_keys=True)
    return Case(name=name, config=load_scenario(path), path=path)


def setup(workload: str, seed: int, workdir: str) -> list[Case]:
    """Generate, write and validate the cases of one workload."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "paper":
        return [Case(name="default", config=default_scenario())]
    if workload == "sweep":
        return [_write_case(workdir, f"draw{i}", overrides)
                for i, overrides in enumerate(sweep_overrides(seed))]
    if workload == "stall":
        return [_write_case(workdir, name, overrides)
                for name, overrides in STALL_OVERRIDES.items()]
    raise ValueError(f"unknown workload {workload!r}")


def _plan(case: Case) -> tuple:
    """``plan_path`` on the case; returns (steps, typed error name)."""
    try:
        steps = planner.plan_path(case.config)
    except ContactPlanError as exc:
        return list(getattr(exc, "partial_steps", [])), type(exc).__name__
    return steps, None


def run_case(workload: str, case: Case, outdir: str) -> Outcome:
    """Plan one case, time it from call to verdict, then check its output.

    ``sweep`` cases run through ``cli.run`` with CSV and SVG output, the
    others through ``plan_path``.
    """
    csv_path = os.path.join(outdir, f"{case.name}.csv")
    svg_dir = os.path.join(outdir, f"{case.name}-svg")
    for stale in [csv_path] + [os.path.join(svg_dir, name) for name in gate.SVG_NAMES]:
        if os.path.exists(stale):
            os.remove(stale)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if workload == "sweep":
            result = cli.run(["--scenario", case.path, "--csv", csv_path,
                              "--svg", svg_dir])
        else:
            result = _plan(case)
    except Exception as exc:  # an untyped failure is a verdict to record
        wall, cpu = (wall0, time.perf_counter()), (cpu0, time.process_time())
        return Outcome(case.name, wall, cpu, False, None, 0,
                       [f"untyped {type(exc).__name__}: {exc}"])
    wall, cpu = (wall0, time.perf_counter()), (cpu0, time.process_time())

    if workload == "sweep":
        code = result
        if code == 1:
            return Outcome(case.name, wall, cpu, False, "exit 1", 0, [])
        if code != 0:
            return Outcome(case.name, wall, cpu, False, None, 0,
                           [f"cli.run exit code {code}"])
        rows, problems = gate.check_cli_output(csv_path, svg_dir, case.config)
        return Outcome(case.name, wall, cpu, not problems, None, rows, problems)

    steps, error = result
    problems = gate.check_steps(steps, case.config, complete=error is None)
    return Outcome(case.name, wall, cpu, error is None and not problems, error,
                   len(steps), problems)
