"""Print one sha256 per plan, or with --outcomes a table of plan outcomes.

The plans are the default experiment's, then each sweep case's: the
``CASES`` of ``tests/test_sweep.py``, so pytest must be importable.  An
optional argument names the checkout to plan with (default: this script's
own).

The digest of a plan covers every accepted step's decision (dtheta, gamma,
s, cost, KKT residual, iterations, convergence), theta after the step, the
object position, the ZMP and FZMP with their ground forces, and the (4, 3)
load rows.  A case that fails hashes its typed error's class and message
and the partial steps instead.  So two checkouts plan byte-identically
when the outputs match (about 15 s each):

    python3 .github/plan_digest.py > new.txt
    python3 .github/plan_digest.py ../parent > old.txt
    diff old.txt new.txt

Digests depend on the host's BLAS kernels: compare two checkouts on one
host, never two hosts.

``--outcomes`` prints a Markdown table, one row per case: the unperturbed
plan's outcome (``plan``, or the failing waypoint index and the error
message), its SQP iterations (every ``solve_sqp`` the plan makes, summed,
as ``tests/test_sweep.py`` counts them), its passes of the ZMP chain's
kinematic tier and its value passes of the joint half and the force half
(``planner._kinematic_values``, ``planner._joint_values`` and
``planner._force_values`` calls; a pose whose line-search trial stops at
the merit bound runs the tier alone) and CPU seconds, and the outcomes
of its 10 perturbed copies (``test_sweep.perturbed``, seeds 0-9; ``.`` for
a plan, else the failing index) with their largest iteration count and CPU
time.  Outcomes and iterations are deterministic on one host; times are
not.  About 3 minutes.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

COPIES = 10
# The ZMP chain's kinematic tier and value passes, of its joint half and
# its force half.
PASSES = ("_kinematic_values", "_joint_values", "_force_values")


def _step_bytes(step) -> bytes:
    decision = step.decision
    parts = [decision.dtheta, decision.gamma,
             [decision.slack, decision.cost, decision.kkt_residual,
              decision.iterations, decision.converged],
             step.theta_after, step.object_position,
             step.zmp.zmp, step.zmp.ground_force,
             step.fzmp.zmp, step.fzmp.ground_force, step.loads]
    return b"".join(np.asarray(part, dtype=float).tobytes() for part in parts)


def _print_digests(cases):
    from contactplan.errors import PlanStepError
    from contactplan.planner import plan_path

    for name, config in cases:
        sha = hashlib.sha256()
        try:
            steps = plan_path(config)
        except PlanStepError as exc:
            sha.update(f"{type(exc).__name__}: {exc}".encode())
            steps = exc.partial_steps
        for step in steps:
            sha.update(_step_bytes(step))
        print(sha.hexdigest(), name)


def _print_outcomes(cases):
    from contactplan import planner
    from contactplan.errors import PlanStepError
    from test_sweep import perturbed

    iterations = []
    passes = dict.fromkeys(PASSES, 0)
    solve_sqp = planner.solve_sqp

    def counted(*args, **kwargs):
        result = solve_sqp(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    planner.solve_sqp = counted
    for pass_name in PASSES:
        def counted_pass(*args, real=getattr(planner, pass_name),
                         pass_name=pass_name):
            passes[pass_name] += 1
            return real(*args)
        setattr(planner, pass_name, counted_pass)

    def run(config):
        """(the PlanStepError or None, SQP iterations, CPU s) of a plan."""
        iterations.clear()
        passes.update(dict.fromkeys(PASSES, 0))
        start = time.process_time()
        try:
            planner.plan_path(config)
            error = None
        except PlanStepError as exc:
            error = exc
        return error, sum(iterations), time.process_time() - start

    print("| case | unperturbed | iterations | kinematic tier | joint values "
          "| force values | CPU s | copies that plan | copies, seeds 0-9 "
          "| most iterations | slowest copy, CPU s |")
    print("| --- | --- | ---: | ---: | ---: | ---: | ---: | ---: | --- "
          "| ---: | ---: |")
    for name, config in cases:
        error, count, cpu = run(config)
        kinematic, joint_values, force_values = (passes[p] for p in PASSES)
        outcome = "plan" if error is None \
            else f"fails at {error.waypoint_index}: {error}"
        copies = [run(perturbed(config, seed)) for seed in range(COPIES)]
        marks = " ".join("." if e is None else str(e.waypoint_index)
                         for e, _, _ in copies)
        plans = sum(e is None for e, _, _ in copies)
        print(f"| {name} | {outcome} | {count} | {kinematic} "
              f"| {joint_values} | {force_values} | {cpu:.2f} "
              f"| {plans}/{COPIES} | {marks} | {max(c[1] for c in copies)} "
              f"| {max(c[2] for c in copies):.2f} |", flush=True)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?",
                        default=Path(__file__).resolve().parents[1],
                        help="the checkout to plan with")
    parser.add_argument("--outcomes", action="store_true",
                        help="print the outcome table instead of digests")
    args = parser.parse_args(argv)
    root = Path(args.root)
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from contactplan.scenario import default_scenario
    from test_sweep import CASES

    cases = [("default", default_scenario())] + [
        (case.id, default_scenario(case.values[0])) for case in CASES]
    if args.outcomes:
        _print_outcomes(cases)
    else:
        _print_digests(cases)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
