"""Print one sha256 per plan: the default experiment, then each sweep case.

The digest of a plan covers every accepted step's decision (dtheta, gamma,
s, cost, KKT residual, iterations, convergence), theta after the step, the
object position, the ZMP and FZMP with their ground forces, and the (4, 3)
load rows.  A case that fails hashes its typed error's class and message
and the partial steps instead.  So two checkouts plan byte-identically
when the outputs match:

    python3 .github/plan_digest.py > new.txt
    (cd ../parent && python3 .github/plan_digest.py) > old.txt
    diff old.txt new.txt

An optional argument names the checkout to plan with (default: this
script's own).  The cases are ``tests/test_sweep.py``'s ``CASES``, so
pytest must be importable.  Digests depend on the host's BLAS kernels:
compare two checkouts on one host, never two hosts.  About 15 s.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np


def _step_bytes(step) -> bytes:
    decision = step.decision
    parts = [decision.dtheta, decision.gamma,
             [decision.slack, decision.cost, decision.kkt_residual,
              decision.iterations, decision.converged],
             step.theta_after, step.object_position,
             step.zmp.zmp, step.zmp.ground_force,
             step.fzmp.zmp, step.fzmp.ground_force, step.loads]
    return b"".join(np.asarray(part, dtype=float).tobytes() for part in parts)


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1])
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from contactplan.errors import PlanStepError
    from contactplan.planner import plan_path
    from contactplan.scenario import default_scenario
    from test_sweep import CASES

    cases = [("default", {})] + [(case.id, case.values[0]) for case in CASES]
    for name, overrides in cases:
        sha = hashlib.sha256()
        try:
            steps = plan_path(default_scenario(overrides))
        except PlanStepError as exc:
            sha.update(f"{type(exc).__name__}: {exc}".encode())
            steps = exc.partial_steps
        for step in steps:
            sha.update(_step_bytes(step))
        print(sha.hexdigest(), name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
