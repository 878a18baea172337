"""Output-correctness gate applied to every benchmark operation.

Each accepted plan step must satisfy the acceptance invariants at the
solver tolerance ``TOL_CON``: the object within ``object_radius`` of its
waypoint, the ZMP within ``safe_radius`` of ``sp_center``, non-negative
support forces, gaps no deeper than ``TOL_CON``, and relaxed
complementarity ``gamma . phi <= s <= slack_max``.  A complete plan has one
step per waypoint.  The tolerance is fixed here, not read from the
scenario, so a scenario cannot loosen its own check.
"""

import os
import xml.etree.ElementTree as ElementTree

import numpy as np

from contactplan import cli

TOL_CON = 1e-6
SVG_NAMES = ("path.svg", "zmp.svg", "forces.svg")


def check_rows(rows, config, complete: bool) -> list[str]:
    """Check (object, zmp, gamma, phi, slack) tuples against the invariants.

    Row ``i`` belongs to waypoint ``i`` of ``config``; ``complete`` demands
    one row per waypoint.
    """
    waypoints = config.waypoints()
    problems = []
    if complete and len(rows) != len(waypoints):
        problems.append(f"{len(rows)} steps for {len(waypoints)} waypoints")
    if len(rows) > len(waypoints):
        return problems + ["more steps than waypoints"]
    for i, (obj, zmp, gamma, phi, slack) in enumerate(rows):
        gamma, phi = np.asarray(gamma, dtype=float), np.asarray(phi, dtype=float)
        deviation = float(np.linalg.norm(np.asarray(obj) - waypoints[i]))
        zmp_dist = float(np.linalg.norm(np.asarray(zmp) - config.sp_center))
        checks = [
            (deviation <= config.object_radius + TOL_CON,
             f"object deviation {deviation:.9g} m"),
            (zmp_dist <= config.safe_radius + TOL_CON,
             f"ZMP {zmp_dist:.9g} m from sp_center"),
            (bool(np.all(gamma >= -TOL_CON)), f"negative force {gamma}"),
            (bool(np.all(phi >= -TOL_CON)), f"penetration {phi}"),
            (float(gamma @ phi) <= slack + TOL_CON,
             f"gamma.phi {float(gamma @ phi):.3g} above slack {slack:.3g}"),
            (slack <= config.solver.slack_max + TOL_CON, f"slack {slack:.3g}"),
            (bool(np.all(np.isfinite(np.concatenate([gamma, phi, [slack]])))),
             "non-finite output"),
        ]
        problems += [f"step {i}: {message}" for ok, message in checks if not ok]
    return problems


def check_steps(steps, config, complete: bool) -> list[str]:
    """Gate a list of ``PlanStep`` (a whole plan, or a failed plan's prefix)."""
    rows = [(step.object_position, step.zmp.zmp, step.decision.gamma,
             [c.gap for c in step.contacts], float(step.decision.slack))
            for step in steps]
    return check_rows(rows, config, complete)


def check_cli_output(csv_path: str, svg_dir: str, config) -> tuple[int, list[str]]:
    """Read the CLI's CSV back and parse its SVGs; returns (rows, problems)."""
    try:
        records = cli.read_csv(csv_path)
    except (OSError, ValueError) as exc:
        return 0, [f"CSV unreadable: {exc}"]
    rows = [(r.object_position, r.zmp, r.gamma, r.gap, r.slack) for r in records]
    problems = check_rows(rows, config, complete=True)
    for name in SVG_NAMES:
        path = os.path.join(svg_dir, name)
        try:
            root = ElementTree.parse(path).getroot()
        except (OSError, ElementTree.ParseError) as exc:
            problems.append(f"{name} unreadable: {exc}")
            continue
        if not root.tag.endswith("svg"):
            problems.append(f"{name} root element is {root.tag}")
    return len(records), problems
