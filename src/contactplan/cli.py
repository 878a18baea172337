"""Command-line entry point: plan a scenario, write CSV and SVG outputs.

The CSV trace has one row per accepted plan step with a fixed header; SVG
output reproduces the workspace, ZMP, and force/torque views of a run.
Logging goes to stderr only, keeping the data streams machine-clean.
"""

import argparse
import csv
import logging
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import planner as pl
from . import torque as tq
from .errors import ContactPlanError
from .plots import emit_plots as _emit_plot_files
from .scenario import ScenarioConfig, default_scenario, load_scenario

log = logging.getLogger("contactplan")

CSV_HEADER = ("step,obj_x,obj_y,wp_x,wp_y,zmp_x,zmp_y,fzmp_x,fzmp_y,"
              "gamma_1,beta_1,gap_1,gamma_2,beta_2,gap_2,fs_norm,tau_norm,"
              "iters,cost,slack,dist")


@dataclass(frozen=True)
class StepRecord:
    """Observables of one accepted plan step (one CSV row)."""

    step: int
    object_position: np.ndarray
    waypoint: np.ndarray
    zmp: np.ndarray
    fzmp: np.ndarray
    gamma: np.ndarray            # (2,)
    beta: np.ndarray             # (2,)
    gap: np.ndarray              # (2,)
    support_force_norm: float
    torque_norm: float
    iterations: int
    cost: float
    slack: float
    distance: float
    # The plan step's joint points, for the path plot; none from a CSV.
    joint_points: tuple | None = field(default=None, compare=False)

    def csv_row(self) -> list:
        return [self.step,
                *self.object_position, *self.waypoint, *self.zmp, *self.fzmp,
                self.gamma[0], self.beta[0], self.gap[0],
                self.gamma[1], self.beta[1], self.gap[1],
                self.support_force_norm, self.torque_norm, self.iterations,
                self.cost, self.slack, self.distance]


def records_from_steps(steps, config: ScenarioConfig) -> list[StepRecord]:
    """Per-step observables including the prioritized joint torques, from
    each step's joint points and loads."""
    base_center = config.arm_bases.mean(axis=0)
    records = []
    for index, step in enumerate(steps):
        gamma = step.decision.gamma
        torques = tq.combined_torques(step.joint_points,
                                      config.contact_link_index, step.contacts,
                                      gamma, step.loads)
        records.append(StepRecord(
            step=index,
            object_position=step.object_position,
            waypoint=step.waypoint,
            zmp=step.zmp.zmp,
            fzmp=step.fzmp.zmp,
            gamma=gamma.copy(),
            beta=np.array([c.normal_angle for c in step.contacts]),
            gap=np.array([c.gap for c in step.contacts]),
            support_force_norm=float(np.linalg.norm(step.loads[2:])),
            torque_norm=float(np.linalg.norm(torques)),
            iterations=step.decision.iterations,
            cost=step.decision.cost,
            slack=step.decision.slack,
            distance=float(np.linalg.norm(step.object_position - base_center)),
            joint_points=step.joint_points,
        ))
    return records


def emit_csv(records, path: str) -> None:
    """Write the trace with the fixed header; full-precision decimals.

    Raises:
        ValueError: on an empty record list.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(CSV_HEADER + "\n")
        for record in records:
            handle.write(",".join(
                repr(float(v)) if isinstance(v, float) else str(int(v))
                for v in record.csv_row()) + "\n")


def read_csv(path: str) -> list[StepRecord]:
    """Parse a trace written by ``emit_csv`` (round-trips exactly).

    Raises:
        ValueError: naming the line, for a wrong header, field count or
            number, a number that is not finite, or a ``step`` or ``iters``
            that is not an integer.
    """
    names = CSV_HEADER.split(",")
    width = len(names)
    records = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or ",".join(header) != CSV_HEADER:
            raise ValueError(f"{path}, line 1: expected the header {CSV_HEADER}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != width:
                raise ValueError(f"{where}: {len(row)} fields, expected {width}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            for name, value, text in zip(names, values, row):
                if not math.isfinite(value):
                    raise ValueError(f"{where}: {name} {text} is not finite")
            if not (values[0].is_integer() and values[17].is_integer()):
                raise ValueError(f"{where}: step {row[0]} and iters {row[17]} "
                                 f"must be integers")
            records.append(StepRecord(
                step=int(values[0]),
                object_position=np.array(values[1:3]),
                waypoint=np.array(values[3:5]),
                zmp=np.array(values[5:7]),
                fzmp=np.array(values[7:9]),
                gamma=np.array([values[9], values[12]]),
                beta=np.array([values[10], values[13]]),
                gap=np.array([values[11], values[14]]),
                support_force_norm=values[15],
                torque_norm=values[16],
                iterations=int(values[17]),
                cost=values[18],
                slack=values[19],
                distance=values[20],
            ))
    return records


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactplan",
        description="Plan a dual-arm glovebox manipulation scenario and "
                    "write its trace.")
    parser.add_argument("--scenario", metavar="PATH",
                        help="scenario file (default: the built-in "
                             "experiment)")
    parser.add_argument("--csv", metavar="PATH",
                        help="write the step trace as CSV")
    parser.add_argument("--svg", metavar="DIR",
                        help="write path/zmp/forces SVG plots into DIR")
    parser.add_argument("--verbose", action="store_true",
                        help="log per-step progress to stderr")
    return parser


def run(argv=None) -> int:
    """Run the planner per CLI arguments; returns the process exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    # basicConfig sets up the root handler once per process; the level is
    # this run's, so it is set on the package logger every time.
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)

    try:
        config = default_scenario() if args.scenario is None \
            else load_scenario(args.scenario)
    except (ContactPlanError, ValueError) as exc:
        log.error("scenario error: %s", exc)
        return 1

    try:
        log.info("planning %d waypoints", config.waypoint_count)
        steps = pl.plan_path(config)
        for index, step in enumerate(steps):
            log.info("step %d: iterations=%d cost=%.4g slack=%.3g",
                     index, step.decision.iterations, step.decision.cost,
                     step.decision.slack)
    except ContactPlanError as exc:
        log.error("planning failed: %s", exc)
        for key, value in exc.diagnostics.items():
            print(f"  {key}: {value}", file=sys.stderr)
        return 1

    records = records_from_steps(steps, config)
    try:
        if args.csv:
            emit_csv(records, args.csv)
            log.info("wrote %s", args.csv)
        if args.svg:
            for path in _emit_plot_files(records, config, args.svg):
                log.info("wrote %s", path)
    except OSError as exc:
        log.error("cannot write output: %s", exc)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
