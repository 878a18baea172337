"""Layer spans and counters for the traced benchmark run.

The tracer wraps public functions of the ``contactplan`` modules from the
outside: every module attribute bound to a wrapped function is replaced
for the duration of the run and restored afterwards, so ``src/`` needs no
instrumentation.  Each call records a span (name, parent span, operation,
start, end) in compact in-memory arrays that are written out once, at the
end.  A span's self time is its duration minus the time covered by its
child spans.  Counters are kept per pass; the runner reports the median
pass, so counts of a deterministic pass repeat exactly.

The frozen-QP replay records the arguments of every ``solve_qp`` call made
by one plan, then re-solves them through ``sqp.solve_qp`` alone.
"""

import copy
import json
import os
import statistics
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import contactplan
from contactplan import cli, contact, kinematics, planner, plots, scenario, sqp, statics, torque
from contactplan.errors import InfeasibleStepError, PlanStepError

MODULES = (contactplan, cli, contact, kinematics, planner, plots, scenario, sqp,
           statics, torque)

NLP_VALUE_FIELDS = ("cost", "equalities", "inequalities")
NLP_JAC_FIELDS = ("cost_grad", "equality_jac", "inequality_jac")


def _rebind(fn, replacement) -> list:
    """Point every module attribute bound to ``fn`` at ``replacement``.

    Returns the (module, name, fn) triples that undo it.
    """
    undo = []
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is fn:
                setattr(module, name, replacement)
                undo.append((module, name, fn))
    return undo


def _restore(undo: list) -> None:
    for module, name, fn in reversed(undo):
        setattr(module, name, fn)


class Tracer:
    """Spans and per-pass counters at the contactplan layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self.passes: list[dict] = []
        self._stack: list[list] = []     # [span index, seconds of children]
        self._undo: list = []
        self._reset()

    def _reset(self) -> None:
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.waypoint_s: list[float] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, result, error,
        duration)`` runs once the span has closed."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_op.append(self.op)
            frame = [index, 0.0]
            self._stack.append(frame)
            result = error = None
            start = time.perf_counter()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.span_end[index] = end
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if after is not None:
                    after(args, kwargs, result, error, duration)
        return traced

    def install(self, module, attr: str, name: str, after=None) -> None:
        """Trace ``module.attr`` wherever the package binds it; absent
        attributes are skipped."""
        fn = getattr(module, attr, None)
        if callable(fn):
            self._undo += _rebind(fn, self.span(name, fn, after))

    @contextmanager
    def installed(self):
        """Wrap every traced layer for the duration of the block."""
        for attr in sorted(vars(contact)):
            fn = getattr(contact, attr)
            if (not attr.startswith("_") and callable(fn) and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == contact.__name__):
                self.install(contact, attr, "contact")
        self.install(kinematics, "forward_kinematics", "kinematics.fk")
        self.install(kinematics, "point_jacobian", "kinematics.jacobian")
        self.install(statics, "compute_zmp", "statics.zmp")
        self.install(planner, "build_step_nlp", "planner.build_nlp", self._after_build_nlp)
        self.install(planner, "plan_waypoint", "planner.waypoint", self._after_waypoint)
        self.install(planner, "initial_joint_angles", "planner.init_pose")
        self.install(sqp, "solve_sqp", "sqp.solve_sqp", self._after_sqp)
        self.install(sqp, "solve_qp", "sqp.qp")
        self.install(torque, "combined_torques", "torque")
        self.install(scenario, "load_scenario", "scenario.load")
        self.install(cli, "records_from_steps", "cli.records")
        self.install(cli, "emit_csv", "cli.csv", self._after_csv)
        self.install(plots, "emit_plots", "plots.svg", self._after_plots)
        try:
            yield self
        finally:
            _restore(self._undo)
            self._undo = []

    # -- hooks reading results at the layer boundaries -------------------

    def _after_build_nlp(self, args, kwargs, nlp, error, duration) -> None:
        if error is not None:
            return
        seen = set()

        def counted(fn, span_fn):
            def call(x, *rest):
                key = np.asarray(x).tobytes()
                if key not in seen:
                    seen.add(key)
                    self.counts["nlp_points"] += 1
                return span_fn(x, *rest)
            call.counted_nlp = True
            return call

        for fields, name in ((NLP_VALUE_FIELDS, "planner.nlp_value"),
                             (NLP_JAC_FIELDS, "planner.nlp_jac")):
            for field in fields:
                fn = getattr(nlp, field, None)
                if callable(fn):
                    setattr(nlp, field, counted(fn, self.span(name, fn)))

    def _after_waypoint(self, args, kwargs, step, error, duration) -> None:
        self.waypoint_s.append(duration)
        if error is None:
            self.counts["waypoints"] += 1
        elif isinstance(error, PlanStepError):
            self.counts["step_errors"] += 1

    def _after_sqp(self, args, kwargs, result, error, duration) -> None:
        self.counts["stages"] += 1
        if isinstance(error, InfeasibleStepError):
            self.counts["infeasible_errors"] += 1
        if error is not None:
            return
        settings = args[2] if len(args) > 2 else kwargs.get("settings")
        cap = getattr(settings, "max_iterations", None)
        self.counts["iterations"] += result.iterations
        self.counts["stages_capped"] += int(cap is not None and result.iterations >= cap)
        self.counts["stages_zero_iter"] += int(result.iterations == 0)
        if args and getattr(getattr(args[0], "cost", None), "counted_nlp", False):
            self.counts["nlp_iterations"] += result.iterations

    def _after_csv(self, args, kwargs, result, error, duration) -> None:
        path = args[1] if len(args) > 1 else kwargs.get("path")
        if error is None and path and os.path.exists(path):
            self.counts["csv_bytes"] += os.path.getsize(path)

    def _after_plots(self, args, kwargs, paths, error, duration) -> None:
        if error is None:
            self.counts["svg_bytes"] += sum(os.path.getsize(p) for p in paths)

    # -- per-pass metrics and span output ---------------------------------

    def end_pass(self) -> None:
        """Close the current pass: store its layer metrics, reset counters."""
        calls, self_s, total_s, counts = self.calls, self.self_s, self.total_s, self.counts
        nlp_calls = calls["planner.nlp_value"] + calls["planner.nlp_jac"]
        points = counts["nlp_points"]
        self.passes.append({
            "kinematics.fk_calls": calls["kinematics.fk"],
            "kinematics.fk_self_s": self_s["kinematics.fk"],
            "kinematics.jacobian_calls": calls["kinematics.jacobian"],
            "kinematics.jacobian_self_s": self_s["kinematics.jacobian"],
            "kinematics.fk_calls_per_point": _ratio(calls["kinematics.fk"], points),
            "statics.zmp_calls": calls["statics.zmp"],
            "statics.zmp_self_s": self_s["statics.zmp"],
            "contact.calls": calls["contact"],
            "contact.self_s": self_s["contact"],
            "planner.nlp_value_calls": calls["planner.nlp_value"],
            "planner.nlp_jac_calls": calls["planner.nlp_jac"],
            "planner.nlp_self_s": self_s["planner.nlp_value"] + self_s["planner.nlp_jac"],
            "planner.nlp_points": points,
            "planner.nlp_calls_per_point": _ratio(nlp_calls, points),
            "planner.waypoints": counts["waypoints"],
            "planner.waypoint_p50_s": (statistics.median(self.waypoint_s)
                                       if self.waypoint_s else 0.0),
            "planner.init_pose_s": total_s["planner.init_pose"],
            "planner.step_errors": counts["step_errors"],
            "sqp.stages": counts["stages"],
            "sqp.iterations": counts["iterations"],
            "sqp.stages_capped": counts["stages_capped"],
            "sqp.stages_zero_iter": counts["stages_zero_iter"],
            "sqp.nlp_calls_per_iter": _ratio(nlp_calls, counts["nlp_iterations"]),
            "sqp.driver_self_s": self_s["sqp.solve_sqp"],
            "sqp.qp_calls": calls["sqp.qp"],
            "sqp.qp_self_s": self_s["sqp.qp"],
            "sqp.infeasible_errors": counts["infeasible_errors"],
            "torque.calls": calls["torque"],
            "torque.self_s": self_s["torque"],
            "scenario.loads": calls["scenario.load"],
            "scenario.load_s": total_s["scenario.load"],
            "cli.records_s": total_s["cli.records"],
            "cli.csv_s": total_s["cli.csv"],
            "cli.csv_bytes": counts["csv_bytes"],
            "plots.svg_s": total_s["plots.svg"],
            "plots.svg_bytes": counts["svg_bytes"],
        })
        self._reset()

    def write(self, path: str, meta: dict) -> None:
        """Write every span and the per-pass metrics to one ``.npz`` file."""
        meta = dict(meta, names=self.names, passes=self.passes)
        np.savez(path, name=np.asarray(self.span_name, dtype=np.int32),
                 parent=np.asarray(self.span_parent, dtype=np.int32),
                 op=np.asarray(self.span_op, dtype=np.int32),
                 start=np.asarray(self.span_start, dtype=np.float64),
                 end=np.asarray(self.span_end, dtype=np.float64),
                 meta=np.asarray(json.dumps(meta)))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def record_qp_calls(run) -> list:
    """Arguments and returned ``x`` of every ``solve_qp`` call made by ``run()``."""
    original = sqp.solve_qp
    calls = []

    def recorder(*args, **kwargs):
        frozen = copy.deepcopy((args, kwargs))
        result = original(*args, **kwargs)
        calls.append((frozen[0], frozen[1], np.array(result.x, copy=True)))
        return result

    undo = _rebind(original, recorder)
    try:
        run()
    finally:
        _restore(undo)
    return calls


def replay_qp_calls(calls: list, repeats: int) -> tuple[float, list[str]]:
    """Re-solve recorded QPs; returns (median seconds per replay, problems).

    Every returned ``x`` must be bit-identical to the recorded one.
    """
    problems = []
    times = []
    for _ in range(repeats):
        inputs = copy.deepcopy([(args, kwargs) for args, kwargs, _ in calls])
        start = time.perf_counter()
        results = [sqp.solve_qp(*args, **kwargs) for args, kwargs in inputs]
        times.append(time.perf_counter() - start)
        for index, (result, (_, _, expected)) in enumerate(zip(results, calls)):
            got = np.asarray(result.x)
            if got.shape != expected.shape or got.tobytes() != expected.tobytes():
                problems.append(f"QP replay {index}: x differs from the recorded solve")
    return statistics.median(times), sorted(set(problems))
