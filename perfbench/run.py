"""contactplan benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the repository root.  The planner is imported from ``src/`` next
to this directory.  One client plans in a closed loop: each operation is one
plan of one case, and the cases run in order, round and round, until
``--seconds`` have elapsed and at least one whole pass (every case once) is
complete.
Every operation's output is checked (see ``gate.py``).

Plan time on a shared host drifts with the load of its neighbours, by up
to 2x within minutes, so a fixed reference loop runs before and after
every operation and set-up probe, and every second inside a longer
operation (see ``reference.py``).  Each time metric is reported in
host-adjusted seconds: the time the operation would take on a host that
runs the reference loop in ``reference.REF_S`` seconds.  The raw
wall-clock figures are printed as text lines whose names end in ``_wall``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced, and reports the per-layer metrics of the
traced passes plus the tracing overhead; spans are written to
``.bench_out/``.  The last line of standard output is one JSON object; the
lines before it give each metric with its unit and sample count.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7
QP_REPLAY_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs in a fresh interpreter, so the import of the planner is timed too.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - start)
"""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper", "sweep", "stall"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_seconds(args, workdir: Path, clock) -> tuple[float, float]:
    """Median (adjusted, wall) time of import + case generation + validation,
    each probe scaled by the reference samples taken around it."""
    clock.sample()
    samples = []
    for repeat in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
             args.workload, str(args.seed), str(workdir / f"probe{repeat}")],
            capture_output=True, text=True, timeout=120, check=True)
        clock.sample()
        wall = float(probe.stdout.split()[-1])
        samples.append((wall * clock.scale(len(clock.samples) - 2), wall))
    return (statistics.median(adjusted for adjusted, _ in samples),
            statistics.median(wall for _, wall in samples))


@dataclass
class Timed:
    """One operation's outcome and its wall and CPU seconds, raw and
    host-adjusted; reference samples taken during it are left out."""

    outcome: object
    raw_wall_s: float
    wall_s: float
    raw_cpu_s: float
    cpu_s: float


def _measure(run_case, cases, seconds, clock, tracer=None) -> list:
    """Closed loop: plan the cases in order, round and round, until
    ``seconds`` have elapsed and at least one pass is complete.  A reference
    sample precedes the first plan and follows every plan."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    clock.sample()
    while len(outcomes) < len(cases) or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op += 1
        outcomes.append(run_case(cases[len(outcomes) % len(cases)]))
        clock.sample()
        if tracer is not None and len(outcomes) % len(cases) == 0:
            tracer.end_pass()
    return [Timed(o, *clock.adjust(*o.wall, clock=0), *clock.adjust(*o.cpu, clock=1))
            for o in outcomes]


def _pass_seconds(seconds, cases) -> list:
    """Sum of ``seconds`` over each complete pass."""
    n = len(cases)
    return [sum(seconds[i:i + n]) for i in range(0, len(seconds) - n + 1, n)]


def _end_to_end(timed, cases, setup_s) -> dict:
    """name -> (value, unit, samples) for the untraced run."""
    ops = [t.outcome for t in timed]
    wall = [t.wall_s for t in timed]
    passes = _pass_seconds(wall, cases)
    return {
        "plan_p50_s": (statistics.median(wall), "s", len(ops)),
        "plan_cpu_p50_s": (statistics.median(t.cpu_s for t in timed), "s", len(ops)),
        "pass_s": (statistics.median(passes), "s", len(passes)),
        "waypoints_per_s": (sum(o.waypoints for o in ops) / sum(wall), "1/s", len(ops)),
        "plan_ok_ratio": (sum(o.accepted for o in ops) / len(ops), "ratio", len(ops)),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1),
    }


def _wall_lines(timed, cases, setup_wall_s) -> list:
    """The unadjusted twins of the time metrics, as text."""
    wall = [t.raw_wall_s for t in timed]
    scales = [t.wall_s / t.raw_wall_s for t in timed if t.raw_wall_s > 0]
    passes = _pass_seconds(wall, cases)
    return [f"plan_p50_wall {statistics.median(wall):.6g} s n={len(wall)}",
            f"plan_cpu_p50_wall {statistics.median(t.raw_cpu_s for t in timed):.6g} s "
            f"n={len(wall)}",
            f"pass_wall {statistics.median(passes):.6g} s n={len(passes)}",
            f"setup_wall {setup_wall_s:.6g} s n={SETUP_REPEATS}",
            f"host_scale_p50 {statistics.median(scales):.6g} ratio n={len(scales)}"]


def _tail_line(timed) -> str:
    """The highest percentile with at least ten plans beyond it."""
    wall = sorted(t.wall_s for t in timed)
    if len(wall) < 11:
        return f"plan_tail_s omitted: {len(wall)} plans, fewer than 11"
    pct = 100.0 * (len(wall) - 10) / len(wall)
    return f"plan_tail_s {wall[-11]:.6f} s p{pct:.1f} n={len(wall)}"


def _per_layer(tracer, cases, plain, traced, replay_s) -> dict:
    """name -> (value, unit, samples): medians over the traced passes."""
    units = {"_s": "s", "_bytes": "bytes", "_per_point": "ratio", "_per_iter": "ratio"}
    metrics = {}
    for name in tracer.passes[0]:
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        value = statistics.median_low(p[name] for p in tracer.passes)
        metrics[name] = (value, unit, len(tracer.passes))
    metrics["sqp.qp_replay_s"] = (replay_s, "s", QP_REPLAY_REPEATS)
    traced_passes = _pass_seconds([t.wall_s for t in traced], cases)
    overhead = (statistics.median(traced_passes)
                / statistics.median(_pass_seconds([t.wall_s for t in plain], cases)))
    metrics["trace.overhead_ratio"] = (overhead, "ratio", len(traced_passes))
    return metrics


def _environment(np_version: str, tol_con: float) -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np_version,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "tol_con": tol_con}


def run(args, workdir: Path) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import gate
    import reference
    import workloads
    from contactplan import planner
    from contactplan.scenario import default_scenario

    env = _environment(np.__version__, gate.TOL_CON)
    cases = workloads.setup(args.workload, args.seed, str(workdir / "cases"))
    outdir = workdir / "out"
    outdir.mkdir(parents=True)
    problems = []

    def run_case(case):
        return workloads.run_case(args.workload, case, str(outdir))

    clock = reference.HostClock()
    if args.trace:
        import tracing
        calls = tracing.record_qp_calls(lambda: planner.plan_path(default_scenario()))
        replay_s, problems = tracing.replay_qp_calls(calls, QP_REPLAY_REPEATS)
        # Samples only between plans here, so none falls inside a span.
        plain = _measure(run_case, cases, args.seconds / 2, clock)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = _measure(run_case, cases, args.seconds / 2, clock, tracer)
        timed = plain + traced
        metrics = _per_layer(tracer, cases, plain, traced, replay_s)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / f"spans-{args.workload}.npz"),
                     {"workload": args.workload, "seed": args.seed,
                      "qp_calls_recorded": len(calls), "env": env})
    else:
        setup_s, setup_wall_s = _setup_seconds(args, workdir, clock)
        with clock.sampling():
            timed = _measure(run_case, cases, args.seconds, clock)
        metrics = _end_to_end(timed, cases, setup_s)

    ops = [t.outcome for t in timed]
    failed = [o for o in ops if o.problems]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cases={len(cases)} plans={len(ops)} env={json.dumps(env)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} {value:.6g} {unit} n={samples}")
    if not args.trace:
        print(_tail_line(timed))
        print("\n".join(_wall_lines(timed, cases, setup_wall_s)))
    rejected = [o for o in ops if not o.accepted]
    print(f"plan_fail_ratio {len(rejected) / len(ops):.6g} ratio n={len(ops)}")
    for o in rejected:
        if o.typed_error:
            print(f"# typed error: case {o.case}: {o.typed_error} after {o.waypoints} steps")
    for o in failed:
        print(f"# FAILED case {o.case}: {'; '.join(o.problems)}")
    for problem in problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "contactplan" / "__init__.py").is_file():
        print(f"contactplan sources not found under {SRC}", file=sys.stderr)
        return 2
    # Pinned before numpy loads, here and in the setup probes.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
