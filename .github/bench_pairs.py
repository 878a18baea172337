"""Compare two checkouts on one benchmark workload, in alternating pairs.

Each pair runs ``perfbench/run.py`` once from each checkout, as it stands
there, with the same workload, seed and duration; the side that runs first
alternates from pair to pair, so a drift of the host's speed falls on both
sides alike.  Then, for each end-to-end metric of HEAD's ``BENCHMARK.json``,
it prints each side's median and quartiles, HEAD's median gain over BASE
(positive when HEAD is better, by the metric's ``better`` direction), BASE's
quartile spread, the number of pairs HEAD wins (a tie counts for neither
side), and whether a gain may be claimed: HEAD wins at least 9 of every 10
pairs and its median gain exceeds BASE's q3 - q1.  Exits 1, after printing
the run's last lines, as soon as a run fails or does not end with
``"correct": true``.

    python3 .github/bench_pairs.py ../parent . --workload paper \\
        --pairs 10 --seconds 25 --seed 3
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _run(checkout: Path, args) -> dict:
    """The end-to-end metrics of one run from ``checkout``, or None when
    the run fails or is not correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        print(f"run from {checkout} failed (exit {proc.returncode}):")
        print("\n".join((lines + proc.stderr.splitlines())[-20:]))
        return None
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def _quartiles(values: list) -> tuple:
    """(q1, median, q3) of ``values``; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="the checkout to compare to")
    parser.add_argument("head", type=Path, help="the checkout to judge")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.base, args.head):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
    spec = json.loads((args.head / "BENCHMARK.json").read_text())

    runs = {"base": [], "head": []}
    for pair in range(args.pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            metrics = _run(getattr(args, side), args)
            if metrics is None:
                return 1
            runs[side].append(metrics)
            print(f"# pair {pair + 1}/{args.pairs} {side}: "
                  + " ".join(f"{name}={value:.6g}"
                             for name, value in metrics.items()), flush=True)

    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} pairs={args.pairs}")
    print("| metric | better | base median [q1, q3] | head median [q1, q3] "
          "| head gain | base q3 - q1 | head wins | gain claimable |")
    print("| --- | --- | ---: | ---: | ---: | ---: | ---: | --- |")
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        if not all(name in run for side in runs.values() for run in side):
            continue
        base = [run[name] for run in runs["base"]]
        head = [run[name] for run in runs["head"]]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (h - b) > 0.0 for b, h in zip(base, head))
        (bq1, bmed, bq3), (hq1, hmed, hq3) = _quartiles(base), _quartiles(head)
        gain = sign * (hmed - bmed)
        claimable = 10 * wins >= 9 * args.pairs and gain > bq3 - bq1
        print(f"| {name} | {better} | {bmed:.6g} [{bq1:.6g}, {bq3:.6g}] "
              f"| {hmed:.6g} [{hq1:.6g}, {hq3:.6g}] "
              f"| {gain:+.6g} | {bq3 - bq1:.6g} "
              f"| {wins}/{args.pairs} | {'yes' if claimable else 'no'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
