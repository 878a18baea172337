"""Check a traced benchmark run: read perfbench/run.py's output on stdin.

The last line of output is a JSON object whose "correct" must be true.  The
tracer skips a hooked function that no longer exists without an error, so
each metric named on the command line must also read above zero.  Exits 1
when either check fails.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 5 --trace 1 \\
        | python3 .github/bench_smoke.py sqp.qp_calls statics.zmp_calls
"""

import json
import sys


def main(names) -> int:
    lines = sys.stdin.read().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    metrics = result.get("metrics", {})
    silent = [name for name in names
              if not metrics.get(name, {}).get("value", 0) > 0]
    if silent:
        print("hooks recorded no work:", ", ".join(silent))
    if result.get("correct") is not True:
        print('the run did not end with "correct": true')
    return 0 if result.get("correct") is True and not silent else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
