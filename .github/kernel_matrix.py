"""Print the plan outcomes that depend on the OpenBLAS kernel.

Runs ``plan_digest.py --outcomes`` three times, each in its own process:
under the host's own kernel, then with ``OPENBLAS_CORETYPE`` set to
``Haswell`` (AVX2) and to ``SandyBridge`` (AVX), which OpenBLAS reads when
numpy loads.  A cell is one case's unperturbed plan or one of its 10
perturbed copies, and its outcome is ``plan`` or the waypoint it fails at
(an unperturbed failure's message is printed too, but not compared: its
numbers move with the kernel).  The script prints every cell whose outcome
differs between the kernels, then how many cells plan under each kernel.
It reports and never fails on a disagreement.  About 6 minutes on a
2-vCPU x86-64 host:

    python3 .github/kernel_matrix.py [--save DIR]

It plans with this script's own checkout.  ``--save DIR`` also writes each
kernel's table to ``DIR/outcomes-<kernel>.md``.  The forced kernels exist
on x86-64 only; on any other host the script says so and exits 0.
"""

import argparse
import os
import platform
import subprocess
import sys
from pathlib import Path

KERNELS = ("host", "Haswell", "SandyBridge")
DIGEST = Path(__file__).resolve().with_name("plan_digest.py")


def _outcomes(kernel: str) -> str:
    """The ``--outcomes`` table planned under ``kernel``."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "host":
        env["OPENBLAS_CORETYPE"] = kernel
    result = subprocess.run([sys.executable, str(DIGEST), "--outcomes"],
                            env=env, capture_output=True, text=True)
    if result.returncode:
        sys.exit(f"plan_digest.py --outcomes failed under {kernel}:\n"
                 f"{result.stderr}")
    return result.stdout


def _cells(table: str) -> dict:
    """{(case, cell): outcome} of one table: the unperturbed outcome as
    printed, and each copy's ``plan`` or ``fails at <index>``."""
    cells = {}
    for line in table.splitlines()[2:]:
        fields = [field.strip() for field in line.strip().strip("|").split("|")]
        case, unperturbed, marks = fields[0], fields[1], fields[8].split()
        cells[case, "unperturbed"] = unperturbed
        for seed, mark in enumerate(marks):
            cells[case, f"copy {seed}"] = "plan" if mark == "." \
                else f"fails at {mark}"
    return cells


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="DIR",
                        help="write each kernel's table into DIR")
    args = parser.parse_args(argv)
    if platform.machine().lower() not in ("x86_64", "amd64"):
        print(f"skipped: the OpenBLAS kernels {', '.join(KERNELS[1:])} exist "
              f"on x86-64 only, and this host is {platform.machine()}")
        return 0

    cells = {}
    for kernel in KERNELS:
        table = _outcomes(kernel)
        if args.save:
            Path(args.save, f"outcomes-{kernel}.md").write_text(table)
        cells[kernel] = _cells(table)
    keys = list(cells["host"])
    disagree = [key for key in keys if len(
        {cells[kernel][key].split(":")[0] for kernel in KERNELS}) > 1]
    print(f"| case | cell | {' | '.join(KERNELS)} |")
    print("| --- | --- |" + " --- |" * len(KERNELS))
    for case, cell in disagree:
        outcomes = " | ".join(cells[kernel][case, cell] for kernel in KERNELS)
        print(f"| {case} | {cell} | {outcomes} |")
    print(f"\n{len(disagree)} of {len(keys)} cells disagree")
    print("cells that plan: " + ", ".join(
        f"{kernel} {sum(v == 'plan' for v in cells[kernel].values())}"
        for kernel in KERNELS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
