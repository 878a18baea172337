"""Pinned trace of the default run.

``data/golden_default.csv`` is the CSV that ``python -m contactplan --csv``
writes for the built-in scenario.  Every column except the iteration count is
compared at the solver's constraint tolerance (1e-6, relative above 1); the
iteration counts are printed for inspection but not asserted.  The file is
never regenerated to make a change pass.
"""

from pathlib import Path

import numpy as np

from contactplan.cli import CSV_HEADER, emit_csv, read_csv

GOLDEN = Path(__file__).parent / "data" / "golden_default.csv"
TOL = 1e-6   # SolverSettings.tol_con of the default scenario


def _table(records) -> np.ndarray:
    return np.array([r.csv_row() for r in records], dtype=float)


def test_default_run_matches_golden_trace(step_records, tmp_path):
    path = tmp_path / "trace.csv"
    emit_csv(step_records, str(path))
    actual = _table(read_csv(str(path)))
    golden = _table(read_csv(str(GOLDEN)))
    assert actual.shape == golden.shape

    columns = CSV_HEADER.split(",")
    iters = columns.index("iters")
    print("iters golden:", golden[:, iters].astype(int).tolist(),
          "actual:", actual[:, iters].astype(int).tolist())
    for col, name in enumerate(columns):
        if col == iters:
            continue
        bound = TOL * np.maximum(1.0, np.abs(golden[:, col]))
        diff = np.abs(actual[:, col] - golden[:, col])
        assert np.all(diff <= bound), (
            f"column {name}: max deviation {diff.max():.3g} at row "
            f"{int(np.argmax(diff - bound))}")
