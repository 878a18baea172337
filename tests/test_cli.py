import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
import yaml

from contactplan import cli
from contactplan.cli import CSV_HEADER, StepRecord, emit_csv, read_csv, run
from contactplan.plots import emit_plots
from contactplan.scenario import load_scenario

from test_golden import GOLDEN
from test_planner import NON_FINITE
from test_scenario import SHORT_LINKS, assert_same_config


def synthetic_records(count=3, gamma=(0.0, 0.0)):
    records = []
    for i in range(count):
        records.append(StepRecord(
            step=i,
            object_position=np.array([0.0, 0.45 + 0.05 * i]),
            waypoint=np.array([0.0, 0.45 + 0.05 * i]),
            zmp=np.array([0.001 * i, 0.12]),
            fzmp=np.array([0.0, 0.18]),
            gamma=np.array(gamma, dtype=float),
            beta=np.array([-2.0, -1.1]),
            gap=np.array([0.0, 0.0]),
            support_force_norm=float(np.hypot(*gamma)),
            torque_norm=3.5 + i,
            iterations=5,
            cost=1.25 * i,
            slack=1e-7,
            distance=0.45 + 0.05 * i,
        ))
    return records


class TestEmitCsv:
    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "trace.csv"
        emit_csv(synthetic_records(9), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 10
        assert lines[0] == CSV_HEADER

    def test_no_contact_rows_write_zero_gamma(self, tmp_path):
        path = tmp_path / "trace.csv"
        emit_csv(synthetic_records(1, gamma=(0.0, 0.0)), str(path))
        row = path.read_text().splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert float(row[header.index("gamma_1")]) == 0.0
        assert float(row[header.index("gamma_2")]) == 0.0

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "trace.csv"
        records = synthetic_records(4, gamma=(12.25, 8.5))
        emit_csv(records, str(path))
        parsed = read_csv(str(path))
        assert len(parsed) == len(records)
        for a, b in zip(records, parsed):
            assert a.step == b.step
            np.testing.assert_array_equal(a.object_position, b.object_position)
            np.testing.assert_array_equal(a.zmp, b.zmp)
            np.testing.assert_array_equal(a.gamma, b.gamma)
            assert a.cost == b.cost and a.slack == b.slack
            assert a.distance == b.distance

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], str(tmp_path / "x.csv"))


class TestReadCsv:
    """A malformed trace is a ValueError that names the line."""

    def write(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        return str(path)

    def valid_rows(self, tmp_path):
        path = tmp_path / "valid.csv"
        emit_csv(synthetic_records(2), str(path))
        return path.read_text().splitlines()

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            read_csv(self.write(tmp_path, ""))

    def test_short_row(self, tmp_path):
        header, first, second = self.valid_rows(tmp_path)
        short = ",".join(second.split(",")[:-3])
        with pytest.raises(ValueError, match="line 3"):
            read_csv(self.write(tmp_path, "\n".join([header, first, short]) + "\n"))

    @pytest.mark.parametrize("values, match", [
        ({"step": "1.5"}, "step 1.5"),
        ({"iters": "1.5"}, "iters 1.5"),
        ({"zmp_x": "nan", "gamma_1": "inf"}, "zmp_x nan is not finite"),
    ], ids=["step", "iters", "non-finite"])
    def test_fractional_integer_column(self, tmp_path, values, match):
        # A fractional step or iters, and a number that is not finite.
        header, first, second = self.valid_rows(tmp_path)
        fields = second.split(",")
        for column, value in values.items():
            fields[header.split(",").index(column)] = value
        text = "\n".join([header, first, ",".join(fields)]) + "\n"
        with pytest.raises(ValueError, match=f"line 3.*{match}"):
            read_csv(self.write(tmp_path, text))


class TestEmitPlots:
    def test_three_files(self, tmp_path, step_records, default_config):
        paths = emit_plots(step_records, default_config, str(tmp_path))
        assert len(paths) == 3
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == ["forces.svg", "path.svg", "zmp.svg"]
        for path in paths:
            content = open(path).read()
            assert content.startswith("<svg")
            assert content.rstrip().endswith("</svg>")

    def test_zmp_plot_contains_safe_circle(self, tmp_path, step_records,
                                           default_config):
        emit_plots(step_records, default_config, str(tmp_path))
        content = (tmp_path / "zmp.svg").read_text()
        expected_radius = 0.15 * _zmp_scale(step_records, default_config)
        assert f'r="{expected_radius:.4f}"' in content

    def test_deterministic_bytes(self, tmp_path, step_records, default_config):
        emit_plots(step_records, default_config, str(tmp_path / "a"))
        emit_plots(step_records, default_config, str(tmp_path / "b"))
        for name in ("path.svg", "zmp.svg", "forces.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_records_read_from_csv(self, tmp_path, default_config):
        # A CSV carries no joint points: the path plot draws no arms.
        records = read_csv(str(GOLDEN))
        paths = emit_plots(records, default_config, str(tmp_path))
        trees = {Path(path).name: ElementTree.parse(path) for path in paths}
        # Three wall segments and one bar per record.
        lines = trees["path.svg"].findall("{http://www.w3.org/2000/svg}polyline")
        assert len(lines) == 3 + len(records)

    def test_empty_records_rejected(self, tmp_path, default_config):
        with pytest.raises(ValueError):
            emit_plots([], default_config, str(tmp_path))
        assert not list(tmp_path.iterdir())


def _zmp_scale(records, config):
    from contactplan.plots import _Canvas
    poly = config.sp_polygon
    pts = np.vstack([poly, [r.zmp for r in records], [r.fzmp for r in records]])
    box = (pts[:, 0].min() - 0.05, pts[:, 1].min() - 0.05,
           pts[:, 0].max() + 0.05, pts[:, 1].max() + 0.05)
    return _Canvas(640, 640, box).scale


class TestRun:
    def test_default_scenario_csv(self, tmp_path):
        csv_path = tmp_path / "trace.csv"
        assert run(["--scenario", "default", "--csv", str(csv_path)]) == 0
        rows = read_csv(str(csv_path))
        assert len(rows) == 9

    def test_svg_output(self, tmp_path):
        out = tmp_path / "plots"
        assert run(["--svg", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["forces.svg", "path.svg", "zmp.svg"]

    def test_single_waypoint_rest_scenario(self, tmp_path):
        scenario = tmp_path / "light.yaml"
        scenario.write_text("task:\n  object_wrench: [0, 0, 0, 0, 0, 0]\n")
        csv_path = tmp_path / "one.csv"
        assert run(["--scenario", str(scenario), "--waypoints", "1",
                    "--csv", str(csv_path)]) == 0
        rows = read_csv(str(csv_path))
        assert len(rows) == 1
        np.testing.assert_allclose(rows[0].object_position, rows[0].waypoint,
                                   atol=1e-6)

    def test_flags_leave_file_values_unchanged(self, tmp_path, monkeypatch):
        # A flag that repeats the file's waypoint count plans the file's
        # own scenario, the slanted path direction bit for bit.
        scenario = tmp_path / "slant.yaml"
        scenario.write_text("task:\n  path_direction: [0.3, 1.0]\n"
                            "  waypoint_count: 9\n")
        planned = []
        monkeypatch.setattr(cli.pl, "plan_path",
                            lambda config: planned.append(config) or [])
        assert run(["--scenario", str(scenario), "--waypoints", "9"]) == 0
        assert_same_config(planned[0], load_scenario(str(scenario)))

    def test_bad_flags_exit_2(self, capsys):
        assert run(["--no-such-flag"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_scenario_exit_1(self, tmp_path):
        assert run(["--scenario", str(tmp_path / "nope.yaml")]) == 1

    def test_invalid_scenario_exit_1(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("balance:\n  safe_radius: -2.0\n")
        assert run(["--scenario", str(bad)]) == 1

    def test_dead_zone_scenario_is_a_scenario_error(self, tmp_path, caplog):
        # A start grasp point inside the shoulder-forearm dead zone is
        # rejected at load, before planning starts.
        bad = tmp_path / "dead-zone.yaml"
        bad.write_text("object:\n  initial_center: [0.1, 0.05]\n")
        assert run(["--scenario", str(bad)]) == 1
        assert "scenario error" in caplog.text
        assert "object.initial_center" in caplog.text
        assert "planning failed" not in caplog.text

    @pytest.mark.parametrize("overrides, message", [
        *(pytest.param(o, "planning failed: step 0 failed: non-finite", id=name)
          for name, (o, _) in NON_FINITE.items()),
        *(pytest.param(o, "scenario error: robot.link_lengths", id=name)
          for name, o in SHORT_LINKS.items())])
    def test_overflowing_or_degenerate_scenario_exit_1(self, tmp_path, capsys,
                                                       caplog, overrides,
                                                       message):
        # Each once ended in a traceback; numpy's overflow warnings are
        # errors under pytest, so they are silenced here.
        scenario = tmp_path / "extreme.yaml"
        scenario.write_text(yaml.safe_dump(overrides))
        with np.errstate(all="ignore"):
            assert run(["--scenario", str(scenario)]) == 1
        assert message in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_failing_plan_exit_nonzero(self, tmp_path):
        assert run(["--max-iters", "1"]) == 1

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_invalid_waypoint_override_exit_1(self, tmp_path, caplog, count):
        csv_path = tmp_path / "none.csv"
        assert run(["--waypoints", count, "--csv", str(csv_path)]) == 1
        assert "task.waypoint_count" in caplog.text
        assert not csv_path.exists()

    def test_nan_tolerance_override_exit_1(self, caplog):
        assert run(["--tol", "nan"]) == 1
        assert "solver.tol_kkt" in caplog.text

    def test_tolerance_override(self, tmp_path):
        csv_path = tmp_path / "loose.csv"
        assert run(["--tol", "1e-5", "--csv", str(csv_path)]) == 0
        assert len(read_csv(str(csv_path))) == 9

    @pytest.mark.parametrize("flag, target", [
        ("--csv", "missing/trace.csv"),
        ("--svg", "existing-file"),
    ], ids=["csv-missing-directory", "svg-names-a-file"])
    def test_unwritable_output_exit_1(self, tmp_path, caplog, flag, target):
        (tmp_path / "existing-file").write_text("")
        assert run([flag, str(tmp_path / target)]) == 1
        assert "cannot write" in caplog.text
        assert str(tmp_path / target.split("/")[0]) in caplog.text

    def test_zmp_rows_inside_safe_circle(self, tmp_path, default_config):
        csv_path = tmp_path / "trace.csv"
        assert run(["--csv", str(csv_path)]) == 0
        for row in read_csv(str(csv_path)):
            dist = np.linalg.norm(row.zmp - default_config.sp_center)
            assert dist <= default_config.safe_radius + 1e-6

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "contactplan", "--csv",
             str(tmp_path / "m.csv")],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0
        assert result.stdout == ""  # data streams stay machine-clean
        assert (tmp_path / "m.csv").exists()

    def test_verbose_applies_to_each_run_in_a_process(self):
        # Quiet, verbose, quiet: only the middle run logs its progress, and
        # only to stderr.
        script = (
            "import sys\n"
            "from contactplan.cli import run\n"
            "for flags in ([], ['--verbose'], []):\n"
            "    assert run(['--waypoints', '1', *flags]) == 0\n"
            "    print('--', file=sys.stderr, flush=True)\n")
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""
        quiet, verbose, quiet_again, _ = result.stderr.split("--\n")
        assert quiet == quiet_again == ""
        assert "INFO planning 1 waypoints" in verbose
        assert "INFO step 0:" in verbose
