import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import omninav
from omninav import mapgen
from omninav.cli import main
from omninav.core import OCCUPIED, PointCloud


def run_module(argv, timeout):
    """`python -m omninav argv` in a subprocess, importing this checkout."""
    src = str(Path(omninav.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "omninav", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def write_room_cloud(path):
    pts = []
    for t in np.linspace(0.0, 2.0, 161):
        for z in (0.3, 0.8):
            pts += [(t, 0.0, z), (t, 2.0, z), (0.0, t, z), (2.0, t, z)]
    mapgen.write_point_cloud(PointCloud.from_xyz(pts), path)


class TestMapExtract:
    def test_success_writes_map_and_manifest(self, tmp_path, capsys):
        cloud = tmp_path / "room.xyz"
        write_room_cloud(cloud)
        out = tmp_path / "out"
        rc = main(["--out", str(out), "map-extract", str(cloud)])
        assert rc == 0
        grid = mapgen.read_map(out / "map.pgm")
        assert np.count_nonzero(grid.cells == OCCUPIED) > 0
        assert (out / "manifest.txt").exists()
        assert "occupied=" in capsys.readouterr().out

    def test_empty_cloud_domain_failure(self, tmp_path, capsys):
        cloud = tmp_path / "empty.xyz"
        cloud.write_text("# nothing\n")
        rc = main(["--out", str(tmp_path / "o"), "map-extract", str(cloud)])
        assert rc == 1
        assert "empty cloud" in capsys.readouterr().err

    def test_band_excluding_all_points(self, tmp_path):
        cloud = tmp_path / "c.xyz"
        cloud.write_text("1 1 5.0\n")
        rc = main(["--out", str(tmp_path / "o"), "map-extract", str(cloud)])
        assert rc == 1

    def test_missing_file_usage_error(self, tmp_path):
        rc = main(["--out", str(tmp_path / "o"), "map-extract", str(tmp_path / "nope.xyz")])
        assert rc == 2

    def test_output_deterministic(self, tmp_path):
        cloud = tmp_path / "room.xyz"
        write_room_cloud(cloud)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--out", str(out), "map-extract", str(cloud)]) == 0
            outs.append((out / "map.pgm").read_bytes())
        assert outs[0] == outs[1]


class TestControllerDemo:
    def test_defaults_meet_bounds(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "controller-demo"])
        assert rc == 0
        stats = capsys.readouterr().out
        assert "max_tangency_error" in stats
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,theta"
        assert len(lines) > 100

    def test_zero_duration_single_sample(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "controller-demo", "--duration", "0"])
        assert rc == 0
        assert len((out / "trajectory.csv").read_text().splitlines()) == 2

    def test_bad_arguments(self, tmp_path):
        rc = main(["--out", str(tmp_path / "o"), "controller-demo", "--radius", "-1"])
        assert rc == 2


class TestSimulate:
    def test_scripted_drive(self, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text("0 cmd 0.3 0 0\n2 cmd 0 0 0\n")
        out = tmp_path / "o"
        rc = main(["--out", str(out), "simulate", str(scenario), "--duration", "2"])
        assert rc == 0
        rows = (out / "run.csv").read_text().splitlines()
        assert rows[0].startswith("t,x,y")
        assert len(rows) > 10

    def test_bad_scenario_line_reported(self, tmp_path, capsys):
        scenario = tmp_path / "s.txt"
        scenario.write_text("0 cmd 0.3 0 0\n1 teleport 5 5\n")
        rc = main(["--out", str(tmp_path / "o"), "simulate", str(scenario)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["nan cmd 0.3 0 0", "0 cmd nan 0 0", "0 cmd 0.3 inf 0"])
    def test_non_finite_scenario_values_rejected(self, tmp_path, capsys, line):
        scenario = tmp_path / "s.txt"
        scenario.write_text(f"0 cmd 0 0 0\n{line}\n")
        assert main(["--out", str(tmp_path / "o"), "simulate", str(scenario)]) == 2
        assert "scenario line 2: non-finite" in capsys.readouterr().err

    def test_non_finite_duration_rejected(self, tmp_path, capsys):
        scenario = tmp_path / "s.txt"
        scenario.write_text("0 cmd 0 0 0\n")
        assert main(["--out", str(tmp_path / "o"), "simulate", str(scenario),
                     "--duration", "nan"]) == 2
        assert "non-finite duration" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario_text, flags", [
        ("0 cmd 0 0 0\ninf cmd 0.3 0 0\n", []), ("0 cmd 0 0 0\n", ["--duration", "inf"]),
    ])
    def test_infinite_run_is_usage_error(self, tmp_path, scenario_text, flags):
        # in a subprocess: an infinite end time used to hang the run
        scenario = tmp_path / "s.txt"
        scenario.write_text(scenario_text)
        proc = run_module(["--out", str(tmp_path / "o"), "simulate", str(scenario), *flags],
                          timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "non-finite" in proc.stderr

    def test_goto_marker(self, tmp_path, capsys):
        scenario = tmp_path / "s.txt"
        scenario.write_text("0 goto marker2\n")
        out = tmp_path / "o"
        rc = main(["--out", str(out), "simulate", str(scenario), "--duration", "0.1"])
        assert rc == 0
        assert "goto marker2 reached" in capsys.readouterr().out

    def test_deterministic_runs(self, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text("0 cmd 0.4 0 0.3\n")
        logs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--seed", "5", "--out", str(out), "simulate", str(scenario),
                         "--duration", "2"]) == 0
            logs.append((out / "run.csv").read_bytes())
        assert logs[0] == logs[1]


class TestLocalize:
    def _write_fixture(self, tmp_path):
        # tiny square room map + a replay log with odometry and one scan
        from omninav.core import OccupancyGrid
        g = OccupancyGrid(20, 20, 0.1)
        g.cells[0, :] = OCCUPIED
        g.cells[-1, :] = OCCUPIED
        g.cells[:, 0] = OCCUPIED
        g.cells[:, -1] = OCCUPIED
        map_path = tmp_path / "room.pgm"
        mapgen.write_map(g, map_path)
        log = tmp_path / "log.csv"
        log.write_text(
            "0.0,scanmeta,0.0 0.0 1.0 0.05 3.0\n"
            "0.1,odom,0.05 0.0 0.0\n"
            "0.2,scan,0.9\n"
        )
        return map_path, log

    def test_replay(self, tmp_path):
        map_path, log = self._write_fixture(tmp_path)
        out = tmp_path / "o"
        rc = main(["--out", str(out), "localize", str(log), "--map", str(map_path),
                   "--init", "1.0", "1.0", "0.0", "--spread", "0.2"])
        assert rc == 0
        lines = (out / "estimates.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,theta"
        assert len(lines) == 3  # odom row + scan row

    @pytest.mark.parametrize("meta, message", [
        ("0 1 0 0.1 4", "log.csv:2: angle_increment"),
        ("0 1", "log.csv:1: scanmeta needs 5 numbers"),
        ("0 1 0.5 0.1 4 9", "log.csv:1: scanmeta needs 5 numbers"),
    ])
    def test_bad_scanmeta_is_usage_error(self, tmp_path, capsys, meta, message):
        map_path, _ = self._write_fixture(tmp_path)
        log = tmp_path / "log.csv"
        log.write_text(f"0.0,scanmeta,{meta}\n0.2,scan,0.9 0.9 0.9\n")
        rc = main(["--out", str(tmp_path / "o"), "localize", str(log), "--map", str(map_path)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_non_finite_range_is_usage_error(self, tmp_path, capsys):
        map_path, log = self._write_fixture(tmp_path)
        log.write_text(log.read_text().replace("0.2,scan,0.9", "0.2,scan,nan"))
        rc = main(["--out", str(tmp_path / "o"), "localize", str(log), "--map", str(map_path)])
        assert rc == 2
        assert "log.csv:3: non-finite range" in capsys.readouterr().err

    def test_malformed_log(self, tmp_path):
        map_path, _ = self._write_fixture(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,telemetry,1 2 3\n")
        rc = main(["--out", str(tmp_path / "o"), "localize", str(bad),
                   "--map", str(map_path)])
        assert rc == 2


class TestTour:
    def test_mock_tour_complete(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "tour", "--mock"])
        assert rc == 0
        assert "final state: DONE" in capsys.readouterr().out
        transitions = (out / "transitions.txt").read_text()
        assert transitions.startswith("* IDLE_AT_ENTRY")
        assert transitions.rstrip().endswith("nav_done -> DONE")
        commands = (out / "device_commands.txt").read_text().splitlines()
        assert commands[0] == "tv_harvey health"
        assert commands[-1] == "cartman pick item_7"

    def test_no_devices_configured(self, tmp_path):
        rc = main(["--out", str(tmp_path / "o"), "tour"])
        assert rc == 2


class TestArgHandling:
    def test_unknown_subcommand(self, tmp_path, capsys):
        assert main(["bogus"]) == 2

    def test_missing_required_argument(self):
        assert main(["map-extract"]) == 2

    def test_python_dash_m_entry_point(self, tmp_path):
        out = tmp_path / "o"
        proc = run_module(["--out", str(out), "controller-demo"], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (out / "trajectory.csv").exists()
