"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (ACCEPT <n> <name>: ...) so the
suite output doubles as the release report. Tolerances are stated inline
and pinned; any change to them is a release decision, not a test fix.
"""

import math
import sys
import time

import numpy as np

from omninav import mapgen, worlds
from omninav.cli import main as cli_main
from omninav.core import Pose2D, VelocityCommand, normalize_angle
from omninav.mockdev import ROBOT, TELEVISION, MockConfig, MockDeviceServer
from omninav.motion import (
    circle_drive_headings,
    forward_kinematics,
    inverse_kinematics,
    tangency_error,
)
from omninav.navigate import Navigator
from omninav.planning import Costmap, LocalPlannerConfig, astar, plan_local
from omninav.sensing import combine_base_scans, transform_scan_to_body
from omninav.sim import NoiseModel, sense_base, sense_depth, sense_merged
from omninav.tour import DeviceEndpoint, Event, Phase, TourConfig, TourRunner

from conftest import stop_all
from test_planning import dijkstra_cost
from test_tour import GOLDEN_TRANSITIONS


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    # bypass capture so the verdict lines always reach the test log
    print(f"ACCEPT {number} {name}: {status}{suffix}", file=sys.__stdout__)
    assert ok, f"criterion {number} {name} failed{suffix}"


class TestAcceptance:
    def test_01_controller_circle(self):
        # radius 1 m at pi/2 m/s for 4 s: one full circle
        t0 = time.monotonic()
        samples = circle_drive_headings(1.0, math.pi / 2, 4.0, 0.01)
        tangency = tangency_error(samples)
        closure = math.hypot(samples[-1][1].x - samples[0][1].x,
                             samples[-1][1].y - samples[0][1].y)
        elapsed = time.monotonic() - t0
        report(1, "controller-circle",
               tangency < 1e-6 and closure < 1e-3 and elapsed < 1.0,
               f"tangency={tangency:.2e} rad, closure={closure:.2e} m, {elapsed:.2f}s")

    def test_02_kinematics_round_trip(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for vx, vy, wz in rng.uniform(-2.0, 2.0, size=(10_000, 3)):
            cmd = VelocityCommand(vx, vy, wz)
            back = forward_kinematics(inverse_kinematics(cmd))
            worst = max(worst, abs(back.vx - vx), abs(back.vy - vy), abs(back.wz - wz))
        ws = inverse_kinematics(VelocityCommand(0.0, 0.0, 0.7))
        pure_rotation_exact = ws.w_fl == ws.w_fr == ws.w_b == 0.7
        report(2, "kinematics-round-trip",
               worst < 1e-9 and pure_rotation_exact,
               f"max round-trip error={worst:.2e}")

    def test_03_scan_merge(self):
        t0 = time.monotonic()
        world = worlds.obstacle_course_world()
        base = combine_base_scans(
            [transform_scan_to_body(s, c)
             for s, c in zip(sense_base(world), world.base_cfg.centers)],
            world.base_cfg,
        )
        depth = sense_depth(world)
        merged = sense_merged(world)

        def nearest(scan, bearing):
            k = int(round((bearing - scan.angle_min) / scan.angle_increment))
            return scan.ranges[k]

        # each sensor alone misses part of the scene
        depth_bearings = [depth.angle(i) for i in range(len(depth)) if depth.is_valid(i)]
        depth_misses_low = all(abs(b) < math.radians(29.5) for b in depth_bearings)
        base_misses_sofa = all(
            not base.is_valid(i) for i in range(len(base))
            if abs(base.angle(i)) <= math.radians(30.0) + 1e-9
        )
        sees_all = (
            abs(nearest(merged, 0.0) - 2.0) < 0.05
            and abs(nearest(merged, math.radians(90.0)) - 1.3) < 0.05
            and abs(nearest(merged, math.radians(-90.0)) - 1.25) < 0.05
        )
        # bin count: union span at the depth resolution
        lo = min(base.angle_min, depth.angle_min)
        hi = max(base.angle_max, depth.angle_max)
        expected_bins = int(math.floor((hi - lo) / depth.angle_increment + 1e-9)) + 1
        # min rule brute-forced over every merged bin
        def brute_lookup(scan, bearing):
            tol = depth.angle_increment / 2 + 1e-12
            best, best_d = -1.0, tol
            for i in range(len(scan)):
                d = abs(scan.angle(i) - bearing)
                if d <= best_d:
                    best, best_d = scan.ranges[i], d
            return best

        min_rule_ok = True
        for k in range(len(merged)):
            a = merged.angle(k)
            rb, rd = brute_lookup(base, a), brute_lookup(depth, a)
            want = min((r for r in (rb, rd) if r >= 0.0), default=-1.0)
            if abs(merged.ranges[k] - want) > 1e-9:
                min_rule_ok = False
                break
        elapsed = time.monotonic() - t0
        report(3, "scan-merge",
               depth_misses_low and base_misses_sofa and sees_all
               and len(merged) == expected_bins and min_rule_ok and elapsed < 1.0,
               f"bins={len(merged)}, {elapsed:.2f}s")

    def test_04_map_extraction(self):
        t0 = time.monotonic()
        cloud = worlds.build_lab_cloud(seed=0, total_points=50_000)
        grid = mapgen.extract_map(cloud, mapgen.MapGenConfig())
        expected = worlds.expected_lab_raster(grid)
        match = float(np.count_nonzero(grid.cells == expected)) / expected.size
        # oracle equivalence on random grids lives in test_mapgen; re-check a
        # small sample here so this criterion stands alone
        from test_mapgen import oracle_denoise, oracle_fill_unknown
        from conftest import random_grid
        rng = np.random.default_rng(2)
        oracles_ok = all(
            np.array_equal(mapgen.denoise(g, k).cells, oracle_denoise(g, k).cells)
            and np.array_equal(mapgen.fill_unknown(g).cells, oracle_fill_unknown(g).cells)
            for g, k in ((random_grid(rng), int(rng.integers(1, 5))) for _ in range(50))
        )
        elapsed = time.monotonic() - t0
        report(4, "map-extraction",
               match >= 0.99 and oracles_ok and elapsed < 10.0,
               f"cell match={match:.4f}, {elapsed:.1f}s")

    def test_05_localization_convergence(self):
        t0 = time.monotonic()
        merged_pos, merged_heading, _, _ = worlds.localization_run("merged", seed=7)
        base_pos, base_heading, _, _ = worlds.localization_run("base", seed=7)
        elapsed = time.monotonic() - t0
        merged_ok = merged_pos < 0.15 and merged_heading < math.radians(5.0)
        base_fails = base_pos >= 0.15 or base_heading >= math.radians(5.0)
        report(5, "localization-convergence",
               merged_ok and base_fails and elapsed < 60.0,
               f"merged={merged_pos:.3f}m/{math.degrees(merged_heading):.1f}deg, "
               f"base={base_pos:.3f}m/{math.degrees(base_heading):.1f}deg, {elapsed:.1f}s")

    def test_06_costmap_clearing(self):
        world = worlds.obstacle_course_world()
        cm = Costmap(world.grid.resolution, static_grid=world.grid)
        half = math.radians(29.0)
        cm.update(sense_merged(world), world.robot, half)
        sofa_cells = [c for c in cm.obstacles if 11.5 < (c[0] + 0.5) * cm.resolution < 12.5]
        inserted = len(sofa_cells) > 0
        # face away, remove the sofa, hold for 100 sensor ticks
        world.robot = Pose2D(10.0, 10.0, math.pi)
        world.obstacle_by_id("sofa").active = False
        persisted = True
        for _ in range(100):
            cm.update(sense_merged(world), world.robot, half)
            if not all(c in cm.obstacles for c in sofa_cells):
                persisted = False
                break
        # turn to face: cleared within 2 ticks
        world.robot = Pose2D(10.0, 10.0, 0.0)
        ticks = 0
        for ticks in (1, 2):
            cm.update(sense_merged(world), world.robot, half)
            if not any(c in cm.obstacles for c in sofa_cells):
                break
        cleared = not any(c in cm.obstacles for c in sofa_cells)
        report(6, "costmap-clearing",
               inserted and persisted and cleared and ticks <= 2,
               f"{len(sofa_cells)} cells, cleared in {ticks} tick(s)")

    def test_07_y_axis_prohibition(self):
        rng = np.random.default_rng(1)
        cm = Costmap(0.05)
        cfg = LocalPlannerConfig()
        worst_vy = 0.0
        for _ in range(10_000):
            pose = Pose2D(*rng.uniform(-8, 8, 2), rng.uniform(-math.pi, math.pi))
            path = [tuple(rng.uniform(-8, 8, 2)) for _ in range(int(rng.integers(1, 4)))]
            goal_heading = rng.uniform(-math.pi, math.pi)
            cmd = plan_local(path, goal_heading, pose, cm, cfg)
            worst_vy = max(worst_vy, abs(cmd.vy))
        report(7, "y-axis-prohibition", worst_vy == 0.0, f"max |vy|={worst_vy}")

    def test_08_astar_vs_dijkstra(self):
        rng = np.random.default_rng(8)
        checked = 0
        ok = True
        while checked < 100:
            blocked = rng.uniform(size=(100, 100)) < 0.3
            start = (int(rng.integers(100)), int(rng.integers(100)))
            goal = (int(rng.integers(100)), int(rng.integers(100)))
            if blocked[start[1], start[0]] or blocked[goal[1], goal[0]]:
                continue
            _, cost = astar(blocked, start, goal)
            oracle = dijkstra_cost(blocked, start, goal)
            if not (cost == oracle == math.inf or abs(cost - oracle) <= 1e-9):
                ok = False
                break
            checked += 1
        report(8, "astar-vs-dijkstra", ok and checked == 100, f"{checked} grids")

    def _run_tour(self, seed=0):
        specs = [
            MockConfig("tv_harvey", TELEVISION, media=["harvey_field_video"]),
            MockConfig("harvey", ROBOT, demos=["pick_sweet_pepper"]),
            MockConfig("tv_cartman", TELEVISION, media=["cartman_challenge_video"]),
            MockConfig("cartman", ROBOT),
        ]
        shared = []
        mocks = [MockDeviceServer(s, shared).start() for s in specs]
        devices = [DeviceEndpoint(m.config.name, m.base_url, m.config.kind) for m in mocks]
        world = worlds.lab_world(noise=NoiseModel(rng_seed=seed))
        nav = Navigator(world, dict(worlds.MARKERS), map_grid=worlds.lab_nav_map())
        arrivals = {"marker1": world.robot}  # the tour starts docked at entry

        def navigate(marker_id):
            outcome = nav.navigate_to_marker(marker_id)
            arrivals[marker_id] = world.robot
            return outcome

        runner = TourRunner(TourConfig(devices=devices), navigate)
        try:
            state = runner.run([
                Event("button", "start"),
                Event("button", "next"),
                Event("item_selected", "item_3"),
                Event("item_selected", "item_7"),
                Event("finish"),
            ])
        finally:
            stop_all(mocks)
        return state, runner, shared, arrivals

    def test_09_end_to_end_tour(self):
        t0 = time.monotonic()
        state, runner, shared, arrivals = self._run_tour()
        elapsed = time.monotonic() - t0
        markers_ok = True
        worst = 0.0
        for marker_id, pose in arrivals.items():
            goal = worlds.MARKERS[marker_id].goal
            pos_err = math.hypot(pose.x - goal.x, pose.y - goal.y)
            heading_err = abs(normalize_angle(pose.theta - goal.theta))
            worst = max(worst, pos_err)
            if pos_err > 0.1 or heading_err > math.radians(5.0):
                markers_ok = False
        log_ok = runner.transition_log() == GOLDEN_TRANSITIONS
        verbs = [(name, verb) for name, verb, _ in shared]
        commands_ok = verbs == [
            ("tv_harvey", "health"), ("harvey", "health"),
            ("tv_cartman", "health"), ("cartman", "health"),
            ("tv_harvey", "play"), ("harvey", "start_demo"),
            ("tv_cartman", "play"), ("cartman", "pick"), ("cartman", "pick"),
        ]
        report(9, "end-to-end-tour",
               state.phase == Phase.DONE and len(arrivals) == 4 and markers_ok
               and log_ok and commands_ok and elapsed < 120.0,
               f"{len(arrivals)} markers, worst pos err={worst:.3f}m, {elapsed:.1f}s")

    def test_10_determinism(self, tmp_path):
        # library level: the seeded localization run twice, bit-equal estimates
        a = worlds.localization_run("merged", seed=7)
        b = worlds.localization_run("merged", seed=7)
        lib_ok = (a[0] == b[0] and a[1] == b[1]
                  and (a[2].x, a[2].y, a[2].theta) == (b[2].x, b[2].y, b[2].theta))
        # CLI level: seeded subcommands produce byte-identical artifacts
        scenario = tmp_path / "s.txt"
        scenario.write_text("0 cmd 0.4 0 0.2\n")
        cloud = tmp_path / "cloud.xyz"
        mapgen.write_point_cloud(worlds.build_lab_cloud(seed=1, total_points=5000), cloud)
        artifacts = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["--seed", "3", "--out", str(out / "sim"),
                             "simulate", str(scenario), "--duration", "2"]) == 0
            assert cli_main(["--out", str(out / "map"), "map-extract", str(cloud)]) == 0
            assert cli_main(["--out", str(out / "ctl"), "controller-demo"]) == 0
            artifacts.append((
                (out / "sim" / "run.csv").read_bytes(),
                (out / "map" / "map.pgm").read_bytes(),
                (out / "ctl" / "trajectory.csv").read_bytes(),
            ))
        report(10, "determinism", lib_ok and artifacts[0] == artifacts[1])
