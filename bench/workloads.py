"""The four seeded workloads.

Each workload builds its inputs from the seed in setup(), which the runner
times and repeats, and then runs one timed mission per run_pass(). A pass
checks its outputs against the acceptance tolerances and returns a digest of
them, so repeated passes, traced or not, can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from omninav import mapgen, sim, worlds
from omninav.core import LaserScan, Pose2D, ScanFrame, normalize_angle
from omninav.localization import MclConfig, MclFilter
from omninav.mockdev import ROBOT, TELEVISION, MockConfig, MockDeviceServer
from omninav.navigate import REACHED, Navigator
from omninav.planning import MarkerSpec
from omninav.tour import DeviceEndpoint, Event, Phase, TourConfig, TourRunner

# acceptance tolerances
ARRIVAL_POS_M = 0.1
ARRIVAL_HEADING = math.radians(5.0)
MCL_POS_M = 0.15
MCL_HEADING = math.radians(5.0)
MAP_MATCH_MIN = 0.99

GOLDEN_COMMANDS = [
    ("tv_harvey", "health"), ("harvey", "health"),
    ("tv_cartman", "health"), ("cartman", "health"),
    ("tv_harvey", "play"), ("harvey", "start_demo"),
    ("tv_cartman", "play"), ("cartman", "pick"), ("cartman", "pick"),
]


@dataclass
class PassResult:
    wall_s: float
    modelled_s: float  # simulated or logged seconds covered; 0 when none
    ops_ms: list[float]  # latency of the workload's unit operation
    digest: str
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    plan_ticks: list[int] = field(default_factory=list)  # indices of ops_ms that ran a global plan
    accuracy: dict[str, float] = field(default_factory=dict)
    replans: int = 0
    device_requests: int = 0


def _sha(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else p.encode())
    return h.hexdigest()


def _log_text(log: list[sim.LogRow]) -> str:
    """The trajectory log exactly as sim.write_log writes it."""
    return "t,x,y,theta,odom_dx,odom_dy,odom_dtheta,event\n" + "".join(
        row.csv() + "\n" for row in log)


class TickClock:
    """Control-tick latency: the interval between consecutive sim.step
    returns within one navigation leg. The index of a tick that ran
    Navigator._plan is also recorded."""

    def __init__(self):
        self.ticks_ms: list[float] = []
        self.plan_ticks: list[int] = []
        self._last = 0
        self._planned = False

    def leg_start(self) -> None:
        self._last = time.perf_counter_ns()
        self._planned = False

    @contextmanager
    def installed(self, nav: Navigator):
        step, plan = sim.step, nav._plan
        clock = time.perf_counter_ns

        def timed_step(*args, **kwargs):
            out = step(*args, **kwargs)
            now = clock()
            if self._planned:
                self.plan_ticks.append(len(self.ticks_ms))
                self._planned = False
            self.ticks_ms.append((now - self._last) / 1e6)
            self._last = now
            return out

        def flagged_plan(goal):
            self._planned = True
            return plan(goal)

        sim.step = timed_step
        nav._plan = flagged_plan
        try:
            yield self
        finally:
            sim.step = step
            del nav._plan


def _arrival_check(marker: MarkerSpec, outcome: str, pose: Pose2D, problems: list[str]) -> float:
    """Position error at arrival; records a problem when the leg failed."""
    goal = marker.goal
    err = math.hypot(pose.x - goal.x, pose.y - goal.y)
    heading = abs(normalize_angle(pose.theta - goal.theta))
    if outcome != REACHED or err > ARRIVAL_POS_M or heading > ARRIVAL_HEADING:
        problems.append(f"leg to {marker.id}: {outcome}, {err:.3f} m, "
                        f"{math.degrees(heading):.1f} deg")
    return err


class LabTour:
    """The paper's mission, as `omninav tour --mock` runs it."""

    name = "lab_tour"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._servers: list[MockDeviceServer] = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        entry = worlds.MARKERS["marker1"].goal
        # the robot waits near the entry marker; the visitor picks two items
        self.start = Pose2D(entry.x + rng.uniform(-0.05, 0.05), entry.y + rng.uniform(-0.05, 0.05),
                            entry.theta + math.radians(rng.uniform(-3.0, 3.0)))
        items = rng.choice(np.arange(1, 21), size=2, replace=False)
        self.items = [f"item_{int(k)}" for k in items]
        self.sim_grid = worlds.build_lab_map(include_furniture=False)
        self.nav_map = worlds.lab_nav_map()
        self.shared: list = []
        specs = [
            MockConfig("tv_harvey", TELEVISION, media=["harvey_field_video"]),
            MockConfig("harvey", ROBOT, demos=["pick_sweet_pepper"]),
            MockConfig("tv_cartman", TELEVISION, media=["cartman_challenge_video"]),
            MockConfig("cartman", ROBOT, items=[]),
        ]
        self.mocks = [MockDeviceServer(s, self.shared).start() for s in specs]
        self._servers += self.mocks
        self.devices = [DeviceEndpoint(m.config.name, m.base_url, m.config.kind)
                        for m in self.mocks]

    def inputs(self) -> dict:
        return {"legs": 3, "device_commands": len(GOLDEN_COMMANDS), "items": self.items,
                "start": [round(self.start.x, 4), round(self.start.y, 4),
                          round(self.start.theta, 4)]}

    def run_pass(self, tracer=None) -> PassResult:
        self.shared.clear()
        for m in self.mocks:
            m.commands.clear()
            m.picked.clear()
        world = sim.World(grid=self.sim_grid, robot=self.start,
                          noise=sim.NoiseModel(rng_seed=self.seed))
        world.obstacles = worlds.furniture_obstacles()
        nav = Navigator(world, dict(worlds.MARKERS), map_grid=self.nav_map)
        log = [sim.LogRow(world.time, world.robot, Pose2D(), "start")]
        arrivals = []

        def navigate_fn(marker_id):
            clock.leg_start()
            outcome = nav.navigate_to_marker(marker_id, log)
            arrivals.append((marker_id, outcome, world.robot))
            return outcome

        runner = TourRunner(TourConfig(devices=self.devices), navigate_fn)
        clock = TickClock()
        script = [Event("button", "start"), Event("demo_done"), Event("button", "next"),
                  *(Event("item_selected", item) for item in self.items), Event("finish")]
        with clock.installed(nav):
            t0 = time.perf_counter()
            state = runner.run(script)
            wall = time.perf_counter() - t0

        problems: list[str] = []
        errs = [_arrival_check(worlds.MARKERS[m], out, pose, problems)
                for m, out, pose in arrivals]
        legs_failed = len(problems) + max(0, 3 - len(arrivals))
        commands = [(name, verb) for name, verb, _ in self.shared]
        bad_commands = sum(a != b for a, b in zip(commands, GOLDEN_COMMANDS))
        bad_commands += abs(len(commands) - len(GOLDEN_COMMANDS))
        if bad_commands:
            problems.append(f"device commands {commands} differ from the golden order")
        if state.phase != Phase.DONE:
            problems.append(f"tour ended in {state.phase.value}")
        log.append(sim.LogRow(world.time, world.robot, Pose2D(), "end"))
        digest = _sha(_log_text(log), repr(self.shared), runner.transition_log())
        requests = sum(1 for _, verb, _ in self.shared if verb != "health")
        return PassResult(
            wall, world.time, clock.ticks_ms, digest,
            attempted=3 + len(GOLDEN_COMMANDS), failed=legs_failed + bad_commands,
            problems=problems, plan_ticks=clock.plan_ticks,
            accuracy={"arrival_err_m": max(errs, default=math.inf)},
            replans=sum(1 for row in log if row.event == "replan"),
            device_requests=requests,
        )

    def close(self) -> None:
        # each stop() waits out the server's 0.5 s poll: stop them together
        stoppers = [threading.Thread(target=m.stop) for m in self._servers]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join()
        self._servers.clear()


# patrol waypoints in the lab's open space, joined by long straight legs
_PATROL = {
    "p1": Pose2D(2.0, 2.0, 0.0),
    "p2": Pose2D(10.5, 2.0, math.pi / 2),
    "p3": Pose2D(10.5, 12.5, 0.0),
    "p4": Pose2D(18.0, 12.5, -math.pi / 2),
    "p5": Pose2D(18.0, 6.5, math.pi),
}
_PATROL_ROUTE = ["p2", "p3", "p4", "p5"]
# (leg start, leg end, clutter disks on the leg). Disks sit on the straight
# leg at least 3 m past its start and 2 m before its end, where the front base
# laser sees them head-on and the open space leaves a detour on either side.
_CLUTTER_LEGS = [("p1", "p2", 2), ("p2", "p3", 2), ("p3", "p4", 1), ("p4", "p5", 1)]


def patrol_clutter(seed: int) -> list[tuple[float, float, float]]:
    """Seeded low clutter disks (cx, cy, r) on the patrol's straight legs."""
    rng = np.random.default_rng(seed)
    disks = []
    for a, b, n in _CLUTTER_LEGS:
        pa, pb = _PATROL[a], _PATROL[b]
        length = math.hypot(pb.x - pa.x, pb.y - pa.y)
        ux, uy = (pb.x - pa.x) / length, (pb.y - pa.y) / length
        span = (length - 5.0) / n
        for k in range(n):
            s = 3.0 + span * (k + rng.uniform(0.2, 0.8))
            lateral = rng.uniform(-0.1, 0.1)
            disks.append((pa.x + ux * s - uy * lateral, pa.y + uy * s + ux * lateral,
                          float(rng.uniform(0.12, 0.2))))
    return disks


class ClutteredPatrol:
    """A four-leg patrol of the lab through the `simulate` path, with seeded
    low clutter on the route that only the base lasers see."""

    name = "cluttered_patrol"
    CLUTTER_Z = (0.0, 0.3)
    RANGE_STD = 0.01

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.sim_grid = worlds.build_lab_map(include_furniture=False)
        self.nav_map = worlds.lab_nav_map()
        self.clutter = patrol_clutter(self.seed)
        self.markers = {k: MarkerSpec(k, p) for k, p in _PATROL.items()}
        self.events = sim.parse_scenario("".join(f"0 goto {m}\n" for m in _PATROL_ROUTE))

    def inputs(self) -> dict:
        return {"legs": len(_PATROL_ROUTE), "clutter": len(self.clutter),
                "range_std": self.RANGE_STD, "max_replans": 5}

    def run_pass(self, tracer=None) -> PassResult:
        world = sim.World(grid=self.sim_grid, robot=_PATROL["p1"],
                          noise=sim.NoiseModel(range_std=self.RANGE_STD, rng_seed=self.seed))
        world.obstacles = worlds.furniture_obstacles() + [
            sim.Obstacle(f"clutter{i}", "disk", d, *self.CLUTTER_Z)
            for i, d in enumerate(self.clutter)
        ]
        nav = Navigator(world, self.markers, map_grid=self.nav_map)
        problems: list[str] = []
        errs = []
        clock = TickClock()

        def navigate_fn(world, marker_id, log):
            clock.leg_start()
            outcome = nav.navigate_to_marker(marker_id, log)
            errs.append(_arrival_check(self.markers[marker_id], outcome, world.robot, problems))
            return outcome

        with clock.installed(nav):
            t0 = time.perf_counter()
            log = sim.run_scenario(world, self.events, navigate_fn=navigate_fn)
            wall = time.perf_counter() - t0
        legs = len(_PATROL_ROUTE)
        return PassResult(
            wall, world.time, clock.ticks_ms, _sha(_log_text(log)),
            attempted=legs, failed=len(problems) + max(0, legs - len(errs)),
            problems=problems, plan_ticks=clock.plan_ticks,
            accuracy={"arrival_err_m": max(errs, default=math.inf)},
            replans=sum(1 for row in log if row.event == "replan"),
        )

    def close(self) -> None:
        pass


class MclReplay:
    """The `localize` path: MCL replays a log of noisy odometry and merged
    scans recorded while driving the lab route."""

    name = "mcl_replay"
    PARTICLES = 500
    SCAN_EVERY = 10
    WARMUP_SCANS = 30
    GUESS_OFFSET = (0.30, -0.10, math.radians(5.0))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.nav_map = worlds.lab_nav_map()
        start = worlds.MARKERS["marker1"].goal
        world = worlds.lab_world(noise=sim.NoiseModel(
            odom_translation_std=0.05, odom_rotation_std=0.05, range_std=0.01,
            rng_seed=self.seed))
        nav = Navigator(world, dict(worlds.MARKERS), map_grid=self.nav_map)
        recorded = []  # (t, odom, scan or None, truth)
        step = sim.step

        def recording_step(world, cmd, dt):
            odom = step(world, cmd, dt)
            scan = None
            if (len(recorded) + 1) % self.SCAN_EVERY == 0:
                scan = sim.sense_merged(world, noisy=True)
            recorded.append((world.time, odom, scan, world.robot))
            return odom

        sim.step = recording_step
        try:
            outcomes = [nav.navigate_to_marker(m) for m in ("marker2", "marker3", "marker4")]
        finally:
            sim.step = step
        if any(o != REACHED for o in outcomes):
            raise RuntimeError(f"log drive did not complete: {outcomes}")
        # the log in the `localize` row format, parsed back as the CLI does
        lines = ["t,kind,payload"]
        meta = None
        for t, odom, scan, _ in recorded:
            lines.append(f"{t:.3f},odom," + " ".join(repr(float(v)) for v in (odom.x, odom.y, odom.theta)))
            if scan is not None:
                scan_meta = (scan.angle_min, scan.angle_max, scan.angle_increment,
                             scan.range_min, scan.range_max)
                if scan_meta != meta:
                    meta = scan_meta
                    lines.append(f"{t:.3f},scanmeta," + " ".join(repr(v) for v in meta))
                lines.append(f"{t:.3f},scan," + " ".join(repr(r) for r in scan.ranges))
        self.rows = self._parse(lines)
        self.truth = [truth for _, _, _, truth in recorded]
        self.duration = recorded[-1][0] - recorded[0][0]
        dx, dy, dth = self.GUESS_OFFSET
        self.guess = Pose2D(start.x + dx, start.y + dy, start.theta + dth)

    @staticmethod
    def _parse(lines: list[str]):
        """(odom delta, scan or None, tick index) per update, as `localize` reads them."""
        rows, meta, tick = [], None, -1
        for line in lines[1:]:
            _t, kind, payload = line.split(",", 2)
            if kind == "scanmeta":
                meta = [float(v) for v in payload.split()]
            elif kind == "odom":
                tick += 1
                rows.append((Pose2D(*(float(v) for v in payload.split())), None, tick))
            else:
                scan = LaserScan(*meta, [float(v) for v in payload.split()], ScanFrame.MERGED)
                rows.append((Pose2D(), scan, tick))
        return rows

    def inputs(self) -> dict:
        return {"particles": self.PARTICLES, "updates": len(self.rows),
                "scans": sum(1 for _, s, _ in self.rows if s is not None),
                "logged_s": round(self.duration, 3), "odom_noise": 0.05, "range_std": 0.01}

    def run_pass(self, tracer=None) -> PassResult:
        ops_ms, estimates, sq_errs = [], [], []
        clock = time.perf_counter_ns
        t0 = time.perf_counter()
        mcl = MclFilter(self.nav_map, MclConfig(particle_count=self.PARTICLES,
                                                rng_seed=self.seed))
        mcl.initialize_around(self.guess, 0.5, math.radians(20.0))
        scans = 0
        for i, (odom, scan, tick) in enumerate(self.rows):
            if tracer is not None:
                tracer.op = i
            start = clock()
            est = mcl.update(odom, scan)
            if scan is not None:
                ops_ms.append((clock() - start) / 1e6)
                scans += 1
                if scans > self.WARMUP_SCANS:
                    truth = self.truth[tick]
                    sq_errs.append((est.x - truth.x) ** 2 + (est.y - truth.y) ** 2)
            estimates.append(est)
        wall = time.perf_counter() - t0
        truth = self.truth[-1]
        pos = math.hypot(est.x - truth.x, est.y - truth.y)
        heading = abs(normalize_angle(est.theta - truth.theta))
        problems = []
        if pos >= MCL_POS_M or heading >= MCL_HEADING:
            problems.append(f"final MCL estimate off by {pos:.3f} m, "
                            f"{math.degrees(heading):.1f} deg")
        digest = _sha("".join(f"{e.x!r} {e.y!r} {e.theta!r}\n" for e in estimates))
        return PassResult(
            wall, self.duration, ops_ms, digest, attempted=1, failed=len(problems),
            problems=problems,
            accuracy={"mcl_err_m": math.sqrt(sum(sq_errs) / len(sq_errs))},
        )

    def close(self) -> None:
        pass


class MapExtract:
    """The `map-extract` path over several seeded 50k-point lab clouds:
    read_point_cloud -> extract_map -> write_map -> read_map per cloud."""

    name = "map_extract"
    CLOUDS = 8
    POINTS = 50_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.expected: dict[int, np.ndarray] = {}
        self.clouds: list[Path] = []
        self._files = 0

    def _fresh_path(self, stem: str, suffix: str) -> Path:
        # A new name per file: rewriting a file in place makes ext4 flush it
        # to disk on close, which would time the disk instead of the program.
        self._files += 1
        return self.workdir / f"{stem}{self._files}{suffix}"

    def cloud_seeds(self) -> list[int]:
        return [self.seed * self.CLOUDS + i for i in range(self.CLOUDS)]

    def setup(self) -> None:
        for path in self.clouds:
            path.unlink()
        self.clouds = []
        for cs in self.cloud_seeds():
            path = self._fresh_path("cloud", ".txt")
            mapgen.write_point_cloud(worlds.build_lab_cloud(seed=cs, total_points=self.POINTS), path)
            self.clouds.append(path)

    def inputs(self) -> dict:
        return {"clouds": self.CLOUDS, "points_per_cloud": self.POINTS,
                "cloud_seeds": self.cloud_seeds()}

    def run_pass(self, tracer=None) -> PassResult:
        cfg = mapgen.MapGenConfig()
        ops_ms, grids, pgms = [], [], []
        for i, path in enumerate(self.clouds):
            if tracer is not None:
                tracer.op = i
            out = self._fresh_path("map", ".pgm")
            t0 = time.perf_counter()
            grid = mapgen.extract_map(mapgen.read_point_cloud(path), cfg)
            mapgen.write_map(grid, out)
            back = mapgen.read_map(out)
            ops_ms.append((time.perf_counter() - t0) * 1e3)
            grids.append((grid, back))
            pgms.append(out.read_bytes())
            out.unlink()
            out.with_suffix(".pgm.meta").unlink()
        # checks run after the timed round trips
        problems, matches = [], []
        for i, (grid, back) in enumerate(grids):
            if i not in self.expected:
                self.expected[i] = worlds.expected_lab_raster(back)
            match = float(np.count_nonzero(back.cells == self.expected[i])) / back.cells.size
            matches.append(match)
            if match < MAP_MATCH_MIN or not np.array_equal(grid.cells, back.cells):
                problems.append(f"map {i}: cell match {match:.4f}")
        return PassResult(
            sum(ops_ms) / 1e3, 0.0, ops_ms, _sha(*pgms), attempted=len(grids),
            failed=len(problems), problems=problems, accuracy={"map_match": min(matches)},
        )

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (LabTour, ClutteredPatrol, MclReplay, MapExtract)}
