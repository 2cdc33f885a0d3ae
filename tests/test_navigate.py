import math
from dataclasses import dataclass, field

import pytest

from omninav import navigate, worlds
from omninav import sim as simulator
from omninav.core import OCCUPIED, OccupancyGrid, Pose2D, VelocityCommand, normalize_angle
from omninav.navigate import BLOCKED, NO_PATH, REACHED, Navigator
from omninav.planning import LocalPlannerConfig, MarkerSpec, at_goal, plan_local
from omninav.sim import NoiseModel, Obstacle


def lab_navigator(seed=0, **kw):
    world = worlds.lab_world(noise=NoiseModel(rng_seed=seed))
    nav = Navigator(world, dict(worlds.MARKERS), map_grid=worlds.lab_nav_map(), **kw)
    return world, nav


class TestNavigator:
    def test_reaches_marker_within_tolerance(self):
        world, nav = lab_navigator()
        assert nav.navigate_to_marker("marker2") == REACHED
        goal = worlds.MARKERS["marker2"].goal
        assert math.hypot(world.robot.x - goal.x, world.robot.y - goal.y) <= 0.1
        assert abs(normalize_angle(world.robot.theta - goal.theta)) <= math.radians(5.0)

    def test_already_at_goal(self):
        world, nav = lab_navigator()
        world.robot = worlds.MARKERS["marker1"].goal
        assert nav.navigate_to_marker("marker1") == REACHED
        assert world.time == 0.0  # no motion needed

    def test_unknown_marker(self):
        _, nav = lab_navigator()
        with pytest.raises(KeyError):
            nav.navigate_to_marker("marker99")

    def test_goal_inside_wall_is_no_path(self):
        world, nav = lab_navigator()
        nav.markers["bad"] = MarkerSpec("bad", Pose2D(0.0, 0.0, 0.0), "in the wall")
        assert nav.navigate_to_marker("bad") == NO_PATH

    def test_log_rows_written(self):
        world, nav = lab_navigator()
        log = []
        nav.navigate_to_marker("marker2", log)
        assert log and log[-1].t == pytest.approx(world.time)

    def test_navigate_fn_adapter(self):
        world, nav = lab_navigator()
        world.robot = worlds.MARKERS["marker1"].goal
        fn = nav.navigate_fn()
        assert fn(world, "marker1", []) == REACHED

    def test_unmapped_obstacle_detoured(self):
        # a fresh disk dead ahead on the corridor, absent from the nav map:
        # the costmap must pick it up and the robot must route around it
        world, nav = lab_navigator()
        world.robot = Pose2D(4.0, 2.0, 0.0)
        world.obstacles.append(Obstacle("crate", "disk", (6.0, 2.0, 0.25)))
        nav.markers["past"] = MarkerSpec("past", Pose2D(9.0, 2.0, 0.0), "behind the crate")
        assert nav.navigate_to_marker("past") == REACHED
        assert math.hypot(world.robot.x - 9.0, world.robot.y - 2.0) <= 0.1

    def test_deterministic_across_runs(self):
        poses = []
        for _ in range(2):
            world, nav = lab_navigator(seed=12)
            nav.navigate_to_marker("marker2")
            poses.append((world.robot.x, world.robot.y, world.robot.theta, world.time))
        assert poses[0] == poses[1]


@dataclass
class OracleNavigator(Navigator):
    """The previous Navigator: its loop settings as fields at their old
    defaults, and its navigate_to_marker verbatim. The oracle for the loop
    in `navigate`."""

    local_cfg: LocalPlannerConfig = field(
        default_factory=lambda: LocalPlannerConfig(
            pos_tolerance=0.08, heading_tolerance=math.radians(4.0)
        )
    )
    facing_half_angle: float = math.radians(29.0)
    costmap_inflation: float = 0.25
    dt: float = 0.05
    sense_every: int = 3
    timeout: float = 120.0  # sim seconds per goal
    max_replans: int = 5

    def navigate_to_marker(self, marker_id: str, log: list | None = None) -> str:
        if marker_id not in self.markers:
            raise KeyError(f"unknown marker {marker_id!r}")
        goal = self.markers[marker_id].goal
        world = self.world
        if at_goal(world.robot, goal, self.local_cfg):
            return REACHED
        path = self._plan(goal)
        if path is None:
            return NO_PATH
        replans = 0
        idx = 0
        tick = 0
        stuck_ticks = 0
        reverse_ticks = 0
        deadline = world.time + self.timeout
        while world.time < deadline:
            pose = world.robot
            if at_goal(pose, goal, self.local_cfg):
                return REACHED
            if tick % self.sense_every == 0:
                merged = simulator.sense_merged(world, noisy=world.noise.range_std > 0)
                self.costmap.update(merged, pose, self.facing_half_angle)
            if reverse_ticks > 0:
                # wedged against geometry: back straight out, then replan
                reverse_ticks -= 1
                simulator.step(world, VelocityCommand(-0.1, 0.0, 0.0), self.dt)
                tick += 1
                if reverse_ticks == 0:
                    path = self._plan(goal)
                    if path is None:
                        return NO_PATH
                    idx = 0
                continue
            while idx < len(path) - 1 and math.hypot(
                path[idx][0] - pose.x, path[idx][1] - pose.y
            ) < self.local_cfg.lookahead:
                idx += 1
            cmd = plan_local(path[idx:], goal.theta, pose, self.costmap, self.local_cfg)
            if cmd.vx == 0.0 and cmd.wz == 0.0:
                # blocked: replan around the costmap obstacles
                replans += 1
                if replans > self.max_replans:
                    return BLOCKED
                path = self._plan(goal)
                if path is None:
                    return NO_PATH
                idx = 0
                simulator.step(world, cmd, self.dt)  # idle tick while replanning
                tick += 1
                if log is not None:
                    log.append(simulator.LogRow(world.time, world.robot, Pose2D(), "replan"))
                continue
            odom = simulator.step(world, cmd, self.dt)
            tick += 1
            if cmd.vx > 0 and math.hypot(odom.x, odom.y) < 0.2 * cmd.vx * self.dt:
                stuck_ticks += 1
                if stuck_ticks >= 5:
                    stuck_ticks = 0
                    reverse_ticks = 20
            else:
                stuck_ticks = 0
            if log is not None:
                log.append(simulator.LogRow(world.time, world.robot, odom))
        return BLOCKED


BACK_OUT = VelocityCommand(-0.1, 0.0, 0.0)


def noise(seed):
    return NoiseModel(odom_translation_std=0.05, odom_rotation_std=0.05, range_std=0.01,
                      rng_seed=seed)


def corridor_with_door(seed):
    """A 1 m corridor, 10 m long, closed halfway by a door absent from the map."""
    g = OccupancyGrid(100, 30, 0.1)
    g.cells[:10, :] = OCCUPIED
    g.cells[20:, :] = OCCUPIED
    g.cells[:, :3] = OCCUPIED
    g.cells[:, -3:] = OCCUPIED
    world = simulator.World(grid=g, robot=Pose2D(1.0, 1.5, 0.0), noise=noise(seed))
    world.obstacles.append(Obstacle("door", "segment", (5.0, 0.9, 5.0, 2.1)))
    return world, {"end": MarkerSpec("end", Pose2D(9.0, 1.5, 0.0))}, {}


def lab_leg(goal, start=None, obstacle=None, **kw):
    def build(seed):
        world = worlds.lab_world(noise=noise(seed), start=start)
        if obstacle is not None:
            world.obstacles.append(obstacle)
        return world, {"goal": MarkerSpec("goal", goal)}, {"map_grid": worlds.lab_nav_map(), **kw}
    return build


def plans(trace):
    return [ok for kind, ok in trace if kind == "plan"]


def back_out_then_plan(ok):
    """A full back-out, then a plan that found a path (ok) or not."""
    return [("step", BACK_OUT)] * 20 + [("plan", ok)]


CROSSING = Pose2D(4.0, 2.0, 0.0)
# a shelf neither the base lasers (0.1 m) nor the depth camera (1.1 m) can see
SHELF = Obstacle("shelf", "disk", (6.0, 2.0, 0.25), z_min=0.3, z_max=0.9)
CRATE = Obstacle("crate", "disk", (6.0, 2.0, 0.25))

# id -> (world builder, TIMEOUT, failing plan call or None, the branch the
# oracle must take, as a check on (outcome, trace, world))
NAV_EXITS = {
    "at-goal": (lab_leg(worlds.MARKERS["marker1"].goal), 120.0, None,
                lambda out, trace, w: out == REACHED and trace == []),
    "reached": (lab_leg(Pose2D(4.0, 2.5, math.pi / 2)), 120.0, None,
                lambda out, trace, w: out == REACHED and plans(trace) == [True]),
    "goal-in-wall": (lab_leg(Pose2D(0.0, 0.0, 0.0)), 120.0, None,
                     lambda out, trace, w: out == NO_PATH and trace == [("plan", False)]),
    # the door blocks the local plan; the replan around it finds no way through
    "replan-no-path": (corridor_with_door, 120.0, None,
                       lambda out, trace, w: out == NO_PATH and plans(trace) == [True, False]
                       and trace[-2][1] != BACK_OUT),
    # with no inflation the global plan grazes the crate, which blocks the local plan
    "replan-limit": (lab_leg(Pose2D(9.0, 2.0, 0.0), CROSSING, CRATE, inflation_radius=0.0),
                     120.0, None,
                     lambda out, trace, w: out == BLOCKED and plans(trace) == [True] * 6
                     and w.time < 120.0),
    "deadline": (lab_leg(worlds.MARKERS["marker2"].goal), 2.0, None,
                 lambda out, trace, w: out == BLOCKED and plans(trace) == [True]
                 and w.time >= 2.0),
    "stuck-reverse-replan": (lab_leg(Pose2D(9.0, 2.0, 0.0), CROSSING, SHELF), 15.0, None,
                             lambda out, trace, w: any(
                                 trace[i:i + 21] == back_out_then_plan(True)
                                 for i in range(len(trace)))),
    # the plan after the first back-out is made to fail
    "stuck-reverse-no-path": (lab_leg(Pose2D(9.0, 2.0, 0.0), CROSSING, SHELF), 15.0, 2,
                              lambda out, trace, w: out == NO_PATH
                              and trace[-21:] == back_out_then_plan(False)),
}


def drive(nav_cls, case, seed, monkeypatch):
    """One leg under `nav_cls`: outcome, log, the step/plan trace, and the world."""
    build, timeout, failing_plan, _ = NAV_EXITS[case]
    world, markers, kw = build(seed)
    if nav_cls is OracleNavigator:
        kw = dict(kw, timeout=timeout)
    nav = nav_cls(world, markers, **kw)
    trace = []
    step, plan = simulator.step, nav._plan

    def recorded_step(w, cmd, dt):
        trace.append(("step", cmd))
        return step(w, cmd, dt)

    def recorded_plan(goal):
        path = None if len(plans(trace)) + 1 == failing_plan else plan(goal)
        trace.append(("plan", path is not None))
        return path

    nav._plan = recorded_plan
    log = []
    with monkeypatch.context() as m:
        m.setattr(simulator, "step", recorded_step)
        m.setattr(navigate, "TIMEOUT", timeout)
        outcome = nav.navigate_to_marker(next(iter(markers)), log)
    return outcome, log, trace, world


@pytest.mark.parametrize("case", NAV_EXITS)
@pytest.mark.parametrize("seed", [0, 7])
def test_loop_matches_oracle(case, seed, monkeypatch):
    """Every exit of the loop: the outcome, log rows, steps and plans, the sim
    time, the final pose and the world's RNG state match the oracle's bit for
    bit, and the oracle reached the branch the case is named after."""
    want = drive(OracleNavigator, case, seed, monkeypatch)
    got = drive(Navigator, case, seed, monkeypatch)
    assert NAV_EXITS[case][3](want[0], want[2], want[3]), want[:3]
    assert got[:3] == want[:3]
    assert (got[3].time, got[3].robot) == (want[3].time, want[3].robot)
    assert got[3].rng.bit_generator.state == want[3].rng.bit_generator.state
