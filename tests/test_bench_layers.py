"""The benchmark's tracer wraps package functions by name from outside the
package, and its tick clock replaces `sim.step` and `Navigator._plan`; a
refactor that moves or drops one of them must fail here, not only under
`bench/run.py`."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from omninav import sim, worlds
from omninav.core import Pose2D, VelocityCommand
from omninav.navigate import REACHED, Navigator
from omninav.planning import MarkerSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layers():
    return load_bench("layers")


def test_every_traced_name_resolves(layers):
    for name, owner, attr in layers.SPANS + layers.CALL_COUNTS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(owner.__dict__[attr]), name


def test_install_wraps_and_restores(layers):
    targets = layers.SPANS + layers.CALL_COUNTS
    originals = [owner.__dict__[attr] for _, owner, attr in targets]
    with layers.Tracer().installed():
        wrapped = [owner.__dict__[attr] for _, owner, attr in targets]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(owner.__dict__[attr] is o for (_, owner, attr), o in zip(targets, originals))


def test_sim_hot_paths_record_spans(layers):
    """Sensing and stepping keep going through the names the tracer wraps in
    `sim`. One sense_merged casts once through the World's sensor layout and
    builds no intermediate scans; a step is one `sim.step` span, whether its
    tick is clear or runs into a wall, and integrates no per-sub-step poses."""
    world = worlds.lab_world()  # its sensor layout is built here, untraced
    tracer = layers.Tracer()
    with tracer.installed():
        sim.sense_merged(world)
    summary = tracer.summary()
    assert summary["sim.sense_merged.calls"] == 1
    assert summary["sim.raycast.calls"] == 1
    for name in ("sensing.merge_scans", "sensing.combine_base_scans",
                 "sensing.transform_scan_to_body"):
        assert summary[f"{name}.calls"] == 0, name

    cmd = VelocityCommand(0.5, 0.0, 0.0)
    # open floor, then facing the west wall from 0.3 m: the wall truncates the move
    for start, full_move in ((Pose2D(2.0, 2.0, 0.0), True), (Pose2D(0.3, 7.0, math.pi), False)):
        world.robot = start
        tracer.reset()
        with tracer.installed():
            sim.step(world, cmd, 0.05)
        summary = tracer.summary()
        assert summary["sim.step.calls"] == 1
        assert summary["motion.integrate_odometry.calls"] == 0
        moved = math.hypot(world.robot.x - start.x, world.robot.y - start.y)
        assert (moved == pytest.approx(0.025)) is full_move, moved


def crate_leg():
    """A leg around a disk missing from the nav map: it senses, replans and
    detours."""
    world = worlds.lab_world()
    world.robot = Pose2D(4.0, 2.0, 0.0)
    world.obstacles.append(sim.Obstacle("crate", "disk", (6.0, 2.0, 0.25)))
    markers = {"past": MarkerSpec("past", Pose2D(9.0, 2.0, 0.0))}
    return Navigator(world, markers, map_grid=worlds.lab_nav_map())


def test_planning_hot_paths_record_spans(layers):
    """The crate leg keeps the costmap, local planner and replanning calls
    going through the names the tracer wraps."""
    nav = crate_leg()
    tracer = layers.Tracer()
    with tracer.installed():
        outcome = nav.navigate_to_marker("past")
    summary = tracer.summary()
    assert outcome == REACHED
    for name in ("planning.costmap_update", "planning.plan_local", "planning.costmap_blocks",
                 "planning.astar", "planning.inflate"):
        assert summary[f"{name}.calls"] > 0, name
    # the blocks observer counted a hit: the crate blocked the carrot segment
    assert summary["planning.blocks_hit_ratio"] > 0


def test_tick_clock_hooks(monkeypatch):
    """The bench's TickClock times each `sim.step` through the module and
    flags plans through `_plan` on the Navigator instance, then removes its
    hooks."""
    workloads = load_bench("workloads")
    nav = crate_leg()
    steps = []
    step = sim.step

    def counted_step(*args):
        steps.append(args[1])
        return step(*args)

    monkeypatch.setattr(sim, "step", counted_step)
    clock = workloads.TickClock()
    with clock.installed(nav):
        assert "_plan" in nav.__dict__
        clock.leg_start()
        outcome = nav.navigate_to_marker("past")
    assert outcome == REACHED
    assert len(clock.ticks_ms) == len(steps) > 0
    assert clock.plan_ticks and all(0 <= i < len(steps) for i in clock.plan_ticks)
    assert "_plan" not in nav.__dict__
    assert sim.step is counted_step
