"""The benchmark's tracer wraps package functions by name from outside the
package; a refactor that moves or drops one of them must fail here, not only
under `bench/run.py --trace 1`."""

import importlib.util
import math
from pathlib import Path

import pytest

from omninav import sim, worlds
from omninav.core import Pose2D, VelocityCommand
from omninav.navigate import REACHED, Navigator
from omninav.planning import MarkerSpec

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_planning_hot_paths_record_spans(layers):
    """A leg around a disk missing from the nav map keeps the costmap, local
    planner and replanning calls going through the names the tracer wraps."""
    world = worlds.lab_world()
    world.robot = Pose2D(4.0, 2.0, 0.0)
    world.obstacles.append(sim.Obstacle("crate", "disk", (6.0, 2.0, 0.25)))
    markers = {"past": MarkerSpec("past", Pose2D(9.0, 2.0, 0.0))}
    nav = Navigator(world, markers, map_grid=worlds.lab_nav_map())
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
