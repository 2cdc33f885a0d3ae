"""The benchmark's tracer wraps package functions by name from outside the
package; a refactor that moves or drops one of them must fail here, not only
under `bench/run.py --trace 1`."""

import importlib.util
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
    """The sensing and stepping calls keep going through the names the tracer
    wraps in `sim`, so the per-layer split still sees them."""
    world = worlds.lab_world()
    tracer = layers.Tracer()
    with tracer.installed():
        sim.sense_merged(world)
        sim.step(world, VelocityCommand(0.2, 0.0, 0.0), 0.05)
    summary = tracer.summary()
    for name in ("sim.sense_merged", "sim.raycast", "sim.step", "sensing.merge_scans",
                 "sensing.combine_base_scans", "sensing.transform_scan_to_body"):
        assert summary[f"{name}.calls"] > 0, name
    assert summary["motion.integrate_odometry.calls"] > 0


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
