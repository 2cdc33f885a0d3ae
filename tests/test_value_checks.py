"""Each value type rejects its own malformed fields once, at construction."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omninav.core import OccupancyGrid, Pose2D
from omninav.localization import MclConfig, init_around
from omninav.mapgen import MapGenConfig
from omninav.motion import circle_drive_headings
from omninav.sim import OBSTACLE_PARAMS, NoiseModel, Obstacle
from omninav.tour import DeviceEndpoint

# per type: a builder over its float fields, and valid values for them
BUILDERS = {
    "OccupancyGrid": (lambda res: OccupancyGrid(2, 3, res), [0.05]),
    "Obstacle disk": (lambda cx, cy, r, z0, z1: Obstacle("d", "disk", (cx, cy, r), z0, z1),
                      [1.0, 2.0, 0.3, 0.0, 0.5]),
    "Obstacle segment": (lambda x1, y1, x2, y2, z0, z1:
                         Obstacle("s", "segment", (x1, y1, x2, y2), z0, z1),
                         [0.0, 1.0, 2.0, 3.0, 0.1, 1.3]),
    "MapGenConfig": (lambda z0, z1, res: MapGenConfig(z0, z1, res), [0.05, 1.2, 0.05]),
    "NoiseModel": (lambda t, r, s: NoiseModel(t, r, s), [0.05, 0.02, 0.01]),
    "circle_drive_headings": (lambda r, v, d, dt: circle_drive_headings(r, v, d, dt),
                              [1.0, 0.5, 0.1, 0.05]),
    "init_around": (lambda xy, th: init_around(Pose2D(), xy, th, MclConfig(particle_count=10),
                                               np.random.default_rng(0)), [0.5, 0.3]),
}


@pytest.mark.parametrize("name", BUILDERS)
@given(data=st.data())
def test_non_finite_float_field_rejected(name, data):
    build, valid = BUILDERS[name]
    build(*valid)
    values = list(valid)
    values[data.draw(st.integers(0, len(values) - 1), label="field")] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf]), label="value")
    with pytest.raises(ValueError):
        build(*values)


@pytest.mark.parametrize("build", [
    lambda: OccupancyGrid(2, 2, 0.0),
    lambda: OccupancyGrid(2, 2, -0.1),
    lambda: OccupancyGrid(0, 2, 0.1),
    lambda: OccupancyGrid(2, 0, 0.1),
    lambda: Obstacle("d", "disk", (1.0, 2.0, -0.1)),
    lambda: Obstacle("d", "disk", (1.0, 2.0)),
    lambda: Obstacle("d", "disk", (1.0, 2.0, 0.3, 4.0)),
    lambda: Obstacle("s", "segment", (1.0, 2.0, 3.0)),
    lambda: Obstacle("b", "box", (1.0, 2.0, 3.0)),
    lambda: Obstacle("d", "disk", (1.0, 2.0, 0.3), z_min=1.0, z_max=0.5),
    lambda: MapGenConfig(z_min=1.0, z_max=1.0),
    lambda: MapGenConfig(resolution=0.0),
    lambda: MapGenConfig(denoise_min_cluster=0),
    lambda: NoiseModel(range_std=-0.01),
    lambda: circle_drive_headings(1.0, 1.0, -0.1, 0.01),
    lambda: init_around(Pose2D(), -0.1, 0.0, MclConfig(), np.random.default_rng(0)),
    lambda: DeviceEndpoint("tv", "http://127.0.0.1:9", "toaster"),
])
def test_out_of_range_field_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_boundary_obstacles_accepted():
    assert OBSTACLE_PARAMS == {"disk": 3, "segment": 4}
    Obstacle("z", "disk", (0.0, 0.0, 0.0))
    Obstacle("p", "segment", (1.0, 1.0, 1.0, 1.0), z_min=0.5, z_max=0.5)


def test_obstacle_from_numpy_floats_is_stored_unchanged():
    # as the cluttered patrol benchmark builds its clutter
    rng = np.random.default_rng(3)
    params = (np.float64(4.5), np.float64(2.25), rng.uniform(0.12, 0.2, size=1)[0])
    ob = Obstacle("clutter0", "disk", params, np.float64(0.0), 0.3)
    assert ob.params is params
    assert [type(p) for p in ob.params] == [np.float64] * 3
    assert type(ob.z_min) is np.float64 and ob.z_max == 0.3
