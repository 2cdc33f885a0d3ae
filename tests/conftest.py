import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from omninav import worlds
from omninav.core import OccupancyGrid, Pose2D
from omninav.mockdev import MockDeviceServer


@pytest.fixture(scope="session")
def lab_nav_map():
    return worlds.lab_nav_map()


@pytest.fixture
def small_grid():
    """10x10 free grid at 0.1 m resolution, origin at the world origin."""
    return OccupancyGrid(10, 10, 0.1, Pose2D(0.0, 0.0, 0.0))


def random_grid(rng: np.random.Generator, max_side: int = 50, p_occupied: float = 0.3):
    from omninav.core import FREE, OCCUPIED

    h = int(rng.integers(3, max_side + 1))
    w = int(rng.integers(3, max_side + 1))
    cells = np.where(rng.uniform(size=(h, w)) < p_occupied, OCCUPIED, FREE).astype(np.int8)
    return OccupancyGrid(w, h, 0.05, Pose2D(0.0, 0.0, 0.0), cells)


def compose(pose: Pose2D, delta: Pose2D) -> Pose2D:
    """Apply a body-frame increment to a pose."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    return Pose2D(pose.x + c * delta.x - s * delta.y, pose.y + s * delta.x + c * delta.y,
                  pose.theta + delta.theta)


def valid_count(scan) -> int:
    return sum(1 for r in scan.ranges if r >= 0.0)


def stop_all(servers):
    """Stop mock device servers together: each stop() waits out up to one
    serve_forever poll, so stopping them one by one adds the waits up."""
    with ThreadPoolExecutor() as pool:
        list(pool.map(MockDeviceServer.stop, servers))
