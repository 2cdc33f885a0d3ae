"""Shared geometric and sensor value types plus angle/grid utilities.

Conventions used across the toolkit:
  - body frame: X forward, Y left, rotation about Z counter-clockwise positive
  - angles are radians everywhere, normalized to (-pi, pi]
  - invalid laser range is the sentinel -1.0
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# Sentinel for an invalid/unknown laser return.
INVALID_RANGE = -1.0

# Occupancy grid cell values.
FREE = 0
OCCUPIED = 1
UNKNOWN = 2


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    if not math.isfinite(a):
        raise ValueError(f"non-finite angle: {a!r}")
    r = math.remainder(a, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


@dataclass(frozen=True)
class Pose2D:
    """Robot pose in the world frame: x, y in meters, theta in radians."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite pose position")
        object.__setattr__(self, "theta", normalize_angle(self.theta))


@dataclass(frozen=True)
class VelocityCommand:
    """Body-frame velocity: vx forward (m/s), vy left (m/s), wz CCW (rad/s)."""

    vx: float = 0.0
    vy: float = 0.0
    wz: float = 0.0

    def __post_init__(self):
        for v in (self.vx, self.vy, self.wz):
            if not math.isfinite(v):
                raise ValueError("non-finite velocity command")

    def clamped(self, v_max: float = 0.5, wz_max: float = 1.0) -> "VelocityCommand":
        v = math.hypot(self.vx, self.vy)
        scale = v_max / v if v > v_max else 1.0
        wz = max(-wz_max, min(wz_max, self.wz))
        return VelocityCommand(self.vx * scale, self.vy * scale, wz)


class ScanFrame(enum.Enum):
    BASE = "base"
    DEPTH = "depth"
    MERGED = "merged"


@dataclass
class LaserScan:
    """Polar range scan. Negative range means invalid/unknown return.

    Beam i points along angle_min + i * angle_increment (> 0), and angle_max
    is not below angle_min, so a scan holds at least one beam. Angles and
    ranges are finite; ranges are kept as a list of Python floats.
    """

    angle_min: float
    angle_max: float
    angle_increment: float
    range_min: float
    range_max: float
    ranges: list[float]
    frame: ScanFrame = ScanFrame.BASE

    def __post_init__(self):
        if not 0.0 < self.angle_increment < math.inf:
            raise ValueError(f"angle_increment {self.angle_increment!r} is not positive and finite")
        steps = (self.angle_max - self.angle_min) / self.angle_increment
        if not math.isfinite(steps):
            raise ValueError("non-finite scan angles, or an increment too small for their span")
        if steps < 0:
            raise ValueError(f"angle_max {self.angle_max!r} is below angle_min {self.angle_min!r}")
        ranges = np.asarray(self.ranges, dtype=float)
        if not np.isfinite(ranges).all():
            raise ValueError("non-finite range; an invalid return is -1.0")
        # invalid bins share one float object; most bins of a merged scan are invalid
        items = ranges.astype(object)
        items[ranges == INVALID_RANGE] = INVALID_RANGE
        self.ranges = items.tolist()
        expected = int(math.floor(steps + 0.5)) + 1
        if len(self.ranges) != expected:
            raise ValueError(
                f"range count {len(self.ranges)} != {expected} implied by angle metadata"
            )

    def __len__(self) -> int:
        return len(self.ranges)

    def angle(self, index: int) -> float:
        """Bearing of beam `index` in the scan's own frame."""
        if not 0 <= index < len(self.ranges):
            raise IndexError(f"beam index {index} out of range [0, {len(self.ranges)})")
        return self.angle_min + index * self.angle_increment

    def is_valid(self, index: int) -> bool:
        return self.ranges[index] >= 0.0


@dataclass
class OccupancyGrid:
    """2D metric map. cells is a (height, width) int8 array of FREE/OCCUPIED/UNKNOWN.

    origin is the world pose of the outer corner of cell (col=0, row=0);
    cell (col, row) spans x in [origin.x + col*res, origin.x + (col+1)*res).
    """

    width: int
    height: int
    resolution: float
    origin: Pose2D = field(default_factory=Pose2D)
    cells: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.resolution < math.inf:
            raise ValueError(f"resolution {self.resolution!r} is not positive and finite")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid size {self.width}x{self.height} has no cells")
        if self.cells is None:
            self.cells = np.full((self.height, self.width), FREE, dtype=np.int8)
        else:
            self.cells = np.asarray(self.cells, dtype=np.int8).reshape(self.height, self.width)

    def in_bounds(self, col: int, row: int) -> bool:
        return 0 <= col < self.width and 0 <= row < self.height

    def get(self, col: int, row: int) -> int:
        return int(self.cells[row, col])

    def set(self, col: int, row: int, value: int) -> None:
        self.cells[row, col] = value

    def copy(self) -> "OccupancyGrid":
        return OccupancyGrid(self.width, self.height, self.resolution, self.origin, self.cells.copy())


def world_to_cell(grid: OccupancyGrid, x: float, y: float) -> tuple[int, int] | None:
    """Cell (col, row) containing world point (x, y), or None if out of bounds."""
    col = math.floor((x - grid.origin.x) / grid.resolution)
    row = math.floor((y - grid.origin.y) / grid.resolution)
    if not grid.in_bounds(col, row):
        return None
    return col, row


def cell_center(grid: OccupancyGrid, col: int, row: int) -> tuple[float, float]:
    """World coordinates of the center of cell (col, row)."""
    x = grid.origin.x + (col + 0.5) * grid.resolution
    y = grid.origin.y + (row + 0.5) * grid.resolution
    return x, y


@dataclass
class PointCloud:
    """3D points, stored as an (N, 3) float array in meters."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point cloud contains non-finite coordinates")

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_xyz(cls, triples) -> "PointCloud":
        arr = np.array(list(triples), dtype=float).reshape(-1, 3)
        return cls(arr)
