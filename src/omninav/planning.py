"""A* over the inflated grid, constrained local planner, and the local
costmap with facing-conditioned clearing.

Two rules from the deployed navigation setup are enforced here:
  - lateral (body Y) motion is never commanded, and
  - a costmap obstacle is only cleared while the robot is facing it and the
    merged scan no longer supports it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import (
    FREE,
    OCCUPIED,
    LaserScan,
    OccupancyGrid,
    Pose2D,
    ScanFrame,
    VelocityCommand,
    normalize_angle,
)

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class MarkerSpec:
    id: str
    goal: Pose2D
    label: str = ""


def load_markers(path) -> dict[str, MarkerSpec]:
    """Marker file: one `id x y theta label` per line, `#` comments."""
    markers: dict[str, MarkerSpec] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split(None, 4)
            if len(parts) < 4:
                raise ValueError(f"{path}:{lineno}: expected `id x y theta [label]`")
            mid, x, y, th = parts[0], float(parts[1]), float(parts[2]), float(parts[3])
            label = parts[4] if len(parts) == 5 else ""
            markers[mid] = MarkerSpec(mid, Pose2D(x, y, th), label)
    return markers


class Costmap:
    """Robot-centered rolling obstacle map.

    `obstacles` is the set of obstacle cells (floor(x / resolution),
    floor(y / resolution)); cell (col, row) has its center at
    ((col + 0.5) * resolution, (row + 0.5) * resolution). Cells leave the
    window when the robot moves more than half the window size away.
    """

    def __init__(self, resolution: float, window_size: float = 6.0,
                 inflation_radius: float = 0.3, static_grid: OccupancyGrid | None = None):
        self.resolution = resolution
        self.window_size = window_size
        self.inflation_radius = inflation_radius
        # returns already explained by this map are not treated as new obstacles
        self.static_grid = static_grid
        # static OCCUPIED cells grown by one cell: the cells whose returns it explains
        self._explained = None if static_grid is None else ndimage.binary_dilation(
            static_grid.cells == OCCUPIED, structure=np.ones((3, 3), dtype=bool))
        self.obstacles: set[tuple[int, int]] = set()

    def _static_explains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per point: True when the static map has an OCCUPIED cell at or next to it."""
        explains = np.zeros(len(x), dtype=bool)
        g = self.static_grid
        if g is None:
            return explains
        col = np.floor((x - g.origin.x) / g.resolution)
        row = np.floor((y - g.origin.y) / g.resolution)
        inside = (col >= 0) & (col < g.width) & (row >= 0) & (row < g.height)
        explains[inside] = self._explained[row[inside].astype(np.intp), col[inside].astype(np.intp)]
        return explains

    def update(self, merged: LaserScan, robot_pose: Pose2D, facing_half_angle: float) -> None:
        """Insert beam endpoints; clear only inside the facing cone.

        An obstacle cell is cleared iff its current body-frame bearing lies
        within +/- facing_half_angle of straight ahead AND no valid merged
        return lands in or next to the cell this update.
        """
        if merged.frame != ScanFrame.MERGED:
            raise ValueError(f"costmap update requires a MERGED scan, got {merged.frame}")
        ranges = np.asarray(merged.ranges)
        beams = np.flatnonzero(ranges >= 0.0)
        bearings = merged.angle_min + beams * merged.angle_increment
        a = robot_pose.theta + bearings
        ex = robot_pose.x + ranges[beams] * np.cos(a)
        ey = robot_pose.y + ranges[beams] * np.sin(a)
        cols = np.floor(ex / self.resolution).astype(np.int64)
        rows = np.floor(ey / self.resolution).astype(np.int64)
        supported = set(zip(cols.tolist(), rows.tolist()))
        new = ~self._static_explains(ex, ey)
        self.obstacles.update(zip(cols[new].tolist(), rows[new].tolist()))

        half = self.window_size / 2.0
        res = self.resolution
        to_clear = []
        for cell in self.obstacles:
            cx, cy = (cell[0] + 0.5) * res, (cell[1] + 0.5) * res
            if abs(cx - robot_pose.x) > half or abs(cy - robot_pose.y) > half:
                to_clear.append(cell)
                continue
            bearing = normalize_angle(
                math.atan2(cy - robot_pose.y, cx - robot_pose.x) - robot_pose.theta
            )
            if abs(bearing) > facing_half_angle:
                continue
            near_support = any(
                (cell[0] + dc, cell[1] + dr) in supported
                for dc in (-1, 0, 1)
                for dr in (-1, 0, 1)
            )
            if not near_support:
                to_clear.append(cell)
        self.obstacles.difference_update(to_clear)

    def blocks(self, x, y) -> bool:
        """True if any point (x, y), scalars or equal-length arrays, lies within
        the inflation radius of an obstacle cell's center."""
        if not self.obstacles:
            return False
        centers = (np.array(list(self.obstacles), dtype=float) + 0.5) * self.resolution
        dx = centers[:, :1] - np.ravel(x)
        dy = centers[:, 1:] - np.ravel(y)
        d = np.hypot(dx, dy)
        radius = self.inflation_radius
        hit = d <= radius
        # np.hypot may differ from math.hypot in the last place: settle near-ties by the latter
        for i, j in zip(*np.nonzero(np.abs(d - radius) <= 16 * np.spacing(radius))):
            hit[i, j] = math.hypot(dx[i, j], dy[i, j]) <= radius
        return bool(hit.any())


def inflate(grid: OccupancyGrid, radius: float) -> np.ndarray:
    """Boolean blocked mask: OCCUPIED or UNKNOWN cells dilated by a disk."""
    blocked = grid.cells != FREE
    r_cells = int(math.floor(radius / grid.resolution + 1e-9))
    if r_cells <= 0:
        return blocked
    yy, xx = np.mgrid[-r_cells : r_cells + 1, -r_cells : r_cells + 1]
    disk = (xx ** 2 + yy ** 2) <= r_cells ** 2
    return ndimage.binary_dilation(blocked, structure=disk)


_NEIGHBORS = [
    (1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
    (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2),
]


def _octile(a: tuple[int, int], b: tuple[int, int]) -> float:
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    return (dx + dy) + (SQRT2 - 2.0) * min(dx, dy)


def astar(blocked: np.ndarray, start: tuple[int, int], goal: tuple[int, int]):
    """A* over an 8-connected grid with octile costs.

    blocked is indexed [row, col]; start/goal are (col, row). Returns
    (path_cells, cost) or (None, inf) when the goal is unreachable.
    """
    h, w = blocked.shape
    if blocked[start[1], start[0]] or blocked[goal[1], goal[0]]:
        raise ValueError("start or goal cell is blocked")
    g = {start: 0.0}
    came: dict[tuple[int, int], tuple[int, int]] = {}
    heap = [(_octile(start, goal), 0.0, start)]
    closed: set[tuple[int, int]] = set()
    while heap:
        _, gc, cur = heapq.heappop(heap)
        if cur in closed:
            continue
        if cur == goal:
            path = [cur]
            while cur in came:
                cur = came[cur]
                path.append(cur)
            path.reverse()
            return path, gc
        closed.add(cur)
        for dc, dr, step in _NEIGHBORS:
            nc, nr = cur[0] + dc, cur[1] + dr
            if not (0 <= nc < w and 0 <= nr < h) or blocked[nr, nc]:
                continue
            nxt = (nc, nr)
            ng = gc + step
            if ng < g.get(nxt, math.inf) - 1e-12:
                g[nxt] = ng
                came[nxt] = cur
                heapq.heappush(heap, (ng + _octile(nxt, goal), ng, nxt))
    return None, math.inf


@dataclass(frozen=True)
class LocalPlannerConfig:
    v_max: float = 0.5
    wz_max: float = 1.0
    align_threshold: float = math.radians(15.0)
    lookahead: float = 0.4
    pos_tolerance: float = 0.1
    heading_tolerance: float = math.radians(5.0)
    k_linear: float = 1.5
    k_angular: float = 2.0


def plan_local(
    path: list[tuple[float, float]],
    goal_heading: float,
    pose: Pose2D,
    cm: Costmap,
    cfg: LocalPlannerConfig = LocalPlannerConfig(),
) -> VelocityCommand:
    """Rotate-then-drive waypoint follower; never commands lateral motion.

    Returns an exact zero command when the carrot segment is blocked by a
    costmap obstacle (replan trigger) or when the goal pose is reached. The
    segment is sampled at half-resolution steps, ends included, and all the
    samples go to one `Costmap.blocks` call.
    """
    if not path:
        raise ValueError("empty path")
    gx, gy = path[-1]
    dist_goal = math.hypot(gx - pose.x, gy - pose.y)
    if dist_goal <= cfg.pos_tolerance:
        herr = normalize_angle(goal_heading - pose.theta)
        if abs(herr) <= cfg.heading_tolerance:
            return VelocityCommand(0.0, 0.0, 0.0)
        wz = max(-cfg.wz_max, min(cfg.wz_max, cfg.k_angular * herr))
        if abs(wz) < 0.05:
            wz = math.copysign(0.05, herr)
        return VelocityCommand(0.0, 0.0, wz)

    # carrot: first waypoint at least lookahead away, skipping passed points
    carrot = path[-1]
    for wx, wy in path:
        if math.hypot(wx - pose.x, wy - pose.y) >= cfg.lookahead:
            carrot = (wx, wy)
            break

    # blocked check along the carrot segment at half-resolution steps, in one call
    seg = math.hypot(carrot[0] - pose.x, carrot[1] - pose.y)
    steps = max(2, int(seg / (cm.resolution / 2.0)))
    t = np.arange(steps + 1) / steps
    if cm.blocks(pose.x + t * (carrot[0] - pose.x), pose.y + t * (carrot[1] - pose.y)):
        return VelocityCommand(0.0, 0.0, 0.0)

    bearing = normalize_angle(math.atan2(carrot[1] - pose.y, carrot[0] - pose.x) - pose.theta)
    if abs(bearing) > cfg.align_threshold:
        wz = max(-cfg.wz_max, min(cfg.wz_max, cfg.k_angular * bearing))
        if abs(wz) < 0.05:
            wz = math.copysign(0.05, bearing)
        return VelocityCommand(0.0, 0.0, wz)
    vx = min(cfg.v_max, cfg.k_linear * dist_goal, cfg.v_max * seg / cfg.lookahead)
    # slow down while the heading error is large to limit corner cutting
    vx *= max(0.2, 1.0 - abs(bearing) / cfg.align_threshold)
    vx = max(vx, 0.02)
    wz = max(-cfg.wz_max, min(cfg.wz_max, cfg.k_angular * bearing))
    return VelocityCommand(vx, 0.0, wz)


def at_goal(pose: Pose2D, goal: Pose2D, cfg: LocalPlannerConfig) -> bool:
    return (
        math.hypot(goal.x - pose.x, goal.y - pose.y) <= cfg.pos_tolerance
        and abs(normalize_angle(goal.theta - pose.theta)) <= cfg.heading_tolerance
    )
