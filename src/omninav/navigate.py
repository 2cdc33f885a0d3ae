"""Tick-based navigation loop: global plan, local commands, costmap
maintenance, and replanning when the local costmap blocks the path."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import OCCUPIED, OccupancyGrid, Pose2D, VelocityCommand, cell_center, world_to_cell
from .planning import (
    Costmap,
    LocalPlannerConfig,
    MarkerSpec,
    astar,
    at_goal,
    inflate,
    plan_local,
)
from . import sim as simulator


REACHED = "reached"
BLOCKED = "blocked"
NO_PATH = "no-path"


@dataclass
class Navigator:
    """Drives a simulated robot to named markers over a static map.

    The static map is inflated once, at construction: `map_grid` and
    `inflation_radius` must not change afterwards.
    """

    world: simulator.World
    markers: dict[str, MarkerSpec]
    # planning/localization map; defaults to the simulator's raycast grid
    map_grid: simulator.OccupancyGrid | None = None
    local_cfg: LocalPlannerConfig = field(
        default_factory=lambda: LocalPlannerConfig(
            pos_tolerance=0.08, heading_tolerance=math.radians(4.0)
        )
    )
    facing_half_angle: float = math.radians(29.0)
    inflation_radius: float = 0.4
    costmap_inflation: float = 0.25
    dt: float = 0.05
    sense_every: int = 3
    timeout: float = 120.0  # sim seconds per goal
    max_replans: int = 5

    def __post_init__(self):
        if self.map_grid is None:
            self.map_grid = self.world.grid
        self.costmap = Costmap(
            self.map_grid.resolution,
            inflation_radius=self.costmap_inflation,
            static_grid=self.map_grid,
        )
        self._static_blocked = inflate(self.map_grid, self.inflation_radius)

    def _plan(self, goal: Pose2D):
        """Global plan over the static map plus current costmap obstacles.

        A start cell pinched by inflation (wall contact, fresh obstacle) is
        replaced by the nearest unblocked cell within 1 m so the robot can
        move off. Returns world waypoints ending exactly at the goal, or None.
        """
        grid, cm = self.map_grid, self.costmap
        blocked = self._static_blocked.copy()
        # world_to_cell of each costmap cell center, in the same float operations
        centers = (np.array(list(cm.obstacles), dtype=float).reshape(-1, 2) + 0.5) * cm.resolution
        cols = np.floor((centers[:, 0] - grid.origin.x) / grid.resolution)
        rows = np.floor((centers[:, 1] - grid.origin.y) / grid.resolution)
        on_map = (cols >= 0) & (cols < grid.width) & (rows >= 0) & (rows < grid.height)
        if on_map.any():
            # dilation distributes over union: inflate the costmap cells alone, on
            # their bounding box padded by more than the inflation reach
            cols, rows = cols[on_map].astype(np.intp), rows[on_map].astype(np.intp)
            pad = max(int(self.inflation_radius / grid.resolution), 0) + 1
            c0, r0 = max(cols.min() - pad, 0), max(rows.min() - pad, 0)
            c1, r1 = min(cols.max() + pad + 1, grid.width), min(rows.max() + pad + 1, grid.height)
            patch = OccupancyGrid(c1 - c0, r1 - r0, grid.resolution)
            patch.cells[rows - r0, cols - c0] = OCCUPIED
            blocked[r0:r1, c0:c1] |= inflate(patch, self.inflation_radius)
        sc = world_to_cell(grid, self.world.robot.x, self.world.robot.y)
        gc = world_to_cell(grid, goal.x, goal.y)
        if sc is None or gc is None or blocked[gc[1], gc[0]]:
            return None
        if blocked[sc[1], sc[0]]:
            reach = int(1.0 / grid.resolution)
            c0, r0 = max(sc[0] - reach, 0), max(sc[1] - reach, 0)
            rows, cols = np.nonzero(~blocked[r0 : sc[1] + reach + 1, c0 : sc[0] + reach + 1])
            if rows.size == 0:
                return None
            k = np.argmin((cols + c0 - sc[0]) ** 2 + (rows + r0 - sc[1]) ** 2)
            sc = (int(cols[k]) + c0, int(rows[k]) + r0)
        path, _cost = astar(blocked, sc, gc)
        if path is None:
            return None
        pts = [cell_center(grid, c, r) for c, r in path]
        pts[-1] = (goal.x, goal.y)
        return pts

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

    def navigate_fn(self):
        """Adapter for sim.run_scenario's `goto` handling."""

        def fn(world, marker_id, log):
            return self.navigate_to_marker(marker_id, log)

        return fn
