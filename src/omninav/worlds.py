"""Synthetic worlds shared by the CLI demos and the test suite.

The lab floor plan is a 20 m x 15 m open-plan space with a meeting room, a
station room, and elevated furniture (table-height disks) along the central
corridor. The same wall/furniture plan drives point-cloud synthesis, the
analytic ground-truth raster, the simulator's static map, and the
navigation map, so every pipeline stage sees a consistent environment.

Furniture sits at z 0.3-1.3 m: present in the extracted 2D map and visible
to the head-height depth scan, but invisible to the ankle-height base
lasers.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FREE, OCCUPIED, UNKNOWN, OccupancyGrid, PointCloud, Pose2D
from .planning import MarkerSpec
from .sim import NoiseModel, Obstacle, World

LAB_SIZE = (20.0, 15.0)
RESOLUTION = 0.05

_W, _H = LAB_SIZE
_E = 0.025  # keep wall lines off the exact bounding-box edge

# wall line segments (x1, y1, x2, y2); door gaps are simply missing spans
WALL_SEGMENTS: list[tuple[float, float, float, float]] = [
    # perimeter
    (_E, _E, _W - _E, _E),
    (_W - _E, _E, _W - _E, _H - _E),
    (_W - _E, _H - _E, _E, _H - _E),
    (_E, _H - _E, _E, _E),
    # meeting room, top-left: wall y = 10 with a door gap at x in [6.4, 7.8]
    (_E, 10.025, 6.4, 10.025),
    (7.8, 10.025, 8.0, 10.025),
    (8.0, 10.025, 8.0, _H - _E),
    # station room, bottom-right: wall x = 14 with a door gap at y in [2.2, 3.6]
    (14.025, _E, 14.025, 2.2),
    (14.025, 3.6, 14.025, 5.0),
    (14.025, 5.0, _W - _E, 5.0),
]

# table-height furniture disks: (cx, cy, radius), z extent FURNITURE_Z
FURNITURE: list[tuple[float, float, float]] = [
    (6.0, 6.5, 0.18),
    (9.0, 8.5, 0.18),
    (12.0, 6.5, 0.18),
    (16.0, 8.5, 0.18),
]
FURNITURE_Z = (0.3, 1.3)

MARKERS: dict[str, MarkerSpec] = {
    "marker1": MarkerSpec("marker1", Pose2D(2.0, 2.0, 0.0), "entry"),
    "marker2": MarkerSpec("marker2", Pose2D(17.0, 2.5, math.radians(-90.0)), "harvey station"),
    "marker3": MarkerSpec("marker3", Pose2D(17.0, 12.0, math.radians(90.0)), "cartman station"),
    "marker4": MarkerSpec("marker4", Pose2D(3.0, 12.5, math.radians(180.0)), "meeting room"),
}


def segment_cells(seg: tuple[float, float, float, float], origin_x: float, origin_y: float,
                  resolution: float) -> set[tuple[int, int]]:
    """All (col, row) cells a wall segment passes through, by dense sampling."""
    x1, y1, x2, y2 = seg
    length = math.hypot(x2 - x1, y2 - y1)
    n = max(2, int(length / (resolution / 5.0)) + 1)
    cells = set()
    for k in range(n + 1):
        t = k / n
        x = x1 + t * (x2 - x1)
        y = y1 + t * (y2 - y1)
        cells.add((math.floor((x - origin_x) / resolution), math.floor((y - origin_y) / resolution)))
    return cells


def circle_cells(cx: float, cy: float, radius: float, origin_x: float, origin_y: float,
                 resolution: float) -> set[tuple[int, int]]:
    """All cells a circle outline passes through, by dense sampling."""
    n = max(16, int(2.0 * math.pi * radius / (resolution / 5.0)) + 1)
    cells = set()
    for k in range(n):
        a = 2.0 * math.pi * k / n
        x = cx + radius * math.cos(a)
        y = cy + radius * math.sin(a)
        cells.add((math.floor((x - origin_x) / resolution), math.floor((y - origin_y) / resolution)))
    return cells


def build_lab_map(resolution: float = RESOLUTION, include_furniture: bool = True) -> OccupancyGrid:
    """Static lab map rasterized directly from the wall/furniture plan."""
    width = int(math.floor(_W / resolution)) + 1
    height = int(math.floor(_H / resolution)) + 1
    grid = OccupancyGrid(width, height, resolution, Pose2D(0.0, 0.0, 0.0))
    cells: set[tuple[int, int]] = set()
    for seg in WALL_SEGMENTS:
        cells |= segment_cells(seg, 0.0, 0.0, resolution)
    if include_furniture:
        for cx, cy, r in FURNITURE:
            cells |= circle_cells(cx, cy, r, 0.0, 0.0, resolution)
    for col, row in cells:
        if grid.in_bounds(col, row):
            grid.cells[row, col] = OCCUPIED
    return grid


def build_lab_cloud(seed: int = 0, total_points: int = 50_000,
                    z_band: tuple[float, float] = (0.05, 1.2)) -> PointCloud:
    """Synthetic capture of the lab: dense wall and furniture points in the
    height band, floor/ceiling points outside it, and sparse stray noise."""
    rng = np.random.default_rng(seed)
    pts: list[np.ndarray] = []
    z_lo, z_hi = z_band
    # stratified wall sampling: a point every resolution/5 along each segment
    for x1, y1, x2, y2 in WALL_SEGMENTS:
        length = math.hypot(x2 - x1, y2 - y1)
        n = max(3, int(length / (RESOLUTION / 5.0)) + 1)
        t = (np.arange(n + 1) + rng.uniform(-0.3, 0.3, n + 1)) / n
        t = np.clip(t, 0.0, 1.0)
        xs = x1 + t * (x2 - x1)
        ys = y1 + t * (y2 - y1)
        zs = rng.uniform(z_lo + 0.01, z_hi - 0.01, n + 1)
        pts.append(np.column_stack([xs, ys, zs]))
    fz_lo = max(z_lo + 0.01, FURNITURE_Z[0])
    fz_hi = min(z_hi - 0.01, FURNITURE_Z[1])
    for cx, cy, r in FURNITURE:
        n = max(64, int(2.0 * math.pi * r / (RESOLUTION / 5.0)) + 1)
        a = 2.0 * math.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
        xs = cx + r * np.cos(a)
        ys = cy + r * np.sin(a)
        zs = rng.uniform(fz_lo, fz_hi, n)
        pts.append(np.column_stack([xs, ys, zs]))
    structure_count = sum(len(p) for p in pts)
    # floor and ceiling sweeps, outside the band
    remaining = max(0, total_points - structure_count)
    n_noise = min(2000, remaining // 4)
    n_floor = remaining - n_noise
    xs = rng.uniform(_E, _W - _E, n_floor)
    ys = rng.uniform(_E, _H - _E, n_floor)
    zs = np.where(rng.uniform(size=n_floor) < 0.5, 0.0, 2.2)
    pts.append(np.column_stack([xs, ys, zs]))
    # sparse in-band stray returns, some outside the perimeter
    xs = rng.uniform(-0.6, _W + 0.6, n_noise)
    ys = rng.uniform(-0.6, _H + 0.6, n_noise)
    zs = rng.uniform(z_lo + 0.01, z_hi - 0.01, n_noise)
    pts.append(np.column_stack([xs, ys, zs]))
    return PointCloud(np.vstack(pts))


def expected_lab_raster(grid: OccupancyGrid) -> np.ndarray:
    """Analytic ground truth on the same lattice as an extracted grid:
    wall/furniture cells OCCUPIED, cells outside the perimeter UNKNOWN,
    everything else FREE."""
    ox, oy = grid.origin.x, grid.origin.y
    x = ox + (np.arange(grid.width) + 0.5) * grid.resolution
    y = oy + (np.arange(grid.height) + 0.5) * grid.resolution
    expected = np.full((grid.height, grid.width), UNKNOWN, dtype=np.int8)
    expected[np.ix_((_E <= y) & (y <= _H - _E), (_E <= x) & (x <= _W - _E))] = FREE
    occ: set[tuple[int, int]] = set()
    for seg in WALL_SEGMENTS:
        occ |= segment_cells(seg, ox, oy, grid.resolution)
    for cx, cy, r in FURNITURE:
        occ |= circle_cells(cx, cy, r, ox, oy, grid.resolution)
    for col, row in occ:
        if 0 <= col < grid.width and 0 <= row < grid.height:
            expected[row, col] = OCCUPIED
    return expected


def furniture_obstacles() -> list[Obstacle]:
    return [
        Obstacle(f"table{i}", "disk", (cx, cy, r), z_min=FURNITURE_Z[0], z_max=FURNITURE_Z[1])
        for i, (cx, cy, r) in enumerate(FURNITURE, 1)
    ]


def empty_grid(size: float = 20.0, resolution: float = 0.1) -> OccupancyGrid:
    n = int(size / resolution)
    return OccupancyGrid(n, n, resolution, Pose2D(0.0, 0.0, 0.0))


def obstacle_course_world(seed: int = 0) -> World:
    """Open world with the elevated-sofa / low-clutter sensing fixture.

    The sofa sits dead ahead but above the base lasers; the backpack and box
    sit low to the ground on either side, outside the depth field of view.
    """
    world = World(grid=empty_grid(), robot=Pose2D(10.0, 10.0, 0.0),
                  noise=NoiseModel(rng_seed=seed))
    world.obstacles = [
        Obstacle("sofa", "segment", (12.0, 9.2, 12.0, 10.8), z_min=0.3, z_max=1.3),
        Obstacle("backpack", "disk", (10.0, 11.5, 0.2), z_min=0.0, z_max=0.2),
        Obstacle("box", "disk", (10.0, 8.5, 0.25), z_min=0.0, z_max=0.25),
    ]
    return world


def lab_world(noise: NoiseModel | None = None, start: Pose2D | None = None) -> World:
    """Simulated lab: walls in the raycast grid, furniture as elevated
    analytic obstacles. Use lab_nav_map() for planning/localization."""
    world = World(
        grid=build_lab_map(include_furniture=False),
        robot=start if start is not None else MARKERS["marker1"].goal,
        noise=noise if noise is not None else NoiseModel(),
    )
    world.obstacles = furniture_obstacles()
    return world


def lab_nav_map() -> OccupancyGrid:
    return build_lab_map(include_furniture=True)


def localization_run(mode: str, seed: int = 7, ticks: int = 400, dt: float = 0.05,
                     scan_every: int = 10):
    """Scripted 10 m corridor run for comparing scan sources.

    Drives straight along y = 7 from x = 2 at 0.5 m/s. The corridor walls sit
    beyond base-laser range and the only nearby features are table-height
    furniture disks, so the base lasers see almost nothing while the merged
    scan picks up the furniture. The filter starts from an offset initial
    guess (+0.30 m, -0.10 m, +5 deg) with 0.5 m / 20 deg spread.

    mode is "merged" or "base". Returns (position_error_m, heading_error_rad,
    estimate, truth).
    """
    from .localization import MclConfig, MclFilter
    from .sensing import combine_base_scans, transform_scan_to_body
    from .sim import sense_base, sense_merged, step
    from .core import VelocityCommand, normalize_angle

    if mode not in ("merged", "base"):
        raise ValueError(f"mode must be 'merged' or 'base', got {mode!r}")
    start = Pose2D(2.0, 7.0, 0.0)
    world = lab_world(
        noise=NoiseModel(odom_translation_std=0.05, odom_rotation_std=0.05, rng_seed=seed),
        start=start,
    )
    mcl = MclFilter(lab_nav_map(), MclConfig(rng_seed=seed))
    guess = Pose2D(start.x + 0.30, start.y - 0.10, math.radians(5.0))
    mcl.initialize_around(guess, 0.5, math.radians(20.0))
    cmd = VelocityCommand(0.5, 0.0, 0.0)
    estimate = guess
    for tick in range(ticks):
        odom = step(world, cmd, dt)
        scan = None
        if tick % scan_every == scan_every - 1:
            if mode == "merged":
                scan = sense_merged(world, noisy=True)
            else:
                sector = sense_base(world, noisy=True)
                body = [transform_scan_to_body(s, c)
                        for s, c in zip(sector, world.base_cfg.centers)]
                scan = combine_base_scans(body, world.base_cfg)
        estimate = mcl.update(odom, scan)
    truth = world.robot
    pos_err = math.hypot(estimate.x - truth.x, estimate.y - truth.y)
    heading_err = abs(normalize_angle(estimate.theta - truth.theta))
    return pos_err, heading_err, estimate, truth
