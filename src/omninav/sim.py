"""Deterministic 2D world simulator.

Kinematic omni base, height-attributed obstacles, raycast sensors matching
the robot's base-laser/depth-camera geometry, and seeded noisy odometry.
Obstacles are analytic disks or wall segments; the static map is ray-sampled
at sub-cell granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .core import (
    INVALID_RANGE,
    LaserScan,
    OccupancyGrid,
    Pose2D,
    ScanFrame,
    VelocityCommand,
    OCCUPIED,
    normalize_angle,
)
# integrate_odometry and the three scan functions stay sim attributes: bench tracing wraps them here
from .motion import arc_increment, integrate_odometry  # noqa: F401
from .sensing import (BaseLaserConfig, DepthScanConfig, _merge_bins, _stitch_bins,  # noqa: F401
                      combine_base_scans, merge_scans, transform_scan_to_body)


# parameter count per obstacle kind: disk (cx, cy, radius), segment (x1, y1, x2, y2)
OBSTACLE_PARAMS = {"disk": 3, "segment": 4}


@dataclass
class Obstacle:
    """Disk or wall segment with a vertical extent [z_min, z_max].

    The fields are checked once, here, and stored as given: every field but
    `active` must not change afterwards, since raycast and the collision test
    read them unchecked.
    """

    id: str
    kind: str  # "disk" | "segment"
    params: tuple  # disk: (cx, cy, radius); segment: (x1, y1, x2, y2)
    z_min: float = 0.0
    z_max: float = 2.0
    active: bool = True

    def __post_init__(self):
        if OBSTACLE_PARAMS.get(self.kind) != len(self.params):
            kinds = " or ".join(f"{k} with {n}" for k, n in OBSTACLE_PARAMS.items())
            raise ValueError(f"obstacle {self.id!r}: {self.kind!r} with {len(self.params)} "
                             f"parameters; expected {kinds}")
        if not all(map(math.isfinite, (*self.params, self.z_min, self.z_max))):
            raise ValueError(f"obstacle {self.id!r}: non-finite parameter or height")
        if self.kind == "disk" and self.params[2] < 0:
            raise ValueError(f"obstacle {self.id!r}: negative radius {self.params[2]!r}")
        if self.z_min > self.z_max:
            raise ValueError(f"obstacle {self.id!r}: z_min {self.z_min!r} > z_max {self.z_max!r}")


@dataclass(frozen=True)
class NoiseModel:
    odom_translation_std: float = 0.0  # fraction of distance moved
    odom_rotation_std: float = 0.0  # rad per rad turned
    range_std: float = 0.0  # meters
    rng_seed: int = 0

    def __post_init__(self):
        stds = (self.odom_translation_std, self.odom_rotation_std, self.range_std)
        if not all(0.0 <= s < math.inf for s in stds):
            raise ValueError(f"noise stds {stds} must be finite and non-negative")


@dataclass
class World:
    """Simulated robot, static grid and analytic obstacles.

    The static clearance field and the sensor layout are built once, here:
    `grid.cells`, `base_cfg` and `depth_cfg` must not change afterwards.
    """

    grid: OccupancyGrid
    obstacles: list[Obstacle] = field(default_factory=list)
    robot: Pose2D = field(default_factory=Pose2D)
    time: float = 0.0
    robot_radius: float = 0.24
    base_cfg: BaseLaserConfig = field(default_factory=BaseLaserConfig)
    depth_cfg: DepthScanConfig = field(default_factory=DepthScanConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.noise.rng_seed)
        # The OCCUPIED mask and, per cell, the chessboard distance in cells to
        # the nearest OCCUPIED cell (capped at 255), which is never more than
        # the Euclidean one. Both are padded by one free cell, so an index
        # clipped to [-1, n] reads off-grid as free with no clearance.
        occupied = self.grid.cells == OCCUPIED
        if occupied.any():
            cb = ndimage.distance_transform_cdt(~occupied, metric="chessboard")
            clearance = np.minimum(cb, 255).astype(np.uint8)
        else:
            clearance = np.full(occupied.shape, 255, dtype=np.uint8)
        self._occupied = np.pad(occupied, 1)
        self._clearance = np.pad(clearance, 1)
        self._layout = _sensor_layout(self.base_cfg, self.depth_cfg)

    def obstacle_by_id(self, oid: str) -> Obstacle:
        for o in self.obstacles:
            if o.id == oid:
                return o
        raise KeyError(f"no obstacle {oid!r}")


# the samples a live beam checks per march iteration, and per clearance (in
# cells) of a sample's cell, the samples the march skips past it
_BLOCK = np.arange(8)
_SKIP = np.maximum(2 * np.arange(256) - 4, 0)


def _grid_raycast(world: World, ox: float, oy: float, angles: np.ndarray,
                  max_range: float | np.ndarray) -> np.ndarray:
    """Sampled ray march against OCCUPIED static cells; inf where no hit.

    Samples lie every resolution/2 along each beam, out to max_range (one
    value, or one per beam) plus one step; the first sample in an OCCUPIED
    cell is the hit. Each live beam checks 8 consecutive samples per
    iteration, then skips the samples the clearance field proves free, as
    sphere tracing does: when a sample's cell is at chessboard distance cb
    from the nearest OCCUPIED cell, every point within cb - 1 cells of the
    sample lies in a non-OCCUPIED cell, so the next 2*cb - 2 samples cannot
    hit. The march skips 2*cb - 4 of them, keeping a sample of margin for
    rounding. The origin is sample 0 and skips the same way. A beam drops
    out at its hit or past its last sample.
    """
    g = world.grid
    res, x0, y0, w, h = g.resolution, g.origin.x, g.origin.y, g.width, g.height
    step = res / 2.0
    n_steps = (np.broadcast_to(max_range, angles.shape) / step).astype(np.intp) + 1
    occupied = world._occupied.ravel()
    clearance = world._clearance.ravel()
    dist = np.full(angles.shape, np.inf)
    col0 = math.floor((ox - x0) / res)
    row0 = math.floor((oy - y0) / res)
    k0 = 1
    if 0 <= col0 < w and 0 <= row0 < h:
        k0 += int(_SKIP[world._clearance[row0 + 1, col0 + 1]])
    live = np.arange(angles.size)
    k = np.full(angles.size, k0)
    cos_a = np.cos(angles)[:, None]
    sin_a = np.sin(angles)[:, None]
    while live.size:
        ks = k[:, None] + _BLOCK
        s = ks * step
        cols = np.floor((ox + cos_a * s - x0) / res).astype(np.intp)
        rows = np.floor((oy + sin_a * s - y0) / res).astype(np.intp)
        # off-grid samples read the free, zero-clearance padding
        np.minimum(np.maximum(cols, -1, out=cols), w, out=cols)
        np.minimum(np.maximum(rows, -1, out=rows), h, out=rows)
        cells = rows * (w + 2)
        cells += cols
        cells += w + 3
        hit = occupied[cells]
        k_hit = k + hit.argmax(axis=1)
        hit_ok = hit.any(axis=1) & (k_hit <= n_steps)
        # skip from the block's last sample, the furthest along the beam
        k = ks[:, -1] + 1 + _SKIP[clearance[cells[:, -1]]]
        keep = k <= n_steps
        if hit_ok.any():
            dist[live[hit_ok]] = k_hit[hit_ok] * step
            keep &= ~hit_ok
        if not keep.all():
            live, k, n_steps = live[keep], k[keep], n_steps[keep]
            cos_a, sin_a = cos_a[keep], sin_a[keep]
    return dist


def _disk_raycast(ox, oy, angles: np.ndarray, cx, cy, radius) -> np.ndarray:
    dx = np.cos(angles)
    dy = np.sin(angles)
    fx, fy = ox - cx, oy - cy
    b = dx * fx + dy * fy
    c = fx * fx + fy * fy - radius * radius
    disc = b * b - c
    ok = disc >= 0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t1 = -b - sq
    t2 = -b + sq
    tt = np.where(t1 > 1e-9, t1, np.where(t2 > 1e-9, t2, np.inf))
    return np.where(ok, tt, np.inf)


def _segment_raycast(ox, oy, angles: np.ndarray, x1, y1, x2, y2) -> np.ndarray:
    dx = np.cos(angles)
    dy = np.sin(angles)
    ex, ey = x2 - x1, y2 - y1
    denom = dx * ey - dy * ex
    ok = np.abs(denom) > 1e-12
    # solve origin + t*d == p1 + u*e
    rx, ry = x1 - ox, y1 - oy
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = (rx * ey - ry * ex) / denom
        uu = (rx * dy - ry * dx) / denom
    hit = ok & (tt > 1e-9) & (uu >= 0.0) & (uu <= 1.0)
    return np.where(hit, tt, np.inf)


_RAYCASTS = {"disk": _disk_raycast, "segment": _segment_raycast}


def raycast(world: World, ox: float, oy: float, angles: np.ndarray,
            max_range: float | np.ndarray, sensor_height: float | np.ndarray) -> np.ndarray:
    """Shortest hit distance per world-frame angle, inf where nothing hit.

    max_range and sensor_height are one value for all angles or one per angle.
    Obstacles of one kind are cast together, one row per obstacle.
    """
    dist = _grid_raycast(world, ox, oy, angles, max_range)
    for kind, cast in _RAYCASTS.items():
        obs = [ob for ob in world.obstacles if ob.kind == kind and ob.active]
        if not obs:
            continue
        z_min, z_max = np.array([(ob.z_min, ob.z_max) for ob in obs]).T[:, :, None]
        seen = (z_min <= sensor_height) & (sensor_height <= z_max)
        if not seen.any():
            continue
        d = cast(ox, oy, angles, *np.array([ob.params for ob in obs]).T[:, :, None])
        dist = np.minimum(dist, np.where(seen, d, np.inf).min(axis=0))
    return dist


class _Sensor(NamedTuple):
    center: float  # body-frame bearing of the scan's middle beam
    fov: float
    points: int
    range_min: float
    range_max: float
    height: float
    frame: ScanFrame


def _base_sensors(cfg: BaseLaserConfig) -> list[_Sensor]:
    return [_Sensor(c, cfg.fov_per_laser, cfg.points_per_laser, cfg.range_min, cfg.range_max,
                    cfg.mount_height, ScanFrame.BASE) for c in cfg.centers]


def _depth_sensor(cfg: DepthScanConfig) -> _Sensor:
    return _Sensor(0.0, cfg.fov, cfg.points, cfg.range_min, cfg.range_max, cfg.mount_height,
                   ScanFrame.DEPTH)


def _beams(sensors: list[_Sensor]) -> np.ndarray:
    """Rows over the sensors' beams in order: the sensor's middle bearing in
    the body frame, range limits, height, and bearing from the middle beam."""
    fixed = [(s.center, s.range_min, s.range_max, s.height) for s in sensors]
    return np.vstack([np.repeat(fixed, [s.points for s in sensors], axis=0).T, np.concatenate(
        [np.linspace(-s.fov / 2.0, s.fov / 2.0, s.points) for s in sensors])])


def _sensor_layout(base_cfg: BaseLaserConfig, depth_cfg: DepthScanConfig):
    """The base and depth beams (see _beams); per merged bin, as merge_scans
    and combine_base_scans bin them, its depth beam and the base beams of its
    combined bin (two where sectors touch), one column each, padded with the
    index one past the last beam; and the merged scan's metadata."""
    sensors = _base_sensors(base_cfg) + [_depth_sensor(depth_cfg)]
    # body-frame angle grids, shifted as transform_scan_to_body shifts them
    *base, depth = [(-s.fov / 2.0 + s.center, s.fov / 2.0 + s.center, s.fov / (s.points - 1),
                     s.points) for s in sensors]
    combined, k = _stitch_bins(base, base_cfg.angle_increment)
    grid, ((depth_bins, depth_beams), (base_bins, kc)) = _merge_bins(combined, depth)
    sources = [[] for _ in range(grid[3])]
    for m, j in zip(depth_bins, depth_beams + len(k)):
        sources[m].append(j)
    for m, j in zip(base_bins, kc):
        sources[m] += np.flatnonzero(k == j).tolist()
    width, past_last = max(map(len, sources)), len(k) + depth[3]
    sources = np.array([s + [past_last] * (width - len(s)) for s in sources], np.intp).T.copy()
    return _beams(sensors), sources, (*grid[:3], min(base_cfg.range_min, depth_cfg.range_min),
                                      max(base_cfg.range_max, depth_cfg.range_max))


def _cast(world: World, beams: np.ndarray, noisy: bool) -> np.ndarray:
    """Every beam's range, from one raycast; inf where it fails its sensor's
    range test (a miss is inf). Range noise is drawn once for all beams."""
    center, range_min, range_max, height, offset = beams
    angles = (world.robot.theta + center) + offset
    d = raycast(world, world.robot.x, world.robot.y, angles, range_max, height)
    if noisy and world.noise.range_std > 0:
        d = d + world.rng.normal(0.0, world.noise.range_std, size=d.shape)
    return np.where((d >= range_min) & (d <= range_max), d, np.inf)


def _sense(world: World, sensors: list[_Sensor], noisy: bool) -> list[LaserScan]:
    """One scan per sensor, in its own frame."""
    d = _cast(world, _beams(sensors), noisy)
    ranges = np.where(d < np.inf, d, INVALID_RANGE)
    return [LaserScan(-s.fov / 2.0, s.fov / 2.0, s.fov / (s.points - 1), s.range_min,
                      s.range_max, r, s.frame)
            for s, r in zip(sensors, np.split(ranges, np.cumsum([s.points for s in sensors])[:-1]))]


def sense_base(world: World, noisy: bool = False) -> list[LaserScan]:
    """One sparse scan per base laser, each in its own sensor frame."""
    return _sense(world, _base_sensors(world.base_cfg), noisy)


def sense_depth(world: World, noisy: bool = False) -> LaserScan:
    """Dense forward scan at the depth camera's mount height."""
    return _sense(world, [_depth_sensor(world.depth_cfg)], noisy)[0]


def sense_merged(world: World, noisy: bool = False) -> LaserScan:
    """The base scans, transformed to body and stitched, merged with the depth
    scan, from one raycast and one noise draw over all beams binned through
    the World's sensor layout: each bin keeps its closest valid return."""
    beams, sources, meta = world._layout
    merged = np.append(_cast(world, beams, noisy), np.inf)[sources].min(axis=0)
    merged[np.isinf(merged)] = INVALID_RANGE
    return LaserScan(*meta, merged, ScanFrame.MERGED)


def _collides(world: World, x: float, y: float, reach: float = 0.0) -> bool:
    """Robot disk, grown by reach, vs static cells and active obstacles."""
    g = world.grid
    r = world.robot_radius + reach
    col = math.floor((x - g.origin.x) / g.resolution)
    row = math.floor((y - g.origin.y) / g.resolution)
    # no OCCUPIED cell within r of the centre when the centre's cell clears
    # r/resolution cells plus its in-cell offset and a rounding margin
    clear = (0 <= col < g.width and 0 <= row < g.height
             and world._clearance[row + 1, col + 1] > r / g.resolution + math.sqrt(2.0))
    if not clear:
        c_lo = math.floor((x - r - g.origin.x) / g.resolution)
        c_hi = math.floor((x + r - g.origin.x) / g.resolution)
        r_lo = math.floor((y - r - g.origin.y) / g.resolution)
        r_hi = math.floor((y + r - g.origin.y) / g.resolution)
        for row in range(max(0, r_lo), min(g.height - 1, r_hi) + 1):
            for col in range(max(0, c_lo), min(g.width - 1, c_hi) + 1):
                if g.cells[row, col] != OCCUPIED:
                    continue
                nx = min(max(x, g.origin.x + col * g.resolution), g.origin.x + (col + 1) * g.resolution)
                ny = min(max(y, g.origin.y + row * g.resolution), g.origin.y + (row + 1) * g.resolution)
                if math.hypot(nx - x, ny - y) < r:
                    return True
    for ob in world.obstacles:
        if not ob.active:
            continue
        if ob.kind == "disk":
            cx, cy, rad = ob.params
            if math.hypot(cx - x, cy - y) < r + rad:
                return True
        else:
            x1, y1, x2, y2 = ob.params
            ex, ey = x2 - x1, y2 - y1
            L2 = ex * ex + ey * ey
            t = 0.0 if L2 == 0 else max(0.0, min(1.0, ((x - x1) * ex + (y - y1) * ey) / L2))
            if math.hypot(x1 + t * ex - x, y1 + t * ey - y) < r:
                return True
    return False


def body_delta(before: Pose2D, after: Pose2D) -> Pose2D:
    """Body-frame increment taking `before` to `after`."""
    c, s = math.cos(before.theta), math.sin(before.theta)
    dx = after.x - before.x
    dy = after.y - before.y
    return Pose2D(c * dx + s * dy, -s * dx + c * dy, after.theta - before.theta)


def step(world: World, cmd: VelocityCommand, dt: float) -> Pose2D:
    """Advance the world by dt; returns the noisy body-frame odometry delta.

    Motion is truncated at the first colliding sub-step (20 sub-steps per
    tick); rotation is never blocked. Collision is tested once per tick, for
    every point the tick can reach, and per sub-step only near geometry.
    """
    if not 0.0 < dt <= 0.1:
        raise ValueError("dt must be in (0, 0.1]")
    before = world.robot
    n_sub = 20
    sx, sy, dth = arc_increment(cmd, dt / n_sub)
    x, y, th = before.x, before.y, before.theta
    # no sub-step can collide if the robot disk, grown by the furthest the
    # centre can move this tick, hits nothing here (1e-9 covers rounding)
    clear = not _collides(world, x, y, math.hypot(cmd.vx, cmd.vy) * dt + 1e-9)
    for _ in range(n_sub):
        c, s = math.cos(th), math.sin(th)
        nx, ny = x + sx * c - sy * s, y + sx * s + sy * c
        th = normalize_angle(th + dth)
        if clear or not _collides(world, nx, ny):
            x, y = nx, ny
        elif _collides(world, x, y):
            # stuck where it stands: this sub-step's rotation is the last
            break
    pose = Pose2D(x, y, th)
    world.robot = pose
    world.time += dt
    delta = body_delta(before, pose)
    nm = world.noise
    if nm.odom_translation_std > 0 or nm.odom_rotation_std > 0:
        trans = math.hypot(delta.x, delta.y)
        sx = nm.odom_translation_std * trans
        sth = nm.odom_rotation_std * abs(delta.theta) + 0.1 * nm.odom_rotation_std * trans
        noise = world.rng.normal(0.0, 1.0, size=3)
        delta = Pose2D(
            delta.x + sx * noise[0],
            delta.y + sx * noise[1],
            delta.theta + sth * noise[2],
        )
    return delta


@dataclass
class ScenarioEvent:
    t: float
    kind: str  # cmd | obstacle | button | goto
    args: tuple


def parse_scenario(text: str) -> list[ScenarioEvent]:
    """Script lines: `t cmd vx vy wz`, `t obstacle <id> on|off`,
    `t button <name>`, `t goto <marker>`; `#` comments."""
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        try:
            t = float(parts[0])
            if not math.isfinite(t):
                raise ValueError(f"non-finite event time {parts[0]!r}")
            kind = parts[1]
            if kind == "cmd":
                args = (float(parts[2]), float(parts[3]), float(parts[4]))
                if not all(map(math.isfinite, args)):
                    raise ValueError(f"non-finite velocity in {body!r}")
            elif kind == "obstacle":
                if parts[3] not in ("on", "off"):
                    raise ValueError("expected on|off")
                args = (parts[2], parts[3] == "on")
            elif kind in ("button", "goto"):
                args = (parts[2],)
            else:
                raise ValueError(f"unknown command {kind!r}")
        except (IndexError, ValueError) as e:
            raise ValueError(f"scenario line {lineno}: {e}") from None
        events.append(ScenarioEvent(t, kind, args))
    events.sort(key=lambda e: e.t)
    return events


@dataclass
class LogRow:
    t: float
    pose: Pose2D
    odom: Pose2D
    event: str = ""

    def csv(self) -> str:
        return (
            f"{self.t:.3f},{self.pose.x:.6f},{self.pose.y:.6f},{self.pose.theta:.6f},"
            f"{self.odom.x:.6f},{self.odom.y:.6f},{self.odom.theta:.6f},{self.event}"
        )


def run_scenario(world: World, events: list[ScenarioEvent], duration: float | None = None,
                 dt: float = 0.05, navigate_fn=None, sense_every: int = 0,
                 scan_sink=None) -> list[LogRow]:
    """Tick the world through a scripted scenario.

    navigate_fn(world, marker_id, log) handles `goto` events (supplied by the
    planner layer). scan_sink(t, merged_scan) receives merged scans every
    `sense_every` ticks when set.
    """
    if duration is None:
        duration = max((e.t for e in events), default=0.0)
    elif not math.isfinite(duration):
        raise ValueError(f"non-finite duration {duration!r}")
    log = [LogRow(world.time, world.robot, Pose2D(), "start")]
    cmd = VelocityCommand()
    pending = list(events)
    tick = 0

    def fire(ev: ScenarioEvent) -> None:
        nonlocal cmd
        if ev.kind == "cmd":
            cmd = VelocityCommand(*ev.args)
            log.append(LogRow(world.time, world.robot, Pose2D(), f"cmd {ev.args}"))
        elif ev.kind == "obstacle":
            world.obstacle_by_id(ev.args[0]).active = ev.args[1]
            log.append(LogRow(world.time, world.robot, Pose2D(),
                              f"obstacle {ev.args[0]} {'on' if ev.args[1] else 'off'}"))
        elif ev.kind == "button":
            log.append(LogRow(world.time, world.robot, Pose2D(), f"button {ev.args[0]}"))
        elif ev.kind == "goto":
            if navigate_fn is None:
                raise ValueError("scenario uses `goto` but no navigator was supplied")
            outcome = navigate_fn(world, ev.args[0], log)
            log.append(LogRow(world.time, world.robot, Pose2D(), f"goto {ev.args[0]} {outcome}"))

    while world.time < duration - 1e-9:
        while pending and pending[0].t <= world.time + 1e-9:
            fire(pending.pop(0))
        odom = step(world, cmd, dt)
        tick += 1
        row = LogRow(world.time, world.robot, odom)
        if sense_every and tick % sense_every == 0:
            scan = sense_merged(world, noisy=world.noise.range_std > 0)
            if scan_sink is not None:
                scan_sink(world.time, scan)
            row.event = "scan"
        log.append(row)
    # events landing exactly on the end time still fire
    while pending and pending[0].t <= world.time + 1e-9:
        fire(pending.pop(0))
    return log


def write_log(log: list[LogRow], path) -> None:
    with open(path, "w") as f:
        f.write("t,x,y,theta,odom_dx,odom_dy,odom_dtheta,event\n")
        for row in log:
            f.write(row.csv() + "\n")
