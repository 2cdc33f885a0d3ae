"""Monte Carlo localization over an occupancy grid.

Likelihood-field measurement model: beam endpoints are scored against a
precomputed nearest-obstacle distance field, so no ray casting is needed at
update time. All randomness goes through one seeded numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .core import FREE, OCCUPIED, LaserScan, OccupancyGrid, Pose2D, normalize_angle


@dataclass(frozen=True)
class MclConfig:
    particle_count: int = 500
    # sample motion model coefficients (rot/trans noise mixing)
    odom_noise: tuple[float, float, float, float] = (0.05, 0.05, 0.1, 0.05)
    z_hit: float = 0.9
    z_rand: float = 0.1
    sigma_hit: float = 0.1
    likelihood_max_dist: float = 2.0
    resample_threshold: float = 0.5
    max_beams: int = 40
    rng_seed: int = 0

    def __post_init__(self):
        if abs(self.z_hit + self.z_rand - 1.0) > 1e-9:
            raise ValueError("z_hit + z_rand must equal 1")
        if self.particle_count < 10:
            raise ValueError("particle_count must be >= 10")


@dataclass
class ParticleSet:
    """poses: (N, 3) array of x, y, theta; weights sum to 1."""

    poses: np.ndarray
    weights: np.ndarray
    degenerate: bool = False  # set when all weights collapsed to zero

    def __post_init__(self):
        self.poses = np.asarray(self.poses, dtype=float).reshape(-1, 3)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.poses) != len(self.weights):
            raise ValueError("pose/weight count mismatch")

    def __len__(self) -> int:
        return len(self.weights)


def distance_field(grid: OccupancyGrid, max_dist: float) -> np.ndarray:
    """Per-cell Euclidean distance (meters) to the nearest OCCUPIED cell.

    Exact at cell-center granularity, clamped at max_dist. All-free grids
    clamp everywhere.
    """
    occ = grid.cells == OCCUPIED
    if not occ.any():
        return np.full(occ.shape, max_dist, dtype=float)
    dist = ndimage.distance_transform_edt(~occ) * grid.resolution
    return np.minimum(dist, max_dist)


def init_uniform(
    grid: OccupancyGrid,
    cfg: MclConfig,
    rng: np.random.Generator,
    region: tuple[float, float, float, float] | None = None,
) -> ParticleSet:
    """Spread particles uniformly over FREE cells (optionally inside a
    region rectangle (x_min, x_max, y_min, y_max)); headings uniform."""
    rows, cols = np.nonzero(grid.cells == FREE)
    if region is not None:
        x0, x1, y0, y1 = region
        cx = grid.origin.x + (cols + 0.5) * grid.resolution
        cy = grid.origin.y + (rows + 0.5) * grid.resolution
        keep = (cx >= x0) & (cx <= x1) & (cy >= y0) & (cy <= y1)
        rows, cols = rows[keep], cols[keep]
    if len(rows) == 0:
        raise ValueError("no FREE cells to sample from")
    n = cfg.particle_count
    pick = rng.integers(0, len(rows), size=n)
    jitter = rng.uniform(0.0, grid.resolution, size=(n, 2))
    xs = grid.origin.x + cols[pick] * grid.resolution + jitter[:, 0]
    ys = grid.origin.y + rows[pick] * grid.resolution + jitter[:, 1]
    ths = rng.uniform(-math.pi, math.pi, size=n)
    weights = np.full(n, 1.0 / n)
    return ParticleSet(np.column_stack([xs, ys, ths]), weights)


def init_around(pose: Pose2D, xy_spread: float, theta_spread: float,
                cfg: MclConfig, rng: np.random.Generator) -> ParticleSet:
    """Particles uniform in a box of half-width xy_spread / theta_spread
    around a pose guess."""
    if not (0.0 <= xy_spread < math.inf and 0.0 <= theta_spread < math.inf):
        raise ValueError(f"spreads {xy_spread!r}, {theta_spread!r} must be finite and non-negative")
    n = cfg.particle_count
    xs = pose.x + rng.uniform(-xy_spread, xy_spread, size=n)
    ys = pose.y + rng.uniform(-xy_spread, xy_spread, size=n)
    ths = pose.theta + rng.uniform(-theta_spread, theta_spread, size=n)
    return ParticleSet(np.column_stack([xs, ys, ths]), np.full(n, 1.0 / n))


def motion_update(ps: ParticleSet, odom_delta: Pose2D, cfg: MclConfig,
                  rng: np.random.Generator) -> ParticleSet:
    """Advance every particle by a body-frame odometry increment with
    rot1/trans/rot2 sampling noise. Weights are untouched."""
    a1, a2, a3, a4 = cfg.odom_noise
    trans = math.hypot(odom_delta.x, odom_delta.y)
    if trans > 1e-9:
        rot1 = math.atan2(odom_delta.y, odom_delta.x)
    else:
        rot1 = 0.0
    rot2 = normalize_angle(odom_delta.theta - rot1)
    n = len(ps)
    s_rot1 = math.sqrt(a1 * rot1 ** 2 + a2 * trans ** 2)
    s_trans = math.sqrt(a3 * trans ** 2 + a4 * (rot1 ** 2 + rot2 ** 2))
    s_rot2 = math.sqrt(a1 * rot2 ** 2 + a2 * trans ** 2)
    r1 = rot1 + (rng.normal(0.0, s_rot1, size=n) if s_rot1 > 0 else 0.0)
    tr = trans + (rng.normal(0.0, s_trans, size=n) if s_trans > 0 else 0.0)
    r2 = rot2 + (rng.normal(0.0, s_rot2, size=n) if s_rot2 > 0 else 0.0)
    th = ps.poses[:, 2]
    xs = ps.poses[:, 0] + tr * np.cos(th + r1)
    ys = ps.poses[:, 1] + tr * np.sin(th + r1)
    ths = th + r1 + r2
    ths = np.arctan2(np.sin(ths), np.cos(ths))
    ths[ths <= -math.pi] = math.pi
    return ParticleSet(np.column_stack([xs, ys, ths]), ps.weights.copy())


def log_likelihoods(poses: np.ndarray, scan: LaserScan, grid: OccupancyGrid,
                    dfield: np.ndarray, cfg: MclConfig, ranges=None) -> np.ndarray:
    """Log-likelihood of a scan from each (x, y, theta) row of `poses` under
    the likelihood field, over every (n // max_beams)-th beam that is valid.
    `ranges` is scan.ranges as a float array, when the caller has built it."""
    if ranges is None:
        ranges = np.asarray(scan.ranges, dtype=float)
    beams = np.arange(0, len(ranges), max(1, len(ranges) // cfg.max_beams))
    beams = beams[ranges[beams] >= 0.0]
    r = ranges[beams]
    a = poses[:, 2:3] + (scan.angle_min + beams * scan.angle_increment)
    col = np.floor((poses[:, 0:1] + r * np.cos(a) - grid.origin.x) / grid.resolution)
    row = np.floor((poses[:, 1:2] + r * np.sin(a) - grid.origin.y) / grid.resolution)
    inside = (col >= 0) & (col < grid.width) & (row >= 0) & (row < grid.height)
    d = np.full(a.shape, cfg.likelihood_max_dist)
    d[inside] = dfield[row[inside].astype(np.intp), col[inside].astype(np.intp)]
    norm = 1.0 / (cfg.sigma_hit * math.sqrt(2.0 * math.pi))
    p = cfg.z_hit * norm * np.exp(-0.5 * (d / cfg.sigma_hit) ** 2) + cfg.z_rand / scan.range_max
    return np.log(p).sum(axis=1)


def measurement_update(ps: ParticleSet, scan: LaserScan, grid: OccupancyGrid,
                       dfield: np.ndarray, cfg: MclConfig) -> ParticleSet:
    """Reweight particles by scan likelihood and renormalize.

    A scan with no valid beams leaves the weights untouched. If every weight
    collapses to zero the set is reset to uniform and flagged degenerate.
    """
    ranges = np.asarray(scan.ranges, dtype=float)
    if not (ranges >= 0.0).any():
        return ParticleSet(ps.poses.copy(), ps.weights.copy())
    logw = log_likelihoods(ps.poses, scan, grid, dfield, cfg, ranges)
    logw -= logw.max()
    w = ps.weights * np.exp(logw)
    total = w.sum()
    if total <= 0.0 or not math.isfinite(total):
        n = len(ps)
        return ParticleSet(ps.poses.copy(), np.full(n, 1.0 / n), degenerate=True)
    return ParticleSet(ps.poses.copy(), w / total)


def effective_sample_size(weights: np.ndarray) -> float:
    return 1.0 / float(np.sum(np.square(weights)))


def resample(ps: ParticleSet, cfg: MclConfig, rng: np.random.Generator) -> ParticleSet:
    """Low-variance systematic resampling, triggered only when the effective
    sample size drops below threshold * N."""
    n = len(ps)
    if effective_sample_size(ps.weights) >= cfg.resample_threshold * n:
        return ps
    positions = (rng.uniform(0.0, 1.0 / n) + np.arange(n) / n)
    cumsum = np.cumsum(ps.weights)
    cumsum[-1] = 1.0
    idx = np.searchsorted(cumsum, positions)
    return ParticleSet(ps.poses[idx].copy(), np.full(n, 1.0 / n))


def estimate(ps: ParticleSet) -> tuple[Pose2D, np.ndarray]:
    """Weighted mean pose (circular mean for heading) and 3x3 covariance."""
    w = ps.weights
    mx = float(np.dot(w, ps.poses[:, 0]))
    my = float(np.dot(w, ps.poses[:, 1]))
    sth = float(np.dot(w, np.sin(ps.poses[:, 2])))
    cth = float(np.dot(w, np.cos(ps.poses[:, 2])))
    mth = math.atan2(sth, cth)
    dx = ps.poses[:, 0] - mx
    dy = ps.poses[:, 1] - my
    dth = np.arctan2(np.sin(ps.poses[:, 2] - mth), np.cos(ps.poses[:, 2] - mth))
    dev = np.column_stack([dx, dy, dth])
    cov = (w[:, None] * dev).T @ dev
    return Pose2D(mx, my, mth), cov


@dataclass
class MclFilter:
    """Convenience wrapper tying the update steps to one grid + RNG."""

    grid: OccupancyGrid
    cfg: MclConfig = field(default_factory=MclConfig)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.cfg.rng_seed)
        self.dfield = distance_field(self.grid, self.cfg.likelihood_max_dist)
        self.particles: ParticleSet | None = None

    def initialize_uniform(self, region=None) -> None:
        self.particles = init_uniform(self.grid, self.cfg, self.rng, region)

    def initialize_around(self, pose: Pose2D, xy_spread: float, theta_spread: float) -> None:
        self.particles = init_around(pose, xy_spread, theta_spread, self.cfg, self.rng)

    def update(self, odom_delta: Pose2D, scan: LaserScan | None) -> Pose2D:
        if self.particles is None:
            raise RuntimeError("filter not initialized")
        self.particles = motion_update(self.particles, odom_delta, self.cfg, self.rng)
        if scan is not None:
            self.particles = measurement_update(self.particles, scan, self.grid, self.dfield, self.cfg)
            self.particles = resample(self.particles, self.cfg, self.rng)
        return estimate(self.particles)[0]
