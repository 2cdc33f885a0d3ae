"""Sensor models: sparse base lasers, depth-slice scan extraction, and the
base+depth scan merge.

All merging happens in a single body-centered frame; per-sensor scans are
re-expressed with transform_scan_to_body first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import INVALID_RANGE, LaserScan, ScanFrame, normalize_angle


@dataclass(frozen=True)
class BaseLaserConfig:
    """The three sparse base lasers: 60 deg sectors, 15 points each."""

    centers: tuple[float, float, float] = (0.0, math.radians(90.0), math.radians(-90.0))
    fov_per_laser: float = math.radians(60.0)
    points_per_laser: int = 15
    range_min: float = 0.05
    range_max: float = 3.0
    mount_height: float = 0.1

    def __post_init__(self):
        if self.points_per_laser < 2:
            raise ValueError("points_per_laser must be >= 2")
        if not 0.0 <= self.range_min <= self.range_max:
            raise ValueError("range limits must satisfy 0 <= range_min <= range_max")
        # sectors must not overlap
        cs = sorted(normalize_angle(c) for c in self.centers)
        for a, b in zip(cs, cs[1:]):
            if b - a < self.fov_per_laser:
                raise ValueError("base laser sectors overlap")

    @property
    def angle_increment(self) -> float:
        return self.fov_per_laser / (self.points_per_laser - 1)


@dataclass(frozen=True)
class DepthScanConfig:
    """Dense scan extracted from a horizontal slice of the depth image."""

    fov: float = math.radians(58.0)
    points: int = 320
    range_min: float = 0.1
    range_max: float = 4.0
    mount_height: float = 1.1
    slice_row: int = 0

    def __post_init__(self):
        if not 0 < self.fov < math.pi:
            raise ValueError("fov must be in (0, pi)")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if not 0.0 <= self.range_min <= self.range_max:
            raise ValueError("range limits must satisfy 0 <= range_min <= range_max")

    @property
    def angle_increment(self) -> float:
        return self.fov / (self.points - 1)


@dataclass
class DepthImage:
    """Row-major depth values in meters; non-positive depth is invalid."""

    width: int
    height: int
    depths: list[float] = field(default_factory=list)
    horizontal_fov: float = math.radians(58.0)

    def __post_init__(self):
        if len(self.depths) != self.width * self.height:
            raise ValueError("depths length must equal width * height")


def column_bearing(img: DepthImage, col: int) -> float:
    """Pinhole bearing of an image column; column 0 is leftmost (+Y side)."""
    f = (img.width / 2.0) / math.tan(img.horizontal_fov / 2.0)
    cx = (img.width - 1) / 2.0
    return math.atan((cx - col) / f)


def depth_image_to_scan(img: DepthImage, cfg: DepthScanConfig) -> LaserScan:
    """Extract a laser scan from one horizontal slice of a depth image.

    One beam per pixel column; depth (distance along the optical axis) is
    converted to range by dividing by cos(bearing). Invalid depths stay
    invalid.
    """
    if not 0 <= cfg.slice_row < img.height:
        raise ValueError(f"slice_row {cfg.slice_row} outside image height {img.height}")
    n = img.width
    bearings = [column_bearing(img, c) for c in range(n)]
    # beams ordered by increasing angle: rightmost column first
    ranges = []
    for c in reversed(range(n)):
        d = img.depths[cfg.slice_row * img.width + c]
        if d <= 0.0 or not math.isfinite(d):
            ranges.append(INVALID_RANGE)
            continue
        r = d / math.cos(bearings[c])
        ranges.append(r if cfg.range_min <= r <= cfg.range_max else INVALID_RANGE)
    angle_min = bearings[-1]
    angle_max = bearings[0]
    inc = (angle_max - angle_min) / (n - 1)
    return LaserScan(angle_min, angle_max, inc, cfg.range_min, cfg.range_max, ranges, ScanFrame.DEPTH)


def transform_scan_to_body(scan: LaserScan, mount_bearing: float) -> LaserScan:
    """Re-express a sensor scan in the body frame: a pure angular shift, as
    every sensor sits at the body origin, facing `mount_bearing`."""
    return replace(scan, angle_min=scan.angle_min + mount_bearing,
                   angle_max=scan.angle_max + mount_bearing)


def _grid(scan: LaserScan) -> tuple[float, float, float, int]:
    """A scan's angle grid: (angle_min, angle_max, angle_increment, beams)."""
    return scan.angle_min, scan.angle_max, scan.angle_increment, len(scan)


def _stitch_bins(grids, inc: float):
    """The common grid at increment `inc` of sector scans' angle grids, and
    each beam's bin on it in scan order (a float, maybe outside [0, n))."""
    lo, hi = min(g[0] for g in grids), max(g[1] for g in grids)
    n = int(round((hi - lo) / inc)) + 1
    bearings = np.concatenate([a0 + np.arange(m) * d for a0, _, d, m in grids])
    return (lo, lo + (n - 1) * inc, inc, n), np.rint((bearings - lo) / inc)


def combine_base_scans(scans: list[LaserScan], cfg: BaseLaserConfig) -> LaserScan:
    """Stitch the per-laser body-frame scans into one sparse BASE scan.

    All sector scans share the same increment; gaps between sectors become
    invalid bins on the common grid. Beams landing in the same bin keep the
    closer return.
    """
    if not scans:
        raise ValueError("no base scans given")
    grid, k = _stitch_bins([_grid(s) for s in scans], cfg.angle_increment)
    ranges = np.concatenate([s.ranges for s in scans])
    keep = (ranges >= 0.0) & (k >= 0) & (k < grid[3])
    closest = np.full(grid[3], np.inf)
    np.minimum.at(closest, k[keep].astype(np.intp), ranges[keep])
    closest[np.isinf(closest)] = INVALID_RANGE
    return LaserScan(*grid[:3], cfg.range_min, cfg.range_max, closest, ScanFrame.BASE)


def _merge_bins(base, depth):
    """The merged grid of a base and a depth scan, given by their angle grids,
    and per input, depth first, the merged bins it feeds and the beam feeding
    each: the nearest one, if it lies within half a depth increment."""
    inc = depth[2]
    lo, hi = min(base[0], depth[0]), max(base[1], depth[1])
    n = int(math.floor((hi - lo) / inc + 1e-9)) + 1
    tol = inc / 2 + 1e-12
    bearings = lo + np.arange(n) * inc
    feeds = []
    for a0, _, d, m in (depth, base):
        k = np.rint((bearings - a0) / d)
        bins = np.flatnonzero((k >= 0) & (k < m))
        k = k[bins].astype(np.intp)
        near = np.abs(a0 + k * d - bearings[bins]) <= tol
        feeds.append((bins[near], k[near]))
    return (lo, lo + (n - 1) * inc, inc, n), feeds


def merge_scans(base: LaserScan, depth: LaserScan) -> LaserScan:
    """Fuse the sparse base scan and the dense depth scan.

    The merged span is the union hull of both inputs at the depth scan's
    resolution. Each bin takes the nearest beam of each input that lies within
    half a depth increment of its center; of two valid returns it keeps the
    closer one, and with none it stays invalid.
    """
    if base.frame != ScanFrame.BASE or depth.frame != ScanFrame.DEPTH:
        raise ValueError(f"expected BASE + DEPTH scans, got {base.frame} + {depth.frame}")
    grid, feeds = _merge_bins(_grid(base), _grid(depth))
    closest = np.full(grid[3], np.inf)
    # depth first: on equal ranges the depth return is kept
    for scan, (bins, k) in zip((depth, base), feeds):
        r = np.asarray(scan.ranges)[k]
        closer = (r >= 0.0) & (r < closest[bins])
        closest[bins[closer]] = r[closer]
    closest[np.isinf(closest)] = INVALID_RANGE
    return LaserScan(*grid[:3], min(base.range_min, depth.range_min),
                     max(base.range_max, depth.range_max), closest, ScanFrame.MERGED)
