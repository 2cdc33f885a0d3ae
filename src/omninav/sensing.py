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


def combine_base_scans(scans: list[LaserScan], cfg: BaseLaserConfig) -> LaserScan:
    """Stitch the per-laser body-frame scans into one sparse BASE scan.

    All sector scans share the same increment; gaps between sectors become
    invalid bins on the common grid. Beams landing in the same bin keep the
    closer return.
    """
    if not scans:
        raise ValueError("no base scans given")
    inc = cfg.angle_increment
    lo = min(s.angle_min for s in scans)
    hi = max(s.angle_max for s in scans)
    n = int(round((hi - lo) / inc)) + 1
    ranges = np.concatenate([s.ranges for s in scans])
    bearings = np.concatenate([s.angle_min + np.arange(len(s)) * s.angle_increment for s in scans])
    k = np.rint((bearings - lo) / inc)
    keep = (ranges >= 0.0) & (k >= 0) & (k < n)
    closest = np.full(n, np.inf)
    np.minimum.at(closest, k[keep].astype(np.intp), ranges[keep])
    closest[np.isinf(closest)] = INVALID_RANGE
    return LaserScan(lo, lo + (n - 1) * inc, inc, cfg.range_min, cfg.range_max, closest, ScanFrame.BASE)


def merge_scans(base: LaserScan, depth: LaserScan) -> LaserScan:
    """Fuse the sparse base scan and the dense depth scan.

    The merged span is the union hull of both inputs at the depth scan's
    resolution. Each bin takes the nearest beam of each input that lies within
    half a depth increment of its center; of two valid returns it keeps the
    closer one, and with none it stays invalid.
    """
    if base.frame != ScanFrame.BASE or depth.frame != ScanFrame.DEPTH:
        raise ValueError(f"expected BASE + DEPTH scans, got {base.frame} + {depth.frame}")
    inc = depth.angle_increment
    lo = min(base.angle_min, depth.angle_min)
    hi = max(base.angle_max, depth.angle_max)
    n = int(math.floor((hi - lo) / inc + 1e-9)) + 1
    tol = inc / 2 + 1e-12
    bearings = lo + np.arange(n) * inc
    closest = np.full(n, np.inf)
    # depth first: on equal ranges the depth return is kept
    for scan in (depth, base):
        k = np.rint((bearings - scan.angle_min) / scan.angle_increment)
        bins = np.flatnonzero((k >= 0) & (k < len(scan)))
        k = k[bins].astype(np.intp)
        r = np.asarray(scan.ranges)[k]
        near = np.abs(scan.angle_min + k * scan.angle_increment - bearings[bins]) <= tol
        closer = near & (r >= 0.0) & (r < closest[bins])
        closest[bins[closer]] = r[closer]
    closest[np.isinf(closest)] = INVALID_RANGE
    return LaserScan(
        lo, lo + (n - 1) * inc, inc,
        min(base.range_min, depth.range_min),
        max(base.range_max, depth.range_max),
        closest, ScanFrame.MERGED,
    )
