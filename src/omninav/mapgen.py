"""Point cloud to 2D occupancy map extraction plus the map file format.

Pipeline: height_filter -> rasterize -> denoise -> fill_unknown.
Map files are a PGM (P5) image plus a small text metadata sidecar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .core import FREE, OCCUPIED, UNKNOWN, OccupancyGrid, PointCloud, Pose2D

# PGM byte encoding of cell states
_CELL_TO_BYTE = {OCCUPIED: 0, FREE: 255, UNKNOWN: 205}
_BYTE_TO_CELL = {v: k for k, v in _CELL_TO_BYTE.items()}


@dataclass(frozen=True)
class MapGenConfig:
    z_min: float = 0.05
    z_max: float = 1.2
    resolution: float = 0.05
    denoise_min_cluster: int = 3
    seed_margin: int = 1

    def __post_init__(self):
        if self.z_min >= self.z_max:
            raise ValueError("z_min must be < z_max")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")


def height_filter(cloud: PointCloud, z_min: float, z_max: float) -> PointCloud:
    """Keep only points with z_min <= z <= z_max, order preserved."""
    if z_min >= z_max:
        raise ValueError("z_min must be < z_max")
    z = cloud.points[:, 2]
    return PointCloud(cloud.points[(z >= z_min) & (z <= z_max)])


def rasterize(cloud: PointCloud, resolution: float) -> OccupancyGrid:
    """Project a cloud onto a grid: OCCUPIED where at least one point lands.

    Grid extent is the cloud's xy bounding box; one extra cell on each axis
    keeps boundary points in-bounds. Origin is the bounding-box min corner.
    """
    if len(cloud) == 0:
        raise ValueError("cannot rasterize an empty cloud")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    xy = cloud.points[:, :2]
    mn = xy.min(axis=0)
    mx = xy.max(axis=0)
    width = int(math.floor((mx[0] - mn[0]) / resolution)) + 1
    height = int(math.floor((mx[1] - mn[1]) / resolution)) + 1
    grid = OccupancyGrid(width, height, resolution, Pose2D(mn[0], mn[1], 0.0))
    cols = np.floor((xy[:, 0] - mn[0]) / resolution).astype(int)
    rows = np.floor((xy[:, 1] - mn[1]) / resolution).astype(int)
    np.clip(cols, 0, width - 1, out=cols)
    np.clip(rows, 0, height - 1, out=rows)
    grid.cells[rows, cols] = OCCUPIED
    return grid


def denoise(grid: OccupancyGrid, min_cluster: int) -> OccupancyGrid:
    """Remove 8-connected OCCUPIED components smaller than min_cluster cells."""
    if min_cluster < 1:
        raise ValueError("min_cluster must be >= 1")
    out = grid.copy()
    occ = out.cells == OCCUPIED
    labels, n = ndimage.label(occ, structure=np.ones((3, 3), dtype=bool))
    # counting only the labelled cells keeps bincount's int64 copy small
    small = np.bincount(labels[occ], minlength=n + 1) < min_cluster
    small[0] = False  # background
    out.cells[small[labels]] = FREE
    return out


def fill_unknown(grid: OccupancyGrid) -> OccupancyGrid:
    """Mark exterior FREE space as UNKNOWN.

    Every FREE cell 4-connected to the border without crossing OCCUPIED
    becomes UNKNOWN; enclosed FREE space stays FREE.
    """
    out = grid.copy()
    labels, n = ndimage.label(out.cells == FREE)
    exterior = np.zeros(n + 1, dtype=bool)
    for edge in (labels[0], labels[-1], labels[:, 0], labels[:, -1]):
        exterior[edge] = True
    exterior[0] = False  # background
    out.cells[exterior[labels]] = UNKNOWN
    return out


def extract_map(cloud: PointCloud, cfg: MapGenConfig) -> OccupancyGrid:
    """Full extraction pipeline."""
    filtered = height_filter(cloud, cfg.z_min, cfg.z_max)
    if len(filtered) == 0:
        raise ValueError("height band excludes every point")
    grid = rasterize(filtered, cfg.resolution)
    grid = denoise(grid, cfg.denoise_min_cluster)
    return fill_unknown(grid)


def write_map(grid: OccupancyGrid, path) -> None:
    """Write the PGM image and its .meta sidecar next to it."""
    path = Path(path)
    lut = np.zeros(256, dtype=np.uint8)
    for cell, byte in _CELL_TO_BYTE.items():
        lut[cell] = byte
    img = lut[grid.cells.astype(np.uint8)]
    # image row 0 is the top of the map (max y)
    img = np.flipud(img)
    with open(path, "wb") as f:
        f.write(f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii"))
        f.write(img.tobytes())
    meta = (
        f"resolution: {float(grid.resolution)!r}\n"
        f"origin: {float(grid.origin.x)!r} {float(grid.origin.y)!r} "
        f"{float(grid.origin.theta)!r}\n"
        "negate: 0\n"
    )
    path.with_suffix(path.suffix + ".meta").write_text(meta)


def read_map(path) -> OccupancyGrid:
    """Read a map written by write_map."""
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError("not a binary PGM (P5) file")
    # header: magic, width height, maxval, single whitespace, then raster
    tokens = []
    i = 2
    while len(tokens) < 3:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if data[i : i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        tokens.append(data[i:j])
        i = j
    width, height, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    i += 1
    raster = np.frombuffer(data[i : i + width * height], dtype=np.uint8)
    if raster.size != width * height:
        raise ValueError("truncated PGM raster")
    bad = set(np.unique(raster)) - set(_BYTE_TO_CELL)
    if bad:
        raise ValueError(f"unexpected pixel values {sorted(bad)}")
    cells = np.zeros(raster.shape, dtype=np.int8)
    for byte, cell in _BYTE_TO_CELL.items():
        cells[raster == byte] = cell
    cells = np.flipud(cells.reshape(height, width)).copy()

    meta = path.with_suffix(path.suffix + ".meta").read_text()
    fields = {}
    for line in meta.splitlines():
        if ":" in line:
            key, val = line.split(":", 1)
            fields[key.strip()] = val.strip()
    resolution = float(fields["resolution"])
    ox, oy, oth = (float(t) for t in fields["origin"].split())
    return OccupancyGrid(width, height, resolution, Pose2D(ox, oy, oth), cells)


def read_point_cloud(path) -> PointCloud:
    """ASCII cloud: one `x y z` per line, `#` starts a comment."""
    pts = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected `x y z`, got {line!r}")
        pts.append(tuple(float(p) for p in parts))
    return PointCloud.from_xyz(pts)


def write_point_cloud(cloud: PointCloud, path) -> None:
    with open(path, "w") as f:
        for x, y, z in cloud.points:
            f.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
