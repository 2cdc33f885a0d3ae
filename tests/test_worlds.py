import numpy as np

from omninav import mapgen, worlds
from omninav.core import FREE, OCCUPIED, UNKNOWN


def oracle_expected_lab_raster(grid):
    """Reference implementation: classify each cell centre against the lab
    perimeter one cell at a time, then paint the wall and furniture cells."""
    expected = np.full((grid.height, grid.width), FREE, dtype=np.int8)
    ox, oy = grid.origin.x, grid.origin.y
    e, (w, h) = worlds._E, worlds.LAB_SIZE
    for row in range(grid.height):
        for col in range(grid.width):
            x = ox + (col + 0.5) * grid.resolution
            y = oy + (row + 0.5) * grid.resolution
            if not (e <= x <= w - e and e <= y <= h - e):
                expected[row, col] = UNKNOWN
    occ = set()
    for seg in worlds.WALL_SEGMENTS:
        occ |= worlds.segment_cells(seg, ox, oy, grid.resolution)
    for cx, cy, r in worlds.FURNITURE:
        occ |= worlds.circle_cells(cx, cy, r, ox, oy, grid.resolution)
    for col, row in occ:
        if 0 <= col < grid.width and 0 <= row < grid.height:
            expected[row, col] = OCCUPIED
    return expected


class TestExpectedLabRaster:
    def test_matches_oracle_on_nav_map(self, lab_nav_map):
        assert np.array_equal(worlds.expected_lab_raster(lab_nav_map),
                              oracle_expected_lab_raster(lab_nav_map))

    def test_matches_oracle_on_extracted_map(self):
        cloud = worlds.build_lab_cloud(seed=3)
        grid = mapgen.extract_map(cloud, mapgen.MapGenConfig())
        assert grid.origin.x < 0 and grid.origin.y < 0
        assert np.array_equal(worlds.expected_lab_raster(grid),
                              oracle_expected_lab_raster(grid))
