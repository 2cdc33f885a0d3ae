import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omninav.core import (
    FREE,
    INVALID_RANGE,
    OCCUPIED,
    UNKNOWN,
    LaserScan,
    OccupancyGrid,
    PointCloud,
    Pose2D,
    ScanFrame,
    VelocityCommand,
    cell_center,
    normalize_angle,
    world_to_cell,
)

from conftest import compose, valid_count


class TestNormalizeAngle:
    @given(st.floats(-1e6, 1e6))
    def test_range(self, a):
        r = normalize_angle(a)
        assert -math.pi < r <= math.pi

    @given(st.floats(-1e4, 1e4))
    def test_equivalent_angle(self, a):
        r = normalize_angle(a)
        assert math.isclose(math.sin(r), math.sin(a), abs_tol=1e-8)
        assert math.isclose(math.cos(r), math.cos(a), abs_tol=1e-8)

    def test_boundary_maps_to_positive_pi(self):
        assert normalize_angle(-math.pi) == math.pi
        assert normalize_angle(math.pi) == math.pi
        assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_identity_inside_range(self):
        assert normalize_angle(0.5) == 0.5
        assert normalize_angle(0.0) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalize_angle(math.nan)
        with pytest.raises(ValueError):
            normalize_angle(math.inf)


class TestPose2D:
    def test_theta_normalized_on_construction(self):
        assert Pose2D(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)

    def test_compose_pure_translation(self):
        p = compose(Pose2D(1.0, 2.0, math.pi / 2), Pose2D(1.0, 0.0, 0.0))
        assert p.x == pytest.approx(1.0)
        assert p.y == pytest.approx(3.0)

    def test_compose_rotates_increment(self):
        p = compose(Pose2D(0, 0, math.pi), Pose2D(0.0, 1.0, 0.0))
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Pose2D(math.nan, 0.0, 0.0)


class TestVelocityCommand:
    def test_clamped_scales_translation_isotropically(self):
        c = VelocityCommand(3.0, 4.0, 0.0).clamped(v_max=0.5)
        assert math.hypot(c.vx, c.vy) == pytest.approx(0.5)
        assert c.vy / c.vx == pytest.approx(4.0 / 3.0)

    def test_clamped_limits_rotation(self):
        assert VelocityCommand(0, 0, -5.0).clamped(wz_max=1.0).wz == -1.0

    def test_within_limits_untouched(self):
        c = VelocityCommand(0.1, 0.2, 0.3).clamped()
        assert (c.vx, c.vy, c.wz) == (0.1, 0.2, 0.3)


class TestLaserScan:
    def test_count_must_match_metadata(self):
        with pytest.raises(ValueError):
            LaserScan(0.0, 1.0, 0.1, 0.0, 5.0, [1.0] * 5)

    def test_angles_and_validity(self):
        scan = LaserScan(-0.5, 0.5, 0.25, 0.0, 5.0, [1.0, INVALID_RANGE, 2.0, 3.0, 4.0])
        assert len(scan) == 5
        assert scan.angle(0) == -0.5
        assert scan.angle(4) == pytest.approx(0.5)
        assert scan.is_valid(0) and not scan.is_valid(1)
        assert valid_count(scan) == 4
        with pytest.raises(IndexError):
            scan.angle(5)

    def test_text_round_trip_exact(self):
        # a `localize` log writes each range with repr() and reads it back with float()
        scan = LaserScan(-0.5, 0.5, 0.25, 0.05, 3.0,
                         [0.123456789, INVALID_RANGE, 2.0, 1e-3, 2.999999999],
                         ScanFrame.MERGED)
        assert all(type(r) is float for r in scan.ranges)
        row = " ".join(repr(r) for r in scan.ranges)
        back = LaserScan(scan.angle_min, scan.angle_max, scan.angle_increment,
                         scan.range_min, scan.range_max,
                         [float(t) for t in row.split()], ScanFrame.MERGED)
        assert back.ranges == scan.ranges
        assert "np." not in row

    @pytest.mark.parametrize("meta", [
        (0.0, 1.0, 0.0), (0.0, 1.0, -0.25), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
        (math.nan, 1.0, 0.25), (0.0, math.inf, 0.25), (-1.0, 1.0, 1e-320),
    ])
    def test_bad_angle_metadata_rejected(self, meta):
        with pytest.raises(ValueError):
            LaserScan(*meta, 0.0, 5.0, [1.0] * 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_range_rejected(self, bad):
        with pytest.raises(ValueError):
            LaserScan(-0.5, 0.5, 0.25, 0.0, 5.0, [1.0, bad, 2.0, 3.0, 4.0])


class TestOccupancyGrid:
    def test_defaults_to_free(self, small_grid):
        assert np.all(small_grid.cells == FREE)
        assert small_grid.cells.dtype == np.int8

    def test_world_to_cell_and_center_round_trip(self, small_grid):
        cell = world_to_cell(small_grid, 0.35, 0.75)
        assert cell == (3, 7)
        assert cell_center(small_grid, *cell) == (pytest.approx(0.35), pytest.approx(0.75))

    def test_world_to_cell_out_of_bounds(self, small_grid):
        assert world_to_cell(small_grid, -0.01, 0.5) is None
        assert world_to_cell(small_grid, 0.5, 1.01) is None

    def test_cell_boundary_belongs_to_next_cell(self, small_grid):
        assert world_to_cell(small_grid, 0.1, 0.0) == (1, 0)

    def test_copy_is_independent(self, small_grid):
        c = small_grid.copy()
        c.set(0, 0, OCCUPIED)
        assert small_grid.get(0, 0) == FREE
        assert c.get(0, 0) == OCCUPIED

    def test_offset_origin(self):
        g = OccupancyGrid(4, 4, 0.5, Pose2D(-1.0, -1.0, 0.0))
        assert world_to_cell(g, -0.9, -0.9) == (0, 0)
        assert world_to_cell(g, 0.9, 0.9) == (3, 3)

    def test_cell_values_cover_trio(self):
        assert {FREE, OCCUPIED, UNKNOWN} == {0, 1, 2}


class TestPointCloud:
    def test_shape_coerced(self):
        pc = PointCloud(np.zeros(6))
        assert pc.points.shape == (2, 3)
        assert len(pc) == 2

    def test_from_xyz(self):
        pc = PointCloud.from_xyz([(1, 2, 3), (4, 5, 6)])
        assert pc.points[1, 2] == 6.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))
