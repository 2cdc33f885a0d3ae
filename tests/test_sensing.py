import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omninav.core import INVALID_RANGE, LaserScan, Pose2D, ScanFrame
from omninav.sensing import (
    BaseLaserConfig,
    DepthImage,
    DepthScanConfig,
    column_bearing,
    combine_base_scans,
    depth_image_to_scan,
    merge_scans,
    transform_scan_to_body,
)

from conftest import valid_count


def _base_sector(center_unused=0.0, ranges=None, cfg=None):
    cfg = cfg or BaseLaserConfig()
    n = cfg.points_per_laser
    ranges = ranges if ranges is not None else [1.0] * n
    half = cfg.fov_per_laser / 2.0
    return LaserScan(-half, half, cfg.angle_increment, cfg.range_min, cfg.range_max,
                     ranges, ScanFrame.BASE)


def oracle_lookup(scan, bearing, tol):
    """Reference: nearest beam of `scan` within `tol` of `bearing`, else invalid."""
    k = int(round((bearing - scan.angle_min) / scan.angle_increment))
    if not 0 <= k < len(scan.ranges):
        return INVALID_RANGE
    if abs(scan.angle(k) - bearing) > tol:
        return INVALID_RANGE
    return scan.ranges[k]


def oracle_merge(base, depth):
    """Reference merge_scans: one oracle_lookup per input per merged bin."""
    inc = depth.angle_increment
    lo = min(base.angle_min, depth.angle_min)
    hi = max(base.angle_max, depth.angle_max)
    n = int(math.floor((hi - lo) / inc + 1e-9)) + 1
    tol = inc / 2 + 1e-12
    ranges = []
    for k in range(n):
        a = lo + k * inc
        rd = oracle_lookup(depth, a, tol)
        rb = oracle_lookup(base, a, tol)
        if rd >= 0.0 and rb >= 0.0:
            ranges.append(min(rd, rb))
        elif rd >= 0.0:
            ranges.append(rd)
        elif rb >= 0.0:
            ranges.append(rb)
        else:
            ranges.append(INVALID_RANGE)
    return LaserScan(lo, lo + (n - 1) * inc, inc, min(base.range_min, depth.range_min),
                     max(base.range_max, depth.range_max), ranges, ScanFrame.MERGED)


def oracle_combine(scans, cfg):
    """Reference combine_base_scans: one Python step per sector beam."""
    inc = cfg.angle_increment
    lo = min(s.angle_min for s in scans)
    hi = max(s.angle_max for s in scans)
    n = int(round((hi - lo) / inc)) + 1
    ranges = [INVALID_RANGE] * n
    for s in scans:
        for i, r in enumerate(s.ranges):
            if r < 0.0:
                continue
            k = int(round((s.angle(i) - lo) / inc))
            if 0 <= k < n and (ranges[k] < 0.0 or r < ranges[k]):
                ranges[k] = r
    return LaserScan(lo, lo + (n - 1) * inc, inc, cfg.range_min, cfg.range_max, ranges,
                     ScanFrame.BASE)


def assert_same_scan(got, want):
    assert got.frame == want.frame
    assert (got.angle_min, got.angle_max, got.angle_increment) == \
        (want.angle_min, want.angle_max, want.angle_increment)
    assert (got.range_min, got.range_max) == (want.range_min, want.range_max)
    # bit for bit, and still Python floats
    assert [r.hex() for r in got.ranges] == [r.hex() for r in want.ranges]


# invalid returns often, so that many bins pair a -1 with a return
_RANGE = st.one_of(st.just(INVALID_RANGE), st.floats(0.0, 5.0))


@st.composite
def _scans(draw, frame, angle_min, inc, max_beams):
    a0 = draw(angle_min)
    step = draw(inc)
    ranges = draw(st.lists(_RANGE, min_size=1, max_size=max_beams))
    return LaserScan(a0, a0 + (len(ranges) - 1) * step, step, 0.05, 5.0, ranges, frame)


class TestDepthExtraction:
    def test_center_column_bearing_zero_for_odd_width(self):
        img = DepthImage(5, 1, [2.0] * 5)
        assert column_bearing(img, 2) == pytest.approx(0.0, abs=1e-12)

    def test_edge_columns_near_half_fov(self):
        img = DepthImage(321, 1, [2.0] * 321, horizontal_fov=math.radians(58.0))
        assert column_bearing(img, 0) == pytest.approx(math.radians(29.0), abs=math.radians(0.2))
        assert column_bearing(img, 320) == pytest.approx(-math.radians(29.0), abs=math.radians(0.2))

    def test_depth_to_range_cosine_correction(self):
        # flat wall at depth 2: every range is depth / cos(column bearing);
        # beam i maps back to pixel column n-1-i after the ascending reorder
        img = DepthImage(9, 1, [2.0] * 9)
        cfg = DepthScanConfig(points=9)
        scan = depth_image_to_scan(img, cfg)
        for i in range(len(scan)):
            bearing = column_bearing(img, len(scan) - 1 - i)
            assert scan.ranges[i] == pytest.approx(2.0 / math.cos(bearing))

    def test_beams_ascending_and_frame(self):
        img = DepthImage(9, 1, [2.0] * 9)
        scan = depth_image_to_scan(img, DepthScanConfig(points=9))
        assert scan.frame == ScanFrame.DEPTH
        assert scan.angle_min < 0 < scan.angle_max
        assert scan.angle_min == pytest.approx(-scan.angle_max)

    def test_invalid_and_out_of_range_depths(self):
        img = DepthImage(3, 1, [0.0, 2.0, 9.0])
        scan = depth_image_to_scan(img, DepthScanConfig(points=3, range_max=4.0))
        # column order is reversed into ascending angle
        assert scan.ranges[0] == INVALID_RANGE  # depth 9 beyond range_max
        assert scan.ranges[2] == INVALID_RANGE  # depth 0 invalid
        assert scan.ranges[1] > 0

    def test_bad_slice_row(self):
        img = DepthImage(3, 1, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            depth_image_to_scan(img, DepthScanConfig(points=3, slice_row=2))


class TestTransformToBody:
    def test_pure_rotation_shifts_angles_only(self):
        scan = _base_sector(ranges=[1.5] * 15)
        out = transform_scan_to_body(scan, math.radians(90.0))
        assert out.angle_min == pytest.approx(scan.angle_min + math.radians(90.0))
        assert out.ranges == scan.ranges


class TestCombineBase:
    def test_sector_gaps_are_invalid(self):
        cfg = BaseLaserConfig()
        scans = [transform_scan_to_body(_base_sector(ranges=[1.0] * 15), c)
                 for c in cfg.centers]
        combined = combine_base_scans(scans, cfg)
        assert combined.frame == ScanFrame.BASE
        assert combined.angle_min == pytest.approx(math.radians(-120.0))
        assert combined.angle_max == pytest.approx(math.radians(120.0))
        # 45 valid sector beams, the rest gap bins
        assert valid_count(combined) == 45
        # a bearing between sectors (45 deg) has no return
        k = round((math.radians(45.0) - combined.angle_min) / combined.angle_increment)
        assert combined.ranges[k] == INVALID_RANGE

    def test_sector_values_preserved(self):
        cfg = BaseLaserConfig()
        front = _base_sector(ranges=[2.0] * 15)
        scans = [transform_scan_to_body(front, 0.0)] + [
            transform_scan_to_body(_base_sector(ranges=[INVALID_RANGE] * 15), c)
            for c in cfg.centers[1:]
        ]
        combined = combine_base_scans(scans, cfg)
        k = round((0.0 - combined.angle_min) / combined.angle_increment)
        assert combined.ranges[k] == pytest.approx(2.0)

    def test_overlapping_sectors_rejected(self):
        with pytest.raises(ValueError):
            BaseLaserConfig(centers=(0.0, math.radians(30.0), math.radians(-90.0)))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            combine_base_scans([], BaseLaserConfig())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.lists(_RANGE, min_size=1, max_size=20)),
                    min_size=1, max_size=4))
    def test_matches_beam_loop_oracle(self, sectors):
        cfg = BaseLaserConfig()
        inc = cfg.angle_increment
        scans = [LaserScan(a0, a0 + (len(r) - 1) * inc, inc, cfg.range_min, cfg.range_max, r,
                           ScanFrame.BASE) for a0, r in sectors]
        assert_same_scan(combine_base_scans(scans, cfg), oracle_combine(scans, cfg))


class TestMerge:
    def _small_pair(self, base_ranges, depth_ranges):
        base = LaserScan(-0.4, 0.4, 0.2, 0.05, 3.0, base_ranges, ScanFrame.BASE)
        depth = LaserScan(-0.2, 0.2, 0.1, 0.1, 4.0, depth_ranges, ScanFrame.DEPTH)
        return base, depth

    def test_frames_enforced(self):
        base, depth = self._small_pair([1.0] * 5, [1.0] * 5)
        with pytest.raises(ValueError):
            merge_scans(depth, base)
        with pytest.raises(ValueError):
            merge_scans(base, base)

    def test_union_span_at_depth_resolution(self):
        base, depth = self._small_pair([1.0] * 5, [1.0] * 5)
        merged = merge_scans(base, depth)
        assert merged.frame == ScanFrame.MERGED
        assert merged.angle_min == pytest.approx(-0.4)
        assert merged.angle_increment == pytest.approx(0.1)
        assert len(merged) == 9

    def test_min_rule_on_overlap(self):
        base, depth = self._small_pair([2.0] * 5, [1.5] * 5)
        merged = merge_scans(base, depth)
        k = round((0.0 - merged.angle_min) / merged.angle_increment)
        assert merged.ranges[k] == pytest.approx(1.5)

    def test_base_only_region_kept(self):
        base, depth = self._small_pair([2.0] * 5, [INVALID_RANGE] * 5)
        merged = merge_scans(base, depth)
        k = round((-0.4 - merged.angle_min) / merged.angle_increment)
        assert merged.ranges[k] == pytest.approx(2.0)

    def test_uncovered_bins_invalid(self):
        base, depth = self._small_pair([INVALID_RANGE] * 5, [INVALID_RANGE] * 5)
        merged = merge_scans(base, depth)
        assert valid_count(merged) == 0

    @settings(max_examples=300, deadline=None)
    @given(_scans(ScanFrame.BASE, st.floats(-2.5, 0.5), st.floats(0.02, 0.3), 40),
           _scans(ScanFrame.DEPTH, st.floats(-1.0, 0.5), st.floats(0.005, 0.05), 120))
    def test_matches_lookup_oracle(self, base, depth):
        assert_same_scan(merge_scans(base, depth), oracle_merge(base, depth))

    def test_sensor_scans_match_oracle(self):
        # the simulator's own layout: 57 base bins, 320 depth beams
        from omninav import worlds
        from omninav.sim import NoiseModel, sense_base, sense_depth

        world = worlds.lab_world(noise=NoiseModel(range_std=0.01, rng_seed=3))
        rng = np.random.default_rng(3)
        mixed = 0
        for _ in range(20):
            world.robot = Pose2D(rng.uniform(1.0, 19.0), rng.uniform(1.0, 14.0),
                                 rng.uniform(-math.pi, math.pi))
            sectors = [transform_scan_to_body(s, c)
                       for s, c in zip(sense_base(world, True), world.base_cfg.centers)]
            base = combine_base_scans(sectors, world.base_cfg)
            assert_same_scan(base, oracle_combine(sectors, world.base_cfg))
            depth = sense_depth(world, True)
            merged = merge_scans(base, depth)
            assert_same_scan(merged, oracle_merge(base, depth))
            # inside the depth span every bin has a depth beam: count the bins
            # where it is invalid while the base scan has a return
            tol = depth.angle_increment / 2 + 1e-12
            inside = [merged.angle(k) for k in range(len(merged))
                      if depth.angle_min <= merged.angle(k) <= depth.angle_max]
            mixed += sum(oracle_lookup(base, a, tol) >= 0.0 > oracle_lookup(depth, a, tol)
                         for a in inside)
        assert mixed > 0

    def test_range_limits_union(self):
        base, depth = self._small_pair([1.0] * 5, [1.0] * 5)
        merged = merge_scans(base, depth)
        assert merged.range_min == 0.05
        assert merged.range_max == 4.0


class TestHeightSeparationFixture:
    """The elevated-sofa / low-clutter scene: each sensor alone is blind to
    part of the furniture; the merged scan sees everything."""

    def setup_method(self):
        from omninav import worlds
        from omninav.sim import sense_base, sense_depth, sense_merged

        self.world = worlds.obstacle_course_world()
        base = sense_base(self.world)
        self.base = combine_base_scans(
            [transform_scan_to_body(s, c) for s, c in zip(base, self.world.base_cfg.centers)],
            self.world.base_cfg,
        )
        self.depth = sense_depth(self.world)
        self.merged = sense_merged(self.world)

    def _nearest(self, scan, bearing):
        k = round((bearing - scan.angle_min) / scan.angle_increment)
        return scan.ranges[int(k)]

    def test_depth_misses_low_objects(self):
        # backpack (+90 deg) and box (-90 deg) lie outside the depth FOV and
        # below its mount height; depth returns come from the sofa only
        valid_bearings = [self.depth.angle(i) for i in range(len(self.depth))
                          if self.depth.is_valid(i)]
        assert valid_bearings, "depth should see the sofa"
        assert all(abs(b) < math.radians(29.0) for b in valid_bearings)

    def test_base_misses_elevated_sofa(self):
        # front sector sees nothing: the sofa sits above the base lasers
        for i in range(len(self.base)):
            if abs(self.base.angle(i)) <= math.radians(30.0) + 1e-9:
                assert not self.base.is_valid(i)

    def test_base_sees_low_objects(self):
        assert self._nearest(self.base, math.radians(90.0)) == pytest.approx(1.3, abs=0.05)
        assert self._nearest(self.base, math.radians(-90.0)) == pytest.approx(1.25, abs=0.05)

    def test_merged_sees_all_three(self):
        assert self._nearest(self.merged, 0.0) == pytest.approx(2.0, abs=0.05)
        assert self._nearest(self.merged, math.radians(90.0)) == pytest.approx(1.3, abs=0.05)
        assert self._nearest(self.merged, math.radians(-90.0)) == pytest.approx(1.25, abs=0.05)
