import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omninav.core import (
    FREE,
    INVALID_RANGE,
    OCCUPIED,
    LaserScan,
    OccupancyGrid,
    Pose2D,
    ScanFrame,
)
from omninav.localization import (
    MclConfig,
    MclFilter,
    ParticleSet,
    distance_field,
    effective_sample_size,
    estimate,
    init_around,
    init_uniform,
    log_likelihoods,
    measurement_update,
    motion_update,
    resample,
)


def brute_distance_field(grid, max_dist):
    occ = np.argwhere(grid.cells == OCCUPIED)
    out = np.full(grid.cells.shape, max_dist, dtype=float)
    if len(occ) == 0:
        return out
    for r in range(grid.height):
        for c in range(grid.width):
            d = np.min(np.hypot(occ[:, 0] - r, occ[:, 1] - c)) * grid.resolution
            out[r, c] = min(d, max_dist)
    return out


def oracle_beam_likelihoods(pose, scan, grid, dfield, cfg):
    """Reference: the scalar log-likelihood of a scan from one pose, one
    Python step per selected beam."""
    x, y, th = pose
    norm = 1.0 / (cfg.sigma_hit * math.sqrt(2.0 * math.pi))
    logp = 0.0
    n = len(scan.ranges)
    step = max(1, n // cfg.max_beams)
    for i in range(0, n, step):
        r = scan.ranges[i]
        if r < 0.0:
            continue
        a = th + scan.angle(i)
        ex = x + r * math.cos(a)
        ey = y + r * math.sin(a)
        col = int(math.floor((ex - grid.origin.x) / grid.resolution))
        row = int(math.floor((ey - grid.origin.y) / grid.resolution))
        if grid.in_bounds(col, row):
            d = dfield[row, col]
        else:
            d = cfg.likelihood_max_dist
        p = cfg.z_hit * norm * math.exp(-0.5 * (d / cfg.sigma_hit) ** 2)
        p += cfg.z_rand / scan.range_max
        logp += math.log(p)
    return logp


def room_grid(n=20, res=0.1):
    """Square room with occupied perimeter."""
    g = OccupancyGrid(n, n, res)
    g.cells[0, :] = OCCUPIED
    g.cells[-1, :] = OCCUPIED
    g.cells[:, 0] = OCCUPIED
    g.cells[:, -1] = OCCUPIED
    return g


class TestDistanceField:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            h, w = int(rng.integers(3, 15)), int(rng.integers(3, 15))
            cells = np.where(rng.uniform(size=(h, w)) < 0.2, OCCUPIED, FREE).astype(np.int8)
            g = OccupancyGrid(w, h, 0.05, Pose2D(), cells)
            assert np.allclose(distance_field(g, 2.0), brute_distance_field(g, 2.0))

    def test_all_free_clamps(self):
        g = OccupancyGrid(4, 4, 0.1)
        assert np.all(distance_field(g, 1.5) == 1.5)

    def test_zero_at_obstacles(self):
        g = room_grid()
        d = distance_field(g, 2.0)
        assert d[0, 5] == 0.0


class TestInitialization:
    def test_uniform_particles_on_free_cells(self):
        g = room_grid()
        cfg = MclConfig(particle_count=300)
        ps = init_uniform(g, cfg, np.random.default_rng(0))
        assert len(ps) == 300
        for x, y, th in ps.poses:
            col = math.floor(x / g.resolution)
            row = math.floor(y / g.resolution)
            assert g.cells[row, col] == FREE
            assert -math.pi <= th <= math.pi
        assert ps.weights.sum() == pytest.approx(1.0)

    def test_uniform_heading_coverage(self):
        g = room_grid()
        ps = init_uniform(g, MclConfig(particle_count=500), np.random.default_rng(0))
        # headings should span the circle: every quadrant populated
        quad = np.floor((ps.poses[:, 2] + math.pi) / (math.pi / 2)).astype(int)
        assert set(np.clip(quad, 0, 3)) == {0, 1, 2, 3}

    def test_region_restriction(self):
        g = room_grid()
        region = (0.5, 1.0, 0.5, 1.0)
        ps = init_uniform(g, MclConfig(particle_count=100), np.random.default_rng(0), region)
        assert np.all(ps.poses[:, 0] >= 0.5 - g.resolution)
        assert np.all(ps.poses[:, 0] <= 1.0 + g.resolution)

    def test_no_free_cells_rejected(self):
        g = OccupancyGrid(3, 3, 0.1, cells=np.full((3, 3), OCCUPIED, dtype=np.int8))
        with pytest.raises(ValueError):
            init_uniform(g, MclConfig(), np.random.default_rng(0))

    def test_init_around_box(self):
        ps = init_around(Pose2D(2.0, 3.0, 0.5), 0.2, 0.1,
                         MclConfig(particle_count=200), np.random.default_rng(0))
        assert np.all(np.abs(ps.poses[:, 0] - 2.0) <= 0.2)
        assert np.all(np.abs(ps.poses[:, 1] - 3.0) <= 0.2)


class TestMotionUpdate:
    def test_zero_noise_exact_translation(self):
        cfg = MclConfig(odom_noise=(0.0, 0.0, 0.0, 0.0))
        ps = ParticleSet(np.array([[1.0, 1.0, math.pi / 2]]), np.array([1.0]))
        out = motion_update(ps, Pose2D(0.5, 0.0, 0.0), cfg, np.random.default_rng(0))
        assert out.poses[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out.poses[0, 1] == pytest.approx(1.5)

    def test_zero_noise_exact_rotation(self):
        cfg = MclConfig(odom_noise=(0.0, 0.0, 0.0, 0.0))
        ps = ParticleSet(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
        out = motion_update(ps, Pose2D(0.0, 0.0, 0.3), cfg, np.random.default_rng(0))
        assert out.poses[0, 2] == pytest.approx(0.3)

    def test_noise_scales_with_motion(self):
        cfg = MclConfig(odom_noise=(0.05, 0.05, 0.1, 0.05))
        n = 2000
        ps = ParticleSet(np.zeros((n, 3)), np.full(n, 1.0 / n))
        out = motion_update(ps, Pose2D(1.0, 0.0, 0.0), cfg, np.random.default_rng(0))
        spread = out.poses[:, 0].std()
        assert 0.05 < spread < 0.6

    def test_weights_untouched(self):
        w = np.array([0.7, 0.3])
        ps = ParticleSet(np.zeros((2, 3)), w)
        out = motion_update(ps, Pose2D(0.1, 0, 0), MclConfig(), np.random.default_rng(0))
        assert np.array_equal(out.weights, w)


class TestMeasurementUpdate:
    def _setup(self):
        g = room_grid()
        cfg = MclConfig(particle_count=10)
        dfield = distance_field(g, cfg.likelihood_max_dist)
        return g, cfg, dfield

    def test_true_pose_outweighs_wrong_pose(self):
        g, cfg, dfield = self._setup()
        # robot at room center facing +x; wall at x = 1.95 (cell col 19 spans
        # from 1.9); beam straight ahead
        truth = [1.0, 1.0, 0.0]
        wrong = [0.6, 1.0, 0.0]
        scan = LaserScan(0.0, 0.0, 1.0, 0.05, 3.0, [0.95], ScanFrame.MERGED)
        ps = ParticleSet(np.array([truth, wrong]), np.array([0.5, 0.5]))
        out = measurement_update(ps, scan, g, dfield, cfg)
        assert out.weights[0] > out.weights[1]
        assert out.weights.sum() == pytest.approx(1.0)

    def test_zero_range_counts_as_valid(self):
        # a 0 m return is valid: it lands on each particle's own cell
        g, cfg, dfield = self._setup()
        scan = LaserScan(0.0, 0.1, 0.1, 0.05, 3.0, [INVALID_RANGE, 0.0], ScanFrame.MERGED)
        ps = ParticleSet(np.array([[1.95, 1.0, 0.0], [1.0, 1.0, 0.0]]), np.array([0.5, 0.5]))
        out = measurement_update(ps, scan, g, dfield, cfg)
        assert out.weights[0] > out.weights[1]

    def test_all_invalid_scan_is_noop(self):
        g, cfg, dfield = self._setup()
        scan = LaserScan(0.0, 0.1, 0.1, 0.05, 3.0, [INVALID_RANGE] * 2, ScanFrame.MERGED)
        w = np.array([0.7, 0.3])
        ps = ParticleSet(np.zeros((2, 3)), w)
        out = measurement_update(ps, scan, g, dfield, cfg)
        assert np.array_equal(out.weights, w)

    def test_scan_with_no_beams_is_rejected(self):
        # angle_max one increment below angle_min would imply zero beams
        with pytest.raises(ValueError, match="below angle_min"):
            LaserScan(0.0, -0.1, 0.1, 0.05, 3.0, [], ScanFrame.MERGED)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
        st.integers(1, 60), st.floats(-math.pi, math.pi), st.floats(0.001, 0.2),
        st.lists(st.one_of(st.just(INVALID_RANGE), st.floats(0.0, 6.0)), min_size=1,
                 max_size=400),
        st.floats(1.0, 8.0),
    )
    def test_log_likelihoods_match_scalar_oracle(self, seed, ox, oy, max_beams, a0, inc,
                                                  ranges, range_max):
        rng = np.random.default_rng(seed)
        cells = np.where(rng.uniform(size=(30, 40)) < 0.1, OCCUPIED, FREE)
        g = OccupancyGrid(40, 30, 0.1, Pose2D(ox, oy, 0.0), cells)
        cfg = MclConfig(particle_count=50, max_beams=max_beams)
        dfield = distance_field(g, cfg.likelihood_max_dist)
        scan = LaserScan(a0, a0 + (len(ranges) - 1) * inc, inc, 0.05, range_max, ranges,
                         ScanFrame.MERGED)
        # some particles start off the map
        poses = np.column_stack([rng.uniform(ox - 1.0, ox + 5.0, 50),
                                 rng.uniform(oy - 1.0, oy + 4.0, 50),
                                 rng.uniform(-math.pi, math.pi, 50)])
        want = [oracle_beam_likelihoods(p, scan, g, dfield, cfg) for p in poses]
        got = log_likelihoods(poses, scan, g, dfield, cfg)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_log_likelihoods_match_oracle_on_lab_scans(self, lab_nav_map):
        from omninav import worlds
        from omninav.sim import NoiseModel, sense_merged

        world = worlds.lab_world(noise=NoiseModel(range_std=0.01, rng_seed=1))
        cfg = MclConfig()
        dfield = distance_field(lab_nav_map, cfg.likelihood_max_dist)
        rng = np.random.default_rng(1)
        for _ in range(5):
            world.robot = Pose2D(rng.uniform(1.0, 19.0), rng.uniform(1.0, 14.0),
                                 rng.uniform(-math.pi, math.pi))
            scan = sense_merged(world, noisy=True)
            poses = np.array([world.robot.x, world.robot.y, world.robot.theta]) + \
                rng.normal(0.0, [0.3, 0.3, 0.2], size=(100, 3))
            want = [oracle_beam_likelihoods(p, scan, lab_nav_map, dfield, cfg) for p in poses]
            got = log_likelihoods(poses, scan, lab_nav_map, dfield, cfg)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_collapse_flags_degenerate(self):
        g, cfg, dfield = self._setup()
        scan = LaserScan(0.0, 0.0, 1.0, 0.05, 3.0, [1.0], ScanFrame.MERGED)
        ps = ParticleSet(np.zeros((3, 3)), np.zeros(3))  # zero weights in
        out = measurement_update(ps, scan, g, dfield, cfg)
        assert out.degenerate
        assert np.allclose(out.weights, 1.0 / 3.0)


class TestResampling:
    def test_skipped_when_ess_high(self):
        n = 100
        ps = ParticleSet(np.random.default_rng(0).normal(size=(n, 3)), np.full(n, 1.0 / n))
        out = resample(ps, MclConfig(), np.random.default_rng(1))
        assert out is ps

    def test_multiplicity_tracks_weights(self):
        n = 400
        poses = np.zeros((n, 3))
        poses[:, 0] = np.arange(n)
        w = np.full(n, 0.5 / (n - 1))
        w[7] = 0.5  # one particle holds half the mass
        ps = ParticleSet(poses, w)
        out = resample(ps, MclConfig(), np.random.default_rng(2))
        copies = np.count_nonzero(out.poses[:, 0] == 7)
        # systematic resampling puts floor(n*w) to ceil(n*w) copies there
        assert n // 2 - 1 <= copies <= n // 2 + 1
        assert np.allclose(out.weights, 1.0 / n)

    def test_effective_sample_size(self):
        assert effective_sample_size(np.array([0.5, 0.5])) == pytest.approx(2.0)
        assert effective_sample_size(np.array([1.0, 0.0])) == pytest.approx(1.0)


class TestEstimate:
    def test_weighted_mean(self):
        ps = ParticleSet(np.array([[0.0, 0.0, 0.1], [2.0, 4.0, 0.3]]),
                         np.array([0.25, 0.75]))
        pose, cov = estimate(ps)
        assert pose.x == pytest.approx(1.5)
        assert pose.y == pytest.approx(3.0)
        assert cov.shape == (3, 3)

    def test_circular_mean_across_pi(self):
        ps = ParticleSet(
            np.array([[0.0, 0.0, math.pi - 0.1], [0.0, 0.0, -math.pi + 0.1]]),
            np.array([0.5, 0.5]),
        )
        pose, _ = estimate(ps)
        assert abs(pose.theta) == pytest.approx(math.pi)


class TestFilterIntegration:
    def test_converges_in_square_room(self):
        g = room_grid(n=40, res=0.1)  # 4 m room
        truth = Pose2D(1.3, 2.1, 0.0)
        mcl = MclFilter(g, MclConfig(rng_seed=5))
        mcl.initialize_around(Pose2D(1.6, 1.8, 0.2), 0.5, math.radians(20.0))

        def perfect_scan(pose):
            # 8 beams against the analytic walls
            n = 8
            angles = [pose.theta + k * (2 * math.pi / n) for k in range(n)]
            lo, hi = 0.05, 3.95
            ranges = []
            for a in angles:
                dx, dy = math.cos(a), math.sin(a)
                ts = []
                if dx > 1e-9:
                    ts.append((hi - pose.x) / dx)
                if dx < -1e-9:
                    ts.append((lo - pose.x) / dx)
                if dy > 1e-9:
                    ts.append((hi - pose.y) / dy)
                if dy < -1e-9:
                    ts.append((lo - pose.y) / dy)
                ranges.append(min(t for t in ts if t > 0))
            inc = 2 * math.pi / n
            return LaserScan(0.0, (n - 1) * inc, inc, 0.05, 6.0, ranges, ScanFrame.MERGED)

        pose = truth
        for _ in range(15):
            est = mcl.update(Pose2D(), perfect_scan(pose))
        assert math.hypot(est.x - truth.x, est.y - truth.y) < 0.15

    def test_update_before_init_rejected(self):
        mcl = MclFilter(room_grid())
        with pytest.raises(RuntimeError):
            mcl.update(Pose2D(), None)

    def test_seeded_runs_identical(self):
        g = room_grid()
        a = MclFilter(g, MclConfig(rng_seed=3))
        b = MclFilter(g, MclConfig(rng_seed=3))
        a.initialize_uniform()
        b.initialize_uniform()
        ea = a.update(Pose2D(0.1, 0.0, 0.05), None)
        eb = b.update(Pose2D(0.1, 0.0, 0.05), None)
        assert (ea.x, ea.y, ea.theta) == (eb.x, eb.y, eb.theta)


class TestConfigValidation:
    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MclConfig(z_hit=0.8, z_rand=0.1)

    def test_minimum_particle_count(self):
        with pytest.raises(ValueError):
            MclConfig(particle_count=5)
