import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omninav.core import (
    FREE,
    INVALID_RANGE,
    OCCUPIED,
    UNKNOWN,
    LaserScan,
    OccupancyGrid,
    Pose2D,
    ScanFrame,
    VelocityCommand,
)
from omninav.motion import integrate_odometry
from omninav.sensing import (
    BaseLaserConfig,
    DepthScanConfig,
    combine_base_scans,
    merge_scans,
    transform_scan_to_body,
)
from omninav.sim import (
    NoiseModel,
    Obstacle,
    World,
    _collides,
    _disk_raycast,
    _grid_raycast,
    _segment_raycast,
    body_delta,
    parse_scenario,
    raycast,
    run_scenario,
    sense_base,
    sense_depth,
    sense_merged,
    step,
    write_log,
)
from omninav import worlds

from conftest import compose, valid_count


def open_world(**kw):
    return World(grid=worlds.empty_grid(), robot=Pose2D(10.0, 10.0, 0.0), **kw)


class TestRaycast:
    def test_grid_wall_distance(self):
        g = OccupancyGrid(40, 40, 0.1)
        g.cells[:, 30] = OCCUPIED  # wall at x in [3.0, 3.1)
        w = World(grid=g, robot=Pose2D(1.0, 2.0, 0.0))
        d = raycast(w, 1.0, 2.0, np.array([0.0]), 5.0, 0.1)
        assert d[0] == pytest.approx(2.0, abs=g.resolution)

    def test_disk_obstacle_analytic(self):
        w = open_world()
        w.obstacles = [Obstacle("d", "disk", (13.0, 10.0, 0.5))]
        d = raycast(w, 10.0, 10.0, np.array([0.0]), 5.0, 0.1)
        assert d[0] == pytest.approx(2.5, abs=1e-9)

    def test_segment_obstacle_analytic(self):
        w = open_world()
        w.obstacles = [Obstacle("s", "segment", (12.0, 9.0, 12.0, 11.0))]
        d = raycast(w, 10.0, 10.0, np.array([0.0, math.pi]), 5.0, 0.1)
        assert d[0] == pytest.approx(2.0, abs=1e-9)
        assert d[1] == math.inf  # behind the ray

    def test_height_gating(self):
        w = open_world()
        w.obstacles = [Obstacle("high", "disk", (12.0, 10.0, 0.3), z_min=0.5, z_max=1.3)]
        low = raycast(w, 10.0, 10.0, np.array([0.0]), 5.0, 0.1)
        high = raycast(w, 10.0, 10.0, np.array([0.0]), 5.0, 1.1)
        assert low[0] == math.inf
        assert high[0] == pytest.approx(1.7, abs=1e-9)

    def test_inactive_obstacle_invisible(self):
        w = open_world()
        w.obstacles = [Obstacle("d", "disk", (12.0, 10.0, 0.3), active=False)]
        d = raycast(w, 10.0, 10.0, np.array([0.0]), 5.0, 0.1)
        assert d[0] == math.inf


class TestSensors:
    def test_base_scan_geometry(self):
        w = open_world()
        scans = sense_base(w)
        assert len(scans) == 3
        for s in scans:
            assert s.frame == ScanFrame.BASE
            assert len(s) == 15
            assert s.angle_min == pytest.approx(-math.radians(30.0))

    def test_depth_scan_geometry(self):
        w = open_world()
        s = sense_depth(w)
        assert s.frame == ScanFrame.DEPTH
        assert len(s) == 320
        assert s.angle_max == pytest.approx(math.radians(29.0))

    def test_out_of_range_is_invalid(self):
        w = open_world()
        assert valid_count(sense_depth(w)) == 0

    def test_merged_frame(self):
        w = open_world()
        assert sense_merged(w).frame == ScanFrame.MERGED

    def test_range_noise_seeded(self):
        nm = NoiseModel(range_std=0.01, rng_seed=9)
        w1 = open_world(noise=nm)
        w2 = open_world(noise=nm)
        w1.obstacles = [Obstacle("d", "disk", (12.0, 10.0, 0.5))]
        w2.obstacles = [Obstacle("d", "disk", (12.0, 10.0, 0.5))]
        assert sense_depth(w1, noisy=True).ranges == sense_depth(w2, noisy=True).ranges


class TestStep:
    def test_zero_noise_matches_integration(self):
        w = open_world()
        cmd = VelocityCommand(0.4, 0.0, 0.5)
        before = w.robot
        delta = step(w, cmd, 0.05)
        expected = integrate_odometry(before, cmd, 0.05)
        assert w.robot.x == pytest.approx(expected.x)
        assert w.robot.y == pytest.approx(expected.y)
        assert w.robot.theta == pytest.approx(expected.theta)
        # reported odometry composes back to the new pose
        assert compose(before, delta).x == pytest.approx(w.robot.x)

    def test_collision_truncates_translation(self):
        w = open_world()
        w.obstacles = [Obstacle("d", "disk", (10.6, 10.0, 0.2))]
        for _ in range(100):
            step(w, VelocityCommand(0.5, 0.0, 0.0), 0.05)
        # robot radius 0.24 + disk 0.2: center cannot pass x = 10.16
        assert w.robot.x <= 10.6 - 0.44 + 1e-6
        assert w.robot.x > 10.0  # it did advance to contact

    def test_rotation_continues_against_wall(self):
        w = open_world()
        w.obstacles = [Obstacle("d", "disk", (10.5, 10.0, 0.2))]
        th0 = w.robot.theta
        for _ in range(10):
            step(w, VelocityCommand(0.5, 0.0, 0.3), 0.05)
        assert w.robot.theta != th0

    def test_noisy_odometry_zero_when_still(self):
        w = open_world(noise=NoiseModel(odom_translation_std=0.1, odom_rotation_std=0.1))
        delta = step(w, VelocityCommand(), 0.05)
        assert (delta.x, delta.y, delta.theta) == (0.0, 0.0, 0.0)

    def test_dt_bounds(self):
        w = open_world()
        with pytest.raises(ValueError):
            step(w, VelocityCommand(), 0.0)
        with pytest.raises(ValueError):
            step(w, VelocityCommand(), 0.2)

    def test_time_advances(self):
        w = open_world()
        step(w, VelocityCommand(), 0.05)
        assert w.time == pytest.approx(0.05)


class TestBodyDelta:
    def test_round_trip_with_compose(self):
        a = Pose2D(1.0, 2.0, 0.7)
        b = Pose2D(1.5, 1.8, -0.2)
        d = body_delta(a, b)
        c = compose(a, d)
        assert (c.x, c.y) == (pytest.approx(b.x), pytest.approx(b.y))
        assert c.theta == pytest.approx(b.theta)


class TestScenario:
    def test_parse_kinds(self):
        text = """
        # demo
        0.0 cmd 0.5 0 0
        1.0 obstacle box off
        2.0 button start
        3.0 goto marker1
        """
        events = parse_scenario(text)
        assert [e.kind for e in events] == ["cmd", "obstacle", "button", "goto"]
        assert events[1].args == ("box", False)

    def test_parse_errors_carry_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_scenario("0 cmd 0 0 0\n1 obstacle box maybe\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_scenario("0 warp 1 2\n")

    def test_events_sorted_by_time(self):
        events = parse_scenario("2 button b\n1 button a\n")
        assert [e.args[0] for e in events] == ["a", "b"]

    def test_run_scenario_applies_commands(self):
        w = open_world()
        events = parse_scenario("0 cmd 0.5 0 0\n1 cmd 0 0 0\n2 button stop\n")
        log = run_scenario(w, events, duration=2.0)
        assert w.robot.x == pytest.approx(10.5, abs=0.03)
        assert any(r.event.startswith("button") for r in log)

    def test_run_scenario_toggles_obstacle(self):
        w = open_world()
        w.obstacles = [Obstacle("box", "disk", (10.6, 10.0, 0.2))]
        events = parse_scenario("0 obstacle box off\n0 cmd 0.5 0 0\n")
        run_scenario(w, events, duration=2.0)
        assert w.robot.x > 10.6  # drove through the removed box

    def test_goto_without_navigator_rejected(self):
        w = open_world()
        with pytest.raises(ValueError, match="goto"):
            run_scenario(w, parse_scenario("0 goto m1\n"), duration=1.0)

    def test_scan_sink_receives_merged(self):
        w = open_world()
        got = []
        run_scenario(w, [], duration=0.5, sense_every=5,
                     scan_sink=lambda t, s: got.append((t, s.frame)))
        assert got and all(f == ScanFrame.MERGED for _, f in got)

    def test_log_csv_format(self, tmp_path):
        w = open_world()
        log = run_scenario(w, parse_scenario("0 cmd 0.1 0 0\n"), duration=0.1)
        p = tmp_path / "run.csv"
        write_log(log, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "t,x,y,theta,odom_dx,odom_dy,odom_dtheta,event"
        assert len(lines) == len(log) + 1


class TestDeterminism:
    def test_identical_seeded_runs(self):
        def run():
            w = open_world(noise=NoiseModel(0.05, 0.05, 0.01, rng_seed=4))
            w.obstacles = [Obstacle("d", "disk", (12.0, 10.0, 0.5))]
            events = parse_scenario("0 cmd 0.4 0 0.2\n")
            return run_scenario(w, events, duration=2.0, dt=0.05)

        a, b = run(), run()
        assert [r.csv() for r in a] == [r.csv() for r in b]

    def test_different_seeds_differ(self):
        def run(seed):
            w = open_world(noise=NoiseModel(0.05, 0.05, 0.0, rng_seed=seed))
            return run_scenario(w, parse_scenario("0 cmd 0.4 0 0\n"), duration=1.0)

        a = [r.odom.x for r in run(1)]
        b = [r.odom.x for r in run(2)]
        assert a != b


# --- oracles: the dense sampled march and the cell-loop collision check that
# the clearance-field versions in omninav.sim replace, kept verbatim ---

def oracle_grid_raycast(grid: OccupancyGrid, ox: float, oy: float, angles: np.ndarray,
                        max_range: float) -> np.ndarray:
    """Sampled ray march against OCCUPIED static cells; inf where no hit."""
    step = grid.resolution / 2.0
    n_steps = int(max_range / step) + 1
    s = np.arange(1, n_steps + 1) * step
    cos_a = np.cos(angles)[:, None]
    sin_a = np.sin(angles)[:, None]
    xs = ox + cos_a * s[None, :]
    ys = oy + sin_a * s[None, :]
    cols = np.floor((xs - grid.origin.x) / grid.resolution).astype(int)
    rows = np.floor((ys - grid.origin.y) / grid.resolution).astype(int)
    inb = (cols >= 0) & (cols < grid.width) & (rows >= 0) & (rows < grid.height)
    occ = np.zeros(cols.shape, dtype=bool)
    occ[inb] = grid.cells[rows[inb], cols[inb]] == OCCUPIED
    hit_any = occ.any(axis=1)
    first = np.where(hit_any, occ.argmax(axis=1), 0)
    dist = np.where(hit_any, s[first], np.inf)
    return dist


def oracle_collides(world: World, x: float, y: float) -> bool:
    """Robot disk vs static cells and active full-footprint obstacles."""
    g = world.grid
    r = world.robot_radius
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


def oracle_raycast(world, ox, oy, angles, max_range, sensor_height):
    dist = oracle_grid_raycast(world.grid, ox, oy, angles, max_range)
    for ob in world.obstacles:
        if not (ob.active and ob.z_min <= sensor_height <= ob.z_max):
            continue
        if ob.kind == "disk":
            d = _disk_raycast(ox, oy, angles, *ob.params)
        else:
            d = _segment_raycast(ox, oy, angles, *ob.params)
        dist = np.minimum(dist, d)
    return dist


def oracle_scan(world, center_bearing, fov, n_points, range_min, range_max, height, frame,
                noisy):
    inc = fov / (n_points - 1)
    bearings = np.linspace(-fov / 2.0, fov / 2.0, n_points)
    angles = world.robot.theta + center_bearing + bearings
    dist = oracle_raycast(world, world.robot.x, world.robot.y, angles, range_max, height)
    if noisy and world.noise.range_std > 0:
        dist = dist + world.rng.normal(0.0, world.noise.range_std, size=dist.shape)
    ranges = np.where((dist >= range_min) & (dist <= range_max), dist, INVALID_RANGE)
    return LaserScan(-fov / 2.0, fov / 2.0, inc, range_min, range_max, ranges, frame)


def oracle_sense_merged(world, noisy):
    b, d = world.base_cfg, world.depth_cfg
    base = [oracle_scan(world, c, b.fov_per_laser, b.points_per_laser, b.range_min, b.range_max,
                        b.mount_height, ScanFrame.BASE, noisy) for c in b.centers]
    depth = oracle_scan(world, 0.0, d.fov, d.points, d.range_min, d.range_max, d.mount_height,
                        ScanFrame.DEPTH, noisy)
    body = [transform_scan_to_body(s, c) for s, c in zip(base, b.centers)]
    return merge_scans(combine_base_scans(body, b), depth)


@st.composite
def static_grids(draw):
    """Small grids with non-zero origins, assorted resolutions, and OCCUPIED
    and UNKNOWN cells at random densities (all-free grids included)."""
    w, h = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    res = draw(st.one_of(st.sampled_from([0.05, 0.1, 0.037]), st.floats(0.01, 0.3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_occ, p_unknown = draw(st.sampled_from([0.0, 0.02, 0.1, 0.4])), draw(st.floats(0.0, 0.3))
    u = rng.uniform(size=(h, w))
    cells = np.where(u < p_occ, OCCUPIED, np.where(u < p_occ + p_unknown, UNKNOWN, FREE))
    origin = Pose2D(draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)), 0.0)
    return OccupancyGrid(w, h, res, origin, cells.astype(np.int8))


def grid_point(draw, g: OccupancyGrid, margin: float):
    """A point inside, outside or exactly on an edge of the grid."""
    frac = st.one_of(st.floats(-margin, 1.0 + margin), st.sampled_from([0.0, 1.0]))
    return (g.origin.x + draw(frac) * g.width * g.resolution,
            g.origin.y + draw(frac) * g.height * g.resolution)


class TestClearanceOracles:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_grid_raycast_matches_dense_march(self, data):
        g = data.draw(static_grids())
        ox, oy = grid_point(data.draw, g, margin=1.0)
        angles = np.array(data.draw(st.lists(
            st.one_of(st.floats(-50.0, 50.0),
                      st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2])),
            min_size=1, max_size=40)))
        max_range = data.draw(st.one_of(st.floats(0.0, 6.0), st.floats(0.0, g.resolution / 2.0)))
        world = World(grid=g)
        expected = oracle_grid_raycast(g, ox, oy, angles, max_range)
        got = _grid_raycast(world, ox, oy, angles, max_range)
        assert np.array_equal(got, expected)
        # per-beam ranges, as one scan over several sensors passes them
        ranges = np.array(data.draw(st.lists(st.floats(0.0, 6.0), min_size=len(angles),
                                             max_size=len(angles))))
        per_beam = np.array([oracle_grid_raycast(g, ox, oy, angles[i:i + 1], r)[0]
                             for i, r in enumerate(ranges)])
        assert np.array_equal(_grid_raycast(world, ox, oy, angles, ranges), per_beam)

    @pytest.mark.parametrize("corridor", [False, True])
    def test_grid_raycast_range_sweep_past_a_wall(self, corridor):
        # The end wall's first sample lands before, on and after the beam's
        # last sample, at every offset within an 8-sample block. In the open
        # the march skips up to the wall; down a corridor whose walls are two
        # cells from the beam it skips nothing and checks blocks back to back.
        g = OccupancyGrid(70, 9, 0.05, Pose2D(-0.3, -0.2, 0.0))
        g.cells[:, 60] = OCCUPIED
        if corridor:
            g.cells[2, :] = g.cells[6, :] = OCCUPIED
        else:
            g.cells[2, 40] = OCCUPIED
        world = World(grid=g)
        angles = np.array([0.0, 0.01, -0.02, 0.3, math.pi])
        for ox in [0.0131 * i for i in range(17)] + [1.2]:
            for max_range in np.arange(0.01, 3.5, 0.025):
                want = oracle_grid_raycast(g, ox, 0.0, angles, max_range)
                assert np.array_equal(_grid_raycast(world, ox, 0.0, angles, max_range), want)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_collides_matches_cell_loop(self, data):
        g = data.draw(static_grids())
        world = World(grid=g, robot_radius=g.resolution * data.draw(st.floats(0.2, 8.0)))
        if data.draw(st.booleans()):
            world.obstacles = [
                Obstacle("d", "disk", (g.origin.x + 0.3, g.origin.y + 0.2, 0.1)),
                Obstacle("s", "segment", (g.origin.x, g.origin.y + 0.5, g.origin.x + 1.0,
                                          g.origin.y + 0.6), active=data.draw(st.booleans())),
            ]
        for _ in range(10):
            x, y = grid_point(data.draw, g, margin=0.5)
            assert _collides(world, x, y) == oracle_collides(world, x, y)

    def test_collides_matches_cell_loop_in_lab(self):
        world = worlds.lab_world()
        rng = np.random.default_rng(11)
        for x, y in rng.uniform((-0.5, -0.5), (20.5, 15.5), size=(3000, 2)):
            assert _collides(world, x, y) == oracle_collides(world, x, y)

    def test_sense_merged_matches_oracle_on_lab_poses(self):
        def lab(seed):
            world = worlds.lab_world(noise=NoiseModel(range_std=0.01, rng_seed=seed))
            # one low disk and one wall segment beside the elevated furniture
            world.obstacles += [Obstacle("box", "disk", (4.0, 3.0, 0.2), 0.0, 0.3),
                                Obstacle("panel", "segment", (8.0, 4.0, 9.5, 5.0), 0.0, 2.0)]
            return world

        new, old = lab(5), lab(5)
        rng = np.random.default_rng(300)
        for x, y, th in rng.uniform((0.0, 0.0, -math.pi), (20.0, 15.0, math.pi), size=(300, 3)):
            noisy = bool(rng.integers(2))
            new.robot = old.robot = Pose2D(x, y, th)
            got, want = sense_merged(new, noisy), oracle_sense_merged(old, noisy)
            assert got.ranges == want.ranges
            assert (got.angle_min, got.angle_increment) == (want.angle_min, want.angle_increment)


# --- oracles: `step` as it was before the per-tick collision early-out, with
# the integrate_odometry it called, kept verbatim: one integrate_odometry,
# Pose2D and _collides per sub-step ---

def oracle_integrate_odometry(pose: Pose2D, cmd: VelocityCommand, dt: float) -> Pose2D:
    """Advance a pose by a constant body-frame velocity over dt seconds.

    Uses the exact arc solution when wz != 0 and a straight line otherwise.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    th = pose.theta
    if abs(cmd.wz) < 1e-12:
        dx = cmd.vx * dt
        dy = cmd.vy * dt
        return Pose2D(
            pose.x + dx * math.cos(th) - dy * math.sin(th),
            pose.y + dx * math.sin(th) + dy * math.cos(th),
            th,
        )
    w = cmd.wz
    dth = w * dt
    # body-frame displacement of a constant-twist arc
    sx = (cmd.vx * math.sin(dth) - cmd.vy * (1.0 - math.cos(dth))) / w
    sy = (cmd.vx * (1.0 - math.cos(dth)) + cmd.vy * math.sin(dth)) / w
    return Pose2D(
        pose.x + sx * math.cos(th) - sy * math.sin(th),
        pose.y + sx * math.sin(th) + sy * math.cos(th),
        th + dth,
    )


def oracle_step(world: World, cmd: VelocityCommand, dt: float) -> Pose2D:
    """Advance the world by dt; returns the noisy body-frame odometry delta.

    Motion is truncated at the first colliding sub-step (20 sub-steps per
    tick); rotation is never blocked.
    """
    if not 0.0 < dt <= 0.1:
        raise ValueError("dt must be in (0, 0.1]")
    before = world.robot
    pose = before
    n_sub = 20
    for _ in range(n_sub):
        nxt = oracle_integrate_odometry(pose, cmd, dt / n_sub)
        if _collides(world, nxt.x, nxt.y):
            # let rotation continue in place
            nxt = Pose2D(pose.x, pose.y, nxt.theta)
            if _collides(world, nxt.x, nxt.y):
                pose = Pose2D(pose.x, pose.y, nxt.theta)
                break
        pose = nxt
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


def bits(p: Pose2D) -> tuple[str, str, str]:
    """A pose's floats, told apart down to the sign of zero."""
    return p.x.hex(), p.y.hex(), p.theta.hex()


# a 3 m room at 5 cm with an inner wall at x in [0.5, 0.55), y in [0.0, 1.0),
# one disk and two segments (one of zero length); the disk and the first
# segment may be switched off
DISK = (1.3, 0.4, 0.3)
SEGMENT = (-0.4, 0.9, 0.3, 1.4)
INNER_WALL_X = 0.5


def step_world(noisy: bool, disk_on: bool, segment_on: bool, seed: int) -> World:
    g = OccupancyGrid(60, 60, 0.05, Pose2D(-1.0, -1.0, 0.0))
    g.cells[0, :] = g.cells[-1, :] = g.cells[:, 0] = g.cells[:, -1] = OCCUPIED
    g.cells[20:40, 30] = OCCUPIED
    std = 0.05 if noisy else 0.0
    return World(grid=g, noise=NoiseModel(std, std, 0.0, seed), obstacles=[
        Obstacle("d", "disk", DISK, active=disk_on),
        Obstacle("s", "segment", SEGMENT, active=segment_on),
        Obstacle("p", "segment", (1.5, 1.5, 1.5, 1.5)),
    ])


@st.composite
def step_poses(draw):
    """Anywhere in the room, or at and near the contact distance of a wall,
    the disk or a segment."""
    r = 0.24
    gap = draw(st.one_of(st.just(0.0), st.floats(-0.05, 0.05), st.floats(-1e-9, 1e-9)))
    side = draw(st.sampled_from([-1.0, 1.0]))
    u = draw(st.floats(0.0, 1.0))
    where = draw(st.sampled_from(["room", "wall", "disk", "segment", "outer"]))
    if where == "room":
        x, y = draw(st.floats(-1.0, 2.0)), draw(st.floats(-1.0, 2.0))
    elif where == "wall":
        x, y = INNER_WALL_X + 0.025 + side * (0.025 + r + gap), u
    elif where == "outer":
        x, y = -0.95 + r + gap, -1.0 + 3.0 * u
    elif where == "disk":
        a = 2 * math.pi * u
        cx, cy, rad = DISK
        x, y = cx + (r + rad + gap) * math.cos(a), cy + (r + rad + gap) * math.sin(a)
    else:
        x1, y1, x2, y2 = SEGMENT
        ex, ey = x2 - x1, y2 - y1
        n = math.hypot(ex, ey)
        x = x1 + u * ex - side * ey / n * (r + gap)
        y = y1 + u * ey + side * ex / n * (r + gap)
    theta = draw(st.one_of(
        st.floats(-math.pi, math.pi),
        st.sampled_from([-0.0, 0.0, math.pi, math.nextafter(-math.pi, 0.0),
                         math.nextafter(math.pi, 0.0), -math.pi / 2])))
    return Pose2D(x, y, theta)


def speeds(limit: float):
    return st.one_of(st.just(0.0), st.floats(-limit, limit), st.floats(-1e-12, 1e-12))


class TestStepOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.booleans(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1),
           step_poses(),
           st.lists(st.tuples(speeds(0.8), speeds(0.8), speeds(3.0),
                              st.one_of(st.just(0.05), st.floats(1e-4, 0.1))),
                    min_size=1, max_size=4))
    def test_step_matches_oracle(self, noisy, disk_on, segment_on, seed, start, ticks):
        new = step_world(noisy, disk_on, segment_on, seed)
        old = step_world(noisy, disk_on, segment_on, seed)
        new.robot = old.robot = start
        for vx, vy, wz, dt in ticks:
            cmd = VelocityCommand(vx, vy, wz)
            assert bits(step(new, cmd, dt)) == bits(oracle_step(old, cmd, dt))
            assert bits(new.robot) == bits(old.robot)
            assert new.time.hex() == old.time.hex()
            assert new.rng.bit_generator.state == old.rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(step_poses(), speeds(0.8), speeds(0.8), speeds(3.0),
           st.one_of(st.just(0.0025), st.floats(1e-6, 1.0)))
    def test_integrate_odometry_matches_oracle(self, pose, vx, vy, wz, dt):
        cmd = VelocityCommand(vx, vy, wz)
        assert bits(integrate_odometry(pose, cmd, dt)) == bits(
            oracle_integrate_odometry(pose, cmd, dt))

    def test_step_matches_oracle_through_lab_tour_ticks(self):
        # many ticks along the walls and past the furniture of the lab
        new = worlds.lab_world(noise=NoiseModel(0.02, 0.02, 0.0, 9))
        old = worlds.lab_world(noise=NoiseModel(0.02, 0.02, 0.0, 9))
        rng = np.random.default_rng(17)
        for x, y, th in rng.uniform((0.0, 0.0, -math.pi), (20.0, 15.0, math.pi), size=(300, 3)):
            new.robot = old.robot = Pose2D(x, y, th)
            for vx, vy, wz in rng.uniform((-0.5, -0.5, -1.0), (0.5, 0.5, 1.0), size=(5, 3)):
                cmd = VelocityCommand(vx, vy, wz * (rng.uniform() < 0.7))
                assert bits(step(new, cmd, 0.05)) == bits(oracle_step(old, cmd, 0.05))
                assert bits(new.robot) == bits(old.robot)
        assert new.rng.bit_generator.state == old.rng.bit_generator.state


def assert_scans_equal(got: LaserScan, want: LaserScan) -> None:
    assert got.ranges == want.ranges
    for name in ("angle_min", "angle_max", "angle_increment", "range_min", "range_max",
                 "frame"):
        assert getattr(got, name) == getattr(want, name), name


class TestSensorLayout:
    @pytest.mark.parametrize("base_cfg, depth_cfg", [
        # touching sectors: the beams at +-30 deg land in one combined bin
        (BaseLaserConfig(centers=(0.0, math.radians(60.0), math.radians(-60.0))),
         DepthScanConfig()),
        # a depth field of view wider than the base lasers' span
        (BaseLaserConfig(centers=(0.0, 0.3, -0.3), fov_per_laser=0.2, points_per_laser=5),
         DepthScanConfig(fov=2.5, points=200)),
        # other point counts and range limits
        (BaseLaserConfig(points_per_laser=7, range_max=5.0),
         DepthScanConfig(points=101, range_min=0.3, range_max=3.0)),
    ])
    def test_sense_merged_matches_oracle(self, base_cfg, depth_cfg):
        def lab():
            world = World(grid=worlds.build_lab_map(include_furniture=False),
                          base_cfg=base_cfg, depth_cfg=depth_cfg,
                          noise=NoiseModel(range_std=0.02, rng_seed=4))
            world.obstacles = worlds.furniture_obstacles() + [
                Obstacle("box", "disk", (4.0, 3.0, 0.2), 0.0, 0.3),
                Obstacle("panel", "segment", (8.0, 4.0, 9.5, 5.0), 0.0, 2.0)]
            return world

        new, old = lab(), lab()
        rng = np.random.default_rng(8)
        for x, y, th in rng.uniform((0.0, 0.0, -math.pi), (20.0, 15.0, math.pi), size=(60, 3)):
            new.robot = old.robot = Pose2D(x, y, th)
            assert_scans_equal(sense_merged(new, True), oracle_sense_merged(old, True))
        assert new.rng.bit_generator.state == old.rng.bit_generator.state

    def test_touching_sectors_share_a_bin(self):
        world = World(grid=worlds.empty_grid(), base_cfg=BaseLaserConfig(
            centers=(0.0, math.radians(60.0), math.radians(-60.0))))
        _, sources, _ = world._layout
        base_beams = [set(col[col < 45].tolist()) for col in sources.T]
        assert sorted(map(len, base_beams)).count(2) == 2
