import heapq
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
    cell_center,
    normalize_angle,
    world_to_cell,
)
from omninav import navigate
from omninav.navigate import NO_PATH, Navigator
from omninav.planning import (
    Costmap,
    LocalPlannerConfig,
    MarkerSpec,
    astar,
    at_goal,
    inflate,
    load_markers,
    plan_local,
)
from omninav.sim import World

SQRT2 = math.sqrt(2.0)
NEIGHBORS = [
    (1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
    (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2),
]


def dijkstra_cost(blocked, start, goal):
    """Oracle: plain Dijkstra shortest-path cost over the same move set."""
    h, w = blocked.shape
    dist = {start: 0.0}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in done:
            continue
        if cur == goal:
            return d
        done.add(cur)
        for dc, dr, step in NEIGHBORS:
            nc, nr = cur[0] + dc, cur[1] + dr
            if not (0 <= nc < w and 0 <= nr < h) or blocked[nr, nc]:
                continue
            nd = d + step
            if nd < dist.get((nc, nr), math.inf):
                dist[(nc, nr)] = nd
                heapq.heappush(heap, (nd, (nc, nr)))
    return math.inf


def cell_of(cm, x, y):
    return (math.floor(x / cm.resolution), math.floor(y / cm.resolution))


def oracle_blocks(cm, x, y):
    """Reference implementation: probe every cell of the (2r+1)^2 window
    around (x, y) for an obstacle within the inflation radius."""
    r_cells = int(math.ceil(cm.inflation_radius / cm.resolution))
    c0 = cell_of(cm, x, y)
    for dc in range(-r_cells, r_cells + 1):
        for dr in range(-r_cells, r_cells + 1):
            cell = (c0[0] + dc, c0[1] + dr)
            if cell in cm.obstacles:
                cx, cy = (cell[0] + 0.5) * cm.resolution, (cell[1] + 0.5) * cm.resolution
                if math.hypot(cx - x, cy - y) <= cm.inflation_radius:
                    return True
    return False


def loop_blocks(cm, x, y):
    """Reference implementation of Costmap.blocks for one point: every
    obstacle cell in turn."""
    res, radius = cm.resolution, cm.inflation_radius
    for col, row in cm.obstacles:
        if math.hypot((col + 0.5) * res - x, (row + 0.5) * res - y) <= radius:
            return True
    return False


def oracle_plan_local(path, goal_heading, pose, cm, cfg):
    """Reference implementation of plan_local: one scalar blocks test per
    carrot-segment sample."""
    gx, gy = path[-1]
    dist_goal = math.hypot(gx - pose.x, gy - pose.y)
    if dist_goal <= cfg.pos_tolerance:
        herr = normalize_angle(goal_heading - pose.theta)
        if abs(herr) <= cfg.heading_tolerance:
            return VelocityCommand(0.0, 0.0, 0.0)
        wz = max(-cfg.wz_max, min(cfg.wz_max, cfg.k_angular * herr))
        if abs(wz) < 0.05:
            wz = math.copysign(0.05, herr)
        return VelocityCommand(0.0, 0.0, wz)
    carrot = path[-1]
    for wx, wy in path:
        if math.hypot(wx - pose.x, wy - pose.y) >= cfg.lookahead:
            carrot = (wx, wy)
            break
    seg = math.hypot(carrot[0] - pose.x, carrot[1] - pose.y)
    steps = max(2, int(seg / (cm.resolution / 2.0)))
    for k in range(steps + 1):
        t = k / steps
        if loop_blocks(cm, pose.x + t * (carrot[0] - pose.x), pose.y + t * (carrot[1] - pose.y)):
            return VelocityCommand(0.0, 0.0, 0.0)
    bearing = normalize_angle(math.atan2(carrot[1] - pose.y, carrot[0] - pose.x) - pose.theta)
    if abs(bearing) > cfg.align_threshold:
        wz = max(-cfg.wz_max, min(cfg.wz_max, cfg.k_angular * bearing))
        if abs(wz) < 0.05:
            wz = math.copysign(0.05, bearing)
        return VelocityCommand(0.0, 0.0, wz)
    vx = min(cfg.v_max, cfg.k_linear * dist_goal, cfg.v_max * seg / cfg.lookahead)
    vx *= max(0.2, 1.0 - abs(bearing) / cfg.align_threshold)
    vx = max(vx, 0.02)
    wz = max(-cfg.wz_max, min(cfg.wz_max, cfg.k_angular * bearing))
    return VelocityCommand(vx, 0.0, wz)


def oracle_plan(nav, goal):
    """Reference implementation of Navigator._plan: stamp the costmap cells
    into a copy of the static map and inflate all of it. Returns the plan and
    the blocked mask."""
    grid = nav.map_grid
    overlay = grid.copy()
    for cell in nav.costmap.obstacles:
        cx = (cell[0] + 0.5) * nav.costmap.resolution
        cy = (cell[1] + 0.5) * nav.costmap.resolution
        gcell = world_to_cell(overlay, cx, cy)
        if gcell is not None:
            overlay.cells[gcell[1], gcell[0]] = OCCUPIED
    blocked = inflate(overlay, nav.inflation_radius)
    sc = world_to_cell(grid, nav.world.robot.x, nav.world.robot.y)
    gc = world_to_cell(grid, goal.x, goal.y)
    if sc is None or gc is None or blocked[gc[1], gc[0]]:
        return None, blocked
    if blocked[sc[1], sc[0]]:
        reach = int(1.0 / grid.resolution)
        c0, r0 = max(sc[0] - reach, 0), max(sc[1] - reach, 0)
        rows, cols = np.nonzero(~blocked[r0 : sc[1] + reach + 1, c0 : sc[0] + reach + 1])
        if rows.size == 0:
            return None, blocked
        k = np.argmin((cols + c0 - sc[0]) ** 2 + (rows + r0 - sc[1]) ** 2)
        sc = (int(cols[k]) + c0, int(rows[k]) + r0)
    path, _cost = astar(blocked, sc, gc)
    if path is None:
        return None, blocked
    pts = [cell_center(grid, c, r) for c, r in path]
    pts[-1] = (goal.x, goal.y)
    return pts, blocked


def plan_with_mask(nav, goal):
    """nav._plan(goal), and the blocked mask it hands to A* (None when it
    returns before A*)."""
    masks = []
    real = navigate.astar

    def recording(blocked, start, goal_cell):
        masks.append(blocked.copy())
        return real(blocked, start, goal_cell)

    navigate.astar = recording
    try:
        pts = nav._plan(goal)
    finally:
        navigate.astar = real
    return pts, (masks[0] if masks else None)


def oracle_static_explains(grid, x, y):
    """Reference implementation: scan the 3x3 neighbourhood of the cell
    holding (x, y) for a static OCCUPIED cell."""
    cell = world_to_cell(grid, x, y)
    if cell is None:
        return False
    for dc in (-1, 0, 1):
        for dr in (-1, 0, 1):
            col, row = cell[0] + dc, cell[1] + dr
            if grid.in_bounds(col, row) and grid.cells[row, col] == OCCUPIED:
                return True
    return False


def oracle_insert(cm, merged, pose):
    """Reference implementation of Costmap.update's insertion: one Python
    step per valid beam, in beam order."""
    for i, r in enumerate(merged.ranges):
        if r < 0.0:
            continue
        a = pose.theta + merged.angle(i)
        ex = pose.x + r * math.cos(a)
        ey = pose.y + r * math.sin(a)
        if cm.static_grid is None or not oracle_static_explains(cm.static_grid, ex, ey):
            cm.obstacles.add(cell_of(cm, ex, ey))


def planner_on(grid, robot, inflation_radius=0.4):
    world = World(grid=grid, robot=robot)
    return Navigator(world, {}, inflation_radius=inflation_radius)


def merged_scan(ranges, angle_min=0.0, inc=0.1):
    n = len(ranges)
    return LaserScan(angle_min, angle_min + (n - 1) * inc, inc, 0.05, 4.0,
                     ranges, ScanFrame.MERGED)


class TestMarkers:
    def test_load(self, tmp_path):
        p = tmp_path / "markers.txt"
        p.write_text("# tour markers\nm1 1.0 2.0 0.0 entry point\nm2 3 4 1.57\n")
        markers = load_markers(p)
        assert markers["m1"].goal == Pose2D(1.0, 2.0, 0.0)
        assert markers["m1"].label == "entry point"
        assert markers["m2"].label == ""

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "markers.txt"
        p.write_text("m1 1.0 2.0\n")
        with pytest.raises(ValueError, match=":1:"):
            load_markers(p)


class TestAstar:
    def test_straight_corridor(self):
        blocked = np.zeros((3, 10), dtype=bool)
        path, cost = astar(blocked, (0, 1), (9, 1))
        assert cost == pytest.approx(9.0)
        assert path[0] == (0, 1) and path[-1] == (9, 1)

    def test_diagonal_costs_sqrt2(self):
        blocked = np.zeros((5, 5), dtype=bool)
        _, cost = astar(blocked, (0, 0), (4, 4))
        assert cost == pytest.approx(4 * SQRT2)

    def test_detour_around_wall(self):
        blocked = np.zeros((5, 5), dtype=bool)
        blocked[1:5, 2] = True  # wall with a gap at the top row
        path, cost = astar(blocked, (0, 2), (4, 2))
        assert path is not None
        assert all(not blocked[r, c] for c, r in path)
        assert cost == pytest.approx(dijkstra_cost(blocked, (0, 2), (4, 2)))

    def test_unreachable_returns_none(self):
        blocked = np.zeros((5, 5), dtype=bool)
        blocked[:, 2] = True
        path, cost = astar(blocked, (0, 2), (4, 2))
        assert path is None and cost == math.inf

    def test_blocked_endpoints_rejected(self):
        blocked = np.zeros((3, 3), dtype=bool)
        blocked[0, 0] = True
        with pytest.raises(ValueError):
            astar(blocked, (0, 0), (2, 2))

    def test_path_steps_are_adjacent(self):
        rng = np.random.default_rng(0)
        blocked = rng.uniform(size=(30, 30)) < 0.3
        blocked[0, 0] = blocked[29, 29] = False
        path, _ = astar(blocked, (0, 0), (29, 29))
        if path is not None:
            for (c1, r1), (c2, r2) in zip(path, path[1:]):
                assert max(abs(c1 - c2), abs(r1 - r2)) == 1

    def test_matches_dijkstra_on_random_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            blocked = rng.uniform(size=(40, 40)) < 0.35
            start = (int(rng.integers(40)), int(rng.integers(40)))
            goal = (int(rng.integers(40)), int(rng.integers(40)))
            if blocked[start[1], start[0]] or blocked[goal[1], goal[0]]:
                continue
            _, cost = astar(blocked, start, goal)
            assert cost == pytest.approx(dijkstra_cost(blocked, start, goal), abs=1e-9)


class TestInflate:
    def test_disk_radius(self):
        g = OccupancyGrid(21, 21, 0.1)
        g.cells[10, 10] = OCCUPIED
        blocked = inflate(g, 0.3)
        assert blocked[10, 10]
        assert blocked[10, 13] and not blocked[10, 14]
        assert blocked[12, 12]  # sqrt(8) cells ~ 0.28 m
        assert not blocked[13, 13]

    def test_unknown_is_blocked(self):
        g = OccupancyGrid(3, 3, 0.1)
        g.cells[1, 1] = UNKNOWN
        assert inflate(g, 0.0)[1, 1]

    def test_zero_radius_no_dilation(self):
        g = OccupancyGrid(3, 3, 0.1)
        g.cells[1, 1] = OCCUPIED
        blocked = inflate(g, 0.0)
        assert blocked.sum() == 1


class TestPlanGlobal:
    """Navigator._plan, the one global planner."""

    def test_waypoints_end_at_goal(self):
        g = OccupancyGrid(40, 40, 0.1)
        nav = planner_on(g, Pose2D(0.52, 0.58, 0), inflation_radius=0.0)
        pts = nav._plan(Pose2D(3.12, 3.48, 0))
        assert pts[0] == cell_center(g, 5, 5)
        assert pts[-1] == (3.12, 3.48)

    def test_outside_map_rejected(self):
        g = OccupancyGrid(10, 10, 0.1)
        nav = planner_on(g, Pose2D(0.5, 0.5, 0))
        nav.markers["off"] = MarkerSpec("off", Pose2D(-1.0, 0.0, 0.0))
        assert nav.navigate_to_marker("off") == NO_PATH

    @pytest.mark.parametrize("robot", [
        Pose2D(2.25, 1.05, 0),  # beside a wall
        Pose2D(2.25, 3.25, 0),  # off the end of a wall
        Pose2D(0.15, 4.55, 0),  # against the map edge, window clipped
    ])
    def test_pinched_start_moves_to_nearest_unblocked(self, robot):
        g = OccupancyGrid(60, 60, 0.1)
        g.cells[0:31, 20] = OCCUPIED
        g.cells[:, 0] = OCCUPIED
        nav = planner_on(g, robot)
        blocked = inflate(g, nav.inflation_radius)
        sc, gc = world_to_cell(g, robot.x, robot.y), (50, 50)
        assert blocked[sc[1], sc[0]]
        reach = int(1.0 / g.resolution)
        best = min(
            (c - sc[0]) ** 2 + (r - sc[1]) ** 2
            for c in range(60) for r in range(60)
            if max(abs(c - sc[0]), abs(r - sc[1])) <= reach and not blocked[r, c]
        )
        pts = nav._plan(Pose2D(*cell_center(g, *gc), 0))
        c, r = world_to_cell(g, *pts[0])
        assert (c - sc[0]) ** 2 + (r - sc[1]) ** 2 == best
        assert not blocked[r, c]

    def test_fully_blocked_start_window_is_no_path(self):
        g = OccupancyGrid(60, 60, 0.1)
        g.cells[0:30, 0:30] = OCCUPIED
        nav = planner_on(g, Pose2D(1.05, 1.05, 0))
        nav.markers["far"] = MarkerSpec("far", Pose2D(5.0, 5.0, 0.0))
        assert nav.navigate_to_marker("far") == NO_PATH

    @pytest.mark.parametrize("res", [0.05, 0.1])
    def test_costmap_patch_covers_the_whole_disk(self, res):
        # 0.3 / res falls just short of an integer and inflate() rounds it up:
        # the patch must still hold the disk's outer ring
        g = OccupancyGrid(40, 40, res)
        nav = planner_on(g, Pose2D(0.5 * res, 0.5 * res, 0), inflation_radius=0.3)
        nav.costmap.obstacles = {(20, 20)}
        goal = Pose2D(*cell_center(g, 39, 0), 0.0)
        pts, mask = plan_with_mask(nav, goal)
        want, want_mask = oracle_plan(nav, goal)
        assert want_mask[20, 20 + round(0.3 / res)]
        assert pts == want
        assert np.array_equal(mask, want_mask)

    @settings(max_examples=250, deadline=None)
    @given(
        st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.02, 0.1]), st.sampled_from([0.05, 0.1, 0.13]),
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
        st.one_of(st.sampled_from([0.0, 0.25, 0.3, 0.4]), st.floats(0.0, 0.5)),
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=25),
        st.randoms(use_true_random=False),
        st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    )
    def test_matches_overlay_oracle(self, w, h, seed, density, res, ox, oy, radius, offsets,
                                    shuffler, start, goal):
        """Static inflation once plus an inflated costmap patch gives the mask,
        and so the plan, of inflating the stamped map: UNKNOWN cells, origins
        off the resolution, costmap cells off the map and on its edge, and
        any set insertion order."""
        cells = np.random.default_rng(seed).choice([FREE, OCCUPIED, UNKNOWN], size=(h, w),
                                                   p=[1.0 - density, density / 2, density / 2])
        g = OccupancyGrid(w, h, res, Pose2D(ox, oy, 0.0), cells)
        # costmap cells from 4 cells off each side of the map, over its edges, to inside
        base = (math.floor(ox / res), math.floor(oy / res))
        obstacles = [(base[0] + dc % (w + 8) - 4, base[1] + dr % (h + 8) - 4)
                     for dc, dr in offsets]
        nav = planner_on(g, Pose2D(ox, oy, 0.0), inflation_radius=radius)
        nav.costmap.obstacles = set(obstacles)
        _, mask = oracle_plan(nav, Pose2D(ox, oy, 0.0))
        # start and goal on cells the oracle leaves free, so both reach A*
        rows, cols = np.nonzero(~mask)
        reaches_astar = rows.size > 0
        if not reaches_astar:
            rows, cols = np.array([0]), np.array([0])
        robot, goal = (Pose2D(*cell_center(g, cols[k], rows[k]), 0.0)
                       for k in (int(f * (rows.size - 1)) for f in (start, goal)))
        results = []
        for _ in range(2):
            shuffler.shuffle(obstacles)
            nav = planner_on(g, robot, inflation_radius=radius)
            nav.costmap.obstacles = set(obstacles)
            results.append(plan_with_mask(nav, goal))
        want, want_mask = oracle_plan(nav, goal)
        for pts, mask in results:
            assert pts == want
            if reaches_astar:
                assert np.array_equal(mask, want_mask)


class TestCostmap:
    def test_insert_records_bearing(self):
        cm = Costmap(0.05)
        cm.update(merged_scan([1.0]), Pose2D(0, 0, 0), math.radians(29))
        assert cm.obstacles == {(20, 0)}

    def test_bearing_wraps_like_normalize_angle(self):
        # beams at -pi, 0 and pi: the two at +-pi land in different cells
        cm = Costmap(0.05)
        scan = merged_scan([1.0, 1.0, 1.0], angle_min=-math.pi, inc=math.pi)
        cm.update(scan, Pose2D(0, 0, 0), -1.0)
        assert cm.obstacles == {(-20, -1), (20, 0), (-20, 0)}

    def test_no_clear_when_not_facing(self):
        cm = Costmap(0.05)
        cm.update(merged_scan([1.0]), Pose2D(0, 0, 0), math.radians(29))
        # turn away; obstacle gets no support but sits outside the cone
        for _ in range(50):
            cm.update(merged_scan([INVALID_RANGE]), Pose2D(0, 0, math.pi), math.radians(29))
        assert len(cm.obstacles) == 1

    def test_clear_when_facing_without_support(self):
        cm = Costmap(0.05)
        cm.update(merged_scan([1.0]), Pose2D(0, 0, 0), math.radians(29))
        cm.update(merged_scan([INVALID_RANGE]), Pose2D(0, 0, 0), math.radians(29))
        assert len(cm.obstacles) == 0

    def test_supported_cell_not_cleared(self):
        cm = Costmap(0.05)
        cm.update(merged_scan([1.0]), Pose2D(0, 0, 0), math.radians(29))
        cm.update(merged_scan([1.0]), Pose2D(0, 0, 0), math.radians(29))
        assert len(cm.obstacles) == 1

    def test_window_dropout(self):
        cm = Costmap(0.05, window_size=6.0)
        cm.update(merged_scan([1.0]), Pose2D(0, 0, 0), math.radians(29))
        # moving 4 m away puts the cell outside the 3 m half-window
        cm.update(merged_scan([INVALID_RANGE]), Pose2D(-4.0, 0, math.pi), math.radians(29))
        assert len(cm.obstacles) == 0

    def test_static_map_returns_not_inserted(self):
        g = OccupancyGrid(40, 40, 0.05)
        g.cells[20, 20] = OCCUPIED  # wall cell at (1.0-1.05, 1.0-1.05)
        cm = Costmap(0.05, static_grid=g)
        scan = merged_scan([math.hypot(1.02, 1.02)], angle_min=math.atan2(1.02, 1.02))
        cm.update(scan, Pose2D(0, 0, 0), math.radians(29))
        assert len(cm.obstacles) == 0

    def test_requires_merged_frame(self):
        cm = Costmap(0.05)
        scan = LaserScan(0.0, 0.0, 1.0, 0.05, 3.0, [1.0], ScanFrame.BASE)
        with pytest.raises(ValueError):
            cm.update(scan, Pose2D(), math.radians(29))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([0.05, 0.1, 0.13]),
        st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
        st.sets(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), max_size=30),
        st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=1,
                 max_size=20),
    )
    def test_blocks_on_arrays_matches_point_loop(self, res, radius, cells, points):
        cm = Costmap(res, inflation_radius=radius)
        cm.obstacles = cells
        xs, ys = np.array(points).T
        got = cm.blocks(xs, ys)
        assert type(got) is bool
        assert got == any(loop_blocks(cm, x, y) for x, y in points)
        for x, y in points:
            assert cm.blocks(x, y) is loop_blocks(cm, x, y)

    def test_blocks_settles_hypot_ties_like_math_hypot(self):
        # a radius equal to math.hypot of the offset: np.hypot is one ulp off on
        # some of these, and blocks() must still decide as math.hypot does
        rng = np.random.default_rng(16)
        res = 0.05
        ties = 0
        for x, y in rng.uniform(-1.0, 1.0, size=(3000, 2)):
            dx, dy = 0.5 * res - x, 0.5 * res - y
            ties += np.hypot(dx, dy) != math.hypot(dx, dy)
            for radius in (math.hypot(dx, dy), np.nextafter(math.hypot(dx, dy), 0.0)):
                cm = Costmap(res, inflation_radius=radius)
                cm.obstacles = {(0, 0)}
                assert cm.blocks(np.array([x]), np.array([y])) is loop_blocks(cm, x, y)
        assert ties > 0

    def test_blocks_inflation_disk(self):
        cm = Costmap(0.05, inflation_radius=0.3)
        cm.update(merged_scan([1.0]), Pose2D(0, 0, 0), math.radians(29))
        assert cm.blocks(1.0, 0.0)
        assert cm.blocks(0.75, 0.0)
        assert not cm.blocks(0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([0.05, 0.1, 0.13]),
        st.floats(0.0, 0.5),
        st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), max_size=30),
        st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=1,
                 max_size=20),
    )
    def test_blocks_matches_window_oracle(self, res, radius, cells, points):
        cm = Costmap(res, inflation_radius=radius)
        cm.obstacles = set(cells)
        for x, y in points:
            assert cm.blocks(x, y) == oracle_blocks(cm, x, y)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1),
        st.sampled_from([0.05, 0.1, 0.13]),
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
        st.lists(st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2)), min_size=1,
                 max_size=20),
    )
    def test_static_explains_matches_neighbourhood_oracle(self, w, h, seed, res, ox, oy,
                                                          fractions):
        rng = np.random.default_rng(seed)
        cells = rng.choice([FREE, OCCUPIED, UNKNOWN], size=(h, w), p=[0.7, 0.15, 0.15])
        g = OccupancyGrid(w, h, res, Pose2D(ox, oy, 0.0), cells)
        cm = Costmap(res, static_grid=g)
        xs = [ox + fx * w * res for fx, _ in fractions]
        ys = [oy + fy * h * res for _, fy in fractions]
        got = cm._static_explains(np.array(xs), np.array(ys))
        assert got.tolist() == [oracle_static_explains(g, x, y) for x, y in zip(xs, ys)]

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([0.05, 0.1, 0.13]),
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-math.pi, math.pi)),
        st.floats(-7.0, 7.0), st.floats(0.01, 0.5),
        st.lists(st.one_of(st.just(INVALID_RANGE), st.floats(0.0, 4.0)), min_size=1,
                 max_size=40),
        st.sets(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), max_size=10),
        st.one_of(st.none(), st.tuples(st.integers(0, 2**32 - 1), st.floats(-3.0, 0.0),
                                       st.floats(-3.0, 0.0))),
    )
    def test_update_inserts_like_beam_loop_oracle(self, res, pose, angle_min, inc, ranges,
                                                  existing, static):
        g = None
        if static is not None:
            seed, ox, oy = static
            cells = np.random.default_rng(seed).choice([FREE, OCCUPIED], size=(50, 50),
                                                       p=[0.8, 0.2])
            g = OccupancyGrid(50, 50, 0.1, Pose2D(ox, oy, 0.0), cells)
        scan = merged_scan(ranges, angle_min=angle_min, inc=inc)
        pose = Pose2D(*pose)
        # a huge window and an empty facing cone: update() only inserts
        cm = Costmap(res, window_size=1e6, static_grid=g)
        cm.obstacles = set(existing)
        cm.update(scan, pose, -1.0)
        want = Costmap(res, window_size=1e6, static_grid=g)
        want.obstacles = set(existing)
        oracle_insert(want, scan, pose)
        assert cm.obstacles == want.obstacles


class TestPlanLocal:
    def setup_method(self):
        self.cm = Costmap(0.05)
        self.cfg = LocalPlannerConfig()

    def test_goal_reached_zero_command(self):
        cmd = plan_local([(0.0, 0.0)], 0.0, Pose2D(0.02, 0.0, 0.0), self.cm, self.cfg)
        assert (cmd.vx, cmd.vy, cmd.wz) == (0.0, 0.0, 0.0)

    def test_final_heading_rotation(self):
        cmd = plan_local([(0.0, 0.0)], math.pi / 2, Pose2D(0.0, 0.0, 0.0), self.cm, self.cfg)
        assert cmd.vx == 0.0 and cmd.wz > 0

    def test_rotate_before_driving(self):
        cmd = plan_local([(0.0, 2.0)], 0.0, Pose2D(0.0, 0.0, 0.0), self.cm, self.cfg)
        assert cmd.vx == 0.0 and cmd.wz > 0

    def test_drive_when_aligned(self):
        cmd = plan_local([(2.0, 0.0)], 0.0, Pose2D(0.0, 0.0, 0.0), self.cm, self.cfg)
        assert cmd.vx > 0 and cmd.vy == 0.0

    def test_blocked_carrot_zero_command(self):
        self.cm.update(merged_scan([0.8]), Pose2D(0, 0, 0), math.radians(29))
        cmd = plan_local([(2.0, 0.0)], 0.0, Pose2D(0.0, 0.0, 0.0), self.cm, self.cfg)
        assert (cmd.vx, cmd.vy, cmd.wz) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("cell", [(-1, -1), (20, 0)])
    def test_segment_ends_are_checked(self, cell):
        # radius 0.04 around the cell center reaches the pose's sample (-1, -1)
        # or the carrot's (20, 0) and no other sample, 0.025 m apart
        cm = Costmap(0.05, inflation_radius=0.04)
        cm.obstacles = {cell}
        cmd = plan_local([(1.0, 0.0)], 0.0, Pose2D(0.0, 0.0, 0.0), cm, self.cfg)
        assert (cmd.vx, cmd.vy, cmd.wz) == (0.0, 0.0, 0.0)
        cm.obstacles = set()
        assert plan_local([(1.0, 0.0)], 0.0, Pose2D(0.0, 0.0, 0.0), cm, self.cfg).vx > 0

    def test_speed_within_limits(self):
        cmd = plan_local([(5.0, 0.0)], 0.0, Pose2D(0.0, 0.0, 0.0), self.cm, self.cfg)
        assert 0 < cmd.vx <= self.cfg.v_max

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            plan_local([], 0.0, Pose2D(), self.cm, self.cfg)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([0.05, 0.1]),
        st.one_of(st.just(0.0), st.floats(0.0, 0.4)),
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-math.pi, math.pi)),
        st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=1, max_size=4),
        st.floats(-math.pi, math.pi),
        st.sets(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=20),
    )
    def test_matches_per_sample_oracle(self, res, radius, pose, path, goal_heading, cells):
        cm = Costmap(res, inflation_radius=radius)
        cm.obstacles = cells
        pose = Pose2D(*pose)
        cmd = plan_local(path, goal_heading, pose, cm, self.cfg)
        assert cmd == oracle_plan_local(path, goal_heading, pose, cm, self.cfg)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(-math.pi, math.pi),
        st.floats(-5, 5), st.floats(-5, 5), st.floats(-math.pi, math.pi),
    )
    def test_vy_always_zero(self, px, py, pth, gx, gy, gth):
        cmd = plan_local([(gx, gy)], gth, Pose2D(px, py, pth), self.cm, self.cfg)
        assert cmd.vy == 0.0


class TestAtGoal:
    def test_tolerances(self):
        cfg = LocalPlannerConfig()
        assert at_goal(Pose2D(0.05, 0.0, math.radians(3)), Pose2D(), cfg)
        assert not at_goal(Pose2D(0.2, 0.0, 0.0), Pose2D(), cfg)
        assert not at_goal(Pose2D(0.0, 0.0, math.radians(10)), Pose2D(), cfg)
