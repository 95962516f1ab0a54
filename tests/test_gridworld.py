import heapq
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.ndimage
import scipy.sparse
import scipy.sparse.csgraph

from toponav import gridworld
from toponav.errors import InvalidInput, InvalidMap, InvalidPose
from toponav.fixtures import apartment_map, generate_rooms_map, two_room_map
from toponav.gridworld import (
    AgentState,
    ControllerGains,
    GridMap,
    SensorConfig,
    VelocityCmd,
    co_visible,
    feedback_control,
    raycast,
    raycast_scan,
    render_ascii,
    sample_free_pose,
    shortest_feasible_path,
    staircase_length,
    step_agent,
)
from toponav.se2 import Pose2D, wrap_angle

RES = 0.1


def empty_room(width=10.0, height=10.0, res=RES):
    nx, ny = int(round(width / res)), int(round(height / res))
    occ = np.zeros((ny, nx), dtype=bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    return GridMap(res, occ)


def with_sensor(grid, sensor):
    """The same map and robot radius, sensing through `sensor`."""
    return GridMap(grid.resolution, grid.occupied, grid.robot_radius, sensor)


def room_with_column_wall(x_wall, width=12.0, height=10.0, res=RES, gap=None):
    """Full-height wall one cell thick at x_wall; optional (y0, y1) gap."""
    grid = empty_room(width, height, res)
    occ = grid.occupied.copy()
    occ.setflags(write=True)
    ix = int(round(x_wall / res))
    occ[:, ix] = True
    if gap is not None:
        j0, j1 = int(round(gap[0] / res)), int(round(gap[1] / res))
        occ[j0:j1, ix] = False
    return GridMap(res, occ)


def hand_dijkstra(passable, src, dst, res):
    """Independent 8-connected shortest path for cross-checking."""
    ny, nx = passable.shape
    dist = {src: 0.0}
    pq = [(0.0, src)]
    while pq:
        d, (ix, iy) = heapq.heappop(pq)
        if (ix, iy) == dst:
            return d
        if d > dist.get((ix, iy), math.inf):
            continue
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                jx, jy = ix + dx, iy + dy
                if not (0 <= jx < nx and 0 <= jy < ny) or not passable[jy, jx]:
                    continue
                nd = d + (res * math.sqrt(2) if dx and dy else res)
                if nd < dist.get((jx, jy), math.inf):
                    dist[(jx, jy)] = nd
                    heapq.heappush(pq, (nd, (jx, jy)))
    return math.inf


class TestGridMap:
    def test_open_border_rejected(self):
        occ = np.zeros((5, 5), dtype=bool)
        with pytest.raises(InvalidMap):
            GridMap(0.1, occ)

    @pytest.mark.parametrize("resolution", [0.0, -0.1, math.nan, math.inf])
    def test_resolution_must_be_positive_and_finite(self, resolution):
        with pytest.raises(InvalidMap):
            GridMap(resolution, np.ones((5, 5), dtype=bool))

    @pytest.mark.parametrize("shape", [(2, 5), (5, 2), (9,), (3, 3, 3)])
    def test_grid_must_be_2d_and_at_least_three_cells_each_way(self, shape):
        with pytest.raises(InvalidMap):
            GridMap(0.1, np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("x, y", [(-1e-9, 5.0), (10.0, 5.0), (5.0, -1e-9), (5.0, 10.0),
                                      (math.nan, 5.0), (5.0, math.inf)])
    def test_a_point_off_the_map_is_not_in_bounds_nor_free(self, x, y):
        # The map covers [0, size) on each axis; its far edges are not on it.
        g = empty_room()
        assert not g.in_bounds(x, y) and not g.cell_free(x, y)
        with pytest.raises(InvalidPose):
            g.require_free(x, y)

    def test_require_free_refuses_a_wall_cell_only(self):
        g = room_with_column_wall(5.0)
        g.require_free(4.95, 3.0)
        g.require_free(5.15, 3.0)
        for x in (5.0, 5.05, 0.05):
            assert g.in_bounds(x, 3.0) and not g.cell_free(x, 3.0)
            with pytest.raises(InvalidPose):
                g.require_free(x, 3.0)

    def test_cell_of(self):
        g = empty_room()
        assert g.cell_of(0.05, 0.05) == (0, 0)
        assert g.cell_of(0.1, 0.25) == (1, 2)

    def test_rooms_map_is_deterministic_and_connected(self):
        g1 = generate_rooms_map(seed=5)
        g2 = generate_rooms_map(seed=5)
        assert np.array_equal(g1.occupied, g2.occupied)
        g3 = generate_rooms_map(seed=6)
        assert not np.array_equal(g1.occupied, g3.occupied)
        # Every room center reaches every other through the doors.
        centers = [Pose2D(2.5, 2.0), Pose2D(7.5, 2.0), Pose2D(2.5, 6.0), Pose2D(7.5, 6.0)]
        for i, a in enumerate(centers):
            for b in centers[i + 1 :]:
                assert math.isfinite(shortest_feasible_path(g1, a, b))


def reference_raycast(grid, x0, y0, angles, max_range):
    """Classic cell stepping, one ray at a time: advance to the nearer next
    gridline, x before y at a tie, until an occupied cell or max_range.
    Crossing parameters use raycast's formulas, so ranges match bit for bit."""
    res = grid.resolution
    ix0, iy0 = grid.cell_of(x0, y0)

    def crossing(p0, i0, d, k):
        if d == 0.0:
            return math.inf
        line = (i0 + 1 + k) * res if d > 0.0 else (i0 - k) * res
        return (line - p0) * (1.0 / d)

    out = []
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    for dx, dy in zip(np.cos(angles), np.sin(angles)):
        ix, iy, kx, ky = ix0, iy0, 0, 0
        while True:
            tx, ty = crossing(x0, ix0, dx, kx), crossing(y0, iy0, dy, ky)
            if tx <= ty:
                t, ix, kx = tx, ix + (1 if dx > 0.0 else -1), kx + 1
            else:
                t, iy, ky = ty, iy + (1 if dy > 0.0 else -1), ky + 1
            if t > max_range:
                out.append(float(max_range))
                break
            if grid.occupied[iy, ix]:
                out.append(t)
                break
    return np.array(out)


def is_visible(grid, from_pose, target_xy):
    """Line-of-sight test through the map's sensor: target within the view
    cone and range, and unoccluded.  co_visible with a min_overlap that is
    not positive must equal it wherever the target's cell is free."""
    sensor = grid.sensor
    tx, ty = float(target_xy[0]), float(target_xy[1])
    d = math.hypot(tx - from_pose.x, ty - from_pose.y)
    if d < 1e-12:
        return True
    if d > sensor.max_range:
        return False
    bearing = math.atan2(ty - from_pose.y, tx - from_pose.x)
    if abs(wrap_angle(bearing - from_pose.theta)) > sensor.fov / 2.0 + 1e-12:
        return False
    # Cast only as far as the target: an unoccluded ray returns its cap d.
    r = gridworld.raycast(grid, from_pose.x, from_pose.y, [bearing], d)
    return bool(r[0] + 1e-9 >= d)


# co_visible's allowance for a ray toward an impact point on a cell boundary.
CAST_TOL = 0.1 * math.sqrt(2.0) + 1e-9


def box_holds_wall(grid, x, y, bearing, reach, *points):
    """Whether an occupied cell meets the box around (x, y), the point at
    reach along each bearing (at (x, y) where reach is not positive) and
    the points, widened by 1e-6 m: read off the occupancy array directly."""
    length = np.maximum(reach, 0.0)
    xs = np.concatenate([[x], x + length * np.cos(bearing), [p[0] for p in points]])
    ys = np.concatenate([[y], y + length * np.sin(bearing), [p[1] for p in points]])
    res = grid.resolution
    # A box that reaches off the map takes in the border there.
    cols = slice(max(math.floor((xs.min() - 1e-6) / res), 0),
                 math.floor((xs.max() + 1e-6) / res) + 1)
    rows = slice(max(math.floor((ys.min() - 1e-6) / res), 0),
                 math.floor((ys.max() + 1e-6) / res) + 1)
    return bool(grid.occupied[rows, cols].any())


def directed_overlap(grid, src_scan, dst):
    """Fraction of src_scan's impact points co-visible from dst."""
    bearing, dist = gridworld._overlap_rays(grid, src_scan, dst)
    if not len(dist):
        return 0.0
    # Each ray only has to reach its impact point: a ray cast no further
    # than the farthest one returns its cap, which passes the seen test,
    # exactly when a full-range ray would pass it.
    r = gridworld.raycast(grid, dst.x, dst.y, bearing, min(grid.sensor.max_range, dist.max()))
    # The impact point sits on its cell's boundary; an unobstructed ray from
    # dst enters that cell no more than one cell diagonal early.
    tol = grid.resolution * math.sqrt(2.0) + 1e-9
    return int((r >= dist - tol).sum()) / len(src_scan.hit_points)


def visual_overlap(grid, a, b):
    """Symmetric co-visibility score in [0, 1] through the map's sensor.

    Each direction scores the fraction of one pose's depth returns whose
    impact points the other pose can see (in its field of view, in range,
    unoccluded); the overlap is the smaller of the two.  A pose with no
    finite returns scores 0.  co_visible must equal the test of this score
    against a threshold, together with the sight line.
    """
    scan_a = raycast_scan(grid, a)
    scan_b = raycast_scan(grid, b)
    ab = directed_overlap(grid, scan_a, b)
    if ab == 0.0:
        return 0.0
    ba = directed_overlap(grid, scan_b, a)
    return min(ab, ba)


# Three maps for the raycast checks, by parameter index.
MAPS = [two_room_map, apartment_map, lambda: generate_rooms_map(seed=3)]
MAP_IDS = ["two-room", "apartment", "rooms"]


def free_corner_origins(grid, rng, n):
    """Exact gridline intersections whose four surrounding cells are free."""
    occ = grid.occupied
    free = ~(occ[:-1, :-1] | occ[1:, :-1] | occ[:-1, 1:] | occ[1:, 1:])
    iy, ix = np.nonzero(free)
    pick = rng.choice(len(ix), size=n, replace=False)
    return [((ix[i] + 1) * grid.resolution, (iy[i] + 1) * grid.resolution) for i in pick]


class TestRaycast:
    @pytest.mark.parametrize("map_index", range(3), ids=MAP_IDS)
    def test_matches_cell_stepping_reference(self, map_index):
        g = MAPS[map_index]()
        res = g.resolution
        rng = np.random.default_rng(map_index)
        axis_and_diagonal = np.arange(-4, 5) * (math.pi / 4)
        # Bearings from a cell centre through nearby gridline intersections.
        corner_bearings = np.array([math.atan2(b + 0.5, a + 0.5)
                                    for a in range(-3, 3) for b in range(-3, 3)])
        origins = [(p.x, p.y) for p in (sample_free_pose(g, rng) for _ in range(12))]
        origins += free_corner_origins(g, rng, 6)
        centres = [((math.floor(x / res) + 0.5) * res, (math.floor(y / res) + 0.5) * res)
                   for x, y in origins[:6]]
        n_rays = 0
        for x0, y0 in origins + centres:
            for max_range in (5.0, 2.0, 0.73, 0.05):
                angles = np.concatenate([rng.uniform(-math.pi, math.pi, 24),
                                         axis_and_diagonal, corner_bearings])
                got = raycast(g, x0, y0, angles, max_range)
                want = reference_raycast(g, x0, y0, angles, max_range)
                assert np.array_equal(got, want), (x0, y0, max_range)
                n_rays += len(angles)
        assert n_rays > 5000

    @pytest.mark.parametrize("map_index", range(3), ids=MAP_IDS)
    def test_ranges_past_the_map_cast_to_the_border(self, map_index):
        # Crossings are capped at the size of the grid, which the closed
        # border always stops a ray within.
        g = MAPS[map_index]()
        rng = np.random.default_rng(30 + map_index)
        angles = np.concatenate([rng.uniform(-math.pi, math.pi, 40),
                                 np.arange(-4, 5) * (math.pi / 4)])
        for pose in [sample_free_pose(g, rng) for _ in range(6)]:
            for max_range in (1e3, 1e300):
                got = raycast(g, pose.x, pose.y, angles, max_range)
                want = reference_raycast(g, pose.x, pose.y, angles, max_range)
                assert np.array_equal(got, want), (pose, max_range)
                assert got.max() < math.hypot(g.size_x, g.size_y)

    def test_exact_corner_tie_enters_the_x_side_cell_first(self):
        # Find an origin on the diagonal whose first x and y crossings along a
        # 45 degree ray tie exactly; a wall in the x-side cell then stops it.
        angle = math.pi / 4
        inv_x, inv_y = 1.0 / np.cos(angle), 1.0 / np.sin(angle)
        line = (20 + 1) * RES
        p = 2.05
        for _ in range(1000):
            if (line - p) * inv_x == (line - p) * inv_y:
                break
            p = float(np.nextafter(p, 3.0))
        t = (line - p) * inv_x
        assert t == (line - p) * inv_y
        occ = empty_room().occupied.copy()
        occ[20, 21] = True
        g = GridMap(RES, occ)
        assert raycast(g, p, p, [angle], 5.0)[0] == t
        assert reference_raycast(g, p, p, [angle], 5.0)[0] == t

    def test_open_room_all_max_range(self):
        g = with_sensor(empty_room(), SensorConfig(max_range=2.0))
        scan = raycast_scan(g, Pose2D(5.0, 5.0, 0.7))
        assert np.allclose(scan.ranges, 2.0)
        assert scan.hit_points.shape == (0, 2)

    def test_wall_one_meter_ahead(self):
        g = room_with_column_wall(3.0)
        r = raycast(g, 2.0, 5.0, [0.0], 5.0)
        assert r[0] == pytest.approx(1.0, abs=1e-9)

    def test_single_ray_zero_fov(self):
        g = with_sensor(room_with_column_wall(3.0), SensorConfig(fov=0.0, n_rays=1, max_range=5.0))
        scan = raycast_scan(g, Pose2D(2.0, 5.0, 0.0))
        assert len(scan.ranges) == 1
        assert scan.ranges[0] == pytest.approx(1.0, abs=1e-9)

    def test_origin_in_wall_rejected(self):
        g = room_with_column_wall(3.0)
        with pytest.raises(InvalidPose):
            raycast(g, 3.05, 5.0, [0.0], 5.0)

    def test_hit_points_on_cell_boundaries(self):
        g = with_sensor(generate_rooms_map(seed=1), SensorConfig(max_range=5.0))
        scan = raycast_scan(g, Pose2D(2.6, 2.1, 0.4))
        assert len(scan.hit_points) > 0
        for x, y in scan.hit_points:
            fx = abs(x / RES - round(x / RES))
            fy = abs(y / RES - round(y / RES))
            assert min(fx, fy) < 1e-9 / RES

    def test_rays_span_fov(self):
        g = with_sensor(empty_room(), SensorConfig(fov=math.pi / 2, n_rays=64))
        scan = raycast_scan(g, Pose2D(5.0, 5.0, 0.3))
        assert scan.angles[0] == pytest.approx(0.3 - math.pi / 4)
        assert scan.angles[-1] == pytest.approx(0.3 + math.pi / 4)

    def test_scan_deterministic(self):
        g = generate_rooms_map(seed=2)
        a = raycast_scan(g, Pose2D(2.0, 2.0, 1.0))
        b = raycast_scan(g, Pose2D(2.0, 2.0, 1.0))
        assert np.array_equal(a.ranges, b.ranges)


class TestVisualOverlap:
    def test_identical_pose_full_overlap(self):
        g = generate_rooms_map(seed=0)
        p = Pose2D(2.2, 2.3, 0.5)
        assert visual_overlap(g, p, p) == pytest.approx(1.0)

    def test_back_to_back_zero(self):
        g = room_with_column_wall(8.0)
        g2 = room_with_column_wall(4.0)
        # Merge: walls at x=4 and x=8, agents between them looking opposite ways.
        occ = g.occupied | g2.occupied
        gm = GridMap(RES, occ)
        a = Pose2D(6.0, 5.0, 0.0)
        b = Pose2D(6.0, 5.0, math.pi)
        assert visual_overlap(gm, a, b) == 0.0

    def test_half_fov_offset_shares_half_sector(self):
        sensor = SensorConfig(fov=math.pi / 2, n_rays=64, max_range=5.0)
        g = with_sensor(empty_room(4.0, 4.0), sensor)
        a = Pose2D(2.0, 2.0, 0.0)
        b = Pose2D(2.0, 2.0, math.pi / 4)
        got = visual_overlap(g, a, b)
        # Oracle: count hit points of each scan inside the other's view cone.
        sa = raycast_scan(g, a)
        sb = raycast_scan(g, b)

        def frac(scan, other):
            pts = scan.hit_points
            brg = np.arctan2(pts[:, 1] - other.y, pts[:, 0] - other.x)
            d = np.hypot(pts[:, 1] - other.y, pts[:, 0] - other.x)
            rel = np.arctan2(np.sin(brg - other.theta), np.cos(brg - other.theta))
            return ((np.abs(rel) <= sensor.fov / 2 + 1e-12) & (d <= sensor.max_range)).mean()

        assert got == pytest.approx(min(frac(sa, b), frac(sb, a)), abs=1e-9)
        assert got == pytest.approx(0.5, abs=0.05)

    def test_range_and_symmetry(self):
        g = generate_rooms_map(seed=4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = sample_free_pose(g, rng)
            b = sample_free_pose(g, rng)
            o1 = visual_overlap(g, a, b)
            o2 = visual_overlap(g, b, a)
            assert 0.0 <= o1 <= 1.0
            assert o1 == pytest.approx(o2, abs=1e-12)


def full_range_raycast(monkeypatch, max_range):
    """Make every raycast inside gridworld cast to max_range, whatever range
    its caller asks for."""
    cast = gridworld.raycast
    monkeypatch.setattr(gridworld, "raycast",
                        lambda grid, x0, y0, angles, _: cast(grid, x0, y0, angles, max_range))


def near_pose_pairs(grid, rng, n, max_dist=4.0):
    """Pose pairs at most max_dist apart, the first roughly facing the second."""
    pairs = []
    while len(pairs) < n:
        a, b = sample_free_pose(grid, rng), sample_free_pose(grid, rng)
        if math.hypot(b.x - a.x, b.y - a.y) <= max_dist:
            facing = math.atan2(b.y - a.y, b.x - a.x) + rng.uniform(-0.9, 0.9)
            pairs.append((Pose2D(a.x, a.y, facing), b))
    return pairs


class TestCappedCasts:
    """is_visible and visual_overlap cast only as far as they test; their
    results equal those of full-range casts."""

    @pytest.mark.parametrize("map_index", range(3), ids=MAP_IDS)
    def test_is_visible_matches_full_range(self, monkeypatch, map_index):
        g = MAPS[map_index]()
        pairs = near_pose_pairs(g, np.random.default_rng(map_index), 150)
        capped = [is_visible(g, a, (b.x, b.y)) for a, b in pairs]
        full_range_raycast(monkeypatch, 5.0)
        full = [is_visible(g, a, (b.x, b.y)) for a, b in pairs]
        assert capped == full
        assert 0 < sum(capped) < len(capped)

    @pytest.mark.parametrize("map_index", range(3), ids=MAP_IDS)
    def test_visual_overlap_matches_full_range(self, monkeypatch, map_index):
        g = MAPS[map_index]()
        pairs = near_pose_pairs(g, np.random.default_rng(10 + map_index), 40)
        capped = [visual_overlap(g, a, b) for a, b in pairs]
        full_range_raycast(monkeypatch, g.sensor.max_range)
        full = [visual_overlap(g, a, b) for a, b in pairs]
        assert capped == full
        assert any(0.0 < v < 1.0 for v in capped)


class TestCoVisible:
    @pytest.mark.parametrize("map_index", range(3), ids=MAP_IDS)
    def test_equals_visibility_and_overlap(self, map_index):
        base = MAPS[map_index]()
        pairs = near_pose_pairs(base, np.random.default_rng(20 + map_index), 60)
        sensors = [SensorConfig(), SensorConfig(max_range=2.0), SensorConfig(fov=1.0, n_rays=20)]
        outcomes = set()
        for sensor in sensors:
            g = with_sensor(base, sensor)
            for a, b in pairs + [(a, Pose2D(a.x, a.y, a.theta + 0.7)) for a, _ in pairs[:5]]:
                visible = is_visible(g, a, (b.x, b.y))
                overlap = visual_overlap(g, a, b)
                for t in (-0.5, 0.0, 0.1, 0.3, 0.6, 1.0):
                    got = co_visible(g, a, b, t)
                    assert got == (visible and overlap >= t), (a, b, sensor, t)
                    outcomes.add((visible, overlap >= t, got))
        assert outcomes == {(True, True, True), (True, False, False), (False, True, False),
                            (False, False, False)}

    def test_at_most_two_raycasts(self, monkeypatch):
        g = apartment_map()
        pairs = near_pose_pairs(g, np.random.default_rng(5), 40)
        scans = [(raycast_scan(g, a), raycast_scan(g, b)) for a, b in pairs]
        calls = []
        cast = gridworld.raycast
        monkeypatch.setattr(gridworld, "raycast",
                            lambda *args: calls.append(1) or cast(*args))
        counts = []
        for (a, b), (sa, sb) in zip(pairs, scans):
            calls.clear()
            co_visible(g, a, b, 0.3, lambda: sa, lambda: sb)
            counts.append(len(calls))
        assert max(counts) == 2 and 1 in counts

    def test_too_few_returns_in_view_cast_nothing(self, monkeypatch):
        # A direction whose in-view returns cannot reach the threshold
        # decides the pair without a cast: none for a's returns; for b's,
        # the one cast toward a's when its box holds a wall, and none when
        # the box shows that every ray toward a's returns is clear.
        apartment = apartment_map()
        cases = [(apartment, a, b)
                 for a, b in near_pose_pairs(apartment, np.random.default_rng(6), 150)]
        # b sees most of a's few returns, on a pillar, past a cell that sits
        # in its box off every ray; most of b's returns, on a wall to its
        # north-west, lie outside a's view.
        room = empty_room(12.0, 12.0)
        occ = room.occupied.copy()
        occ[58:62, 60:64] = True
        occ[80, 10:50] = True
        occ[56, 50] = True
        cases.append((GridMap(room.resolution, occ), Pose2D(3.0, 6.0, 0.0),
                      Pose2D(5.0, 4.5, math.radians(100))))
        t = 0.3
        expected = {}
        for i, (g, a, b) in enumerate(cases):
            d = math.hypot(b.x - a.x, b.y - a.y)
            bearing = math.atan2(b.y - a.y, b.x - a.x)
            if d > g.sensor.max_range or abs(wrap_angle(bearing - a.theta)) > g.sensor.fov / 2:
                continue
            scan_a, scan_b = raycast_scan(g, a), raycast_scan(g, b)
            bearing_a, dist_a = gridworld._overlap_rays(g, scan_a, b)
            in_view_b = len(gridworld._overlap_rays(g, scan_b, a)[1])
            if len(dist_a) < t * len(scan_a.hit_points):
                assert directed_overlap(g, scan_a, b) < t
                expected[i] = ("few of a's", 0), scan_a, scan_b
            elif (directed_overlap(g, scan_a, b) >= t
                  and in_view_b < t * len(scan_b.hit_points)):
                walled = box_holds_wall(g, b.x, b.y, bearing_a, dist_a - CAST_TOL)
                expected[i] = ("few of b's", int(walled)), scan_a, scan_b
        calls = []
        cast = gridworld.raycast
        monkeypatch.setattr(gridworld, "raycast",
                            lambda *args: calls.append(1) or cast(*args))
        for i, ((_, n_casts), scan_a, scan_b) in expected.items():
            calls.clear()
            assert not co_visible(*cases[i], t, lambda: scan_a, lambda: scan_b)
            assert len(calls) == n_casts, cases[i][1:]
        assert {kind for kind, _, _ in expected.values()} == {
            ("few of a's", 0), ("few of b's", 0), ("few of b's", 1)}

    def test_a_target_inside_a_wall_is_not_seen(self):
        # b sits inside a one-cell pillar in a's view, facing the far wall
        # that a's returns lie on: enough of them are in b's view that an
        # overlap test would cast from b, which no ray can leave.
        room = empty_room()
        occ = room.occupied.copy()
        occ[50, 70] = True
        g = GridMap(room.resolution, occ)
        a, b = Pose2D(6.0, 5.05, 0.0), Pose2D(7.05, 5.05, 0.0)
        scan_a = raycast_scan(g, a)
        assert not g.cell_free(b.x, b.y)
        assert len(gridworld._overlap_rays(g, scan_a, b)[1]) >= 0.3 * len(scan_a.hit_points)
        for t in (0.0, 0.3):
            assert co_visible(g, a, b, t) is False


# The raycast maps, built once for the box properties.
BOX_MAPS = [make() for make in MAPS]

# A coordinate anywhere on a 10 m map, or exactly on one of its gridlines.
COORDS = st.one_of(st.floats(0.0, 10.0), st.integers(0, 100).map(lambda i: i * RES))
# Bearings anywhere, or along an axis or a diagonal.
BEARINGS = st.one_of(st.floats(-math.pi, math.pi),
                     st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4]))
# Distances a ray must reach: up to 3 m, or not positive, as for an impact
# point within the tolerance of the origin, or at the origin itself.
REACHES = st.one_of(st.floats(-0.2, 3.0), st.sampled_from([0.0, -1e-9, -CAST_TOL]))


class TestBoxTest:
    """A free box decides a batch cast: every ray reaches its distance, and
    the sight line to each point in the box is clear."""

    @given(st.integers(0, 2), COORDS, COORDS,
           st.lists(st.tuples(BEARINGS, REACHES), min_size=1, max_size=6),
           st.floats(0.0, 2.0), st.one_of(st.none(), st.tuples(COORDS, COORDS)))
    @settings(max_examples=400, deadline=None)
    def test_a_free_box_means_every_ray_reaches(self, map_index, x, y, rays, extra, point):
        g = BOX_MAPS[map_index]
        assume(g.in_bounds(x, y))
        bearing, reach = np.array(rays).T
        points = () if point is None else (point,)
        clear = gridworld._rays_clear(g, x, y, bearing, reach, *points)
        assert clear == (not box_holds_wall(g, x, y, bearing, reach, *points))
        if not g.cell_free(x, y):
            assert not clear
        if not clear:
            return
        r = raycast(g, x, y, bearing, max(reach.max(), 0.0) + extra)
        assert (r >= reach).all()
        for px, py in points:
            d = math.hypot(px - x, py - y)
            if d >= 1e-12:
                ray = raycast(g, x, y, [math.atan2(py - y, px - x)], d)[0]
                assert ray + 1e-9 >= d

    def test_a_box_off_the_map_or_not_a_number_is_never_free(self):
        g = apartment_map()
        assert g.box_free(1.0, 1.0, 2.0, 2.0) and g.box_free(1.0, 1.0, 2.0, 2.0, clearance=True)
        for box in [(-0.05, 1.0, 2.0, 2.0), (1.0, 1.0, 2.0, 8.0), (1.0, 1.0, math.inf, 2.0),
                    (math.nan, 1.0, 2.0, 2.0), (1.0, 1.0, 2.0, math.nan)]:
            assert not g.box_free(*box) and not g.box_free(*box, clearance=True), box
        assert not gridworld._rays_clear(g, math.nan, 2.0, np.array([0.0]), np.array([1.0]))
        assert not gridworld._rays_clear(g, 2.0, 2.0, np.array([math.nan]), np.array([1.0]))

    def test_boxes_count_the_cells_they_touch(self):
        # A box that ends exactly on a wall cell's edge touches that cell.
        # The clearance mask blocks x < 0.275 and x >= 9.725 here, and its
        # box test counts whole cells that hold a blocked subcell, so the
        # box is not clear once it reaches the cell [9.7, 9.8).
        g = empty_room()
        assert g.box_free(0.1, 0.1, 9.9 - 1e-9, 9.9 - 1e-9)
        assert not g.box_free(0.1, 0.1, 9.9, 5.0)
        assert not g.box_free(0.1 - 1e-9, 5.0, 5.0, 5.0)
        assert g.box_free(0.31, 0.31, 9.69, 9.69, clearance=True)
        assert not g.box_free(0.31, 0.31, 9.71, 5.0, clearance=True)
        assert not g.box_free(0.25 + 1e-9, 5.0, 5.0, 5.0, clearance=True)
        assert g.disc_blocked(0.27, 5.0) and not g.disc_blocked(0.28, 5.0)

    def test_an_origin_in_a_wall_still_raises(self):
        # a stands in a one-cell pillar: its box is not free, so co_visible
        # casts from it, and the cast refuses the origin.
        room = with_sensor(empty_room(8.0, 10.0), SensorConfig(max_range=10.0))
        a, b = Pose2D(3.05, 5.05, 0.0), Pose2D(5.0, 5.0, 0.0)
        scan_a, scan_b = raycast_scan(room, a), raycast_scan(room, b)
        assert co_visible(room, a, b, 0.3, lambda: scan_a, lambda: scan_b)
        occ = room.occupied.copy()
        occ[50, 30] = True
        g = GridMap(room.resolution, occ, sensor=room.sensor)
        for t in (0.0, 0.3):
            with pytest.raises(InvalidPose):
                co_visible(g, a, b, t, lambda: scan_a, lambda: scan_b)


class TestStaircase:
    @pytest.mark.parametrize("map_index", range(3), ids=MAP_IDS)
    def test_a_clear_staircase_is_the_search_length(self, map_index):
        g = MAPS[map_index]()
        pairs = near_pose_pairs(g, np.random.default_rng(40 + map_index), 300, max_dist=3.0)
        clear = 0
        for a, b in pairs:
            stair = staircase_length(g, a, b)
            path = shortest_feasible_path(g, a, b)
            if g.cell_of(a.x, a.y) == g.cell_of(b.x, b.y):
                assert stair == math.inf
            elif math.isfinite(stair):
                assert abs(path - stair) <= 1e-9 * stair, (a, b)
                clear += 1
        assert 0 < clear < len(pairs)

    def test_a_wall_blocks_the_staircase_but_not_the_search(self):
        # Poses at cell centres; the wall is the cell column from x = 6.0.
        g = room_with_column_wall(6.0, gap=(6.0, 7.0))
        a, b = Pose2D(5.05, 5.05), Pose2D(7.05, 5.05)
        assert staircase_length(g, a, b) == math.inf
        assert 2.0 < shortest_feasible_path(g, a, b) < math.inf
        assert staircase_length(g, a, Pose2D(5.95, 5.05)) == math.inf  # in the wall's margin
        assert staircase_length(g, a, Pose2D(5.55, 5.05)) == pytest.approx(0.5)
        assert staircase_length(g, a, Pose2D(5.35, 5.25)) == pytest.approx(0.1 + 0.2 * math.sqrt(2))

    def test_off_the_map_is_inf(self):
        g = empty_room()
        assert staircase_length(g, Pose2D(5.0, 5.0), Pose2D(-0.05, 5.0)) == math.inf
        assert staircase_length(g, Pose2D(10.5, 5.0), Pose2D(5.0, 5.0)) == math.inf


def cell_centre(g, ix, iy):
    return Pose2D((ix + 0.5) * g.resolution, (iy + 0.5) * g.resolution)


def reference_cell_graph(g):
    """8-connected graph over passable cells as a scipy CSR matrix, each edge
    stored in both directions; a diagonal step needs only its two ends
    passable."""

    def shift(n, d):
        # (source, destination) index ranges for a step of d along an axis
        return slice(max(0, -d), n - max(0, d)), slice(max(0, d), n - max(0, -d))

    passable = g.passable
    ny, nx = passable.shape
    idx = np.arange(nx * ny).reshape(ny, nx)
    rows, cols, data = [], [], []
    for dy, dx, w in ((0, 1, g.resolution), (1, 0, g.resolution),
                      (1, 1, g.resolution * math.sqrt(2.0)),
                      (1, -1, g.resolution * math.sqrt(2.0))):
        ys, yd = shift(ny, dy)
        xs, xd = shift(nx, dx)
        m = passable[ys, xs] & passable[yd, xd]
        src, dst = idx[ys, xs][m], idx[yd, xd][m]
        rows += [src, dst]
        cols += [dst, src]
        data += [np.full(len(src), w)] * 2
    return scipy.sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nx * ny, nx * ny),
    )


class TestPathFields:
    """Path searches on the symmetric cell graph, full and bounded."""

    @pytest.mark.parametrize("map_index", range(3), ids=MAP_IDS)
    def test_symmetric_graph_fields_equal_undirected_search(self, map_index):
        g = MAPS[map_index]()
        graph = reference_cell_graph(g)
        assert (graph != graph.T).nnz == 0
        # Each edge once, as the undirected search takes it.
        upper = scipy.sparse.triu(graph, k=1).tocsr()
        assert 2 * upper.nnz == graph.nnz
        passable = np.argwhere(g.passable)
        rng = np.random.default_rng(map_index)
        outcomes = set()
        for iy, ix in passable[rng.choice(len(passable), 50, replace=False)]:
            src = iy * g.nx + ix
            fields = {limit: scipy.sparse.csgraph.dijkstra(upper, directed=False, indices=src,
                                                           limit=limit)
                      for limit in (0.0, 1.0, 4.0 * (1 + 1e-9), math.inf)}
            for jy, jx in passable[rng.choice(len(passable), 10, replace=False)]:
                a, b = cell_centre(g, ix, iy), cell_centre(g, jx, jy)
                full = fields[math.inf][jy * g.nx + jx]
                if math.isfinite(full):
                    fields[full] = scipy.sparse.csgraph.dijkstra(
                        upper, directed=False, indices=src, limit=full)
                for limit in (0.0, 1.0, 4.0 * (1 + 1e-9), full, math.inf):
                    got = shortest_feasible_path(g, a, b, limit)
                    assert got == fields[limit][jy * g.nx + jx], (a, b, limit)
                    outcomes.add(math.isfinite(got))
        assert outcomes == {False, True}

    @pytest.mark.parametrize("map_index", range(3), ids=MAP_IDS)
    def test_bounded_field_is_the_full_field_up_to_the_limit(self, map_index):
        g = MAPS[map_index]()
        passable = np.argwhere(g.passable)
        rng = np.random.default_rng(10 + map_index)
        outcomes = set()
        for (iy, ix), (jy, jx) in passable[rng.choice(len(passable), (100, 2))]:
            a, b = cell_centre(g, ix, iy), cell_centre(g, jx, jy)
            if (ix, iy) == (jx, jy):
                continue
            full = shortest_feasible_path(g, a, b)
            for limit in (0.0, 1.0, 4.0 * (1 + 1e-9), full):
                bounded = shortest_feasible_path(g, a, b, limit)
                assert bounded == (full if full <= limit else math.inf)
                outcomes.add((limit == full, full <= limit))
        assert outcomes == {(False, False), (False, True), (True, True)}

    def test_bounded_path_is_inf_beyond_the_limit(self):
        g = empty_room()
        a, b = Pose2D(3.0, 5.0), Pose2D(7.0, 5.0)
        d = shortest_feasible_path(g, a, b)
        assert shortest_feasible_path(g, a, b, limit=d) == d
        assert shortest_feasible_path(g, a, b, limit=d - 0.05) == math.inf


class TestIsVisible:
    def test_clear_line(self):
        g = empty_room()
        assert is_visible(g, Pose2D(2.0, 5.0, 0.0), (4.0, 5.0))

    def test_outside_fov(self):
        g = empty_room()
        assert not is_visible(g, Pose2D(2.0, 5.0, math.pi), (4.0, 5.0))

    def test_occluded(self):
        g = room_with_column_wall(3.0)
        assert not is_visible(g, Pose2D(2.0, 5.0, 0.0), (4.0, 5.0))

    def test_beyond_range(self):
        g = empty_room()
        assert not is_visible(g, Pose2D(2.0, 5.0, 0.0), (8.0, 5.0))

    def test_degenerate_same_point(self):
        g = empty_room()
        assert is_visible(g, Pose2D(2.0, 5.0, 2.0), (2.0, 5.0))


class TestShortestFeasiblePath:
    def test_straight_corridor(self):
        g = empty_room()
        d = shortest_feasible_path(g, Pose2D(3.0, 5.0), Pose2D(7.0, 5.0))
        assert d == pytest.approx(4.0, abs=2 * RES)

    def test_sealed_wall_unreachable(self):
        g = room_with_column_wall(6.0)
        d = shortest_feasible_path(g, Pose2D(3.0, 5.0), Pose2D(9.0, 5.0))
        assert d == math.inf

    def test_detour_matches_hand_dijkstra(self):
        g = room_with_column_wall(6.0, gap=(8.0, 9.0))
        a, b = Pose2D(5.0, 2.0), Pose2D(7.0, 2.0)
        d = shortest_feasible_path(g, a, b)
        assert d >= 3.0 * math.hypot(2.0, 0.0)
        passable = g.passable
        oracle = hand_dijkstra(passable, g.cell_of(a.x, a.y), g.cell_of(b.x, b.y), RES)
        assert d == pytest.approx(oracle, abs=1e-9)

    def test_symmetry(self):
        g = generate_rooms_map(seed=7)
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b = sample_free_pose(g, rng), sample_free_pose(g, rng)
            assert shortest_feasible_path(g, a, b) == pytest.approx(
                shortest_feasible_path(g, b, a), abs=1e-9
            )

    def test_same_cell_euclidean(self):
        g = empty_room()
        d = shortest_feasible_path(g, Pose2D(5.01, 5.02), Pose2D(5.05, 5.07))
        assert d == pytest.approx(math.hypot(0.04, 0.05), abs=1e-12)


class TestStepAgent:
    def test_straight_step(self):
        g = empty_room()
        s = AgentState(Pose2D(5.0, 5.0, 0.0))
        s2 = step_agent(g, s, VelocityCmd(0.5, 0.0), 0.1)
        assert s2.pose.x == pytest.approx(5.05, abs=1e-12)
        assert s2.pose.y == pytest.approx(5.0, abs=1e-12)
        assert s2.collision_count == 0
        assert s2.step_count == 1

    def test_pure_rotation(self):
        g = empty_room()
        s = AgentState(Pose2D(5.0, 5.0, 0.0))
        s2 = step_agent(g, s, VelocityCmd(0.0, 1.5), 0.1)
        assert s2.pose.theta == pytest.approx(0.15, abs=1e-12)
        assert (s2.pose.x, s2.pose.y) == (5.0, 5.0)
        assert s2.collision_count == 0

    def test_arc_step_matches_exact_integration(self):
        g = empty_room()
        s = AgentState(Pose2D(5.0, 5.0, 0.3))
        v, om, dt = 0.4, 1.0, 0.1
        s2 = step_agent(g, s, VelocityCmd(v, om), dt)
        th = 0.3 + om * dt
        assert s2.pose.x == pytest.approx(5.0 + v / om * (math.sin(th) - math.sin(0.3)), abs=1e-12)
        assert s2.pose.y == pytest.approx(5.0 - v / om * (math.cos(th) - math.cos(0.3)), abs=1e-12)
        assert s2.pose.theta == pytest.approx(th, abs=1e-12)

    def test_wall_stops_motion_and_counts(self):
        g = room_with_column_wall(3.0)
        s = AgentState(Pose2D(2.5, 5.0, 0.0))
        for _ in range(10):
            s = step_agent(g, s, VelocityCmd(0.5, 0.0), 0.1)
        # Held just short of disc contact with the wall face at x = 3.0.
        assert s.collision_count >= 1
        assert 3.0 - 0.18 - 2 * RES < s.pose.x <= 3.0 - 0.18 + 1e-6
        assert s.pose.y == 5.0
        # Blocked agents can still rotate in place.
        s2 = step_agent(g, s, VelocityCmd(0.0, 1.0), 0.1)
        assert s2.collision_count == s.collision_count
        assert s2.pose.theta > s.pose.theta

    def test_never_enters_occupied_cell(self):
        g = generate_rooms_map(seed=9)
        rng = np.random.default_rng(2)
        for _ in range(200):
            pose = sample_free_pose(g, rng)
            s = AgentState(pose)
            for _ in range(5):
                cmd = VelocityCmd(rng.uniform(0, 0.5), rng.uniform(-1.5, 1.5))
                s = step_agent(g, s, cmd, 0.1)
                assert g.cell_free(s.pose.x, s.pose.y)

    def test_bad_dt_rejected(self):
        g = empty_room()
        with pytest.raises(InvalidInput):
            step_agent(g, AgentState(Pose2D(5, 5, 0)), VelocityCmd(0.1, 0.0), 0.0)

    @pytest.mark.parametrize("cmd, dt", [(VelocityCmd(0.1, 0.0), math.inf),
                                         (VelocityCmd(math.inf, 0.0), 0.1),
                                         (VelocityCmd(0.1, math.nan), 0.1)])
    def test_non_finite_input_rejected(self, cmd, dt):
        with pytest.raises(InvalidInput):
            step_agent(two_room_map(), AgentState(Pose2D(1.3, 1.0, 0.0)), cmd, dt)

    def test_a_finite_arc_too_long_to_sample_is_rejected(self):
        # v * dt / (half a resolution) overflows to inf, which no sample
        # count can hold; it used to raise OverflowError.
        with pytest.raises(InvalidInput):
            step_agent(two_room_map(), AgentState(Pose2D(1.3, 1.0, 0.0)),
                       VelocityCmd(1e308, 0.0), 0.1)


class TestFeedbackControl:
    GAINS = ControllerGains()

    def test_at_target_stops(self):
        cmd = feedback_control(Pose2D(1, 1, 0.5), Pose2D(1, 1, 0.5), self.GAINS)
        assert cmd == VelocityCmd(0.0, 0.0)

    def test_target_ahead_drives_forward(self):
        cmd = feedback_control(Pose2D(0, 0, 0), Pose2D(1, 0, 0), self.GAINS)
        assert cmd.v > 0
        assert abs(cmd.omega) < 1e-9

    def test_target_behind_turns_first(self):
        cmd = feedback_control(Pose2D(0, 0, 0), Pose2D(-1, 0, 0), self.GAINS)
        assert cmd.v == 0.0
        assert abs(cmd.omega) > 0

    def test_limits_respected(self):
        cmd = feedback_control(Pose2D(0, 0, 0), Pose2D(4, 0.5, 0.2), self.GAINS)
        assert 0 <= cmd.v <= self.GAINS.v_max
        assert abs(cmd.omega) <= self.GAINS.omega_max

    def test_closed_loop_convergence(self):
        g = empty_room()
        target = Pose2D(3.5, 2.8, 1.0)
        s = AgentState(Pose2D(2.0, 2.0, 0.0))
        for _ in range(500):
            cmd = feedback_control(s.pose, target, self.GAINS)
            if cmd == VelocityCmd(0.0, 0.0):
                break
            s = step_agent(g, s, cmd, 0.1)
        err = math.hypot(s.pose.x - target.x, s.pose.y - target.y)
        assert err < 0.1
        assert abs(wrap_angle(s.pose.theta - target.theta)) < 0.2
        assert s.collision_count == 0


# ---------------------------------------------------------------------------
# The scalar motion step against the array step it replaced.
# ---------------------------------------------------------------------------


def wall_distance(grid, x, y):
    """Distance from (x, y) to the nearest occupied cell, measured to the
    cells themselves rather than through the clearance mask."""
    iy, ix = np.nonzero(grid.occupied)
    res = grid.resolution
    dx = np.maximum(np.maximum(ix * res - x, x - (ix + 1) * res), 0.0)
    dy = np.maximum(np.maximum(iy * res - y, y - (iy + 1) * res), 0.0)
    return float(np.hypot(dx, dy).min())


@pytest.mark.parametrize("radius", [0.18, 0.3])
@pytest.mark.parametrize("map_index", range(len(MAPS)))
def test_free_poses_clear_the_radius_less_a_subcell_half_diagonal(map_index, radius):
    # The free subcells next to a blocked one are where free poses come
    # closest to a wall; sample a point in each of up to 400 of them.
    base = MAPS[map_index]()
    g = GridMap(base.resolution, base.occupied, radius)
    k, blocked = g._blocked
    sub = g.resolution / k
    h = sub * math.sqrt(2.0) / 2.0
    edge = ~blocked & scipy.ndimage.binary_dilation(blocked)
    iy, ix = np.nonzero(edge)
    rng = np.random.default_rng(map_index)
    pick = rng.choice(len(ix), size=min(400, len(ix)), replace=False)
    xs = (ix[pick] + rng.random(len(pick))) * sub
    ys = (iy[pick] + rng.random(len(pick))) * sub
    assert not any(g.disc_blocked(x, y) for x, y in zip(xs, ys))
    dist = [wall_distance(g, x, y) for x, y in zip(xs, ys)]
    assert min(dist) >= radius - h
    # The bound is close to tight: the mask is not conservative.
    assert min(dist) < radius


@pytest.mark.parametrize("resolution", [0.025, 0.05, 0.07, 0.1, 0.13])
@pytest.mark.parametrize("map_index", range(len(MAPS)), ids=MAP_IDS)
def test_clearance_mask_is_the_distance_transform_threshold(map_index, resolution):
    # Each map's cells read at 1 to 5 subcells per cell, and radii from
    # none to 0.45 m.
    occ = MAPS[map_index]().occupied
    for radius in (0.0, 0.01, 0.18, 0.22, 0.3, 0.45):
        g = GridMap(resolution, occ, radius)
        k, blocked = g._blocked
        sub = resolution / k
        occ_up = np.kron(occ, np.ones((k, k), dtype=bool))
        dist = scipy.ndimage.distance_transform_edt(~occ_up) * sub
        assert np.array_equal(blocked, dist < radius + sub * math.sqrt(2.0) / 2.0), radius


def reference_disc_blocked(grid, xs, ys):
    """The array disc test: one subcell-mask lookup per point, and a point
    off the mask (NaN and inf included) blocked."""
    k, blocked = grid._blocked
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    sub = grid.resolution / k
    with np.errstate(invalid="ignore"):
        ix = np.floor(xs / sub).astype(int)
        iy = np.floor(ys / sub).astype(int)
    out = np.ones(len(ix), dtype=bool)
    ok = (ix >= 0) & (ix < blocked.shape[1]) & (iy >= 0) & (iy < blocked.shape[0])
    out[ok] = blocked[iy[ok], ix[ok]]
    return out


def reference_step_agent(grid, state, cmd, dt):
    """The array step: every sample time from np.linspace, the arc through
    numpy, the first blocked sample found with argmax."""
    n = max(1, int(math.ceil(abs(cmd.v) * dt / (0.5 * grid.resolution))))
    taus = np.linspace(dt / n, dt, n)
    p = state.pose
    if abs(cmd.omega) < 1e-12:
        xs = p.x + cmd.v * taus * math.cos(p.theta)
        ys = p.y + cmd.v * taus * math.sin(p.theta)
        ths = np.full(n, p.theta)
    else:
        ths = p.theta + cmd.omega * taus
        k = cmd.v / cmd.omega
        xs = p.x + k * (np.sin(ths) - math.sin(p.theta))
        ys = p.y - k * (np.cos(ths) - math.cos(p.theta))
    blocked = reference_disc_blocked(grid, xs, ys)
    if blocked.any():
        first = int(np.argmax(blocked))
        if first == 0:
            pose = state.pose
        else:
            pose = Pose2D(float(xs[first - 1]), float(ys[first - 1]), float(ths[first - 1]))
        return AgentState(pose, state.collision_count + 1, state.step_count + 1)
    pose = Pose2D(float(xs[-1]), float(ys[-1]), float(ths[-1]))
    return AgentState(pose, state.collision_count, state.step_count + 1)


def reference_feedback_control(current, target, gains):
    """The feedback law with every clamp through np.clip."""
    dxw, dyw = target.x - current.x, target.y - current.y
    rho = math.hypot(dxw, dyw)
    yaw_err = wrap_angle(target.theta - current.theta)
    om_cap = gains.omega_max
    if rho < gridworld.ARRIVE_POS_TOL:
        if abs(yaw_err) < gridworld.ARRIVE_YAW_TOL:
            return VelocityCmd(0.0, 0.0)
        return VelocityCmd(0.0, float(np.clip(gains.k_alpha * yaw_err, -om_cap, om_cap)))
    alpha = wrap_angle(math.atan2(dyw, dxw) - current.theta)
    if abs(alpha) > math.pi / 2.0:
        return VelocityCmd(0.0, float(np.clip(gains.k_alpha * alpha, -om_cap, om_cap)))
    beta = wrap_angle(target.theta - current.theta - alpha)
    v = float(np.clip(gains.k_rho * rho, 0.0, gains.v_max))
    omega = float(np.clip(gains.k_alpha * alpha + gains.k_beta * beta, -om_cap, om_cap))
    return VelocityCmd(v, omega)


def state_bits(state):
    p = state.pose
    return (p.x.hex(), p.y.hex(), p.theta.hex(), state.collision_count, state.step_count)


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf]


class TestScalarMotion:
    MAPS = {"two-room": two_room_map, "apartment": apartment_map}

    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_step_matches_the_array_step_bit_for_bit(self, name):
        grid = self.MAPS[name]()
        rng = np.random.default_rng(17)
        multi, held, partial = 0, 0, 0
        for i in range(5000):
            if i % 5 == 0:
                # Any start, walls included: a blocked first sample holds it.
                pose = Pose2D(rng.uniform(0.0, grid.size_x), rng.uniform(0.0, grid.size_y),
                              rng.uniform(-math.pi, math.pi))
            else:
                pose = sample_free_pose(grid, rng)
            v = [0.0, 0.5, -0.5, rng.uniform(-3.0, 3.0)][i % 4]
            omega = [0.0, 1e-13, rng.uniform(-3.0, 3.0)][i % 3]
            dt = [0.1, rng.uniform(0.01, 0.5)][i % 2]
            state = AgentState(pose, int(rng.integers(3)), int(rng.integers(100)))
            cmd = VelocityCmd(v, omega)
            got = step_agent(grid, state, cmd, dt)
            assert state_bits(got) == state_bits(reference_step_agent(grid, state, cmd, dt))
            multi += abs(v) * dt > 0.5 * grid.resolution
            if got.collision_count > state.collision_count:
                held += got.pose is pose
                partial += got.pose is not pose
        assert multi > 1000 and held > 100 and partial > 50

    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_disc_blocked_matches_the_array_lookup(self, name):
        grid = self.MAPS[name]()
        rng = np.random.default_rng(4)
        edges = [0.0, -0.0, -1e-300, grid.resolution / 8, grid.size_x, grid.size_y,
                 math.nextafter(grid.size_x, 0.0), math.nextafter(grid.size_y, 0.0)]
        coords = (list(rng.uniform(-1.0, grid.size_x + 1.0, 400)) + edges + SPECIAL)
        others = list(rng.uniform(0.0, min(grid.size_x, grid.size_y), len(coords)))
        points = list(zip(coords, others)) + list(zip(others, coords))
        for radius in (0.0, 0.18, 0.3):
            disc = GridMap(grid.resolution, grid.occupied, radius)
            want = reference_disc_blocked(disc, *zip(*points))
            got = [disc.disc_blocked(x, y) for x, y in points]
            assert all(type(b) is bool for b in got)
            assert got == want.tolist()
        assert 0 < sum(got) < len(got)

    @pytest.mark.parametrize("radius", [math.nan, -1.0, math.inf])
    def test_map_rejects_a_nan_negative_or_infinite_radius(self, radius):
        # A NaN radius would read every wall subcell as free.
        occ = two_room_map().occupied
        with pytest.raises(InvalidInput):
            GridMap(RES, occ, radius)
        assert GridMap(RES, occ, 0.0).robot_radius == 0.0

    def test_sample_free_pose_makes_the_same_draws(self):
        grid = apartment_map()
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(200):
            got = sample_free_pose(grid, rng)
            while True:
                x, y = ref.uniform(0.0, grid.size_x), ref.uniform(0.0, grid.size_y)
                theta = ref.uniform(-math.pi, math.pi)
                if not reference_disc_blocked(grid, [x], [y])[0]:
                    break
            assert got == Pose2D(x, y, theta)
            assert not grid.disc_blocked(got.x, got.y)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("k", SPECIAL + [0.5, 1.5, -1.5, 2.0])
    def test_feedback_clamps_as_np_clip(self, k):
        # Gains that put every clamp input at a signed zero, NaN, an
        # infinity or exactly on a bound (k * 1.0 with a 1.5 or 0.5 cap).
        rng = np.random.default_rng(6)
        targets = [(Pose2D(0, 0, 0), Pose2D(0, 0, 1.0)), (Pose2D(0, 0, 0), Pose2D(1, 0, 0)),
                   (Pose2D(0, 0, 0), Pose2D(-1, 0, 0)), (Pose2D(0, 0, 0), Pose2D(1, 0, 1.0))]
        targets += [(Pose2D(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3)),
                     Pose2D(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3))) for _ in range(100)]
        # ControllerGains rejects a non-finite gain, so the law gets the
        # same fields unchecked.
        base = vars(ControllerGains())
        for gains in (SimpleNamespace(**{**base, "k_rho": k, "k_alpha": k, "k_beta": k}),
                      SimpleNamespace(**{**base, "k_rho": k, "k_alpha": 1.0, "k_beta": 0.0}),
                      SimpleNamespace(**{**base, "k_rho": 1.0, "k_alpha": k, "k_beta": -k})):
            for current, target in targets:
                got = feedback_control(current, target, gains)
                want = reference_feedback_control(current, target, gains)
                assert (got.v.hex(), got.omega.hex()) == (want.v.hex(), want.omega.hex())


class TestHelpers:
    def test_sample_free_pose_is_free(self):
        g = generate_rooms_map(seed=11)
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = sample_free_pose(g, rng)
            assert not g.disc_blocked(p.x, p.y)

    def test_render_ascii_shape(self):
        g = empty_room(2.0, 1.0, 0.1)
        art = render_ascii(g, poses=[Pose2D(1.0, 0.5, 0.0)])
        lines = art.splitlines()
        assert len(lines) == 10
        assert all(len(ln) == 20 for ln in lines)
        assert "@" in art

    def test_render_ascii_draws_row_zero_last_and_drops_marks_off_the_map(self):
        g = empty_room(0.5, 0.4, 0.1)
        art = render_ascii(g, poses=[Pose2D(0.15, 0.15, 0.0), Pose2D(9.0, 9.0, 0.0)],
                           cells=[(3, 2), (1, 1), (7, 7), (-1, 2)])
        # Row 0 (y = 0) is the last line; (1, 1) holds both a mark and a pose.
        assert art.splitlines() == ["#####",
                                    "#..*#",
                                    "#@..#",
                                    "#####"]
