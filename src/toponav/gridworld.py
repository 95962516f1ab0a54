"""Deterministic 2D occupancy gridworld: sensing, motion, and path queries.

The world is a closed rectangle of square cells (border always occupied).
Everything here is a pure function of its inputs; the only mutable state an
agent carries is its pose and its collision/step counters.  A GridMap holds
the robot's radius and its depth sensor, so every disc check, path query
and sampled pose on it clears the same robot, and every scan and
co-visibility test on it looks through the same sensor; co_visible alone
decides what that sensor sees from a pose.  A scan belongs to the
observation that took it (perception.Observation), so the map keeps none:
co_visible reads the two scans it compares from its caller, and casts one
on the map only when the caller has none.  The map caches its clearance
mask and passable cells once, and summed-area tables of its occupied
cells and of the cells the clearance mask blocks in part, which never
changes observable behavior; each path search runs on demand.  A cast
whose result a free box already decides is skipped (GridMap.box_free):
co_visible casts only when the box around its rays holds an occupied
cell.  Maps are occupancy arrays built in memory; toponav.fixtures holds
the bundled ones.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, InvalidMap, InvalidPose
from .se2 import Pose2D, wrap_angle

SQRT2 = math.sqrt(2.0)

DEFAULT_ROBOT_RADIUS = 0.18

# The controller stops within this distance (m) and heading error (rad) of
# its target.
ARRIVE_POS_TOL = 0.05
ARRIVE_YAW_TOL = 0.1

# Subcell size targeted by the clearance mask; collision checks resolve wall
# distance to roughly this precision.
_SUBCELL_TARGET = 0.025

# raycast's rows of gridline offsets for a ray going + on x and on y.
_AXIS_ROWS = np.array([0, 2])

# How far (m) a box test widens its box: far beyond the rounding of the
# cell indices raycast and disc_blocked compute, far below any cell.
BOX_MARGIN = 1e-6


@dataclass(frozen=True)
class SensorConfig:
    """Depth sensor: field of view, ray count, range cap."""

    fov: float = math.pi / 2
    n_rays: int = 64
    max_range: float = 5.0

    def __post_init__(self):
        if self.n_rays < 1:
            raise InvalidInput("n_rays must be >= 1")
        if not (0.0 <= self.fov < math.inf):
            raise InvalidInput("fov must be non-negative and finite")
        if not (0.0 < self.max_range < math.inf):
            raise InvalidInput("max_range must be positive and finite")


@dataclass(frozen=True)
class ControllerGains:
    """Polar feedback law gains and actuation limits."""

    k_rho: float = 0.5
    k_alpha: float = 1.5
    k_beta: float = -0.6
    v_max: float = 0.5
    omega_max: float = 1.5

    def __post_init__(self):
        if not all(map(math.isfinite, (self.k_rho, self.k_alpha, self.k_beta))):
            raise InvalidInput("k_rho, k_alpha and k_beta must be finite")
        if not (0.0 < self.v_max < math.inf and self.omega_max > 0.0):
            raise InvalidInput("v_max must be positive and finite, omega_max positive")


@dataclass(frozen=True)
class VelocityCmd:
    v: float
    omega: float


@dataclass(frozen=True)
class AgentState:
    """Simulated agent: pose plus monotone collision/step counters."""

    pose: Pose2D
    collision_count: int = 0
    step_count: int = 0


@dataclass
class DepthScan:
    """One sweep of range returns.

    angles are absolute world bearings, ranges are capped at max_range, and
    hit_points holds the world-frame impact points of the rays that hit, in
    ray order.  Impact points lie on occupied-cell boundaries.
    """

    angles: np.ndarray
    ranges: np.ndarray
    hit_points: np.ndarray
    max_range: float

    @classmethod
    def from_ranges(cls, x: float, y: float, angles: np.ndarray, ranges: np.ndarray,
                    max_range: float) -> DepthScan:
        """The scan of rays cast from (x, y): a ray hit when its range is
        below max_range."""
        hit_mask = ranges < max_range - 1e-12
        pts = np.stack(
            [x + ranges[hit_mask] * np.cos(angles[hit_mask]),
             y + ranges[hit_mask] * np.sin(angles[hit_mask])],
            axis=-1,
        ) if hit_mask.any() else np.zeros((0, 2))
        return cls(angles=angles, ranges=ranges, hit_points=pts, max_range=max_range)


class GridMap:
    """Axis-aligned occupancy grid with square cells of size `resolution`.

    Row 0 of `occupied` is the y = 0 edge; cell (row, col) covers
    [col*res, (col+1)*res) x [row*res, (row+1)*res).  The border must be
    fully occupied so every ray terminates.  Every collision check, path
    query and sampled pose on the map clears a disc of the robot's radius,
    and every scan cast on it comes from the robot's one depth sensor.
    """

    def __init__(self, resolution: float, occupied: np.ndarray,
                 robot_radius: float = DEFAULT_ROBOT_RADIUS,
                 sensor: SensorConfig = SensorConfig()):
        if not (resolution > 0.0) or not math.isfinite(resolution):
            raise InvalidMap(f"resolution must be positive, got {resolution!r}")
        occ = np.asarray(occupied, dtype=bool)
        if occ.ndim != 2 or occ.shape[0] < 3 or occ.shape[1] < 3:
            raise InvalidMap("map must be a 2D grid of at least 3x3 cells")
        border = np.concatenate([occ[0], occ[-1], occ[:, 0], occ[:, -1]])
        if not border.all():
            raise InvalidMap("border cells must all be occupied (closed world)")
        if not (0.0 <= robot_radius < math.inf):
            raise InvalidInput("robot_radius must be non-negative and finite")
        self.resolution = float(resolution)
        self.occupied = occ
        self.occupied.setflags(write=False)
        self.robot_radius = robot_radius
        self.sensor = sensor

    @property
    def ny(self) -> int:
        return self.occupied.shape[0]

    @property
    def nx(self) -> int:
        return self.occupied.shape[1]

    @property
    def size_x(self) -> float:
        return self.nx * self.resolution

    @property
    def size_y(self) -> float:
        return self.ny * self.resolution

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return int(math.floor(x / self.resolution)), int(math.floor(y / self.resolution))

    def in_bounds(self, x: float, y: float) -> bool:
        return 0.0 <= x < self.size_x and 0.0 <= y < self.size_y

    def cell_free(self, x: float, y: float) -> bool:
        if not self.in_bounds(x, y):
            return False
        ix, iy = self.cell_of(x, y)
        return not self.occupied[iy, ix]

    def require_free(self, x: float, y: float) -> None:
        """Raise InvalidPose unless (x, y) lies in a free cell, where a scan
        can be cast from."""
        if not self.cell_free(x, y):
            raise InvalidPose(f"ray origin ({x:.3f}, {y:.3f}) is not in free space")

    # -- clearance / disc collision -------------------------------------

    @cached_property
    def _blocked(self):
        """(k, mask): the subcell mask of positions where the robot disc hits
        a wall, at k subcells per cell.

        A subcell is blocked when its centre lies within robot_radius + h of
        an occupied subcell's centre, h being the subcell half-diagonal: the
        occupied subcells are dilated by the disc of offsets (di, dj) with
        sqrt(di*di + dj*dj) * sub < robot_radius + h, the float test a
        euclidean distance transform of the upsampled grid would make.  The
        disc is one run of offsets per row, so each row offset ORs in a
        window sum along x.  A pose and the wall point nearest it each lie
        within h of those centres, so a pose the mask calls free lies at
        least robot_radius - h from every occupied cell (h is about 18 mm
        at 0.1 m resolution), and can lie closer than robot_radius.
        """
        k = max(1, int(round(self.resolution / _SUBCELL_TARGET)))
        occ_up = np.kron(self.occupied, np.ones((k, k), dtype=bool))
        sub = self.resolution / k
        reach = self.robot_radius + sub * SQRT2 / 2.0
        r = int(reach / sub) + 2
        d = np.arange(r + 1, dtype=float)
        # half[i]: the largest |dj| in the disc's row at |di| = i, -1 if none.
        half = (np.sqrt(d[:, None] ** 2 + d ** 2) * sub < reach).sum(axis=1) - 1
        ny, nx = occ_up.shape
        counts = np.zeros((ny + 2 * r, nx + 2 * r + 1), dtype=np.int32)
        np.cumsum(np.pad(occ_up, r), axis=1, out=counts[:, 1:])
        blocked = np.zeros((ny, nx), dtype=bool)
        for w in np.unique(half[half >= 0]):
            run = counts[:, r + w + 1 : r + w + 1 + nx] > counts[:, r - w : r - w + nx]
            for i in np.flatnonzero(half == w):
                blocked |= run[r + i : r + i + ny]
                blocked |= run[r - i : r - i + ny]
        blocked.setflags(write=False)
        return k, blocked

    def disc_blocked(self, x: float, y: float) -> bool:
        """True when the robot disc centered at (x, y) hits a wall; a point
        off the map, NaN or infinite, is blocked.  The bounds are compared on
        floats, so no NaN is ever made an index."""
        k, blocked = self._blocked
        ny, nx = blocked.shape
        sub = self.resolution / k
        fx, fy = x / sub, y / sub
        if not (0.0 <= fx < nx and 0.0 <= fy < ny):
            return True
        return bool(blocked[int(fy), int(fx)])

    @cached_property
    def _occupied_sums(self) -> tuple[float, int, np.ndarray]:
        """(cell size, 1, summed-area table) of the occupied cells."""
        return self.resolution, 1, _summed_area(self.occupied)

    @cached_property
    def _blocked_sums(self) -> tuple[float, int, np.ndarray]:
        """(subcell size, k, summed-area table) of the cells, k subcells a
        side, that hold a blocked subcell of the clearance mask.  A table
        over subcells would be k * k times as large."""
        k, blocked = self._blocked
        ny, nx = blocked.shape
        touched = blocked.reshape(ny // k, k, nx // k, k).any(axis=(1, 3))
        return self.resolution / k, k, _summed_area(touched)

    def box_free(self, x0: float, y0: float, x1: float, y1: float,
                 clearance: bool = False) -> bool:
        """True when no occupied cell meets the box [x0, x1] x [y0, y1] in
        world coordinates, or with clearance, no blocked subcell of the
        clearance mask that disc_blocked reads; one lookup in a summed-area
        table.

        A point of the box lies in (sub)cell floor(x / size) on each axis,
        computed as cell_of and disc_blocked compute it, and the floor of a
        quotient never decreases with x, so every point of the box lands in
        a cell the count covers.  The border is occupied, and blocked, so a
        box that reaches off the map, or has a NaN or infinite side, is
        never free; the bounds are compared on floats, so no NaN is ever
        made an index."""
        size, k, table = self._blocked_sums if clearance else self._occupied_sums
        ny, nx = (table.shape[0] - 1) * k, (table.shape[1] - 1) * k
        fx0, fy0, fx1, fy1 = x0 / size, y0 / size, x1 / size, y1 / size
        if not (0.0 <= fx0 and fx1 < nx and 0.0 <= fy0 and fy1 < ny):
            return False
        i0, j0 = int(fy0) // k, int(fx0) // k
        i1, j1 = int(fy1) // k + 1, int(fx1) // k + 1
        return table[i1, j1] - table[i0, j1] - table[i1, j0] + table[i0, j0] == 0

    @cached_property
    def passable(self) -> np.ndarray:
        """Read-only cell mask for path planning: centers that keep the disc
        clear."""
        k, blocked = self._blocked
        mask = ~blocked[k // 2 :: k, k // 2 :: k]
        mask.setflags(write=False)
        return mask

    @cached_property
    def _unreached(self) -> list[float]:
        """The path search's starting distances, a flat list indexed
        iy * nx + ix: inf on passable cells, -1 on the rest."""
        return np.where(self.passable, math.inf, -1.0).ravel().tolist()


def _summed_area(mask: np.ndarray) -> np.ndarray:
    """Read-only summed-area table (Crow, 1984): entry [i, j] counts the
    true cells of mask[:i, :j]."""
    table = np.zeros((mask.shape[0] + 1, mask.shape[1] + 1), dtype=np.int32)
    np.cumsum(np.cumsum(mask, axis=0, dtype=np.int32), axis=1, out=table[1:, 1:])
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# Sensing.
# ---------------------------------------------------------------------------


def raycast(grid: GridMap, x0: float, y0: float, angles, max_range: float) -> np.ndarray:
    """Exact grid traversal for a batch of rays from one origin.

    Returns the distance to the first occupied-cell boundary along each
    bearing, capped at max_range.  The origin cell must be free.  The cost
    grows with max_range, up to the size of the grid, so a caller that only
    asks whether a ray reaches some distance should cast to that distance.

    The parameters of every gridline crossing within range are computed up
    front and stably sorted, x crossings ahead of y crossings, so the whole
    batch resolves in a handful of array operations instead of a per-cell
    stepping loop, and at an exact corner crossing the cell on the x side
    is the one tested, as in classic cell stepping.
    """
    grid.require_free(x0, y0)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    n_rays = len(angles)
    res = grid.resolution
    ix0, iy0 = grid.cell_of(x0, y0)
    # The closed border is entered within nx - 1 crossings on x and ny - 1
    # on y, so crossings past max(nx, ny) + 1 per axis never decide a range.
    n_k = int(min(max_range / res, max(grid.nx, grid.ny) - 1)) + 2
    width = 2 * n_k
    # Offsets from the origin to the gridlines around it, in increasing
    # order: the k-th gridline ahead of the origin cell on an axis is at
    # index n_k + k, the k-th behind it at n_k - 1 - k.
    lines = np.arange(1 - n_k, n_k + 1)
    grid_x = (ix0 + lines) * res - x0
    grid_y = (iy0 + lines) * res - y0
    # One row per direction of travel, x+, x-, y+ and y-, and a last row
    # for rays parallel to an axis, which cross none of its gridlines.
    offsets = np.empty((5, n_k))
    offsets[0], offsets[1] = grid_x[n_k:], grid_x[n_k - 1 :: -1]
    offsets[2], offsets[3] = grid_y[n_k:], grid_y[n_k - 1 :: -1]
    offsets[4] = np.inf
    d = np.empty((n_rays, 2))
    np.cos(angles, out=d[:, 0])
    np.sin(angles, out=d[:, 1])
    parallel = d == 0.0
    row = (d <= 0.0) + _AXIS_ROWS
    row[parallel] = 4
    t = (offsets[row] * (1.0 / np.where(parallel, 1.0, d))[:, :, None]).reshape(n_rays, width)
    order = np.argsort(t, axis=1, kind="stable")

    # Cell entered at the m-th crossing: the start cell advanced once per
    # crossing so far on each axis, as a flat index into the grid.  Each
    # axis's crossings keep their own order in the stable sort, so x
    # crossing k is the (k + 1)-th on x, and y crossing j at position m
    # has m - j crossings on x before it.
    m = np.arange(1, width + 1)
    n_x = np.where(order < n_k, order + 1, (m + (n_k - 1)) - order)
    step = np.sign(d).astype(int)
    step_x, step_y = step[:, :1], step[:, 1:] * grid.nx
    flat = (iy0 * grid.nx + ix0 + step_y * m) + (step_x - step_y) * n_x
    # An index past the grid is clipped, but the closed border is always hit
    # first, so such a cell never decides a range.
    hit = np.take(grid.occupied.ravel(), flat, mode="clip")
    # The crossings are sorted, so when the first occupied cell lies past
    # max_range, so does every later one.
    row_start = np.arange(0, n_rays * width, width)
    first = hit.argmax(axis=1) + row_start
    t_first = np.take(t, np.take(order, first) + row_start)
    return np.where(np.take(hit, first) & (t_first <= max_range), t_first, float(max_range))


def raycast_scan(grid: GridMap, pose: Pose2D) -> DepthScan:
    """Cast the map's sensor sweep from a pose."""
    sensor = grid.sensor
    if sensor.n_rays == 1:
        angles = np.array([pose.theta])
    else:
        angles = pose.theta + np.linspace(-sensor.fov / 2.0, sensor.fov / 2.0, sensor.n_rays)
    ranges = raycast(grid, pose.x, pose.y, angles, sensor.max_range)
    return DepthScan.from_ranges(pose.x, pose.y, angles, ranges, sensor.max_range)


def _overlap_rays(grid: GridMap, src_scan: DepthScan, dst: Pose2D):
    """Bearings and distances from dst to the impact points of src_scan
    that lie in the field of view and range of the map's sensor at dst."""
    sensor = grid.sensor
    pts = src_scan.hit_points
    vx = pts[:, 0] - dst.x
    vy = pts[:, 1] - dst.y
    dist = np.hypot(vx, vy)
    bearing = np.arctan2(vy, vx)
    off = bearing - dst.theta
    cand = (np.abs(np.arctan2(np.sin(off), np.cos(off))) <= sensor.fov / 2.0 + 1e-12) & (
        dist <= sensor.max_range + 1e-12
    )
    return bearing[cand], dist[cand]


def _rays_clear(grid: GridMap, x: float, y: float, bearing: np.ndarray, reach: np.ndarray,
                *points: tuple[float, float]) -> bool:
    """True when no occupied cell meets the box around (x, y), the point at
    reach along each bearing from it (at (x, y) itself where reach is not
    positive) and the given points, widened by BOX_MARGIN.

    Then a batch cast from (x, y) returns at least each ray's reach, and a
    ray toward any of the points is clear up to it: raycast tests only the
    cells that a ray enters at its gridline crossings up to its length, and
    each such cell touches the ray to within rounding (about 1e-14 m), so it
    meets the widened box, and none there is occupied.  The origin's own
    cell is in the box too, so it is free, and the cast could not raise."""
    length = np.maximum(reach, 0.0)
    xs = np.concatenate([[x], x + length * np.cos(bearing), [p[0] for p in points]])
    ys = np.concatenate([[y], y + length * np.sin(bearing), [p[1] for p in points]])
    # A NaN anywhere makes a NaN side, which box_free never calls free.
    return grid.box_free(xs.min() - BOX_MARGIN, ys.min() - BOX_MARGIN,
                         xs.max() + BOX_MARGIN, ys.max() + BOX_MARGIN)


def co_visible(grid: GridMap, a: Pose2D, b: Pose2D, min_overlap: float,
               scan_a: Callable[[], DepthScan] | None = None,
               scan_b: Callable[[], DepthScan] | None = None) -> bool:
    """Whether the map's sensor at a sees b: b is in range, in the field of
    view, in a free cell and on a clear sight line from a, and the two
    poses co-observe at least min_overlap of each other's depth returns.
    A min_overlap that is not positive leaves the sight line alone to
    decide; a target at a's own position is in view.

    scan_a and scan_b, when given, are called with no argument for the
    depth scans taken at a and at b, each at most once and only when the
    overlap test reaches it; when not given, that scan is cast on the map.

    The overlap of one direction is the fraction of one pose's impact
    points that the other pose sees (in view, in range, unoccluded); the
    overlap of the pair is the smaller of the two, and a pose with no
    returns scores 0.  The tests run in the order above, the cheap ones
    first, and at most two raycast calls are made besides the scans of a
    and b.  The first casts from b toward a's returns; a pair that fails
    there never reads b's scan.  The second casts from a the sight line to
    b together with the rays toward b's returns, capped at the larger of
    the two distances tested.  Raising a ray's cap above the distance its
    test compares with changes no result:
    a hit inside the lower cap is still the first hit, and a ray clear up
    to the lower cap returns at least that cap either way.  Neither call is
    made when the returns in view are too few to reach min_overlap even if
    all are seen.

    Each of the two calls is made only when a box test leaves it open:
    when no occupied cell meets the box around the cast's origin and each
    ray's point at the distance it must reach (for the second, b too,
    which covers the sight line), widened by BOX_MARGIN, every ray of the
    batch passes, so the cast could only confirm it (_rays_clear).  A box
    that holds a wall decides nothing, and the cast runs as before.
    """
    sensor = grid.sensor
    d = math.hypot(b.x - a.x, b.y - a.y)
    if d > sensor.max_range:
        return False
    bearing = math.atan2(b.y - a.y, b.x - a.x)
    if d >= 1e-12 and abs(wrap_angle(bearing - a.theta)) > sensor.fov / 2.0 + 1e-12:
        return False
    if not grid.cell_free(b.x, b.y):
        return False
    if not min_overlap > 0.0:
        # Cast only as far as the target: an unoccluded ray returns its cap d.
        return d < 1e-12 or bool(raycast(grid, a.x, a.y, [bearing], d)[0] + 1e-9 >= d)
    # An impact point sits on its cell's boundary; an unobstructed ray
    # toward it enters that cell no more than one cell diagonal early.
    tol = grid.resolution * SQRT2 + 1e-9
    scan_a = raycast_scan(grid, a) if scan_a is None else scan_a()
    n_a = len(scan_a.hit_points)
    rays, dist = _overlap_rays(grid, scan_a, b)
    if not len(dist) or len(dist) / n_a < min_overlap:
        return False
    # Each ray only has to reach its impact point: a ray cast no further
    # than the farthest one returns its cap, which passes the seen test,
    # exactly when a full-range ray would pass it.
    if not _rays_clear(grid, b.x, b.y, rays, dist - tol):
        r = raycast(grid, b.x, b.y, rays, min(sensor.max_range, dist.max()))
        if int((r >= dist - tol).sum()) / n_a < min_overlap:
            return False
    scan_b = raycast_scan(grid, b) if scan_b is None else scan_b()
    n_b = len(scan_b.hit_points)
    rays, dist = _overlap_rays(grid, scan_b, a)
    if not len(dist) or len(dist) / n_b < min_overlap:
        return False
    if _rays_clear(grid, a.x, a.y, rays, dist - tol, (b.x, b.y)):
        return True
    r = raycast(grid, a.x, a.y, np.concatenate([[bearing], rays]),
                max(d, min(sensor.max_range, dist.max())))
    if r[0] + 1e-9 < d:
        return False
    return int((r[1:] >= dist - tol).sum()) / n_b >= min_overlap


# ---------------------------------------------------------------------------
# Path feasibility.
# ---------------------------------------------------------------------------


def shortest_feasible_path(grid: GridMap, a: Pose2D, b: Pose2D,
                           limit: float = math.inf) -> float:
    """Length of the shortest collision-free grid path between two poses.

    8-connected over cells whose centers keep the robot disc clear; axis
    steps cost one resolution, diagonal steps sqrt(2) times that.  Returns
    math.inf when no such path exists, or when the path is longer than
    `limit`, which bounds the search; a path no longer than `limit` gets the
    length an unbounded search would give.  Poses in the same cell score
    their euclidean distance.
    """
    if not (grid.in_bounds(a.x, a.y) and grid.in_bounds(b.x, b.y)):
        return math.inf
    ca = grid.cell_of(a.x, a.y)
    cb = grid.cell_of(b.x, b.y)
    if ca == cb:
        return math.hypot(b.x - a.x, b.y - a.y)
    passable = grid.passable
    if not (passable[ca[1], ca[0]] and passable[cb[1], cb[0]]):
        return math.inf
    # Dijkstra on flat cell indices.  A passable cell is off the occupied
    # border, so its eight neighbours never wrap across a row.  dist starts
    # at -1 on impassable cells, which no step length improves.
    nx, dist = grid.nx, grid._unreached.copy()
    axis, diagonal = grid.resolution, grid.resolution * SQRT2
    steps = ((1, axis), (-1, axis), (nx, axis), (-nx, axis), (nx + 1, diagonal),
             (nx - 1, diagonal), (1 - nx, diagonal), (-1 - nx, diagonal))
    goal = cb[1] * nx + cb[0]
    start = ca[1] * nx + ca[0]
    dist[start] = 0.0
    heap = [(0.0, start)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, i = pop(heap)
        if i == goal:
            return d
        if d > dist[i]:
            continue
        for s, w in steps:
            j, nd = i + s, d + w
            if nd < dist[j] and nd <= limit:
                dist[j] = nd
                push(heap, (nd, j))
    return math.inf


def staircase_length(grid: GridMap, a: Pose2D, b: Pose2D) -> float:
    """Length of the staircase of cells from a's cell to b's when every cell
    on it is passable; math.inf when one is not, when the poses share a
    cell, or when either lies off the map.

    The staircase rounds the straight line between the two cells to the
    nearest cell at each of max(|dx|, |dy|) steps, min(|dx|, |dy|) of them
    diagonal.  Its length is the octile distance between the cells: no
    8-connected path is shorter, and a clear staircase is a path of the
    cell graph, whose diagonal steps need only their two ends passable.
    """
    if not (grid.in_bounds(a.x, a.y) and grid.in_bounds(b.x, b.y)):
        return math.inf
    (ax, ay), (bx, by) = grid.cell_of(a.x, a.y), grid.cell_of(b.x, b.y)
    dx, dy = bx - ax, by - ay
    n = max(abs(dx), abs(dy))
    if n == 0:
        return math.inf
    i = np.arange(n + 1)
    xs = ax + (2 * dx * i + n) // (2 * n)
    ys = ay + (2 * dy * i + n) // (2 * n)
    if not grid.passable[ys, xs].all():
        return math.inf
    diagonal = min(abs(dx), abs(dy))
    return (n - diagonal) * grid.resolution + diagonal * (grid.resolution * SQRT2)


# ---------------------------------------------------------------------------
# Motion.
# ---------------------------------------------------------------------------


def _arc_point(pose: Pose2D, v: float, omega: float, tau: float) -> tuple[float, float, float]:
    """Exact unicycle integration at time offset tau."""
    if abs(omega) < 1e-12:
        return (pose.x + v * tau * math.cos(pose.theta),
                pose.y + v * tau * math.sin(pose.theta), pose.theta)
    th = pose.theta + omega * tau
    k = v / omega
    return (pose.x + k * (math.sin(th) - math.sin(pose.theta)),
            pose.y - k * (math.cos(th) - math.cos(pose.theta)), th)


def step_agent(grid: GridMap, state: AgentState, cmd: VelocityCmd, dt: float) -> AgentState:
    """Advance one control period along an exact circular arc.

    The swept disc is checked at the times np.linspace(dt / n, dt, n), half
    a resolution of travel apart at most; on contact the agent is held at the
    last clear sample and the collision counter increments.  Pure rotation
    cannot collide (the disc does not move).
    """
    if not (0.0 < dt < math.inf and math.isfinite(cmd.v) and math.isfinite(cmd.omega)):
        raise InvalidInput("dt must be positive and finite, and v and omega finite")
    samples = abs(cmd.v) * dt / (0.5 * grid.resolution)
    if not math.isfinite(samples):
        raise InvalidInput("v * dt is too long an arc to sample")
    n = max(1, int(math.ceil(samples)))
    step = (dt - dt / n) / (n - 1) if n > 1 else 0.0
    pose = state.pose
    for i in range(n):
        tau = dt if i == n - 1 else i * step + dt / n
        x, y, th = _arc_point(state.pose, cmd.v, cmd.omega, tau)
        if grid.disc_blocked(x, y):
            return AgentState(pose, state.collision_count + 1, state.step_count + 1)
        pose = Pose2D(x, y, th)
    return AgentState(pose, state.collision_count, state.step_count + 1)


def feedback_control(current: Pose2D, target: Pose2D, gains: ControllerGains) -> VelocityCmd:
    """Polar coordinate feedback law driving current toward target.

    Turns in place when the target is behind, aligns heading once position
    converges, and returns (0, 0) inside the arrival tolerances.
    """
    dxw, dyw = target.x - current.x, target.y - current.y
    rho = math.hypot(dxw, dyw)
    yaw_err = wrap_angle(target.theta - current.theta)
    om_cap = gains.omega_max
    if rho < ARRIVE_POS_TOL:
        if abs(yaw_err) < ARRIVE_YAW_TOL:
            return VelocityCmd(0.0, 0.0)
        return VelocityCmd(0.0, min(max(gains.k_alpha * yaw_err, -om_cap), om_cap))
    alpha = wrap_angle(math.atan2(dyw, dxw) - current.theta)
    if abs(alpha) > math.pi / 2.0:
        return VelocityCmd(0.0, min(max(gains.k_alpha * alpha, -om_cap), om_cap))
    beta = wrap_angle(target.theta - current.theta - alpha)
    v = min(max(gains.k_rho * rho, 0.0), gains.v_max)
    omega = min(max(gains.k_alpha * alpha + gains.k_beta * beta, -om_cap), om_cap)
    return VelocityCmd(v, omega)


def sample_free_pose(grid: GridMap, rng: np.random.Generator) -> Pose2D:
    """Uniform pose over disc-free space (rejection sampled, 1000 tries)."""
    for _ in range(1000):
        x = rng.uniform(0.0, grid.size_x)
        y = rng.uniform(0.0, grid.size_y)
        theta = rng.uniform(-math.pi, math.pi)
        if not grid.disc_blocked(x, y):
            return Pose2D(x, y, theta)
    raise InvalidMap("no free pose found; map has no clearance for the robot")


def render_ascii(grid: GridMap, poses=(), cells=()) -> str:
    """Small debugging/demo renderer: '#' walls, '@' poses, '*' marked cells."""
    canvas = np.where(grid.occupied, "#", ".").astype(object)
    for ix, iy in cells:
        if 0 <= iy < grid.ny and 0 <= ix < grid.nx:
            canvas[iy, ix] = "*"
    for p in poses:
        ix, iy = grid.cell_of(p.x, p.y)
        if 0 <= iy < grid.ny and 0 <= ix < grid.nx:
            canvas[iy, ix] = "@"
    return "\n".join("".join(row) for row in canvas[::-1])
