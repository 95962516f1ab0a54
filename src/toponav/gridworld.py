"""Deterministic 2D occupancy gridworld: sensing, motion, and path queries.

The world is a closed rectangle of square cells (border always occupied).
Everything here is a pure function of its inputs; the only mutable state an
agent carries is its pose and its collision/step counters.  Caches on GridMap
(scans, clearance masks, path-distance fields) are memoization only and never
change observable behavior.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.ndimage
import scipy.sparse
import scipy.sparse.csgraph

from .errors import InvalidInput, InvalidMap, InvalidPose
from .se2 import Pose2D, wrap_angle

SQRT2 = math.sqrt(2.0)

DEFAULT_ROBOT_RADIUS = 0.18

# Subcell size targeted by the clearance mask; collision checks resolve wall
# distance to roughly this precision.
_SUBCELL_TARGET = 0.025

# Path-distance fields are ~the map size each; keep a bounded FIFO of them.
_FIELD_CACHE_CAP = 1024


@dataclass(frozen=True)
class SensorConfig:
    """Depth sensor: field of view, ray count, range cap."""

    fov: float = math.pi / 2
    n_rays: int = 64
    max_range: float = 5.0


@dataclass(frozen=True)
class ControllerGains:
    """Polar feedback law gains and actuation limits."""

    k_rho: float = 0.5
    k_alpha: float = 1.5
    k_beta: float = -0.6
    v_max: float = 0.5
    omega_max: float = 1.5
    arrive_pos_tol: float = 0.05
    arrive_yaw_tol: float = 0.1


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
    hit_points holds the world-frame impact points of rays with hit_mask set,
    in ray order.  Impact points lie on occupied-cell boundaries.
    """

    angles: np.ndarray
    ranges: np.ndarray
    hit_mask: np.ndarray
    hit_points: np.ndarray
    max_range: float


class GridMap:
    """Axis-aligned occupancy grid with square cells of size `resolution`.

    Row 0 of `occupied` is the y = 0 edge; cell (row, col) covers
    [col*res, (col+1)*res) x [row*res, (row+1)*res).  The border must be
    fully occupied so every ray terminates.
    """

    def __init__(self, resolution: float, occupied: np.ndarray):
        if not (resolution > 0.0) or not math.isfinite(resolution):
            raise InvalidMap(f"resolution must be positive, got {resolution!r}")
        occ = np.asarray(occupied, dtype=bool)
        if occ.ndim != 2 or occ.shape[0] < 3 or occ.shape[1] < 3:
            raise InvalidMap("map must be a 2D grid of at least 3x3 cells")
        border = np.concatenate([occ[0], occ[-1], occ[:, 0], occ[:, -1]])
        if not border.all():
            raise InvalidMap("border cells must all be occupied (closed world)")
        self.resolution = float(resolution)
        self.occupied = occ
        self.occupied.setflags(write=False)
        self._clearance_cache: dict = {}
        self._scan_cache: dict = {}
        self._graph_cache: dict = {}
        self._field_cache: OrderedDict = OrderedDict()

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

    # -- clearance / disc collision -------------------------------------

    def _disc_blocked_mask(self, radius: float):
        """Boolean subcell mask of positions where a disc of `radius` hits a wall.

        Built from a k-times upsampled euclidean distance transform; the check
        is conservative by at most one subcell half-diagonal (~2 cm at 0.1 m
        resolution).
        """
        key = round(radius, 9)
        hit = self._clearance_cache.get(key)
        if hit is not None:
            return hit
        k = max(1, int(round(self.resolution / _SUBCELL_TARGET)))
        occ_up = np.kron(self.occupied, np.ones((k, k), dtype=bool))
        sub = self.resolution / k
        dist = scipy.ndimage.distance_transform_edt(~occ_up) * sub
        blocked = dist < radius + sub * SQRT2 / 2.0
        blocked.setflags(write=False)
        out = (k, blocked)
        self._clearance_cache[key] = out
        return out

    def disc_blocked(self, xs, ys, radius: float):
        """Vectorized: True where a robot disc centered at (x, y) collides."""
        k, blocked = self._disc_blocked_mask(radius)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        sub = self.resolution / k
        ix = np.floor(xs / sub).astype(int)
        iy = np.floor(ys / sub).astype(int)
        out = np.ones(len(ix), dtype=bool)
        ok = (ix >= 0) & (ix < blocked.shape[1]) & (iy >= 0) & (iy < blocked.shape[0])
        out[ok] = blocked[iy[ok], ix[ok]]
        return out

    def pose_free(self, pose: Pose2D, robot_radius: float = DEFAULT_ROBOT_RADIUS) -> bool:
        return not bool(self.disc_blocked([pose.x], [pose.y], robot_radius)[0])

    def passable(self, robot_radius: float):
        """Cell mask for path planning: centers that keep the disc clear."""
        k, blocked = self._disc_blocked_mask(robot_radius)
        centers = blocked[k // 2 :: k, k // 2 :: k]
        return ~centers

    # -- path-distance fields --------------------------------------------

    def _cell_graph(self, robot_radius: float):
        key = round(robot_radius, 9)
        g = self._graph_cache.get(key)
        if g is not None:
            return g

        def shift(n, d):
            # (source, destination) index ranges for a step of d along an axis
            return slice(max(0, -d), n - max(0, d)), slice(max(0, d), n - max(0, -d))

        passable = self.passable(robot_radius)
        ny, nx = passable.shape
        idx = np.arange(nx * ny).reshape(ny, nx)
        rows, cols, data = [], [], []
        for dy, dx, w in ((0, 1, self.resolution), (1, 0, self.resolution),
                          (1, 1, self.resolution * SQRT2), (1, -1, self.resolution * SQRT2)):
            ys, yd = shift(ny, dy)
            xs, xd = shift(nx, dx)
            m = passable[ys, xs] & passable[yd, xd]
            rows.append(idx[ys, xs][m])
            cols.append(idx[yd, xd][m])
            data.append(np.full(int(m.sum()), w))
        g = scipy.sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(nx * ny, nx * ny),
        )
        self._graph_cache[key] = g
        return g

    def path_distance_field(self, src_cell: tuple[int, int], robot_radius: float):
        """Shortest 8-connected feasible distance from src_cell to every cell."""
        key = (round(robot_radius, 9), src_cell)
        f = self._field_cache.get(key)
        if f is not None:
            return f
        g = self._cell_graph(robot_radius)
        src_flat = src_cell[1] * self.nx + src_cell[0]
        f = scipy.sparse.csgraph.dijkstra(g, directed=False, indices=src_flat)
        if len(self._field_cache) >= _FIELD_CACHE_CAP:
            self._field_cache.popitem(last=False)
        self._field_cache[key] = f
        return f


# ---------------------------------------------------------------------------
# Sensing.
# ---------------------------------------------------------------------------


def raycast(grid: GridMap, x0: float, y0: float, angles, max_range: float) -> np.ndarray:
    """Exact grid traversal for a batch of rays from one origin.

    Returns the distance to the first occupied-cell boundary along each
    bearing, capped at max_range.  The origin cell must be free.

    All gridline-crossing parameters within range are computed up front and
    sorted, so the whole batch resolves in a handful of array operations
    instead of a per-cell stepping loop.  At an exact corner crossing the
    x advance is ordered before the y advance, so the intermediate cell on
    the x side is the one tested, as in classic cell stepping.
    """
    if not grid.cell_free(x0, y0):
        raise InvalidPose(f"ray origin ({x0:.3f}, {y0:.3f}) is not in free space")
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    n = len(angles)
    res = grid.resolution
    dirx, diry = np.cos(angles), np.sin(angles)
    ix0, iy0 = grid.cell_of(x0, y0)
    step_x = np.sign(dirx).astype(int)[:, None]
    step_y = np.sign(diry).astype(int)[:, None]

    k = np.arange(int(max_range / res) + 2)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_dx = np.where(dirx != 0.0, 1.0 / dirx, np.inf)[:, None]
        inv_dy = np.where(diry != 0.0, 1.0 / diry, np.inf)[:, None]
        lines_x = np.where(step_x > 0, (ix0 + 1 + k) * res, (ix0 - k) * res)
        lines_y = np.where(step_y > 0, (iy0 + 1 + k) * res, (iy0 - k) * res)
        t_x = np.where(step_x != 0, (lines_x - x0) * inv_dx, np.inf)
        t_y = np.where(step_y != 0, (lines_y - y0) * inv_dy, np.inf)

    t_all = np.concatenate([t_x, t_y], axis=1)
    is_y = np.concatenate(
        [np.zeros(t_x.shape, dtype=bool), np.ones(t_y.shape, dtype=bool)], axis=1)
    order = np.lexsort((is_y, t_all), axis=1)
    rows = np.arange(n)[:, None]
    ts = t_all[rows, order]
    is_y = is_y[rows, order]

    # Cell entered at the m-th crossing: the start cell advanced once per
    # preceding crossing on each axis.
    ix = ix0 + step_x * np.cumsum(~is_y, axis=1)
    iy = iy0 + step_y * np.cumsum(is_y, axis=1)
    oob = (ix < 0) | (ix >= grid.nx) | (iy < 0) | (iy >= grid.ny)
    occ = grid.occupied[np.clip(iy, 0, grid.ny - 1), np.clip(ix, 0, grid.nx - 1)]
    # Out-of-grid counts as blocked, but the closed border is always hit
    # first so it never decides a range.
    hit = (occ | oob) & (ts <= max_range)
    first = hit.argmax(axis=1)
    return np.where(hit.any(axis=1), ts[np.arange(n), first], float(max_range))


def scan_angles(theta: float, sensor: SensorConfig) -> np.ndarray:
    """Absolute bearings of the sensor rays for a pose heading theta."""
    if sensor.n_rays < 1:
        raise InvalidInput("n_rays must be >= 1")
    if sensor.n_rays == 1:
        return np.array([theta])
    return theta + np.linspace(-sensor.fov / 2.0, sensor.fov / 2.0, sensor.n_rays)


def raycast_scan(grid: GridMap, pose: Pose2D, sensor: SensorConfig) -> DepthScan:
    """Cast a full sweep from a pose.  Cached per (pose, sensor) on the map."""
    key = (pose.x, pose.y, pose.theta, sensor.fov, sensor.n_rays, sensor.max_range)
    cached = grid._scan_cache.get(key)
    if cached is not None:
        return cached
    angles = scan_angles(pose.theta, sensor)
    ranges = raycast(grid, pose.x, pose.y, angles, sensor.max_range)
    hit_mask = ranges < sensor.max_range - 1e-12
    pts = np.stack(
        [pose.x + ranges[hit_mask] * np.cos(angles[hit_mask]),
         pose.y + ranges[hit_mask] * np.sin(angles[hit_mask])],
        axis=-1,
    ) if hit_mask.any() else np.zeros((0, 2))
    scan = DepthScan(angles=angles, ranges=ranges, hit_mask=hit_mask,
                     hit_points=pts, max_range=sensor.max_range)
    grid._scan_cache[key] = scan
    return scan


def _wrap_array(a: np.ndarray) -> np.ndarray:
    return np.arctan2(np.sin(a), np.cos(a))


def _directed_overlap(grid: GridMap, src_scan: DepthScan, dst: Pose2D, sensor: SensorConfig) -> float:
    """Fraction of src's impact points co-visible from dst."""
    n_hits = int(src_scan.hit_mask.sum())
    if n_hits == 0:
        return 0.0
    pts = src_scan.hit_points
    vx = pts[:, 0] - dst.x
    vy = pts[:, 1] - dst.y
    dist = np.hypot(vx, vy)
    bearing = np.arctan2(vy, vx)
    cand = (np.abs(_wrap_array(bearing - dst.theta)) <= sensor.fov / 2.0 + 1e-12) & (
        dist <= sensor.max_range + 1e-12
    )
    if not cand.any():
        return 0.0
    r = raycast(grid, dst.x, dst.y, bearing[cand], sensor.max_range)
    # The impact point sits on its cell's boundary; an unobstructed ray from
    # dst enters that cell no more than one cell diagonal early.
    tol = grid.resolution * SQRT2 + 1e-9
    seen = int((r >= dist[cand] - tol).sum())
    return seen / n_hits


def visual_overlap(grid: GridMap, a: Pose2D, b: Pose2D, sensor: SensorConfig) -> float:
    """Symmetric co-visibility score in [0, 1].

    Each direction scores the fraction of one pose's depth returns whose
    impact points the other pose can see (in its field of view, in range,
    unoccluded); the overlap is the smaller of the two.  A pose with no
    finite returns scores 0.
    """
    scan_a = raycast_scan(grid, a, sensor)
    scan_b = raycast_scan(grid, b, sensor)
    ab = _directed_overlap(grid, scan_a, b, sensor)
    if ab == 0.0:
        return 0.0
    ba = _directed_overlap(grid, scan_b, a, sensor)
    return min(ab, ba)


def is_visible(grid: GridMap, from_pose: Pose2D, target_xy, fov: float, max_range: float) -> bool:
    """Line-of-sight test: target within the view cone and unoccluded."""
    tx, ty = float(target_xy[0]), float(target_xy[1])
    d = math.hypot(tx - from_pose.x, ty - from_pose.y)
    if d < 1e-12:
        return True
    if d > max_range:
        return False
    bearing = math.atan2(ty - from_pose.y, tx - from_pose.x)
    if abs(wrap_angle(bearing - from_pose.theta)) > fov / 2.0 + 1e-12:
        return False
    r = raycast(grid, from_pose.x, from_pose.y, [bearing], max_range)
    return bool(r[0] + 1e-9 >= d)


# ---------------------------------------------------------------------------
# Path feasibility.
# ---------------------------------------------------------------------------


def shortest_feasible_path(
    grid: GridMap, a: Pose2D, b: Pose2D, robot_radius: float = DEFAULT_ROBOT_RADIUS
) -> float:
    """Length of the shortest collision-free grid path between two poses.

    8-connected over cells whose centers keep the robot disc clear; axis
    steps cost one resolution, diagonal steps sqrt(2) times that.  Returns
    math.inf when no such path exists.  Poses in the same cell score their
    euclidean distance.
    """
    if not (grid.in_bounds(a.x, a.y) and grid.in_bounds(b.x, b.y)):
        return math.inf
    ca = grid.cell_of(a.x, a.y)
    cb = grid.cell_of(b.x, b.y)
    if ca == cb:
        return math.hypot(b.x - a.x, b.y - a.y)
    passable = grid.passable(robot_radius)
    if not (passable[ca[1], ca[0]] and passable[cb[1], cb[0]]):
        return math.inf
    f = grid.path_distance_field(ca, robot_radius)
    return float(f[cb[1] * grid.nx + cb[0]])


# ---------------------------------------------------------------------------
# Motion.
# ---------------------------------------------------------------------------


def _arc_points(pose: Pose2D, v: float, omega: float, taus: np.ndarray):
    """Exact unicycle integration at the given time offsets."""
    if abs(omega) < 1e-12:
        xs = pose.x + v * taus * math.cos(pose.theta)
        ys = pose.y + v * taus * math.sin(pose.theta)
        ths = np.full(len(taus), pose.theta)
    else:
        ths = pose.theta + omega * taus
        k = v / omega
        xs = pose.x + k * (np.sin(ths) - math.sin(pose.theta))
        ys = pose.y - k * (np.cos(ths) - math.cos(pose.theta))
    return xs, ys, ths


def step_agent(
    grid: GridMap,
    state: AgentState,
    cmd: VelocityCmd,
    dt: float,
    robot_radius: float = DEFAULT_ROBOT_RADIUS,
) -> AgentState:
    """Advance one control period along an exact circular arc.

    The swept disc is checked at half-resolution spacing; on contact the
    agent is held at the last clear sample and the collision counter
    increments.  Pure rotation cannot collide (the disc does not move).
    """
    if not (dt > 0.0):
        raise InvalidInput("dt must be positive")
    arc_len = abs(cmd.v) * dt
    n = max(1, int(math.ceil(arc_len / (0.5 * grid.resolution))))
    taus = np.linspace(dt / n, dt, n)
    xs, ys, ths = _arc_points(state.pose, cmd.v, cmd.omega, taus)
    blocked = grid.disc_blocked(xs, ys, robot_radius)
    if blocked.any():
        first = int(np.argmax(blocked))
        if first == 0:
            pose = state.pose
        else:
            pose = Pose2D(float(xs[first - 1]), float(ys[first - 1]), float(ths[first - 1]))
        return AgentState(pose, state.collision_count + 1, state.step_count + 1)
    pose = Pose2D(float(xs[-1]), float(ys[-1]), float(ths[-1]))
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
    if rho < gains.arrive_pos_tol:
        if abs(yaw_err) < gains.arrive_yaw_tol:
            return VelocityCmd(0.0, 0.0)
        return VelocityCmd(0.0, float(np.clip(gains.k_alpha * yaw_err, -om_cap, om_cap)))
    alpha = wrap_angle(math.atan2(dyw, dxw) - current.theta)
    if abs(alpha) > math.pi / 2.0:
        return VelocityCmd(0.0, float(np.clip(gains.k_alpha * alpha, -om_cap, om_cap)))
    beta = wrap_angle(target.theta - current.theta - alpha)
    v = float(np.clip(gains.k_rho * rho, 0.0, gains.v_max))
    omega = float(np.clip(gains.k_alpha * alpha + gains.k_beta * beta, -om_cap, om_cap))
    return VelocityCmd(v, omega)


# ---------------------------------------------------------------------------
# Map files and generation.
# ---------------------------------------------------------------------------


def save_map(grid: GridMap, path: str) -> None:
    """Write the text format: a resolution line, then rows top-down."""
    lines = [f"resolution {grid.resolution!r}"]
    for row in grid.occupied[::-1]:
        lines.append("".join("#" if c else "." for c in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_map(path: str) -> GridMap:
    """Parse the text format; rejects ragged rows and bad characters."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip() != ""]
    if not lines or not lines[0].startswith("resolution"):
        raise InvalidMap(f"{path}: first line must be 'resolution <meters>'")
    parts = lines[0].split()
    if len(parts) != 2:
        raise InvalidMap(f"{path}: malformed resolution line {lines[0]!r}")
    try:
        res = float(parts[1])
    except ValueError as e:
        raise InvalidMap(f"{path}: bad resolution {parts[1]!r}") from e
    rows = lines[1:]
    if not rows:
        raise InvalidMap(f"{path}: no grid rows")
    width = len(rows[0])
    grid_rows = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InvalidMap(f"{path}: ragged row {i + 1} (len {len(row)} != {width})")
        bad = set(row) - {".", "#"}
        if bad:
            raise InvalidMap(f"{path}: unexpected characters {sorted(bad)!r} in row {i + 1}")
        grid_rows.append([c == "#" for c in row])
    return GridMap(res, np.array(grid_rows[::-1], dtype=bool))


def generate_rooms_map(
    width: float = 10.0,
    height: float = 8.0,
    resolution: float = 0.1,
    rooms_x: int = 2,
    rooms_y: int = 2,
    door_width: float = 0.8,
    seed: int = 0,
) -> GridMap:
    """Procedural floor plan: a rooms_x by rooms_y grid of rooms, one door
    carved at a seeded-random position in every shared wall."""
    nx = int(round(width / resolution))
    ny = int(round(height / resolution))
    if nx < 3 or ny < 3 or rooms_x < 1 or rooms_y < 1:
        raise InvalidInput("map too small")
    rng = np.random.default_rng(seed)
    occ = np.zeros((ny, nx), dtype=bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True

    door_cells = max(2, int(round(door_width / resolution)))
    x_walls = [int(round(j * nx / rooms_x)) for j in range(1, rooms_x)]
    y_walls = [int(round(j * ny / rooms_y)) for j in range(1, rooms_y)]
    y_edges = [0] + y_walls + [ny - 1]
    x_edges = [0] + x_walls + [nx - 1]

    for cx in x_walls:
        occ[:, cx] = True
    for cy in y_walls:
        occ[cy, :] = True
    # One door per wall segment between adjacent rooms.
    for cx in x_walls:
        for lo, hi in zip(y_edges[:-1], y_edges[1:]):
            span = hi - lo - 2
            if span <= door_cells:
                raise InvalidInput("rooms too small for the requested door width")
            start = lo + 1 + int(rng.integers(0, span - door_cells + 1))
            occ[start : start + door_cells, cx] = False
    for cy in y_walls:
        for lo, hi in zip(x_edges[:-1], x_edges[1:]):
            span = hi - lo - 2
            if span <= door_cells:
                raise InvalidInput("rooms too small for the requested door width")
            start = lo + 1 + int(rng.integers(0, span - door_cells + 1))
            occ[cy, start : start + door_cells] = False
    return GridMap(resolution, occ)


def sample_free_pose(
    grid: GridMap,
    rng: np.random.Generator,
    robot_radius: float = DEFAULT_ROBOT_RADIUS,
    max_tries: int = 1000,
) -> Pose2D:
    """Uniform pose over disc-free space (rejection sampled)."""
    for _ in range(max_tries):
        x = rng.uniform(0.0, grid.size_x)
        y = rng.uniform(0.0, grid.size_y)
        theta = rng.uniform(-math.pi, math.pi)
        if not grid.disc_blocked([x], [y], robot_radius)[0]:
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
