"""Directed topological map over observations.

Vertices are observations, edges carry a connectivity belief (Bernoulli
probability plus a Gaussian distance estimate).  The graph is grown by
sampling from a trajectory pool: observations too close to an existing
vertex are merged away, observations within controller range become new
vertices wired to everything they can reach.  Planning runs Dijkstra over
the mean edge distances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import EdgeNotFound, InvalidInput, InvalidVertex, LoadError
from .gridworld import DepthScan
from .perception import Observation
from .se2 import Pose2D, waypoint_distance


@dataclass
class EdgeBelief:
    """Belief state of one directed edge: existence probability p and a
    Gaussian estimate (mu, sigma2) of the traversal distance."""

    p: float
    mu: float
    sigma2: float


@dataclass(frozen=True)
class BuildParams:
    # D_m and D_c bound the merge and connect zones; D_loc bounds
    # localization.  Requires 0 < D_m < D_c and D_loc > 0.
    D_m: float = 0.5
    D_c: float = 2.0
    D_loc: float = 1.0
    r_connect_min: float = 0.5
    rng_seed: int = 0
    sigma2_init: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.D_m < self.D_c):
            raise InvalidInput("need 0 < D_m < D_c")
        if self.D_loc <= 0.0:
            raise InvalidInput("D_loc must be positive")


class TrajectoryPool:
    """Observations collected on a trajectory but not represented in the
    graph.  Keeps arrival order."""

    def __init__(self, observations=()):
        self.remaining: list[Observation] = list(observations)

    def __len__(self) -> int:
        return len(self.remaining)

    def __iter__(self):
        return iter(self.remaining)

    def ids(self) -> list[int]:
        return [o.id for o in self.remaining]

    def discard(self, obs_id: int) -> None:
        self.remaining = [o for o in self.remaining if o.id != obs_id]


class TopoGraph:
    """Directed graph keyed by observation id."""

    def __init__(self):
        self.vertices: dict[int, Observation] = {}
        self.edges: dict[tuple[int, int], EdgeBelief] = {}
        self.build_params: BuildParams = BuildParams()

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def add_vertex(self, obs: Observation) -> None:
        if obs.id in self.vertices:
            raise InvalidVertex(f"vertex {obs.id} already present")
        self.vertices[obs.id] = obs

    def add_edge(self, src: int, dst: int, belief: EdgeBelief) -> None:
        if src not in self.vertices or dst not in self.vertices:
            raise InvalidVertex(f"edge ({src}, {dst}) references missing vertex")
        if src == dst:
            raise InvalidInput("self-edges not allowed")
        if (src, dst) in self.edges:
            raise InvalidInput(f"duplicate edge ({src}, {dst})")
        if not (0.0 <= belief.p <= 1.0) or belief.sigma2 <= 0.0 or belief.mu < 0.0:
            raise InvalidInput("edge belief out of range")
        self.edges[(src, dst)] = belief

    def remove_edge(self, src: int, dst: int) -> None:
        if (src, dst) not in self.edges:
            raise EdgeNotFound(f"({src}, {dst})")
        del self.edges[(src, dst)]

    def remove_vertex(self, vid: int) -> None:
        if vid not in self.vertices:
            raise InvalidVertex(str(vid))
        del self.vertices[vid]
        self.edges = {k: b for k, b in self.edges.items() if vid not in k}

    def out_neighbors(self, vid: int) -> list[int]:
        if vid not in self.vertices:
            raise InvalidVertex(str(vid))
        return sorted(d for (s, d) in self.edges if s == vid)


# Every test below checks the waypoint's distance window before it asks the
# estimator for a reachability score, which is the costly half of a
# prediction; most pairs fall outside the window.


def is_mergeable(candidate: Observation, graph: TopoGraph, estimator, params: BuildParams) -> bool:
    """True when some vertex already covers the candidate: the estimator
    reaches it with distance below D_m."""
    for vid in sorted(graph.vertices):
        vobs = graph.vertices[vid]
        if (waypoint_distance(estimator.waypoint(vobs, candidate)) < params.D_m
                and estimator.predict(vobs, candidate).r_hat >= params.r_connect_min):
            return True
    return False


def is_connectable(src: Observation, dst: Observation, estimator, params: BuildParams):
    """EdgeBelief for src -> dst when the estimator deems dst reachable at a
    distance inside [D_m, D_c]; None otherwise.  Below D_m is merge
    territory, never an edge."""
    d = waypoint_distance(estimator.waypoint(src, dst))
    if not (params.D_m <= d <= params.D_c):
        return None
    r_hat = estimator.predict(src, dst).r_hat
    if r_hat < params.r_connect_min:
        return None
    return EdgeBelief(p=r_hat, mu=d, sigma2=params.sigma2_init)


def connect(graph: TopoGraph, obs: Observation, estimator, params: BuildParams) -> bool:
    """Add obs as a vertex wired to every vertex it connects with.

    For each vertex in id order, obs -> vertex and then vertex -> obs become
    edges where is_connectable allows them.  When no edge passes, the graph
    is left untouched.  Returns whether obs was added.
    """
    edges = []
    for vid in sorted(graph.vertices):
        vobs = graph.vertices[vid]
        out = is_connectable(obs, vobs, estimator, params)
        if out is not None:
            edges.append((obs.id, vid, out))
        back = is_connectable(vobs, obs, estimator, params)
        if back is not None:
            edges.append((vid, obs.id, back))
    if not edges:
        return False
    graph.add_vertex(obs)
    for src, dst, belief in edges:
        graph.add_edge(src, dst, belief)
    return True


def build_graph(traj, estimator, params: BuildParams = BuildParams()):
    """Grow a graph from a trajectory by repeated sampling.

    Starts from one random observation, then sweeps the pool in shuffled
    order: mergeable observations are discarded, connectable ones become
    vertices with an edge per passing direction.  Sweeps repeat until a
    full pass adds no vertex.  Returns (graph, pool of untouched
    observations).
    """
    pool = list(traj)
    if not pool:
        raise InvalidInput("empty trajectory")
    rng = np.random.default_rng(params.rng_seed)
    graph = TopoGraph()
    graph.build_params = params
    first = pool.pop(int(rng.integers(len(pool))))
    graph.add_vertex(first)

    updated = True
    while updated and pool:
        updated = False
        order = rng.permutation(len(pool))
        snapshot = [pool[i] for i in order]
        for cand in snapshot:
            if is_mergeable(cand, graph, estimator, params):
                pool = [o for o in pool if o is not cand]
                continue
            if connect(graph, cand, estimator, params):
                pool = [o for o in pool if o is not cand]
                updated = True
    return graph, TrajectoryPool(pool)


def _best_within(graph, ids, obs, estimator, params):
    best = None
    for vid in ids:
        vobs = graph.vertices[vid]
        d = waypoint_distance(estimator.waypoint(vobs, obs))
        if d >= params.D_loc or estimator.predict(vobs, obs).r_hat < params.r_connect_min:
            continue
        if best is None or (d, vid) < best:
            best = (d, vid)
    return None if best is None else best[1]


def localize(graph: TopoGraph, obs: Observation, estimator, params: BuildParams, last_path=None):
    """Vertex id the observation localizes to, or None.

    Qualifying vertices reach the observation with distance below D_loc;
    the nearest wins, ties to the smaller id.  When a previous plan is
    given, its vertices and their out-neighbors are searched first and the
    global search only runs if that local set fails.
    """
    if last_path:
        local = {vid for vid in last_path if vid in graph.vertices}
        for vid in list(local):
            local.update(graph.out_neighbors(vid))
        hit = _best_within(graph, sorted(local), obs, estimator, params)
        if hit is not None:
            return hit
    return _best_within(graph, sorted(graph.vertices), obs, estimator, params)


def plan(graph: TopoGraph, start: int, goal: int):
    """Minimum-mu directed path as a vertex-id list, or None.

    Ties between equal-cost paths break toward the lexicographically
    smallest id sequence; heap entries carry the whole path so the order
    falls out of tuple comparison.
    """
    if start not in graph.vertices:
        raise InvalidVertex(str(start))
    if goal not in graph.vertices:
        raise InvalidVertex(str(goal))
    if start == goal:
        return [start]
    heap = [(0.0, (start,))]
    done = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        done.add(node)
        if node == goal:
            return list(path)
        for nxt in graph.out_neighbors(node):
            if nxt not in done:
                heapq.heappush(heap, (cost + graph.edges[(node, nxt)].mu, path + (nxt,)))
    return None


_GRAPH_HEADER = "topograph/v1"
_PARAM_FIELDS = ("D_m", "D_c", "D_loc", "r_connect_min", "rng_seed", "sigma2_init")


def _write_observation(fh, o: Observation) -> None:
    s = o.scan
    vals = [repr(float(v)) for v in (
        o.true_pose.x, o.true_pose.y, o.true_pose.theta,
        o.odom_pose.x, o.odom_pose.y, o.odom_pose.theta, s.max_range)]
    angles = " ".join(repr(float(a)) for a in s.angles)
    ranges = " ".join(repr(float(r)) for r in s.ranges)
    fh.write(f"{o.id} {' '.join(vals)} {len(s.angles)} {angles} {ranges}\n")


def _parse_observation(line: str) -> Observation:
    parts = line.split()
    oid = int(parts[0])
    tx, ty, tth, ox, oy, oth, max_range = (float(v) for v in parts[1:8])
    n = int(parts[8])
    rest = [float(v) for v in parts[9:]]
    if len(rest) != 2 * n:
        raise LoadError(f"observation {oid}: expected {2 * n} ray values")
    angles = np.array(rest[:n])
    ranges = np.array(rest[n:])
    # hit_mask and hit_points are pure functions of the stored fields; the
    # formulas mirror the scan constructor exactly.
    hit_mask = ranges < max_range - 1e-12
    pts = np.stack(
        [tx + ranges[hit_mask] * np.cos(angles[hit_mask]),
         ty + ranges[hit_mask] * np.sin(angles[hit_mask])],
        axis=-1,
    ) if hit_mask.any() else np.zeros((0, 2))
    scan = DepthScan(angles=angles, ranges=ranges, hit_mask=hit_mask,
                     hit_points=pts, max_range=max_range)
    return Observation(oid, scan, Pose2D(tx, ty, tth), Pose2D(ox, oy, oth))


def save_graph(graph: TopoGraph, pool: TrajectoryPool, path: str) -> None:
    """Write graph, pool, and build params as versioned sectioned text.
    Orderings are deterministic so identical runs produce identical files."""
    p = graph.build_params
    with open(path, "w") as fh:
        fh.write(_GRAPH_HEADER + "\n")
        fh.write("[params]\n")
        for name in _PARAM_FIELDS:
            fh.write(f"{name} {repr(getattr(p, name))}\n")
        fh.write("[observations]\n")
        seen = set()
        for o in list(graph.vertices.values()) + list(pool):
            if o.id not in seen:
                seen.add(o.id)
                _write_observation(fh, o)
        fh.write("[vertices]\n")
        for vid in graph.vertices:
            fh.write(f"{vid}\n")
        fh.write("[edges]\n")
        for (src, dst) in sorted(graph.edges):
            b = graph.edges[(src, dst)]
            fh.write(f"{src} {dst} {repr(b.p)} {repr(b.mu)} {repr(b.sigma2)}\n")
        fh.write("[pool]\n")
        for o in pool:
            fh.write(f"{o.id}\n")


def load_graph(path: str):
    """Inverse of save_graph.  Returns (graph, pool)."""
    try:
        lines = open(path).read().splitlines()
    except OSError as e:
        raise LoadError(str(e)) from e
    if not lines or lines[0] != _GRAPH_HEADER:
        raise LoadError(f"not a {_GRAPH_HEADER} file")
    sections: dict[str, list[str]] = {}
    current = None
    for ln in lines[1:]:
        if not ln.strip():
            continue
        if ln.startswith("["):
            current = ln
            sections[current] = []
        elif current is None:
            raise LoadError("content before first section")
        else:
            sections[current].append(ln)
    try:
        raw = dict(ln.split(None, 1) for ln in sections.get("[params]", []))
        params = BuildParams(
            D_m=float(raw["D_m"]), D_c=float(raw["D_c"]), D_loc=float(raw["D_loc"]),
            r_connect_min=float(raw["r_connect_min"]), rng_seed=int(raw["rng_seed"]),
            sigma2_init=float(raw["sigma2_init"]))
        obs = {}
        for ln in sections.get("[observations]", []):
            o = _parse_observation(ln)
            obs[o.id] = o
        graph = TopoGraph()
        graph.build_params = params
        for ln in sections.get("[vertices]", []):
            graph.add_vertex(obs[int(ln)])
        for ln in sections.get("[edges]", []):
            s, d, p_, mu, s2 = ln.split()
            graph.add_edge(int(s), int(d), EdgeBelief(float(p_), float(mu), float(s2)))
        pool_ids = [int(ln) for ln in sections.get("[pool]", [])]
        if set(pool_ids) & set(graph.vertices):
            raise LoadError("pool overlaps vertices")
        pool = TrajectoryPool(obs[i] for i in pool_ids)
    except LoadError:
        raise
    except (KeyError, ValueError, IndexError, InvalidInput, InvalidVertex) as e:
        raise LoadError(f"malformed graph file: {e}") from e
    return graph, pool
