"""Directed topological map over observations.

Vertices are observations, edges carry a connectivity belief (Bernoulli
probability plus a Gaussian distance estimate).  The graph is grown by
sampling from a trajectory pool: observations too close to an existing
vertex are merged away, observations within controller range become new
vertices wired to everything they can reach.  Planning runs Dijkstra over
the mean edge distances.

The graph keeps its vertex ids and true poses as arrays in id order,
so a window test over every vertex first drops, in one vectorised
estimator call, the vertices too far to pass, and tests the rest one by
one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import EdgeNotFound, GraphInvariantError, InvalidInput, InvalidVertex, LoadError
from .perception import Observation


@dataclass
class EdgeBelief:
    """Belief state of one directed edge: existence probability p and a
    Gaussian estimate (mu, sigma2) of the traversal distance."""

    p: float
    mu: float
    sigma2: float


def _belief_valid(b: EdgeBelief) -> bool:
    """p in [0, 1], a finite mu >= 0 and a finite sigma2 > 0."""
    return 0.0 <= b.p <= 1.0 and 0.0 <= b.mu < math.inf and 0.0 < b.sigma2 < math.inf


@dataclass(frozen=True)
class BuildParams:
    # D_m and D_c bound the merge and connect zones; D_loc bounds
    # localization.  Requires 0 < D_m < D_c and D_loc > 0.  sigma2_init is
    # the estimator's distance variance, for new edges and traversals alike.
    D_m: float = 0.5
    D_c: float = 2.0
    D_loc: float = 1.0
    r_connect_min: float = 0.5
    rng_seed: int = 0
    sigma2_init: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.D_m < self.D_c):
            raise InvalidInput("need 0 < D_m < D_c")
        if not self.D_loc > 0.0:
            raise InvalidInput("D_loc must be positive")
        if not 0.0 <= self.r_connect_min <= 1.0:
            raise InvalidInput("r_connect_min must be in [0, 1]")
        if not 0.0 < self.sigma2_init < math.inf:
            raise InvalidInput("sigma2_init must be positive and finite")
        if self.rng_seed < 0:
            raise InvalidInput("rng_seed must be non-negative")


class TrajectoryPool:
    """Observations collected on a trajectory but not represented in the
    graph, keyed by their unique ids.  Keeps arrival order."""

    def __init__(self, observations=()):
        self._obs: dict[int, Observation] = {}
        for o in observations:
            if o.id in self._obs:
                raise InvalidInput(f"observation {o.id} is already in the pool")
            self._obs[o.id] = o

    def __len__(self) -> int:
        return len(self._obs)

    def __iter__(self):
        return iter(self._obs.values())

    def ids(self) -> list[int]:
        return list(self._obs)

    def get(self, obs_id: int) -> Observation | None:
        return self._obs.get(obs_id)

    def discard(self, obs_id: int) -> None:
        self._obs.pop(obs_id, None)


class TopoGraph:
    """Directed graph keyed by observation id.

    Mutate it through its methods only: they keep `edges`, the per-vertex
    successor index, and the arrays `ids` (vertex ids, ascending) and
    `poses` (their true x, y, theta, one row each) in step.
    """

    def __init__(self, build_params: BuildParams = BuildParams()):
        self.vertices: dict[int, Observation] = {}
        self.edges: dict[tuple[int, int], EdgeBelief] = {}
        self._succ: dict[int, set[int]] = {}
        self.ids = np.empty(0, dtype=np.int64)
        self.poses = np.empty((0, 3))
        self.build_params = build_params

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
        self._succ[obs.id] = set()
        k = int(np.searchsorted(self.ids, obs.id))
        self.ids = np.concatenate((self.ids[:k], [obs.id], self.ids[k:]))
        p = obs.true_pose
        self.poses = np.concatenate((self.poses[:k], [(p.x, p.y, p.theta)], self.poses[k:]))

    def add_edge(self, src: int, dst: int, belief: EdgeBelief) -> None:
        if src not in self.vertices or dst not in self.vertices:
            raise InvalidVertex(f"edge ({src}, {dst}) references missing vertex")
        if src == dst:
            raise InvalidInput("self-edges not allowed")
        if (src, dst) in self.edges:
            raise InvalidInput(f"duplicate edge ({src}, {dst})")
        if not _belief_valid(belief):
            raise InvalidInput("edge belief out of range")
        self.edges[(src, dst)] = belief
        self._succ[src].add(dst)

    def remove_edge(self, src: int, dst: int) -> None:
        if (src, dst) not in self.edges:
            raise EdgeNotFound(f"({src}, {dst})")
        del self.edges[(src, dst)]
        self._succ[src].remove(dst)

    def remove_vertex(self, vid: int) -> None:
        if vid not in self.vertices:
            raise InvalidVertex(str(vid))
        del self.vertices[vid]
        k = int(np.searchsorted(self.ids, vid))
        self.ids = np.concatenate((self.ids[:k], self.ids[k + 1:]))
        self.poses = np.concatenate((self.poses[:k], self.poses[k + 1:]))
        for dst in self._succ.pop(vid):
            del self.edges[(vid, dst)]
        for src, succ in self._succ.items():
            if vid in succ:
                succ.remove(vid)
                del self.edges[(src, vid)]

    def out_neighbors(self, vid: int) -> list[int]:
        succ = self._succ.get(vid)
        if succ is None:
            raise InvalidVertex(str(vid))
        return sorted(succ)

    def check(self) -> None:
        """Raise GraphInvariantError unless every edge joins two vertices
        and has a valid belief (p in [0, 1], finite mu >= 0, finite
        sigma2 > 0), the successor index is exactly what a scan of the
        edges gives, and `ids` and `poses` list every vertex's id and true
        pose in id order."""
        scan: dict[int, set[int]] = {vid: set() for vid in self.vertices}
        for (src, dst), belief in self.edges.items():
            if src not in self.vertices or dst not in self.vertices:
                raise GraphInvariantError(f"edge ({src}, {dst}) has an endpoint "
                                          "that is not a vertex")
            if not _belief_valid(belief):
                raise GraphInvariantError(f"edge ({src}, {dst}) has belief {belief!r}")
            scan[src].add(dst)
        if self._succ != scan:
            raise GraphInvariantError("successor index does not match the edges")
        order = sorted(self.vertices)
        poses = [[p.x, p.y, p.theta] for p in (self.vertices[v].true_pose for v in order)]
        if self.ids.tolist() != order or self.poses.tolist() != poses:
            raise GraphInvariantError("ids or poses do not match the vertices")


def reach(src: Observation, dst: Observation, estimator, lo: float, hi: float,
          r_min: float):
    """(d, r_hat) when the estimator puts dst at waypoint distance d in
    [lo, hi) from src with score r_hat >= r_min; None otherwise.

    This is the one window test behind merging, connecting, localizing and
    judging a traversal.  It checks the estimator's distance floor, then
    its waypoint distance (_distance_in), and only then asks for the
    score, which is the costly half of a prediction; most pairs fall
    outside the window.  An inclusive upper bound x is passed as
    math.nextafter(x, math.inf).
    """
    d = _distance_in(src, dst, estimator, lo, hi)
    if d is None:
        return None
    r_hat = estimator.predict(src, dst).r_hat
    return (d, r_hat) if r_hat >= r_min else None


def _distance_in(src: Observation, dst: Observation, estimator, lo: float, hi: float):
    """The waypoint distance from src to dst when it lies in [lo, hi),
    else None: reach without the score."""
    if estimator.distance_floor(src, dst) >= hi:
        return None
    d = estimator.waypoint_distance(src, dst)
    return d if lo <= d < hi else None


def _near(graph: TopoGraph, obs: Observation, estimator, hi: float) -> list[int]:
    """Ascending ids of the vertices whose distance_floor_many to obs lies
    below hi.  That floor is at most the scalar one, so every vertex that
    reach could pass within a window ending at hi, in either direction, is
    kept."""
    return graph.ids[estimator.distance_floor_many(graph, obs) < hi].tolist()


def is_mergeable(candidate: Observation, graph: TopoGraph, estimator, params: BuildParams) -> bool:
    """True when some vertex already covers the candidate: the estimator
    reaches it with distance below D_m."""
    return any(reach(graph.vertices[vid], candidate, estimator, 0.0, params.D_m,
                     params.r_connect_min) is not None
               for vid in _near(graph, candidate, estimator, params.D_m))


def is_connectable(src: Observation, dst: Observation, estimator, params: BuildParams):
    """EdgeBelief for src -> dst when the estimator deems dst reachable at a
    distance inside [D_m, D_c]; None otherwise.  Below D_m is merge
    territory, never an edge."""
    hit = reach(src, dst, estimator, params.D_m, math.nextafter(params.D_c, math.inf),
                params.r_connect_min)
    return None if hit is None else EdgeBelief(p=hit[1], mu=hit[0], sigma2=params.sigma2_init)


def traversal_succeeded(graph: TopoGraph, subgoal: int, arrival: Observation, estimator) -> bool:
    """Whether arrival lies in the graph's connect window from vertex
    `subgoal`, less its lower bound: ending closer than D_m is no failure."""
    p = graph.build_params
    return reach(graph.vertices[subgoal], arrival, estimator, 0.0,
                 math.nextafter(p.D_c, math.inf), p.r_connect_min) is not None


def connect(graph: TopoGraph, obs: Observation, estimator, params: BuildParams) -> bool:
    """Add obs as a vertex wired to every vertex it connects with.

    For each vertex in id order, obs -> vertex and then vertex -> obs become
    edges where is_connectable allows them.  When no edge passes, the graph
    is left untouched.  Returns whether obs was added.
    """
    edges = []
    for vid in _near(graph, obs, estimator, math.nextafter(params.D_c, math.inf)):
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
    observations).  Observation ids must be unique.
    """
    pool = TrajectoryPool(traj)
    if not pool:
        raise InvalidInput("empty trajectory")
    rng = np.random.default_rng(params.rng_seed)
    graph = TopoGraph(params)
    first = list(pool)[int(rng.integers(len(pool)))]
    pool.discard(first.id)
    graph.add_vertex(first)

    updated = True
    while updated and pool:
        updated = False
        snapshot = list(pool)
        for i in rng.permutation(len(snapshot)):
            cand = snapshot[i]
            if is_mergeable(cand, graph, estimator, params):
                pool.discard(cand.id)
                continue
            if connect(graph, cand, estimator, params):
                pool.discard(cand.id)
                updated = True
    return graph, pool


def _nearest(graph, ids, obs, estimator, params):
    """The vertex of ids that reaches obs within [0, D_loc) at the least
    (distance, id), or None.  Only the candidates inside the window are
    scored, nearest first, up to the first that passes."""
    window = []
    for vid in ids:
        d = _distance_in(graph.vertices[vid], obs, estimator, 0.0, params.D_loc)
        if d is not None:
            window.append((d, vid))
    for _, vid in sorted(window):
        if estimator.predict(graph.vertices[vid], obs).r_hat >= params.r_connect_min:
            return vid
    return None


def localize(graph: TopoGraph, obs: Observation, estimator, params: BuildParams, last_path=None):
    """Vertex id the observation localizes to, or None.

    Qualifying vertices reach the observation with distance below D_loc;
    the nearest wins, ties to the smaller id.  When a previous plan is
    given, its vertices and their out-neighbors are searched first and the
    global search only runs if that local set fails.
    """
    near = _near(graph, obs, estimator, params.D_loc)
    if last_path:
        local = {vid for vid in last_path if vid in graph.vertices}
        for vid in list(local):
            local.update(graph.out_neighbors(vid))
        hit = _nearest(graph, [vid for vid in near if vid in local], obs, estimator, params)
        if hit is not None:
            return hit
    return _nearest(graph, near, obs, estimator, params)


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
_GRAPH_SECTIONS = ("[params]", "[observations]", "[vertices]", "[edges]", "[pool]")
_TRAJ_HEADER = "toponav-trajectory/v1"


def _read_body(path: str, header: str) -> list[str]:
    """The non-blank lines after the file's first line, which must be
    `header`.  An unreadable file or another header is a LoadError."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise LoadError(str(e)) from e
    if not lines or lines[0] != header:
        raise LoadError(f"not a {header} file")
    return [ln for ln in lines[1:] if ln.strip()]


def save_trajectory(observations, path: str) -> None:
    """Write the observations in order, one Observation.record() line
    each: an observation read from a file writes back the line it was read
    from.  Raises InvalidInput, before the file is opened, when one has no
    scan."""
    lines = [o.record() + "\n" for o in observations]
    with open(path, "w") as fh:
        fh.write(_TRAJ_HEADER + "\n")
        fh.writelines(lines)


def load_trajectory(path: str) -> list[Observation]:
    """Inverse of save_trajectory.  Every value is checked here (a
    LoadError); each observation keeps its line and parses its scan from
    it on the first read."""
    try:
        return [Observation.from_record(ln) for ln in _read_body(path, _TRAJ_HEADER)]
    except (ValueError, IndexError) as e:
        raise LoadError(f"malformed trajectory file: {e}") from e


def save_graph(graph: TopoGraph, pool: TrajectoryPool, path: str) -> None:
    """Write graph, pool, and build params as versioned sectioned text.
    Orderings are deterministic so identical runs produce identical files.
    Each observation is one Observation.record() line, in repr form, except
    that one read from a file writes back its line as it was read, even
    when its numbers were not in repr form.  Raises, before the file is
    opened, GraphInvariantError when the pool holds a vertex and
    InvalidInput when an observation has no scan."""
    if any(o.id in graph.vertices for o in pool):
        raise GraphInvariantError("the pool overlaps the vertices")
    lines = [o.record() + "\n" for o in list(graph.vertices.values()) + list(pool)]
    p = graph.build_params
    with open(path, "w") as fh:
        fh.write(_GRAPH_HEADER + "\n")
        fh.write("[params]\n")
        for f in fields(BuildParams):
            fh.write(f"{f.name} {getattr(p, f.name)!r}\n")
        fh.write("[observations]\n")
        fh.writelines(lines)
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
    """Inverse of save_graph.  Returns (graph, pool).  Any other layout of
    sections, params or observations than save_graph's, or a value that
    load_trajectory would refuse, is a LoadError."""
    lines = _read_body(path, _GRAPH_HEADER)
    heads = [k for k, ln in enumerate(lines) if ln.startswith("[")]
    if heads[:1] != [0] or [lines[k] for k in heads] != list(_GRAPH_SECTIONS):
        raise LoadError(f"expected the sections {' '.join(_GRAPH_SECTIONS)}, "
                        "once each and in that order")
    params_lines, obs_lines, vertex_lines, edge_lines, pool_lines = (
        lines[a + 1:b] for a, b in zip(heads, heads[1:] + [len(lines)]))
    try:
        raw = [ln.split(None, 1) for ln in params_lines]
        if [kv[0] for kv in raw] != [f.name for f in fields(BuildParams)]:
            raise LoadError("[params] must list the build parameters in order")
        params = BuildParams(**{f.name: type(f.default)(v)
                                for f, (_, v) in zip(fields(BuildParams), raw)})
        obs = {o.id: o for o in map(Observation.from_record, obs_lines)}
        graph = TopoGraph(params)
        for ln in vertex_lines:
            graph.add_vertex(obs[int(ln)])
        for ln in edge_lines:
            s, d, p_, mu, s2 = ln.split()
            graph.add_edge(int(s), int(d), EdgeBelief(float(p_), float(mu), float(s2)))
        pool_ids = [int(ln) for ln in pool_lines]
        if len(obs) != len(obs_lines) or list(obs) != list(graph.vertices) + pool_ids:
            raise LoadError("[observations] must list each vertex, then each pool id, once")
        pool = TrajectoryPool(obs[i] for i in pool_ids)
    except (KeyError, ValueError, IndexError, InvalidInput, InvalidVertex) as e:
        raise LoadError(f"malformed graph file: {e}") from e
    return graph, pool
