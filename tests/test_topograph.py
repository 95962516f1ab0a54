import itertools
import math

import numpy as np
import pytest

from toponav.errors import (EdgeNotFound, GraphInvariantError, InvalidInput, InvalidVertex,
                            LoadError)
from toponav.gridworld import DepthScan
from toponav.fixtures import two_room_map, two_room_route
from toponav.navharness import World, collect_trajectory
from toponav.perception import NoiseConfig, Observation, OracleEstimator, Prediction
from toponav.se2 import Pose2D, Waypoint, waypoint_distance
from toponav.topograph import (
    BuildParams,
    EdgeBelief,
    TopoGraph,
    TrajectoryPool,
    build_graph,
    connect,
    is_connectable,
    is_mergeable,
    load_graph,
    load_trajectory,
    localize,
    plan,
    reach,
    save_graph,
    save_trajectory,
    traversal_succeeded,
)

from test_gridworld import empty_room, room_with_column_wall
from test_perception import mk_obs

PARAMS = BuildParams()


def dummy_obs(oid):
    scan = DepthScan(np.zeros(1), np.full(1, 5.0), np.zeros((0, 2)), 5.0)
    p = Pose2D(0.0, 0.0, 0.0)
    return Observation(oid, scan, p, p)


def square_loop_traj(g, n_loops=3, spacing=0.1):
    # Rectangular patrol route walked n_loops times, heading along travel.
    # Corners turn in place in sub-quarter increments: a quarter-turn jump
    # would put consecutive samples farther apart than D_c and the chain
    # could never close around the loop.
    corners = [(1.5, 1.5), (4.5, 1.5), (4.5, 3.5), (1.5, 3.5)]
    poses = []
    for _ in range(n_loops):
        for i in range(4):
            x0, y0 = corners[i]
            x1, y1 = corners[(i + 1) % 4]
            seg = math.hypot(x1 - x0, y1 - y0)
            th = math.atan2(y1 - y0, x1 - x0)
            n = int(round(seg / spacing))
            for j in range(n):
                t = j / n
                poses.append(Pose2D(x0 + t * (x1 - x0), y0 + t * (y1 - y0), th))
            for k in range(1, 4):
                poses.append(Pose2D(x1, y1, th + k * math.pi / 8.0))
    return [mk_obs(g, i, p) for i, p in enumerate(poses)]


class TestTopoGraphStructure:
    def test_vertex_and_edge_bookkeeping(self):
        g = TopoGraph()
        a, b, c = dummy_obs(1), dummy_obs(2), dummy_obs(3)
        for o in (a, b, c):
            g.add_vertex(o)
        g.add_edge(1, 2, EdgeBelief(0.9, 1.0, 0.25))
        g.add_edge(1, 3, EdgeBelief(0.9, 1.0, 0.25))
        g.add_edge(3, 1, EdgeBelief(0.9, 1.0, 0.25))
        assert g.n_vertices == 3 and g.n_edges == 3
        assert g.out_neighbors(1) == [2, 3]
        g.remove_vertex(3)
        assert g.n_edges == 1 and (3, 1) not in g.edges

    def test_rejects_bad_edges(self):
        g = TopoGraph()
        g.add_vertex(dummy_obs(1))
        g.add_vertex(dummy_obs(2))
        with pytest.raises(InvalidInput):
            g.add_edge(1, 1, EdgeBelief(0.9, 1.0, 0.25))
        with pytest.raises(InvalidVertex):
            g.add_edge(1, 9, EdgeBelief(0.9, 1.0, 0.25))
        g.add_edge(1, 2, EdgeBelief(0.9, 1.0, 0.25))
        with pytest.raises(InvalidInput):
            g.add_edge(1, 2, EdgeBelief(0.8, 1.0, 0.25))
        with pytest.raises(InvalidInput):
            g.add_edge(2, 1, EdgeBelief(1.5, 1.0, 0.25))
        with pytest.raises(EdgeNotFound):
            g.remove_edge(2, 1)
        with pytest.raises(InvalidVertex):
            g.add_vertex(dummy_obs(1))

    def test_adjacency_index_follows_random_mutations(self):
        rng = np.random.default_rng(5)
        g = TopoGraph()
        next_id = 0
        for _ in range(600):
            op = rng.integers(4)
            vids = sorted(g.vertices)
            if op == 0 or len(vids) < 2:
                g.add_vertex(dummy_obs(next_id))
                next_id += 1
            elif op == 1:
                src, dst = (int(v) for v in rng.choice(vids, size=2, replace=False))
                if (src, dst) not in g.edges:
                    g.add_edge(src, dst, EdgeBelief(float(rng.uniform()), 1.0, 0.25))
            elif op == 2 and g.edges:
                keys = sorted(g.edges)
                g.remove_edge(*keys[int(rng.integers(len(keys)))])
            elif op == 3 and rng.uniform() < 0.3:
                g.remove_vertex(int(rng.choice(vids)))
            g.check()
            for vid in g.vertices:
                assert g.out_neighbors(vid) == sorted(d for (s, d) in g.edges if s == vid)
        assert g.n_vertices > 10 and g.n_edges > 10

    def test_check_rejects_inconsistent_graphs(self):
        def graph():
            g = TopoGraph()
            for vid in (1, 2, 3):
                g.add_vertex(dummy_obs(vid))
            g.add_edge(1, 2, EdgeBelief(0.9, 1.0, 0.25))
            g.check()
            return g

        breaks = [
            lambda g: g.edges.__setitem__((1, 7), EdgeBelief(0.9, 1.0, 0.25)),
            lambda g: g.edges.__setitem__((2, 3), EdgeBelief(0.9, 1.0, 0.25)),
            lambda g: g.edges.pop((1, 2)),
            lambda g: setattr(g.edges[(1, 2)], "p", 1.5),
            lambda g: setattr(g.edges[(1, 2)], "sigma2", 0.0),
            lambda g: g.vertices.pop(2),
        ]
        for corrupt in breaks:
            g = graph()
            corrupt(g)
            with pytest.raises(GraphInvariantError):
                g.check()

    def test_vertex_arrays_follow_adds_and_removals(self):
        g = TopoGraph()
        for vid in (4, 1, 7, 3):
            p = Pose2D(float(vid), 2.0 * vid, 0.0)
            g.add_vertex(Observation(vid, None, p, p))
        g.remove_vertex(7)
        g.check()
        assert g.ids.tolist() == [1, 3, 4]
        assert g.poses.tolist() == [[1.0, 2.0, 0.0], [3.0, 6.0, 0.0], [4.0, 8.0, 0.0]]

    @pytest.mark.parametrize("corrupt", [
        lambda g: g.vertices.__setitem__(9, dummy_obs(9)),
        lambda g: g.vertices.__setitem__(4, dummy_obs(4)),
        lambda g: g.poses.__setitem__((0, 1), 5.0),
        lambda g: g.poses.__setitem__((0, 2), 0.5),
        lambda g: setattr(g, "ids", g.ids[::-1].copy()),
    ], ids=["vertex-not-in-ids", "moved-vertex", "moved-position", "turned-heading",
            "unsorted-ids"])
    @pytest.mark.parametrize("last", ["add_vertex", "remove_vertex"])
    def test_check_rejects_vertex_arrays_that_disagree_with_the_vertices(self, corrupt, last):
        g = TopoGraph()
        for vid in (1, 4, 6):
            p = Pose2D(float(vid), 1.0, 0.0)
            g.add_vertex(Observation(vid, None, p, p))
        if last == "add_vertex":
            g.add_vertex(dummy_obs(2))
        else:
            g.remove_vertex(6)
        g.check()
        corrupt(g)
        with pytest.raises(GraphInvariantError):
            g.check()

    @pytest.mark.parametrize("mu, sigma2", [
        (math.nan, 0.25), (math.inf, 0.25), (-1.0, 0.25), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_non_finite_or_negative_beliefs_rejected(self, mu, sigma2):
        g = TopoGraph()
        for vid in (1, 2):
            g.add_vertex(dummy_obs(vid))
        with pytest.raises(InvalidInput):
            g.add_edge(1, 2, EdgeBelief(0.9, mu, sigma2))
        g.add_edge(1, 2, EdgeBelief(0.9, 1.0, 0.25))
        g.edges[(1, 2)].mu, g.edges[(1, 2)].sigma2 = mu, sigma2
        with pytest.raises(GraphInvariantError):
            g.check()

    def test_build_params_validated(self):
        with pytest.raises(InvalidInput):
            BuildParams(D_m=3.0, D_c=2.0)
        with pytest.raises(InvalidInput):
            BuildParams(D_loc=0.0)


class TestMergeAndConnect:
    def setup_method(self):
        self.g = empty_room(6.0, 5.0)
        self.est = OracleEstimator(self.g)

    def test_mergeable_empty_graph_false(self):
        assert not is_mergeable(mk_obs(self.g, 0, Pose2D(2, 2, 0)), TopoGraph(), self.est, PARAMS)

    def test_mergeable_identical_pose(self):
        graph = TopoGraph()
        graph.add_vertex(mk_obs(self.g, 0, Pose2D(2.0, 2.5, 0.0)))
        assert is_mergeable(mk_obs(self.g, 1, Pose2D(2.0, 2.5, 0.0)), graph, self.est, PARAMS)

    def test_midway_distance_not_mergeable(self):
        graph = TopoGraph()
        graph.add_vertex(mk_obs(self.g, 0, Pose2D(2.0, 2.5, 0.0)))
        mid = 0.5 * (PARAMS.D_m + PARAMS.D_c)
        cand = mk_obs(self.g, 1, Pose2D(2.0 + mid, 2.5, 0.0))
        assert not is_mergeable(cand, graph, self.est, PARAMS)
        assert is_connectable(graph.vertices[0], cand, self.est, PARAMS) is not None

    def test_connectable_identical_pose_none(self):
        a = mk_obs(self.g, 0, Pose2D(2.0, 2.5, 0.0))
        b = mk_obs(self.g, 1, Pose2D(2.0, 2.5, 0.0))
        assert is_connectable(a, b, self.est, PARAMS) is None

    def test_connectable_one_meter_gives_mu_one(self):
        a = mk_obs(self.g, 0, Pose2D(2.0, 2.5, 0.0))
        b = mk_obs(self.g, 1, Pose2D(3.0, 2.5, 0.0))
        belief = is_connectable(a, b, self.est, PARAMS)
        assert belief is not None
        assert belief.mu == pytest.approx(1.0, abs=1e-12)
        assert belief.sigma2 == PARAMS.sigma2_init
        assert 0.91 <= belief.p <= 0.99

    def test_connect_adds_a_vertex_only_with_edges(self):
        graph = TopoGraph()
        graph.add_vertex(mk_obs(self.g, 0, Pose2D(2.0, 2.5, 0.0)))
        graph.add_vertex(mk_obs(self.g, 1, Pose2D(3.0, 2.5, 0.0)))
        far = mk_obs(self.g, 2, Pose2D(5.5, 4.5, 1.0))
        assert not connect(graph, far, self.est, PARAMS)
        assert sorted(graph.vertices) == [0, 1] and graph.n_edges == 0
        # 1 m ahead of vertex 1 and 2 m ahead of vertex 0: each reaches the
        # candidate, which faces away from both.
        ahead = mk_obs(self.g, 3, Pose2D(4.0, 2.5, 0.0))
        assert connect(graph, ahead, self.est, PARAMS)
        assert sorted(graph.edges) == [(0, 3), (1, 3)]
        assert graph.edges[(1, 3)].mu == pytest.approx(1.0, abs=1e-12)

    def test_wall_separated_not_connectable(self):
        g = room_with_column_wall(6.0)
        est = OracleEstimator(g)
        a = mk_obs(g, 0, Pose2D(5.3, 5.0, 0.0))
        b = mk_obs(g, 1, Pose2D(6.9, 5.0, 0.0))
        assert is_connectable(a, b, est, PARAMS) is None


class WindowStub:
    """Estimator that puts every pair ending at observation i at distance
    dist[i] with score 0.95, and its floor at that distance or at 0.0; it
    records the ids of the pairs it gives a waypoint and a score."""

    def __init__(self, dist, exact_floor=True):
        self.dist, self.exact_floor, self.waypoints, self.scored = dist, exact_floor, [], []

    def distance_floor(self, a, b):
        return self.dist[b.id] if self.exact_floor else 0.0

    def distance_floor_many(self, graph, obs):
        # Distances are known by a pair's end only: no floor for obs -> vertex.
        return np.zeros(len(graph.ids))

    def waypoint_distance(self, a, b):
        self.waypoints.append(b.id)
        return self.dist[b.id]

    def waypoint(self, a, b):
        return Waypoint(self.dist[b.id], 0.0, 0.0)

    def predict(self, a, b):
        self.scored.append(b.id)
        return Prediction(0.95, Waypoint(self.dist[b.id], 0.0, 0.0))


class TestReachWindows:
    """Merging, connecting, localizing and judging a traversal each test one
    reach() window; the bounds are exact at the parameter values."""

    def test_reach_returns_distance_and_score_inside_the_window(self):
        est = WindowStub({1: 0.5, 2: 1.0})
        assert reach(dummy_obs(0), dummy_obs(1), est, 0.0, 1.0, 0.5) == (0.5, 0.95)
        assert reach(dummy_obs(0), dummy_obs(1), est, 0.0, 1.0, 0.96) is None
        assert reach(dummy_obs(0), dummy_obs(2), est, 0.0, 1.0, 0.5) is None
        # The floor rejects pair 2 before any waypoint or score.
        assert est.waypoints == [1, 1] and est.scored == [1, 1]

    @pytest.mark.parametrize("exact_floor", [True, False])
    def test_window_bounds(self, exact_floor):
        D_m, D_c, D_loc = PARAMS.D_m, PARAMS.D_c, PARAMS.D_loc
        dist = {1: D_m, 2: math.nextafter(D_m, 0.0), 3: D_c, 4: math.nextafter(D_c, math.inf),
                5: D_loc, 6: math.nextafter(D_loc, 0.0)}
        assert all(waypoint_distance(Waypoint(d, 0.0, 0.0)) == d for d in dist.values())
        est = WindowStub(dist, exact_floor)
        graph = TopoGraph()
        graph.add_vertex(dummy_obs(0))
        v = graph.vertices[0]

        merged = {i for i in range(1, 7) if is_mergeable(dummy_obs(i), graph, est, PARAMS)}
        connected = {i for i in range(1, 7)
                     if is_connectable(v, dummy_obs(i), est, PARAMS) is not None}
        localized = {i for i in range(1, 7)
                     if localize(graph, dummy_obs(i), est, PARAMS) == 0}
        traversed = {i for i in range(1, 7)
                     if traversal_succeeded(graph, 0, dummy_obs(i), est)}
        assert merged == {2}
        assert connected == {1, 3, 5, 6}
        assert localized == {1, 2, 6}
        assert traversed == {1, 2, 3, 5, 6}
        assert is_connectable(v, dummy_obs(1), est, PARAMS).mu == D_m
        # Only pairs inside a window are ever scored.
        inside = len(merged) + len(connected) + 1 + len(localized) + len(traversed)
        assert len(est.scored) == inside
        assert 4 not in est.scored


class TestBuildGraph:
    def test_single_observation(self):
        g = empty_room(6.0, 5.0)
        graph, pool = build_graph([mk_obs(g, 7, Pose2D(2, 2, 0))], OracleEstimator(g))
        assert sorted(graph.vertices) == [7]
        assert graph.n_edges == 0 and len(pool) == 0

    def test_duplicate_pose_merges(self):
        g = empty_room(6.0, 5.0)
        traj = [mk_obs(g, i, Pose2D(2.0, 2.5, 0.0)) for i in range(2)]
        graph, pool = build_graph(traj, OracleEstimator(g))
        assert graph.n_vertices == 1 and graph.n_edges == 0 and len(pool) == 0

    def test_unreachably_far_pair_stays_in_pool(self):
        g = empty_room(25.0, 4.0)
        traj = [mk_obs(g, 0, Pose2D(2.0, 2.0, 0.0)),
                mk_obs(g, 1, Pose2D(2.0 + 10 * PARAMS.D_c, 2.0, 0.0))]
        graph, pool = build_graph(traj, OracleEstimator(g))
        assert graph.n_vertices == 1 and len(pool) == 1
        assert pool.ids()[0] != next(iter(graph.vertices))

    def test_empty_trajectory_rejected(self):
        with pytest.raises(InvalidInput):
            build_graph([], OracleEstimator(empty_room(6.0, 5.0)))

    def test_loop_fixture_invariants(self):
        g = empty_room(6.0, 5.0)
        est = OracleEstimator(g)
        traj = square_loop_traj(g, n_loops=3)
        graph, pool = build_graph(traj, est, PARAMS)

        # Sparsity: revisited loops collapse onto first-loop vertices.
        assert graph.n_vertices <= 0.45 * len(traj)
        assert graph.n_edges > 0

        # Merge guarantee, in the direction the builder tested: no vertex
        # added later sits within D_m reach of an earlier one, and nothing
        # left in the pool does either.
        order = list(graph.vertices)
        for i, j in itertools.combinations(range(len(order)), 2):
            u, v = graph.vertices[order[i]], graph.vertices[order[j]]
            pred = est.predict(u, v)
            assert not (pred.r_hat >= PARAMS.r_connect_min
                        and waypoint_distance(pred.w_hat) < PARAMS.D_m)
        for o in pool:
            for vid in graph.vertices:
                pred = est.predict(graph.vertices[vid], o)
                assert not (pred.r_hat >= PARAMS.r_connect_min
                            and waypoint_distance(pred.w_hat) < PARAMS.D_m)

        # Coverage: every trajectory observation is a vertex or localizes.
        for o in traj:
            if o.id in graph.vertices:
                continue
            assert localize(graph, o, est, PARAMS) is not None

    def test_reproducible_per_seed(self):
        g = empty_room(6.0, 5.0)
        traj = square_loop_traj(g, n_loops=2)
        g1, p1 = build_graph(traj, OracleEstimator(g), BuildParams(rng_seed=5))
        g2, p2 = build_graph(traj, OracleEstimator(g), BuildParams(rng_seed=5))
        assert list(g1.vertices) == list(g2.vertices)
        assert g1.edges.keys() == g2.edges.keys()
        assert all(g1.edges[k].mu == g2.edges[k].mu for k in g1.edges)
        assert p1.ids() == p2.ids()


class TestLocalize:
    def setup_method(self):
        self.g = empty_room(6.0, 5.0)
        self.est = OracleEstimator(self.g)

    def _graph(self, poses):
        graph = TopoGraph()
        for i, p in enumerate(poses):
            graph.add_vertex(mk_obs(self.g, i, p))
        return graph

    def test_identical_observation(self):
        graph = self._graph([Pose2D(2.0, 2.5, 0.0), Pose2D(4.0, 2.5, 0.0)])
        q = mk_obs(self.g, 99, Pose2D(4.0, 2.5, 0.0))
        assert localize(graph, q, self.est, PARAMS) == 1

    def test_out_of_range_not_localized(self):
        graph = self._graph([Pose2D(2.0, 2.5, 0.0)])
        q = mk_obs(self.g, 99, Pose2D(2.0 + 2 * PARAMS.D_loc, 2.5, 0.0))
        assert localize(graph, q, self.est, PARAMS) is None

    def test_equidistant_tie_goes_to_smaller_id(self):
        # 0.125 offsets are exact binary fractions, so the two distances
        # are bit-identical and only the id breaks the tie.
        graph = self._graph([Pose2D(2.0, 2.375, 0.0), Pose2D(2.0, 2.625, 0.0)])
        q = mk_obs(self.g, 99, Pose2D(2.5, 2.5, 0.0))
        assert localize(graph, q, self.est, PARAMS) == 0

    def test_last_path_searched_first(self):
        graph = self._graph([Pose2D(2.0, 2.5, 0.0), Pose2D(2.0, 4.0, 0.0),
                             Pose2D(2.55, 2.5, 0.0)])
        q = mk_obs(self.g, 99, Pose2D(2.8, 2.5, 0.0))
        assert localize(graph, q, self.est, PARAMS) == 2
        assert localize(graph, q, self.est, PARAMS, last_path=[0]) == 0

    def test_last_path_falls_back_to_global(self):
        graph = self._graph([Pose2D(2.0, 2.5, 0.0), Pose2D(4.0, 2.5, 0.0)])
        q = mk_obs(self.g, 99, Pose2D(4.3, 2.5, 0.0))
        assert localize(graph, q, self.est, PARAMS, last_path=[0]) == 1


def enumerate_best_path(graph, start, goal):
    """All-simple-paths reference: minimum cost, then lexicographic."""
    best = None
    stack = [(start, (start,), 0.0)]
    while stack:
        node, path, cost = stack.pop()
        if node == goal:
            key = (cost, path)
            if best is None or key < best:
                best = key
            continue
        for (s, d), b in graph.edges.items():
            if s == node and d not in path:
                stack.append((d, path + (d,), cost + b.mu))
    return None if best is None else list(best[1])


class TestPlan:
    def _graph(self, n, edge_list):
        g = TopoGraph()
        for i in range(n):
            g.add_vertex(dummy_obs(i))
        for s, d, mu in edge_list:
            g.add_edge(s, d, EdgeBelief(0.9, mu, 0.25))
        return g

    def test_chain(self):
        g = self._graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert plan(g, 0, 2) == [0, 1, 2]

    def test_self_plan(self):
        g = self._graph(1, [])
        assert plan(g, 0, 0) == [0]

    def test_diamond_prefers_cheap_branch(self):
        g = self._graph(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 0.6), (2, 3, 0.6)])
        assert plan(g, 0, 3) == [0, 2, 3]

    def test_no_path(self):
        g = self._graph(3, [(0, 1, 1.0), (2, 1, 1.0)])
        assert plan(g, 0, 2) is None

    def test_missing_vertex_rejected(self):
        g = self._graph(2, [(0, 1, 1.0)])
        with pytest.raises(InvalidVertex):
            plan(g, 0, 5)

    def test_matches_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            g = TopoGraph()
            for i in range(n):
                g.add_vertex(dummy_obs(i))
            for s in range(n):
                for d in range(n):
                    if s != d and rng.random() < 0.35:
                        # Quantized weights force frequent cost ties.
                        mu = 0.25 * float(rng.integers(1, 9))
                        g.add_edge(s, d, EdgeBelief(0.9, mu, 0.25))
            start, goal = int(rng.integers(n)), int(rng.integers(n))
            assert plan(g, start, goal) == enumerate_best_path(g, start, goal)


class TestTrajectoryPool:
    def test_discard_keeps_arrival_order(self):
        pool = TrajectoryPool(dummy_obs(i) for i in (5, 2, 9, 7))
        pool.discard(9)
        pool.discard(42)
        assert pool.ids() == [5, 2, 7] and len(pool) == 3
        assert [o.id for o in pool] == [5, 2, 7]

    def test_repeated_id_rejected(self):
        with pytest.raises(InvalidInput):
            TrajectoryPool([dummy_obs(1), dummy_obs(2), dummy_obs(1)])
        with pytest.raises(InvalidInput):
            build_graph([dummy_obs(1), dummy_obs(1)], None)


class TestPersistence:
    def _fixture(self):
        g = empty_room(6.0, 5.0)
        traj = square_loop_traj(g, n_loops=1, spacing=0.4)
        return build_graph(traj, OracleEstimator(g), BuildParams(rng_seed=3))

    def test_round_trip(self, tmp_path):
        graph, pool = self._fixture()
        path = str(tmp_path / "g.txt")
        save_graph(graph, pool, path)
        loaded, loaded_pool = load_graph(path)
        assert list(loaded.vertices) == list(graph.vertices)
        assert loaded.edges.keys() == graph.edges.keys()
        for k in graph.edges:
            a, b = graph.edges[k], loaded.edges[k]
            assert (a.p, a.mu, a.sigma2) == (b.p, b.mu, b.sigma2)
        assert loaded_pool.ids() == pool.ids()
        assert loaded.build_params == graph.build_params
        for vid, o in graph.vertices.items():
            lo = loaded.vertices[vid]
            assert lo.true_pose == o.true_pose and lo.odom_pose == o.odom_pose
            assert np.array_equal(lo.scan.angles, o.scan.angles)
            assert np.array_equal(lo.scan.ranges, o.scan.ranges)
            assert np.array_equal(lo.scan.hit_points, o.scan.hit_points)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        graph, pool = self._fixture()
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        save_graph(graph, pool, p1)
        g2, pool2 = load_graph(p1)
        save_graph(g2, pool2, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_empty_pool_round_trips(self, tmp_path):
        g = empty_room(6.0, 5.0)
        graph, pool = build_graph([mk_obs(g, 0, Pose2D(2, 2, 0))], OracleEstimator(g))
        path = str(tmp_path / "g.txt")
        save_graph(graph, pool, path)
        _, loaded_pool = load_graph(path)
        assert len(loaded_pool) == 0

    def test_wrong_version_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("topograph/v9\n[params]\n")
        with pytest.raises(LoadError):
            load_graph(str(p))

    @pytest.mark.parametrize("column, value", [(3, "nan"), (4, "inf")], ids=["mu", "sigma2"])
    def test_non_finite_edge_rejected(self, tmp_path, column, value):
        graph, pool = self._fixture()
        p = tmp_path / "g.txt"
        save_graph(graph, pool, str(p))
        lines = p.read_text().splitlines()
        i = lines.index("[edges]") + 1
        parts = lines[i].split()
        parts[column] = value
        lines[i] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError):
            load_graph(str(p))

    def test_non_finite_observation_rejected(self, tmp_path):
        graph, pool = self._fixture()
        p = tmp_path / "g.txt"
        save_graph(graph, pool, str(p))
        lines = p.read_text().splitlines()
        i = lines.index("[observations]") + 1
        parts = lines[i].split()
        parts[1] = "nan"
        lines[i] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError):
            load_graph(str(p))

    @pytest.mark.parametrize("column, value", [(7, "-1.0"), (-1, "-3.0"), (-1, "99.0")],
                             ids=["max_range=-1", "range=-3", "range=99"])
    def test_range_outside_max_range_rejected(self, tmp_path, column, value):
        graph, pool = self._fixture()
        p = tmp_path / "g.txt"
        save_graph(graph, pool, str(p))
        lines = p.read_text().splitlines()
        i = lines.index("[observations]") + 1
        parts = lines[i].split()
        parts[column] = value
        lines[i] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError):
            load_graph(str(p))

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("topograph/v1\n[edges]\n1 2 nonsense 0.5 0.25\n")
        with pytest.raises(LoadError):
            load_graph(str(p))
        # A repeated id in [pool] or in [observations].
        graph, _ = self._fixture()
        pool = TrajectoryPool([dummy_obs(1000), dummy_obs(1001)])
        save_graph(graph, pool, str(p))
        lines = p.read_text().splitlines()
        first_obs = lines.index("[observations]") + 1
        for bad in (lines + [str(pool.ids()[0])],
                    lines[:first_obs + 1] + lines[first_obs:]):
            p.write_text("\n".join(bad) + "\n")
            with pytest.raises(LoadError):
                load_graph(str(p))

    @pytest.mark.parametrize("edit", [
        lambda ls, i: ls[:i["[edges]"] + 3] + ["[edges]"] + ls[i["[edges]"] + 3:],
        lambda ls, i: ls + ["[bogus]"],
        lambda ls, i: ls[:i["[pool]"]],
        lambda ls, i: (ls[:i["[vertices]"]] + ls[i["[edges]"]:i["[pool]"]]
                       + ls[i["[vertices]"]:i["[edges]"]] + ls[i["[pool]"]:]),
        lambda ls, i: ls[:i["[params]"] + 1] + ["bogus 1"] + ls[i["[params]"] + 1:],
        lambda ls, i: (ls[:i["[observations]"] + 1]
                       + ["999999 " + ls[i["[observations]"] + 1].split(None, 1)[1]]
                       + ls[i["[observations]"] + 1:]),
    ], ids=["split-edges", "unknown-section", "missing-pool", "out-of-order",
            "unknown-param", "stray-observation"])
    def test_load_takes_only_what_save_writes(self, tmp_path, edit):
        # Each edit used to load, dropping or ignoring part of the file.
        graph, pool = self._fixture()
        p = tmp_path / "g.txt"
        save_graph(graph, pool, str(p))
        lines = p.read_text().splitlines()
        heads = {ln: k for k, ln in enumerate(lines) if ln.startswith("[")}
        p.write_text("\n".join(edit(lines, heads)) + "\n")
        with pytest.raises(LoadError):
            load_graph(str(p))

    @pytest.mark.parametrize("edit", [
        lambda parts, n: parts[:9 + 2 * n - 1] + ["nan"],
        lambda parts, n: parts[:9] + ["inf"] + parts[10:],
        lambda parts, n: parts[:-1],
        lambda parts, n: parts + ["1.0"],
        lambda parts, n: parts[:-1] + ["-0.5"],
        lambda parts, n: parts[:-1] + [repr(float(parts[7]) + 1.0)],
        lambda parts, n: parts[:7] + ["0.0"] + parts[8:],
        lambda parts, n: parts[:7] + ["-5.0"] + parts[8:],
    ], ids=["nan-range", "inf-angle", "2n-1-values", "2n+1-values", "negative-range",
            "range-over-max", "max_range=0", "max_range<0"])
    @pytest.mark.parametrize("kind", ["graph", "trajectory"])
    def test_malformed_scan_values_fail_the_load_itself(self, tmp_path, edit, kind):
        # Scans are parsed on first read, but every value is checked when
        # the file loads.
        graph, pool = self._fixture()
        p = tmp_path / "f.txt"
        if kind == "graph":
            save_graph(graph, pool, str(p))
        else:
            save_trajectory(list(graph.vertices.values()), str(p))
        lines = p.read_text().splitlines()
        i = lines.index("[observations]") + 1 if kind == "graph" else 1
        parts = lines[i].split()
        lines[i] = " ".join(edit(parts, int(parts[8])))
        p.write_text("\n".join(lines) + "\n")
        load = load_graph if kind == "graph" else load_trajectory
        with pytest.raises(LoadError):
            load(str(p))

    def test_a_set_up_graph_round_trips_without_building_a_scan(self, tmp_path, monkeypatch):
        # The query set-up: collect, keep every third observation, build
        # through files.  Loading and saving the graph again writes its
        # lines back as read, so no scan is parsed.
        grid = two_room_map()
        traj_path, graph_path = str(tmp_path / "t.traj"), str(tmp_path / "a.graph")
        save_trajectory(collect_trajectory(World(grid), two_room_route(), 1, 0.2), traj_path)
        est = OracleEstimator(grid, NoiseConfig(false_positive_rate=0.1))
        save_graph(*build_graph(load_trajectory(traj_path)[::3], est), graph_path)
        built = []
        from_ranges = DepthScan.from_ranges.__func__
        monkeypatch.setattr(DepthScan, "from_ranges",
                            classmethod(lambda cls, *a: built.append(1) or from_ranges(cls, *a)))
        save_graph(*load_graph(graph_path), str(tmp_path / "b.graph"))
        assert built == []
        assert (tmp_path / "a.graph").read_bytes() == (tmp_path / "b.graph").read_bytes()

    def test_a_line_not_in_repr_form_is_written_back_as_read(self, tmp_path):
        graph, pool = self._fixture()
        p, q = tmp_path / "a.txt", tmp_path / "b.txt"
        save_graph(graph, pool, str(p))
        lines = p.read_text().splitlines()
        i = lines.index("[observations]") + 1
        parts = lines[i].split()
        n = int(parts[8])
        parts[1:3] = [f"{float(v):.3f}" for v in parts[1:3]]
        parts[9] = f"{float(parts[9]):.6e}"
        parts[9 + n] = parts[9 + n] + "000"
        lines[i] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        loaded, loaded_pool = load_graph(str(p))
        obs = loaded.vertices[int(parts[0])]
        assert obs.true_pose.x == float(parts[1]) and obs.scan.angles[0] == float(parts[9])
        save_graph(loaded, loaded_pool, str(q))
        assert q.read_text() == p.read_text()

    def test_save_rejects_a_pool_that_overlaps_the_vertices(self, tmp_path):
        graph, _ = self._fixture()
        p = tmp_path / "g.txt"
        with pytest.raises(GraphInvariantError):
            save_graph(graph, TrajectoryPool([graph.vertices[min(graph.vertices)]]), str(p))
        assert not p.exists()
