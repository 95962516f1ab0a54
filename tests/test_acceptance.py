"""End-to-end behavior checks, one per promised property.

Each test is self-contained, pins its tolerances explicitly, and asserts
its own wall-clock budget, so a verbose run reads as a one-line verdict
per property.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from toponav import (
    BuildParams,
    EdgeBelief,
    EpisodeLimits,
    MaintenanceParams,
    NoiseConfig,
    Observation,
    OracleEstimator,
    Pose2D,
    TopoGraph,
    TrajectoryPool,
    Waypoint,
    World,
    build_graph,
    collect_trajectory,
    evaluate,
    localize,
    make_test_set,
    plan,
    run_episode,
    run_lifelong,
    se2_exp,
    se2_log,
    wall_crossing_edges,
    waypoint_distance,
    waypoint_matrix,
)
from toponav.cli import main
from toponav.fixtures import (
    apartment_map,
    apartment_route,
    two_room_map,
    two_room_route,
)
from toponav.gridworld import DepthScan
from toponav.maintenance import bayes_connectivity_update, gaussian_weight_update
from toponav.se2 import wrap_angle


def _logm_distance(w: Waypoint) -> float:
    L = scipy.linalg.logm(waypoint_matrix(w))
    return float(np.linalg.norm(L, "fro"))


def _dummy_obs(oid: int) -> Observation:
    scan = DepthScan(np.zeros(1), np.full(1, 5.0), np.zeros((0, 2)), 5.0)
    p = Pose2D(0.0, 0.0, 0.0)
    return Observation(oid, scan, p, p)


def _enumerate_best_path(graph, start, goal):
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


def test_distance_metric_matches_matrix_log_oracle():
    t0 = time.perf_counter()
    unit = Waypoint(1.0, 0.0, 0.0)
    quarter = Waypoint(0.0, 0.0, math.pi / 2)
    assert waypoint_distance(unit) == pytest.approx(1.0, abs=1e-9)
    assert waypoint_distance(quarter) == pytest.approx(math.pi / math.sqrt(2), abs=1e-9)
    assert waypoint_distance(unit) == pytest.approx(_logm_distance(unit), abs=1e-9)
    assert waypoint_distance(quarter) == pytest.approx(_logm_distance(quarter), abs=1e-9)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10_000):
        w = Waypoint(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)),
                     float(rng.uniform(-math.pi, math.pi)))
        back = se2_exp(se2_log(w))
        worst = max(worst, abs(back.dx - w.dx), abs(back.dy - w.dy),
                    abs(wrap_angle(back.dtheta - w.dtheta)))
    assert worst < 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_belief_updates_reproduce_closed_forms():
    t0 = time.perf_counter()
    mp = MaintenanceParams(p_s_given_r1=0.9, p_s_given_r0=0.2)
    assert bayes_connectivity_update(0.5, True, mp) == pytest.approx(9 / 11, abs=1e-12)
    mu, s2 = gaussian_weight_update(0.0, 3.0, 4.0, 1.0)
    assert mu == pytest.approx(3.0, abs=1e-12)
    assert s2 == pytest.approx(0.75, abs=1e-12)
    p = 0.9
    p = bayes_connectivity_update(p, False, mp)
    assert p == pytest.approx(9 / 17, abs=1e-9)
    p = bayes_connectivity_update(p, False, mp)
    assert p == pytest.approx(9 / 73, abs=1e-9)
    assert p < mp.R_p
    assert time.perf_counter() - t0 < 1.0


def test_built_graph_is_sparse_yet_covers_trajectory():
    t0 = time.perf_counter()
    grid = apartment_map()
    world = World(grid)
    traj = collect_trajectory(world, apartment_route(), loops=3, spacing=0.2)
    assert 300 <= len(traj) <= 500
    est = OracleEstimator(grid)
    bp = BuildParams()
    graph, pool = build_graph(traj, est, bp)
    assert graph.n_vertices <= 0.45 * len(traj)
    assert all(localize(graph, o, est, bp) is not None for o in pool)
    # stronger than the pool guarantee: every recorded observation,
    # vertex or not, still localizes somewhere
    assert all(localize(graph, o, est, bp) is not None for o in traj)
    assert time.perf_counter() - t0 < 30.0


def test_planner_matches_exhaustive_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        g = TopoGraph()
        for i in range(n):
            g.add_vertex(_dummy_obs(i))
        for s in range(n):
            for d in range(n):
                if s != d and rng.uniform() < 0.35:
                    g.add_edge(s, d, EdgeBelief(0.9, float(rng.uniform(0.1, 3.0)), 0.25))
        start = int(rng.integers(n))
        goal = int(rng.integers(n))
        assert plan(g, start, goal) == _enumerate_best_path(g, start, goal)
    assert time.perf_counter() - t0 < 30.0


def test_expansion_admits_exactly_the_route_candidates():
    t0 = time.perf_counter()
    grid = two_room_map()
    world = World(grid)
    est = OracleEstimator(grid)
    mp, limits = MaintenanceParams(), EpisodeLimits()
    graph = TopoGraph()
    a = world.observe(Pose2D(1.5, 1.0, math.pi / 2))
    b = world.observe(Pose2D(1.5, 4.4, math.pi / 2))
    graph.add_vertex(a)
    graph.add_vertex(b)
    # the a -> bridge hop is 2.2 m: beyond the standard connect ceiling,
    # inside the relaxed one, so the route genuinely needs expansion
    bridge = world.observe(Pose2D(1.5, 3.2, math.pi / 2))
    decoy = world.observe(Pose2D(2.8, 1.0, 0.0))
    pool = TrajectoryPool([bridge, decoy])
    assert plan(graph, a.id, b.id) is None

    start = Pose2D(1.5, 1.2, math.pi / 2)
    res = run_episode(world, graph, est, start, b.id, limits, maintain=mp, pool=pool,
                      expand_rng=np.random.default_rng(4))
    assert res.success
    assert bridge.id in graph.vertices
    assert decoy.id not in graph.vertices
    assert (a.id, bridge.id) in graph.edges and (bridge.id, b.id) in graph.edges
    remaining = [o.id for o in pool]
    assert bridge.id not in remaining and decoy.id in remaining
    rate, _ = evaluate(world, graph, est, [(start, b.id)], limits)
    assert rate == 1.0
    assert time.perf_counter() - t0 < 60.0


def test_lifelong_repair_lifts_success_and_prunes_wall_edges():
    t0 = time.perf_counter()
    grid = two_room_map()
    route = two_room_route()
    bases, finals = [], []
    for seed in range(3):
        world = World(grid)
        traj = collect_trajectory(world, route, loops=1, spacing=0.2)
        est = OracleEstimator(grid, noise=NoiseConfig(false_positive_rate=0.10, seed=seed))
        bp, mp, limits = BuildParams(), MaintenanceParams(), EpisodeLimits()
        graph, pool = build_graph(traj, est, bp)
        walls_before = len(wall_crossing_edges(graph, grid))
        test_set = make_test_set(world, graph, 8, 16, np.random.default_rng([seed, 3]),
                                 limits)
        curve = run_lifelong(world, graph, pool, est, 100, 25, test_set, limits,
                             bp, mp, seed=seed)
        walls_after = len(wall_crossing_edges(graph, grid))
        assert walls_before > 0
        assert walls_after < walls_before
        bases.append(curve.eval_points[0][1])
        finals.append(curve.eval_points[-1][1])
    assert np.mean(finals) - np.mean(bases) >= 0.15
    assert time.perf_counter() - t0 < 600.0


def test_lifelong_cli_runs_are_reproducible(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[perception]\n"
        "false_positive_rate = 0.10\n"
        "[navharness]\n"
        "n_queries = 20\n"
        "eval_every = 10\n"
        "n_goals = 3\n"
        "n_episodes = 4\n"
    )
    outs = [str(tmp_path / "run_a.txt"), str(tmp_path / "run_b.txt")]
    for out in outs:
        assert main(["lifelong", "--config", str(cfg), "--seed", "7",
                     "--out", out]) == 0
    capsys.readouterr()
    a, b = (open(o, "rb").read() for o in outs)
    assert a == b and a
    ga, gb = (open(o + ".graph", "rb").read() for o in outs)
    assert ga == gb and ga
    assert time.perf_counter() - t0 < 600.0
