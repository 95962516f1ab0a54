"""Trajectory collection, episodes, evaluation, and the lifelong loop."""

import math

import numpy as np
import pytest

from toponav import gridworld, navharness, perception
from toponav.errors import InvalidGoal, InvalidInput, InvalidPose, LoadError, RouteError
from toponav.fixtures import apartment_map, apartment_route, two_room_map, two_room_route
from toponav.gridworld import GridMap, SensorConfig, raycast_scan, sample_free_pose
from toponav.navharness import (
    EpisodeLimits,
    OdomNoise,
    World,
    _sample_query,
    collect_trajectory,
    estimate_distance_variance,
    evaluate,
    make_test_set,
    run_episode,
    run_lifelong,
    wall_crossing_edges,
)
from toponav.maintenance import MaintenanceParams
from toponav.perception import (
    Observation,
    OracleEstimator,
    ReachabilityCriteria,
    label_reachability,
)
from toponav.se2 import Pose2D, relative, waypoint_distance
from toponav.topograph import (
    BuildParams,
    EdgeBelief,
    TopoGraph,
    TrajectoryPool,
    build_graph,
    load_graph,
    load_trajectory,
    plan,
    save_graph,
    save_trajectory,
    traversal_succeeded,
)

from test_gridworld import wall_distance, with_sensor

LIMITS = EpisodeLimits()
BP = BuildParams()
MP = MaintenanceParams()


@pytest.fixture(scope="module")
def grid():
    return two_room_map()


@pytest.fixture(scope="module")
def estimator(grid):
    return OracleEstimator(grid)


def fresh_world(grid):
    return World(grid)


def chain_graph(world, poses):
    """Vertices at the given poses, edges linking neighbors both ways."""
    graph = TopoGraph()
    obs = [world.observe(p) for p in poses]
    for o in obs:
        graph.add_vertex(o)
    for a, b in zip(obs, obs[1:]):
        d = waypoint_distance(relative(a.true_pose, b.true_pose))
        graph.add_edge(a.id, b.id, EdgeBelief(0.9, d, 0.25))
        graph.add_edge(b.id, a.id, EdgeBelief(0.9, d, 0.25))
    return graph, obs


# ---------------------------------------------------------------------------
# World
# ---------------------------------------------------------------------------


def test_world_id_allocation(grid):
    world = World(grid)
    a = world.observe(Pose2D(1.5, 1.5, 0.0))
    b = world.observe(Pose2D(1.5, 1.5, 0.0))
    assert (a.id, b.id) == (0, 1)
    # explicit ids bypass the counter entirely
    c = world.observe(Pose2D(1.5, 1.5, 0.0), oid=777)
    assert c.id == 777
    assert world.observe(Pose2D(1.5, 1.5, 0.0)).id == 2


def test_world_first_id(grid):
    world = World(grid, first_id=500)
    assert world.observe(Pose2D(1.5, 1.5, 0.0)).id == 500


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_world_rejects_a_dt_that_is_not_positive_and_finite(grid, dt):
    with pytest.raises(InvalidInput):
        World(grid, dt=dt)


def test_observe_matches_pose(grid):
    world = World(grid)
    o = world.observe(Pose2D(2.0, 2.0, 0.3))
    assert o.true_pose == Pose2D(2.0, 2.0, 0.3)
    assert o.odom_pose == o.true_pose
    assert len(o.scan.ranges) == world.grid.sensor.n_rays


def counted(monkeypatch, module, name):
    """Count the calls made to a module's binding; returns the call list."""
    calls = []
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_observe_casts_its_scan_on_first_read(monkeypatch):
    grid = with_sensor(two_room_map(), SensorConfig(n_rays=17))
    casts = counted(monkeypatch, gridworld, "raycast")
    pose = Pose2D(2.0, 2.0, 0.3)
    o = World(grid).observe(pose)
    assert casts == []
    scan = o.scan
    assert len(casts) == 1
    assert o.scan is scan and len(casts) == 1
    # The same floats a direct cast gives, on a map with an empty cache.
    ref = raycast_scan(with_sensor(two_room_map(), SensorConfig(n_rays=17)), pose)
    for name in ("angles", "ranges", "hit_points"):
        assert getattr(scan, name).tobytes() == getattr(ref, name).tobytes()
    assert scan.max_range == ref.max_range


@pytest.mark.parametrize("pose", [Pose2D(0.05, 2.0, 0.0), Pose2D(-1.0, 2.0, 0.0),
                                  Pose2D(math.nan, 2.0, 0.0)], ids=["wall", "off-map", "nan"])
def test_observe_rejects_a_pose_outside_free_space(grid, pose):
    with pytest.raises(InvalidPose):
        World(grid).observe(pose)


def test_build_casts_each_compared_scan_once_and_save_casts_the_rest(monkeypatch, tmp_path):
    # An observation owns its scan: build casts the scan of each
    # observation whose scan co-visibility compares, once, and the oracle
    # casts nothing on its own map.  Saving then casts only the saved
    # observations that build never scanned.
    grid = apartment_map()
    traj = collect_trajectory(World(grid), apartment_route(), loops=1, spacing=0.2,
                              odom_noise=OdomNoise(0.02, 0.01, seed=1))
    assert len({o.true_pose for o in traj}) == len(traj)
    casts = counted(monkeypatch, perception, "raycast_scan")
    map_casts = counted(monkeypatch, gridworld, "raycast_scan")
    compared = set()
    co_visible = perception.co_visible

    def spy(grid, a, b, min_overlap, scan_a, scan_b):
        return co_visible(grid, a, b, min_overlap, lambda: compared.add(a) or scan_a(),
                          lambda: compared.add(b) or scan_b())

    monkeypatch.setattr(perception, "co_visible", spy)
    graph, pool = build_graph(traj, OracleEstimator(grid))
    cast_poses = [args[1] for args in casts]
    assert map_casts == [] and compared
    assert len(set(cast_poses)) == len(cast_poses)
    assert set(cast_poses) == compared
    saved = list(graph.vertices.values()) + list(pool)
    unscanned = [o for o in saved if o.true_pose not in compared]
    save_graph(graph, pool, str(tmp_path / "g.graph"))
    assert len(casts) == len(compared) + len(unscanned) <= len(traj)


# ---------------------------------------------------------------------------
# Trajectory collection
# ---------------------------------------------------------------------------


def test_collect_count_scales_with_spacing(grid):
    coarse = collect_trajectory(World(grid), two_room_route(), loops=1, spacing=0.2)
    fine = collect_trajectory(World(grid), two_room_route(), loops=1, spacing=0.1)
    assert 350 <= len(coarse) <= 900
    ratio = len(fine) / len(coarse)
    assert 1.4 <= ratio <= 2.5


def test_collect_consecutive_observations_stay_close(grid):
    traj = collect_trajectory(World(grid), two_room_route(), loops=1, spacing=0.2)
    gaps = [waypoint_distance(relative(a.true_pose, b.true_pose))
            for a, b in zip(traj, traj[1:])]
    assert max(gaps) <= 1.0


def test_collect_zero_noise_odometry_is_exact(grid):
    traj = collect_trajectory(World(grid), two_room_route(), loops=1, spacing=0.3)
    assert all(o.odom_pose == o.true_pose for o in traj)


def test_collect_noisy_odometry_drifts(grid):
    noise = OdomNoise(pos_sigma=0.05, theta_sigma=0.02, seed=3)
    traj = collect_trajectory(World(grid), two_room_route(), loops=1, spacing=0.3,
                              odom_noise=noise)
    first, last = traj[0], traj[-1]
    assert first.odom_pose == first.true_pose
    assert math.hypot(last.odom_pose.x - last.true_pose.x,
                      last.odom_pose.y - last.true_pose.y) > 1e-6
    again = collect_trajectory(World(grid), two_room_route(), loops=1, spacing=0.3,
                               odom_noise=noise)
    assert [o.odom_pose for o in again] == [o.odom_pose for o in traj]


@pytest.mark.parametrize("sigmas", [dict(pos_sigma=math.inf), dict(theta_sigma=math.inf)])
def test_odom_noise_rejects_bad_sigmas(sigmas):
    with pytest.raises(InvalidInput):
        OdomNoise(**sigmas)


@pytest.mark.parametrize("loops, spacing", [(1, math.nan), (1, math.inf), (1.5, 0.2)],
                         ids=["spacing=nan", "spacing=inf", "loops=1.5"])
def test_collect_rejects_a_non_finite_spacing_or_a_fractional_loop_count(loops, spacing):
    # A non-finite spacing used to return the start observation alone, and
    # a fractional loop count ended in a TypeError.
    with pytest.raises(InvalidInput):
        collect_trajectory(World(two_room_map()), two_room_route(), loops=loops, spacing=spacing)


def test_collect_rejects_bad_inputs(grid):
    route = two_room_route()
    with pytest.raises(RouteError):
        collect_trajectory(World(grid), route, loops=0, spacing=0.2)
    with pytest.raises(InvalidInput):
        collect_trajectory(World(grid), route, loops=1, spacing=0.0)
    blocked = route[:2] + [Pose2D(3.55, 1.0, 0.0)]
    with pytest.raises(RouteError):
        collect_trajectory(World(grid), blocked, loops=1, spacing=0.2)
    with pytest.raises(RouteError):
        collect_trajectory(World(grid), [], loops=1, spacing=0.2)
    for dt in (0.0, math.inf):
        with pytest.raises(InvalidInput):
            World(grid, dt=dt)


def test_collect_rejects_disconnected_route():
    occ = np.zeros((30, 30), dtype=bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    occ[:, 15] = True  # full divider, no door
    sealed = GridMap(0.1, occ)
    route = [Pose2D(0.7, 1.5, 0.0), Pose2D(2.3, 1.5, 0.0)]
    with pytest.raises(RouteError, match="connected"):
        collect_trajectory(World(sealed), route, loops=1, spacing=0.2)


def test_collect_searches_only_the_legs_with_a_blocked_staircase(monkeypatch, grid):
    searches = counted(monkeypatch, navharness, "shortest_feasible_path")
    collect_trajectory(World(grid), two_room_route(), loops=1, spacing=0.4)
    assert searches == []
    # A one-cell pillar whose margin covers the staircase's cells above
    # y = 2.5 but not the straight drive along it: the first leg is searched
    # and connects by the row below.
    occ = np.zeros((50, 50), dtype=bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    occ[27, 38] = True
    pillar = GridMap(0.1, occ)
    points = [(1.0, 2.5), (4.0, 2.5), (2.5, 1.0)]
    route = [Pose2D(x, y, math.atan2(y - py, x - px))
             for (x, y), (px, py) in zip(points, points[-1:] + points[:-1])]
    assert gridworld.staircase_length(pillar, route[0], route[1]) == math.inf
    assert collect_trajectory(World(pillar), route, loops=1, spacing=0.2)
    assert [args[1:] for args in searches] == [(route[0], route[1])]


def test_trajectory_file_round_trip(grid, tmp_path):
    traj = collect_trajectory(World(grid), two_room_route(), loops=1, spacing=0.4,
                              odom_noise=OdomNoise(0.02, 0.01, seed=9))
    path = str(tmp_path / "walk.traj")
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert [o.id for o in back] == [o.id for o in traj]
    assert [o.true_pose for o in back] == [o.true_pose for o in traj]
    assert [o.odom_pose for o in back] == [o.odom_pose for o in traj]
    for a, b in zip(traj, back):
        assert np.array_equal(a.scan.ranges, b.scan.ranges)
        assert np.array_equal(a.scan.hit_points, b.scan.hit_points)
    save_trajectory(back, path + ".2")
    assert open(path).read() == open(path + ".2").read()


def test_writers_refuse_an_observation_without_a_scan(grid, tmp_path):
    # A scan-less observation, built with neither a scan nor a map, has
    # nothing to write: both writers name it before they open the file.
    pose = Pose2D(1.5, 1.5, 0.0)
    bare = Observation(7, None, pose, pose)
    graph = TopoGraph()
    graph.add_vertex(World(grid).observe(pose))
    path = tmp_path / "out"
    with pytest.raises(InvalidInput, match="observation 7"):
        save_trajectory([World(grid).observe(pose), bare], str(path))
    assert not path.exists()
    with pytest.raises(InvalidInput, match="observation 7"):
        save_graph(graph, TrajectoryPool([bare]), str(path))
    assert not path.exists()


def test_load_trajectory_rejects_garbage(tmp_path):
    p = tmp_path / "bad.traj"
    p.write_text("not-a-trajectory\n")
    with pytest.raises(LoadError):
        load_trajectory(str(p))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", [1, 3, 5, 7, 9, -1],
                         ids=["x", "theta", "odom_y", "max_range", "angle", "range"])
def test_load_trajectory_rejects_non_finite_values(grid, tmp_path, field, value):
    path = tmp_path / "w.traj"
    save_trajectory([World(grid).observe(Pose2D(1.5, 1.5, 0.0))], str(path))
    header, line = path.read_text().splitlines()
    parts = line.split()
    parts[field] = value
    path.write_text(f"{header}\n{' '.join(parts)}\n")
    with pytest.raises(LoadError):
        load_trajectory(str(path))


@pytest.mark.parametrize("field, value, ok", [
    (7, "-1.0", False), (-1, "-3.0", False), (-1, "99.0", False), (-1, "-0.0", True)],
    ids=["max_range=-1", "range=-3", "range=99", "range=-0"])
def test_load_trajectory_checks_ranges_against_max_range(grid, tmp_path, field, value, ok):
    # field 7 is max_range (5.0); the last field is the last ray's range.
    path = tmp_path / "w.traj"
    save_trajectory([World(grid).observe(Pose2D(1.5, 1.5, 0.0))], str(path))
    header, line = path.read_text().splitlines()
    parts = line.split()
    parts[field] = value
    path.write_text(f"{header}\n{' '.join(parts)}\n")
    if ok:
        assert load_trajectory(str(path))[0].scan.ranges[-1] == 0.0
    else:
        with pytest.raises(LoadError):
            load_trajectory(str(path))


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


def test_episode_rejects_unknown_goal(grid, estimator):
    world = fresh_world(grid)
    graph, _ = chain_graph(world, [Pose2D(1.5, 2.5, 0.0)])
    with pytest.raises(InvalidGoal):
        run_episode(world, graph, estimator, Pose2D(1.5, 1.5, 0.0), 99, LIMITS)


def test_episode_immediate_success(grid, estimator):
    world = fresh_world(grid)
    graph, obs = chain_graph(world, [Pose2D(3.2, 2.5, 0.0)])
    res = run_episode(world, graph, estimator, Pose2D(3.0, 2.5, 0.1),
                      obs[0].id, LIMITS)
    assert res.success and res.failure_reason is None
    assert res.edges_traversed == 0
    assert res.steps == 0
    assert res.maintenance_events == []


def test_episode_single_edge(grid, estimator):
    world = fresh_world(grid)
    graph, obs = chain_graph(world, [Pose2D(1.5, 2.5, 0.0), Pose2D(2.5, 2.5, 0.0)])
    res = run_episode(world, graph, estimator, Pose2D(1.6, 2.5, 0.0),
                      obs[1].id, LIMITS)
    assert res.success
    assert res.edges_traversed == 1
    assert res.steps > 0
    assert res.final_pos_error <= LIMITS.pos_tol
    assert res.final_yaw_error <= LIMITS.yaw_tol


def test_episode_multi_edge_chain(grid, estimator):
    world = fresh_world(grid)
    graph, obs = chain_graph(world, [
        Pose2D(1.5, 2.5, 0.0), Pose2D(2.5, 2.5, 0.0), Pose2D(3.2, 2.5, 0.0)])
    res = run_episode(world, graph, estimator, Pose2D(1.6, 2.5, 0.0),
                      obs[2].id, LIMITS)
    assert res.success
    assert res.edges_traversed >= 1
    assert res.collisions == 0


def test_episode_unreachable_goal_gets_stuck(grid, estimator):
    world = fresh_world(grid)
    graph = TopoGraph()
    near = world.observe(Pose2D(1.5, 2.5, 0.0))
    island = world.observe(Pose2D(5.5, 2.5, 0.0))
    graph.add_vertex(near)
    graph.add_vertex(island)
    res = run_episode(world, graph, estimator, Pose2D(1.6, 2.5, 0.0),
                      island.id, LIMITS)
    assert not res.success
    assert res.failure_reason == "stuck"
    assert res.steps > 0  # recovery rotations consume simulator steps


def test_episode_without_maintenance_never_mutates(grid, estimator, tmp_path):
    world = fresh_world(grid)
    graph, obs = chain_graph(world, [Pose2D(1.5, 2.5, 0.0), Pose2D(2.5, 2.5, 0.0)])
    pool = TrajectoryPool([world.observe(Pose2D(3.0, 2.5, 0.0))])
    before = str(tmp_path / "before"), str(tmp_path / "after")
    save_graph(graph, pool, before[0])
    run_episode(world, graph, estimator, Pose2D(1.6, 2.5, 0.0), obs[1].id, LIMITS,
                pool=pool)
    save_graph(graph, pool, before[1])
    assert open(before[0]).read() == open(before[1]).read()


def test_spurious_wall_edge_is_pruned_after_failures(grid, estimator):
    world = fresh_world(grid)
    graph = TopoGraph()
    a = world.observe(Pose2D(2.6, 1.0, 0.0))
    b = world.observe(Pose2D(4.6, 1.0, 0.0))  # other side of the divider
    graph.add_vertex(a)
    graph.add_vertex(b)
    graph.add_edge(a.id, b.id, EdgeBelief(0.9, 2.0, 0.25))
    pool = TrajectoryPool()
    start = Pose2D(2.7, 1.0, 0.0)

    first = run_episode(world, graph, estimator, start, b.id, LIMITS,
                        maintain=MP, pool=pool, expand_rng=np.random.default_rng(0))
    assert not first.success
    assert first.failure_reason == "stuck"
    # pressing against the wall for the whole attempt is one collision
    # event, not one per contact step
    assert first.collisions == 1
    updates = [e for e in first.maintenance_events if e.edge == (a.id, b.id)]
    assert [e.action for e in updates] == ["updated"]
    assert updates[0].new_p == pytest.approx(9 / 17)
    assert (a.id, b.id) in graph.edges

    second = run_episode(world, graph, estimator, start, b.id, LIMITS,
                         maintain=MP, pool=pool, expand_rng=np.random.default_rng(0))
    assert not second.success
    updates = [e for e in second.maintenance_events if e.edge == (a.id, b.id)]
    assert [e.action for e in updates] == ["pruned"]
    assert (a.id, b.id) not in graph.edges


def test_maintained_episode_needs_its_params_and_expansion_stream(grid, estimator, tmp_path):
    world = fresh_world(grid)
    graph, obs = chain_graph(world, [Pose2D(1.0, 1.0, 0.0), Pose2D(2.0, 1.0, 0.0)])
    pool = TrajectoryPool([world.observe(Pose2D(3.0, 2.5, 0.0))])
    start = Pose2D(1.0, 1.0, 0.0)
    # The right room localizes nowhere, so a maintained episode there adds
    # a novel vertex once its recovery rotations run out.
    unseen = Pose2D(5.5, 2.5, 0.0)
    rng = np.random.default_rng(0)
    paths = str(tmp_path / "before"), str(tmp_path / "after")
    save_graph(graph, pool, paths[0])
    for begin, maintain, episode_pool, expand_rng in ((start, MP, pool, None),
                                                      (start, True, pool, rng),
                                                      (unseen, MP, None, rng)):
        with pytest.raises(InvalidInput):
            run_episode(world, graph, estimator, begin, obs[1].id, LIMITS,
                        maintain=maintain, pool=episode_pool, expand_rng=expand_rng)
        save_graph(graph, pool, paths[1])
        assert open(paths[0]).read() == open(paths[1]).read()


def test_expansion_bridges_disconnected_goal(grid, estimator):
    # A vertical chain up the left room.  The a -> bridge hop is 2.2 m:
    # beyond the standard connect ceiling, inside the relaxed one, so the
    # route genuinely needs expansion rather than a plain rebuild.
    world = fresh_world(grid)
    graph = TopoGraph()
    a = world.observe(Pose2D(1.5, 1.0, math.pi / 2))
    b = world.observe(Pose2D(1.5, 4.4, math.pi / 2))
    graph.add_vertex(a)
    graph.add_vertex(b)
    bridge = world.observe(Pose2D(1.5, 3.2, math.pi / 2))
    decoy = world.observe(Pose2D(2.8, 1.0, 0.0))  # nothing in front of it
    pool = TrajectoryPool([bridge, decoy])
    assert plan(graph, a.id, b.id) is None

    start = Pose2D(1.5, 1.2, math.pi / 2)
    res = run_episode(world, graph, estimator, start, b.id, LIMITS,
                      maintain=MP, pool=pool, expand_rng=np.random.default_rng(4))
    assert res.success
    assert bridge.id in graph.vertices
    assert (a.id, bridge.id) in graph.edges and (bridge.id, b.id) in graph.edges
    assert res.edges_traversed == 2
    remaining = [o.id for o in pool]
    assert bridge.id not in remaining and decoy.id in remaining
    # the repaired graph now serves the same query without maintenance
    rate, _ = evaluate(world, graph, estimator, [(start, b.id)], LIMITS)
    assert rate == 1.0


def test_traversal_success_judgement(grid, estimator):
    world = fresh_world(grid)
    subgoal = world.observe(Pose2D(2.5, 2.5, 0.0))
    at_subgoal = world.observe(Pose2D(2.52, 2.5, 0.02))
    far_away = world.observe(Pose2D(5.5, 1.0, 0.0))
    graph, short = TopoGraph(), TopoGraph(BuildParams(D_c=1.0))
    graph.add_vertex(subgoal)
    short.add_vertex(subgoal)
    assert traversal_succeeded(graph, subgoal.id, at_subgoal, estimator)
    assert not traversal_succeeded(graph, subgoal.id, far_away, estimator)
    # 1.3 m ahead: inside the default connect window, beyond the short one.
    ahead = world.observe(Pose2D(3.8, 2.5, 0.0))
    assert traversal_succeeded(graph, subgoal.id, ahead, estimator)
    assert not traversal_succeeded(short, subgoal.id, ahead, estimator)


def test_episode_limit_validation():
    with pytest.raises(InvalidInput):
        EpisodeLimits(max_steps=0)
    with pytest.raises(InvalidInput):
        EpisodeLimits(pos_tol=-1.0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_evaluate_trivial_and_failing_episodes(grid, estimator):
    world = fresh_world(grid)
    graph, obs = chain_graph(world, [Pose2D(1.5, 2.5, 0.0), Pose2D(2.5, 2.5, 0.0)])
    island = world.observe(Pose2D(5.5, 2.5, 0.0))
    graph.add_vertex(island)
    test_set = [
        (Pose2D(2.4, 2.5, 0.1), obs[1].id),   # already at goal
        (Pose2D(1.6, 2.5, 0.0), obs[1].id),   # one edge away
        (Pose2D(1.6, 2.5, 0.0), island.id),   # no route to the island
    ]
    rate, results = evaluate(world, graph, estimator, test_set, LIMITS)
    assert rate == pytest.approx(2 / 3)
    assert [r.success for r in results] == [True, True, False]


def test_evaluate_requires_episodes(grid, estimator):
    world = fresh_world(grid)
    graph, _ = chain_graph(world, [Pose2D(1.5, 2.5, 0.0)])
    with pytest.raises(InvalidInput):
        evaluate(world, graph, estimator, [], LIMITS)


def test_evaluate_is_repeatable_with_noise(grid):
    from toponav.perception import NoiseConfig
    world = fresh_world(grid)
    noisy = OracleEstimator(grid, noise=NoiseConfig(
        pos_sigma=0.05, theta_sigma=0.02, false_positive_rate=0.1,
        false_negative_rate=0.05, seed=13))
    graph, obs = chain_graph(world, [
        Pose2D(1.5, 2.5, 0.0), Pose2D(2.5, 2.5, 0.0), Pose2D(3.2, 2.5, 0.0)])
    test_set = [(Pose2D(1.6, 2.5, 0.0), obs[2].id),
                (Pose2D(3.0, 2.5, 0.0), obs[0].id)]
    first = evaluate(world, graph, noisy, test_set, LIMITS)
    second = evaluate(world, graph, noisy, test_set, LIMITS)
    assert first[0] == second[0]
    assert [(r.success, r.steps, r.edges_traversed) for r in first[1]] == \
           [(r.success, r.steps, r.edges_traversed) for r in second[1]]


# ---------------------------------------------------------------------------
# Test-set construction and the lifelong loop
# ---------------------------------------------------------------------------


def test_make_test_set_properties(grid, estimator):
    world = fresh_world(grid)
    graph, _ = chain_graph(world, [
        Pose2D(1.5, 2.5, 0.0), Pose2D(2.5, 2.5, 0.0), Pose2D(3.2, 2.5, 0.0)])
    pairs = make_test_set(world, graph, n_goals=2, n_episodes=6,
                          rng=np.random.default_rng(5), limits=LIMITS)
    assert len(pairs) == 6
    goals = {g for _, g in pairs}
    assert len(goals) <= 2
    for start, goal in pairs:
        gp = graph.vertices[goal].true_pose
        near = (math.hypot(start.x - gp.x, start.y - gp.y) <= LIMITS.pos_tol
                and abs(start.theta - gp.theta) <= LIMITS.yaw_tol)
        assert not near
    again = make_test_set(world, graph, n_goals=2, n_episodes=6,
                          rng=np.random.default_rng(5), limits=LIMITS)
    assert again == pairs
    with pytest.raises(InvalidInput):
        make_test_set(world, graph, 0, 3, np.random.default_rng(0), LIMITS)


def test_one_map_radius_drives_starts_labels_and_the_oracle(grid):
    wide = GridMap(grid.resolution, grid.occupied, 0.3)
    world = World(wide)
    graph, _ = chain_graph(world, [Pose2D(1.5, 2.5, 0.0), Pose2D(2.5, 2.5, 0.0)])
    rng = np.random.default_rng(0)
    starts = [s for s, _ in make_test_set(world, graph, 2, 100, rng, LIMITS)]
    starts += [_sample_query(world, graph, rng, LIMITS)[0] for _ in range(100)]
    assert not any(wide.disc_blocked(s.x, s.y) for s in starts)
    # The clearance mask resolves wall distance to about one subcell
    # half-diagonal (under 2 cm), well short of the 0.12 m between radii.
    assert min(wall_distance(wide, s.x, s.y) for s in starts) > 0.3 - 0.02
    # 0.25 m from the bottom wall: the default 0.18 m disc clears it, a
    # 0.3 m disc does not, so the pair is reachable on one map only.
    a, b = Pose2D(1.0, 0.35, 0.0), Pose2D(2.0, 0.35, 0.0)
    for g, label in ((grid, 1), (wide, 0)):
        assert label_reachability(g, a, b, ReachabilityCriteria()) == label
        w = World(g)
        r_hat = OracleEstimator(g).predict(w.observe(a), w.observe(b)).r_hat
        assert (r_hat > 0.5) == label


def test_one_map_sensor_drives_scans_labels_and_the_oracle(grid):
    sensor = SensorConfig(max_range=2.0, fov=1.0, n_rays=20)
    narrow = with_sensor(grid, sensor)
    world = World(narrow)
    scan = world.observe(Pose2D(2.0, 2.0, 0.3)).scan
    assert len(scan.ranges) == 20 and scan.max_range == 2.0
    assert scan.angles[0] == pytest.approx(0.3 - 0.5) and scan.angles[-1] == pytest.approx(0.8)
    est = OracleEstimator(narrow)
    crit = ReachabilityCriteria()
    rng = np.random.default_rng(4)
    differ = 0
    for _ in range(300):
        a, b = (sample_free_pose(grid, rng) for _ in range(2))
        a = Pose2D(a.x, a.y, math.atan2(b.y - a.y, b.x - a.x))
        label = label_reachability(narrow, a, b, crit)
        assert est.true_label(world.observe(a), world.observe(b)) == label
        differ += label != label_reachability(grid, a, b, crit)
    assert differ > 0


def _lifelong_setup(grid, tmp_path, tag):
    """Identical starting state for repeated runs: graph round-tripped
    through a file, fresh world with an id range above every stored id."""
    seed_world = World(grid)
    traj = collect_trajectory(seed_world, two_room_route(), loops=1, spacing=0.4)
    est = OracleEstimator(grid)
    graph, pool = build_graph(traj, est, BP)
    path = str(tmp_path / f"seed-{tag}.graph")
    save_graph(graph, pool, path)
    return path


def _lifelong_run(grid, path, seed):
    graph, pool = load_graph(path)
    world = World(grid, first_id=10_000)
    est = OracleEstimator(grid)
    test_set = make_test_set(world, graph, n_goals=2, n_episodes=3,
                             rng=np.random.default_rng(11), limits=LIMITS)
    curve = run_lifelong(world, graph, pool, est, n_queries=4, eval_every=2,
                         test_set=test_set, limits=LIMITS, build_params=BP,
                         maint_params=MP, seed=seed)
    return curve, graph, pool


def test_lifelong_baseline_only(grid, estimator):
    world = fresh_world(grid)
    graph, obs = chain_graph(world, [Pose2D(1.5, 2.5, 0.0), Pose2D(2.5, 2.5, 0.0)])
    test_set = [(Pose2D(1.6, 2.5, 0.0), obs[1].id)]
    curve = run_lifelong(world, graph, TrajectoryPool(), estimator, 0, 5,
                         test_set, LIMITS, BP, MP, seed=0)
    assert len(curve.eval_points) == 1
    q, rate, nv, ne = curve.eval_points[0]
    assert q == 0 and rate == 1.0
    assert nv == graph.n_vertices and ne == graph.n_edges


def test_lifelong_eval_cadence_must_divide(grid, estimator):
    world = fresh_world(grid)
    graph, obs = chain_graph(world, [Pose2D(1.5, 2.5, 0.0), Pose2D(2.5, 2.5, 0.0)])
    test_set = [(Pose2D(1.6, 2.5, 0.0), obs[1].id)]
    with pytest.raises(InvalidInput):
        run_lifelong(world, graph, TrajectoryPool(), estimator, 5, 2,
                     test_set, LIMITS, BP, MP, seed=0)


def test_lifelong_rejects_params_other_than_the_graphs(grid, estimator, monkeypatch):
    world = fresh_world(grid)
    graph, obs = chain_graph(world, [Pose2D(1.5, 2.5, 0.0), Pose2D(2.5, 2.5, 0.0)])
    test_set = [(Pose2D(1.6, 2.5, 0.0), obs[1].id)]
    episodes = []
    monkeypatch.setattr(navharness, "run_episode", lambda *a, **k: episodes.append(a))
    with pytest.raises(InvalidInput):
        run_lifelong(world, graph, TrajectoryPool(), estimator, 2, 1,
                     test_set, LIMITS, BuildParams(D_loc=0.5), MP, seed=0)
    assert episodes == []


def test_lifelong_same_seed_is_identical(grid, tmp_path):
    path = _lifelong_setup(grid, tmp_path, "det")
    curve1, graph1, pool1 = _lifelong_run(grid, path, seed=21)
    curve2, graph2, pool2 = _lifelong_run(grid, path, seed=21)
    assert curve1.to_table() == curve2.to_table()
    out1, out2 = str(tmp_path / "g1"), str(tmp_path / "g2")
    save_graph(graph1, pool1, out1)
    save_graph(graph2, pool2, out2)
    assert open(out1).read() == open(out2).read()
    final = curve1.eval_points[-1]
    assert final[0] == 4
    assert final[2] == graph1.n_vertices and final[3] == graph1.n_edges


def test_lifelong_table_format(grid, estimator):
    world = fresh_world(grid)
    graph, obs = chain_graph(world, [Pose2D(1.5, 2.5, 0.0), Pose2D(2.5, 2.5, 0.0)])
    test_set = [(Pose2D(1.6, 2.5, 0.0), obs[1].id)]
    curve = run_lifelong(world, graph, TrajectoryPool(), estimator, 0, 1,
                         test_set, LIMITS, BP, MP, seed=3)
    lines = curve.to_table().splitlines()
    assert lines[0] == "queries,success_rate,n_vertices,n_edges"
    assert lines[1].startswith("0,1.000000,")


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def test_distance_variance_zero_noise_hits_floor(grid, estimator):
    world = fresh_world(grid)
    obs = [world.observe(Pose2D(1.0 + 0.6 * k, 2.5, 0.0)) for k in range(5)]
    assert estimate_distance_variance(estimator, obs, BP) == pytest.approx(1e-4)


def test_distance_variance_grows_with_noise(grid):
    from toponav.perception import NoiseConfig
    world = fresh_world(grid)
    noisy = OracleEstimator(grid, noise=NoiseConfig(pos_sigma=0.2, seed=2))
    obs = [world.observe(Pose2D(1.0 + 0.6 * k, 2.5, 0.0)) for k in range(5)]
    assert estimate_distance_variance(noisy, obs, BP) > 1e-3


def test_distance_variance_default_when_no_pairs(grid, estimator):
    # With no pair to measure, the estimate is the variance given.
    assert estimate_distance_variance(estimator, [], BP) == 0.25
    one = [fresh_world(grid).observe(Pose2D(1.5, 2.5, 0.0))]
    assert estimate_distance_variance(estimator, one, BuildParams(sigma2_init=0.5)) == 0.5


def test_wall_crossing_edges_found(grid):
    world = fresh_world(grid)
    graph = TopoGraph()
    a = world.observe(Pose2D(2.0, 1.0, 0.0))      # left room, below door
    b = world.observe(Pose2D(4.6, 1.0, 0.0))      # right room, below door
    c = world.observe(Pose2D(2.6, 2.5, 0.0))      # door-aligned, left
    d = world.observe(Pose2D(4.4, 2.5, 0.0))      # door-aligned, right
    for o in (a, b, c, d):
        graph.add_vertex(o)
    graph.add_edge(a.id, b.id, EdgeBelief(0.9, 2.6, 0.25))  # through the wall
    graph.add_edge(c.id, d.id, EdgeBelief(0.9, 1.8, 0.25))  # through the door
    graph.add_edge(a.id, c.id, EdgeBelief(0.9, 1.6, 0.25))  # same room
    assert wall_crossing_edges(graph, grid) == [(a.id, b.id)]
