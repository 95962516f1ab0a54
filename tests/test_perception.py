import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toponav import perception
from toponav.fixtures import apartment_map, generate_rooms_map, two_room_map
from toponav.gridworld import (
    GridMap,
    SensorConfig,
    co_visible,
    raycast_scan,
    sample_free_pose,
    shortest_feasible_path,
)
from toponav.perception import (
    NoiseConfig,
    Observation,
    OracleEstimator,
    ReachabilityCriteria,
    label_reachability,
)
from toponav.navharness import World
from toponav.se2 import (
    Pose2D,
    Waypoint,
    dubins_sample,
    relative,
    se2_log,
    waypoint_distance,
    wrap_angle,
)
from toponav.topograph import BuildParams, TopoGraph, load_trajectory, localize, save_trajectory

from test_gridworld import (
    BOX_MAPS,
    MAP_IDS,
    MAPS,
    empty_room,
    is_visible,
    near_pose_pairs,
    room_with_column_wall,
    visual_overlap,
    with_sensor,
)

CRIT = ReachabilityCriteria()

# Offsets between two poses: any size, tiny ones down to where squares
# underflow, and signed zeros.
OFFSETS = st.one_of(st.floats(-20.0, 20.0), st.floats(-1e-6, 1e-6),
                    st.floats(-1e-150, 1e-150), st.sampled_from([0.0, -0.0]))
# Heading offsets within 1e-6 of 0 and of +-pi, and signed zeros.
HEADING_OFFSETS = st.one_of(
    st.floats(-math.pi, math.pi), st.floats(-1e-6, 1e-6),
    st.floats(-1e-6, 1e-6).map(lambda e: math.pi + e),
    st.floats(-1e-6, 1e-6).map(lambda e: -math.pi + e), st.sampled_from([0.0, -0.0]))


def mk_obs(grid, oid, pose):
    return Observation(oid, raycast_scan(grid, pose), pose, pose)


def count_labels(monkeypatch) -> list:
    """Record the pair of every OracleEstimator.true_label call."""
    calls = []
    real = OracleEstimator.true_label

    def counting(self, a, b):
        calls.append((a.id, b.id))
        return real(self, a, b)

    monkeypatch.setattr(OracleEstimator, "true_label", counting)
    return calls


class TestLabelReachability:
    def test_identical_pose_reachable(self):
        g = empty_room()
        p = Pose2D(5.0, 5.0, 0.0)
        assert label_reachability(g, p, p, CRIT) == 1

    def test_short_aligned_hop_reachable(self):
        # Room small enough that forward rays return; in a wide-open area
        # the overlap criterion has no evidence and rejects the pair.
        g = empty_room(6.0, 5.0)
        assert label_reachability(g, Pose2D(2.0, 2.5, 0.0), Pose2D(3.0, 2.5, 0.0), CRIT) == 1

    def test_sealed_wall_unreachable(self):
        g = room_with_column_wall(6.0)
        a, b = Pose2D(5.3, 5.0, 0.0), Pose2D(6.9, 5.0, 0.0)
        assert label_reachability(g, a, b, CRIT) == 0

    def test_target_behind_unreachable(self):
        g = empty_room()
        a, b = Pose2D(5.0, 5.0, 0.0), Pose2D(4.0, 5.0, 0.0)
        assert label_reachability(g, a, b, CRIT) == 0

    def test_too_far_unreachable(self):
        g = empty_room(20.0, 4.0)
        a, b = Pose2D(2.0, 2.0, 0.0), Pose2D(2.0 + CRIT.E_max + 0.1, 2.0, 0.0)
        assert label_reachability(g, a, b, CRIT) == 0

    def test_heading_gap_unreachable(self):
        g = empty_room()
        a, b = Pose2D(4.0, 5.0, 0.0), Pose2D(5.0, 5.0, math.pi * 0.75)
        assert label_reachability(g, a, b, CRIT) == 0

    def test_field_of_view_comes_from_the_sensor(self):
        # b is beside a: outside the default quarter-turn view, inside a
        # half-turn one.
        g = empty_room(6.0, 5.0)
        a, b = Pose2D(2.0, 2.5, 0.0), Pose2D(2.0, 3.5, math.pi / 2)
        assert label_reachability(g, a, b, CRIT) == 0
        assert label_reachability(with_sensor(g, SensorConfig(fov=math.pi)), a, b, CRIT) == 1

    def test_relaxing_any_threshold_grows_positive_set(self):
        g = generate_rooms_map(seed=21)
        rng = np.random.default_rng(5)
        pairs = [(sample_free_pose(g, rng), sample_free_pose(g, rng)) for _ in range(250)]
        base = {i for i, (a, b) in enumerate(pairs) if label_reachability(g, a, b, CRIT)}
        relaxed = {
            "L_min": (replace(CRIT, L_min=0.0), SensorConfig()),
            "R_max": (replace(CRIT, R_max=1e9), SensorConfig()),
            "E_max": (replace(CRIT, E_max=1e9), SensorConfig()),
            "Theta_max": (replace(CRIT, Theta_max=math.pi), SensorConfig()),
            "fov": (CRIT, SensorConfig(fov=2 * math.pi)),
        }
        grew = 0
        for name, (crit, sensor) in relaxed.items():
            gs = with_sensor(g, sensor)
            got = {i for i, (a, b) in enumerate(pairs)
                   if label_reachability(gs, a, b, crit)}
            assert base <= got, f"relaxing {name} lost positives"
            grew += len(got - base)
        assert grew > 0


def reference_rejection(grid, a, b, c):
    """The first check that rejects b from a, in the order the label once
    ran them (sight line, Dubins, unbounded path ratio, overlap), or None
    when every check passes."""
    sensor = grid.sensor
    euclid = math.hypot(b.x - a.x, b.y - a.y)
    if euclid > c.E_max:
        return "E_max"
    if abs(wrap_angle(b.theta - a.theta)) > c.Theta_max:
        return "Theta_max"
    if euclid < grid.resolution:
        return None
    if abs(wrap_angle(math.atan2(b.y - a.y, b.x - a.x) - a.theta)) > sensor.fov / 2.0 + 1e-12:
        return "fov"
    if not is_visible(grid, a, (b.x, b.y)):
        return "visible"
    poses = dubins_sample(a, b, c.turn_radius, 0.5 * grid.resolution)
    if any(grid.disc_blocked(x, y) for x, y in poses[:, :2].tolist()):
        return "dubins"
    path_len = shortest_feasible_path(grid, a, b)
    if not math.isfinite(path_len) or path_len / euclid > c.R_max:
        return "path"
    if visual_overlap(grid, a, b) < c.L_min:
        return "overlap"
    return None


def label_test_pairs(grid, rng, n, reach):
    """Disc-free pose pairs at most `reach` apart, the first roughly facing
    the second and the second turned by up to 1.8 rad."""
    pairs = []
    while len(pairs) < n:
        a = sample_free_pose(grid, rng)
        r, phi = rng.uniform(0.0, reach), rng.uniform(-math.pi, math.pi)
        bx, by = a.x + r * math.cos(phi), a.y + r * math.sin(phi)
        if not grid.in_bounds(bx, by) or grid.disc_blocked(bx, by):
            continue
        theta = phi + rng.uniform(-0.9, 0.9)
        pairs.append((Pose2D(a.x, a.y, theta), Pose2D(bx, by, theta + rng.uniform(-1.8, 1.8))))
    return pairs


class TestLabelMatchesReference:
    """label_reachability runs co-visibility before the Dubins and path
    checks and bounds the path search; every label equals the old order's."""

    @pytest.mark.parametrize("crit, sensor, per_map", [
        (CRIT, SensorConfig(), 1000),
        (replace(CRIT, L_min=0.0), SensorConfig(), 350),
        (CRIT, SensorConfig(max_range=2.0), 350),
        (replace(CRIT, R_max=0.98), SensorConfig(), 350),
        (replace(CRIT, R_max=3.0, L_min=0.05), SensorConfig(), 350),
    ], ids=["default", "L_min=0", "max_range<E_max", "R_max<1", "R_max=3"])
    def test_labels_equal_the_old_order(self, crit, sensor, per_map):
        rejected_by = {}
        for seed, make in enumerate([two_room_map, apartment_map,
                                     lambda: generate_rooms_map(seed=3)]):
            g = with_sensor(make(), sensor)
            for a, b in label_test_pairs(g, np.random.default_rng(seed), per_map,
                                         1.05 * crit.E_max):
                why = reference_rejection(g, a, b, crit)
                assert label_reachability(g, a, b, crit) == (why is None), (a, b, why)
                rejected_by[why] = rejected_by.get(why, 0) + 1
        checks = {"E_max", "Theta_max", "fov", "visible", "dubins", "path"}
        if crit.L_min > 0.0:
            checks.add("overlap")
        assert set(rejected_by) == checks | {None}, rejected_by

    def test_a_path_at_exactly_the_ratio_passes(self):
        # R_max is each pair's own path ratio, so the staircase cannot
        # accept and the search, bounded at R_max * euclid, must still
        # return the path that the unbounded reference finds.
        passed = 0
        for seed, make in enumerate(MAPS):
            g = make()
            for a, b in label_test_pairs(g, np.random.default_rng(seed), 350, CRIT.E_max):
                ratio = shortest_feasible_path(g, a, b) / math.hypot(b.x - a.x, b.y - a.y)
                if not math.isfinite(ratio):
                    continue
                crit = replace(CRIT, R_max=ratio, L_min=0.05)
                why = reference_rejection(g, a, b, crit)
                assert label_reachability(g, a, b, crit) == (why is None), (a, b, why)
                passed += why is None
        assert passed > 0


class TestStaircaseAccept:
    """label_reachability accepts the path ratio on a clear staircase of
    cells without searching; every label equals a search's."""

    # Outcomes as (staircase clear, searched, label).  A blocked staircase
    # falls back to the search, which finds a detour under R_max = 3; under
    # R_max < 1 most clear staircases are too long to accept.
    @pytest.mark.parametrize("crit, per_map, outcomes", [
        (CRIT, 800, {(True, False, 1), (True, True, 0), (False, True, 0)}),
        (replace(CRIT, R_max=0.98), 500, {(True, False, 1), (True, True, 0), (False, True, 0)}),
        (replace(CRIT, R_max=3.0, L_min=0.05), 500,
         {(True, False, 1), (False, True, 0), (False, True, 1)}),
    ], ids=["default", "R_max<1", "R_max=3"])
    def test_labels_equal_a_search_on_every_pair(self, monkeypatch, crit, per_map, outcomes):
        pairs = [(g, a, b) for seed, make in enumerate(MAPS) for g in [make()]
                 for a, b in label_test_pairs(g, np.random.default_rng(50 + seed), per_map,
                                              1.05 * crit.E_max)]
        with monkeypatch.context() as m:
            m.setattr(perception, "staircase_length", lambda *args: math.inf)
            want = [label_reachability(g, a, b, crit) for g, a, b in pairs]
        seen = {}
        stair, search = perception.staircase_length, perception.shortest_feasible_path
        monkeypatch.setattr(perception, "staircase_length",
                            lambda *args: seen.setdefault("stair", stair(*args)))
        monkeypatch.setattr(perception, "shortest_feasible_path",
                            lambda *args: seen.setdefault("search", search(*args)))
        got = Counter()
        for (g, a, b), label in zip(pairs, want):
            seen.clear()
            assert label_reachability(g, a, b, crit) == label, (a, b)
            if "stair" in seen:
                got[math.isfinite(seen["stair"]), "search" in seen, label] += 1
        assert set(got) == outcomes, got


class TestFreeBoxes:
    """co_visible skips a cast, and label_reachability a Dubins sweep, that
    a free box decides; no result differs from casting and sampling."""

    @pytest.mark.parametrize("map_index", range(3), ids=MAP_IDS)
    def test_results_equal_the_cast_and_sample_path(self, monkeypatch, map_index):
        base = MAPS[map_index]()
        pairs = label_test_pairs(base, np.random.default_rng(70 + map_index), 150,
                                 1.05 * CRIT.E_max)
        cases = []
        for sensor in [SensorConfig(), SensorConfig(max_range=2.0),
                       SensorConfig(fov=1.0, n_rays=20)]:
            g = with_sensor(base, sensor)
            cases += [(g, a, b, raycast_scan(g, a), raycast_scan(g, b)) for a, b in pairs]
        crits = [replace(CRIT, L_min=t) for t in (0.0, 0.1, 0.3, 0.6, 1.0)]

        def results():
            return [(co_visible(g, a, b, c.L_min, lambda: sa, lambda: sb),
                     label_reachability(g, a, b, c, lambda: sa, lambda: sb))
                    for g, a, b, sa, sb in cases for c in crits]

        boxes = Counter()
        box_free = GridMap.box_free

        def counted(grid, *box, clearance=False):
            free = box_free(grid, *box, clearance=clearance)
            boxes[clearance, free] += 1
            return free

        monkeypatch.setattr(GridMap, "box_free", counted)
        shipped = results()
        # Every box holds a wall: each cast and sweep runs as it did before
        # the box tests.
        monkeypatch.setattr(GridMap, "box_free", lambda *args, **kwargs: False)
        assert results() == shipped
        assert set(boxes) == {(False, False), (False, True), (True, False), (True, True)}
        assert {(False, 0), (True, 0), (True, 1)} <= set(shipped)

    @given(st.integers(0, 2), st.floats(0.0, 10.0), st.floats(0.0, 8.0), HEADING_OFFSETS,
           st.one_of(st.floats(-2.5, 2.5), st.sampled_from([0.0, 0.05, -0.1])),
           st.one_of(st.floats(-2.5, 2.5), st.sampled_from([0.0, 0.05, -0.1])),
           HEADING_OFFSETS, st.sampled_from([0.1, 0.3, 1.0]), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_a_free_sweep_box_leaves_every_sample_clear(self, map_index, x, y, theta, dx, dy,
                                                        turn, radius, on_gridlines):
        g = BOX_MAPS[map_index]
        if on_gridlines:
            x, y = round(x / g.resolution) * g.resolution, round(y / g.resolution) * g.resolution
        a = Pose2D(x, y, theta)
        # b straight ahead of a when the offset is along a's heading.
        b = Pose2D(x + dx, y + dy, theta + turn)
        if not perception._sweep_clear(g, a, b, radius):
            return
        poses = dubins_sample(a, b, radius, 0.5 * g.resolution)
        assert not any(g.disc_blocked(px, py) for px, py in poses[:, :2].tolist())


class TestOracleEstimator:
    def test_labels_use_the_given_sensor(self):
        # A 2 m range drops pairs that the default 5 m sensor labels
        # reachable; the labels and the estimator both use it.
        g = with_sensor(two_room_map(), SensorConfig(max_range=2.0))
        rng = np.random.default_rng(2)
        pairs = [(mk_obs(g, 2 * i, sample_free_pose(g, rng)),
                  mk_obs(g, 2 * i + 1, sample_free_pose(g, rng))) for i in range(500)]
        est = OracleEstimator(g)
        labels = [label_reachability(g, a.true_pose, b.true_pose, CRIT) for a, b in pairs]
        assert labels == [est.true_label(a, b) for a, b in pairs]
        assert labels != [label_reachability(two_room_map(), a.true_pose, b.true_pose, CRIT)
                          for a, b in pairs]

    def test_pair_draws_are_two_uniform_calls_then_the_normals(self):
        g = empty_room()
        scan = raycast_scan(g, Pose2D(5.0, 5.0, 0.0))
        rng = np.random.default_rng(11)
        noisy = NoiseConfig(pos_sigma=0.05, theta_sigma=0.03)
        for i in range(1000):
            seed, ia, ib = rng.integers(0, 2**32 if i % 2 else 50, 3).tolist()
            pa, pb = (Pose2D(*rng.uniform(-3.0, 3.0, 3).tolist()) for _ in range(2))
            a, b = Observation(ia, scan, pa, pa), Observation(ib, scan, pb, pb)
            for noise in (replace(noisy, seed=seed), NoiseConfig(seed=seed)):
                got = OracleEstimator(g, noise=noise)._draw(a, b)
                ref = np.random.default_rng([seed, ia, ib])
                assert got.u_flip == ref.uniform()
                assert got.wobble == ref.uniform(-0.04, 0.04)
                if noise.pos_sigma:
                    w = relative(pa, pb)
                    assert got.w_hat == Waypoint(
                        w.dx + ref.normal(0.0, noise.pos_sigma),
                        w.dy + ref.normal(0.0, noise.pos_sigma),
                        wrap_angle(w.dtheta + ref.normal(0.0, noise.theta_sigma)))

    def test_zero_noise_scores(self):
        g = empty_room(6.0, 5.0)
        est = OracleEstimator(g)
        a = mk_obs(g, 0, Pose2D(2.0, 2.5, 0.0))
        b = mk_obs(g, 1, Pose2D(3.0, 2.5, 0.0))
        pred = est.predict(a, b)
        assert 0.91 <= pred.r_hat <= 0.99
        assert pred.w_hat == relative(a.true_pose, b.true_pose)
        back = est.predict(b, a)  # target behind b
        assert 0.01 <= back.r_hat <= 0.09

    def test_zero_noise_agrees_with_labels_on_10k_pairs(self):
        g = generate_rooms_map(width=6.0, height=5.0, seed=13)
        est = OracleEstimator(g)
        rng = np.random.default_rng(17)
        obs = [mk_obs(g, i, sample_free_pose(g, rng)) for i in range(150)]
        idx = rng.integers(0, len(obs), size=(10_000, 2))
        for i, j in idx:
            a, b = obs[int(i)], obs[int(j)]
            truth = label_reachability(g, a.true_pose, b.true_pose, CRIT)
            assert (est.predict(a, b).r_hat >= 0.5) == bool(truth)

    def test_flips_are_persistent_and_seeded(self):
        g = empty_room()
        noise = NoiseConfig(false_positive_rate=0.5, seed=42)
        est = OracleEstimator(g, noise)
        # Unreachable pairs (behind) with many ids: some flip positive.
        a = [mk_obs(g, 2 * i, Pose2D(5.0, 5.0, 0.0)) for i in range(40)]
        b = [mk_obs(g, 2 * i + 1, Pose2D(4.0, 5.0, 0.0)) for i in range(40)]
        first = [est.predict(x, y).r_hat for x, y in zip(a, b)]
        assert any(r > 0.5 for r in first)
        assert any(r < 0.5 for r in first)
        again = [est.predict(x, y).r_hat for x, y in zip(a, b)]
        assert first == again
        fresh = OracleEstimator(g, noise)
        assert [fresh.predict(x, y).r_hat for x, y in zip(a, b)] == first
        other = OracleEstimator(g, replace(noise, seed=43))
        assert [other.predict(x, y).r_hat for x, y in zip(a, b)] != first

    @pytest.mark.parametrize("noise", [
        NoiseConfig(false_positive_rate=0.3, false_negative_rate=0.3, seed=5),
        NoiseConfig(pos_sigma=0.05, theta_sigma=0.02, false_positive_rate=0.3,
                    false_negative_rate=0.3, seed=5),
    ], ids=["exact-waypoints", "noisy-waypoints"])
    def test_waypoint_is_predicts_waypoint_and_labels_nothing(self, noise, monkeypatch):
        g = empty_room(6.0, 5.0)
        rng = np.random.default_rng(3)
        obs = [mk_obs(g, i, sample_free_pose(g, rng)) for i in range(12)]
        pairs = [(a, b) for a in obs for b in obs]
        bits = lambda w: (repr(w.dx), repr(w.dy), repr(w.dtheta))  # keeps -0.0 apart
        scores = lambda preds: [(repr(p.r_hat), bits(p.w_hat)) for p in preds]
        direct = [OracleEstimator(g, noise).predict(a, b) for a, b in pairs]

        est = OracleEstimator(g, noise)
        labels = count_labels(monkeypatch)
        ways = [est.waypoint(a, b) for a, b in pairs]
        assert labels == []
        assert [bits(w) for w in ways] == [bits(p.w_hat) for p in direct]
        assert scores(est.predict(a, b) for a, b in pairs) == scores(direct)
        assert len(labels) == len(pairs)
        assert scores(est.predict(a, b) for a, b in pairs) == scores(direct)
        assert [bits(est.waypoint(a, b)) for a, b in pairs] == [bits(w) for w in ways]
        assert len(labels) == len(pairs)

    @pytest.mark.parametrize("noise", [
        NoiseConfig(false_positive_rate=0.1),
        NoiseConfig(pos_sigma=0.05, theta_sigma=0.02, false_positive_rate=0.1),
    ], ids=["exact-waypoints", "noisy-waypoints"])
    def test_localizing_far_from_every_vertex_labels_no_pair(self, noise, monkeypatch):
        g = empty_room(10.0, 5.0)
        est = OracleEstimator(g, noise)
        graph = TopoGraph()
        for i in range(8):
            graph.add_vertex(mk_obs(g, i, Pose2D(1.0 + 0.4 * i, 1.0 + 0.3 * (i % 3), 0.3 * i)))
        far = mk_obs(g, 99, Pose2D(8.5, 4.0, 3.0))
        labels = count_labels(monkeypatch)
        assert localize(graph, far, est, BuildParams()) is None
        assert labels == []

    @given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
           st.one_of(st.floats(-math.pi, math.pi), st.sampled_from([0.0, -0.0, math.pi])),
           OFFSETS, OFFSETS, HEADING_OFFSETS, st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=800, deadline=None)
    def test_waypoint_distance_is_the_waypoints_bit_for_bit(self, ax, ay, ath, ox, oy, dth,
                                                            noisy, seed):
        noise = (NoiseConfig(pos_sigma=0.05, theta_sigma=0.02, seed=seed) if noisy
                 else NoiseConfig(seed=seed))
        est = OracleEstimator(empty_room(5.0, 5.0), noise)
        pa, pb = Pose2D(ax, ay, ath), Pose2D(ax + ox, ay + oy, ath + dth)
        a, b = Observation(0, None, pa, pa), Observation(1, None, pb, pb)
        d = est.waypoint_distance(a, b)
        assert repr(d) == repr(waypoint_distance(est.waypoint(a, b)))
        if not noisy:
            # The objects the oracle used to build: relative()'s Waypoint,
            # the + 0.0 Waypoint and se2_log's Twist.
            w = relative(pa, pb)
            w = Waypoint(w.dx + 0.0, w.dy + 0.0, wrap_angle(w.dtheta + 0.0))
            t = se2_log(w)
            ref = math.sqrt(t.vx * t.vx + t.vy * t.vy + 2.0 * t.omega * t.omega)
            assert repr(d) == repr(ref)
            got = est.waypoint(a, b)
            assert (repr(got.dx), repr(got.dy), repr(got.dtheta)) == (
                repr(w.dx), repr(w.dy), repr(w.dtheta))

    @given(st.lists(st.tuples(OFFSETS, OFFSETS, HEADING_OFFSETS), min_size=1, max_size=25),
           st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(-math.pi, math.pi))
    @settings(max_examples=500, deadline=None)
    def test_distance_floor_many_bounds_waypoint_distance_both_ways(self, offsets, x, y, theta):
        # Exact waypoints; offsets reach down to squares that underflow and
        # heading changes within 1e-6 of 0 and of +-pi.
        est = OracleEstimator(empty_room(5.0, 5.0))
        graph = TopoGraph()
        for i, (dx, dy, dth) in enumerate(offsets):
            p = Pose2D(x + dx, y + dy, theta + dth)
            graph.add_vertex(Observation(2 * i, None, p, p))
        obs = Observation(1, None, Pose2D(x, y, theta), Pose2D(x, y, theta))
        many = est.distance_floor_many(graph, obs)
        assert many.shape == (graph.n_vertices,)
        for k, vid in enumerate(graph.ids.tolist()):
            v = graph.vertices[vid]
            assert many[k] <= est.waypoint_distance(v, obs)
            assert many[k] <= est.waypoint_distance(obs, v)

    @pytest.mark.parametrize("make_map", [two_room_map, apartment_map],
                             ids=["two-room", "apartment"])
    def test_labels_from_owned_and_loaded_scans_equal_labels_by_pose(self, make_map,
                                                                     tmp_path):
        # An observation's own scan, cast when first read or parsed from
        # its file line, labels every pair as casting on the map did.
        grid = make_map()
        rng = np.random.default_rng(37)
        pairs = [(a, Pose2D(b.x, b.y, a.theta + rng.uniform(-1.2, 1.2)))
                 for a, b in near_pose_pairs(grid, rng, 500, max_dist=3.0)]
        world = World(grid)
        observed = [(world.observe(a), world.observe(b)) for a, b in pairs]
        path = str(tmp_path / "pairs.traj")
        save_trajectory([World(grid).observe(p, i) for i, p in
                         enumerate(p for pair in pairs for p in pair)], path)
        loaded = load_trajectory(path)
        by_pose = [label_reachability(grid, a, b, CRIT) for a, b in pairs]
        est = OracleEstimator(grid)
        assert [est.true_label(a, b) for a, b in observed] == by_pose
        assert [est.true_label(a, b) for a, b in zip(loaded[::2], loaded[1::2])] == by_pose
        assert 50 <= sum(by_pose) <= 450

    @pytest.mark.parametrize("noise", [NoiseConfig(pos_sigma=0.05),
                                       NoiseConfig(theta_sigma=0.02)],
                             ids=["pos_sigma", "theta_sigma"])
    def test_distance_floor_is_zero_with_pose_noise(self, noise):
        g = empty_room()
        graph = TopoGraph()
        graph.add_vertex(mk_obs(g, 0, Pose2D(2.0, 2.0, 0.0)))
        b = mk_obs(g, 1, Pose2D(5.0, 6.0, 1.0))
        assert OracleEstimator(g, noise).distance_floor_many(graph, b).tolist() == [0.0]
        # Exact waypoints: the 5 m offset and the 1 rad turn, as the log's
        # norm weighs them.
        exact = OracleEstimator(g).distance_floor_many(graph, b)
        assert exact.tolist() == pytest.approx([math.sqrt(27.0)])

    def test_waypoint_noise_magnitude(self):
        g = empty_room()
        noise = NoiseConfig(pos_sigma=0.05, theta_sigma=0.02, seed=7)
        est = OracleEstimator(g, noise)
        errs = []
        for i in range(200):
            a = mk_obs(g, 2 * i, Pose2D(4.0, 5.0, 0.0))
            b = mk_obs(g, 2 * i + 1, Pose2D(5.0, 5.0, 0.0))
            w_true = relative(a.true_pose, b.true_pose)
            w = est.predict(a, b).w_hat
            errs.append(math.hypot(w.dx - w_true.dx, w.dy - w_true.dy))
            assert abs(w.dtheta - w_true.dtheta) < 6 * 0.02
        errs = np.array(errs)
        assert errs.max() < 6 * 0.05 * math.sqrt(2)
        assert 0.01 < errs.mean() < 0.15
