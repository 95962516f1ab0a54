import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toponav import perception
from toponav.errors import InvalidInput, LoadError
from toponav.fixtures import apartment_map, two_room_map
from toponav.gridworld import (
    GridMap,
    SensorConfig,
    generate_rooms_map,
    raycast_scan,
    sample_free_pose,
    shortest_feasible_path,
)
from toponav.perception import (
    LabeledPair,
    NoiseConfig,
    Observation,
    OracleEstimator,
    Prediction,
    ReachabilityCriteria,
    generate_sim_dataset,
    label_finetune_pairs,
    label_reachability,
    load_dataset,
    loss_position,
    loss_reachability,
    loss_rotation,
    loss_total,
    save_dataset,
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
        from toponav.gridworld import generate_rooms_map

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


class TestOracleEstimator:
    def test_labels_use_the_given_sensor(self):
        # A 2 m range drops pairs that the default 5 m sensor labels
        # reachable; the dataset and the estimator both label with it.
        g = with_sensor(two_room_map(), SensorConfig(max_range=2.0))
        pairs = generate_sim_dataset([g], 500, CRIT, rng_seed=2)
        est = OracleEstimator(g)
        labels = [label_reachability(g, p.src.true_pose, p.dst.true_pose, CRIT) for p in pairs]
        assert [p.r for p in pairs] == labels == [est.true_label(p.src, p.dst) for p in pairs]
        assert labels != [label_reachability(two_room_map(), p.src.true_pose, p.dst.true_pose,
                                             CRIT) for p in pairs]

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
        from toponav.gridworld import generate_rooms_map

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

    @given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(-math.pi, math.pi),
           st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
           st.one_of(st.floats(-1e-6, 1e-6), st.floats(-math.pi, math.pi)))
    @settings(max_examples=500, deadline=None)
    def test_distance_floor_bounds_waypoint_distance(self, ax, ay, ath, bx, by, dth):
        est = OracleEstimator(empty_room(5.0, 5.0))
        a = Observation(0, None, Pose2D(ax, ay, ath), Pose2D(ax, ay, ath))
        b = Observation(1, None, Pose2D(bx, by, ath + dth), Pose2D(bx, by, ath + dth))
        assert est.distance_floor(a, b) <= waypoint_distance(est.waypoint(a, b))

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

    @given(st.lists(st.tuples(OFFSETS, OFFSETS), min_size=1, max_size=25),
           st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(-math.pi, math.pi),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_distance_floor_many_keeps_every_vertex_the_scalar_floor_keeps(
            self, offsets, x, y, theta, noisy):
        noise = NoiseConfig(pos_sigma=0.05) if noisy else NoiseConfig()
        est = OracleEstimator(empty_room(5.0, 5.0), noise)
        graph = TopoGraph()
        for i, (dx, dy) in enumerate(offsets):
            p = Pose2D(x + dx, y + dy, 0.3 * i)
            graph.add_vertex(Observation(2 * i, None, p, p))
        obs = Observation(1, None, Pose2D(x, y, theta), Pose2D(x, y, theta))
        many = est.distance_floor_many(graph, obs)
        assert many.shape == (graph.n_vertices,)
        for k, vid in enumerate(graph.ids.tolist()):
            v = graph.vertices[vid]
            for scalar in (est.distance_floor(v, obs), est.distance_floor(obs, v)):
                # The tightest window that the scalar floor lets through.
                assert many[k] < math.nextafter(scalar, math.inf)

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
        est = OracleEstimator(g, noise)
        a = mk_obs(g, 0, Pose2D(2.0, 2.0, 0.0))
        b = mk_obs(g, 1, Pose2D(5.0, 6.0, 1.0))
        assert est.distance_floor(a, b) == 0.0
        # Exact waypoints: the 5 m offset and the 1 rad turn, as the log's
        # norm weighs them.
        assert OracleEstimator(g).distance_floor(a, b) == pytest.approx(math.sqrt(27.0))

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


class TestFinetunePairs:
    def _traj(self, g, n):
        # Chain of observations 0.3 m apart with odometry equal to truth.
        return [mk_obs(g, i, Pose2D(2.0 + 0.3 * i, 5.0, 0.0)) for i in range(n)]

    def test_horizon_boundary(self):
        g = empty_room()
        traj = self._traj(g, 15)
        pairs = {(p.src.id, p.dst.id): p for p in label_finetune_pairs(traj, H=10)}
        assert pairs[(0, 10)].r == 1
        assert pairs[(0, 11)].r == 0
        assert pairs[(3, 4)].r == 1

    def test_pair_count_and_order(self):
        g = empty_room()
        traj = self._traj(g, 8)
        pairs = label_finetune_pairs(traj, H=3)
        assert len(pairs) == 8 * 7 // 2
        assert all(p.src.id < p.dst.id for p in pairs)

    def test_waypoint_is_odometry_delta(self):
        g = empty_room()
        traj = self._traj(g, 5)
        pairs = label_finetune_pairs(traj, H=2)
        for p in pairs:
            w = relative(p.src.odom_pose, p.dst.odom_pose)
            assert p.w == w

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            label_finetune_pairs([], H=5)


class TestLosses:
    def test_bce_at_half(self):
        assert loss_reachability(1, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bce_confident_correct_is_small(self):
        assert loss_reachability(1, 0.95) == pytest.approx(-math.log(0.95), abs=1e-12)
        assert loss_reachability(0, 0.05) == pytest.approx(-math.log(0.95), abs=1e-12)

    def test_bce_clamps_extremes(self):
        assert math.isfinite(loss_reachability(1, 0.0))
        assert math.isfinite(loss_reachability(0, 1.0))
        assert loss_reachability(1, 0.0) == pytest.approx(-math.log(1e-7), rel=1e-9)

    def test_position_is_euclidean(self):
        assert loss_position(Waypoint(3.0, 4.0, 0.0), Waypoint(0.0, 0.0, 0.0)) == pytest.approx(5.0)

    def test_rotation_quarter_turn(self):
        assert loss_rotation(Waypoint(0, 0, math.pi / 2), Waypoint(0, 0, 0.0)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_rotation_continuous_across_wrap(self):
        eps = 1e-4
        w1 = Waypoint(0, 0, math.pi - eps)
        w2 = Waypoint(0, 0, -math.pi + eps)
        assert loss_rotation(w1, w2) < 1e-3

    def test_total_gates_waypoint_terms(self):
        w = Waypoint(1.0, 1.0, 0.5)
        bad = Prediction(0.1, Waypoint(-3.0, 2.0, -1.0))
        assert loss_total(0, w, bad) == pytest.approx(loss_reachability(0, bad.r_hat), abs=1e-12)
        assert loss_total(1, w, bad) > loss_reachability(1, bad.r_hat)

    @given(
        st.floats(-math.pi, math.pi),
        st.floats(-math.pi, math.pi),
        st.floats(1e-6, 1 - 1e-6),
        st.integers(0, 1),
    )
    @settings(max_examples=200)
    def test_losses_nonnegative_and_bounded(self, t1, t2, r_hat, r):
        assert loss_reachability(r, r_hat) >= 0.0
        rot = loss_rotation(Waypoint(0, 0, t1), Waypoint(0, 0, t2))
        assert 0.0 <= rot <= 2.0 * math.sqrt(2.0) + 1e-12


class TestDatasets:
    def test_generation_deterministic(self):
        g = empty_room(6.0, 5.0)
        d1 = generate_sim_dataset([g], 40, CRIT, rng_seed=3)
        d2 = generate_sim_dataset([g], 40, CRIT, rng_seed=3)
        assert [(p.src.true_pose, p.dst.true_pose, p.r) for p in d1] == [
            (p.src.true_pose, p.dst.true_pose, p.r) for p in d2
        ]
        assert [p.src.id for p in d1] == list(range(0, 80, 2))

    def test_straddling_sealed_wall_is_negative(self):
        g = room_with_column_wall(6.0)
        a = mk_obs(g, 0, Pose2D(5.5, 5.0, 0.0))
        b = mk_obs(g, 1, Pose2D(6.6, 5.0, 0.0))
        pair = LabeledPair(a, b, label_reachability(g, a.true_pose, b.true_pose, CRIT),
                           relative(a.true_pose, b.true_pose))
        assert pair.r == 0

    def test_save_load_round_trip(self, tmp_path):
        g = empty_room(6.0, 5.0)
        pairs = generate_sim_dataset([g], 25, CRIT, rng_seed=9)
        path = str(tmp_path / "d.txt")
        save_dataset(pairs, path, CRIT)
        records, _ = load_dataset(path)
        assert len(records) == 25
        for p, rec in zip(pairs, records):
            assert rec.src.id == p.src.id and rec.dst.id == p.dst.id
            assert rec.src.true_pose == p.src.true_pose
            assert rec.dst.true_pose == p.dst.true_pose
            assert rec.r == p.r
            assert rec.w == p.w

    def test_header_names_criteria(self, tmp_path):
        g = empty_room(6.0, 5.0)
        pairs = generate_sim_dataset([g], 5, CRIT, rng_seed=1)
        path = str(tmp_path / "d.txt")
        save_dataset(pairs, path, CRIT)
        head = open(path).read().splitlines()[:10]
        assert any("L_min" in ln for ln in head)
        assert any("E_max" in ln for ln in head)

    def test_load_rejects_wrong_version(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("# something-else/v9\n")
        with pytest.raises(LoadError):
            load_dataset(str(p))

    def test_load_returns_the_pairs_save_takes(self, tmp_path):
        pairs = generate_sim_dataset([empty_room(6.0, 5.0)], 25, CRIT, rng_seed=9)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(pairs, str(p1), CRIT)
        loaded, criteria = load_dataset(str(p1))
        save_dataset(loaded, str(p2), criteria)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_returns_the_criteria_the_header_records(self, tmp_path):
        crit = ReachabilityCriteria(L_min=0.25, R_max=1.3, E_max=1.0, Theta_max=1.2,
                                    turn_radius=0.4)
        path = tmp_path / "d.txt"
        save_dataset(generate_sim_dataset([two_room_map()], 5, crit, rng_seed=3), str(path), crit)
        assert load_dataset(str(path))[1] == crit

    @pytest.mark.parametrize("edit", [
        lambda h: [ln for ln in h if not ln.startswith("# E_max ")],
        lambda h: h + ["# E_max 2.5"],
        lambda h: h + ["# fov 1.0"],
        lambda h: [h[0], h[1], h[3], h[2]] + h[4:],
        lambda h: [ln.replace("# L_min 0.3", "# L_min 1.5") for ln in h],
        lambda h: [ln.replace("# R_max 1.6", "# R_max nan") for ln in h],
        lambda h: [ln.replace("# R_max 1.6", "# R_max many") for ln in h],
        lambda h: [ln.replace("# R_max 1.6", "# R_max 1.6 1.7") for ln in h],
    ], ids=["missing", "repeated", "unknown", "out_of_order", "rejected", "nan",
            "not_a_number", "two_values"])
    def test_load_rejects_any_other_criteria_header(self, tmp_path, edit):
        path = tmp_path / "d.txt"
        save_dataset(generate_sim_dataset([two_room_map()], 5, CRIT, rng_seed=3), str(path), CRIT)
        lines = path.read_text().splitlines()
        head, crit_lines, rest = lines[:1], lines[1:6], lines[6:]
        assert [ln.split()[1] for ln in crit_lines] == ["L_min", "R_max", "E_max", "Theta_max",
                                                       "turn_radius"]
        path.write_text("\n".join(head + edit(crit_lines) + rest) + "\n")
        with pytest.raises(LoadError, match="criteria"):
            load_dataset(str(path))

    def test_saved_header_has_no_regime_line(self, tmp_path):
        path = tmp_path / "d.txt"
        save_dataset(generate_sim_dataset([two_room_map()], 5, CRIT, rng_seed=3), str(path), CRIT)
        assert not [ln for ln in path.read_text().splitlines() if ln.startswith("# regime")]

    def test_load_skips_the_regime_line_of_older_files(self, tmp_path):
        pairs = generate_sim_dataset([two_room_map()], 5, CRIT, rng_seed=3)
        path = tmp_path / "d.txt"
        save_dataset(pairs, str(path), CRIT)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + ["# regime sim"] + lines[1:]) + "\n")
        loaded, criteria = load_dataset(str(path))
        assert criteria == CRIT
        assert [(p.src.id, p.dst.id, p.r, p.w) for p in loaded] == \
            [(p.src.id, p.dst.id, p.r, p.w) for p in pairs]

    def test_load_rejects_an_unreadable_path(self, tmp_path):
        for path in (tmp_path / "missing.txt", tmp_path):
            with pytest.raises(LoadError):
                load_dataset(str(path))

    def test_load_rejects_a_cut_file(self, tmp_path):
        pairs = generate_sim_dataset([two_room_map()], 200, CRIT, rng_seed=3)
        path = tmp_path / "d.txt"
        save_dataset(pairs, str(path), CRIT)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-50]) + "\n")
        with pytest.raises(LoadError, match="pairs 200.*pairs 150"):
            load_dataset(str(path))

    def test_load_rejects_a_wrong_positive_count(self, tmp_path):
        pairs = generate_sim_dataset([two_room_map()], 50, CRIT, rng_seed=3)
        pos = sum(p.r for p in pairs)
        path = tmp_path / "d.txt"
        save_dataset(pairs, str(path), CRIT)
        text = path.read_text()
        assert f"# pairs 50 positive {pos}\n" in text
        path.write_text(text.replace(f"positive {pos}\n", f"positive {pos + 1}\n"))
        with pytest.raises(LoadError, match="positive"):
            load_dataset(str(path))

    def test_load_rejects_a_file_without_its_count_line(self, tmp_path):
        path = tmp_path / "d.txt"
        save_dataset(generate_sim_dataset([two_room_map()], 5, CRIT, rng_seed=3), str(path), CRIT)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("# pairs")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError):
            load_dataset(str(path))
