import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toponav.errors import InvalidInput, LoadError
from toponav.gridworld import GridMap, SensorConfig, raycast_scan, sample_free_pose
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
from toponav.se2 import Pose2D, Waypoint, relative
from toponav.topograph import BuildParams, TopoGraph, localize

from test_gridworld import empty_room, room_with_column_wall

CRIT = ReachabilityCriteria()


def mk_obs(grid, oid, pose, sensor=SensorConfig()):
    return Observation(oid, raycast_scan(grid, pose, sensor), pose, pose)


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

    def test_relaxing_any_threshold_grows_positive_set(self):
        from toponav.gridworld import generate_rooms_map

        g = generate_rooms_map(seed=21)
        rng = np.random.default_rng(5)
        pairs = [(sample_free_pose(g, rng), sample_free_pose(g, rng)) for _ in range(250)]
        base = {i for i, (a, b) in enumerate(pairs) if label_reachability(g, a, b, CRIT)}
        relaxed = {
            "L_min": replace(CRIT, L_min=0.0),
            "R_max": replace(CRIT, R_max=1e9),
            "E_max": replace(CRIT, E_max=1e9),
            "Theta_max": replace(CRIT, Theta_max=math.pi),
            "fov": replace(CRIT, fov=2 * math.pi),
        }
        grew = 0
        for name, crit in relaxed.items():
            got = {i for i, (a, b) in enumerate(pairs) if label_reachability(g, a, b, crit)}
            assert base <= got, f"relaxing {name} lost positives"
            grew += len(got - base)
        assert grew > 0


class TestOracleEstimator:
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
        records = load_dataset(path)
        assert len(records) == 25
        for p, rec in zip(pairs, records):
            assert rec.src_id == p.src.id and rec.dst_id == p.dst.id
            assert rec.src_pose == p.src.true_pose
            assert rec.dst_pose == p.dst.true_pose
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
