"""Byte pins on the deterministic artifacts.

The reproducibility tests compare two runs of the same code, so a change
that alters the bytes every run writes still passes them.  A speed-up
must keep these digests; a change that alters the outputs on purpose
updates them and says why.
"""

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

import toponav.navharness as navharness
from toponav import (
    BuildParams,
    EpisodeLimits,
    MaintenanceParams,
    NoiseConfig,
    OracleEstimator,
    TrajectoryPool,
    World,
    build_graph,
    collect_trajectory,
    make_test_set,
    run_lifelong,
    save_graph,
    save_trajectory,
)
from toponav.fixtures import apartment_map, apartment_route, two_room_map, two_room_route
from toponav.navharness import OdomNoise


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_two_room_build_graph_bytes(tmp_path):
    grid = two_room_map()
    traj = collect_trajectory(World(grid), two_room_route(), loops=1, spacing=0.2)
    est = OracleEstimator(grid, noise=NoiseConfig(false_positive_rate=0.10, seed=0))
    graph, pool = build_graph(traj, est, BuildParams())
    path = tmp_path / "build.graph"
    save_graph(graph, pool, str(path))
    assert _sha256(path) == "5d640397b2ee903e56b659dad6831167c412794071b6bebeec88c26879d94772"


def test_apartment_build_graph_bytes(tmp_path):
    # The benchmark's apartment build: three loops of the route, noise-free
    # labels, build seed 101.
    traj = collect_trajectory(World(apartment_map()), apartment_route(), loops=3, spacing=0.2)
    graph, pool = build_graph(traj, OracleEstimator(apartment_map()), BuildParams(rng_seed=101))
    path = tmp_path / "build.graph"
    save_graph(graph, pool, str(path))
    assert _sha256(path) == "596228da94cbb672f11bd5aa3669718461565be4a674204a94bd6bac9d8cb1da"


def test_two_room_trajectory_bytes(tmp_path):
    # The trajectory file is the one output that holds every scan taken
    # while driving; odometry noise pins the odom poses it carries too.
    traj = collect_trajectory(World(two_room_map()), two_room_route(), loops=1, spacing=0.2,
                              odom_noise=OdomNoise(pos_sigma=0.02, theta_sigma=0.01, seed=0))
    path = tmp_path / "collect.traj"
    save_trajectory(traj, str(path))
    assert _sha256(path) == "15b0be0087a3d0978b941db33a6fd5bf1e094b43e11bb483f0c6c78bd6a18dfa"


# A graph from every third observation leaves holes, so the run adds novel
# vertices and expands from the pool of the other observations; noisy
# waypoints pin the estimator's per-pair noise stream as well.
LIFELONG_PINS = {
    "exact-waypoints": (
        NoiseConfig(false_positive_rate=0.10, false_negative_rate=0.15, seed=0),
        "df2b9184e7af51398298e5f34a9654517a342523cef9a8f1f335513a34ede2c0",
        "872e4ff3a0bd63253694b9949cb05b65b0917bd673c4207cd0fc499b754e5530",
    ),
    "noisy-waypoints": (
        NoiseConfig(pos_sigma=0.05, theta_sigma=0.03, false_positive_rate=0.10,
                    false_negative_rate=0.15, seed=0),
        "86686698946d1b578515a22d079aea1b45328b4bb89cda10b478103897fdc7be",
        "747f2266b709f24de5af38b8e38d43f0e021b450df1b9cb3f776a77b09ec3370",
    ),
}


@pytest.mark.parametrize("case", sorted(LIFELONG_PINS))
def test_short_lifelong_bytes(tmp_path, case):
    noise, csv_sha, graph_sha = LIFELONG_PINS[case]
    grid = two_room_map()
    world = World(grid)
    traj = collect_trajectory(world, two_room_route(), loops=1, spacing=0.2)
    est = OracleEstimator(grid, noise=noise)
    bp, mp, limits = BuildParams(), MaintenanceParams(), EpisodeLimits()
    graph, leftovers = build_graph(traj[::3], est, bp)
    held_out = [o for i, o in enumerate(traj) if i % 3]
    pool = TrajectoryPool(sorted(held_out + list(leftovers), key=lambda o: o.id))
    test_set = make_test_set(world, graph, 3, 4, np.random.default_rng([0, 3]), limits)
    curve = run_lifelong(world, graph, pool, est, 10, 5, test_set, limits, bp, mp, seed=0)
    csv = tmp_path / "lifelong.csv"
    csv.write_text(curve.to_table())
    save_graph(graph, pool, str(csv) + ".graph")
    assert (_sha256(csv), _sha256(str(csv) + ".graph")) == (csv_sha, graph_sha)


def test_episode_outcomes(monkeypatch):
    # Short limits make the 30 episodes (12 maintained queries, three
    # evaluations of 6) end for every reason, so the digest pins steps,
    # collisions, failure reasons and maintenance reports, which the CSV
    # and the graph bytes do not show.
    results = []
    run_episode = navharness.run_episode

    def recorded(*args, **kwargs):
        result = run_episode(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(navharness, "run_episode", recorded)
    grid = two_room_map()
    world = World(grid)
    traj = collect_trajectory(world, two_room_route(), loops=1, spacing=0.2)
    est = OracleEstimator(grid, noise=NoiseConfig(false_positive_rate=0.10,
                                                  false_negative_rate=0.15, seed=1))
    bp, mp = BuildParams(), MaintenanceParams()
    limits = EpisodeLimits(max_steps=300, max_collisions=3)
    graph, leftovers = build_graph(traj[::3], est, bp)
    held_out = [o for i, o in enumerate(traj) if i % 3]
    pool = TrajectoryPool(sorted(held_out + list(leftovers), key=lambda o: o.id))
    test_set = make_test_set(world, graph, 3, 6, np.random.default_rng([1, 3]), limits)
    run_lifelong(world, graph, pool, est, 12, 6, test_set, limits, bp, mp, seed=1)
    reasons = Counter("goal" if r.success else r.failure_reason for r in results)
    assert set(reasons) == {"goal", "timeout", "stuck", "collision_limit"}
    text = "\n".join(repr(dataclasses.astuple(r)) for r in results)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "12fe80f74a893293033acffb04df93f56a8266a8e866b159f99cd4ba241dcbc6")
