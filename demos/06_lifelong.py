"""Lifelong operation: navigate, fail, repair, improve.

A 10% false-positive estimator salts the initial two-room graph with edges
through the divider wall.  Random queries with maintenance enabled press
into those edges, fail, and prune them, while unlocalizable spots grow new
vertices.  Held-out evaluations every 25 queries track the repair.
"""

import numpy as np

from toponav import (
    BuildParams, EpisodeLimits, MaintenanceParams, NoiseConfig,
    OracleEstimator, World, build_graph, collect_trajectory, make_test_set,
    run_lifelong, wall_crossing_edges,
)
from toponav.fixtures import two_room_map, two_room_route
from toponav.navharness import TEST_SET_STREAM

seed = 1
grid = two_room_map()
world = World(grid)
traj = collect_trajectory(world, two_room_route(), loops=1, spacing=0.2)
est = OracleEstimator(grid, noise=NoiseConfig(false_positive_rate=0.10, seed=seed))
bp, mp, limits = BuildParams(), MaintenanceParams(), EpisodeLimits()
graph, pool = build_graph(traj, est, bp)

walls = wall_crossing_edges(graph, grid)
print(f"built: {graph.n_vertices} vertices, {graph.n_edges} edges")
print(f"edges whose endpoints cannot see each other (through the wall): "
      f"{len(walls)}")

test_set = make_test_set(world, graph, 8, 16,
                         np.random.default_rng([seed, TEST_SET_STREAM]), limits)
curve = run_lifelong(world, graph, pool, est, n_queries=100, eval_every=25,
                     test_set=test_set, limits=limits, build_params=bp,
                     maint_params=mp, seed=seed)

print("\nheld-out success over the query stream:")
print(curve.to_table())
walls_after = wall_crossing_edges(graph, grid)
print(f"wall-crossing edges after repair: {len(walls_after)} "
      f"(was {len(walls)})")
print(f"graph now holds {graph.n_vertices} vertices and "
      f"{graph.n_edges} edges")
