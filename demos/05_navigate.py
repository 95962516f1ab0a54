"""Point-to-point navigation on a freshly built graph.

An episode loop is localize, plan, drive one edge, repeat.  The goal is a
graph vertex; success means physically arriving inside the goal tolerance
before the step budget runs out.
"""

import numpy as np

from toponav import (
    BuildParams, EpisodeLimits, OracleEstimator, Pose2D, World, build_graph,
    collect_trajectory, evaluate, make_test_set, plan, run_episode,
)
from toponav.fixtures import two_room_map, two_room_route

grid = two_room_map()
world = World(grid)
traj = collect_trajectory(world, two_room_route(), loops=1, spacing=0.2)
est = OracleEstimator(grid)
bp = BuildParams()
graph, _ = build_graph(traj, est, bp)
limits = EpisodeLimits()
print(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges")

# pick a goal vertex in the right room, start the robot in the left one
goal = min(graph.vertices, key=lambda v: abs(graph.vertices[v].true_pose.x - 5.5)
           + abs(graph.vertices[v].true_pose.y - 3.5))
gp = graph.vertices[goal].true_pose
start = Pose2D(1.4, 1.2, 0.0)
print(f"start ({start.x}, {start.y}) -> goal vertex {goal} "
      f"({gp.x:.2f}, {gp.y:.2f})")

res = run_episode(world, graph, est, start, goal, limits)
print(f"success={res.success} steps={res.steps} "
      f"edges_traversed={res.edges_traversed} collisions={res.collisions}")

# the same machinery, batched over a sampled test set
test_set = make_test_set(world, graph, 4, 8, np.random.default_rng(1), limits)
rate, results = evaluate(world, graph, est, test_set, limits)
print(f"\nevaluate over {len(results)} episodes: success rate {rate:.2f}")
for i, r in enumerate(results):
    print(f"  episode {i}: {'ok' if r.success else r.failure_reason}")
