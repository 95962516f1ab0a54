"""Reachability labels, the oracle estimator, and its noise knobs."""

import math

from toponav import (
    NoiseConfig, OracleEstimator, Pose2D, ReachabilityCriteria, World,
    label_reachability, waypoint_distance,
)
from toponav.fixtures import two_room_map

grid = two_room_map()
world = World(grid)
crit = ReachabilityCriteria()

src = Pose2D(1.5, 1.5, 0.0)
cases = {
    "one metre ahead": Pose2D(2.5, 1.5, 0.0),
    "too far": Pose2D(1.5 + crit.E_max + 0.5, 1.5, 0.0),
    "behind": Pose2D(0.8, 1.5, 0.0),
    "across the divider": Pose2D(5.0, 1.5, 0.0),
    "big heading change": Pose2D(2.5, 1.5, math.pi),
    "lateral sidestep": Pose2D(1.7, 2.6, 0.0),
}
print(f"labels from ({src.x}, {src.y}, {src.theta}):")
for name, dst in cases.items():
    print(f"  {label_reachability(grid, src, dst, crit)}  {name}")

# the clean estimator reproduces the labels; a noisy one flips some
clean = OracleEstimator(grid)
noisy = OracleEstimator(grid, noise=NoiseConfig(false_positive_rate=0.10,
                                                pos_sigma=0.05, seed=0))
a = world.observe(Pose2D(1.5, 1.5, 0.0))
flips = 0
for k in range(60):
    b = world.observe(Pose2D(4.2 + 0.02 * k, 1.5, 0.0))
    if noisy.predict(a, b).r_hat >= 0.5 and clean.predict(a, b).r_hat < 0.5:
        flips += 1
print(f"\n60 wall-separated pairs, 10% flip rate: {flips} spurious positives")

# flips are frozen per pair: same ids, same answer
b = world.observe(Pose2D(4.2, 1.5, 0.0))
r1 = noisy.predict(a, b).r_hat
r2 = noisy.predict(a, b).r_hat
print(f"repeat query gives the same score: {r1:.3f} == {r2:.3f}")

# the noisy waypoint of a reachable pair, one metre ahead
pred = noisy.predict(a, world.observe(Pose2D(2.5, 1.5, 0.0)))
print(f"reachable pair one metre ahead: score {pred.r_hat:.3f}, "
      f"waypoint distance {waypoint_distance(pred.w_hat):.3f}")
