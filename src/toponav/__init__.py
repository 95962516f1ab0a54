"""Topological visual navigation on a deterministic 2D gridworld.

The package splits into planar geometry (se2), the simulated world
(gridworld), reachability labeling and the pluggable pose/reachability
estimator (perception), the topological graph with sampling-based
construction and belief-weighted planning (topograph), Bayesian edge
maintenance and graph expansion (maintenance), and the episode/lifelong
experiment harness plus CLI (navharness, cli).

The top level holds the names the pipeline's users import: build a graph
from a driven trajectory, localize and plan on it, and run the lifelong
experiment.  Every other name is imported from its module.
"""

from .se2 import (
    Pose2D,
    Waypoint,
    compose,
    dubins_length,
    relative,
    se2_exp,
    se2_log,
    waypoint_distance,
    waypoint_matrix,
)
from .gridworld import AgentState, feedback_control, sample_free_pose, step_agent
from .perception import (
    NoiseConfig,
    Observation,
    OracleEstimator,
    ReachabilityCriteria,
    label_reachability,
)
from .topograph import (
    BuildParams,
    EdgeBelief,
    TopoGraph,
    TrajectoryPool,
    build_graph,
    load_graph,
    load_trajectory,
    localize,
    plan,
    save_graph,
    save_trajectory,
)
from .maintenance import MaintenanceParams
from .navharness import (
    EpisodeLimits,
    World,
    collect_trajectory,
    evaluate,
    make_test_set,
    run_episode,
    run_lifelong,
    wall_crossing_edges,
)

__all__ = [
    "AgentState",
    "BuildParams",
    "EdgeBelief",
    "EpisodeLimits",
    "MaintenanceParams",
    "NoiseConfig",
    "Observation",
    "OracleEstimator",
    "Pose2D",
    "ReachabilityCriteria",
    "TopoGraph",
    "TrajectoryPool",
    "Waypoint",
    "World",
    "build_graph",
    "collect_trajectory",
    "compose",
    "dubins_length",
    "evaluate",
    "feedback_control",
    "label_reachability",
    "load_graph",
    "load_trajectory",
    "localize",
    "make_test_set",
    "plan",
    "relative",
    "run_episode",
    "run_lifelong",
    "sample_free_pose",
    "save_graph",
    "save_trajectory",
    "se2_exp",
    "se2_log",
    "step_agent",
    "wall_crossing_edges",
    "waypoint_distance",
    "waypoint_matrix",
]

__version__ = "0.1.0"
