"""Closed-loop navigation on a topological graph inside the grid world.

One episode is a repeated cycle: observe, localize against the
graph, plan to the goal vertex, drive the feedback controller toward the
predicted subgoal waypoint, relocalize, and (when maintaining) fold the
traversal outcome back into the edge beliefs.  The lifelong runner
executes random queries with maintenance on and measures a frozen test
set at fixed intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGoal, InvalidInput, RouteError
from .gridworld import (
    AgentState,
    ControllerGains,
    GridMap,
    VelocityCmd,
    feedback_control,
    raycast,
    raycast_scan,  # noqa: F401  a traced binding of bench/tracer.py; scans are cast on read
    sample_free_pose,
    shortest_feasible_path,
    staircase_length,
    step_agent,
)
from .maintenance import (
    MaintenanceParams,
    add_novel_node,
    apply_traversal_update,
    expand_for_plan,
)
from .perception import Observation
from .se2 import Pose2D, Waypoint, compose, relative, waypoint_distance, wrap_angle
from .topograph import (
    BuildParams,
    TopoGraph,
    TrajectoryPool,
    localize,
    plan,
    traversal_succeeded,
)

# Evaluation observations live in their own id namespace so repeated
# evaluations of a frozen graph draw identical estimator noise and never
# collide with ids handed out during collection or maintenance.
EVAL_ID_BASE = 10**9
EVAL_ID_STRIDE = 10**5

# The substreams of a run's seed, np.random.default_rng([seed, STREAM]):
# lifelong query sampling, plan-time expansion, and the frozen test set.
QUERY_STREAM = 1
EXPAND_STREAM = 2
TEST_SET_STREAM = 3


class World:
    """Simulation bundle: the map (which holds the robot's radius and
    sensor), controller, and the observation id counter shared by
    everything that senses in it."""

    def __init__(self, grid: GridMap, gains: ControllerGains = ControllerGains(),
                 dt: float = 0.1, first_id: int = 0):
        if not (0.0 < dt < math.inf):
            raise InvalidInput("dt must be positive and finite")
        self.grid = grid
        self.gains = gains
        self.dt = dt
        self._next_id = first_id

    def observe(self, pose: Pose2D, oid: int | None = None,
                odom_pose: Pose2D | None = None) -> Observation:
        """The observation at pose, with odometry odom_pose (pose when not
        given).  Raises InvalidPose unless pose lies in a free cell; the
        scan is cast on the first read of the observation's `scan`."""
        if oid is None:
            oid = self._next_id
            self._next_id += 1
        self.grid.require_free(pose.x, pose.y)
        return Observation(oid, None, pose, pose if odom_pose is None else odom_pose,
                           self.grid)


@dataclass(frozen=True)
class EpisodeLimits:
    max_steps: int = 1000
    max_collisions: int = 20
    pos_tol: float = 0.72
    yaw_tol: float = 0.4
    recovery_rotation_step: float = math.pi / 6
    max_recovery_rotations: int = 12

    def __post_init__(self):
        if not all(v > 0 for v in (self.max_steps, self.max_collisions, self.pos_tol,
                                   self.yaw_tol, self.recovery_rotation_step,
                                   self.max_recovery_rotations)):
            raise InvalidInput("episode limits must be positive")
        if not (self.recovery_rotation_step <= 2.0 * math.pi):
            # A larger step only repeats full turns, at one simulator step
            # per omega_max * dt radians.
            raise InvalidInput("recovery_rotation_step must be at most 2*pi")


@dataclass
class EpisodeResult:
    success: bool
    failure_reason: str | None  # "timeout" | "collision_limit" | "stuck"
    steps: int
    collisions: int
    edges_traversed: int
    maintenance_events: list
    final_pos_error: float
    final_yaw_error: float


@dataclass(frozen=True)
class OdomNoise:
    """Dead-reckoning drift: per-unit-motion standard deviations."""

    pos_sigma: float = 0.0
    theta_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.pos_sigma < math.inf and 0.0 <= self.theta_sigma < math.inf):
            raise InvalidInput("odometry sigmas must be non-negative and finite")
        if self.seed < 0:
            raise InvalidInput("odometry seed must be non-negative")


@dataclass
class LifelongCurve:
    eval_points: list  # (queries_executed, success_rate, n_vertices, n_edges)

    def to_table(self) -> str:
        lines = ["queries,success_rate,n_vertices,n_edges"]
        for q, rate, nv, ne in self.eval_points:
            lines.append("%d,%.6f,%d,%d" % (q, rate, nv, ne))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Trajectory collection.
# ---------------------------------------------------------------------------


def _motion(step: Waypoint) -> float:
    # Progress metric matching the connectivity distance: rotation counts
    # sqrt(2) per radian, so turning in place still spaces observations.
    return math.hypot(step.dx, step.dy) + math.sqrt(2.0) * abs(step.dtheta)


def collect_trajectory(world: World, route, loops: int, spacing: float,
                       odom_noise: OdomNoise | None = None) -> list[Observation]:
    """Drive the controller around the route and record observations.

    An observation is taken at the start and then after every `spacing`
    units of accumulated motion.  Waypoints are passed at a loose radius so
    the agent flows around corners the way a teleoperated run would.
    odom_pose accumulates per-step deltas corrupted by noise scaled with
    each step's motion; with zero noise it equals the true pose.
    """
    if not isinstance(loops, (int, np.integer)):
        raise InvalidInput(f"loops must be an integer, got {loops!r}")
    if loops < 1:
        raise RouteError("need at least one loop")
    if not 0.0 < spacing < math.inf:
        raise InvalidInput("spacing must be positive and finite")
    grid = world.grid
    if not route:
        raise RouteError("need at least one route pose")
    for p in route:
        if grid.disc_blocked(p.x, p.y):
            raise RouteError(f"route pose ({p.x:.2f}, {p.y:.2f}) is not free")
    ring = list(route) + [route[0]]
    for a, b in zip(ring, ring[1:]):
        # A clear staircase is a path already; only a blocked one is searched.
        if math.isinf(staircase_length(grid, a, b)) and math.isinf(
                shortest_feasible_path(grid, a, b)):
            raise RouteError("route legs must be connected in free space")

    noisy = odom_noise is not None and (odom_noise.pos_sigma > 0 or odom_noise.theta_sigma > 0)
    rng = np.random.default_rng(odom_noise.seed) if noisy else None
    state = AgentState(pose=route[0])
    odom = route[0]
    pass_radius = 0.25
    observations = [world.observe(state.pose)]
    progress = 0.0
    targets = (list(route[1:]) + [route[0]]) * loops
    for target in targets:
        for _ in range(4000):
            if math.hypot(target.x - state.pose.x, target.y - state.pose.y) <= pass_radius:
                break
            cmd = feedback_control(state.pose, target, world.gains)
            if cmd.v == 0.0 and cmd.omega == 0.0:
                break
            prev = state.pose
            state = step_agent(grid, state, cmd, world.dt)
            step = relative(prev, state.pose)
            m = _motion(step)
            if noisy:
                odom = compose(odom, Waypoint(
                    step.dx + rng.normal(0.0, odom_noise.pos_sigma * m),
                    step.dy + rng.normal(0.0, odom_noise.pos_sigma * m),
                    step.dtheta + rng.normal(0.0, odom_noise.theta_sigma * m),
                ))
            else:
                odom = state.pose
            progress += m
            if progress >= spacing:
                progress -= spacing
                observations.append(world.observe(state.pose, odom_pose=odom))
        else:
            raise RouteError("controller could not reach a route waypoint")
    return observations


# ---------------------------------------------------------------------------
# Episodes.
# ---------------------------------------------------------------------------


def _rotate_in_place(world, state: AgentState, angle: float) -> AgentState:
    remaining = angle
    per_step = world.gains.omega_max * world.dt
    while abs(remaining) > 1e-9:
        w = math.copysign(min(abs(remaining), per_step), remaining)
        state = step_agent(world.grid, state, VelocityCmd(0.0, w / world.dt), world.dt)
        remaining -= w
    return state


def _pose_errors(pose: Pose2D, goal_pose: Pose2D) -> tuple[float, float]:
    return (math.hypot(pose.x - goal_pose.x, pose.y - goal_pose.y),
            abs(wrap_angle(pose.theta - goal_pose.theta)))


def _within_tolerance(pose: Pose2D, goal_pose: Pose2D, limits: EpisodeLimits) -> bool:
    pos_err, yaw_err = _pose_errors(pose, goal_pose)
    return pos_err <= limits.pos_tol and yaw_err <= limits.yaw_tol


def _end_reason(state: AgentState, goal_pose: Pose2D, collisions: int,
                limits: EpisodeLimits) -> str | None:
    """Why the episode ends at this state: "goal", "timeout" or
    "collision_limit", tested in that order; None while it goes on."""
    if _within_tolerance(state.pose, goal_pose, limits):
        return "goal"
    if state.step_count > limits.max_steps:
        return "timeout"
    if collisions > limits.max_collisions:
        return "collision_limit"
    return None


def run_episode(world: World, graph: TopoGraph, estimator, start: Pose2D, goal: int,
                limits: EpisodeLimits, *, maintain: MaintenanceParams | None = None,
                pool: TrajectoryPool | None = None, expand_rng=None) -> EpisodeResult:
    """One navigation episode from a free pose to a graph vertex.

    Each cycle observes, localizes, plans to the goal vertex and drives
    toward the subgoal's predicted waypoint.  The episode ends at the
    first of these tests to hold, run in this order before the first
    cycle, after every drive step and at the end of every cycle: the goal
    is within `pos_tol` and `yaw_tol` (success), more than `max_steps`
    steps were taken ("timeout"), or more than `max_collisions` contact
    events happened ("collision_limit").

    A cycle that finds no vertex, finds no plan, or makes no progress
    (stalled against an obstacle, or arrived where it started) rotates in
    place by `recovery_rotation_step`.  After `max_recovery_rotations`
    rotations without a clean arrival the episode ends "stuck", except
    that with maintenance on a failed localization then adds the
    observation as a novel vertex and the cycle goes on.

    `maintain` is the episode's MaintenanceParams, or None to leave the
    graph untouched and read neither `pool` nor `expand_rng`.  Maintenance
    also expands from `pool` in the order `expand_rng` draws when planning
    fails, and folds each traversal into its edge's belief; it needs both.
    Observation ids come from `world`, windows from `graph.build_params`.
    """
    if goal not in graph.vertices:
        raise InvalidGoal(f"goal vertex {goal} is not in the graph")
    if maintain is not None and not (isinstance(maintain, MaintenanceParams)
                                     and pool is not None and expand_rng is not None):
        raise InvalidInput("maintenance takes MaintenanceParams, a pool and an expansion stream")
    goal_pose = graph.vertices[goal].true_pose
    state = AgentState(pose=start)
    events: list = []
    edges_traversed = 0
    recoveries = 0
    last_path = None
    # Collisions are counted as contact events, not contact steps: a drive
    # that presses against a wall for its whole budget is one collision.
    collisions = 0
    in_contact = False
    reason = _end_reason(state, goal_pose, collisions, limits)
    while reason is None:
        obs = world.observe(state.pose)
        vid = localize(graph, obs, estimator, graph.build_params, last_path)
        if vid is None and maintain and recoveries >= limits.max_recovery_rotations:
            # Only a full sweep of failed rotations marks the pose as novel.
            vid = add_novel_node(graph, pool, obs, estimator, graph.build_params)
            recoveries = 0
        path = None if vid is None else plan(graph, vid, goal)
        if path is None and vid is not None and maintain:
            expanded = expand_for_plan(graph, pool, vid, goal, estimator, maintain, expand_rng)
            if expanded is not None:
                path = expanded[0]
        progressed = False
        if path is not None:
            subgoal = path[1] if len(path) > 1 else path[0]
            subgoal_obs = graph.vertices[subgoal]
            w_hat = estimator.waypoint(obs, subgoal_obs)
            target = compose(state.pose, w_hat)
            if subgoal != vid:
                edges_traversed += 1
            cycle_pose = state.pose
            arrived = stalled = False
            for _ in range(200):
                cmd = feedback_control(state.pose, target, world.gains)
                if cmd.v == 0.0 and cmd.omega == 0.0:
                    arrived = True
                    break
                before = state.collision_count
                prev_pose = state.pose
                state = step_agent(world.grid, state, cmd, world.dt)
                hit = state.collision_count > before
                if hit and not in_contact:
                    collisions += 1
                in_contact = hit
                if hit and state.pose == prev_pose:
                    # Contact holds the pose, so further commands are no-ops;
                    # burning the rest of the budget in place teaches nothing.
                    stalled = True
                    break
                reason = _end_reason(state, goal_pose, collisions, limits)
                if reason is not None:
                    break
            # The traversal verdict is recorded even when the drive ended the
            # episode; failed drives are exactly the evidence pruning needs.
            if maintain and subgoal != vid and (vid, subgoal) in graph.edges:
                arrival = world.observe(state.pose)
                succeeded = traversal_succeeded(graph, subgoal, arrival, estimator)
                events.append(apply_traversal_update(
                    graph, (vid, subgoal),
                    waypoint_distance(w_hat) if succeeded else None, maintain))
            last_path = path
            # Wedged against an obstacle, or the controller believes it has
            # arrived while the goal test disagrees: that is no progress.
            progressed = not stalled and state.pose != cycle_pose
            if progressed and arrived:
                recoveries = 0
        if reason is None and not progressed:
            # Rotating breaks the repeat; a run of such cycles is stuck.
            if recoveries >= limits.max_recovery_rotations:
                reason = "stuck"
            else:
                state = _rotate_in_place(world, state, limits.recovery_rotation_step)
                recoveries += 1
        if reason is None:
            reason = _end_reason(state, goal_pose, collisions, limits)
    success = reason == "goal"
    return EpisodeResult(success, None if success else reason, state.step_count,
                         collisions, edges_traversed, events,
                         *_pose_errors(state.pose, goal_pose))


def evaluate(world: World, graph: TopoGraph, estimator, test_set, limits: EpisodeLimits):
    """Success rate of the test set against a frozen graph.

    Episodes run without maintenance, each in a copy of `world` whose
    observation ids start in its own evaluation range, so the call is
    repeatable and mutates nothing.
    """
    if not test_set:
        raise InvalidInput("empty test set")
    results = []
    for idx, (start, goal) in enumerate(test_set):
        episode_world = World(world.grid, world.gains, world.dt,
                              first_id=EVAL_ID_BASE + idx * EVAL_ID_STRIDE)
        results.append(run_episode(episode_world, graph, estimator, start, goal, limits))
    rate = sum(r.success for r in results) / len(results)
    return rate, results


def _sample_query(world: World, graph: TopoGraph, rng, limits: EpisodeLimits):
    ids = sorted(graph.vertices)
    for _ in range(100):
        start = sample_free_pose(world.grid, rng)
        goal = ids[int(rng.integers(len(ids)))]
        if not _within_tolerance(start, graph.vertices[goal].true_pose, limits):
            return start, goal
    return start, goal


def make_test_set(world: World, graph: TopoGraph, n_goals: int, n_episodes: int,
                  rng, limits: EpisodeLimits):
    """Static (start pose, goal vertex) pairs cycling over sampled goals."""
    if n_goals < 1 or n_episodes < 1:
        raise InvalidInput("need at least one goal and one episode")
    if not graph.vertices:
        raise InvalidInput("the graph has no vertices to take goals from")
    ids = sorted(graph.vertices)
    goals = [ids[int(rng.integers(len(ids)))] for _ in range(n_goals)]
    pairs = []
    for e in range(n_episodes):
        goal = goals[e % n_goals]
        goal_pose = graph.vertices[goal].true_pose
        for _ in range(100):
            start = sample_free_pose(world.grid, rng)
            if not _within_tolerance(start, goal_pose, limits):
                break
        pairs.append((start, goal))
    return pairs


def run_lifelong(world: World, graph: TopoGraph, pool: TrajectoryPool, estimator,
                 n_queries: int, eval_every: int, test_set, limits: EpisodeLimits,
                 build_params: BuildParams, maint_params: MaintenanceParams,
                 seed: int = 0) -> LifelongCurve:
    """Maintained random queries with periodic frozen-set evaluation.

    Query sampling and expansion draw from separate streams of the seed,
    so the run is a pure function of its inputs; `build_params` must be
    the graph's own.  The query-0 baseline point is always present.
    """
    if eval_every < 1 or (n_queries > 0 and n_queries % eval_every != 0):
        raise InvalidInput("eval_every must divide n_queries")
    if build_params != graph.build_params:
        raise InvalidInput("build_params differ from the graph's own")
    sample_rng = np.random.default_rng([seed, QUERY_STREAM])
    expand_rng = np.random.default_rng([seed, EXPAND_STREAM])
    rate, _ = evaluate(world, graph, estimator, test_set, limits)
    points = [(0, rate, graph.n_vertices, graph.n_edges)]
    for q in range(1, n_queries + 1):
        start, goal = _sample_query(world, graph, sample_rng, limits)
        run_episode(world, graph, estimator, start, goal, limits,
                    maintain=maint_params, pool=pool, expand_rng=expand_rng)
        if q % eval_every == 0:
            rate, _ = evaluate(world, graph, estimator, test_set, limits)
            points.append((q, rate, graph.n_vertices, graph.n_edges))
    return LifelongCurve(points)


# ---------------------------------------------------------------------------
# Diagnostics.
# ---------------------------------------------------------------------------


def estimate_distance_variance(estimator, observations, build_params: BuildParams) -> float:
    """Variance of predicted-vs-true distances over pairs of observations at
    most five apart in the sequence.

    An estimate of `BuildParams.sigma2_init`, the distance variance of
    build and maintenance alike.  Falls back to `build_params.sigma2_init`
    when no pair qualifies; an estimate is never less than 1e-4.
    """
    residuals = []
    for i in range(len(observations)):
        for j in range(i + 1, min(i + 6, len(observations))):
            pred = estimator.predict(observations[i], observations[j])
            if pred.r_hat < build_params.r_connect_min:
                continue
            d_true = waypoint_distance(
                relative(observations[i].true_pose, observations[j].true_pose))
            residuals.append(waypoint_distance(pred.w_hat) - d_true)
    if not residuals:
        return build_params.sigma2_init
    return max(float(np.var(residuals)), 1e-4)


def wall_crossing_edges(graph: TopoGraph, grid: GridMap):
    """Edges whose straight endpoint-to-endpoint sightline is occluded.

    Ground-truth diagnostic for spurious edges; the navigator itself never
    sees this."""
    crossing = []
    for (s, d) in sorted(graph.edges):
        a = graph.vertices[s].true_pose
        b = graph.vertices[d].true_pose
        dist = math.hypot(b.x - a.x, b.y - a.y)
        if dist < grid.resolution:
            continue
        bearing = math.atan2(b.y - a.y, b.x - a.x)
        r = float(raycast(grid, a.x, a.y, [bearing], dist + 1.0)[0])
        if r < dist - 1e-9:
            crossing.append((s, d))
    return crossing
