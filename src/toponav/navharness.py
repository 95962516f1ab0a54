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

from .errors import InvalidGoal, InvalidInput, RouteError, LoadError
from .gridworld import (
    DEFAULT_ROBOT_RADIUS,
    AgentState,
    ControllerGains,
    GridMap,
    SensorConfig,
    VelocityCmd,
    feedback_control,
    raycast,
    raycast_scan,
    sample_free_pose,
    shortest_feasible_path,
    step_agent,
)
from .maintenance import (
    MaintenanceParams,
    TraversalOutcome,
    add_novel_node,
    apply_traversal_update,
    expand_for_plan,
)
from .perception import Observation
from .se2 import Pose2D, compose, relative, waypoint_distance, wrap_angle
from .topograph import (
    BuildParams,
    TopoGraph,
    TrajectoryPool,
    _parse_observation,
    _write_observation,
    localize,
    plan,
)

# Evaluation observations live in their own id namespace so repeated
# evaluations of a frozen graph draw identical estimator noise and never
# collide with ids handed out during collection or maintenance.
EVAL_ID_BASE = 10**9
EVAL_ID_STRIDE = 10**5

_TRAJ_HEADER = "toponav-trajectory/v1"


class World:
    """Simulation bundle: map, sensor, controller, and the observation id
    counter shared by everything that senses in it."""

    def __init__(self, grid: GridMap, sensor: SensorConfig = SensorConfig(),
                 gains: ControllerGains = ControllerGains(), dt: float = 0.1,
                 robot_radius: float = DEFAULT_ROBOT_RADIUS, first_id: int = 0):
        self.grid = grid
        self.sensor = sensor
        self.gains = gains
        self.dt = dt
        self.robot_radius = robot_radius
        self._next_id = first_id

    def observe(self, pose: Pose2D, oid: int | None = None) -> Observation:
        if oid is None:
            oid = self._next_id
            self._next_id += 1
        scan = raycast_scan(self.grid, pose, self.sensor)
        return Observation(oid, scan, pose, pose)


@dataclass(frozen=True)
class EpisodeLimits:
    max_steps: int = 1000
    max_collisions: int = 20
    pos_tol: float = 0.72
    yaw_tol: float = 0.4
    recovery_rotation_step: float = math.pi / 6
    max_recovery_rotations: int = 12

    def __post_init__(self):
        if min(self.max_steps, self.max_collisions, self.pos_tol, self.yaw_tol,
               self.recovery_rotation_step, self.max_recovery_rotations) <= 0:
            raise InvalidInput("episode limits must be positive")


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


@dataclass
class LifelongCurve:
    eval_points: list  # (queries_executed, success_rate, n_vertices, n_edges)

    def __post_init__(self):
        qs = [p[0] for p in self.eval_points]
        if qs != sorted(set(qs)):
            raise InvalidInput("eval points must be strictly increasing in queries")

    def to_table(self) -> str:
        lines = ["queries,success_rate,n_vertices,n_edges"]
        for q, rate, nv, ne in self.eval_points:
            lines.append("%d,%.6f,%d,%d" % (q, rate, nv, ne))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Trajectory collection.
# ---------------------------------------------------------------------------


def _motion(step: "Waypoint") -> float:
    # Progress metric matching the connectivity distance: rotation counts
    # sqrt(2) per radian, so turning in place still spaces observations.
    return math.hypot(step.dx, step.dy) + math.sqrt(2.0) * abs(step.dtheta)


def collect_trajectory(world, route, loops: int, spacing: float,
                       odom_noise: OdomNoise | None = None) -> list[Observation]:
    """Drive the controller around the route and record observations.

    An observation is taken at the start and then after every `spacing`
    units of accumulated motion.  Waypoints are passed at a loose radius so
    the agent flows around corners the way a teleoperated run would.
    odom_pose accumulates per-step deltas corrupted by noise scaled with
    each step's motion; with zero noise it equals the true pose.
    """
    if isinstance(world, GridMap):
        world = World(world)
    if loops < 1:
        raise RouteError("need at least one loop")
    if spacing <= 0.0:
        raise InvalidInput("spacing must be positive")
    grid = world.grid
    for p in route:
        if not grid.pose_free(p, world.robot_radius):
            raise RouteError(f"route pose ({p.x:.2f}, {p.y:.2f}) is not free")
    ring = list(route) + [route[0]]
    for a, b in zip(ring, ring[1:]):
        if not math.isfinite(shortest_feasible_path(grid, a, b, world.robot_radius)):
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
            state = step_agent(grid, state, cmd, world.dt, world.robot_radius)
            delta = relative(prev, state.pose)
            if noisy:
                m = _motion(delta)
                delta = type(delta)(
                    delta.dx + rng.normal(0.0, odom_noise.pos_sigma * m),
                    delta.dy + rng.normal(0.0, odom_noise.pos_sigma * m),
                    delta.dtheta + rng.normal(0.0, odom_noise.theta_sigma * m),
                )
                odom = compose(odom, delta)
            else:
                odom = state.pose
            progress += _motion(relative(prev, state.pose))
            if progress >= spacing:
                progress -= spacing
                obs = world.observe(state.pose)
                observations.append(Observation(obs.id, obs.scan, obs.true_pose, odom))
        else:
            raise RouteError("controller could not reach a route waypoint")
    return observations


def save_trajectory(observations, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(_TRAJ_HEADER + "\n")
        for o in observations:
            _write_observation(fh, o)


def load_trajectory(path: str) -> list[Observation]:
    try:
        lines = open(path).read().splitlines()
    except OSError as e:
        raise LoadError(str(e)) from e
    if not lines or lines[0] != _TRAJ_HEADER:
        raise LoadError(f"not a {_TRAJ_HEADER} file")
    try:
        return [_parse_observation(ln) for ln in lines[1:] if ln.strip()]
    except (ValueError, IndexError) as e:
        raise LoadError(f"malformed trajectory file: {e}") from e


# ---------------------------------------------------------------------------
# Episodes.
# ---------------------------------------------------------------------------


def _rotate_in_place(world, state: AgentState, angle: float) -> AgentState:
    remaining = angle
    per_step = world.gains.omega_max * world.dt
    while abs(remaining) > 1e-9:
        w = math.copysign(min(abs(remaining), per_step), remaining)
        state = step_agent(world.grid, state, VelocityCmd(0.0, w / world.dt), world.dt,
                           world.robot_radius)
        remaining -= w
    return state


def traversal_succeeded(estimator, subgoal_obs: Observation, arrival_obs: Observation,
                        params: BuildParams) -> bool:
    """Did the drive end somewhere the subgoal considers adjacent?

    Uses the connect test's probability and upper distance bound but not
    its lower bound: ending up closer than D_m is a good traversal, not a
    failed one.
    """
    return (waypoint_distance(estimator.waypoint(subgoal_obs, arrival_obs)) <= params.D_c
            and estimator.predict(subgoal_obs, arrival_obs).r_hat >= params.r_connect_min)


def run_episode(world: World, graph: TopoGraph, pool, estimator, start: Pose2D,
                goal: int, limits: EpisodeLimits, build_params: BuildParams,
                maint_params: MaintenanceParams | None = None, maintain: bool = False,
                expand_rng=None, obs_id_base: int | None = None) -> EpisodeResult:
    """One navigation episode from a free pose to a graph vertex.

    maintain=False leaves graph and pool strictly untouched; with
    maintenance on, failed localization adds a novel vertex, failed
    planning expands from the pool, and each edge traversal updates that
    edge's belief.
    """
    if goal not in graph.vertices:
        raise InvalidGoal(f"goal vertex {goal} is not in the graph")
    if maintain and maint_params is None:
        raise InvalidInput("maintenance requires MaintenanceParams")
    if maintain and expand_rng is None:
        expand_rng = np.random.default_rng(0)
    goal_pose = graph.vertices[goal].true_pose
    state = AgentState(pose=start)
    counter = 0
    events: list = []
    edges_traversed = 0
    recoveries = 0
    last_path = None
    # Collisions are counted as contact events, not contact steps: a drive
    # that presses against a wall for its whole budget is one collision.
    collisions = 0
    in_contact = False

    def take_observation() -> Observation:
        nonlocal counter
        oid = None if obs_id_base is None else obs_id_base + counter
        counter += 1
        return world.observe(state.pose, oid)

    def errors():
        return (math.hypot(state.pose.x - goal_pose.x, state.pose.y - goal_pose.y),
                abs(wrap_angle(state.pose.theta - goal_pose.theta)))

    def result(success: bool, reason: str | None) -> EpisodeResult:
        pe, ye = errors()
        return EpisodeResult(success, reason, state.step_count, collisions,
                             edges_traversed, events, pe, ye)

    def at_goal() -> bool:
        pe, ye = errors()
        return pe <= limits.pos_tol and ye <= limits.yaw_tol

    def recover():
        nonlocal state, recoveries
        if recoveries >= limits.max_recovery_rotations:
            return False
        state = _rotate_in_place(world, state, limits.recovery_rotation_step)
        recoveries += 1
        return True

    if at_goal():
        return result(True, None)
    while True:
        if state.step_count > limits.max_steps:
            return result(False, "timeout")
        if collisions > limits.max_collisions:
            return result(False, "collision_limit")
        obs = take_observation()
        vid = localize(graph, obs, estimator, build_params, last_path)
        if vid is None:
            # Rotation retries come first in both modes; only a full failed
            # sweep marks the pose as genuinely novel.
            if recover():
                if at_goal():
                    return result(True, None)
                continue
            if not maintain:
                return result(False, "stuck")
            vid = add_novel_node(graph, pool, obs, estimator, build_params)
            recoveries = 0
        path = plan(graph, vid, goal)
        if path is None and maintain:
            expanded = expand_for_plan(graph, pool, vid, goal, estimator,
                                       build_params, maint_params, expand_rng)
            if expanded is not None:
                path = expanded[0]
        if path is None:
            if recover():
                if at_goal():
                    return result(True, None)
                continue
            return result(False, "stuck")
        subgoal = path[1] if len(path) > 1 else path[0]
        subgoal_obs = graph.vertices[subgoal]
        w_hat = estimator.waypoint(obs, subgoal_obs)
        target = compose(state.pose, w_hat)
        if subgoal != vid:
            edges_traversed += 1
        cycle_pose = state.pose
        verdict = None
        stalled = False
        arrived = False
        for _ in range(200):
            cmd = feedback_control(state.pose, target, world.gains)
            if cmd.v == 0.0 and cmd.omega == 0.0:
                arrived = True
                break
            before = state.collision_count
            prev_pose = state.pose
            state = step_agent(world.grid, state, cmd, world.dt, world.robot_radius)
            hit = state.collision_count > before
            if hit and not in_contact:
                collisions += 1
            in_contact = hit
            if hit and state.pose == prev_pose:
                # Contact holds the pose, so further commands are no-ops;
                # burning the rest of the budget in place teaches nothing.
                stalled = True
                break
            if at_goal():
                verdict = "goal"
                break
            if state.step_count > limits.max_steps:
                verdict = "timeout"
                break
            if collisions > limits.max_collisions:
                verdict = "collision_limit"
                break
        # The traversal verdict is recorded even when the drive ended the
        # episode; failed drives are exactly the evidence pruning needs.
        if maintain and subgoal != vid and (vid, subgoal) in graph.edges:
            arrival = take_observation()
            succeeded = traversal_succeeded(estimator, subgoal_obs, arrival, build_params)
            outcome = TraversalOutcome(
                (vid, subgoal), succeeded,
                waypoint_distance(w_hat) if succeeded else None)
            events.append(apply_traversal_update(graph, outcome, maint_params))
        if verdict == "goal":
            return result(True, None)
        if verdict is not None:
            return result(False, verdict)
        if stalled or state.pose == cycle_pose:
            # Wedged against an obstacle, or the controller believes it has
            # arrived while the goal test disagrees.  Rotating breaks the
            # repeat; a run of such cycles without a clean arrival is stuck.
            if not recover():
                return result(False, "stuck")
            if at_goal():
                return result(True, None)
        elif arrived:
            recoveries = 0
        last_path = path


def evaluate(world: World, graph: TopoGraph, estimator, test_set, limits: EpisodeLimits,
             build_params: BuildParams):
    """Success rate of the test set against a frozen graph.

    Episodes run without maintenance and with namespaced observation ids,
    so the call is repeatable and mutates nothing.
    """
    if not test_set:
        raise InvalidInput("empty test set")
    results = []
    for idx, (start, goal) in enumerate(test_set):
        results.append(run_episode(
            world, graph, None, estimator, start, goal, limits, build_params,
            maintain=False, obs_id_base=EVAL_ID_BASE + idx * EVAL_ID_STRIDE))
    rate = sum(r.success for r in results) / len(results)
    return rate, results


def _within_tolerance(start: Pose2D, goal_pose: Pose2D, limits: EpisodeLimits) -> bool:
    return (math.hypot(start.x - goal_pose.x, start.y - goal_pose.y) <= limits.pos_tol
            and abs(wrap_angle(start.theta - goal_pose.theta)) <= limits.yaw_tol)


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

    Query sampling and graph expansion draw from separate streams derived
    from the seed, so the whole run is a pure function of its inputs.
    The query-0 baseline point is always present.
    """
    if eval_every < 1 or (n_queries > 0 and n_queries % eval_every != 0):
        raise InvalidInput("eval_every must divide n_queries")
    sample_rng = np.random.default_rng([seed, 1])
    expand_rng = np.random.default_rng([seed, 2])
    rate, _ = evaluate(world, graph, estimator, test_set, limits, build_params)
    points = [(0, rate, graph.n_vertices, graph.n_edges)]
    for q in range(1, n_queries + 1):
        start, goal = _sample_query(world, graph, sample_rng, limits)
        run_episode(world, graph, pool, estimator, start, goal, limits, build_params,
                    maint_params, maintain=True, expand_rng=expand_rng)
        if q % eval_every == 0:
            rate, _ = evaluate(world, graph, estimator, test_set, limits, build_params)
            points.append((q, rate, graph.n_vertices, graph.n_edges))
    return LifelongCurve(points)


# ---------------------------------------------------------------------------
# Diagnostics.
# ---------------------------------------------------------------------------


def estimate_distance_variance(estimator, observations, build_params: BuildParams,
                               max_gap: int = 5) -> float:
    """Variance of predicted-vs-true distances over nearby validation pairs.

    Feeds the initial edge variance and the observation variance of the
    Gaussian weight update.  Falls back to 0.25 when no pair qualifies and
    never returns less than 1e-4.
    """
    residuals = []
    for i in range(len(observations)):
        for j in range(i + 1, min(i + 1 + max_gap, len(observations))):
            pred = estimator.predict(observations[i], observations[j])
            if pred.r_hat < build_params.r_connect_min:
                continue
            d_true = waypoint_distance(
                relative(observations[i].true_pose, observations[j].true_pose))
            residuals.append(waypoint_distance(pred.w_hat) - d_true)
    if not residuals:
        return 0.25
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
