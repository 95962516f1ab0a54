"""Lifelong graph refinement.

Every traversal outcome tightens the graph: edge existence follows a
discrete Bayes update, edge distance follows a Gaussian product update on
success, and edges whose belief collapses get pruned.  Observations that
fail to localize become new vertices, and when planning dead-ends the
graph is expanded from the trajectory pool under loosened connection
thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import EdgeNotFound, InvalidInput, InvalidVertex
from .perception import Observation
from .topograph import BuildParams, TopoGraph, TrajectoryPool, connect, plan


@dataclass(frozen=True)
class MaintenanceParams:
    R_p: float = 0.3
    p_s_given_r1: float = 0.9
    p_s_given_r0: float = 0.2
    relax_D_c_factor: float = 1.5
    relax_D_m_factor: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.R_p < 1.0):
            raise InvalidInput("R_p must be in (0, 1)")
        if not (0.0 <= self.p_s_given_r0 < self.p_s_given_r1 <= 1.0):
            raise InvalidInput("need 0 <= p_s_given_r0 < p_s_given_r1 <= 1")
        if not (1.0 < self.relax_D_c_factor < math.inf and 0.0 < self.relax_D_m_factor < 1.0):
            raise InvalidInput("relaxation factors must loosen the thresholds")


@dataclass(frozen=True)
class MaintenanceReport:
    edge: tuple[int, int]
    action: str  # "updated" or "pruned"
    old_p: float
    new_p: float
    old_mu: float
    new_mu: float
    old_sigma2: float
    new_sigma2: float

    def line(self, query: int) -> str:
        return (f"query={query} edge={self.edge[0]}->{self.edge[1]} "
                f"p={self.old_p:.6f}->{self.new_p:.6f} "
                f"mu={self.old_mu:.6f}->{self.new_mu:.6f} action={self.action}")


def bayes_connectivity_update(p: float, succeeded: bool, params: MaintenanceParams) -> float:
    """Posterior edge-existence probability given one traversal outcome."""
    if succeeded:
        l1, l0 = params.p_s_given_r1, params.p_s_given_r0
    else:
        l1, l0 = 1.0 - params.p_s_given_r1, 1.0 - params.p_s_given_r0
    denom = l1 * p + l0 * (1.0 - p)
    if denom == 0.0:
        return p
    return l1 * p / denom


def gaussian_weight_update(mu: float, sigma2_edge: float, d_obs: float, sigma2_obs: float):
    """Precision-weighted fusion of the edge distance with one observation."""
    if sigma2_edge <= 0.0 or sigma2_obs <= 0.0:
        raise InvalidInput("variances must be positive")
    denom = sigma2_edge + sigma2_obs
    mu_new = (sigma2_obs * mu + sigma2_edge * d_obs) / denom
    sigma2_new = sigma2_edge * sigma2_obs / denom
    return mu_new, sigma2_new


def apply_traversal_update(graph: TopoGraph, edge: tuple[int, int],
                           observed_distance: float | None,
                           params: MaintenanceParams) -> MaintenanceReport:
    """Fold one traversal of `edge` into its belief.

    A successful traversal passes its distance sample, a failed one
    None.  Existence always gets the Bayes update; distance is refined
    only on success, with the graph's `sigma2_init` as the sample's
    variance.  A failure that drops the belief below R_p removes the
    edge.  A distance outside [0, inf), NaN included, raises InvalidInput
    and leaves the belief untouched.
    """
    succeeded = observed_distance is not None
    if succeeded and not 0.0 <= observed_distance < math.inf:
        raise InvalidInput("a traversal distance must be nonnegative and finite")
    belief = graph.edges.get(edge)
    if belief is None:
        raise EdgeNotFound(str(edge))
    old_p, old_mu, old_s2 = belief.p, belief.mu, belief.sigma2
    belief.p = bayes_connectivity_update(belief.p, succeeded, params)
    if succeeded:
        belief.mu, belief.sigma2 = gaussian_weight_update(
            belief.mu, belief.sigma2, observed_distance, graph.build_params.sigma2_init)
        action = "updated"
    elif belief.p < params.R_p:
        graph.remove_edge(*edge)
        action = "pruned"
    else:
        action = "updated"
    return MaintenanceReport(edge, action, old_p, belief.p,
                             old_mu, belief.mu, old_s2, belief.sigma2)


def add_novel_node(graph: TopoGraph, pool: TrajectoryPool, obs: Observation,
                   estimator, build_params: BuildParams) -> int:
    """Insert an unlocalizable observation as a fresh vertex.

    Connections are attempted against every existing vertex in both
    directions at the standard thresholds; zero resulting edges is fine.
    The observation leaves the pool if it was there.  Raises InvalidInput,
    before any label, when the graph already holds obs.id or the pool holds
    it for another observation.
    """
    held = pool.get(obs.id)
    if obs.id in graph.vertices or (held is not None and held is not obs):
        raise InvalidInput(f"observation id {obs.id} is taken in the graph or the pool")
    if not connect(graph, obs, estimator, build_params):
        graph.add_vertex(obs)
    pool.discard(obs.id)
    return obs.id


def expand_for_plan(graph: TopoGraph, pool: TrajectoryPool, start: int, goal: int,
                    estimator, maint_params: MaintenanceParams, rng):
    """Bridge a failed plan by sampling vertices from the pool.

    Pool observations are drawn in rng-shuffled order and added
    tentatively, wired under the graph's loosened thresholds (D_c stretched,
    D_m shrunk).  After each draw the plan is retried.  On success only
    the drawn vertices that lie on the found path stay (and leave the
    pool); every other tentative vertex and its edges are rolled back.
    Returns (path, kept vertex ids), or None with graph and pool exactly
    as they were.
    """
    if start not in graph.vertices or goal not in graph.vertices:
        raise InvalidVertex(f"{start} or {goal}")
    if plan(graph, start, goal) is not None:
        raise InvalidInput("plan already exists; expansion is for dead ends")
    bp = graph.build_params
    relaxed = replace(bp, D_m=bp.D_m * maint_params.relax_D_m_factor,
                      D_c=bp.D_c * maint_params.relax_D_c_factor)
    snapshot = list(pool)
    order = rng.permutation(len(snapshot))
    added: list[int] = []
    for i in order:
        cand = snapshot[int(i)]
        if not connect(graph, cand, estimator, relaxed):
            graph.add_vertex(cand)
        added.append(cand.id)
        path = plan(graph, start, goal)
        if path is not None:
            kept = [vid for vid in added if vid in path]
            for vid in added:
                if vid not in path:
                    graph.remove_vertex(vid)
            for vid in kept:
                pool.discard(vid)
            return path, kept
    for vid in added:
        graph.remove_vertex(vid)
    return None
