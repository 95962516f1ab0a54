import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toponav.errors import EdgeNotFound, InvalidInput
from toponav.maintenance import (
    MaintenanceParams,
    add_novel_node,
    apply_traversal_update,
    bayes_connectivity_update,
    expand_for_plan,
    gaussian_weight_update,
)
from toponav.fixtures import two_room_map, two_room_route
from toponav.gridworld import sample_free_pose
from toponav.navharness import World, collect_trajectory
from toponav.perception import OracleEstimator
from toponav.se2 import Pose2D
from toponav.topograph import (
    BuildParams,
    EdgeBelief,
    TopoGraph,
    TrajectoryPool,
    build_graph,
    localize,
    plan,
    save_graph,
)

from test_gridworld import empty_room
from test_perception import count_labels, mk_obs

MP = MaintenanceParams()
BP = BuildParams()


def bayes_fraction(p: Fraction, succeeded: bool) -> Fraction:
    """Exact rational mirror of the Bayes update at default likelihoods."""
    l1 = Fraction(9, 10) if succeeded else Fraction(1, 10)
    l0 = Fraction(2, 10) if succeeded else Fraction(8, 10)
    return l1 * p / (l1 * p + l0 * (1 - p))


class TestBayesUpdate:
    def test_half_prior_success(self):
        got = bayes_connectivity_update(0.5, True, MP)
        assert got == pytest.approx(9 / 11, abs=1e-12)

    def test_half_prior_failure(self):
        got = bayes_connectivity_update(0.5, False, MP)
        assert got == pytest.approx(1 / 9, abs=1e-12)

    def test_degenerate_priors_are_fixed_points(self):
        for outcome in (True, False):
            assert bayes_connectivity_update(1.0, outcome, MP) == 1.0
            assert bayes_connectivity_update(0.0, outcome, MP) == 0.0

    def test_failure_sequence_from_point_nine(self):
        p = 0.9
        p = bayes_connectivity_update(p, False, MP)
        assert p == pytest.approx(9 / 17, abs=1e-9)
        p = bayes_connectivity_update(p, False, MP)
        assert p == pytest.approx(9 / 73, abs=1e-9)
        assert p < MP.R_p

    def test_matches_exact_rational_chain(self):
        p, pf = 0.37, Fraction(37, 100)
        for succeeded in (True, True, False, True, False, False, True):
            p = bayes_connectivity_update(p, succeeded, MP)
            pf = bayes_fraction(pf, succeeded)
            assert p == pytest.approx(float(pf), abs=1e-12)

    @given(st.floats(0.0, 1.0), st.booleans(),
           st.floats(0.02, 0.97), st.floats(0.01, 0.96))
    @settings(max_examples=300)
    def test_monotone_in_outcome(self, p, succeeded, a, b):
        l0, l1 = sorted((a, b + 0.01 if b >= a else b))
        if l1 <= l0:
            l1 = l0 + 0.01
        params = MaintenanceParams(p_s_given_r1=l1, p_s_given_r0=l0)
        p_new = bayes_connectivity_update(p, succeeded, params)
        assert 0.0 <= p_new <= 1.0 + 1e-12
        if succeeded:
            assert p_new >= p - 1e-12
        else:
            assert p_new <= p + 1e-12


class TestGaussianUpdate:
    def test_equal_variance_midpoint(self):
        assert gaussian_weight_update(2.0, 1.0, 4.0, 1.0) == pytest.approx((3.0, 0.5), abs=1e-12)

    def test_uneven_variances(self):
        mu, s2 = gaussian_weight_update(0.0, 3.0, 4.0, 1.0)
        assert mu == pytest.approx(3.0, abs=1e-12)
        assert s2 == pytest.approx(0.75, abs=1e-12)

    def test_certain_prior_dominates(self):
        mu, s2 = gaussian_weight_update(1.0, 1e-12, 9.0, 1.0)
        assert mu == pytest.approx(1.0, abs=1e-9)
        assert s2 < 1e-12

    def test_rejects_bad_variance(self):
        with pytest.raises(InvalidInput):
            gaussian_weight_update(1.0, 0.0, 2.0, 1.0)

    @given(st.floats(-5, 5), st.floats(1e-3, 10), st.floats(-5, 5), st.floats(1e-3, 10))
    @settings(max_examples=300)
    def test_contraction_properties(self, mu, s2e, d, s2o):
        mu2, s22 = gaussian_weight_update(mu, s2e, d, s2o)
        assert s22 < s2e
        assert min(mu, d) - 1e-9 <= mu2 <= max(mu, d) + 1e-9

    def test_repeated_observation_converges(self):
        mu, s2 = 0.0, 4.0
        errs = []
        for _ in range(6):
            mu, s2 = gaussian_weight_update(mu, s2, 2.0, 1.0)
            errs.append(abs(mu - 2.0))
        assert all(a > b for a, b in zip(errs, errs[1:]))


def edge_graph(p=0.9, mu=1.2, sigma2=0.25, build_params=BP):
    g = TopoGraph(build_params)
    for oid, pose in ((1, Pose2D(0, 0, 0)), (2, Pose2D(1, 0, 0)), (3, Pose2D(2, 0, 0))):
        grid = empty_room(6.0, 5.0)
        g.add_vertex(mk_obs(grid, oid, Pose2D(pose.x + 2.0, pose.y + 2.5, 0.0)))
    g.add_edge(1, 2, EdgeBelief(p, mu, sigma2))
    g.add_edge(2, 3, EdgeBelief(0.7, 0.8, 0.5))
    return g


class TestApplyTraversalUpdate:
    def test_success_raises_p_and_pulls_mu(self):
        g = edge_graph()
        rep = apply_traversal_update(g, (1, 2), 2.0, MP)
        g.check()
        assert rep.action == "updated"
        assert rep.new_p > rep.old_p
        assert rep.old_mu < rep.new_mu < 2.0
        assert g.edges[(1, 2)].sigma2 < 0.25

    def test_observation_at_mu_halves_variance(self):
        # The sample's variance is the graph's sigma2_init, which a new
        # edge starts with: one sample at mu halves it.
        s = 0.6
        g = edge_graph(mu=1.2, sigma2=s, build_params=BuildParams(sigma2_init=s))
        apply_traversal_update(g, (1, 2), 1.2, MP)
        b = g.edges[(1, 2)]
        assert b.mu == pytest.approx(1.2, abs=1e-12)
        assert b.sigma2 == pytest.approx(s / 2.0, abs=1e-12)

    def test_failure_leaves_distance_untouched(self):
        g = edge_graph(p=0.9)
        rep = apply_traversal_update(g, (1, 2), None, MP)
        g.check()
        assert rep.action == "updated"
        assert rep.new_p == pytest.approx(9 / 17, abs=1e-12)
        assert (rep.new_mu, rep.new_sigma2) == (rep.old_mu, rep.old_sigma2)
        assert (1, 2) in g.edges

    def test_prunes_when_belief_collapses(self):
        g = edge_graph(p=0.9)
        apply_traversal_update(g, (1, 2), None, MP)
        rep = apply_traversal_update(g, (1, 2), None, MP)
        g.check()
        assert rep.action == "pruned"
        assert rep.new_p == pytest.approx(9 / 73, abs=1e-9)
        assert (1, 2) not in g.edges
        with pytest.raises(EdgeNotFound):
            apply_traversal_update(g, (1, 2), None, MP)

    def test_prune_count_matches_odds_arithmetic(self):
        # Failure divides the odds by (1-l0)/(1-l1) = 8 each time; the edge
        # dies on the first failure that lands below the R_p odds.
        for p0 in (0.9, 0.75, 0.6, 0.45):
            odds = Fraction(p0).limit_denominator(10**6) / (1 - Fraction(p0).limit_denominator(10**6))
            k, cutoff = 0, Fraction(3, 7)
            while odds >= cutoff:
                odds /= 8
                k += 1
            g = edge_graph(p=p0)
            fails = 0
            while (1, 2) in g.edges:
                rep = apply_traversal_update(g, (1, 2), None, MP)
                fails += 1
                assert fails < 50
            assert fails == k
            assert rep.action == "pruned"

    def test_other_edges_untouched(self):
        g = edge_graph()
        before = (g.edges[(2, 3)].p, g.edges[(2, 3)].mu, g.edges[(2, 3)].sigma2)
        apply_traversal_update(g, (1, 2), 1.0, MP)
        after = (g.edges[(2, 3)].p, g.edges[(2, 3)].mu, g.edges[(2, 3)].sigma2)
        assert before == after

    def test_negative_or_nan_distance_raises_and_leaves_the_belief(self):
        for d in (-1.0, math.nan, math.inf):
            g = edge_graph()
            with pytest.raises(InvalidInput):
                apply_traversal_update(g, (1, 2), d, MP)
            b = g.edges[(1, 2)]
            assert (b.p, b.mu, b.sigma2) == (0.9, 1.2, 0.25)

    def test_report_line_format(self):
        g = edge_graph()
        rep = apply_traversal_update(g, (1, 2), 1.0, MP)
        line = rep.line(7)
        assert "query=7" in line and "edge=1->2" in line and "action=updated" in line


class TestAddNovelNode:
    def setup_method(self):
        self.grid = empty_room(6.0, 5.0)
        self.est = OracleEstimator(self.grid)

    def _base_graph(self):
        g = TopoGraph()
        g.add_vertex(mk_obs(self.grid, 0, Pose2D(2.0, 2.5, 0.0)))
        return g

    def test_nearby_node_gets_edge(self):
        g = self._base_graph()
        novel = mk_obs(self.grid, 5, Pose2D(3.2, 2.5, 0.0))
        vid = add_novel_node(g, TrajectoryPool(), novel, self.est, BP)
        g.check()
        assert vid == 5 and 5 in g.vertices
        assert (0, 5) in g.edges
        assert g.edges[(0, 5)].mu == pytest.approx(1.2, abs=1e-9)
        assert (5, 0) not in g.edges  # vertex 0 sits behind the novel pose

    def test_far_node_added_isolated(self):
        g = self._base_graph()
        novel = mk_obs(self.grid, 6, Pose2D(5.5, 2.5, 0.0))
        add_novel_node(g, TrajectoryPool(), novel, self.est, BP)
        g.check()
        assert 6 in g.vertices and g.n_edges == 0

    def test_localizes_to_itself_afterwards(self):
        g = self._base_graph()
        novel = mk_obs(self.grid, 5, Pose2D(3.2, 2.5, 0.0))
        add_novel_node(g, TrajectoryPool(), novel, self.est, BP)
        probe = mk_obs(self.grid, 99, Pose2D(3.2, 2.5, 0.0))
        assert localize(g, probe, self.est, BP) == 5

    def test_removed_from_pool(self):
        g = self._base_graph()
        novel = mk_obs(self.grid, 5, Pose2D(3.2, 2.5, 0.0))
        pool = TrajectoryPool([novel])
        add_novel_node(g, pool, novel, self.est, BP)
        assert pool.ids() == []

    def test_an_id_the_graph_or_pool_holds_for_another_observation_is_refused(
            self, monkeypatch):
        # A world whose id counter starts at 0 observes beside a graph built
        # from every third two-room observation, with the rest as its pool.
        # Its first novel vertex took id 1 and dropped the pool's own
        # observation 1 (434 -> 433 pool observations) without an error.
        grid = two_room_map()
        traj = collect_trajectory(World(grid), two_room_route(), 1, 0.2)
        est = OracleEstimator(grid)
        graph, leftovers = build_graph(traj[::3], est, BP)
        pool = TrajectoryPool(sorted([o for i, o in enumerate(traj) if i % 3] + list(leftovers),
                                     key=lambda o: o.id))
        world = World(grid)
        rng = np.random.default_rng(4)
        held = len(pool)
        taken = 0
        for _ in range(40):
            obs = world.observe(sample_free_pose(grid, rng))
            if localize(graph, obs, est, BP) is not None:
                continue
            if obs.id not in graph.vertices and obs.id not in pool.ids():
                add_novel_node(graph, pool, obs, est, BP)
                continue
            before = (graph.n_vertices, graph.n_edges, pool.ids())
            labels = count_labels(monkeypatch)
            with pytest.raises(InvalidInput):
                add_novel_node(graph, pool, obs, est, BP)
            monkeypatch.undo()
            assert labels == [] and (graph.n_vertices, graph.n_edges, pool.ids()) == before
            taken += 1
        assert taken > 0 and len(pool) == held

    def test_only_a_free_id_or_the_pools_own_observation_is_added(self):
        g = self._base_graph()
        novel = mk_obs(self.grid, 0, Pose2D(3.2, 2.5, 0.0))
        with pytest.raises(InvalidInput):
            add_novel_node(g, TrajectoryPool(), novel, self.est, BP)
        held = mk_obs(self.grid, 5, Pose2D(3.2, 2.5, 0.0))
        other = mk_obs(self.grid, 5, Pose2D(3.3, 2.5, 0.0))
        with pytest.raises(InvalidInput):
            add_novel_node(g, TrajectoryPool([held]), other, self.est, BP)
        assert add_novel_node(g, TrajectoryPool([held]), held, self.est, BP) == 5


class TestExpandForPlan:
    def setup_method(self):
        self.grid = empty_room(7.0, 5.0)
        self.est = OracleEstimator(self.grid)

    def _clusters(self):
        # Two chains with a 3.5 m gap: no standard-threshold edge can span it.
        g = TopoGraph()
        poses = {0: Pose2D(2.0, 2.5, 0.0), 1: Pose2D(2.5, 2.5, 0.0),
                 2: Pose2D(6.0, 2.5, 0.0), 3: Pose2D(6.5, 2.5, 0.0)}
        for oid, pose in poses.items():
            g.add_vertex(mk_obs(self.grid, oid, pose))
        g.add_edge(0, 1, EdgeBelief(0.95, 0.5, 0.25))
        g.add_edge(2, 3, EdgeBelief(0.95, 0.5, 0.25))
        return g

    def test_connected_pair_rejected(self):
        g = self._clusters()
        pool = TrajectoryPool()
        with pytest.raises(InvalidInput):
            expand_for_plan(g, pool, 0, 1, self.est, MP, np.random.default_rng(0))

    def test_empty_pool_returns_none_unchanged(self, tmp_path):
        g = self._clusters()
        pool = TrajectoryPool()
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        save_graph(g, pool, p1)
        assert expand_for_plan(g, pool, 0, 3, self.est, MP,
                               np.random.default_rng(0)) is None
        save_graph(g, pool, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_single_bridge_observation(self):
        # The hop cluster->bridge has waypoint distance just over D_c, so
        # only the relaxed thresholds can wire it.
        g = self._clusters()
        bridge = mk_obs(self.grid, 10, Pose2D(4.45, 2.5, 0.35))
        decoy = mk_obs(self.grid, 11, Pose2D(1.5, 2.5, math.pi))
        pool = TrajectoryPool([bridge, decoy])
        out = expand_for_plan(g, pool, 0, 3, self.est, MP, np.random.default_rng(1))
        g.check()
        assert out is not None
        path, kept = out
        assert kept == [10]
        assert 10 in path and path[0] == 0 and path[-1] == 3
        assert 10 in g.vertices and 11 not in g.vertices
        assert pool.ids() == [11]
        assert plan(g, 0, 3) == path

    def test_useless_pool_restores_exactly(self, tmp_path):
        g = TopoGraph()
        grid = empty_room(13.0, 5.0)
        est = OracleEstimator(grid)
        for oid, x in ((0, 2.0), (1, 2.5), (2, 10.5), (3, 11.0)):
            g.add_vertex(mk_obs(grid, oid, Pose2D(x, 2.5, 0.0)))
        g.add_edge(0, 1, EdgeBelief(0.95, 0.5, 0.25))
        g.add_edge(2, 3, EdgeBelief(0.95, 0.5, 0.25))
        pool = TrajectoryPool([mk_obs(grid, 20, Pose2D(6.5, 2.5, 0.0))])
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        save_graph(g, pool, p1)
        assert expand_for_plan(g, pool, 0, 3, est, MP,
                               np.random.default_rng(2)) is None
        g.check()
        save_graph(g, pool, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_conservation_of_observations(self):
        g = self._clusters()
        bridge = mk_obs(self.grid, 10, Pose2D(4.45, 2.5, 0.35))
        decoy = mk_obs(self.grid, 11, Pose2D(1.5, 2.5, math.pi))
        pool = TrajectoryPool([bridge, decoy])
        before = set(g.vertices) | set(pool.ids())
        out = expand_for_plan(g, pool, 0, 3, self.est, MP, np.random.default_rng(3))
        assert out is not None
        assert set(g.vertices) | set(pool.ids()) == before
        assert set(g.vertices) & set(pool.ids()) == set()


class TestParamValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(InvalidInput):
            MaintenanceParams(R_p=0.0)
        with pytest.raises(InvalidInput):
            MaintenanceParams(p_s_given_r1=0.2, p_s_given_r0=0.9)
        with pytest.raises(InvalidInput):
            MaintenanceParams(relax_D_c_factor=0.9)
