import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from toponav.errors import InvalidInput
from toponav.se2 import (
    DUBINS_WORDS,
    Pose2D,
    Waypoint,
    _SOLVERS,
    _mod2pi,
    compose,
    dubins_length,
    dubins_sample,
    dubins_segments,
    relative,
    relative_xy,
    se2_exp,
    se2_log,
    waypoint_distance,
    waypoint_matrix,
    wrap_angle,
)


def logm_distance(w):
    """Independent oracle: Frobenius norm of the numerical matrix log."""
    L = scipy.linalg.logm(waypoint_matrix(w))
    return float(np.linalg.norm(L, "fro"))


angles = st.floats(-50.0, 50.0, allow_nan=False)
coords = st.floats(-20.0, 20.0, allow_nan=False)


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_three_half_pi(self):
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_boundary_maps_to_positive_pi(self):
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(math.pi) == math.pi

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            wrap_angle(float("nan"))
        with pytest.raises(InvalidInput):
            wrap_angle(float("inf"))

    @given(angles)
    def test_range_and_idempotence(self, th):
        w = wrap_angle(th)
        assert -math.pi < w <= math.pi
        assert wrap_angle(w) == w


class TestComposeRelative:
    def test_identity(self):
        p = Pose2D(2.0, -1.0, 0.7)
        q = compose(p, Waypoint(0.0, 0.0, 0.0))
        assert (q.x, q.y, q.theta) == (p.x, p.y, p.theta)

    def test_quarter_turn_frame(self):
        # A forward step in a frame facing +y lands one unit up in the world.
        q = compose(Pose2D(0.0, 0.0, math.pi / 2), Waypoint(1.0, 0.0, 0.0))
        assert q.x == pytest.approx(0.0, abs=1e-12)
        assert q.y == pytest.approx(1.0, abs=1e-12)
        assert q.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_relative_of_self_is_zero(self):
        p = Pose2D(3.0, 4.0, -2.0)
        w = relative(p, p)
        assert w.dx == pytest.approx(0.0, abs=1e-12)
        assert w.dy == pytest.approx(0.0, abs=1e-12)
        assert w.dtheta == 0.0

    @given(coords, coords, angles, coords, coords, angles)
    @settings(max_examples=200)
    def test_compose_relative_round_trip(self, ax, ay, ath, bx, by, bth):
        a, b = Pose2D(ax, ay, ath), Pose2D(bx, by, bth)
        c = compose(a, relative(a, b))
        assert c.x == pytest.approx(b.x, abs=1e-9)
        assert c.y == pytest.approx(b.y, abs=1e-9)
        assert abs(wrap_angle(c.theta - b.theta)) < 1e-9

    @given(coords, coords, angles)
    @settings(max_examples=100)
    def test_inverse_round_trip(self, dx, dy, dth):
        # The waypoint from b back to the origin undoes the one that led to b.
        origin = Pose2D(0, 0, 0)
        b = compose(origin, Waypoint(dx, dy, dth))
        back = compose(b, relative(b, origin))
        assert back.x == pytest.approx(0.0, abs=1e-9)
        assert back.y == pytest.approx(0.0, abs=1e-9)
        assert abs(back.theta) < 1e-9


    @given(coords, coords, angles, coords, coords, angles)
    @settings(max_examples=100)
    def test_relative_xy_is_b_in_the_frame_of_a(self, ax, ay, ath, bx, by, bth):
        # inv(T(a)) applied to b's position, by the homogeneous matrices.
        a, b = Pose2D(ax, ay, ath), Pose2D(bx, by, bth)
        want = np.linalg.solve(waypoint_matrix(Waypoint(a.x, a.y, a.theta)), [b.x, b.y, 1.0])
        assert relative_xy(a, b) == pytest.approx(tuple(want[:2]), abs=1e-9)

    @given(coords, coords, angles, coords, coords, angles, coords, coords, angles)
    @settings(max_examples=100)
    def test_compose_is_the_matrix_product(self, px, py, pth, ux, uy, uth, vx, vy, vth):
        # compose(compose(p, u), v) is T(p) T(u) T(v), whichever way it groups.
        p, u, v = Pose2D(px, py, pth), Waypoint(ux, uy, uth), Waypoint(vx, vy, vth)
        q = compose(compose(p, u), v)
        m = waypoint_matrix(Waypoint(p.x, p.y, p.theta)) @ waypoint_matrix(u) @ waypoint_matrix(v)
        assert (q.x, q.y) == pytest.approx((m[0, 2], m[1, 2]), abs=1e-9)
        assert abs(wrap_angle(q.theta - math.atan2(m[1, 0], m[0, 0]))) < 1e-9

    @pytest.mark.parametrize("cls", [Pose2D, Waypoint])
    def test_construction_wraps_the_angle_and_refuses_a_non_finite_one(self, cls):
        assert cls(1.0, 2.0, 3 * math.pi / 2) == cls(1.0, 2.0, wrap_angle(3 * math.pi / 2))
        assert cls(0.0, 0.0, -math.pi) == cls(0.0, 0.0, math.pi)
        with pytest.raises(InvalidInput):
            cls(0.0, 0.0, math.nan)


class TestLogExpDistance:
    def test_pure_translation(self):
        assert waypoint_distance(Waypoint(1.0, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_quarter_rotation(self):
        # |theta| * sqrt(2) for translation-free waypoints.
        d = waypoint_distance(Waypoint(0.0, 0.0, math.pi / 2))
        assert d == pytest.approx(math.pi / math.sqrt(2), abs=1e-12)

    def test_matches_numerical_matrix_log(self):
        cases = [
            Waypoint(1.0, 0.0, 0.0),
            Waypoint(0.0, 0.0, math.pi / 2),
            Waypoint(0.3, -1.2, 2.1),
            Waypoint(-2.0, 0.7, -3.0),
            Waypoint(0.5, 0.5, 1e-7),
            Waypoint(1.0, -1.0, math.pi),
        ]
        for w in cases:
            assert waypoint_distance(w) == pytest.approx(logm_distance(w), abs=1e-9)

    def test_distance_zero_only_at_identity(self):
        assert waypoint_distance(Waypoint(0.0, 0.0, 0.0)) == 0.0
        assert waypoint_distance(Waypoint(1e-3, 0.0, 0.0)) > 0.0

    def test_distance_symmetric_under_inversion(self):
        a, b = Pose2D(0.3, 1.1, -0.7), Pose2D(1.1, 0.2, 1.2)
        assert waypoint_distance(relative(a, b)) == pytest.approx(
            waypoint_distance(relative(b, a)), abs=1e-9)

    @given(coords, coords, angles, coords, coords, angles, coords, coords, angles)
    @settings(max_examples=100)
    def test_distance_is_invariant_under_a_common_rigid_motion(self, ax, ay, ath, bx, by, bth,
                                                              gx, gy, gth):
        a, b, g = Pose2D(ax, ay, ath), Pose2D(bx, by, bth), Pose2D(gx, gy, gth)
        moved = relative(compose(g, relative(Pose2D(0, 0, 0), a)),
                         compose(g, relative(Pose2D(0, 0, 0), b)))
        assert waypoint_distance(moved) == pytest.approx(
            waypoint_distance(relative(a, b)), rel=1e-9, abs=1e-9)

    def test_exp_log_round_trip_bulk(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            w = Waypoint(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
            r = se2_exp(se2_log(w))
            err = math.hypot(r.dx - w.dx, r.dy - w.dy) + abs(wrap_angle(r.dtheta - w.dtheta))
            assert err < 1e-9

    def test_small_angle_branch_continuity(self):
        # The Taylor branch and the closed form must agree at the cutoff.
        for th in (9e-7, 1.1e-6):
            w = Waypoint(1.0, 1.0, th)
            assert waypoint_distance(w) == pytest.approx(logm_distance(w), abs=1e-12)

    def test_log_at_half_turn(self):
        t = se2_log(Waypoint(0.0, 2.0, math.pi))
        back = se2_exp(t)
        assert back.dx == pytest.approx(0.0, abs=1e-9)
        assert back.dy == pytest.approx(2.0, abs=1e-9)
        assert back.dtheta == pytest.approx(math.pi, abs=1e-12)


def brute_force_arc_straight_arc(a, b, radius, n=2048):
    """Discretized search over arc-straight-arc paths (oracle, coarse)."""
    best = math.inf
    ts = np.arange(n) * (2 * math.pi / n)
    for d1 in (1.0, -1.0):
        for d2 in (1.0, -1.0):
            for t in ts:
                h1 = a.theta + d1 * t
                x1 = a.x + radius * d1 * (math.sin(h1) - math.sin(a.theta))
                y1 = a.y - radius * d1 * (math.cos(h1) - math.cos(a.theta))
                # Final arc must rotate h_mid into b.theta.
                q = _mod2pi(d2 * (b.theta - h1))
                h0 = b.theta - d2 * q
                x2 = b.x - radius * d2 * (math.sin(b.theta) - math.sin(h0))
                y2 = b.y + radius * d2 * (math.cos(b.theta) - math.cos(h0))
                ddx, ddy = x2 - x1, y2 - y1
                p = math.hypot(ddx, ddy)
                if p > 1e-9:
                    align = abs(wrap_angle(math.atan2(ddy, ddx) - h1))
                    if align > 2 * math.pi / n * 4:
                        continue
                cost = (t + q) * radius + p
                best = min(best, cost)
    return best


class TestDubins:
    def test_straight_line(self):
        assert dubins_length(Pose2D(0, 0, 0), Pose2D(5, 0, 0), 1.0) == pytest.approx(5.0, abs=1e-12)

    def test_identical_poses(self):
        assert dubins_length(Pose2D(1, 1, 0.5), Pose2D(1, 1, 0.5), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_half_turn_against_brute_force(self):
        a, b = Pose2D(0, 0, 0), Pose2D(0, 2, math.pi)
        got = dubins_length(a, b, 1.0)
        assert got == pytest.approx(math.pi, abs=1e-9)
        oracle = brute_force_arc_straight_arc(a, b, 1.0)
        assert got <= oracle + 1e-9
        assert abs(got - oracle) < 0.02

    def test_random_case_against_brute_force(self):
        # The oracle's alignment slack lets it undercut the true optimum by a
        # hair, so the one-sided bound carries a matching tolerance.
        a, b = Pose2D(0.3, -0.2, 0.4), Pose2D(2.0, 1.5, -1.2)
        got = dubins_length(a, b, 0.5)
        oracle = brute_force_arc_straight_arc(a, b, 0.5)
        assert got <= oracle + 1e-3
        assert abs(got - oracle) < 0.02

    def test_non_positive_radius_rejected(self):
        with pytest.raises(InvalidInput):
            dubins_length(Pose2D(0, 0, 0), Pose2D(1, 0, 0), 0.0)
        with pytest.raises(InvalidInput):
            dubins_length(Pose2D(0, 0, 0), Pose2D(1, 0, 0), -1.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(InvalidInput):
            dubins_segments(Pose2D(0, 0, 0), Pose2D(1, 0, 0), radius)

    @staticmethod
    def _random_pairs(seed, n=300):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            yield (Pose2D(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)),
                   Pose2D(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)),
                   rng.uniform(0.2, 1.2))

    def test_a_common_rigid_motion_keeps_the_word_and_length(self):
        g = Pose2D(1.3, -0.4, 2.2)
        origin = Pose2D(0, 0, 0)
        for a, b, r in self._random_pairs(21):
            ga, gb = compose(g, relative(origin, a)), compose(g, relative(origin, b))
            assert dubins_segments(ga, gb, r)[0] == dubins_segments(a, b, r)[0]
            assert dubins_length(ga, gb, r) == pytest.approx(dubins_length(a, b, r), rel=1e-9)

    def test_the_mirror_image_swaps_left_and_right(self):
        swap = str.maketrans("LR", "RL")
        for a, b, r in self._random_pairs(22):
            ma, mb = Pose2D(a.x, -a.y, -a.theta), Pose2D(b.x, -b.y, -b.theta)
            assert dubins_segments(ma, mb, r)[0] == dubins_segments(a, b, r)[0].translate(swap)
            assert dubins_length(ma, mb, r) == pytest.approx(dubins_length(a, b, r), rel=1e-9)

    def test_driving_back_with_flipped_headings_reverses_the_word(self):
        # Run backwards with the headings turned round, a left arc is driven
        # forwards as a right arc, so the word reverses and swaps L and R.
        swap = str.maketrans("LR", "RL")
        for a, b, r in self._random_pairs(23):
            fa, fb = Pose2D(a.x, a.y, a.theta + math.pi), Pose2D(b.x, b.y, b.theta + math.pi)
            word = dubins_segments(a, b, r)[0]
            assert dubins_segments(fb, fa, r)[0] == word[::-1].translate(swap)
            assert dubins_length(fb, fa, r) == pytest.approx(dubins_length(a, b, r), rel=1e-9)

    @pytest.mark.parametrize("scale", [0.25, 3.0])
    def test_length_scales_with_the_poses_and_the_radius(self, scale):
        for a, b, r in self._random_pairs(24, n=100):
            sa = Pose2D(scale * a.x, scale * a.y, a.theta)
            sb = Pose2D(scale * b.x, scale * b.y, b.theta)
            assert dubins_length(sa, sb, scale * r) == pytest.approx(
                scale * dubins_length(a, b, r), rel=1e-9)

    @pytest.mark.parametrize("step", [0.0, -0.05, math.nan])
    def test_sample_rejects_a_step_that_is_not_positive(self, step):
        with pytest.raises(InvalidInput):
            dubins_sample(Pose2D(0, 0, 0), Pose2D(1, 0, 0), 0.3, step)

    def test_every_feasible_word_reconstructs_endpoint(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = Pose2D(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            b = Pose2D(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            radius = rng.uniform(0.2, 1.2)
            dx, dy = b.x - a.x, b.y - a.y
            big_d = math.hypot(dx, dy)
            phi = math.atan2(dy, dx) if big_d > 1e-15 else 0.0
            al, be = _mod2pi(a.theta - phi), _mod2pi(b.theta - phi)
            trig = (math.sin(al), math.sin(be), math.cos(al), math.cos(be), math.cos(al - be))
            for word in DUBINS_WORDS:
                params = _SOLVERS[word](al, be, big_d / radius, *trig)
                if params is None:
                    continue
                x, y, th = a.x, a.y, a.theta
                for kind, param in zip(word, params):
                    if kind == "S":
                        x += param * radius * math.cos(th)
                        y += param * radius * math.sin(th)
                    else:
                        sg = 1.0 if kind == "L" else -1.0
                        x += radius * sg * (math.sin(th + sg * param) - math.sin(th))
                        y -= radius * sg * (math.cos(th + sg * param) - math.cos(th))
                        th += sg * param
                assert math.hypot(x - b.x, y - b.y) < 1e-6
                assert abs(wrap_angle(th - b.theta)) < 1e-6

    def test_length_at_least_euclidean(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a = Pose2D(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi))
            b = Pose2D(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-math.pi, math.pi))
            assert dubins_length(a, b, 0.3) >= math.hypot(b.x - a.x, b.y - a.y) - 1e-9

    def test_sample_ends_at_goal(self):
        a, b = Pose2D(0.1, 0.2, 0.3), Pose2D(1.7, -0.9, 2.2)
        poses = dubins_sample(a, b, 0.3, 0.05)
        assert math.hypot(poses[-1, 0] - b.x, poses[-1, 1] - b.y) < 1e-9
        assert abs(wrap_angle(poses[-1, 2] - b.theta)) < 1e-9
        steps = np.hypot(np.diff(poses[:, 0]), np.diff(poses[:, 1]))
        assert np.all(steps <= 0.05 + 1e-9)

    def test_word_tie_break_order_is_deterministic(self):
        # Symmetric geometry where LSL and RSR tie: the earlier word wins.
        word, _ = dubins_segments(Pose2D(0, 0, 0), Pose2D(3, 0, 0), 1.0)
        assert word == "LSL"
