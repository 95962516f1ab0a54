"""Planar rigid-body geometry: poses, relative waypoints, and Dubins paths.

Angles live in the half-open interval (-pi, pi].  The distance between two
poses is the Frobenius norm of the matrix logarithm of their relative
transform, which blends translation and rotation into a single scalar
(a pure quarter-turn costs pi/sqrt(2) ~ 2.22, same as ~2.2 m of travel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

TWO_PI = 2.0 * math.pi

# Small-angle cutoff below which V(theta) is replaced by its Taylor expansion.
_EPS_THETA = 1e-6


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi].  The boundary -pi maps to +pi."""
    if not math.isfinite(theta):
        raise InvalidInput(f"angle must be finite, got {theta!r}")
    w = theta - TWO_PI * math.floor((theta + math.pi) / TWO_PI)
    # floor() arithmetic can land exactly on -pi or drift past +pi.
    if w <= -math.pi:
        w = math.pi
    elif w > math.pi:
        w -= TWO_PI
    return w


@dataclass(frozen=True)
class Pose2D:
    """World-frame pose (x, y, theta).  theta is normalized on construction."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class Waypoint:
    """Relative transform (dx, dy, dtheta) expressed in the source frame."""

    dx: float
    dy: float
    dtheta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "dtheta", wrap_angle(self.dtheta))


@dataclass(frozen=True)
class Twist:
    """se(2) tangent vector (vx, vy, omega)."""

    vx: float
    vy: float
    omega: float


def compose(base: Pose2D, w: Waypoint) -> Pose2D:
    """Apply a relative waypoint to a world pose."""
    c, s = math.cos(base.theta), math.sin(base.theta)
    return Pose2D(
        base.x + c * w.dx - s * w.dy,
        base.y + s * w.dx + c * w.dy,
        base.theta + w.dtheta,
    )


def relative_xy(a: Pose2D, b: Pose2D) -> tuple[float, float]:
    """The translation (dx, dy) of relative(a, b), without the Waypoint."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    dx_w, dy_w = b.x - a.x, b.y - a.y
    return c * dx_w + s * dy_w, -s * dx_w + c * dy_w


def relative(a: Pose2D, b: Pose2D) -> Waypoint:
    """Waypoint from a to b, i.e. b expressed in a's frame."""
    return Waypoint(*relative_xy(a, b), b.theta - a.theta)


def waypoint_matrix(w: Waypoint) -> np.ndarray:
    """Homogeneous 3x3 transform T(w)."""
    c, s = math.cos(w.dtheta), math.sin(w.dtheta)
    return np.array([[c, -s, w.dx], [s, c, w.dy], [0.0, 0.0, 1.0]])


def _log(dx: float, dy: float, th: float) -> tuple[float, float]:
    """(vx, vy) of the matrix logarithm of T(dx, dy, th); omega is th.

    Uses the closed form [vx, vy] = V(theta)^-1 [dx, dy]; near theta = 0 the
    inverse is replaced by its 2nd-order Taylor expansion to avoid 0/0.
    """
    if abs(th) < _EPS_THETA:
        a = 1.0 - th * th / 12.0
        b = 0.5 * th
        return a * dx + b * dy, -b * dx + a * dy
    A = math.sin(th) / th
    B = (1.0 - math.cos(th)) / th
    den = A * A + B * B
    return (A * dx + B * dy) / den, (-B * dx + A * dy) / den


def se2_log(w: Waypoint) -> Twist:
    """Matrix logarithm of T(w), as a tangent vector."""
    return Twist(*_log(w.dx, w.dy, w.dtheta), w.dtheta)


def se2_exp(t: Twist) -> Waypoint:
    """Matrix exponential of a tangent vector, as a waypoint."""
    th = t.omega
    if abs(th) < _EPS_THETA:
        a = 1.0 - th * th / 6.0
        b = 0.5 * th
        return Waypoint(a * t.vx - b * t.vy, b * t.vx + a * t.vy, th)
    A = math.sin(th) / th
    B = (1.0 - math.cos(th)) / th
    return Waypoint(A * t.vx - B * t.vy, B * t.vx + A * t.vy, th)


def waypoint_distance(w: Waypoint) -> float:
    """Frobenius norm of log T(w).

    The log matrix carries omega twice off-diagonal, so a pure rotation of
    theta scores |theta| * sqrt(2).
    """
    return log_norm(w.dx, w.dy, w.dtheta)


def log_norm(dx: float, dy: float, dtheta: float) -> float:
    """waypoint_distance(Waypoint(dx, dy, dtheta)) for a dtheta that
    Waypoint leaves as it is (wrap_angle(dtheta) == dtheta), with no
    Waypoint or Twist built."""
    vx, vy = _log(dx, dy, dtheta)
    return math.sqrt(vx * vx + vy * vy + 2.0 * dtheta * dtheta)


# ---------------------------------------------------------------------------
# Dubins paths.
#
# Shortest bounded-curvature path between two poses, over the six candidate
# words.  Arc parameters t, q and the straight parameter p are all expressed
# in turn-radius units; metric length is (t + p + q) * radius.  Ties between
# words resolve in the fixed order below.
# ---------------------------------------------------------------------------

DUBINS_WORDS = ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL")


def _mod2pi(x: float) -> float:
    return x % TWO_PI


def _lsl(alpha, beta, d, sa, sb, ca, cb, c_ab):
    p_sq = 2.0 + d * d - 2.0 * c_ab + 2.0 * d * (sa - sb)
    if p_sq < 0.0:
        return None
    tmp = math.atan2(cb - ca, d + sa - sb)
    return _mod2pi(-alpha + tmp), math.sqrt(p_sq), _mod2pi(beta - tmp)


def _rsr(alpha, beta, d, sa, sb, ca, cb, c_ab):
    p_sq = 2.0 + d * d - 2.0 * c_ab + 2.0 * d * (sb - sa)
    if p_sq < 0.0:
        return None
    tmp = math.atan2(ca - cb, d - sa + sb)
    return _mod2pi(alpha - tmp), math.sqrt(p_sq), _mod2pi(-beta + tmp)


def _lsr(alpha, beta, d, sa, sb, ca, cb, c_ab):
    p_sq = -2.0 + d * d + 2.0 * c_ab + 2.0 * d * (sa + sb)
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    tmp = math.atan2(-ca - cb, d + sa + sb) - math.atan2(-2.0, p)
    return _mod2pi(-alpha + tmp), p, _mod2pi(-_mod2pi(beta) + tmp)


def _rsl(alpha, beta, d, sa, sb, ca, cb, c_ab):
    p_sq = -2.0 + d * d + 2.0 * c_ab - 2.0 * d * (sa + sb)
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    tmp = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
    return _mod2pi(alpha - tmp), p, _mod2pi(beta - tmp)


def _rlr(alpha, beta, d, sa, sb, ca, cb, c_ab):
    tmp = (6.0 - d * d + 2.0 * c_ab + 2.0 * d * (sa - sb)) / 8.0
    if abs(tmp) > 1.0:
        return None
    p = _mod2pi(TWO_PI - math.acos(tmp))
    t = _mod2pi(alpha - math.atan2(ca - cb, d - sa + sb) + p / 2.0)
    return t, p, _mod2pi(alpha - beta - t + p)


def _lrl(alpha, beta, d, sa, sb, ca, cb, c_ab):
    tmp = (6.0 - d * d + 2.0 * c_ab + 2.0 * d * (sb - sa)) / 8.0
    if abs(tmp) > 1.0:
        return None
    p = _mod2pi(TWO_PI - math.acos(tmp))
    t = _mod2pi(-alpha + math.atan2(cb - ca, d + sa - sb) + p / 2.0)
    return t, p, _mod2pi(_mod2pi(beta) - alpha - t + _mod2pi(p))


_SOLVERS = {"LSL": _lsl, "RSR": _rsr, "LSR": _lsr, "RSL": _rsl, "RLR": _rlr, "LRL": _lrl}


def dubins_segments(a: Pose2D, b: Pose2D, turn_radius: float):
    """Winning word and its (t, p, q) parameters in radius units.

    Returns (word, (t, p, q)).  Raises InvalidInput for a non-positive radius.
    """
    if not (turn_radius > 0.0) or not math.isfinite(turn_radius):
        raise InvalidInput(f"turn_radius must be positive, got {turn_radius!r}")
    dx, dy = b.x - a.x, b.y - a.y
    big_d = math.hypot(dx, dy)
    d = big_d / turn_radius
    phi = math.atan2(dy, dx) if big_d > 1e-15 else 0.0
    alpha = _mod2pi(a.theta - phi)
    beta = _mod2pi(b.theta - phi)

    # The sines and cosines every solver reads.
    trig = (math.sin(alpha), math.sin(beta), math.cos(alpha), math.cos(beta),
            math.cos(alpha - beta))
    best = None
    for word in DUBINS_WORDS:
        params = _SOLVERS[word](alpha, beta, d, *trig)
        if params is None:
            continue
        cost = params[0] + params[1] + params[2]
        if best is None or cost < best[0] - 1e-12:
            best = (cost, word, params)
    # At least one word (LSL or RSR) is always feasible.
    assert best is not None
    return best[1], best[2]


def dubins_length(a: Pose2D, b: Pose2D, turn_radius: float = 0.3) -> float:
    """Length in meters of the shortest Dubins path from a to b."""
    _, (t, p, q) = dubins_segments(a, b, turn_radius)
    return (t + p + q) * turn_radius


def dubins_sample(a: Pose2D, b: Pose2D, turn_radius: float, step: float) -> np.ndarray:
    """Poses along the optimal Dubins path, spaced <= step meters apart.

    Includes the start pose and the exact endpoint of every segment, so the
    last row reconstructs b up to floating-point error.
    """
    if not (step > 0.0):
        raise InvalidInput("step must be positive")
    word, params = dubins_segments(a, b, turn_radius)
    poses = [(a.x, a.y, a.theta)]
    x, y, th = a.x, a.y, a.theta
    for kind, param in zip(word, params):
        seg_len = param * turn_radius
        if seg_len <= 1e-15:
            continue
        n = max(1, int(math.ceil(seg_len / step)))
        for i in range(1, n + 1):
            s = seg_len * i / n
            if kind == "S":
                xi = x + s * math.cos(th)
                yi = y + s * math.sin(th)
                ti = th
            else:
                sign = 1.0 if kind == "L" else -1.0
                dth = sign * s / turn_radius
                xi = x + turn_radius * sign * (math.sin(th + dth) - math.sin(th))
                yi = y - turn_radius * sign * (math.cos(th + dth) - math.cos(th))
                ti = th + dth
            poses.append((xi, yi, ti))
        x, y, th = poses[-1]
    out = np.array(poses)
    out[:, 2] = np.arctan2(np.sin(out[:, 2]), np.cos(out[:, 2]))
    return out
