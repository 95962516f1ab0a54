"""Reachability labeling and the pluggable pose/reachability estimator.

An estimator is anything with three methods:

* distance_floor(src_obs, dst_obs) -> float, a lower bound on
  waypoint_distance(waypoint(src_obs, dst_obs)), 0.0 when none is known;
* waypoint(src_obs, dst_obs) -> Waypoint, the predicted relative pose;
* predict(src_obs, dst_obs) -> Prediction, the reachability score r_hat
  together with the same waypoint as w_hat.

topograph.reach tests a pair's distance window on the floor, then on
waypoint(), and asks predict() for the score only when the pair can still
pass, so a costly score is only computed on demand.  The oracle
implementation computes ground truth on the map and corrupts it with
configurable noise; its randomness is keyed on (seed, src.id, dst.id), so a
flipped label stays flipped for that pair for the life of a run.
"""

from __future__ import annotations

import logging
import math
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, LoadError
from .gridworld import (
    DepthScan,
    GridMap,
    co_visible,
    raycast_scan,
    sample_free_pose,
    shortest_feasible_path,
    staircase_length,
)
from .se2 import Pose2D, Waypoint, dubins_sample, relative, wrap_angle

logger = logging.getLogger(__name__)

_PAIR_CACHE_CAP = 65536


class Observation:
    """One sensing event: unique id, depth scan, and the two pose records.

    true_pose is simulator ground truth (used by labeling and evaluation);
    odom_pose is the accumulated odometry estimate (used for self-supervised
    waypoint labels).  An observation given a `view` map instead of a scan
    casts its scan from true_pose through raycast_scan on the first read of
    `scan`, and keeps it.
    """

    __slots__ = ("id", "true_pose", "odom_pose", "_scan", "_view")

    def __init__(self, id: int, scan: DepthScan | None, true_pose: Pose2D, odom_pose: Pose2D,
                 view: GridMap | None = None):
        self.id = id
        self._scan = scan
        self.true_pose = true_pose
        self.odom_pose = odom_pose
        self._view = view

    @property
    def scan(self) -> DepthScan | None:
        if self._view is not None:
            self._scan = raycast_scan(self._view, self.true_pose)
            self._view = None
        return self._scan


@dataclass(frozen=True)
class Prediction:
    """Estimator output: reachability score in [0, 1] and relative waypoint."""

    r_hat: float
    w_hat: Waypoint


@dataclass(frozen=True)
class ReachabilityCriteria:
    """Thresholds defining when one pose is directly reachable from another."""

    L_min: float = 0.3
    R_max: float = 1.6
    E_max: float = 2.5
    Theta_max: float = math.pi / 2
    turn_radius: float = 0.3

    def __post_init__(self):
        if not (0.0 <= self.L_min <= 1.0):
            raise InvalidInput("L_min must be in [0, 1]")
        if not (self.R_max > 0.0 and self.E_max > 0.0):
            raise InvalidInput("R_max and E_max must be positive")
        if not (self.Theta_max >= 0.0):
            raise InvalidInput("Theta_max must be non-negative")
        if not (0.0 < self.turn_radius < math.inf):
            raise InvalidInput("turn_radius must be positive and finite")


@dataclass(frozen=True)
class NoiseConfig:
    """Oracle corruption: waypoint Gaussians plus label flip rates."""

    pos_sigma: float = 0.0
    theta_sigma: float = 0.0
    false_positive_rate: float = 0.0
    false_negative_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.pos_sigma < math.inf and 0.0 <= self.theta_sigma < math.inf):
            raise InvalidInput("noise sigmas must be non-negative and finite")
        if not (0.0 <= self.false_positive_rate <= 1.0
                and 0.0 <= self.false_negative_rate <= 1.0):
            raise InvalidInput("label flip rates must be in [0, 1]")
        if self.seed < 0:
            raise InvalidInput("noise seed must be non-negative")


@dataclass
class LabeledPair:
    src: Observation
    dst: Observation
    r: int
    w: Waypoint


def label_reachability(
    grid: GridMap,
    a: Pose2D,
    b: Pose2D,
    criteria: ReachabilityCriteria,
) -> int:
    """Ground-truth reachability of b from a.  1 iff every criterion holds:

    b is near (euclidean <= E_max, heading change <= Theta_max), the map's
    sensor at a sees it with visual overlap >= L_min (co_visible, which
    decides range, field of view, free cell, sight line and overlap), a
    bounded-curvature path to it keeps the map's robot disc clear of walls,
    and the feasible path is not much longer than the straight line (ratio
    <= R_max).

    The label is the AND of these checks, so their order is free: the
    map-free gates run first, so most far-apart pairs never touch the map,
    then co-visibility, which rejects most of the pairs that reach it, and
    the Dubins and path checks last.  The path search runs only when the
    straightest staircase of cells between the two poses is blocked or too
    long to decide the ratio.  Poses within one resolution of each other
    are labelled reachable once the near gates pass.
    """
    c = criteria
    euclid = math.hypot(b.x - a.x, b.y - a.y)
    if euclid > c.E_max:
        return 0
    if abs(wrap_angle(b.theta - a.theta)) > c.Theta_max:
        return 0
    if euclid < grid.resolution:
        # Same place to within a cell: every remaining criterion is
        # direction- or view-dependent and passes trivially.
        return 1
    if not co_visible(grid, a, b, c.L_min):
        return 0
    poses = dubins_sample(a, b, c.turn_radius, 0.5 * grid.resolution)
    if any(grid.disc_blocked(x, y) for x, y in poses[:, :2].tolist()):
        return 0
    # A clear staircase between the two cells is a path of the cell graph
    # that no path undercuts, so the search below could only return its
    # octile length, summed in another order.  A sum over the steps of any
    # path across the grid rounds by far less than a relative 1e-9, so with
    # that margin the search's length would pass the ratio test.
    if staircase_length(grid, a, b) * (1.0 + 1e-9) <= c.R_max * euclid:
        return 1
    # A path longer than R_max * euclid fails the ratio test, so the search
    # stops there, with a margin for rounding; beyond it reads inf, which
    # fails the test too.
    path_len = shortest_feasible_path(grid, a, b, c.R_max * euclid * (1.0 + 1e-9))
    if path_len / euclid > c.R_max:
        return 0
    return 1


class _PairDraws(NamedTuple):
    """A pair's noise draws, kept until predict() labels the pair."""

    w_hat: Waypoint
    u_flip: float
    wobble: float


class OracleEstimator:
    """Ground-truth estimator with configurable corruption.

    predict() is a pure function of (noise.seed, src.id, dst.id) and the two
    true poses: label flips persist per pair across repeated queries, the
    reachability score lands near 0.95 or 0.05 with a small uniform wobble,
    and the waypoint is the true relative transform plus Gaussian noise.
    waypoint() returns that same waypoint without labelling the pair.
    """

    def __init__(
        self,
        grid: GridMap,
        noise: NoiseConfig = NoiseConfig(),
        criteria: ReachabilityCriteria = ReachabilityCriteria(),
    ):
        self.grid = grid
        self.noise = noise
        self.criteria = criteria
        # Pair key -> Prediction once labelled, _PairDraws before.  Entries
        # hold no reference back to the estimator.
        self._cache: OrderedDict = OrderedDict()

    def true_label(self, a: Observation, b: Observation) -> int:
        return label_reachability(self.grid, a.true_pose, b.true_pose, self.criteria)

    def _exact_waypoint(self, a: Observation, b: Observation) -> Waypoint:
        # + 0.0 turns a -0.0 component into +0.0, as adding a zero-sigma
        # Gaussian draw does; the sign of a zero can flip a later atan2.
        w = relative(a.true_pose, b.true_pose)
        return Waypoint(w.dx + 0.0, w.dy + 0.0, wrap_angle(w.dtheta + 0.0))

    def _noisy_waypoints(self) -> bool:
        return self.noise.pos_sigma != 0.0 or self.noise.theta_sigma != 0.0

    def _draw(self, a: Observation, b: Observation) -> _PairDraws:
        """The pair's draws from its own stream: label flip, score wobble,
        then the waypoint noise."""
        rng = np.random.default_rng([self.noise.seed, a.id, b.id])
        # Generator.uniform(lo, hi) is lo + (hi - lo) * random(), one double
        # each, so these are the draws of uniform() and uniform(-0.04, 0.04).
        u_flip, u = rng.random(2).tolist()
        wobble = -0.04 + (0.04 - -0.04) * u
        if not self._noisy_waypoints():
            return _PairDraws(self._exact_waypoint(a, b), u_flip, wobble)
        w_true = relative(a.true_pose, b.true_pose)
        w_hat = Waypoint(
            w_true.dx + rng.normal(0.0, self.noise.pos_sigma),
            w_true.dy + rng.normal(0.0, self.noise.pos_sigma),
            wrap_angle(w_true.dtheta + rng.normal(0.0, self.noise.theta_sigma)),
        )
        return _PairDraws(w_hat, u_flip, wobble)

    def _store(self, key, entry) -> None:
        if key not in self._cache and len(self._cache) >= _PAIR_CACHE_CAP:
            self._cache.popitem(last=False)
        self._cache[key] = entry

    def distance_floor(self, a: Observation, b: Observation) -> float:
        """A lower bound on waypoint_distance(waypoint(a, b)) that costs no
        waypoint: with exact waypoints, the euclidean distance between the
        true positions, less a relative 1e-9 for rounding and an absolute
        1e-150 for squares that underflow in waypoint_distance; 0.0 with
        pose noise.

        The bound holds because the translation part of the SE(2) log is
        V(theta)^-1 applied to the rotated position offset, and V(theta) is
        a rotation scaled by at most 1, so it is no shorter than the offset;
        the rotation term adds a non-negative 2 * omega^2.
        """
        if self._noisy_waypoints():
            return 0.0
        pa, pb = a.true_pose, b.true_pose
        return max(0.0, math.hypot(pb.x - pa.x, pb.y - pa.y) * (1.0 - 1e-9) - 1e-150)

    def waypoint(self, a: Observation, b: Observation) -> Waypoint:
        """predict(a, b).w_hat, without labelling the pair."""
        if not self._noisy_waypoints():
            return self._exact_waypoint(a, b)
        key = (a.id, b.id, a.true_pose, b.true_pose)
        entry = self._cache.get(key)
        if entry is None:
            entry = self._draw(a, b)
            self._store(key, entry)
        return entry.w_hat

    def predict(self, a: Observation, b: Observation) -> Prediction:
        key = (a.id, b.id, a.true_pose, b.true_pose)
        entry = self._cache.get(key)
        if isinstance(entry, Prediction):
            return entry
        if entry is None:
            entry = self._draw(a, b)
        if self.true_label(a, b) == 1:
            predicted = 0 if entry.u_flip < self.noise.false_negative_rate else 1
        else:
            predicted = 1 if entry.u_flip < self.noise.false_positive_rate else 0
        pred = Prediction((0.95 if predicted else 0.05) + entry.wobble, entry.w_hat)
        self._store(key, pred)
        return pred


# ---------------------------------------------------------------------------
# Training-style losses.
# ---------------------------------------------------------------------------

_CLAMP = 1e-7


def loss_reachability(r: int, r_hat: float) -> float:
    """Binary cross-entropy; r_hat is clamped away from 0 and 1."""
    p = min(max(r_hat, _CLAMP), 1.0 - _CLAMP)
    return -(r * math.log(p) + (1 - r) * math.log(1.0 - p))


def loss_position(w: Waypoint, w_hat: Waypoint) -> float:
    """Euclidean error on the translation part."""
    return math.hypot(w.dx - w_hat.dx, w.dy - w_hat.dy)


def loss_rotation(w: Waypoint, w_hat: Waypoint) -> float:
    """|sin - sin| + |cos - cos|, continuous across the angle wrap."""
    return abs(math.sin(w.dtheta) - math.sin(w_hat.dtheta)) + abs(
        math.cos(w.dtheta) - math.cos(w_hat.dtheta)
    )


def loss_total(
    r: int, w: Waypoint, pred: Prediction, alpha: float = 1.0, beta: float = 1.0
) -> float:
    """Joint loss; the waypoint terms only count for reachable pairs."""
    out = loss_reachability(r, pred.r_hat)
    if r:
        out += alpha * loss_position(w, pred.w_hat) + beta * loss_rotation(w, pred.w_hat)
    return out


# ---------------------------------------------------------------------------
# Datasets.
# ---------------------------------------------------------------------------


def generate_sim_dataset(
    maps: list[GridMap],
    n_pairs: int,
    criteria: ReachabilityCriteria,
    rng_seed: int,
) -> list[LabeledPair]:
    """Sample labeled pose pairs uniformly over free space.

    Each pair draws a map, then two disc-free poses; the label is ground
    truth on that map, whose sensor takes the scans, and the waypoint is
    the exact relative transform.
    Observation ids run 0..2*n_pairs-1.
    """
    if not maps:
        raise InvalidInput("need at least one map")
    if n_pairs < 1:
        raise InvalidInput("n_pairs must be >= 1")
    if rng_seed < 0:
        raise InvalidInput("rng_seed must be non-negative")
    rng = np.random.default_rng(rng_seed)
    pairs = []
    next_id = 0
    for _ in range(n_pairs):
        m = maps[int(rng.integers(len(maps)))]
        pa = sample_free_pose(m, rng)
        pb = sample_free_pose(m, rng)
        oa = Observation(next_id, None, pa, pa, m)
        ob = Observation(next_id + 1, None, pb, pb, m)
        next_id += 2
        r = label_reachability(m, pa, pb, criteria)
        pairs.append(LabeledPair(oa, ob, r, relative(pa, pb)))
    pos = sum(p.r for p in pairs)
    logger.info("sim dataset: %d pairs, %d positive (%.1f%%)", len(pairs), pos,
                100.0 * pos / len(pairs))
    return pairs


def label_finetune_pairs(traj: list[Observation], H: int) -> list[LabeledPair]:
    """Self-supervised labels from one trajectory, no map access.

    For every ordered pair (o_i, o_j) with j > i: reachable iff the step gap
    j - i is at most the horizon H; the waypoint label is the odometry delta.
    """
    if not traj:
        raise InvalidInput("trajectory is empty")
    if H < 1:
        raise InvalidInput("horizon must be >= 1")
    pairs = []
    for i in range(len(traj)):
        for j in range(i + 1, len(traj)):
            r = 1 if (j - i) <= H else 0
            w = relative(traj[i].odom_pose, traj[j].odom_pose)
            pairs.append(LabeledPair(traj[i], traj[j], r, w))
    pos = sum(p.r for p in pairs)
    logger.info("finetune pairs: %d total, %d positive", len(pairs), pos)
    return pairs


_DATASET_HEADER = "toponav-dataset/v1"


def save_dataset(pairs: list[LabeledPair], path: str, criteria: ReachabilityCriteria) -> None:
    """Line-delimited export: a criteria header, then one record per line
    (ids, true poses, label, waypoint; no scans)."""
    lines = [f"# {_DATASET_HEADER}"]
    for f in fields(ReachabilityCriteria):
        lines.append(f"# {f.name} {getattr(criteria, f.name)!r}")
    pos = sum(p.r for p in pairs)
    lines.append(f"# pairs {len(pairs)} positive {pos}")
    for p in pairs:
        sp, dp = p.src.true_pose, p.dst.true_pose
        lines.append(
            f"{p.src.id} {p.dst.id} "
            f"{sp.x!r} {sp.y!r} {sp.theta!r} {dp.x!r} {dp.y!r} {dp.theta!r} "
            f"{p.r} {p.w.dx!r} {p.w.dy!r} {p.w.dtheta!r}"
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_dataset(path: str) -> tuple[list[LabeledPair], ReachabilityCriteria]:
    """Inverse of save_dataset: the pairs, each observation holding its
    record's id and true pose (as its odometry pose too) and no scan, and
    the criteria that labelled them.  Raises LoadError unless the header
    gives every ReachabilityCriteria field, once each, in field order, as
    values the criteria accept, or when the pair or positive count differs
    from the header's.  A `# regime` line, which older files carry, is skipped."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise LoadError(f"{path}: {e}") from e
    if not lines or lines[0] != f"# {_DATASET_HEADER}":
        raise LoadError(f"{path}: not a {_DATASET_HEADER} file")
    counts = None
    named = []
    pairs = []
    for ln in lines[1:]:
        if ln.startswith("# pairs "):
            counts = ln[2:]
        elif ln.startswith("#") and not ln.startswith("# regime "):
            named.append(ln[1:].split())
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 12:
            raise LoadError(f"{path}: malformed record {ln!r}")
        try:
            src_id, dst_id, r = int(parts[0]), int(parts[1]), int(parts[8])
            v = [float(x) for x in parts[2:8] + parts[9:]]
        except ValueError as e:
            raise LoadError(f"{path}: malformed record {ln!r}") from e
        if r not in (0, 1):
            raise LoadError(f"{path}: label must be 0 or 1 in record {ln!r}")
        if not all(map(math.isfinite, v)):
            raise LoadError(f"{path}: non-finite value in record {ln!r}")
        sp, dp = Pose2D(*v[0:3]), Pose2D(*v[3:6])
        pairs.append(LabeledPair(Observation(src_id, None, sp, sp),
                                 Observation(dst_id, None, dp, dp), r, Waypoint(*v[6:9])))
    names = [f.name for f in fields(ReachabilityCriteria)]
    if [n[0] if len(n) == 2 else None for n in named] != names:
        raise LoadError(f"{path}: the header must give the criteria {', '.join(names)}, "
                        f"one '# name value' line each, in that order")
    try:
        criteria = ReachabilityCriteria(*(float(value) for _, value in named))
    except (ValueError, InvalidInput) as e:
        raise LoadError(f"{path}: bad criteria in the header: {e}") from e
    # The count line save_dataset writes: a cut or edited file fails it.
    read = f"pairs {len(pairs)} positive {sum(p.r for p in pairs)}"
    if counts != read:
        raise LoadError(f"{path}: header reads {counts!r} but the records hold {read!r}")
    return pairs, criteria
